"""Pluggable scheduler-policy layer for the memory controller.

A channel controller owns the *resources* (queues, ranks, buses, windows)
while an ordered chain of :class:`SchedulerPolicy` objects owns the
*decisions*.  One scheduling step of the write path runs in two phases:

1. **Pre-selection.**  Each policy may claim the step before a head write
   is even picked — e.g. write pausing resumes a paused write, or blocks
   new issue while one is mid-service.
2. **Selection.**  The head scan picks the head write candidate (the
   queue discipline: strict FIFO for coarse systems, the fine engine's
   oldest-ready-first for fine-grained ones) and offers it to each
   policy in chain order; the first policy that issues service wins.

Policies are also told when a read enters the queue
(:meth:`SchedulerPolicy.on_read_enqueued`), so an open RoW window can
absorb it.

The concrete mechanisms live next to the systems that introduce them:

* :class:`CoarseWritePolicy` (here) — the baseline whole-rank drain;
* :class:`repro.core.fine.SilentWritePolicy` /
  :class:`repro.core.fine.FineWritePolicy` — fine-grained (sub-ranked)
  writes;
* :class:`repro.core.row.ReadOverWritePolicy` — RoW windows (§IV-B);
* :class:`repro.core.wow.WriteOverWritePolicy` — WoW grouping (§IV-C);
* :class:`repro.core.pausing.WritePausingPolicy` — the preemption
  comparator (paper [11]).

:func:`repro.core.systems.build_policies` composes a chain from the
``SystemConfig`` feature flags, so system variants are mix-and-match
policy stacks on one controller class rather than subclass forks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Iterable,
    List,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from repro.memory.address import DecodedAddress
from repro.memory.request import MemoryRequest

if TYPE_CHECKING:  # runtime import would be circular (controller -> policy)
    from repro.memory.controller import MemoryController


@dataclass
class WriteContext:
    """The head write candidate one scheduling step deliberates over.

    Built once per step by the chain's head scan and shared by every
    policy in the chain, so RoW's decline, WoW's grouping
    and the plain fine-write fallback all reason about the *same* head —
    exactly like the monolithic scheduler they replaced.
    """

    now: int
    head: MemoryRequest
    decoded: DecodedAddress


@dataclass(frozen=True)
class ReadAdmission:
    """A plan admitting one read into an open write window.

    ``missing_word`` is ``None`` for a plain overlapped read (no write-busy
    chip touched); otherwise it names the data word to reconstruct from the
    PCC parity while its chip is still writing.
    """

    chips: Tuple[int, ...]
    missing_word: Optional[int] = None


@runtime_checkable
class SchedulerPolicy(Protocol):
    """Decision hooks a memory-scheduling policy may implement.

    All hooks are optional in spirit — :class:`BaseSchedulerPolicy`
    provides neutral defaults — but the signatures here are the contract
    the type checker locks down.
    """

    #: Short identifier of the policy in a chain (``chain.policies``).
    name: str
    #: When True (the default read-priority discipline), queued-but-unready
    #: reads block write issue outside drain mode.  Pausing clears it: its
    #: whole point is issuing/resuming writes under a pending read.
    reads_block_writes: bool
    #: Whether queued reads are flagged ``delayed_by_write`` while the
    #: controller drains (the baseline accounting; pausing does not flag).
    mark_reads_delayed_in_drain: bool

    def bind(self, controller: "MemoryController") -> None:
        """Attach to a controller; fetch metrics/resources once."""
        ...

    def pre_select(self, now: int) -> Optional[bool]:
        """Claim the write step before head selection.

        Return ``True``/``False`` to end the step with/without progress
        (stopping the chain), or ``None`` to let selection proceed.
        """
        ...

    def select_write(self, ctx: WriteContext) -> bool:
        """Issue service for ``ctx.head``; True claims the step."""
        ...

    def on_read_enqueued(self, request: MemoryRequest) -> None:
        """A read entered the queue (post-kick) — e.g. join an open window."""
        ...


class BaseSchedulerPolicy:
    """Neutral defaults: participate in nothing, observe everything."""

    name: str = "base"
    reads_block_writes: bool = True
    mark_reads_delayed_in_drain: bool = True

    def __init__(self) -> None:
        self.controller: Optional["MemoryController"] = None

    def bind(self, controller: "MemoryController") -> None:
        self.controller = controller
        self.on_bind()

    def on_bind(self) -> None:
        """Subclass hook: runs once after ``controller`` attaches."""

    def pre_select(self, now: int) -> Optional[bool]:
        return None

    def select_write(self, ctx: WriteContext) -> bool:
        return False

    def on_read_enqueued(self, request: MemoryRequest) -> None:
        return None


class PolicyChain:
    """Ordered policy stack driving one controller's write scheduling."""

    def __init__(
        self,
        controller: "MemoryController",
        policies: Iterable[SchedulerPolicy],
    ) -> None:
        self.policies: List[SchedulerPolicy] = list(policies)
        if not self.policies:
            raise ValueError("a policy chain needs at least one policy")
        fine = controller.fine
        #: The head scan: the fine write engine's, else the coarse FIFO.
        self.select_candidate = (
            controller.select_write_candidate if fine is None
            else fine.select_candidate
        )
        for policy in self.policies:
            policy.bind(controller)
        # Chain-level discipline flags: one dissenting policy (write
        # pausing) flips them, relaxing the baseline rules.
        self.reads_block_writes = all(
            p.reads_block_writes for p in self.policies
        )
        self.mark_reads_delayed_in_drain = all(
            p.mark_reads_delayed_in_drain for p in self.policies
        )
        # Per-hook dispatch lists: broadcast hooks run every scheduler
        # step (or every read submit), and most chain members inherit the
        # base no-op — drop those at bind time so the hot loops only call
        # policies that actually listen.
        self._pre_select = self._implementors("pre_select")
        self._on_read_enqueued = self._implementors("on_read_enqueued")

    def _implementors(self, hook: str) -> List[SchedulerPolicy]:
        """Chain members that override ``hook`` (base no-ops excluded)."""
        base = getattr(BaseSchedulerPolicy, hook)
        return [
            p for p in self.policies
            if getattr(type(p), hook, None) is not base
        ]

    # ------------------------------------------------------------------
    # The write step
    # ------------------------------------------------------------------
    def select_write(self, now: int) -> bool:
        """Run one write scheduling step; True when service was issued."""
        for policy in self._pre_select:
            verdict = policy.pre_select(now)
            if verdict is not None:
                return verdict
        ctx = self.select_candidate(now)
        if ctx is None:
            return False
        for policy in self.policies:
            if policy.select_write(ctx):
                return True
        return False

    # ------------------------------------------------------------------
    # Broadcast notifications
    # ------------------------------------------------------------------
    def on_read_enqueued(self, request: MemoryRequest) -> None:
        for policy in self._on_read_enqueued:
            policy.on_read_enqueued(request)


class CoarseWritePolicy(BaseSchedulerPolicy):
    """Baseline write drain: coarse whole-rank writes, oldest first.

    Selection (strict FIFO + rank readiness) is the controller's
    ``select_write_candidate``; this policy simply services the head the
    baseline way — reserving every data chip plus ECC for the write's
    whole duration.  This is exactly the idleness PCMap's fine-grained
    policies attack.
    """

    name = "coarse-drain"

    def select_write(self, ctx: WriteContext) -> bool:
        assert self.controller is not None
        self.controller._issue_coarse_write(ctx.head, ctx.decoded, ctx.now)
        return True
