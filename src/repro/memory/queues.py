"""Read and write request queues with watermark-based drain policy.

Memory controllers buffer write-backs and only drain them in bursts: once
the write queue is more than ``drain_high`` full the controller switches
the bus around and services writes until the queue falls below
``drain_low`` (paper §II-B, with alpha = 80 %).  The queue object owns the
thresholds; the controller owns the mode flag.

Queues have finite capacity (Table I: 32-entry write queue, 8-entry read
queue per controller).  ``offer`` rejects requests when full so the CPU
model can apply back-pressure; waiters are notified when space frees up.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.memory.request import MemoryRequest
from repro.telemetry.registry import Counter, Gauge


class RequestQueue:
    """Bounded FIFO-ordered request queue with free-space notification."""

    def __init__(self, capacity: int, name: str = "queue"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.name = name
        #: Queued requests in arrival order.  Schedulers read it directly;
        #: only ``offer`` and ``remove`` change it.
        self.entries: List[MemoryRequest] = []
        self._space_waiters: List[Callable[[], None]] = []
        #: Lower bound on the ready tick of every queued entry, set by a
        #: scheduler scan that found nothing ready.  Removals only raise
        #: the true minimum, so only an arrival resets it.
        self.scan_bound = 0
        # Private instruments until attach_metrics swaps in registry ones.
        self._depth_gauge = Gauge()
        self._push_counter = Counter()
        self._reject_counter = Counter()

    def attach_metrics(self, registry, prefix: str) -> None:
        """Register depth/throughput instruments under ``prefix``.

        ``<prefix>.depth`` (gauge, with max), ``<prefix>.pushed`` and
        ``<prefix>.rejected`` (counters).  Instruments are cached so the
        queue hot path pays attribute access + integer ops only.
        """
        self._depth_gauge = registry.gauge(f"{prefix}.depth")
        self._push_counter = registry.counter(f"{prefix}.pushed")
        self._reject_counter = registry.counter(f"{prefix}.rejected")

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def full(self) -> bool:
        return len(self.entries) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self.entries

    @property
    def occupancy(self) -> float:
        """Fill fraction in [0, 1]."""
        return len(self.entries) / self.capacity

    # ------------------------------------------------------------------
    def offer(self, request: MemoryRequest) -> bool:
        """Append ``request`` if space allows; returns success."""
        if len(self.entries) >= self.capacity:
            self._reject_counter.inc()
            return False
        self.entries.append(request)
        self.scan_bound = 0
        self._depth_gauge.set(len(self.entries))
        self._push_counter.inc()
        return True

    def push(self, request: MemoryRequest) -> None:
        """Append ``request``; raises if the queue is full."""
        if not self.offer(request):
            raise OverflowError(f"{self.name} full (capacity {self.capacity})")

    def remove(self, request: MemoryRequest) -> None:
        """Remove a specific entry (used when a request is issued)."""
        self.entries.remove(request)
        self._depth_gauge.set(len(self.entries))
        self._notify_space()

    # ------------------------------------------------------------------
    def wait_for_space(self, callback: Callable[[], None]) -> None:
        """Register ``callback`` to fire once when space becomes available."""
        self._space_waiters.append(callback)

    def _notify_space(self) -> None:
        if len(self.entries) >= self.capacity:
            return
        waiters, self._space_waiters = self._space_waiters, []
        for waiter in waiters:
            waiter()


class WriteQueue(RequestQueue):
    """Write queue with the drain watermarks attached."""

    def __init__(
        self,
        capacity: int = 32,
        drain_high: float = 0.8,
        drain_low: float = 0.25,
        name: str = "write-queue",
    ):
        super().__init__(capacity, name)
        if not 0.0 <= drain_low < drain_high <= 1.0:
            raise ValueError(
                f"watermarks must satisfy 0 <= low < high <= 1, "
                f"got low={drain_low} high={drain_high}"
            )
        self.drain_high = drain_high
        self.drain_low = drain_low
        # Thresholds as entry counts: the drain check runs every
        # scheduler step and must not divide.
        self.high_count = drain_high * capacity
        self.low_count = drain_low * capacity
        #: Queued/in-flight entries per line address — the read-forwarding
        #: check probes this before scanning for matching writes.
        self._line_counts: Dict[int, int] = {}
        #: Queued writes that have not started service, oldest first.
        #: The candidate/WoW scans iterate this instead of the full queue
        #: so in-flight entries (held until completion) cost nothing per
        #: scheduler step.  Maintained by ``offer``/``remove`` and by the
        #: issue paths via :meth:`note_issued`.
        self.pending: List[MemoryRequest] = []

    @property
    def above_high_watermark(self) -> bool:
        """True when a drain should start (queue > alpha full)."""
        return len(self.entries) > self.high_count

    # ------------------------------------------------------------------
    def offer(self, request: MemoryRequest) -> bool:
        accepted = super().offer(request)
        if accepted:
            counts = self._line_counts
            line = request.line_address
            counts[line] = counts.get(line, 0) + 1
            self.pending.append(request)
        return accepted

    def remove(self, request: MemoryRequest) -> None:
        super().remove(request)
        counts = self._line_counts
        line = request.line_address
        remaining = counts[line] - 1
        if remaining:
            counts[line] = remaining
        else:
            del counts[line]
        # Entries normally leave pending at issue time; a removal before
        # issue (cancellation, tests) must not leave a stale entry.
        try:
            self.pending.remove(request)
        except ValueError:
            pass

    def note_issued(self, request: MemoryRequest) -> None:
        """Drop ``request`` from the pending FIFO once it starts service.

        Requests that never entered the queue (synthesised code updates)
        are a no-op.
        """
        try:
            self.pending.remove(request)
        except ValueError:
            pass

    def has_line(self, line_address: int) -> bool:
        """True when some queued write targets ``line_address``."""
        return line_address in self._line_counts
