"""Ready bounds: busy times only move forward, and bounded scans are exact.

The schedulers skip a queued request while its last computed ready tick
(``MemoryRequest.ready_bound``) lies in the future, and skip a whole scan
on the queue's ``scan_bound``.  Both shortcuts rest on one invariant:
every chip, bank and write-engine busy time only moves forward.  These
tests pin the invariant, then hold the bounded scans equal to the
brute-force rescans below, which recompute every ready time from scratch.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.address import DecodedAddress
from repro.memory.controller import NO_WAKE, MemoryController
from repro.memory.policy import WriteContext
from repro.memory.request import MemoryRequest, RequestKind
from repro.memory.timing import DEFAULT_TIMING

from tests.conftest import ControllerHarness, harness

SYSTEMS = ("baseline", "rwow-rde", "wow-nr", "write-pausing")


# ----------------------------------------------------------------------
# The invariant
# ----------------------------------------------------------------------
_RANK_OPS = st.tuples(
    st.sampled_from(["reserve_read", "reserve_write", "reserve_chip_write", "hold"]),
    st.lists(st.integers(0, 9), min_size=1, max_size=10, unique=True),
    st.integers(0, 7),                            # bank
    st.integers(0, 20_000),                       # end tick, in any order
    st.one_of(st.none(), st.integers(0, 63)),     # row to latch
)


def _ready_snapshot(controller: MemoryController) -> List[int]:
    rank = controller.ranks[0]
    chips = range(rank.n_chips)
    banks = range(rank.n_banks)
    return (
        [rank.read_ready_time([c], b) for b in banks for c in chips]
        + [rank.read_ready_time(chips, b) for b in banks]
        + [rank.write_ready_time([c], b) for b in banks for c in chips]
        + [rank.write_ready_time(chips, b) for b in banks]
        + list(controller.fine.token_free)
    )


@given(st.sampled_from(["rwow-rde", "wow-nr"]),
       st.lists(_RANK_OPS, min_size=1, max_size=40))
@settings(max_examples=100)
def test_property_ready_times_never_decrease(system, operations):
    controller = harness(system).controller
    assert controller.fine is not None
    rank = controller.ranks[0]
    before = _ready_snapshot(controller)
    for op, chips, bank, end, row in operations:
        if op == "reserve_chip_write":
            rank.reserve_chip_write(chips[0], bank, end, row)
        elif op == "hold":
            controller.fine.hold(DecodedAddress(0, 0, bank, 0, 0, 0), end)
        else:
            getattr(rank, op)(chips, bank, end, row)
        after = _ready_snapshot(controller)
        assert all(a >= b for a, b in zip(after, before))
        # A write reserves its bank's array too: write-ready covers it.
        assert all(
            busy <= ready for busy, ready in zip(rank.write_busy, rank.write_ready)
        )
        before = after


# ----------------------------------------------------------------------
# Brute-force reference scans
# ----------------------------------------------------------------------
def reference_read_scan(
    c: MemoryController, now: int
) -> Tuple[Optional[MemoryRequest], Optional[int]]:
    """FR-FCFS over every queued read, each ready time from scratch.

    Returns the read to issue (row hit first, then oldest ready) and,
    when none is ready, the earliest tick one will be.
    """
    best: Optional[MemoryRequest] = None
    best_hit = False
    earliest: Optional[int] = None
    for req in c.read_q.entries:
        d = req.decoded
        rank = c.ranks[d.rank]
        ready = rank.read_ready_time(req.chips, d.bank)
        if ready > now:
            if earliest is None or ready < earliest:
                earliest = ready
            continue
        hit = rank.row_hit(req.chips, d.bank, d.row)
        if best is None or (hit and not best_hit):
            best, best_hit = req, hit
            if hit:
                break
    return best, earliest


def reference_write_scan(
    c: MemoryController, now: int
) -> Tuple[Optional[MemoryRequest], Optional[int]]:
    """Oldest-ready-first over every pending write, from scratch."""
    fine = c.fine
    assert fine is not None
    if fine.inflight >= c.config.max_inflight_writes:
        return None, None
    earliest: Optional[int] = None
    for req in c.write_q.pending:
        d = req.decoded
        rank = c.ranks[d.rank]
        if req.dirty_mask:
            ready = max(
                rank.write_ready_time(req.chips, d.bank),
                fine.token_free[d.rank],
            )
        else:
            ready = rank.read_ready_time(req.chips, d.bank)
        if ready <= now:
            return req, None
        if earliest is None or ready < earliest:
            earliest = ready
    return None, earliest


def _woken(wake: int, earliest: Optional[int]) -> int:
    return wake if earliest is None else min(wake, earliest)


def use_reference_scans(c: MemoryController) -> None:
    """Replace the bounded scans with the brute-force ones."""

    def try_issue_read(now: int) -> bool:
        best, earliest = reference_read_scan(c, now)
        if best is None:
            if earliest is not None:
                c._note_wake(earliest)
            return False
        c._issue_read(best, now)
        return True

    c._try_issue_read = try_issue_read
    if c.fine is not None:

        def select_candidate(now: int) -> Optional[WriteContext]:
            head, earliest = reference_write_scan(c, now)
            if head is None:
                if earliest is not None:
                    c._note_wake(earliest)
                return None
            return WriteContext(now, head, head.decoded)

        c.policies.select_candidate = select_candidate


def check_bounded_scans(c: MemoryController) -> None:
    """Assert every bounded scan picks and wakes as the reference would."""
    issued: List[MemoryRequest] = []
    bounded_read = c._try_issue_read
    issue_read = c._issue_read

    def record_issue(req: MemoryRequest, now: int) -> None:
        issued.append(req)
        issue_read(req, now)

    def try_issue_read(now: int) -> bool:
        expected, earliest = reference_read_scan(c, now)
        wake = c._wake_time
        issued.clear()
        result = bounded_read(now)
        assert (issued[0] if issued else None) is expected
        assert result is (expected is not None)
        if expected is None:
            assert c._wake_time == _woken(wake, earliest)
        return result

    c._issue_read = record_issue
    c._try_issue_read = try_issue_read
    if c.fine is not None:
        bounded_write = c.policies.select_candidate
        assert bounded_write == c.fine.select_candidate

        def select_candidate(now: int) -> Optional[WriteContext]:
            expected, earliest = reference_write_scan(c, now)
            wake = c._wake_time
            ctx = bounded_write(now)
            assert (ctx.head if ctx is not None else None) is expected
            if ctx is None:
                assert c._wake_time == _woken(wake, earliest)
            return ctx

        c.policies.select_candidate = select_candidate


def fixed_arming_rule(c: MemoryController) -> None:
    """Count a wake-up as armed only until its tick (the ROADMAP fix)."""

    def armed_wake() -> int:
        handle = c._wake_handle
        if handle is None or handle.cancelled or handle.time <= c.engine.now:
            return NO_WAKE
        return handle.time

    c._armed_wake = armed_wake


# ----------------------------------------------------------------------
# Differential: bounded scans == brute-force rescans
# ----------------------------------------------------------------------
_STREAM = st.lists(
    st.one_of(
        st.tuples(st.just("read"), st.integers(0, 47), st.just(0)),
        st.tuples(st.just("write"), st.integers(0, 47), st.integers(0, 255)),
        st.tuples(st.just("advance"), st.integers(1, 2 * DEFAULT_TIMING.array_write_ticks),
                  st.just(0)),
    ),
    min_size=1,
    max_size=80,
)


def _drive(
    system: str, stream, fixed_rule: bool, reference: bool
) -> ControllerHarness:
    h = harness(system)
    c = h.controller
    if fixed_rule:
        fixed_arming_rule(c)
    if reference:
        use_reference_scans(c)
    else:
        check_bounded_scans(c)
    for op, value, mask in stream:
        if op == "advance":
            h.run_until(h.engine.now + value)
        elif op == "read" and c.can_accept(RequestKind.READ):
            h.read(value)
        elif op == "write" and c.can_accept(RequestKind.WRITE):
            h.write(value, mask)
    h.run()
    return h


def _outcome(h: ControllerHarness) -> list:
    return [
        (r.req_id, r.start_service, r.completion, r.service_class)
        for r in h.submitted
    ] + [h.engine.now, len(h.engine._queue) - h.engine._cancelled]


@pytest.mark.parametrize("fixed_rule", [False, True], ids=["pinned-arming", "fixed-arming"])
@pytest.mark.parametrize("system", SYSTEMS)
@given(stream=_STREAM)
@settings(max_examples=25)
def test_bounded_scans_match_brute_force_rescans(system, fixed_rule, stream):
    bounded = _drive(system, stream, fixed_rule, reference=False)
    reference = _drive(system, stream, fixed_rule, reference=True)
    assert _outcome(bounded) == _outcome(reference)


@pytest.mark.parametrize("system", ["baseline", "rwow-rde"])
def test_fixed_rule_wakes_each_blocked_read(system):
    """Under the fixed rule, a read skipped on its bound still gets woken.

    Two reads wait on busy banks with no completion event behind them:
    only wake-ups can issue them, the second one armed by a scan that
    runs after the first wake-up fired.
    """
    h = harness(system)
    c = h.controller
    fixed_arming_rule(c)
    check_bounded_scans(c)
    rank = c.ranks[0]

    def bank_of(line: int) -> int:
        return c.mapper.decode(h._address(line)).bank

    lines = (0, next(n for n in range(1, 1 << 16) if bank_of(n) != bank_of(0)))
    banks = [bank_of(line) for line in lines]
    ends = (h.engine.now + 3000, h.engine.now + 6000)
    for bank, end in zip(banks, ends):
        rank.reserve_read(range(rank.n_chips), bank, end, None)
    reads = [h.read(line) for line in lines]
    h.run()
    assert [read.start_service for read in reads] == list(ends)


def test_fixed_rule_wakes_a_write_behind_a_skipped_scan():
    """A write scan skipped on the queue's bound still arms its wake-up.

    The write waits on the engine token; a read's earlier wake-up
    replaces the write's, fires, and leaves no wake pending, so the scan
    that follows must not skip on the queue's bound alone.
    """
    h = harness("rwow-rde")
    c = h.controller
    fixed_arming_rule(c)
    check_bounded_scans(c)
    token_until = h.engine.now + 6000
    c.fine.hold(c.mapper.decode(h._address(0)), token_until)
    write = h.write(0, 0b1)
    read_line = 1 << 12
    read_bank = c.mapper.decode(h._address(read_line)).bank
    c.ranks[0].reserve_read(range(10), read_bank, h.engine.now + 3000, None)
    read = h.read(read_line)
    h.run()
    assert read.start_service == token_until - 3000
    assert write.start_service >= token_until


def test_fixed_rule_wakes_a_read_behind_a_skipped_scan():
    """A read scan skipped on the queue's bound still arms its wake-up.

    The read waits on a busy chip.  A write drain on other chips arms an
    earlier wake-up that fires, so when the drain ends no wake is pending
    and the read scan must not skip on the queue's bound alone.
    """
    h = harness("rwow-rde")
    c = h.controller
    fixed_arming_rule(c)
    check_bounded_scans(c)
    layout = c.layout
    read_line = 1 << 12
    decoded = c.mapper.decode(h._address(read_line))
    busy_chip = layout.read_chips(decoded.line_address)[0]
    free_at = h.engine.now + 100_000
    c.ranks[0].reserve_chip_write(busy_chip, decoded.bank, free_at, None)
    read = h.read(read_line)
    c.fine.hold(decoded, h.engine.now + 2000)
    writes = []
    for line in range(64):
        chip_line = c.mapper.decode(h._address(line)).line_address
        code = (layout.ecc_chip(chip_line), layout.pcc_chip(chip_line))
        if busy_chip not in code and layout.data_chip(chip_line, 0) != busy_chip:
            writes.append(h.write(line, 0b1))
        if len(writes) == 27:  # one past the drain watermark
            break
    assert c.drain
    h.run()
    assert read.start_service == free_at
    assert all(write.completion >= 0 for write in writes)


def test_bounded_scans_skip_ready_lookups():
    """Same outcome as the reference with far fewer rank ready lookups."""
    results = []
    for reference in (False, True):
        h = harness("rwow-rde")
        c = h.controller
        if reference:
            use_reference_scans(c)
        rank = c.ranks[0]
        lookups = [0]
        for name in ("read_ready_time", "write_ready_time"):
            def counted(*args, _query=getattr(rank, name)):
                lookups[0] += 1
                return _query(*args)

            setattr(rank, name, counted)
        for i in range(60):
            if c.can_accept(RequestKind.WRITE):
                h.write(i, 0b1 << (i % 8))
            if c.can_accept(RequestKind.READ):
                h.read(100 + i % 6)
            h.run_until(h.engine.now + DEFAULT_TIMING.array_read_ticks // 4)
        h.run()
        results.append((_outcome(h), lookups[0]))
    (bounded, bounded_lookups), (brute, brute_lookups) = results
    assert bounded == brute
    assert bounded_lookups < 0.8 * brute_lookups


@pytest.mark.xfail(
    strict=True,
    reason="known defect: a wake-up handle that already fired still counts "
    "as armed, so the controller never arms another (ROADMAP)",
)
def test_read_waiting_on_a_busy_chip_is_woken(baseline):
    baseline.read(0)
    baseline.read(0)  # waits for the first: the controller's first wake-up
    baseline.run()
    controller = baseline.controller
    address = 4 * 64 * controller.config.geometry.n_channels
    bank = controller.mapper.decode(address).bank
    controller.ranks[0].reserve_chip_write(
        0, bank, baseline.engine.now + 5000, None
    )
    # Nothing completes on chip 0 to kick the controller: only a wake-up
    # at the chip's free time can issue this read.
    late = baseline.read(4)
    baseline.run()
    assert late.completion >= 0
