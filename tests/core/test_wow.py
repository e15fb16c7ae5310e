"""Independent unit tests for repro.core.wow (two-pass WoW grouping)."""

from repro.core.wow import WriteOverWritePolicy

from tests.conftest import harness


def test_chain_composition():
    h = harness("wow-nr")
    assert h.controller.policies.describe() == "silent-write -> wow-group"
    assert isinstance(h.controller.policies.policies[1], WriteOverWritePolicy)


def test_chip_disjoint_writes_form_groups():
    h = harness("wow-nr")
    # 1-dirty writes to rotating words would be ideal, but the wow-nr
    # system has no rotation: different dirty *words* map to different
    # chips, so these can share one service window.
    for i in range(8):
        h.write(i, 1 << (i % 8))
    h.run()
    stats = h.stats
    assert stats.wow_groups >= 1
    assert stats.wow_member_writes > stats.wow_groups  # actual grouping
    assert h.all_done()


def test_same_chip_writes_never_group():
    h = harness("wow-nr")
    for i in range(6):
        h.write(i, 0b1)  # all dirty on chip 0
    h.run()
    stats = h.stats
    # Every write went out alone: member count equals group count.
    assert stats.wow_member_writes == stats.wow_groups
    assert h.all_done()


def test_group_size_respects_cap():
    h = harness("wow-nr", wow_max_group=2)
    for i in range(12):
        h.write(i, 1 << (i % 8))
    h.run()
    stats = h.stats
    assert stats.wow_groups >= 1
    assert stats.wow_member_writes <= 2 * stats.wow_groups
    assert h.all_done()


def test_group_size_respects_inflight_budget():
    h = harness("wow-nr", max_inflight_writes=1)
    for i in range(8):
        h.write(i, 1 << (i % 8))
    h.run()
    stats = h.stats
    # A budget of one in-flight write forbids consolidation entirely.
    assert stats.wow_member_writes == stats.wow_groups
    assert h.all_done()


def test_silent_writes_bypass_wow():
    h = harness("wow-nr")
    h.write(0, 0x00)  # zero-dirty
    h.run()
    stats = h.stats
    assert stats.wow_groups == 0
    assert h.all_done()
