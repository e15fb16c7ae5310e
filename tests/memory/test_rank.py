"""Unit tests for the rank/chip occupancy model."""

import pytest

from repro.memory.rank import RankState
from repro.memory.timing import DEFAULT_TIMING


@pytest.fixture
def rank():
    return RankState(DEFAULT_TIMING, n_chips=10, n_banks=8)


def test_fresh_rank_everything_ready(rank):
    assert rank.read_ready_time(range(10), bank=0) == 0
    assert rank.write_ready_time(range(10), bank=0) == 0
    assert rank.busy_chips_at(0) == ()


def test_write_blocks_chip_across_all_banks(rank):
    rank.reserve_chip_write(chip=3, bank=0, end=1000, row=5)
    # Same chip, *different* bank: still blocked (single-server writes).
    assert rank.read_ready_time([3], bank=7) == 1000
    # Other chips unaffected.
    assert rank.read_ready_time([4], bank=0) == 0


def test_read_blocks_only_its_bank(rank):
    rank.reserve_read([2], bank=1, end=500, row=9)
    assert rank.read_ready_time([2], bank=1) == 500
    assert rank.read_ready_time([2], bank=2) == 0
    # A write on the chip still waits for the read (any bank).
    assert rank.write_ready_time([2], bank=2) == 500


def test_busy_chips_reflects_write_reservations(rank):
    rank.reserve_chip_write(0, 0, 1000, None)
    rank.reserve_chip_write(4, 2, 800, None)
    assert rank.busy_chips_at(0) == (0, 4)
    assert rank.busy_chips_at(900) == (0,)
    assert rank.busy_chips_at(1000) == ()


def test_multi_chip_ready_time_is_max(rank):
    rank.reserve_chip_write(1, 0, 300, None)
    rank.reserve_chip_write(2, 0, 700, None)
    assert rank.read_ready_time([0, 1, 2], bank=0) == 700


def test_row_hit_requires_all_chips(rank):
    rank.reserve_read([0, 1], bank=0, end=10, row=42)
    assert not rank.row_hit([0, 1, 2], bank=0, row=42)
    rank.reserve_read([2], bank=0, end=10, row=42)
    assert rank.row_hit([0, 1, 2], bank=0, row=42)


def test_activation_cost_empty_row_buffer(rank):
    cost = rank.activation_ticks([0], bank=0, row=3)
    assert cost == DEFAULT_TIMING.array_read_ticks


def test_activation_cost_row_hit_is_zero(rank):
    rank.reserve_read([0], bank=0, end=1, row=3)
    assert rank.activation_ticks([0], bank=0, row=3) == 0


def test_activation_cost_row_conflict_pays_close(rank):
    rank.reserve_read([0], bank=0, end=1, row=3)
    cost = rank.activation_ticks([0], bank=0, row=4)
    assert cost == DEFAULT_TIMING.row_close_ticks + DEFAULT_TIMING.array_read_ticks


def test_activation_cost_is_worst_chip(rank):
    rank.reserve_read([0], bank=0, end=1, row=3)   # chip 0: hit for row 3
    # chip 1: empty buffer -> array read
    cost = rank.activation_ticks([0, 1], bank=0, row=3)
    assert cost == DEFAULT_TIMING.array_read_ticks


def test_reservations_never_shrink(rank):
    rank.reserve_chip_write(0, 0, 1000, None)
    rank.reserve_chip_write(0, 0, 500, None)  # earlier end must not shrink
    assert rank.write_busy[0] == 1000


def test_flat_table_shape():
    rank = RankState(DEFAULT_TIMING, n_chips=10, n_banks=4)
    assert rank.write_busy == [0] * 10
    assert rank.write_ready == [0] * 10
    assert rank.array_busy == [[0] * 10] * 4
    assert rank.open_row == [[None] * 10] * 4


def test_write_ready_is_running_max_over_banks(rank):
    rank.reserve_read([5], bank=2, end=300, row=1)
    rank.reserve_read([5], bank=6, end=200, row=1)
    rank.reserve_chip_write(5, bank=0, end=250, row=None)
    assert rank.write_ready[5] == 300
    assert rank.write_busy[5] == 250
    assert rank.array_busy[0][5] == 250
    assert rank.open_row[2][5] == 1
