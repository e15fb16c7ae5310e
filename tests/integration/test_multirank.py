"""Multi-rank channels: geometry generality the default config doesn't use.

Table I uses one rank per channel; these tests pin down that the
substrate and the PCMap controller stay correct with more ranks — and
that the rank-level write-engine token really is per rank (writes to
different ranks of one channel may overlap)."""

import dataclasses

import pytest

from repro.core.systems import make_system
from repro.memory.address import AddressMapper, MemoryGeometry, PCMAP_GEOMETRY
from repro.memory.controller import MemoryController
from repro.memory.request import make_read, make_write
from repro.sim.engine import Engine

TWO_RANK = dataclasses.replace(PCMAP_GEOMETRY, ranks_per_channel=2)
TWO_RANK_BASE = dataclasses.replace(
    MemoryGeometry(), ranks_per_channel=2
)


def _controller(system_name, geometry):
    engine = Engine()
    config = make_system(system_name, geometry=geometry)
    return engine, MemoryController(engine, config, channel_id=0)


def _rank_addresses(geometry, rank, count, bank=0):
    """Line addresses on channel 0 of the given rank."""
    mapper = AddressMapper(geometry)
    return [
        mapper.encode(channel=0, rank=rank, bank=bank, row=row, column=0)
        for row in range(count)
    ]


def test_decode_covers_both_ranks():
    mapper = AddressMapper(TWO_RANK)
    # The rank bit sits above channel, column and bank: it flips every
    # 4 channels x 128 columns x 8 banks = 4096 lines.
    seen = set()
    for line in range(0, 16384, 509):
        seen.add(mapper.decode(line * 64).rank)
    assert seen == {0, 1}


def test_controller_builds_one_rankstate_per_rank():
    _engine, controller = _controller("rwow-rde", TWO_RANK)
    assert len(controller.ranks) == 2


@pytest.mark.parametrize("system_name", ["baseline", "rwow-rde"])
def test_requests_complete_on_both_ranks(system_name):
    geometry = TWO_RANK_BASE if system_name == "baseline" else TWO_RANK
    engine, controller = _controller(system_name, geometry)
    requests = []
    for rank in (0, 1):
        for i, address in enumerate(_rank_addresses(geometry, rank, 6)):
            write = make_write(rank * 100 + i, address, 0b11)
            controller.submit(write)
            requests.append(write)
            read = make_read(rank * 100 + 50 + i, address)
            if controller.can_accept(read.kind):
                controller.submit(read)
                requests.append(read)
    engine.run(max_events=1_000_000)
    assert all(r.completion >= 0 for r in requests)


def test_write_engine_token_is_per_rank():
    """Writes to different ranks overlap; within one rank they serialise."""
    geometry = TWO_RANK
    engine, controller = _controller("rwow-rde", geometry)
    # Two writes per rank, all chip-compatible.
    w_r0 = make_write(1, _rank_addresses(geometry, 0, 1)[0], 0b1)
    w_r1 = make_write(2, _rank_addresses(geometry, 1, 1)[0], 0b1)
    controller.submit(w_r0)
    controller.submit(w_r1)
    engine.run(max_events=100_000)
    assert w_r0.completion > 0 and w_r1.completion > 0
    # Cross-rank overlap: both array services intersect in time.
    assert (
        w_r0.start_service < w_r1.completion
        and w_r1.start_service < w_r0.completion
    )


def test_row_windows_independent_per_rank():
    geometry = TWO_RANK
    engine, controller = _controller("row-nr", geometry)
    # Saturate rank 0 with single-word writes and read from rank 0.
    for i, address in enumerate(_rank_addresses(geometry, 0, 26)):
        controller.submit(make_write(i, address, 0b1))
    reads = []
    for j, address in enumerate(_rank_addresses(geometry, 0, 3, bank=4)):
        read = make_read(500 + j, address)
        controller.submit(read)
        reads.append(read)
    # Rank 1 stays fully available meanwhile.
    r1 = make_read(999, _rank_addresses(geometry, 1, 1)[0])
    controller.submit(r1)
    engine.run(max_events=1_000_000)
    assert r1.completion > 0
    assert all(r.completion > 0 for r in reads)
