"""Functional-mode integration: real bits through the whole stack.

These tests run small simulations with a functional backing store and
verify *data integrity* — every read (including RoW-reconstructed ones)
returns exactly the bytes the storage holds, and every write-back commits
its dirty words.
"""

import random


from repro.core.systems import make_system
from repro.memory.memsys import MainMemory
from repro.memory.request import (
    MemoryRequest,
    RequestKind,
    ServiceClass,
    make_read,
)
from repro.sim.engine import Engine


def _functional_system(name):
    engine = Engine()
    memory = MainMemory(engine, make_system(name, functional=True))
    return engine, memory


def _write_with_payload(memory, req_id, address, mutate_words):
    """Build a write whose new_words mutate the given word indices."""
    decoded = memory.mapper.decode(address)
    old = memory.storage.read_line(decoded.line_address).words
    new = list(old)
    for word in mutate_words:
        new[word] ^= (0xABCD << word)
    return MemoryRequest(
        req_id,
        RequestKind.WRITE,
        address,
        new_words=tuple(new),
    ), tuple(new)


def test_writes_then_reads_roundtrip_data():
    engine, memory = _functional_system("rwow-rde")
    expected = {}
    rng = random.Random(0)
    for i in range(60):
        address = rng.randrange(0, 1 << 16) * 64
        req, new = _write_with_payload(memory, i, address, [i % 8, (i + 3) % 8])
        if memory.can_accept(req.kind, address):
            memory.submit(req)
            expected[address] = new
            engine.run(until=engine.now + 2000)
    engine.run(max_events=1_000_000)
    reads = []
    for j, (address, words) in enumerate(expected.items()):
        read = make_read(10_000 + j, address)
        if memory.can_accept(read.kind, address):
            memory.submit(read)
            reads.append((read, words))
            engine.run(until=engine.now + 2000)
    engine.run(max_events=1_000_000)
    assert reads
    for read, words in reads:
        assert read.completion > 0
        assert read.data_words == words


def test_row_reconstructed_reads_return_true_data():
    engine, memory = _functional_system("row-nr")
    # Fill the write queue with single-word writes to force RoW windows.
    rng = random.Random(1)
    writes = []
    for i in range(28):
        address = (i * 4) * 64  # channel 0
        req, _new = _write_with_payload(memory, i, address, [i % 8])
        memory.submit(req)
        writes.append(req)
    expected = {}
    reads = []
    for j in range(6):
        address = ((1000 + j) * 4) * 64
        decoded = memory.mapper.decode(address)
        expected[address] = memory.storage.read_line(decoded.line_address).words
        read = make_read(5000 + j, address)
        memory.submit(read)
        reads.append(read)
    engine.run(max_events=2_000_000)
    reconstructed = [
        r for r in reads if r.service_class is ServiceClass.ROW_OVERLAP
    ]
    assert memory.aggregate_stats().row_reads == len(reconstructed)
    assert reconstructed, "expected at least one RoW-reconstructed read"
    for read in reads:
        assert read.data_words == expected[read.address]


def test_functional_verify_detects_injected_corruption():
    engine, memory = _functional_system("row-nr")
    # Pre-materialise a victim line and corrupt one bit without fixing
    # the ECC, then force a RoW window over it.
    victim_address = (1000 * 4) * 64
    decoded = memory.mapper.decode(victim_address)
    memory.storage.read_line(decoded.line_address)

    for i in range(28):
        address = (i * 4) * 64
        req, _ = _write_with_payload(memory, i, address, [0])
        memory.submit(req)
    # Corrupt the word that chip 0's busy write will force us to
    # reconstruct; the deferred SECDED check must notice.
    memory.storage.corrupt_bit(decoded.line_address, word=0, bit=5)
    read = make_read(7777, victim_address)
    rollbacks = []
    read.on_verify = lambda r, rb: rollbacks.append(rb)
    memory.submit(read)
    engine.run(max_events=2_000_000)
    if read.service_class is ServiceClass.ROW_OVERLAP:
        assert rollbacks == [True]
        assert read.rolled_back


def test_storage_shared_across_channels():
    engine, memory = _functional_system("rwow-rde")
    assert all(
        controller.storage is memory.storage
        for controller in memory.controllers
    )
