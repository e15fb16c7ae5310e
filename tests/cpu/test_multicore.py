"""Unit tests for the multicore wrapper."""


from repro.core.systems import make_system
from repro.cpu.multicore import Multicore
from repro.memory.memsys import MainMemory
from repro.sim.engine import Engine
from repro.trace.workloads import get_workload


def _multicore(n_cores=2, instructions=2_000, workload="MP3"):
    engine = Engine()
    memory = MainMemory(engine, make_system("baseline"))
    multicore = Multicore(
        engine,
        memory,
        get_workload(workload),
        n_cores=n_cores,
        instructions_per_core=instructions,
    )
    return engine, multicore


def test_builds_requested_core_count():
    _engine, multicore = _multicore(n_cores=4)
    assert len(multicore.cores) == 4


def test_run_to_completion_and_aggregates():
    engine, multicore = _multicore()
    multicore.start()
    while not multicore.all_done:
        if not engine.step():
            raise AssertionError("deadlock")
    assert multicore.instructions_retired == 2 * 2_000
    assert multicore.total_cpu_cycles() > 0
    assert multicore.total_rollbacks() == 0


def test_cores_get_distinct_streams():
    _engine, multicore = _multicore(n_cores=2, workload="MP1")
    records_a = [next(multicore.cores[0].records) for _ in range(50)]
    records_b = [next(multicore.cores[1].records) for _ in range(50)]
    assert records_a != records_b
