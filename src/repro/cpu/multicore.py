"""Multicore wrapper: eight trace cores sharing one PCM main memory."""

from __future__ import annotations

from typing import List, Optional

from repro.cpu.core import CoreParams, TraceCore
from repro.memory.memsys import MainMemory
from repro.memory.port import MemoryPort
from repro.sim.engine import Engine
from repro.trace.synthetic import SyntheticTraceGenerator
from repro.trace.workloads import WorkloadProfile


class Multicore:
    """The paper's 8-core CMP, each core replaying its workload stream."""

    def __init__(
        self,
        engine: Engine,
        memory: MainMemory,
        profile: WorkloadProfile,
        n_cores: int = 8,
        params: Optional[CoreParams] = None,
        instructions_per_core: int = 100_000,
        seed: int = 1,
        port: Optional[MemoryPort] = None,
    ):
        self.engine = engine
        self.memory = memory
        #: What the cores actually submit to: ``memory`` itself, or the
        #: timed DRAM-cache front end interposed by the simulator.
        self.port: MemoryPort = port if port is not None else memory
        self.profile = profile
        self.params = params or CoreParams()
        self.cores: List[TraceCore] = []
        #: Cores that called back via on_finish.
        self._finished = 0
        capacity_lines = (
            memory.config.geometry.capacity_bytes // 64
        )
        for core_id in range(n_cores):
            generator = SyntheticTraceGenerator(
                profile,
                seed=seed,
                core_id=core_id,
                n_cores=n_cores,
                capacity_lines=capacity_lines,
            )
            core = TraceCore(
                engine,
                core_id,
                generator.records(),
                self.port,
                self.params,
                instructions_per_core,
            )
            core.on_finish = self._note_finish
            self.cores.append(core)

    # ------------------------------------------------------------------
    def start(self) -> None:
        for core in self.cores:
            core.start()

    def _note_finish(self) -> None:
        self._finished += 1
        if self._finished >= len(self.cores):
            # Stop the engine's batched drain right after this callback —
            # exactly where a per-event ``all_done`` poll would have
            # stopped, so events_dispatched is unchanged.
            self.engine.request_stop()

    @property
    def all_done(self) -> bool:
        return self._finished >= len(self.cores)

    @property
    def instructions_retired(self) -> int:
        return sum(core.instructions_retired for core in self.cores)

    def total_cpu_cycles(self) -> int:
        """Wall-clock CPU cycles from first start to last finish.

        The aggregate IPC the paper reports is total instructions over
        the makespan, which penalises a system that lets one laggard core
        starve — exactly what long write drains do.
        """
        start = min(core.start_tick for core in self.cores)
        finish = max(core.finish_tick for core in self.cores)
        cycle_ticks = self.params.cycle_ticks
        return max(1, (finish - start) // cycle_ticks)

    def total_rollbacks(self) -> int:
        return sum(core.rollback_model.rollbacks for core in self.cores)
