"""Full-system driver: cores, controllers and the PCM memory together.

One :class:`SystemSimulator` runs one (system config, workload) pair to a
fixed per-core instruction budget and returns a
:class:`~repro.sim.metrics.SimulationResult` with everything the paper's
figures report (IPC, IRLP, effective read latency, write throughput,
delayed-read fraction, rollbacks).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Optional, Union

from repro.cache.config import FrontEndConfig
from repro.core.config import SystemConfig
from repro.cpu.core import CoreParams
from repro.cpu.multicore import Multicore
from repro.memory.memsys import MainMemory
from repro.sim.engine import Engine
from repro.sim.metrics import SimulationResult
from repro.telemetry import RunProfile, Telemetry, WallClock
from repro.telemetry.timeseries import DEFAULT_CAPACITY, TimeseriesSampler
from repro.trace.workloads import WorkloadProfile, get_workload

if TYPE_CHECKING:
    # Loaded by the runs that use them: the tier when one is configured,
    # the store by functional runs.
    from repro.cache.frontend import DramCacheFrontEnd
    from repro.memory.storage import MemoryStorage


@dataclass(frozen=True)
class SimulationParams:
    """Run-scale knobs (the paper runs 1 B instructions after warm-up; we
    default to a budget that keeps a 6-system x 12-workload sweep fast)."""

    n_cores: int = 8
    instructions_per_core: int = 60_000
    #: When set, instructions_per_core is derived per workload so that
    #: roughly this many main-memory requests are simulated in total —
    #: low-MPKI workloads then get enough requests to reach steady state.
    target_requests: Optional[int] = None
    seed: int = 1
    core_params: CoreParams = CoreParams()
    #: Safety valve for the event loop (ticks); never binds in practice.
    max_ticks: int = 40_000_000_000
    #: Simulated-tick cadence for the time-series sampler; ``None`` (the
    #: default) disables sampling, which never changes the event stream.
    sample_every_ticks: Optional[int] = None
    #: Ring capacity of the time-series buffer (oldest samples drop
    #: first once exceeded).
    timeseries_capacity: int = DEFAULT_CAPACITY
    #: Embed the final metrics-registry dump in the result (JSON-safe,
    #: survives pickling across sweep worker processes).
    collect_metrics: bool = False
    #: Simulated cache front end between the cores and main memory.  The
    #: default (``kind="none"``) builds nothing and keeps the run loop
    #: byte-identical to the historical direct-to-PCM path — golden
    #: traces and perf fingerprints are pinned against it.  With
    #: ``kind="dram"`` the DRAM cache becomes a timed tier: hits complete
    #: after ``access_cycles``, misses coalesce in MSHRs and fetch from
    #: PCM, dirty evictions issue write-backs into the controller queues.
    front_end: FrontEndConfig = FrontEndConfig()

    def __post_init__(self) -> None:
        if self.n_cores < 1:
            raise ValueError(f"n_cores must be >= 1, got {self.n_cores}")
        if self.target_requests is not None and self.target_requests < 1:
            raise ValueError(
                f"target_requests must be >= 1, got {self.target_requests}"
            )

    def resolve_instructions(self, workload: WorkloadProfile) -> int:
        """Per-core instruction budget for ``workload``."""
        if self.target_requests is None:
            return self.instructions_per_core
        per_core = self.target_requests * 1000.0 / (
            max(workload.mpki, 1e-6) * self.n_cores
        )
        return max(5_000, int(per_core))


class SystemSimulator:
    """Build-and-run wrapper for one configuration/workload pair."""

    def __init__(
        self,
        system: SystemConfig,
        workload: Union[str, WorkloadProfile],
        params: Optional[SimulationParams] = None,
        telemetry: Optional[Telemetry] = None,
        storage: Optional["MemoryStorage"] = None,
    ):
        if isinstance(workload, str):
            workload = get_workload(workload)
        self.workload = workload
        self.params = params or SimulationParams()
        # Wire the workload's Table IV rollback rate into the controller's
        # verification model unless the config pinned one explicitly.
        if system.enable_row and system.row_rollback_rate == 0.0:
            system = system.with_rollback_rate(workload.rollback_rate)
        self.system = system

        #: Tracer + metrics bundle threaded through the controller stack;
        #: defaults to metrics-only (tracing off, one attribute check per
        #: emit site).
        self.telemetry = telemetry if telemetry is not None else Telemetry.disabled()
        #: Populated by :meth:`run` when ``params.sample_every_ticks`` is set.
        self.sampler: Optional[TimeseriesSampler] = None
        self.engine = Engine()
        self.memory = MainMemory(
            self.engine, system, seed=self.params.seed,
            storage=storage, telemetry=self.telemetry,
        )
        #: Timed DRAM-cache tier between the cores and PCM; ``None`` on
        #: the default direct path (``front_end.kind == "none"``), where
        #: nothing is constructed and the event stream stays bit-identical.
        self.frontend: Optional["DramCacheFrontEnd"] = None
        if self.params.front_end.enabled:
            from repro.cache.frontend import DramCacheFrontEnd

            self.frontend = DramCacheFrontEnd(
                self.engine,
                self.memory,
                self.params.front_end,
                cycle_ticks=self.params.core_params.cycle_ticks,
                telemetry=self.telemetry,
            )
        self.multicore = Multicore(
            self.engine,
            self.memory,
            workload,
            n_cores=self.params.n_cores,
            params=self.params.core_params,
            instructions_per_core=self.params.resolve_instructions(workload),
            seed=self.params.seed,
            port=self.frontend,
        )

    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Execute until every core retires its budget; collect metrics."""
        self.sampler = self._build_sampler()
        with WallClock() as clock:
            self.multicore.start()
            # The multicore's last finish hook latches the engine's stop.
            self.engine.run_until_stop(
                max_ticks=self.params.max_ticks, sampler=self.sampler
            )
            if not self.multicore.all_done:
                raise RuntimeError(
                    "simulation deadlocked: no pending events but cores "
                    "have not finished"
                )
        return self._collect(clock.elapsed)

    def _build_sampler(self) -> Optional[TimeseriesSampler]:
        """Wire the standard probe set when sampling is enabled.

        Probe registration order is fixed (outstanding reads, per-channel
        queue depths, write-engine occupancy, open windows, rollbacks,
        recent IRLP) so identically-configured runs produce identical
        column layouts — the cross-worker merge depends on that.
        """
        cadence = self.params.sample_every_ticks
        if cadence is None:
            return None
        sampler = TimeseriesSampler(
            cadence_ticks=cadence, capacity=self.params.timeseries_capacity
        )
        metrics = self.telemetry.metrics
        reads_in = metrics.counter("requests.read.enqueued")
        reads_done = metrics.counter("reads.completed")
        sampler.add_probe(
            "reads.outstanding", lambda: reads_in.value - reads_done.value
        )
        controllers = self.memory.controllers
        for controller in controllers:
            channel = controller.channel_id
            sampler.add_probe(
                f"ch{channel}.queue.read.depth",
                lambda q=controller.read_q: len(q.entries),
            )
            sampler.add_probe(
                f"ch{channel}.queue.write.depth",
                lambda q=controller.write_q: len(q.entries),
            )
        # Fine-grained write engines exist only on PCMap systems; coarse
        # systems report a constant 0 occupancy.  The sums run in C
        # (``map`` over ``attrgetter``), so a sample costs one call per probe.
        engines = [c.fine for c in controllers if c.fine is not None]
        inflight = attrgetter("inflight")
        sampler.add_probe(
            "write_engine.inflight", lambda: sum(map(inflight, engines))
        )
        open_windows = attrgetter("_open_windows")
        sampler.add_probe(
            "write.windows_open",
            lambda: sum(map(len, map(open_windows, controllers))),
        )
        cores = self.multicore.cores
        rollbacks = attrgetter("rollback_model.rollbacks")
        sampler.add_probe(
            "rollbacks.cumulative", lambda: sum(map(rollbacks, cores))
        )
        sampler.add_probe("irlp.recent", self._recent_irlp)
        # DRAM-tier probes trail the fixed set and appear only when the
        # front end is built, so direct-path column layouts are unchanged.
        frontend = self.frontend
        if frontend is not None:
            sampler.add_probe(
                "frontend.mshr.depth", lambda: frontend.mshr_depth
            )
            sampler.add_probe(
                "frontend.writeback.depth", lambda: frontend.writeback_depth
            )
            sampler.add_probe(
                "frontend.hit_rate", lambda: frontend.stats.hit_rate
            )
        return sampler

    def _recent_irlp(self) -> float:
        """Mean IRLP over the last four windows opened per channel.

        Bounded so the probe stays O(1) per sample even on write-heavy
        runs; added left to right, as ``MainMemory.irlp_summary`` does.
        """
        total = 0.0
        count = 0
        for controller in self.memory.controllers:
            for window in controller.irlp.recent:
                if window.end > window.start:
                    total += window.irlp()
                    count += 1
        return total / count if count else 0.0

    def _profile(self, wall_seconds: float) -> RunProfile:
        """Engine profile of the finished run (also fed to the registry)."""
        profile = RunProfile(
            events_dispatched=self.engine.events_dispatched,
            wall_seconds=wall_seconds,
        )
        metrics = self.telemetry.metrics
        metrics.gauge("engine.events_dispatched").set(profile.events_dispatched)
        metrics.gauge("engine.sim_ticks").set(self.engine.now)
        return profile

    def _collect(self, wall_seconds: float = 0.0) -> SimulationResult:
        stats = self.memory.aggregate_stats()
        irlp_average, irlp_max = self.memory.irlp_summary()
        result = SimulationResult(
            system_name=self.system.name,
            workload_name=self.workload.name,
            sim_ticks=self.engine.now,
            instructions=self.multicore.instructions_retired,
            cpu_cycles=self.multicore.total_cpu_cycles(),
            memory=stats,
            irlp_average=irlp_average,
            irlp_max=irlp_max,
            write_service_busy_ticks=self.memory.write_service_busy_ticks(),
            seed=self.params.seed,
            profile=self._profile(wall_seconds),
        )
        # _profile() above records the engine gauges, so a collected dump
        # includes events_dispatched/sim_ticks — the regression sentinel's
        # behavioural fingerprint.
        if self.params.collect_metrics:
            result.metrics = self.telemetry.metrics.as_dict()
        if self.sampler is not None:
            result.timeseries = self.sampler.series.as_dict()
        if self.frontend is not None:
            result.frontend = self.frontend.summary()
        return result


def simulate(
    system: SystemConfig,
    workload: Union[str, WorkloadProfile],
    params: Optional[SimulationParams] = None,
    telemetry: Optional[Telemetry] = None,
    storage: Optional["MemoryStorage"] = None,
) -> SimulationResult:
    """One-shot convenience: build, run, return the result."""
    return SystemSimulator(system, workload, params, telemetry, storage).run()
