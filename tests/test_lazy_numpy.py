"""Cold-start gate: each run imports only the modules it executes.

Every case runs in a fresh interpreter, so ``sys.modules`` reflects only
the code under test, not whatever earlier tests imported.  Each case
names the modules that must be absent afterwards *and* the ones that
must be present, so a deferral that silently stops loading what a run
needs fails here as surely as an eager import that comes back.

A stub ``numpy`` sits first on ``PYTHONPATH``: importing it logs the
attempt and raises ``ImportError``, as a missing or broken install would.
So each case must also succeed without numpy and not even try the
import (a guarded ``try: import numpy`` is caught by the log, in worker
processes too).

* Timing-only runs (``import repro``, the end-to-end benchmark's
  imports, the reference run direct and traced and sampled) load none
  of :data:`TIMING_ONLY_SKIPS`: the DRAM tier, the functional store and
  its codec, the energy and wear models, the prior-art comparators, the
  telemetry exporters and trace files, and the stdlib modules only a
  sweep pool, an isolated job or a saved result needs
  (:data:`SWEEP_ONLY`).  The policy modules load when the run is built.
* The tier run loads the tier; a two-worker ``run_pairs`` loads the pool.
* Functional runs (the reference run with a backing store, direct and
  behind the tier, and ``repro faults --smoke``) load the store and the
  codec.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

#: The DRAM tier and the set-associative cache behind it.
TIER = (
    "repro.cache.frontend", "repro.cache.dram_cache",
    "repro.cache.set_assoc", "repro.cache.cacheline",
)

#: The functional backing store and the SECDED/PCC codec it loads.
STORE = ("repro.memory.storage", "repro.ecc", "repro.ecc.hamming", "repro.ecc.parity")

#: Stdlib modules only a sweep needs: the process pool, an isolated
#: campaign job, and ``code_version``/``run_manifest``.
SWEEP_ONLY = ("concurrent.futures", "multiprocessing", "subprocess", "platform")

#: What no timing-only run executes, so none may import it.
TIMING_ONLY_SKIPS = (
    "numpy",
    "repro.cache.hierarchy",
    *TIER,
    *STORE,
    "repro.memory.power",
    "repro.memory.wear",
    "repro.core.pausing",
    "repro.core.palp",
    "repro.telemetry.chrome",
    "repro.telemetry.export",
    "repro.trace.trace_io",
    *SWEEP_ONLY,
)

#: The policy chain of ``rwow-rde``, loaded when the run is built.
RWOW_RDE_POLICIES = (
    "repro.core.controller", "repro.core.fine", "repro.core.row",
    "repro.core.wow", "repro.core.rotation",
)

REFERENCE_RUN = """
    from repro.core.systems import make_system
    from repro.sim.simulator import SimulationParams, SystemSimulator

    params = SimulationParams(target_requests=3000, seed=7)
    result = SystemSimulator(make_system("rwow-rde"), "canneal", params).run()
    assert (result.profile.events_dispatched, result.sim_ticks) == (
        6150, 364931
    ), (result.profile.events_dispatched, result.sim_ticks)
"""

#: case -> (code, modules that must be absent, modules that must be present)
TIMING_ONLY = {
    "import-repro": (
        "import repro",
        TIMING_ONLY_SKIPS,
        ("repro.core.systems", "repro.memory.memsys", "repro.cache.config"),
    ),
    "e2e-imports": (
        "import repro.core.systems, repro.sim.simulator, "
        "repro.sim.runner, repro.telemetry",
        TIMING_ONLY_SKIPS + RWOW_RDE_POLICIES,
        ("repro.sim.runner.executor", "repro.sim.runner.isolate",
         "repro.sim.results_io", "repro.telemetry.timeseries"),
    ),
    "reference-run": (
        REFERENCE_RUN,
        TIMING_ONLY_SKIPS,
        RWOW_RDE_POLICIES,
    ),
    "tier-run": (
        """
        from repro.core.systems import make_front_end, make_system
        from repro.sim.simulator import SimulationParams, SystemSimulator

        params = SimulationParams(
            target_requests=3000, seed=7,
            front_end=make_front_end("dram", capacity_mb=0.25),
        )
        result = SystemSimulator(make_system("rwow-rde"), "canneal", params).run()
        assert result.frontend["fills"] > 0, result.frontend
        """,
        tuple(name for name in TIMING_ONLY_SKIPS if name not in TIER),
        TIER + RWOW_RDE_POLICIES,
    ),
    "traced-sampled-run": (
        """
        from repro.core.systems import make_system
        from repro.sim.simulator import SimulationParams, SystemSimulator
        from repro.telemetry import (
            DEFAULT_CADENCE_TICKS, RingBufferSink, Telemetry,
        )

        ring = RingBufferSink()
        params = SimulationParams(
            target_requests=3000, seed=7,
            sample_every_ticks=DEFAULT_CADENCE_TICKS, collect_metrics=True,
        )
        sim = SystemSimulator(
            make_system("rwow-rde"), "canneal", params,
            Telemetry.recording([ring]),
        )
        result = sim.run()
        assert result.profile.events_dispatched == 6150
        assert ring.total_seen > 0 and sim.sampler.series.total_samples > 0
        """,
        TIMING_ONLY_SKIPS,
        RWOW_RDE_POLICIES + ("repro.telemetry.timeseries",),
    ),
    "run-pairs-two-workers": (
        """
        from repro.sim.runner import run_pairs
        from repro.sim.simulator import SimulationParams

        results = run_pairs(
            [("canneal", "baseline"), ("canneal", "rwow-rde")],
            SimulationParams(target_requests=500, seed=7),
            jobs=2,
        )
        assert [r.system_name for r in results] == ["baseline", "rwow-rde"]
        """,
        tuple(name for name in TIMING_ONLY_SKIPS if name not in SWEEP_ONLY),
        ("concurrent.futures",),
    ),
}

#: Runs that build a backing store or a fault campaign.
FUNCTIONAL = {
    "functional-direct": (
        REFERENCE_RUN.replace('"rwow-rde")', '"rwow-rde", functional=True)'),
        ("numpy", *TIER, *SWEEP_ONLY),
        STORE,
    ),
    "functional-tier": (
        """
        from repro.core.systems import make_front_end, make_system
        from repro.sim.simulator import SimulationParams, SystemSimulator

        params = SimulationParams(
            target_requests=3000, seed=7,
            front_end=make_front_end("dram", capacity_mb=0.25),
        )
        result = SystemSimulator(
            make_system("rwow-rde", functional=True), "canneal", params
        ).run()
        assert (result.profile.events_dispatched, result.sim_ticks) == (
            5913, 213644
        ), (result.profile.events_dispatched, result.sim_ticks)
        """,
        ("numpy", *SWEEP_ONLY),
        STORE + TIER,
    ),
    "faults-smoke": (
        """
        from repro.cli import main

        assert main(["faults", "--smoke", "--seed", "1"]) == 0
        """,
        # The CLI loads neither the renderers nor the exporters it does
        # not run.
        ("numpy", *TIER, "repro.analysis.htmlreport", "repro.analysis.timeline",
         "repro.telemetry.chrome", "repro.trace.trace_io"),
        STORE + ("repro.faults.storage",),
    ),
}


def _run_case(case: tuple, tmp_path) -> None:
    """Run a case's code in a fresh interpreter whose ``numpy`` is a stub
    that logs the attempt and fails; then assert its absent and present
    modules, and that nothing tried numpy."""
    code, absent, present = case
    log = tmp_path / "numpy-imports.log"
    stub = tmp_path / "stub" / "numpy"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text(
        f"open({str(log)!r}, 'a').write('numpy import attempted\\n')\n"
        "raise ImportError('numpy stub: no run may import numpy')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((str(stub.parent), SRC))
    probe = "import sys\n" + textwrap.dedent(code) + textwrap.dedent(f"""
        loaded = [name for name in {absent!r} if name in sys.modules]
        assert not loaded, ("loaded", loaded)
        missing = [name for name in {present!r} if name not in sys.modules]
        assert not missing, ("not loaded", missing)
        print("MODULES-OK")
    """)
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "MODULES-OK" in proc.stdout
    assert not log.exists(), log.read_text()


@pytest.mark.parametrize("case", sorted(TIMING_ONLY))
def test_timing_only_runs_skip_the_deferred_imports(case, tmp_path):
    _run_case(TIMING_ONLY[case], tmp_path)


@pytest.mark.parametrize("case", sorted(FUNCTIONAL))
def test_functional_runs_never_import_numpy(case, tmp_path):
    _run_case(FUNCTIONAL[case], tmp_path)
