"""No run imports numpy; timing-only runs defer the functional cache stack.

Every case runs in a fresh interpreter, so ``sys.modules`` reflects only
the code under test, not whatever earlier tests imported.  A stub
``numpy`` sits first on ``PYTHONPATH``: importing it logs the attempt
and raises ``ImportError``, as a missing or broken install would.  So
each case must succeed without numpy, leave ``numpy`` out of
``sys.modules``, and not even try the import (a guarded ``try: import
numpy`` is caught by the log, in worker processes too).

* Timing-only runs also never import the functional cache stack
  (``repro.cache.hierarchy``): ``import repro``, the end-to-end
  benchmark's imports, the reference run direct, behind a DRAM tier and
  traced and sampled, and a two-worker sweep.
* Functional runs need no numpy either: the reference run with a
  backing store, direct and behind the tier, and ``repro faults
  --smoke``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

#: Modules no timing-only run imports.
DEFERRED = ("numpy", "repro.cache.hierarchy")

#: What each timing-only case runs; the harness then asserts every
#: ``DEFERRED`` module is still absent from ``sys.modules``.
TIMING_ONLY = {
    "import-repro": "import repro",
    "e2e-imports": (
        "import repro.core.systems, repro.sim.simulator, "
        "repro.sim.runner, repro.telemetry"
    ),
    "reference-run": """
        from repro.core.systems import make_system
        from repro.sim.simulator import SimulationParams, SystemSimulator

        params = SimulationParams(target_requests=3000, seed=7)
        result = SystemSimulator(make_system("rwow-rde"), "canneal", params).run()
        assert (result.profile.events_dispatched, result.sim_ticks) == (
            6150, 364931
        ), (result.profile.events_dispatched, result.sim_ticks)
    """,
    "tier-run": """
        from repro.core.systems import make_front_end, make_system
        from repro.sim.simulator import SimulationParams, SystemSimulator

        params = SimulationParams(
            target_requests=3000, seed=7,
            front_end=make_front_end("dram", capacity_mb=0.25),
        )
        result = SystemSimulator(make_system("rwow-rde"), "canneal", params).run()
        assert result.frontend["fills"] > 0, result.frontend
    """,
    "traced-sampled-run": """
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
    "run-pairs-two-workers": """
        from repro.sim.runner import run_pairs
        from repro.sim.simulator import SimulationParams

        results = run_pairs(
            [("canneal", "baseline"), ("canneal", "rwow-rde")],
            SimulationParams(target_requests=500, seed=7),
            jobs=2,
        )
        assert [r.system_name for r in results] == ["baseline", "rwow-rde"]
    """,
}

#: Runs that build a backing store or a fault campaign; the harness
#: asserts numpy is still absent.
FUNCTIONAL = {
    "functional-direct": """
        from repro.core.systems import make_system
        from repro.sim.simulator import SimulationParams, SystemSimulator

        params = SimulationParams(target_requests=3000, seed=7)
        result = SystemSimulator(
            make_system("rwow-rde", functional=True), "canneal", params
        ).run()
        assert (result.profile.events_dispatched, result.sim_ticks) == (
            6150, 364931
        ), (result.profile.events_dispatched, result.sim_ticks)
    """,
    "functional-tier": """
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
    "faults-smoke": """
        from repro.cli import main

        assert main(["faults", "--smoke", "--seed", "1"]) == 0
    """,
}


def _run_without(code: str, absent: tuple, tmp_path) -> None:
    """Run ``code`` in a fresh interpreter whose ``numpy`` is a stub that
    logs the attempt and fails; then assert every ``absent`` module is
    missing from ``sys.modules`` and that nothing tried numpy."""
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
        assert not loaded, loaded
        print("ABSENT-OK")
    """)
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "ABSENT-OK" in proc.stdout
    assert not log.exists(), log.read_text()


@pytest.mark.parametrize("case", sorted(TIMING_ONLY))
def test_timing_only_runs_skip_the_deferred_imports(case, tmp_path):
    _run_without(TIMING_ONLY[case], DEFERRED, tmp_path)


@pytest.mark.parametrize("case", sorted(FUNCTIONAL))
def test_functional_runs_never_import_numpy(case, tmp_path):
    _run_without(FUNCTIONAL[case], ("numpy",), tmp_path)
