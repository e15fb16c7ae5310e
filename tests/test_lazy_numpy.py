"""numpy loads on first use, never on ``import repro``.

Every case runs in a fresh interpreter, so ``sys.modules`` reflects only
the code under test, not whatever earlier tests imported.

* Timing-only runs never import numpy, nor the functional cache stack
  (``repro.cache.hierarchy``): ``import repro``, the end-to-end
  benchmark's imports, the reference run direct, behind a DRAM tier and
  traced and sampled, and a two-worker sweep.
* A functional build imports numpy while the simulator is built (when
  numpy is usable), so the import never lands inside ``run()``.
* A numpy that raises ``ImportError`` on import still selects the scalar
  path, exactly as a missing one does.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

#: Modules that load on first use and that no timing-only run uses.
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

FUNCTIONAL_BUILD = """
    import sys

    from repro.core.systems import make_system
    from repro.sim.simulator import SimulationParams, SystemSimulator

    assert "numpy" not in sys.modules
    sim = SystemSimulator(
        make_system("rwow-rde", functional=True), "canneal",
        SimulationParams(target_requests=600, seed=7),
    )
    loaded = "numpy" in sys.modules  # before anything reads batch.HAS_NUMPY

    from repro.ecc import batch

    assert loaded == batch.HAS_NUMPY, (loaded, batch.numpy_disabled_reason())
    sim.run()
    assert ("numpy" in sys.modules) == loaded
    print("FUNCTIONAL-OK", loaded)
"""

#: A numpy whose import fails the way a broken install does.
BROKEN_NUMPY = 'raise ImportError("numpy stub: deliberately broken")\n'

BROKEN_PROBE = """
    import random

    from repro.cache.set_assoc import ArraySetCache
    from repro.ecc import batch
    from repro.memory.storage import MemoryStorage

    assert batch.HAS_NUMPY is False
    assert batch.np is None
    reason = batch.numpy_disabled_reason()
    assert reason and "deliberately broken" in reason, reason

    rng = random.Random(5)
    addresses = rng.sample(range(1 << 24), 32)
    batched, scalar = MemoryStorage(), MemoryStorage()
    assert batched.prefetch(addresses) == len(addresses)
    for address in addresses:
        assert batched.read_line(address) == scalar.read_line(address)

    cache = ArraySetCache(64 * 8, 2)
    cache.install(0)
    assert cache.classify_batch([0, 64] * 16) == [True, False] * 16
    print("BROKEN-NUMPY-OK")
"""


def _python(code: str, *path: str, unset: tuple = ()) -> str:
    """Run ``code`` in a fresh interpreter with ``path`` + src importable."""
    env = {key: value for key, value in os.environ.items() if key not in unset}
    env["PYTHONPATH"] = os.pathsep.join(path + (SRC,))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("case", sorted(TIMING_ONLY))
def test_timing_only_runs_skip_the_deferred_imports(case):
    out = _python(
        "import sys\n" + textwrap.dedent(TIMING_ONLY[case]) + textwrap.dedent(f"""
            loaded = [name for name in {DEFERRED!r} if name in sys.modules]
            assert not loaded, loaded
            print("DEFERRED-OK")
        """)
    )
    assert "DEFERRED-OK" in out


def test_functional_build_imports_numpy_at_construction():
    assert "FUNCTIONAL-OK" in _python(FUNCTIONAL_BUILD)


def test_broken_numpy_falls_back_to_the_scalar_path(tmp_path):
    stub = tmp_path / "numpy"
    stub.mkdir()
    (stub / "__init__.py").write_text(BROKEN_NUMPY)
    out = _python(BROKEN_PROBE, str(tmp_path), unset=("REPRO_NO_NUMPY",))
    assert "BROKEN-NUMPY-OK" in out
