"""Tests for the top-level package API and misc wrappers."""

import ast
import importlib
from pathlib import Path

import pytest

import repro
from repro.sim.simulator import SimulationParams


def _packages_with_all():
    """Every package under ``repro`` whose ``__init__`` keeps an ``__all__``,
    found by parsing the sources: collection imports none of them."""
    root = Path(repro.__file__).parent
    packages = []
    for init in sorted(root.rglob("__init__.py")):
        body = ast.parse(init.read_text()).body
        if any(
            isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for node in body
        ):
            packages.append(".".join(init.parent.relative_to(root.parent).parts))
    return packages


def test_version_string():
    assert repro.__version__ == "1.0.0"


def test_top_level_run_workload_wrapper():
    result = repro.run_workload(
        "MP3",
        repro.make_system("baseline"),
        params=SimulationParams(instructions_per_core=3_000, n_cores=2),
    )
    assert result.ipc > 0
    assert result.workload_name == "MP3"


@pytest.mark.parametrize("package", _packages_with_all())
def test_public_names_importable(package):
    # A lazy name resolves here, so one that points at a moved name fails.
    module = importlib.import_module(package)
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name}"


def test_system_names_exported():
    assert repro.SYSTEM_NAMES[0] == "baseline"
    assert len(repro.PCMAP_SYSTEM_NAMES) == 5


def test_make_read_write_exported():
    read = repro.make_read(1, 64)
    write = repro.make_write(2, 128, 0b1)
    assert read.is_read and write.is_write
