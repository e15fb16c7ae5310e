"""PCMap: Boosting Access Parallelism to PCM-Based Main Memory (ISCA 2016).

A from-scratch reproduction of the paper's system: a DDR3-style PCM memory
simulator, the PCMap controller (RoW + WoW + rotation), SECDED/PCC error
codes, a cache hierarchy and CPU model, synthetic workload generation, and
the benchmark harness regenerating every figure and table of the paper's
evaluation.

Quick start::

    from repro import make_system, run_workload
    result = run_workload("canneal", make_system("rwow-rde"))
    print(result.ipc, result.irlp_average)
"""

__version__ = "1.0.0"

from repro.core.config import SystemConfig, pcmap_config
from repro.core.systems import PCMAP_SYSTEM_NAMES, SYSTEM_NAMES, make_system
from repro.memory.memsys import MainMemory
from repro.memory.request import MemoryRequest, RequestKind, make_read, make_write
from repro.memory.timing import TimingParams, WriteLatencyMode
from repro.sim.engine import Engine

__all__ = [
    "__version__",
    "SystemConfig",
    "pcmap_config",
    "PCMAP_SYSTEM_NAMES",
    "SYSTEM_NAMES",
    "make_system",
    "MainMemory",
    "MemoryRequest",
    "RequestKind",
    "make_read",
    "make_write",
    "TimingParams",
    "WriteLatencyMode",
    "Engine",
]


def run_workload(workload, system, **kwargs):
    """Convenience wrapper around :func:`repro.sim.experiment.run_workload`.

    Imported lazily so that ``import repro`` stays light.
    """
    from repro.sim.experiment import run_workload as _run

    return _run(workload, system, **kwargs)
