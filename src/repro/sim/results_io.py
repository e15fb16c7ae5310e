"""Persistence for simulation results (JSON round-trip).

Sweeps take minutes; persisting their results lets the analysis layer and
notebooks compare systems, seeds and code revisions without re-running.
The format is a flat JSON document per result (schema version tagged), and
a results file holds a list of them.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform as platform_module
import stat
import subprocess
from dataclasses import asdict
from pathlib import Path
from typing import List, Optional, Union

from repro.sim.metrics import MemoryStats, SimulationResult

#: Schema 2 added the run manifest and the optional embedded
#: ``metrics``/``timeseries`` sections; schema-1 files still load.  The
#: optional ``frontend`` section (DRAM-tier summary) rides on schema 2:
#: like metrics/timeseries it is additive and absent on direct-path runs.
SCHEMA_VERSION = 2

#: Older schemas :func:`result_from_dict` still accepts.
READABLE_SCHEMAS = (1, 2)

_CODE_VERSION: Union[str, None] = None


def code_version() -> str:
    """Identifier of the code state that produced a result.

    ``git describe`` when the repository is available (memoised — one
    subprocess per process), else the installed package version.  Stamped
    into every persisted result so saved numbers stay attributable.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        try:
            _CODE_VERSION = subprocess.run(
                ["git", "describe", "--always", "--dirty", "--tags"],
                capture_output=True,
                text=True,
                timeout=5,
                cwd=Path(__file__).resolve().parent,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            _CODE_VERSION = ""
        if not _CODE_VERSION:
            from repro import __version__

            _CODE_VERSION = f"repro-{__version__}"
    return _CODE_VERSION


def run_manifest(seed: int = -1) -> dict:
    """Attribution header for a persisted run: where did this number
    come from?  Seed, code state, interpreter and host platform."""
    return {
        "seed": seed,
        "code_version": code_version(),
        "python": platform_module.python_version(),
        "platform": platform_module.platform(),
    }


def result_to_dict(result: SimulationResult) -> dict:
    """Flatten one result (including its memory stats) to JSON-safe data."""
    memory = asdict(result.memory)
    # JSON objects key by string; normalise the per-chip map.
    memory["chip_word_writes"] = {
        str(chip): count
        for chip, count in result.memory.chip_word_writes.items()
    }
    payload = {
        "schema": SCHEMA_VERSION,
        "system": result.system_name,
        "workload": result.workload_name,
        # Attribution header: which RNG seed and code state produced this.
        "seed": result.seed,
        "code_version": code_version(),
        "manifest": run_manifest(result.seed),
        "sim_ticks": result.sim_ticks,
        "instructions": result.instructions,
        "cpu_cycles": result.cpu_cycles,
        "irlp_average": result.irlp_average,
        "irlp_max": result.irlp_max,
        "write_service_busy_ticks": result.write_service_busy_ticks,
        "memory": memory,
        # Redundant conveniences for downstream tools:
        "ipc": result.ipc,
        "write_throughput": result.write_throughput,
        "mean_read_latency_ns": result.mean_read_latency_ns,
    }
    # Observability sections ride along only when the run collected them,
    # so metric-less results serialise exactly as compactly as before.
    if result.metrics is not None:
        payload["metrics"] = result.metrics
    if result.timeseries is not None:
        payload["timeseries"] = result.timeseries
    if result.frontend is not None:
        payload["frontend"] = result.frontend
    return payload


def result_from_dict(data: dict) -> SimulationResult:
    """Inverse of :func:`result_to_dict` (reads any readable schema)."""
    if data.get("schema") not in READABLE_SCHEMAS:
        raise ValueError(
            f"unsupported result schema {data.get('schema')!r}; "
            f"expected one of {READABLE_SCHEMAS}"
        )
    memory_data = dict(data["memory"])
    memory_data["chip_word_writes"] = {
        int(chip): count
        for chip, count in memory_data.get("chip_word_writes", {}).items()
    }
    memory = MemoryStats(**memory_data)
    return SimulationResult(
        system_name=data["system"],
        workload_name=data["workload"],
        sim_ticks=data["sim_ticks"],
        instructions=data["instructions"],
        cpu_cycles=data["cpu_cycles"],
        memory=memory,
        irlp_average=data["irlp_average"],
        irlp_max=data["irlp_max"],
        write_service_busy_ticks=data["write_service_busy_ticks"],
        seed=data.get("seed", -1),
        metrics=data.get("metrics"),
        timeseries=data.get("timeseries"),
        frontend=data.get("frontend"),
    )


def results_digest(results: List[SimulationResult]) -> str:
    """SHA-256 over the canonical JSON of ``results`` (order-sensitive).

    The byte-identity oracle for campaigns: a resumed, multi-worker or
    kill-and-recovered campaign must digest identically to a serial
    ``run_pairs`` of the same pairs.  Every field of
    :func:`result_to_dict` participates — metrics, time-series, the
    attribution manifest — so the digest is machine-local (the manifest
    embeds platform and code version) but exact across processes,
    workers and resumes on one checkout.
    """
    payload = [result_to_dict(result) for result in results]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    Readers either see the previous complete file or the new complete
    file, never a truncated one — a crash mid-dump must not leave a
    results file (or sweep-cache entry) that ``json.load`` chokes on.
    A new file gets the process umask's usual mode (0644 under umask
    022); a replaced file keeps its permission bits.
    """
    path = Path(path)
    directory = path.parent if str(path.parent) else Path(".")
    directory.mkdir(parents=True, exist_ok=True)
    try:
        keep_mode: Optional[int] = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        keep_mode = None
    tmp_name = str(directory / f".{path.name}.{os.urandom(8).hex()}.tmp")
    # Mode 0o666 lets the umask apply, as for any file open() creates
    # (mkstemp would force 0600).
    fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            if keep_mode is not None:
                os.chmod(tmp_name, keep_mode)
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def save_results(
    path: Union[str, Path], results: List[SimulationResult]
) -> int:
    """Write results to a JSON file (atomically); returns the count."""
    payload = [result_to_dict(result) for result in results]
    atomic_write_text(path, json.dumps(payload, indent=1))
    return len(payload)


def load_results(path: Union[str, Path]) -> List[SimulationResult]:
    """Read results back from a JSON file."""
    with open(path) as handle:
        payload = json.load(handle)
    if not isinstance(payload, list):
        raise ValueError("results file must hold a JSON list")
    return [result_from_dict(entry) for entry in payload]
