"""On-disk result cache for the sweep runner.

One JSON file per (workload, system, params, code version) cell, named by
the job's content hash and written atomically, so a warm sweep rerun is
pure I/O.  Every entry embeds its own key and a SHA-256 digest of the
result payload; an entry that fails to parse, names a different key or
fails the digest check is treated as a miss, deleted and recomputed —
corruption can cost time, never correctness.

The payload itself goes through the existing
:mod:`repro.sim.results_io` round-trip (``result_to_dict`` /
``result_from_dict``), so cached results carry the same schema,
attribution seed and code-version stamp as any saved results file.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.sim.metrics import SimulationResult
from repro.sim.results_io import (
    atomic_write_text,
    result_from_dict,
    result_to_dict,
)
from repro.telemetry import RunProfile

#: Version of the cache *envelope* (the result payload inside carries its
#: own ``results_io.SCHEMA_VERSION``).
CACHE_SCHEMA = 1


def payload_digest(payload: dict) -> str:
    """SHA-256 of a result payload's canonical JSON text."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache instance (one process)."""

    hits: int = 0
    misses: int = 0
    corrupt: int = 0     #: entries discarded for parse/key/digest failures
    writes: int = 0
    errors: int = 0      #: filesystem errors (unreadable/undeletable entries)

    def summary(self) -> str:
        return (
            f"cache: {self.hits} hits, {self.misses} misses "
            f"({self.corrupt} corrupt, {self.errors} errors), "
            f"{self.writes} writes"
        )


class ResultCache:
    """Content-addressed simulation-result store under one directory."""

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.stats = CacheStats()
        self._warned_errors = False

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    # ------------------------------------------------------------------
    def _note_error(self, action: str, path: Path, exc: OSError) -> None:
        """Count a filesystem error and warn the first time it happens.

        A permission-denied or I/O-failing entry degrades to a miss (the
        sweep recomputes, correctness is unharmed) — but a cache that
        silently never hits costs every warm rerun its speedup, so the
        first failure is surfaced on stderr and every one is counted in
        ``stats.errors``.
        """
        self.stats.errors += 1
        if not self._warned_errors:
            self._warned_errors = True
            print(
                f"repro sweep cache: cannot {action} {path} "
                f"({exc.__class__.__name__}: {exc}); treating as a miss — "
                "further cache I/O errors are counted but not repeated",
                file=sys.stderr,
            )

    def _discard(self, path: Path) -> None:
        """Best-effort removal of a bad entry, with accounting."""
        try:
            path.unlink()
        except FileNotFoundError:
            pass  # already gone: nothing was swallowed
        except OSError as exc:
            self._note_error("remove", path, exc)

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[SimulationResult]:
        """Cached result for ``key``, or ``None``.

        Any defect in the entry — unreadable file, JSON error, key or
        digest mismatch, bad schema — degrades to a miss: the entry is
        removed (best effort) and the caller recomputes.  Filesystem
        errors (permission denied, I/O failure) are additionally counted
        in ``stats.errors`` and warned about once per cache instance.
        """
        path = self.path_for(key)
        try:
            with open(path) as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except OSError as exc:
            # Unreadable entry (permissions, I/O): recompute and count.
            self.stats.misses += 1
            self._note_error("read", path, exc)
            self._discard(path)
            return None
        except ValueError:
            # json.JSONDecodeError is a ValueError: a truncated or
            # garbled entry is corruption, not an I/O error.
            self.stats.misses += 1
            self.stats.corrupt += 1
            self._discard(path)
            return None
        try:
            if entry.get("schema") != CACHE_SCHEMA:
                raise ValueError(f"unsupported cache schema {entry.get('schema')!r}")
            if entry.get("key") != key:
                raise ValueError("cache entry does not match its key")
            payload = entry["result"]
            if payload_digest(payload) != entry.get("payload_sha256"):
                raise ValueError("cache entry failed its digest check")
            result = result_from_dict(payload)
        except (ValueError, KeyError, TypeError, AttributeError):
            # result_from_dict raises ValueError/KeyError/TypeError on
            # malformed payloads; AttributeError covers non-dict JSON.
            self.stats.misses += 1
            self.stats.corrupt += 1
            self._discard(path)
            return None
        profile = entry.get("profile")
        if isinstance(profile, dict):
            # Rehydrate the engine cost of the original run so warm-cache
            # telemetry summaries still report what the sweep really cost.
            result.profile = RunProfile(
                events_dispatched=int(profile.get("events_dispatched", 0)),
                wall_seconds=float(profile.get("wall_seconds", 0.0)),
            )
        self.stats.hits += 1
        return result

    def put(self, key: str, result: SimulationResult) -> Path:
        """Persist ``result`` under ``key`` (atomic write); returns the path."""
        payload = result_to_dict(result)
        entry = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "payload_sha256": payload_digest(payload),
            "result": payload,
        }
        if result.profile is not None:
            entry["profile"] = {
                "events_dispatched": result.profile.events_dispatched,
                "wall_seconds": result.profile.wall_seconds,
            }
        path = self.path_for(key)
        atomic_write_text(path, json.dumps(entry, indent=1))
        self.stats.writes += 1
        return path
