"""Workload profiles encoding the paper's published statistics.

Every number the paper prints about its workloads is encoded here:

* **RPKI / WPKI** per workload — Table II (multi-threaded PARSEC and the
  six SPEC multi-programmed mixes).
* **Dirty-word distributions** — Figure 2's anchors (omnetpp's 14 % and
  cactusADM's 52 % single-word write-backs; 77–99 % of write-backs under
  4 dirty words) and footnote 3's silent-store-free averages.  Where the
  paper prints no per-workload histogram, the vector is an interpolation
  within the published ranges; each such choice is data, visible below.
* **Offset correlation** — §IV-C2 observes that 32 % of successive
  write-backs are dirty at the same word offsets.
* **Rollback rates** — Table IV (canneal 5.8 %, facesim 4.1 %, MP6 3.4 %,
  ferret 2.2 %) and §IV-B3's 1.3 % default.

SPEC single-program RPKI/WPKI values (used by Figures 1 and 2, which the
paper does not tabulate) follow the standard SPEC CPU 2006 memory-intensity
characterisation: mcf/lbm/milc are memory-hogs, gromacs/h264ref are light.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.memory.request import WORDS_PER_LINE


class WorkloadKind(enum.Enum):
    """Benchmark-suite grouping used by the figures."""

    MULTI_THREADED = "MT"    #: PARSEC-2, 8 threads
    MULTI_PROGRAM = "MP"     #: SPEC CPU 2006 8-application mixes
    SPEC_SINGLE = "SPEC"     #: single SPEC programs (Figures 1 and 2)
    SERVER = "SRV"           #: server/database scenarios (front-end study)


def _dist(*weights: float) -> Tuple[float, ...]:
    """Normalise a 9-entry dirty-word-count weight vector."""
    if len(weights) != WORDS_PER_LINE + 1:
        raise ValueError(f"need 9 weights, got {len(weights)}")
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    return tuple(w / total for w in weights)


#: Footnote 3's average distribution (silent stores counted as 0-word).
FOOTNOTE3_AVERAGE: Tuple[float, ...] = _dist(
    17.2, 29.5, 14.1, 7.2, 12.9, 5.8, 1.8, 2.3, 9.2
)


@dataclass(frozen=True)
class WorkloadProfile:
    """Statistical model of one workload's main-memory request stream."""

    name: str
    kind: WorkloadKind
    rpki: float                       #: main-memory reads per kilo-instruction
    wpki: float                       #: write-backs per kilo-instruction
    #: P(write-back has exactly i dirty words), i = 0..8 (Figure 2).
    dirty_word_distribution: Tuple[float, ...]
    #: P(successive write-backs share their dirty offsets) (§IV-C2: 0.32).
    offset_correlation: float = 0.32
    #: Relative dirtiness of each word offset within a line.  Real
    #: programs dirty low offsets far more often (headers, counters,
    #: struct leaders), which is exactly the chip-clustering the paper's
    #: data rotation de-correlates (§IV-C2).  Normalised at use.
    offset_weights: Tuple[float, ...] = (
        0.30, 0.16, 0.12, 0.10, 0.09, 0.08, 0.08, 0.07
    )
    #: P(a RoW read rolls back in the always-faulty model) (Table IV).
    rollback_rate: float = 0.013
    #: P(the next access continues a sequential stream) — row-buffer and
    #: bank locality knob.
    sequential_fraction: float = 0.45
    #: Number of concurrently live sequential streams per core.
    stream_count: int = 4
    #: Distinct lines a core touches (working-set footprint).
    footprint_lines: int = 1 << 18
    #: Fraction of write-backs whose address was recently read (dirty
    #: evictions of lines brought in by reads) — drives same-row reuse.
    write_read_affinity: float = 0.3
    #: Burstiness of write-backs: mean number of write-backs arriving
    #: back-to-back when an eviction wave happens (LLC behaviour).
    write_burst_mean: float = 4.0
    description: str = ""

    def __post_init__(self) -> None:
        if len(self.dirty_word_distribution) != WORDS_PER_LINE + 1:
            raise ValueError("dirty distribution needs 9 entries")
        if abs(sum(self.dirty_word_distribution) - 1.0) > 1e-9:
            raise ValueError("dirty distribution must sum to 1")
        if self.rpki < 0 or self.wpki < 0:
            raise ValueError("RPKI/WPKI must be non-negative")
        if not 0 <= self.offset_correlation <= 1:
            raise ValueError("offset_correlation out of [0, 1]")

    @property
    def mpki(self) -> float:
        """Total main-memory accesses per kilo-instruction."""
        return self.rpki + self.wpki

    @property
    def write_fraction(self) -> float:
        if self.mpki == 0:
            return 0.0
        return self.wpki / self.mpki

    @property
    def mean_dirty_words(self) -> float:
        return sum(i * p for i, p in enumerate(self.dirty_word_distribution))

# ---------------------------------------------------------------------------
# Multi-threaded workloads (PARSEC-2, Table II)
# ---------------------------------------------------------------------------
# Dirty-word vectors are interpolations anchored to the published ranges;
# memory-intense programs with streaming writes (canneal, streamcluster)
# lean toward few-word write-backs, dedup/freqmine carry wider updates.

MULTI_THREADED: List[WorkloadProfile] = [
    WorkloadProfile(
        "canneal", WorkloadKind.MULTI_THREADED, rpki=15.19, wpki=7.13,
        dirty_word_distribution=_dist(14, 34, 20, 9, 10, 5, 2, 2, 4),
        rollback_rate=0.058, sequential_fraction=0.25,
        description="simulated annealing, pointer-chasing, high MPKI",
    ),
    WorkloadProfile(
        "dedup", WorkloadKind.MULTI_THREADED, rpki=3.04, wpki=2.072,
        dirty_word_distribution=_dist(10, 22, 18, 13, 15, 8, 5, 3, 6),
        sequential_fraction=0.55,
        description="pipelined compression, bulk buffer writes",
    ),
    WorkloadProfile(
        "facesim", WorkloadKind.MULTI_THREADED, rpki=6.66, wpki=1.26,
        dirty_word_distribution=_dist(12, 30, 19, 10, 12, 6, 3, 3, 5),
        rollback_rate=0.041, sequential_fraction=0.5,
        description="physics solver, read-dominant",
    ),
    WorkloadProfile(
        "fluidanimate", WorkloadKind.MULTI_THREADED, rpki=5.54, wpki=1.51,
        dirty_word_distribution=_dist(13, 28, 18, 10, 13, 7, 3, 3, 5),
        sequential_fraction=0.5,
        description="SPH fluid dynamics, grid sweeps",
    ),
    WorkloadProfile(
        "freqmine", WorkloadKind.MULTI_THREADED, rpki=0.78, wpki=3.33,
        dirty_word_distribution=_dist(9, 20, 17, 14, 17, 9, 5, 3, 6),
        sequential_fraction=0.4,
        description="FP-growth mining, write-heavy tree updates",
    ),
    WorkloadProfile(
        "streamcluster", WorkloadKind.MULTI_THREADED, rpki=5.19, wpki=2.13,
        dirty_word_distribution=_dist(12, 33, 21, 10, 10, 5, 3, 2, 4),
        sequential_fraction=0.65,
        description="online clustering, streaming reads",
    ),
    WorkloadProfile(
        # Table IV names ferret; Table II does not list its rates, so they
        # are interpolated from PARSEC characterisation studies.
        "ferret", WorkloadKind.MULTI_THREADED, rpki=4.20, wpki=1.85,
        dirty_word_distribution=_dist(11, 27, 18, 11, 13, 7, 4, 3, 6),
        rollback_rate=0.022, sequential_fraction=0.45,
        description="content-based image search pipeline",
    ),
]


# ---------------------------------------------------------------------------
# Multi-programmed workloads (SPEC CPU 2006 mixes, Table II)
# ---------------------------------------------------------------------------
# MP mixes blend heterogeneous programs, so their dirty vectors sit close
# to the footnote-3 average; MP1-MP3 lean harder on 1-2-word write-backs
# (the paper notes their RWoW-RDE IRLP approaches 8).

MULTI_PROGRAM: List[WorkloadProfile] = [
    WorkloadProfile(
        "MP1", WorkloadKind.MULTI_PROGRAM, rpki=6.45, wpki=3.11,
        dirty_word_distribution=_dist(10, 36, 22, 9, 9, 5, 3, 2, 4),
        sequential_fraction=0.4,
        description="2x mcf, 2x gemsFDTD, 2x astar, 2x sphinx3",
    ),
    WorkloadProfile(
        "MP2", WorkloadKind.MULTI_PROGRAM, rpki=2.68, wpki=1.56,
        dirty_word_distribution=_dist(10, 35, 21, 10, 9, 6, 3, 2, 4),
        sequential_fraction=0.45,
        description="2x mcf, 2x gromacs, 2x gemsFDTD, 2x h264ref",
    ),
    WorkloadProfile(
        "MP3", WorkloadKind.MULTI_PROGRAM, rpki=2.31, wpki=1.08,
        dirty_word_distribution=_dist(11, 34, 22, 10, 9, 6, 3, 2, 3),
        sequential_fraction=0.5,
        description="2x gromacs, 2x h264ref, 2x astar, 2x sphinx3",
    ),
    WorkloadProfile(
        "MP4", WorkloadKind.MULTI_PROGRAM, rpki=8.05, wpki=5.65,
        dirty_word_distribution=_dist(12, 26, 17, 10, 13, 8, 4, 3, 7),
        sequential_fraction=0.35,
        description="8x astar (homogeneous, memory-intense)",
    ),
    WorkloadProfile(
        "MP5", WorkloadKind.MULTI_PROGRAM, rpki=4.15, wpki=2.60,
        dirty_word_distribution=_dist(11, 25, 16, 11, 14, 8, 4, 3, 8),
        sequential_fraction=0.55,
        description="8x gemsFDTD (homogeneous, streaming)",
    ),
    WorkloadProfile(
        "MP6", WorkloadKind.MULTI_PROGRAM, rpki=5.09, wpki=2.09,
        dirty_word_distribution=_dist(9, 31, 20, 10, 11, 7, 4, 3, 5),
        rollback_rate=0.034, sequential_fraction=0.45,
        description="2x cactusADM, 2x soplex, 2x gemsFDTD, 2x astar",
    ),
]


# ---------------------------------------------------------------------------
# Single SPEC CPU 2006 programs (Figures 1 and 2)
# ---------------------------------------------------------------------------
# Figure 2's published anchors: omnetpp has the minimum 1-word fraction
# (14 %), cactusADM the maximum (52 %); every program keeps <=3-word
# write-backs within 77-99 %.  RPKI/WPKI follow standard SPEC memory
# characterisation (not printed in the paper).

SPEC_SINGLES: List[WorkloadProfile] = [
    WorkloadProfile(
        "mcf", WorkloadKind.SPEC_SINGLE, rpki=16.8, wpki=4.6,
        dirty_word_distribution=_dist(12, 38, 21, 9, 8, 5, 3, 1, 3),
        sequential_fraction=0.2,
        description="sparse network simplex, pointer-heavy",
    ),
    WorkloadProfile(
        "gemsFDTD", WorkloadKind.SPEC_SINGLE, rpki=9.2, wpki=4.4,
        dirty_word_distribution=_dist(10, 24, 16, 12, 15, 8, 4, 3, 8),
        sequential_fraction=0.65,
        description="finite-difference time domain, streaming grids",
    ),
    WorkloadProfile(
        "astar", WorkloadKind.SPEC_SINGLE, rpki=6.4, wpki=3.9,
        dirty_word_distribution=_dist(12, 33, 21, 10, 10, 6, 3, 2, 3),
        sequential_fraction=0.3,
        description="path-finding over graph maps",
    ),
    WorkloadProfile(
        "sphinx3", WorkloadKind.SPEC_SINGLE, rpki=5.1, wpki=1.1,
        dirty_word_distribution=_dist(13, 35, 20, 10, 9, 5, 3, 2, 3),
        sequential_fraction=0.45,
        description="speech recognition, read-dominant",
    ),
    WorkloadProfile(
        "gromacs", WorkloadKind.SPEC_SINGLE, rpki=1.1, wpki=0.5,
        dirty_word_distribution=_dist(11, 30, 20, 12, 11, 6, 4, 2, 4),
        sequential_fraction=0.5,
        description="molecular dynamics, cache-friendly",
    ),
    WorkloadProfile(
        "h264ref", WorkloadKind.SPEC_SINGLE, rpki=1.6, wpki=0.7,
        dirty_word_distribution=_dist(10, 28, 19, 12, 12, 7, 4, 3, 5),
        sequential_fraction=0.55,
        description="video encoding, block writes",
    ),
    WorkloadProfile(
        "cactusADM", WorkloadKind.SPEC_SINGLE, rpki=6.9, wpki=3.5,
        dirty_word_distribution=_dist(8, 52, 17, 7, 6, 4, 2, 1, 3),
        sequential_fraction=0.6,
        description="numerical relativity; 52% single-word write-backs (Fig 2 max)",
    ),
    WorkloadProfile(
        "soplex", WorkloadKind.SPEC_SINGLE, rpki=8.8, wpki=2.7,
        dirty_word_distribution=_dist(11, 30, 19, 11, 11, 6, 4, 3, 5),
        sequential_fraction=0.4,
        description="linear programming solver",
    ),
    WorkloadProfile(
        "omnetpp", WorkloadKind.SPEC_SINGLE, rpki=9.4, wpki=4.1,
        dirty_word_distribution=_dist(9, 14, 17, 18, 20, 9, 5, 3, 5),
        sequential_fraction=0.25,
        description="discrete-event simulation; 14% single-word write-backs (Fig 2 min)",
    ),
    WorkloadProfile(
        "milc", WorkloadKind.SPEC_SINGLE, rpki=11.6, wpki=5.2,
        dirty_word_distribution=_dist(10, 26, 17, 11, 14, 8, 4, 3, 7),
        sequential_fraction=0.6,
        description="lattice QCD, streaming",
    ),
    WorkloadProfile(
        "lbm", WorkloadKind.SPEC_SINGLE, rpki=19.5, wpki=10.4,
        dirty_word_distribution=_dist(8, 22, 18, 13, 16, 9, 4, 4, 6),
        sequential_fraction=0.75,
        description="lattice Boltzmann, write-streaming (STREAM-like)",
    ),
    WorkloadProfile(
        "leslie3d", WorkloadKind.SPEC_SINGLE, rpki=7.3, wpki=3.1,
        dirty_word_distribution=_dist(10, 27, 18, 12, 13, 8, 4, 3, 5),
        sequential_fraction=0.65,
        description="computational fluid dynamics",
    ),
]


# ---------------------------------------------------------------------------
# STREAM kernels (the paper's Table II mentions STREAM among the
# multi-threaded workloads).  Purely sequential triads with bulk stores:
# write-backs touch most of each line, arrivals are maximally streaming.
# ---------------------------------------------------------------------------

STREAM_KERNELS: List[WorkloadProfile] = [
    WorkloadProfile(
        "stream-copy", WorkloadKind.MULTI_THREADED, rpki=11.0, wpki=5.5,
        dirty_word_distribution=_dist(2, 4, 6, 9, 14, 15, 14, 13, 23),
        sequential_fraction=0.95, offset_correlation=0.8,
        write_burst_mean=8.0, stream_count=2,
        description="STREAM copy: c[i] = a[i] (bulk line writes)",
    ),
    WorkloadProfile(
        "stream-scale", WorkloadKind.MULTI_THREADED, rpki=11.0, wpki=5.5,
        dirty_word_distribution=_dist(2, 5, 7, 10, 14, 15, 14, 12, 21),
        sequential_fraction=0.95, offset_correlation=0.8,
        write_burst_mean=8.0, stream_count=2,
        description="STREAM scale: b[i] = s*c[i]",
    ),
    WorkloadProfile(
        "stream-triad", WorkloadKind.MULTI_THREADED, rpki=16.0, wpki=5.5,
        dirty_word_distribution=_dist(2, 4, 6, 9, 13, 15, 15, 13, 23),
        sequential_fraction=0.95, offset_correlation=0.8,
        write_burst_mean=8.0, stream_count=3,
        description="STREAM triad: a[i] = b[i] + s*c[i]",
    ),
]


# ---------------------------------------------------------------------------
# Server/database scenarios (front-end study).  Not from the paper's
# Table II: these model the workload class a deployed PCM main memory
# actually serves — huge footprints that defeat a 256 MB DRAM cache,
# skewed record reuse that a replacement policy can exploit, and small
# in-place record updates (1-2 dirty words dominate).  They exist to
# exercise the simulated cache tier: reuse-vs-scan balance is what
# separates LRU, CLOCK and MAC behind the filter.
# ---------------------------------------------------------------------------

SERVER_WORKLOADS: List[WorkloadProfile] = [
    WorkloadProfile(
        "oltp", WorkloadKind.SERVER, rpki=10.5, wpki=4.8,
        dirty_word_distribution=_dist(8, 44, 24, 9, 6, 4, 2, 1, 2),
        sequential_fraction=0.15, stream_count=8,
        footprint_lines=1 << 20, write_read_affinity=0.6,
        write_burst_mean=2.0,
        description="OLTP-style: random record touches, tiny in-place updates",
    ),
    WorkloadProfile(
        "webserve", WorkloadKind.SERVER, rpki=7.8, wpki=1.9,
        dirty_word_distribution=_dist(12, 36, 22, 10, 8, 5, 3, 2, 2),
        sequential_fraction=0.35, stream_count=6,
        footprint_lines=1 << 19, write_read_affinity=0.4,
        description="web serving: read-mostly with hot-object reuse",
    ),
    WorkloadProfile(
        "kvstore", WorkloadKind.SERVER, rpki=12.6, wpki=6.2,
        dirty_word_distribution=_dist(6, 40, 26, 11, 7, 4, 3, 1, 2),
        sequential_fraction=0.1, stream_count=8,
        footprint_lines=1 << 21, write_read_affinity=0.7,
        write_burst_mean=2.0,
        description="key-value store: uniform-ish gets/puts, huge footprint",
    ),
]


ALL_WORKLOADS: List[WorkloadProfile] = (
    MULTI_THREADED + MULTI_PROGRAM + SPEC_SINGLES + STREAM_KERNELS
    + SERVER_WORKLOADS
)

_REGISTRY: Dict[str, WorkloadProfile] = {w.name: w for w in ALL_WORKLOADS}

#: The six MT and six MP workloads Figures 8-11 plot individually.
FIGURE_MT_NAMES: List[str] = [
    "canneal", "dedup", "facesim", "fluidanimate", "freqmine", "streamcluster",
]
FIGURE_MP_NAMES: List[str] = ["MP1", "MP2", "MP3", "MP4", "MP5", "MP6"]

#: Table IV's rollback-heavy workloads.
TABLE4_NAMES: List[str] = ["canneal", "facesim", "MP6", "ferret"]


def get_workload(name: str) -> WorkloadProfile:
    """Look a workload profile up by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def workload_names(kind: WorkloadKind = None) -> List[str]:
    """All workload names, optionally filtered by suite."""
    if kind is None:
        return [w.name for w in ALL_WORKLOADS]
    return [w.name for w in ALL_WORKLOADS if w.kind is kind]
