"""Measurement machinery: IRLP windows, latency and throughput statistics.

IRLP ("intra-rank-level parallelism during a write", paper footnote 2) is
the time-averaged number of chips doing *data-word* array work while a
write service window is open.  The controller opens a
:class:`WriteWindow` for every write (or WoW group) it issues and
attributes chip activity intervals — the dirty-word writes themselves plus
any reads overlapped by RoW — to the window.  ECC/PCC update activity is
deliberately excluded so the metric tops out at 8.0, matching the paper.
Once a window is final, :class:`IrlpRecorder` folds it into its IRLP value
and service span, so a run keeps those per window, not the window.
"""

from __future__ import annotations

import re
from array import array
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from repro.sim.engine import ns_to_ticks, ticks_to_ns

if TYPE_CHECKING:
    from repro.telemetry.profiler import RunProfile
    from repro.telemetry.registry import MetricsRegistry


def merge_intervals(intervals: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Merge possibly-overlapping [start, end) intervals."""
    if not intervals:
        return []
    ordered = sorted(intervals)
    merged = [ordered[0]]
    for start, end in ordered[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end:
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged


#: IRLP never exceeds the number of data words per line (paper footnote 2
#: reports it "out of a maximum of 8.0").
MAX_IRLP = 8


@dataclass
class WriteWindow:
    """One write service window and the chip activity inside it."""

    start: int
    end: int
    #: Tick the slowest trailing ECC/PCC update of the window finished;
    #: write-throughput busy time runs to here, IRLP only to ``end``.
    service_end: int = -1
    #: (chip, start, end) data-word activity intervals.
    activities: List[Tuple[int, int, int]] = field(default_factory=list)
    #: Holders that may still change the window: the controller's open
    #: set, and RoW's deferred PCC step while it is pending
    #: (:meth:`IrlpRecorder.hold`).  The window is final at 0.
    holds: int = 1
    #: Memoised ``irlp()`` result: ((start, end, len(activities)), value).
    #: Activities only ever append and the span only moves via the
    #: mutators below, so that triple is a complete mutation stamp; the
    #: time-series sampler re-reads recent windows every cadence tick and
    #: would otherwise re-run the interval sweep on unchanged windows.
    _irlp_cache: Optional[Tuple[Tuple[int, int, int], float]] = field(
        default=None, repr=False, compare=False
    )

    def add_activity(self, chip: int, start: int, end: int) -> None:
        """Record data-word array work on ``chip`` over [start, end)."""
        if end > start:
            self.activities.append((chip, start, end))

    def extend(self, end: int) -> None:
        """Grow the window (WoW groups end with their slowest member)."""
        self.end = max(self.end, end)

    def absorb(self, start: int, end: int) -> None:
        """Expand the window to cover [start, end) (WoW member spans).

        A window created with ``start < 0`` is a placeholder; the first
        absorb defines its span.
        """
        if self.start < 0:
            self.start, self.end = start, end
        else:
            self.start = min(self.start, start)
            self.end = max(self.end, end)

    def note_service_end(self, end: int) -> None:
        """Record when the window's full service (ECC/PCC tail) finished."""
        self.service_end = max(self.service_end, end)

    @property
    def busy_end(self) -> int:
        """End of the window's full service (at least the IRLP span end)."""
        return max(self.end, self.service_end)

    def irlp(self) -> float:
        """Time-averaged busy data-chip count, capped at :data:`MAX_IRLP`.

        The cap matches the paper's definition: at most the eight data
        words of any line are in flight, even though a reconstruction read
        plus a trailing write can momentarily touch nine physical chips.
        """
        low, high = self.start, self.end
        if high <= low:
            return 0.0
        stamp = (low, high, len(self.activities))
        if self._irlp_cache is not None and self._irlp_cache[0] == stamp:
            return self._irlp_cache[1]
        # One sort of every chip's clipped endpoints.  A chip is busy
        # while its depth of open intervals is positive, so overlapping
        # or touching intervals on one chip count once; every interval
        # has closed by the last endpoint.
        events: List[Tuple[int, int, int]] = []
        for chip, start, end in self.activities:
            if start < low:
                start = low
            if end > high:
                end = high
            if end > start:
                events.append((start, 1, chip))
                events.append((end, -1, chip))
        events.sort()
        depth: Dict[int, int] = defaultdict(int)
        busy = 0
        count = 0
        previous = low
        for time, delta, chip in events:
            busy += (count if count < MAX_IRLP else MAX_IRLP) * (time - previous)
            previous = time
            open_intervals = depth[chip] + delta
            depth[chip] = open_intervals
            if delta > 0:
                if open_intervals == 1:  # the chip turns busy
                    count += 1
            elif not open_intervals:  # the chip turns idle
                count -= 1
        value = busy / (high - low)
        self._irlp_cache = (stamp, value)
        return value


class IrlpRecorder:
    """A controller's write windows, each folded into its IRLP value and
    service span once final (``MainMemory.irlp_summary`` averages the
    values, :meth:`drain_busy_ticks` unions the spans).

    Windows fold in creation order: a final window waits behind an older
    one that is not, so :meth:`values` keeps the order the IRLP mean
    sums in.  A window still pending when the run ends reads as it stands.
    """

    def __init__(self) -> None:
        #: IRLP of each folded window of positive duration.
        self._values = array("d")
        #: ``start, busy_end`` of each folded window with busy time.
        self._spans = array("q")
        #: Windows opened and not folded yet, oldest first.
        self._pending: Deque[WriteWindow] = deque()
        #: The last four windows opened, final or not, newest last (what
        #: the ``irlp.recent`` probe reads).
        self.recent: Deque[WriteWindow] = deque(maxlen=4)

    def open_window(self, start: int, end: int) -> WriteWindow:
        """A new window, held by the controller's open set."""
        window = WriteWindow(start, end)
        self._pending.append(window)
        self.recent.append(window)
        return window

    def hold(self, window: WriteWindow) -> None:
        """A deferred step will still change ``window``."""
        window.holds += 1

    def release(self, window: WriteWindow) -> None:
        """Drop one hold on ``window``; fold the final windows it frees."""
        window.holds -= 1
        pending = self._pending
        while pending and not pending[0].holds:
            head = pending.popleft()
            start = head.start
            if head.end > start:
                self._values.append(head.irlp())
            busy_end = head.busy_end
            if busy_end > start:
                self._spans.extend((start, busy_end))

    def values(self) -> List[float]:
        """IRLP of every window of positive duration, in creation order."""
        folded = self._values.tolist()
        folded.extend(w.irlp() for w in self._pending if w.end > w.start)
        return folded

    def spans(self) -> List[Tuple[int, int]]:
        """``(start, busy_end)`` of every window with busy time."""
        flat = self._spans
        spans = list(zip(flat[::2], flat[1::2]))
        spans.extend(
            (w.start, w.busy_end) for w in self._pending if w.busy_end > w.start
        )
        return spans

    def drain_busy_ticks(self) -> int:
        """Union duration of all write service spans (incl. ECC/PCC tails)."""
        return sum(end - start for start, end in merge_intervals(self.spans()))


#: Registry name pattern of the per-chip PCM word-write counters.
_CHIP_WORD_WRITES = re.compile(r"chip(\d+)\.word_writes")


@dataclass
class MemoryStats:
    """Memory-wide counters of one run, read from its metrics registry at
    collect time (:meth:`from_registry`); :meth:`merge` sums runs."""

    reads_completed: int = 0
    #: Writes accepted into a write queue (``requests.write.enqueued``).
    #: The registry's ``writes.completed`` counts array completions
    #: instead; the field keeps its name so results JSON does not change.
    writes_completed: int = 0
    read_latency_ticks: int = 0          #: sum of arrival->completion
    read_latency_max: int = 0
    reads_delayed_by_write: int = 0
    forwarded_reads: int = 0             #: reads served from the write queue
    row_buffer_hits: int = 0             #: reads served from an open row
    row_buffer_misses: int = 0           #: reads that had to activate
    row_reads: int = 0                   #: reads served via RoW reconstruction
    row_normal_overlap_reads: int = 0    #: reads overlapped without reconstruction
    wow_member_writes: int = 0           #: writes consolidated into groups
    wow_groups: int = 0                  #: groups with >= 2 members
    silent_writes: int = 0               #: zero-dirty-word write-backs
    rollbacks: int = 0                   #: RoW verifications that failed
    verify_count: int = 0                #: deferred verifications performed
    dirty_word_histogram: List[int] = field(default_factory=lambda: [0] * 9)
    drain_entries: int = 0               #: number of drain episodes
    #: PCM word writes per physical chip (data words and ECC/PCC updates)
    #: — wear balance; rotation spreads these (paper §IV-C2).  Keys run in
    #: ascending chip order; unwritten chips are absent.
    chip_word_writes: Dict[int, int] = field(default_factory=dict)

    @classmethod
    def from_registry(cls, metrics: "MetricsRegistry") -> "MemoryStats":
        """One run's counts, read from its registry (absent ones read 0)."""
        value = metrics.value
        latency = metrics.get("read.latency_ns")
        dirty = metrics.get("writes.dirty_words")
        histogram = list(dirty.counts[:9]) if dirty is not None else [0] * 9
        chips = sorted(
            (int(m.group(1)), value(m.group(0)))
            for m in map(_CHIP_WORD_WRITES.fullmatch, metrics.names()) if m
        )
        return cls(
            reads_completed=value("reads.completed"),
            writes_completed=value("requests.write.enqueued"),
            read_latency_ticks=value("read.latency_ticks"),
            read_latency_max=ns_to_ticks(getattr(latency, "max_seen", 0) or 0),
            reads_delayed_by_write=value("reads.delayed_by_write"),
            forwarded_reads=value("reads.forwarded"),
            row_buffer_hits=value("row_buffer.hits"),
            row_buffer_misses=value("row_buffer.misses"),
            row_reads=value("row.reads"),
            row_normal_overlap_reads=value("row.overlap_reads"),
            wow_member_writes=value("wow.member_writes"),
            wow_groups=value("wow.groups"),
            silent_writes=histogram[0],
            rollbacks=value("rollbacks"),
            verify_count=value("verifications"),
            dirty_word_histogram=histogram,
            drain_entries=value("drain.entries"),
            chip_word_writes={chip: count for chip, count in chips if count},
        )

    # ------------------------------------------------------------------
    def chip_write_imbalance(self) -> float:
        """Coefficient of variation of per-chip word writes (0 = even).

        The squared deviations are added left to right, in chip order:
        ``sum`` compensates floats on CPython 3.12 and would round
        differently there than on 3.10 and 3.11.
        """
        counts = list(self.chip_word_writes.values())
        if len(counts) < 2:
            return 0.0
        mean = sum(counts) / len(counts)
        if mean == 0:
            return 0.0
        squares = 0.0
        for count in counts:
            squares += (count - mean) ** 2
        return (squares / len(counts)) ** 0.5 / mean

    # ------------------------------------------------------------------
    @property
    def row_buffer_hit_rate(self) -> float:
        total = self.row_buffer_hits + self.row_buffer_misses
        if not total:
            return 0.0
        return self.row_buffer_hits / total

    @property
    def mean_read_latency_ticks(self) -> float:
        if not self.reads_completed:
            return 0.0
        return self.read_latency_ticks / self.reads_completed

    @property
    def mean_read_latency_ns(self) -> float:
        return ticks_to_ns(int(self.mean_read_latency_ticks))

    @property
    def delayed_read_fraction(self) -> float:
        if not self.reads_completed:
            return 0.0
        return self.reads_delayed_by_write / self.reads_completed

    @property
    def mean_dirty_words(self) -> float:
        total = sum(self.dirty_word_histogram)
        if not total:
            return 0.0
        return (
            sum(i * n for i, n in enumerate(self.dirty_word_histogram)) / total
        )

    # ------------------------------------------------------------------
    def merge(self, other: "MemoryStats") -> None:
        """Accumulate another run's counters into this one."""
        self.reads_completed += other.reads_completed
        self.writes_completed += other.writes_completed
        self.read_latency_ticks += other.read_latency_ticks
        self.read_latency_max = max(self.read_latency_max, other.read_latency_max)
        self.reads_delayed_by_write += other.reads_delayed_by_write
        self.forwarded_reads += other.forwarded_reads
        self.row_buffer_hits += other.row_buffer_hits
        self.row_buffer_misses += other.row_buffer_misses
        self.row_reads += other.row_reads
        self.row_normal_overlap_reads += other.row_normal_overlap_reads
        self.wow_member_writes += other.wow_member_writes
        self.wow_groups += other.wow_groups
        self.silent_writes += other.silent_writes
        self.rollbacks += other.rollbacks
        self.verify_count += other.verify_count
        self.drain_entries += other.drain_entries
        for i, count in enumerate(other.dirty_word_histogram):
            self.dirty_word_histogram[i] += count
        for chip, count in other.chip_word_writes.items():
            self.chip_word_writes[chip] = (
                self.chip_word_writes.get(chip, 0) + count
            )


@dataclass
class SimulationResult:
    """Everything a benchmark needs from one simulation run."""

    system_name: str
    workload_name: str
    sim_ticks: int
    instructions: int
    cpu_cycles: int
    memory: MemoryStats
    irlp_average: float
    irlp_max: float
    write_service_busy_ticks: int
    #: RNG seed the run used (-1 when unknown, e.g. hand-built results);
    #: echoed into persisted result files for attributability.
    seed: int = -1
    #: Engine profile (events dispatched, wall seconds); populated by
    #: :class:`repro.sim.simulator.SystemSimulator`, never persisted.
    profile: Optional["RunProfile"] = None
    #: JSON-safe :meth:`MetricsRegistry.as_dict` dump, embedded when the
    #: run was launched with ``collect_metrics=True``; ``None`` otherwise.
    metrics: Optional[dict] = None
    #: JSON-safe :meth:`TimeSeries.as_dict` dump, embedded when the run
    #: sampled (``sample_every_ticks`` set); ``None`` otherwise.
    timeseries: Optional[dict] = None
    #: JSON-safe :meth:`DramCacheFrontEnd.summary` dump (hit/miss/fill/
    #: write-back counters and tier config), embedded when the run was
    #: launched with a simulated front end; ``None`` on the direct path.
    frontend: Optional[dict] = None

    @property
    def ipc(self) -> float:
        """Aggregate instructions per CPU cycle across all cores."""
        if not self.cpu_cycles:
            return 0.0
        return self.instructions / self.cpu_cycles

    @property
    def write_throughput(self) -> float:
        """Writes completed per microsecond of write-service busy time."""
        busy_ns = ticks_to_ns(self.write_service_busy_ticks)
        if busy_ns <= 0:
            return 0.0
        return self.memory.writes_completed / (busy_ns / 1000.0)

    @property
    def mean_read_latency_ns(self) -> float:
        return self.memory.mean_read_latency_ns
