"""Configuration of the DRAM tier, apart from the tier itself.

:class:`~repro.sim.simulator.SimulationParams` carries a
:class:`FrontEndConfig` on every run, and its default is "no tier".  So
the config classes live here, importing no cache implementation: a run
without a tier never loads :mod:`repro.cache.frontend` or the
set-associative cache behind it.  Both classes are re-exported from
their historical homes (:mod:`repro.cache.dram_cache`,
:mod:`repro.cache.frontend`), where pickled sweep jobs still find them.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Recognised ``FrontEndConfig.kind`` values.
FRONT_END_KINDS = ("none", "dram")

#: Replacement policy names, in the order the CLI lists them.  The
#: policies themselves (:data:`repro.cache.replacement.REPLACEMENT_POLICIES`,
#: keyed by these names) load only with a tier.
REPLACEMENT_POLICY_NAMES = ("lru", "clock", "mac")


@dataclass(frozen=True)
class DramCacheConfig:
    """Table I parameters for the DRAM cache."""

    size_bytes: int = 256 * 1024 * 1024
    associativity: int = 8
    #: Hit latency in CPU cycles.  The timed front end
    #: (:class:`repro.cache.frontend.DramCacheFrontEnd`) schedules every
    #: tier hit ``access_cycles`` CPU cycles after submission; with the
    #: front end off (``front_end=none``) traces are post-LLC and the
    #: latency is folded into the core's base CPI instead (DESIGN.md §5).
    access_cycles: int = 100

    def __post_init__(self) -> None:
        if self.size_bytes < 64 * self.associativity:
            raise ValueError(
                "dram cache smaller than one set "
                f"({self.size_bytes} bytes, {self.associativity}-way)"
            )
        if self.size_bytes % (64 * self.associativity):
            raise ValueError(
                "dram cache size must be a multiple of line x associativity"
            )
        if self.access_cycles < 1:
            raise ValueError("dram cache access_cycles must be >= 1")


@dataclass(frozen=True)
class FrontEndConfig:
    """Configuration of the simulated memory front end.

    Frozen (and nested-frozen) so it participates in
    :class:`~repro.sim.simulator.SimulationParams` content hashing — the
    sweep runner's cache keys cover the tier configuration for free.
    """

    #: ``"none"`` — no tier, today's direct path, bit-for-bit.
    #: ``"dram"`` — the timed DRAM cache of :mod:`repro.cache.frontend`.
    kind: str = "none"
    dram: DramCacheConfig = DramCacheConfig()
    #: Replacement policy name (:mod:`repro.cache.replacement`).
    replacement: str = "lru"
    #: Miss-status-holding registers: concurrent outstanding line fills.
    mshrs: int = 16
    #: Tier-side write-back buffer entries (evictions waiting to enter a
    #: controller write queue).
    writeback_buffer: int = 16

    def __post_init__(self) -> None:
        if self.kind not in FRONT_END_KINDS:
            raise ValueError(
                f"unknown front-end kind {self.kind!r}; "
                f"expected one of {FRONT_END_KINDS}"
            )
        if self.replacement not in REPLACEMENT_POLICY_NAMES:
            raise ValueError(
                f"unknown replacement policy {self.replacement!r}; "
                f"known: {sorted(REPLACEMENT_POLICY_NAMES)}"
            )
        if self.mshrs < 1:
            raise ValueError("front end needs at least one MSHR")
        if self.writeback_buffer < 1:
            raise ValueError("front end needs at least one write-back slot")

    @property
    def enabled(self) -> bool:
        return self.kind != "none"

    @property
    def capacity_mb(self) -> float:
        """Tier capacity in MiB (the ``--frontend-mb`` sizing knob)."""
        return self.dram.size_bytes / (1024 * 1024)
