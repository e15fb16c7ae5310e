"""Named constructors for the six evaluated systems (paper §V).

1. ``baseline``  — read-over-write priority with an 80 % write-drain
   watermark; coarse (whole-rank) writes; 9-chip ECC DIMM.
2. ``row-nr``    — RoW only; fixed layout.
3. ``wow-nr``    — WoW only; fixed layout.
4. ``rwow-nr``   — RoW + WoW; fixed layout.
5. ``rwow-rd``   — RoW + WoW; data-word rotation.
6. ``rwow-rde``  — RoW + WoW; data and ECC/PCC rotation (full PCMap).

All PCMap variants use the 10-chip geometry (8 data + ECC + PCC) because
RoW's reconstruction requires the PCC chip; ``wow-nr`` keeps the PCC chip
too so the five PCMap variants differ only in policy, matching the paper's
controlled comparison.

One prior-art comparator rides along (``COMPARATOR_SYSTEM_NAMES``):
``write-pausing`` (Qureshi et al., the paper's [11]).

Every system — paper variants and comparators alike — instantiates
through the same scheduler-policy chain: :func:`build_policies` maps a
config's feature flags to an ordered list of
:class:`~repro.memory.policy.SchedulerPolicy` objects, which is the
§IV-D2 dispatch order expressed as data instead of an if/elif ladder.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.cache.config import FRONT_END_KINDS, DramCacheConfig, FrontEndConfig
from repro.core.config import SystemConfig, pcmap_config

if TYPE_CHECKING:
    from repro.memory.policy import SchedulerPolicy

SYSTEM_NAMES: List[str] = [
    "baseline",
    "row-nr",
    "wow-nr",
    "rwow-nr",
    "rwow-rd",
    "rwow-rde",
]

#: The five systems the figures compare against the baseline.
PCMAP_SYSTEM_NAMES: List[str] = SYSTEM_NAMES[1:]

#: Prior-art comparator systems (not part of the paper's six).
COMPARATOR_SYSTEM_NAMES: List[str] = ["write-pausing"]


def make_baseline(**overrides) -> SystemConfig:
    overrides.setdefault("name", "baseline")
    return SystemConfig(**overrides)


def make_write_pausing(**overrides) -> SystemConfig:
    """Prior-art comparator: baseline + read-preempts-write (paper [11])."""
    overrides.setdefault("name", "write-pausing")
    return SystemConfig(enable_write_pausing=True, **overrides)


def make_row_nr(**overrides) -> SystemConfig:
    overrides.setdefault("name", "row-nr")
    return pcmap_config(enable_row=True, **overrides)


def make_wow_nr(**overrides) -> SystemConfig:
    overrides.setdefault("name", "wow-nr")
    return pcmap_config(enable_wow=True, **overrides)


def make_rwow_nr(**overrides) -> SystemConfig:
    overrides.setdefault("name", "rwow-nr")
    return pcmap_config(enable_row=True, enable_wow=True, **overrides)


def make_rwow_rd(**overrides) -> SystemConfig:
    overrides.setdefault("name", "rwow-rd")
    return pcmap_config(
        enable_row=True, enable_wow=True, rotate_data=True, **overrides
    )


def make_rwow_rde(**overrides) -> SystemConfig:
    overrides.setdefault("name", "rwow-rde")
    return pcmap_config(
        enable_row=True,
        enable_wow=True,
        rotate_data=True,
        rotate_ecc=True,
        **overrides,
    )


_FACTORIES: Dict[str, Callable[..., SystemConfig]] = {
    "baseline": make_baseline,
    "write-pausing": make_write_pausing,
    "row-nr": make_row_nr,
    "wow-nr": make_wow_nr,
    "rwow-nr": make_rwow_nr,
    "rwow-rd": make_rwow_rd,
    "rwow-rde": make_rwow_rde,
}


def make_system(name: str, **overrides) -> SystemConfig:
    """Build one of the six evaluated systems by name.

    Keyword overrides are forwarded to the config (e.g. ``timing=...``
    for the Table III latency-ratio sweep).
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown system {name!r}; expected one of {SYSTEM_NAMES}"
        ) from None
    return factory(**overrides)


# ======================================================================
# Front-end (cache tier) composition
# ======================================================================
#: Front-end kinds the CLI and sweeps accept (mirrors the cache layer's
#: :data:`~repro.cache.config.FRONT_END_KINDS` the way ``SYSTEM_NAMES``
#: mirrors ``_FACTORIES``).
FRONT_END_NAMES: List[str] = list(FRONT_END_KINDS)


def make_front_end(
    kind: str = "none", replacement: str = "lru",
    capacity_mb: Optional[float] = None, **overrides
) -> FrontEndConfig:
    """Build a front-end config by kind name.

    ``kind="none"`` is the historical direct-to-PCM path (nothing is
    constructed at run time); ``kind="dram"`` is the Table I 256 MB
    DRAM cache as a timed tier.  ``replacement`` selects the eviction
    policy plugin (:data:`~repro.cache.replacement.REPLACEMENT_POLICIES`).
    ``capacity_mb`` is the sizing knob behind ``--frontend-mb``: it
    derives ``size_bytes`` (so paper-scale 256 MB tiers are one flag),
    and the set/way geometry is validated by
    :class:`~repro.cache.config.DramCacheConfig` — the size must
    yield at least one whole set of 64-byte lines.  Keyword overrides
    forward to :class:`FrontEndConfig` (``mshrs``, ``writeback_buffer``)
    or, via ``dram_overrides`` semantics below, to the
    embedded :class:`DramCacheConfig` (``size_bytes``,
    ``associativity``, ``access_cycles``).
    """
    if kind not in FRONT_END_NAMES:
        raise ValueError(
            f"unknown front end {kind!r}; expected one of {FRONT_END_NAMES}"
        )
    dram_fields = {"size_bytes", "associativity", "access_cycles"}
    dram_overrides = {
        key: overrides.pop(key) for key in list(overrides)
        if key in dram_fields
    }
    if capacity_mb is not None:
        if "size_bytes" in dram_overrides:
            raise ValueError(
                "pass either capacity_mb or size_bytes, not both"
            )
        size_bytes = int(capacity_mb * 1024 * 1024)
        if size_bytes <= 0 or size_bytes != capacity_mb * 1024 * 1024:
            raise ValueError(
                f"capacity_mb must be a positive whole number of KiB: "
                f"{capacity_mb!r}"
            )
        dram_overrides["size_bytes"] = size_bytes
    dram = DramCacheConfig(**dram_overrides)
    return FrontEndConfig(
        kind=kind, dram=dram, replacement=replacement, **overrides
    )


# ======================================================================
# Policy-chain composition
# ======================================================================
def build_policies(config: SystemConfig) -> List["SchedulerPolicy"]:
    """Map ``config``'s feature flags to an ordered scheduler-policy chain.

    The order *is* the §IV-D2 dispatch: silent write-backs first, then a
    RoW attempt (which declines loudly), then WoW grouping — which always
    claims the step, so a trailing plain-fine policy exists only when WoW
    is off.  The pausing comparator replaces the whole stack with a
    single coarse policy.
    """
    if config.enable_write_pausing:
        from repro.core.pausing import WritePausingPolicy

        return [WritePausingPolicy()]
    if not config.fine_grained_writes:
        from repro.memory.policy import CoarseWritePolicy

        return [CoarseWritePolicy()]

    from repro.core.fine import FineWritePolicy, SilentWritePolicy

    policies: List["SchedulerPolicy"] = [SilentWritePolicy()]
    if config.enable_row:
        from repro.core.row import ReadOverWritePolicy

        policies.append(ReadOverWritePolicy())
    if config.enable_wow:
        from repro.core.wow import WriteOverWritePolicy

        policies.append(WriteOverWritePolicy())
    else:
        policies.append(FineWritePolicy())
    return policies
