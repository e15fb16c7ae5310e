"""Replacement policies for the set-associative caches.

The policy decides which resident line of a full set to evict, the way
the memory controllers' scheduler policies are chosen by name via
``systems.build_policies``.  Three policies ship, keyed by name in
:data:`REPLACEMENT_POLICIES`:

* ``lru``   — least-recently-used (victim = minimum ``last_use`` stamp).
* ``clock`` — second-chance/CLOCK: one reference bit per line, a per-set
  hand sweeps residency order and clears bits until it finds a line
  whose bit is already clear.
* ``mac``   — a MAC-style multilevel policy (after the multilevel access
  counter caches of arXiv 1606.03248): each line carries a small access
  level, hits promote it, and the victim is the lowest-level line with
  LRU as the tie-break.  When every resident line has been promoted the
  levels are renormalised, so the counters adapt instead of saturating.

Each policy works on :class:`~repro.cache.set_assoc.ArraySetCache`'s
flat columns: per-line state lives in its ``policy`` column (the CLOCK
reference bit or the MAC level) and the per-set CLOCK hands in its
``hands`` column.  :meth:`victim` walks ``[base, base + count)`` of the
set's residency-ordered slab and returns the victim's way.  All three
are deterministic — no hash-order iteration, no RNG — so traces stay
byte-identical across ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cache.config import REPLACEMENT_POLICY_NAMES

#: Per-hit state transitions the cache inlines (no method call on the
#: hit path): 0 — none (LRU), 1 — set the reference bit (CLOCK),
#: 2 — saturating level increment up to ``MAC_LEVELS - 1`` (MAC).
HIT_NONE, HIT_CLOCK, HIT_MAC = 0, 1, 2

#: MAC access levels per line (0..MAC_LEVELS-1).
MAC_LEVELS = 4


class LruReplacement:
    """Least-recently-used: the first way with the minimal ``last_use``."""

    name = "lru"
    hit_code = HIT_NONE
    fill_state = 0

    @staticmethod
    def victim(last_use, policy, hands, set_index, base, count) -> int:
        best = base
        best_use = last_use[base]
        for i in range(base + 1, base + count):
            if last_use[i] < best_use:
                best_use = last_use[i]
                best = i
        return best - base


class ClockReplacement:
    """Second-chance (CLOCK): a per-set hand sweeps reference bits.

    The reference bit is set on fill and on hit.  The hand walks the
    set's residency order, clearing set bits; the first line found with a
    clear bit is the victim.  Bounded: after one full sweep every bit is
    clear, so the walk terminates.  The stored hand is the raw way index
    and is not adjusted when the victim's removal shifts the residency
    order.
    """

    name = "clock"
    hit_code = HIT_CLOCK
    fill_state = 1

    @staticmethod
    def victim(last_use, policy, hands, set_index, base, count) -> int:
        hand = hands[set_index] % count
        for _ in range(2 * count):
            i = base + hand
            if not policy[i]:
                hands[set_index] = hand
                return hand
            policy[i] = 0
            hand = (hand + 1) % count
        # Unreachable (one sweep clears every bit); keep a safe fallback.
        return hand


class MacReplacement:
    """Multilevel access counters (MAC-style, arXiv 1606.03248).

    Lines fill at level 0 and each hit promotes one level, up to
    ``MAC_LEVELS - 1``.  The victim is the line with the lowest
    ``(level, last_use)`` pair: frequency first, then least-recent use.
    When the whole set has been promoted off level 0, every level is
    first shifted down by the set's minimum so the counters keep
    discriminating instead of pinning at the ceiling.
    """

    name = "mac"
    hit_code = HIT_MAC
    fill_state = 0

    @staticmethod
    def victim(last_use, policy, hands, set_index, base, count) -> int:
        end = base + count
        floor = min(policy[base:end])
        if floor > 0:
            for i in range(base, end):
                policy[i] -= floor
        best = base
        best_level = policy[base]
        best_use = last_use[base]
        for i in range(base + 1, end):
            level = policy[i]
            if level < best_level or (
                level == best_level and last_use[i] < best_use
            ):
                best_level = level
                best_use = last_use[i]
                best = i
        return best - base


#: name -> policy class, keyed by
#: :data:`~repro.cache.config.REPLACEMENT_POLICY_NAMES` in its order,
#: mirroring how ``systems.build_policies`` maps feature flags to
#: scheduler-policy chains.
REPLACEMENT_POLICIES: Dict[str, type] = dict(
    zip(REPLACEMENT_POLICY_NAMES, (LruReplacement, ClockReplacement, MacReplacement))
)


def make_replacement_policy(name: Optional[str]):
    """The policy registered under ``name`` (``None`` means LRU)."""
    if name is None:
        return LruReplacement()
    if name not in REPLACEMENT_POLICIES:
        raise ValueError(
            f"unknown replacement policy {name!r}; "
            f"known: {sorted(REPLACEMENT_POLICIES)}"
        )
    return REPLACEMENT_POLICIES[name]()
