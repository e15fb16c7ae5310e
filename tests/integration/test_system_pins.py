"""Every paper system and comparator under a pinned run.

The reference run (canneal, seed 7, 3000 requests) of each name in
``SYSTEM_NAMES`` and ``COMPARATOR_SYSTEM_NAMES``, on the direct path and
behind a 0.25 MB DRAM tier, pinned by events, ticks and results digest.
The digest covers every persisted field of the result, so it pins
``irlp_average``, ``irlp_max`` and ``write_service_busy_ticks`` too: the
golden trace and the stats oracle pin only ``rwow-rde`` and ``baseline``.
The pins hold on CPython 3.10-3.12, because no simulated float is added
with ``sum()`` (compensated on 3.12).
"""

import pytest

from repro.core.systems import (
    COMPARATOR_SYSTEM_NAMES,
    SYSTEM_NAMES,
    make_front_end,
    make_system,
)
from repro.sim import results_io
from repro.sim.simulator import SimulationParams, SystemSimulator

#: (system, tier MB or None) -> (events, sim ticks, results digest).
PINNED = {
    ("baseline", None): (5886, 427191, "b6c5e5e91f1a68c3e343959386f00e90c4810bcc17962dd68219b0ae48d2dbe4"),
    ("row-nr", None): (7770, 429222, "e9ea26d1d70251cca6617d9bca4dd2ae5a5a0530d4c0c18bb45480a6d95b1a95"),
    ("wow-nr", None): (5849, 367264, "2483c0437149066fedb4fe22ba74ba781447d5f31ddd907661b68629ab89451e"),
    ("rwow-nr", None): (6474, 399832, "e48269b9fa6b457ae924bda4825c9be2977484ab78d0a76eaedde3cb548ce563"),
    ("rwow-rd", None): (6229, 378413, "af731f82ebf457c5d5173aab9707d048d223f82f9ef03d6cab77d87320f48d7c"),
    ("rwow-rde", None): (6150, 364931, "c5cde6113c4f31e42fc8d390bd9c845de793b18ea4ac07382f28e2a1a909ed77"),
    ("write-pausing", None): (8073, 413597, "cad45a693986e4cd815456984a12cfe63bdaff2450e2431f83ddca220f1989b8"),
    ("baseline", 0.25): (5900, 209609, "f50ea6b9a436f5e73d0f1a85a28b07c40672fba1c16bb42ad952f7e40af22efd"),
    ("row-nr", 0.25): (5900, 209609, "dde1998d5ba5dc2d2ff1e6191b9060f56a562b330c1bac46fd5235b2ef667f53"),
    ("wow-nr", 0.25): (5900, 209609, "757570f275b61b5b1afd8b16ed6277f2b914c711aa85f664c91ff024f746f4bc"),
    ("rwow-nr", 0.25): (5900, 209609, "b803db27bc01a2d62a1b14c7f7ab5bab27b085d0de9d43eb57d2885eafac805c"),
    ("rwow-rd", 0.25): (5901, 209609, "9cf55c9b0134c7b4649327fdf20e85fa0827b788432917e2ca6fc27599dd2262"),
    ("rwow-rde", 0.25): (5913, 213644, "d0a6c428ac3aafd6a7575b8dadbad7eadef4dca90ae10a96faa8e72716428ff5"),
    ("write-pausing", 0.25): (5926, 209068, "61e783a4a0cb8bf5e395aab8821bb49ceb4da8e750264eb1c486028be20034fd"),
}


@pytest.mark.parametrize("tier_mb", [None, 0.25], ids=["direct", "tier"])
@pytest.mark.parametrize("system_name", SYSTEM_NAMES + COMPARATOR_SYSTEM_NAMES)
def test_reference_run_is_pinned(system_name, tier_mb, monkeypatch):
    # The manifest names the checkout and the host; hold it fixed so the
    # digest covers only what the run computed.
    monkeypatch.setattr(results_io, "code_version", lambda: "pinned")
    monkeypatch.setattr(results_io, "run_manifest",
                        lambda seed=-1: {"seed": seed})
    extra = {}
    if tier_mb is not None:
        extra["front_end"] = make_front_end("dram", capacity_mb=tier_mb)
    result = SystemSimulator(
        make_system(system_name),
        "canneal",
        SimulationParams(target_requests=3000, seed=7, **extra),
    ).run()
    pinned = (
        result.profile.events_dispatched,
        result.sim_ticks,
        results_io.results_digest([result]),
    )
    assert pinned == PINNED[system_name, tier_mb]
