"""Unit tests for the six evaluated system variants (paper §V)."""

import pytest

from repro.core.systems import (
    COMPARATOR_SYSTEM_NAMES,
    PCMAP_SYSTEM_NAMES,
    SYSTEM_NAMES,
    make_system,
)
from repro.memory.controller import MemoryController
from repro.sim.engine import Engine


def test_six_systems_defined():
    assert SYSTEM_NAMES == [
        "baseline", "row-nr", "wow-nr", "rwow-nr", "rwow-rd", "rwow-rde",
    ]
    assert PCMAP_SYSTEM_NAMES == SYSTEM_NAMES[1:]


def test_baseline_features():
    config = make_system("baseline")
    assert not config.fine_grained_writes
    assert not config.enable_row and not config.enable_wow
    assert not config.geometry.has_pcc_chip


@pytest.mark.parametrize("name", PCMAP_SYSTEM_NAMES)
def test_pcmap_variants_have_pcc_and_fine_writes(name):
    config = make_system(name)
    assert config.fine_grained_writes
    assert config.geometry.has_pcc_chip
    assert config.name == name


def test_feature_matrix():
    expectations = {
        "row-nr": (True, False, False, False),
        "wow-nr": (False, True, False, False),
        "rwow-nr": (True, True, False, False),
        "rwow-rd": (True, True, True, False),
        "rwow-rde": (True, True, True, True),
    }
    for name, (row, wow, rot_data, rot_ecc) in expectations.items():
        config = make_system(name)
        assert config.enable_row is row, name
        assert config.enable_wow is wow, name
        assert config.rotate_data is rot_data, name
        assert config.rotate_ecc is rot_ecc, name


def test_unknown_system_rejected():
    with pytest.raises(ValueError):
        make_system("turbo")


def test_overrides_forwarded():
    config = make_system("rwow-rde", wow_max_group=4)
    assert config.wow_max_group == 4


def test_name_override_via_factory():
    from repro.core.systems import make_rwow_rde

    config = make_rwow_rde(name="pcmap-full")
    assert config.name == "pcmap-full"


def test_comparator_systems_defined():
    assert COMPARATOR_SYSTEM_NAMES == ["write-pausing"]


EXPECTED_CHAINS = {
    "baseline": "coarse-drain",
    "row-nr": "silent-write -> row-window -> fine-write",
    "wow-nr": "silent-write -> wow-group",
    "rwow-nr": "silent-write -> row-window -> wow-group",
    "rwow-rd": "silent-write -> row-window -> wow-group",
    "rwow-rde": "silent-write -> row-window -> wow-group",
    "write-pausing": "write-pausing",
}


@pytest.mark.parametrize("name", sorted(EXPECTED_CHAINS))
def test_every_system_instantiates_through_the_policy_chain(name):
    controller = MemoryController(Engine(), make_system(name))
    assert controller.policies.describe() == EXPECTED_CHAINS[name]
