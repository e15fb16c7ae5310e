"""Unit tests for system configuration validation."""

import pytest

from repro.core.config import SystemConfig, pcmap_config
from repro.memory.address import BASELINE_GEOMETRY, PCMAP_GEOMETRY


def test_default_config_is_baseline():
    config = SystemConfig()
    assert config.name == "baseline"
    assert not config.fine_grained_writes
    assert config.geometry is not None


def test_row_requires_fine_grained_writes():
    with pytest.raises(ValueError):
        SystemConfig(enable_row=True, geometry=PCMAP_GEOMETRY)


def test_wow_requires_fine_grained_writes():
    with pytest.raises(ValueError):
        SystemConfig(enable_wow=True, geometry=PCMAP_GEOMETRY)


def test_row_requires_pcc_chip():
    with pytest.raises(ValueError):
        SystemConfig(
            enable_row=True,
            fine_grained_writes=True,
            geometry=BASELINE_GEOMETRY,
        )


def test_ecc_rotation_requires_pcc():
    with pytest.raises(ValueError):
        SystemConfig(
            fine_grained_writes=True,
            rotate_ecc=True,
            rotate_data=True,
            geometry=BASELINE_GEOMETRY,
        )


def test_ecc_rotation_implies_data_rotation():
    with pytest.raises(ValueError):
        pcmap_config(rotate_ecc=True, rotate_data=False)


def test_rollback_rate_bounds():
    with pytest.raises(ValueError):
        pcmap_config(enable_row=True, row_rollback_rate=1.5)


def test_with_rollback_rate_copies():
    config = pcmap_config(enable_row=True)
    updated = config.with_rollback_rate(0.058)
    assert updated.row_rollback_rate == 0.058
    assert config.row_rollback_rate == 0.0


def test_wow_group_and_row_word_bounds():
    with pytest.raises(ValueError):
        pcmap_config(wow_max_group=0)
    with pytest.raises(ValueError):
        pcmap_config(row_max_essential_words=0)


def test_describe_mentions_features():
    config = pcmap_config(
        name="rwow-rde",
        enable_row=True,
        enable_wow=True,
        rotate_data=True,
        rotate_ecc=True,
    )
    text = config.describe()
    assert "RoW" in text and "WoW" in text and "ECC" in text


def test_pcmap_config_defaults():
    config = pcmap_config()
    assert config.fine_grained_writes
    assert config.geometry.has_pcc_chip
