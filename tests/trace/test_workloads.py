"""Unit tests for workload profiles (Table II / Figure 2 encodings)."""

import pytest

from repro.trace.workloads import (
    ALL_WORKLOADS,
    MULTI_PROGRAM,
    MULTI_THREADED,
    STREAM_KERNELS,
    FIGURE_MP_NAMES,
    FIGURE_MT_NAMES,
    FOOTNOTE3_AVERAGE,
    SPEC_SINGLES,
    TABLE4_NAMES,
    WorkloadKind,
    get_workload,
    workload_names,
)


def test_all_distributions_are_normalised():
    for workload in ALL_WORKLOADS:
        assert sum(workload.dirty_word_distribution) == pytest.approx(1.0)
        assert all(p >= 0 for p in workload.dirty_word_distribution)


def test_table2_mt_rates_encoded():
    expected = {
        "canneal": (15.19, 7.13),
        "dedup": (3.04, 2.072),
        "facesim": (6.66, 1.26),
        "fluidanimate": (5.54, 1.51),
        "freqmine": (0.78, 3.33),
        "streamcluster": (5.19, 2.13),
    }
    for name, (rpki, wpki) in expected.items():
        workload = get_workload(name)
        assert workload.rpki == pytest.approx(rpki)
        assert workload.wpki == pytest.approx(wpki)
        assert workload.kind is WorkloadKind.MULTI_THREADED


def test_table2_mp_rates_encoded():
    expected = {
        "MP1": (6.45, 3.11),
        "MP2": (2.68, 1.56),
        "MP3": (2.31, 1.08),
        "MP4": (8.05, 5.65),
        "MP5": (4.15, 2.60),
        "MP6": (5.09, 2.09),
    }
    for name, (rpki, wpki) in expected.items():
        workload = get_workload(name)
        assert workload.rpki == pytest.approx(rpki)
        assert workload.wpki == pytest.approx(wpki)
        assert workload.kind is WorkloadKind.MULTI_PROGRAM


def test_figure2_anchor_points():
    """omnetpp has the minimum 1-word fraction (14%), cactusADM the
    maximum (52%) — the endpoints the paper names explicitly."""
    fractions = {w.name: w.dirty_word_distribution[1] for w in SPEC_SINGLES}
    assert fractions["omnetpp"] == pytest.approx(0.14, abs=0.005)
    assert fractions["cactusADM"] == pytest.approx(0.52, abs=0.005)
    assert min(fractions.values()) == fractions["omnetpp"]
    assert max(fractions.values()) == fractions["cactusADM"]


def test_figure2_under4_range():
    """77-99% of write-backs have at most 4 dirty words — "less than 4
    words (50% of a cache line)" in the paper's phrasing (§I), which the
    footnote-3 averages show means i in 0..4."""
    paper_set = MULTI_THREADED + MULTI_PROGRAM + SPEC_SINGLES
    for workload in paper_set:
        up_to_half = sum(workload.dirty_word_distribution[:5])
        assert 0.76 <= up_to_half <= 0.995, workload.name


def test_table4_rollback_rates():
    assert get_workload("canneal").rollback_rate == pytest.approx(0.058)
    assert get_workload("facesim").rollback_rate == pytest.approx(0.041)
    assert get_workload("MP6").rollback_rate == pytest.approx(0.034)
    assert get_workload("ferret").rollback_rate == pytest.approx(0.022)
    # Everyone else uses the 1.3% default of §IV-B3.
    assert get_workload("MP1").rollback_rate == pytest.approx(0.013)


def test_mean_dirty_words_near_paper_average():
    """Baseline IRLP derives from these means; the paper's figure is 2.37."""
    paper_set = MULTI_THREADED + MULTI_PROGRAM + SPEC_SINGLES
    means = [w.mean_dirty_words for w in paper_set]
    average = sum(means) / len(means)
    assert 1.8 <= average <= 2.9


def test_stream_kernels_are_bulk_writers():
    """STREAM is the opposite extreme: sequential bulk stores dirty most
    of each line, so PCMap's word-level tricks have less to exploit."""
    assert len(STREAM_KERNELS) == 3
    for workload in STREAM_KERNELS:
        assert workload.mean_dirty_words > 4.5, workload.name
        assert workload.sequential_fraction >= 0.9


def test_offset_correlation_default():
    assert get_workload("MP1").offset_correlation == pytest.approx(0.32)


def test_figure_name_lists():
    assert len(FIGURE_MT_NAMES) == 6
    assert len(FIGURE_MP_NAMES) == 6
    assert set(TABLE4_NAMES) == {"canneal", "facesim", "MP6", "ferret"}
    for name in FIGURE_MT_NAMES + FIGURE_MP_NAMES + TABLE4_NAMES:
        get_workload(name)  # must resolve


def test_unknown_workload_rejected():
    with pytest.raises(ValueError):
        get_workload("doom")


def test_workload_names_filter():
    assert "canneal" in workload_names(WorkloadKind.MULTI_THREADED)
    assert "MP1" not in workload_names(WorkloadKind.MULTI_THREADED)
    assert len(workload_names()) == len(ALL_WORKLOADS)


def test_footnote3_average_normalised():
    assert sum(FOOTNOTE3_AVERAGE) == pytest.approx(1.0)


def test_derived_properties():
    workload = get_workload("canneal")
    assert workload.mpki == pytest.approx(15.19 + 7.13)
    assert workload.write_fraction == pytest.approx(7.13 / (15.19 + 7.13))
