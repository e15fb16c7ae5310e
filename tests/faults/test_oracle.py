"""Golden memory and the differential oracle's detection power."""

import pytest

from repro.faults.models import FaultConfig
from repro.faults.oracle import DifferentialOracle, GoldenMemory
from repro.faults.storage import FaultInjectingStorage
from repro.memory.request import WORDS_PER_LINE
from repro.memory.storage import _cold_pattern

pytestmark = pytest.mark.faults

LINE = 23


class TestGoldenMemory:
    def test_cold_lines_match_storage_cold_pattern(self):
        golden = GoldenMemory()
        assert golden.read(LINE) == _cold_pattern(LINE)

    def test_commit_applies_only_masked_words(self):
        golden = GoldenMemory()
        cold = _cold_pattern(LINE)
        new = tuple(range(WORDS_PER_LINE))
        golden.commit(LINE, new, mask=0b101)
        words = golden.read(LINE)
        assert words[0] == new[0]
        assert words[2] == new[2]
        assert words[1] == cold[1]

    def test_empty_mask_is_a_no_op(self):
        golden = GoldenMemory()
        golden.commit(LINE, tuple(range(WORDS_PER_LINE)), mask=0)
        assert golden.commits == 0
        assert len(golden) == 0

    def test_fingerprint_order_independent(self):
        a, b = GoldenMemory(), GoldenMemory()
        w1 = tuple(range(WORDS_PER_LINE))
        w2 = tuple(range(8, 8 + WORDS_PER_LINE))
        a.commit(1, w1, 0xFF)
        a.commit(2, w2, 0xFF)
        b.commit(2, w2, 0xFF)
        b.commit(1, w1, 0xFF)
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_value_sensitive(self):
        a, b = GoldenMemory(), GoldenMemory()
        a.commit(1, tuple(range(WORDS_PER_LINE)), 0xFF)
        b.commit(1, tuple(range(1, 1 + WORDS_PER_LINE)), 0xFF)
        assert a.fingerprint() != b.fingerprint()


def wired_pair():
    oracle = DifferentialOracle()
    storage = FaultInjectingStorage(
        fault=FaultConfig.disabled(), oracle=oracle
    )
    oracle.attach(storage)
    return storage, oracle


class TestDifferentialOracle:
    def test_clean_run_is_clean(self):
        storage, oracle = wired_pair()
        storage.read_line(LINE)
        storage.write_line(LINE, tuple(range(WORDS_PER_LINE)), 0b11)
        storage.read_line(LINE)
        assert oracle.check_all(storage)
        assert oracle.ok
        assert not oracle.violations

    def test_tracked_faults_are_not_violations(self):
        storage, oracle = wired_pair()
        storage.corrupt_codeword(LINE, 3, (3, 5))  # uncorrectable, tracked
        storage._xor_pcc(LINE, 1 << 9)
        assert oracle.check_line(storage, LINE)
        assert oracle.ok

    def test_untracked_data_corruption_detected(self):
        storage, oracle = wired_pair()
        storage.read_line(LINE)
        storage.corrupt_bit(LINE, word=3, bit=17)  # bypasses the ledger
        assert not oracle.check_line(storage, LINE)
        assert not oracle.ok
        assert "word[3]" in str(oracle.violations[0])

    def test_missed_golden_commit_detected(self):
        # A write that reaches the array but not the golden model (or
        # vice versa) is exactly the silent-corruption signature.
        storage, oracle = wired_pair()
        storage.oracle = None  # sever the mirror: commit goes unmirrored
        storage.write_line(LINE, tuple(range(WORDS_PER_LINE)), 0xFF)
        assert not oracle.check_line(storage, LINE)

    def test_pcc_divergence_detected(self):
        storage, oracle = wired_pair()
        line = storage._materialise(LINE)
        from repro.memory.storage import StoredLine

        storage._lines[LINE] = StoredLine(
            line.words, line.checks, line.pcc ^ 1
        )  # raw pcc edit without a ledger entry
        assert not oracle.check_line(storage, LINE)
        assert any(v.slot == "pcc" for v in oracle.violations)

    def test_on_read_complete_checks_request_line(self):
        storage, oracle = wired_pair()

        class Req:
            line_address = LINE

        storage.read_line(LINE)
        oracle.on_read_complete(Req())
        assert oracle.reads_checked == 1
        assert oracle.ok

    def test_as_dict_shape(self):
        storage, oracle = wired_pair()
        storage.write_line(LINE, tuple(range(WORDS_PER_LINE)), 0xFF)
        oracle.check_all(storage)
        data = oracle.as_dict()
        assert data["violations"] == 0
        assert data["golden_commits"] == 1
        assert data["lines_checked"] >= 1
