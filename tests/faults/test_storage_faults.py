"""FaultInjectingStorage: ledger invariant, scrub semantics, write drift."""

import pytest

from repro.ecc import hamming
from repro.faults.models import PCC_SLOT, FaultConfig
from repro.faults.storage import FaultInjectingStorage
from repro.memory.request import WORDS_PER_LINE
from repro.memory.storage import MemoryStorage
from repro.telemetry import Telemetry

pytestmark = pytest.mark.faults

LINE = 17


def make_storage(**kwargs) -> FaultInjectingStorage:
    kwargs.setdefault("fault", FaultConfig.disabled())
    return FaultInjectingStorage(**kwargs)


def assert_ledger_invariant(storage: FaultInjectingStorage, line: int) -> None:
    """raw == pristine ^ flip for every slot, with pristine self-consistent."""
    raw = storage.raw_line(line)
    for w in range(WORDS_PER_LINE):
        pristine = raw.words[w] ^ storage.data_flip(line, w)
        pristine_check = raw.checks[w] ^ storage.check_flip(line, w)
        # The pristine codeword must decode clean: the ledger tracks the
        # exact distance from what the SECDED byte was computed over.
        result = hamming.decode(pristine, pristine_check)
        assert result.status is hamming.DecodeStatus.CLEAN


class TestLedgerMutation:
    def test_corrupt_codeword_tracks_flips(self):
        storage = make_storage()
        before = storage.raw_line(LINE)
        storage.corrupt_codeword(LINE, 2, (3,))  # one data bit
        after = storage.raw_line(LINE)
        assert after.words[2] != before.words[2]
        assert storage.data_flip(LINE, 2) == after.words[2] ^ before.words[2]
        assert_ledger_invariant(storage, LINE)

    def test_xor_twice_clears_ledger(self):
        storage = make_storage()
        storage.corrupt_codeword(LINE, 2, (3,))
        storage.corrupt_codeword(LINE, 2, (3,))
        assert storage.data_flip(LINE, 2) == 0
        assert LINE not in storage._faulty_lines

    def test_pcc_flip_tracked(self):
        storage = make_storage()
        pristine_pcc = storage.raw_line(LINE).pcc
        storage._xor_pcc(LINE, 1 << 7)
        assert storage.raw_line(LINE).pcc == pristine_pcc ^ (1 << 7)
        assert storage.pcc_flip(LINE) == 1 << 7


class TestScrubOnRead:
    def test_single_data_bit_corrected(self):
        storage = make_storage()
        pristine = storage.raw_line(LINE).words[4]
        storage.corrupt_codeword(LINE, 4, (3,))
        line = storage.read_line(LINE)
        assert line.words[4] == pristine          # returned view corrected
        assert storage.data_flip(LINE, 4) == 0     # array scrubbed
        assert storage.counters.corrected == 1

    def test_single_check_bit_corrected(self):
        storage = make_storage()
        storage.corrupt_codeword(LINE, 4, (2,))   # a check-bit position
        storage.read_line(LINE)
        assert storage.check_flip(LINE, 4) == 0
        assert storage.counters.corrected == 1

    def test_double_error_detected_not_fixed(self):
        storage = make_storage()
        storage.corrupt_codeword(LINE, 1, (3, 5))
        line = storage.read_line(LINE)
        assert storage.counters.detected_uncorrectable == 1
        assert storage.counters.corrected == 0
        # Left raw: the flips persist (flagged, not silently dropped).
        assert storage.data_flip(LINE, 1) != 0
        assert line.words[1] == storage.raw_line(LINE).words[1]
        assert_ledger_invariant(storage, LINE)

    def test_double_error_counted_again_each_read(self):
        storage = make_storage()
        storage.corrupt_codeword(LINE, 1, (3, 5))
        storage.read_line(LINE)
        storage.read_line(LINE)
        assert storage.counters.detected_uncorrectable == 2

    def test_pcc_corruption_never_scrubbed(self):
        storage = make_storage()
        storage._xor_pcc(LINE, 1 << 11)
        storage.read_line(LINE)
        storage.read_line(LINE)
        assert storage.pcc_flip(LINE) == 1 << 11

    def test_metrics_registry_mirrors_outcomes(self):
        telemetry = Telemetry.disabled()
        storage = make_storage(telemetry=telemetry)
        storage.corrupt_codeword(LINE, 0, (3,))
        storage.read_line(LINE)
        assert telemetry.metrics.value("faults.outcome.corrected") == 1


class TestWritePath:
    def test_commit_clears_flips_and_migrates_to_pcc(self):
        storage = make_storage()
        storage.corrupt_codeword(LINE, 2, (3,))
        flip = storage.data_flip(LINE, 2)
        assert flip != 0
        new_words = tuple(w + 1 for w in storage.raw_line(LINE).words)
        storage.write_line(LINE, new_words, dirty_mask=1 << 2)
        # The base incremental update xor'd the *raw* old word into the
        # PCC, so the stale flip now lives there — tracked exactly.
        assert storage.data_flip(LINE, 2) == 0
        assert storage.pcc_flip(LINE) == flip
        assert_ledger_invariant(storage, LINE)

    def test_drift_cancels_when_flip_returns(self):
        storage = make_storage()
        storage.corrupt_codeword(LINE, 2, (3,))
        flip = storage.data_flip(LINE, 2)
        words = tuple(storage.raw_line(LINE).words)
        storage.write_line(LINE, tuple(w + 1 for w in words), dirty_mask=1 << 2)
        assert storage.pcc_flip(LINE) == flip
        # Plant the same flip again and overwrite again: drift xors out.
        storage._xor_data(LINE, 2, flip)
        storage.write_line(LINE, words, dirty_mask=1 << 2)
        assert storage.pcc_flip(LINE) == 0

    def test_uncommitted_words_keep_their_flips(self):
        storage = make_storage()
        storage.corrupt_codeword(LINE, 5, (3,))
        flip = storage.data_flip(LINE, 5)
        new_words = tuple(w ^ 0xFF for w in storage.raw_line(LINE).words)
        storage.write_line(LINE, new_words, dirty_mask=1 << 0)
        assert storage.data_flip(LINE, 5) == flip

    def test_write_fail_injection_counted_and_tracked(self):
        storage = make_storage(
            fault=FaultConfig(write_fail_rate=1.0), seed=3
        )
        new_words = tuple(range(100, 100 + WORDS_PER_LINE))
        storage.write_line(LINE, new_words, dirty_mask=0xFF)
        assert storage.counters.write_fail_injected >= WORDS_PER_LINE
        assert any(
            storage.data_flip(LINE, w) for w in range(WORDS_PER_LINE)
        )
        assert_ledger_invariant(storage, LINE)

    def test_oracle_commit_mirrored(self):
        commits = []

        class Spy:
            def on_commit(self, line, words, mask):
                commits.append((line, words, mask))

        storage = make_storage(oracle=Spy())
        new_words = tuple(range(WORDS_PER_LINE))
        storage.write_line(LINE, new_words, dirty_mask=0b11)
        assert commits == [(LINE, new_words, 0b11)]


class TestStuckCells:
    def test_activation_at_threshold(self):
        storage = make_storage(
            fault=FaultConfig(stuck_at_threshold=3, stuck_cells_per_line=2),
            seed=5,
        )
        words = tuple(range(WORDS_PER_LINE))
        for i in range(3):
            storage.write_line(LINE, tuple(w + i for w in words), dirty_mask=0xFF)
        assert storage.counters.stuck_lines_activated == 1
        assert len(storage.stuck_cells(LINE)) == 2

    def test_stuck_cells_reassert_after_scrub(self):
        storage = make_storage(
            fault=FaultConfig(stuck_at_threshold=1, stuck_cells_per_line=2),
            seed=5,
        )
        storage.write_line(LINE, tuple(range(WORDS_PER_LINE)), dirty_mask=0xFF)
        cells = storage.stuck_cells(LINE)
        assert cells
        for _ in range(3):
            storage.read_line(LINE)
            raw = storage.raw_line(LINE)
            for cell in cells:
                if cell.slot < WORDS_PER_LINE:
                    bit = (raw.words[cell.slot] >> cell.bit) & 1
                    assert bit == cell.value
                elif cell.slot == PCC_SLOT:
                    bit = (raw.pcc >> cell.bit) & 1
                    assert bit == cell.value
            assert_ledger_invariant(storage, LINE)

    def test_stuck_value_survives_overwrite(self):
        storage = make_storage(
            fault=FaultConfig(stuck_at_threshold=1, stuck_cells_per_line=3),
            seed=9,
        )
        storage.write_line(LINE, tuple(range(WORDS_PER_LINE)), dirty_mask=0xFF)
        cells = [c for c in storage.stuck_cells(LINE) if c.slot < WORDS_PER_LINE]
        storage.write_line(
            LINE, tuple(w ^ 0xFFFF for w in range(WORDS_PER_LINE)), dirty_mask=0xFF
        )
        raw = storage.raw_line(LINE)
        for cell in cells:
            assert ((raw.words[cell.slot] >> cell.bit) & 1) == cell.value


class TestZeroCostWhenOff:
    def test_disabled_matches_plain_storage(self):
        plain = MemoryStorage(keep_pcc=True)
        faulty = make_storage(fault=FaultConfig.disabled())
        words = tuple(range(10, 10 + WORDS_PER_LINE))
        for store in (plain, faulty):
            store.read_line(5)
            store.write_line(5, words, dirty_mask=0b101)
            store.read_line(5)
        for attr in ("words", "checks", "pcc"):
            assert getattr(plain.read_line(5), attr) == getattr(
                faulty.read_line(5), attr
            )
        assert faulty.counters.as_dict() == {
            key: 0 for key in faulty.counters.as_dict()
        }

    def test_disabled_never_injects_on_read(self):
        storage = make_storage(fault=FaultConfig.disabled())
        for _ in range(50):
            storage.read_line(LINE)
        assert storage.counters.read_disturb_injected == 0
        assert not storage._faulty_lines


class TestReadDisturb:
    def test_injection_lands_after_the_read(self):
        storage = make_storage(
            fault=FaultConfig(read_disturb_rate=1.0), seed=2
        )
        pristine = storage.raw_line(LINE)
        view = storage.read_line(LINE)
        # The triggering read returns the pre-disturb (clean) view...
        assert view.words == pristine.words
        assert view.pcc == pristine.pcc
        # ...but the array now carries exactly one new flipped bit.
        assert storage.counters.read_disturb_injected == 1
        assert LINE in storage._faulty_lines
        assert_ledger_invariant(storage, LINE)

    def test_disturb_then_reread_corrects_or_flags(self):
        storage = make_storage(
            fault=FaultConfig(read_disturb_rate=1.0), seed=2
        )
        for _ in range(40):
            storage.read_line(LINE)
            assert_ledger_invariant(storage, LINE)
        outcomes = storage.counters
        # Every single-bit disturb observed by a later read is corrected
        # (or was a PCC hit, which SECDED cannot see).
        assert outcomes.corrected > 0
        assert outcomes.silent == 0
