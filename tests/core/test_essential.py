"""Unit tests for essential-word detection."""

import random

import pytest

from repro.core.essential import EssentialWordDetector, diff_words
from repro.memory.request import WORDS_PER_LINE, make_read, make_write
from repro.memory.storage import MemoryStorage


def test_diff_words_basic():
    old = tuple(range(8))
    new = (0, 1, 99, 3, 4, 5, 6, 77)
    assert diff_words(old, new) == (1 << 2) | (1 << 7)


def test_diff_words_identical_is_zero():
    words = tuple(range(8))
    assert diff_words(words, words) == 0


def test_diff_words_length_checked():
    with pytest.raises(ValueError):
        diff_words((1, 2), (1, 2))


def test_detector_statistical_mode_trusts_mask():
    detector = EssentialWordDetector()
    req = make_write(1, 0, 0b101)
    assert detector.detect(req) == 0b101


def test_detector_rejects_reads():
    detector = EssentialWordDetector()
    with pytest.raises(ValueError):
        detector.detect(make_read(1, 0))


def test_detector_functional_mode_narrows_silent_words():
    storage = MemoryStorage()
    detector = EssentialWordDetector(storage)
    old = storage.read_line(0).words
    new = list(old)
    new[3] ^= 0xF
    # Cache claims words 3 and 5 dirty, but word 5 holds the same value:
    # a silent store the read-before-write eliminates (paper §III-B).
    req = make_write(1, 0, dirty_mask=0b101000, new_words=tuple(new))
    mask = detector.detect(req)
    assert mask == 0b1000
    assert req.old_words == old


def test_detector_functional_mode_full_compare_without_mask():
    storage = MemoryStorage()
    detector = EssentialWordDetector(storage)
    old = storage.read_line(1).words
    new = list(old)
    new[0] ^= 1
    new[7] ^= 1
    req = make_write(2, 64, dirty_mask=0, new_words=tuple(new))
    assert detector.detect(req) == 0b1000_0001


def test_diff_words_random_pairs_match_naive():
    rng = random.Random(1234)
    for _ in range(200):
        old = tuple(rng.getrandbits(64) for _ in range(WORDS_PER_LINE))
        new = tuple(
            word if rng.random() < 0.5 else rng.getrandbits(64)
            for word in old
        )
        expected = 0
        for i in range(WORDS_PER_LINE):
            if old[i] != new[i]:
                expected |= 1 << i
        assert diff_words(old, new) == expected
