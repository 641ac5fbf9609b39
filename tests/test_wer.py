"""Tests for repro.eval.wer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.wer import ErrorCounts, align_words, corpus_wer

_WORDS = st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=8)


class TestAlignment:
    def test_perfect_match(self):
        counts = align_words(["a", "b", "c"], ["a", "b", "c"])
        assert counts.errors == 0
        assert counts.wer == 0.0

    def test_single_substitution(self):
        counts = align_words(["a", "b", "c"], ["a", "x", "c"])
        assert counts.substitutions == 1
        assert counts.errors == 1

    def test_single_deletion(self):
        counts = align_words(["a", "b", "c"], ["a", "c"])
        assert counts.deletions == 1

    def test_single_insertion(self):
        counts = align_words(["a", "c"], ["a", "b", "c"])
        assert counts.insertions == 1

    def test_empty_hypothesis(self):
        counts = align_words(["a", "b"], [])
        assert counts.deletions == 2
        assert counts.wer == 1.0

    def test_empty_reference(self):
        counts = align_words([], ["a"])
        assert counts.insertions == 1
        assert counts.wer == float("inf")

    def test_both_empty(self):
        assert align_words([], []).wer == 0.0

    def test_wer_can_exceed_one(self):
        counts = align_words(["a"], ["x", "y", "z"])
        assert counts.wer > 1.0

    def test_known_mixed_case(self):
        ref = "the cat sat on the mat".split()
        hyp = "the cat sit on mat quickly".split()
        counts = align_words(ref, hyp)
        # sit (sub), the deleted, quickly inserted.
        assert counts.errors == 3
        assert counts.wer == pytest.approx(0.5)


class TestErrorCounts:
    def test_addition(self):
        a = ErrorCounts(1, 2, 3, 10)
        b = ErrorCounts(0, 1, 0, 5)
        total = a + b
        assert total.errors == 7
        assert total.reference_length == 15

    def test_corpus_pooling(self):
        counts = corpus_wer([["a", "b"], ["c"]], [["a", "b"], ["x"]])
        assert counts.errors == 1
        assert counts.reference_length == 3

    def test_corpus_length_mismatch(self):
        with pytest.raises(ValueError):
            corpus_wer([["a"]], [])


@given(_WORDS, _WORDS)
@settings(max_examples=200, deadline=None)
def test_property_error_count_is_edit_distance(ref, hyp):
    """Errors equal the Levenshtein distance (unit costs)."""
    counts = align_words(ref, hyp)
    # Independent simple DP for the distance value.
    n, m = len(ref), len(hyp)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        dp[i][0] = i
    for j in range(m + 1):
        dp[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            dp[i][j] = min(
                dp[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]),
                dp[i - 1][j] + 1,
                dp[i][j - 1] + 1,
            )
    assert counts.errors == dp[n][m]


@given(_WORDS)
@settings(max_examples=100, deadline=None)
def test_property_zero_iff_equal(words):
    assert align_words(words, list(words)).errors == 0


@given(_WORDS, _WORDS, _WORDS)
@settings(max_examples=100, deadline=None)
def test_property_triangle_inequality(a, b, c):
    ab = align_words(a, b).errors
    bc = align_words(b, c).errors
    ac = align_words(a, c).errors
    assert ac <= ab + bc
