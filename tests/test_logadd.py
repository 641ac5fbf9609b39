"""Tests for repro.core.logadd — the 512-byte SRAM logadd unit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.logadd import LOG2, LOG_ZERO, LogAddTable, logadd_exact


class TestTableConstruction:
    def test_paper_sram_size(self):
        table = LogAddTable()
        assert table.num_entries == 256
        assert table.value_bits == 16
        assert table.sram_bytes == 512

    def test_entries_are_16bit_fractions(self):
        table = LogAddTable()
        scaled = table._entries * 2.0**16
        assert np.allclose(scaled, np.rint(scaled))
        assert np.all(table._entries >= 0.0)
        assert np.all(table._entries < LOG2 + 2.0**-16)

    def test_entries_monotone_decreasing(self):
        table = LogAddTable()
        assert np.all(np.diff(table._entries) <= 0)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            LogAddTable(num_entries=1)
        with pytest.raises(ValueError):
            LogAddTable(value_bits=0)
        with pytest.raises(ValueError):
            LogAddTable(max_difference=-1.0)


class TestCorrection:
    def test_zero_difference(self):
        table = LogAddTable()
        # d ~ 0 -> correction ~ log 2.
        assert float(table.correction(0.0)) == pytest.approx(LOG2, abs=0.03)

    def test_beyond_range_is_zero_without_read(self):
        table = LogAddTable()
        table.reset_reads()
        assert float(table.correction(50.0)) == 0.0
        assert table.reads == 0

    def test_reads_counted(self):
        table = LogAddTable()
        table.reset_reads()
        table.correction(np.array([0.5, 1.0, 100.0]))
        assert table.reads == 2

    def test_rejects_negative_difference(self):
        with pytest.raises(ValueError):
            LogAddTable().correction(-0.1)

    def test_rejects_nan_difference(self):
        with pytest.raises(ValueError, match="NaN"):
            LogAddTable().correction(np.array([0.5, np.nan]))

    @pytest.mark.parametrize("difference", [1e18, -LOG_ZERO, np.inf])
    def test_difference_past_int64_bins_is_zero_without_read(self, difference):
        """``d / bin_width`` past int64 is clamped to the last bin BEFORE
        the int cast: it never wraps to a negative table index."""
        table = LogAddTable()
        assert table.correction(difference).tolist() == 0.0
        assert table.correction(np.array([0.0, difference]))[1] == 0.0
        assert table.reads == 1

    def test_error_bound(self):
        table = LogAddTable()
        assert table.max_error() <= table.theoretical_error_bound()

    def test_finer_table_is_more_accurate(self):
        coarse = LogAddTable(num_entries=64)
        fine = LogAddTable(num_entries=1024)
        assert fine.max_error() < coarse.max_error()


class TestLogAdd:
    def test_matches_exact_within_bound(self):
        table = LogAddTable()
        rng = np.random.default_rng(0)
        a = rng.uniform(-50, 0, size=1000)
        b = rng.uniform(-50, 0, size=1000)
        approx = table.logadd(a, b)
        exact = logadd_exact(a, b)
        assert np.max(np.abs(approx - exact)) <= table.theoretical_error_bound()

    def test_commutative(self):
        table = LogAddTable()
        assert float(table.logadd(-3.0, -7.0)) == float(table.logadd(-7.0, -3.0))

    def test_result_at_least_max_operand(self):
        table = LogAddTable()
        rng = np.random.default_rng(1)
        a = rng.uniform(-100, 0, size=500)
        b = rng.uniform(-100, 0, size=500)
        out = table.logadd(a, b)
        assert np.all(out >= np.maximum(a, b))

    def test_neg_inf_identity(self):
        table = LogAddTable()
        assert float(table.logadd(-np.inf, -5.0)) == -5.0
        assert float(table.logadd(-5.0, -np.inf)) == -5.0

    def test_both_neg_inf(self):
        table = LogAddTable()
        assert np.isneginf(table.logadd(-np.inf, -np.inf))

    def test_logadd_many_vs_exact(self):
        table = LogAddTable()
        rng = np.random.default_rng(2)
        values = rng.uniform(-30, -1, size=8)
        approx = table.logadd_many(values)
        exact = float(np.log(np.exp(values).sum()))
        # Serial folding accumulates at most (n-1) table errors.
        assert abs(approx - exact) <= 7 * table.theoretical_error_bound()

    def test_logadd_many_single(self):
        table = LogAddTable()
        assert table.logadd_many(np.array([-4.2])) == -4.2

    def test_logadd_many_empty_raises(self):
        with pytest.raises(ValueError):
            LogAddTable().logadd_many(np.array([]))

    @pytest.mark.parametrize("column", [0, 1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_fold_refuses_a_nan_or_plus_inf_value(self, bad, column):
        """The fold's table index is only in range for values below
        +inf; ``-inf`` (log zero) is a value it must fold."""
        values = np.array([[-1.0, -2.0, -np.inf], [-3.0, -np.inf, -np.inf]])
        values[0, column] = bad
        with pytest.raises(ValueError, match="inf"):
            LogAddTable().logadd_fold(values)

    def test_fold_keeps_log_zero(self):
        values = np.array([[-np.inf, -np.inf, -np.inf], [-np.inf, -2.0, -np.inf]])
        folded = LogAddTable().logadd_fold(values)
        assert folded[0] == -np.inf and folded[1] == -2.0

    def test_fold_ignores_a_far_smaller_finite_value(self):
        """A difference past int64 once the table's bin width divides it
        (LOG_ZERO beside a score) adds nothing, like any difference past
        ``max_difference``."""
        values = np.array([[0.0, LOG_ZERO], [LOG_ZERO, -3.0], [-1e300, -1e300]])
        folded = LogAddTable().logadd_fold(values)
        assert folded.tolist() == [0.0, -3.0, -1e300]

    def test_log_zero_operand_forwards_the_other(self):
        table = LogAddTable()
        assert table.logadd(0.0, LOG_ZERO).tolist() == 0.0
        assert table.logadd(LOG_ZERO, -3.0).tolist() == -3.0
        assert table.logadd_many([-2.0, LOG_ZERO, -2.0]) == table.logadd_many([-2.0, -2.0])

    def test_fold_and_logadd_bin_alike(self):
        """One binning: the fold equals ``logadd_many`` row by row, read
        count included, at bin edges and centres, at ``max_difference``
        and past int64 bins."""
        bins = np.arange(LogAddTable().num_entries + 4)
        diffs = np.concatenate(
            [bins, bins + 0.5, bins + 1 - 1e-9]
        ) * LogAddTable().bin_width
        diffs = np.append(diffs, [12.0, 1e18, -LOG_ZERO])
        values = np.stack([np.full_like(diffs, -7.0), -7.0 - diffs], axis=1)
        fold, serial = LogAddTable(), LogAddTable()
        folded = fold.logadd_fold(values)
        assert folded.tolist() == [serial.logadd_many(row) for row in values]
        assert fold.reads == serial.reads > 0

    def test_fold_scratch_regrows_without_changing_results(self, rng):
        """Blocks of growing and shrinking height reuse and regrow the
        fold's buffers; each answer equals a fresh table's."""
        table, reads = LogAddTable(), 0
        for n in (3, 100, 3, 257):
            values = rng.normal(-20.0, 6.0, size=(n, 5))
            values[rng.random(values.shape) < 0.2] = LOG_ZERO
            fresh = LogAddTable()
            want = fresh.logadd_fold(values)
            assert table.logadd_fold(values).tolist() == want.tolist()
            reads += fresh.reads
        assert table.reads == reads > 0

    def test_vectorized_matches_scalar(self):
        table = LogAddTable()
        a = np.array([-1.0, -2.0, -3.0])
        b = np.array([-4.0, -0.5, -3.0])
        vec = table.logadd(a, b)
        for i in range(3):
            assert float(table.logadd(a[i], b[i])) == pytest.approx(float(vec[i]))


@given(
    st.floats(min_value=-80, max_value=0, allow_nan=False),
    st.floats(min_value=-80, max_value=0, allow_nan=False),
)
@settings(max_examples=300, deadline=None)
def test_property_logadd_bounds(log_a, log_b):
    """max(a,b) <= logadd(a,b) <= max(a,b) + log2 + eps."""
    table = LogAddTable()
    out = float(table.logadd(log_a, log_b))
    hi = max(log_a, log_b)
    assert hi <= out <= hi + LOG2 + table.theoretical_error_bound()


@given(st.lists(st.floats(min_value=-40, max_value=-1, allow_nan=False), min_size=2, max_size=12))
@settings(max_examples=100, deadline=None)
def test_property_logadd_many_close_to_exact(values):
    table = LogAddTable()
    approx = table.logadd_many(np.asarray(values))
    exact = float(np.log(np.sum(np.exp(values))))
    assert abs(approx - exact) <= len(values) * table.theoretical_error_bound()
