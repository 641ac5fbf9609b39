"""Tests for ``benchmarks/fixed_point.py``, the Q-format arithmetic
``bench_fixed_point.py`` measures."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "fixed_point", ROOT / "benchmarks" / "fixed_point.py"
)
fixed_point = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = fixed_point  # its dataclasses resolve their module
_spec.loader.exec_module(fixed_point)
QFormat = fixed_point.QFormat


class TestQFormat:
    def test_range(self):
        q = QFormat(integer_bits=7, fraction_bits=8)
        assert q.min_value == -128.0
        assert q.max_value == 128.0 - 2.0**-8
        assert q.total_bits == 16

    def test_resolution(self):
        assert QFormat(3, 4).resolution == 0.0625

    def test_rejects_negative_bits(self):
        with pytest.raises(ValueError):
            QFormat(-1, 4)
        with pytest.raises(ValueError):
            QFormat(4, -1)

    def test_rejects_too_wide(self):
        with pytest.raises(ValueError):
            QFormat(40, 40)

    def test_quantize_rounds(self):
        q = QFormat(3, 2)  # resolution 0.25
        assert q.quantize(1.1) == 1.0
        assert q.quantize(1.13) == 1.25

    def test_saturates(self):
        q = QFormat(3, 2)
        assert q.quantize(100.0) == q.max_value
        assert q.quantize(-100.0) == q.min_value

    def test_stats(self):
        q = QFormat(3, 2)
        values = np.array([0.0, 100.0, -100.0, 0.01, 1.0])
        out, stats = q.quantize_with_stats(values)
        assert stats.saturated_high == 1
        assert stats.saturated_low == 1
        assert stats.flushed_to_zero == 1  # 0.01 -> 0
        assert stats.total == 5
        assert stats.saturation_rate == pytest.approx(0.4)
        assert out[4] == 1.0

    def test_representable(self):
        q = QFormat(3, 2)
        assert q.representable(1.25)
        assert not q.representable(1.1)
        assert not q.representable(1000.0)

    def test_empty_stats(self):
        q = QFormat(3, 2)
        _, stats = q.quantize_with_stats(np.array([]))
        assert stats.saturation_rate == 0.0
        assert stats.flush_rate == 0.0


class TestLogProbDynamicRange:
    """The paper's fixed-point argument (Section IV-B / R7)."""

    def test_narrow_format_saturates_log_probs(self):
        # Log observation probabilities span roughly [-1200, 0] for a
        # 39-dim mixture; a Q7.8 format (range +-128) must clip.
        rng = np.random.default_rng(0)
        log_probs = -np.abs(rng.normal(400, 300, size=1000))
        q = QFormat(7, 8)
        _, stats = q.quantize_with_stats(log_probs)
        assert stats.saturation_rate > 0.5

    def test_wide_format_does_not(self):
        rng = np.random.default_rng(0)
        log_probs = -np.abs(rng.normal(400, 300, size=1000))
        q = QFormat(15, 16)  # Q15.16: range +-32768
        _, stats = q.quantize_with_stats(log_probs)
        assert stats.saturation_rate == 0.0


@given(
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=20),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_property_quantize_error_bound(int_bits, frac_bits, value):
    q = QFormat(int_bits, frac_bits)
    out = float(q.quantize(value))
    if q.min_value <= value <= q.max_value:
        assert abs(out - value) <= q.resolution / 2 + 1e-12
    assert q.min_value <= out <= q.max_value
