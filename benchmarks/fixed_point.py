"""Signed fixed-point (Q-format) arithmetic with saturation.

Section IV-B of the paper argues that log-domain observation
probabilities "can vary from zero to very large negative value, which
may cause a problem for the systems using fixed point computation" —
its motivation for building the dedicated units around 32-bit floating
point instead of the fixed-point arithmetic common in embedded speech
software.

This module provides the fixed-point side of that comparison
(experiment R7, ``bench_fixed_point.py`` beside it, its only reader: no
mode of the engine runs fixed point): a
:class:`QFormat` describing ``Qm.n`` signed fixed point,
quantization with saturation, and the
saturation / underflow-to-zero statistics that show why narrow
fixed-point formats break down on log-probability dynamic ranges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QFormat", "FixedPointStats"]


@dataclass(frozen=True)
class FixedPointStats:
    """Outcome of quantizing an array into a Q-format."""

    total: int
    saturated_low: int
    saturated_high: int
    flushed_to_zero: int

    @property
    def saturation_rate(self) -> float:
        """Fraction of inputs clipped at either rail."""
        if self.total == 0:
            return 0.0
        return (self.saturated_low + self.saturated_high) / self.total

    @property
    def flush_rate(self) -> float:
        """Fraction of non-zero inputs that became exactly zero."""
        if self.total == 0:
            return 0.0
        return self.flushed_to_zero / self.total


@dataclass(frozen=True)
class QFormat:
    """Signed two's-complement ``Q(integer_bits).(fraction_bits)``.

    Total width is ``1 + integer_bits + fraction_bits`` (sign bit
    included).  Representable range is
    ``[-2**integer_bits, 2**integer_bits - 2**-fraction_bits]`` with a
    resolution of ``2**-fraction_bits``.
    """

    integer_bits: int
    fraction_bits: int

    def __post_init__(self) -> None:
        if self.integer_bits < 0:
            raise ValueError(f"integer_bits must be >= 0, got {self.integer_bits}")
        if self.fraction_bits < 0:
            raise ValueError(f"fraction_bits must be >= 0, got {self.fraction_bits}")
        if self.total_bits > 64:
            raise ValueError(f"total width {self.total_bits} exceeds 64 bits")

    @property
    def total_bits(self) -> int:
        return 1 + self.integer_bits + self.fraction_bits

    @property
    def min_value(self) -> float:
        return -float(2**self.integer_bits)

    @property
    def max_value(self) -> float:
        return float(2**self.integer_bits) - self.resolution

    @property
    def resolution(self) -> float:
        return float(2.0**-self.fraction_bits)

    def quantize(self, values: np.ndarray | float) -> np.ndarray:
        """Round to the grid and saturate at the rails."""
        arr = np.asarray(values, dtype=np.float64)
        scaled = np.rint(arr * 2.0**self.fraction_bits) * self.resolution
        return np.clip(scaled, self.min_value, self.max_value)

    def quantize_with_stats(
        self, values: np.ndarray | float
    ) -> tuple[np.ndarray, FixedPointStats]:
        """Quantize and report saturation / underflow counts."""
        arr = np.asarray(values, dtype=np.float64)
        out = self.quantize(arr)
        sat_low = int(np.count_nonzero(arr < self.min_value))
        sat_high = int(np.count_nonzero(arr > self.max_value))
        flushed = int(np.count_nonzero((out == 0.0) & (arr != 0.0)))
        stats = FixedPointStats(
            total=int(arr.size),
            saturated_low=sat_low,
            saturated_high=sat_high,
            flushed_to_zero=flushed,
        )
        return out, stats

    def representable(self, value: float) -> bool:
        """True if ``value`` lies on the grid within the range."""
        if not self.min_value <= value <= self.max_value:
            return False
        scaled = value * 2.0**self.fraction_bits
        return float(scaled) == float(int(round(scaled)))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Q{self.integer_bits}.{self.fraction_bits}"
