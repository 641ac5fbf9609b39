"""The logadd unit and its 512-byte SRAM lookup table (Figure 2).

The OP unit sums mixture components in the log domain:

    log(A + B) = log(A) + log(1 + B/A)          with B <= A

The correction term ``log(1 + B/A)`` lies in ``[0, log 2 = 0.693]``; the
hardware stores it in a small SRAM — 512 bytes, i.e. 256 entries of 16
bits, each a pure binary fraction ("16 bits binary value after the
decimal") — indexed by a few bits of ``log(B) - log(A)``.  The table is
filled at system start-up.

:class:`LogAddTable` models that SRAM bit-exactly: entry values are
quantized to 16 fractional bits, lookups count SRAM reads (for the
power model), and the difference axis is binned exactly as a hardware
indexer would.  :func:`logadd_exact` is the floating-point reference the
paper validated against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["LogAddTable", "logadd_exact", "LOG2", "LOG_ZERO", "LOG_DEAD"]

#: The log-domain "no path" sentinel — initialisation value of the
#: delta registers ("Max '-ve'", Figure 3); finite, so adding scores
#: never yields NaN.  The ONE definition: every module imports it.
LOG_ZERO = -1.0e30

#: Dead threshold: a score at or below this holds no path (a dead score
#: stays dead under any realistic run of additions, float32 or float64).
LOG_DEAD = LOG_ZERO / 2

#: Natural log of 2 — the maximum of the correction term.
LOG2 = float(np.log(2.0))

#: Past this difference the 16-bit correction underflows to zero:
#: log1p(exp(-d)) < 2**-17  <=>  d > 17 * ln 2 ~= 11.78.
_DEFAULT_MAX_DIFFERENCE = 12.0


def logadd_exact(log_a: np.ndarray | float, log_b: np.ndarray | float) -> np.ndarray:
    """Reference ``log(exp(log_a) + exp(log_b))`` in double precision."""
    return np.logaddexp(np.asarray(log_a, dtype=np.float64), np.asarray(log_b))


@dataclass
class LogAddTable:
    """SRAM-backed approximation of ``log(A+B)`` from ``log A, log B``.

    Parameters
    ----------
    num_entries:
        Table length.  The paper's 512-byte SRAM with 16-bit entries
        gives 256.
    value_bits:
        Fractional bits per stored entry (16 in the paper).  Entries
        are in ``[0, log 2)`` so no integer bits are needed.
    max_difference:
        Differences ``d = log A - log B`` at or beyond this value skip
        the table: the correction is below the representable resolution
        and the unit simply forwards ``log A``.
    """

    num_entries: int = 256
    value_bits: int = 16
    max_difference: float = _DEFAULT_MAX_DIFFERENCE
    _entries: np.ndarray = field(init=False, repr=False)
    _reads: int = field(default=0, init=False, repr=False)
    _fold_scratch: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.num_entries < 2:
            raise ValueError(f"num_entries must be >= 2, got {self.num_entries}")
        if not 1 <= self.value_bits <= 32:
            raise ValueError(f"value_bits must be in [1, 32], got {self.value_bits}")
        if self.max_difference <= 0:
            raise ValueError(
                f"max_difference must be positive, got {self.max_difference}"
            )
        self._entries = self._build_entries()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_entries(self) -> np.ndarray:
        """Fill the SRAM as the boot code would.

        Each bin stores the correction evaluated at the bin centre,
        rounded to ``value_bits`` fractional bits.  Bin centres minimise
        the worst-case error within a bin for this monotone curve.
        """
        centers = (np.arange(self.num_entries) + 0.5) * self.bin_width
        exact = np.log1p(np.exp(-centers))
        scale = 2.0**self.value_bits
        return np.rint(exact * scale) / scale

    @property
    def bin_width(self) -> float:
        """Width of one difference bin along ``d = log A - log B``."""
        return self.max_difference / self.num_entries

    @property
    def sram_bytes(self) -> int:
        """Size of the table SRAM (512 bytes in the paper)."""
        return self.num_entries * self.value_bits // 8

    @property
    def reads(self) -> int:
        """Number of SRAM lookups performed so far."""
        return self._reads

    def reset_reads(self) -> None:
        self._reads = 0

    # ------------------------------------------------------------------
    # Operation
    # ------------------------------------------------------------------
    def correction(self, difference: np.ndarray | float) -> np.ndarray:
        """Table lookup of ``log(1 + exp(-d))`` for ``d >= 0``.

        Differences beyond ``max_difference`` return 0.0 without an
        SRAM access, matching the hardware short-circuit.
        """
        d = np.asarray(difference, dtype=np.float64)
        if not np.all(d >= 0):
            raise ValueError("difference must be non-negative (operands swapped?), not NaN")
        return self._lookup(d.reshape(-1)).reshape(d.shape)

    def _lookup(self, d, fdiv=None, idx=None, vals=None, in_range=None):
        """The SRAM read behind :meth:`correction` and :meth:`logadd_fold`:
        bin each difference of the 1-D ``d >= 0``, read the in-range ones
        (counted) and return their corrections, 0.0 from
        ``max_difference`` on.  The buffers, all ``d``-long, are the
        fold's scratch; left ``None`` they are allocated.
        """
        # Clamp BEFORE the int cast: past int64 the cast wraps to INT64_MIN.
        fdiv = np.minimum(
            np.divide(d, self.bin_width, out=fdiv), self.num_entries - 1, out=fdiv
        )
        idx = np.empty(d.shape, np.int64) if idx is None else idx
        np.copyto(idx, fdiv, casting="unsafe")  # truncation, as astype
        in_range = np.less(d, self.max_difference, out=in_range)
        self._reads += int(np.count_nonzero(in_range))
        # 0 <= idx <= top: "clip" only skips "raise"'s buffer copy.
        vals = np.take(self._entries, idx, out=vals, mode="clip")
        return np.multiply(vals, in_range, out=vals)  # entries >= 0: 0.0 out of range

    def logadd(
        self, log_a: np.ndarray | float, log_b: np.ndarray | float
    ) -> np.ndarray:
        """Approximate ``log(exp(log_a) + exp(log_b))`` via the SRAM.

        Operands are ordered internally so the correction argument is
        non-negative (the comparator before the logadd path in
        Figure 2).  ``-inf`` operands (true zero probability) are
        handled by forwarding the other operand unchanged.
        """
        a = np.asarray(log_a, dtype=np.float64)
        b = np.asarray(log_b, dtype=np.float64)
        hi = np.maximum(a, b)
        lo = np.minimum(a, b)
        both_inf = np.isneginf(hi)
        lo_inf = np.isneginf(lo)
        # Difference is only meaningful when the smaller operand is finite.
        with np.errstate(invalid="ignore"):
            raw_diff = hi - lo
        diff = np.where(lo_inf, self.max_difference, raw_diff)
        result = hi + self.correction(diff)
        result = np.where(lo_inf, hi, result)
        return np.where(both_inf, -np.inf, result)

    def _scratch(self, n: int) -> dict[str, np.ndarray]:
        """``n``-long views of the fold buffers, grown geometrically on demand."""
        cap = self._fold_scratch["hi"].size if self._fold_scratch else 0
        if cap < n:
            cap = max(n, 2 * cap)
            floats = ("hi", "lo", "diff", "res", "fdiv", "vals")
            self._fold_scratch = {name: np.empty(cap) for name in floats}
            for name in ("lo_inf", "both_inf", "in_range"):
                self._fold_scratch[name] = np.empty(cap, dtype=bool)
            self._fold_scratch["idx"] = np.empty(cap, dtype=np.int64)
        return {name: buf[:n] for name, buf in self._fold_scratch.items()}

    def logadd_fold(self, log_values: np.ndarray) -> np.ndarray:
        """Serial :meth:`logadd` fold over axis 1 of a ``(n, M)`` block.

        Performs the mixture accumulation for ``n`` senones at once:
        column 0 seeds the accumulator and columns ``1..M-1`` fold in
        left to right, exactly as the OP unit's logadd stage consumes
        FMA results — the fold order, the SRAM binning and the read
        count are bit-identical to ``M-1`` sequential :meth:`logadd`
        calls.  All intermediates live in preallocated scratch, so the
        decoder's per-frame cost is one table-indexed reduction with no
        temporaries.  Every value must be below ``+inf`` (``-inf`` is log
        zero): a NaN or ``+inf`` has no table index, and the block is
        refused with ``ValueError``.
        """
        values = np.asarray(log_values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] < 1:
            raise ValueError(
                f"logadd_fold needs a (n, M>=1) block, got shape {values.shape}"
            )
        n, m = values.shape
        if n and not values.max() < np.inf:
            raise ValueError("logadd_fold needs log values below +inf, got NaN or +inf")
        acc = values[:, 0].copy()
        if m == 1 or n == 0:
            return acc
        s = self._scratch(n)
        hi, lo, diff, res = s["hi"], s["lo"], s["diff"], s["res"]
        lo_inf, both_inf = s["lo_inf"], s["both_inf"]
        lookup = {name: s[name] for name in ("fdiv", "idx", "vals", "in_range")}
        for k in range(1, m):
            col = values[:, k]
            np.maximum(acc, col, out=hi)
            np.minimum(acc, col, out=lo)
            np.isneginf(hi, out=both_inf)
            np.isneginf(lo, out=lo_inf)
            with np.errstate(invalid="ignore"):
                np.subtract(hi, lo, out=diff)
            diff[lo_inf] = self.max_difference
            np.add(hi, self._lookup(diff, **lookup), out=res)
            np.copyto(res, hi, where=lo_inf)
            res[both_inf] = -np.inf
            np.copyto(acc, res)
        return acc

    def logadd_many(self, log_values: np.ndarray) -> float:
        """Fold :meth:`logadd` over a 1-D array (mixture accumulation).

        The OP unit accumulates mixture components one at a time as
        they exit the FMA stage; this mirrors that serial order.
        """
        values = np.asarray(log_values, dtype=np.float64).ravel()
        if values.size == 0:
            raise ValueError("logadd_many needs at least one value")
        acc = float(values[0])
        for v in values[1:]:
            acc = float(self.logadd(acc, float(v)))
        return acc

    # ------------------------------------------------------------------
    # Accuracy characterisation
    # ------------------------------------------------------------------
    def max_error(self, samples: int = 20000) -> float:
        """Empirical worst-case absolute error of the correction term."""
        d = np.linspace(0.0, self.max_difference * 1.25, samples)
        reads_before = self._reads
        approx = self.correction(d)
        self._reads = reads_before  # characterisation should not count
        exact = np.log1p(np.exp(-d))
        return float(np.max(np.abs(approx - exact)))

    def theoretical_error_bound(self) -> float:
        """Half the max bin slope excursion plus value rounding.

        The correction's derivative magnitude is at most 1/2 (at d=0),
        so a centred bin contributes at most ``bin_width / 4``; the
        16-bit value rounding adds half an LSB.
        """
        return self.bin_width / 4.0 + 2.0 ** (-self.value_bits - 1)
