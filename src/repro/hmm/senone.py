"""The senone pool: tied HMM-state distributions (Hwang & Huang [2]).

"In absence of enough training data, the states of different triphones
are represented by the same distribution — these are called senones."

A :class:`SenonePool` stores every senone's mixture parameters in
dense senone-major arrays so a whole frame's scores vectorise, and
exports the flash-resident :class:`~repro.core.opunit.GaussianTable`
the OP unit streams.  The pool is the single source of truth for the
paper's memory arithmetic: 6000 senones x 8 components x (39 means +
39 variances + 1 weight) x 4 bytes = 15.168 MB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.opunit import GaussianTable, check_pair_indices
from repro.hmm.gaussian import (
    VARIANCE_FLOOR,
    log_normalizer,
    precision_halves,
)
from repro.hmm.gmm import GaussianMixture
from repro.quant.float_formats import IEEE_SINGLE, FloatFormat

__all__ = [
    "SenonePool",
    "BlasTables",
    "BLAS_PRECISIONS",
    "check_blas_precision",
]

#: Storage dtypes :meth:`SenonePool.blas_tables` can build, widest
#: first.  ``float64`` is the original exact-rounding backend;
#: ``float32`` halves table bandwidth (products run as sgemm).
BLAS_PRECISIONS = ("float64", "float32")


def check_blas_precision(precision: str) -> None:
    """Refuse a table precision outside :data:`BLAS_PRECISIONS` — the
    one spelling of that check, for everything that takes a precision."""
    if precision not in BLAS_PRECISIONS:
        supported = ", ".join(repr(p) for p in BLAS_PRECISIONS)
        raise ValueError(
            f"unknown blas precision {precision!r}; supported: {supported}"
        )


def _fold_components(items: np.ndarray) -> np.ndarray:
    """Log-sum-exp over the trailing mixture-component axis, in the
    items' own dtype — the fold of the matmul-form (blas) kernels only.

    Two components fold as ``max + log1p(exp(-|a - b|))`` in array
    passes, within a few ulp of ``np.logaddexp`` and several times
    faster.  The gap is clipped at -40: past it the smaller component
    adds < 5e-18 (under half an ulp of any score), and real mixtures
    sit there often enough to keep ``exp``/``log1p`` on their slow
    underflow paths.  An all-``-inf`` item has the gap ``-inf - -inf =
    nan``; every other fold is >= its peak, so ``fmax`` against the
    peak turns exactly that case back into ``-inf``.
    """
    if items.shape[-1] != 2:
        return np.logaddexp.reduce(items, axis=-1)
    a, b = items[..., 0], items[..., 1]
    peak = np.maximum(a, b)
    out = np.minimum(a, b)
    with np.errstate(invalid="ignore"):  # -inf - -inf, repaired below
        out -= peak
    np.maximum(out, -40.0, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += peak
    return np.fmax(out, peak, out=out)


@dataclass(frozen=True)
class BlasTables:
    """Senone-major stacked tables for matmul-form (BLAS) scoring.

    Expanding the diagonal-Gaussian quadratic form

        -1/2 sum_i (x_i - mu_i)^2 / sigma_i^2
            = -1/2 sum_i x_i^2 p_i  +  sum_i x_i (mu_i p_i)
              - 1/2 sum_i mu_i^2 p_i          with  p = 1/sigma^2

    turns per-frame scoring into two dense products against fixed
    matrices: ``obs^2 @ prec.T`` and ``obs @ mu_prec.T``, plus a
    per-mixture constant that folds the Gaussian normalizer, the log
    mixture weight and the ``mu^2`` term.  Rows are senone-major
    (senone index slowest, mixture fastest) and C-contiguous, so the
    active-set gather touches one contiguous block per senone and the
    products hit BLAS directly.

    ``precision`` is the numpy dtype of all three arrays (one of
    :data:`BLAS_PRECISIONS`).
    """

    #: ``1 / sigma^2`` — shape (N*M, L), C-contiguous, senone-major.
    prec: np.ndarray
    #: ``mu / sigma^2`` — shape (N*M, L), C-contiguous, senone-major.
    mu_prec: np.ndarray
    #: ``log w + log normalizer - 1/2 sum mu^2/sigma^2`` — shape (N, M).
    const: np.ndarray
    #: Storage dtype of the three arrays (:data:`BLAS_PRECISIONS`).
    precision: str = "float64"

    @property
    def table_bytes(self) -> int:
        """Resident bytes of everything a scoring call reads."""
        return int(self.prec.nbytes + self.mu_prec.nbytes + self.const.nbytes)


class SenonePool:
    """Dense container of all senones' mixture parameters.

    Parameters
    ----------
    means:
        Shape (N, M, L).
    variances:
        Shape (N, M, L), strictly positive (floored on entry).
    weights:
        Shape (N, M), rows sum to 1.
    """

    def __init__(
        self, means: np.ndarray, variances: np.ndarray, weights: np.ndarray
    ) -> None:
        self.means = np.asarray(means, dtype=np.float64)
        self.variances = np.maximum(
            np.asarray(variances, dtype=np.float64), VARIANCE_FLOOR
        )
        self.weights = np.asarray(weights, dtype=np.float64)
        if self.means.ndim != 3:
            raise ValueError(f"means must be 3-D, got shape {self.means.shape}")
        if self.variances.shape != self.means.shape:
            raise ValueError(
                f"variances shape {self.variances.shape} != means {self.means.shape}"
            )
        if self.weights.shape != self.means.shape[:2]:
            raise ValueError(
                f"weights shape {self.weights.shape} != {self.means.shape[:2]}"
            )
        if np.any(self.weights < 0):
            raise ValueError("weights must be non-negative")
        sums = self.weights.sum(axis=1)
        if not np.allclose(sums, 1.0, atol=1e-5):
            raise ValueError("each senone's weights must sum to 1")
        with np.errstate(divide="ignore"):
            self._log_weights = np.log(self.weights)
        # Scoring constants, precomputed once: the per-frame hot path
        # only gathers (parameters are immutable after construction;
        # training builds new pools).
        self._precisions = precision_halves(self.variances)
        self._log_norm = log_normalizer(self.variances)
        self._blas: dict[str, BlasTables] = {}

    # ------------------------------------------------------------------
    @property
    def num_senones(self) -> int:
        return int(self.means.shape[0])

    @property
    def num_components(self) -> int:
        return int(self.means.shape[1])

    @property
    def dim(self) -> int:
        return int(self.means.shape[2])

    @property
    def values_per_senone(self) -> int:
        """Stored scalars per senone (means + variances + weights)."""
        return self.num_components * (2 * self.dim + 1)

    def storage_bytes(self, fmt: FloatFormat = IEEE_SINGLE) -> float:
        """Flash footprint of the pool in ``fmt`` (paper Section IV-B)."""
        return fmt.storage_bytes(self.num_senones * self.values_per_senone)

    # ------------------------------------------------------------------
    # Reference scoring
    # ------------------------------------------------------------------
    def check_block(self, observations: np.ndarray, min_rows: int = 0) -> np.ndarray:
        """The observation block as float64 ``(B, dim)``; refuses
        another shape, and a block without the ``min_rows`` rows that
        already-validated work items point into."""
        obs = np.asarray(observations, dtype=np.float64)
        if obs.ndim != 2 or obs.shape[1] != self.dim:
            raise ValueError(f"observations must be (B, {self.dim}), got {obs.shape}")
        if obs.shape[0] < min_rows:
            raise IndexError("pair feature row out of range")
        return obs

    def check_pairs(
        self,
        observations: np.ndarray,
        pair_rows: np.ndarray,
        pair_senones: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """What every pair kernel refuses: a block that is not ``(B,
        dim)``, or work items
        :func:`~repro.core.opunit.check_pair_indices` refuses (shapes
        that differ, a senone or row out of range).  Returns float64 /
        int64 arrays."""
        obs = self.check_block(observations)
        rows, idx = check_pair_indices(
            pair_rows, pair_senones, obs.shape[0], self.num_senones
        )
        return obs, rows, idx

    def score_pairs(
        self,
        observations: np.ndarray,
        pair_rows: np.ndarray,
        pair_senones: np.ndarray,
    ) -> np.ndarray:
        """Pooled exact scores for explicit (frame-row, senone) pairs.

        One evaluation covers a whole batch of utterances: row
        ``pair_rows[p]`` of the ``(B, L)`` observation block is scored
        against senone ``pair_senones[p]``.  Each pair's arithmetic is
        independent of the others, so pooling does not change a single
        bit of any utterance's scores (:meth:`score_frame` is the
        one-row block).  The hot path allocates only the parameter
        gathers (reused in place for every intermediate).
        """
        obs, rows, idx = self.check_pairs(observations, pair_rows, pair_senones)
        if idx.size == 0:
            return np.empty(0)
        # diff^2 * precision, summed over dims, computed in place on the
        # gathered block.
        work = self.means.take(idx, axis=0)  # (P, M, L)
        np.subtract(obs.take(rows, axis=0)[:, None, :], work, out=work)
        np.multiply(work, work, out=work)
        np.multiply(work, self._precisions.take(idx, axis=0), out=work)
        comp = work.sum(axis=-1)  # (P, M)
        np.add(comp, self._log_norm.take(idx, axis=0), out=comp)
        np.add(comp, self._log_weights.take(idx, axis=0), out=comp)
        peak = comp.max(axis=-1)
        np.subtract(comp, peak[:, None], out=comp)
        np.exp(comp, out=comp)
        acc = comp.sum(axis=-1)
        np.log(acc, out=acc)
        np.add(peak, acc, out=acc)
        return acc

    # ------------------------------------------------------------------
    # Matmul-form (BLAS) scoring
    # ------------------------------------------------------------------
    def blas_tables(self, precision: str = "float64") -> BlasTables:
        """The stacked senone-major tables for matmul-form scoring.

        Built lazily on first use (the exact backends never pay for
        them) and cached per ``precision`` — parameters are immutable
        after construction, so the tables are too.  A narrower dtype is
        the float64 tables cast to it (round-to-nearest).
        """
        check_blas_precision(precision)
        tables = self._blas.get(precision)
        if tables is not None:
            return tables
        if "float64" not in self._blas:
            n, m, dim = self.num_senones, self.num_components, self.dim
            prec = np.ascontiguousarray(
                (1.0 / self.variances).reshape(n * m, dim)
            )
            mu_prec = np.ascontiguousarray(
                (self.means / self.variances).reshape(n * m, dim)
            )
            const = (
                self._log_norm
                + self._log_weights
                - 0.5 * (self.means * self.means / self.variances).sum(axis=-1)
            )
            self._blas["float64"] = BlasTables(
                prec=prec, mu_prec=mu_prec, const=const
            )
        if precision not in self._blas:
            full = self._blas["float64"]
            self._blas[precision] = BlasTables(
                prec=full.prec.astype(precision),
                mu_prec=full.mu_prec.astype(precision),
                const=full.const.astype(precision),
                precision=precision,
            )
        return self._blas[precision]

    def table_bytes(self, precision: str = "float64") -> int:
        """Resident bytes of the matmul-form tables at ``precision``.

        Computed from shapes and dtypes alone (same arithmetic idiom
        as :func:`repro.hmm.acoustic_model.memory_bandwidth_table`), so
        asking for a footprint never builds 10s of MB of tables; the
        quantized-parity suite pins it against the built tables'
        actual ``nbytes``.
        """
        check_blas_precision(precision)
        rows = self.num_senones * self.num_components
        # prec + mu_prec (rows x dim each) + const (rows), one dtype.
        return (2 * rows * self.dim + rows) * np.dtype(precision).itemsize

    @staticmethod
    def _dense_quadratic(
        obs: np.ndarray, prec: np.ndarray, mu_prec: np.ndarray
    ) -> np.ndarray:
        """``-1/2 (obs^2 @ prec.T) + obs @ mu_prec.T`` — the
        dense-product core of :meth:`score_block_blas`.

        The products run in the tables' dtype: float64 tables keep the
        original dgemm path bit-for-bit; float32 tables cast the (tiny)
        observation block and accumulate in float32 sgemm.  The call
        sites keep the mixture-constant add and the log-sum-exp fold in
        the same dtype (their const tables match it) and upcast only the
        final scores, so a reduced-precision call never touches a
        full-width intermediate.
        """
        obs = obs.astype(prec.dtype, copy=False)
        comp = (obs * obs) @ prec.T
        comp *= -0.5
        comp += obs @ mu_prec.T
        return comp

    def score_block_blas(
        self,
        observations: np.ndarray,
        senones: np.ndarray | None = None,
        precision: str = "float64",
    ) -> np.ndarray:
        """Dense matmul-form scores: shape ``(B, len(senones))``.

        Every observation row is scored against every requested senone
        through two dense products (``obs^2 @ prec.T`` and
        ``obs @ mu_prec.T``) and a vectorized log-sum-exp mixture fold.
        ``senones=None`` scores the full pool with no gather at all.
        ``precision`` selects the stored tables
        (:data:`BLAS_PRECISIONS`); the gather and the products touch
        only the narrow storage, so a reduced-precision table moves
        proportionally fewer bytes per scoring call.

        The float summation order inside the dot products differs from
        :meth:`score_pairs`'s elementwise fold, so results agree with
        the reference backend only to rounding (the ``mode="blas"``
        backends document this as ``exact=False``); the values are
        otherwise the same log-likelihoods.  float32 adds its
        documented drift on top
        (:data:`~repro.decoder.scorer.FLOAT32_SCORE_ATOL`): the quadratic
        form, the mixture-constant add and the log-sum-exp fold all
        run in the narrow storage; only the returned scores are
        float64.
        """
        obs = self.check_block(observations)
        tables = self.blas_tables(precision)
        m = self.num_components
        if senones is None:
            prec, mu_prec, const = tables.prec, tables.mu_prec, tables.const
            count = self.num_senones
        else:
            idx = np.asarray(senones, dtype=np.int64)
            if idx.size and (idx.min() < 0 or idx.max() >= self.num_senones):
                raise IndexError("senone index out of range")
            count = int(idx.size)
            if count == 0:
                return np.empty((obs.shape[0], 0))
            # One senone-major row gather per table: rows of senone s
            # are the contiguous block [s*M, (s+1)*M).
            rows = (idx[:, None] * m + np.arange(m)).ravel()
            prec = tables.prec.take(rows, axis=0)
            mu_prec = tables.mu_prec.take(rows, axis=0)
            const = tables.const.take(idx, axis=0)
        # The two dense products the whole mode exists for, then a
        # stable log-sum-exp mixture fold in the storage precision
        # (the const tables match the comp dtype by construction);
        # only the final scores are upcast to float64.
        comp = self._dense_quadratic(obs, prec, mu_prec)
        comp = comp.reshape(obs.shape[0], count, m)
        comp += const.reshape(1, count, m)
        out = _fold_components(comp)
        if out.dtype != np.float64:
            out = out.astype(np.float64)
        return out

    def score_frame(
        self, observation: np.ndarray, senones: np.ndarray | None = None
    ) -> np.ndarray:
        """Exact log scores for one frame.

        Returns an array of length ``num_senones`` filled with the
        scores of ``senones`` (default: all); unscored entries are
        ``-inf``.  The frame is scored as a one-row :meth:`score_pairs`
        block, so the observation must be ``(dim,)`` and every senone
        in range.
        """
        if senones is None:
            idx = np.arange(self.num_senones)
            out = np.empty(self.num_senones)
        else:
            idx = np.asarray(senones, dtype=np.int64)
            out = np.full(self.num_senones, -np.inf)
        block = np.asarray(observation)[None]
        out[idx] = self.score_pairs(block, np.zeros_like(idx), idx)
        return out

    # ------------------------------------------------------------------
    # Views and exports
    # ------------------------------------------------------------------
    def mixture(self, senone: int) -> GaussianMixture:
        """A :class:`GaussianMixture` view of one senone."""
        if not 0 <= senone < self.num_senones:
            raise IndexError(f"senone {senone} out of range [0, {self.num_senones})")
        return GaussianMixture(
            weights=self.weights[senone],
            means=self.means[senone],
            variances=self.variances[senone],
        )

    def gaussian_table(self, fmt: FloatFormat = IEEE_SINGLE) -> GaussianTable:
        """Export the flash-resident table the OP unit streams.

        Means, precisions (``-1/(2 sigma^2)``) and offsets (``C_jk``)
        are quantized to the storage format, exactly as the bits the
        DMA would deliver.
        """
        precisions = precision_halves(self.variances)
        offsets = self._log_weights + log_normalizer(self.variances)
        return GaussianTable(
            means=fmt.quantize(self.means.astype(np.float32)),
            precisions=fmt.quantize(precisions.astype(np.float32)),
            offsets=fmt.quantize(offsets.astype(np.float32)),
            storage_format=fmt,
        )

    def quantized(self, fmt: FloatFormat) -> "SenonePool":
        """A pool whose raw parameters have been stored in ``fmt``.

        This models *storage* quantization: means and variances round
        to the narrow format (weights are renormalised after rounding
        so downstream invariants hold).
        """
        q_means = fmt.quantize(self.means.astype(np.float32)).astype(np.float64)
        q_vars = fmt.quantize(self.variances.astype(np.float32)).astype(np.float64)
        q_weights = fmt.quantize(self.weights.astype(np.float32)).astype(np.float64)
        q_weights = q_weights / q_weights.sum(axis=1, keepdims=True)
        return SenonePool(q_means, np.maximum(q_vars, VARIANCE_FLOOR), q_weights)

    @classmethod
    def random(
        cls,
        num_senones: int,
        num_components: int = 8,
        dim: int = 39,
        rng: np.random.Generator | None = None,
        spread: float = 3.0,
    ) -> "SenonePool":
        """A synthetic pool for scale experiments (T1, R3...).

        Senone means are drawn apart by ``spread`` so scores are
        well-conditioned; variances are log-uniform in [0.3, 2.0].
        """
        rng = rng or np.random.default_rng(0)
        means = rng.normal(0.0, spread, size=(num_senones, num_components, dim))
        variances = np.exp(rng.uniform(np.log(0.3), np.log(2.0),
                                       size=(num_senones, num_components, dim)))
        raw = rng.uniform(0.5, 1.5, size=(num_senones, num_components))
        weights = raw / raw.sum(axis=1, keepdims=True)
        return cls(means, variances, weights)
