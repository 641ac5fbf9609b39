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
    "fold_exact",
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


def _fold_components(items: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Log-sum-exp over the trailing mixture-component axis, in the
    items' own dtype — the fold of the matmul-form (blas) kernels only
    (into ``out`` when given: same dtype, the items' leading shape).

    ONE two-term kernel, ``max + log1p(exp(min - max))``, folds each
    row's M component planes pairwise, level by level (M -> ceil(M/2) ->
    ... -> 1; an odd plane carries, M = 1 is a copy).  The gap is
    clipped at -40: past it the smaller term adds < 5e-18 (under half an
    ulp of any score) and keeps ``exp``/``log1p`` off their slow
    underflow paths.  Two ``-inf`` terms give a ``nan`` gap, which the
    clip's ``fmax`` maps to -40 like any gap below it: ``-inf`` again.
    """
    out = np.empty(items.shape[:-1], items.dtype) if out is None else out
    planes = items.swapaxes(-1, -2)  # (..., M, N): contiguous levels
    while True:
        pairs, carry = divmod(planes.shape[-2], 2)
        shape = (*out.shape[:-1], pairs + carry, out.shape[-1])
        level = out[..., None, :] if shape[-2] == 1 else np.empty(shape, out.dtype)
        a, b = planes[..., 0 : 2 * pairs : 2, :], planes[..., 1 : 2 * pairs : 2, :]
        fold = level[..., :pairs, :]
        peak = np.maximum(a, b, out=np.empty_like(fold))
        np.minimum(a, b, out=fold)
        with np.errstate(invalid="ignore"):  # -inf - -inf: the clip repairs it
            fold -= peak
        np.fmax(fold, -40.0, out=fold)
        np.log1p(np.exp(fold, out=fold), out=fold)
        fold += peak
        level[..., pairs:, :] = planes[..., 2 * pairs :, :]  # the odd plane carries
        if level.shape[-2] == 1:
            return out
        planes = level


def fold_exact(comp: np.ndarray) -> np.ndarray:
    """``peak + log(sum(exp(comp - peak)))`` over the last axis of a
    ``(P, M)`` block, in place on it — the one exact fold (reference
    and fast families); one term is its own log-sum-exp."""
    if comp.shape[-1] == 1:
        return comp[:, 0]
    peak = comp.max(axis=-1)
    np.subtract(comp, peak[:, None], out=comp)
    acc = np.exp(comp, out=comp).sum(axis=-1)
    return np.add(peak, np.log(acc, out=acc), out=acc)


@dataclass(frozen=True)
class BlasTables:
    """One senone-major stacked table for matmul-form (BLAS) scoring.

    Around a centre ``c`` (the pool's mean of means; ``x' = x - c``,
    ``mu' = mu - c``), the diagonal-Gaussian quadratic form expands to

        -1/2 sum_i (x_i - mu_i)^2 p_i
            = sum_i x'_i^2 (-p_i / 2)  +  sum_i x'_i (mu'_i p_i)
              - 1/2 sum_i mu'_i^2 p_i          with  p = 1/sigma^2

    so a mixture row's log density is ONE dot product of the frame's
    ``[x'^2, x', 1]`` with the row ``[-p/2 | mu' p | const']``, where
    ``const'`` folds the Gaussian normalizer, the log mixture weight
    and the ``mu'^2`` term.  Shifting to the centre keeps ``mu'^2`` and
    ``x'^2`` small, so the terms the product sums do not cancel from
    large magnitudes (float32 needs that).  Rows are senone-major
    (senone index slowest, mixture fastest) and C-contiguous, so the
    active-set gather touches one contiguous block per senone and the
    product hits BLAS directly.
    """

    #: ``[-p/2 | mu' p | const']`` — shape (N*M, 2L+1), C-contiguous,
    #: senone-major, in the storage dtype (:data:`BLAS_PRECISIONS`).
    table: np.ndarray
    #: The centre ``c`` — shape (L,), float64.
    centre: np.ndarray

    @property
    def table_bytes(self) -> int:
        """Resident bytes of the table every scoring call streams."""
        return int(self.table.nbytes)


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
        return fold_exact(comp)

    # ------------------------------------------------------------------
    # Matmul-form (BLAS) scoring
    # ------------------------------------------------------------------
    def blas_tables(self, precision: str = "float64") -> BlasTables:
        """The stacked senone-major table for matmul-form scoring.

        Built lazily on first use (the exact backends never pay for
        it) and cached per ``precision`` — parameters are immutable
        after construction, so the table is too.  A narrower dtype is
        the float64 table cast to it (round-to-nearest), around the
        same centre.
        """
        check_blas_precision(precision)
        tables = self._blas.get(precision)
        if tables is not None:
            return tables
        if "float64" not in self._blas:
            rows, dim = self.num_senones * self.num_components, self.dim
            means = self.means.reshape(rows, dim)
            centre = np.full(rows, 1.0 / rows) @ means  # mean of means, one gemv
            # -p/2 is the pool's own precision halves (p is never divided
            # out again); the other two blocks are products of it.
            half = self._precisions.reshape(rows, dim)
            shifted = means - centre
            half_linear = shifted * half  # -mu' p / 2
            table = np.empty((rows, 2 * dim + 1))
            table[:, :dim] = half
            np.multiply(half_linear, -2.0, out=table[:, dim:-1])  # mu' p, exactly
            const = table[:, -1]
            np.einsum("ij,ij->i", half_linear, shifted, out=const)
            const += self._log_norm.ravel()
            const += self._log_weights.ravel()
            self._blas["float64"] = BlasTables(table=table, centre=centre)
        if precision not in self._blas:
            full = self._blas["float64"]
            self._blas[precision] = BlasTables(
                table=full.table.astype(precision), centre=full.centre
            )
        return self._blas[precision]

    def table_bytes(self, precision: str = "float64") -> int:
        """Resident bytes of the matmul-form table at ``precision``.

        Computed from shapes and dtypes alone (same arithmetic idiom
        as :func:`repro.hmm.acoustic_model.memory_bandwidth_table`), so
        asking for a footprint never builds 10s of MB of tables; the
        quantized-parity suite pins it against the built table's
        actual ``nbytes``.
        """
        check_blas_precision(precision)
        rows = self.num_senones * self.num_components
        # [-p/2 | mu' p | const'] is 2 * dim + 1 columns of one dtype.
        return rows * (2 * self.dim + 1) * np.dtype(precision).itemsize

    @staticmethod
    def _dense_quadratic(
        obs: np.ndarray, centre: np.ndarray, table: np.ndarray
    ) -> np.ndarray:
        """``[x'^2, x', 1] @ table.T`` with ``x' = obs - centre`` — the
        one dense product of :meth:`score_block_blas`, mixture constant
        included: shape ``(B, rows of table)``.

        The product runs in the table's dtype: the (tiny) stacked
        observation block is built in it, so float64 tables run dgemm
        and float32 tables accumulate in float32 sgemm.  The call site
        keeps the log-sum-exp fold in the same dtype and upcasts only
        the final scores, so a reduced-precision call never touches a
        full-width intermediate.
        """
        dim = centre.size
        stacked = np.empty((obs.shape[0], 2 * dim + 1), dtype=table.dtype)
        shifted = stacked[:, dim:-1]
        np.subtract(obs, centre, out=shifted)
        np.multiply(shifted, shifted, out=stacked[:, :dim])
        stacked[:, -1] = 1.0
        return stacked @ table.T

    def score_block_blas(
        self,
        observations: np.ndarray,
        senones: np.ndarray | None = None,
        precision: str = "float64",
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Dense matmul-form scores: shape ``(B, len(senones))``.

        Every observation row is scored against every requested senone
        through ONE dense product of its ``[x'^2, x', 1]`` with the
        stacked table (:class:`BlasTables`; the mixture constant rides
        in it) and a vectorized log-sum-exp mixture fold.
        ``senones=None`` scores the full pool with no gather at all;
        otherwise the requested senones' row blocks are gathered from
        the one table.  ``precision`` selects the stored table
        (:data:`BLAS_PRECISIONS`); the gather and the product touch
        only the narrow storage, so a reduced-precision table moves
        proportionally fewer bytes per scoring call.

        The float summation order inside the dot product differs from
        :meth:`score_pairs`'s elementwise fold, so results agree with
        the reference backend only to rounding (the ``mode="blas"``
        backends document this as ``exact=False``); the values are
        otherwise the same log-likelihoods.  float32 adds its
        documented drift on top
        (:data:`~repro.decoder.scorer.FLOAT32_SCORE_ATOL`): the product
        and the log-sum-exp fold run in the narrow storage; only the
        returned scores are float64.

        ``out`` (float64, the result's shape) receives the scores
        instead of a new array — the same bits: a caller that owns the
        block's memory hands it in (the blas scorer's worker writes each
        block into rows its caller allocated).
        """
        obs = self.check_block(observations)
        tables = self.blas_tables(precision)
        m = self.num_components
        table = tables.table
        if senones is None:
            count = self.num_senones
        else:
            idx = np.asarray(senones, dtype=np.int64)
            if idx.size and (idx.min() < 0 or idx.max() >= self.num_senones):
                raise IndexError("senone index out of range")
            count = int(idx.size)
        if out is not None and (
            out.shape != (obs.shape[0], count) or out.dtype != np.float64
        ):
            raise ValueError(
                f"out must be float64 of shape {(obs.shape[0], count)}, "
                f"got {out.dtype} {out.shape}"
            )
        if count == 0:
            return np.empty((obs.shape[0], 0)) if out is None else out
        if senones is not None:
            # One senone-major row gather: rows of senone s are the
            # contiguous block [s*M, (s+1)*M).
            table = table.take((idx[:, None] * m + np.arange(m)).ravel(), axis=0)
        comp = self._dense_quadratic(obs, tables.centre, table)
        items = comp.reshape(obs.shape[0], count, m)
        if table.dtype == np.float64:
            return _fold_components(items, out=out)
        if out is None:
            return _fold_components(items).astype(np.float64)
        out[...] = _fold_components(items)
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
