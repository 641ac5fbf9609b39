"""Cycle-accurate model of the Observation Probability (OP) unit (Figure 2).

The OP unit evaluates mixture-Gaussian senone scores in the log domain:

    log b_j(O_t) = logadd_k [ C_jk + sum_i (O_i - mu_jki)^2 * delta_jki ]

where ``delta = -1 / (2 sigma^2)`` is the (negated, halved) precision and
``C_jk`` folds the mixture weight and the Gaussian normalisation term
(the paper's equations 5/6).  The datapath is:

  feature buffer -> (X-Y)^2*Z -> accumulating adder -> FMA (scale &
  weight adjust, "SWA") -> logadd unit (512-byte SRAM table)

plus a comparator against a running maximum ("``>?``" and the
``Max '-ve' R`` register in Figure 2) that supports pruning and partial
distance elimination.

Two evaluation paths are provided:

* :meth:`OpUnit.score_senone` — the bit-faithful serial path: one
  dimension per cycle through the datapath, accumulation in hardware
  order, every elementary op counted.  Used by tests, traces and
  fidelity experiments.
* :meth:`OpUnit.score_pairs` — a numpy-vectorised path over many
  (feature-row, senone) work items with identical parameter
  quantization and the same SRAM logadd (component order preserved),
  used by the decoder where the serial path would be prohibitively
  slow.  :meth:`OpUnit.score_frame` is its one-row form and returns a
  fresh dense score array (``LOG_ZERO`` off the requested senones), so
  a result stays valid after the next call.  Cycle and activity counts
  are derived from the same timing formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.fpu import FloatUnit
from repro.core.logadd import LOG_ZERO, LogAddTable
from repro.core.pipeline import PipelineSpec, PipelineTrace
from repro.quant.float_formats import IEEE_SINGLE, FloatFormat

__all__ = [
    "OpUnitSpec",
    "OpUnit",
    "GaussianTable",
    "FrameScoreResult",
    "check_pair_indices",
]


def check_pair_indices(
    pair_rows: np.ndarray, pair_senones: np.ndarray, num_rows: int, num_senones: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pooled ``(feature-row, senone)`` work items as int64 arrays.

    The one spelling of what every pair kernel refuses: arrays of
    different shapes, a senone or a row out of range (numpy would wrap
    a negative row onto ANOTHER row's frame).  One reduction per array
    — the maximum of its unsigned view, where a negative index reads
    as 2**63 or more — catches both ends.
    """
    rows = np.asarray(pair_rows, dtype=np.int64)
    idx = np.asarray(pair_senones, dtype=np.int64)
    if rows.shape != idx.shape:
        raise ValueError(f"pair shapes differ: {rows.shape} vs {idx.shape}")
    if idx.size:
        if idx.view(np.uint64).max() >= num_senones:
            raise IndexError("pair senone index out of range")
        if rows.view(np.uint64).max() >= num_rows:
            raise IndexError("pair feature row out of range")
    return rows, idx


@dataclass(frozen=True)
class OpUnitSpec:
    """Static configuration of one OP unit instance.

    Timing defaults follow Figure 2: the squared-difference stage and
    the accumulating adder are fully pipelined (one feature dimension
    per cycle), the FMA issues once per mixture component, and the
    logadd (subtract, SRAM lookup, add) issues every 2 cycles.
    """

    clock_hz: float = 50e6
    feature_dim: int = 39
    sdm_pipeline: PipelineSpec = PipelineSpec("(X-Y)^2*Z+acc", depth=8, initiation_interval=1)
    fma_pipeline: PipelineSpec = PipelineSpec("SWA-FMA", depth=4, initiation_interval=1)
    logadd_pipeline: PipelineSpec = PipelineSpec("logadd", depth=3, initiation_interval=2)
    feature_buffer_words: int = 64
    parameter_buffer_words: int = 128

    def __post_init__(self) -> None:
        if self.clock_hz <= 0:
            raise ValueError(f"clock_hz must be positive, got {self.clock_hz}")
        if self.feature_dim < 1:
            raise ValueError(f"feature_dim must be >= 1, got {self.feature_dim}")
        if self.feature_dim > self.feature_buffer_words:
            raise ValueError(
                f"feature_dim {self.feature_dim} exceeds feature buffer "
                f"({self.feature_buffer_words} words)"
            )

    def cycles_per_senone(self, components: int) -> int:
        """Cycles to score one senone of ``components`` mixtures.

        The dimension loop of successive components streams
        back-to-back through the squared-difference stage (one fill,
        then one dimension per cycle); each component then takes one
        FMA slot, and components after the first each take one logadd
        slot.  FMA and logadd overlap the next component's dimension
        loop, so only their residual latency past the stream end
        counts.
        """
        if components < 1:
            raise ValueError(f"components must be >= 1, got {components}")
        stream = self.sdm_pipeline.cycles(components * self.feature_dim)
        tail = self.fma_pipeline.depth + self.logadd_pipeline.cycles(
            max(components - 1, 1)
        )
        return stream + tail


@dataclass
class GaussianTable:
    """The per-senone parameter block the unit fetches from flash.

    Arrays are stored *already quantized* to the model's storage
    format, exactly as the bits would come out of flash:

    * ``means`` — shape (senones, components, dim)
    * ``precisions`` — shape (senones, components, dim); holds
      ``delta = -1/(2 sigma^2)`` (negative values)
    * ``offsets`` — shape (senones, components); holds ``C_jk`` =
      log mixture weight + Gaussian normalisation

    Storage is senone-major: the canonical array is ``packed``, one
    C-contiguous ``(senones, components, 2*dim + 1)`` block holding
    ``[means | precisions | offset]`` per mixture row — the layout the
    flash DMA streams, and the one that makes the per-frame active-set
    gather touch a single contiguous block per senone.  ``means``,
    ``precisions`` and ``offsets`` are views into it, so the values
    (and every score computed from them) are bit-identical to the
    previous three-array layout.
    """

    means: np.ndarray
    precisions: np.ndarray
    offsets: np.ndarray
    storage_format: FloatFormat = IEEE_SINGLE

    def __post_init__(self) -> None:
        means = np.asarray(self.means, dtype=np.float32)
        precisions = np.asarray(self.precisions, dtype=np.float32)
        offsets = np.asarray(self.offsets, dtype=np.float32)
        if means.ndim != 3:
            raise ValueError(f"means must be 3-D, got shape {means.shape}")
        if precisions.shape != means.shape:
            raise ValueError(
                f"precisions shape {precisions.shape} != means {means.shape}"
            )
        expected = means.shape[:2]
        if offsets.shape != expected:
            raise ValueError(
                f"offsets shape {offsets.shape} != {expected}"
            )
        if np.any(precisions > 0):
            raise ValueError("precisions must be <= 0 (delta = -1/(2 sigma^2))")
        n, m, dim = means.shape
        self.packed = np.empty((n, m, 2 * dim + 1), dtype=np.float32)
        self.packed[..., :dim] = means
        self.packed[..., dim : 2 * dim] = precisions
        self.packed[..., 2 * dim] = offsets
        self.means = self.packed[..., :dim]
        self.precisions = self.packed[..., dim : 2 * dim]
        self.offsets = self.packed[..., 2 * dim]

    @property
    def num_senones(self) -> int:
        return int(self.means.shape[0])

    @property
    def num_components(self) -> int:
        return int(self.means.shape[1])

    @property
    def feature_dim(self) -> int:
        return int(self.means.shape[2])

    @property
    def values_per_senone(self) -> int:
        """Stored values per senone: mean + precision per dim + offset."""
        return self.num_components * (2 * self.feature_dim + 1)

    def storage_bytes(self) -> float:
        """Flash bytes for the whole table in ``storage_format``."""
        return self.storage_format.storage_bytes(
            self.num_senones * self.values_per_senone
        )

    def senone_bytes(self) -> float:
        """Flash bytes streamed to score one senone."""
        return self.storage_format.storage_bytes(self.values_per_senone)

    def quantized(self, fmt: FloatFormat) -> "GaussianTable":
        """Re-quantize the table into another storage format."""
        return GaussianTable(
            means=fmt.quantize(self.means),
            precisions=fmt.quantize(self.precisions),
            offsets=fmt.quantize(self.offsets),
            storage_format=fmt,
        )


@dataclass
class FrameScoreResult:
    """Scores and accounting for one frame's worth of senones."""

    scores: np.ndarray
    senones_scored: int
    cycles: int
    parameter_bytes: float


class OpUnit:
    """One Observation Probability unit instance.

    Parameters
    ----------
    spec:
        Timing/buffer configuration.
    logadd_table:
        The 512-byte SRAM logadd model.  A fresh default table is built
        when omitted.
    float_unit:
        Arithmetic-block model; supplies op counting and optional
        narrow compute formats.
    trace:
        Optional :class:`PipelineTrace` capturing issue/retire events
        (serial path only).
    """

    def __init__(
        self,
        spec: OpUnitSpec | None = None,
        logadd_table: LogAddTable | None = None,
        float_unit: FloatUnit | None = None,
        trace: PipelineTrace | None = None,
    ) -> None:
        self.spec = spec or OpUnitSpec()
        self.logadd = logadd_table or LogAddTable()
        self.fpu = float_unit or FloatUnit()
        self.trace = trace
        self._feature = np.zeros(self.spec.feature_dim, dtype=np.float32)
        self._cycles_busy = 0
        self._senones_scored = 0
        self._gaussians_evaluated = 0
        self._dims_evaluated = 0
        self._parameter_bytes = 0.0
        self._running_max = np.float32(LOG_ZERO)

    # ------------------------------------------------------------------
    # Buffers and bookkeeping
    # ------------------------------------------------------------------
    def load_feature(self, feature: np.ndarray) -> None:
        """Latch one frame's feature vector into the internal buffer."""
        arr = np.asarray(feature, dtype=np.float32).ravel()
        if arr.size != self.spec.feature_dim:
            raise ValueError(
                f"feature length {arr.size} != unit dimension {self.spec.feature_dim}"
            )
        self._feature = arr.copy()
        self._running_max = np.float32(LOG_ZERO)

    @property
    def cycles_busy(self) -> int:
        return self._cycles_busy

    @property
    def senones_scored(self) -> int:
        return self._senones_scored

    @property
    def gaussians_evaluated(self) -> int:
        return self._gaussians_evaluated

    @property
    def dims_evaluated(self) -> int:
        return self._dims_evaluated

    @property
    def parameter_bytes(self) -> float:
        return self._parameter_bytes

    @property
    def running_max(self) -> float:
        """Contents of the ``Max '-ve'`` register (best score seen)."""
        return float(self._running_max)

    def seconds(self, cycles: int | None = None) -> float:
        """Wall time of ``cycles`` (default: total busy cycles)."""
        c = self._cycles_busy if cycles is None else cycles
        return c / self.spec.clock_hz

    def reset_counters(self) -> None:
        self._cycles_busy = 0
        self._senones_scored = 0
        self._gaussians_evaluated = 0
        self._dims_evaluated = 0
        self._parameter_bytes = 0.0
        self.fpu.reset()
        self.logadd.reset_reads()

    def activity(self) -> dict[str, float]:
        """Activity snapshot consumed by the power model."""
        ops = self.fpu.counts
        return {
            "cycles_busy": float(self._cycles_busy),
            "sdm_ops": float(ops.square_diff_multiply),
            "add_ops": float(ops.add),
            "fma_ops": float(ops.fused_multiply_add),
            "compare_ops": float(ops.compare),
            "sram_reads": float(self.logadd.reads),
            "parameter_bytes": float(self._parameter_bytes),
            "senones": float(self._senones_scored),
            "gaussians": float(self._gaussians_evaluated),
        }

    # ------------------------------------------------------------------
    # Serial, bit-faithful scoring (tests / traces / fidelity)
    # ------------------------------------------------------------------
    def score_senone(
        self,
        table: GaussianTable,
        senone: int,
        prune_threshold: float | None = None,
    ) -> float:
        """Score one senone against the latched feature vector.

        Follows the hardware schedule exactly: for each mixture
        component, stream the feature dimensions through the
        ``(X-Y)^2*Z`` stage and the accumulating adder, apply the SWA
        FMA, then fold into the running mixture sum through the logadd
        SRAM.  When ``prune_threshold`` is given, the ``>?`` comparator
        performs partial distance elimination: the dimension loop
        aborts as soon as the partial sum can no longer beat the
        threshold (the Gaussian contributes nothing to the mixture).
        """
        if not 0 <= senone < table.num_senones:
            raise IndexError(f"senone {senone} out of range [0, {table.num_senones})")
        if table.feature_dim != self.spec.feature_dim:
            raise ValueError(
                f"table dimension {table.feature_dim} != unit {self.spec.feature_dim}"
            )
        start_cycle = self._cycles_busy
        mixture_log = None
        components = table.num_components
        dims_run = 0
        for k in range(components):
            offset = np.float32(table.offsets[senone, k])
            acc = np.float32(0.0)
            aborted = False
            for i in range(self.spec.feature_dim):
                term = self.fpu.square_diff_multiply(
                    self._feature[i],
                    table.means[senone, k, i],
                    table.precisions[senone, k, i],
                )
                acc = np.float32(self.fpu.add(acc, term))
                dims_run += 1
                if prune_threshold is not None:
                    # acc only decreases (precisions <= 0); once
                    # offset + acc falls below threshold the component
                    # cannot contribute at 16-bit logadd resolution.
                    partial = float(offset) + float(acc)
                    self.fpu.counts.compare += 1
                    if partial < prune_threshold:
                        aborted = True
                        break
            if aborted:
                # The component never reaches the SWA stage.
                component_log = np.float32(LOG_ZERO)
            else:
                component_log = np.float32(
                    self.fpu.fused_multiply_add(acc, np.float32(1.0), offset)
                )
                self._gaussians_evaluated += 1
            if mixture_log is None:
                mixture_log = float(component_log)
            else:
                mixture_log = float(self.logadd.logadd(mixture_log, float(component_log)))
        assert mixture_log is not None
        # ">?" comparator updates the Max '-ve' register.
        self.fpu.counts.compare += 1
        if mixture_log > float(self._running_max):
            self._running_max = np.float32(mixture_log)
        self._dims_evaluated += dims_run
        self._senones_scored += 1
        self._parameter_bytes += table.senone_bytes()
        # Partial distance elimination shortens the dimension stream.
        cycles = (
            self.spec.sdm_pipeline.cycles(dims_run)
            + self.spec.fma_pipeline.depth
            + self.spec.logadd_pipeline.cycles(max(components - 1, 1))
        )
        self._cycles_busy += cycles
        if self.trace is not None:
            self.trace.record(
                "op-unit", f"senone[{senone}]", start_cycle, self._cycles_busy
            )
        return float(mixture_log)

    # ------------------------------------------------------------------
    # Vectorised frame scoring (decoder fast path)
    # ------------------------------------------------------------------
    def _mixture_logs(
        self, table: GaussianTable, feature_rows: np.ndarray, idx: np.ndarray
    ) -> np.ndarray:
        """Mixture log-scores for (feature, senone) work items.

        ``feature_rows`` broadcasts against the gathered ``(n, M, L)``
        parameter block: shape (1, 1, L) scores one latched frame for
        all of ``idx``; shape (n, 1, L) scores per-item features (the
        batched runtime's pooled evaluation).  The arithmetic is the
        exact float32 sequence of the original frame path — squared
        difference times precision, a float32 dimension reduction, the
        SWA offset, then the serial SRAM logadd fold — so scores are
        bit-identical however work items are pooled.  Only the
        parameter gather allocates; every intermediate reuses it.  The
        gather is ONE take over the senone-major ``packed`` block, so
        each work item's parameters arrive as one contiguous run.
        """
        dim = table.feature_dim
        blk = table.packed.take(idx, axis=0)  # (n, M, 2L+1)
        work = blk[..., :dim]  # means view; rows are contiguous
        np.subtract(feature_rows, work, out=work)  # diff
        np.multiply(work, work, out=work)  # diff^2
        np.multiply(work, blk[..., dim : 2 * dim], out=work)  # terms
        comp = work.sum(axis=2, dtype=np.float32)  # (n, M)
        np.add(comp, blk[..., 2 * dim], out=comp)
        return self.logadd.logadd_fold(comp)

    def score_frame(
        self,
        table: GaussianTable,
        feature: np.ndarray,
        active: np.ndarray | None = None,
    ) -> FrameScoreResult:
        """Score ``active`` senones (default: all) for one frame.

        A one-row :meth:`score_pairs`: the feature is latched, every
        senone is paired with it, and the answer lands in a fresh dense
        ``scores`` array, ``LOG_ZERO`` off ``active``.  Numerically
        this matches the serial path up to float32 summation-order
        effects in the dimension loop (the logadd fold over components
        is performed in the same serial order through the same SRAM
        table).  Cycle counts use :meth:`OpUnitSpec.cycles_per_senone`.
        """
        self.load_feature(feature)
        if active is None:
            active = np.arange(table.num_senones)
        senones = np.asarray(active, dtype=np.int64)
        mixture, cycles = self.score_pairs(
            table, self._feature[None, :], np.zeros_like(senones), senones
        )
        scores = np.full(table.num_senones, LOG_ZERO)
        scores[senones] = mixture
        return FrameScoreResult(
            scores=scores,
            senones_scored=senones.size,
            cycles=cycles,
            parameter_bytes=senones.size * table.senone_bytes(),
        )

    def score_pairs(
        self,
        table: GaussianTable,
        features: np.ndarray,
        pair_rows: np.ndarray,
        pair_senones: np.ndarray,
    ) -> tuple[np.ndarray, int]:
        """Pooled evaluation of explicit (feature-row, senone) pairs.

        The batched runtime fans a ``(B, L)`` observation block through
        one evaluation: ``pair_rows[p]`` selects the feature row and
        ``pair_senones[p]`` the senone of work item ``p``.  Scores are
        bit-identical to scoring each row's senones through
        :meth:`score_frame` separately (see :meth:`_mixture_logs`).

        Returns ``(compact_scores (P,), cycles)``; activity counters
        accumulate exactly as for ``P`` single-frame senone evaluations.
        """
        feats = np.asarray(features, dtype=np.float32)
        if feats.ndim != 2 or feats.shape[1] != self.spec.feature_dim:
            raise ValueError(
                f"features must be (B, {self.spec.feature_dim}), got {feats.shape}"
            )
        rows, idx = check_pair_indices(
            pair_rows, pair_senones, feats.shape[0], table.num_senones
        )
        if idx.size == 0:
            return np.empty(0, dtype=np.float64), 0
        mixture = self._mixture_logs(table, feats[rows][:, None, :], idx)
        # Bookkeeping equivalent to the serial path for n unpruned senones.
        n = int(idx.size)
        dims = n * table.num_components * table.feature_dim
        self.fpu.counts.square_diff_multiply += dims
        self.fpu.counts.add += dims
        self.fpu.counts.fused_multiply_add += n * table.num_components
        self.fpu.counts.compare += n
        self._gaussians_evaluated += n * table.num_components
        self._dims_evaluated += dims
        self._senones_scored += n
        self._parameter_bytes += n * table.senone_bytes()
        cycles = n * self.spec.cycles_per_senone(table.num_components)
        self._cycles_busy += cycles
        self._running_max = np.float32(
            max(float(self._running_max), float(mixture.max()))
        )
        return mixture, cycles
