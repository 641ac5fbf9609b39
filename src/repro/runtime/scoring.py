"""Pooled senone scoring — the scoring backends of every runtime.

The backends take a whole bank at once (one lane under
``Recognizer.decode``, B lanes in the batched runtimes): a ``(B, L)``
observation block plus explicit ``(pair_rows, pair_senones)`` work
items — the union of every utterance's feedback list — evaluated in
ONE pooled GMM pass, instead of paying the numpy dispatch cost ``B``
times per frame.  Per work item the arithmetic reads only that item's
row (see :meth:`repro.hmm.senone.SenonePool.score_pairs`,
:meth:`repro.core.opunit.OpUnit.score_pairs` and
:meth:`repro.decoder.fast_gmm.FastGmmModel.score_requests`), so
pooling changes no utterance's scores by a single bit.  The one
deliberate exception is :class:`BatchBlasScorer` (``mode="blas"``),
which recasts the pooled pass as dense matrix products — words still
match the reference decode, but scores agree only to rounding
(``exact = False``).

Because each work item is self-contained, the pooled pass is also
indifferent to WHICH lanes contribute items: drained batches, ragged
retirement and continuous mid-decode refill
(:meth:`~repro.decoder.recognizer.Recognizer.decode_stream`) all
present the same contract — a
row either has work items this step or contributes nothing — and a
lane's scores never depend on its neighbours' occupancy.

The fast backend is the one with per-lane STATE (the CDS cache and
work counters), so the protocol carries a lane lifecycle:
:meth:`BatchScoringBackend.admit_lane` when a lane is (re)seeded,
:meth:`BatchScoringBackend.retire_lane` when its utterance finalizes
(returning the lane's fast-GMM work counters, if any), and
:meth:`BatchScoringBackend.compact_lanes` when the bank shrinks to its
occupied lanes.  The stateless backends implement them as no-ops.
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from repro.core.opunit import GaussianTable, OpUnit
from repro.decoder.fast_gmm import FastGmmLaneState, FastGmmModel, FastGmmStats
from repro.hmm.senone import BLAS_FULL_TABLE_ELEMENTS, SenonePool

__all__ = [
    "BatchScoringBackend",
    "BatchReferenceScorer",
    "BatchHardwareScorer",
    "BatchFastGmmScorer",
    "BatchBlasScorer",
    "LOG_ZERO",
]

LOG_ZERO = -1.0e30


class BatchScoringBackend(Protocol):
    """Contract between the batch frame loop and a pooled backend."""

    num_senones: int

    def score_pairs(
        self,
        observations: np.ndarray,
        pair_rows: np.ndarray,
        pair_senones: np.ndarray,
        lanes: np.ndarray | None = None,
    ) -> np.ndarray:
        """Compact scores for (batch-row, senone) work items.

        ``pair_rows`` must be row-major sorted (ascending rows), as
        ``np.nonzero`` over the candidate mask produces — stateful
        backends slice each lane's items out of the pooled arrays by
        that order.  ``lanes`` lists every ACTIVE lane this step,
        ascending — a superset of ``np.unique(pair_rows)``, since an
        active lane may demand no senones on a frame.  Stateless
        backends ignore it; the fast backend needs it to advance
        per-lane frame state exactly as a 1-lane decode of that lane
        would.
        """
        ...  # pragma: no cover - protocol definition

    def reset(self) -> None:
        """Clear per-decode accounting."""
        ...  # pragma: no cover - protocol definition

    def admit_lane(self, lane: int) -> None:
        """A lane was (re)seeded; forget any previous occupant's state."""
        ...  # pragma: no cover - protocol definition

    def retire_lane(self, lane: int) -> FastGmmStats | None:
        """A lane finalized; detach and return its work counters (if any)."""
        ...  # pragma: no cover - protocol definition

    def compact_lanes(self, keep: Sequence[int]) -> None:
        """The bank shrank: old lane ``keep[i]`` is now lane ``i``."""
        ...  # pragma: no cover - protocol definition


class _StatelessLaneMixin:
    """No-op lane lifecycle for backends without per-lane state."""

    def admit_lane(self, lane: int) -> None:
        pass

    def retire_lane(self, lane: int) -> FastGmmStats | None:
        return None

    def compact_lanes(self, keep: Sequence[int]) -> None:
        pass


class BatchReferenceScorer(_StatelessLaneMixin):
    """Double-precision exact pooled scorer (the software gold model)."""

    def __init__(self, pool: SenonePool) -> None:
        self.pool = pool
        self.num_senones = pool.num_senones

    def score_pairs(
        self,
        observations: np.ndarray,
        pair_rows: np.ndarray,
        pair_senones: np.ndarray,
        lanes: np.ndarray | None = None,
    ) -> np.ndarray:
        if pair_senones.size == 0:
            return np.empty(0)
        compact = self.pool.score_pairs(observations, pair_rows, pair_senones)
        # A senone with no finite score is "no path", not -inf.
        compact[np.isneginf(compact)] = LOG_ZERO
        return compact

    def reset(self) -> None:  # stateless
        pass


class BatchHardwareScorer(_StatelessLaneMixin):
    """Pooled scoring through the OP-unit models.

    Work items are split evenly across the available units (the
    paper's parallel dedicated structures); because every item is
    independent, the split changes accounting, never scores.  The
    per-frame critical path is the maximum unit cycle count over the
    pooled block — the figure that decides whether the hardware keeps
    up with ``B`` simultaneous audio streams.
    """

    def __init__(self, units: list[OpUnit], table: GaussianTable) -> None:
        if not units:
            raise ValueError("need at least one OP unit")
        dims = {u.spec.feature_dim for u in units}
        if dims != {table.feature_dim}:
            raise ValueError(
                f"unit feature dims {dims} != table dim {table.feature_dim}"
            )
        self.units = units
        self.table = table
        self.num_senones = table.num_senones
        self.frame_critical_cycles: list[int] = []

    def score_pairs(
        self,
        observations: np.ndarray,
        pair_rows: np.ndarray,
        pair_senones: np.ndarray,
        lanes: np.ndarray | None = None,
    ) -> np.ndarray:
        p = int(pair_senones.size)
        if p == 0:
            self.frame_critical_cycles.append(0)
            return np.empty(0)
        feats32 = np.asarray(observations, dtype=np.float32)
        out = np.empty(p)
        shares = np.array_split(np.arange(p), len(self.units))
        worst = 0
        for unit, share in zip(self.units, shares):
            if share.size == 0:
                continue
            scores, cycles = unit.score_pairs(
                self.table, feats32, pair_rows[share], pair_senones[share]
            )
            out[share] = scores
            worst = max(worst, cycles)
        self.frame_critical_cycles.append(worst)
        return out

    def reset(self) -> None:
        self.frame_critical_cycles = []
        for unit in self.units:
            unit.reset_counters()


class BatchBlasScorer(_StatelessLaneMixin):
    """Pooled matmul-form (BLAS) scoring for the batched runtimes.

    Instead of gathering per-(row, senone) parameter blocks, the whole
    step's demand is served DENSELY.  Pools whose full table fits
    ``full_table_elements`` stream the WHOLE stacked tables through
    one pair of products, with the mixture-constant add and
    log-sum-exp fold touching only the requested pairs
    (:meth:`~repro.hmm.senone.SenonePool.score_pairs_blas`); larger
    pools first gather the demanded senones' senone-major row blocks
    and run the products on the union
    (:meth:`~repro.hmm.senone.SenonePool.score_block_blas`), so a
    paper-scale pool never streams parameters nobody asked for.  The
    matmuls compute ``rows x union`` quadratic forms to answer ``P``
    work items, so the dense kernel only wins when the demand covers
    enough of that grid; steps below ``min_pairs`` items or below
    ``min_density`` grid coverage fall back to the gathered kernel
    (:meth:`~repro.hmm.senone.SenonePool.score_pairs`).
    ``dense_steps`` / ``fallback_steps`` count which kernel served
    each step.

    ``precision`` selects the stored table format
    (:data:`~repro.hmm.senone.BLAS_PRECISIONS`): ``"float64"`` keeps
    the original tables, ``"float32"`` halves the bytes every dense
    step gathers and streams (drift within
    :data:`~repro.decoder.scorer.FLOAT32_SCORE_ATOL` of the float64
    backend), ``"int8"`` stores symmetric per-row codes with per-row
    float32 scales (~1/7 the bytes, drift within
    :data:`~repro.decoder.scorer.INT8_SCORE_ATOL`).  The sparse-step
    fallback always runs the exact gathered kernel regardless of table
    precision.

    Like the reference backend the scorer is stateless per lane (the
    no-op lifecycle), so any batch composition, retirement pattern or
    continuous refill order presents the same contract.  ``exact =
    False``: words match the reference decode, scores agree within
    :data:`~repro.decoder.scorer.BLAS_SCORE_ATOL` (dot-product
    summation order only; both kernels are float64 over the same
    parameters) at float64 precision, within the per-precision bounds
    above otherwise.
    """

    exact = False

    #: Table sizes (senones x components x dims) up to this many
    #: elements score through the full-table products; bigger pools
    #: gather the demanded union first.
    FULL_TABLE_ELEMENTS = BLAS_FULL_TABLE_ELEMENTS

    def __init__(
        self,
        pool: SenonePool,
        min_pairs: int = 32,
        min_density: float = 0.25,
        full_table_elements: int | None = None,
        precision: str = "float64",
    ) -> None:
        if min_pairs < 0:
            raise ValueError(f"min_pairs must be >= 0, got {min_pairs}")
        if not 0.0 <= min_density <= 1.0:
            raise ValueError(
                f"min_density must be in [0, 1], got {min_density}"
            )
        self.pool = pool
        self.num_senones = pool.num_senones
        self.min_pairs = min_pairs
        self.min_density = min_density
        self.precision = precision
        self.dense_steps = 0
        self.fallback_steps = 0
        if full_table_elements is None:
            full_table_elements = self.FULL_TABLE_ELEMENTS
        self._full_table = (
            pool.num_senones * pool.num_components * pool.dim
            <= full_table_elements
        )
        pool.blas_tables(precision)  # build once up front, not on the first step

    def score_pairs(
        self,
        observations: np.ndarray,
        pair_rows: np.ndarray,
        pair_senones: np.ndarray,
        lanes: np.ndarray | None = None,
    ) -> np.ndarray:
        p = int(pair_senones.size)
        if p == 0:
            return np.empty(0)
        obs = np.asarray(observations, dtype=np.float64)
        if p < self.min_pairs:
            self.fallback_steps += 1
            compact = self.pool.score_pairs(obs, pair_rows, pair_senones)
            compact[np.isneginf(compact)] = LOG_ZERO
            return compact
        # Demanded rows and senone union via masks (no sorts).
        row_mask = np.zeros(obs.shape[0], dtype=bool)
        row_mask[pair_rows] = True
        num_rows = int(np.count_nonzero(row_mask))
        sen_mask = np.zeros(self.num_senones, dtype=bool)
        sen_mask[pair_senones] = True
        union_size = int(np.count_nonzero(sen_mask))
        if p < self.min_density * num_rows * union_size:
            self.fallback_steps += 1
            compact = self.pool.score_pairs(obs, pair_rows, pair_senones)
        else:
            self.dense_steps += 1
            rows = np.flatnonzero(row_mask)
            row_pos = np.empty(obs.shape[0], dtype=np.int64)
            row_pos[rows] = np.arange(rows.size)
            if self._full_table:
                compact = self.pool.score_pairs_blas(
                    obs[rows],
                    row_pos[pair_rows],
                    pair_senones,
                    precision=self.precision,
                )
            else:
                union = np.flatnonzero(sen_mask)
                col_pos = np.empty(self.num_senones, dtype=np.int64)
                col_pos[union] = np.arange(union_size)
                dense = self.pool.score_block_blas(
                    obs[rows], union, precision=self.precision
                )
                if p == num_rows * union_size:
                    # Full-density demand in np.nonzero order IS the
                    # dense block, row-major — skip the fancy gather.
                    compact = dense.ravel()
                else:
                    compact = dense[row_pos[pair_rows], col_pos[pair_senones]]
        compact[np.isneginf(compact)] = LOG_ZERO
        return compact

    def reset(self) -> None:
        self.dense_steps = 0
        self.fallback_steps = 0


class BatchFastGmmScorer:
    """Pooled four-layer fast-GMM scoring with per-lane selection state.

    The shared :class:`~repro.decoder.fast_gmm.FastGmmModel` (VQ
    codebook, shortlists, CI parents) is read-only and serves every
    lane; each lane owns a
    :class:`~repro.decoder.fast_gmm.FastGmmLaneState` created at
    admission and detached at retirement.  Per step:

    * layer 1 decides PER LANE whether the lane's own frame is close
      enough to ITS previous frame to skip (different lanes skip
      different steps — the per-lane CDS mask);
    * the surviving demand — full feedback lists of scoring lanes plus
      the cache-miss senones of skipping lanes — is pooled into at most
      two shared Gaussian passes
      (:meth:`~repro.decoder.fast_gmm.FastGmmModel.score_requests`),
      with each lane's CI margin applied against its OWN frame-best
      parent and all lanes sharing the VQ shortlist gathers and the
      vectorized chunked PDE.

    Every kernel is per-item, so each lane's scores and all four work
    counters are bit-identical to a 1-lane decode of the same
    features, for any batch composition and arrival order.
    """

    def __init__(self, model: FastGmmModel) -> None:
        self.model = model
        self.num_senones = model.num_senones
        self._lanes: dict[int, FastGmmLaneState] = {}

    # -- lane lifecycle -------------------------------------------------
    def admit_lane(self, lane: int) -> None:
        self._lanes[lane] = FastGmmLaneState()

    def retire_lane(self, lane: int) -> FastGmmStats | None:
        state = self._lanes.pop(lane, None)
        return state.fast_stats if state is not None else None

    def compact_lanes(self, keep: Sequence[int]) -> None:
        self._lanes = {new: self._lanes[old] for new, old in enumerate(keep)}

    def lane_state(self, lane: int) -> FastGmmLaneState:
        """The live selection state of an occupied lane (inspection)."""
        return self._lanes[lane]

    def reset(self) -> None:
        self._lanes = {}

    # ------------------------------------------------------------------
    def score_pairs(
        self,
        observations: np.ndarray,
        pair_rows: np.ndarray,
        pair_senones: np.ndarray,
        lanes: np.ndarray | None = None,
    ) -> np.ndarray:
        model = self.model
        cfg = model.config
        if lanes is None:
            lanes = np.unique(pair_rows)
        # Protocol precondition: row-major sorted items (np.nonzero
        # order), so each lane's items form one contiguous slice.
        assert pair_rows.size == 0 or np.all(np.diff(pair_rows) >= 0), (
            "pair_rows must be sorted by row"
        )
        out = np.empty(pair_senones.size)
        lo = np.searchsorted(pair_rows, lanes, side="left")
        hi = np.searchsorted(pair_rows, lanes, side="right")
        requests: list[tuple[int, np.ndarray]] = []
        sinks: list[tuple[str, int, slice, np.ndarray, np.ndarray | None]] = []
        stats_by_row: dict[int, FastGmmStats] = {}
        for lane, a, b in zip(lanes.tolist(), lo.tolist(), hi.tolist()):
            state = self._lanes[lane]
            stats_by_row[lane] = state.fast_stats
            state.fast_stats.frames += 1
            senones = pair_senones[a:b]
            sl = slice(a, b)
            obs = observations[lane]
            # Layer 1: this lane's own CDS decision.
            if cfg.cds_enabled and state.last_obs is not None:
                distance = float(np.mean((obs - state.last_obs) ** 2))
                if distance < cfg.cds_distance and state.skip_run < cfg.cds_max_run:
                    state.skip_run += 1
                    state.fast_stats.frames_skipped += 1
                    cache = state.last_scores
                    assert cache is not None
                    missing = senones[cache[senones] <= LOG_ZERO / 2]
                    if missing.size:
                        requests.append((lane, missing))
                        sinks.append(("fill", lane, sl, senones, missing))
                    else:
                        out[sl] = cache[senones]
                    continue
            state.skip_run = 0
            requests.append((lane, senones))
            sinks.append(("full", lane, sl, senones, None))
        # Layers 2-4, pooled across every demanding lane.
        results = model.score_requests(observations, requests, stats_by_row)
        for (kind, lane, sl, senones, missing), compact in zip(sinks, results):
            state = self._lanes[lane]
            if kind == "fill":
                assert state.last_scores is not None and missing is not None
                state.last_scores[missing] = compact
                out[sl] = state.last_scores[senones]
            else:
                scores = np.full(self.num_senones, LOG_ZERO)
                scores[senones] = compact
                state.last_obs = observations[lane].copy()
                state.last_scores = scores
                out[sl] = compact
        return out
