"""Pooled senone scoring — the scoring backends of every runtime.

The backends take a whole bank at once (one lane under
``Recognizer.decode``, B lanes in the batched runtimes): a ``(B, L)``
observation block plus explicit ``(pair_rows, pair_senones)`` work
items — the union of every utterance's feedback list — evaluated in
ONE pooled GMM pass, instead of paying the numpy dispatch cost ``B``
times per frame.  Per work item the arithmetic reads only that item's
row (see :meth:`repro.hmm.senone.SenonePool.score_pairs`,
:meth:`repro.core.opunit.OpUnit.score_pairs` and
:meth:`repro.decoder.fast_gmm.FastGmmModel.score_items`), so
pooling changes no utterance's scores by a single bit.  The one
deliberate exception is :class:`BatchBlasScorer` (``mode="blas"``),
which recasts the pooled pass as dense matrix products — words still
match the reference decode, but scores agree only to rounding
(``exact = False``).  It holds three kernels and picks one per step
from the shape of that step's work items alone: the exact gathered
kernel for sparse demand, products over the demanded senones' union
for dense partial demand, and — when a bank asks for every senone of
every active lane, the paper's worst-case-bandwidth regime — the whole
dense block with no per-pair indexing at all.  That last demand does
not depend on the search, so it is scored AHEAD of it, behind the
``score_pairs`` seam: a lane admitted with its audio gets its next
:data:`BLOCK_FRAMES` frames in one product the step it runs out, and
the tables are streamed once per block, not once per 10 ms frame.
Every step still checks that the frame it is handed is the frame the
cached row was scored from; a lane whose frames are not the admitted
ones, a fed lane and a caller without a lane are scored directly, one
frame at a time, by the same function.  A precision swap invalidates
what was scored on the old tables; retiring a lane drops its block, so
a cancelled lane wastes at most ``BLOCK_FRAMES - 1`` frames of scoring.

Because each work item is self-contained, the pooled pass is also
indifferent to WHICH lanes contribute items: drained batches, ragged
retirement and continuous mid-decode refill
(:meth:`~repro.decoder.recognizer.Recognizer.decode_stream`) all
present the same contract — a
row either has work items this step or contributes nothing — and a
lane's scores never depend on its neighbours' occupancy.

Two backends keep per-lane STATE — fast (the CDS cache and work
counters, rows of scorer-owned arrays) and blas (the block scored
ahead) — so the protocol carries a lane lifecycle:
:meth:`BatchScoringBackend.admit_lane` when a lane is (re)seeded (with
the lane's features when the caller has them),
:meth:`BatchScoringBackend.retire_lane` when its utterance finalizes
(returning the lane's fast-GMM work counters, if any), and
:meth:`BatchScoringBackend.compact_lanes` when the bank shrinks to its
occupied lanes.  The stateless backends implement them as no-ops.
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from repro.core.logadd import LOG_DEAD, LOG_ZERO
from repro.core.opunit import GaussianTable, OpUnit
from repro.decoder.fast_gmm import FastGmmLaneState, FastGmmModel, FastGmmStats
from repro.hmm.senone import SenonePool

__all__ = [
    "BatchScoringBackend",
    "BatchReferenceScorer",
    "BatchHardwareScorer",
    "BatchFastGmmScorer",
    "BatchBlasScorer",
    "LOG_ZERO",
]


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

        The banks send the items row-major sorted, as ``np.nonzero``
        over the candidate mask produces them.  ``lanes`` lists every
        ACTIVE lane this step, ascending — a superset of
        ``np.unique(pair_rows)``, since an active lane may demand no
        senones on a frame.  Stateless backends ignore it; the fast
        backend needs it to advance per-lane frame state exactly as a
        1-lane decode of that lane would, and refuses a lane that was
        not admitted.
        """
        ...  # pragma: no cover - protocol definition

    def reset(self) -> None:
        """Clear per-decode accounting."""
        ...  # pragma: no cover - protocol definition

    def admit_lane(self, lane: int, features: np.ndarray | None = None) -> None:
        """A lane was (re)seeded; forget any previous occupant's state.

        ``features`` is the lane's whole ``(T, L)`` utterance when the
        caller has it (``None`` for a fed lane): a backend may score
        ahead of the search from it, and must not need it.
        """
        ...  # pragma: no cover - protocol definition

    def retire_lane(self, lane: int) -> FastGmmStats | None:
        """A lane finalized; detach and return its work counters (if any)."""
        ...  # pragma: no cover - protocol definition

    def compact_lanes(self, keep: Sequence[int]) -> None:
        """The bank shrank: old lane ``keep[i]`` is now lane ``i``."""
        ...  # pragma: no cover - protocol definition


class _StatelessLaneMixin:
    """No-op lane lifecycle for backends without per-lane state."""

    def admit_lane(self, lane: int, features: np.ndarray | None = None) -> None:
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
        """Exact scores of the work items, ``-inf`` mapped to ``LOG_ZERO``.

        A senone with no finite score is "no path", not ``-inf``; the
        map is one in-place ``maximum`` (NaN propagates through it
        untouched, so a poisoned score still surfaces).  It cannot
        move a finite score: a log-sum-exp is at least its best
        component's log density, and that reaches ``LOG_ZERO`` only for
        a frame some 1e15 standard deviations from every mean — far
        outside any finite-energy audio, and the search would read
        such a score (anything at or below ``LOG_DEAD``) as dead anyway.
        """
        if pair_senones.size == 0:
            return np.empty(0)
        compact = self.pool.score_pairs(observations, pair_rows, pair_senones)
        return np.maximum(compact, LOG_ZERO, out=compact)

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


#: Frames of ONE lane scored ahead in one whole-table product.
BLOCK_FRAMES = 32
#: Fewest work items a step must hold for the products to serve it.
MIN_PAIRS = 32
#: Least share of its ``rows x union`` grid a step's items must cover
#: for the union block to serve it.
MIN_DENSITY = 0.25


def _frozen(array) -> bool:
    """A read-only array that owns its data: it stays the work items it
    was when it was validated for as long as it stays this object."""
    return (
        isinstance(array, np.ndarray)
        and array.flags.owndata
        and not array.flags.writeable
    )


class _LaneAhead:
    """A lane admitted with its audio, and the block scored ahead of it."""

    __slots__ = ("features", "frames", "scores", "offset", "precision")

    def __init__(self, features: np.ndarray) -> None:
        self.features = features  # from the block's first frame on
        self.frames: list[bytes] = []  # each block row's frame as it was scored
        self.scores = None  # (len(frames), N), LOG_ZERO-mapped
        self.offset = 0  # the block row of the lane's next frame
        self.precision = None  # the table format the block was scored on


class BatchBlasScorer:
    """Pooled matmul-form (BLAS) scoring for the batched runtimes.

    Three kernels, selected per step by what that step's (validated)
    work items look like — there is no option for it:

    * **full grid** — exactly ``rows x every senone`` in ``np.nonzero``
      order (what a ``use_feedback=False`` bank sends; checked pair by
      pair, never inferred from the count): the answer is dense blocks
      of :meth:`~repro.hmm.senone.SenonePool.score_block_blas` over the
      whole tables — two products, one in-place constant add, one fold,
      no index array built, gathered or scattered — scored AHEAD per
      lane where the lane's audio is known (below);
    * **union block** — other demand covering at least
      :data:`MIN_DENSITY` of its ``rows x union`` grid: the products
      run on the demanded senones' gathered row blocks (a paper-scale
      pool never streams parameters nobody asked for) and the items
      are read out of it;
    * **gathered** — steps below :data:`MIN_PAIRS` items or
      :data:`MIN_DENSITY` coverage run the exact per-pair kernel
      (:meth:`~repro.hmm.senone.SenonePool.score_pairs`).

    ``dense_steps`` counts the steps the first two served,
    ``fallback_steps`` the third, ``table_streams`` the passes over the
    WHOLE tables (one per ``score_block_blas(senones=None)``) — what
    the paper's parameter-bandwidth figure multiplies.

    **Scored ahead.**  Full-grid demand does not depend on the search,
    so a lane admitted with its features (:meth:`admit_lane`) is scored
    a block of up to :data:`BLOCK_FRAMES` of ITS OWN next frames at a
    time — one product, constant add, fold and ``LOG_ZERO`` map per
    block instead of per 10 ms frame, in the step that needs the
    block's first row — and the following steps read one row each.  A
    block row answers a step only if that step's ``observations`` row
    EQUALS the frame the row was scored from (kept as a copy) and the
    block was scored on the tables of the current ``precision``; a swap
    rescores from the lane's next frame.  A row that is not its lane's
    next frame drops the lane's state for good.  Such rows, and rows of
    lanes admitted without features (fed / streaming lanes, direct
    callers), are stacked into one direct product — the one-frame case
    of the same function.  :meth:`retire_lane` drops a lane's block
    (a cancelled lane wasted at most ``BLOCK_FRAMES - 1`` rows of
    scoring), :meth:`compact_lanes` moves it with its lane.  Because a
    lane's blocks are cut from its own utterance alone, the bits of its
    scores do not depend on the bank's width or on its co-tenants.

    The work items themselves are validated on every call
    (:meth:`~repro.hmm.senone.SenonePool.check_pairs`, then the exact
    grid test) — except the very OBJECTS that already passed: a bank's
    feedback-off grid is the same two read-only arrays every step, and
    an array that is read-only and owns its data cannot have changed.
    Equal-but-distinct or writeable arrays are validated again.

    ``precision`` is the dtype of the stored tables
    (:data:`~repro.hmm.senone.BLAS_PRECISIONS`): ``"float64"`` keeps
    the original tables, ``"float32"`` halves the bytes every dense
    step gathers and streams (drift within
    :data:`~repro.decoder.scorer.FLOAT32_SCORE_ATOL` of the float64
    backend).  The sparse-step fallback always runs the exact gathered
    kernel regardless of table precision.

    ``exact = False``: words match the reference decode, scores agree
    within :data:`~repro.decoder.scorer.BLAS_SCORE_ATOL` (dot-product
    summation order only; both kernels are float64 over the same
    parameters) at float64 precision, within the float32 bound above
    otherwise.
    """

    exact = False

    def __init__(self, pool: SenonePool, precision: str = "float64") -> None:
        self.pool = pool
        self.num_senones = pool.num_senones
        self.precision = precision
        self._every_senone = np.arange(pool.num_senones)
        # A block's (frames, N, M) intermediate stays inside the pool's
        # scratch budget however large the tables are.
        per_frame = pool.num_senones * pool.num_components
        self._block_frames = max(
            1, min(BLOCK_FRAMES, pool.SCORE_SCRATCH_ELEMENTS // per_frame)
        )
        self.reset()
        pool.blas_tables(precision)  # build once up front, not on the first step

    # -- lane lifecycle -------------------------------------------------
    def reset(self) -> None:
        self.dense_steps = 0
        self.fallback_steps = 0
        self.table_streams = 0
        self._ahead: dict[int, _LaneAhead] = {}
        self._grid = None  # (pair_rows, pair_senones, rows) that passed AS OBJECTS

    def admit_lane(self, lane: int, features: np.ndarray | None = None) -> None:
        self._ahead.pop(lane, None)  # never a previous occupant's rows
        if features is not None:
            self._ahead[lane] = _LaneAhead(features)

    def retire_lane(self, lane: int) -> FastGmmStats | None:
        self._ahead.pop(lane, None)
        return None

    def compact_lanes(self, keep: Sequence[int]) -> None:
        ahead = self._ahead
        self._ahead = {
            new: ahead[old] for new, old in enumerate(keep) if old in ahead
        }

    # ------------------------------------------------------------------
    def _full_grid_rows(self, pair_rows: np.ndarray, pair_senones: np.ndarray):
        """The ascending row list if the (validated) work items are
        exactly ``rows x every senone`` in ``np.nonzero`` order, else
        ``None`` — a short, duplicated or permuted list does not pass."""
        n = self.num_senones
        k, ragged = divmod(pair_senones.size, n)
        if ragged or pair_rows.ndim != 1:
            return None
        rows = pair_rows[::n]
        if (
            (np.diff(rows) <= 0).any()
            or (pair_senones.reshape(k, n) != self._every_senone).any()
            or (pair_rows.reshape(k, n) != rows[:, None]).any()
        ):
            return None
        return rows.tolist()

    def _score_table(self, frames: np.ndarray) -> np.ndarray:
        """Every senone for every row of ``frames`` in ONE pass over
        the whole tables."""
        self.table_streams += 1
        block = self.pool.score_block_blas(frames, precision=self.precision)
        # A senone with no finite score is "no path", not -inf.
        block[np.isneginf(block)] = LOG_ZERO
        return block

    def _next_row(self, ahead: _LaneAhead, frame: np.ndarray):
        """The scored-ahead answer for ``frame`` if it IS the lane's
        next frame, else ``None``; scores the lane's next block first
        when the last one is used up or was scored on other tables."""
        if ahead.offset == len(ahead.frames) or ahead.precision != self.precision:
            ahead.features = ahead.features[ahead.offset :]
            ahead.offset = 0
            ahead.precision = self.precision
            block = np.asarray(
                ahead.features[: self._block_frames], dtype=np.float64
            )
            ahead.frames = [row.tobytes() for row in block]
            if ahead.frames:
                ahead.scores = self._score_table(block)
        offset = ahead.offset
        if offset == len(ahead.frames) or frame.tobytes() != ahead.frames[offset]:
            return None
        ahead.offset = offset + 1
        return ahead.scores[offset]

    def _score_grid(self, obs: np.ndarray, rows: list[int]) -> np.ndarray:
        """One full-grid step: a row from its lane's block where that
        is the frame it was scored from, the rest in one direct product."""
        self.dense_steps += 1
        lanes_ahead = self._ahead
        out = np.empty((len(rows), self.num_senones))
        direct = []
        for i, row in enumerate(rows):
            ahead = lanes_ahead.get(row)
            if ahead is not None:
                scores = self._next_row(ahead, obs[row])
                if scores is not None:
                    out[i] = scores
                    continue
                del lanes_ahead[row]  # for good: its cursor is lost
            direct.append(i)
        if direct:
            out[direct] = self._score_table(obs[[rows[i] for i in direct]])
        return out.ravel()

    def score_pairs(
        self,
        observations: np.ndarray,
        pair_rows: np.ndarray,
        pair_senones: np.ndarray,
        lanes: np.ndarray | None = None,
    ) -> np.ndarray:
        if np.size(pair_senones) == 0:
            return np.empty(0)
        pool = self.pool
        grid = self._grid
        if (
            grid is not None
            and pair_rows is grid[0]
            and pair_senones is grid[1]
            and _frozen(pair_rows)
            and _frozen(pair_senones)
        ):
            rows = grid[2]
            obs = pool.check_block(observations, min_rows=rows[-1] + 1)
            return self._score_grid(obs, rows)
        obs, pair_b, pair_s = pool.check_pairs(observations, pair_rows, pair_senones)
        compact = None
        if pair_s.size >= MIN_PAIRS:
            rows = self._full_grid_rows(pair_b, pair_s)
            if rows is not None:
                if _frozen(pair_rows) and _frozen(pair_senones):
                    self._grid = (pair_rows, pair_senones, rows)
                return self._score_grid(obs, rows)
            # Demanded rows and senone union via masks (no sorts).
            row_mask = np.zeros(obs.shape[0], dtype=bool)
            row_mask[pair_b] = True
            rows = np.flatnonzero(row_mask)
            sen_mask = np.zeros(self.num_senones, dtype=bool)
            sen_mask[pair_s] = True
            union = np.flatnonzero(sen_mask)
            if pair_s.size >= MIN_DENSITY * rows.size * union.size:
                # A demanded row / senone's position in the block.
                row_pos, col_pos = np.cumsum(row_mask) - 1, np.cumsum(sen_mask) - 1
                compact = pool.score_block_blas(
                    obs[rows], union, precision=self.precision
                )[row_pos[pair_b], col_pos[pair_s]]
        if compact is None:
            self.fallback_steps += 1
            compact = pool.score_pairs(obs, pair_b, pair_s)
        else:
            self.dense_steps += 1
        # A senone with no finite score is "no path", not -inf.
        compact[np.isneginf(compact)] = LOG_ZERO
        return compact


# Columns of the per-lane counter block: FastGmmStats' fields, in order.
_FRAMES, _SKIPPED, _FULL, _APPROXIMATED = range(4)
_WORK = slice(4, 8)  # Gaussians evaluated/possible, dims evaluated/possible


class BatchFastGmmScorer:
    """Pooled four-layer fast-GMM scoring as whole-bank array passes.

    The shared :class:`~repro.decoder.fast_gmm.FastGmmModel` is
    read-only and serves every lane and every twin; everything a step
    writes is an array owned by THIS scorer and indexed by lane: the
    CDS previous frame ``(B, L)`` and score cache ``(B, N)``, the skip
    runs, and a ``(B, 8)`` counter block that :meth:`retire_lane` turns
    into a :class:`~repro.decoder.fast_gmm.FastGmmStats`.  A step is a
    fixed number of array passes whatever the bank width:

    * layer 1 compares every warm lane's frame with ITS previous frame
      in one reduction (different lanes skip different steps) and
      clears a scoring lane's cache row, so the surviving demand —
      every item of a scoring lane, the cache misses of a skipping one —
      is one mask over the pairs, and answers are read back out of the
      cache;
    * layer 2 scores the unique ``(lane, CI parent)`` items of that
      demand in one Gaussian pass, applies each lane's margin against
      the best parent of ITS OWN items, and scores the selected CD
      senones in a second (layers 3-4 inside both:
      :meth:`~repro.decoder.fast_gmm.FastGmmModel.score_items`).

    Every kernel is per-item, so each lane's scores and all eight work
    counters are bit-identical to a 1-lane decode of the same
    features, for any batch composition and arrival order.
    """

    def __init__(self, model: FastGmmModel) -> None:
        self.model = model
        self.num_senones = model.num_senones
        pool, g = model.pool, model.components_per_item
        m, dim = pool.num_components, pool.dim
        self._work_per_item = np.array([g, m, g * dim, m * dim])
        # One record per lane, so growth and compaction move a lane's
        # state together.  Only CDS reads scores back: without it the
        # cache has no columns.
        cached = self.num_senones if model.config.cds_enabled else 0
        self._lane_dtype = np.dtype(
            [
                ("admitted", bool),
                ("has_last", bool),
                ("skip_run", np.int64),
                ("last_obs", np.float64, (dim,)),
                ("cache", np.float64, (cached,)),
                ("counters", np.int64, (8,)),
            ],
            align=True,
        )
        self.reset()

    # -- lane lifecycle -------------------------------------------------
    def reset(self) -> None:
        self._set_lanes(np.zeros(0, dtype=self._lane_dtype))

    def _set_lanes(self, state: np.ndarray) -> None:
        """Install the lane table and per-step scratch of its width."""
        self._lanes = state
        cfg = self.model.config
        self._codewords = np.zeros(state.size, dtype=np.int64)
        # (lane, CI parent) tables, all False / -inf between steps.
        parents = self.model.ci_ids.size if cfg.ci_selection_enabled else 0
        self._parent_mask = np.zeros((state.size, parents), dtype=bool)
        self._parent_scores = np.full((state.size, parents), -np.inf)

    def admit_lane(self, lane: int, features: np.ndarray | None = None) -> None:
        grow = lane + 1 - self._lanes.size
        if grow > 0:
            pad = np.zeros(grow, dtype=self._lane_dtype)
            self._set_lanes(np.concatenate([self._lanes, pad]))
        # The cache row needs no clearing: a lane's first frame always
        # scores in full, which clears it.
        state = self._lanes[lane]
        state["admitted"] = True
        state["has_last"] = False
        state["skip_run"] = 0
        state["counters"] = 0

    def _is_admitted(self, lane: int) -> bool:
        return 0 <= lane < self._lanes.size and bool(self._lanes["admitted"][lane])

    def retire_lane(self, lane: int) -> FastGmmStats | None:
        if not self._is_admitted(lane):
            return None
        self._lanes["admitted"][lane] = False
        return FastGmmStats(*self._lanes["counters"][lane].tolist())

    def compact_lanes(self, keep: Sequence[int]) -> None:
        self._set_lanes(self._lanes[np.asarray(keep, dtype=np.int64)])

    def lane_state(self, lane: int) -> FastGmmLaneState:
        """A copy of an occupied lane's selection state (inspection)."""
        if not self._is_admitted(lane):
            raise KeyError(lane)
        state = self._lanes[lane]
        warm = bool(state["has_last"])
        return FastGmmLaneState(
            last_obs=state["last_obs"].copy() if warm else None,
            last_scores=state["cache"].copy() if warm else None,
            skip_run=int(state["skip_run"]),
            fast_stats=FastGmmStats(*state["counters"].tolist()),
        )

    # ------------------------------------------------------------------
    def score_pairs(
        self,
        observations: np.ndarray,
        pair_rows: np.ndarray,
        pair_senones: np.ndarray,
        lanes: np.ndarray | None = None,
    ) -> np.ndarray:
        cfg = self.model.config
        state = self._lanes
        observations, pair_rows, pair_senones = self.model.pool.check_pairs(
            observations, pair_rows, pair_senones
        )
        if lanes is None:
            lanes = np.unique(pair_rows)
        if not state["admitted"][lanes].all():  # IndexError past the capacity
            raise KeyError(f"lanes {lanes.tolist()} are not all admitted")
        counters = state["counters"]
        counters[lanes, _FRAMES] += 1
        if not cfg.cds_enabled:
            return self._score_demand(observations, pair_rows, pair_senones, lanes)

        # Layer 1: every warm lane's own CDS decision, in one reduction.
        has_last, skip_run, last_obs = (
            state["has_last"], state["skip_run"], state["last_obs"]
        )
        skips = has_last[lanes]
        warm = lanes[skips]
        if warm.size:
            distance = ((observations[warm] - last_obs[warm]) ** 2).mean(axis=1)
            skips[skips] = (distance < cfg.cds_distance) & (
                skip_run[warm] < cfg.cds_max_run
            )
        skipping, scoring = lanes[skips], lanes[~skips]
        skip_run[skipping] += 1
        counters[skipping, _SKIPPED] += 1
        skip_run[scoring] = 0
        has_last[scoring] = True
        last_obs[scoring] = observations[scoring]
        cache = state["cache"]
        cache[scoring] = LOG_ZERO
        # The demand that survives: what the cache cannot answer (all
        # of a scoring lane's items — its row was just cleared).
        rows, senones = pair_rows, pair_senones
        if skipping.size:
            missing = cache[pair_rows, pair_senones] <= LOG_DEAD
            rows, senones = pair_rows[missing], pair_senones[missing]
        scores = self._score_demand(observations, rows, senones, lanes)
        cache[rows, senones] = scores
        return cache[pair_rows, pair_senones] if skipping.size else scores

    def _score_demand(
        self,
        observations: np.ndarray,
        rows: np.ndarray,
        senones: np.ndarray,
        lanes: np.ndarray,
    ) -> np.ndarray:
        """Layers 2-4 over the pooled ``(row, senone)`` demand."""
        model = self.model
        cfg = model.config
        if senones.size == 0:
            return np.empty(0)
        codewords = None
        if cfg.gaussian_selection_enabled:
            codewords = self._codewords
            codewords[lanes] = model.codewords_for(observations[lanes])
        if not cfg.ci_selection_enabled:
            return self._gaussian_pass(observations, rows, senones, codewords)

        # Layer 2: the unique (row, parent) items, in np.nonzero order.
        ranks = model.ci_rank[senones]
        mask, table = self._parent_mask, self._parent_scores
        mask[rows, ranks] = True
        parent_rows, parent_ranks = np.nonzero(mask)
        mask[parent_rows, parent_ranks] = False
        table[parent_rows, parent_ranks] = self._gaussian_pass(
            observations, parent_rows, model.ci_ids[parent_ranks], codewords
        )
        scores = table[rows, ranks]  # approximation by CI parent
        # Each row's margin is against the best parent of ITS OWN items.
        best = table.max(axis=1)
        table[parent_rows, parent_ranks] = -np.inf
        expand = scores >= best[rows] - cfg.ci_margin
        is_ci = senones == model.ci_parent[senones]  # already evaluated
        full = expand | is_ci
        counters, width = self._lanes["counters"], self._lanes.size
        counters[:, _FULL] += np.bincount(rows[full], minlength=width)
        counters[:, _APPROXIMATED] += np.bincount(rows[~full], minlength=width)
        selected = expand & ~is_ci
        if selected.any():
            scores[selected] = self._gaussian_pass(
                observations, rows[selected], senones[selected], codewords
            )
        return scores

    def _gaussian_pass(
        self,
        observations: np.ndarray,
        rows: np.ndarray,
        senones: np.ndarray,
        codewords: np.ndarray | None,
    ) -> np.ndarray:
        """Layers 3-4 for the items, work accounted to each item's row."""
        scores, dims = self.model.score_items(observations, rows, senones, codewords)
        width = self._lanes.size
        work = np.bincount(rows, minlength=width)[:, None] * self._work_per_item
        if dims is not None:
            work[:, 2] = np.bincount(rows, weights=dims, minlength=width)
        self._lanes["counters"][:, _WORK] += work
        return scores
