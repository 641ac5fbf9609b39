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
:data:`BLOCK_FRAMES` frames in one product, and the table is streamed
once per block, not once per 10 ms frame.  Where the process may use
two CPUs, those products run on its ONE scoring worker thread (every
scorer in the process shares it) while the search runs on the lane's
current block — the paper's Figure 1 split, OP units scoring beside
the processor that searches (:mod:`repro.core.soc`); on one CPU they
run in line, in the step that runs out.  Either way a score has the same bits.  Every step still
checks that the frame it is handed is the frame the cached row was
scored from; a lane whose frames are not the admitted ones, a fed lane
and a caller without a lane are scored directly, one frame at a time,
by the same function.  A precision swap drops what was scored, or is
being scored, on the old tables; retiring a lane drops its blocks, so
a cancelled lane wastes under ``2 * BLOCK_FRAMES`` frames of scoring.

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

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
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

        The banks send the items ascending by their flat key
        ``pair_rows * num_senones + pair_senones`` — row-major, lanes
        ascending and each lane's senones ascending, unique.  ``lanes``
        lists every ACTIVE lane this step, strictly ascending — a
        superset of ``np.unique(pair_rows)``, since an active lane may
        demand no senones on a frame — and ``None`` means exactly
        ``np.unique(pair_rows)``.  Stateless backends ignore it.  The
        fast backend advances per-lane frame state (CDS decision, cache
        row, counters) for exactly these lanes, as a 1-lane decode of
        each would, so it refuses, before any state moves, a ``lanes``
        that is not 1-D, not strictly ascending, outside the observation
        rows or missing a pair row (``ValueError``) or holds a lane that
        was not admitted (``KeyError``).
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
        p = int(np.size(pair_senones))
        if p == 0:
            # No unit sees the call, so one validates it (and scores nothing).
            self.units[0].score_pairs(self.table, observations, pair_rows, pair_senones)
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
#: Float64 elements a block's ``(frames, N, M)`` intermediate may hold
#: (32 MB): a paper-scale pool gets a shorter block, not more memory; the
#: fold's first level adds M ``(frames, N)`` planes at most (at M = 2 one
#: peak plane: it writes into the block's rows).  Resident besides: two
#: blocks of scores per lane at most (the one read and the next), allocated
#: by the search thread and written by the worker through ``out=``
#: (worker-allocated rows read ≈ +7 MB peak RSS on ``bank_dense``), and ONE
#: intermediate on the process's scoring worker, one pass at a time.
BLOCK_SCRATCH_ELEMENTS = 4_000_000
#: Unread rows left in a lane's block when its next block goes to the
#: scoring worker.  The lead barely moves the time on ``bank_dense``
#: (2 vCPUs, in-process against in-line scoring, two sweeps at leads
#: 8 / 11 / 16 / 32: +17 / +22 / +23 / +30 % on a quiet box, +6 / +3 /
#: −1 / −5 % on a busy one): the worker is busy most of each step, so
#: a lane that runs out mostly waits behind other lanes' blocks, not
#: its own.  What the lead does set is the waste: a swap or cancel
#: that lands in a block's last ``LEAD_FRAMES`` rows throws the next
#: block's pass away.  At 11, one in the first two thirds of a block
#: costs no pass.
LEAD_FRAMES = 11
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


def _cpus() -> int:
    """The CPUs this process may run on (every CPU where the OS cannot
    say, as on macOS)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _ScoringWorker:
    """The process's ONE scoring worker thread, shared by every blas
    scorer in it (every twin of a thread-sharded ``Server``), started on
    first use; and the gate every whole-table pass runs inside.

    ``os.fork`` waits at the gate until no pass runs, and no pass starts
    until the fork is done: OpenBLAS tears its thread pool down when the
    process forks, and a thread that is inside a threaded product at
    that moment, or the fork itself, never returns (the thread spins at
    full CPU for good, and so does every later threaded product).  The
    worker runs its blocks while other threads go on, so a fork — a
    sharded ``Server`` starting its shards — could land on one.
    (``subprocess`` starts children by ``vfork``, which runs no fork
    handlers.)  The child gets an open gate and no worker: it starts its
    own on first use."""

    def __init__(self) -> None:
        self._reset()
        if hasattr(os, "register_at_fork"):
            os.register_at_fork(
                before=self._close,
                after_in_parent=self._open,
                after_in_child=self._reset,
            )

    def _reset(self) -> None:
        """Open, with no pass running and no thread (the child has no
        other thread)."""
        self._idle = threading.Condition()
        self._running = 0
        self._executor: ThreadPoolExecutor | None = None

    def executor(self) -> ThreadPoolExecutor | None:
        """The worker, or ``None`` where the process may run on one CPU
        only (read at every call: ``taskset`` may move a live process)."""
        if _cpus() < 2:
            return None
        with self._idle:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(1, thread_name_prefix="blas-ahead")
            return self._executor

    def __enter__(self) -> None:
        with self._idle:
            self._running += 1

    def __exit__(self, *exc) -> None:
        with self._idle:
            self._running -= 1
            if not self._running:
                self._idle.notify_all()

    def _close(self) -> None:
        """Before a fork: wait out the passes, then hold the gate shut."""
        self._idle.acquire()
        while self._running:
            self._idle.wait()

    def _open(self) -> None:
        self._idle.release()


_WORKER = _ScoringWorker()


class _Block:
    """A block of one lane's frames and their scores: submitted, then
    installed."""

    __slots__ = ("start", "frames", "precision", "scores", "future", "pid", "busy_s")

    def __init__(self, start: int, frames: list[bytes], precision: str | None) -> None:
        self.start = start  # the utterance frame of the block's first row
        self.frames = frames  # each row's frame as it was scored
        self.precision = precision  # the table format it is scored on
        self.scores = None  # (len(frames), N), LOG_ZERO-mapped
        self.future = None  # the worker's pass, until the block is installed
        self.pid = os.getpid()  # the process whose worker runs that pass
        self.busy_s = 0.0  # that pass's own time


class _LaneAhead:
    """A lane admitted with its audio, and the blocks scored ahead of it."""

    __slots__ = ("features", "block", "offset", "lead", "pending")

    def __init__(self, features: np.ndarray) -> None:
        self.features = features  # the lane's whole utterance
        self.block = _Block(0, [], None)  # the block its rows are read from
        self.offset = 0  # the block row of the lane's next frame
        self.lead = -1  # the row whose read sends the next block to the worker
        self.pending = None  # the next block, on the worker


class BatchBlasScorer:
    """Pooled matmul-form (BLAS) scoring for the batched runtimes.

    Three kernels, selected per step by what that step's (validated)
    work items look like — there is no option for it:

    * **full grid** — exactly ``rows x every senone`` in ``np.nonzero``
      order (what a ``use_feedback=False`` bank sends; checked pair by
      pair, never inferred from the count): the answer is dense blocks
      of :meth:`~repro.hmm.senone.SenonePool.score_block_blas` over the
      whole table — one product (the mixture constant rides in the
      table), one fold, no index array built, gathered or scattered —
      scored AHEAD per lane where the lane's audio is known (below);
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
    WHOLE table (one per ``score_block_blas(senones=None)``) — what
    the paper's parameter-bandwidth figure multiplies.  A block's pass
    counts when the block is read or dropped: a submitted pass is never
    cancelled, so a dropped block ran too, whatever the threads' timing.

    **Scored ahead.**  Full-grid demand does not depend on the search,
    so a lane admitted with its features (:meth:`admit_lane`) is scored
    a block of up to :data:`BLOCK_FRAMES` of ITS OWN next frames at a
    time — one product, fold and ``LOG_ZERO`` map per block instead
    of per 10 ms frame — and the steps read one row each.  Where the
    process may use two CPUs, the blocks run on the process's ONE
    scoring worker thread (shared by every scorer) beside the search,
    as the paper's OP units score beside its processor: a lane's first
    block is submitted at :meth:`admit_lane` and each next one when
    :data:`LEAD_FRAMES` rows of the block before it are left, so a step
    only waits for a block the worker has not finished
    (``block_wait_s``) and never scores one itself.  On one
    CPU the blocks are scored in line, in the step that needs the
    block's first row.  Either way each block is one
    ``score_block_blas`` call on a copy of its frames taken at submit
    time, into rows allocated here, with BLAS at the caller's thread
    count — so a score's bits do not depend on where it ran.
    ``block_busy_s`` is the read blocks' own time, on whichever thread.

    A block row answers a step only if that step's ``observations``
    row EQUALS the frame the row was scored from and the block was
    scored on the table of the current ``precision``; setting the
    ``precision`` drops every block in flight and a lane rescores from
    its next frame.  A row that is not its lane's next frame drops the
    lane's state for good.  Such rows, and rows of lanes admitted
    without features (fed / streaming lanes, direct callers), are
    stacked into one direct product on the calling thread — the
    one-frame case of the same function.  :meth:`retire_lane` and
    :meth:`reset` drop a lane's blocks — a cancelled lane wasted the
    rest of its block and the next one in flight, at most
    ``BLOCK_FRAMES + LEAD_FRAMES`` rows and so under
    ``2 * BLOCK_FRAMES - 1`` — and :meth:`compact_lanes` moves them
    with their lane.  Because a lane's blocks are cut from its own
    utterance alone, the bits of its scores do not depend on the bank's
    width or on its co-tenants.  The worker belongs to the process that
    started it: a forked child starts its own and rescores what its
    parent's worker still owed, and a fork waits for the block the
    worker is scoring (:class:`_ScoringWorker`).

    The work items themselves are validated on every call
    (:meth:`~repro.hmm.senone.SenonePool.check_pairs`, then the exact
    grid test) — except the very OBJECTS that already passed: a bank's
    feedback-off grid is the same two read-only arrays every step, and
    an array that is read-only and owns its data cannot have changed.
    Equal-but-distinct or writeable arrays are validated again.

    ``precision`` is the dtype of the stored table
    (:data:`~repro.hmm.senone.BLAS_PRECISIONS`): ``"float64"`` keeps
    the full-width table, ``"float32"`` halves the bytes every dense
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
        pool.blas_tables(precision)  # build once up front, not on the first step
        self._precision = precision
        self._every_senone = np.arange(pool.num_senones)
        per_frame = pool.num_senones * pool.num_components
        self._block_frames = max(
            1, min(BLOCK_FRAMES, BLOCK_SCRATCH_ELEMENTS // per_frame)
        )
        self._ahead: dict[int, _LaneAhead] = {}
        self.reset()

    @property
    def precision(self) -> str:
        return self._precision

    @precision.setter
    def precision(self, precision: str) -> None:
        """Swap the table format; every block in flight is dropped."""
        if precision == self._precision:
            return
        self.pool.blas_tables(precision)  # built here, never on the worker
        self._precision = precision
        for ahead in self._ahead.values():
            self._drop(ahead)

    # -- lane lifecycle -------------------------------------------------
    def reset(self) -> None:
        self.dense_steps = 0
        self.fallback_steps = 0
        self.table_streams = 0
        self.block_busy_s = 0.0  # the read blocks' own time, on whichever thread
        self.block_wait_s = 0.0  # steps waiting for the worker's block
        self._ahead = {}  # a block still on the worker runs, unread, uncounted
        self._grid = None  # (pair_rows, pair_senones, rows) that passed AS OBJECTS

    def admit_lane(self, lane: int, features: np.ndarray | None = None) -> None:
        self._drop(self._ahead.pop(lane, None))  # never a previous occupant's rows
        if features is not None:
            ahead = self._ahead[lane] = _LaneAhead(features)
            if _WORKER.executor() is not None:
                ahead.pending = self._submit(ahead, 0)

    def retire_lane(self, lane: int) -> FastGmmStats | None:
        self._drop(self._ahead.pop(lane, None))
        return None

    def compact_lanes(self, keep: Sequence[int]) -> None:
        ahead = self._ahead
        self._ahead = {
            new: ahead.pop(old) for new, old in enumerate(keep) if old in ahead
        }
        for gone in ahead.values():
            self._drop(gone)

    # -- blocks ----------------------------------------------------------
    def _score_ahead(self, block: _Block, frames: np.ndarray) -> float:
        """One block's pass into its rows; returns the pass's own time."""
        t0 = time.perf_counter()
        self._score_table(frames, block.precision, block.scores)
        return time.perf_counter() - t0

    def _submit(self, ahead: _LaneAhead, start: int) -> _Block:
        """The lane's block from frame ``start`` on the current tables:
        its frames copied (the block is scored from, and checked
        against, that one snapshot), then scored — on the worker when
        there is one, else here."""
        frames = np.array(
            ahead.features[start : start + self._block_frames], dtype=np.float64
        )
        block = _Block(start, [row.tobytes() for row in frames], self._precision)
        if block.frames:
            block.scores = np.empty((len(block.frames), self.num_senones))
            worker = _WORKER.executor()
            if worker is None:
                block.busy_s = self._score_ahead(block, frames)
            else:
                block.future = worker.submit(self._score_ahead, block, frames)
        return block

    def _drop(self, ahead: _LaneAhead | None) -> None:
        """Forget the lane's block in flight; its pass runs all the same,
        so it counts."""
        if ahead is not None and ahead.pending is not None:
            self.table_streams += bool(ahead.pending.frames)
            ahead.pending = None

    def _install(self, ahead: _LaneAhead) -> _Block:
        """The block holding the lane's next frame on the current tables:
        the one in flight (a swap drops that one, so it is never of other
        tables), else one cut now (in line, after a swap, or in a forked
        child whose parent's worker owed it).  Waits for the worker's
        pass and counts it."""
        block, ahead.pending = ahead.pending, None
        if block is None or (block.future is not None and block.pid != os.getpid()):
            block = self._submit(ahead, ahead.block.start + ahead.offset)
        if block.future is not None:
            t0 = time.perf_counter()
            block.busy_s = block.future.result()  # the worker's error surfaces here
            self.block_wait_s += time.perf_counter() - t0
            block.future = None
        if block.frames:
            self.table_streams += 1
            self.block_busy_s += block.busy_s
        ahead.block, ahead.offset = block, 0
        rows = len(block.frames)
        ahead.lead = (
            max(0, rows - LEAD_FRAMES - 1)
            if block.start + rows < len(ahead.features)
            and _WORKER.executor() is not None
            else -1
        )
        return block

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

    def _score_table(
        self, frames: np.ndarray, precision: str, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Every senone for every row of ``frames`` in ONE pass over
        the whole table (uncounted: the callers count), never across a
        fork (:class:`_ScoringWorker`)."""
        with _WORKER:
            block = self.pool.score_block_blas(frames, precision=precision, out=out)
        # A senone with no finite score is "no path", not -inf.
        return np.maximum(block, LOG_ZERO, out=block)

    def _next_row(self, ahead: _LaneAhead, frame: np.ndarray):
        """The scored-ahead answer for ``frame`` if it IS the lane's
        next frame, else ``None``; installs the lane's next block first
        when the last one is used up or was scored on other tables, and
        sends the one after it to the worker when :data:`LEAD_FRAMES`
        rows are left."""
        block = ahead.block
        if ahead.offset == len(block.frames) or block.precision != self._precision:
            block = self._install(ahead)
        offset = ahead.offset
        if offset == len(block.frames) or frame.tobytes() != block.frames[offset]:
            return None
        ahead.offset = offset + 1
        if offset == ahead.lead:
            ahead.pending = self._submit(ahead, block.start + len(block.frames))
        return block.scores[offset]

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
                self._drop(lanes_ahead.pop(row))  # for good: its cursor is lost
            direct.append(i)
        if direct:
            self.table_streams += 1
            out[direct] = self._score_table(
                obs[[rows[i] for i in direct]], self._precision
            )
        return out.ravel()

    def score_pairs(
        self,
        observations: np.ndarray,
        pair_rows: np.ndarray,
        pair_senones: np.ndarray,
        lanes: np.ndarray | None = None,
    ) -> np.ndarray:
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
        if pair_s.size == 0:
            return np.empty(0)
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
        return np.maximum(compact, LOG_ZERO, out=compact)


# Columns of the per-lane counter block: FastGmmStats' fields, in order.
_FRAMES, _SKIPPED, _FULL, _APPROXIMATED = range(4)
_WORK = slice(4, 8)  # Gaussians evaluated/possible, dims evaluated/possible


class BatchFastGmmScorer:
    """Pooled four-layer fast-GMM scoring as whole-bank array passes.

    The shared :class:`~repro.decoder.fast_gmm.FastGmmModel` is
    read-only and serves every lane and every twin; everything a step
    writes is an array owned by THIS scorer and indexed by lane: a lane
    record (the CDS previous frame ``(B, L)``, the skip runs, and a
    ``(B, 8)`` counter block that :meth:`retire_lane` turns into a
    :class:`~repro.decoder.fast_gmm.FastGmmStats`) and the CDS score
    cache, a contiguous ``(B, N)`` array read and written at the flat
    key ``lane * N + senone``.  The step's ``lanes`` are validated
    first (see :meth:`BatchScoringBackend.score_pairs`).  A step is a
    fixed number of array passes whatever the bank width:

    * layer 1 compares every warm lane's frame with ITS previous frame
      in one reduction (different lanes skip different steps) and
      clears a scoring lane's cache row, so the surviving demand —
      every item of a scoring lane, the cache misses of a skipping one —
      is one mask over the pairs, and answers are read back out of the
      cache;
    * layer 2 scores the unique ``(lane, CI parent)`` items of that
      demand (one flat mask and score table keyed ``lane * C + rank``)
      in one Gaussian pass, applies each lane's margin against
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
        # state together.  The CDS score cache is the one field read at
        # (lane, senone) pairs, so it is its own contiguous (B, N) array
        # keyed ``lane * N + senone``; only CDS reads scores back, so
        # without it the cache has no columns.
        self._cached = self.num_senones if model.config.cds_enabled else 0
        self._lane_dtype = np.dtype(
            [
                ("admitted", bool),
                ("has_last", bool),
                ("skip_run", np.int64),
                ("last_obs", np.float64, (dim,)),
                ("counters", np.int64, (8,)),
            ],
            align=True,
        )
        self.reset()

    # -- lane lifecycle -------------------------------------------------
    def reset(self) -> None:
        self._set_lanes(
            np.zeros(0, dtype=self._lane_dtype), np.zeros((0, self._cached))
        )

    def _set_lanes(self, state: np.ndarray, cache: np.ndarray) -> None:
        """Install the lane table, its score cache and the per-step
        scratch of their width."""
        self._lanes, self._cache = state, cache
        cfg = self.model.config
        self._codewords = np.zeros(state.size, dtype=np.int64)
        # (lane, CI parent) tables keyed ``lane * C + rank``, all False /
        # -inf between steps.
        parents = self.model.ci_ids.size if cfg.ci_selection_enabled else 0
        self._parent_mask = np.zeros(state.size * parents, dtype=bool)
        self._parent_scores = np.full(state.size * parents, -np.inf)

    def admit_lane(self, lane: int, features: np.ndarray | None = None) -> None:
        grow = lane + 1 - self._lanes.size
        if grow > 0:
            self._set_lanes(
                np.concatenate([self._lanes, np.zeros(grow, dtype=self._lane_dtype)]),
                np.concatenate([self._cache, np.zeros((grow, self._cached))]),
            )
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
        keep = np.asarray(keep, dtype=np.int64)
        self._set_lanes(self._lanes.take(keep), self._cache.take(keep, axis=0))

    def lane_state(self, lane: int) -> FastGmmLaneState:
        """A copy of an occupied lane's selection state (inspection)."""
        if not self._is_admitted(lane):
            raise KeyError(lane)
        state = self._lanes[lane]
        warm = bool(state["has_last"])
        return FastGmmLaneState(
            last_obs=state["last_obs"].copy() if warm else None,
            last_scores=self._cache[lane].copy() if warm else None,
            skip_run=int(state["skip_run"]),
            fast_stats=FastGmmStats(*state["counters"].tolist()),
        )

    def _check_lanes(
        self, lanes, observations: np.ndarray, pair_rows: np.ndarray
    ) -> np.ndarray:
        """``lanes`` as the protocol defines it, or an error before any
        state changes: strictly ascending rows of ``observations``
        (``ValueError``), every one admitted (``KeyError``), covering
        every pair row (``ValueError``).  A lane left out of its own
        pairs would read a cache row that was never cleared; a negative
        lane would advance another lane's frame state."""
        lanes = np.asarray(lanes)
        if lanes.ndim != 1 or lanes.dtype.kind not in "iu":
            raise ValueError(f"lanes must be a 1-D integer array, got {lanes!r}")
        lane_list, rows = lanes.tolist(), observations.shape[0]
        if lane_list != sorted(set(lane_list)):
            raise ValueError(f"lanes {lane_list} are not strictly ascending")
        if lane_list and (lane_list[0] < 0 or lane_list[-1] >= rows):
            raise ValueError(f"lanes {lane_list} outside the {rows} observation rows")
        admitted = self._lanes["admitted"]
        if lane_list and (
            lane_list[-1] >= admitted.size
            or np.count_nonzero(admitted.take(lanes)) != lanes.size
        ):
            raise KeyError(f"lanes {lane_list} are not all admitted")
        listed = np.zeros(rows, dtype=bool)
        listed[lanes] = True
        if np.count_nonzero(listed.take(pair_rows)) != pair_rows.size:
            raise ValueError(f"pair rows outside lanes {lane_list}")
        return lanes

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
        lanes = self._check_lanes(
            np.unique(pair_rows) if lanes is None else lanes, observations, pair_rows
        )
        counters = state["counters"]
        counters[:, _FRAMES][lanes] += 1
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
        counters[:, _SKIPPED][skipping] += 1
        skip_run[scoring] = 0
        has_last[scoring] = True
        last_obs[scoring] = observations[scoring]
        self._cache[scoring] = LOG_ZERO
        cache = self._cache.reshape(-1)  # keyed lane * N + senone
        key = pair_rows * self.num_senones
        key += pair_senones
        # The demand that survives: what the cache cannot answer (all
        # of a scoring lane's items — its row was just cleared).
        rows, senones, missed = pair_rows, pair_senones, key
        if skipping.size:
            missing = cache.take(key) <= LOG_DEAD
            rows, senones = pair_rows[missing], pair_senones[missing]
            missed = key[missing]
        scores = self._score_demand(observations, rows, senones, lanes)
        cache[missed] = scores
        return cache.take(key) if skipping.size else scores

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
            scores, dims = model.score_items(observations, rows, senones, codewords)
            self._count_work(rows, dims)
            return scores

        # Layer 2: the unique (row, parent) items, in row-major order,
        # on tables keyed ``row * C + rank``.
        parents = model.ci_ids.size
        key = rows * parents
        key += model.ci_rank.take(senones)
        mask, table = self._parent_mask, self._parent_scores
        mask[key] = True
        parent_key = np.flatnonzero(mask)
        mask.fill(False)
        parent_rows, parent_ranks = np.divmod(parent_key, parents)
        table[parent_key], dims = model.score_items(
            observations, parent_rows, model.ci_ids.take(parent_ranks), codewords
        )
        scores = table.take(key)  # approximation by CI parent
        # Each row's margin is against the best parent of ITS OWN items.
        best = table.reshape(-1, parents).max(axis=1)
        table.fill(-np.inf)
        expand = scores >= best.take(rows) - cfg.ci_margin
        is_ci = senones == model.ci_parent.take(senones)  # already evaluated
        full = expand | is_ci
        counters, width = self._lanes["counters"], self._lanes.size
        counters[:, _FULL] += np.bincount(rows[full], minlength=width)
        counters[:, _APPROXIMATED] += np.bincount(rows[~full], minlength=width)
        selected = expand & ~is_ci
        evaluated = parent_rows
        if selected.any():
            cd_rows = rows[selected]
            scores[selected], cd_dims = model.score_items(
                observations, cd_rows, senones[selected], codewords
            )
            if dims is not None or cd_dims is not None:
                full_dims = self._work_per_item[2]
                dims = np.concatenate([
                    np.full(parent_rows.size, full_dims) if dims is None else dims,
                    np.full(cd_rows.size, full_dims) if cd_dims is None else cd_dims,
                ])
            evaluated = np.concatenate([parent_rows, cd_rows])
        self._count_work(evaluated, dims)
        return scores

    def _count_work(self, rows: np.ndarray, dims: np.ndarray | None) -> None:
        """Account a step's Gaussian work to each evaluated item's row
        (``dims``: dimensions per item, ``None`` when all of them ran)."""
        width = self._lanes.size
        work = np.bincount(rows, minlength=width)[:, None] * self._work_per_item
        if dims is not None:
            work[:, 2] = np.bincount(rows, weights=dims, minlength=width)
        self._lanes["counters"][:, _WORK] += work
