"""Frame-synchronous decoding over a bank of lanes (the search engine).

The paper's architecture serves ONE microphone; the ROADMAP's north
star is heavy traffic.  Both are the same engine at different widths:
``Recognizer.decode`` and ``StreamingRecognizer`` feed a 1-lane bank
frame by frame, ``Recognizer.decode_stream`` (``decode_batch`` is a
stream as long as its lanes) and the serve loop step B lanes at once,
refilling retired lanes from a waiting queue mid-decode.
:class:`LaneBank` owns the stacked per-lane decode state — token scores
``delta`` as a ``(B, S)`` bank, what a token carries (``payload``,
``entry_frame``) as the two rows of ONE ``(2, B, S)`` record, per-lane
pending word entries, lattices and statistics — and the lane
*lifecycle*: :meth:`LaneBank.admit` seeds a free lane with a fresh
utterance, :meth:`LaneBank.step` advances every occupied lane by one
frame, :meth:`LaneBank.retire` finalizes a finished lane and frees it.
A frame is a short fixed list of whole-bank array passes (at 1 lane x
537 states their NUMBER is the cost): ONE pooled GMM evaluation, ONE
chain update handing back its two decisions as masks, the record moved
along them by three ``copyto`` (stay, forward, entry), ONE beam pass.
The pooled answer enters the token bank through ONE flat score row,
shared with the tree bank: it is written at its ``lane * N + senone``
keys in the token dtype (one slab per lane when the bank asked for the
whole grid) and read back with one ``take`` at every slot's key.  The
row is never cleared; a slot whose senone was not demanded reads an
older finite score, which the chain update's dead rule discards.

The word exits of every lane are recorded in ONE pass per step,
:meth:`LaneBankBase._record_exits`, for both lexicon networks: a bank
hands it the step's live word ends grouped by lane, and two small hooks
hold what the networks do differently — the score an exit is recorded
at and the entry offer its exits make for the next frame.  Lattices,
pending entries and per-frame statistics are indexed by the lane's OWN
frame counter (``lane_t``), never the global step.  Scoring backends
with per-lane state (fast-GMM's CDS
cache and work counters, blas blocks scored ahead) join the lifecycle
through admit/retire/compact hooks, so a reseeded lane can never
observe a previous occupant's state.  Because every batched operation
is elementwise or a per-row reduction, each utterance's word sequence,
path score and frame statistics are IDENTICAL to a 1-lane decode of the
same features (:class:`~repro.decoder.recognizer.Recognizer.decode`,
pinned by the committed fixtures of ``tests/golden/``), in reference,
hardware and fast modes — regardless of batch composition, admission
step, refill order or bank width.  A retired (or never admitted) lane's
state is frozen at ``LOG_ZERO`` so no idle step ever reaches a lattice
or a statistics record.

A bank is as wide as its occupied lanes, by one rule both drivers
(``decode_stream`` and the serve loop) follow: start at one lane, admit
into :meth:`LaneBankBase.open_lane` — the lowest free lane, or one
:meth:`LaneBankBase.grow` appends when every lane is occupied (the
driver holds the cap) — and :meth:`LaneBankBase.compact` away the free
lanes before each step.  Growth and compaction are ONE relayout
(:meth:`LaneBankBase._relayout`): occupied rows move down in order, a
new row is released frozen like a retired lane, scratch is rebuilt at
the new width and the scorer's lane state follows its lanes.
"""

from __future__ import annotations

import time
from time import perf_counter

import numpy as np

from repro.core.logadd import LOG_DEAD, LOG_ZERO
from repro.core.viterbi_unit import chain_update
from repro.decoder.beam import (
    apply_beam_batch,
    check_count,
    make_beam_scratch,
    select_word_exits,
)
from repro.decoder.best_path import BestPath, find_best_path
from repro.decoder.lattice import WordLattice
from repro.decoder.recognizer import (
    DecodeTiming, RecognitionResult, Recognizer, validate_utterance_features,
)
from repro.decoder.scorer import ScoringStats
from repro.decoder.word_decode import FrameStats, lm_history_of, prime_entries
from repro.obs.telemetry import DecodeTelemetry

__all__ = ["STAGES", "LaneBank", "LaneBankBase"]

# The stages of one step, a float each in the bank's ONE clock
# (``LaneBankBase.stage_s``).  ``score`` is the ``scorer.score_pairs``
# call alone, ``score_in`` the bank's own work on its answer (scatter,
# gather, entry bank), ``bookkeeping`` what ``step`` does around
# ``_advance``.
STAGES = (
    "candidates", "demand", "score", "score_in", "token_update", "token_move",
    "beam", "exits", "bookkeeping",
)


class LaneBankBase:
    """The shared admit/step/retire/cancel/grow/compact lane lifecycle.

    Subclasses own the stacked search state of one network family —
    :class:`LaneBank` runs the flat chain bank,
    :class:`~repro.runtime.lextree.TreeLaneBank` the lexical-tree token
    bank — through the ``_alloc_state``/``_advance``/... hooks below.
    Everything lane-lifecycle (occupancy, per-lane frame counters,
    feature gather, lattices, statistics, scorer lifecycle hooks,
    result packaging) lives here and is identical for both, so
    ``decode_stream`` and the serve loop drive either bank through one
    interface.
    """

    def __init__(self, recognizer: Recognizer, num_lanes: int) -> None:
        check_count("num_lanes", num_lanes, 1)
        self.recognizer = recognizer
        self.net = recognizer.network
        self.cfg = recognizer.config
        self.lm = recognizer.lm
        self.scorer = recognizer.scorer
        self.viterbi_unit = recognizer.viterbi_unit
        self.num_lanes = num_lanes

        # Lane lifecycle: occupancy, per-lane frame counters and the
        # per-lane artifacts a retirement will package into a result.
        self.active = np.zeros(num_lanes, dtype=bool)
        self.lane_t = np.zeros(num_lanes, dtype=np.int64)
        self.lane_len = np.zeros(num_lanes, dtype=np.int64)
        self.lane_utt = np.full(num_lanes, -1, dtype=np.int64)
        self.lane_feats: list[np.ndarray | None] = [None] * num_lanes
        self.lane_enqueued: list[float] = [0.0] * num_lanes
        self.lane_admitted: list[float] = [0.0] * num_lanes
        self.lattices: list[WordLattice | None] = [None] * num_lanes
        self.lane_frame_stats: list[list[FrameStats]] = [[] for _ in range(num_lanes)]

        # The stage clock: seconds per STAGES entry, stamped once per
        # stage boundary as plain floats (a numpy element costs 4x a
        # stamp).  Bank-level totals that `compact` keeps; per-lane
        # attribution is the delta between a lane's admission mark and
        # its retirement, so concurrent lanes each observe the engine
        # work of the steps they rode in.
        self.stage_s = [0.0] * len(STAGES)
        self._lane_marks: list[tuple | None] = [None] * num_lanes

        self._alloc_state()
        self._alloc_scratch()

        self.steps = 0
        self.frames_processed = 0

    # -- network-family hooks ------------------------------------------
    def _alloc_state(self) -> None:
        """Allocate the stacked search state and network constants."""
        raise NotImplementedError

    def _alloc_scratch(self) -> None:
        """(Re)allocate per-step scratch at the current lane width
        (subclasses extend with their own buffers)."""
        num_lanes, num_senones = self.num_lanes, self.scorer.num_senones
        self._obs_block = np.zeros((num_lanes, self.recognizer.pool.dim))
        # (lane, senone) is ONE flat key, ``lane * N + senone``: the key
        # of every (lane, state) slot, flat like the slots, and the
        # demand mask it is marked in.
        self._slot_key = (
            np.arange(num_lanes)[:, None] * num_senones + self.net.senone_id
        ).reshape(-1)
        self._cand_mask = np.zeros(num_lanes * num_senones, dtype=bool)
        self._grid = None  # the feedback-off demand, built by `_demand`
        # The ONE score row (`_land`), in the token dtype.  It is never
        # cleared: a key not demanded this step keeps an older score,
        # which must be finite, so it starts at LOG_ZERO and never as
        # uninitialised memory.
        self._score_row = np.full(
            num_lanes * num_senones, LOG_ZERO, dtype=self.delta.dtype
        )

    def _reset_lane_state(self, lane: int) -> None:
        """Reset one lane's search rows to the start-of-utterance state."""
        raise NotImplementedError

    def _freeze_lane_state(self, lane: int) -> None:
        """Seal one lane's search rows so idle steps cannot revive it."""
        raise NotImplementedError

    def _relayout_state(self, rows: np.ndarray) -> None:
        """Old row ``rows[i]`` becomes row ``i`` of the stacked search
        state (``rows`` ascending, a grown lane repeating the last)."""
        raise NotImplementedError

    def _bind_record(self, record: np.ndarray) -> None:
        """What a token carries besides its score is ONE ``(2, B, S)``
        record: ``payload`` (the lattice exit its word was entered
        from) and ``entry_frame`` are its two row views.  Rebind after
        replacing it; a compacted record comes from ``take(keep,
        axis=1)``, which stays C-contiguous (``record[:, keep]`` does
        not)."""
        self._record = record
        self.payload, self.entry_frame = record

    def _advance(
        self,
        obs_block: np.ndarray,
        lanes: np.ndarray,
        lane_list: list[int],
        lane_t_list: list[int],
        last: float,
    ) -> tuple[np.ndarray, np.ndarray, list[int], float]:
        """Advance the search state one frame for every occupied lane,
        stamping :attr:`stage_s` at each stage's end from ``last`` (the
        ``perf_counter`` it starts at).

        Returns ``(active_states, scored_counts, exit_counts)`` per
        lane for the bookkeeping pass, and the last stamp.
        """
        raise NotImplementedError

    def _exit_scores(self, lattice, raw, words, preds, rows) -> list[float]:
        """The scores one lane's kept exits (``words``, continuing from
        exits ``preds``) are recorded at, from their ``raw`` scores."""
        raise NotImplementedError

    def _offer(self, lane, lattice, first, scores, rows) -> None:
        """Turn one lane's new exits (dense indices from ``first`` on,
        recorded at ``scores``) into its word entries for next frame."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _demand(
        self, lanes: np.ndarray, candidates: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """This step's senone demand: ``(pair_key, pair_b, pair_s,
        scored_counts)``.

        The ``(lane, senone)`` work items of the ONE pooled evaluation,
        ascending by their flat key ``pair_key = pair_b * N + pair_s``
        (the row-major order ``np.nonzero`` gives a ``(B, N)`` mask),
        and each lane's count.  Under feedback ``candidates`` holds the
        flat keys (:attr:`_slot_key`) of the slots that can be live
        next frame — duplicates allowed — and a lane demands its unique
        set of them: one mask marked and scanned back out, one
        ``divmod`` into lane and senone.  Without feedback it is not
        read (the flat bank passes ``None``, computing no candidates):
        every active lane asks for every senone, a grid that
        changes only with the active-lane set or the bank width
        (``_alloc_scratch`` drops it), so it is kept, not filled into a
        mask and scanned back out per step; its arrays are handed out
        read-only and the two pair arrays own their data, so a scorer
        may remember that these very objects passed its validation.
        """
        num_senones = self.scorer.num_senones
        if self.cfg.use_feedback:
            cand_mask = self._cand_mask
            cand_mask.fill(False)
            cand_mask[candidates] = True
            pair_key = np.flatnonzero(cand_mask)
            pair_b, pair_s = np.divmod(pair_key, num_senones)
            return pair_key, pair_b, pair_s, np.bincount(
                pair_b, minlength=self.num_lanes
            )
        key = lanes.tobytes()
        if self._grid is None or self._grid[0] != key:
            pair_key = lanes[:, None] * num_senones + np.arange(num_senones)
            pair_key = pair_key.reshape(-1)
            pair_b, pair_s = np.divmod(pair_key, num_senones)
            for pairs in (pair_key, pair_b, pair_s):
                pairs.setflags(write=False)
            self._grid = (key, pair_key, pair_b, pair_s, self.active * num_senones)
        return self._grid[1:]

    def _land(
        self, answer: np.ndarray, pair_key: np.ndarray, lanes: np.ndarray
    ) -> np.ndarray:
        """Write the pooled ``answer`` into :attr:`_score_row` at its
        flat keys ``pair_key`` and return the row.  When the bank asked
        for the whole grid (feedback off) the answer is one slab per
        active lane, written as such."""
        row = self._score_row
        if self.cfg.use_feedback:
            row[pair_key] = answer
        else:
            row.reshape(self.num_lanes, -1)[lanes] = answer.reshape(lanes.size, -1)
        return row

    def _record_exits(
        self,
        lanes: np.ndarray,
        words: np.ndarray,
        raw: np.ndarray,
        record: np.ndarray,
        lane_t_list: list[int],
    ) -> list[int]:
        """Every lane's word exits of this step, in ONE pass; returns
        the per-lane exit counts.

        The candidates are the word ends alive after the beam, grouped
        by lane (ascending) and in network order inside a lane: their
        ``words``, float64 ``raw`` exit scores and ``(2, n)`` token
        ``record`` (predecessor exit, entry frame).  A lane keeps those
        within ``word_beam`` of its best raw score, in that order — what
        :func:`~repro.decoder.beam.select_word_exits` picks — and only a
        lane with more than ``max_exits_per_frame`` of them asks it for
        the top-N cut and its order.  The kept exits land in the lane's
        lattice with ONE ``extend`` at the scores :meth:`_exit_scores`
        gives (silence forwards its predecessor's LM history), then
        :meth:`_offer` turns them into next frame's entries; an offer
        lasts one frame, so every lane's is cleared first.  Both hooks
        read LM rows through one per-step lookup keyed by the history
        :func:`~repro.decoder.word_decode.lm_history_of` returns.
        """
        exit_counts = [0] * self.num_lanes
        self.pending_entry.fill(LOG_ZERO)
        self.pending_src.fill(-1)
        if not lanes.size:
            return exit_counts
        lane_of, word_of, raw_list = lanes.tolist(), words.tolist(), raw.tolist()
        pred_of, entry_of = record.tolist()
        word_beam, cap = self.cfg.beam.word_beam, self.cfg.max_exits_per_frame
        silence = self.net.silence_word
        rows = _LmRows(self.lm)
        n, lo = len(lane_of), 0
        while lo < n:
            b = lane_of[lo]
            hi = lo + 1
            while hi < n and lane_of[hi] == b:
                hi += 1
            threshold = max(raw_list[lo:hi]) - word_beam
            keep = [i for i in range(lo, hi) if raw_list[i] >= threshold]
            if len(keep) > cap:
                viable = np.ones(hi - lo, dtype=bool)
                keep = (
                    select_word_exits(raw[lo:hi], viable, word_beam, cap) + lo
                ).tolist()
            lattice = self.lattices[b]
            history_of = lattice.lm_history
            kept = [word_of[i] for i in keep]
            preds = [pred_of[i] for i in keep]
            scores = self._exit_scores(
                lattice, [raw_list[i] for i in keep], kept, preds, rows
            )
            first = lattice.extend(
                lane_t_list[b], kept, [entry_of[i] for i in keep], preds, scores,
                [
                    w if w != silence else history_of[p] if p >= 0 else -1
                    for w, p in zip(kept, preds)
                ],
            )
            exit_counts[b] = len(kept)
            self._offer(b, lattice, first, scores, rows)
            lo = hi
        return exit_counts

    @property
    def stage_scoring_s(self) -> float:
        """Candidates through ``score_in``: the pooled GMM pass and its glue."""
        return sum(self.stage_s[:4])

    @property
    def stage_update_s(self) -> float:
        """Token update and token move."""
        return sum(self.stage_s[4:6])

    @property
    def stage_exit_s(self) -> float:
        """Beam prune and word-exit recording."""
        return sum(self.stage_s[6:8])

    @property
    def any_active(self) -> bool:
        return bool(self.active.any())

    def free_lanes(self) -> list[int]:
        """Lanes currently unoccupied (admission slots)."""
        return [int(b) for b in np.flatnonzero(~self.active)]

    # ------------------------------------------------------------------
    def admit(
        self,
        lane: int,
        utt_id: int,
        features: np.ndarray | None = None,
        enqueued_at: float | None = None,
    ) -> None:
        """Seed ``lane`` with a fresh utterance, starting at ITS frame 0.

        The lane's rows are reset to the start-of-utterance state, so
        the admitted utterance cannot observe anything a previous
        occupant left behind.  Without ``features`` the lane is FED:
        its frames are handed to :meth:`step` as they arrive (a
        streaming caller does not know the utterance length).
        ``enqueued_at`` (a ``time.monotonic`` stamp) records when the
        utterance entered a waiting queue; it defaults to the admission
        instant, so a decode with no queue in front of it reports zero
        wait.  Features go through
        :func:`~repro.decoder.recognizer.validate_utterance_features`
        (labelled with ``utt_id``) before anything changes, so a refused
        admission leaves the bank as it was.
        """
        if self.active[lane]:
            raise RuntimeError(f"lane {lane} is still occupied")
        if features is not None:
            features = validate_utterance_features(
                self.recognizer.pool.dim, utt_id, features
            )
        self.scorer.admit_lane(lane, features)
        self._reset_lane_state(lane)
        self.lane_feats[lane] = features
        self.lane_admitted[lane] = time.monotonic()
        self.lane_enqueued[lane] = (
            enqueued_at if enqueued_at is not None else self.lane_admitted[lane]
        )
        self.lane_len[lane] = 0 if features is None else features.shape[0]
        self.lane_t[lane] = 0
        self.lane_utt[lane] = utt_id
        self.lattices[lane] = WordLattice()
        self.lane_frame_stats[lane] = []
        self._lane_marks[lane] = self._observability_mark()
        self.active[lane] = True

    # ------------------------------------------------------------------
    def step(self, frames: np.ndarray | None = None) -> list[int]:
        """Advance every occupied lane by one frame (its OWN next frame).

        Returns the lanes whose utterance just consumed its final
        frame; the caller retires them (and may re-admit into the freed
        lanes) before the next step.  ``frames`` — a ``(num_lanes, L)``
        block handed in at call time — steps a bank of FED lanes
        (admitted without features): a fed lane is as long as what it
        has been fed, so it comes back finished after every step and
        can be packaged whenever its caller decides the audio ended.
        Raises ValueError for a block of another shape and RuntimeError
        when an occupied lane was admitted WITH features.
        """
        start = perf_counter()
        lanes = np.flatnonzero(self.active)
        if lanes.size == 0:
            raise RuntimeError("no occupied lanes to step")

        # Each occupied lane contributes its own current frame; idle
        # lanes keep zeros (or stale rows) that no live computation
        # ever reads.  The scalar loops below run over plain ints —
        # numpy scalar boxing is measurable at these batch sizes.
        lane_list = lanes.tolist()
        lane_t_list = self.lane_t.tolist()
        if frames is not None:
            shape = (self.num_lanes, self.recognizer.pool.dim)
            if frames.shape != shape:
                raise ValueError(f"frames must be {shape}, got {frames.shape}")
            # A fed step ends every occupied lane at this frame, which
            # would truncate a lane that brought its own features.
            if any(self.lane_feats[b] is not None for b in lane_list):
                raise RuntimeError(
                    "step(frames) on a bank holding lanes admitted with features"
                )
            obs_block = frames
            self.lane_len[lanes] = self.lane_t[lanes] + 1
        else:
            obs_block = self._obs_block
            for b in lane_list:
                obs_block[b] = self.lane_feats[b][lane_t_list[b]]

        clock = self.stage_s
        last = perf_counter()
        clock[8] += last - start  # bookkeeping
        n_active, scored_counts, exit_counts, last = self._advance(
            obs_block, lanes, lane_list, lane_t_list, last
        )

        # Per-lane bookkeeping at each lane's own frame counter;
        # collect lanes whose audio just ended.
        finished: list[int] = []
        lane_len_list = self.lane_len.tolist()
        n_active_list = n_active.tolist()
        scored_list = scored_counts.tolist()
        for b in lane_list:
            t_b = lane_t_list[b]
            self.lane_frame_stats[b].append(
                FrameStats(
                    frame=t_b,
                    active_states=n_active_list[b],
                    requested_senones=scored_list[b],
                    word_exits=exit_counts[b],
                )
            )
            self.lane_t[b] = t_b + 1
            if t_b + 1 == lane_len_list[b]:
                finished.append(b)
        self.steps += 1
        self.frames_processed += len(lane_list)
        clock[8] += perf_counter() - last  # bookkeeping
        return finished

    # ------------------------------------------------------------------
    def retire(self, lane: int) -> RecognitionResult:
        """Finalize a finished lane and free it for re-admission.

        The lane's state is frozen at ``LOG_ZERO`` so subsequent steps
        cannot touch its (already packaged) lattice or statistics.
        """
        best = find_best_path(
            self.lattices[lane],
            self.lm,
            self.net,
            self._finished_frames(lane) - 1,
            lm_scale=self.cfg.lm_scale,
        )
        return self.package(lane, best)

    def _finished_frames(self, lane: int) -> int:
        """Length of ``lane``'s utterance; raises unless it is all decoded."""
        if not self.active[lane]:
            raise RuntimeError(f"lane {lane} is not occupied")
        frames = int(self.lane_len[lane])
        if int(self.lane_t[lane]) != frames:
            raise RuntimeError(
                f"lane {lane} retired mid-utterance "
                f"(frame {int(self.lane_t[lane])}/{frames})"
            )
        return frames

    def package(self, lane: int, best: BestPath | None) -> RecognitionResult:
        """:meth:`retire` around a best path the caller already has.

        The global best-path search is the one stage of a decode that
        runs outside the bank's frame loop, so each driver makes that
        call itself (``Recognizer.decode`` in its own module, the
        wider banks' drivers through :meth:`retire`) and everything after it
        — result, timing, telemetry, freeing the lane — is shared here.
        """
        frames = self._finished_frames(lane)
        lattice = self.lattices[lane]
        assert lattice is not None
        fast_stats = self.scorer.retire_lane(lane)
        telemetry, scoring = self._lane_counters(lane, fast_stats)
        result = RecognitionResult(
            words=best.words if best is not None else (),
            score=best.score if best is not None else float("-inf"),
            frames=frames,
            frame_stats=self.lane_frame_stats[lane],
            scoring_stats=scoring,
            lattice_size=len(lattice),
            frame_period_s=self.recognizer.frame_period_s,
            fast_stats=fast_stats,
            timing=DecodeTiming(
                enqueued_at=self.lane_enqueued[lane],
                admitted_at=self.lane_admitted[lane],
                finished_at=time.monotonic(),
            ),
            telemetry=telemetry,
        )
        self._release(lane)
        return result

    # -- observability (reads counters, never touches decode state) ----
    def _observability_mark(self) -> tuple:
        """Snapshot of the bank-level counters at a lane's admission."""
        scorer = self.scorer
        return (
            self.stage_scoring_s,
            self.stage_update_s,
            self.stage_exit_s,
            getattr(scorer, "dense_steps", 0),
            getattr(scorer, "fallback_steps", 0),
            getattr(scorer, "table_streams", 0),
        )

    def _lane_counters(
        self, lane: int, fast_stats
    ) -> tuple[DecodeTelemetry, ScoringStats]:
        """Package one lane's decode-depth counters at retirement: its
        telemetry and its scoring statistics, both read off the lane's
        ``frame_stats`` in one pass."""
        tel = DecodeTelemetry(frames=int(self.lane_len[lane]))
        scoring = ScoringStats(senone_budget=self.recognizer.pool.num_senones)
        requested = scoring.active_per_frame
        for fs in self.lane_frame_stats[lane]:
            tel.active_states += fs.active_states
            requested.append(fs.requested_senones)
            tel.word_exits += fs.word_exits
        tel.senones_scored = scoring.senones_requested
        if fast_stats is not None:
            tel.fast_frames_skipped = fast_stats.frames_skipped
            tel.fast_senones_full = fast_stats.senones_full
            tel.fast_senones_approximated = fast_stats.senones_approximated
            tel.fast_gaussians_evaluated = fast_stats.gaussians_evaluated
            tel.fast_gaussians_possible = fast_stats.gaussians_possible
            tel.fast_dims_evaluated = fast_stats.dims_evaluated
            tel.fast_dims_possible = fast_stats.dims_possible
        mark = self._lane_marks[lane]
        if mark is not None:
            tel.stage_scoring_s = self.stage_scoring_s - mark[0]
            tel.stage_update_s = self.stage_update_s - mark[1]
            tel.stage_exit_s = self.stage_exit_s - mark[2]
            scorer = self.scorer
            tel.blas_dense_steps = getattr(scorer, "dense_steps", 0) - mark[3]
            tel.blas_gathered_steps = (
                getattr(scorer, "fallback_steps", 0) - mark[4]
            )
            tel.blas_table_streams = getattr(scorer, "table_streams", 0) - mark[5]
        return tel, scoring

    def cancel(self, lane: int) -> int:
        """Early-retire hook: free a lane MID-utterance, no result.

        Serving uses this for deadline misses and client cancellations:
        the lane's partial decode is discarded (its lattice, statistics
        and scorer state are dropped, never packaged) and the lane is
        immediately free for re-admission.  Returns the number of
        frames the cancelled utterance had decoded.  Because every
        per-frame operation is elementwise or a per-row reduction over
        the stacked state, and the freed lane is frozen at
        ``LOG_ZERO`` exactly as a normal retirement leaves it, a
        cancellation cannot perturb any surviving lane's decode by a
        single bit (pinned by ``tests/test_golden_parity.py``).
        """
        if not self.active[lane]:
            raise RuntimeError(f"lane {lane} is not occupied")
        frames_decoded = int(self.lane_t[lane])
        self.scorer.retire_lane(lane)  # discard per-lane scorer state
        self._release(lane)
        return frames_decoded

    def _release(self, lane: int) -> None:
        """Freeze and free a lane (shared by retire and cancel)."""
        self.active[lane] = False
        self._freeze_lane_state(lane)
        self.lane_feats[lane] = None
        self.lattices[lane] = None
        self.lane_frame_stats[lane] = []
        self.lane_utt[lane] = -1
        self._lane_marks[lane] = None

    # ------------------------------------------------------------------
    def open_lane(self) -> int:
        """The lane the next admission goes to: the lowest free one, or,
        when every lane is occupied, one appended by :meth:`grow`.  The
        driver holds the lane cap: it asks only while fewer lanes than
        its cap are occupied."""
        free = self.free_lanes()
        return free[0] if free else self.grow()

    @property
    def occupied(self) -> int:
        """Lanes holding an utterance."""
        return int(np.count_nonzero(self.active))

    def grow(self) -> int:
        """Append one free lane, frozen like a retired one; returns it.

        The counterpart of :meth:`compact`, through the same relayout:
        a driver admitting into a full bank below its cap widens it by
        the one lane it needs, so a bank is never wider than its
        occupied lanes plus the lane being admitted.
        """
        lane = self.num_lanes
        self._relayout(np.arange(lane), lane + 1)
        return lane

    def compact(self) -> int:
        """Drop the free lanes; returns the new width.

        The drivers call it after admission and before a step, so no
        step pays per-step vectorized work for a lane nobody occupies
        (a bank with no occupied lane keeps its width).
        """
        keep = np.flatnonzero(self.active)
        n = int(keep.size)
        if n == self.num_lanes or n == 0:
            return self.num_lanes
        self._relayout(keep, n)
        return n

    def _relayout(self, keep: np.ndarray, width: int) -> None:
        """THE relayout of :meth:`grow` and :meth:`compact`: occupied
        lane ``keep[i]`` (ascending) moves to row ``i``, order kept, and
        rows ``len(keep)`` to ``width - 1`` are new free lanes.  Every
        stacked array and scratch buffer is rebuilt at ``width`` and the
        scorer's lane state follows its lanes.  All per-frame math is
        elementwise or a per-row reduction, so moving a row changes
        nothing about that lane's decode.
        """
        n = int(keep.size)
        # A new row starts as a copy of the last kept one (the rows stay
        # ascending) and is released below: frozen, unoccupied, empty.
        rows = np.concatenate((keep, np.full(width - n, keep[-1])))
        row_list = rows.tolist()
        self._relayout_state(rows)
        self.active = self.active[rows]
        self.lane_t = self.lane_t[rows]
        self.lane_len = self.lane_len[rows]
        self.lane_utt = self.lane_utt[rows]
        self.lane_feats = [self.lane_feats[b] for b in row_list]
        self.lane_enqueued = [self.lane_enqueued[b] for b in row_list]
        self.lane_admitted = [self.lane_admitted[b] for b in row_list]
        self.lattices = [self.lattices[b] for b in row_list]
        self.lane_frame_stats = [self.lane_frame_stats[b] for b in row_list]
        self._lane_marks = [self._lane_marks[b] for b in row_list]
        self.num_lanes = width
        for lane in range(n, width):
            self._release(lane)
        self._alloc_scratch()
        self.scorer.compact_lanes(row_list[:n])


class LaneBank(LaneBankBase):
    """Stacked ``(B, S)`` decode state over the FLAT lexicon network.

    All per-frame math is elementwise or a per-row reduction over the
    stacked state, and all per-lane bookkeeping (entry frames, lattice
    exits, statistics) is indexed by the lane's own frame counter, so
    each lane's outputs are bit-identical to a 1-lane decode of the
    same features no matter when the lane was (re)admitted or what its
    neighbours do.
    """

    def _alloc_state(self) -> None:
        net = self.net
        # The Viterbi unit's token arithmetic (hardware mode) is
        # float32; the software recurrence is float64.
        self._dtype = np.float32 if self.viterbi_unit is not None else np.float64
        shape = (self.num_lanes, net.num_states)
        total_words = net.num_words + (1 if net.has_silence else 0)
        # Stacked word-decode state: one row per lane.  What a token
        # carries besides its score is ONE record, moved as one.
        self.delta = np.full(shape, LOG_ZERO, dtype=self._dtype)
        self._bind_record(np.full((2,) + shape, -1, dtype=np.int64))
        self.pending_entry = np.full((self.num_lanes, total_words), LOG_ZERO)
        self.pending_src = np.full(
            (self.num_lanes, total_words), -1, dtype=np.int64
        )
        # Widened once: a float32 token's exit score is float64 (exact).
        self._fwd_end = net.fwd_logp[net.end_state].astype(np.float64)
        self._has_left = ~net.is_start[1:]  # state s+1 continues s's chain

    def _alloc_scratch(self) -> None:
        # Frame scratch (allocated once per bank width, reused every step).
        super()._alloc_scratch()
        shape = (self.num_lanes, self.net.num_states)
        # Each slot's observation score, gathered from the score row.
        self._slot_obs = np.empty(shape, dtype=self._dtype)
        # The word entries offered this frame, as banks: the scores
        # (LOG_ZERO off the start columns, which alone are written)
        # and the record an entering token starts from.
        self._entry_scores = np.full(shape, LOG_ZERO, dtype=self._dtype)
        self._entry_record = np.full((2,) + shape, -1, dtype=np.int64)
        self._record_next = np.empty((2,) + shape, dtype=np.int64)
        self._candidates = np.empty(shape, dtype=bool)
        self._shifted = np.empty(shape, dtype=bool)
        self._chain_scratch: dict = {}  # filled by chain_update
        self._beam_scratch = make_beam_scratch(shape)

    def _reset_lane_state(self, lane: int) -> None:
        self.delta[lane] = LOG_ZERO
        self._record[:, lane] = -1
        prime_entries(
            self.net, self.cfg, self.lm,
            self.pending_entry[lane], self.pending_src[lane],
        )

    def _freeze_lane_state(self, lane: int) -> None:
        self.delta[lane] = LOG_ZERO
        self.pending_entry[lane] = LOG_ZERO
        self.pending_src[lane] = -1

    def _relayout_state(self, rows: np.ndarray) -> None:
        self.delta = self.delta[rows]
        self._bind_record(self._record.take(rows, axis=1))
        self.pending_entry = self.pending_entry[rows]
        self.pending_src = self.pending_src[rows]

    def _candidate_senones(self) -> np.ndarray:
        """The flat ``(lane, senone)`` key of every candidate state —
        alive, right neighbour of alive, or start state of a pending
        entry (read off ``_entry_scores``, which this frame's offers are
        already in): the per-lane feedback lists, batched.  Idle lanes
        are frozen at LOG_ZERO, so their rows stay empty without extra
        masking."""
        candidates, shifted = self._candidates, self._shifted
        np.greater(self.delta, LOG_DEAD, out=candidates)  # alive
        np.logical_and(candidates[:, :-1], self._has_left, out=shifted[:, 1:])
        np.logical_or(candidates[:, 1:], shifted[:, 1:], out=candidates[:, 1:])
        np.greater(self._entry_scores, LOG_DEAD, out=shifted)
        candidates |= shifted
        return self._slot_key.take(np.flatnonzero(candidates))

    def _advance(
        self,
        obs_block: np.ndarray,
        lanes: np.ndarray,
        lane_list: list[int],
        lane_t_list: list[int],
        last: float,
    ) -> tuple[np.ndarray, np.ndarray, list[int], float]:
        net, cfg = self.net, self.cfg
        delta = self.delta
        clock = self.stage_s  # one stamp per stage per STEP, not per lane

        # 1-2. This frame's word entries as a bank, then the union of
        #    per-lane unique senone requests as (lane, senone) work
        #    items for one pooled evaluation.
        entry_scores = self._entry_scores
        entry_scores[:, net.start_state] = self.pending_entry
        t = perf_counter(); clock[3] += t - last; last = t  # score_in (entry bank)
        keys = self._candidate_senones() if cfg.use_feedback else None
        t = perf_counter(); clock[0] += t - last; last = t  # candidates
        pair_key, pair_b, pair_s, scored_counts = self._demand(lanes, keys)
        t = perf_counter(); clock[1] += t - last; last = t  # demand

        # 3. One pooled GMM pass for the whole bank, landed in the score
        #    row and gathered back at every slot.  A slot whose senone
        #    was not demanded reads an older finite score: such a slot
        #    has no live stay, forward or entry arc, so the dead rule
        #    (`min(best, obs) <= LOG_DEAD`) writes LOG_ZERO whatever it
        #    reads, and the took-masks never read `obs`.  The slot keys
        #    are in range by construction: `mode="wrap"` writes `out`
        #    directly, where the default mode fills a buffer first.
        answer = self.scorer.score_pairs(obs_block, pair_b, pair_s, lanes=lanes)
        t = perf_counter(); clock[2] += t - last; last = t  # score
        obs = self._slot_obs
        self._land(answer, pair_key, lanes).take(
            self._slot_key, out=obs.reshape(-1), mode="wrap"
        )
        t = perf_counter(); clock[3] += t - last; last = t  # score_in

        # 4. One chain update advances every lane's token bank in
        #    place; the Viterbi unit, if modelled, is charged.
        _, took_fwd, took_entry = chain_update(
            delta, net.self_logp, net.fwd_logp, obs, entry_scores, net.is_start,
            out=delta, scratch=self._chain_scratch, entry_premasked=True,
        )
        if self.viterbi_unit is not None:
            self.viterbi_unit.charge_chain(net.is_start, rows=self.num_lanes)
        t = perf_counter(); clock[4] += t - last; last = t  # token_update

        # 5. The token record follows the winning arc: it stays, moves
        #    one state right, or (entry wins) starts from the entry
        #    record — the lattice exit behind the offer, stamped with
        #    each lane's OWN frame counter.
        record, moved, entry = self._record, self._record_next, self._entry_record
        entry[0][:, net.start_state] = self.pending_src
        entry[1][:] = self.lane_t[:, None]
        np.copyto(moved, record)
        np.copyto(moved[..., 1:], record[..., :-1], where=took_fwd[:, 1:])
        np.copyto(moved, entry, where=took_entry)
        self._record_next = record
        self._bind_record(moved)
        t = perf_counter(); clock[5] += t - last; last = t  # token_move

        # 6. Row-wise beam prune, then every lane's live word ends, in
        #    word order, go through the one exit pass.
        _, n_active = apply_beam_batch(delta, cfg.beam, self._beam_scratch)
        t = perf_counter(); clock[6] += t - last; last = t  # beam
        end_delta = delta.take(net.end_state, axis=1)
        exit_b, exit_w = (end_delta > LOG_DEAD).nonzero()
        exit_counts = self._record_exits(
            exit_b, exit_w, end_delta[exit_b, exit_w] + self._fwd_end[exit_w],
            self._record[:, exit_b, net.end_state[exit_w]], lane_t_list,
        )
        t = perf_counter(); clock[7] += t - last  # exits

        return n_active, scored_counts, exit_counts, t

    def _exit_scores(self, lattice, raw, words, preds, rows) -> list[float]:
        return raw  # the flat network applies the LM at word entry

    def _offer(self, lane, lattice, first, scores, rows) -> None:
        """Every word's best LM-weighted entry (silence's: the penalty
        only) over the lane's new exits, strict ``>`` in recorded order:
        ties go to the first exit, and a word no exit lifts above
        ``LOG_ZERO`` keeps ``LOG_ZERO``/-1."""
        net, cfg, lm = self.net, self.cfg, self.lm
        silence = net.silence_word
        entry, src = self.pending_entry[lane], self.pending_src[lane]
        word_entry, word_src = entry[: net.num_words], src[: net.num_words]
        for index, score in enumerate(scores, first):
            # lm_scale * row + score + penalty, built in place on the
            # one scaled-row temporary.
            candidate = cfg.lm_scale * rows[lm_history_of(lattice, net, lm, index)]
            candidate += score
            candidate += cfg.word_insertion_penalty
            better = candidate > word_entry
            np.copyto(word_entry, candidate, where=better)
            np.copyto(word_src, index, where=better)
            if silence >= 0 and score + cfg.silence_penalty > entry[silence]:
                entry[silence], src[silence] = score + cfg.silence_penalty, index


class _LmRows(dict):
    """One step's LM rows by history (what
    :func:`~repro.decoder.word_decode.lm_history_of` returns), fetched
    on first use."""

    def __init__(self, lm) -> None:
        super().__init__()
        self.lm = lm

    def __missing__(self, history: tuple[int, ...]) -> np.ndarray:
        row = self[history] = self.lm.log_prob_row(history)
        return row
