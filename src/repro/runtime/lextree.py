"""Batched token passing over the lexicon prefix tree.

:class:`TreeLaneBank` is the tree twin of the flat
:class:`~repro.runtime.batch.LaneBank`: stacked ``(B, num_states)``
token state over one shared
:class:`~repro.decoder.lextree.TreeLexiconNetwork`, advanced one frame
per step — with pooled senone demand across all lanes' active tree
states feeding the same
:class:`~repro.runtime.scoring.BatchScoringBackend` family as the flat
bank, so reference/hardware/fast/blas (all precisions) all work over
the tree unchanged.

Active list
-----------
The beam leaves a few percent of the ``(lane, state)`` slots alive, so
a step never sweeps the bank.  It expands the ascending list of live
slots into the candidate list (alive; children of alive — the next
slot where that is a state's one child, a static child CSR at the
forks; roots of lanes holding a pending entry), runs
:func:`~repro.core.viterbi_unit.tree_update` (the flat bank's compare
and dead rule, with the predecessor gathered instead of shifted) and
the list-form row beam (:func:`~repro.decoder.beam.apply_beam_rows`)
on the values gathered for just those slots, and scatters the result
back into the dense state IN PLACE; the survivors are the next step's
live list.  The bank's live leaves (one mask; about a dozen per step on
``bank_tree``) then go through the exit pass both banks share,
:meth:`~repro.runtime.batch.LaneBankBase._record_exits`; the tree's
hooks add the predecessor history's LM term at the leaf and offer every
lane ONE root entry.  Per-step cost follows the candidates, not
``B x K``, and the tree shares states, not triphone nodes: a lane
holding an entry offers it to one root per distinct first senone (85
on ``bank_tree``, not its 380 root triphones), and
``BeamConfig.max_active_states`` caps shared states.  In
hardware mode the recognizer's Viterbi unit is charged beside it, for
the whole bank (the unit streams every register).

Parity contract
---------------
Per-lane outputs are bit-identical to a 1-lane decode of the same
features (``Recognizer.decode``) and to the committed
``tests/golden/dictation_*.json``, for any batch composition,
admission step or refill order:

* token arithmetic is float32 in EVERY mode (the fixtures pin it;
  the flat bank is float64 outside hardware mode);
* a slot outside the candidate list is dead with a dead predecessor
  and no entry offer: the update would leave it at ``LOG_ZERO`` with
  its token record untouched, which is what not visiting it does;
* every per-slot operation is elementwise and every gather stays
  inside the slot's own row (predecessor and child indices are offset
  by the lane), so no lane's arithmetic can observe another lane;
* the candidate list is ascending, so each lane's segment of it is
  that lane's dense row filtered to its candidates IN ORDER — the
  order-dependent steps (the histogram trim's ``argsort`` and the
  top-N cut of :func:`~repro.decoder.beam.select_word_exits`, which
  the one exit pass hands just a capped lane's own leaves) see the
  same arrays at every bank width and tie-break identically;
* idle lanes are frozen at ``LOG_ZERO`` with no live slot and no
  pending entry, so an unoccupied row can never produce a candidate,
  an exit or a statistics record.

The lane lifecycle (admit/step/retire/cancel/grow/compact, scorer
admit/retire/compact hooks, per-lane frame counters and result
packaging) is inherited from
:class:`~repro.runtime.batch.LaneBankBase` unchanged, which is what
lets :meth:`~repro.decoder.recognizer.Recognizer.decode_stream` (and
with it ``decode_batch``) and the serve loop drive the tree through
the same interface as the flat network
(``tests/test_lane_lifecycle.py`` hunts for stale rows in generated
admit/step/cancel/grow/compact lifecycles of both banks).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.core.logadd import LOG_DEAD, LOG_ZERO
from repro.core.viterbi_unit import tree_update
from repro.decoder.beam import apply_beam_rows
from repro.decoder.lextree import prime_tree_entry
from repro.decoder.word_decode import lm_history_of
from repro.runtime.batch import LaneBankBase

__all__ = ["TreeLaneBank"]


def _child_csr(pred_state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Successor lists of an in-degree-1 forest, in CSR form.

    Returns ``(ptr, idx)``: the states whose predecessor is ``s`` are
    ``idx[ptr[s]:ptr[s + 1]]``.  Roots (``pred_state == -1``) are
    nobody's child.
    """
    num_states = pred_state.shape[0]
    idx = np.argsort(pred_state, kind="stable")[np.count_nonzero(pred_state < 0) :]
    ptr = np.zeros(num_states + 1, dtype=np.int64)
    np.cumsum(np.bincount(pred_state[idx], minlength=num_states), out=ptr[1:])
    return ptr, idx


class TreeLaneBank(LaneBankBase):
    """Stacked ``(B, K)`` tree-token state with the shared lane lifecycle.

    Built by :meth:`~repro.decoder.recognizer.Recognizer.make_bank`
    when the recognizer holds a
    :class:`~repro.decoder.lextree.TreeLexiconNetwork`; see the module
    docstring for the parity contract.
    """

    def _alloc_state(self) -> None:
        net = self.net
        num_lanes = self.num_lanes
        shape = (num_lanes, net.num_states)
        # Stacked token state: one row per lane, updated IN PLACE at
        # the candidate slots of each step.  Token arithmetic is float32
        # in EVERY mode (the fixtures pin it).  The token record holds
        # lattice indices and frame numbers, far inside int32 range.
        self.delta = np.full(shape, LOG_ZERO, dtype=np.float32)
        self._bind_record(np.full((2,) + shape, -1, dtype=np.int32))
        # Root re-entry is one scalar per lane (all roots receive the
        # best LM'd exit), unlike the flat bank's per-word rows.
        self.pending_entry = np.full(num_lanes, LOG_ZERO)
        self.pending_src = np.full(num_lanes, -1, dtype=np.int64)
        # The active list: ascending flat indices (lane * K + state) of
        # the live slots, i.e. ``flatnonzero(delta > LOG_DEAD)`` kept
        # incrementally so no step ever scans the bank.
        self._alive = np.empty(0, dtype=np.int64)
        # Static tree index helpers.
        self._roots = np.flatnonzero(net.is_root_start)
        self._child_ptr, self._child_idx = _child_csr(net.pred_state)
        self._child_count = np.diff(self._child_ptr)
        # Most states' ONE child is the next state; only forks, leaves
        # and lone children stored elsewhere need the CSR.
        self._chain_next = np.zeros(net.num_states, dtype=bool)
        self._chain_next[:-1] = (
            net.pred_state[1:] == np.arange(net.num_states - 1)
        ) & (self._child_count[:-1] == 1)
        self._is_leaf = net.leaf_word >= 0
        # Predecessor as an offset within the lane's row (0 at a root,
        # whose slot is masked to -1 for ``tree_update``).
        self._pred_offset = np.where(
            net.is_root_start, 0, net.pred_state - np.arange(net.num_states)
        )

    def _kill_lane(self, lane: int) -> None:
        self.delta[lane] = LOG_ZERO
        self._alive = self._alive[self._alive // self.net.num_states != lane]

    def _reset_lane_state(self, lane: int) -> None:
        self._kill_lane(lane)
        self._record[:, lane] = -1
        self.pending_entry[lane], self.pending_src[lane] = prime_tree_entry(
            self.cfg
        )

    def _freeze_lane_state(self, lane: int) -> None:
        self._kill_lane(lane)
        self.pending_entry[lane] = LOG_ZERO
        self.pending_src[lane] = -1

    def _relayout_state(self, rows: np.ndarray) -> None:
        self.delta = self.delta[rows]
        self._bind_record(self._record.take(rows, axis=1))
        self.pending_entry = self.pending_entry[rows]
        self.pending_src = self.pending_src[rows]
        # Only occupied lanes are kept and only those hold live slots;
        # row `rows[i]` becomes row `i` at its FIRST occurrence (a grown
        # lane's repeat of the last row holds none), order preserved.
        lane = self._alive // self.net.num_states
        self._alive += (np.searchsorted(rows, lane) - lane) * self.net.num_states

    def _candidate_slots(self) -> np.ndarray:
        """Ascending flat indices of every slot that can be live next frame.

        Alive slots, children of alive slots and the roots of lanes
        holding a pending entry — the feedback set, for all lanes at
        once.  A state whose one child is the next slot steps there;
        the others go through the child CSR.  Idle lanes are frozen at
        ``LOG_ZERO`` with ``LOG_ZERO`` pending entries, so they
        contribute nothing without extra masking.
        """
        num_states = self.net.num_states
        alive = self._alive
        alive_s = alive % num_states
        chain = self._chain_next[alive_s]
        fork = ~chain
        fork_s = alive_s[fork]
        counts = self._child_count[fork_s]
        # Child j of the i-th fork sits at child_idx[ptr[s_i] + j].
        first = np.cumsum(counts) - counts
        within = np.repeat(self._child_ptr[fork_s] - first, counts)
        within += np.arange(within.shape[0])
        children = np.repeat(alive[fork] - fork_s, counts) + self._child_idx[within]
        entering = np.flatnonzero(self.pending_entry > LOG_DEAD)
        roots = (entering[:, None] * num_states + self._roots).reshape(-1)
        # In-degree 1: no slot is the child of two, and a root is the
        # child of none — so dropping the already-alive leaves a
        # duplicate-free union.
        fresh = np.concatenate((alive[chain] + 1, children, roots))
        fresh = fresh[self.delta.reshape(-1)[fresh] <= LOG_DEAD]
        return np.sort(np.concatenate((alive, fresh)))

    def _advance(
        self,
        obs_block: np.ndarray,
        lanes: np.ndarray,
        lane_list: list[int],
        lane_t_list: list[int],
        last: float,
    ) -> tuple[np.ndarray, np.ndarray, list[int], float]:
        net, cfg = self.net, self.cfg
        # Flat views of the in-place state, indexed by slot.
        delta = self.delta.reshape(-1)
        record = self._record.reshape(2, -1)
        payload, entry_frame = record
        # The stage clock: same boundaries as the flat bank's, so a
        # tree-lexicon trace reads identically.
        clock = self.stage_s

        # 1. The active list.  Everything below runs on these n slots
        #    (a few percent of the bank), never on (B, K).
        slots = self._candidate_slots()
        cand_b = slots // net.num_states
        cand_s = slots - cand_b * net.num_states
        cand_key = self._slot_key.take(slots)  # lane * N + senone
        t = perf_counter(); clock[0] += t - last; last = t  # candidates

        # 2. The union of per-lane unique senone requests, as
        #    (lane, senone) work items for one pooled evaluation.
        pair_key, pair_b, pair_s, scored_counts = self._demand(lanes, cand_key)
        t = perf_counter(); clock[1] += t - last; last = t  # demand

        # 3. One pooled GMM pass for the whole bank, gathered back to
        #    the candidates' float32 observation scores (every one of
        #    them demanded this step); the lane's pending entry is
        #    offered at its roots.
        answer = self.scorer.score_pairs(obs_block, pair_b, pair_s, lanes=lanes)
        t = perf_counter(); clock[2] += t - last; last = t  # score
        obs = self._land(answer, pair_key, lanes).take(cand_key)
        at_root = net.is_root_start[cand_s]
        entry = np.where(
            at_root, self.pending_entry.astype(np.float32)[cand_b], np.float32(LOG_ZERO)
        )
        t = perf_counter(); clock[3] += t - last; last = t  # score_in

        # 4. One token update advances every lane's candidates; the
        #    Viterbi unit, if modelled, is charged for the whole bank.
        pred_slots = slots + self._pred_offset[cand_s]
        pred_slots[at_root] = -1
        new_delta, took_fwd, took_entry = tree_update(
            delta, slots, pred_slots,
            net.self_logp[cand_s], net.pred_logp[cand_s], obs, entry,
        )
        if self.viterbi_unit is not None:
            self.viterbi_unit.charge_chain(net.is_root_start, rows=self.num_lanes)
        t = perf_counter(); clock[4] += t - last; last = t  # token_update

        # 5. The token record follows the winning arc: a stay keeps it,
        #    a forward move copies the predecessor's (gathered before
        #    the write, so a chain of moves reads last frame's), an
        #    entry (which beats a forward move) starts from the lattice
        #    exit behind the offer, stamped with the lane's OWN frame.
        #    Row by row: one 1-D gather/scatter each beats the 2-D form.
        moved = np.flatnonzero(took_fwd & ~took_entry)
        dst, src = slots[moved], pred_slots[moved]
        payload[dst] = payload[src]
        entry_frame[dst] = entry_frame[src]
        entered = np.flatnonzero(took_entry)
        lane, dst = cand_b[entered], slots[entered]
        payload[dst] = self.pending_src[lane]
        entry_frame[dst] = self.lane_t[lane]
        t = perf_counter(); clock[5] += t - last; last = t  # token_move

        # 6. Row-wise beam prune on the list, survivors (and the
        #    LOG_ZERO of the pruned) scattered back, then the live
        #    leaves, in slot order, go through the one exit pass.
        _, n_active = apply_beam_rows(new_delta, cand_b, self.num_lanes, cfg.beam)
        delta[slots] = new_delta
        live = new_delta > LOG_DEAD
        self._alive = slots[live]
        t = perf_counter(); clock[6] += t - last; last = t  # beam
        leaves = np.flatnonzero(live & self._is_leaf[cand_s])
        leaf_s = cand_s[leaves]
        exit_counts = self._record_exits(
            cand_b[leaves], net.leaf_word[leaf_s],
            new_delta[leaves].astype(np.float64) + net.exit_logp[leaf_s],
            record[:, slots[leaves]], lane_t_list,
        )
        t = perf_counter(); clock[7] += t - last  # exits

        return n_active, scored_counts, exit_counts, t

    def _exit_scores(self, lattice, raw, words, preds, rows) -> list[float]:
        """The leaf adds the LM term of the predecessor's history
        (silence: the silence penalty instead)."""
        net, lm, cfg = self.net, self.lm, self.cfg
        lm_scale, silence = cfg.lm_scale, net.silence_word
        return [
            r + cfg.silence_penalty
            if w == silence
            else r + lm_scale * float(rows[lm_history_of(lattice, net, lm, p)][w])
            for r, w, p in zip(raw, words, preds)
        ]

    def _offer(self, lane, lattice, first, scores, rows) -> None:
        """All roots share one entry: the best LM'd exit plus the
        insertion penalty (strict ``>`` in recorded order)."""
        offers = [score + self.cfg.word_insertion_penalty for score in scores]
        best = max(offers)
        self.pending_entry[lane], self.pending_src[lane] = (
            best, first + offers.index(best)
        )
