"""Cycle-accurate model of the dedicated Viterbi decoder unit (Figure 3).

The unit solves the log-domain Viterbi recurrence

    log delta_t(j) = max_i [ log delta_{t-1}(i) + log a_ij ] + log b_j(O_t)

with a pipelined array of 32-bit adders and a comparator: each
transition occupies one "Add & Compare" slot of 2 cycles (Figure 3).
Per Section III-B the unit handles 3-, 5- and 7-state HMM topologies,
so different acoustic models can be decoded.

Two paths are provided, mirroring :mod:`repro.core.opunit`:

* :meth:`ViterbiUnit.step_column` — dense, bit-faithful: an arbitrary
  transition matrix column is swept transition by transition, each add
  and compare performed in float32 through the shared
  :class:`~repro.core.fpu.FloatUnit`.
* :meth:`ViterbiUnit.update_chain` — vectorised left-to-right update
  over a *flattened bank* of HMM chains (the decoder's fast path),
  with identical transition counting for cycles/power.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fpu import FloatUnit
from repro.core.pipeline import PipelineSpec, PipelineTrace

__all__ = ["ViterbiUnitSpec", "ViterbiUnit", "ChainUpdateResult", "LOG_ZERO"]

#: Initialisation value of delta registers ("Max '-ve'").
LOG_ZERO = -1.0e30

#: Backpointer codes emitted by :meth:`ViterbiUnit.update_chain`.
BP_SELF = 0
BP_FORWARD = 1
BP_ENTRY = 2


@dataclass(frozen=True)
class ViterbiUnitSpec:
    """Static configuration of one Viterbi unit instance."""

    clock_hz: float = 50e6
    add_compare: PipelineSpec = PipelineSpec("add&compare", depth=4, initiation_interval=2)
    supported_states: tuple[int, ...] = (3, 5, 7)

    def __post_init__(self) -> None:
        if self.clock_hz <= 0:
            raise ValueError(f"clock_hz must be positive, got {self.clock_hz}")

    def cycles_for_transitions(self, transitions: int) -> int:
        """Cycles to stream ``transitions`` add&compare operations."""
        return self.add_compare.cycles(transitions)


@dataclass
class ChainUpdateResult:
    """Result of one vectorised chain update."""

    delta: np.ndarray
    backpointer: np.ndarray
    cycles: int
    transitions: int


class ViterbiUnit:
    """One dedicated Viterbi decoder instance."""

    def __init__(
        self,
        spec: ViterbiUnitSpec | None = None,
        float_unit: FloatUnit | None = None,
        trace: PipelineTrace | None = None,
    ) -> None:
        self.spec = spec or ViterbiUnitSpec()
        self.fpu = float_unit or FloatUnit()
        self.trace = trace
        self._cycles_busy = 0
        self._transitions = 0
        self._columns = 0
        self._bank_cache: dict | None = None
        self._chain_scratch: dict | None = None

    def _chain_buffers(self, k: int) -> dict:
        """Per-step work arrays for :meth:`update_chain`, reused across
        frames (reallocated only when the state count changes)."""
        scratch = self._chain_scratch
        if scratch is None or scratch["k"] != k:
            scratch = self._chain_scratch = {
                "k": k,
                "best": np.empty(k, dtype=np.float32),
                "from_prev": np.empty(k, dtype=np.float32),
                "enter": np.empty(k, dtype=np.float32),
                "delta": np.empty(k, dtype=np.float32),
                "mask": np.empty(k, dtype=bool),
                "backptr": np.empty(k, dtype=np.int8),
            }
        return scratch

    @property
    def cycles_busy(self) -> int:
        return self._cycles_busy

    @property
    def transitions_processed(self) -> int:
        return self._transitions

    @property
    def columns_processed(self) -> int:
        return self._columns

    def seconds(self, cycles: int | None = None) -> float:
        c = self._cycles_busy if cycles is None else cycles
        return c / self.spec.clock_hz

    def reset_counters(self) -> None:
        self._cycles_busy = 0
        self._transitions = 0
        self._columns = 0
        self.fpu.reset()

    def activity(self) -> dict[str, float]:
        ops = self.fpu.counts
        return {
            "cycles_busy": float(self._cycles_busy),
            "add_ops": float(ops.add),
            "compare_ops": float(ops.compare),
            "transitions": float(self._transitions),
            "columns": float(self._columns),
        }

    # ------------------------------------------------------------------
    # Dense, bit-faithful column update
    # ------------------------------------------------------------------
    def step_column(
        self,
        prev_delta: np.ndarray,
        log_transitions: np.ndarray,
        obs_logprobs: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """One time step over a dense transition matrix.

        Parameters
        ----------
        prev_delta:
            ``log delta_{t-1}``, shape (S,).
        log_transitions:
            ``log a_ij``, shape (S, S); ``-inf`` marks absent arcs
            (they consume no add&compare slot — the control module
            walks only the stored arcs of the model).
        obs_logprobs:
            ``log b_j(O_t)`` per destination state, shape (S,).

        Returns ``(new_delta, backpointers, cycles)``.
        """
        prev = np.asarray(prev_delta, dtype=np.float32)
        trans = np.asarray(log_transitions, dtype=np.float32)
        obs = np.asarray(obs_logprobs, dtype=np.float32)
        n_states = prev.shape[0]
        if trans.shape != (n_states, n_states):
            raise ValueError(
                f"transition matrix shape {trans.shape} != ({n_states}, {n_states})"
            )
        if obs.shape != (n_states,):
            raise ValueError(f"obs shape {obs.shape} != ({n_states},)")
        if n_states not in self.spec.supported_states:
            raise ValueError(
                f"{n_states}-state HMMs unsupported (unit handles "
                f"{self.spec.supported_states})"
            )
        start_cycle = self._cycles_busy
        new_delta = np.full(n_states, LOG_ZERO, dtype=np.float32)
        backptr = np.full(n_states, -1, dtype=np.int32)
        transitions = 0
        for j in range(n_states):
            best = np.float32(LOG_ZERO)
            best_i = -1
            for i in range(n_states):
                if not np.isfinite(trans[i, j]):
                    continue
                cand = np.float32(self.fpu.add(prev[i], trans[i, j]))
                self.fpu.counts.compare += 1
                transitions += 1
                if cand > best:
                    best = cand
                    best_i = i
            if best_i >= 0:
                new_delta[j] = np.float32(self.fpu.add(best, obs[j]))
                backptr[j] = best_i
        cycles = self.spec.cycles_for_transitions(transitions)
        self._cycles_busy += cycles
        self._transitions += transitions
        self._columns += 1
        if self.trace is not None:
            self.trace.record(
                "viterbi-unit", f"column[{self._columns}]", start_cycle, self._cycles_busy
            )
        return new_delta, backptr, cycles

    # ------------------------------------------------------------------
    # Vectorised chain-bank update (decoder fast path)
    # ------------------------------------------------------------------
    def update_chain(
        self,
        prev_delta: np.ndarray,
        self_logp: np.ndarray,
        forward_logp: np.ndarray,
        obs_logprobs: np.ndarray,
        entry_scores: np.ndarray | None = None,
        chain_start: np.ndarray | None = None,
    ) -> ChainUpdateResult:
        """Left-to-right update over a flattened bank of HMM chains.

        The decoder lays all active HMM states out in one array where
        state ``s`` may receive probability from itself (``self_logp``)
        and from its left neighbour (``forward_logp[s-1]``), except at
        chain starts which instead receive ``entry_scores`` (word/phone
        entry from the token passer).

        Parameters
        ----------
        prev_delta:
            Previous log-deltas, shape (K,).
        self_logp:
            Self-loop log-probabilities, shape (K,).
        forward_logp:
            Forward-arc log-probability *out of* each state, shape (K,);
            the value at a chain's last state is ignored.
        obs_logprobs:
            Senone score for each state, shape (K,).
        entry_scores:
            Log-score offered to each chain-start state (already
            including the entry transition), shape (K,), ``LOG_ZERO``
            where no entry is offered.  Ignored if ``chain_start`` is
            None.
        chain_start:
            Boolean mask, True at the first state of each chain.

        Returns
        -------
        ChainUpdateResult
            New deltas, backpointer codes (``BP_SELF``, ``BP_FORWARD``,
            ``BP_ENTRY``), cycles consumed and transition count.  The
            ``delta`` and ``backpointer`` arrays are unit-owned scratch
            buffers reused every step (allocation-free frame loop);
            consume or copy them before the next chain update on this
            unit — both decoder frame loops already do.
        """
        prev = np.asarray(prev_delta, dtype=np.float32)
        k = prev.shape[0]
        self_lp = np.asarray(self_logp, dtype=np.float32)
        fwd_lp = np.asarray(forward_logp, dtype=np.float32)
        obs = np.asarray(obs_logprobs, dtype=np.float32)
        for name, arr in (("self_logp", self_lp), ("forward_logp", fwd_lp), ("obs", obs)):
            if arr.shape != (k,):
                raise ValueError(f"{name} shape {arr.shape} != ({k},)")
        if chain_start is None:
            starts = np.zeros(k, dtype=bool)
        else:
            starts = np.asarray(chain_start, dtype=bool)
            if starts.shape != (k,):
                raise ValueError(f"chain_start shape {starts.shape} != ({k},)")
        # Every op below is the float32 sequence of the original
        # allocating implementation, landed in preallocated buffers;
        # ``prev`` is fully consumed before the single write to the
        # delta buffer, so even ``prev is result.delta`` is safe.
        scratch = self._chain_buffers(k)
        best = scratch["best"]
        np.add(prev, self_lp, out=best)  # stay
        from_prev = scratch["from_prev"]
        from_prev[0] = LOG_ZERO
        if k > 1:
            np.add(prev[:-1], fwd_lp[:-1], out=from_prev[1:])
        from_prev[starts] = LOG_ZERO
        enter = scratch["enter"]
        enter.fill(LOG_ZERO)
        if entry_scores is not None:
            entry = np.asarray(entry_scores, dtype=np.float32)
            if entry.shape != (k,):
                raise ValueError(f"entry_scores shape {entry.shape} != ({k},)")
            np.copyto(enter, entry, where=starts)
        backptr = scratch["backptr"]
        backptr.fill(BP_SELF)
        mask = scratch["mask"]
        np.greater(from_prev, best, out=mask)
        np.copyto(best, from_prev, where=mask)
        backptr[mask] = BP_FORWARD
        np.greater(enter, best, out=mask)
        np.copyto(best, enter, where=mask)
        backptr[mask] = BP_ENTRY
        new_delta = scratch["delta"]
        np.add(best, obs, out=new_delta)
        np.less_equal(best, np.float32(LOG_ZERO), out=mask)
        new_delta[mask] = LOG_ZERO
        # Activity: every state consumes a self arc and (if not a chain
        # start) a forward arc; entry candidates add one more compare.
        transitions = int(k + np.count_nonzero(~starts))
        if entry_scores is not None:
            transitions += int(np.count_nonzero(starts))
        self.fpu.counts.add += transitions + k  # + obs addition per state
        self.fpu.counts.compare += transitions
        cycles = self.spec.cycles_for_transitions(transitions)
        self._cycles_busy += cycles
        self._transitions += transitions
        self._columns += 1
        return ChainUpdateResult(
            delta=new_delta, backpointer=backptr, cycles=cycles, transitions=transitions
        )

    # ------------------------------------------------------------------
    # Batched multi-utterance chain update (the flat LaneBank path)
    # ------------------------------------------------------------------
    def update_chain_bank(
        self,
        prev_delta: np.ndarray,
        self_logp: np.ndarray,
        forward_logp: np.ndarray,
        obs_logprobs: np.ndarray,
        entry_scores: np.ndarray,
        chain_start: np.ndarray,
    ) -> ChainUpdateResult:
        """One :meth:`update_chain` over ``B`` stacked utterances.

        ``prev_delta``/``obs_logprobs``/``entry_scores`` are ``(B, S)``
        banks sharing the network's ``(S,)`` transition constants and
        start mask.  The bank is flattened row-major and swept in a
        single chain update; because every chain's first state is a
        start state, row boundaries are sealed exactly like word
        boundaries, and all arithmetic is elementwise float32 — each
        row's deltas and backpointers are bit-identical to updating
        that utterance alone.  Cycles/transitions account for the whole
        bank (B x S states per frame).

        The lane bank leans on this: a retired lane stays an
        all-``LOG_ZERO`` row and a refill swaps a row's CONTENT —
        neither changes ``B``, so the tiled-constant cache below
        persists until the bank compacts.

        Returns a :class:`ChainUpdateResult` whose ``delta`` and
        ``backpointer`` are reshaped back to ``(B, S)``.
        """
        prev = np.asarray(prev_delta, dtype=np.float32)
        if prev.ndim != 2:
            raise ValueError(f"prev_delta must be (B, S), got {prev.shape}")
        b, s = prev.shape
        starts = np.asarray(chain_start, dtype=bool)
        if starts.shape != (s,):
            raise ValueError(f"chain_start shape {starts.shape} != ({s},)")
        if s and not starts[0]:
            raise ValueError("state 0 must be a chain start to seal row seams")
        obs = np.asarray(obs_logprobs, dtype=np.float32)
        entry = np.asarray(entry_scores, dtype=np.float32)
        for name, arr in (("obs_logprobs", obs), ("entry_scores", entry)):
            if arr.shape != (b, s):
                raise ValueError(f"{name} shape {arr.shape} != ({b}, {s})")
        # The tiled network constants are identical every frame of a
        # batched decode; cache them keyed on the source arrays (held
        # by reference, so identity comparison is sound).
        cache = self._bank_cache
        if (
            cache is None
            or cache["b"] != b
            or cache["self_src"] is not self_logp
            or cache["fwd_src"] is not forward_logp
            or cache["start_src"] is not chain_start
        ):
            cache = self._bank_cache = {
                "b": b,
                "self_src": self_logp,
                "fwd_src": forward_logp,
                "start_src": chain_start,
                "self": np.tile(np.asarray(self_logp, dtype=np.float32), b),
                "fwd": np.tile(np.asarray(forward_logp, dtype=np.float32), b),
                "starts": np.tile(starts, b),
            }
        result = self.update_chain(
            np.ascontiguousarray(prev).ravel(),
            cache["self"],
            cache["fwd"],
            np.ascontiguousarray(obs).ravel(),
            np.ascontiguousarray(entry).ravel(),
            cache["starts"],
        )
        return ChainUpdateResult(
            delta=result.delta.reshape(b, s),
            backpointer=result.backpointer.reshape(b, s),
            cycles=result.cycles,
            transitions=result.transitions,
        )

    # ------------------------------------------------------------------
    # Active-list token update (the tree lane bank path)
    # ------------------------------------------------------------------
    def update_tokens_active(
        self,
        prev_delta: np.ndarray,
        slots: np.ndarray,
        pred_slots: np.ndarray,
        self_logp: np.ndarray,
        pred_logp: np.ndarray,
        obs_logprobs: np.ndarray,
        entry_scores: np.ndarray,
        bank_transitions: int,
    ) -> ChainUpdateResult:
        """:meth:`update_tokens` evaluated at a list of live registers.

        ``prev_delta`` is the whole token bank (the tree lane bank
        stacks ``(B, S)`` utterance rows; it is only read) and
        ``slots`` the ``(n,)`` flat indices of the registers that can
        hold a live token after this frame: alive now, predecessor
        alive, or offered an entry.  The other arrays are ``(n,)``,
        aligned with ``slots``: ``pred_slots`` the flat index of each
        register's predecessor (-1 for none), ``pred_logp`` that arc,
        ``self_logp`` the self-loop, ``obs_logprobs`` the senone score,
        ``entry_scores`` the entry offer (``LOG_ZERO`` for none).

        The stay/forward/entry competition is the float32 sequence of
        :meth:`update_tokens`, so the returned ``(n,)`` ``delta`` and
        ``backpointer`` are bit-identical to that method's at
        ``slots``; at any other register it would leave a dead token
        dead with ``BP_SELF``, so the caller leaves those alone.

        The unit itself still streams the whole bank — a dead register
        occupies the same add&compare slots as a live one — so cycles
        and operation counts are charged for ``bank_transitions``, the
        count :meth:`update_tokens` reports for the full bank
        (registers + predecessor arcs + entry offers), not for ``n``.
        """
        prev = np.asarray(prev_delta, dtype=np.float32).reshape(-1)
        n = slots.shape[0]
        self_lp = np.asarray(self_logp, dtype=np.float32)
        pred_lp = np.asarray(pred_logp, dtype=np.float32)
        obs = np.asarray(obs_logprobs, dtype=np.float32)
        entry = np.asarray(entry_scores, dtype=np.float32)
        for name, arr in (
            ("pred_slots", pred_slots),
            ("self_logp", self_lp),
            ("pred_logp", pred_lp),
            ("obs_logprobs", obs),
            ("entry_scores", entry),
        ):
            if arr.shape != (n,):
                raise ValueError(f"{name} shape {arr.shape} != ({n},)")
        if bank_transitions < prev.shape[0]:
            raise ValueError(
                f"bank_transitions {bank_transitions} < bank size {prev.shape[0]}"
            )
        best = prev[slots] + self_lp  # stay
        no_pred = pred_slots < 0
        from_pred = prev[np.where(no_pred, 0, pred_slots)] + pred_lp
        from_pred[no_pred] = LOG_ZERO
        backptr = np.full(n, BP_SELF, dtype=np.int8)
        better = from_pred > best
        np.copyto(best, from_pred, where=better)
        backptr[better] = BP_FORWARD
        better = entry > best
        np.copyto(best, entry, where=better)
        backptr[better] = BP_ENTRY
        new_delta = best + obs
        new_delta[best <= np.float32(LOG_ZERO)] = LOG_ZERO
        self.fpu.counts.add += bank_transitions + prev.shape[0]
        self.fpu.counts.compare += bank_transitions
        cycles = self.spec.cycles_for_transitions(bank_transitions)
        self._cycles_busy += cycles
        self._transitions += bank_transitions
        self._columns += 1
        return ChainUpdateResult(
            delta=new_delta,
            backpointer=backptr,
            cycles=cycles,
            transitions=bank_transitions,
        )

    # ------------------------------------------------------------------
    # Vectorised general token update (tree-structured lexica)
    # ------------------------------------------------------------------
    def update_tokens(
        self,
        prev_delta: np.ndarray,
        self_logp: np.ndarray,
        pred_state: np.ndarray,
        pred_logp: np.ndarray,
        obs_logprobs: np.ndarray,
        entry_scores: np.ndarray | None = None,
        entry_mask: np.ndarray | None = None,
    ) -> ChainUpdateResult:
        """Token update where each state has one explicit predecessor.

        Generalises :meth:`update_chain` from contiguous chains to any
        in-degree-1 topology (e.g. a lexicon prefix tree, where a
        node's first state descends from its *parent node's* last
        state).  ``pred_state[s]`` is the predecessor state index (-1
        for none); ``pred_logp[s]`` the log-probability of that arc
        *into* ``s``.  ``entry_mask`` marks states that may also accept
        ``entry_scores`` (tree roots).
        """
        prev = np.asarray(prev_delta, dtype=np.float32)
        k = prev.shape[0]
        self_lp = np.asarray(self_logp, dtype=np.float32)
        preds = np.asarray(pred_state, dtype=np.int64)
        pred_lp = np.asarray(pred_logp, dtype=np.float32)
        obs = np.asarray(obs_logprobs, dtype=np.float32)
        for name, arr in (
            ("self_logp", self_lp),
            ("pred_state", preds),
            ("pred_logp", pred_lp),
            ("obs", obs),
        ):
            if arr.shape != (k,):
                raise ValueError(f"{name} shape {arr.shape} != ({k},)")
        if preds.max(initial=-1) >= k:
            raise ValueError("pred_state index out of range")
        stay = prev + self_lp
        has_pred = preds >= 0
        safe = np.where(has_pred, preds, 0)
        from_pred = np.where(
            has_pred, prev[safe] + pred_lp, np.float32(LOG_ZERO)
        ).astype(np.float32)
        if entry_mask is None:
            mask = np.zeros(k, dtype=bool)
        else:
            mask = np.asarray(entry_mask, dtype=bool)
            if mask.shape != (k,):
                raise ValueError(f"entry_mask shape {mask.shape} != ({k},)")
        if entry_scores is not None:
            entry = np.asarray(entry_scores, dtype=np.float32)
            if entry.shape != (k,):
                raise ValueError(f"entry_scores shape {entry.shape} != ({k},)")
            enter = np.where(mask, entry, np.float32(LOG_ZERO))
        else:
            enter = np.full(k, LOG_ZERO, dtype=np.float32)
        best = stay
        backptr = np.full(k, BP_SELF, dtype=np.int8)
        better = from_pred > best
        best = np.where(better, from_pred, best)
        backptr[better] = BP_FORWARD
        better = enter > best
        best = np.where(better, enter, best)
        backptr[better] = BP_ENTRY
        new_delta = (best + obs).astype(np.float32)
        new_delta[best <= np.float32(LOG_ZERO)] = LOG_ZERO
        transitions = int(k + np.count_nonzero(has_pred))
        if entry_scores is not None:
            transitions += int(np.count_nonzero(mask))
        self.fpu.counts.add += transitions + k
        self.fpu.counts.compare += transitions
        cycles = self.spec.cycles_for_transitions(transitions)
        self._cycles_busy += cycles
        self._transitions += transitions
        self._columns += 1
        return ChainUpdateResult(
            delta=new_delta, backpointer=backptr, cycles=cycles, transitions=transitions
        )
