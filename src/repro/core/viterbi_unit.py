"""Cycle-accurate model of the dedicated Viterbi decoder unit (Figure 3).

The unit solves the log-domain Viterbi recurrence

    log delta_t(j) = max_i [ log delta_{t-1}(i) + log a_ij ] + log b_j(O_t)

with a pipelined array of 32-bit adders and a comparator: each
transition occupies one "Add & Compare" slot of 2 cycles (Figure 3).
Per Section III-B the unit handles 3-, 5- and 7-state HMM topologies,
so different acoustic models can be decoded.

The token competition of both lexicon networks — the
``max(stay, forward, entry) + b_j(O_t)`` compare and its dead-token
rule — is written ONCE, behind two ways of reaching a state's one
predecessor: :func:`chain_update` SHIFTS (the flat network's
left-to-right chains, any float dtype, ``(S,)`` or ``(B, S)`` stacked
lanes) and :func:`tree_update` GATHERS at a list of slots (any
in-degree-1 topology: the lexicon tree's active list).  Both return the
compare's decisions as masks.  The lane banks of :mod:`repro.runtime`
call them and, in hardware mode, charge the unit beside them through
the one charge point, :meth:`ViterbiUnit.charge_chain`.  Besides,
:meth:`ViterbiUnit.step_column` is dense and bit-faithful: an arbitrary
transition matrix column is swept transition by transition, each add
and compare performed in float32 through the shared
:class:`~repro.core.fpu.FloatUnit`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fpu import FloatUnit
from repro.core.logadd import LOG_DEAD, LOG_ZERO
from repro.core.pipeline import PipelineSpec, PipelineTrace

__all__ = [
    "ViterbiUnitSpec",
    "ViterbiUnit",
    "chain_update",
    "tree_update",
    "LOG_ZERO",
]

def _chain_scratch(scratch: dict | None, shape: tuple, dtype) -> dict:
    """``scratch`` holding :func:`chain_update`'s work arrays for this bank."""
    scratch = {} if scratch is None else scratch
    if scratch.get("for") != (shape, dtype):  # one check per frame, not per array
        floats = ("best", "from_prev", "enter", "delta")
        scratch.update({name: np.empty(shape, dtype) for name in floats})
        masks = ("took_fwd", "took_entry", "dead")
        scratch.update({name: np.empty(shape, bool) for name in masks})
        # State 0 has no left neighbour, and nothing below writes it.
        scratch["from_prev"][..., 0] = LOG_ZERO
        scratch["for"] = (shape, dtype)
    return scratch


def chain_update(
    delta: np.ndarray,
    self_logp: np.ndarray,
    fwd_logp: np.ndarray,
    obs: np.ndarray,
    entry_scores: np.ndarray | None,
    is_start: np.ndarray,
    out: np.ndarray | None = None,
    scratch: dict | None = None,
    entry_premasked: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One frame of the left-to-right chain recurrence (Figure 3).

    All HMM states lie in one array where state ``s`` may receive
    probability from itself (``self_logp[s]``) and from its left
    neighbour (``fwd_logp[s-1]``, the arc *out of* that state), except
    at chain starts (``is_start``), which instead receive
    ``entry_scores`` (the token passer's word entries, entry transition
    included; ``None`` = no entries).  A token with no path or an
    unscored state (``best`` / ``obs`` at or below ``LOG_DEAD``) is
    dead: ``LOG_ZERO``.

    Returns ``(new_delta, took_fwd, took_entry)``, the compare's two
    decisions as masks.  A challenger wins only when strictly greater
    — forward against stay, then entry against the better of the two —
    so the token ENTERED where both are set and stayed where neither is.

    ``delta``/``obs``/``entry_scores`` are ``(S,)`` or ``(B, S)`` in
    ONE float dtype, the dtype of the arithmetic; the constants are
    shared ``(S,)`` arrays of that dtype or narrower (the network
    stores float32).  Everything is elementwise along the trailing
    axis, so a row of a bank gets the bits of that row updated alone.

    A frame loop passes a ``scratch`` dict it keeps (filled here,
    reallocated only when shape or dtype change) and the update
    allocates nothing: the masks and, without ``out``, the new deltas
    live in it until the next call.  ``out`` may alias ``delta``
    (consumed before the one output write).  ``entry_premasked``
    asserts ``entry_scores`` is already ``LOG_ZERO`` off the start
    states, skipping the masking pass.
    """
    scratch = _chain_scratch(scratch, delta.shape, delta.dtype)
    if out is None:
        out = scratch["delta"]
    best, from_prev = scratch["best"], scratch["from_prev"]
    np.add(delta, self_logp, out=best)  # stay
    np.add(delta[..., :-1], fwd_logp[:-1], out=from_prev[..., 1:])
    from_prev[..., is_start] = LOG_ZERO
    if entry_premasked:
        enter = entry_scores
    else:
        enter = scratch["enter"]
        enter.fill(LOG_ZERO)
        if entry_scores is not None:
            np.copyto(enter, entry_scores, where=is_start)
    return _compete(
        best, from_prev, enter, obs,
        out, scratch["took_fwd"], scratch["took_entry"], scratch["dead"],
    )


def tree_update(
    delta: np.ndarray,
    slots: np.ndarray,
    pred_slots: np.ndarray,
    self_logp: np.ndarray,
    pred_logp: np.ndarray,
    obs: np.ndarray,
    entry_scores: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One frame of the in-degree-1 token recurrence at a list of slots.

    :func:`chain_update` for a topology where a state's predecessor is
    any other state (a lexicon tree node's first state descends from
    its parent node's last): the predecessor is GATHERED, not shifted.
    ``delta`` is the whole flat token bank (only read) and ``slots``
    the ``(n,)`` indices to evaluate; the other arrays are ``(n,)``,
    aligned with ``slots``: ``pred_slots`` each slot's predecessor
    (-1 for none), ``pred_logp`` that arc, ``self_logp`` the self
    loop, ``obs`` the senone score, ``entry_scores`` the entry offer
    (``LOG_ZERO`` for none).

    Returns ``(new_delta, took_fwd, took_entry)`` for the listed slots,
    from :func:`chain_update`'s compare and dead rule.  An unlisted slot
    that is dead, with a dead predecessor and no entry offer, would stay
    dead with neither mask set, so a caller need not list it.
    """
    best = delta[slots] + self_logp  # stay
    from_pred = delta[pred_slots] + pred_logp
    from_pred[pred_slots < 0] = LOG_ZERO  # no predecessor: -1 read the last slot
    return _compete(best, from_pred, entry_scores, obs)


def _compete(
    best, from_prev, enter, obs, out=None, took_fwd=None, took_entry=None, dead=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stay -> forward -> entry compare and the ONE dead rule of
    both updates (semantics: :func:`chain_update`).

    ``best`` holds the stay scores and is clobbered.  Outputs left
    ``None`` are allocated; ``out`` may alias the bank ``best`` was
    read from.
    """
    took_fwd = np.greater(from_prev, best, out=took_fwd)
    np.copyto(best, from_prev, where=took_fwd)
    took_entry = np.greater(enter, best, out=took_entry)
    np.copyto(best, enter, where=took_entry)
    out = np.add(best, obs, out=out)
    # No arc offered a path, or the state was not scored.
    dead = np.less_equal(np.minimum(best, obs, out=best), LOG_DEAD, out=dead)
    np.copyto(out, LOG_ZERO, where=dead)
    return out, took_fwd, took_entry


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
    # Token updates of the lexicon networks
    # ------------------------------------------------------------------
    def charge_chain(
        self, chain_start: np.ndarray, rows: int = 1, entries: bool = True
    ) -> tuple[int, int]:
        """Charge one token-update sweep; ``(cycles, transitions)``.

        The ONE place a :func:`chain_update` or :func:`tree_update`
        costs anything.  Every state consumes a self arc and, unless it
        starts a chain, a forward arc; an entry offer is one more
        compare per start; each state then adds its observation score.
        A lexicon tree is charged as chains whose starts are its roots
        (the states with no predecessor).  ``rows`` stacked banks
        stream through the add&compare array as one column (a dead or
        idle register occupies its slots like a live one, so an update
        evaluated at an active list is charged for the whole bank).
        """
        k = chain_start.shape[0]
        per_row = 2 * k if entries else 2 * k - int(np.count_nonzero(chain_start))
        transitions = rows * per_row
        self.fpu.counts.add += transitions + rows * k  # + obs addition per state
        self.fpu.counts.compare += transitions
        cycles = self.spec.cycles_for_transitions(transitions)
        self._cycles_busy += cycles
        self._transitions += transitions
        self._columns += 1
        return cycles, transitions
