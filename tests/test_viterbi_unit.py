"""Tests for repro.core.viterbi_unit against the exact reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.logadd import LOG_DEAD
from repro.core.viterbi_unit import (
    LOG_ZERO,
    ViterbiUnit,
    ViterbiUnitSpec,
    chain_update,
    tree_update,
)
from repro.decoder.viterbi import viterbi_decode
from repro.hmm.topology import HmmTopology


def _left_right_transitions(n_states: int, self_p: float = 0.6) -> np.ndarray:
    mat = np.full((n_states, n_states), -np.inf)
    for i in range(n_states):
        mat[i, i] = np.log(self_p)
        if i + 1 < n_states:
            mat[i, i + 1] = np.log(1 - self_p)
    return mat


class TestDenseColumn:
    def test_matches_reference_decoder(self, rng):
        unit = ViterbiUnit()
        trans = _left_right_transitions(3)
        obs = rng.normal(-3, 1, size=(6, 3))
        init = np.array([0.0, -np.inf, -np.inf])
        # Run the unit frame by frame.
        delta = (init + obs[0]).astype(np.float32)
        for t in range(1, 6):
            delta, _, _ = unit.step_column(delta, trans, obs[t].astype(np.float32))
        exact = viterbi_decode(trans, obs, init)
        assert float(delta.max()) == pytest.approx(exact.log_prob, abs=1e-3)

    def test_backpointers_recover_path(self, rng):
        unit = ViterbiUnit()
        trans = _left_right_transitions(3)
        obs = rng.normal(-2, 1, size=(7, 3))
        init = np.array([0.0, -np.inf, -np.inf])
        delta = (init + obs[0]).astype(np.float32)
        backptrs = []
        for t in range(1, 7):
            delta, bp, _ = unit.step_column(delta, trans, obs[t].astype(np.float32))
            backptrs.append(bp)
        state = int(delta.argmax())
        path = [state]
        for bp in reversed(backptrs):
            state = int(bp[state])
            path.append(state)
        path.reverse()
        exact = viterbi_decode(trans, obs, init)
        assert tuple(path) == exact.states

    def test_cycles_follow_transition_count(self):
        unit = ViterbiUnit()
        trans = _left_right_transitions(3)  # 5 arcs: 3 self + 2 fwd
        delta = np.array([-1.0, -2.0, -3.0], dtype=np.float32)
        _, _, cycles = unit.step_column(delta, trans, np.zeros(3, dtype=np.float32))
        assert cycles == unit.spec.cycles_for_transitions(5)

    @pytest.mark.parametrize("n_states", [3, 5, 7])
    def test_supported_topologies(self, n_states, rng):
        unit = ViterbiUnit()
        trans = _left_right_transitions(n_states)
        delta = rng.normal(-5, 1, size=n_states).astype(np.float32)
        new_delta, bp, _ = unit.step_column(
            delta, trans, np.zeros(n_states, dtype=np.float32)
        )
        assert new_delta.shape == (n_states,)

    def test_unsupported_state_count_rejected(self):
        unit = ViterbiUnit()
        trans = _left_right_transitions(4)
        with pytest.raises(ValueError):
            unit.step_column(
                np.zeros(4, dtype=np.float32), trans, np.zeros(4, dtype=np.float32)
            )

    def test_shape_validation(self):
        unit = ViterbiUnit()
        with pytest.raises(ValueError):
            unit.step_column(
                np.zeros(3, dtype=np.float32),
                np.zeros((3, 4)),
                np.zeros(3, dtype=np.float32),
            )

    def test_skip_transitions_handled(self, rng):
        topo = HmmTopology(num_states=5, allow_skip=True, skip_prob=0.1)
        full = topo.log_transition_matrix()[:5, :5]
        unit = ViterbiUnit()
        delta = rng.normal(-4, 1, size=5).astype(np.float32)
        obs = rng.normal(-2, 1, size=5).astype(np.float32)
        new_delta, _, _ = unit.step_column(delta, full.astype(np.float32), obs)
        # Exact single step in float64.
        expected = (delta[:, None] + full).max(axis=0) + obs
        assert np.allclose(new_delta, expected, atol=1e-3)


class TestChainUpdate:
    def test_matches_dense_on_single_chain(self, rng):
        """The vectorised chain path equals the dense path for an L-R HMM,
        and the unit charges both the same column."""
        unit_dense = ViterbiUnit()
        unit_chain = ViterbiUnit()
        topo = HmmTopology(num_states=3)
        self_lp, fwd_lp = topo.chain_log_probs()
        trans = _left_right_transitions(3, topo.self_loop_prob)
        delta = rng.normal(-5, 1, size=3).astype(np.float32)
        obs = rng.normal(-2, 1, size=3).astype(np.float32)
        dense, _, _ = unit_dense.step_column(delta, trans, obs)
        starts = np.array([True, False, False])
        chain, _, _ = chain_update(
            delta,
            np.full(3, self_lp, dtype=np.float32),
            np.full(3, fwd_lp, dtype=np.float32),
            obs,
            None,
            starts,
        )
        assert np.allclose(dense, chain, atol=1e-4)
        unit_chain.charge_chain(starts, entries=False)  # 3 self + 2 forward arcs
        assert unit_chain.activity() == unit_dense.activity()

    def test_entry_wins_when_better(self):
        delta = np.full(3, LOG_ZERO, dtype=np.float32)
        entry = np.array([-1.0, LOG_ZERO, LOG_ZERO], dtype=np.float32)
        delta, took_fwd, took_entry = chain_update(
            delta,
            np.full(3, -0.5, dtype=np.float32),
            np.full(3, -0.7, dtype=np.float32),
            np.zeros(3, dtype=np.float32),
            entry,
            np.array([True, False, False]),
        )
        assert took_entry.tolist() == [True, False, False]
        assert delta[0] == pytest.approx(-1.0)
        assert delta[1] == LOG_ZERO

    def test_forward_propagation(self):
        delta = np.array([-1.0, LOG_ZERO, LOG_ZERO], dtype=np.float32)
        delta, took_fwd, took_entry = chain_update(
            delta,
            np.full(3, np.log(0.5), dtype=np.float32),
            np.full(3, np.log(0.5), dtype=np.float32),
            np.zeros(3, dtype=np.float32),
            None,
            np.array([True, False, False]),
        )
        assert took_fwd[1] and not took_entry[1]
        assert delta[1] == pytest.approx(-1.0 + np.log(0.5), abs=1e-5)
        assert not took_fwd[0] and not took_entry[0]  # state 0 stayed

    def test_chain_boundary_isolation(self):
        """Probability must not leak across chain starts."""
        delta = np.array([-1.0, -1.0, -1.0, LOG_ZERO], dtype=np.float32)
        starts = np.array([True, False, False, True])  # two chains: 3 + 1
        delta, took_fwd, _ = chain_update(
            delta,
            np.full(4, np.log(0.6), dtype=np.float32),
            np.full(4, np.log(0.4), dtype=np.float32),
            np.zeros(4, dtype=np.float32),
            None,
            starts,
        )
        # State 3 heads a new chain: no forward arc from state 2.
        assert delta[3] == LOG_ZERO
        assert not took_fwd[3]

    def test_transition_counting(self):
        unit = ViterbiUnit()
        starts = np.array([True, False, True, False])
        # 4 self + 2 forward + 2 entry = 8.
        assert unit.charge_chain(starts) == (unit.spec.cycles_for_transitions(8), 8)
        # No entry offers: the starts' slots go unused; stacked rows
        # stream through the array as ONE column.
        cycles, transitions = unit.charge_chain(starts, rows=3, entries=False)
        assert transitions == 3 * 6
        assert cycles == unit.spec.cycles_for_transitions(18)
        assert unit.activity() == {
            "cycles_busy": float(unit.spec.cycles_for_transitions(8) + cycles),
            "add_ops": float(8 + 4 + 18 + 3 * 4),  # + one obs add per state
            "compare_ops": 26.0,
            "transitions": 26.0,
            "columns": 2.0,
        }

    def test_activity_and_reset(self):
        unit = ViterbiUnit()
        unit.charge_chain(np.zeros(3, dtype=bool))
        act = unit.activity()
        assert act["columns"] == 1
        assert act["transitions"] > 0
        unit.reset_counters()
        assert unit.activity() == dict.fromkeys(act, 0.0)


def _chain_update_oracle(prev, self_lp, fwd_lp, obs, entry, starts):
    """Freshly-allocating float32 chain update (the pre-scratch math):
    ``(delta, took_fwd, took_entry)``."""
    stay = prev + self_lp
    from_prev = np.empty_like(prev)
    from_prev[0] = LOG_ZERO
    from_prev[1:] = prev[:-1] + fwd_lp[:-1]
    from_prev[starts] = LOG_ZERO
    enter = np.where(starts, entry, np.float32(LOG_ZERO))
    took_fwd = from_prev > stay
    best = np.where(took_fwd, from_prev, stay)
    took_entry = enter > best
    best = np.where(took_entry, enter, best)
    new_delta = (best + obs).astype(np.float32)
    new_delta[best <= np.float32(LOG_ZERO)] = LOG_ZERO
    return new_delta, took_fwd, took_entry


class TestChainScratchReuse:
    """chain_update reuses a kept scratch dict; outputs must not change."""

    def _random_inputs(self, rng, k=12):
        prev = rng.normal(-5, 2, size=k).astype(np.float32)
        prev[rng.random(k) < 0.3] = LOG_ZERO
        self_lp = rng.normal(-0.5, 0.1, size=k).astype(np.float32)
        fwd_lp = rng.normal(-0.9, 0.1, size=k).astype(np.float32)
        obs = rng.normal(-2, 1, size=k).astype(np.float32)
        entry = np.full(k, LOG_ZERO, dtype=np.float32)
        starts = np.zeros(k, dtype=bool)
        starts[::4] = True
        entry[starts] = rng.normal(
            -3, 1, size=int(np.count_nonzero(starts))
        ).astype(np.float32)
        return prev, self_lp, fwd_lp, obs, entry, starts

    def test_repeated_calls_bit_identical_to_oracle(self, rng):
        scratch: dict = {}
        for _ in range(5):
            inputs = self._random_inputs(rng)
            got = chain_update(*inputs, scratch=scratch)
            for have, want in zip(got, _chain_update_oracle(*inputs), strict=True):
                np.testing.assert_array_equal(have, want)

    def test_buffers_are_reused_across_frames(self, rng):
        scratch: dict = {}
        first = chain_update(*self._random_inputs(rng), scratch=scratch)
        second = chain_update(*self._random_inputs(rng), scratch=scratch)
        # delta and both masks live in the caller's scratch
        assert all(a is b for a, b in zip(first, second, strict=True))

    def test_size_change_reallocates(self, rng):
        scratch: dict = {}
        small = chain_update(*self._random_inputs(rng, k=8), scratch=scratch)
        assert small[0].shape == (8,)
        large = chain_update(*self._random_inputs(rng, k=16), scratch=scratch)
        assert all(out.shape == (16,) for out in large)

    def test_prev_may_alias_the_delta_scratch(self, rng):
        """Feeding the returned delta straight back in must be safe."""
        scratch: dict = {}
        prev, *consts = self._random_inputs(rng)
        result = chain_update(prev, *consts, scratch=scratch)
        expected_prev = result[0].copy()
        chained = chain_update(result[0], *consts, scratch=scratch)
        oracle = chain_update(expected_prev, *consts)
        for have, want in zip(chained, oracle, strict=True):
            np.testing.assert_array_equal(have, want)


class TestChainBank:
    """One recurrence for ``(S,)`` and ``(B, S)``: stacking changes no bit."""

    def _bank_inputs(self, rng, rows=5, k=12):
        make = TestChainScratchReuse()._random_inputs
        _, self_lp, fwd_lp, _, _, starts = make(rng, k)
        per_row = [make(rng, k) for _ in range(rows)]
        prev, obs, entry = (
            np.stack([r[i] for r in per_row]) for i in (0, 3, 4)
        )
        prev[1] = LOG_ZERO  # a row with no live token rides along
        return prev, self_lp, fwd_lp, obs, entry, starts

    def test_bank_equals_separate_rows_bit_for_bit(self, rng):
        prev, self_lp, fwd_lp, obs, entry, starts = self._bank_inputs(rng)
        bank_unit, row_unit = ViterbiUnit(), ViterbiUnit()
        bank = chain_update(prev, self_lp, fwd_lp, obs, entry, starts)
        assert all(out.shape == prev.shape for out in bank)
        cycles, bank_transitions = bank_unit.charge_chain(starts, rows=prev.shape[0])
        transitions = 0
        for b in range(prev.shape[0]):
            row = chain_update(prev[b], self_lp, fwd_lp, obs[b], entry[b], starts)
            for have, want in zip(bank, row, strict=True):
                np.testing.assert_array_equal(have[b], want)
            transitions += row_unit.charge_chain(starts)[1]
        # The bank streams as ONE column holding every row's transitions.
        assert bank_transitions == transitions
        assert cycles == bank_unit.spec.cycles_for_transitions(transitions)
        got, want = bank_unit.activity(), row_unit.activity()
        for key in ("transitions", "add_ops", "compare_ops"):
            assert got[key] == want[key]
        assert got["columns"] == 1 and want["columns"] == prev.shape[0]
        assert got["cycles_busy"] == cycles

    def test_rows_are_sealed_without_a_start_at_state_zero(self, rng):
        """The forward arc shifts along each row: a row's last token
        never reaches the next row's state 0, chain start or not."""
        prev, self_lp, fwd_lp, obs, entry, starts = self._bank_inputs(rng)
        starts[0] = False
        prev[:, 0] = LOG_ZERO  # state 0 could only fill from the left
        prev[:, -1] = -1.0  # ... where every row holds a live token
        delta, took_fwd, _ = chain_update(prev, self_lp, fwd_lp, obs, entry, starts)
        assert (delta[:, 0] == LOG_ZERO).all()
        assert not took_fwd[:, 0].any()

    def test_float64_kernel_in_place_with_reused_scratch(self, rng):
        """The software path's contract: ``out`` aliasing ``delta`` and a
        scratch dict kept across frames change nothing."""
        inputs = self._bank_inputs(rng)
        prev, self_lp, fwd_lp, obs, entry, starts = (
            a.astype(np.float64) if a.dtype == np.float32 else a for a in inputs
        )
        delta, scratch = prev.copy(), {}
        for frame in range(3):  # frame 0 fills the scratch, 1-2 reuse it
            fresh_delta, *fresh_masks = chain_update(
                delta.copy(), self_lp, fwd_lp, obs, entry, starts
            )
            buffers = dict(scratch)
            out, *masks = chain_update(
                delta, self_lp, fwd_lp, obs, entry, starts,
                out=delta, scratch=scratch,
            )
            assert out is delta and out.dtype == np.float64
            np.testing.assert_array_equal(out, fresh_delta)
            for mask, fresh in zip(masks, fresh_masks, strict=True):
                np.testing.assert_array_equal(mask, fresh)
            if frame:
                assert all(scratch[name] is buf for name, buf in buffers.items())


def _chain_scalar_oracle(prev, self_lp, fwd_lp, obs, entry, starts):
    """``chain_update`` one state at a time: ``(delta, took_fwd, took_entry)``.

    Scalars keep their array's dtype, so every add is the add the
    kernel performs (float32 constants widen exactly)."""
    zero = prev.dtype.type(LOG_ZERO)
    delta = np.empty_like(prev)
    took_fwd, took_entry = np.zeros(prev.shape, bool), np.zeros(prev.shape, bool)
    for at in np.ndindex(prev.shape):
        row, s = at[:-1], at[-1]
        best = prev[at] + self_lp[s]
        from_prev = zero
        if s > 0 and not starts[s]:
            from_prev = prev[row + (s - 1,)] + fwd_lp[s - 1]
        enter = entry[at] if entry is not None and starts[s] else zero
        if from_prev > best:
            took_fwd[at], best = True, from_prev
        if enter > best:
            took_entry[at], best = True, enter
        dead = min(best, obs[at]) <= LOG_DEAD
        delta[at] = zero if dead else best + obs[at]
    return delta, took_fwd, took_entry


class TestChainUpdateAgainstScalarOracle:
    """The masks ARE the decisions: state by state against a plain loop."""

    def _bank(self, seed, shape, dtype):
        rng = np.random.default_rng(seed)
        k = shape[-1]
        # Coarse scores and equal constants: stay/forward/entry ties
        # are generated, not hoped for.
        prev = np.round(rng.normal(-20.0, 3.0, shape)).astype(dtype)
        prev[rng.random(shape) < 0.3] = LOG_ZERO
        if len(shape) == 2:
            prev[1] = LOG_ZERO  # an all-dead row rides along
        self_lp = np.full(k, -1.0, dtype=np.float32)
        fwd_lp = np.full(k, -1.0, dtype=np.float32)
        obs = np.round(rng.normal(-4.0, 2.0, shape)).astype(dtype)
        obs[rng.random(shape) < 0.2] = LOG_ZERO  # unscored states
        starts = np.zeros(k, dtype=bool)
        starts[::4] = True
        # Offers everywhere: only the ones at chain starts may count.
        entry = np.round(rng.normal(-21.0, 3.0, shape)).astype(dtype)
        entry[rng.random(shape) < 0.5] = LOG_ZERO
        return prev, self_lp, fwd_lp, obs, entry, starts

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(13,), (4, 13)])
    def test_delta_and_masks_state_by_state(self, shape, dtype):
        seen = np.zeros(3, dtype=int)  # stayed, moved, entered
        scratch: dict = {}
        for seed in range(25):
            prev, self_lp, fwd_lp, obs, entry, starts = self._bank(seed, shape, dtype)
            want = _chain_scalar_oracle(prev, self_lp, fwd_lp, obs, entry, starts)
            # Fresh buffers; then in place on ``delta`` with a scratch
            # dict kept across seeds; then the premasked spelling.
            got = chain_update(prev.copy(), self_lp, fwd_lp, obs, entry, starts)
            delta = prev.copy()
            in_place = chain_update(
                delta, self_lp, fwd_lp, obs, entry, starts, out=delta, scratch=scratch
            )
            assert in_place[0] is delta and delta.dtype == dtype
            premasked = np.where(starts, entry, dtype(LOG_ZERO))
            masked = chain_update(
                prev.copy(), self_lp, fwd_lp, obs, premasked, starts,
                entry_premasked=True,
            )
            for result in (got, in_place, masked):
                for have, expect in zip(result, want, strict=True):
                    np.testing.assert_array_equal(have, expect)
            new_delta, took_fwd, took_entry = want
            assert not took_entry[..., ~starts].any()  # entries only at starts
            if len(shape) == 2:  # the dead row comes alive by entry alone
                assert (new_delta[1] == LOG_ZERO)[~took_entry[1]].all()
            seen += [
                (~took_fwd & ~took_entry).sum(),
                (took_fwd & ~took_entry).sum(),
                took_entry.sum(),
            ]
        assert seen.all()  # every decision was exercised

    def test_a_tie_keeps_the_incumbent(self):
        """Strict ``>``: forward ties stay, entry ties the better of the two."""
        prev = np.array([-5.0, -5.0], dtype=np.float64)
        ones = np.full(2, -1.0, dtype=np.float32)
        starts = np.array([True, False])
        entry = np.array([-6.0, LOG_ZERO])  # == stay at state 0
        delta, took_fwd, took_entry = chain_update(
            prev, ones, ones, np.zeros(2), entry, starts
        )
        assert not took_fwd.any() and not took_entry.any()
        np.testing.assert_array_equal(delta, [-6.0, -6.0])

    def test_entry_wins_where_both_masks_are_set(self):
        """Only a token below ``LOG_ZERO`` loses to the masked-out
        forward arc of a chain start; the entry then beats both."""
        prev = np.array([-np.inf, -3.0], dtype=np.float32)
        ones = np.full(2, -1.0, dtype=np.float32)
        starts = np.array([True, False])
        entry = np.array([-2.0, LOG_ZERO], dtype=np.float32)
        obs = np.zeros(2, dtype=np.float32)
        delta, took_fwd, took_entry = chain_update(prev, ones, ones, obs, entry, starts)
        assert took_fwd.tolist() == [True, False]
        assert took_entry.tolist() == [True, False]
        np.testing.assert_array_equal(delta, [-2.0, -4.0])


def _random_token_bank(rng, num_rows, num_states):
    """An in-degree-1 forest shared by ``num_rows`` rows of tokens,
    flattened row-major: ``(prev, pred_slots, self_lp, pred_lp, obs,
    entry)``, one value per slot.

    Every state has at most one predecessor (any other state: the
    labels are shuffled, so arcs run up and down the index order; each
    row's predecessor slots lie in its own row); a row is all dead,
    sparsely alive or densely alive, and may or may not be offered a
    root entry.  A few slots off the roots are offered one too (the
    kernel does not know roots: that is where both masks get set), and
    a fifth of the slots are unscored.
    """
    label = rng.permutation(num_states)
    pred = np.full(num_states, -1, dtype=np.int64)
    for k in range(1, num_states):
        if rng.random() < 0.8:
            pred[label[k]] = label[rng.integers(k)]
    roots = pred < 0
    roots &= rng.random(num_states) < 0.7  # not every root takes entries
    shape = (num_rows, num_states)
    prev = np.full(shape, LOG_ZERO, dtype=np.float32)
    entry = np.full(num_rows, LOG_ZERO, dtype=np.float32)
    for b in range(num_rows):
        density = rng.choice([0.0, 0.1, 0.6])
        alive = rng.random(num_states) < density
        prev[b, alive] = rng.normal(-200.0, 60.0, int(alive.sum()))
        if rng.random() < 0.5:
            entry[b] = rng.normal(-150.0, 60.0)
    # Coarse scores so stay/forward ties are actually generated, and an
    # entry that sometimes exactly ties a live root's stay score.
    prev = np.round(prev)
    self_lp = np.round(rng.normal(-1.0, 0.5, num_states)).astype(np.float32)
    pred_lp = np.round(rng.normal(-1.0, 0.5, num_states)).astype(np.float32)
    for b, r in zip(*np.nonzero(roots & (prev > LOG_DEAD))):
        if rng.random() < 0.3:
            entry[b] = prev[b, r] + self_lp[r]
    offer = np.where(roots, entry[:, None], np.float32(LOG_ZERO))
    stray = rng.random(shape) < 0.1
    offer[stray] = np.round(rng.normal(-190.0, 60.0, int(stray.sum())))
    obs = rng.normal(-30.0, 10.0, shape).astype(np.float32)
    obs[rng.random(shape) < 0.2] = LOG_ZERO
    every = np.arange(prev.size)
    state = every % num_states
    pred_slots = np.where(pred[state] >= 0, every - state + pred[state], -1)
    return (
        prev.reshape(-1), pred_slots, self_lp[state], pred_lp[state],
        obs.reshape(-1), offer.reshape(-1),
    )


def _tree_scalar_oracle(delta, slots, pred_slots, self_lp, pred_lp, obs, entry):
    """``tree_update`` one slot at a time: ``(delta, took_fwd, took_entry)``."""
    zero = np.float32(LOG_ZERO)
    new = np.empty(slots.shape, np.float32)
    took_fwd, took_entry = np.zeros(slots.shape, bool), np.zeros(slots.shape, bool)
    for i, slot in enumerate(slots):
        best = delta[slot] + self_lp[i]
        from_pred = delta[pred_slots[i]] + pred_lp[i] if pred_slots[i] >= 0 else zero
        if from_pred > best:
            took_fwd[i], best = True, from_pred
        if entry[i] > best:
            took_entry[i], best = True, entry[i]
        dead = min(best, obs[i]) <= LOG_DEAD
        new[i] = zero if dead else best + obs[i]
    return new, took_fwd, took_entry


class TestActiveTokenUpdate:
    """``tree_update`` at an active list vs a plain per-slot loop."""

    @given(
        st.integers(min_value=0, max_value=100_000),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=24),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_matches_dense_update_at_listed_slots(
        self, seed, num_rows, num_states
    ):
        rng = np.random.default_rng(seed)
        prev, pred_slots, self_lp, pred_lp, obs, entry = _random_token_bank(
            rng, num_rows, num_states
        )
        # Every slot, one at a time: the dense answer.
        every = np.arange(prev.size)
        dense = _tree_scalar_oracle(prev, every, pred_slots, self_lp, pred_lp, obs, entry)
        # The active list, by brute force: alive, child of alive, or
        # offered an entry.
        alive = prev > LOG_DEAD
        listed = alive | ((pred_slots >= 0) & alive[pred_slots]) | (entry > LOG_DEAD)
        slots = np.flatnonzero(listed)
        before = prev.copy()
        got = tree_update(
            prev, slots, pred_slots[slots], self_lp[slots], pred_lp[slots],
            obs[slots], entry[slots],
        )
        for have, want in zip(got, dense, strict=True):
            np.testing.assert_array_equal(have, want[slots])
            assert have.dtype == want.dtype
        # Nothing outside the list could have come alive or moved.
        assert np.all(dense[0][~listed] == np.float32(LOG_ZERO))
        assert not dense[1][~listed].any() and not dense[2][~listed].any()
        assert np.array_equal(prev, before)  # the bank is only read

    def test_empty_list_still_charges_the_bank(self):
        """No live slot: the update returns empty lists, and the unit is
        still charged for every register of the bank it streams."""
        none, empty = np.empty(0, np.int64), np.empty(0, np.float32)
        bank = np.full(10, LOG_ZERO, dtype=np.float32)
        delta, took_fwd, took_entry = tree_update(
            bank, none, none, empty, empty, empty, empty
        )
        assert delta.shape == took_fwd.shape == took_entry.shape == (0,)
        assert delta.dtype == np.float32
        # Two rows of a branching 5-state tree: a stay per state, a
        # predecessor arc per non-root, an entry offer per root.
        pred = np.array([-1, 0, 1, 1, -1])
        roots = pred < 0
        unit = ViterbiUnit()
        unit.charge_chain(roots, rows=2)
        transitions = 2 * (5 + int((pred >= 0).sum()) + int(roots.sum()))
        assert unit.transitions_processed == transitions == 20
        assert unit.fpu.counts.add == transitions + 10
        assert unit.fpu.counts.compare == transitions
        assert unit.columns_processed == 1
        assert unit.cycles_busy == unit.spec.cycles_for_transitions(transitions)

    def test_validation(self):
        """Misaligned lists and slots past the bank are refused, not
        broadcast or clipped, and nothing is written."""
        bank = np.zeros(6, dtype=np.float32)
        slots, preds, two = np.array([0, 4]), np.array([-1, 3]), np.zeros(2, np.float32)
        with pytest.raises(ValueError):
            tree_update(bank, slots, preds, two, two, np.zeros(3, np.float32), two)
        with pytest.raises(IndexError):
            tree_update(bank, np.array([0, 6]), preds, two, two, two, two)
        with pytest.raises(IndexError):
            tree_update(bank, slots, np.array([-1, 6]), two, two, two, two)
        assert not bank.any()

    def test_ties_both_masks_and_unscored_slots(self):
        """Strict ``>`` at both compares; an entry beats a forward move
        that beat the stay; an unscored slot dies whatever its token."""
        bank = np.array([-5.0, -5.0, LOG_ZERO, -5.0, LOG_ZERO, LOG_ZERO], np.float32)
        slots = np.arange(5)
        pred_slots = np.array([-1, 0, 1, -1, 3])
        ones = np.full(5, -1.0, np.float32)
        entry = np.array([-6.0, LOG_ZERO, -3.0, LOG_ZERO, LOG_ZERO], np.float32)
        obs = np.array([0.0, -1.0, 0.0, LOG_ZERO, -2.0], np.float32)
        got = tree_update(bank, slots, pred_slots, ones, ones, obs, entry)
        want = _tree_scalar_oracle(bank, slots, pred_slots, ones, ones, obs, entry)
        for have, expect in zip(got, want, strict=True):
            np.testing.assert_array_equal(have, expect)
        delta, took_fwd, took_entry = got
        # entry ties stay | forward ties stay | both | unscored | forward
        np.testing.assert_array_equal(
            delta, np.array([-6.0, -7.0, -3.0, LOG_ZERO, -8.0], np.float32)
        )
        assert took_fwd.tolist() == [False, False, True, False, True]
        assert took_entry.tolist() == [False, False, True, False, False]


class TestSpecValidation:
    def test_rejects_bad_clock(self):
        with pytest.raises(ValueError):
            ViterbiUnitSpec(clock_hz=0)

    def test_seconds(self):
        unit = ViterbiUnit()
        assert unit.seconds(50_000_000) == pytest.approx(1.0)
