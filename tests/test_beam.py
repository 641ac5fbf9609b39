"""Tests for repro.decoder.beam."""

import numpy as np
import pytest

from repro.decoder.beam import (
    LOG_ZERO,
    BeamConfig,
    apply_beam,
    apply_beam_batch,
    apply_beam_rows,
    check_count,
    make_beam_scratch,
)


class TestCheckCount:
    @pytest.mark.parametrize(
        "value", [2.5, 3.0, float("nan"), float("inf"), True, "3"]
    )
    def test_refuses_non_integers(self, value):
        # 3.0 is integral in value but not in type: slicing and
        # np.partition refuse it just the same.
        with pytest.raises(ValueError, match="cap must be an integer"):
            check_count("cap", value, 0)

    @pytest.mark.parametrize("value", [0, 7, np.int64(7), np.uint8(7)])
    def test_accepts_integers(self, value):
        check_count("cap", value, 0)

    def test_refuses_below_minimum(self):
        with pytest.raises(ValueError, match="cap must be >= 1, got 0"):
            check_count("cap", 0, 1)
        with pytest.raises(ValueError, match="cap must be >= 0, got -1"):
            check_count("cap", np.int64(-1), 0)
        check_count("cap", 1, 1)


class TestBeamConfig:
    def test_rejects_nonpositive_beams(self):
        with pytest.raises(ValueError):
            BeamConfig(state_beam=0)
        with pytest.raises(ValueError):
            BeamConfig(word_beam=-1)
        with pytest.raises(ValueError):
            BeamConfig(max_active_states=-1)
        # The histogram cap is a count: a float one would fail
        # mid-decode inside np.partition and a NaN one never applies.
        for bad in (30.5, float("nan"), float("inf"), True):
            with pytest.raises(ValueError, match="max_active_states must be an integer"):
                BeamConfig(max_active_states=bad)
        assert BeamConfig(max_active_states=np.int64(30)).max_active_states == 30


class TestApplyBeam:
    def test_prunes_outside_beam(self):
        delta = np.array([0.0, -50.0, -300.0])
        alive, count = apply_beam(delta, BeamConfig(state_beam=100.0))
        assert count == 2
        assert delta[2] == LOG_ZERO
        assert alive.tolist() == [True, True, False]

    def test_all_dead_input(self):
        delta = np.full(5, LOG_ZERO)
        alive, count = apply_beam(delta, BeamConfig())
        assert count == 0
        assert not alive.any()

    def test_histogram_cap(self):
        delta = -np.arange(10, dtype=float)
        alive, count = apply_beam(
            delta, BeamConfig(state_beam=1000.0, max_active_states=3)
        )
        assert count == 3
        assert alive[:3].all() and not alive[3:].any()

    def test_histogram_cap_with_ties(self):
        delta = np.zeros(10)
        _, count = apply_beam(
            delta, BeamConfig(state_beam=1000.0, max_active_states=4)
        )
        assert count == 4

    def test_zero_cap_disables_histogram(self):
        delta = -np.arange(100, dtype=float)
        _, count = apply_beam(
            delta, BeamConfig(state_beam=1000.0, max_active_states=0)
        )
        assert count == 100

    def test_best_state_always_survives(self, rng):
        delta = rng.normal(-100, 30, size=50)
        best = delta.argmax()
        alive, _ = apply_beam(delta, BeamConfig(state_beam=1.0))
        assert alive[best]

    def test_modifies_in_place(self):
        delta = np.array([0.0, -500.0])
        apply_beam(delta, BeamConfig(state_beam=100.0))
        assert delta[1] == LOG_ZERO


class TestApplyBeamBatch:
    """The bank beam vs ``apply_beam`` on each row; dead rows are the
    guarded exception and must come through bit-untouched."""

    @pytest.mark.parametrize("cap", [0, 3])
    @pytest.mark.parametrize("dead", ["none", "some", "all"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_row_wise_apply_beam(self, rng, dead, cap, dtype):
        config = BeamConfig(state_beam=12.0, max_active_states=cap)
        scratch = make_beam_scratch((5, 30))
        for _ in range(20):
            # Integer scores: plateaus that straddle the cap are common.
            bank = np.round(rng.normal(-100, 6, (5, 30))).astype(dtype)
            bank[rng.random(bank.shape) < 0.3] = LOG_ZERO
            dead_rows = {
                "none": [], "some": [1, 3], "all": list(range(5))
            }[dead]
            # Dead is "nothing above LOG_ZERO" — a row may hold less.
            bank[dead_rows] = LOG_ZERO
            bank[dead_rows, ::7] = -np.inf
            before = bank.copy()
            rows = bank.copy()
            expected = [apply_beam(rows[b], config) for b in range(5)]
            alive, counts = apply_beam_batch(bank, config, scratch)
            assert alive is scratch["alive"] and bank.dtype == dtype
            assert counts.tolist() == [count for _, count in expected]
            assert np.array_equal(alive, np.stack([mask for mask, _ in expected]))
            assert np.array_equal(bank, rows)  # pruned in place alike
            assert bank[dead_rows].tobytes() == before[dead_rows].tobytes()
            assert not alive[dead_rows].any() and not counts[dead_rows].any()
            if cap:
                assert counts.max() <= cap

    def test_rejects_a_single_row(self):
        with pytest.raises(ValueError, match="2-D"):
            apply_beam_batch(np.zeros(4), BeamConfig())


class TestApplyBeamRows:
    """The list-form row beam vs ``apply_beam`` on each dense row."""

    @pytest.mark.parametrize("cap", [0, 3, 7])
    def test_matches_dense_rows(self, rng, cap):
        config = BeamConfig(state_beam=40.0, max_active_states=cap)
        for _ in range(40):
            num_rows, num_states = int(rng.integers(1, 6)), int(rng.integers(1, 30))
            dense = np.full((num_rows, num_states), LOG_ZERO, dtype=np.float32)
            listed = rng.random(dense.shape) < rng.choice([0.0, 0.3, 0.9])
            listed[rng.integers(num_rows)] = False  # a row with no slot at all
            # Integer scores: plateaus that straddle the cap are common.
            dense[listed] = np.round(rng.normal(-100, 12, int(listed.sum())))
            dense[listed & (rng.random(dense.shape) < 0.2)] = LOG_ZERO  # listed, dead
            rows, _ = np.nonzero(listed)
            values = dense[listed]
            alive, counts = apply_beam_rows(values, rows, num_rows, config)
            for b in range(num_rows):
                mask, count = apply_beam(dense[b], config)
                assert count == counts[b]
                assert np.array_equal(mask[listed[b]], alive[rows == b])
            assert np.array_equal(values, dense[listed])  # pruned in place alike
            assert values.dtype == np.float32

    def test_no_slots(self):
        alive, counts = apply_beam_rows(
            np.empty(0, dtype=np.float32), np.empty(0, dtype=np.int64), 3, BeamConfig()
        )
        assert alive.shape == (0,) and counts.tolist() == [0, 0, 0]
