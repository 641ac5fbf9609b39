"""Tests for repro.decoder.beam."""

import numpy as np
import pytest

from repro.decoder.beam import LOG_ZERO, BeamConfig, apply_beam, apply_beam_rows


class TestBeamConfig:
    def test_rejects_nonpositive_beams(self):
        with pytest.raises(ValueError):
            BeamConfig(state_beam=0)
        with pytest.raises(ValueError):
            BeamConfig(word_beam=-1)
        with pytest.raises(ValueError):
            BeamConfig(max_active_states=-1)


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
