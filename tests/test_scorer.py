"""Scoring statistics, the reference and hardware backends of
repro.runtime.scoring driven at one lane, and what every pooled
backend refuses."""

import numpy as np
import pytest

from repro.core.opunit import OpUnit, OpUnitSpec
from repro.decoder.fast_gmm import FastGmmModel
from repro.decoder.recognizer import Recognizer
from repro.decoder.scorer import LOG_ZERO, ScoringStats
from repro.runtime.scoring import (
    BatchBlasScorer,
    BatchFastGmmScorer,
    BatchHardwareScorer,
    BatchReferenceScorer,
)


def _score(scorer, obs, senones):
    """One lane's frame through ``score_pairs``, as a dense array."""
    senones = np.asarray(senones, dtype=np.int64)
    out = np.full(scorer.num_senones, LOG_ZERO)
    out[senones] = scorer.score_pairs(
        obs[None, :], np.zeros(senones.size, dtype=np.int64), senones
    )
    return out


class TestScoringStats:
    def test_fractions(self):
        stats = ScoringStats(senone_budget=100, active_per_frame=[20, 40])
        assert stats.frames == 2 and stats.senones_requested == 60
        assert stats.mean_active == 30.0
        assert stats.mean_active_fraction == pytest.approx(0.30)
        assert stats.peak_active_fraction == pytest.approx(0.40)

    def test_empty(self):
        stats = ScoringStats(senone_budget=100)
        assert stats.mean_active == 0.0
        assert stats.mean_active_fraction == 0.0
        assert stats.peak_active_fraction == 0.0


class TestReferenceScorer:
    def test_scores_requested_only(self, small_pool, rng):
        scorer = BatchReferenceScorer(small_pool)
        obs = rng.normal(size=small_pool.dim)
        compact = scorer.score_pairs(
            obs[None, :], np.zeros(2, dtype=np.int64), np.array([1, 4])
        )
        assert compact.shape == (2,)
        assert np.all(compact > LOG_ZERO / 2)

    def test_matches_pool(self, small_pool, rng):
        scorer = BatchReferenceScorer(small_pool)
        obs = rng.normal(size=small_pool.dim)
        out = _score(scorer, obs, np.arange(small_pool.num_senones))
        assert np.allclose(out, small_pool.score_frame(obs))

    def test_stats_and_reset(self, task):
        """The backend keeps no statistics; each decode gets fresh ones."""
        rec = Recognizer.create(task.dictionary, task.pool, task.lm, task.tying)
        feats = task.corpus.test[0].features
        first, second = rec.decode(feats), rec.decode(feats)
        assert first.scoring_stats.frames == first.frames
        assert first.scoring_stats.senones_requested == sum(
            first.scoring_stats.active_per_frame
        )
        assert second.scoring_stats is not first.scoring_stats
        assert second.scoring_stats.frames == second.frames
        assert rec.scorer.retire_lane(0) is None  # stateless lane lifecycle

    def test_empty_request(self, small_pool, rng):
        scorer = BatchReferenceScorer(small_pool)
        out = _score(scorer, rng.normal(size=small_pool.dim), [])
        assert np.all(out == LOG_ZERO)


class TestHardwareScorer:
    def _scorer(self, small_pool, n_units=2):
        units = [OpUnit(OpUnitSpec(feature_dim=small_pool.dim)) for _ in range(n_units)]
        return BatchHardwareScorer(units, small_pool.gaussian_table()), units

    def test_close_to_reference(self, small_pool, rng):
        scorer, _ = self._scorer(small_pool)
        obs = rng.normal(size=small_pool.dim)
        hw = _score(scorer, obs, np.arange(small_pool.num_senones))
        ref = small_pool.score_frame(obs)
        assert np.max(np.abs(hw - ref)) < 5e-3

    def test_work_split_across_units(self, small_pool, rng):
        scorer, units = self._scorer(small_pool, n_units=2)
        _score(scorer, rng.normal(size=small_pool.dim), np.arange(24))
        assert units[0].senones_scored == 12
        assert units[1].senones_scored == 12

    def test_critical_path_recorded(self, small_pool, rng):
        scorer, units = self._scorer(small_pool)
        _score(scorer, rng.normal(size=small_pool.dim), np.arange(10))
        assert len(scorer.frame_critical_cycles) == 1
        per = units[0].spec.cycles_per_senone(small_pool.num_components)
        assert scorer.frame_critical_cycles[0] == 5 * per

    def test_empty_frame(self, small_pool, rng):
        scorer, _ = self._scorer(small_pool)
        _score(scorer, rng.normal(size=small_pool.dim), [])
        assert scorer.frame_critical_cycles == [0]

    def test_reset_clears_units(self, small_pool, rng):
        scorer, units = self._scorer(small_pool)
        _score(scorer, rng.normal(size=small_pool.dim), np.arange(24))
        scorer.reset()
        assert units[0].cycles_busy == 0
        assert scorer.frame_critical_cycles == []

    def test_requires_units(self, small_pool):
        with pytest.raises(ValueError):
            BatchHardwareScorer([], small_pool.gaussian_table())

    def test_dim_mismatch_rejected(self, small_pool):
        units = [OpUnit(OpUnitSpec(feature_dim=small_pool.dim + 1))]
        with pytest.raises(ValueError):
            BatchHardwareScorer(units, small_pool.gaussian_table())


BACKENDS = {
    "reference": BatchReferenceScorer,
    "hardware": lambda pool: BatchHardwareScorer(
        [OpUnit(OpUnitSpec(feature_dim=pool.dim))], pool.gaussian_table()
    ),
    "fast": lambda pool: BatchFastGmmScorer(FastGmmModel(pool)),
    "blas": BatchBlasScorer,
}


@pytest.mark.parametrize("backend", sorted(BACKENDS))
class TestEmptyDemandIsValidated:
    """A call with no work items is refused for what it is, exactly as
    one with work items would be — no backend answers it unchecked."""

    def test_wrong_width_refused(self, backend, small_pool):
        scorer = BACKENDS[backend](small_pool)
        no_pairs = np.zeros(0, dtype=np.int64)
        with pytest.raises(ValueError):
            scorer.score_pairs(np.zeros((2, small_pool.dim + 1)), no_pairs, no_pairs)

    def test_pair_shapes_that_differ_refused(self, backend, small_pool):
        scorer = BACKENDS[backend](small_pool)
        with pytest.raises(ValueError):
            scorer.score_pairs(
                np.zeros((2, small_pool.dim)),
                np.array([0, 1]),
                np.zeros(0, dtype=np.int64),
            )

    def test_valid_empty_demand_scores_nothing(self, backend, small_pool):
        scorer = BACKENDS[backend](small_pool)
        no_pairs = np.zeros(0, dtype=np.int64)
        out = scorer.score_pairs(np.zeros((2, small_pool.dim)), no_pairs, no_pairs)
        assert out.shape == (0,)
