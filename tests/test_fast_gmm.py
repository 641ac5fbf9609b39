"""Tests for repro.decoder.fast_gmm — the four-layer scheme, driven
through ``BatchFastGmmScorer`` at one lane."""

import re
import warnings

import numpy as np
import pytest

from repro.decoder.fast_gmm import FastGmmConfig, FastGmmModel, equivalent_activity
from repro.decoder.scorer import LOG_ZERO
from repro.hmm.senone import SenonePool
from repro.lexicon.triphone import SenoneTying
from repro.runtime.scoring import BatchFastGmmScorer


class OneLane:
    """One admitted lane of the pooled fast scorer, frame by frame."""

    def __init__(self, pool, **model_kwargs):
        self.backend = BatchFastGmmScorer(FastGmmModel(pool, **model_kwargs))
        self.backend.admit_lane(0)
        self.senones_requested = 0

    @property
    def lane(self):
        return self.backend.lane_state(0)

    @property
    def fast_stats(self):
        return self.lane.fast_stats

    def score(self, t, obs, senones):
        """Dense scores of frame ``t`` (``LOG_ZERO`` where not requested)."""
        self.senones_requested += senones.size
        out = np.full(self.backend.num_senones, LOG_ZERO)
        out[senones] = self.backend.score_pairs(
            obs[None, :], np.zeros(senones.size, dtype=np.int64), senones,
            lanes=np.array([0]),
        )
        return out

    def reset(self):
        """What a bank does between utterances: retire, re-admit."""
        self.backend.retire_lane(0)
        self.backend.admit_lane(0)
        self.senones_requested = 0

    def equivalent_activity(self):
        return equivalent_activity(
            self.fast_stats, self.backend.model.pool.dim, self.senones_requested
        )


@pytest.fixture()
def pool_and_tying():
    tying = SenoneTying(num_senones=6000)
    pool = SenonePool.random(6000, num_components=4, dim=13,
                             rng=np.random.default_rng(8))
    return pool, tying


def _exact(pool, obs, senones):
    return pool.score_frame(obs, senones)[senones]


class TestBaselineEquivalence:
    def test_all_layers_off_is_exact(self, small_pool, rng):
        scorer = OneLane(small_pool, config=FastGmmConfig())
        obs = rng.normal(size=small_pool.dim)
        senones = np.arange(small_pool.num_senones)
        out = scorer.score(0, obs, senones)
        assert np.allclose(out[senones], _exact(small_pool, obs, senones))


class TestLayer1Cds:
    def test_skips_similar_frames(self, small_pool, rng):
        cfg = FastGmmConfig(cds_enabled=True, cds_distance=1e9)
        scorer = OneLane(small_pool, config=cfg)
        senones = np.arange(small_pool.num_senones)
        obs = rng.normal(size=small_pool.dim)
        scorer.score(0, obs, senones)
        scorer.score(1, obs + 1e-6, senones)
        assert scorer.fast_stats.frames_skipped == 1

    def test_skip_reuses_previous_scores(self, small_pool, rng):
        cfg = FastGmmConfig(cds_enabled=True, cds_distance=1e9)
        scorer = OneLane(small_pool, config=cfg)
        senones = np.arange(small_pool.num_senones)
        obs = rng.normal(size=small_pool.dim)
        first = scorer.score(0, obs, senones)
        second = scorer.score(1, obs + 10.0, senones)  # forced reuse
        assert np.allclose(first, second)

    def test_max_run_limits_skipping(self, small_pool, rng):
        cfg = FastGmmConfig(cds_enabled=True, cds_distance=1e9, cds_max_run=2)
        scorer = OneLane(small_pool, config=cfg)
        senones = np.arange(small_pool.num_senones)
        for t in range(6):
            scorer.score(t, rng.normal(size=small_pool.dim) * 1e-3, senones)
        # Pattern: score, skip, skip, score, skip, skip.
        assert scorer.fast_stats.frames_skipped == 4

    def test_distant_frames_not_skipped(self, small_pool, rng):
        cfg = FastGmmConfig(cds_enabled=True, cds_distance=1e-9)
        scorer = OneLane(small_pool, config=cfg)
        senones = np.arange(small_pool.num_senones)
        scorer.score(0, rng.normal(size=small_pool.dim), senones)
        scorer.score(1, rng.normal(size=small_pool.dim) + 5, senones)
        assert scorer.fast_stats.frames_skipped == 0

    def test_missing_senones_filled_on_skip(self, small_pool, rng):
        cfg = FastGmmConfig(cds_enabled=True, cds_distance=1e9)
        scorer = OneLane(small_pool, config=cfg)
        obs = rng.normal(size=small_pool.dim)
        scorer.score(0, obs, np.array([0, 1]))
        out = scorer.score(1, obs, np.array([0, 5]))  # 5 never scored
        assert out[5] > LOG_ZERO / 2


class TestLayer2CiSelection:
    def test_requires_tying(self, small_pool):
        with pytest.raises(ValueError):
            OneLane(small_pool, config=FastGmmConfig(ci_selection_enabled=True))

    def test_cd_scores_exact_when_selected(self, pool_and_tying, rng):
        pool, tying = pool_and_tying
        cfg = FastGmmConfig(ci_selection_enabled=True, ci_margin=1e9)
        scorer = OneLane(pool, tying=tying, config=cfg)
        obs = rng.normal(size=pool.dim)
        senones = np.arange(200, 230)
        out = scorer.score(0, obs, senones)
        assert np.allclose(out[senones], _exact(pool, obs, senones))

    def test_tight_margin_approximates(self, pool_and_tying, rng):
        pool, tying = pool_and_tying
        cfg = FastGmmConfig(ci_selection_enabled=True, ci_margin=0.5)
        scorer = OneLane(pool, tying=tying, config=cfg)
        obs = rng.normal(size=pool.dim)
        senones = np.arange(200, 400)
        scorer.score(0, obs, senones)
        stats = scorer.fast_stats
        assert stats.senones_approximated > 0
        assert stats.senones_full + stats.senones_approximated >= senones.size


class TestLayer3GaussianSelection:
    def test_reduces_gaussians(self, small_pool, rng):
        cfg = FastGmmConfig(gaussian_selection_enabled=True, gs_shortlist=2)
        scorer = OneLane(small_pool, config=cfg, codebook_data=None)
        obs = rng.normal(size=small_pool.dim)
        senones = np.arange(small_pool.num_senones)
        scorer.score(0, obs, senones)
        stats = scorer.fast_stats
        assert stats.gaussian_fraction == pytest.approx(
            2 / small_pool.num_components
        )

    def test_scores_lower_bound_exact(self, small_pool, rng):
        """Dropping components can only lower a mixture score."""
        cfg = FastGmmConfig(gaussian_selection_enabled=True, gs_shortlist=2)
        scorer = OneLane(small_pool, config=cfg)
        obs = rng.normal(size=small_pool.dim)
        senones = np.arange(small_pool.num_senones)
        out = scorer.score(0, obs, senones)
        exact = _exact(small_pool, obs, senones)
        assert np.all(out[senones] <= exact + 1e-9)
        # And close: the shortlist keeps the dominant components.
        assert np.median(exact - out[senones]) < 1.0


class TestLayer4Pde:
    def test_exact_for_surviving_components(self, small_pool, rng):
        cfg = FastGmmConfig(pde_enabled=True, pde_margin=1e9)
        scorer = OneLane(small_pool, config=cfg)
        obs = rng.normal(size=small_pool.dim)
        senones = np.arange(small_pool.num_senones)
        out = scorer.score(0, obs, senones)
        assert np.allclose(out[senones], _exact(small_pool, obs, senones))

    def test_saves_dimensions(self, small_pool, rng):
        cfg = FastGmmConfig(pde_enabled=True, pde_margin=2.0, pde_chunk=4)
        scorer = OneLane(small_pool, config=cfg)
        obs = rng.normal(size=small_pool.dim)
        senones = np.arange(small_pool.num_senones)
        scorer.score(0, obs, senones)
        assert scorer.fast_stats.dim_fraction < 1.0

    def test_best_component_survives(self, small_pool, rng):
        """PDE must never kill a senone entirely."""
        cfg = FastGmmConfig(pde_enabled=True, pde_margin=0.1, pde_chunk=2)
        scorer = OneLane(small_pool, config=cfg)
        obs = rng.normal(size=small_pool.dim)
        senones = np.arange(small_pool.num_senones)
        out = scorer.score(0, obs, senones)
        assert np.all(out[senones] > LOG_ZERO / 2)


    def test_single_component_shortcut_matches_the_race(self, rng):
        """One component per item skips the elimination race; the race
        run on the same items gives the same bits and the same
        dimension counts — a NaN partial (which the race drops after
        its first chunk) included."""
        pool = SenonePool.random(30, num_components=1, dim=39, rng=rng)
        model = FastGmmModel(pool, config=FastGmmConfig(pde_enabled=True, pde_chunk=5))
        offsets = model.offsets.copy()
        quad = rng.normal(size=(30, 39)) ** 2 * model.precisions[:, 0, :]
        quad = quad[:, None, :]

        comp, dims = model._pde(quad, offsets)
        assert dims is None  # the shortcut: every dimension of every item
        want, want_dims = model._pde(quad, offsets, race=True)
        assert comp.tobytes() == want.tobytes()
        assert want_dims.tolist() == [39] * 30

        quad[7, 0, 12] = np.nan  # third chunk of item 7
        comp, dims = model._pde(quad, offsets)
        want, want_dims = model._pde(quad, offsets, race=True)
        assert comp.tobytes() == want.tobytes()
        assert dims.tolist() == want_dims.tolist()
        assert comp[7, 0] == LOG_ZERO and dims[7] == 15 and dims[6] == 39


class TestActivityExport:
    def test_activity_reflects_savings(self, small_pool, rng):
        full = OneLane(small_pool, config=FastGmmConfig())
        lean = OneLane(
            small_pool,
            config=FastGmmConfig(gaussian_selection_enabled=True, gs_shortlist=1),
        )
        obs = rng.normal(size=small_pool.dim)
        senones = np.arange(small_pool.num_senones)
        full.score(0, obs, senones)
        lean.score(0, obs, senones)
        assert (
            lean.equivalent_activity()["sdm_ops"]
            < full.equivalent_activity()["sdm_ops"]
        )

    def test_reset(self, small_pool, rng):
        scorer = OneLane(small_pool, config=FastGmmConfig(cds_enabled=True))
        scorer.score(0, rng.normal(size=small_pool.dim), np.arange(5))
        scorer.reset()
        assert scorer.fast_stats.frames == 0


class TestStatsInvariants:
    """The work fractions must be true fractions, and a lane's
    retire/re-admit must leave no cross-utterance reuse state behind."""

    def _all_layers(self, pool, tying):
        cfg = FastGmmConfig(
            cds_enabled=True,
            cds_distance=12.0,
            ci_selection_enabled=True,
            ci_margin=5.0,
            gaussian_selection_enabled=True,
            gs_shortlist=2,
            pde_enabled=True,
            pde_margin=4.0,
            pde_chunk=4,
        )
        return OneLane(pool, tying=tying, config=cfg)

    def test_fractions_stay_in_unit_interval(self, pool_and_tying, rng):
        pool, tying = pool_and_tying
        scorer = self._all_layers(pool, tying)
        senones = np.arange(100, 400)
        for t in range(8):
            obs = rng.normal(size=pool.dim) * (0.1 if t % 3 else 5.0)
            scorer.score(t, obs, senones)
            s = scorer.fast_stats
            for frac in (s.skip_fraction, s.gaussian_fraction, s.dim_fraction):
                assert 0.0 <= frac <= 1.0
            assert s.frames_skipped <= s.frames
            assert s.gaussians_evaluated <= s.gaussians_possible
            assert s.dims_evaluated <= s.dims_possible

    def test_fractions_zero_before_any_frame(self, small_pool):
        scorer = OneLane(small_pool, config=FastGmmConfig())
        s = scorer.fast_stats
        assert (s.skip_fraction, s.gaussian_fraction, s.dim_fraction) == (0, 0, 0)

    def test_reset_clears_reuse_state(self, small_pool, rng):
        """After reset the CDS cache is gone: the next frame is scored
        in full even if it is identical to the last one seen."""
        cfg = FastGmmConfig(cds_enabled=True, cds_distance=1e9)
        scorer = OneLane(small_pool, config=cfg)
        senones = np.arange(small_pool.num_senones)
        obs = rng.normal(size=small_pool.dim)
        scorer.score(0, obs, senones)
        scorer.score(1, obs, senones)  # skipped (reuse)
        assert scorer.fast_stats.frames_skipped == 1
        scorer.reset()
        assert scorer.lane.last_obs is None
        assert scorer.lane.last_scores is None
        assert scorer.lane.skip_run == 0
        scorer.score(0, obs, senones)  # same frame, fresh utterance
        assert scorer.fast_stats.frames == 1
        assert scorer.fast_stats.frames_skipped == 0

    def test_reset_makes_utterances_independent(self, small_pool, rng):
        """Score -> reset -> score the same frames: identical outputs
        and identical work counters (no state leaks across utterances)."""
        cfg = FastGmmConfig(cds_enabled=True, cds_distance=1e9, cds_max_run=1)
        scorer = OneLane(small_pool, config=cfg)
        senones = np.arange(small_pool.num_senones)
        frames = rng.normal(size=(4, small_pool.dim))

        def run():
            out = [scorer.score(t, f, senones).copy() for t, f in enumerate(frames)]
            counters = (
                scorer.fast_stats.frames,
                scorer.fast_stats.frames_skipped,
                scorer.fast_stats.gaussians_evaluated,
                scorer.fast_stats.dims_evaluated,
            )
            return out, counters

        first, counters_a = run()
        scorer.reset()
        second, counters_b = run()
        assert counters_a == counters_b
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            FastGmmConfig(cds_distance=0)
        with pytest.raises(ValueError):
            FastGmmConfig(cds_max_run=0)
        with pytest.raises(ValueError):
            FastGmmConfig(gs_codebook_size=0)
        with pytest.raises(ValueError):
            FastGmmConfig(pde_chunk=0)

    @pytest.mark.parametrize("margin", [-1.0, float("nan"), float("inf")])
    def test_pde_margin_that_drops_every_component_rejected(self, margin):
        """A negative or NaN margin fails the best component's own
        comparison: every senone would score LOG_ZERO, silently."""
        with pytest.raises(ValueError, match="pde_margin"):
            FastGmmConfig(pde_margin=margin)

    @pytest.mark.parametrize("margin", [-5.0, float("nan"), float("inf")])
    def test_ci_margin_that_approximates_the_best_parent_rejected(self, margin):
        with pytest.raises(ValueError, match="ci_margin"):
            FastGmmConfig(ci_margin=margin)

    @pytest.mark.parametrize("distance", [float("nan"), float("inf")])
    def test_non_finite_cds_distance_rejected(self, distance):
        with pytest.raises(ValueError, match="cds_distance"):
            FastGmmConfig(cds_distance=distance)

    def test_boundary_margins_accepted(self):
        FastGmmConfig(ci_margin=0.0, pde_margin=0.0)


class TestCodebookDataValidation:
    """``codebook_data`` trains the layer-3 codebook; frames the
    observations could never be compared with are refused up front."""

    CFG = FastGmmConfig(gaussian_selection_enabled=True)

    @pytest.mark.parametrize(
        "shape", [(50, 1), (50, 14), (0, 13), (13,), (2, 5, 13)]
    )
    def test_wrong_shape_rejected(self, small_pool, shape):
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            FastGmmModel(small_pool, config=self.CFG, codebook_data=np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, small_pool, rng, bad):
        data = rng.normal(size=(50, small_pool.dim))
        data[7, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            FastGmmModel(small_pool, config=self.CFG, codebook_data=data)
        with pytest.raises(ValueError, match="non-finite"):
            FastGmmModel(small_pool, config=self.CFG,
                         codebook_data=np.full((50, small_pool.dim), np.nan))

    def test_refused_with_selection_off_too(self, small_pool):
        with pytest.raises(ValueError, match="got shape"):
            FastGmmModel(small_pool, codebook_data=np.zeros((50, 1)))

    def test_valid_frames_train_the_codebook(self, small_pool, rng):
        data = rng.normal(size=(100, small_pool.dim)).tolist()  # any array-like
        model = FastGmmModel(small_pool, config=self.CFG, codebook_data=data)
        assert model.codebook.shape == (self.CFG.gs_codebook_size, small_pool.dim)


class TestGaussianConstants:
    """The model's offsets and precisions are the pool's own spelling."""

    @pytest.fixture()
    def one_component_pool(self, small_pool):
        """``small_pool`` with every component past the first at weight 0."""
        weights = np.zeros_like(small_pool.weights)
        weights[:, 0] = 1.0
        return SenonePool(small_pool.means, small_pool.variances, weights)

    @pytest.mark.parametrize(
        "config",
        [FastGmmConfig(), FastGmmConfig(gaussian_selection_enabled=True, gs_shortlist=2)],
        ids=["constants", "shortlists"],
    )
    def test_a_zero_weight_builds_without_warning(self, one_component_pool, config):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = FastGmmModel(one_component_pool, config=config)
        assert np.isneginf(model.offsets[:, 1:]).all()
        assert np.isfinite(model.offsets[:, 0]).all()

    def test_a_zero_weight_pool_scores_exactly(self, one_component_pool, rng):
        pool = one_component_pool
        obs = rng.normal(size=pool.dim)
        senones = np.arange(pool.num_senones)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = OneLane(pool).score(0, obs, senones)
        assert np.allclose(out, _exact(pool, obs, senones))

    def test_constants_are_the_gaussian_formula_bit_for_bit(self, small_pool):
        model = FastGmmModel(small_pool)
        log_variance = np.log(small_pool.variances).sum(axis=2)
        offsets = np.log(small_pool.weights) - 0.5 * (
            small_pool.dim * np.log(2 * np.pi) + log_variance
        )
        assert np.array_equal(model.offsets, offsets)
        assert np.array_equal(model.precisions, -0.5 / small_pool.variances)
