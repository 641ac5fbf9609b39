"""Tests for repro.hmm.train — k-means, EM, alignment, pool training."""

import numpy as np
import pytest

from repro.hmm import train
from repro.hmm.topology import HmmTopology, PhoneHmm
from repro.hmm.train import (
    TrainingConfig,
    fit_gmm,
    forced_alignment,
    kmeans,
    train_senone_pool,
    uniform_alignment,
)


class TestKMeans:
    def test_recovers_separated_clusters(self):
        rng = np.random.default_rng(0)
        data = np.vstack(
            [rng.normal(c, 0.2, size=(100, 2)) for c in (-5.0, 0.0, 5.0)]
        )
        centroids = kmeans(data, 3, rng)
        assert sorted(np.round(centroids[:, 0]).tolist()) == [-5.0, 0.0, 5.0]

    def test_more_clusters_than_points(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(3, 2))
        centroids = kmeans(data, 5, rng)
        assert centroids.shape == (5, 2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            kmeans(np.empty((0, 2)), 2, np.random.default_rng(0))

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((5, 2)), 0, np.random.default_rng(0))

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e160])
    def test_rejects_frames_the_prefilter_cannot_bound(self, bad, k):
        """The nearest-centroid prefilter's rounding bound assumes finite
        frames whose squared norms cannot overflow; anything else is
        refused at the door, whatever ``k`` (at ``k = 1`` no seeding draw
        would trip over a NaN probability)."""
        data = np.random.default_rng(3).normal(size=(12, 4))
        data[5, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            kmeans(data, k, np.random.default_rng(0))


class TestFitGmm:
    def test_likelihood_improves_over_single_gaussian(self):
        rng = np.random.default_rng(2)
        data = np.vstack(
            [rng.normal(-4, 0.5, size=(200, 3)), rng.normal(4, 0.5, size=(200, 3))]
        )
        one = fit_gmm(data, 1, rng)
        two = fit_gmm(data, 2, rng)
        assert two.log_prob(data).sum() > one.log_prob(data).sum()

    def test_weights_valid(self):
        rng = np.random.default_rng(3)
        gmm = fit_gmm(rng.normal(size=(100, 4)), 3, rng)
        assert gmm.weights.sum() == pytest.approx(1.0)
        assert np.all(gmm.weights > 0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            fit_gmm(np.empty((0, 3)), 2, np.random.default_rng(0))


class TestUniformAlignment:
    def test_covers_all_states(self):
        assign = uniform_alignment(30, 3)
        assert set(assign.tolist()) == {0, 1, 2}

    def test_monotone(self):
        assign = uniform_alignment(17, 5)
        assert np.all(np.diff(assign) >= 0)

    def test_fewer_frames_than_states(self):
        assign = uniform_alignment(2, 5)
        assert assign.shape == (2,)
        assert np.all(assign < 5)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            uniform_alignment(0, 3)
        with pytest.raises(ValueError):
            uniform_alignment(3, 0)


class TestForcedAlignment:
    def test_recovers_planted_segmentation(self):
        # Three states with far-apart preferred frames.
        num_frames, num_states = 30, 3
        scores = np.full((num_frames, num_states), -50.0)
        scores[:10, 0] = -1.0
        scores[10:20, 1] = -1.0
        scores[20:, 2] = -1.0
        align = forced_alignment(scores, np.log(0.6), np.log(0.4))
        assert align[0] == 0 and align[-1] == 2
        assert np.all(np.diff(align) >= 0)
        assert np.count_nonzero(align == 1) == 10

    def test_monotone_and_complete(self, rng):
        scores = rng.normal(-5, 1, size=(40, 4))
        align = forced_alignment(scores, np.log(0.5), np.log(0.5))
        assert align[0] == 0
        assert align[-1] == 3
        assert np.all(np.isin(np.diff(align), [0, 1]))

    def test_rejects_too_few_frames(self):
        with pytest.raises(ValueError):
            forced_alignment(np.zeros((2, 5)), np.log(0.5), np.log(0.5))


class TestTrainSenonePool:
    def test_trained_pool_separates_planted_senones(self):
        """Flat-start training recovers two distinct phone models."""
        rng = np.random.default_rng(4)
        topo = HmmTopology(num_states=3)
        hmm_a = PhoneHmm(name="A", topology=topo, senone_ids=(0, 1, 2))
        hmm_b = PhoneHmm(name="B", topology=topo, senone_ids=(3, 4, 5))
        dim = 4
        # Phone A frames near +2, phone B frames near -2.
        utterances, transcripts = [], []
        for _ in range(12):
            frames_a = rng.normal(+2.0, 0.3, size=(12, dim))
            frames_b = rng.normal(-2.0, 0.3, size=(12, dim))
            utterances.append(np.vstack([frames_a, frames_b]))
            transcripts.append([hmm_a, hmm_b])
        pool = train_senone_pool(
            utterances,
            transcripts,
            num_senones=6,
            config=TrainingConfig(num_components=2, em_iterations=4, realignment_passes=1),
        )
        probe_a = pool.score_frame(np.full(dim, 2.0))
        probe_b = pool.score_frame(np.full(dim, -2.0))
        assert probe_a[:3].max() > probe_a[3:].max()
        assert probe_b[3:].max() > probe_b[:3].max()

    # One frame per block, two frames (a ragged last block), one block.
    @pytest.mark.parametrize("elements", [1, 2 * 5 * 4 * 13, 1 << 18])
    def test_realignment_scores_the_chain_columns_blockwise(
        self, small_pool, rng, monkeypatch, elements
    ):
        """Realignment scores only the transcript chain's senones, a
        block of frames at a time: the bits of the full grid's chain
        columns at every block size."""
        monkeypatch.setattr(train, "GRID_BLOCK_ELEMENTS", elements)
        frames = rng.normal(size=(9, small_pool.dim))
        chain = [3, 3, 7, 0, 23]
        n = small_pool.num_senones
        grid = small_pool.score_pairs(
            frames, np.repeat(np.arange(9), n), np.tile(np.arange(n), 9)
        ).reshape(9, n)
        got = train._chain_scores(small_pool, frames, chain)
        assert np.array_equal(got.view(np.uint64), grid[:, chain].view(np.uint64))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            train_senone_pool([np.zeros((5, 2))], [], num_senones=3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            train_senone_pool([], [], num_senones=3)
