"""Batched fast-GMM parity: every layer combination, every runtime.

The four-layer scheme (CDS / CI-selection / VQ / PDE) keeps per-lane
selection state — the CDS frame cache, per-lane CI margins against
each lane's own frame-best, per-lane work counters.  The batched
backend pools all lanes' demand into shared Gaussian passes, so the
thing to pin is that pooling NEVER leaks state or work between lanes:
for each of the 16 on/off layer combinations, batched and continuous
decode must match sequential fast decode word-for-word,
score-for-score (bit-exact) and counter-for-counter, for ragged
lengths, any batch size and any arrival order.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from repro.decoder.fast_gmm import (
    FastGmmConfig,
    FastGmmModel,
    FastGmmStats,
)
from repro.decoder.recognizer import Recognizer
from repro.hmm.senone import SenonePool
from repro.lexicon.triphone import SenoneTying
from repro.runtime import BatchFastGmmScorer

#: Ragged per-utterance frame lengths (test-corpus indices 0..3).
LENGTHS = [40, 25, 14, 7]

ALL_COMBOS = list(itertools.product([False, True], repeat=4))


def combo_id(combo) -> str:
    cds, ci, vq, pde = combo
    names = [
        name
        for on, name in zip(combo, ("cds", "ci", "vq", "pde"))
        if on
    ]
    return "+".join(names) if names else "baseline"


def make_config(combo) -> FastGmmConfig:
    cds, ci, vq, pde = combo
    return FastGmmConfig(
        cds_enabled=cds,
        ci_selection_enabled=ci,
        gaussian_selection_enabled=vq,
        pde_enabled=pde,
        # Thresholds chosen so each enabled layer actually fires on the
        # tiny task (skips happen, margins approximate, PDE abandons).
        cds_distance=30.0,
        ci_margin=6.0,
        gs_shortlist=2,
        pde_margin=8.0,
        pde_chunk=5,
    )


@pytest.fixture(scope="module")
def ragged_feats(task):
    return [
        u.features[:n] for u, n in zip(task.corpus.test, LENGTHS)
    ]


def _assert_lane_equal(seq, lane):
    assert lane.words == seq.words
    assert lane.score == seq.score  # bit-identical, not approx
    assert lane.frames == seq.frames
    assert lane.lattice_size == seq.lattice_size
    assert [f.__dict__ for f in lane.frame_stats] == [
        f.__dict__ for f in seq.frame_stats
    ]
    assert lane.scoring_stats.active_per_frame == seq.scoring_stats.active_per_frame
    # All four layers' work counters, per lane: frames skipped (CDS),
    # senones full/approximated (CI), Gaussians touched (VQ),
    # dimensions multiplied (PDE).
    assert isinstance(lane.fast_stats, FastGmmStats)
    assert lane.fast_stats == seq.fast_stats


class TestAblationParity:
    """16 layer combinations x batch sizes x arrival orders."""

    @pytest.mark.parametrize("combo", ALL_COMBOS, ids=combo_id)
    def test_layer_combination_matches_sequential(self, task, ragged_feats, combo):
        rec = Recognizer.create(
            task.dictionary,
            task.pool,
            task.lm,
            task.tying,
            mode="fast",
            fast_config=make_config(combo),
        )
        sequential = [rec.decode(f) for f in ragged_feats]
        assert isinstance(rec.scorer, BatchFastGmmScorer)

        # Batch size 1 (degenerate) and 3 (ragged retirement mid-batch).
        _assert_lane_equal(sequential[0], rec.decode_batch([ragged_feats[0]])[0])
        for seq, lane in zip(sequential[:3], rec.decode_batch(ragged_feats[:3])):
            _assert_lane_equal(seq, lane)

        # Batch size 8: duplicated ragged lanes — identical features in
        # different lanes must produce identical outputs AND counters.
        eight = ragged_feats + ragged_feats
        for seq, lane in zip(sequential + sequential, rec.decode_batch(eight)):
            _assert_lane_equal(seq, lane)

        # Seeded-random arrival orders through decode_stream:
        # mid-decode refill reseeds per-lane scorer state.
        rng = np.random.default_rng(sum(combo) + 17)
        for max_lanes in (2, 3):
            order = rng.permutation(len(ragged_feats)).tolist()
            stream = rec.decode_stream(
                [ragged_feats[i] for i in order], max_lanes=max_lanes
            )
            for i, lane in zip(order, stream.results):
                _assert_lane_equal(sequential[i], lane)


class TestPooledBackendWithCdSenones:
    """Direct backend parity on a context-dependent senone space.

    The synthetic decode tasks are monophone (every senone is its own
    CI parent), so the full CI-selection machinery — per-lane frame
    bests, margin expansion, parent-score substitution — only
    degenerates there.  This drives the pooled backend head-to-head
    against per-lane sequential scorers on a CD tying where
    approximation really fires.
    """

    @pytest.fixture(scope="class")
    def cd_model(self):
        tying = SenoneTying(num_senones=1200)
        pool = SenonePool.random(
            1200, num_components=4, dim=13, rng=np.random.default_rng(5)
        )
        config = FastGmmConfig.all_layers(
            ci_margin=2.0,  # tight: approximation actually happens
            gs_shortlist=2,
            cds_distance=8.0,
            pde_margin=6.0,
            pde_chunk=5,
        )
        return FastGmmModel(pool, tying=tying, config=config)

    def test_pooled_matches_per_lane_sequential(self, cd_model):
        lanes = 3
        frames = 12
        rng = np.random.default_rng(99)
        # B=1 vs B=3: each lane alone in its own scorer is the oracle.
        alone = [BatchFastGmmScorer(cd_model) for _ in range(lanes)]
        batch = BatchFastGmmScorer(cd_model)
        for b in range(lanes):
            alone[b].admit_lane(0)
            batch.admit_lane(b)
        # Per-lane frame sequences with stationary stretches (CDS food)
        # at DIFFERENT steps per lane, so skip masks diverge.
        obs = rng.normal(scale=3.0, size=(lanes, frames, cd_model.pool.dim))
        for b in range(lanes):
            for t in range(2 + b, frames, 4):
                obs[b, t] = obs[b, t - 1] + rng.normal(scale=0.01, size=13)
        for t in range(frames):
            pair_rows, pair_sen, per_lane = [], [], []
            for b in range(lanes):
                n = int(rng.integers(0, 60))
                sen = np.unique(rng.integers(0, 1200, size=n))
                per_lane.append(sen)
                pair_rows.append(np.full(sen.size, b, dtype=np.int64))
                pair_sen.append(sen)
            compact = batch.score_pairs(
                obs[:, t, :],
                np.concatenate(pair_rows),
                np.concatenate(pair_sen),
                lanes=np.arange(lanes),
            )
            offset = 0
            for b, sen in enumerate(per_lane):
                single = alone[b].score_pairs(
                    obs[b : b + 1, t, :],
                    np.zeros(sen.size, dtype=np.int64),
                    sen,
                    lanes=np.array([0]),
                )
                got = compact[offset : offset + sen.size]
                offset += sen.size
                assert np.array_equal(got, single), (t, b)
        for b in range(lanes):
            assert batch.lane_state(b).fast_stats == alone[b].lane_state(0).fast_stats
        # Prove the interesting layers actually fired somewhere.
        total = [batch.lane_state(b).fast_stats for b in range(lanes)]
        assert sum(s.senones_approximated for s in total) > 0
        assert sum(s.frames_skipped for s in total) > 0
        assert all(s.gaussians_evaluated < s.gaussians_possible for s in total)
        assert all(s.dims_evaluated < s.dims_possible for s in total)


class TestFastLaneLifecycle:
    @pytest.fixture(scope="class")
    def fast_rec(self, task):
        return Recognizer.create(
            task.dictionary,
            task.pool,
            task.lm,
            task.tying,
            mode="fast",
            fast_config=FastGmmConfig.all_layers(),
        )

    def test_refill_resets_scorer_state(self, fast_rec, ragged_feats):
        """A reseeded lane must not inherit the CDS cache: decoding the
        SAME utterance through a refilled lane gives identical skip
        counters to a fresh sequential decode."""
        rec = fast_rec
        seq = [rec.decode(f) for f in ragged_feats]
        stream = rec.decode_stream(ragged_feats, max_lanes=1)
        for s, lane in zip(seq, stream.results):
            _assert_lane_equal(s, lane)
        skips = [r.fast_stats.frames_skipped for r in stream.results]
        assert any(s > 0 for s in skips)  # CDS actually fired

    def test_retire_detaches_counters(self, fast_rec, ragged_feats):
        """Retired lanes' stats are frozen; the backend holds no state
        for them afterwards."""
        rec = fast_rec
        result = rec.decode_stream(ragged_feats, max_lanes=2)
        assert rec.scorer._lanes == {}  # all retired
        frames = [r.fast_stats.frames for r in result.results]
        assert frames == LENGTHS

    def test_work_counters_sum_like_sequential(self, fast_rec, ragged_feats):
        """Aggregate pooled work == sum of per-utterance sequential work."""
        rec = fast_rec
        seq = [rec.decode(f) for f in ragged_feats]
        stream = rec.decode_stream(ragged_feats, max_lanes=4)
        for field in (f.name for f in dataclasses.fields(FastGmmStats)):
            total_seq = sum(getattr(r.fast_stats, field) for r in seq)
            total_stream = sum(getattr(r.fast_stats, field) for r in stream.results)
            assert total_stream == total_seq, field
