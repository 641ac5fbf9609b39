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
from conftest import _assert_lane_equal

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
        assert all(isinstance(s.fast_stats, FastGmmStats) for s in sequential)

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
        for lane in range(2):  # all retired
            with pytest.raises(KeyError):
                rec.scorer.lane_state(lane)
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


class TestLaneStateArrays:
    """The lane lifecycle on scorer-owned arrays indexed by lane.

    Lane state is rows of shared arrays, so a freed or moved row is
    where stale state could survive: these drive the backend directly
    with a CDS threshold that skips whenever it may, which makes any
    inherited previous frame or cache row visible at once.
    """

    SENONES = np.arange(24)

    @pytest.fixture()
    def model(self, small_pool):
        config = FastGmmConfig(cds_enabled=True, cds_distance=1e9, cds_max_run=2)
        return FastGmmModel(small_pool, config=config)

    @staticmethod
    def _score(scorer, obs, lanes, senones):
        """One step: every lane in ``lanes`` demands ``senones``."""
        lanes = np.asarray(lanes)
        return scorer.score_pairs(
            obs,
            np.repeat(lanes, len(senones)),
            np.tile(senones, lanes.size),
            lanes=lanes,
        )

    @pytest.mark.parametrize("mid_skip_run", [False, True])
    def test_readmitted_lane_starts_cold(self, model, rng, mid_skip_run):
        """Re-admission after retire/cancel (the bank calls
        ``retire_lane`` for both): the first frame is scored in full
        even if identical to the predecessor's last, and senones the
        predecessor cached are computed from the NEW frame."""
        scorer = BatchFastGmmScorer(model)
        scorer.admit_lane(0)
        old = rng.normal(size=(1, 13))
        self._score(scorer, old, [0], self.SENONES)
        if mid_skip_run:
            self._score(scorer, old, [0], self.SENONES)
            assert scorer.lane_state(0).skip_run == 1
        scorer.retire_lane(0)
        scorer.admit_lane(0)
        cold = scorer.lane_state(0)
        assert cold.last_obs is None and cold.last_scores is None
        assert cold.skip_run == 0 and cold.fast_stats == FastGmmStats()

        new = old + 5.0
        fresh = BatchFastGmmScorer(model)
        fresh.admit_lane(0)
        for frame, senones in ((old, self.SENONES[:6]), (new, self.SENONES)):
            got = self._score(scorer, frame, [0], senones)
            assert np.array_equal(got, self._score(fresh, frame, [0], senones))
        stats = scorer.lane_state(0).fast_stats
        assert (stats.frames, stats.frames_skipped) == (2, 1)
        assert stats == fresh.lane_state(0).fast_stats

    def test_compaction_moves_a_lanes_state_together(self, model, rng):
        """A lane mid-skip-run before ``compact_lanes`` decodes exactly
        as in the uncompacted bank, and its snapshot moves intact."""
        frames = rng.normal(size=(6, 3, 13))
        wide, narrow = BatchFastGmmScorer(model), BatchFastGmmScorer(model)
        for scorer in (wide, narrow):
            for lane in range(3):
                scorer.admit_lane(lane)
            # Lanes start one step apart, so their skip runs differ.
            self._score(scorer, frames[0], [2], self.SENONES[:9])
            self._score(scorer, frames[1], [1, 2], self.SENONES[:9])
            self._score(scorer, frames[2], [0, 1, 2], self.SENONES[:9])
        assert [wide.lane_state(b).skip_run for b in range(3)] == [0, 1, 2]
        narrow.retire_lane(1)
        narrow.compact_lanes([0, 2])
        for old, new in ((0, 0), (2, 1)):
            before, after = wide.lane_state(old), narrow.lane_state(new)
            assert np.array_equal(before.last_obs, after.last_obs)
            assert np.array_equal(before.last_scores, after.last_scores)
            assert before.skip_run == after.skip_run
            assert before.fast_stats == after.fast_stats
        with pytest.raises(KeyError):
            narrow.lane_state(2)
        for t in range(3, 6):
            # New senones each step: skipping lanes fill cache misses.
            senones = self.SENONES[: 9 + 5 * (t - 2)]
            want = self._score(wide, frames[t], [0, 1, 2], senones)
            got = self._score(narrow, frames[t][[0, 2]], [0, 1], senones)
            want = want.reshape(3, -1)[[0, 2]].ravel()
            assert np.array_equal(got, want), t
        for old, new in ((0, 0), (2, 1)):
            assert wide.lane_state(old).fast_stats == narrow.lane_state(new).fast_stats
        assert wide.lane_state(2).fast_stats.frames_skipped > 0

    def test_scoring_an_unadmitted_lane_raises(self, model, rng):
        obs = rng.normal(size=(4, 13))
        scorer = BatchFastGmmScorer(model)
        with pytest.raises(LookupError):  # no lane was ever admitted
            self._score(scorer, obs, [0], self.SENONES)
        scorer.admit_lane(0)
        scorer.admit_lane(1)
        scorer.retire_lane(0)
        with pytest.raises(LookupError):  # a retired row inside the arrays
            self._score(scorer, obs, [0, 1], self.SENONES)
        with pytest.raises(LookupError):  # a row past them
            self._score(scorer, obs, [1, 3], self.SENONES)
        with pytest.raises(LookupError):  # lanes inferred from the items
            scorer.score_pairs(obs, np.zeros(24, dtype=np.int64), self.SENONES)
        assert scorer.lane_state(1).fast_stats.frames == 0  # nothing was charged

    @pytest.mark.parametrize(
        "lanes, rows",
        [
            ([0], [0, 1]),  # lane 1's pairs, lane 1 not listed
            ([1], [0, 1]),
            ([-1], [0]),  # would wrap to the last lane
            ([1, 0], [0, 1]),  # not ascending
            ([0, 0, 1], [0, 1]),  # not strictly ascending
            ([0, 1, 2], [0, 1]),  # past the observation rows
            ([[0, 1]], [0, 1]),  # not 1-D
        ],
    )
    def test_lanes_must_be_the_active_lanes(self, model, rng, lanes, rows):
        """``lanes`` is every active lane, strictly ascending, admitted,
        a superset of the pair rows: anything else is refused before a
        counter, a skip run or a cache row moves."""
        scorer = BatchFastGmmScorer(model)
        for lane in (0, 1):
            scorer.admit_lane(lane)
        obs = rng.normal(size=(2, 13))
        rows = np.asarray(rows)
        with pytest.raises((ValueError, KeyError)):
            scorer.score_pairs(
                obs,
                np.repeat(rows, self.SENONES.size),
                np.tile(self.SENONES, rows.size),
                lanes=np.asarray(lanes),
            )
        for lane in (0, 1):
            assert scorer.lane_state(lane).fast_stats.frames == 0
            assert scorer.lane_state(lane).last_obs is None

    def test_an_unlisted_lane_cannot_read_a_stale_cache_row(self, small_pool, rng):
        """The case the check closes: lane 1 scored at frame 0, then its
        pairs sent with ``lanes=[0]`` while lane 0 skips — its cache row
        was never cleared, so it would be answered with frame 0's
        scores."""
        model = FastGmmModel(
            small_pool, config=FastGmmConfig(cds_enabled=True, cds_distance=1.0)
        )
        scorer, alone = BatchFastGmmScorer(model), BatchFastGmmScorer(model)
        for lane in (0, 1):
            scorer.admit_lane(lane)
        alone.admit_lane(0)
        frames = rng.normal(size=(2, 2, 13))
        frames[1, 0] = frames[0, 0]  # lane 0 stands still: it skips
        frames[1, 1] += 5.0  # lane 1 moves: it must score in full
        self._score(scorer, frames[0], [0, 1], self.SENONES)
        self._score(alone, frames[0][[1]], [0], self.SENONES)
        with pytest.raises(ValueError):
            scorer.score_pairs(
                frames[1],
                np.repeat([0, 1], self.SENONES.size),
                np.tile(self.SENONES, 2),
                lanes=np.array([0]),
            )
        got = self._score(scorer, frames[1], [0, 1], self.SENONES).reshape(2, -1)
        want = self._score(alone, frames[1][[1]], [0], self.SENONES)
        assert np.array_equal(got[1], want)
        assert scorer.lane_state(0).skip_run == 1
        assert scorer.lane_state(1).skip_run == 0

    def test_bank_wider_than_any_lane_admitted(self, model, rng):
        """The arrays grow with the highest lane admitted, not with the
        observation block: lane 0 of a 4-row block first, then lane 3."""
        frames = rng.normal(size=(3, 4, 13))
        bank = BatchFastGmmScorer(model)
        alone = {lane: BatchFastGmmScorer(model) for lane in (0, 3)}
        for scorer in alone.values():
            scorer.admit_lane(0)
        bank.admit_lane(0)
        got = self._score(bank, frames[0], [0], self.SENONES)
        want = self._score(alone[0], frames[0][[0]], [0], self.SENONES)
        assert np.array_equal(got, want)
        bank.admit_lane(3)  # grows past the never-admitted lanes 1 and 2
        for t in (1, 2):
            got = self._score(bank, frames[t], [0, 3], self.SENONES).reshape(2, -1)
            for row, lane in enumerate((0, 3)):
                want = self._score(alone[lane], frames[t][[lane]], [0], self.SENONES)
                assert np.array_equal(got[row], want), (t, lane)
        for lane in (0, 3):
            assert bank.lane_state(lane).fast_stats == alone[lane].lane_state(0).fast_stats
        with pytest.raises(KeyError):
            bank.lane_state(1)


class TestTwinsShareAReadOnlyModel:
    def test_twins_scoring_from_two_threads_are_bit_identical(
        self, task, ragged_feats
    ):
        """``twin()`` shares the FastGmmModel between thread shards, so
        the model may hold no per-step buffer: two twins decoding at
        once (switching threads every few bytecodes) each reproduce the
        sequential decode bit for bit."""
        import sys
        import threading

        rec = Recognizer.create(
            task.dictionary, task.pool, task.lm, task.tying,
            mode="fast", fast_config=FastGmmConfig.all_layers(),
        )
        sequential = [rec.decode(f) for f in ragged_feats]
        twins = [rec.twin(), rec.twin()]
        assert all(t.scorer.model is rec.scorer.model for t in twins)
        assert twins[0].scorer is not twins[1].scorer
        results: dict[int, list] = {}

        def work(i):
            feats = ragged_feats if i == 0 else ragged_feats[::-1]
            results[i] = twins[i].decode_stream(feats, max_lanes=2).results

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for seq, lane in zip(sequential, results[0]):
            _assert_lane_equal(seq, lane)
        for seq, lane in zip(sequential[::-1], results[1]):
            _assert_lane_equal(seq, lane)
