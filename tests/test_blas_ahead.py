"""Full-grid demand scored ahead, per lane, behind ``score_pairs``.

``BatchBlasScorer`` scores a lane's next ``BLOCK_FRAMES`` frames in one
whole-table product when the lane was admitted with its audio.  What
must hold, and is pinned here:

* a lane's blocks are cut from its own utterance alone, so its score
  BITS do not depend on the bank's width, its co-tenants or the arrival
  order (a GEMM row's bits follow the product's shape — with one
  product per step over whoever shares the step they did);
* a cached row answers a step only if the step's frame IS the frame the
  row was scored from; everything else — fed lanes, streaming, direct
  callers, a lane handed other audio than it was admitted with — is the
  direct one-frame product, bit-equal to a stateless scorer;
* the block follows its lane through cancel / re-admit / compact.
"""

import numpy as np
import pytest

from repro.core.logadd import LOG_ZERO
from repro.decoder.recognizer import Recognizer
from repro.decoder.scorer import BLAS_SCORE_ATOL
from repro.decoder.streaming import StreamingRecognizer
from repro.decoder.word_decode import DecoderConfig
from repro.hmm.senone import SenonePool
from repro.runtime import scoring
from repro.runtime.scoring import BLOCK_FRAMES, BatchBlasScorer

DIM = 13


@pytest.fixture(scope="module")
def pool():
    return SenonePool.random(40, num_components=2, dim=DIM, rng=np.random.default_rng(5))


def _grid(rows, num_senones):
    """``rows x every senone`` as a bank hands it out: read-only."""
    rows = np.asarray(rows, dtype=np.int64)
    pairs = np.repeat(rows, num_senones), np.arange(rows.size * num_senones) % num_senones
    for array in pairs:
        array.setflags(write=False)
    return pairs


def _stateless(pool, obs, rows):
    """What a scorer with no lane state answers: one product per step."""
    block = pool.score_block_blas(obs[list(rows)])
    block[np.isneginf(block)] = LOG_ZERO
    return block.ravel()


class _Lanes:
    """Drives a scorer the way a feedback-off bank does: every step the
    active lanes' current frames, demanded as the kept full grid."""

    def __init__(self, pool, width):
        self.pool, self.width = pool, width
        self.scorer = BatchBlasScorer(pool)
        self.feats = {}
        self.t = {}
        self._grids = {}

    def admit(self, lane, features, tell=True):
        self.scorer.admit_lane(lane, features if tell else None)
        self.feats[lane], self.t[lane] = features, 0

    def drop(self, lane):
        self.scorer.retire_lane(lane)
        del self.feats[lane], self.t[lane]

    def compact(self):
        keep = sorted(self.feats)
        self.scorer.compact_lanes(keep)
        self.feats = {new: self.feats[old] for new, old in enumerate(keep)}
        self.t = {new: self.t[old] for new, old in enumerate(keep)}
        self.width = len(keep)

    def step(self):
        """Per-lane ``(N,)`` answers for every lane's next frame."""
        lanes = sorted(self.feats)
        obs = np.zeros((self.width, self.pool.dim))
        for lane in lanes:
            obs[lane] = self.feats[lane][self.t[lane]]
            self.t[lane] += 1
        grid = self._grids.setdefault(
            (self.width, tuple(lanes)), _grid(lanes, self.pool.num_senones)
        )
        out = self.scorer.score_pairs(obs, *grid, lanes=np.asarray(lanes))
        return dict(zip(lanes, out.reshape(len(lanes), -1)))


def _alone(pool, features):
    """The rows a lane gets with the bank to itself."""
    lanes = _Lanes(pool, 1)
    lanes.admit(0, features)
    return [lanes.step()[0] for _ in range(len(features))]


class TestLaneBlocks:
    """The lane lifecycle on the scored-ahead blocks, scorer driven
    directly: a freed or moved lane is where a stale row could survive."""

    def test_blocks_are_cut_per_lane_and_stream_the_tables_once_each(
        self, pool, rng, spy_block_unions
    ):
        lengths = [BLOCK_FRAMES - 5, 2 * BLOCK_FRAMES + 1, BLOCK_FRAMES]
        feats = [rng.normal(0.0, 2.0, size=(n, DIM)) for n in lengths]
        lanes = _Lanes(pool, 3)
        calls = spy_block_unions(pool)
        for lane, f in enumerate(feats):
            lanes.admit(lane, f)
        got = {lane: [] for lane in range(3)}
        for step in range(max(lengths)):
            for lane in [b for b in list(lanes.feats) if lanes.t[b] == lengths[b]]:
                lanes.drop(lane)
            for lane, row in lanes.step().items():
                got[lane].append(row)
        # One whole-table pass per block: ceil(T / BLOCK_FRAMES) per lane.
        blocks = sum(-(-n // BLOCK_FRAMES) for n in lengths)
        assert lanes.scorer.table_streams == blocks == len(calls)
        assert all(senones is None for senones in calls)
        assert lanes.scorer.dense_steps == max(lengths)
        for lane, f in enumerate(feats):
            assert np.array_equal(got[lane], _alone(pool, f))  # bit for bit
            np.testing.assert_allclose(
                np.ravel(got[lane]),
                pool.score_pairs(f, *_grid(range(len(f)), pool.num_senones)),
                atol=BLAS_SCORE_ATOL,
            )

    def test_cancel_readmit_compact_across_a_block_edge(self, pool, rng):
        """admit -> step past a block edge -> cancel -> re-admit the same
        lane with other audio -> compact -> step: the new occupant never
        sees the previous occupant's rows, the moved lane keeps its own."""
        old = rng.normal(0.0, 2.0, size=(3 * BLOCK_FRAMES, DIM))
        new = rng.normal(0.0, 2.0, size=(BLOCK_FRAMES + 9, DIM))
        keeper = rng.normal(0.0, 2.0, size=(2 * BLOCK_FRAMES + 3, DIM))
        lanes = _Lanes(pool, 3)
        lanes.admit(0, old)
        lanes.admit(2, keeper)
        kept = []
        for _ in range(BLOCK_FRAMES + 4):  # both lanes into their 2nd block
            kept.append(lanes.step()[2])
        lanes.drop(0)  # cancelled mid-block: its unread rows die with it
        lanes.admit(0, new)
        fresh = [lanes.step() for _ in range(3)]
        kept += [rows[2] for rows in fresh]
        lanes.drop(0)
        lanes.admit(1, new)  # same audio again, in the lane compaction moves
        lanes.compact()  # old lanes (1, 2) -> (0, 1)
        assert sorted(lanes.scorer._ahead) == [0, 1]
        moved = []
        for _ in range(len(keeper) - len(kept)):
            rows = lanes.step()
            moved.append(rows[0])
            kept.append(rows[1])
        alone_new = _alone(pool, new)
        assert np.array_equal([rows[0] for rows in fresh], alone_new[:3])
        assert np.array_equal(moved, alone_new[: len(moved)])
        assert np.array_equal(kept, _alone(pool, keeper))

    def test_reset_forgets_every_lane(self, pool, rng):
        lanes = _Lanes(pool, 1)
        lanes.admit(0, rng.normal(size=(5, DIM)))
        lanes.step()
        lanes.scorer.reset()
        assert lanes.scorer._ahead == {} and lanes.scorer.table_streams == 0

    def test_paper_scale_pool_shortens_the_block_not_the_budget(
        self, pool, monkeypatch
    ):
        assert BatchBlasScorer(pool)._block_frames == BLOCK_FRAMES
        # A budget of five frames of this pool stands in for a big pool.
        monkeypatch.setattr(scoring, "BLOCK_SCRATCH_ELEMENTS", 5 * 40 * 2)
        assert BatchBlasScorer(pool)._block_frames == 5


class TestOnlyTheAdmittedFrameReadsTheBlock:
    def test_other_audio_than_admitted_is_scored_directly_for_good(
        self, pool, rng, spy_block_unions
    ):
        feats = rng.normal(0.0, 2.0, size=(12, DIM))
        other = rng.normal(0.0, 2.0, size=(12, DIM))
        scorer = BatchBlasScorer(pool)
        scorer.admit_lane(0, feats)
        grid = _grid([0], pool.num_senones)
        first = scorer.score_pairs(feats[:1], *grid)
        assert scorer.table_streams == 1  # the block
        # Frame 1 is NOT what the lane was admitted with.
        got = scorer.score_pairs(other[1:2], *grid)
        assert np.array_equal(got, _stateless(pool, other[1:2], [0]))
        assert 0 not in scorer._ahead
        # ...and the admitted frame 2 does not bring the block back.
        calls = spy_block_unions(pool)
        got = scorer.score_pairs(feats[2:3], *grid)
        assert len(calls) == 1 and calls[0] is None
        assert np.array_equal(got, _stateless(pool, feats[2:3], [0]))
        assert scorer.table_streams == 3 and scorer.dense_steps == 3
        np.testing.assert_allclose(
            first, _stateless(pool, feats[:1], [0]), atol=BLAS_SCORE_ATOL
        )

    def test_features_changed_in_place_after_admission_do_not_match(self, pool, rng):
        feats = rng.normal(0.0, 2.0, size=(6, DIM))
        scorer = BatchBlasScorer(pool)
        scorer.admit_lane(0, feats)
        grid = _grid([0], pool.num_senones)
        scorer.score_pairs(feats[:1], *grid)  # block scored from the old values
        feats[1] += 1.0
        got = scorer.score_pairs(feats[1:2], *grid)
        assert np.array_equal(got, _stateless(pool, feats[1:2], [0]))

    def test_a_step_mixes_block_rows_and_direct_rows(self, pool, rng):
        """Lane 0 told its audio, lane 1 fed, lane 2 off its audio: one
        direct product for the two, lane 0 from its block."""
        feats = [rng.normal(0.0, 2.0, size=(4, DIM)) for _ in range(3)]
        lanes = _Lanes(pool, 3)
        lanes.admit(0, feats[0])
        lanes.admit(1, feats[1], tell=False)
        lanes.admit(2, feats[2])
        lanes.feats[2] = feats[2] + 0.5  # the bank hands in other frames
        alone = _alone(pool, feats[0])
        for t in range(4):
            streams = lanes.scorer.table_streams
            rows = lanes.step()
            # Step 0: lane 0's block, the block lane 2 never reads, the
            # direct product; afterwards the direct product alone.
            assert lanes.scorer.table_streams == streams + (3 if t == 0 else 1)
            assert np.array_equal(rows[0], alone[t])
            obs = np.stack([feats[1][t], feats[2][t] + 0.5])
            direct = _stateless(pool, obs, [0, 1]).reshape(2, -1)
            assert np.array_equal(rows[1], direct[0])
            assert np.array_equal(rows[2], direct[1])


# ----------------------------------------------------------------------
# The drivers
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def dense(task):
    return Recognizer.create(
        task.dictionary, task.pool, task.lm, task.tying,
        mode="blas", config=DecoderConfig(use_feedback=False),
    )


@pytest.fixture(scope="module")
def ragged(task):
    """16 utterances, shorter than a block up to several blocks."""
    utts = [u.features for u in task.corpus.test + task.corpus.train[:8]]
    lengths = [20, 33, 97, 32, 65, 120, 64, 31, 129, 45, 80, 21, 110, 66, 90, 58]
    return [f[:n] for f, n in zip(utts, lengths)]


def _answers(out):
    return [(r.words, float(r.score).hex()) for r in out]


class TestBatchShapeInvarianceIsExact:
    def test_widths_and_arrival_orders_give_the_same_bits(self, dense, ragged, rng):
        orders = [list(range(16)), list(rng.permutation(16))]
        seen = {}
        for max_lanes in (1, 3, 8):
            for order in orders:
                out = dense.decode_stream([ragged[i] for i in order], max_lanes=max_lanes)
                assert dense.scorer.dense_steps == out.steps
                for i, answer in zip(order, _answers(out)):
                    assert seen.setdefault(i, answer) == answer, (i, max_lanes)

    def test_sequential_decode_equals_the_stream(self, dense, ragged):
        stream = _answers(dense.decode_stream(ragged, max_lanes=3))
        for features, answer in zip(ragged[:6], stream):
            result = dense.decode(features)
            assert (result.words, float(result.score).hex()) == answer
            # Scored ahead like a stream lane: one table pass per block.
            assert dense.scorer.table_streams == -(-len(features) // BLOCK_FRAMES)
            assert result.telemetry.blas_table_streams == dense.scorer.table_streams
            assert result.telemetry.blas_dense_steps == len(features)

    def test_scores_stay_within_tolerance_of_the_exact_kernel(
        self, dense, ragged, task
    ):
        exact = Recognizer.create(
            task.dictionary, task.pool, task.lm, task.tying,
            mode="reference", config=DecoderConfig(use_feedback=False),
        )
        out = dense.decode_stream(ragged, max_lanes=8)
        for features, result in zip(ragged, out):
            oracle = exact.decode(features)
            assert result.words == oracle.words
            assert abs(result.score - oracle.score) <= BLAS_SCORE_ATOL

    def test_stream_telemetry_carries_the_table_passes(self, dense, ragged):
        out = dense.decode_stream(ragged[:3], max_lanes=3)
        blocks = sum(-(-len(f) // BLOCK_FRAMES) for f in ragged[:3])
        assert dense.scorer.table_streams == blocks
        longest = max(out, key=lambda r: r.frames)
        assert longest.telemetry.blas_table_streams == blocks  # rode every step
        assert longest.telemetry.blas_dense_steps == longest.frames


class _StatelessGridScorer:
    """PR 22's answer to a full-grid step: one product over the step's
    rows, nothing kept between steps."""

    def __init__(self, pool):
        self.pool, self.num_senones = pool, pool.num_senones

    def score_pairs(self, observations, pair_rows, pair_senones, lanes=None):
        return _stateless(self.pool, observations, pair_rows[:: self.num_senones])

    def admit_lane(self, lane, features=None):
        pass

    def retire_lane(self, lane):
        return None


class TestFedLanesAreTheDirectPath:
    def _stateless_decode(self, rec, features):
        bank = rec.make_bank(1)
        bank.scorer = _StatelessGridScorer(rec.pool)
        bank.admit(0, 0)
        for frame in features:
            bank.step(frame[None, :])
        return bank.retire(0)

    def test_fed_bank_and_streaming_equal_a_stateless_scorer(self, dense, ragged):
        features = ragged[2]
        oracle = self._stateless_decode(dense, features)
        bank = dense.make_bank(1)
        dense.scorer.reset()
        bank.admit(0, 0)  # no features: a fed lane
        for frame in features:
            bank.step(frame[None, :])
        fed = bank.retire(0)
        assert dense.scorer.table_streams == len(features)  # one pass per frame
        stream = StreamingRecognizer(dense, endpoint_silence_frames=10**6)
        for frame in features:
            stream.feed(frame)
        streamed = stream.finalize()
        for result in (fed, streamed):
            assert result.words == oracle.words
            assert float(result.score).hex() == float(oracle.score).hex()
