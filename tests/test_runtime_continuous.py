"""Property tests for continuous batching (mid-decode lane refill).

The scheduler only decides WHEN a lane is reseeded; it must never
change WHAT a lane computes.  These tests drive
``Recognizer.decode_stream`` — its queue, FIFO refill, submission
order and tail compaction — and require every utterance's words, path
score, per-frame statistics and lattice size to be bit-identical to a
sequential ``Recognizer.decode`` of the same features, in reference
and hardware modes, including the degenerate single-lane queue.
Generated lifecycles on the bank itself (any order of admit, step,
cancel and compact) are ``tests/test_lane_lifecycle.py``.
"""

import numpy as np
import pytest
from conftest import _assert_lane_equal, _sequential

from repro.decoder.recognizer import Recognizer
from repro.runtime import LaneBank


@pytest.fixture(scope="module", params=["reference", "hardware"])
def rec(request, task):
    """One recognizer per mode: ``decode`` is the 1-lane oracle of its
    own ``decode_stream``."""
    return Recognizer.create(
        task.dictionary, task.pool, task.lm, task.tying, mode=request.param
    )


@pytest.fixture(scope="module")
def cache(rec):
    """``(utterance_index, length)`` -> sequential result of ``rec``, so
    repeated trials don't re-decode identical truncations."""
    return {}


class TestContinuousEquivalence:
    def test_single_lane_queue_degenerates_to_sequential(self, rec, cache, task):
        """max_lanes=1 is pure sequential decoding through the bank."""
        base = [u.features for u in task.corpus.test[:4]]
        result = rec.decode_stream(base, max_lanes=1)
        assert result.max_lanes == 1
        assert result.steps == sum(f.shape[0] for f in base)
        assert result.utilization == 1.0
        for i, lane in enumerate(result):
            _assert_lane_equal(
                _sequential(rec, base, cache, i, base[i].shape[0]), lane
            )

    def test_generator_queue_is_consumed_lazily(self, rec, cache, task):
        """The waiting queue may be a generator; admission pulls from it."""
        base = [u.features for u in task.corpus.test[:5]]
        pulled = []

        def queue():
            for i, f in enumerate(base):
                pulled.append(i)
                yield f

        result = rec.decode_stream(queue(), max_lanes=2)
        assert pulled == list(range(5))
        for i, lane in enumerate(result):
            _assert_lane_equal(
                _sequential(rec, base, cache, i, base[i].shape[0]), lane
            )

    def test_duplicate_utterances_any_lane_agree(self, rec, task):
        """The same features produce the same output in every lane."""
        f = task.corpus.test[1].features
        result = rec.decode_stream([f] * 5, max_lanes=2)
        first = result[0]
        for lane in result:
            assert lane.words == first.words and lane.score == first.score

    def test_reusable_across_streams(self, rec, task):
        feats = [u.features for u in task.corpus.test[:3]]
        a = rec.decode_stream(feats, max_lanes=2)
        b = rec.decode_stream(feats, max_lanes=3)
        for x, y in zip(a, b):
            assert x.words == y.words and x.score == y.score


class TestScheduling:
    def test_refill_happens_mid_decode(self, rec, task):
        """With fewer lanes than utterances, lanes must be refilled."""
        feats = [u.features for u in task.corpus.test]
        result = rec.decode_stream(feats, max_lanes=2)
        assert result.max_lanes == 2
        assert len(result.admit_steps) == len(feats)
        assert len(result.lane_of) == len(feats)
        late = [s for s in result.admit_steps if s > 0]
        assert len(late) == len(feats) - 2  # everything past the seed pair
        assert result.admit_steps == sorted(result.admit_steps)  # FIFO
        assert set(result.lane_of) <= {0, 1}

    def test_results_in_submission_order(self, rec, cache, task):
        """A long utterance first must not displace later short ones."""
        base = [u.features for u in task.corpus.test[:4]]
        order = sorted(range(4), key=lambda i: -base[i].shape[0])
        feats = [base[i] for i in order]
        result = rec.decode_stream(feats, max_lanes=2)
        for i, lane in zip(order, result):
            _assert_lane_equal(
                _sequential(rec, base, cache, i, base[i].shape[0]), lane
            )
            assert lane.frames == base[i].shape[0]

    def test_more_lanes_than_utterances_shrinks_bank(self, rec, task):
        feats = [u.features for u in task.corpus.test[:3]]
        result = rec.decode_stream(feats, max_lanes=8)
        assert result.max_lanes == 3
        assert result.admit_steps == [0, 0, 0]

    def test_continuous_beats_drain_utilization(self, rec, task):
        """Refilled lanes waste fewer slots than drain-to-longest."""
        base = [u.features for u in task.corpus.test]
        # Strongly ragged: a long utterance next to heavily cut ones.
        feats = [f if i % 2 else f[: max(5, f.shape[0] // 4)] for i, f in enumerate(base)]
        stream = rec.decode_stream(feats, max_lanes=4)
        drained = rec.decode_batch(feats[:4])
        assert stream.utilization > drained.utilization
        assert stream.frames_processed == sum(f.shape[0] for f in feats)

    def test_hardware_accounting_present(self, task):
        rec = Recognizer.create(
            task.dictionary, task.pool, task.lm, task.tying, mode="hardware"
        )
        feats = [u.features for u in task.corpus.test[:4]]
        result = rec.decode_stream(feats, max_lanes=2)
        assert result.op_unit_activities is not None
        assert result.viterbi_activity is not None
        assert result.frame_critical_cycles is not None
        assert len(result.frame_critical_cycles) == result.steps


class TestValidationAndLifecycle:
    def test_rejects_empty_stream(self, rec):
        with pytest.raises(ValueError):
            rec.decode_stream([], max_lanes=4)

    def test_rejects_bad_lane_budget(self, rec, task):
        with pytest.raises(ValueError):
            rec.decode_stream([task.corpus.test[0].features], max_lanes=0)

    def test_rejects_bad_shapes_mid_stream(self, rec, task):
        good = task.corpus.test[0].features
        with pytest.raises(ValueError):
            rec.decode_stream([good, np.zeros((10, 7))], max_lanes=1)
        with pytest.raises(ValueError):
            rec.decode_stream([np.zeros((0, good.shape[1]))], max_lanes=2)

    def test_rejects_non_finite_features_mid_stream(self, rec, task):
        good = task.corpus.test[0].features
        bad = good.copy()
        bad[10, 3] = np.nan
        with pytest.raises(ValueError, match="utterance 1.*finite"):
            rec.decode_stream([good, bad], max_lanes=1)

    def test_rejects_none_in_queue(self, rec, task):
        """A None element must error, not be silently dropped."""
        good = task.corpus.test[0].features
        with pytest.raises(ValueError):
            rec.decode_stream([good, None, good], max_lanes=1)

    def test_drained_queue_compacts_bank(self, rec, cache, task):
        """Once the queue drains, the tail must not step dead lanes.

        The bank width seen by the pooled scorer has to shrink to the
        number of live lanes (down to 1 for the longest straggler),
        and every utterance's output must be unchanged by the
        relocations.
        """
        base = [u.features for u in task.corpus.test[:4]]
        longest = max(range(4), key=lambda i: base[i].shape[0])
        # One full-length straggler, three short lanes; queue == lanes,
        # so it is drained immediately after seeding.
        feats = [f if i == longest else f[:9] for i, f in enumerate(base)]
        widths = []
        orig = rec.scorer.score_pairs

        def spy(observations, pair_rows, pair_senones, lanes=None):
            widths.append(observations.shape[0])
            return orig(observations, pair_rows, pair_senones, lanes=lanes)

        rec.scorer.score_pairs = spy
        try:
            result = rec.decode_stream(feats, max_lanes=4)
        finally:
            rec.scorer.score_pairs = orig
        assert widths[0] == 4
        assert widths[-1] == 1  # the straggler finished in a 1-lane bank
        assert all(a >= b for a, b in zip(widths, widths[1:]))  # monotone shrink
        # Tail steps did exactly one lane's work, not max_lanes' worth.
        assert widths.count(1) >= feats[longest].shape[0] - 10
        for i, lane in enumerate(result):
            _assert_lane_equal(
                _sequential(rec, base, cache, i, feats[i].shape[0]), lane
            )

    def test_lane_bank_lifecycle_guards(self, rec, task):
        """admit/step/retire enforce the lane lifecycle contract."""
        f = np.asarray(task.corpus.test[0].features, dtype=np.float64)
        bank = LaneBank(rec, 2)
        with pytest.raises(RuntimeError):
            bank.step()  # nothing admitted
        with pytest.raises(RuntimeError):
            bank.retire(0)  # nothing to retire
        bank.admit(0, 0, f)
        with pytest.raises(RuntimeError):
            bank.admit(0, 1, f)  # occupied
        with pytest.raises(RuntimeError):
            bank.retire(0)  # mid-utterance
        assert bank.free_lanes() == [1]
        with pytest.raises(ValueError):
            LaneBank(rec, 0)
