"""Tests for repro.decoder.streaming."""

import numpy as np
import pytest

from repro.decoder.recognizer import Recognizer
from repro.decoder.streaming import StreamingRecognizer


@pytest.fixture()
def recognizer(task):
    return Recognizer.create(
        task.dictionary, task.pool, task.lm, task.tying, mode="reference"
    )


class TestStreaming:
    def test_matches_batch_decode(self, task, recognizer):
        """Feeding frame by frame gives the batch decoder's answer."""
        utt = task.corpus.test[0]
        batch = recognizer.decode(utt.features).words
        streaming = StreamingRecognizer(recognizer, partial_interval=0)
        for frame in utt.features:
            if streaming.ended:
                break
            streaming.feed(frame)
        final = streaming.finalize()
        assert final is not None
        assert final.words == batch

    def test_partials_emitted(self, task, recognizer):
        utt = task.corpus.test[1]
        streaming = StreamingRecognizer(recognizer, partial_interval=10)
        partials = []
        for frame in utt.features:
            if streaming.ended:
                break
            event = streaming.feed(frame)
            if event.partial is not None:
                partials.append(event.partial)
        assert partials, "expected at least one partial hypothesis"
        final = streaming.finalize()
        # The last partial should be a prefix-ish of the final result:
        # at minimum, partials converge to the final hypothesis.
        assert final is not None

    def test_endpoint_fires_in_trailing_silence(self, task, recognizer):
        """Appending long silence triggers the endpoint detector."""
        utt = task.corpus.test[0]
        sil_senone = task.tying.ci_senone("SIL", 0)
        sil_mean = task.pool.means[sil_senone, 0]
        silence = np.tile(sil_mean, (60, 1))
        frames = np.vstack([utt.features, silence])
        streaming = StreamingRecognizer(
            recognizer, partial_interval=0, endpoint_silence_frames=25
        )
        fired_at = None
        for i, frame in enumerate(frames):
            event = streaming.feed(frame)
            if event.endpoint:
                fired_at = i
                break
        assert fired_at is not None, "endpoint never fired"
        assert fired_at >= utt.features.shape[0] - 1  # not during speech
        final = streaming.finalize()
        assert final is not None
        assert final.words == tuple(utt.words)

    def test_no_endpoint_before_speech(self, task, recognizer):
        """Leading silence alone must not endpoint (speech not seen)."""
        sil_senone = task.tying.ci_senone("SIL", 0)
        sil_mean = task.pool.means[sil_senone, 0]
        streaming = StreamingRecognizer(recognizer, endpoint_silence_frames=10)
        for _ in range(40):
            event = streaming.feed(sil_mean)
        assert not event.endpoint

    def test_feed_after_endpoint_rejected(self, task, recognizer):
        utt = task.corpus.test[0]
        sil_senone = task.tying.ci_senone("SIL", 0)
        sil_mean = task.pool.means[sil_senone, 0]
        frames = np.vstack([utt.features, np.tile(sil_mean, (80, 1))])
        streaming = StreamingRecognizer(recognizer, endpoint_silence_frames=20)
        for frame in frames:
            if streaming.feed(frame).endpoint:
                break
        with pytest.raises(RuntimeError):
            streaming.feed(frames[0])

    def test_reset_enables_next_utterance(self, task, recognizer):
        utt = task.corpus.test[2]
        streaming = StreamingRecognizer(recognizer, partial_interval=0)
        for frame in utt.features:
            streaming.feed(frame)
        first = streaming.finalize()
        streaming.reset()
        assert streaming.frames_fed == 0
        for frame in utt.features:
            streaming.feed(frame)
        second = streaming.finalize()
        assert first is not None and second is not None
        assert first.words == second.words

    def test_finalize_empty(self, recognizer):
        streaming = StreamingRecognizer(recognizer)
        assert streaming.finalize() is None

    def test_validation(self, recognizer):
        with pytest.raises(ValueError):
            StreamingRecognizer(recognizer, partial_interval=-1)
        with pytest.raises(ValueError):
            StreamingRecognizer(recognizer, endpoint_silence_frames=0)
        for bad in (2.5, float("nan"), float("inf"), False):
            with pytest.raises(ValueError, match="partial_interval must be an integer"):
                StreamingRecognizer(recognizer, partial_interval=bad)
        for bad in (30.5, float("nan"), float("inf"), True):
            with pytest.raises(
                ValueError, match="endpoint_silence_frames must be an integer"
            ):
                StreamingRecognizer(recognizer, endpoint_silence_frames=bad)
        streaming = StreamingRecognizer(
            recognizer, partial_interval=np.int64(5), endpoint_silence_frames=np.int64(7)
        )
        assert (streaming.partial_interval, streaming.endpoint_silence_frames) == (5, 7)

    def test_non_finite_frame_rejected_without_consuming_it(self, task, recognizer):
        utt = task.corpus.test[0]
        streaming = StreamingRecognizer(recognizer)
        for t, frame in enumerate(utt.features):
            if t == 10:
                bad = frame.copy()
                bad[3] = np.nan
                with pytest.raises(ValueError, match="frame 10.*finite"):
                    streaming.feed(bad)
            streaming.feed(frame)
        assert streaming.frames_fed == utt.features.shape[0]
        assert streaming.finalize().words == recognizer.decode(utt.features).words


class TestStreamingOverTree:
    """The endpointer reads the network's silence-state mask, so the
    tree lexicon streams like the flat one (it used to crash on the
    first ``feed``: the tree has no ``word_of_state``)."""

    @pytest.fixture()
    def tree(self, task):
        return Recognizer.create(
            task.dictionary, task.pool, task.lm, task.tying, network="tree"
        )

    def test_frame_by_frame_matches_decode(self, task, tree):
        utt = task.corpus.test[0]
        expected = tree.decode(utt.features).words
        streaming = StreamingRecognizer(tree, partial_interval=10)
        partials = [streaming.feed(frame).partial for frame in utt.features]
        assert any(p is not None for p in partials)
        assert streaming.finalize().words == expected

    def test_endpoint_fires_in_trailing_silence(self, task, tree):
        utt = task.corpus.test[0]
        expected = tree.decode(utt.features).words
        sil_mean = task.pool.means[task.tying.ci_senone("SIL", 0), 0]
        frames = np.vstack([utt.features, np.tile(sil_mean, (60, 1))])
        ended_at = []
        streaming = StreamingRecognizer(
            tree, partial_interval=0, endpoint_silence_frames=25,
            on_endpoint=ended_at.append,
        )
        for frame in frames:
            if streaming.feed(frame).endpoint:
                break
        assert streaming.ended and ended_at
        assert ended_at[0] >= utt.features.shape[0] - 1  # not during speech
        assert streaming.finalize().words == expected
