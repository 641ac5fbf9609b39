"""Tests for repro.decoder.recognizer (uses the session tiny task)."""

import numpy as np
import pytest

from repro.decoder.recognizer import Recognizer
from repro.decoder.fast_gmm import FastGmmConfig
from repro.decoder.scorer import BLAS_SCORE_ATOL
from repro.decoder.streaming import StreamingRecognizer
from repro.lm.ngram import NGramModel
from repro.lm.vocabulary import Vocabulary
from repro.quant.float_formats import MANTISSA_12


class TestModes:
    def test_reference_mode_decodes(self, task):
        rec = Recognizer.create(
            task.dictionary, task.pool, task.lm, task.tying, mode="reference"
        )
        utt = task.corpus.test[0]
        result = rec.decode(utt.features)
        assert result.words == tuple(utt.words)
        assert result.frames == utt.num_frames
        assert result.op_unit_activities is None

    def test_hardware_mode_matches_reference(self, task):
        ref = Recognizer.create(
            task.dictionary, task.pool, task.lm, task.tying, mode="reference"
        )
        hw = Recognizer.create(
            task.dictionary, task.pool, task.lm, task.tying, mode="hardware"
        )
        for utt in task.corpus.test[:4]:
            assert hw.decode(utt.features).words == ref.decode(utt.features).words

    def test_hardware_mode_accounting(self, task):
        rec = Recognizer.create(
            task.dictionary, task.pool, task.lm, task.tying,
            mode="hardware", num_unit_pairs=2,
        )
        result = rec.decode(task.corpus.test[0].features)
        assert result.op_unit_activities is not None
        assert len(result.op_unit_activities) == 2
        assert result.viterbi_activity is not None
        assert result.frame_critical_cycles is not None
        assert len(result.frame_critical_cycles) == result.frames
        assert result.op_unit_activities[0]["cycles_busy"] > 0

    def test_fast_mode_decodes(self, task):
        rec = Recognizer.create(
            task.dictionary, task.pool, task.lm, task.tying,
            mode="fast",
            fast_config=FastGmmConfig(cds_enabled=True, pde_enabled=True),
        )
        utt = task.corpus.test[0]
        result = rec.decode(utt.features)
        assert result.words == tuple(utt.words)

    def test_quantized_storage_decodes(self, task):
        rec = Recognizer.create(
            task.dictionary, task.pool, task.lm, task.tying,
            mode="reference", storage_format=MANTISSA_12,
        )
        utt = task.corpus.test[0]
        assert rec.decode(utt.features).words == tuple(utt.words)

    def test_unknown_mode_rejected(self, task):
        with pytest.raises(ValueError):
            Recognizer.create(
                task.dictionary, task.pool, task.lm, task.tying, mode="quantum"
            )

    def test_vocab_mismatch_rejected(self, task):
        other = Vocabulary(["zzz"])
        lm = NGramModel(other, order=1)
        lm.train([["zzz"]])
        with pytest.raises(ValueError):
            Recognizer.create(task.dictionary, task.pool, lm, task.tying)


class TestResultMetrics:
    def test_active_senone_fraction_below_half(self, task):
        """The paper's R2 claim holds even on the tiny task."""
        rec = Recognizer.create(
            task.dictionary, task.pool, task.lm, task.tying, mode="reference"
        )
        result = rec.decode(task.corpus.test[0].features)
        assert 0.0 < result.mean_active_senone_fraction < 0.5

    def test_audio_seconds(self, task):
        rec = Recognizer.create(
            task.dictionary, task.pool, task.lm, task.tying, mode="reference"
        )
        result = rec.decode(task.corpus.test[0].features)
        assert result.audio_seconds == pytest.approx(result.frames * 0.010)

    def test_feature_validation(self, task):
        rec = Recognizer.create(
            task.dictionary, task.pool, task.lm, task.tying, mode="reference"
        )
        with pytest.raises(ValueError):
            rec.decode(np.zeros((10, 7)))
        with pytest.raises(ValueError):
            rec.decode(np.zeros((0, 39)))

    def test_non_finite_features_rejected(self, task):
        """In hardware mode one such cell used to index the log-add
        table out of range mid-decode (IndexError from ``bank.step``)."""
        rec = Recognizer.create(
            task.dictionary, task.pool, task.lm, task.tying, mode="hardware"
        )
        utt = task.corpus.test[0]
        for bad in (np.nan, np.inf, -np.inf):
            feats = utt.features.copy()
            feats[10, 3] = bad
            with pytest.raises(ValueError, match="finite"):
                rec.decode(feats)
        assert rec.decode(utt.features).words == tuple(utt.words)

    def test_recognizer_reusable_across_utterances(self, task):
        rec = Recognizer.create(
            task.dictionary, task.pool, task.lm, task.tying, mode="reference"
        )
        first = rec.decode(task.corpus.test[0].features)
        second = rec.decode(task.corpus.test[0].features)
        assert first.words == second.words
        assert first.score == pytest.approx(second.score)


class TestInstruments:
    """Sequential results come out of the same bank as batched ones,
    so they carry the same instruments."""

    @pytest.mark.parametrize("network", ["flat", "tree"])
    @pytest.mark.parametrize("mode", ["reference", "hardware", "fast", "blas"])
    def test_decode_populates_telemetry(self, task, mode, network):
        kwargs = {"fast_config": FastGmmConfig.all_layers()} if mode == "fast" else {}
        rec = Recognizer.create(
            task.dictionary, task.pool, task.lm, task.tying,
            mode=mode, network=network, **kwargs,
        )
        result = rec.decode(task.corpus.test[0].features)
        tel = result.telemetry
        assert tel is not None
        assert tel.frames == result.frames
        assert tel.senones_scored == result.scoring_stats.senones_requested
        assert tel.active_states == sum(s.active_states for s in result.frame_stats)
        assert tel.word_exits == sum(s.word_exits for s in result.frame_stats)
        assert min(tel.stage_scoring_s, tel.stage_update_s, tel.stage_exit_s) > 0
        if mode == "fast":
            assert tel.fast_frames_skipped == result.fast_stats.frames_skipped
        if mode == "blas":
            assert tel.blas_dense_steps + tel.blas_gathered_steps == result.frames

    def test_telemetry_is_per_decode(self, task):
        rec = Recognizer.create(task.dictionary, task.pool, task.lm, task.tying)
        first = rec.decode(task.corpus.test[0].features)
        second = rec.decode(task.corpus.test[1].features)
        assert first.telemetry.frames == first.frames
        assert second.telemetry.frames == second.frames

    def test_lattice_outlives_the_decode(self, task):
        """``word_stage.lattice`` is still readable after ``decode``
        returned, though the bank has dropped its own reference."""
        rec = Recognizer.create(task.dictionary, task.pool, task.lm, task.tying)
        result = rec.decode(task.corpus.test[0].features)
        assert len(rec.word_stage.lattice) == result.lattice_size > 0
        assert rec.word_stage.frame_stats is result.frame_stats
        assert rec.word_stage.bank.lattices[0] is None


MODES = ["reference", "hardware", "fast", "blas"]
NETWORKS = ["flat", "tree"]


def _make(task, mode, network):
    kwargs = {"fast_config": FastGmmConfig.all_layers()} if mode == "fast" else {}
    return Recognizer.create(
        task.dictionary, task.pool, task.lm, task.tying,
        mode=mode, network=network, **kwargs,
    )


def _assert_same_decode(got, want, mode):
    """Bit-identical (blas: words identical, score within tolerance)."""
    assert got.words == want.words
    if mode == "blas":
        assert abs(got.score - want.score) <= BLAS_SCORE_ATOL
    else:
        assert got.score == want.score
    assert got.frames == want.frames
    assert [f.__dict__ for f in got.frame_stats] == [
        f.__dict__ for f in want.frame_stats
    ]
    assert got.fast_stats == want.fast_stats  # None outside fast mode


@pytest.mark.parametrize("network", NETWORKS)
@pytest.mark.parametrize("mode", MODES)
class TestOneRecognizer:
    """One class, three drivers, one scorer: the 1-lane stage behind
    ``decode`` and the wide banks behind ``decode_batch`` /
    ``decode_stream`` share the recognizer's scoring backend."""

    def test_interleaved_drivers_match_fresh_recognizers(self, task, mode, network):
        """Whatever ran before on the SAME object leaves no trace."""
        feats = [u.features for u in task.corpus.test[:4]]
        feats[1] = feats[1][:17]  # ragged: compaction and refill both happen
        want_one = _make(task, mode, network).decode(feats[0])
        want_batch = _make(task, mode, network).decode_batch(feats)
        want_stream = _make(task, mode, network).decode_stream(feats, max_lanes=2)

        rec = _make(task, mode, network)
        _assert_same_decode(rec.decode(feats[0]), want_one, mode)
        for got, want in zip(rec.decode_batch(feats), want_batch, strict=True):
            _assert_same_decode(got, want, mode)
        _assert_same_decode(rec.decode(feats[0]), want_one, mode)
        stream = rec.decode_stream(feats, max_lanes=2)
        assert stream.admit_steps == want_stream.admit_steps
        for got, want in zip(stream, want_stream, strict=True):
            _assert_same_decode(got, want, mode)
        _assert_same_decode(rec.decode(feats[0]), want_one, mode)

    def test_twin_decodes_beside_a_live_streaming_session(self, task, mode, network):
        """A recognizer runs one decode at a time; its twin runs a whole
        stream while the original is mid-utterance, and neither notices."""
        feats = [u.features for u in task.corpus.test[:3]]
        rec = _make(task, mode, network)
        twin = rec.twin()
        assert twin.scorer is not rec.scorer
        assert twin.network is rec.network and twin.pool is rec.pool
        if mode == "fast":
            assert twin.scorer.model is rec.scorer.model  # one VQ codebook

        def session(midway=None):
            streaming = StreamingRecognizer(rec)
            partials = []
            for t, frame in enumerate(feats[0]):
                if t == feats[0].shape[0] // 2 and midway is not None:
                    midway()
                event = streaming.feed(frame)
                partials.append(event.partial)
                if event.endpoint:
                    break
            return partials, streaming.finalize()

        alone_session = session()
        alone_stream = twin.decode_stream(feats, max_lanes=2)
        beside = []
        together_session = session(
            midway=lambda: beside.append(twin.decode_stream(feats, max_lanes=2))
        )
        assert together_session == alone_session  # partials, words, score, exits
        for got, want in zip(beside[0], alone_stream, strict=True):
            _assert_same_decode(got, want, "exact")  # same twin: blas too
