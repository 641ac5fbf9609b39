"""Token passing mechanics, through ``Recognizer(...).word_stage`` — the
frame-at-a-time view of the 1-lane bank."""

import numpy as np
import pytest

from repro.decoder.beam import BeamConfig
from repro.decoder.network import FlatLexiconNetwork
from repro.decoder.recognizer import Recognizer
from repro.decoder.word_decode import DecoderConfig
from repro.hmm.senone import SenonePool
from repro.lexicon.dictionary import PronunciationDictionary
from repro.lexicon.triphone import SenoneTying
from repro.lm.ngram import NGramModel
from repro.lm.vocabulary import Vocabulary


@pytest.fixture()
def micro_world():
    """Two acoustically trivial words over a planted senone pool."""
    tying = SenoneTying(num_senones=51 * 3, states_per_hmm=3)  # CI only
    d = PronunciationDictionary()
    d.add("kaet", ("K", "AE", "T"))
    d.add("dig", ("D", "IH", "G"))
    rng = np.random.default_rng(0)
    dim = 8
    # Plant each senone's mean at a distinct corner so frames sampled
    # from a senone's mean are decisively scored.
    pool = SenonePool.random(tying.num_senones, 2, dim, rng=rng, spread=4.0)
    vocab = Vocabulary(list(d.words()))
    lm = NGramModel(vocab, order=2)
    lm.train([["kaet", "dig"], ["dig", "kaet"], ["kaet"], ["dig"]])
    network = FlatLexiconNetwork.build(d, tying)
    return d, tying, pool, lm, network


def _stage(network, pool, lm, config=None):
    return Recognizer(network, pool, lm, config=config).word_stage


def _frames_for_word(network, pool, word_index, frames_per_state=3):
    """Feature frames tracing one word's states through their means."""
    frames = []
    for state in network.states_of_word(word_index):
        senone = network.senone_id[state]
        mean = pool.means[senone, 0]
        for _ in range(frames_per_state):
            frames.append(mean)
    return np.asarray(frames)


class TestDecodeMechanics:
    def test_decodes_planted_word(self, micro_world):
        d, tying, pool, lm, network = micro_world
        config = DecoderConfig(silence_penalty=-200.0)  # keep sil out
        stage = _stage(network, pool, lm, config)
        word = network.words.index("kaet")
        for frame in _frames_for_word(network, pool, word):
            stage.process_frame(frame)
        exits = stage.lattice.exits_at(stage.frames_processed - 1)
        assert exits, "the planted word must exit on the final frame"
        best = max(exits, key=lambda e: e.score)
        assert best.word == word

    def test_entry_frame_tracks_token(self, micro_world):
        d, tying, pool, lm, network = micro_world
        stage = _stage(network, pool, lm)
        word = network.words.index("dig")
        for frame in _frames_for_word(network, pool, word):
            stage.process_frame(frame)
        exits = stage.lattice.exits_at(stage.frames_processed - 1)
        best = max(exits, key=lambda e: e.score)
        assert best.entry_frame == 0

    def test_frame_stats_recorded(self, micro_world):
        d, tying, pool, lm, network = micro_world
        stage = _stage(network, pool, lm)
        word = network.words.index("kaet")
        frames = _frames_for_word(network, pool, word)
        for frame in frames:
            stage.process_frame(frame)
        assert len(stage.frame_stats) == len(frames)
        assert all(s.requested_senones > 0 for s in stage.frame_stats)

    def test_feedback_requests_fewer_senones_than_budget(self, micro_world):
        d, tying, pool, lm, network = micro_world
        stage = _stage(
            network, pool, lm,
            DecoderConfig(beam=BeamConfig(state_beam=30.0, word_beam=30.0)),
        )
        word = network.words.index("kaet")
        for frame in _frames_for_word(network, pool, word):
            stage.process_frame(frame)
        # With a tight beam, requested senones shrink after frame 0.
        later = [s.requested_senones for s in stage.frame_stats[2:]]
        assert max(later) < tying.num_senones

    def test_no_feedback_scores_everything(self, micro_world):
        d, tying, pool, lm, network = micro_world
        stage = _stage(network, pool, lm, DecoderConfig(use_feedback=False))
        word = network.words.index("kaet")
        stage.process_frame(_frames_for_word(network, pool, word)[0])
        assert stage.frame_stats[0].requested_senones == tying.num_senones

    def test_reset_clears_state(self, micro_world):
        d, tying, pool, lm, network = micro_world
        stage = _stage(network, pool, lm)
        word = network.words.index("kaet")
        for frame in _frames_for_word(network, pool, word):
            stage.process_frame(frame)
        stage.reset()
        assert stage.frames_processed == 0
        assert len(stage.lattice) == 0
        assert not stage.frame_stats

    def test_vocab_mismatch_rejected(self, micro_world):
        d, tying, pool, lm, network = micro_world
        other_vocab = Vocabulary(["one", "two", "three"])
        other_lm = NGramModel(other_vocab, order=1)
        other_lm.train([["one"]])
        with pytest.raises(ValueError):
            _stage(network, pool, other_lm)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DecoderConfig(lm_scale=0.0)
        with pytest.raises(ValueError):
            DecoderConfig(max_exits_per_frame=0)
        # The exit cap is a count: a float one would fail inside
        # select_word_exits and a NaN one never applies.
        for bad in (2.5, float("nan"), float("inf"), True):
            with pytest.raises(ValueError, match="max_exits_per_frame must be an integer"):
                DecoderConfig(max_exits_per_frame=bad)
        assert DecoderConfig(max_exits_per_frame=np.int32(3)).max_exits_per_frame == 3


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "field",
    ["state_beam", "word_beam", "lm_scale", "word_insertion_penalty", "silence_penalty"],
)
def test_non_finite_search_thresholds_are_refused(field, value):
    """A NaN beam decoded nothing and a NaN LM weight scored the path
    NaN, both silently: every float threshold must be finite."""
    with pytest.raises(ValueError, match=f"{field} must be"):
        if field.endswith("_beam"):
            BeamConfig(**{field: value})
        else:
            DecoderConfig(**{field: value})


class TestSilenceTransparency:
    def test_silence_exit_inherits_lm_history(self, micro_world):
        d, tying, pool, lm, network = micro_world
        config = DecoderConfig(silence_penalty=0.0)
        stage = _stage(network, pool, lm, config)
        word = network.words.index("kaet")
        frames = list(_frames_for_word(network, pool, word))
        # Append silence frames after the word.
        sil_state = network.states_of_word(network.silence_word)
        for state in sil_state:
            mean = pool.means[network.senone_id[state], 0]
            frames.extend([mean, mean])
        for frame in frames:
            stage.process_frame(frame)
        sil_exits = [
            e
            for t in range(stage.frames_processed)
            for e in stage.lattice.exits_at(t)
            if e.word == network.silence_word
        ]
        assert sil_exits
        # The silence exit's LM history is the preceding word.
        inherited = {e.lm_history for e in sil_exits if e.predecessor >= 0}
        assert word in inherited


class TestTwoWordSequence:
    def test_decodes_word_pair(self, micro_world):
        d, tying, pool, lm, network = micro_world
        config = DecoderConfig(silence_penalty=-200.0)
        stage = _stage(network, pool, lm, config)
        first = network.words.index("kaet")
        second = network.words.index("dig")
        frames = np.vstack(
            [_frames_for_word(network, pool, first), _frames_for_word(network, pool, second)]
        )
        for frame in frames:
            stage.process_frame(frame)
        exits = stage.lattice.exits_at(stage.frames_processed - 1)
        best = max(exits, key=lambda e: e.score)
        chain = stage.lattice.backtrace(best.index)
        words = [e.word for e in chain if e.word != network.silence_word]
        assert words == [first, second]
