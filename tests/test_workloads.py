"""Tests for repro.workloads — synthesizer, wordgen, corpus."""

import numpy as np
import pytest

from repro.lexicon.g2p import spelling_to_phones
from repro.lexicon.phones import default_phone_set
from repro.workloads.corpus import CorpusConfig, build_corpus, monophone_hmms
from repro.workloads.synthesizer import PhoneSynthesizer, SynthesisConfig
from repro.workloads.wordgen import generate_words
from repro.lexicon.triphone import SenoneTying


class TestSynthesizer:
    def test_phone_duration(self):
        synth = PhoneSynthesizer()
        rng = np.random.default_rng(0)
        wav = synth.synthesize_phone("AA", 0.1, rng)
        assert wav.size == int(0.1 * synth.config.sample_rate)

    def test_silence_is_quiet(self):
        synth = PhoneSynthesizer()
        rng = np.random.default_rng(0)
        sil = synth.synthesize_phone("SIL", 0.1, rng)
        aa = synth.synthesize_phone("AA", 0.1, rng)
        assert np.abs(sil).max() < 0.05 * np.abs(aa).max()

    def test_signal_bounded(self):
        synth = PhoneSynthesizer()
        rng = np.random.default_rng(1)
        for phone in ("AA", "S", "K", "M"):
            wav = synth.synthesize_phone(phone, 0.1, rng)
            assert np.abs(wav).max() <= 1.0

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            PhoneSynthesizer().synthesize_phone("AA", 0.0, np.random.default_rng(0))

    def test_phone_string_concatenates(self):
        synth = PhoneSynthesizer()
        rng = np.random.default_rng(2)
        wav = synth.synthesize_phone_string(["K", "AE", "T"], rng)
        min_samples = 3 * synth.config.min_phone_s * synth.config.sample_rate
        assert wav.size >= min_samples

    def test_empty_phone_string_rejected(self):
        with pytest.raises(ValueError):
            PhoneSynthesizer().synthesize_phone_string([], np.random.default_rng(0))

    def test_sentence_has_edge_silence(self):
        cfg = SynthesisConfig(inter_word_pause_prob=0.0)
        synth = PhoneSynthesizer(config=cfg)
        rng = np.random.default_rng(3)
        wav = synth.synthesize_sentence([("K", "AE", "T")], rng)
        edge = int(cfg.edge_silence_s * cfg.sample_rate)
        assert np.abs(wav[: edge // 2]).max() < 0.05

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthesisConfig(sample_rate=0)
        with pytest.raises(ValueError):
            SynthesisConfig(min_phone_s=0.2, max_phone_s=0.1)
        with pytest.raises(ValueError):
            SynthesisConfig(inter_word_pause_prob=1.5)


class TestWordGen:
    def test_exact_count_distinct(self):
        words = generate_words(200, seed=1)
        assert len(words) == 200
        assert len({tuple(p) for p in words.values()}) == 200

    def test_deterministic(self):
        assert generate_words(50, seed=3) == generate_words(50, seed=3)

    def test_spellings_parse_back(self):
        words = generate_words(100, seed=2)
        for spelling, phones in words.items():
            assert spelling_to_phones(spelling) == phones

    def test_no_silence_phones(self):
        ps = default_phone_set()
        for phones in generate_words(100, seed=4).values():
            for p in phones:
                assert not ps.phone(p).is_silence

    def test_syllable_range_controls_length(self):
        short = generate_words(100, seed=5, min_syllables=1, max_syllables=1)
        long = generate_words(100, seed=5, min_syllables=3, max_syllables=5)
        mean_short = np.mean([len(p) for p in short.values()])
        mean_long = np.mean([len(p) for p in long.values()])
        assert mean_long > 2 * mean_short

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            generate_words(0)
        with pytest.raises(ValueError):
            generate_words(10, min_syllables=3, max_syllables=2)


class TestCorpus:
    @pytest.fixture(scope="class")
    def corpus(self):
        return build_corpus(
            CorpusConfig(
                vocabulary_size=12,
                train_sentences=10,
                test_sentences=4,
                min_sentence_words=1,
                max_sentence_words=3,
                seed=11,
            )
        )

    def test_sizes(self, corpus):
        assert len(corpus.dictionary) == 12
        assert len(corpus.train) == 10
        assert len(corpus.test) == 4

    def test_utterance_structure(self, corpus):
        utt = corpus.train[0]
        assert utt.features.shape[1] == 39
        assert utt.phones[0] == "SIL" and utt.phones[-1] == "SIL"
        assert utt.num_frames > len(utt.phones)  # alignable

    def test_transcript_phones_match_words(self, corpus):
        utt = corpus.train[0]
        non_sil = [p for p in utt.phones if p != "SIL"]
        expected = []
        for word in utt.words:
            expected.extend(corpus.dictionary.pronunciation(word))
        assert non_sil == expected

    def test_lm_trained_on_vocab(self, corpus):
        assert corpus.lm.vocabulary.size == 12
        assert corpus.lm.perplexity([corpus.train[0].words]) > 1.0

    def test_transcripts_helper(self, corpus):
        tying = SenoneTying(
            phone_set=corpus.phone_set, num_senones=51 * 3, states_per_hmm=3
        )
        hmms = monophone_hmms(corpus.phone_set, tying)
        transcripts = corpus.transcripts(hmms, subset="train")
        assert len(transcripts) == 10
        assert transcripts[0][0].name == "SIL"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CorpusConfig(vocabulary_size=1)
        with pytest.raises(ValueError):
            CorpusConfig(min_sentence_words=5, max_sentence_words=2)
