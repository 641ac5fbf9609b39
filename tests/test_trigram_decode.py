"""Trigram decoding: two-word LM histories through the decoder."""

import numpy as np
import pytest

from repro.decoder.recognizer import Recognizer
from repro.decoder.word_decode import lm_history_of
from repro.eval.wer import corpus_wer
from repro.lm.ngram import NGramModel


@pytest.fixture(scope="module")
def trigram_lm(task):
    lm = NGramModel(task.corpus.vocabulary, order=3)
    lm.train([utt.words for utt in task.corpus.train])
    return lm


class TestTrigramDecoding:
    def test_decodes_test_set(self, task, trigram_lm):
        rec = Recognizer.create(
            task.dictionary, task.pool, trigram_lm, task.tying, mode="reference"
        )
        refs, hyps = [], []
        for utt in task.corpus.test:
            refs.append(utt.words)
            hyps.append(rec.decode(utt.features).words)
        assert corpus_wer(refs, hyps).wer < 0.10

    def test_no_worse_than_bigram(self, task, trigram_lm):
        tri = Recognizer.create(
            task.dictionary, task.pool, trigram_lm, task.tying, mode="reference"
        )
        bi = Recognizer.create(
            task.dictionary, task.pool, task.lm, task.tying, mode="reference"
        )
        refs, tri_hyps, bi_hyps = [], [], []
        for utt in task.corpus.test:
            refs.append(utt.words)
            tri_hyps.append(tri.decode(utt.features).words)
            bi_hyps.append(bi.decode(utt.features).words)
        assert corpus_wer(refs, tri_hyps).wer <= corpus_wer(refs, bi_hyps).wer + 0.05

    def test_history_walk_skips_silence(self, task, trigram_lm):
        """Exit histories expose real words even across silence."""
        rec = Recognizer.create(
            task.dictionary, task.pool, trigram_lm, task.tying, mode="reference"
        )
        utt = task.corpus.test[1]
        result = rec.decode(utt.features)
        assert result.words == tuple(utt.words)
        lattice = rec.word_stage.lattice
        # Walk every recorded exit: its LM history must never contain
        # a silence index and must have order-1 entries at most.
        net = rec.network
        for i in range(len(lattice)):
            history = lm_history_of(lattice, net, trigram_lm, i)
            assert 1 <= len(history) <= 2
            for h in history:
                assert h != net.silence_word or h >= net.num_words

    def test_hardware_mode_with_trigram(self, task, trigram_lm):
        rec = Recognizer.create(
            task.dictionary, task.pool, trigram_lm, task.tying, mode="hardware"
        )
        utt = task.corpus.test[0]
        assert rec.decode(utt.features).words == tuple(utt.words)
