"""Tests for repro.decoder.best_path."""

import pytest

from repro.decoder.best_path import find_best_path
from repro.decoder.lattice import WordLattice
from repro.decoder.network import FlatLexiconNetwork
from repro.lexicon.dictionary import PronunciationDictionary
from repro.lexicon.triphone import SenoneTying
from repro.lm.ngram import NGramModel
from repro.lm.vocabulary import Vocabulary


@pytest.fixture()
def world():
    d = PronunciationDictionary()
    d.add("kaet", ("K", "AE", "T"))
    d.add("dig", ("D", "IH", "G"))
    tying = SenoneTying(num_senones=51 * 3)
    network = FlatLexiconNetwork.build(d, tying)
    vocab = Vocabulary(list(d.words()))
    lm = NGramModel(vocab, order=2)
    lm.train([["kaet", "dig"], ["dig"], ["kaet"]])
    return network, lm


class TestFindBestPath:
    def test_empty_lattice(self, world):
        network, lm = world
        assert find_best_path(WordLattice(), lm, network, 10) is None

    def test_single_exit(self, world):
        network, lm = world
        lat = WordLattice()
        kaet = network.words.index("kaet")
        lat.add(word=kaet, entry_frame=0, exit_frame=9, predecessor=-1,
                score=-40.0, lm_history=kaet)
        best = find_best_path(lat, lm, network, 9)
        assert best is not None
        assert best.words == ("kaet",)
        assert best.score < -40.0  # eos term is negative

    def test_prefers_higher_scoring_final_exit(self, world):
        network, lm = world
        lat = WordLattice()
        kaet = network.words.index("kaet")
        dig = network.words.index("dig")
        lat.add(word=kaet, entry_frame=0, exit_frame=9, predecessor=-1,
                score=-40.0, lm_history=kaet)
        lat.add(word=dig, entry_frame=0, exit_frame=9, predecessor=-1,
                score=-90.0, lm_history=dig)
        best = find_best_path(lat, lm, network, 9)
        assert best.words == ("kaet",)

    def test_falls_back_to_earlier_frame(self, world):
        network, lm = world
        lat = WordLattice()
        kaet = network.words.index("kaet")
        lat.add(word=kaet, entry_frame=0, exit_frame=5, predecessor=-1,
                score=-40.0, lm_history=kaet)
        best = find_best_path(lat, lm, network, final_frame=30)
        assert best is not None and best.words == ("kaet",)

    def test_silence_filtered_from_words(self, world):
        network, lm = world
        lat = WordLattice()
        kaet = network.words.index("kaet")
        first = lat.add(word=kaet, entry_frame=0, exit_frame=5, predecessor=-1,
                        score=-40.0, lm_history=kaet)
        lat.add(word=network.silence_word, entry_frame=6, exit_frame=9,
                predecessor=first, score=-50.0, lm_history=kaet)
        best = find_best_path(lat, lm, network, 9)
        assert best.words == ("kaet",)
        assert len(best.exits) == 2

    def test_multi_word_backtrace(self, world):
        network, lm = world
        lat = WordLattice()
        kaet = network.words.index("kaet")
        dig = network.words.index("dig")
        first = lat.add(word=kaet, entry_frame=0, exit_frame=5, predecessor=-1,
                        score=-40.0, lm_history=kaet)
        lat.add(word=dig, entry_frame=6, exit_frame=12, predecessor=first,
                score=-80.0, lm_history=dig)
        best = find_best_path(lat, lm, network, 12)
        assert best.words == ("kaet", "dig")

    @pytest.mark.parametrize("alone_first", [True, False])
    def test_equal_final_scores_first_exit_wins(self, world, alone_first):
        network, lm = world
        kaet = network.words.index("kaet")
        dig = network.words.index("dig")
        lat = WordLattice()
        first_dig = lat.add(word=dig, entry_frame=0, exit_frame=4,
                            predecessor=-1, score=-20.0, lm_history=dig)
        # Same word, score and LM history on the final frame: only the
        # recording order tells the two final exits apart.
        predecessors = (-1, first_dig) if alone_first else (first_dig, -1)
        for predecessor in predecessors:
            lat.add(word=kaet, entry_frame=0 if predecessor < 0 else 5,
                    exit_frame=9, predecessor=predecessor, score=-40.0,
                    lm_history=kaet)
        best = find_best_path(lat, lm, network, 9)
        assert best.words == (("kaet",) if alone_first else ("dig", "kaet"))

    def test_eos_term_reverses_raw_order(self, world):
        network, _ = world
        lm, lat, (raw_kaet, raw_dig), (eos_kaet, eos_dig) = _eos_reversal(network)
        assert raw_kaet > raw_dig
        assert raw_kaet + eos_kaet < raw_dig + eos_dig
        best = find_best_path(lat, lm, network, 9)
        assert best.words == ("dig",)
        assert best.score == raw_dig + eos_dig

    @pytest.mark.parametrize("lm_scale", [0.0, 2.0])
    def test_lm_scale_weights_eos_term(self, world, lm_scale):
        network, _ = world
        lm, lat, (raw_kaet, raw_dig), (_, eos_dig) = _eos_reversal(network)
        best = find_best_path(lat, lm, network, 9, lm_scale=lm_scale)
        if lm_scale == 0.0:
            # No </s> term: the raw scores alone decide.
            assert best.words == ("kaet",)
            assert best.score == raw_kaet
        else:
            assert best.words == ("dig",)
            assert best.score == raw_dig + lm_scale * eos_dig

    def test_exits_after_final_frame_ignored(self, world):
        network, lm = world
        lat = WordLattice()
        kaet = network.words.index("kaet")
        dig = network.words.index("dig")
        lat.add(word=kaet, entry_frame=0, exit_frame=5, predecessor=-1,
                score=-60.0, lm_history=kaet)
        lat.add(word=dig, entry_frame=0, exit_frame=12, predecessor=-1,
                score=-10.0, lm_history=dig)
        best = find_best_path(lat, lm, network, 9)
        assert best.words == ("kaet",)
        assert best.exits[-1].exit_frame == 5

    def test_only_later_exits_is_none(self, world):
        network, lm = world
        lat = WordLattice()
        kaet = network.words.index("kaet")
        lat.add(word=kaet, entry_frame=0, exit_frame=12, predecessor=-1,
                score=-40.0, lm_history=kaet)
        assert find_best_path(lat, lm, network, 9) is None


def _eos_reversal(network):
    """Two final exits whose raw order the ``</s>`` term reverses.

    Returns the LM, the lattice, the raw scores and the ``</s>`` log
    probabilities, each as a ``(kaet, dig)`` pair.
    """
    vocab = Vocabulary(["kaet", "dig"])
    # Hand-set bigram: "kaet" is always followed by "dig", and only
    # "dig" ever ends a sentence.
    lm = NGramModel(vocab, order=2)
    lm.train([["kaet", "dig"]])
    kaet, dig = vocab.word_id("kaet"), vocab.word_id("dig")
    eos_kaet, eos_dig = lm.eos_log_prob((kaet,)), lm.eos_log_prob((dig,))
    raw_kaet, raw_dig = -40.0, -40.0 - (eos_dig - eos_kaet) / 2
    lat = WordLattice()
    lat.add(word=network.words.index("kaet"), entry_frame=0, exit_frame=9,
            predecessor=-1, score=raw_kaet, lm_history=kaet)
    lat.add(word=network.words.index("dig"), entry_frame=0, exit_frame=9,
            predecessor=-1, score=raw_dig, lm_history=dig)
    return lm, lat, (raw_kaet, raw_dig), (eos_kaet, eos_dig)
