"""Tests for repro.decoder.lextree — the prefix-tree network, and tree
decoding through ``Recognizer(network="tree").word_stage``."""

import numpy as np
import pytest

from repro.decoder.best_path import find_best_path
from repro.decoder.lextree import TreeLexiconNetwork
from repro.decoder.network import FlatLexiconNetwork
from repro.decoder.recognizer import Recognizer
from repro.hmm.topology import HmmTopology
from repro.lexicon.dictionary import PronunciationDictionary
from repro.lexicon.phones import SILENCE
from repro.lexicon.triphone import SenoneTying, Triphone
from repro.workloads.wordgen import generate_words


@pytest.fixture()
def shared_dictionary():
    """Words engineered to share prefixes: kae-t, kae-n, kae-t-s, dig."""
    d = PronunciationDictionary()
    d.add("kaet", ("K", "AE", "T"))
    d.add("kaen", ("K", "AE", "N"))
    d.add("kaets", ("K", "AE", "T", "S"))
    d.add("dig", ("D", "IH", "G"))
    return d


@pytest.fixture()
def tying():
    return SenoneTying(num_senones=6000)


class TestBuild:
    def test_prefix_sharing(self, shared_dictionary, tying):
        tree = TreeLexiconNetwork.build(
            shared_dictionary, tying, include_silence=False
        )
        flat = FlatLexiconNetwork.build(
            shared_dictionary, tying, include_silence=False
        )
        assert tree.num_states < flat.num_states
        assert tree.sharing_factor > 1.0
        # "kaet" and "kaets" share K and AE+T-context nodes; "kaen"
        # shares only K (its AE has right-context N).
        assert tree.flat_states_equivalent == flat.num_states

    def test_each_word_has_exactly_one_leaf(self, shared_dictionary, tying):
        tree = TreeLexiconNetwork.build(shared_dictionary, tying)
        leaves = tree.leaf_word[tree.leaf_word >= 0]
        expected = tree.num_words + 1  # + silence
        assert len(leaves) == expected
        assert len(set(leaves.tolist())) == expected

    def test_in_degree_one(self, shared_dictionary, tying):
        """Every state has exactly one predecessor (or none at roots)."""
        tree = TreeLexiconNetwork.build(shared_dictionary, tying)
        roots = np.flatnonzero(tree.pred_state < 0)
        assert np.array_equal(roots, np.flatnonzero(tree.is_root_start))
        valid = tree.pred_state[tree.pred_state >= 0]
        assert valid.max() < tree.num_states

    def test_senones_match_flat_network(self, shared_dictionary, tying):
        """The tree is a reorganisation: same triphone senones."""
        tree = TreeLexiconNetwork.build(shared_dictionary, tying, include_silence=False)
        flat = FlatLexiconNetwork.build(shared_dictionary, tying, include_silence=False)
        assert set(tree.senone_id.tolist()) == set(flat.senone_id.tolist())

    def test_homophones_rejected(self, tying):
        d = PronunciationDictionary()
        d.add("ab", ("AA", "B"))
        d.add("aab", ("AA", "B"))  # same phones, different spelling
        with pytest.raises(ValueError):
            TreeLexiconNetwork.build(d, tying)

    def test_empty_dictionary_rejected(self, tying):
        with pytest.raises(ValueError):
            TreeLexiconNetwork.build(PronunciationDictionary(), tying)

    def test_topology_mismatch_rejected(self, shared_dictionary):
        tying5 = SenoneTying(num_senones=6000, states_per_hmm=5)
        with pytest.raises(ValueError):
            TreeLexiconNetwork.build(
                shared_dictionary, tying5, HmmTopology(num_states=3)
            )

    def test_word_names(self, shared_dictionary, tying):
        tree = TreeLexiconNetwork.build(shared_dictionary, tying)
        assert tree.word_name(0) == tree.words[0]
        assert tree.word_name(tree.silence_word) == "<sil>"


class TestTreeSenoneIds:
    """The build ties every node's states in one array pass; each state
    must hold what ``SenoneTying.senone`` gives its triphone and state,
    found here by walking every word's leaf back to its root."""

    @pytest.mark.parametrize("num_words", [600, 5000])
    @pytest.mark.parametrize("num_senones", [6000, 1000, 51 * 3],
                             ids=["cd6000", "cd1000", "zero_cd"])
    def test_every_state_matches_per_state_tying(self, num_words, num_senones):
        dictionary = PronunciationDictionary.from_pronunciations(
            generate_words(num_words, seed=31)
        )
        tying = SenoneTying(num_senones=num_senones)
        tree = TreeLexiconNetwork.build(dictionary, tying)
        states = tying.states_per_hmm
        ids = tree.senone_id.tolist()
        pred = tree.pred_state.tolist()
        checked = np.zeros(tree.num_states, dtype=bool)
        for leaf in np.flatnonzero(tree.leaf_word >= 0).tolist():
            w = int(tree.leaf_word[leaf])
            phones = ((SILENCE,) if w == tree.silence_word
                      else dictionary.pronunciation(tree.words[w]))
            last = leaf
            for i in range(len(phones) - 1, -1, -1):
                tri = Triphone(
                    base=phones[i],
                    left=phones[i - 1] if i else SILENCE,
                    right=phones[i + 1] if i + 1 < len(phones) else SILENCE,
                )
                for state in range(states - 1, -1, -1):
                    if not checked[last]:
                        assert ids[last] == tying.senone(tri, state)
                        checked[last] = True
                    last = pred[last]
            assert last == -1  # the walk ended at a root
        assert checked.all()
        assert tree.has_silence


class TestSilenceMask:
    def test_silence_states_match_the_flat_network(self, shared_dictionary, tying):
        tree = TreeLexiconNetwork.build(shared_dictionary, tying)
        flat = FlatLexiconNetwork.build(shared_dictionary, tying)
        assert tree.is_silence_state.sum() == tying.states_per_hmm
        assert np.array_equal(
            tree.senone_id[tree.is_silence_state],
            flat.senone_id[flat.is_silence_state],
        )
        assert tree.leaf_word[np.flatnonzero(tree.is_silence_state)[-1]] == (
            tree.silence_word
        )

    def test_no_silence_word_no_silence_states(self, shared_dictionary, tying):
        for cls in (TreeLexiconNetwork, FlatLexiconNetwork):
            net = cls.build(shared_dictionary, tying, include_silence=False)
            assert not net.is_silence_state.any()


def _tree_recognizer(task, **kwargs):
    return Recognizer.create(
        task.dictionary, task.pool, task.lm, task.tying, task.topology,
        network="tree", **kwargs,
    )


class TestDecoding:
    def _decode(self, task, stage, features):
        stage.reset()
        for frame in features:
            stage.process_frame(frame)
        return find_best_path(
            stage.lattice,
            task.lm,
            stage.bank.net,
            stage.frames_processed - 1,
            lm_scale=stage.bank.cfg.lm_scale,
        )

    def test_matches_flat_decoder_words(self, task):
        """Tree and flat decoders agree on the tiny test set."""
        stage = _tree_recognizer(task).word_stage
        flat_rec = Recognizer.create(
            task.dictionary, task.pool, task.lm, task.tying, mode="reference"
        )
        for utt in task.corpus.test[:5]:
            tree_best = self._decode(task, stage, utt.features)
            flat_words = flat_rec.decode(utt.features).words
            assert tree_best is not None
            assert tree_best.words == flat_words

    def test_fewer_active_states_than_flat(self, task):
        stage = _tree_recognizer(task).word_stage
        flat_rec = Recognizer.create(
            task.dictionary, task.pool, task.lm, task.tying, mode="reference"
        )
        utt = task.corpus.test[0]
        self._decode(task, stage, utt.features)
        tree_active = np.mean([s.active_states for s in stage.frame_stats])
        flat_result = flat_rec.decode(utt.features)
        assert tree_active <= flat_result.mean_active_states

    def test_entry_frames_tracked_through_tree(self, task):
        stage = _tree_recognizer(task).word_stage
        utt = task.corpus.test[0]
        best = self._decode(task, stage, utt.features)
        assert best is not None
        # Exits must be time-ordered and non-overlapping.
        words = [e for e in best.exits]
        for a, b in zip(words, words[1:]):
            assert a.exit_frame < b.exit_frame
            assert b.entry_frame > a.entry_frame

    def test_viterbi_unit_activity_counted(self, task):
        rec = _tree_recognizer(task, mode="hardware")
        utt = task.corpus.test[0]
        self._decode(task, rec.word_stage, utt.features)
        assert rec.viterbi_unit.transitions_processed > 0
        assert rec.viterbi_unit.cycles_busy > 0

    def test_lm_vocab_mismatch_rejected(self, task):
        from repro.lm.ngram import NGramModel
        from repro.lm.vocabulary import Vocabulary

        tree = TreeLexiconNetwork.build(task.dictionary, task.tying, task.topology)
        other = Vocabulary(["zzz"])
        lm = NGramModel(other, order=1)
        lm.train([["zzz"]])
        with pytest.raises(ValueError):
            Recognizer(tree, task.pool, lm)
