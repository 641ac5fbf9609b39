"""Tests for repro.decoder.lextree — the prefix-tree network, and tree
decoding through ``Recognizer(network="tree").word_stage``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.logadd import LOG_ZERO
from repro.decoder.best_path import find_best_path
from repro.decoder.fast_gmm import FastGmmConfig
from repro.decoder.lextree import TreeLexiconNetwork
from repro.decoder.network import FlatLexiconNetwork
from repro.decoder.recognizer import Recognizer
from repro.hmm.topology import HmmTopology
from repro.lexicon.dictionary import PronunciationDictionary
from repro.lexicon.phones import SILENCE, default_phone_set
from repro.lexicon.triphone import SenoneTying, Triphone
from repro.workloads.wordgen import generate_words


def _triphone_tree(dictionary, tying, topology=None, include_silence=True):
    """The tree keyed by triphone NODE, ``(parent, base, right)``, each
    node owning ``states_per_hmm`` consecutive states — the build before
    states were shared, kept here as the oracle of the shared one."""
    topology = topology or HmmTopology(num_states=tying.states_per_hmm)
    self_lp, fwd_lp = topology.chain_log_probs()
    states = tying.states_per_hmm
    words = dictionary.words()
    index = tying.phone_indices
    sil = index((SILENCE,))[0]
    parent, lefts, bases, rights, leaf = [], [], [], [], []
    node_of = {}
    flat_equivalent = 0
    for w, word in enumerate(words):
        phones = index(dictionary.pronunciation(word))
        flat_equivalent += len(phones) * states
        node, left = -1, sil
        for i, base in enumerate(phones):
            right = phones[i + 1] if i + 1 < len(phones) else sil
            child = node_of.get((node, base, right))
            if child is None:
                child = node_of[(node, base, right)] = len(bases)
                parent.append(node)
                lefts.append(left)
                bases.append(base)
                rights.append(right)
                leaf.append(-1)
            node, left = child, base
        leaf[node] = w
    silence_word = -1
    if include_silence:
        silence_word = len(words)
        flat_equivalent += states
        parent.append(-1)
        lefts.append(sil)
        bases.append(sil)
        rights.append(sil)
        leaf.append(silence_word)
    senone_id = tying.senone_table(bases, lefts, rights).ravel()
    k = senone_id.size
    parent_node = np.asarray(parent, dtype=np.int64)
    roots = parent_node < 0
    pred_state = np.arange(-1, k - 1).reshape(-1, states)
    pred_state[:, 0] = np.where(roots, -1, parent_node * states + states - 1)
    leaf_word = np.full((len(parent), states), -1, dtype=np.int64)
    leaf_word[:, -1] = leaf
    return TreeLexiconNetwork(
        words=words,
        senone_id=senone_id,
        self_logp=np.full(k, self_lp, dtype=np.float32),
        pred_state=pred_state.ravel(),
        pred_logp=np.full(k, fwd_lp, dtype=np.float32),
        is_root_start=pred_state.ravel() < 0,
        leaf_word=leaf_word.ravel(),
        exit_logp=np.full(k, fwd_lp, dtype=np.float32),
        num_senones=tying.num_senones,
        silence_word=silence_word,
        flat_states_equivalent=flat_equivalent,
    )


def _state_map(oracle, tree):
    """Oracle state -> shared state, found by walking every word's leaf
    back to its root in both trees side by side (each oracle state must
    meet ONE shared state, with the same senone and arcs)."""
    mapping = np.full(oracle.num_states, -1)
    leaf_of = {int(tree.leaf_word[s]): s for s in np.flatnonzero(tree.leaf_word >= 0)}
    for a in np.flatnonzero(oracle.leaf_word >= 0).tolist():
        b = leaf_of.pop(int(oracle.leaf_word[a]))
        while a >= 0:
            assert b >= 0
            assert mapping[a] in (-1, b)
            mapping[a] = b
            a, b = oracle.pred_state[a], tree.pred_state[b]
        assert b == -1
    assert not leaf_of
    for name in ("senone_id", "self_logp", "pred_logp", "is_root_start"):
        assert np.array_equal(getattr(oracle, name), getattr(tree, name)[mapping])
    return mapping


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


def _assert_walks_yield_triphones(tree, dictionary, tying):
    """Each state holds what ``SenoneTying.senone`` gives its triphone
    and state, found by walking every word's leaf back to its root."""
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


def _assert_merges_the_oracle(tree, oracle):
    """``tree`` is ``oracle`` with its copies merged: one state per
    (predecessor, senone, arcs), leaves kept apart, each shared state
    numbered by its first copy.  Returns the oracle -> tree map."""
    mapping = _state_map(oracle, tree)
    first = np.full(tree.num_states, oracle.num_states)
    np.minimum.at(first, mapping, np.arange(oracle.num_states))
    assert (first < oracle.num_states).all()
    assert (np.diff(first) > 0).all()
    leaves = oracle.leaf_word >= 0
    assert np.array_equal(tree.leaf_word[mapping], oracle.leaf_word)
    assert (np.bincount(mapping[leaves], minlength=tree.num_states) <= 1).all()
    assert np.array_equal(tree.exit_logp[mapping][leaves], oracle.exit_logp[leaves])
    assert np.array_equal(tree.is_silence_state[mapping], oracle.is_silence_state)
    inner = tree.leaf_word < 0
    keys = set(zip(
        tree.pred_state[inner].tolist(), tree.senone_id[inner].tolist(),
        tree.self_logp[inner].tolist(), tree.pred_logp[inner].tolist(),
    ))
    assert len(keys) == np.count_nonzero(inner)
    assert tree.flat_states_equivalent == oracle.flat_states_equivalent
    return mapping


_WORD_PHONES = [p.name for p in default_phone_set() if p.name != SILENCE]
#: Zero-CD (every senone CI), 1000 and 6000 senones.
_TYINGS = {
    n: SenoneTying(num_senones=n) for n in (len(default_phone_set()) * 3, 1000, 6000)
}


@st.composite
def _dictionaries(draw):
    """Up to 30 words over 2..6 phones, so prefixes, right contexts and
    tied senones collide often."""
    alphabet = draw(
        st.lists(st.sampled_from(_WORD_PHONES), min_size=2, max_size=6, unique=True)
    )
    prons = draw(st.lists(
        st.lists(st.sampled_from(alphabet), min_size=1, max_size=5).map(tuple),
        min_size=1, max_size=30, unique=True,
    ))
    dictionary = PronunciationDictionary()
    for i, phones in enumerate(prons):
        dictionary.add(f"w{i}", phones)
    return dictionary


class TestSharedStates:
    """The build shares states, not triphone nodes: it must equal the
    triphone-keyed tree with every copy merged into its first."""

    @settings(max_examples=80, deadline=None)
    @given(
        dictionary=_dictionaries(),
        num_senones=st.sampled_from(sorted(_TYINGS)),
        include_silence=st.booleans(),
    )
    def test_random_dictionaries(self, dictionary, num_senones, include_silence):
        tying = _TYINGS[num_senones]
        tree = TreeLexiconNetwork.build(
            dictionary, tying, include_silence=include_silence
        )
        oracle = _triphone_tree(dictionary, tying, include_silence=include_silence)
        _assert_merges_the_oracle(tree, oracle)
        leaves = tree.leaf_word[tree.leaf_word >= 0]
        assert leaves.tolist() == list(range(tree.num_words + tree.has_silence))
        _assert_walks_yield_triphones(tree, dictionary, tying)

    def test_tied_contexts_share_the_phone(self):
        """Without context-dependent senones "kaet" and "kaen" share
        K AND AE (the triphone tree keeps two AE nodes, right contexts
        T and N) and part at their last phone."""
        d = PronunciationDictionary()
        d.add("kaet", ("K", "AE", "T"))
        d.add("kaen", ("K", "AE", "N"))
        tying = _TYINGS[len(default_phone_set()) * 3]
        tree = TreeLexiconNetwork.build(d, tying, include_silence=False)
        oracle = _triphone_tree(d, tying, include_silence=False)
        _assert_merges_the_oracle(tree, oracle)
        assert (tree.num_states, oracle.num_states) == (4 * 3, 5 * 3)
        assert tree.pred_state[9] == tree.pred_state[6] == 5


class TestTreeSenoneIds:
    """The build ties every word's states in one array pass; each state
    must hold what ``SenoneTying.senone`` gives its triphone and state,
    and the tree must be the triphone-keyed one with its copies merged."""

    @pytest.mark.parametrize("num_words", [600, 5000])
    @pytest.mark.parametrize("num_senones", [6000, 1000, 51 * 3],
                             ids=["cd6000", "cd1000", "zero_cd"])
    def test_every_state_matches_per_state_tying(self, num_words, num_senones):
        dictionary = PronunciationDictionary.from_pronunciations(
            generate_words(num_words, seed=31)
        )
        tying = SenoneTying(num_senones=num_senones)
        tree = TreeLexiconNetwork.build(dictionary, tying)
        _assert_walks_yield_triphones(tree, dictionary, tying)
        assert tree.has_silence
        oracle = _triphone_tree(dictionary, tying)
        _assert_merges_the_oracle(tree, oracle)
        # Sharing by state merges the roots whose first senones are tied.
        assert tree.is_root_start.sum() < oracle.is_root_start.sum()


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


def _traced_decode(rec, features):
    """``rec.decode`` with every frame's live states copied out: the
    result, the lattice columns and, per frame, the live states with
    their scores and token records."""
    stage = rec.word_stage
    step, frames = stage.process_frame, []

    def traced(frame):
        stats = step(frame)
        bank = stage.bank
        live = np.flatnonzero(stage.delta > LOG_ZERO / 2)
        frames.append((live, stage.delta[live], bank.payload[0][live],
                       bank.entry_frame[0][live]))
        return stats

    stage.process_frame = traced
    try:
        result = rec.decode(features)
    finally:
        del stage.process_frame
    lattice = stage.lattice
    columns = {
        name: list(getattr(lattice, name))
        for name in ("word", "entry_frame", "exit_frame", "predecessor",
                     "score", "lm_history")
    }
    return result, columns, frames


class TestTriphoneOracleDecodes:
    """Decodes over the shared tree equal decodes over the triphone-keyed
    oracle (passed to ``Recognizer(network=...)``) on the tree fixtures'
    tasks: the same words, score bits, lattice, demand and exits, and
    every oracle copy carrying its shared state's token at every frame."""

    @pytest.fixture(
        scope="class",
        params=[("dictation", "reference"), ("dictation", "hardware"),
                ("dictation", "fast"), ("dictation_cd", "fast")],
        ids=lambda p: "-".join(p),
    )
    def decodes(self, request, dictation_task, golden_recipe):
        family, mode = request.param
        task = dictation_task
        if family == "dictation_cd":
            task = golden_recipe.make_dictation_cd_task(dictation_task)
        rec = golden_recipe.make_tree_recognizer(task, mode)
        oracle = Recognizer(
            _triphone_tree(task.dictionary, task.tying), task.pool, task.lm,
            mode=mode, tying=task.tying,
            fast_model=rec.scorer.model if mode == "fast" else None,
        )
        mapping = _assert_merges_the_oracle(rec.network, oracle.network)
        feats = [task.corpus.test[i].features
                 for i in golden_recipe.DICTATION_INDICES]
        return mapping, rec, oracle, [
            (_traced_decode(rec, f), _traced_decode(oracle, f)) for f in feats
        ]

    def test_results_and_lattices_are_identical(self, decodes):
        _, rec, oracle, pairs = decodes
        for (got, got_lattice, _), (want, want_lattice, _) in pairs:
            assert got.words == want.words
            assert got.score.hex() == want.score.hex()
            assert got.lattice_size == want.lattice_size
            assert got_lattice == want_lattice
            for key in ("requested_senones", "word_exits"):
                assert [getattr(f, key) for f in got.frame_stats] == [
                    getattr(f, key) for f in want.frame_stats
                ]
            assert got.fast_stats == want.fast_stats
            assert got.frame_critical_cycles == want.frame_critical_cycles
            if got.viterbi_activity is not None:
                # The unit streams the whole bank: 2 arcs per state.
                for result, net in ((got, rec.network), (want, oracle.network)):
                    assert result.viterbi_activity["transitions"] == (
                        result.frames * 2 * net.num_states
                    )

    def test_every_copy_carries_its_shared_token(self, decodes):
        """Live shared states are exactly the images of live oracle
        slots, active_states counts them, and every copy holds the
        shared state's score and record."""
        mapping = decodes[0]
        for (got, _, got_frames), (_, _, want_frames) in decodes[3]:
            for stats, (live, delta, payload, entry), (o_live, *o_token) in zip(
                got.frame_stats, got_frames, want_frames
            ):
                assert np.array_equal(np.unique(mapping[o_live]), live)
                assert stats.active_states == live.size
                assert np.array_equal(
                    np.flatnonzero(np.isin(mapping, live)), o_live
                )
                at = np.searchsorted(live, mapping[o_live])
                for shared, copies in zip((delta, payload, entry), o_token):
                    assert np.array_equal(shared[at], copies)
