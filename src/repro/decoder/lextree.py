"""Tree-structured lexicon decoding (the Sphinx-3 "lextree").

The flat decoder (`repro.decoder.network`) gives every word its own
HMM chain; vocabularies share nothing and the state bank grows as
`words x phones x states`.  Production LVCSR decoders of the paper's
era instead arrange the lexicon as a **prefix tree**: words sharing an
initial phone sequence share those HMM states, shrinking the bank and
the active-state set — at the cost of applying the language model only
when a *leaf* (complete word) is reached, since a token inside a
shared prefix does not yet know which word it is.

Sharing granularity: two words share a node only when the node's full
triphone matches, i.e. nodes are keyed by (parent, base phone, right
context).  This keeps the acoustic scores identical to the flat
network's — the tree is a pure search-space reorganisation.

:class:`TreeLexiconNetwork` compiles the dictionary into dense arrays
(one predecessor per state, which
:func:`~repro.core.viterbi_unit.tree_update` gathers — the flat
network's compare and dead rule, not a copy of them);
:class:`repro.runtime.lextree.TreeLaneBank` runs token
passing over it (one lane under ``Recognizer.decode``, B lanes in the
batched runtimes), recording every lane's word exits in ONE pass per
step into the same columnar
:class:`~repro.decoder.lattice.WordLattice` the global best path
search consumes.  Differences from the flat network inherent to the
tree: word entries carry no LM mass (tokens in shared prefixes are
word-agnostic) — the LM row of the predecessor's history is added
when a leaf exits — and all roots receive the same entry score (the
best LM'd exit so far).  The leaf sees one word of history, so the
tree decodes with a bigram (or unigram) LM only: ``Recognizer``
rejects a trigram on ``network="tree"``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.decoder.word_decode import DecoderConfig
from repro.hmm.topology import HmmTopology
from repro.lexicon.dictionary import PronunciationDictionary
from repro.lexicon.phones import SILENCE
from repro.lexicon.triphone import SenoneTying

__all__ = ["TreeLexiconNetwork", "prime_tree_entry"]


def prime_tree_entry(config: DecoderConfig) -> tuple[float, int]:
    """Initial root-entry state of a tree decode.

    BOS context, no LM mass yet (the LM is applied at the leaf), so the
    entry score is just the word insertion penalty with no source exit.
    """
    return float(config.word_insertion_penalty), -1


@dataclass
class TreeLexiconNetwork:
    """Dense state bank of the lexicon prefix tree."""

    words: tuple[str, ...]
    senone_id: np.ndarray  # (K,)
    self_logp: np.ndarray  # (K,)
    pred_state: np.ndarray  # (K,) predecessor state, -1 at tree roots
    pred_logp: np.ndarray  # (K,) arc log-prob into each state
    is_root_start: np.ndarray  # (K,) bool: first state of a root node
    leaf_word: np.ndarray  # (K,) word index at a leaf's last state, else -1
    exit_logp: np.ndarray  # (K,) exit-arc log-prob at leaf last states
    num_senones: int
    silence_word: int = -1
    num_nodes: int = 0
    flat_states_equivalent: int = 0

    @property
    def num_states(self) -> int:
        return int(self.senone_id.shape[0])

    @property
    def num_words(self) -> int:
        return len(self.words)

    @property
    def has_silence(self) -> bool:
        return self.silence_word >= 0

    @property
    def is_silence_state(self) -> np.ndarray:
        """(K,) bool: states of the silence model (what the streaming
        endpointer watches).  Silence is a single root node, so its
        states are the ``states_per_hmm`` ending at the silence leaf."""
        mask = np.zeros(self.num_states, dtype=bool)
        if self.has_silence:
            leaf = int(np.flatnonzero(self.leaf_word == self.silence_word)[0])
            root = int(np.flatnonzero(self.is_root_start[: leaf + 1])[-1])
            mask[root : leaf + 1] = True
        return mask

    @property
    def sharing_factor(self) -> float:
        """Flat states / tree states — the compression the tree buys."""
        if self.num_states == 0:
            return 1.0
        return self.flat_states_equivalent / self.num_states

    def word_name(self, index: int) -> str:
        if index == self.silence_word:
            return "<sil>"
        return self.words[index]

    @classmethod
    def build(
        cls,
        dictionary: PronunciationDictionary,
        tying: SenoneTying,
        topology: HmmTopology | None = None,
        include_silence: bool = True,
    ) -> "TreeLexiconNetwork":
        """Compile the dictionary into the prefix tree."""
        topology = topology or HmmTopology(num_states=tying.states_per_hmm)
        if topology.num_states != tying.states_per_hmm:
            raise ValueError(
                f"topology has {topology.num_states} states but tying was "
                f"built for {tying.states_per_hmm}"
            )
        self_lp, fwd_lp = topology.chain_log_probs()
        states = tying.states_per_hmm
        words = dictionary.words()
        if not words:
            raise ValueError("dictionary is empty")

        # One row per tree node, in creation order: its parent node (-1
        # at a root), its triphone as phone indices, and the word whose
        # leaf it is (-1: none).  Node n owns states [n * S, (n + 1) * S).
        index = tying.phone_indices
        sil = index((SILENCE,))[0]
        parent: list[int] = []
        lefts: list[int] = []
        bases: list[int] = []
        rights: list[int] = []
        leaf: list[int] = []
        node_of: dict[tuple[int, int, int], int] = {}  # (parent, base, right)
        flat_equivalent = 0

        for w, word in enumerate(words):
            phones = index(dictionary.pronunciation(word))
            flat_equivalent += len(phones) * states
            node, left = -1, sil
            for i, base in enumerate(phones):
                right = phones[i + 1] if i + 1 < len(phones) else sil
                key = (node, base, right)
                child = node_of.get(key)
                if child is None:
                    child = node_of[key] = len(bases)
                    parent.append(node)
                    lefts.append(left)
                    bases.append(base)
                    rights.append(right)
                    leaf.append(-1)
                node, left = child, base
            if leaf[node] >= 0 and leaf[node] != w:
                raise ValueError(
                    f"homophone collision: {words[leaf[node]]!r} "
                    f"and {word!r} share a pronunciation"
                )
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

        # Every node's states in one pass: the first state follows its
        # parent's last, the others their own node's previous state.
        senone_id = tying.senone_table(bases, lefts, rights).ravel()
        k = senone_id.size
        parent_node = np.asarray(parent, dtype=np.int64)
        roots = parent_node < 0
        pred_state = np.arange(-1, k - 1).reshape(-1, states)
        pred_state[:, 0] = np.where(roots, -1, parent_node * states + states - 1)
        is_root = np.zeros((len(parent), states), dtype=bool)
        is_root[:, 0] = roots
        leaf_word = np.full((len(parent), states), -1, dtype=np.int64)
        leaf_word[:, -1] = leaf
        return cls(
            words=words,
            senone_id=senone_id,
            self_logp=np.full(k, self_lp, dtype=np.float32),
            pred_state=pred_state.ravel(),
            pred_logp=np.full(k, fwd_lp, dtype=np.float32),
            is_root_start=is_root.ravel(),
            leaf_word=leaf_word.ravel(),
            exit_logp=np.full(k, fwd_lp, dtype=np.float32),
            num_senones=tying.num_senones,
            silence_word=silence_word,
            num_nodes=len(parent),
            flat_states_equivalent=flat_equivalent,
        )
