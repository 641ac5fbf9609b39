"""Tree-structured lexicon decoding (the Sphinx-3 "lextree").

The flat decoder (`repro.decoder.network`) gives every word its own
HMM chain; vocabularies share nothing and the state bank grows as
`words x phones x states`.  Production LVCSR decoders of the paper's
era instead arrange the lexicon as a **prefix tree**: words sharing an
initial phone sequence share those HMM states, shrinking the bank and
the active-state set — at the cost of applying the language model only
when a *leaf* (complete word) is reached, since a token inside a
shared prefix does not yet know which word it is.

Sharing granularity: the tree is built over HMM *states*, not
triphone nodes.  Two words share a state when they reach it through
the same (shared) predecessor with the same senone and the same self
and entry arcs; word ends (leaves) are never shared, and a shared
state's children are the union of its copies'.  Every state still
scores the senone of its word's triphone, so the acoustic scores equal
the flat network's — the tree is a pure search-space reorganisation.
Keyed by triphone, (parent, base phone, right context), the tree would
keep apart states whose tied senones coincide: on the ``bank_tree``
workload's 600-word CD tree, 380 root nodes carry 85 distinct first
senones, and a word entry would be offered to all 380.  Merging such
copies is exact: they start at ``LOG_ZERO`` with a ``-1`` token record
and see the same entry offer, the same predecessor token and the same
observation score, so their scores and records are equal at every
frame, and every other state reads the same value as before.  States
are numbered by (first word through them, depth) — a shared state
takes the rank its first copy had in the triphone-keyed tree — so the
leaves stay in word order (the exit pass, the tie order of
:func:`~repro.decoder.beam.select_word_exits` and the lattice indices
do not move) and silence stays last and contiguous.  Decodes are
bit-identical to the triphone-keyed tree's (``tests/test_lextree.py``
holds them to it) in all but what counts states: the active states
per frame, the hardware unit's per-state charge and, through
``BeamConfig.max_active_states`` (a cap on shared states), a capped
decode.

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
    """Dense state bank of the lexicon prefix tree: an in-degree-1
    forest over HMM states, shared by (predecessor, senone, arcs)."""

    words: tuple[str, ...]
    senone_id: np.ndarray  # (K,)
    self_logp: np.ndarray  # (K,)
    pred_state: np.ndarray  # (K,) predecessor state, -1 at tree roots
    pred_logp: np.ndarray  # (K,) arc log-prob into each state
    is_root_start: np.ndarray  # (K,) bool: a root (no predecessor)
    leaf_word: np.ndarray  # (K,) word index at a leaf's last state, else -1
    exit_logp: np.ndarray  # (K,) exit-arc log-prob at leaf last states
    num_senones: int
    silence_word: int = -1
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
        endpointer watches).  Silence is built last and never shared, so
        its states are the ``states_per_hmm`` ending at the silence leaf."""
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
        """Compile the dictionary into the prefix tree of shared states."""
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

        # Every word's triphones in one tying pass: word w's path from
        # root to leaf is senones[start[w] : start[w] + n[w]].
        index = tying.phone_indices
        sil = index((SILENCE,))[0]
        prons = [index(dictionary.pronunciation(word)) for word in words]
        first_of: dict[tuple[int, ...], int] = {}
        for w, phones in enumerate(prons):
            other = first_of.setdefault(tuple(phones), w)
            if other != w:
                raise ValueError(
                    f"homophone collision: {words[other]!r} "
                    f"and {words[w]!r} share a pronunciation"
                )
        lengths = np.fromiter(map(len, prons), dtype=np.int64, count=len(prons))
        base = np.fromiter(
            (p for phones in prons for p in phones), dtype=np.int64,
            count=int(lengths.sum()),
        )
        word_end = np.cumsum(lengths) - 1
        left = np.roll(base, 1)
        left[word_end - lengths + 1] = sil
        right = np.roll(base, -1)
        right[word_end] = sil
        senones = tying.senone_table(base, left, right).ravel()
        n = lengths * states
        start = np.cumsum(n) - n

        # One np.unique per depth: a word's state at depth d is the
        # class of (its state at depth d - 1, its senone), except its
        # leaf, which is its own.  The arcs need no key: every state of
        # this build carries the topology's two chain constants.  Each
        # class keeps its first word (np.unique's first index, words
        # being ascending), predecessor, senone and whether it is a leaf.
        word_ids = np.arange(len(words))
        prev = np.full(len(words), -1, dtype=np.int64)
        first_word, pred, senone, is_leaf, depth = [], [], [], [], []
        count = 0
        for d in range(int(n.max())):
            here = word_ids[n > d]
            sen = senones[start[here] + d]
            before = prev[here]
            at_leaf = n[here] == d + 1
            inner = np.flatnonzero(~at_leaf)
            _, first, group = np.unique(
                before[inner] * tying.num_senones + sen[inner],
                return_index=True, return_inverse=True,
            )
            prev[here[inner]] = count + group
            pick = np.concatenate((inner[first], np.flatnonzero(at_leaf)))
            first_word.append(here[pick])
            pred.append(before[pick])
            senone.append(sen[pick])
            is_leaf.append(at_leaf[pick])
            depth.append(np.full(pick.size, d))
            count += pick.size

        # Number the states by (first word, depth): a shared state takes
        # the rank its first copy had in the triphone-keyed tree, so the
        # leaves stay in word order.  Silence follows, last and whole.
        first_word = np.concatenate(first_word)
        order = np.lexsort((np.concatenate(depth), first_word))
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        pred = np.concatenate(pred)[order]
        pred_state = np.where(pred >= 0, rank[np.maximum(pred, 0)], -1)
        leaf_word = np.where(np.concatenate(is_leaf), first_word, -1)[order]
        senone_id = np.concatenate(senone)[order]
        flat_equivalent = int(n.sum())
        silence_word = -1
        if include_silence:
            silence_word = len(words)
            flat_equivalent += states
            k = senone_id.size
            senone_id = np.concatenate(
                (senone_id, tying.senone_table([sil], [sil], [sil]).ravel())
            )
            pred_state = np.concatenate((pred_state, [-1], np.arange(k, k + states - 1)))
            leaf_word = np.concatenate(
                (leaf_word, np.full(states - 1, -1), [silence_word])
            )
        k = senone_id.size
        return cls(
            words=words,
            senone_id=senone_id,
            self_logp=np.full(k, self_lp, dtype=np.float32),
            pred_state=pred_state,
            pred_logp=np.full(k, fwd_lp, dtype=np.float32),
            is_root_start=pred_state < 0,
            leaf_word=leaf_word,
            exit_logp=np.full(k, fwd_lp, dtype=np.float32),
            num_senones=tying.num_senones,
            silence_word=silence_word,
            flat_states_equivalent=flat_equivalent,
        )
