"""The flat lexicon decoding network.

The word decode stage "combines the triphones based on high
probability values and valid triphone combination according to the
words in the dictionary" (Section III-C).  We realise the search space
the way Sphinx-3's flat decoder does: every vocabulary word becomes a
chain of triphone HMM states laid out in one dense array bank, so the
per-frame Viterbi update vectorises across the entire vocabulary and
maps 1:1 onto the Viterbi unit's chain recurrence
(:func:`repro.core.viterbi_unit.chain_update`).

Array layout (K = total states over all words):

* ``senone_id[K]``   — senone scoring each state (via the tying),
* ``self_logp[K]``, ``fwd_logp[K]`` — chain transition constants,
* ``word_of_state[K]`` — owning word index,
* ``is_start[K]``    — chain-start mask,
* ``start_state[V]``, ``end_state[V]`` — per-word entry/exit states.

Word index ``V`` (one past the vocabulary) is the optional *silence
word*: a single SIL HMM that may appear between words and is
transparent to the language model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.lexicon.dictionary import PronunciationDictionary
from repro.lexicon.phones import SILENCE
from repro.lexicon.triphone import SenoneTying, Triphone, word_to_triphones
from repro.hmm.topology import HmmTopology

__all__ = ["FlatLexiconNetwork"]


@dataclass
class FlatLexiconNetwork:
    """Dense state bank for a vocabulary (see module docstring)."""

    words: tuple[str, ...]
    senone_id: np.ndarray
    self_logp: np.ndarray
    fwd_logp: np.ndarray
    word_of_state: np.ndarray
    is_start: np.ndarray
    start_state: np.ndarray
    end_state: np.ndarray
    num_senones: int
    silence_word: int = -1  # index in `words`-space; -1 when absent
    phones_per_word: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        k = self.senone_id.shape[0]
        for name in ("self_logp", "fwd_logp", "word_of_state", "is_start"):
            arr = getattr(self, name)
            if arr.shape != (k,):
                raise ValueError(f"{name} shape {arr.shape} != ({k},)")
        v = len(self.words) + (1 if self.silence_word >= 0 else 0)
        if self.start_state.shape != (v,) or self.end_state.shape != (v,):
            raise ValueError("start/end state tables must cover every word")
        if self.senone_id.size and int(self.senone_id.max()) >= self.num_senones:
            raise ValueError("network references senone >= num_senones")

    @property
    def num_states(self) -> int:
        return int(self.senone_id.shape[0])

    @property
    def num_words(self) -> int:
        """Vocabulary words (the silence word, if any, excluded)."""
        return len(self.words)

    @property
    def has_silence(self) -> bool:
        return self.silence_word >= 0

    @property
    def is_silence_state(self) -> np.ndarray:
        """(K,) bool: states of the silence model (what the streaming
        endpointer watches); all False without a silence word."""
        return self.word_of_state == self.silence_word

    def word_name(self, index: int) -> str:
        if index == self.silence_word:
            return "<sil>"
        return self.words[index]

    def states_of_word(self, index: int) -> np.ndarray:
        """All state indices belonging to one word, in chain order."""
        return np.arange(self.start_state[index], self.end_state[index] + 1)

    @classmethod
    def build(
        cls,
        dictionary: PronunciationDictionary,
        tying: SenoneTying,
        topology: HmmTopology | None = None,
        include_silence: bool = True,
    ) -> "FlatLexiconNetwork":
        """Compile a dictionary into the dense state bank.

        Word-internal triphones take their true left/right contexts;
        word-edge triphones use silence context (cross-word triphones
        are approximated, as in Sphinx-3's flat decoder).
        """
        topology = topology or HmmTopology(num_states=tying.states_per_hmm)
        if topology.num_states != tying.states_per_hmm:
            raise ValueError(
                f"topology has {topology.num_states} states but tying was built "
                f"for {tying.states_per_hmm}"
            )
        self_lp, fwd_lp = topology.chain_log_probs()
        words = dictionary.words()
        if not words:
            raise ValueError("dictionary is empty")
        # One row per phone of every word, in order; silence is one
        # more (CI) triphone.  Their states' senone IDs are one pass.
        triphones: list[Triphone] = []
        phone_counts: list[int] = []
        phones_per_word: dict[str, int] = {}
        for word in words:
            phones = dictionary.pronunciation(word)
            phones_per_word[word] = len(phones)
            phone_counts.append(len(phones))
            triphones.extend(word_to_triphones(phones))
        silence_word = -1
        if include_silence:
            silence_word = len(words)
            phone_counts.append(1)
            triphones.append(Triphone(base=SILENCE, left=SILENCE, right=SILENCE))
        index = tying.phone_indices
        senone_id = tying.senone_table(
            index(t.base for t in triphones),
            index(t.left for t in triphones),
            index(t.right for t in triphones),
        ).ravel()
        k = senone_id.size
        state_counts = np.asarray(phone_counts, dtype=np.int64) * tying.states_per_hmm
        end_state = np.cumsum(state_counts) - 1
        start_state = end_state - state_counts + 1
        is_start = np.zeros(k, dtype=bool)
        is_start[start_state] = True
        return cls(
            words=words,
            senone_id=senone_id,
            self_logp=np.full(k, self_lp, dtype=np.float32),
            fwd_logp=np.full(k, fwd_lp, dtype=np.float32),
            word_of_state=np.repeat(np.arange(len(state_counts)), state_counts),
            is_start=is_start,
            start_state=start_state,
            end_state=end_state,
            num_senones=tying.num_senones,
            silence_word=silence_word,
            phones_per_word=phones_per_word,
        )
