"""Global best path search over the word lattice (Figure 1).

"The global best path search iterates over the word lattice and
combines the language model to produce the utterance."

Because the word decode stage applies LM mass at word *entry*, every
lattice exit already scores a complete LM-weighted path prefix; this
stage adds the end-of-sentence LM term, selects the best final exit,
and walks the predecessor chain back to ``<s>``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.decoder.lattice import WordExit, WordLattice
from repro.decoder.network import FlatLexiconNetwork
from repro.decoder.word_decode import lm_history_of
from repro.lm.ngram import NGramModel

__all__ = ["BestPath", "find_best_path"]


@dataclass(frozen=True)
class BestPath:
    """A decoded utterance hypothesis."""

    words: tuple[str, ...]
    score: float
    exits: tuple[WordExit, ...]

    @property
    def num_words(self) -> int:
        return len(self.words)


def find_best_path(
    lattice: WordLattice,
    lm: NGramModel,
    network: FlatLexiconNetwork,
    final_frame: int,
    lm_scale: float = 1.0,
) -> BestPath | None:
    """The single best utterance, or None for an empty lattice.

    The candidates are the exits on the final frame or, if the beam
    starved it, on the most recent frame that produced any; the first
    of equal final scores wins.
    """
    frame = lattice.last_frame_with_exits(final_frame)
    if frame is None:
        return None
    candidates = lattice.indices_at(frame)
    scores = [
        lattice.score[index]
        + lm_scale * lm.eos_log_prob(lm_history_of(lattice, network, lm, index))
        for index in candidates
    ]
    best = max(range(len(candidates)), key=scores.__getitem__)
    chain = lattice.backtrace(candidates[best])
    words = tuple(
        network.word_name(e.word) for e in chain if e.word != network.silence_word
    )
    return BestPath(words=words, score=scores[best], exits=tuple(chain))
