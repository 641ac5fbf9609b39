"""Global best path search over the word lattice (Figure 1).

"The global best path search iterates over the word lattice and
combines the language model to produce the utterance."

Because the word decode stage applies LM mass at word *entry*, every
lattice exit already scores a complete LM-weighted path prefix; this
stage adds the end-of-sentence LM term, selects the best final exit,
and walks the predecessor chain back to ``<s>``.  It also produces an
n-best list over distinct final exits, which the evaluation uses for
oracle analyses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.decoder.lattice import WordExit, WordLattice
from repro.decoder.network import FlatLexiconNetwork
from repro.decoder.word_decode import lm_history_of
from repro.lm.ngram import NGramModel

__all__ = ["BestPath", "find_best_path", "n_best_paths"]


@dataclass(frozen=True)
class BestPath:
    """A decoded utterance hypothesis."""

    words: tuple[str, ...]
    score: float
    exits: tuple[WordExit, ...]

    @property
    def num_words(self) -> int:
        return len(self.words)


def _final_candidates(lattice: WordLattice, final_frame: int) -> list[int]:
    """Dense indices of the exits eligible to end the utterance.

    Prefer exits on the final frame; if the beam starved it, fall back
    to the most recent frame that produced any.
    """
    frame = lattice.last_frame_with_exits(final_frame)
    if frame is None:
        return []
    return lattice.indices_at(frame)


def _final_scores(
    candidates: list[int],
    lattice: WordLattice,
    network: FlatLexiconNetwork,
    lm: NGramModel,
    lm_scale: float,
) -> list[float]:
    """Each candidate's path score with the ``</s>`` term added."""
    scores = lattice.score
    return [
        scores[index]
        + lm_scale * lm.eos_log_prob(lm_history_of(lattice, network, lm, index))
        for index in candidates
    ]


def _path_from_exit(
    index: int,
    lattice: WordLattice,
    network: FlatLexiconNetwork,
    final_score: float,
) -> BestPath:
    chain = lattice.backtrace(index)
    words = tuple(
        network.word_name(e.word) for e in chain if e.word != network.silence_word
    )
    return BestPath(words=words, score=final_score, exits=tuple(chain))


def find_best_path(
    lattice: WordLattice,
    lm: NGramModel,
    network: FlatLexiconNetwork,
    final_frame: int,
    lm_scale: float = 1.0,
) -> BestPath | None:
    """The single best utterance, or None for an empty lattice."""
    candidates = _final_candidates(lattice, final_frame)
    if not candidates:
        return None
    scores = _final_scores(candidates, lattice, network, lm, lm_scale)
    best = max(range(len(candidates)), key=scores.__getitem__)
    return _path_from_exit(candidates[best], lattice, network, scores[best])


def n_best_paths(
    lattice: WordLattice,
    lm: NGramModel,
    network: FlatLexiconNetwork,
    final_frame: int,
    n: int = 5,
    lm_scale: float = 1.0,
) -> list[BestPath]:
    """Up to ``n`` hypotheses from distinct final exits, best first."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    candidates = _final_candidates(lattice, final_frame)
    scores = _final_scores(candidates, lattice, network, lm, lm_scale)
    scored = sorted(zip(scores, candidates), key=lambda pair: -pair[0])
    return [
        _path_from_exit(index, lattice, network, score)
        for score, index in scored[:n]
    ]
