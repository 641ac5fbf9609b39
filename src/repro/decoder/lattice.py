"""Word lattice: the exit records the word decode stage emits.

"The word decode generates a lattice of probable words spoken.  The
global best path search iterates over the word lattice and combines
the language model to produce the utterance."  (Section III-C)

Every time a word's final HMM state scores above the word beam, the
stage records an exit: which word, when its token entered, which
earlier exit it continued from, its path score, and the LM history it
exposes (silence is transparent — it forwards its predecessor's
history).  The :class:`WordLattice` is the container the global best
path search consumes; it also reports the paper-relevant statistics
(entries per frame, lattice size).

The lattice is stored as COLUMNS — one plain list per field, the exit's
dense index the position in each — plus an index from exit frame to the
exits recorded at it.  A bank appends one lane-frame's exits with ONE
:meth:`WordLattice.extend`, which validates the whole batch, and the
hot readers (the word-entry kernels, the LM-history walk, the best path
search) read the columns by index.  :meth:`WordLattice.exit`,
:meth:`~WordLattice.exits_at` and :meth:`~WordLattice.backtrace` still
hand out :class:`WordExit` records for everything else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["WordExit", "WordLattice"]


@dataclass(frozen=True)
class WordExit:
    """One word-lattice entry."""

    index: int  # dense ID within the lattice
    word: int  # network word index (silence = network.silence_word)
    entry_frame: int  # frame the token entered the word
    exit_frame: int  # frame the exit was recorded
    predecessor: int  # index of the preceding WordExit, -1 for BOS
    score: float  # accumulated path log-score at exit
    lm_history: int  # vocabulary word ID exposed to the LM (-1 = BOS)


class WordLattice:
    """Append-only columnar store of word exits.

    ``word``, ``entry_frame``, ``exit_frame``, ``predecessor``,
    ``score`` and ``lm_history`` are the columns (read them, never
    write them: :meth:`extend` is the one writer).
    """

    def __init__(self) -> None:
        self.word: list[int] = []
        self.entry_frame: list[int] = []
        self.exit_frame: list[int] = []
        self.predecessor: list[int] = []
        self.score: list[float] = []
        self.lm_history: list[int] = []
        self._by_frame: dict[int, list[int]] = {}

    def __len__(self) -> int:
        return len(self.word)

    def extend(
        self,
        exit_frame: int,
        words: list[int],
        entry_frames: list[int],
        predecessors: list[int],
        scores: list[float],
        lm_histories: list[int],
    ) -> int:
        """Append a batch of exits recorded at ``exit_frame``.

        The five lists are the batch's columns: the strict walk below
        raises ``ValueError`` for columns of unequal length.  Every
        predecessor must already be in the lattice (``-1`` is BOS) and
        every entry frame in ``[0, exit_frame]``; the batch is checked
        as a whole before anything is stored.  Returns the dense index
        of the first new exit (the rest follow in order).
        """
        first = len(self.word)
        count = len(words)
        for predecessor, entry_frame, _, _, _ in zip(
            predecessors, entry_frames, words, scores, lm_histories, strict=True
        ):
            if not -1 <= predecessor < first:
                raise ValueError(
                    f"predecessor {predecessor} not in [-1, {first}) "
                    f"(lattice size {first})"
                )
            if not 0 <= entry_frame <= exit_frame:
                raise ValueError(
                    f"entry_frame {entry_frame} not in [0, exit_frame {exit_frame}]"
                )
        if not count:
            return first
        self.word += words
        self.entry_frame += entry_frames
        self.exit_frame += [exit_frame] * count
        self.predecessor += predecessors
        self.score += scores
        self.lm_history += lm_histories
        at_frame = self._by_frame.get(exit_frame)
        if at_frame is None:
            at_frame = self._by_frame[exit_frame] = []
        at_frame += range(first, first + count)
        return first

    def add(
        self,
        word: int,
        entry_frame: int,
        exit_frame: int,
        predecessor: int,
        score: float,
        lm_history: int,
    ) -> int:
        """Append one exit; returns its dense index."""
        return self.extend(
            exit_frame, [word], [entry_frame], [predecessor], [score], [lm_history]
        )

    def exit(self, index: int) -> WordExit:
        if not 0 <= index < len(self.word):
            raise IndexError(f"exit {index} out of range [0, {len(self.word)})")
        return WordExit(
            index=index,
            word=self.word[index],
            entry_frame=self.entry_frame[index],
            exit_frame=self.exit_frame[index],
            predecessor=self.predecessor[index],
            score=self.score[index],
            lm_history=self.lm_history[index],
        )

    def indices_at(self, frame: int) -> list[int]:
        """Dense indices of the exits recorded at ``frame``, in order."""
        return self._by_frame.get(frame, [])

    def exits_at(self, frame: int) -> list[WordExit]:
        return [self.exit(i) for i in self.indices_at(frame)]

    def last_frame_with_exits(self, at_or_before: int) -> int | None:
        frames = [f for f in self._by_frame if f <= at_or_before]
        return max(frames) if frames else None

    def backtrace(self, index: int) -> list[WordExit]:
        """The exit chain ending at ``index``, in time order (empty for
        BOS, ``-1``)."""
        chain: list[WordExit] = []
        while index >= 0:
            chain.append(self.exit(index))
            index = self.predecessor[index]
        chain.reverse()
        return chain

    def entries_per_frame(self) -> dict[int, int]:
        """Lattice growth statistics (word-decode workload measure)."""
        return {frame: len(ids) for frame, ids in sorted(self._by_frame.items())}

    def mean_entries_per_frame(self) -> float:
        if not self._by_frame:
            return 0.0
        counts = [len(ids) for ids in self._by_frame.values()]
        return float(np.mean(counts))
