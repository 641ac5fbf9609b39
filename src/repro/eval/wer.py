"""Word error rate via Levenshtein alignment.

WER = (substitutions + deletions + insertions) / reference length —
the metric behind the paper's "word error rate for the Wall Street
Journal 5000 is less than 10%" claim (Section IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ErrorCounts", "align_words", "corpus_wer"]


@dataclass(frozen=True)
class ErrorCounts:
    """Outcome of aligning one hypothesis against one reference."""

    substitutions: int
    deletions: int
    insertions: int
    reference_length: int

    @property
    def errors(self) -> int:
        return self.substitutions + self.deletions + self.insertions

    @property
    def wer(self) -> float:
        if self.reference_length == 0:
            return 0.0 if self.errors == 0 else float("inf")
        return self.errors / self.reference_length

    def __add__(self, other: "ErrorCounts") -> "ErrorCounts":
        return ErrorCounts(
            substitutions=self.substitutions + other.substitutions,
            deletions=self.deletions + other.deletions,
            insertions=self.insertions + other.insertions,
            reference_length=self.reference_length + other.reference_length,
        )


def align_words(
    reference: list[str] | tuple[str, ...],
    hypothesis: list[str] | tuple[str, ...],
) -> ErrorCounts:
    """Minimum-edit-distance alignment (sub/del/ins all cost 1)."""
    ref = list(reference)
    hyp = list(hypothesis)
    n, m = len(ref), len(hyp)
    # dp[i][j] = (cost, subs, dels, ins) for ref[:i] vs hyp[:j].
    cost = np.zeros((n + 1, m + 1), dtype=np.int64)
    cost[:, 0] = np.arange(n + 1)
    cost[0, :] = np.arange(m + 1)
    op = np.zeros((n + 1, m + 1), dtype=np.int8)  # 0 match,1 sub,2 del,3 ins
    op[1:, 0] = 2
    op[0, 1:] = 3
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if ref[i - 1] == hyp[j - 1]:
                cost[i, j] = cost[i - 1, j - 1]
                op[i, j] = 0
            else:
                sub = cost[i - 1, j - 1] + 1
                dele = cost[i - 1, j] + 1
                ins = cost[i, j - 1] + 1
                best = min(sub, dele, ins)
                cost[i, j] = best
                op[i, j] = 1 if best == sub else (2 if best == dele else 3)
    subs = dels = ins = 0
    i, j = n, m
    while i > 0 or j > 0:
        code = op[i, j]
        if code == 0:
            i, j = i - 1, j - 1
        elif code == 1:
            subs += 1
            i, j = i - 1, j - 1
        elif code == 2:
            dels += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return ErrorCounts(
        substitutions=subs, deletions=dels, insertions=ins, reference_length=n
    )


def corpus_wer(
    references: list[list[str]],
    hypotheses: list[list[str] | tuple[str, ...]],
) -> ErrorCounts:
    """Pooled error counts over a test set (standard corpus WER)."""
    if len(references) != len(hypotheses):
        raise ValueError(
            f"{len(references)} references vs {len(hypotheses)} hypotheses"
        )
    total = ErrorCounts(0, 0, 0, 0)
    for ref, hyp in zip(references, hypotheses):
        total = total + align_words(ref, list(hyp))
    return total
