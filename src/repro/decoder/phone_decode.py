"""The phone decode stage (Figure 1).

"These acoustic vectors then go through the phone decode stage, where
the observation probability is evaluated and senone scores are
obtained and thereby lattice of phones/triphones are generated
depending on the feasible senone permutation."

Per frame the stage evaluates exactly the senones the word decode
stage requested ("Phones for evaluation" — the feedback arrow in
Figure 1); with ``DecoderConfig.use_feedback`` off the word decode
stage requests *every* senone each frame — the configuration the
paper's worst-case bandwidth number assumes, and the ablation baseline
for experiment R2.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PhoneDecodeStage"]


class PhoneDecodeStage:
    """The scorer of a sequential decode's 1-lane bank.

    Everything except scoring — the lane lifecycle hooks, the kernel
    counters, ``num_senones`` — is the wrapped pooled backend's
    (:mod:`repro.runtime.scoring`), reached through ``__getattr__``.
    """

    def __init__(self, scorer) -> None:
        self.scorer = scorer

    def __getattr__(self, name: str):
        if name == "scorer":  # not set yet (copy/unpickle): no recursion
            raise AttributeError(name)
        return getattr(self.scorer, name)

    def score_pairs(
        self,
        observations: np.ndarray,
        pair_rows: np.ndarray,
        pair_senones: np.ndarray,
        lanes: np.ndarray | None = None,
    ) -> np.ndarray:
        # The seam: `score_frame` is looked up on the instance at every
        # call because the frozen perf harness (benchmarks/perf) times
        # the scoring share of a sequential frame by shadowing that
        # attribute on `rec.phone_stage`.  Calling the backend directly
        # here would make `decoder.phone_decode.*` read zero calls.
        return self.score_frame(observations, pair_rows, pair_senones, lanes)

    def score_frame(
        self,
        observations: np.ndarray,
        pair_rows: np.ndarray,
        pair_senones: np.ndarray,
        lanes: np.ndarray | None = None,
    ) -> np.ndarray:
        """This frame's requested ``(lane, senone)`` scores, compact."""
        return self.scorer.score_pairs(
            observations, pair_rows, pair_senones, lanes=lanes
        )
