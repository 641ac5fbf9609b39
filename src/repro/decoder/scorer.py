"""Scoring constants and per-decode scoring statistics.

The senone scoring backends themselves live in
:mod:`repro.runtime.scoring` (one pooled family serves one lane or
many).  What stays here is what every layer imports: ``LOG_ZERO``, the
documented score tolerances of the inexact backends, and
:class:`ScoringStats` — the per-frame active-senone counts that
experiment R2 reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.logadd import LOG_ZERO

__all__ = [
    "ScoringStats",
    "LOG_ZERO",
    "BLAS_SCORE_ATOL",
    "FLOAT32_SCORE_ATOL",
]

#: Documented absolute tolerance between matmul-form (``mode="blas"``)
#: and reference scores.  Both are float64 over the same parameters;
#: only the summation order of the quadratic form differs, so the
#: drift is rounding-level — orders of magnitude below this bound,
#: which the parity suite pins.
BLAS_SCORE_ATOL = 1e-6

#: Documented absolute path-score tolerance of ``precision="float32"``
#: blas tables vs the float64 blas backend.  The quadratic form, the
#: mixture-constant add and the log-sum-exp fold all run in float32
#: over float32-stored parameters; on the command-task test set the
#: measured path-score drift tops out near 1.1e-3 (batch 8, dense
#: demand) and word outputs are identical across batch 1-8 and ragged
#: continuous arrivals (pinned by the quantized-parity suite).  The
#: bound carries ~10x margin over the measured worst case.
FLOAT32_SCORE_ATOL = 1e-2


@dataclass
class ScoringStats:
    """Per-decode scoring activity (drives R2 and the power model)."""

    frames: int = 0
    senones_requested: int = 0
    senone_budget: int = 0
    active_per_frame: list[int] = field(default_factory=list)

    def record(self, requested: int) -> None:
        self.frames += 1
        self.senones_requested += requested
        self.active_per_frame.append(requested)

    @property
    def mean_active(self) -> float:
        if not self.active_per_frame:
            return 0.0
        return float(np.mean(self.active_per_frame))

    @property
    def mean_active_fraction(self) -> float:
        if self.senone_budget == 0:
            return 0.0
        return self.mean_active / self.senone_budget

    @property
    def peak_active_fraction(self) -> float:
        if self.senone_budget == 0 or not self.active_per_frame:
            return 0.0
        return max(self.active_per_frame) / self.senone_budget
