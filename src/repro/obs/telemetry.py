"""Decode-depth telemetry: the counters the paper budgets power by.

:class:`DecodeTelemetry` aggregates per-frame decoder work into one
mergeable record: beam survivors and senones scored per frame (the
paper's active-fraction argument), the four-layer fast-GMM scheme's
layer hits (frames short-circuited by CDS, Gaussians and dimensions
actually touched, senones answered from the CI/VQ approximation), the
blas backend's dense-vs-gathered kernel dispatch and its passes over
the whole parameter tables, and the wall-clock
split of the engine's decode stages (scoring vs token-bank update vs
word-exit recording, sampled inside the lane bank's step).

One record describes one utterance (attached to its
:class:`~repro.decoder.recognizer.RecognitionResult`); records merge
additively into per-shard and per-fleet rollups — every field is a sum,
so a shard's telemetry is literally the sum of its lanes'.

Caveat shared with every bank-level counter: the stage seconds and
blas kernel counts are BANK-scoped samples attributed to the lane by
delta-since-admission, so concurrent lanes each observe the engine
work of the steps they rode in (their sums overlap).  Per-frame counts
(states, senones, exits) are exactly per-lane.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["DecodeTelemetry"]


@dataclass
class DecodeTelemetry:
    """Mergeable per-decode work counters (every field is additive)."""

    frames: int = 0
    #: Beam survivors summed over frames (mean = / frames).
    active_states: int = 0
    #: Senones actually evaluated, summed over frames.
    senones_scored: int = 0
    #: Word-lattice exits recorded, summed over frames.
    word_exits: int = 0
    # Four-layer fast-GMM scheme (fast mode only; zero elsewhere).
    fast_frames_skipped: int = 0  # CDS layer: frames answered from cache
    fast_senones_full: int = 0  # senones through the full GMM path
    fast_senones_approximated: int = 0  # senones answered by CI/VQ backoff
    fast_gaussians_evaluated: int = 0
    fast_gaussians_possible: int = 0
    fast_dims_evaluated: int = 0  # PDE layer: dimensions actually multiplied
    fast_dims_possible: int = 0
    # Blas backend kernel dispatch (blas mode only; zero elsewhere).
    blas_dense_steps: int = 0  # steps served by the dense matmul kernel
    blas_gathered_steps: int = 0  # steps served by the gathered fallback
    blas_table_streams: int = 0  # passes over the WHOLE parameter tables
    # Engine stage wall-clock split, sampled inside the lane bank step.
    stage_scoring_s: float = 0.0  # pooled GMM pass
    stage_update_s: float = 0.0  # token-bank chain update + propagation
    stage_exit_s: float = 0.0  # beam prune + word-exit recording

    # ------------------------------------------------------------------
    def merge(self, other: "DecodeTelemetry | None") -> "DecodeTelemetry":
        """Fold another record into this one (all fields are sums)."""
        if other is not None:
            for f in fields(self):
                setattr(
                    self, f.name, getattr(self, f.name) + getattr(other, f.name)
                )
        return self

    # -- derived views -------------------------------------------------
    @property
    def mean_active_states(self) -> float:
        return self.active_states / self.frames if self.frames else 0.0

    @property
    def mean_senones_scored(self) -> float:
        return self.senones_scored / self.frames if self.frames else 0.0

    @property
    def fast_skip_fraction(self) -> float:
        return self.fast_frames_skipped / self.frames if self.frames else 0.0

    @property
    def fast_gaussian_fraction(self) -> float:
        if self.fast_gaussians_possible == 0:
            return 0.0
        return self.fast_gaussians_evaluated / self.fast_gaussians_possible

    @property
    def fast_dim_fraction(self) -> float:
        if self.fast_dims_possible == 0:
            return 0.0
        return self.fast_dims_evaluated / self.fast_dims_possible

    @property
    def stage_total_s(self) -> float:
        return self.stage_scoring_s + self.stage_update_s + self.stage_exit_s

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "DecodeTelemetry":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})
