"""HMM topologies: 3/5/7-state left-to-right models (Section II).

Each phone/triphone is a left-to-right ("Bakis") HMM whose states emit
through senones.  "The decoder is able to handle multiple state
(3, 5, 7) HMMs and therefore can handle different acoustic models"
(Section III-B) — so topology is a first-class parameter here.

Transition probabilities are kept in the log domain.  A topology owns
only structure; :class:`PhoneHmm` binds it to concrete senone IDs so
tied states share distributions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.logadd import LOG_ZERO

__all__ = ["HmmTopology", "PhoneHmm", "LOG_ZERO"]

_SUPPORTED_STATES = (3, 5, 7)


@dataclass(frozen=True)
class HmmTopology:
    """A left-to-right topology with self loops and forward arcs.

    Parameters
    ----------
    num_states:
        Emitting states (3, 5 or 7 — the unit's supported set).
    self_loop_prob:
        Probability of staying in a state; the forward probability is
        its complement (plus the exit arc from the last state).
    allow_skip:
        If True, states may skip their immediate successor with
        probability ``skip_prob`` (mass taken from the forward arc).
    """

    num_states: int = 3
    self_loop_prob: float = 0.6
    allow_skip: bool = False
    skip_prob: float = 0.05

    def __post_init__(self) -> None:
        if self.num_states not in _SUPPORTED_STATES:
            raise ValueError(
                f"num_states must be one of {_SUPPORTED_STATES}, got {self.num_states}"
            )
        if not 0.0 < self.self_loop_prob < 1.0:
            raise ValueError(
                f"self_loop_prob must be in (0, 1), got {self.self_loop_prob}"
            )
        if self.allow_skip and not 0.0 < self.skip_prob < 1.0 - self.self_loop_prob:
            raise ValueError("skip_prob must leave mass for the forward arc")

    def log_transition_matrix(self) -> np.ndarray:
        """Dense (S+1, S+1) log matrix including the exit pseudo-state.

        Row/column ``S`` is the non-emitting exit; the last emitting
        state's forward arc leads there.  Absent arcs are ``-inf``.
        """
        s = self.num_states
        mat = np.full((s + 1, s + 1), -np.inf)
        for i in range(s):
            forward = 1.0 - self.self_loop_prob
            skip = self.skip_prob if (self.allow_skip and i + 2 <= s) else 0.0
            mat[i, i] = np.log(self.self_loop_prob)
            mat[i, i + 1] = np.log(forward - skip)
            if skip > 0.0:
                mat[i, i + 2] = np.log(skip)
        mat[s, s] = 0.0  # exit absorbs
        return mat

    def chain_log_probs(self) -> tuple[float, float]:
        """``(log self_loop, log forward)`` for the chain fast path.

        The vectorised decoder treats every topology as a chain (skips
        disabled); this returns the two per-state constants it needs.
        """
        return (
            float(np.log(self.self_loop_prob)),
            float(np.log(1.0 - self.self_loop_prob)),
        )

    def rows_stochastic(self) -> bool:
        """Check each emitting row sums to 1 in probability space."""
        mat = self.log_transition_matrix()
        probs = np.exp(mat[: self.num_states])
        return bool(np.allclose(probs.sum(axis=1), 1.0, atol=1e-12))


@dataclass
class PhoneHmm:
    """A topology bound to senone IDs — one phone or triphone model.

    ``senone_ids[k]`` is the senone scoring emissions of state ``k``.
    """

    name: str
    topology: HmmTopology
    senone_ids: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        self.senone_ids = tuple(int(s) for s in self.senone_ids)
        if len(self.senone_ids) != self.topology.num_states:
            raise ValueError(
                f"{self.name}: {len(self.senone_ids)} senone ids for "
                f"{self.topology.num_states} states"
            )
        if any(s < 0 for s in self.senone_ids):
            raise ValueError(f"{self.name}: negative senone id")

    @property
    def num_states(self) -> int:
        return self.topology.num_states

    def sample_state_sequence(
        self, rng: np.random.Generator, min_frames: int = 1
    ) -> list[int]:
        """Sample a state-index path through the HMM (for synthesis).

        Re-samples until the path is at least ``min_frames`` long.
        """
        log_mat = self.topology.log_transition_matrix()
        probs = np.exp(log_mat[: self.num_states])
        while True:
            path: list[int] = []
            state = 0
            while state < self.num_states:
                path.append(state)
                state = int(rng.choice(self.num_states + 1, p=probs[state]))
            if len(path) >= min_frames:
                return path
