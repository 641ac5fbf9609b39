"""Beam and histogram pruning.

"To achieve real-time performance, threshold values are introduced to
reduce the amount of computation which in-turn reduces the accuracy of
recognition" (Section I).  The decoder applies two standard prunes per
frame: a *beam* relative to the frame-best path score, and an optional
*histogram* cap on the number of live states.  Word exits use their
own (tighter) beam.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from repro.core.logadd import LOG_ZERO

__all__ = [
    "BeamConfig",
    "apply_beam",
    "apply_beam_batch",
    "apply_beam_rows",
    "check_count",
    "select_word_exits",
]


def check_count(name: str, value, minimum: int) -> None:
    """Refuse a count that is not an integer ``>= minimum``.

    A float cap fails mid-decode (``np.partition`` and slicing want an
    integer) and a NaN one compares False and is never applied, so
    anything but a ``numbers.Integral`` (numpy integers included, a
    ``bool`` not) is a ``ValueError`` at construction.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


@dataclass(frozen=True)
class BeamConfig:
    """Pruning thresholds, all in natural-log units."""

    state_beam: float = 220.0
    word_beam: float = 160.0
    max_active_states: int = 0  # 0 disables the histogram prune

    def __post_init__(self) -> None:
        # A NaN beam compares False everywhere and prunes every token.
        for name in ("state_beam", "word_beam"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        check_count("max_active_states", self.max_active_states, 0)


def select_word_exits(
    scores: np.ndarray, viable: np.ndarray, word_beam: float, max_exits: int
) -> np.ndarray:
    """Positions of one utterance-frame's word exits worth recording.

    The viable exits within ``word_beam`` of the best one, cut to the
    ``max_exits`` best (best first) when there are more.  The one
    source of exit order for both networks: the cut is a non-stable
    ``argsort`` over the same per-lane arrays whatever bank the lane
    rides in, so ties break identically for every batch shape.
    """
    if not viable.any():
        return np.empty(0, dtype=np.int64)
    threshold = float(scores[viable].max()) - word_beam
    keep = np.flatnonzero(viable & (scores >= threshold))
    if keep.size > max_exits:
        keep = keep[np.argsort(scores[keep])[::-1][:max_exits]]
    return keep


def _histogram_trim(delta: np.ndarray, alive: np.ndarray, cap: int) -> None:
    """Trim a live mask to the ``cap`` best scores, in place."""
    # Keep exactly the top-N scores (ties broken arbitrarily).
    live_scores = delta[alive]
    cut = np.partition(live_scores, -cap)[-cap]
    alive &= delta >= cut
    # A plateau of equal scores can still exceed the cap; trim it.
    if int(alive.sum()) > cap:
        idx = np.flatnonzero(alive)
        order = np.argsort(delta[idx])[::-1]
        alive[:] = False
        alive[idx[order[:cap]]] = True


def apply_beam(delta: np.ndarray, config: BeamConfig) -> tuple[np.ndarray, int]:
    """Prune ``delta`` in place; returns (active mask, survivors).

    States outside ``state_beam`` of the frame best (or beyond the
    histogram cap) are reset to ``LOG_ZERO``.
    """
    best = float(delta.max())
    if best <= LOG_ZERO:
        return np.zeros(delta.shape, dtype=bool), 0
    threshold = best - config.state_beam
    alive = delta > threshold
    if config.max_active_states and int(alive.sum()) > config.max_active_states:
        _histogram_trim(delta, alive, config.max_active_states)
    delta[~alive] = LOG_ZERO
    return alive, int(alive.sum())


def make_beam_scratch(shape: tuple[int, int]) -> dict[str, np.ndarray]:
    """Reusable mask buffers for :func:`apply_beam_batch`."""
    return {
        "alive": np.empty(shape, dtype=bool),
        "kill": np.empty(shape, dtype=bool),
    }


def apply_beam_batch(
    delta: np.ndarray,
    config: BeamConfig,
    scratch: dict[str, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise :func:`apply_beam` over a ``(B, S)`` state bank.

    Each row is pruned against its own frame best with the exact
    per-utterance arithmetic, in one vectorised pass; returns the
    ``(B, S)`` live mask and the ``(B,)`` survivor counts.  Passing a
    :func:`make_beam_scratch` dict makes the per-frame call
    allocation-light; the returned mask then aliases the scratch.

    Dead rows (all ``LOG_ZERO``) report zero survivors and are left
    untouched, exactly like :func:`apply_beam` on an empty utterance —
    which is what makes idle lanes free in the batched runtimes: a
    retired or not-yet-refilled lane is just a dead row, and only a
    bank that has one pays for masking it out and back in.
    """
    if delta.ndim != 2:
        raise ValueError(f"delta must be 2-D, got shape {delta.shape}")
    if scratch is None:
        scratch = make_beam_scratch(delta.shape)
    alive, kill = scratch["alive"], scratch["kill"]
    best = delta.max(axis=1)
    threshold = best - config.state_beam
    np.greater(delta, threshold[:, None], out=alive)
    dead_rows = best <= LOG_ZERO
    any_dead = dead_rows.any()  # the exception: an idle lane of a wide bank
    if any_dead:
        alive[dead_rows] = False
    counts = alive.sum(axis=1)
    if config.max_active_states:
        for b in np.flatnonzero(counts > config.max_active_states):
            _histogram_trim(delta[b], alive[b], config.max_active_states)
            counts[b] = int(alive[b].sum())
    np.logical_not(alive, out=kill)
    if any_dead:
        kill[dead_rows] = False  # dead rows stay untouched, as in apply_beam
    np.copyto(delta, LOG_ZERO, where=kill)
    return alive, counts


def apply_beam_rows(
    values: np.ndarray,
    rows: np.ndarray,
    num_rows: int,
    config: BeamConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise :func:`apply_beam` over a bank given as a list of slots.

    ``values[i]`` is the score of one slot of row ``rows[i]``; ``rows``
    is non-decreasing and slots of a row keep their dense (ascending
    state) order, so each row's segment is that row of the dense bank
    filtered to its listed slots.  Slots not listed count as
    ``LOG_ZERO``: they can neither raise the row best nor survive, and
    the order-dependent histogram trim only ever sorts survivors — so
    pruning is identical to :func:`apply_beam_batch` on the dense bank.
    ``values`` is pruned in place; returns the ``(n,)`` live mask and
    the ``(num_rows,)`` survivor counts (zero for rows with no slot).
    """
    bounds = np.searchsorted(rows, np.arange(num_rows + 1))
    filled = np.flatnonzero(bounds[1:] > bounds[:-1])
    counts = np.zeros(num_rows, dtype=np.intp)
    if filled.size == 0:
        return np.zeros(values.shape, dtype=bool), counts
    starts = bounds[filled]
    best = np.full(num_rows, LOG_ZERO, dtype=values.dtype)
    best[filled] = np.maximum.reduceat(values, starts)
    threshold = best - config.state_beam
    live_row = (best > LOG_ZERO)[rows]  # dead rows stay untouched
    alive = values > threshold[rows]
    alive &= live_row
    counts[filled] = np.add.reduceat(alive, starts, dtype=np.intp)
    if config.max_active_states:
        for b in np.flatnonzero(counts > config.max_active_states).tolist():
            segment = slice(bounds[b], bounds[b + 1])
            _histogram_trim(values[segment], alive[segment], config.max_active_states)
            counts[b] = int(alive[segment].sum())
    values[live_row & ~alive] = LOG_ZERO
    return alive, counts
