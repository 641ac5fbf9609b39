"""Acoustic model training: k-means + EM for GMMs, Viterbi alignment.

The paper uses pre-trained Sphinx-3 models; since none can be shipped,
this module provides the standard training pipeline those models came
from, scaled to our synthetic corpus:

1. **Flat start** — uniform segmentation of each utterance across the
   transcript's HMM states.
2. **GMM fitting** — per-state k-means initialisation followed by EM
   (diagonal covariances, variance and weight flooring).
3. **Viterbi re-alignment** — forced alignment of each utterance
   against its transcript with the current models, then re-fit;
   iterate.

Everything is numpy-vectorised; training a 51-phone monophone model on
a few hundred synthetic utterances takes seconds.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.core.logadd import LOG_ZERO
from repro.hmm.gaussian import VARIANCE_FLOOR
from repro.hmm.gmm import GaussianMixture
from repro.hmm.senone import SenonePool
from repro.hmm.topology import HmmTopology, PhoneHmm

__all__ = [
    "fit_gmm",
    "kmeans",
    "uniform_alignment",
    "forced_alignment",
    "TrainingConfig",
    "train_senone_pool",
]

_WEIGHT_FLOOR = 1e-3

#: Float64 values per temporary when a build-time distance grid (the
#: k-means prefilter and EM's E step here, the fast-GMM shortlists) is
#: computed a block of rows at a time: 2 MB, so a block stays in cache
#: and the build's transient memory does not grow with the model.
GRID_BLOCK_ELEMENTS = 1 << 18

#: :func:`kmeans` refuses frames with a larger squared norm: below it no
#: sum or product of its prefilter can overflow.
_NORM_LIMIT = 2.0**1000
#: The prefilter bound's absolute slack: it covers every product that
#: underflows (each is off by at most 2**-1075).
_TINY = float(np.finfo(np.float64).tiny)


def row_blocks(rows: int, per_row: int) -> Iterator[slice]:
    """Slices covering ``range(rows)``, each a block of rows whose
    ``per_row``-value temporaries fit :data:`GRID_BLOCK_ELEMENTS` (one
    row at least).  Every grid value is a last-axis reduction over its
    own row, so blocking changes no bit of the result."""
    step = max(1, GRID_BLOCK_ELEMENTS // max(per_row, 1))
    for start in range(0, rows, step):
        yield slice(start, start + step)


# ----------------------------------------------------------------------
# GMM estimation
# ----------------------------------------------------------------------
def kmeans(
    frames: np.ndarray,
    k: int,
    rng: np.random.Generator,
    iterations: int = 10,
) -> np.ndarray:
    """Lloyd's k-means with k-means++ seeding; returns (k, L) centroids.

    k-means++ spreads the initial centroids by distance-squared
    sampling, avoiding the merged-cluster local optima plain random
    initialisation falls into.  Empty clusters are re-seeded from the
    farthest points, so exactly ``k`` centroids always come back.

    Every distance that decides anything is the exact one,
    ``((x - c) ** 2).sum()`` over the contiguous last axis, so the
    centroids are bit for bit those of the whole ``(n, k, L)`` grid;
    only *which* distances are needed is found cheaply.  One product per
    :func:`row_blocks` block gives ``approx = |x|^2 + |c|^2 - 2 x.c``
    for every centroid, and::

        B(x, c) = 2 (L + 4) eps (|x|^2 + |c|^2) + tiny  >=  (L + 4) eps (|x| + |c|)^2

    bounds ``|approx - exact|`` whatever the summation order or BLAS
    thread count (gamma bounds, ``u = eps / 2``): the squared norms and
    the dot product are each within ``gamma_L``, the exact distance
    within ``gamma_(L+2)``, of their true values -- ``(4L + 4) u`` of
    ``|x|^2 + |c|^2`` in all -- and the rest of ``B``'s
    ``(4L + 16) u`` covers the few roundings that form the bounds;
    ``tiny`` (``2**-1022``) covers products that underflow.  A row's
    candidates are the centroids whose ``approx - B`` is within
    ``2 B(x, c_max)`` (``c_max`` the longest centroid) of its least
    ``approx - B``: an upper bound on ``min(approx + B)``, so every
    centroid at the exact minimum is one.  A lone candidate is the
    row's assignment outright; where there are more, the first index of
    the exact minimum among them is.  The empty-cluster re-seed reads
    the exact row minima -- each row's exact distance to its assigned
    centroid, computed only in a step that leaves a cluster empty.
    Seeding recomputes a row's distance to the new seed only where
    ``approx - B < d2``, so ``d2`` -- and with it every ``rng.choice``
    draw -- keeps its bits.  Frames that are not finite, or whose
    squared norm exceeds ``2**1000`` (where the bounds' own sums could
    overflow), are refused with ``ValueError``.
    """
    data = np.asarray(frames, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError(f"frames must be 2-D, got shape {data.shape}")
    n = data.shape[0]
    if n == 0:
        raise ValueError("cannot run k-means on zero frames")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    sq = np.einsum("ij,ij->i", data, data)
    if not (sq <= _NORM_LIMIT).all():
        raise ValueError("k-means frames must be finite, with squared norms below 2**1000")
    rel = 2 * (data.shape[1] + 4) * np.finfo(np.float64).eps
    row_lo = sq * (1 - rel) - _TINY  # the row's share of approx - B
    width = 2 * rel * sq + 2 * _TINY  # the row's share of 2 B
    # k-means++ seeding.
    first = int(rng.integers(n))
    seeds = [data[first]]
    d2 = _distances(data, np.arange(n), seeds[0])
    while len(seeds) < min(k, n):
        total = d2.sum()
        if total <= 0:
            seeds.append(data[int(rng.integers(n))])
        else:
            pick = int(rng.choice(n, p=d2 / total))
            seeds.append(data[pick])
        seed = seeds[-1]
        lower = np.subtract((seed @ seed) * (1 - rel), data @ (2.0 * seed))
        lower += row_lo
        closer = np.flatnonzero(lower < d2)
        d2[closer] = np.minimum(d2[closer], _distances(data, closer, seed))
    centroids = np.array(seeds)
    if centroids.shape[0] < k:  # fewer frames than clusters: replicate
        reps = rng.choice(n, size=k - centroids.shape[0], replace=True)
        centroids = np.vstack([centroids, data[reps] + rng.normal(0, 1e-3, (len(reps), data.shape[1]))])
    for _ in range(iterations):
        assign = _assign(data, width, centroids, rel)
        nearest = None  # each row's exact distance to its centroid, on demand
        previous = centroids.copy()  # the centroids `assign` was made against
        # Cluster j's rows, in row order, are order[ends[j-1]:ends[j]]:
        # the rows `data[assign == j]` would gather, so the same means.
        order = np.argsort(assign, kind="stable")
        ends = np.cumsum(np.bincount(assign, minlength=k))
        for j in range(k):
            start = ends[j - 1] if j else 0
            if start == ends[j]:
                if nearest is None:
                    nearest = _distances(data, np.arange(n), previous, assign)
                farthest = nearest.argmax()
                centroids[j] = data[farthest]
            else:
                centroids[j] = data[order[start : ends[j]]].mean(axis=0)
    return centroids


def _assign(
    data: np.ndarray, width: np.ndarray, centroids: np.ndarray, rel: float
) -> np.ndarray:
    """Each row's nearest centroid, the first on a tie, ``(n,)``:
    :func:`kmeans`' prefilter, then the exact distances of the rows it
    leaves more than one candidate."""
    n, k = data.shape[0], centroids.shape[0]
    cc = np.einsum("ij,ij->i", centroids, centroids)
    col_lo = cc * (1 - rel)
    reach = width + 2 * rel * cc.max()
    twice = 2.0 * centroids.T
    assign = np.empty(n, dtype=np.intp)
    for rows in row_blocks(n, k):
        # approx - B, less the row's own share (the same for every centroid)
        grid = data[rows] @ twice
        np.subtract(col_lo, grid, out=grid)
        limit = grid.min(axis=1)
        limit += reach[rows]
        candidate = grid <= limit[:, None]
        # A lone candidate is the least approx - B: the row's answer.
        assign[rows] = grid.argmin(axis=1)
        ties = np.flatnonzero(np.count_nonzero(candidate, axis=1) > 1)
        if ties.size:
            candidate = candidate[ties]
            pick = np.flatnonzero(candidate)
            tie, j = np.divmod(pick, k)
            exact = np.full(candidate.shape, np.inf)
            np.put(exact, pick, _distances(data, ties[tie] + rows.start, centroids, j))
            assign[ties + rows.start] = exact.argmin(axis=1)
    return assign


def _distances(
    data: np.ndarray,
    rows: np.ndarray,
    centres: np.ndarray,
    cols: np.ndarray | None = None,
) -> np.ndarray:
    """Exact ``((data[rows] - c) ** 2).sum(axis=1)``, ``c`` the row's
    centre ``centres[cols]`` (or the one ``(L,)`` centre ``centres``),
    a :func:`row_blocks` block of rows at a time: each value is a
    last-axis sum over its own contiguous row, the bits of the whole
    grid's."""
    out = np.empty(rows.size)
    for part in row_blocks(rows.size, data.shape[1]):
        diff = data[rows[part]]
        diff -= centres if cols is None else centres[cols[part]]
        np.square(diff, out=diff)
        diff.sum(axis=1, out=out[part])
    return out


def fit_gmm(
    frames: np.ndarray,
    num_components: int,
    rng: np.random.Generator,
    iterations: int = 8,
) -> GaussianMixture:
    """Fit a diagonal-covariance GMM with k-means init + EM."""
    data = np.asarray(frames, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError(f"frames must be 2-D, got shape {data.shape}")
    n, dim = data.shape
    if n < 1:
        raise ValueError("cannot fit a GMM to zero frames")
    k = num_components
    means = kmeans(data, k, rng)
    variances = np.tile(np.maximum(data.var(axis=0), VARIANCE_FLOOR), (k, 1))
    weights = np.full(k, 1.0 / k)
    comp = np.empty((n, k))
    for _ in range(iterations):
        # E step: responsibilities in the log domain.  The (n, k, L)
        # quadratic terms run a row_blocks block at a time; each density
        # is a last-axis sum over its own row, so blocking moves no bit.
        prec = -0.5 / variances
        norm = -0.5 * (dim * np.log(2 * np.pi) + np.log(variances).sum(axis=1))
        for rows in row_blocks(n, k * dim):
            quad = data[rows, None, :] - means
            np.square(quad, out=quad)
            quad *= prec
            quad.sum(axis=2, out=comp[rows])
        comp += norm
        comp += np.log(weights)
        peak = comp.max(axis=1, keepdims=True)
        resp = np.exp(comp - peak)
        resp /= resp.sum(axis=1, keepdims=True)
        # M step.
        counts = resp.sum(axis=0)
        nonempty = counts > 1e-8
        safe_counts = np.where(nonempty, counts, 1.0)
        new_means = (resp.T @ data) / safe_counts[:, None]
        sq = (resp.T @ (data * data)) / safe_counts[:, None]
        new_vars = np.maximum(sq - new_means**2, VARIANCE_FLOOR)
        means = np.where(nonempty[:, None], new_means, means)
        variances = np.where(nonempty[:, None], new_vars, variances)
        weights = np.maximum(counts / n, _WEIGHT_FLOOR)
        weights /= weights.sum()
    return GaussianMixture(weights=weights, means=means, variances=variances)


# ----------------------------------------------------------------------
# Alignment
# ----------------------------------------------------------------------
def uniform_alignment(num_frames: int, num_states: int) -> np.ndarray:
    """Flat-start segmentation: frame -> state index, monotone."""
    if num_frames < 1:
        raise ValueError(f"num_frames must be >= 1, got {num_frames}")
    if num_states < 1:
        raise ValueError(f"num_states must be >= 1, got {num_states}")
    return np.minimum(
        (np.arange(num_frames) * num_states) // max(num_frames, 1),
        num_states - 1,
    ).astype(np.int64)


def forced_alignment(
    frame_scores: np.ndarray,
    self_logp: float,
    forward_logp: float,
) -> np.ndarray:
    """Viterbi-align frames to a left-to-right state chain.

    Parameters
    ----------
    frame_scores:
        Log observation scores, shape (T, S): ``frame_scores[t, s]`` is
        the score of chain state ``s`` at frame ``t``.
    self_logp / forward_logp:
        Chain transition log-probabilities (shared by every state).

    Returns the maximum-likelihood state index per frame (length T,
    monotone non-decreasing, starting at 0 and ending at S-1).
    """
    scores = np.asarray(frame_scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError(f"frame_scores must be 2-D, got shape {scores.shape}")
    num_frames, num_states = scores.shape
    if num_frames < num_states:
        raise ValueError(
            f"cannot align {num_frames} frames to {num_states} states "
            "(chain needs at least one frame per state)"
        )
    delta = np.full(num_states, LOG_ZERO)
    delta[0] = scores[0, 0]
    backptr = np.zeros((num_frames, num_states), dtype=np.int8)  # 1 = from left
    for t in range(1, num_frames):
        stay = delta + self_logp
        advance = np.full(num_states, LOG_ZERO)
        advance[1:] = delta[:-1] + forward_logp
        from_left = advance > stay
        delta = np.where(from_left, advance, stay) + scores[t]
        backptr[t] = from_left
    # Backtrace from the final state.
    states = np.empty(num_frames, dtype=np.int64)
    s = num_states - 1
    for t in range(num_frames - 1, -1, -1):
        states[t] = s
        if backptr[t, s] and t > 0:
            s -= 1
    return states


# ----------------------------------------------------------------------
# Full senone-pool training
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrainingConfig:
    """Knobs for :func:`train_senone_pool`."""

    num_components: int = 4
    em_iterations: int = 6
    realignment_passes: int = 2
    seed: int = 7


def train_senone_pool(
    utterances: list[np.ndarray],
    transcripts: list[list[PhoneHmm]],
    num_senones: int,
    config: TrainingConfig | None = None,
) -> SenonePool:
    """Train every senone's GMM from transcribed utterances.

    Parameters
    ----------
    utterances:
        Feature matrices, each (T_u, L).
    transcripts:
        For each utterance, the phone HMM sequence it realises; the
        HMMs' ``senone_ids`` define which senone each chain state maps
        to.
    num_senones:
        Size of the pool (senone IDs in transcripts must be below it).

    Uses flat-start uniform alignment, then
    ``config.realignment_passes`` rounds of Viterbi re-alignment with
    the freshly estimated models; a realignment scores each utterance
    against its own transcript chain's senones only.
    """
    cfg = config or TrainingConfig()
    if len(utterances) != len(transcripts):
        raise ValueError(
            f"{len(utterances)} utterances but {len(transcripts)} transcripts"
        )
    if not utterances:
        raise ValueError("need at least one utterance")
    dim = int(np.asarray(utterances[0]).shape[1])
    rng = np.random.default_rng(cfg.seed)

    chains = [_transcript_chain(t) for t in transcripts]
    # Flat start: uniform alignment.
    assignments = [
        uniform_alignment(np.asarray(u).shape[0], len(chain))
        for u, chain in zip(utterances, chains)
    ]
    pool = _estimate_pool(utterances, chains, assignments, num_senones, dim, cfg, rng)
    topo = transcripts[0][0].topology
    self_lp, fwd_lp = topo.chain_log_probs()
    for _ in range(cfg.realignment_passes):
        assignments = [
            forced_alignment(_chain_scores(pool, u, chain), self_lp, fwd_lp)
            for u, chain in zip(utterances, chains)
        ]
        pool = _estimate_pool(utterances, chains, assignments, num_senones, dim, cfg, rng)
    return pool


def _chain_scores(
    pool: SenonePool, utterance: np.ndarray, chain: list[int]
) -> np.ndarray:
    """The ``(T, len(chain))`` reference scores of every frame against
    its transcript chain's senones — no other senone is scored.  Frames
    go through :meth:`SenonePool.score_pairs` a :func:`row_blocks` block
    at a time, so its ``(pairs, M, L)`` gather stays bounded however
    long the utterance."""
    frames = np.asarray(utterance, dtype=np.float64)
    senones = np.asarray(chain, dtype=np.int64)
    width = senones.size
    out = np.empty((frames.shape[0], width))
    per_frame = width * pool.num_components * pool.dim
    for block in row_blocks(frames.shape[0], per_frame):
        obs = frames[block]
        count = obs.shape[0]
        rows = np.repeat(np.arange(count), width)
        scores = pool.score_pairs(obs, rows, np.tile(senones, count))
        out[block] = scores.reshape(count, width)
    return out


def _transcript_chain(transcript: list[PhoneHmm]) -> list[int]:
    """Concatenate a transcript's per-state senone IDs into one chain."""
    if not transcript:
        raise ValueError("empty transcript")
    chain: list[int] = []
    for hmm in transcript:
        chain.extend(hmm.senone_ids)
    return chain


def _estimate_pool(
    utterances: list[np.ndarray],
    chains: list[list[int]],
    assignments: list[np.ndarray],
    num_senones: int,
    dim: int,
    cfg: TrainingConfig,
    rng: np.random.Generator,
) -> SenonePool:
    """Fit one GMM per senone from aligned frames."""
    buckets: dict[int, list[np.ndarray]] = {}
    for utt, chain, assign in zip(utterances, chains, assignments):
        frames = np.asarray(utt, dtype=np.float64)
        for state_idx in range(len(chain)):
            mask = assign == state_idx
            if mask.any():
                buckets.setdefault(chain[state_idx], []).append(frames[mask])
    k = cfg.num_components
    means = np.zeros((num_senones, k, dim))
    variances = np.ones((num_senones, k, dim))
    weights = np.full((num_senones, k), 1.0 / k)
    global_frames = np.vstack([np.asarray(u) for u in utterances])
    fallback = fit_gmm(global_frames, k, rng, iterations=2)
    for senone in range(num_senones):
        if senone in buckets:
            data = np.vstack(buckets[senone])
            if data.shape[0] >= 2 * k:
                gmm = fit_gmm(data, k, rng, iterations=cfg.em_iterations)
            else:
                gmm = _single_gaussian_as_mixture(data, k)
        else:
            gmm = fallback  # untrained senone: back off to global model
        means[senone] = gmm.means
        variances[senone] = gmm.variances
        weights[senone] = gmm.weights
    return SenonePool(means, variances, weights)


def _single_gaussian_as_mixture(data: np.ndarray, k: int) -> GaussianMixture:
    """Degenerate mixture for senones with too little data."""
    mean = data.mean(axis=0)
    var = np.maximum(data.var(axis=0), VARIANCE_FLOOR)
    means = np.tile(mean, (k, 1))
    variances = np.tile(var, (k, 1))
    weights = np.full(k, 1.0 / k)
    return GaussianMixture(weights=weights, means=means, variances=variances)
