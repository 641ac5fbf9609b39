"""The four-layer fast GMM computation scheme (Chan et al. [1]).

Section IV-B: "Our architecture adapts to the four layer scheme
integrated by A. Chan et al.  The Conditional Down Sampling (CDS) is
one of the four layers and has the potential to cut the power usage by
a considerable margin."

The four layers, each independently switchable here:

1. **Frame layer — CDS**: when consecutive feature vectors are close,
   skip re-scoring and reuse the previous frame's senone scores
   (senones not previously scored are computed on demand).
2. **GMM (senone) layer — CI selection**: score the cheap
   context-independent parent senones first; fully evaluate a
   context-dependent senone only when its CI parent is within a margin
   of the frame-best CI score, otherwise substitute the parent's score.
3. **Gaussian layer — VQ preselection**: a small k-means codebook over
   feature space; per (codeword, senone) only a precomputed shortlist
   of the highest-scoring mixture components is evaluated.
4. **Component layer — partial distance elimination (PDE)**: the
   dimension loop is evaluated in chunks; a component whose partial
   sum can no longer reach the current best is abandoned (this is the
   ``>?`` comparator feeding the ``Max '-ve'`` register in Figure 2).

The scheme is split along the serving axis:

* :class:`FastGmmModel` is the READ-ONLY part — the VQ codebook,
  per-(codeword, senone) shortlists, CI parent maps and the scoring
  kernels over explicit ``(row, senone)`` work items.  Built once,
  shared by every decode lane.
* :class:`FastGmmLaneState` is the PER-LANE selection state — the CDS
  previous-frame feature/score cache, the skip-run counter and the
  lane's :class:`FastGmmStats` work counters.
* :class:`~repro.runtime.scoring.BatchFastGmmScorer` drives the model
  kernels over the pooled union of every lane's demanded senones, with
  one state per lane (layer 1, the per-lane CDS decision, lives there).

Because every kernel is elementwise per work item or a per-item
reduction, pooling work items from many lanes changes no item's score
or work accounting by a single bit — the invariant the fast-mode
parity suite pins (``tests/test_runtime_fast.py``,
``tests/golden/command_fast.json``).

The per-lane counters track *work* — Gaussians touched, dimensions
multiplied, frames skipped — and :func:`equivalent_activity` turns
them into an OP-unit activity snapshot so the power model prices each
layer's savings (ablation A1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.opunit import OpUnitSpec
from repro.decoder.scorer import LOG_ZERO
from repro.hmm.senone import SenonePool
from repro.hmm.train import kmeans
from repro.lexicon.triphone import SenoneTying

__all__ = [
    "FastGmmConfig",
    "FastGmmStats",
    "FastGmmModel",
    "FastGmmLaneState",
    "equivalent_activity",
]


@dataclass(frozen=True)
class FastGmmConfig:
    """Which layers run, and their thresholds."""

    cds_enabled: bool = False
    # Mean squared 39-dim feature distance below which a frame is
    # "conditionally down-sampled".  Consecutive MFCC frames of our
    # synthetic speech sit at ~4 (steady vowels) to ~500 (transients),
    # median ~24; 12 skips only genuinely stationary stretches.
    cds_distance: float = 12.0
    cds_max_run: int = 2  # never skip more than this many frames in a row
    ci_selection_enabled: bool = False
    ci_margin: float = 14.0  # CI parent must be within this of the CI best
    gaussian_selection_enabled: bool = False
    gs_codebook_size: int = 64
    gs_shortlist: int = 3
    pde_enabled: bool = False
    pde_margin: float = 28.0
    pde_chunk: int = 13  # dimensions per PDE evaluation chunk

    def __post_init__(self) -> None:
        if self.cds_distance <= 0:
            raise ValueError(f"cds_distance must be positive, got {self.cds_distance}")
        if self.cds_max_run < 1:
            raise ValueError(f"cds_max_run must be >= 1, got {self.cds_max_run}")
        if self.gs_codebook_size < 1 or self.gs_shortlist < 1:
            raise ValueError("codebook and shortlist sizes must be >= 1")
        if self.pde_chunk < 1:
            raise ValueError(f"pde_chunk must be >= 1, got {self.pde_chunk}")

    @classmethod
    def all_layers(cls, **overrides) -> "FastGmmConfig":
        """The canonical serving preset: every layer on.

        Thresholds follow the module defaults except the VQ shortlist,
        which keeps only each codeword's TOP component per senone — the
        most aggressive layer-3 setting, safe because the shortlist
        retains the dominant component (scores are a tight lower
        bound).  The golden fast-mode fixtures and the throughput
        benchmark both use this preset, so "fast mode" means the same
        thing everywhere unless a caller overrides a threshold.
        """
        base: dict = dict(
            cds_enabled=True,
            ci_selection_enabled=True,
            gaussian_selection_enabled=True,
            gs_shortlist=1,
            pde_enabled=True,
        )
        base.update(overrides)
        return cls(**base)


@dataclass
class FastGmmStats:
    """Work counters for the four layers."""

    frames: int = 0
    frames_skipped: int = 0
    senones_full: int = 0
    senones_approximated: int = 0
    gaussians_evaluated: int = 0
    gaussians_possible: int = 0
    dims_evaluated: int = 0
    dims_possible: int = 0

    @property
    def skip_fraction(self) -> float:
        return self.frames_skipped / self.frames if self.frames else 0.0

    @property
    def gaussian_fraction(self) -> float:
        if self.gaussians_possible == 0:
            return 0.0
        return self.gaussians_evaluated / self.gaussians_possible

    @property
    def dim_fraction(self) -> float:
        if self.dims_possible == 0:
            return 0.0
        return self.dims_evaluated / self.dims_possible


class FastGmmLaneState:
    """Per-lane mutable selection state of the four-layer scheme.

    One instance per decode lane: the CDS layer's previous-frame
    feature vector and dense score cache, the consecutive-skip run
    counter, and the lane's work counters.  Everything an utterance
    must NOT share with its neighbours lives here; everything it may
    share lives in :class:`FastGmmModel`.
    """

    __slots__ = ("last_obs", "last_scores", "skip_run", "fast_stats")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Forget the previous utterance entirely (fresh admission)."""
        self.last_obs: np.ndarray | None = None
        self.last_scores: np.ndarray | None = None
        self.skip_run: int = 0
        self.fast_stats = FastGmmStats()


class FastGmmModel:
    """The shared read-only model half of the four-layer scheme.

    Holds the derived scoring tables (mixture offsets, precision
    halves), the layer-3 VQ codebook with its per-(codeword, senone)
    component shortlists, and the layer-2 CI parent map.  All scoring
    entry points take explicit ``(row, senone)`` work items against a
    ``(B, L)`` observation block, so one model instance serves any
    number of lanes concurrently — per item the arithmetic only ever
    reads that item's row, which is what makes pooled evaluation
    bit-identical to per-lane evaluation.
    """

    def __init__(
        self,
        pool: SenonePool,
        tying: SenoneTying | None = None,
        config: FastGmmConfig | None = None,
        codebook_data: np.ndarray | None = None,
        seed: int = 11,
    ) -> None:
        self.pool = pool
        self.config = config or FastGmmConfig()
        self.tying = tying
        if self.config.ci_selection_enabled and tying is None:
            raise ValueError("CI selection requires the senone tying")
        self.num_senones = pool.num_senones
        self._rng = np.random.default_rng(seed)
        self.offsets = (
            np.log(pool.weights)
            - 0.5 * (pool.dim * np.log(2 * np.pi) + np.log(pool.variances).sum(axis=2))
        )
        self.precisions = -0.5 / pool.variances
        self.codebook: np.ndarray | None = None
        self.shortlist: np.ndarray | None = None
        if self.config.gaussian_selection_enabled:
            self._build_codebook(codebook_data)
        self.ci_parent: np.ndarray | None = None
        if self.config.ci_selection_enabled:
            assert tying is not None
            self.ci_parent = np.array(
                [tying.ci_parent(s) for s in range(pool.num_senones)], dtype=np.int64
            )

    # ------------------------------------------------------------------
    def _build_codebook(self, data: np.ndarray | None) -> None:
        """Layer-3 VQ codebook + per-(codeword, senone) shortlists."""
        cfg = self.config
        if data is None:
            # Fall back to clustering the senone means themselves.
            data = self.pool.means.reshape(-1, self.pool.dim)
        codewords = min(cfg.gs_codebook_size, data.shape[0])
        self.codebook = kmeans(data, codewords, self._rng, iterations=6)
        # Component density of each codeword centre, per senone.
        diff = self.codebook[:, None, None, :] - self.pool.means[None]
        quad = (diff * diff * self.precisions[None]).sum(axis=-1)
        comp = quad + self.offsets[None]  # (C, N, M)
        g = min(cfg.gs_shortlist, self.pool.num_components)
        self.shortlist = np.argsort(comp, axis=-1)[..., ::-1][..., :g]

    # ------------------------------------------------------------------
    def codewords_for(self, observations: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Nearest VQ codeword for each requested observation row.

        Returns a ``(B,)`` map filled at ``rows`` (and ``-1`` elsewhere)
        so downstream shortlist gathers can index by row id directly.
        """
        assert self.codebook is not None
        out = np.full(observations.shape[0], -1, dtype=np.int64)
        if rows.size:
            diff = self.codebook[None, :, :] - observations[rows][:, None, :]
            out[rows] = np.argmin((diff * diff).sum(axis=2), axis=1)
        return out

    # ------------------------------------------------------------------
    def score_requests(
        self,
        observations: np.ndarray,
        requests: list[tuple[int, np.ndarray]],
        stats_by_row: dict[int, FastGmmStats],
    ) -> list[np.ndarray]:
        """Layers 2-4 over independent per-row senone subsets, pooled.

        ``requests`` holds ``(row, senones)`` items — each a lane's
        demanded subset for this frame (a full feedback list, or the
        missing senones of a CDS skip).  All subsets are scored in at
        most two pooled Gaussian passes (CI parents, then the selected
        CD senones), with each request's CI margin applied against its
        OWN frame-best parent.  Returns one compact score array per
        request; work is accounted to ``stats_by_row[row]``.
        """
        cfg = self.config
        results: list[np.ndarray] = [np.empty(0)] * len(requests)
        live = [(i, row, sen) for i, (row, sen) in enumerate(requests) if sen.size]
        if not live:
            return results
        codewords = None
        if cfg.gaussian_selection_enabled:
            rows_active = np.unique(np.array([r for _, r, _ in live], dtype=np.int64))
            codewords = self.codewords_for(observations, rows_active)

        if not cfg.ci_selection_enabled:
            item_rows = np.concatenate(
                [np.full(sen.size, row, dtype=np.int64) for _, row, sen in live]
            )
            item_sen = np.concatenate([sen for _, _, sen in live])
            scores = self.evaluate_pairs(
                observations, item_rows, item_sen, codewords, stats_by_row
            )
            offset = 0
            for i, _, sen in live:
                results[i] = scores[offset : offset + sen.size]
                offset += sen.size
            return results

        # Layer 2: pooled CI-parent pass, then per-request selection.
        assert self.ci_parent is not None
        metas = []
        parent_rows, parent_sen = [], []
        for i, row, sen in live:
            parents = self.ci_parent[sen]
            unique_parents, inverse = np.unique(parents, return_inverse=True)
            metas.append((i, row, sen, parents, inverse, unique_parents.size))
            parent_rows.append(np.full(unique_parents.size, row, dtype=np.int64))
            parent_sen.append(unique_parents)
        parent_scores = self.evaluate_pairs(
            observations,
            np.concatenate(parent_rows),
            np.concatenate(parent_sen),
            codewords,
            stats_by_row,
        )
        cd_rows, cd_sen, pending = [], [], []
        offset = 0
        for i, row, sen, parents, inverse, n_parents in metas:
            pvals = parent_scores[offset : offset + n_parents]
            offset += n_parents
            best_ci = float(pvals.max())
            psen = pvals[inverse]  # each senone's own CI-parent score
            expand = psen >= best_ci - cfg.ci_margin
            is_ci = sen == parents  # CI senones were already evaluated
            out = psen.copy()  # approximation by CI parent
            cd_mask = expand & ~is_ci
            cd = sen[cd_mask]
            stats = stats_by_row[row]
            stats.senones_full += int(cd.size) + int(is_ci.sum())
            stats.senones_approximated += int((~expand & ~is_ci).sum())
            results[i] = out
            if cd.size:
                cd_rows.append(np.full(cd.size, row, dtype=np.int64))
                cd_sen.append(cd)
                pending.append((out, cd_mask, cd.size))
        if cd_rows:
            cd_scores = self.evaluate_pairs(
                observations,
                np.concatenate(cd_rows),
                np.concatenate(cd_sen),
                codewords,
                stats_by_row,
            )
            offset = 0
            for out, cd_mask, n in pending:
                out[cd_mask] = cd_scores[offset : offset + n]
                offset += n
        return results

    # ------------------------------------------------------------------
    def evaluate_pairs(
        self,
        observations: np.ndarray,
        rows: np.ndarray,
        senones: np.ndarray,
        codewords: np.ndarray | None,
        stats_by_row: dict[int, FastGmmStats],
    ) -> np.ndarray:
        """Layers 3-4: pooled Gaussian computation for (row, senone) items.

        Every arithmetic step is elementwise per item or a reduction
        along that item's component/dimension axes, so the scores and
        the per-row work counters are independent of which other rows
        share the pooled call.
        """
        cfg = self.config
        p = int(senones.size)
        m_full = self.pool.num_components
        dim = self.pool.dim
        means = self.pool.means[senones]  # (P, M, L)
        precisions = self.precisions[senones]
        offsets = self.offsets[senones]  # (P, M)
        obs_rows = observations[rows]  # (P, L)
        m = m_full
        if cfg.gaussian_selection_enabled:
            assert self.shortlist is not None and codewords is not None
            take = self.shortlist[codewords[rows], senones]  # (P, G)
            ridx = np.arange(p)[:, None]
            means = means[ridx, take]
            precisions = precisions[ridx, take]
            offsets = offsets[ridx, take]
            m = take.shape[1]
        if cfg.pde_enabled:
            comp, dims_item = self._pde_pairs(obs_rows, means, precisions, offsets)
        else:
            diff = obs_rows[:, None, :] - means
            comp = (diff * diff * precisions).sum(axis=-1) + offsets
            dims_item = None
        # Work accounting, attributed to each item's own row.
        unique_rows, counts = np.unique(rows, return_counts=True)
        if dims_item is not None:
            dims_by_row = np.bincount(
                rows, weights=dims_item, minlength=int(unique_rows[-1]) + 1
            )
        for row, count in zip(unique_rows.tolist(), counts.tolist()):
            stats = stats_by_row[row]
            stats.gaussians_possible += count * m_full
            stats.dims_possible += count * m_full * dim
            stats.gaussians_evaluated += count * m
            if dims_item is None:
                stats.dims_evaluated += count * m * dim
            else:
                stats.dims_evaluated += int(dims_by_row[row])
        peak = comp.max(axis=-1)
        return peak + np.log(np.exp(comp - peak[:, None]).sum(axis=-1))

    def _pde_pairs(
        self,
        obs_rows: np.ndarray,
        means: np.ndarray,
        precisions: np.ndarray,
        offsets: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized chunked partial distance elimination.

        Components whose partial log-score falls more than
        ``pde_margin`` below the running per-item best are frozen at
        ``LOG_ZERO`` (they cannot influence the 16-bit logadd result).
        Each item's elimination race involves only its own components,
        so pooling items from many lanes is exact.  Returns the (P, M)
        component scores and the (P,) dimensions evaluated per item.
        """
        cfg = self.config
        p, m, dim = means.shape
        partial = offsets.copy()  # quad terms only make this smaller
        alive = np.ones((p, m), dtype=bool)
        dims_comp = np.zeros((p, m), dtype=np.int64)
        item_of_comp = np.repeat(np.arange(p), m)  # component -> its item row
        for start in range(0, dim, cfg.pde_chunk):
            stop = min(start + cfg.pde_chunk, dim)
            idx = np.flatnonzero(alive.ravel())
            if idx.size == 0:
                break
            flat_means = means.reshape(p * m, dim)[idx, start:stop]
            flat_prec = precisions.reshape(p * m, dim)[idx, start:stop]
            obs_chunk = obs_rows[item_of_comp[idx], start:stop]
            chunk = ((obs_chunk - flat_means) ** 2 * flat_prec).sum(axis=1)
            partial.ravel()[idx] += chunk
            dims_comp.ravel()[idx] += stop - start
            # The bound must come from live components only: a killed
            # component's stale partial stops decreasing and would
            # otherwise overtake the true best as chunks accumulate.
            live_partial = np.where(alive, partial, -np.inf)
            best = live_partial.max(axis=1, keepdims=True)
            alive &= partial >= best - cfg.pde_margin
        # Surviving components hold complete sums; abandoned ones are
        # dropped entirely (the PDE approximation).
        comp = np.where(alive, partial, LOG_ZERO)
        return comp, dims_comp.sum(axis=1)


def equivalent_activity(
    stats: FastGmmStats,
    dim: int,
    senones_requested: int,
    spec: OpUnitSpec | None = None,
) -> dict[str, float]:
    """OP-unit activity a hardware run of this workload would log.

    Lets the power model price the four layers' savings: dims map
    to squared-difference + add ops, Gaussians to FMA slots, and
    cycles follow the dimension stream (the dominant term).
    ``senones_requested`` is the decode's feedback demand
    (``ScoringStats.senones_requested``), skipped frames included.
    """
    spec = spec or OpUnitSpec(feature_dim=dim)
    s = stats
    senones = s.senones_full + s.senones_approximated or senones_requested
    bytes_per_value = 4.0
    values = s.gaussians_evaluated * (2 * dim + 1)
    return {
        "cycles_busy": float(
            s.dims_evaluated + s.gaussians_evaluated * 2 + spec.sdm_pipeline.depth
        ),
        "sdm_ops": float(s.dims_evaluated),
        "add_ops": float(s.dims_evaluated),
        "fma_ops": float(s.gaussians_evaluated),
        "compare_ops": float(senones),
        "sram_reads": float(max(s.gaussians_evaluated - senones, 0)),
        "parameter_bytes": values * bytes_per_value,
        "senones": float(senones_requested),
        "gaussians": float(s.gaussians_evaluated),
    }
