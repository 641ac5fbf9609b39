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
  per-(codeword, senone) shortlists, CI parent maps and the Gaussian
  kernel over explicit ``(row, senone)`` work items
  (:meth:`FastGmmModel.score_items`, layers 3-4).  Built once, shared
  by every decode lane and every twin; it keeps no per-step buffer.
* :class:`~repro.runtime.scoring.BatchFastGmmScorer` owns everything a
  step writes, as arrays indexed by lane (CDS previous frame and score
  cache, skip runs, :class:`FastGmmStats` counters), and runs layers
  1-2 over the whole bank's pooled demand; :class:`FastGmmLaneState`
  is the snapshot it hands out of one lane.

Because every kernel is elementwise per work item or a last-axis
reduction over that item's own dimensions/components — never a matrix
product, whose bits depend on the shape of the call — pooling work
items from many lanes changes no item's score or work accounting by a
single bit: the invariant the fast-mode parity suite pins
(``tests/test_runtime_fast.py``, ``tests/golden/*fast*.json``,
``tests/golden/fast_layers.json``).

The per-lane counters track *work* — Gaussians touched, dimensions
multiplied, frames skipped — and :func:`equivalent_activity` turns
them into an OP-unit activity snapshot so the power model prices each
layer's savings (ablation A1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.opunit import OpUnitSpec
from repro.decoder.beam import check_count
from repro.decoder.scorer import LOG_ZERO
from repro.hmm.gaussian import log_normalizer, precision_halves
from repro.hmm.senone import SenonePool, fold_exact
from repro.hmm.train import kmeans, row_blocks
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
        if not (0 < self.cds_distance < math.inf):
            raise ValueError(
                f"cds_distance must be positive and finite, got {self.cds_distance}"
            )
        # A negative or NaN margin fails every comparison, the best
        # component's and the best parent's included: PDE would drop
        # every component (all senones LOG_ZERO), CI selection would
        # approximate even the frame-best parent's children.
        for name in ("ci_margin", "pde_margin"):
            if not (0 <= getattr(self, name) < math.inf):
                raise ValueError(
                    f"{name} must be finite and >= 0, got {getattr(self, name)}"
                )
        for name in ("cds_max_run", "gs_codebook_size", "gs_shortlist", "pde_chunk"):
            check_count(name, getattr(self, name), 1)

    @classmethod
    def all_layers(cls, **overrides) -> "FastGmmConfig":
        """The canonical serving preset: every layer on.

        Thresholds follow the module defaults except the VQ shortlist,
        which keeps only each codeword's TOP component per senone — the
        most aggressive layer-3 setting.  It does NOT hold at the
        paper's scale: on ``dictation_cd_task(5000, train_sentences=120,
        seed=31, num_senones=6000)`` (3 components per senone; the first
        12 test utterances, 8 lanes, ``network="tree"``) it reads WER
        0.955 against the reference decode's 0.030, ``gs_shortlist=2``
        0.318 and ``gs_shortlist=2, pde_margin=40`` 0.030.  With one
        component per item PDE only fixes the order the dimensions are
        summed in, which the fixtures pin.  The perf harness's
        ``bank_tree`` and the golden fast-mode fixtures use this preset.
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


@dataclass(frozen=True)
class FastGmmLaneState:
    """A snapshot of one lane's selection state, copied out of the
    scorer's arrays by
    :meth:`~repro.runtime.scoring.BatchFastGmmScorer.lane_state`.
    ``last_obs`` / ``last_scores`` are ``None`` until the lane has
    scored a frame in full under CDS."""

    last_obs: np.ndarray | None
    last_scores: np.ndarray | None
    skip_run: int
    fast_stats: FastGmmStats


class FastGmmModel:
    """The shared read-only model half of the four-layer scheme.

    Holds the derived scoring tables (mixture offsets, precision
    halves) as flat per-component rows, the layer-3 VQ codebook with
    its per-(codeword, senone) component shortlists, and the layer-2 CI
    parent map.  :meth:`score_items` takes explicit ``(row, senone)``
    work items against a ``(B, L)`` observation block and keeps no
    per-step buffer, so one instance serves any number of lanes and
    scorers at once (``Recognizer.twin`` shares it between thread
    shards).
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
        with np.errstate(divide="ignore"):  # a zero weight's log is -inf
            self.offsets = np.log(pool.weights) + log_normalizer(pool.variances)
        self.precisions = precision_halves(pool.variances)
        self.codebook: np.ndarray | None = None
        self.shortlist: np.ndarray | None = None
        if codebook_data is not None:
            codebook_data = _check_codebook_data(codebook_data, pool.dim)
        if self.config.gaussian_selection_enabled:
            self._build_codebook(codebook_data)
        self.ci_parent: np.ndarray | None = None
        if self.config.ci_selection_enabled:
            assert tying is not None
            # A pool past the tying's budget raises IndexError, as a
            # senone out of ``ci_parent``'s range does.
            self.ci_parent = tying.ci_parents().take(np.arange(pool.num_senones))
            # The parents are few: ``ci_ids`` lists them ascending and
            # ``ci_rank`` maps a senone to its parent's place in that
            # list, so per-lane parent tables are (B, C), not (B, N).
            self.ci_ids, self.ci_rank = np.unique(self.ci_parent, return_inverse=True)
        # One row per mixture component, so an item's components are ONE
        # gather by ``senone * M + component``: (N, M) ids of every
        # component, or (C * N, G) ids of each codeword's shortlist, row
        # ``codeword * N + senone`` — both read with one 1-D ``take``.
        self._means = pool.means.reshape(-1, pool.dim)
        self._precisions = self.precisions.reshape(-1, pool.dim)
        self._offsets = self.offsets.ravel()
        first = np.arange(pool.num_senones) * pool.num_components
        if self.shortlist is None:
            self._components = first[:, None] + np.arange(pool.num_components)
        else:
            self._components = (first[None, :, None] + self.shortlist).reshape(
                -1, self.shortlist.shape[-1]
            )

    @property
    def components_per_item(self) -> int:
        """Mixture components evaluated per item (the shortlist size)."""
        return int(self._components.shape[-1])

    # ------------------------------------------------------------------
    def _build_codebook(self, data: np.ndarray | None) -> None:
        """Layer-3 VQ codebook + per-(codeword, senone) shortlists."""
        cfg = self.config
        if data is None:
            # Fall back to clustering the senone means themselves.
            data = self.pool.means.reshape(-1, self.pool.dim)
        codewords = min(cfg.gs_codebook_size, data.shape[0])
        self.codebook = kmeans(data, codewords, self._rng, iterations=6)
        g = min(cfg.gs_shortlist, self.pool.num_components)
        self.shortlist = _shortlists(
            self.codebook, self.pool.means, self.precisions, self.offsets, g
        )

    # ------------------------------------------------------------------
    def codewords_for(self, observations: np.ndarray) -> np.ndarray:
        """Nearest VQ codeword of each observation row, ``(R,)``."""
        codebook = self.codebook
        assert codebook is not None
        # codebook - observation into a contiguous (R, C, L) copy of the
        # rows: the same values as the broadcast, without its strided
        # operand.
        observations = np.asarray(observations, dtype=np.float64)
        diff = np.repeat(observations, codebook.shape[0], axis=0).reshape(
            observations.shape[0], *codebook.shape
        )
        np.subtract(codebook, diff, out=diff)
        np.square(diff, out=diff)
        return diff.sum(axis=2).argmin(axis=1)

    # ------------------------------------------------------------------
    def score_items(
        self,
        observations: np.ndarray,
        rows: np.ndarray,
        senones: np.ndarray,
        codewords: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Layers 3-4: one Gaussian pass over ``(row, senone)`` items.

        ``codewords`` maps a row id to its VQ codeword (``None`` with
        layer 3 off).  Returns the ``(P,)`` scores and the ``(P,)``
        dimensions evaluated per item — ``None`` when every evaluated
        component ran all of its dimensions (PDE off, or nothing for
        it to eliminate).  Every step is elementwise per item or a
        last-axis reduction over that item's dimensions/components —
        never a matrix product, whose bits would depend on how many
        items share the call — so the scores are independent of which
        other rows are pooled in.
        """
        if codewords is None:
            components = self._components.take(senones, axis=0)  # (P, M)
        else:
            key = codewords.take(rows) * self.num_senones
            key += senones
            components = self._components.take(key, axis=0)  # (P, G)
        # (o - mu)^2 * prec, (P, G, L), in place on the gathered means.
        quad = self._means.take(components, axis=0)
        np.subtract(observations.take(rows, axis=0)[:, None, :], quad, out=quad)
        np.square(quad, out=quad)
        quad *= self._precisions.take(components, axis=0)
        offsets = self._offsets.take(components)
        if self.config.pde_enabled:
            comp, dims = self._pde(quad, offsets)
        else:
            comp, dims = quad.sum(axis=-1) + offsets, None
        return fold_exact(comp), dims

    def _pde(
        self, quad: np.ndarray, offsets: np.ndarray, race: bool | None = None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Layer 4: chunked partial distance elimination.

        The dimension stream is consumed ``pde_chunk`` at a time, each
        chunk one last-axis sum over a slice of ``quad``, accumulated
        ``((offset + c0) + c1) + ...`` — the summation order the golden
        fixtures pin.  After each chunk the race drops the components
        more than ``pde_margin`` below their item's running best: they
        are frozen at ``LOG_ZERO`` (they cannot influence the 16-bit
        logadd result) and stop counting dimensions.  A lone component
        is never below its own bound, so single-component items skip
        the race — unless a partial is NaN, which fails every
        comparison and does get the component dropped.  Returns the
        (P, G) component scores and the (P,) dimensions evaluated per
        item (``None``: all of them).
        """
        cfg = self.config
        if race is None:
            race = offsets.shape[1] > 1
        partial = offsets.copy()  # quad terms only make this smaller
        if race:
            alive = np.ones(offsets.shape, dtype=bool)
            dims = np.zeros(offsets.shape[0], dtype=np.int64)
        for start in range(0, quad.shape[-1], cfg.pde_chunk):
            chunk = quad[..., start : start + cfg.pde_chunk]
            partial += chunk.sum(axis=-1)  # a dropped partial is never read again
            if race:
                dims += chunk.shape[-1] * np.count_nonzero(alive, axis=1)
                # The bound comes from live components only: a dropped
                # one stays out even where its sum would recover.
                best = np.where(alive, partial, -np.inf).max(axis=1, keepdims=True)
                alive &= partial >= best - cfg.pde_margin
        if race:
            return np.where(alive, partial, LOG_ZERO), dims
        if np.isnan(partial).any():
            return self._pde(quad, offsets, race=True)
        return partial, None


def _check_codebook_data(data, dim: int) -> np.ndarray:
    """The VQ training frames as a finite ``(n >= 1, dim)`` float64 array."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] != dim:
        raise ValueError(
            f"codebook_data must be (n >= 1, {dim}) frames, got shape {data.shape}"
        )
    if not np.isfinite(data).all():
        raise ValueError(f"codebook_data of shape {data.shape} has non-finite values")
    return data


#: Below these magnitudes -- every shifted codeword and mean entry, and
#: every absolute product ``R`` of :func:`_shortlists` -- no sum or
#: product of the build's two products or of the exact density overflows.
_ENTRY_LIMIT = 2.0**500
_PRODUCT_LIMIT = 2.0**1000


def _shortlists(
    codebook: np.ndarray,
    means: np.ndarray,
    precisions: np.ndarray,
    offsets: np.ndarray,
    g: int,
) -> np.ndarray:
    """Each codeword's top ``g`` components per senone, ``(C, N, g)``.

    The answer is bit for bit ``argsort(exact)[::-1][:g]`` of each
    (codeword, senone)'s M exact densities ``exact = ((c - mu) ** 2 *
    prec).sum() + offset`` -- the order ``score_items`` folds a
    shortlist in -- but an exact density is computed only where that
    order is in doubt.  Around the mean of means ``z`` (``a = c - z``,
    ``b = mu - z``, ``q = prec = -1/(2 sigma^2)``, ``o = offset``) a
    density is ONE dot product of the codeword's ``[a^2, a, 1]`` with
    the component's ``[q | -2 q b | sum q b^2 + o]`` (the expansion of
    :class:`~repro.hmm.senone.BlasTables`, built here a block at a time
    and never cached), so one product per
    :func:`~repro.hmm.train.row_blocks` block of senones gives
    ``approx`` for every codeword and component.  A second product, of
    ``[a^2, |a|, 1]`` with the absolute terms ``[|q| | 2 |q b| | sum |q|
    b^2 + |o|]`` summed over the senone's M components, gives an ``R``
    at least each component's ``sum (|a| + |b|)^2 |q| + |o|`` (to
    rounding), and::

        B = 2 (2L + 8) eps R + tiny  >=  |approx - exact|

    for every component, whatever the summation order or BLAS thread
    count (gamma bounds, ``u = eps / 2``): ``approx`` is within
    ``gamma_(3L+6) R`` of the real ``sum (a - b)^2 q + o`` (a dot
    product of ``2L + 1`` terms whose entries carry the table's own
    roundings), which is within ``3u R`` of the real density at
    ``c - mu`` (``a`` and ``b`` are rounded shifts), which is within
    ``gamma_(L+4) R`` of ``exact``: ``(4L + 14) u`` in all, and the
    factor two covers the roundings of ``R``, of ``B`` and of the gaps
    below.  ``tiny`` (``2**-1022``) covers the products that underflow.
    Where the last ``g + 1`` of a pair's M sorted approximations (all M
    when ``g >= M``) each lie more than ``2 B`` above the one before,
    the exact densities keep that order strictly and every other
    component's lies below them, so the sorted approximations' last
    ``g``, reversed, ARE the answer (with no tie for the ``argsort`` to
    break).  Every other pair -- and every pair whose ``R`` reaches
    ``2**1000`` or whose ``a`` or ``b`` has an entry of ``2**500`` (past
    them a sum could overflow), or where a value is not finite (every
    comparison fails) -- has its M exact densities computed as before
    and sorted by the same ``argsort``.
    """
    codewords = codebook.shape[0]
    num_senones, m, dim = means.shape
    width = 2 * dim + 1
    shortlist = np.empty((codewords, num_senones, g), dtype=np.intp)
    rel = 2 * (2 * dim + 8) * np.finfo(np.float64).eps
    tiny = np.finfo(np.float64).tiny
    centre = means.reshape(-1, dim).mean(axis=0)
    shifted = codebook - centre
    words = np.empty((codewords, width))  # [a^2, a, 1]
    np.square(shifted, out=words[:, :dim])
    words[:, dim:-1] = shifted
    words[:, -1] = 1.0
    words_abs = np.abs(words)
    words_in_range = np.abs(shifted).max() < _ENTRY_LIMIT
    top = m - min(g + 1, m)  # where the sorted last g + 1 start
    for rows in row_blocks(num_senones, m * max(codewords, width)):
        b = means[rows].reshape(-1, dim) - centre
        q = precisions[rows].reshape(-1, dim)
        table = np.empty((b.shape[0], width))  # [q | -2 q b | const]
        table[:, :dim] = q
        qb = table[:, dim:-1]
        np.multiply(q, b, out=qb)
        qbb = np.einsum("ij,ij->i", qb, b)  # sum q b^2 (<= 0: q < 0)
        qb *= -2.0
        const = offsets[rows].ravel()
        np.add(qbb, const, out=table[:, -1])
        approx = (words @ table.T).reshape(codewords, -1, m)
        # The absolute terms, summed over each senone's M components:
        # one (C, b) product bounds them all.
        np.abs(table, out=table)
        np.subtract(np.abs(const), qbb, out=table[:, -1])
        reach = words_abs @ table.reshape(-1, m, width).sum(axis=1).T
        order = np.argsort(approx, axis=-1)
        shortlist[:, rows] = order[..., ::-1][..., :g]
        firsts = np.arange(0, approx.size, m).reshape(codewords, -1, 1)
        # Two zero-weight components differ by -inf - -inf = NaN: not
        # sure, so they are rechecked exactly below.
        with np.errstate(invalid="ignore"):
            gaps = np.diff(approx.take(order[..., top:] + firsts), axis=-1)
        bound = rel * reach
        bound += tiny
        bound *= 2.0
        sure = (gaps > bound[..., None]).all(axis=-1)
        sure &= reach <= _PRODUCT_LIMIT
        if not (words_in_range and np.abs(b).max() < _ENTRY_LIMIT):
            sure[...] = False
        word, senone = np.nonzero(~sure)
        senone += rows.start
        for part in row_blocks(word.size, m * dim):
            quad = codebook[word[part], None, :] - means[senone[part]]
            np.square(quad, out=quad)
            quad *= precisions[senone[part]]
            comp = quad.sum(axis=-1)
            comp += offsets[senone[part]]
            exact = np.argsort(comp, axis=-1)[:, ::-1][:, :g]
            shortlist[word[part], senone[part]] = exact
    return shortlist


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
