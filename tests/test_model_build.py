"""The model build computes its distance grids a block of rows at a
time (``repro.hmm.train.row_blocks``): k-means finds each row's nearest
centroid through a GEMM prefilter plus an exact recheck, the VQ
shortlists come from one product per block plus an exact recheck, and
EM's E step scores a block of frames at a time.  These tests hold
k-means, the shortlists and the GMM fit to the one-shot broadcast
formulas they replaced, bit for bit, at several block sizes and on data
built to break the products' bounds, and bound the build's peak
memory."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hmm.train as train
from repro.decoder.fast_gmm import FastGmmConfig, FastGmmModel
from repro.hmm.gaussian import VARIANCE_FLOOR
from repro.hmm.senone import SenonePool
from repro.hmm.train import fit_gmm, kmeans, row_blocks


def _kmeans_one_shot(frames, k, rng, iterations=10):
    """The oracle: k-means whose Lloyd step broadcasts the whole
    ``(n, k, L)`` grid at once (same seeding, same rng draws)."""
    data = np.asarray(frames, dtype=np.float64)
    n = data.shape[0]
    first = int(rng.integers(n))
    seeds = [data[first]]
    d2 = ((data - seeds[0]) ** 2).sum(axis=1)
    while len(seeds) < min(k, n):
        total = d2.sum()
        if total <= 0:
            seeds.append(data[int(rng.integers(n))])
        else:
            seeds.append(data[int(rng.choice(n, p=d2 / total))])
        d2 = np.minimum(d2, ((data - seeds[-1]) ** 2).sum(axis=1))
    centroids = np.array(seeds)
    if centroids.shape[0] < k:
        reps = rng.choice(n, size=k - centroids.shape[0], replace=True)
        noise = rng.normal(0, 1e-3, (len(reps), data.shape[1]))
        centroids = np.vstack([centroids, data[reps] + noise])
    for _ in range(iterations):
        d2 = ((data[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1)
        for j in range(k):
            members = data[assign == j]
            if members.shape[0] == 0:
                centroids[j] = data[d2.min(axis=1).argmax()]
            else:
                centroids[j] = members.mean(axis=0)
    return centroids


def _shortlist_one_shot(model):
    """The oracle: every codeword's component densities as ONE
    ``(C, N, M, L)`` broadcast, then the top ``g`` per (codeword, senone)."""
    pool = model.pool
    diff = model.codebook[:, None, None, :] - pool.means[None]
    comp = (diff * diff * model.precisions[None]).sum(axis=-1) + model.offsets[None]
    g = min(model.config.gs_shortlist, pool.num_components)
    return np.argsort(comp, axis=-1)[..., ::-1][..., :g]


def _fit_gmm_one_shot(frames, k, rng, iterations=8):
    """The oracle: EM whose E step broadcasts the whole ``(n, k, L)``
    grid at once (same k-means start)."""
    data = np.asarray(frames, dtype=np.float64)
    n, dim = data.shape
    means = kmeans(data, k, rng)
    variances = np.tile(np.maximum(data.var(axis=0), VARIANCE_FLOOR), (k, 1))
    weights = np.full(k, 1.0 / k)
    for _ in range(iterations):
        prec = -0.5 / variances
        norm = -0.5 * (dim * np.log(2 * np.pi) + np.log(variances).sum(axis=1))
        diff = data[:, None, :] - means[None]
        comp = (diff * diff * prec[None]).sum(axis=2) + norm[None] + np.log(weights)[None]
        peak = comp.max(axis=1, keepdims=True)
        resp = np.exp(comp - peak)
        resp /= resp.sum(axis=1, keepdims=True)
        counts = resp.sum(axis=0)
        nonempty = counts > 1e-8
        safe_counts = np.where(nonempty, counts, 1.0)
        new_means = (resp.T @ data) / safe_counts[:, None]
        sq = (resp.T @ (data * data)) / safe_counts[:, None]
        new_vars = np.maximum(sq - new_means**2, VARIANCE_FLOOR)
        means = np.where(nonempty[:, None], new_means, means)
        variances = np.where(nonempty[:, None], new_vars, variances)
        weights = np.maximum(counts / n, train._WEIGHT_FLOOR)
        weights /= weights.sum()
    return means, variances, weights


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# One row per block, ragged multi-row blocks, and the shipped size.
BLOCKS = [1, 500, train.GRID_BLOCK_ELEMENTS]


@pytest.fixture(params=BLOCKS, ids=lambda b: f"block{b}")
def block(request, monkeypatch):
    monkeypatch.setattr(train, "GRID_BLOCK_ELEMENTS", request.param)
    return request.param


@pytest.fixture()
def pool():
    return SenonePool.random(50, num_components=4, dim=13,
                             rng=np.random.default_rng(21))


class TestRowBlocks:
    @pytest.mark.parametrize("rows,per_row", [(0, 5), (1, 5), (10, 3), (7, 10**9)])
    def test_blocks_tile_the_rows_in_order(self, block, rows, per_row):
        covered = [i for s in row_blocks(rows, per_row) for i in range(rows)[s]]
        assert covered == list(range(rows))

    def test_block_temporaries_fit_the_budget(self, block):
        for s in row_blocks(100, 7):
            assert (s.stop - s.start) * 7 <= max(block, 7)


class TestKmeansBits:
    @pytest.mark.parametrize("n,k,dim", [(300, 16, 13), (40, 3, 39), (5, 8, 2)])
    def test_blocked_matches_one_shot(self, block, n, k, dim):
        """(5, 8, 2) is a codebook larger than the data."""
        data = np.random.default_rng(n).normal(size=(n, dim))
        got = kmeans(data, k, np.random.default_rng(4), iterations=6)
        want = _kmeans_one_shot(data, k, np.random.default_rng(4), iterations=6)
        assert _same_bits(got, want)

    def test_empty_cluster_reseed_matches_one_shot(self, block):
        """Duplicate points leave clusters empty: the farthest-point
        re-seed reads the whole distance grid."""
        data = np.repeat(np.random.default_rng(2).normal(size=(4, 3)), 10, axis=0)
        got = kmeans(data, 7, np.random.default_rng(9))
        want = _kmeans_one_shot(data, 7, np.random.default_rng(9))
        assert _same_bits(got, want)


def _adversarial(kind, n, dim, seed):
    """``n x dim`` frames of one adversarial family, most of them far
    from the origin, where ``|x|^2 + |c|^2 - 2 x.c`` cancels ~8 digits
    and its rounding swamps a near tie."""
    rng = np.random.default_rng(seed)
    offset = rng.choice([0.0, 1e3, 1e4])
    if kind == "offset":  # at 1e8 the rounding is as large as the distances
        return rng.normal(size=(n, dim)) + rng.choice([1e4, 1e6, 1e8])
    if kind == "duplicates":  # few distinct points: exact ties between
        # equal centroids (whose products may round apart), empty clusters
        points = rng.normal(size=(max(1, n // 4), dim))
        return points[rng.integers(points.shape[0], size=n)] + offset
    if kind == "lattice":  # a non-dyadic grid: ties that round unevenly
        return rng.integers(-2, 3, size=(n, dim)) * 0.1 + offset
    # mirror: +p, -p and 0 rows: a 0 row ties between the seeds +p and -p
    half = rng.normal(size=((n + 1) // 2, dim))
    return np.vstack([half, -half, np.zeros((1, dim))])[:n] + offset


class TestKmeansAdversarial:
    """The prefilter keeps every centroid that could be the exact minimum,
    so k-means equals the one-shot grid bit for bit whatever the data."""

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(["offset", "duplicates", "lattice", "mirror"]),
        n=st.integers(1, 40),
        dim=st.integers(1, 6),
        k=st.integers(1, 12),
        seed=st.integers(0, 2**16),
        block=st.sampled_from(BLOCKS),
    )
    def test_equals_the_one_shot_grid(self, kind, n, dim, k, seed, block):
        data = _adversarial(kind, n, dim, seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(train, "GRID_BLOCK_ELEMENTS", block)
            got = kmeans(data, k, np.random.default_rng(seed), iterations=4)
        want = _kmeans_one_shot(data, k, np.random.default_rng(seed), iterations=4)
        assert _same_bits(got, want)

    @pytest.mark.parametrize("n,k", [(1, 1), (1, 5), (7, 1), (6, 9)])
    def test_degenerate_shapes(self, block, n, k):
        """One frame, one centroid, more centroids than frames."""
        data = _adversarial("offset", n, 3, n + k)
        got = kmeans(data, k, np.random.default_rng(k))
        want = _kmeans_one_shot(data, k, np.random.default_rng(k))
        assert _same_bits(got, want)


class TestShortlistBits:
    @pytest.mark.parametrize("shortlist", [1, 2])
    def test_means_as_training_data(self, block, pool, shortlist):
        cfg = FastGmmConfig(gaussian_selection_enabled=True, gs_codebook_size=16,
                            gs_shortlist=shortlist)
        model = FastGmmModel(pool, config=cfg)
        data = pool.means.reshape(-1, pool.dim)
        want = _kmeans_one_shot(data, 16, np.random.default_rng(11), iterations=6)
        assert _same_bits(model.codebook, want)
        assert _same_bits(model.shortlist, _shortlist_one_shot(model))

    @pytest.mark.parametrize("shortlist", [1, 2])
    def test_given_codebook_data(self, block, pool, shortlist):
        data = np.random.default_rng(6).normal(0.0, 3.0, size=(400, pool.dim))
        cfg = FastGmmConfig(gaussian_selection_enabled=True, gs_codebook_size=32,
                            gs_shortlist=shortlist)
        model = FastGmmModel(pool, config=cfg, codebook_data=data, seed=3)
        want = _kmeans_one_shot(data, 32, np.random.default_rng(3), iterations=6)
        assert _same_bits(model.codebook, want)
        assert _same_bits(model.shortlist, _shortlist_one_shot(model))

    def test_codebook_larger_than_the_data(self, block, pool):
        """64 codewords asked of 20 frames: the codebook is the 20."""
        data = np.random.default_rng(8).normal(size=(20, pool.dim))
        cfg = FastGmmConfig(gaussian_selection_enabled=True, gs_shortlist=2)
        model = FastGmmModel(pool, config=cfg, codebook_data=data)
        assert model.codebook.shape == (20, pool.dim)
        assert _same_bits(model.shortlist, _shortlist_one_shot(model))

    def test_shortlist_wider_than_the_mixture(self, block, pool):
        cfg = FastGmmConfig(gaussian_selection_enabled=True, gs_shortlist=9)
        model = FastGmmModel(pool, config=cfg)
        assert model.components_per_item == pool.num_components
        assert _same_bits(model.shortlist, _shortlist_one_shot(model))


def _adversarial_pool(kind, n, m, dim, seed):
    """An ``n x m x dim`` pool of one adversarial family: components
    whose densities tie exactly or nearly at some codeword, which is
    where the product's rounding could flip the shortlist order."""
    rng = np.random.default_rng(seed)
    far = rng.choice([0.0, 1e3, 1e5])  # |c|^2-sized terms cancel ~10 digits
    means = rng.normal(0.0, 2.0, size=(n, m, dim)) + far
    variances = np.exp(rng.uniform(-1.0, 1.0, size=(n, m, dim)))
    weights = rng.uniform(0.5, 1.5, size=(n, m))
    if kind == "duplicates":  # exact copies of one component: exact ties
        copy = rng.integers(m, size=m)
        means, variances, weights = means[:, copy], variances[:, copy], weights[:, copy]
    elif kind == "ulp":  # each component one ulp above the previous one
        for j in range(1, m):
            means[:, j] = np.nextafter(means[:, j - 1], np.inf)
        variances[:] = variances[:, :1]
        weights[:] = weights[:, :1]
    elif kind == "zero_weights":  # log 0 = -inf offsets, tied among themselves
        weights[:, rng.integers(m, size=m) > 0] = 0.0
        weights[:, 0] = 1.0
    elif kind == "variances":  # the floor and 1e6, mixed per dimension
        variances = rng.choice([VARIANCE_FLOOR, 1e6], size=(n, m, dim))
    return SenonePool(means, variances, weights / weights.sum(axis=1, keepdims=True))


class TestShortlistAdversarial:
    """The product path rechecks every (codeword, senone) whose order the
    rounding bound leaves in doubt, so the shortlists equal the one-shot
    grid's bit for bit whatever the pool."""

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["duplicates", "ulp", "zero_weights", "variances", "plain"]),
        n=st.integers(1, 12),
        m=st.integers(1, 5),
        dim=st.integers(1, 6),
        codewords=st.integers(1, 9),
        shortlist=st.sampled_from(["1", "2", "M", "M+1"]),
        given_data=st.booleans(),
        seed=st.integers(0, 2**16),
        block=st.sampled_from(BLOCKS),
    )
    def test_equals_the_one_shot_grid(
        self, kind, n, m, dim, codewords, shortlist, given_data, seed, block
    ):
        pool = _adversarial_pool(kind, n, m, dim, seed)
        g = {"1": 1, "2": 2, "M": m, "M+1": m + 1}[shortlist]
        data = None
        if given_data:  # frames at the means themselves and around them
            rng = np.random.default_rng(seed + 1)
            rows = pool.means.reshape(-1, dim)
            data = np.vstack([rows, rows[rng.integers(rows.shape[0], size=8)]
                              + rng.normal(0.0, 0.5, size=(8, dim))])
        cfg = FastGmmConfig(gaussian_selection_enabled=True,
                            gs_codebook_size=codewords, gs_shortlist=g)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(train, "GRID_BLOCK_ELEMENTS", block)
            model = FastGmmModel(pool, config=cfg, codebook_data=data, seed=seed)
        assert _same_bits(model.shortlist, _shortlist_one_shot(model))


class TestFitGmmBits:
    @pytest.mark.parametrize("n,k,dim", [(300, 4, 13), (40, 3, 39), (7, 2, 3)])
    def test_blocked_matches_one_shot(self, block, n, k, dim):
        data = np.random.default_rng(n).normal(size=(n, dim)) * [3.0] + 1.0
        got = fit_gmm(data, k, np.random.default_rng(2), iterations=4)
        want = _fit_gmm_one_shot(data, k, np.random.default_rng(2), iterations=4)
        assert _same_bits(got.means, want[0])
        assert _same_bits(got.variances, want[1])
        assert _same_bits(got.weights, want[2])


def test_build_peak_memory_is_bounded():
    """64 codewords x 1000 senones x 3 components x 39 dims (the
    ``bank_tree`` model): the one-shot grid alone was 60 MB."""
    pool = SenonePool.random(1000, num_components=3, dim=39,
                             rng=np.random.default_rng(5))
    cfg = FastGmmConfig.all_layers(ci_selection_enabled=False)
    tracemalloc.start()
    try:
        model = FastGmmModel(pool, config=cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"model build peaked at {peak / 2**20:.1f} MB"
    assert _same_bits(model.shortlist, _shortlist_one_shot(model))


def test_kmeans_holds_no_row_by_centroid_grid():
    """40 000 x 39 frames, 64 centroids: the whole ``(n, k)`` distance
    grid alone is 20.5 MB, twice the bound; the prefilter holds a block
    of it at a time (2 MB per temporary) beside ``(n,)`` vectors."""
    n, k = 40_000, 64
    data = np.random.default_rng(12).normal(size=(n, 39))
    tracemalloc.start()
    try:
        kmeans(data, k, np.random.default_rng(1), iterations=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    grid = n * k * 8
    assert peak < grid / 2, f"k-means peaked at {peak / 2**20:.1f} MB"


def test_fit_gmm_holds_no_frame_by_component_grid():
    """40 000 x 39 frames, 4 components (the global fallback fit's
    shape at a few thousand utterances): one ``(n, k, L)`` grid is
    50 MB and the one-shot E step held three; the blocked one holds a
    block of it at a time beside ``(n, k)`` and ``(n, L)`` arrays."""
    n, k, dim = 40_000, 4, 39
    data = np.random.default_rng(13).normal(size=(n, dim))
    tracemalloc.start()
    try:
        fit_gmm(data, k, np.random.default_rng(1), iterations=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    grid = n * k * dim * 8
    assert peak < grid / 2, f"fit_gmm peaked at {peak / 2**20:.1f} MB"
