"""Tests for repro.hmm.senone — the senone pool."""

import numpy as np
import pytest

from repro.decoder.scorer import BLAS_SCORE_ATOL
from repro.hmm.senone import SenonePool, fold_exact
from repro.quant.float_formats import IEEE_SINGLE, MANTISSA_12, MANTISSA_15


class TestValidation:
    def test_shape_checks(self, rng):
        means = rng.normal(size=(4, 2, 3))
        with pytest.raises(ValueError):
            SenonePool(means, np.ones((4, 2, 2)), np.full((4, 2), 0.5))
        with pytest.raises(ValueError):
            SenonePool(means, np.ones((4, 2, 3)), np.full((4, 3), 0.5))

    def test_weight_normalization_required(self, rng):
        means = rng.normal(size=(2, 2, 3))
        with pytest.raises(ValueError):
            SenonePool(means, np.ones((2, 2, 3)), np.full((2, 2), 0.3))

    def test_negative_weights_rejected(self, rng):
        means = rng.normal(size=(1, 2, 3))
        weights = np.array([[1.5, -0.5]])
        with pytest.raises(ValueError):
            SenonePool(means, np.ones((1, 2, 3)), weights)


class TestScoring:
    def test_matches_mixture_view(self, small_pool, rng):
        obs = rng.normal(size=small_pool.dim)
        scores = small_pool.score_frame(obs)
        for senone in (0, 7, 23):
            gmm = small_pool.mixture(senone)
            assert float(gmm.log_prob(obs)) == pytest.approx(float(scores[senone]))

    def test_subset_scoring(self, small_pool, rng):
        obs = rng.normal(size=small_pool.dim)
        subset = np.array([2, 9])
        scores = small_pool.score_frame(obs, subset)
        assert np.isneginf(scores[0])
        full = small_pool.score_frame(obs)
        assert scores[2] == pytest.approx(full[2])

    def test_wrong_dim_rejected(self, small_pool):
        with pytest.raises(ValueError):
            small_pool.score_frame(np.zeros(small_pool.dim + 1))
        with pytest.raises(ValueError):
            small_pool.score_frame(np.zeros((1, small_pool.dim)))

    @pytest.mark.parametrize(
        "shape", [(), ("dim", 1), (2, "dim")], ids=["scalar", "column", "two_rows"]
    )
    def test_non_vector_observation_rejected(self, small_pool, shape):
        """Only a ``(dim,)`` frame is a one-row block."""
        shape = tuple(small_pool.dim if n == "dim" else n for n in shape)
        with pytest.raises(ValueError):
            small_pool.score_frame(np.zeros(shape))

    def test_bit_equal_to_one_row_score_pairs(self, small_pool, rng):
        obs = rng.normal(size=small_pool.dim)
        subset = np.array([3, 0, 17, 23])
        pairs = small_pool.score_pairs(obs[None], np.zeros_like(subset), subset)
        scores = small_pool.score_frame(obs, subset)
        assert np.array_equal(scores[subset].view(np.uint64), pairs.view(np.uint64))
        full = small_pool.score_frame(obs)
        assert np.array_equal(full[subset].view(np.uint64), pairs.view(np.uint64))

    @pytest.mark.parametrize("senone", [-1, "num_senones"])
    def test_out_of_range_senone_rejected(self, small_pool, senone):
        """A negative senone must not wrap onto senone N - 1."""
        if senone == "num_senones":
            senone = small_pool.num_senones
        with pytest.raises(IndexError):
            small_pool.score_frame(np.zeros(small_pool.dim), [senone])

    def test_mixture_out_of_range(self, small_pool):
        with pytest.raises(IndexError):
            small_pool.mixture(small_pool.num_senones)


class TestExactFold:
    """``fold_exact`` against the two spellings it replaced: the
    reference family's in-place fold and the fast family's expression
    (with its one-term shortcut)."""

    @staticmethod
    def _reference_fold(comp):
        peak = comp.max(axis=-1)
        np.subtract(comp, peak[:, None], out=comp)
        np.exp(comp, out=comp)
        acc = comp.sum(axis=-1)
        np.log(acc, out=acc)
        np.add(peak, acc, out=acc)
        return acc

    @staticmethod
    def _fast_fold(comp):
        if comp.shape[-1] == 1:
            return comp[:, 0]
        peak = comp.max(axis=-1)
        return peak + np.log(np.exp(comp - peak[:, None]).sum(axis=-1))

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 8, 9, 16])
    def test_bit_equal_to_both_replaced_spellings(self, rng, m):
        comp = rng.normal(-80.0, 40.0, size=(300, m))
        comp[:40, 0] = -np.inf  # zero-weight components
        comp[40:60, m // 2] = -np.inf
        comp[:10, m - 1] = 0.0
        comp[10:20] = -60.0  # ties
        folded = fold_exact(comp.copy())
        np.testing.assert_array_equal(folded, self._fast_fold(comp.copy()))
        if m > 1:
            np.testing.assert_array_equal(folded, self._reference_fold(comp.copy()))

    def test_score_pairs_matches_the_mixture_oracle_at_every_count(self, rng):
        for m in (1, 3, 8):
            pool = SenonePool.random(9, num_components=m, dim=5, rng=rng)
            obs = rng.normal(size=(2, 5))
            rows, senones = np.repeat([0, 1], 9), np.tile(np.arange(9), 2)
            scores = pool.score_pairs(obs, rows, senones)
            expected = [pool.mixture(s).log_prob(obs[r]) for r, s in zip(rows, senones)]
            np.testing.assert_allclose(scores, expected, rtol=1e-12)


class TestBlasScoring:
    def test_tables_are_senone_major_contiguous(self, small_pool):
        tables = small_pool.blas_tables()
        n, m, dim = (
            small_pool.num_senones, small_pool.num_components, small_pool.dim
        )
        # ONE table, [-p/2 | mu' p | const'] per (senone, mixture) row.
        assert tables.table.shape == (n * m, 2 * dim + 1)
        assert tables.table.flags["C_CONTIGUOUS"]
        assert tables.centre.shape == (dim,)
        np.testing.assert_allclose(
            tables.centre, small_pool.means.reshape(n * m, dim).mean(axis=0)
        )
        # Senone-major: row s * M + k is mixture component k of senone s.
        precision = 1.0 / small_pool.variances[5, 2]
        row = tables.table[5 * m + 2]
        np.testing.assert_allclose(row[:dim], -0.5 * precision)
        np.testing.assert_allclose(
            row[dim:-1], (small_pool.means[5, 2] - tables.centre) * precision
        )
        assert small_pool.blas_tables() is tables  # cached

    def test_full_block_matches_gathered_scores(self, small_pool, rng):
        frames = rng.normal(size=(4, small_pool.dim))
        dense = small_pool.score_block_blas(frames)
        n = small_pool.num_senones
        gathered = small_pool.score_pairs(
            frames, np.repeat(np.arange(4), n), np.tile(np.arange(n), 4)
        ).reshape(4, n)
        np.testing.assert_allclose(dense, gathered, atol=1e-9)

    def test_subset_block_matches_full_columns(self, small_pool, rng):
        frames = rng.normal(size=(3, small_pool.dim))
        subset = np.array([1, 5, 9, 20])
        dense = small_pool.score_block_blas(frames, subset)
        full = small_pool.score_block_blas(frames)
        # Same dot products; gathered vs full matrices may block
        # differently inside BLAS, so compare to rounding only.
        np.testing.assert_allclose(dense, full[:, subset], rtol=0, atol=1e-10)

    @pytest.mark.parametrize("components", [2, 4])
    @pytest.mark.parametrize("rows", [1, 7, 32])
    def test_block_matches_reference_with_dead_components(self, rows, components):
        """One product per block, whatever its height, scores every
        senone as the reference does — a zero-weight component (a -inf
        constant) and an all-dead senone included."""
        rng = np.random.default_rng(rows * 10 + components)
        n, dim = 30, 13
        shape = (n, components, dim)
        weights = rng.uniform(0.5, 1.5, size=(n, components))
        weights[:, 1] = 0.0  # one zero-weight component per senone
        pool = SenonePool(
            rng.normal(0.0, 3.0, size=shape),
            rng.uniform(0.3, 2.0, size=shape),
            weights / weights.sum(axis=1, keepdims=True),
        )
        dead = 4  # no component left alive: -inf in all its rows' constants
        table = pool.blas_tables().table
        table[dead * components : (dead + 1) * components, -1] = -np.inf
        obs = rng.normal(0.0, 2.0, size=(rows, dim))
        block = pool.score_block_blas(obs)
        expected = pool.score_pairs(
            obs, np.repeat(np.arange(rows), n), np.tile(np.arange(n), rows)
        ).reshape(rows, n)
        expected[:, dead] = -np.inf
        assert block.shape == (rows, n) and not np.isnan(block).any()
        np.testing.assert_allclose(block, expected, rtol=0.0, atol=BLAS_SCORE_ATOL)

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    @pytest.mark.parametrize("senones", [None, [3, 1, 8], []])
    def test_out_receives_the_same_bits(self, small_pool, rng, precision, senones):
        frames = rng.normal(size=(5, small_pool.dim))
        fresh = small_pool.score_block_blas(frames, senones, precision=precision)
        out = np.full(fresh.shape, np.nan)
        got = small_pool.score_block_blas(frames, senones, precision=precision, out=out)
        assert got is out and np.array_equal(out, fresh)
        for wrong in (np.empty((5, fresh.shape[1] + 1)), fresh.astype(np.float32)):
            with pytest.raises(ValueError, match="out must be float64"):
                small_pool.score_block_blas(frames, senones, precision=precision, out=wrong)

    def test_empty_subset(self, small_pool, rng):
        out = small_pool.score_block_blas(
            rng.normal(size=(2, small_pool.dim)), np.empty(0, np.int64)
        )
        assert out.shape == (2, 0)

    def test_validation(self, small_pool):
        with pytest.raises(ValueError):
            small_pool.score_block_blas(np.zeros((2, small_pool.dim + 1)))
        with pytest.raises(IndexError):
            small_pool.score_block_blas(
                np.zeros((1, small_pool.dim)),
                np.array([small_pool.num_senones]),
            )


class TestStorage:
    def test_paper_full_scale_size(self):
        """6000 senones x 8 comp x 39 dims = 15.168 MB (Section IV-B)."""
        pool = SenonePool.random(10, 8, 39)  # layout only; scale the count
        per_senone = pool.values_per_senone
        assert per_senone == 8 * (2 * 39 + 1)
        full_bytes = IEEE_SINGLE.storage_bytes(6000 * per_senone)
        assert full_bytes / 1e6 == pytest.approx(15.168)

    def test_storage_scales_with_format(self, small_pool):
        full = small_pool.storage_bytes(IEEE_SINGLE)
        assert small_pool.storage_bytes(MANTISSA_15) == pytest.approx(full * 24 / 32)
        assert small_pool.storage_bytes(MANTISSA_12) == pytest.approx(full * 21 / 32)

    def test_gaussian_table_quantized_params(self, small_pool):
        table = small_pool.gaussian_table(MANTISSA_12)
        bits = table.means.view(np.uint32)
        assert not np.any(bits & np.uint32((1 << 11) - 1))
        assert table.storage_format is MANTISSA_12

    def test_quantized_pool_scores_close(self, small_pool, rng):
        obs = rng.normal(size=small_pool.dim)
        exact = small_pool.score_frame(obs)
        quantized = small_pool.quantized(MANTISSA_12).score_frame(obs)
        assert np.max(np.abs(exact - quantized)) < 0.5

    def test_quantized_pool_weights_renormalized(self, small_pool):
        q = small_pool.quantized(MANTISSA_12)
        assert np.allclose(q.weights.sum(axis=1), 1.0)


class TestRandomPool:
    def test_deterministic_with_seed(self):
        a = SenonePool.random(5, 2, 7, rng=np.random.default_rng(3))
        b = SenonePool.random(5, 2, 7, rng=np.random.default_rng(3))
        assert np.array_equal(a.means, b.means)

    def test_shapes(self):
        pool = SenonePool.random(11, 3, 5)
        assert pool.num_senones == 11
        assert pool.num_components == 3
        assert pool.dim == 5
