"""Full-grid senone demand, end to end.

With ``use_feedback=False`` every active lane asks for every senone on
every frame (the paper's worst-case-bandwidth regime).  The bank builds
that grid from its active-lane set, the blas scorer recognizes it
EXACTLY (never from the pair count alone) and answers with the dense
block, and the mixture fold behind it folds the component planes
pairwise through one fused ``max + log1p(exp(-|a - b|))``.  Each piece
is pinned here against the kernels it must agree with.
"""

import numpy as np
import pytest

from repro.core.logadd import LOG_ZERO
from repro.decoder.recognizer import Recognizer
from repro.decoder.scorer import BLAS_SCORE_ATOL, FLOAT32_SCORE_ATOL
from repro.decoder.word_decode import DecoderConfig
import repro.hmm.senone as senone_module
from repro.hmm.senone import SenonePool, _fold_components
from repro.runtime.scoring import MIN_PAIRS, BatchBlasScorer

BLOCK_ROWS = 8


@pytest.fixture(scope="module")
def pool():
    """Two components per senone: the fused fold's case."""
    return SenonePool.random(
        40, num_components=2, dim=13, rng=np.random.default_rng(5)
    )


def _grid(rows, num_senones):
    rows = np.asarray(rows, dtype=np.int64)
    return (
        np.repeat(rows, num_senones),
        np.tile(np.arange(num_senones), rows.size),
    )


class TestFullGridScorer:
    @pytest.mark.parametrize("rows", [[3], [0, 2, 5], list(range(BLOCK_ROWS))])
    @pytest.mark.parametrize(
        "precision, atol",
        [("float64", BLAS_SCORE_ATOL), ("float32", FLOAT32_SCORE_ATOL)],
    )
    def test_ragged_active_set_is_served_as_the_dense_block(
        self, pool, rng, spy_block_unions, rows, precision, atol
    ):
        scorer = BatchBlasScorer(pool, precision=precision)
        unions = spy_block_unions(pool)
        obs = rng.normal(0.0, 2.0, size=(BLOCK_ROWS, pool.dim))
        pair_rows, pair_senones = _grid(rows, pool.num_senones)
        out = scorer.score_pairs(obs, pair_rows, pair_senones)
        assert unions == [None]  # whole tables, nothing gathered
        assert scorer.dense_steps == 1 and scorer.fallback_steps == 0
        assert out.dtype == np.float64 and out.shape == pair_rows.shape
        np.testing.assert_allclose(
            out, pool.score_pairs(obs, pair_rows, pair_senones), atol=atol
        )

    def _near_misses(self, num_senones):
        pair_rows, pair_senones = _grid([0, 2, 5], num_senones)
        drop = num_senones + 7  # a pair in the middle of row 2
        short = np.delete(pair_rows, drop), np.delete(pair_senones, drop)
        # The right COUNT, but one pair replaced by a copy of its neighbour.
        dup_rows, dup_senones = pair_rows.copy(), pair_senones.copy()
        dup_rows[drop], dup_senones[drop] = dup_rows[drop - 1], dup_senones[drop - 1]
        swap_rows, swap_senones = pair_rows.copy(), pair_senones.copy()
        swap_senones[[3, 4]] = swap_senones[[4, 3]]
        return {
            "one pair short": short,
            "one pair duplicated": (dup_rows, dup_senones),
            "two pairs swapped": (swap_rows, swap_senones),
        }

    @pytest.mark.parametrize(
        "case", ["one pair short", "one pair duplicated", "two pairs swapped"]
    )
    def test_near_miss_takes_the_general_path(self, pool, rng, spy_block_unions, case):
        scorer = BatchBlasScorer(pool)
        unions = spy_block_unions(pool)
        obs = rng.normal(0.0, 2.0, size=(BLOCK_ROWS, pool.dim))
        pair_rows, pair_senones = self._near_misses(pool.num_senones)[case]
        out = scorer.score_pairs(obs, pair_rows, pair_senones)
        assert len(unions) == 1 and unions[0] is not None  # the union block
        np.testing.assert_allclose(
            out, pool.score_pairs(obs, pair_rows, pair_senones), atol=BLAS_SCORE_ATOL
        )

    def test_rows_outside_the_block_are_not_a_grid(self, pool, rng):
        scorer = BatchBlasScorer(pool)
        obs = rng.normal(0.0, 2.0, size=(3, pool.dim))
        for rows in ([-1], [1, 3], [2, 1]):
            pair_rows, pair_senones = _grid(rows, pool.num_senones)
            if min(rows) < 0 or max(rows) >= 3:
                with pytest.raises(IndexError, match="row out of range"):
                    scorer.score_pairs(obs, pair_rows, pair_senones)
            else:  # descending rows: valid items, just not np.nonzero order
                np.testing.assert_allclose(
                    scorer.score_pairs(obs, pair_rows, pair_senones),
                    pool.score_pairs(obs, pair_rows, pair_senones),
                    atol=BLAS_SCORE_ATOL,
                )


#: Items per row of a two-row demand, keyed by the kernel it would
#: reach: 0 = the products (MIN_PAIRS items), 10**6 = the gathered one
#: (fewer).  The keys are the ids these cases have always run under.
PER_ROW = {0: MIN_PAIRS // 2, 10**6: MIN_PAIRS // 4}


class TestEveryKernelRefusesTheSameInput:
    """A negative row used to wrap onto ANOTHER lane's frame under the
    dense kernel while the gathered kernel raised."""

    @pytest.mark.parametrize("kernel", PER_ROW)
    def test_negative_row_raises_whichever_kernel_serves(
        self, small_pool, rng, kernel
    ):
        scorer = BatchBlasScorer(small_pool)
        obs = rng.normal(0.0, 1.0, size=(3, small_pool.dim))
        per_row = PER_ROW[kernel]
        rows = np.repeat([0, -1], per_row)
        senones = np.tile(np.arange(per_row), 2)
        with pytest.raises(IndexError, match="pair feature row out of range"):
            scorer.score_pairs(obs, rows, senones)
        assert scorer.dense_steps == 0 and scorer.fallback_steps == 0

    @pytest.mark.parametrize("kernel", PER_ROW)
    @pytest.mark.parametrize("bad", [-1, 24])
    def test_senone_out_of_range_raises(self, small_pool, rng, kernel, bad):
        scorer = BatchBlasScorer(small_pool)
        obs = rng.normal(0.0, 1.0, size=(2, small_pool.dim))
        per_row = PER_ROW[kernel]
        rows = np.repeat([0, 1], per_row)
        senones = np.tile(np.arange(per_row), 2)
        senones[5] = bad
        with pytest.raises(IndexError, match="pair senone index out of range"):
            scorer.score_pairs(obs, rows, senones)


class TestOnlyTheSameFrozenObjectsSkipValidation:
    """A bank's feedback-off grid is the same two read-only arrays every
    step; the scorer may remember that THOSE OBJECTS passed.  Anything
    else is validated exactly as before."""

    @pytest.fixture()
    def checks(self, pool, monkeypatch):
        """Calls of ``pool.check_pairs`` from here on."""
        calls = []
        original = pool.check_pairs

        def spy(observations, pair_rows, pair_senones):
            calls.append(pair_rows)
            return original(observations, pair_rows, pair_senones)

        monkeypatch.setattr(pool, "check_pairs", spy)
        return calls

    @staticmethod
    def _frozen_grid(rows, num_senones):
        rows = np.asarray(rows, dtype=np.int64)
        pairs = (
            np.repeat(rows, num_senones),
            np.arange(rows.size * num_senones) % num_senones,
        )
        for array in pairs:
            array.setflags(write=False)
        return pairs

    def test_same_read_only_objects_are_validated_once(self, pool, rng, checks):
        scorer = BatchBlasScorer(pool)
        obs = rng.normal(0.0, 2.0, size=(BLOCK_ROWS, pool.dim))
        grid = self._frozen_grid([0, 2, 5], pool.num_senones)
        first = scorer.score_pairs(obs, *grid)
        again = scorer.score_pairs(obs, *grid)
        assert len(checks) == 1 and scorer.dense_steps == 2
        np.testing.assert_array_equal(first, again)

    def test_writeable_copy_is_validated_every_time(self, pool, rng, checks):
        scorer = BatchBlasScorer(pool)
        obs = rng.normal(0.0, 2.0, size=(BLOCK_ROWS, pool.dim))
        grid = _grid([0, 2, 5], pool.num_senones)
        assert all(array.flags.writeable for array in grid)
        for _ in range(3):
            scorer.score_pairs(obs, *grid)
        assert len(checks) == 3

    def test_equal_but_distinct_read_only_pair_is_validated(self, pool, rng, checks):
        scorer = BatchBlasScorer(pool)
        obs = rng.normal(0.0, 2.0, size=(BLOCK_ROWS, pool.dim))
        grid = self._frozen_grid([0, 2, 5], pool.num_senones)
        twin = self._frozen_grid([0, 2, 5], pool.num_senones)
        scorer.score_pairs(obs, *grid)
        scorer.score_pairs(obs, *twin)
        scorer.score_pairs(obs, grid[0], twin[1])  # half of each
        assert len(checks) == 3

    def test_read_only_view_of_a_writeable_array_is_validated(self, pool, rng, checks):
        scorer = BatchBlasScorer(pool)
        obs = rng.normal(0.0, 2.0, size=(BLOCK_ROWS, pool.dim))
        base = _grid([1], pool.num_senones)
        views = tuple(array[:] for array in base)
        for view in views:
            view.setflags(write=False)
        scorer.score_pairs(obs, *views)
        base[0][:] = -1  # the view changed under its read-only flag
        with pytest.raises(IndexError, match="pair feature row out of range"):
            scorer.score_pairs(obs, *views)
        assert len(checks) == 2

    def test_remembered_grid_edited_after_unfreezing_is_refused(self, pool, rng, checks):
        scorer = BatchBlasScorer(pool)
        obs = rng.normal(0.0, 2.0, size=(BLOCK_ROWS, pool.dim))
        grid = self._frozen_grid([0, 1], pool.num_senones)
        scorer.score_pairs(obs, *grid)
        grid[0].setflags(write=True)
        grid[0][-1] = -1
        with pytest.raises(IndexError, match="pair feature row out of range"):
            scorer.score_pairs(obs, *grid)

    def test_remembered_grid_still_checks_the_observation_block(self, pool, rng):
        scorer = BatchBlasScorer(pool)
        obs = rng.normal(0.0, 2.0, size=(BLOCK_ROWS, pool.dim))
        grid = self._frozen_grid([0, 2, 5], pool.num_senones)
        scorer.score_pairs(obs, *grid)
        with pytest.raises(IndexError, match="pair feature row out of range"):
            scorer.score_pairs(obs[:5], *grid)  # row 5 is not in the block
        with pytest.raises(ValueError, match="observations must be"):
            scorer.score_pairs(obs[:, :-1], *grid)
        assert scorer.dense_steps == 1

    def test_bank_hands_out_its_grid_frozen_and_is_validated_once(
        self, task, monkeypatch
    ):
        rec = _recognizer(task, "blas", "flat")
        calls = []
        original = rec.pool.check_pairs

        def spy(observations, pair_rows, pair_senones):
            calls.append(pair_rows)
            return original(observations, pair_rows, pair_senones)

        monkeypatch.setattr(rec.pool, "check_pairs", spy)
        feats = [u.features[:40] for u in task.corpus.test[:2]]
        out = rec.decode_stream(feats, max_lanes=2)
        assert out.steps == 40 == rec.scorer.dense_steps
        assert len(calls) == 1  # one lane set, one validation
        assert not calls[0].flags.writeable and calls[0].flags.owndata


class TestFusedFold:
    def test_matches_logaddexp_on_random_items_and_wide_gaps(self, rng):
        items = rng.normal(0.0, 300.0, size=(6, 500, 2))
        items[0, :4] = [[0.0, -800.0], [-900.0, 5.0], [-np.inf, 3.0], [7.0, 7.0]]
        expected = np.logaddexp(items[..., 0], items[..., 1])
        assert (np.abs(items[..., 0] - items[..., 1]) > 700).any()
        np.testing.assert_allclose(
            _fold_components(items), expected, rtol=0.0, atol=1e-12
        )

    def test_all_dead_item_folds_to_minus_inf_not_nan(self):
        items = np.array([[-np.inf, -np.inf], [-np.inf, 1.0], [2.0, -np.inf]])
        with np.errstate(all="raise"):
            np.testing.assert_array_equal(
                _fold_components(items), [-np.inf, 1.0, 2.0]
            )

    def test_float32_items_keep_a_float32_fold(self, rng):
        items = rng.normal(0.0, 30.0, size=(4, 9, 2)).astype(np.float32)
        out = _fold_components(items)
        assert out.dtype == np.float32
        expected = np.logaddexp(items[..., 0], items[..., 1])
        np.testing.assert_allclose(out, expected, rtol=1e-6)

    def test_other_component_counts_reduce(self, rng):
        items = rng.normal(0.0, 30.0, size=(5, 4))
        np.testing.assert_allclose(
            _fold_components(items),
            np.logaddexp.reduce(items, axis=-1),
            rtol=0.0,
            atol=1e-12,
        )

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_every_component_count_folds_like_logaddexp_reduce(self, rng, m, dtype):
        items = rng.normal(-100.0, 30.0, size=(4, 60, m))
        items[:, :6, 0] = -np.inf  # zero-weight components
        items[:, 6:12] = items[:, 6:12, :1]  # ties
        items[:, 12:18, -1] = items[:, 12:18].max(axis=-1) + 45.0  # gaps above 40
        items[:, 18:24] = -np.inf  # all-dead items
        items = items.astype(dtype)
        expected = np.logaddexp.reduce(items.astype(np.float64), axis=-1)
        with np.errstate(all="raise"):
            folded = _fold_components(items)
            out = np.empty(items.shape[:-1], dtype=dtype)
            assert _fold_components(items, out=out) is out
        assert folded.dtype == dtype and not np.isnan(folded).any()
        np.testing.assert_array_equal(out, folded)
        assert np.isneginf(folded[:, 18:24]).all()
        if dtype == np.float64:
            np.testing.assert_allclose(folded, expected, rtol=0.0, atol=1e-12)
        else:
            np.testing.assert_allclose(folded, expected, rtol=1e-6)

    @staticmethod
    def _two_component_fold(items):
        """The two-component spelling the pairwise kernel must keep."""
        a, b = items[..., 0], items[..., 1]
        peak = np.maximum(a, b)
        out = np.minimum(a, b)
        with np.errstate(invalid="ignore"):
            out -= peak
        np.maximum(out, -40.0, out=out)
        np.exp(out, out=out)
        np.log1p(out, out=out)
        out += peak
        return np.fmax(out, peak, out=out)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_two_components_fold_bit_for_bit_as_before(self, dtype):
        items = np.random.default_rng(46).normal(-100.0, 30.0, size=(32, 2048, 2))
        items[0, :8, 0] = -np.inf
        items[1, :8] = -np.inf
        items[2, :8, 1] = items[2, :8, 0]
        items = items.astype(dtype)
        np.testing.assert_array_equal(
            _fold_components(items), self._two_component_fold(items)
        )

    def test_bank_dense_block_folds_in_one_slice(self, monkeypatch):
        slices = []
        fold_levels = senone_module._fold_levels
        monkeypatch.setattr(
            senone_module, "_fold_levels",
            lambda items, out: slices.append(items.shape) or fold_levels(items, out),
        )
        _fold_components(np.zeros((32, 2048, 2)))
        assert slices == [(32, 2048, 2)]
        slices.clear()
        _fold_components(np.zeros((32, 6000, 8)))  # the paper's pool
        assert {shape[0] for shape in slices} == {2}

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("m", [2, 3, 8])
    def test_sliced_fold_is_the_whole_fold_bit_for_bit(self, monkeypatch, m, dtype):
        items = np.random.default_rng(48).normal(-100.0, 30.0, size=(32, 2048, m))
        items[0, :8, 0] = -np.inf
        items[1, :8] = -np.inf
        items[2, :8] = items[2, :8, :1]
        items = items.astype(dtype)
        sliced = _fold_components(items)
        for budget in (1, 10**9):  # one frame per slice, one slice per block
            monkeypatch.setattr(senone_module, "FOLD_SLICE_ELEMENTS", budget)
            np.testing.assert_array_equal(_fold_components(items), sliced)

    def _zero_weight_pool(self, rng):
        shape = (30, 2, 13)
        return SenonePool(
            rng.normal(0.0, 3.0, size=shape),
            rng.uniform(0.3, 2.0, size=shape),
            np.tile([1.0, 0.0], (30, 1)),
        )

    def test_zero_weight_component_scores_like_the_reference(self, rng):
        pool = self._zero_weight_pool(rng)
        scorer = BatchBlasScorer(pool)
        obs = rng.normal(0.0, 2.0, size=(4, pool.dim))
        pair_rows, pair_senones = _grid(range(4), pool.num_senones)
        out = scorer.score_pairs(obs, pair_rows, pair_senones)
        assert scorer.dense_steps == 1
        np.testing.assert_allclose(
            out, pool.score_pairs(obs, pair_rows, pair_senones), atol=BLAS_SCORE_ATOL
        )

    def test_all_dead_senone_leaves_score_pairs_as_log_zero(self, rng):
        pool = self._zero_weight_pool(rng)
        m = pool.num_components
        # The constant column of senone 3's rows: no component left alive.
        pool.blas_tables().table[3 * m : 4 * m, -1] = -np.inf
        scorer = BatchBlasScorer(pool)
        obs = rng.normal(0.0, 2.0, size=(2, pool.dim))
        pair_rows, pair_senones = _grid(range(2), pool.num_senones)
        out = scorer.score_pairs(obs, pair_rows, pair_senones)
        assert not np.isnan(out).any() and not np.isinf(out).any()
        dead = pair_senones == 3
        assert (out[dead] == LOG_ZERO).all() and (out[~dead] > LOG_ZERO).all()


# ----------------------------------------------------------------------
# The bank: use_feedback=False through every lifecycle event
# ----------------------------------------------------------------------
def _recognizer(task, mode, network):
    return Recognizer.create(
        task.dictionary, task.pool, task.lm, task.tying,
        mode=mode, network=network, config=DecoderConfig(use_feedback=False),
    )


@pytest.fixture(
    scope="module",
    params=[(m, n) for m in ("reference", "blas") for n in ("flat", "tree")],
    ids=lambda p: "-".join(p),
)
def dense_rec(request, task):
    mode, network = request.param
    rec = _recognizer(task, mode, network)
    return rec, [u.features for u in task.corpus.test]


def _assert_matches_one_lane(rec, result, oracle):
    assert result.words == oracle.words
    assert result.frames == oracle.frames
    if rec.mode == "blas":
        assert abs(result.score - oracle.score) <= BLAS_SCORE_ATOL
    else:
        assert result.score == oracle.score  # bit-equal
    num_senones = rec.pool.num_senones
    assert [f.requested_senones for f in result.frame_stats] == (
        [num_senones] * result.frames
    )


class TestDenseDemandBank:
    def test_stream_with_refill_and_compacted_tail(self, dense_rec):
        rec, feats = dense_rec
        assert len(feats) > 3  # more utterances than lanes
        ragged = [f[: max(8, f.shape[0] - 7 * i)] for i, f in enumerate(feats)]
        oracles = [rec.decode(f) for f in ragged]
        out = rec.decode_stream(ragged, max_lanes=3)
        for result, oracle in zip(out, oracles):
            _assert_matches_one_lane(rec, result, oracle)
        if rec.mode == "blas":
            assert rec.scorer.dense_steps == out.steps
            assert rec.scorer.fallback_steps == 0

    def test_grid_follows_the_active_set_and_the_bank_width(
        self, dense_rec, monkeypatch
    ):
        """Every step's work items are ``active lanes x every senone`` —
        after a retirement, a cancellation, a compaction, and for the
        lane admitted into the compacted bank (a grid kept from the old
        width or the old lane set would show here)."""
        rec, feats = dense_rec
        bank = rec.make_bank(4)
        scorer, num_senones = bank.scorer, rec.pool.num_senones
        seen = []
        original = scorer.score_pairs

        def spy(observations, pair_rows, pair_senones, lanes=None):
            seen.append((pair_rows.copy(), pair_senones.copy(), lanes.copy()))
            return original(observations, pair_rows, pair_senones, lanes=lanes)

        monkeypatch.setattr(scorer, "score_pairs", spy)
        lengths = [6, 30, 9, 30]
        for lane, n in enumerate(lengths):
            bank.admit(lane, lane, feats[lane][:n])
        results, widths = {}, []

        def step():
            active = np.flatnonzero(bank.active)
            finished = bank.step()
            pair_rows, pair_senones, lanes = seen[-1]
            np.testing.assert_array_equal(lanes, active)
            expect_rows, expect_senones = _grid(active, num_senones)
            np.testing.assert_array_equal(pair_rows, expect_rows)
            np.testing.assert_array_equal(pair_senones, expect_senones)
            widths.append((bank.num_lanes, active.size))
            for lane in finished:
                utt = int(bank.lane_utt[lane])  # retire() clears it
                results[utt] = bank.retire(lane)
            return finished

        while 0 not in results:
            step()
        step()  # three lanes of four
        assert bank.cancel(3) > 0
        while 2 not in results:
            step()
        assert bank.compact() == 1  # only old lane 1 is left
        step()
        assert widths[-1] == (1, 1)
        while 1 not in results:
            step()
        # Re-admission into the compacted bank: the grid of the NEW width.
        bank.admit(0, 4, feats[4][:12])
        while 4 not in results:
            step()
        assert widths[-1] == (1, 1)
        for utt, n in ((0, 6), (1, 30), (2, 9), (4, 12)):
            _assert_matches_one_lane(rec, results[utt], rec.decode(feats[utt][:n]))
