"""Tolerance-parity suite for the matmul-form (BLAS) scoring backend.

``mode="blas"`` recasts Gaussian scoring as dense matrix products, so
it is the repo's one deliberately ``exact=False`` family: for every
driver (``decode``, ``decode_batch``, ``decode_stream``) the contract is

* WORDS identical to the sequential reference decode, and
* SCORES within :data:`~repro.decoder.scorer.BLAS_SCORE_ATOL` of it

across batch sizes 1-8, ragged lengths and continuous arrival orders.
The sparse-demand fallback (gathered kernel below the density
threshold) is unit-tested directly against the pooled reference
kernel.  The command-task acceptance run lives in
``tests/test_golden_parity.py`` (``TestBlasGolden``), pinned to the
committed golden fixtures.
"""

import numpy as np
import pytest

from repro.decoder.recognizer import Recognizer
from repro.decoder.scorer import BLAS_SCORE_ATOL, FLOAT32_SCORE_ATOL
from repro.decoder.word_decode import DecoderConfig
from repro.runtime.scoring import (
    MIN_DENSITY,
    MIN_PAIRS,
    BatchBlasScorer,
    BatchReferenceScorer,
)


@pytest.fixture(scope="module")
def reference(task):
    return Recognizer.create(
        task.dictionary, task.pool, task.lm, task.tying, mode="reference"
    )


@pytest.fixture(scope="module")
def blas(task):
    return Recognizer.create(
        task.dictionary, task.pool, task.lm, task.tying, mode="blas"
    )


@pytest.fixture(scope="module")
def expected(reference, task):
    """Sequential reference decodes of every test utterance (the oracle)."""
    return [reference.decode(u.features) for u in task.corpus.test]


def _assert_tolerance_parity(result, oracle):
    assert result.words == oracle.words
    assert result.frames == oracle.frames
    assert abs(result.score - oracle.score) <= BLAS_SCORE_ATOL


class TestSequentialBlas:
    def test_words_match_reference_scores_within_tolerance(
        self, blas, expected, task
    ):
        for utt, oracle in zip(task.corpus.test, expected):
            _assert_tolerance_parity(blas.decode(utt.features), oracle)

    def test_dense_kernel_served_the_decode(self, blas, task):
        result = blas.decode(task.corpus.test[0].features)
        assert blas.scorer.dense_steps > 0
        assert result.telemetry.blas_dense_steps == blas.scorer.dense_steps

    def test_documented_as_inexact(self, blas):
        assert isinstance(blas.scorer, BatchBlasScorer)
        assert blas.scorer.exact is False
        assert BatchBlasScorer.exact is False

    def test_scorer_reset_clears_kernel_counters(self, task):
        rec = Recognizer.create(
            task.dictionary, task.pool, task.lm, task.tying, mode="blas"
        )
        rec.decode(task.corpus.test[0].features)
        assert rec.scorer.dense_steps + rec.scorer.fallback_steps > 0
        rec.scorer.reset()
        assert rec.scorer.dense_steps == 0
        assert rec.scorer.fallback_steps == 0


class TestBatchBlas:
    @pytest.mark.parametrize("batch_size", [1, 2, 3, 5, 8])
    def test_batch_sizes_match_reference(self, blas, expected, task, batch_size):
        feats = [u.features for u in task.corpus.test[:batch_size]]
        result = blas.decode_batch(feats)
        assert len(result) == batch_size
        for lane, oracle in zip(result, expected[:batch_size]):
            _assert_tolerance_parity(lane, oracle)

    def test_ragged_lengths_match_reference(self, blas, reference, task, rng):
        feats = [
            u.features[: int(rng.integers(15, u.features.shape[0] + 1))]
            for u in task.corpus.test
        ]
        oracles = [reference.decode(f) for f in feats]
        for lane, oracle in zip(blas.decode_batch(feats), oracles):
            _assert_tolerance_parity(lane, oracle)

    def test_batch_mode_uses_pooled_blas_backend(self, blas):
        assert blas.mode == "blas"
        assert isinstance(blas.scorer, BatchBlasScorer)


class TestContinuousBlas:
    @pytest.mark.parametrize("max_lanes", [1, 2, 3, 8])
    def test_lane_budgets_match_reference(self, blas, expected, task, max_lanes):
        feats = [u.features for u in task.corpus.test]
        result = blas.decode_stream(feats, max_lanes=max_lanes)
        for lane, oracle in zip(result, expected):
            _assert_tolerance_parity(lane, oracle)

    def test_arrival_orders_match_reference(self, blas, expected, task, rng):
        feats = [u.features for u in task.corpus.test]
        for order in (
            list(range(len(feats)))[::-1],
            list(rng.permutation(len(feats))),
        ):
            result = blas.decode_stream([feats[i] for i in order], max_lanes=3)
            for lane, i in zip(result, order):
                _assert_tolerance_parity(lane, expected[i])

    def test_generator_queue(self, blas, expected, task):
        feats = (u.features for u in task.corpus.test)
        result = blas.decode_stream(feats, max_lanes=2)
        for lane, oracle in zip(result, expected):
            _assert_tolerance_parity(lane, oracle)


class TestSparseDemandFallback:
    """The active-set threshold between the dense and gathered kernels."""

    def _demand(self, small_pool, rng, rows, senones_per_row):
        obs = rng.normal(0.0, 1.0, size=(rows, small_pool.dim))
        pair_rows, pair_senones = [], []
        for r in range(rows):
            picks = rng.choice(small_pool.num_senones, senones_per_row, replace=False)
            pair_rows.extend([r] * senones_per_row)
            pair_senones.extend(sorted(int(s) for s in picks))
        return obs, np.array(pair_rows), np.array(pair_senones)

    def test_sparse_demand_falls_back_to_gathered_kernel(self, small_pool, rng):
        scorer = BatchBlasScorer(small_pool)
        obs, pair_rows, pair_senones = self._demand(small_pool, rng, 2, 3)
        assert pair_senones.size < MIN_PAIRS
        compact = scorer.score_pairs(obs, pair_rows, pair_senones)
        assert scorer.fallback_steps == 1 and scorer.dense_steps == 0
        # The fallback IS the reference kernel — bit-identical.
        np.testing.assert_array_equal(
            compact, small_pool.score_pairs(obs, pair_rows, pair_senones)
        )

    def test_low_density_falls_back(self, small_pool, rng):
        # Plenty of pairs, but spread thin over the rows x union grid:
        # two senones a row, every third pair of senones, 16 of 24 in all.
        scorer = BatchBlasScorer(small_pool)
        rows = 16
        obs = rng.normal(0.0, 1.0, size=(rows, small_pool.dim))
        pair_rows = np.repeat(np.arange(rows), 2)
        pair_senones = (3 * pair_rows + np.tile([0, 1], rows)) % small_pool.num_senones
        union = np.unique(pair_senones).size
        assert pair_senones.size >= MIN_PAIRS
        assert pair_senones.size < MIN_DENSITY * rows * union
        scorer.score_pairs(obs, pair_rows, pair_senones)
        assert scorer.fallback_steps == 1 and scorer.dense_steps == 0

    def test_dense_demand_takes_matmul_kernel(self, small_pool, rng):
        scorer = BatchBlasScorer(small_pool)
        obs, pair_rows, pair_senones = self._demand(
            small_pool, rng, 4, small_pool.num_senones
        )
        compact = scorer.score_pairs(obs, pair_rows, pair_senones)
        assert scorer.dense_steps == 1 and scorer.fallback_steps == 0
        reference = small_pool.score_pairs(obs, pair_rows, pair_senones)
        np.testing.assert_allclose(compact, reference, atol=BLAS_SCORE_ATOL)

    def test_large_pool_gathers_subset_instead_of_full_table(
        self, small_pool, rng, spy_block_unions
    ):
        """Lanes demanding every senone are the full grid: the whole
        tables go through the products, no union is gathered."""
        scorer = BatchBlasScorer(small_pool)
        unions = spy_block_unions(small_pool)
        obs, pair_rows, pair_senones = self._demand(
            small_pool, rng, 2, small_pool.num_senones
        )
        out = scorer.score_pairs(obs, pair_rows, pair_senones)
        assert unions == [None]
        assert scorer.dense_steps == 1 and scorer.fallback_steps == 0
        reference = small_pool.score_pairs(obs, pair_rows, pair_senones)
        np.testing.assert_allclose(out, reference, atol=BLAS_SCORE_ATOL)

    def test_sequential_threshold_falls_back(self, small_pool, rng):
        """One lane below ``MIN_PAIRS`` scores through the gathered
        kernel — bit-identical to the reference backend."""
        blas = BatchBlasScorer(small_pool)
        ref = BatchReferenceScorer(small_pool)
        obs, pair_rows, pair_senones = self._demand(
            small_pool, rng, 1, small_pool.num_senones // 2
        )
        assert pair_senones.size < MIN_PAIRS
        out = blas.score_pairs(obs, pair_rows, pair_senones)
        assert blas.fallback_steps == 1 and blas.dense_steps == 0
        np.testing.assert_array_equal(
            out, ref.score_pairs(obs, pair_rows, pair_senones)
        )

    def test_large_pool_batch_gathers_union_instead_of_full_table(
        self, small_pool, rng, spy_block_unions
    ):
        """Partial dense demand gathers the demanded union's
        senone-major blocks, at every pool size."""
        scorer = BatchBlasScorer(small_pool)
        unions = spy_block_unions(small_pool)
        # 4 x 12 items: at least half of any rows x union grid.
        obs, pair_rows, pair_senones = self._demand(small_pool, rng, 4, 12)
        out = scorer.score_pairs(obs, pair_rows, pair_senones)
        assert len(unions) == 1
        np.testing.assert_array_equal(unions[0], np.unique(pair_senones))
        assert scorer.dense_steps == 1 and scorer.fallback_steps == 0
        reference = small_pool.score_pairs(obs, pair_rows, pair_senones)
        np.testing.assert_allclose(out, reference, atol=BLAS_SCORE_ATOL)

    def test_empty_demand(self, small_pool):
        scorer = BatchBlasScorer(small_pool)
        out = scorer.score_pairs(
            np.zeros((2, small_pool.dim)), np.empty(0, np.int64), np.empty(0, np.int64)
        )
        assert out.size == 0
        assert scorer.dense_steps == 0 and scorer.fallback_steps == 0


class TestPrecisionSwapTelemetry:
    """A brownout precision swap mid-lane must not lose kernel steps.

    Lane telemetry is the scorer's ``dense_steps``/``fallback_steps``
    minus the lane's admission mark; ``set_precision`` used to build a
    fresh scorer, restarting both at zero — a lane spanning the swap
    lost its pre-swap steps, and one admitted after earlier traffic
    reported NEGATIVE counts.  The swap now happens inside the scorer."""

    def _second_lane_telemetry(self, task, swap_at):
        rec = Recognizer.create(
            task.dictionary, task.pool, task.lm, task.tying, mode="blas"
        )
        bank = rec.make_bank(1)
        feats = rec._validate_features(0, task.corpus.test[0].features)
        for utt in range(2):  # lane 0 = earlier traffic on the same scorer
            bank.admit(0, utt, feats)
            finished = []
            while not finished:
                if utt == 1 and bank.lane_t[0] == swap_at:
                    assert rec.set_precision("float32")
                    bank.scorer = rec.scorer  # whichever object scores now
                finished = bank.step()
            telemetry = bank.retire(0).telemetry
        return telemetry

    def test_swap_keeps_the_scorer_object(self, blas):
        scorer, bank = blas.scorer, blas.make_bank(1)
        try:
            assert blas.set_precision("float32")
            assert blas.scorer is scorer is bank.scorer
            assert scorer.precision == blas.precision == "float32"
            assert not blas.set_precision("float32")  # already there
        finally:
            blas.set_precision("float64")  # module-scoped fixture

    def test_lane_across_swap_keeps_its_step_counts(self, task):
        plain = self._second_lane_telemetry(task, swap_at=None)
        swapped = self._second_lane_telemetry(task, swap_at=20)
        assert plain.frames == swapped.frames > 20
        assert swapped.blas_dense_steps >= 0
        assert swapped.blas_gathered_steps >= 0
        assert (
            swapped.blas_dense_steps + swapped.blas_gathered_steps
            == plain.blas_dense_steps + plain.blas_gathered_steps
            == plain.frames
        )


class TestPrecisionSwapDropsWhatWasScoredAhead:
    """``set_precision`` promises that in-flight utterances finish on
    the new tables; the scorer scores full-grid demand up to a block of
    frames AHEAD per lane, so a block scored before the swap must not
    answer a step after it."""

    def test_every_frame_after_the_swap_is_scored_on_the_new_tables(
        self, task, monkeypatch
    ):
        rec = Recognizer.create(
            task.dictionary, task.pool, task.lm, task.tying,
            mode="blas", config=DecoderConfig(use_feedback=False),
        )
        feats = [
            rec._validate_features(i, u.features[:n])
            for i, (u, n) in enumerate(zip(task.corpus.test, (70, 50, 90)))
        ]
        bank = rec.make_bank(3)
        scorer = rec.scorer
        steps = []  # (observations, pair_rows, pair_senones, answer)
        original = scorer.score_pairs

        def spy(observations, pair_rows, pair_senones, lanes=None):
            out = original(observations, pair_rows, pair_senones, lanes=lanes)
            steps.append((observations.copy(), pair_rows, pair_senones, out.copy()))
            return out

        monkeypatch.setattr(scorer, "score_pairs", spy)
        for lane, f in enumerate(feats):
            bank.admit(lane, lane, f)
        swap_at = 20  # mid-block for every lane
        telemetry = {}
        while bank.any_active:
            if bank.steps == swap_at:
                assert rec.set_precision("float32")
            for lane in bank.step():
                utt = int(bank.lane_utt[lane])
                telemetry[utt] = bank.retire(lane).telemetry
        assert len(steps) == 90

        def is_float32(values):
            return bool((values == values.astype(np.float32)).all())

        fresh = BatchBlasScorer(task.pool, precision="float32")
        for step, (obs, pair_rows, pair_senones, out) in enumerate(steps):
            # float32 tables answer in float32 values; float64 ones do not.
            assert is_float32(out) == (step >= swap_at), step
            if step >= swap_at:
                np.testing.assert_allclose(
                    out,
                    fresh.score_pairs(obs, pair_rows.copy(), pair_senones.copy()),
                    atol=FLOAT32_SCORE_ATOL,
                )
        # PR 21's fix stays fixed: pre-swap steps are not lost.
        for utt, f in enumerate(feats):
            assert telemetry[utt].blas_dense_steps == len(f)
            assert telemetry[utt].blas_gathered_steps == 0
        # Three blocks before the swap, every lane rescored from its
        # frame 20 after it: 70 -> 2 more blocks, 50 -> 1, 90 -> 3.
        assert scorer.table_streams == 3 + 2 + 1 + 3


class TestModeRegistration:
    def test_sequential_unknown_mode_names_supported_modes(self, task):
        with pytest.raises(ValueError) as err:
            Recognizer.create(
                task.dictionary, task.pool, task.lm, task.tying, mode="quantum"
            )
        message = str(err.value)
        for mode in Recognizer.SUPPORTED_MODES:
            assert repr(mode) in message

    def test_batch_supported_modes_include_blas(self):
        assert "blas" in Recognizer.SUPPORTED_MODES

    def test_continuous_twin_keeps_blas_mode(self, blas):
        twin = blas.twin()
        assert twin.mode == "blas"
        assert isinstance(twin.scorer, BatchBlasScorer)
        assert twin.scorer is not blas.scorer
