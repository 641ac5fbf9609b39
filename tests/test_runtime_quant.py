"""Quantized-table parity suite for reduced-precision blas scoring.

``SenonePool.blas_tables(precision=...)`` offers three storage
formats for the matmul-form tables: ``"float64"`` (the original exact
rounding), ``"float32"`` (half the table bandwidth) and ``"int8"``
(per-row symmetric codes, ~1/7 the bytes).  The contracts pinned here:

* ``float32`` decodes are WORD-identical to the float64 blas backend
  on the command task across batch sizes 1-8 and ragged continuous
  arrivals, with path scores within
  :data:`~repro.decoder.scorer.FLOAT32_SCORE_ATOL`;
* ``int8`` path-score drift stays within the documented
  :data:`~repro.decoder.scorer.INT8_SCORE_ATOL` (its measured WER
  drift is recorded beside that constant);
* the int8 quantizer round-trips within half a grid step per entry;
* ``SenonePool.table_bytes`` is an exact analytic account of the
  built tables, and int8 comes in under half the float64 footprint;
* ``TestQuantGolden`` replays the committed reference fixtures at
  batch 8 — the acceptance gate of the precision axis.

This module only pins correctness; no ``BENCHMARK.json`` workload runs
reduced-precision tables, so their speed is currently unmeasured.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.decoder.recognizer import Recognizer, validate_precision
from repro.decoder.scorer import FLOAT32_SCORE_ATOL, INT8_SCORE_ATOL
from repro.hmm.senone import BLAS_PRECISIONS, SenonePool
from repro.quant.fixed_point import (
    INT8_LEVELS,
    dequantize_rows_int8,
    quantize_rows_int8,
)
from repro.runtime.scoring import BatchBlasScorer
from repro.serve import Server
from repro.workloads.tasks import command_task

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@pytest.fixture(scope="module")
def golden_task():
    """The benchmark command task the golden fixtures come from."""
    return command_task(seed=19)


@pytest.fixture(scope="module")
def recs(golden_task):
    def make(precision):
        return Recognizer.create(
            golden_task.dictionary, golden_task.pool, golden_task.lm,
            golden_task.tying, mode="blas", precision=precision,
        )

    return {p: make(p) for p in BLAS_PRECISIONS}


@pytest.fixture(scope="module")
def feats(golden_task):
    return [u.features for u in golden_task.corpus.test]


@pytest.fixture(scope="module")
def oracle(recs, feats):
    """Sequential float64 blas decodes — the baseline every reduced
    precision answers to."""
    return [recs["float64"].decode(f) for f in feats]


def _assert_quant_parity(result, baseline, atol):
    assert result.words == baseline.words
    assert result.frames == baseline.frames
    assert abs(result.score - baseline.score) <= atol


class TestFloat32Parity:
    def test_sequential_word_identical(self, recs, feats, oracle):
        for f, base in zip(feats, oracle):
            _assert_quant_parity(
                recs["float32"].decode(f), base, FLOAT32_SCORE_ATOL
            )

    @pytest.mark.parametrize("batch_size", [1, 2, 4, 8])
    def test_batch_sizes_word_identical(self, recs, feats, oracle, batch_size):
        rec = recs["float32"]
        results = []
        for start in range(0, len(feats), batch_size):
            results.extend(rec.decode_batch(feats[start : start + batch_size]))
        for lane, base in zip(results, oracle):
            _assert_quant_parity(lane, base, FLOAT32_SCORE_ATOL)

    def test_continuous_ragged_arrivals_word_identical(
        self, recs, feats, oracle
    ):
        result = recs["float32"].decode_stream(feats, max_lanes=2)
        assert max(result.admit_steps) > 0  # refill actually happened
        for lane, base in zip(result, oracle):
            _assert_quant_parity(lane, base, FLOAT32_SCORE_ATOL)

    def test_continuous_reversed_arrival_word_identical(
        self, recs, feats, oracle
    ):
        result = recs["float32"].decode_stream(feats[::-1], max_lanes=3)
        for lane, base in zip(result, oracle[::-1]):
            _assert_quant_parity(lane, base, FLOAT32_SCORE_ATOL)


class TestInt8Drift:
    """int8 drift on the golden acceptance utterances — the set where
    word outputs are empirically identical, so best-path score drift
    against the float64 blas baseline is directly comparable (the
    broader test corpus flips a few words; that WER drift is recorded
    beside ``INT8_SCORE_ATOL``, not asserted here)."""

    @pytest.fixture(scope="class")
    def golden_pairs(self, golden_task, recs):
        fixture = json.loads(
            (GOLDEN_DIR / "command_reference.json").read_text()
        )
        feats = [
            golden_task.corpus.test[u["index"]].features
            for u in fixture["utterances"]
        ]
        return feats, [recs["float64"].decode(f) for f in feats]

    def test_sequential_drift_bounded(self, recs, golden_pairs):
        feats, baselines = golden_pairs
        for f, base in zip(feats, baselines):
            _assert_quant_parity(recs["int8"].decode(f), base, INT8_SCORE_ATOL)

    def test_batch_drift_bounded(self, recs, golden_pairs):
        feats, baselines = golden_pairs
        result = recs["int8"].decode_batch(feats)
        for lane, base in zip(result, baselines):
            _assert_quant_parity(lane, base, INT8_SCORE_ATOL)


class TestInt8RoundTrip:
    def _table(self, rng, rows=32, cols=39):
        # Mixed-magnitude rows, like precision tables: some dims huge.
        table = rng.standard_normal((rows, cols))
        table[:, 0] *= 100.0
        return table

    def test_round_trip_error_within_half_grid_step(self, rng):
        table = self._table(rng)
        codes, scales = quantize_rows_int8(table)
        back = dequantize_rows_int8(codes, scales)
        # Per-entry error <= scale/2 (+ float32 scale rounding slack).
        bound = scales.astype(np.float64) / 2 * 1.001 + 1e-12
        assert np.all(np.abs(back - table) <= bound)

    def test_codes_and_scales_dtypes(self, rng):
        codes, scales = quantize_rows_int8(self._table(rng))
        assert codes.dtype == np.int8
        assert scales.dtype == np.float32
        assert scales.shape == (codes.shape[0], 1)
        assert dequantize_rows_int8(codes, scales).dtype == np.float32

    def test_codes_span_symmetric_range(self, rng):
        codes, _ = quantize_rows_int8(self._table(rng))
        assert codes.min() >= -INT8_LEVELS
        assert codes.max() <= INT8_LEVELS
        # The row peak always lands on the full-scale code.
        assert np.all(np.abs(codes).max(axis=1) == INT8_LEVELS)

    def test_negation_symmetry(self, rng):
        table = self._table(rng)
        codes_pos, scales_pos = quantize_rows_int8(table)
        codes_neg, scales_neg = quantize_rows_int8(-table)
        assert np.array_equal(scales_pos, scales_neg)
        assert np.array_equal(codes_neg, -codes_pos)

    def test_all_zero_rows_are_exact(self, rng):
        table = self._table(rng)
        table[3] = 0.0
        codes, scales = quantize_rows_int8(table)
        assert scales[3, 0] == 0.0
        assert np.all(codes[3] == 0)
        assert np.all(dequantize_rows_int8(codes, scales)[3] == 0.0)

    def test_dequantize_into_preallocated_out(self, rng):
        codes, scales = quantize_rows_int8(self._table(rng))
        out = np.empty(codes.shape, dtype=np.float32)
        back = dequantize_rows_int8(codes, scales, out=out)
        assert back is out
        assert np.array_equal(back, dequantize_rows_int8(codes, scales))


class TestTableBytes:
    @pytest.fixture(scope="class")
    def pool(self):
        return SenonePool.random(
            48, num_components=4, dim=13, rng=np.random.default_rng(11)
        )

    @pytest.mark.parametrize("precision", BLAS_PRECISIONS)
    def test_analytic_matches_built_tables(self, pool, precision):
        assert pool.table_bytes(precision) == pool.blas_tables(precision).table_bytes

    def test_int8_under_half_the_float64_footprint(self, pool):
        assert pool.table_bytes("int8") <= 0.5 * pool.table_bytes("float64")

    def test_float32_exactly_half_the_float64_footprint(self, pool):
        assert pool.table_bytes("float32") * 2 == pool.table_bytes("float64")

    def test_unknown_precision_rejected(self, pool):
        with pytest.raises(ValueError, match="float64"):
            pool.table_bytes("float16")
        with pytest.raises(ValueError, match="float64"):
            pool.blas_tables("float16")


class TestPrecisionValidation:
    def test_unknown_precision_names_supported(self):
        with pytest.raises(ValueError, match="int8"):
            validate_precision("blas", "bfloat16")

    @pytest.mark.parametrize("mode", ["reference", "hardware", "fast"])
    def test_reduced_precision_requires_blas(self, mode):
        with pytest.raises(ValueError, match="blas"):
            validate_precision(mode, "float32")

    def test_float64_allowed_everywhere(self):
        for mode in ("reference", "hardware", "fast", "blas"):
            validate_precision(mode, "float64")

    def test_recognizer_rejects_non_blas_precision(self, golden_task):
        with pytest.raises(ValueError, match="blas"):
            Recognizer.create(
                golden_task.dictionary, golden_task.pool, golden_task.lm,
                golden_task.tying, mode="reference", precision="int8",
            )

    def test_blas_scorer_rejects_unknown_precision(self):
        pool = SenonePool.random(
            8, num_components=2, dim=5, rng=np.random.default_rng(0)
        )
        with pytest.raises(ValueError, match="float32"):
            BatchBlasScorer(pool, precision="fp8")


class TestPrecisionThreading:
    """The knob must survive every twin construction on the way to
    the serving front door."""

    def test_batch_twin_keeps_precision(self, recs):
        twin = recs["float32"].twin()
        assert twin.precision == "float32"
        assert twin.scorer.precision == "float32"

    def test_continuous_twin_keeps_precision(self, recs):
        twin = recs["int8"].twin()
        assert twin.precision == "int8"
        assert twin.scorer.precision == "int8"

    def test_server_metrics_report_precision_and_footprint(self, recs):
        server = Server(recs["float32"])
        m = server.metrics()
        assert m.scoring_mode == "blas"
        assert m.scoring_precision == "float32"
        assert m.model_table_bytes == recs["float32"].pool.table_bytes("float32")

    def test_server_metrics_non_blas_reports_storage_bytes(self, golden_task):
        rec = Recognizer.create(
            golden_task.dictionary, golden_task.pool, golden_task.lm,
            golden_task.tying, mode="reference",
        )
        m = Server(rec).metrics()
        assert m.scoring_mode == "reference"
        assert m.scoring_precision == "float64"
        assert m.model_table_bytes == int(
            golden_task.pool.storage_bytes(rec.storage_format)
        )


class TestQuantGolden:
    """Reduced precisions vs the COMMITTED reference fixtures at
    batch 8 — the acceptance gate: float32 must reproduce the golden
    words exactly; int8 must stay within its documented drift."""

    @pytest.fixture(scope="class")
    def fixture(self):
        path = GOLDEN_DIR / "command_reference.json"
        return json.loads(path.read_text())

    @pytest.fixture(scope="class")
    def golden_feats(self, golden_task, fixture):
        return [
            golden_task.corpus.test[u["index"]].features
            for u in fixture["utterances"]
        ]

    @pytest.mark.parametrize(
        "precision, atol",
        [("float32", FLOAT32_SCORE_ATOL), ("int8", INT8_SCORE_ATOL)],
    )
    def test_batch8_matches_reference_fixture(
        self, recs, fixture, golden_feats, precision, atol
    ):
        result = recs[precision].decode_batch(golden_feats)  # one bank, 8 lanes
        assert len(result) == len(fixture["utterances"])
        for lane, expected in zip(result, fixture["utterances"]):
            assert lane.words == tuple(expected["words"])
            assert lane.frames == expected["frames"]
            reference_score = float.fromhex(expected["score_hex"])
            assert abs(lane.score - reference_score) <= atol
