"""Tests for repro.core.opunit — the Observation Probability unit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.opunit import LOG_ZERO, GaussianTable, OpUnit, OpUnitSpec
from repro.core.pipeline import PipelineTrace
from repro.hmm.senone import SenonePool
from repro.quant.float_formats import MANTISSA_12


@pytest.fixture()
def unit_and_table(small_pool):
    unit = OpUnit(OpUnitSpec(feature_dim=small_pool.dim))
    table = small_pool.gaussian_table()
    return unit, table


class TestSpec:
    def test_cycles_per_senone_structure(self):
        spec = OpUnitSpec(feature_dim=39)
        # 8 components: stream of 312 dims + FMA tail + 7 logadds.
        cycles = spec.cycles_per_senone(8)
        stream = spec.sdm_pipeline.cycles(8 * 39)
        tail = spec.fma_pipeline.depth + spec.logadd_pipeline.cycles(7)
        assert cycles == stream + tail

    def test_cycles_monotone_in_components(self):
        spec = OpUnitSpec(feature_dim=39)
        assert spec.cycles_per_senone(8) > spec.cycles_per_senone(4)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            OpUnitSpec(clock_hz=0)
        with pytest.raises(ValueError):
            OpUnitSpec(feature_dim=0)
        with pytest.raises(ValueError):
            OpUnitSpec(feature_dim=100, feature_buffer_words=64)

    def test_rejects_zero_components(self):
        with pytest.raises(ValueError):
            OpUnitSpec().cycles_per_senone(0)

    def test_realtime_budget_consistency(self):
        """The paper's sizing: ~45% of 6000 senones on 2 units fits 10 ms."""
        spec = OpUnitSpec(feature_dim=39)
        per_senone = spec.cycles_per_senone(8)
        budget = int(spec.clock_hz * 0.010)
        senones_per_unit_frame = budget // per_senone
        # Two units must together cover > 2400 senones (40%).
        assert 2 * senones_per_unit_frame > 2400


class TestGaussianTable:
    def test_shapes_validated(self, small_pool):
        table = small_pool.gaussian_table()
        with pytest.raises(ValueError):
            GaussianTable(table.means, table.precisions[:, :1], table.offsets)
        with pytest.raises(ValueError):
            GaussianTable(table.means, table.precisions, table.offsets[:, :1])

    def test_rejects_positive_precisions(self, small_pool):
        table = small_pool.gaussian_table()
        with pytest.raises(ValueError):
            GaussianTable(table.means, -table.precisions, table.offsets)

    def test_storage_accounting(self, small_pool):
        table = small_pool.gaussian_table()
        values = small_pool.num_components * (2 * small_pool.dim + 1)
        assert table.values_per_senone == values
        assert table.senone_bytes() == values * 4
        assert table.storage_bytes() == small_pool.num_senones * values * 4

    def test_quantized_table(self, small_pool):
        table = small_pool.gaussian_table()
        narrow = table.quantized(MANTISSA_12)
        assert narrow.storage_format is MANTISSA_12
        assert narrow.senone_bytes() == table.values_per_senone * 21 / 8

    def test_senone_major_packed_relayout(self, small_pool):
        """means/precisions/offsets are views into one contiguous block."""
        table = small_pool.gaussian_table()
        dim = table.feature_dim
        assert table.packed.flags["C_CONTIGUOUS"]
        assert table.packed.shape == (
            table.num_senones, table.num_components, 2 * dim + 1
        )
        for view in (table.means, table.precisions, table.offsets):
            assert view.base is table.packed
        np.testing.assert_array_equal(table.packed[..., :dim], table.means)
        np.testing.assert_array_equal(
            table.packed[..., dim : 2 * dim], table.precisions
        )
        np.testing.assert_array_equal(table.packed[..., 2 * dim], table.offsets)

    def test_packed_relayout_preserves_values(self, small_pool):
        """Round-tripping the views through a new table changes nothing."""
        table = small_pool.gaussian_table()
        rebuilt = GaussianTable(table.means, table.precisions, table.offsets)
        np.testing.assert_array_equal(rebuilt.packed, table.packed)


class TestSerialScoring:
    def test_matches_reference_within_logadd_error(self, small_pool, rng):
        unit = OpUnit(OpUnitSpec(feature_dim=small_pool.dim))
        table = small_pool.gaussian_table()
        obs = rng.normal(size=small_pool.dim)
        reference = small_pool.score_frame(obs)
        unit.load_feature(obs)
        bound = (small_pool.num_components - 1) * unit.logadd.theoretical_error_bound()
        for senone in range(small_pool.num_senones):
            hw = unit.score_senone(table, senone)
            assert abs(hw - reference[senone]) <= bound + 5e-3  # + float32 rounding

    def test_cycles_accumulate(self, unit_and_table, rng):
        unit, table = unit_and_table
        unit.load_feature(rng.normal(size=table.feature_dim))
        unit.score_senone(table, 0)
        expected = unit.spec.cycles_per_senone(table.num_components)
        assert unit.cycles_busy == expected
        unit.score_senone(table, 1)
        assert unit.cycles_busy == 2 * expected

    def test_running_max_register(self, unit_and_table, rng):
        unit, table = unit_and_table
        unit.load_feature(rng.normal(size=table.feature_dim))
        scores = [unit.score_senone(table, s) for s in range(5)]
        assert unit.running_max == pytest.approx(max(scores))

    def test_pde_prunes_dims(self, small_pool, rng):
        unit = OpUnit(OpUnitSpec(feature_dim=small_pool.dim))
        table = small_pool.gaussian_table()
        obs = rng.normal(size=small_pool.dim)
        unit.load_feature(obs)
        unit.score_senone(table, 0)
        full_dims = unit.dims_evaluated
        unit.reset_counters()
        unit.load_feature(obs)
        unit.score_senone(table, 0, prune_threshold=-10.0)
        assert unit.dims_evaluated <= full_dims

    @pytest.mark.parametrize("senone", range(4))
    def test_pde_that_prunes_some_components_folds_the_rest(self, senone):
        """Pruned components enter the mixture fold as ``LOG_ZERO`` and
        add nothing: the score is the logadd of the survivors."""
        rng = np.random.default_rng(42)
        pool = SenonePool.random(4, num_components=8, dim=39, rng=rng)
        table = pool.gaussian_table()
        obs = rng.normal(size=39)
        unit = OpUnit(OpUnitSpec())
        unit.load_feature(obs)
        threshold = unit.score_senone(table, senone) - 5.0
        comp = table.offsets[senone] + (
            (obs - table.means[senone]) ** 2 * table.precisions[senone]
        ).sum(axis=1)
        survivors = comp[comp >= threshold]
        assert 0 < survivors.size < table.num_components
        pruned = unit.score_senone(table, senone, prune_threshold=threshold)
        bound = (survivors.size - 1) * unit.logadd.theoretical_error_bound()
        assert abs(pruned - np.logaddexp.reduce(survivors)) <= bound + 5e-3

    def test_a_pruned_component_skips_the_swa_stage(self):
        """PDE aborts a component inside its dimension loop: it charges
        the dimensions it ran and the comparisons it made, but no SWA
        FMA and no evaluated Gaussian."""
        pool = SenonePool.random(
            4, num_components=8, dim=39, rng=np.random.default_rng(42)
        )
        table = pool.gaussian_table()
        obs = np.random.default_rng(42).normal(size=39)
        unit = OpUnit(OpUnitSpec())
        unit.load_feature(obs)
        unpruned = unit.score_senone(table, 0)
        unit.reset_counters()
        unit.load_feature(obs)
        score = unit.score_senone(table, 0, prune_threshold=unpruned - 5.0)
        act = unit.activity()
        assert unit.dims_evaluated == 138  # of 8 x 39 = 312
        assert act["sdm_ops"] == act["add_ops"] == 138
        assert act["compare_ops"] == 139  # one per dimension + the max register
        assert act["fma_ops"] == 1  # the one component that finished
        assert act["gaussians"] == 1
        assert unit.cycles_busy == 164
        assert score == unpruned  # the pruned seven added nothing

    @pytest.mark.parametrize("margin", [0.0, 5.0, 1e3], ids=["all", "some", "none"])
    @pytest.mark.parametrize("senone", range(4))
    def test_pde_counts_follow_from_the_dimensions_run(self, senone, margin):
        """Activity from first principles: each component streams its
        dimensions, in order, until ``offset + partial sum`` falls below
        the threshold; only a component that finishes reaches the SWA
        FMA and counts as an evaluated Gaussian."""
        pool = SenonePool.random(
            4, num_components=8, dim=39, rng=np.random.default_rng(42)
        )
        table = pool.gaussian_table()
        obs = np.random.default_rng(42).normal(size=39)
        unit = OpUnit(OpUnitSpec())
        unit.load_feature(obs)
        threshold = unit.score_senone(table, senone) - margin
        unit.reset_counters()
        unit.load_feature(obs)
        unit.score_senone(table, senone, prune_threshold=threshold)

        diff = obs.astype(np.float32) - table.means[senone]
        terms = diff * diff * table.precisions[senone]  # float32, (M, L)
        partial = np.cumsum(terms, axis=1, dtype=np.float32)
        dims = finished = 0
        for k in range(table.num_components):
            below = np.flatnonzero(
                float(table.offsets[senone, k]) + partial[k].astype(np.float64)
                < threshold
            )
            dims += below[0] + 1 if below.size else table.feature_dim
            finished += below.size == 0
        act = unit.activity()
        assert unit.dims_evaluated == act["sdm_ops"] == act["add_ops"] == dims
        assert act["compare_ops"] == dims + 1
        assert act["fma_ops"] == act["gaussians"] == finished
        if margin == 1e3:
            assert finished == table.num_components

    def test_pde_reduces_cycles(self, small_pool, rng):
        unit = OpUnit(OpUnitSpec(feature_dim=small_pool.dim))
        table = small_pool.gaussian_table()
        obs = rng.normal(scale=10.0, size=small_pool.dim)  # far from means
        unit.load_feature(obs)
        unit.score_senone(table, 0, prune_threshold=-5.0)
        pruned_cycles = unit.cycles_busy
        unit.reset_counters()
        unit.load_feature(obs)
        unit.score_senone(table, 0)
        assert pruned_cycles <= unit.cycles_busy

    def test_feature_length_validated(self, unit_and_table):
        unit, _ = unit_and_table
        with pytest.raises(ValueError):
            unit.load_feature(np.zeros(7))

    def test_senone_range_validated(self, unit_and_table, rng):
        unit, table = unit_and_table
        unit.load_feature(rng.normal(size=table.feature_dim))
        with pytest.raises(IndexError):
            unit.score_senone(table, table.num_senones)

    def test_trace_records(self, small_pool, rng):
        trace = PipelineTrace()
        unit = OpUnit(OpUnitSpec(feature_dim=small_pool.dim), trace=trace)
        table = small_pool.gaussian_table()
        unit.load_feature(rng.normal(size=small_pool.dim))
        unit.score_senone(table, 3)
        assert trace.events and "senone[3]" in trace.events[0].item


class TestBatchScoring:
    def test_matches_serial(self, small_pool, rng):
        obs = rng.normal(size=small_pool.dim)
        table = small_pool.gaussian_table()
        serial_unit = OpUnit(OpUnitSpec(feature_dim=small_pool.dim))
        serial_unit.load_feature(obs)
        serial = np.array(
            [serial_unit.score_senone(table, s) for s in range(table.num_senones)]
        )
        batch_unit = OpUnit(OpUnitSpec(feature_dim=small_pool.dim))
        batch = batch_unit.score_frame(table, obs).scores
        # Same logadd table and component order; only the dim-loop
        # float32 summation order differs.
        assert np.max(np.abs(batch - serial)) < 1e-3

    def test_subset_scoring(self, unit_and_table, rng):
        unit, table = unit_and_table
        active = np.array([1, 5, 7])
        result = unit.score_frame(table, rng.normal(size=table.feature_dim), active)
        assert result.senones_scored == 3
        scored = result.scores > LOG_ZERO / 2
        assert scored.sum() == 3
        assert set(np.flatnonzero(scored)) == {1, 5, 7}

    def test_empty_active(self, unit_and_table, rng):
        unit, table = unit_and_table
        result = unit.score_frame(table, rng.normal(size=table.feature_dim), np.array([], dtype=np.int64))
        assert result.cycles == 0 and result.senones_scored == 0

    def test_a_result_outlives_the_next_call(self, unit_and_table, rng):
        """Each call returns its own scores: a second frame, over other
        senones, leaves the first result as it was."""
        unit, table = unit_and_table
        first = unit.score_frame(
            table, rng.normal(size=table.feature_dim), np.array([1, 5, 7])
        )
        kept = first.scores.copy()
        second = unit.score_frame(
            table, rng.normal(size=table.feature_dim), np.array([2, 5])
        )
        assert second.scores is not first.scores
        assert np.array_equal(first.scores, kept)
        assert set(np.flatnonzero(second.scores > LOG_ZERO / 2)) == {2, 5}

    def test_cycles_match_formula(self, unit_and_table, rng):
        unit, table = unit_and_table
        result = unit.score_frame(table, rng.normal(size=table.feature_dim))
        expected = table.num_senones * unit.spec.cycles_per_senone(table.num_components)
        assert result.cycles == expected

    def test_bandwidth_accounting(self, unit_and_table, rng):
        unit, table = unit_and_table
        unit.score_frame(table, rng.normal(size=table.feature_dim))
        assert unit.parameter_bytes == table.num_senones * table.senone_bytes()

    def test_out_of_range_active_rejected(self, unit_and_table, rng):
        unit, table = unit_and_table
        with pytest.raises(IndexError):
            unit.score_frame(
                table, rng.normal(size=table.feature_dim), np.array([999999])
            )

    def test_negative_active_rejected_before_any_charge(self, unit_and_table, rng):
        unit, table = unit_and_table
        with pytest.raises(IndexError):
            unit.score_frame(table, rng.normal(size=table.feature_dim), np.array([0, -1]))
        assert unit.cycles_busy == 0
        assert unit.activity()["sdm_ops"] == 0

    def test_activity_snapshot(self, unit_and_table, rng):
        unit, table = unit_and_table
        unit.score_frame(table, rng.normal(size=table.feature_dim))
        act = unit.activity()
        n, m, dim = table.num_senones, table.num_components, table.feature_dim
        assert act["sdm_ops"] == n * m * dim
        assert act["fma_ops"] == n * m
        assert act["senones"] == n
        assert act["cycles_busy"] == unit.cycles_busy

    def test_reset_counters(self, unit_and_table, rng):
        unit, table = unit_and_table
        unit.score_frame(table, rng.normal(size=table.feature_dim))
        unit.reset_counters()
        assert unit.cycles_busy == 0
        assert unit.activity()["sdm_ops"] == 0


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=39),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=3),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 4)), max_size=8),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_property_pooled_serial_and_counted_activity_agree(
    components, dim, senones, rows, demand, seed
):
    """Unpruned, the pooled pairs, the serial per-pair path and a count
    from first principles charge the same activity, for any table and
    any demand (repeated pairs and no pairs included)."""
    rng = np.random.default_rng(seed)
    shape = (senones, components, dim)
    table = GaussianTable(
        rng.normal(size=shape), -0.5 / rng.uniform(0.3, 3.0, size=shape),
        rng.normal(-5.0, 2.0, size=shape[:2]),
    )
    features = rng.normal(size=(rows, dim))
    pair_rows = np.array([r % rows for r, _ in demand], dtype=np.int64)
    pair_senones = np.array([s % senones for _, s in demand], dtype=np.int64)
    spec = OpUnitSpec(feature_dim=dim)
    pooled, serial = OpUnit(spec), OpUnit(spec)
    pooled.score_pairs(table, features, pair_rows, pair_senones)
    for row, senone in zip(pair_rows, pair_senones):
        serial.load_feature(features[row])
        serial.score_senone(table, int(senone))
    pairs = len(demand)
    dims = pairs * components * dim
    # A difference past the table's range reads no SRAM: the operands
    # set the count, at most M - 1 reads per pair.
    sram_reads = serial.activity()["sram_reads"]
    assert sram_reads <= pairs * (components - 1)
    counted = {
        "cycles_busy": float(pairs * spec.cycles_per_senone(components)),
        "sdm_ops": float(dims),
        "add_ops": float(dims),
        "fma_ops": float(pairs * components),
        "compare_ops": float(pairs),
        "sram_reads": sram_reads,
        "parameter_bytes": pairs * table.senone_bytes(),
        "senones": float(pairs),
        "gaussians": float(pairs * components),
    }
    assert pooled.activity() == serial.activity() == counted
    assert pooled.dims_evaluated == serial.dims_evaluated == dims


class TestQuantizedScoring:
    def test_narrow_storage_changes_little(self, small_pool, rng):
        obs = rng.normal(size=small_pool.dim)
        wide = OpUnit(OpUnitSpec(feature_dim=small_pool.dim))
        narrow = OpUnit(OpUnitSpec(feature_dim=small_pool.dim))
        full = wide.score_frame(small_pool.gaussian_table(), obs).scores
        q12 = narrow.score_frame(
            small_pool.gaussian_table(MANTISSA_12), obs
        ).scores
        # 12-bit mantissa storage moves scores by far less than a beam.
        assert np.max(np.abs(full - q12)) < 1.0
