"""R4 — power and area of the dedicated structures (Sections IV, VI).

Paper: 200 mW and 2.2 mm^2 per structure at 50 MHz / 0.18 um; 400 mW
and 4.4 mm^2 for the two-structure system; clock gating saves power;
CDS "has the potential to cut the power usage by a considerable
margin".
"""

import pytest

from benchmarks.conftest import PAPER
from repro.core.opunit import GaussianTable, OpUnit, OpUnitSpec
from repro.core.power import AreaTable, PowerModel
from repro.decoder.fast_gmm import FastGmmConfig, FastGmmModel, equivalent_activity
from repro.eval.report import check_within, format_comparison
from repro.runtime.scoring import BatchFastGmmScorer


def _fully_busy_activity(pool, seconds=0.2):
    """Stream senones back-to-back for ``seconds`` on one unit."""
    import numpy as np

    unit = OpUnit(OpUnitSpec(feature_dim=pool.dim))
    table = pool.gaussian_table()
    budget = seconds * unit.spec.clock_hz
    rng = np.random.default_rng(0)
    while unit.cycles_busy < budget:
        unit.score_frame(table, rng.normal(size=pool.dim))
    return unit.activity(), unit.seconds()


def test_unit_power_at_full_load(benchmark, full_scale_pool):
    activity, busy_s = benchmark.pedantic(
        _fully_busy_activity, args=(full_scale_pool,), rounds=1, iterations=1
    )
    report = PowerModel().unit_report(activity, busy_s)
    print()
    print(format_comparison("structure power (full load)",
                            PAPER["power_per_unit_w"] * 1e3,
                            report.average_power_w * 1e3, "mW"))
    print(report.format())
    assert check_within(
        report.average_power_w, PAPER["power_per_unit_w"], 0.10
    )


def test_two_structures_400mw(benchmark, full_scale_pool):
    def run():
        activity, busy_s = _fully_busy_activity(full_scale_pool, seconds=0.1)
        return PowerModel().combined_report([activity, activity], busy_s)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_comparison("system power (2 structures)",
                            400.0, report.average_power_w * 1e3, "mW"))
    assert check_within(report.average_power_w, 0.400, 0.10)


def test_area(benchmark):
    area = benchmark.pedantic(AreaTable, rounds=1, iterations=1)
    print()
    print(format_comparison("area per structure", PAPER["area_per_unit_mm2"],
                            area.total(), "mm^2"))
    print(format_comparison("area, 2 structures", 4.4, 2 * area.total(), "mm^2"))
    assert area.total() == pytest.approx(PAPER["area_per_unit_mm2"], abs=0.01)


def test_clock_gating_saves_power_at_low_duty(benchmark, full_scale_pool):
    """The R4 gating ablation at a realistic ~30% duty cycle."""

    def run():
        activity, busy_s = _fully_busy_activity(full_scale_pool, seconds=0.05)
        wall_s = busy_s / 0.3  # unit busy 30% of the time
        gated = PowerModel(clock_gating=True).unit_report(activity, wall_s)
        free = PowerModel(clock_gating=False).unit_report(activity, wall_s)
        return gated, free

    gated, free = benchmark.pedantic(run, rounds=1, iterations=1)
    saving = 1 - gated.average_power_w / free.average_power_w
    print(f"\nclock gating at 30% duty: {free.average_power_w*1e3:.1f} mW -> "
          f"{gated.average_power_w*1e3:.1f} mW ({saving:.0%} saved)")
    assert saving > 0.15


def test_cds_cuts_power(benchmark, dictation_cd):
    """Layer-1 CDS vs plain scoring at the full senone budget (A1/R4).

    The 6000-senone pool makes dynamic energy dominate leakage, as in
    the paper's design point, so frame skipping shows up directly.
    """

    def run(cds_enabled):
        import numpy as np

        config = FastGmmConfig(cds_enabled=cds_enabled, cds_distance=18.0)
        pool = dictation_cd.pool
        scorer = BatchFastGmmScorer(FastGmmModel(pool, config=config))
        scorer.admit_lane(0)  # one lane, every senone, every frame
        senones = np.arange(pool.num_senones)
        lane = np.zeros_like(senones)
        frames = 0
        for utt in dictation_cd.corpus.test[:2]:
            for frame in utt.features:
                scorer.score_pairs(frame[None, :], lane, senones)
            frames += utt.num_frames
        stats = scorer.retire_lane(0)
        activity = equivalent_activity(stats, pool.dim, frames * senones.size)
        return PowerModel().unit_report(activity, frames * 0.010), stats

    baseline, _ = benchmark.pedantic(run, args=(False,), rounds=1, iterations=1)
    with_cds, stats = run(True)
    saving = 1 - with_cds.average_power_w / baseline.average_power_w
    print(
        f"\nCDS: {baseline.average_power_w*1e3:.1f} mW -> "
        f"{with_cds.average_power_w*1e3:.1f} mW ({saving:.0%} saved; "
        f"{stats.skip_fraction:.0%} frames skipped)"
    )
    assert saving > 0.15
