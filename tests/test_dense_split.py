"""``benchmarks/dense_split.py`` — ROADMAP item 3's "first measure" script."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "dense_split", ROOT / "benchmarks" / "dense_split.py"
)
dense_split = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(dense_split)


def test_five_utterance_cut_splits_a_step_and_sizes_the_next_levers():
    report = dense_split.run(seed=2, utterances=5, repeats=2)
    # Every step of the workload is full-grid demand, served densely.
    assert report["dense_steps"] == report["steps"] > 0
    assert report["gathered_steps"] == 0
    split = report["split_us_per_step"]
    assert all(value >= 0.0 for value in split.values())
    # Self times and stage clocks tile the traced step.
    assert abs(sum(split.values()) - report["step_us"]) <= 0.02 * report["step_us"]
    assert list(report["block_us_per_step"]) == list(dense_split.SWEEP_FRAMES)
    assert set(report["table_precision_us_per_step"]) == {"float64", "float32"}
    # The tables are streamed once per lane block, not once per step:
    # the true figure sits under what the harness's formula prints.
    assert 0 < report["table_streams"] < report["dense_steps"]
    assert (
        0.0
        < report["table_mb_per_audio_s"]
        < report["harness_table_mb_per_audio_s"]
    )
    assert report["block_amortised_us_per_step"] > 0.0

    text = dense_split.render(report)
    for name in ("product", "fold", "scorer_glue", "bank_scoring_glue"):
        assert name in text
    for phrase in ("block amortised", "per-step remainder", "whole-table passes"):
        assert phrase in text
    assert "table_mb_per_audio_s" in text and "K = 32" in text
    assert '"blas_threads"' in text  # the machine fingerprint
