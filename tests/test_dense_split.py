"""``benchmarks/dense_split.py`` — ROADMAP item 3's "first measure" script."""

import importlib.util
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "dense_split", ROOT / "benchmarks" / "dense_split.py"
)
dense_split = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(dense_split)


def _cpus(monkeypatch, count):
    """One CPU scores the blocks in line, two on the process's scoring worker."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def test_one_cpu_puts_the_blocks_back_into_the_step(monkeypatch):
    _cpus(monkeypatch, 1)
    report = dense_split.run(seed=2, utterances=2, repeats=1)
    split = report["split_us_per_step"]
    assert report["placement"] == "in line"
    assert set(report["block_split_us_per_step"]) <= set(split)
    assert report["wait_us_per_step"] == split["block_wait"] == 0.0
    assert abs(sum(split.values()) - report["step_us"]) <= 0.02 * report["step_us"]


def test_five_utterance_cut_splits_a_step_and_sizes_the_next_levers(monkeypatch):
    _cpus(monkeypatch, 2)
    report = dense_split.run(seed=2, utterances=5, repeats=2)
    # Every step of the workload is full-grid demand, served densely.
    assert report["dense_steps"] == report["steps"] > 0
    assert report["gathered_steps"] == 0
    split = report["split_us_per_step"]
    assert all(value >= 0.0 for value in split.values())
    # Self times and stage clocks tile the traced step: the search
    # thread's, which the blocks on the worker are not part of.
    assert abs(sum(split.values()) - report["step_us"]) <= 0.02 * report["step_us"]
    blocks = report["block_split_us_per_step"]
    assert set(blocks) == {"product", "fold", "log_zero_map"}
    assert all(value > 0.0 for value in blocks.values())
    assert not set(blocks) & set(split)
    assert report["placement"] == "on the worker thread"
    # The scorer's counters: the blocks' own time, and the search
    # thread's wait for the worker.
    assert report["worker_busy_us_per_step"] > 0.0
    assert report["wait_us_per_step"] == split["block_wait"] >= 0.0
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
    for phrase in (
        "block amortised",
        "per-step remainder",
        "whole-table passes",
        "worker busy",
        "main-thread wait",
    ):
        assert phrase in text
    assert "table_mb_per_audio_s" in text and "K = 32" in text
    assert '"blas_threads"' in text  # the machine fingerprint
