"""``benchmarks/layer_split.py`` — a step split by the bank's own clock."""

import importlib.util
import os
from pathlib import Path

import pytest

from repro.runtime.batch import STAGES

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "layer_split", ROOT / "benchmarks" / "layer_split.py"
)
layer_split = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layer_split)


@pytest.fixture(scope="module")
def prepared():
    """``prepared(workload)``: its recognizer and a 3-utterance cut of
    its requests, built once per module."""
    cache = {}

    def get(workload):
        if workload not in cache:
            cache[workload] = layer_split.prepare(workload, seed=2, utterances=3)
        return cache[workload]

    return get


def _measure(prepared, workload, repeats=1):
    rec, features, stamp = prepared(workload)
    return layer_split.measure(rec, workload, features, dict(stamp), repeats)


workloads = pytest.mark.parametrize("workload", layer_split.WORKLOADS)


@workloads
def test_the_split_is_the_clock_and_tiles_the_step(prepared, workload):
    report = _measure(prepared, workload, repeats=2)
    split = report["split_us_per_step"]
    assert list(split) == list(STAGES)
    assert all(value >= 0.0 for value in split.values())
    assert abs(sum(split.values()) - report["step_us"]) < 1e-9
    exact = report["exact"]
    assert 0 < exact["steps"] <= exact["frames"]
    assert exact["pairs"] > 0 and exact["word_exits"] > 0
    assert 0 < report["active_states_mean"] < report["states"]
    passes = report["passes"]
    assert len(passes) == 2
    for run in passes:  # process CPU beside wall time, per pass
        assert run["wall_s"] > 0.0 and run["cpu_s"] > 0.0
        assert run["cpu_per_wall"] == run["cpu_s"] / run["wall_s"]
    if workload == "seq_command":
        assert exact["steps"] == exact["frames"]  # one lane: a frame is a step
    if workload == "bank_dense":
        # Every step is full-grid demand, served densely, and the tables
        # are streamed once per lane BLOCK, not once per step.
        assert exact["dense_steps"] == exact["steps"]
        assert exact["gathered_steps"] == 0
        assert 0 < exact["table_streams"] < exact["dense_steps"]
        blas = report["blas"]
        assert 0 < blas["table_mb_per_audio_s"] < blas["harness_table_mb_per_audio_s"]


@workloads
def test_the_exact_counts_repeat(prepared, workload):
    first = _measure(prepared, workload)["exact"]
    assert _measure(prepared, workload)["exact"] == first


@workloads
def test_the_rendered_split_carries_the_counts_and_the_fingerprint(prepared, workload):
    report = _measure(prepared, workload)
    text = layer_split.render(report)
    for name in STAGES:
        assert name in text
    assert "[exact] " in text and f"word_exits {report['exact']['word_exits']}" in text
    # The entry fan-out: the states each word entry is offered to.
    assert f"{report['states']} states per lane ({report['roots']} roots)" in text
    assert 0 < report["roots"] < report["states"]
    if workload != "bank_tree":  # a flat network roots one chain per word
        assert report["roots"] == prepared(workload)[0].network.num_words + 1
    assert '"blas_threads"' in text  # the machine fingerprint
    run = report["passes"][0]
    assert f"pass 1: wall {run['wall_s']:.3f} s, process CPU {run['cpu_s']:.3f} s" in text
    assert ("whole-table passes" in text) == (workload == "bank_dense")


def _cpus(monkeypatch, count):
    """One CPU scores the blas blocks in line, two on the scoring worker."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.mark.parametrize("cpus", [1, 2])
def test_the_blas_blocks_run_where_the_cpus_allow(prepared, monkeypatch, cpus):
    _cpus(monkeypatch, cpus)
    report = _measure(prepared, "bank_dense")
    blas = report["blas"]
    if cpus == 1:  # in line: the blocks are inside the `score` stage
        assert blas["placement"] == "in line"
        assert blas["worker_busy_us_per_step"] == blas["wait_us_per_step"] == 0.0
        assert 0.0 < blas["block_busy_us_per_step"] <= report["split_us_per_step"]["score"]
    else:
        assert blas["placement"] == "on the scoring worker"
        assert blas["worker_busy_us_per_step"] == blas["block_busy_us_per_step"] > 0.0
        assert blas["wait_us_per_step"] >= 0.0
