"""The benchmark harness's own tests (collected by tier-1, < 20 s).

They pin the estimator and the accounting rules the numbers rest on —
not the numbers: replay-min, the percentile/sample-count rule, due-time
latency, span self time, the result schema against BENCHMARK.json's
contract, the output check, generator determinism, and a tiny-task
smoke of the sequential and banked drivers.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.decoder.fast_gmm import FastGmmConfig
from repro.workloads.tasks import tiny_task

from . import harness, metrics, workloads
from .generator import Request, digest, make_requests, poisson_due_times
from .spans import SpanRecorder, aggregate, covered

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
ROOT = Path(__file__).resolve().parents[2]


# -- estimator ---------------------------------------------------------
def test_replay_min_takes_each_requests_best_replay():
    replays = [[3.0, 1.0, 9.0], [2.0, 5.0, 7.0], [4.0, 2.0, 8.0]]
    assert harness.replay_min(replays) == [2.0, 1.0, 7.0]
    with pytest.raises(ValueError):
        harness.replay_min([[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        harness.replay_min([])


def test_quantile_matches_numpy_and_p90_needs_ten_samples_beyond_it():
    rng = np.random.default_rng(5)
    values = rng.exponential(size=137).tolist()
    for q in (0.0, 0.25, 0.5, 0.9, 1.0):
        assert harness.quantile(values, q) == pytest.approx(np.quantile(values, q))
    assert harness.tail_quantile(values[:100], 0.90) == harness.quantile(
        values[:100], 0.90
    )
    with pytest.raises(ValueError, match="beyond"):
        harness.tail_quantile(values[:99], 0.90)
    with pytest.raises(ValueError, match="beyond"):
        harness.tail_quantile(values, 0.99)


def test_every_named_workload_supports_its_percentile():
    for spec in workloads.SPECS.values():
        assert spec.num_requests >= 100
        assert spec.replays >= 3


def test_open_loop_latency_runs_from_the_due_time():
    due = [0.0, 1.0, 2.0]
    sent = [0.0, 1.5, 2.0]  # the generator stalled before request 1
    done = [0.4, 1.9, 2.3]
    latency, lateness = harness.open_loop_times(due, sent, done)
    assert latency == pytest.approx([0.4, 0.9, 0.3])  # not 0.4 from `sent`
    assert lateness == pytest.approx([0.0, 0.5, 0.0])


def test_poisson_schedule_is_seeded_and_offers_the_stated_rate():
    a = poisson_due_times(3, 100, 30.0)
    assert np.array_equal(a, poisson_due_times(3, 100, 30.0))
    assert not np.array_equal(a, poisson_due_times(4, 100, 30.0))
    assert np.all(np.diff(a) > 0)
    assert a[-1] == pytest.approx(100 / 30.0)


def test_box_speed_correction_is_a_time_weighted_mean():
    speed = harness.BoxSpeed()
    speed.times, speed.factors = [0.0, 10.0], [1.0, 2.0]
    speed.spans = [(4.0, 5.0)]  # one probe ran inside [0, 10]
    assert speed.factor(0.0, 10.0) == pytest.approx(1.5)
    assert speed.factor(0.0, 5.0) == pytest.approx(1.25)
    assert speed.factor(5.0, 5.0) == pytest.approx(1.5)
    assert speed.factor(-5.0, 0.0) == pytest.approx(1.0)  # constant beyond the samples
    assert speed.factor(20.0, 30.0) == pytest.approx(2.0)
    assert speed.factor(5.0, 20.0) == pytest.approx((1.75 * 5 + 2.0 * 10) / 15)
    assert speed.corrected(0.0, 10.0) == pytest.approx(10 / 1.5)
    assert speed.corrected(0.0, 10.0, serial_probes=True) == pytest.approx(9 / 1.5)
    assert speed.probe_time_within(4.5, 20.0) == pytest.approx(0.5)
    assert speed.probe() > 0 and (len(speed.times), len(speed.spans)) == (3, 2)
    with pytest.raises(RuntimeError):
        harness.BoxSpeed().factor(0.0, 1.0)


def test_follower_speed_samples_another_process_from_a_helper():
    import os
    import time

    follower = harness.FollowerSpeed(os.getpid(), period_s=0.05)
    try:
        give_up = time.monotonic() + 30.0
        while len(follower.times) < 2 and time.monotonic() < give_up:
            time.sleep(0.05)
            follower.drain()
    finally:
        follower.stop()
    assert len(follower.times) >= 2 and follower._helper.poll() is not None
    assert follower.times == sorted(follower.times)
    assert all(f > 0 for f in follower.factors)
    assert follower.corrected(follower.times[0], follower.times[-1]) > 0


# -- spans -------------------------------------------------------------
def test_self_time_subtracts_the_union_of_overlapping_children():
    assert covered(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0)]) == pytest.approx(5.0)
    assert covered(0.0, 10.0, [(8.0, 12.0), (-1.0, 1.0)]) == pytest.approx(3.0)
    recorder = SpanRecorder()
    parent = recorder.add("parent", 0.0, 10.0)
    recorder.add("child", 1.0, 4.0, parent=parent)
    recorder.add("child", 3.0, 6.0, parent=parent)  # overlaps the first
    recorder.add("other", 20.0, 21.0)
    agg = aggregate(recorder.spans)
    assert agg["parent"]["busy_s"] == pytest.approx(10.0)
    assert agg["parent"]["self_s"] == pytest.approx(5.0)  # not 10 - 3 - 3
    assert agg["child"] == {
        "calls": 2, "busy_s": pytest.approx(6.0), "self_s": pytest.approx(6.0)
    }


def test_wrap_records_nested_spans_and_unwraps_cleanly():
    class Layer:
        def outer(self, x):
            return self.inner(x) + 1

        def inner(self, x):
            return 2 * x

    layer = Layer()
    seen = []
    recorder = SpanRecorder()
    recorder.wrap(layer, "outer", "layer.outer")
    recorder.wrap(layer, "inner", "layer.inner", lambda a, k, r: seen.append(r))
    recorder.request = 7
    assert layer.outer(5) == 11
    recorder.unwrap_all()
    assert "outer" not in vars(layer) and "inner" not in vars(layer)
    assert layer.outer(1) == 3 and len(recorder.spans) == 2
    outer, inner = recorder.spans
    assert (outer[0], inner[0], inner[3], inner[4]) == ("layer.outer", "layer.inner", 0, 7)
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]
    assert seen == [10]


# -- catalogue and schema ----------------------------------------------
def test_benchmark_json_is_the_catalogue_and_meets_the_contract():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared == metrics.benchmark_json()
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = (
        [w["name"] for w in declared["workloads"]]
        + [m["name"] for m in declared["end_to_end"]]
        + [m["name"] for m in declared["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    assert 1 <= declared["run_seconds"] <= 60
    for w in declared["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in declared["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert [w["name"] for w in declared["workloads"]] == list(workloads.SPECS)


def _synthetic_raw(spec) -> workloads.Raw:
    """A Raw as ``measure`` would return it, without running anything."""
    n = spec.num_requests
    requests = [
        Request(i, ["w"], np.zeros(1), np.zeros((10, 39))) for i in range(n)
    ]
    check = harness.OutputCheck()
    rng = np.random.default_rng(1)
    passes = []
    for r in range(3):
        for i in range(n):
            check.record(f"replay{r}", i, ("w",), -1.5)
        latency = rng.uniform(0.01, 0.02, n).tolist()
        passes.append(
            {
                "throughput_n": n,
                # replay r is best on chunk r: the per-chunk minima sum to 1.5
                "chunk_s": [0.5 if c == r else 0.75 + r for c in range(3)],
                "raw_pass_s": 4.0 + r,
                "latency_s": latency,
                "raw_latency_s": [2 * t for t in latency],
            }
        )
    return workloads.Raw(
        spec=spec, seed=1, requests=requests, check=check,
        setup_samples=[
            {"setup_s": s, "raw_setup_s": 2 * s, "network_build_s": 0.1,
             "scorer_build_s": 0.1, "runtime_start_s": 0.0,
             "first_decode_s": s - 0.2}
            for s in (0.9, 0.5, 0.7)
        ],
        passes=passes, latency_passes=passes, traced=None,
        layer={m.name: 0.0 for m in metrics.PER_LAYER},
        input_digest="0" * 64, box_speed=[1.0, 1.5, 2.0], peak_rss_mb=200.0,
        word_acc=0.875,
    )


def test_every_workload_reports_all_metrics_with_units():
    for spec in workloads.SPECS.values():
        raw = _synthetic_raw(spec)
        result = workloads.summarize(raw)
        assert list(result["end_to_end"]) == [m.name for m in metrics.END_TO_END]
        assert list(result["per_layer"]) == [m.name for m in metrics.PER_LAYER]
        for entry in (*result["end_to_end"].values(), *result["per_layer"].values()):
            assert UNIT.match(entry["unit"])
            assert isinstance(entry["value"], (int, float))
        e2e = {k: v["value"] for k, v in result["end_to_end"].items()}
        layer = {k: v["value"] for k, v in result["per_layer"].items()}
        n = spec.num_requests
        assert e2e["setup_s"] == 0.5  # the minimum of the cold set-ups
        assert e2e["utt_per_s"] == n / 1.5  # per-chunk minima, summed
        best = harness.replay_min([p["latency_s"] for p in raw.passes])
        assert e2e["latency_p50_ms"] == pytest.approx(1e3 * np.median(best))
        assert e2e["ok_frac"] == 1.0 and e2e["word_acc"] == 0.875
        assert result["correct"] and result["attempted"] == 3 * n
        # the uncorrected all-sample view rides along as diagnostics
        assert layer["harness.samples"] == n
        assert layer["harness.pass_s_median"] == 5.0
        assert layer["harness.raw_utt_per_s"] == n / 4.0
        assert layer["harness.box_speed_p50"] == 1.5
        assert layer["harness.latency_all_p50_ms"] > e2e["latency_p50_ms"]


# -- output check ------------------------------------------------------
def test_output_check_fails_ok_frac_on_a_corrupted_result():
    check = harness.OutputCheck()
    check.expect(0, ("go", "left"), -12.25)
    assert check.record("replay0", 0, ("go", "left"), -12.25)
    assert check.record("replay0", 1, ("stop",), -3.0)
    assert check.ok_frac == 1.0 and check.failed == 0
    # same words, score off in the last bit: differs between replays
    assert not check.record("replay1", 1, ("stop",), np.nextafter(-3.0, 0.0))
    # wrong words for a request the sequential reference also decoded
    assert not check.record("replay1", 0, ("go", "right"), -12.25)
    assert not check.record("replay1", 2, None, None, "timeout")
    assert not check.record("replay1", 3, None, None, "rejected")
    assert (check.sent, check.ok, check.failed, check.rejected) == (6, 2, 4, 1)
    assert check.ok_frac == pytest.approx(2 / 6)
    assert check.phases["replay1"] == {"sent": 4, "ok": 0, "failed": 3, "rejected": 1}
    assert any("differs between replays" in p for p in check.problems)
    assert any("sequential decode" in p for p in check.problems)


def test_blas_tolerance_applies_to_the_reference_only():
    check = harness.OutputCheck(atol=1e-6)
    check.expect(0, ("a",), -5.0)
    assert check.record("replay0", 0, ("a",), -5.0 + 5e-7)
    assert not check.record("replay1", 0, ("a",), -5.0 + 6e-7)  # replays stay bit-equal


def test_compare_applies_the_bounds_and_survives_a_zero_median():
    from .compare import compare

    def run(utt_per_s: float, ok_frac: float) -> dict:
        values = {m.name: 1.0 for m in metrics.END_TO_END}
        values.update(utt_per_s=utt_per_s, ok_frac=ok_frac)
        return {
            "workload": "seq_command",
            "end_to_end": {k: {"value": v} for k, v in values.items()},
        }

    rows = {
        r["metric"]: r
        for r in compare([run(10.0, 0.0), run(10.2, 0.0)], [run(7.0, 1.0), run(7.1, 0.0)])
    }
    assert rows["utt_per_s"]["verdict"] == "regressed"  # -30 % against 0.20
    assert rows["setup_s"]["verdict"] == "ok"
    # parent's every send failed: a median of 0 must not divide
    assert rows["ok_frac"]["worse"] == float("-inf")
    assert rows["ok_frac"]["verdict"] == "unresolved"


# -- generator and drivers on the tiny task ----------------------------
@pytest.fixture(scope="module")
def tiny():
    return tiny_task(seed=7)


def test_generator_is_seeded_and_keeps_the_work_seed_invariant(tiny):
    def phones(requests):
        return sum(
            len(tiny.dictionary.pronunciation(w)) for r in requests for w in r.words
        )

    a = make_requests(tiny, 1, 12, 1, 3)
    again = make_requests(tiny, 1, 12, 1, 3)
    held_out = make_requests(tiny, 2, 12, 1, 3)
    assert digest(a) == digest(again)
    assert digest(a) != digest(held_out)
    assert [r.words for r in a] != [r.words for r in held_out]
    # same shape under every seed: words per request, phones per request
    assert [len(r.words) for r in a] == [len(r.words) for r in held_out]
    assert [phones([r]) for r in a] == [phones([r]) for r in held_out]
    assert sorted({len(r.words) for r in a}) == [1, 2, 3]
    assert all(r.features.shape == (r.frames, 39) and r.frames > 0 for r in a)


def _tiny_spec(driver, **options) -> workloads.Spec:
    return workloads.Spec(
        name="tiny", build_task=lambda: None, driver=driver,
        num_requests=4, min_words=1, max_words=2, replays=2, setups=2,
        options=options,
    )


@pytest.mark.parametrize(
    "spec",
    [
        _tiny_spec(workloads.SeqDriver),
        _tiny_spec(workloads.BankDriver, mode="reference", network="flat"),
        _tiny_spec(
            workloads.BankDriver, mode="fast", network="tree",
            fast_config=FastGmmConfig.all_layers(),
        ),
    ],
    ids=["sequential", "bank-flat-reference", "bank-tree-fast"],
)
def test_driver_smoke_on_the_tiny_task(tiny, spec, tmp_path):
    requests = make_requests(tiny, 1, 4, 1, 2)
    evaluation = make_requests(tiny, workloads.EVAL_SEED, 3, 1, 2)
    trace_path = tmp_path / "trace.json"

    def run():
        return workloads.measure(
            spec, tiny, requests, evaluation, seed=1, trace=True,
            trace_path=trace_path,
        )

    raw = run()
    check = raw.check
    assert check.sent == 4 * 3 and check.failed == 0  # 2 replays + the traced one
    assert 0.0 <= raw.word_acc <= 1.0  # the evaluation list is not a send
    assert len(raw.passes) == 2 and len(raw.setup_samples) == 2
    for p in raw.passes:
        assert len(p["latency_s"]) == len(p["raw_latency_s"]) == 4
        assert all(t > 0 for t in p["latency_s"] + p["chunk_s"])
        assert sum(p["chunk_s"]) == pytest.approx(
            p["raw_pass_s"], rel=0.75
        )  # corrected by a factor near 1, not by orders of magnitude
    assert len(raw.box_speed) >= 2 * len(raw.passes)
    assert raw.layer["obs.traced_vs_untraced"] > 0
    assert raw.layer["decoder.best_path.calls"] == 4
    assert raw.layer["workloads.frames"] == sum(r.frames for r in requests)
    shares = {k: v for k, v in raw.traced["shares"].items() if not isinstance(v, dict)}
    assert sum(shares.values()) == pytest.approx(1.0, abs=0.02)
    spans = json.loads(trace_path.read_text())
    assert spans["columns"] == ["name", "start_s", "end_s", "parent", "request"]
    assert len(spans["spans"]) > 4

    # every [exact] count repeats for the seed
    again = run()
    for name in metrics.EXACT:
        assert raw.layer[name] == again.layer[name], name
    assert raw.input_digest == again.input_digest
    assert raw.word_acc == again.word_acc


def test_injected_mismatch_fails_the_run(tiny):
    requests = make_requests(tiny, 1, 4, 1, 2)
    raw = workloads.measure(
        _tiny_spec(workloads.SeqDriver), tiny, requests, requests[:1], seed=1,
        trace=False, inject_mismatch=True,
    )
    assert raw.check.failed == 1 and raw.check.ok_frac < 1.0
