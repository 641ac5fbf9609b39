"""``benchmarks/wire_gap.py`` — wire vs in-process capacity and latency, one process."""

import importlib.util
import multiprocessing
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "wire_gap", ROOT / "benchmarks" / "wire_gap.py"
)
wire_gap = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(wire_gap)


def test_a_short_round_times_both_sides_and_stops_the_shard():
    report = wire_gap.run(seed=2, rounds=1, requests=12)
    assert report["requests"] == report["wire_sends"] == 12
    for side in ("in_process", "wire"):
        (value,) = report["utt_per_s"][side]
        assert value > 0 and report["best_utt_per_s"][side] == value
    assert report["gap"] == 1 - (
        report["best_utt_per_s"]["wire"] / report["best_utt_per_s"]["in_process"]
    )
    # The paced phase's replays against in-process decodes of the same
    # requests, each side's p50 / p90 in milliseconds.
    assert report["paced_replays"] >= 1
    for side in ("in_process", "wire"):
        ms = report["latency_ms"][side]
        assert 0 < ms["p50"] <= ms["p90"]
    assert report["latency_gap_ms"] == (
        report["latency_ms"]["wire"]["p50"] - report["latency_ms"]["in_process"]["p50"]
    )
    # Both sides decode the same requests: the answers agree bit for bit.
    assert report["ok_frac"] == 1.0
    assert not [
        child for child in multiprocessing.active_children()
        if child.name.startswith("serve-shard-")
    ]

    text = wire_gap.render(report)
    assert "in_process" in text and "wire" in text and "gap" in text
    assert "p50" in text and "p90" in text
    assert '"blas_threads"' in text  # the machine fingerprint
