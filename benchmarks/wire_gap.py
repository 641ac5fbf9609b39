"""How much capacity and latency the socket front door costs, in one process.

    python3 benchmarks/wire_gap.py [--seed 2] [--rounds 3]

``wire_command`` sends its requests through ServeClient -> WireServer
-> Server -> one forked shard (reference mode, flat network, 8 lanes).
The same requests decoded in-process by ``decode_stream`` at the same 8
lanes are the capacity the front door would have if it cost nothing.
Both sides run here in ONE process, alternating round by round, each
through the frozen harness's own workload classes (imports, no edits):
the wire side is ``WireDriver``'s closed-loop ``capacity``
phase, corrected by the shard's own speed probe; the in-process side
is ``BankDriver``'s replay over the same recognizer options, corrected
by the same probe run in this process.  Every number is therefore in
the harness's unit (seconds on the quiet bench box), and the gap is
``1 - wire / in-process`` over the best round of each.

Latency, beside it: ``WireDriver``'s paced replays (the open-loop
30 req/s phase ``latency_p50_ms`` is read from, each request timed from
its due time) against an in-process ``Recognizer.decode`` of each of
the same requests, one at a time, corrected by this process's probe.
Each side keeps every request's best time over its replays (the
harness's estimator) and reports p50 / p90; what the wire adds to a
lone request is the gap between them.  It gates nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _entry in (str(_ROOT / "src"), str(_ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from benchmarks.perf.harness import fingerprint, pin_blas_threads  # noqa: E402


def _utt_per_s(result: dict) -> float:
    return result["throughput_n"] / sum(result["chunk_s"])


def _decode_latency_s(rec, requests, speed) -> list[float]:
    """Each request's in-process ``decode``, box-speed corrected."""
    times = []
    speed.probe()
    for request in requests:
        t0 = time.monotonic()
        rec.decode(request.features)
        times.append((t0, time.monotonic()))
    speed.probe()
    return [speed.corrected(t0, t1, serial_probes=True) for t0, t1 in times]


def _quantiles_ms(replays: list[list[float]]) -> dict:
    from benchmarks.perf import harness

    best = harness.replay_min(replays)
    return {
        "p50": 1e3 * harness.quantile(best, 0.50),
        "p90": 1e3 * harness.quantile(best, 0.90),
    }


def run(seed: int = 2, rounds: int = 3, requests: int | None = None) -> dict:
    from benchmarks.perf import harness
    from benchmarks.perf.generator import make_requests
    from benchmarks.perf.workloads import (
        EVAL_REQUESTS, EVAL_SEED, MAX_LANES, SPECS, BankDriver, WireDriver,
    )

    wire_spec = SPECS["wire_command"]
    if requests is not None:
        options = dict(wire_spec.options, capacity_sends=requests)
        wire_spec = dataclasses.replace(
            wire_spec, num_requests=requests, options=options
        )
    local_spec = dataclasses.replace(
        wire_spec, driver=BankDriver, options={"mode": "reference", "network": "flat"}
    )
    stamp = fingerprint(_ROOT, seed)
    task = wire_spec.build_task()
    reqs = make_requests(
        task, seed, wire_spec.num_requests, wire_spec.min_words, wire_spec.max_words
    )
    warmup = make_requests(
        task, EVAL_SEED, EVAL_REQUESTS, wire_spec.min_words, wire_spec.max_words
    )[0]
    speed = harness.BoxSpeed()
    local = BankDriver(local_spec, reqs, warmup, seed, speed)
    wire = WireDriver(wire_spec, reqs, warmup, seed, speed)
    check = harness.OutputCheck()
    sides = {"in_process": [], "wire": []}
    latency = {"in_process": [], "wire": []}  # per replay, per request (s)
    try:
        local.setup(task)
        wire.setup(task)
        wire.idle_probes({})
        for r in range(rounds):
            sides["in_process"].append(_utt_per_s(local.replay(check, f"local{r}")))
            sides["wire"].append(_utt_per_s(wire.replay(check, f"wire{r}")))
            latency["in_process"].append(_decode_latency_s(local.rec, reqs, speed))
            latency["wire"] += [
                paced["latency_s"] for paced in wire.latency_replays(check, [])
            ]
    finally:
        wire.release()
        local.release()
    best = {side: max(values) for side, values in sides.items()}
    latency_ms = {side: _quantiles_ms(replays) for side, replays in latency.items()}
    stamp["load_end"] = list(os.getloadavg())
    return {
        "requests": len(reqs),
        "wire_sends": wire_spec.options["capacity_sends"],
        "lanes": MAX_LANES,
        "rounds": rounds,
        "utt_per_s": sides,
        "best_utt_per_s": best,
        "gap": 1.0 - best["wire"] / best["in_process"],
        "paced_replays": len(latency["wire"]),
        "latency_ms": latency_ms,
        "latency_gap_ms": latency_ms["wire"]["p50"] - latency_ms["in_process"]["p50"],
        "ok_frac": check.ok_frac,
        "fingerprint": stamp,
    }


def render(report: dict) -> str:
    lines = [
        f"wire_command requests, {report['lanes']} lanes, reference / flat, "
        f"{report['rounds']} alternating rounds (box-speed corrected utt/s):",
    ]
    for side, values in report["utt_per_s"].items():
        lines.append(
            f"  {side:<10} " + "  ".join(f"{v:6.1f}" for v in values)
            + f"   best {report['best_utt_per_s'][side]:6.1f}"
        )
    lines += [
        f"gap (1 - wire / in-process, best of each): {report['gap']:+.1%}; "
        f"ok_frac {report['ok_frac']:.4f}",
        "",
        f"latency per request (ms, best of each request's replays; wire: "
        f"{report['paced_replays']} paced replays at 30 req/s from the due "
        f"time, in_process: Recognizer.decode one at a time):",
    ]
    for side, ms in report["latency_ms"].items():
        lines.append(f"  {side:<10} p50 {ms['p50']:6.1f}   p90 {ms['p90']:6.1f}")
    lines += [
        f"wire p50 - in-process decode p50: {report['latency_gap_ms']:+.1f} ms",
        "",
        "fingerprint: " + json.dumps(report["fingerprint"]),
    ]
    return "\n".join(lines)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args()
    pin_blas_threads()  # before numpy is imported anywhere
    print(render(run(args.seed, args.rounds)))
