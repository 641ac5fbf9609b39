"""How much capacity the socket front door costs, measured in one process.

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
``1 - wire / in-process`` over the best round of each.  It gates
nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _entry in (str(_ROOT / "src"), str(_ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from benchmarks.perf.harness import fingerprint, pin_blas_threads  # noqa: E402


def _utt_per_s(result: dict) -> float:
    return result["throughput_n"] / sum(result["chunk_s"])


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
    try:
        local.setup(task)
        wire.setup(task)
        wire.idle_probes({})
        for r in range(rounds):
            sides["in_process"].append(_utt_per_s(local.replay(check, f"local{r}")))
            sides["wire"].append(_utt_per_s(wire.replay(check, f"wire{r}")))
    finally:
        wire.release()
        local.release()
    best = {side: max(values) for side, values in sides.items()}
    stamp["load_end"] = list(os.getloadavg())
    return {
        "requests": len(reqs),
        "wire_sends": wire_spec.options["capacity_sends"],
        "lanes": MAX_LANES,
        "rounds": rounds,
        "utt_per_s": sides,
        "best_utt_per_s": best,
        "gap": 1.0 - best["wire"] / best["in_process"],
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
