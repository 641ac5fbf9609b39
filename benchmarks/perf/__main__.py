"""Run the benchmark and print every metric by name with its unit.

    PYTHONPATH=src python -m benchmarks.perf [--seed N] [--workload NAME ...]

Each workload runs in its own subprocess (``run.py --trace 1``: the
untraced replays that give the end-to-end metrics, then one traced
replay for the per-layer budget).  Exits non-zero if any workload's
output check fails.  ``--out`` keeps the combined result file, which is
what ``python -m benchmarks.perf.compare`` reads.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from . import harness
from .metrics import WORKLOADS

OUT_DIR = Path(__file__).resolve().parent / "out"


def show(result: dict) -> None:
    counts = ", ".join(
        f"{phase} {c['sent']}/{c['ok']}/{c['failed']}/{c['rejected']}"
        for phase, c in result["phases"].items()
    )
    print(f"\n== {result['workload']} (seed {result['seed']}) ==")
    print(f"  sent/ok/failed/rejected: {counts}")
    for problem in result["problems"]:
        print(f"  output check: {problem}")
    print("  end-to-end")
    for name, m in result["end_to_end"].items():
        print(f"    {name:28} {m['value']:14.4f} {m['unit']}")
    samples = result["per_layer"]["harness.samples"]["value"]
    print(f"    (latency percentiles over {samples:.0f} distinct requests)")
    print("  per-layer (traced replay)")
    for name, m in result["per_layer"].items():
        print(f"    {name:44} {m['value']:16.5f} {m['unit']}")
    if result["shares"]:
        print("  self-time share of the traced replay")
        for name, share in result["shares"].items():
            if isinstance(share, dict):
                inner = "  ".join(f"{k} {v:.1%}" for k, v in share.items())
                print(f"    {name:44} {inner}")
            else:
                print(f"    {name:44} {share:8.1%}")


def main(argv: list[str] | None = None) -> int:
    names = [name for name, _ in WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--out", type=Path, default=OUT_DIR / "result.json")
    args = parser.parse_args(argv)

    runs = []
    for workload in args.workload:
        result = harness.run_once(
            workload, args.seed, trace=True,
            out_path=OUT_DIR / f"result-{workload}-seed{args.seed}.json",
        )
        show(result)
        runs.append(result)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"schema": 1, "runs": runs}, indent=1) + "\n")
    failed = [r["workload"] for r in runs if not r["correct"]]
    print(f"\nwrote {args.out}")
    if failed:
        print(f"OUTPUT CHECK FAILED: {', '.join(failed)}")
        return 1
    print("all outputs correct")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
