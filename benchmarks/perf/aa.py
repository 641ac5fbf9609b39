"""A/A: is the benchmark steady enough for its own bounds?

    PYTHONPATH=src python -m benchmarks.perf.aa --runs 5

Runs two back-to-back sets of the SAME checkout — ``--runs`` runs of
every workload per set, run ``k`` of both sets on seed ``k`` (as the
driver does: another seed each run) — and prints, for all 28 metric x
workload pairs, each set's median and quartiles, the relative
difference, the spread and the bound, flagging (``!``) any pair above
HALF its bound.  The first run of each workload in each set is traced,
and every ``[exact]`` per-layer count, ``ok_frac`` and ``word_acc`` must
be identical between the two sets for the same seed.

Tune with this: if a timing pair exceeds half its bound, add replays or
fix the estimator before widening a bound.  Exit status 1 when a pair
is beyond its full bound or an exact count differs.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from . import harness
from .compare import compare, exceeds, render
from .metrics import EXACT, WORKLOADS

OUT_DIR = Path(__file__).resolve().parent / "out"


def run_set(label: str, seeds: list[int], workloads: list[str]) -> list[dict]:
    runs = []
    for k, seed in enumerate(seeds):
        for workload in workloads:
            t0 = time.perf_counter()
            result = harness.run_once(
                workload, seed, trace=(k == 0),
                out_path=OUT_DIR / f"aa-{label}-{workload}-seed{seed}.json",
            )
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: output check failed")
            runs.append(result)
            print(
                f"set {label} seed {seed} {workload:13} "
                f"{time.perf_counter() - t0:6.1f} s",
                flush=True,
            )
    (OUT_DIR / f"aa-{label}.json").write_text(
        json.dumps({"schema": 1, "runs": runs}) + "\n"
    )
    return runs


def exact_mismatches(a_runs: list[dict], b_runs: list[dict]) -> list[str]:
    """Counts that must repeat for a seed but did not."""
    problems = []
    b_by_key = {(r["workload"], r["seed"]): r for r in b_runs}
    for a in a_runs:
        b = b_by_key.get((a["workload"], a["seed"]))
        if b is None:
            continue
        where = f"{a['workload']} seed {a['seed']}"
        for name in ("ok_frac", "word_acc"):
            if a["end_to_end"][name]["value"] != b["end_to_end"][name]["value"]:
                problems.append(f"{where}: {name} differs")
        if a["diagnostics"]["input_digest"] != b["diagnostics"]["input_digest"]:
            problems.append(f"{where}: generated inputs differ")
        if a["traced"] and b["traced"]:
            for name in sorted(EXACT):
                va, vb = a["per_layer"][name]["value"], b["per_layer"][name]["value"]
                if va != vb:
                    problems.append(f"{where}: {name} {va} != {vb}")
    return problems


def main(argv: list[str] | None = None) -> int:
    names = [name for name, _ in WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    args = parser.parse_args(argv)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    a_runs = run_set("A", seeds, args.workload)
    b_runs = run_set("B", seeds, args.workload)

    rows = compare(a_runs, b_runs)
    print()
    print(render(rows, flag_share=0.5))
    mismatches = exact_mismatches(a_runs, b_runs)
    for problem in mismatches:
        print(f"EXACT MISMATCH {problem}")
    beyond = [r for r in rows if exceeds(r, 1.0)]
    half = [r for r in rows if exceeds(r, 0.5)]
    print(
        f"\n{len(rows)} pairs: {len(half)} above half their bound, "
        f"{len(beyond)} beyond it; {len(mismatches)} exact mismatches"
    )
    return 1 if beyond or mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
