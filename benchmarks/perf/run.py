"""One workload, one seed, one process — the benchmark's unit of work.

    python3 benchmarks/perf/run.py --workload bank_tree --seed 1 --seconds 15 --trace 0

Prints, as the LAST line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the seven end-to-end metrics
with ``--trace 0``; every per-layer metric with ``--trace 1``, which
adds one traced replay after the untraced ones).  ``--seconds`` is
accepted because the driver passes it and changes nothing: every
workload replays a FIXED amount of work, sized to the ``run_seconds``
that ``BENCHMARK.json`` declares, so two commits always do the same.
The full result (both metric sets when traced, fingerprint, noise
diagnostics) is written to ``benchmarks/perf/out/``.  Exits 1 when the
output check fails, 2 when the checkout has no program to measure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="ignored: the replay counts are fixed (see above)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", default=None,
        help="result file (default benchmarks/perf/out/result-<workload>-seed<n>.json)",
    )
    parser.add_argument(
        "--inject-mismatch", action="store_true",
        help="corrupt one expected answer: the output check must fail the run",
    )
    args = parser.parse_args(argv)

    if not (_ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program under {_ROOT / 'src'}: nothing to measure", file=sys.stderr)
        return 2
    for entry in (str(_ROOT / "src"), str(_ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)

    from benchmarks.perf.harness import pin_blas_threads

    pin_blas_threads()  # before numpy is imported anywhere
    from benchmarks.perf import workloads

    if args.workload not in workloads.SPECS:
        parser.error(
            f"unknown workload {args.workload!r}; one of {sorted(workloads.SPECS)}"
        )
    out_dir = _HERE / "out"
    result = workloads.run_workload(
        args.workload,
        seed=args.seed,
        trace=bool(args.trace),
        out_dir=out_dir,
        root=_ROOT,
        inject_mismatch=args.inject_mismatch,
    )
    out_path = (
        Path(args.out)
        if args.out
        else out_dir / f"result-{args.workload}-seed{args.seed}.json"
    )
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(result, indent=1) + "\n")

    for problem in result["problems"]:
        print(f"output check: {problem}")
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["per_layer"] if args.trace else result["end_to_end"],
    }
    print(json.dumps(line))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
