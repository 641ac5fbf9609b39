"""Apply the benchmark's bounds to two result files.

    python -m benchmarks.perf.compare A.json B.json

``A`` is the parent, ``B`` the change; each file holds one or more runs
per workload (``python -m benchmarks.perf --out``, or the A/A tool's
sets).  For every end-to-end metric x workload pair it prints both
medians and quartiles, how much WORSE ``B``'s median is as a share of
``A``'s, the run-to-run spread (inter-quartile range / median, the
wider of the two sides) and a verdict:

* ``unresolved`` — the spread exceeds the bound, so the pair cannot be
  called unchanged (unless every ``B`` run beats every ``A`` run);
* ``regressed`` — ``B``'s median is worse than ``A``'s by more than the
  bound;
* ``ok`` otherwise.

Exit status 1 if any pair regressed, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

from .metrics import END_TO_END, WORKLOADS

__all__ = ["load_runs", "compare", "exceeds", "render"]


def load_runs(path: Path) -> list[dict]:
    document = json.loads(Path(path).read_text())
    return document["runs"] if "runs" in document else [document]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _share(difference: float, median: float) -> float:
    """``difference`` as a share of ``median``; a zero median (every
    send failed: ``ok_frac`` 0) makes any difference infinite."""
    if median:
        return difference / median
    return 0.0 if difference == 0 else float("inf") * difference


def _values(runs: list[dict], workload: str, metric: str) -> list[float]:
    return [
        r["end_to_end"][metric]["value"] for r in runs if r["workload"] == workload
    ]


def compare(a_runs: list[dict], b_runs: list[dict]) -> list[dict]:
    """One row per (workload, end-to-end metric) present on both sides."""
    rows = []
    for workload, _ in WORKLOADS:
        for metric in END_TO_END:
            a = _values(a_runs, workload, metric.name)
            b = _values(b_runs, workload, metric.name)
            if not a or not b:
                continue
            a_q, b_q = _quartiles(a), _quartiles(b)
            sign = 1.0 if metric.better == "lower" else -1.0
            worse = sign * _share(b_q[1] - a_q[1], a_q[1])
            spread = max(
                _share(a_q[2] - a_q[0], a_q[1]), _share(b_q[2] - b_q[0], b_q[1])
            )
            all_better = all(sign * (y - x) < 0 for x in a for y in b)
            if spread > metric.bound and not all_better:
                verdict = "unresolved"
            elif worse > metric.bound:
                verdict = "regressed"
            else:
                verdict = "ok"
            rows.append(
                {
                    "workload": workload, "metric": metric.name,
                    "unit": metric.unit, "bound": metric.bound,
                    "a": a_q, "b": b_q, "runs": (len(a), len(b)),
                    "worse": worse, "spread": spread, "verdict": verdict,
                }
            )
    return rows


def exceeds(row: dict, share: float) -> bool:
    """Is the pair's difference (either way) or spread above
    ``share`` x its bound?"""
    return max(abs(row["worse"]), row["spread"]) > share * row["bound"]


def _side(q: tuple[float, float, float]) -> str:
    return f"{q[1]:11.4f} [{q[0]:9.4f}..{q[2]:9.4f}]"


def render(rows: list[dict], flag_share: float = 1.0) -> str:
    """The table; rows that :func:`exceeds` ``flag_share`` are marked ``!``."""
    lines = [
        f"{'workload':13} {'metric':15} {'unit':5} "
        f"{'A median [q1..q3]':>34} {'B median [q1..q3]':>34} "
        f"{'worse':>8} {'spread':>8} {'bound':>6}  verdict"
    ]
    for r in rows:
        lines.append(
            f"{r['workload']:13} {r['metric']:15} {r['unit']:5} "
            f"{_side(r['a']):>34} {_side(r['b']):>34} "
            f"{r['worse']:+8.2%} {r['spread']:8.2%} {r['bound']:6.4f}  "
            f"{r['verdict']}{' !' if exceeds(r, flag_share) else ''}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    rows = compare(load_runs(args.a), load_runs(args.b))
    print(render(rows))
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
