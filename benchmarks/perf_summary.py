"""Render one ``benchmarks/perf`` result file as a markdown summary.

    python3 benchmarks/perf_summary.py benchmarks/perf/out/result-bank_tree-seed2.json

CI's ``perf-contract`` job appends the output to ``$GITHUB_STEP_SUMMARY``
so the per-layer trajectory is readable on the run page without
downloading the artifact: the seven end-to-end metrics, the
``runtime.scoring.*`` / ``decoder.fast_gmm.*`` / stage-share lines, and
every ``[exact]`` count (the counts that must repeat for a seed whatever
the runner's speed).  Read-only: it imports the benchmark's metric
catalogue for the ``exact`` flags and edits nothing under
``benchmarks/perf/``.  Timings on a shared runner are shown, not judged.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.perf.metrics import END_TO_END, EXACT  # noqa: E402

_LAYER_PREFIXES = ("runtime.scoring.", "decoder.fast_gmm.")


def _table(metrics: dict, names) -> list[str]:
    table = ["| metric | value | unit |", "|---|---|---|"]
    for name in names:
        value, unit = metrics[name]["value"], metrics[name]["unit"]
        text = f"{value:.10g}" if isinstance(value, float) else str(value)
        table.append(f"| `{name}` | {text} | {unit} |")
    return table


def render(result: dict) -> str:
    lines = [
        f"### `{result['workload']}` seed {result['seed']} — "
        f"correct: {result['correct']}, "
        f"{result['failed']} of {result['attempted']} sends failed",
        "",
        *_table(result["end_to_end"], (m.name for m in END_TO_END)),
        "",
    ]
    layers = result["per_layer"]
    if not layers:
        return "\n".join(lines + ["(untraced run: no per-layer metrics)"])
    scoring = [
        name
        for name in layers
        if name.startswith(_LAYER_PREFIXES) or name.endswith(".stage_share")
    ]
    lines += ["Scoring layer and stage shares (timings not judged here):", ""]
    lines += _table(layers, scoring) + ["", "`[exact]` counts:", ""]
    lines += _table(layers, (name for name in layers if name in EXACT))
    return "\n".join(lines)


if __name__ == "__main__":
    print(render(json.loads(Path(sys.argv[1]).read_text())))
