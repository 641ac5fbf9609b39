"""``benchmarks/perf_summary.py`` — the CI step-summary renderer."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "perf_summary", ROOT / "benchmarks" / "perf_summary.py"
)
perf_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_summary)

from benchmarks.perf.metrics import END_TO_END, EXACT, PER_LAYER  # noqa: E402


def _result(traced: bool) -> dict:
    cell = lambda m, v: {"value": v, "unit": m.unit}  # noqa: E731
    return {
        "workload": "bank_tree", "seed": 2, "correct": True,
        "attempted": 400, "failed": 0,
        "end_to_end": {m.name: cell(m, 1.5) for m in END_TO_END},
        "per_layer": {m.name: cell(m, 1410378) for m in PER_LAYER} if traced else {},
    }


def test_traced_result_shows_scoring_lines_and_every_exact_count():
    text = perf_summary.render(_result(traced=True))
    assert "`bank_tree` seed 2 — correct: True, 0 of 400 sends failed" in text
    for m in END_TO_END:
        assert f"| `{m.name}` | 1.5 | {m.unit} |" in text
    for name in ("runtime.scoring.ns_per_pair", "decoder.fast_gmm.dims_frac",
                 "runtime.lextree.stage_share", *EXACT):
        assert f"| `{name}` | 1410378 |" in text
    assert "harness.pass_s_min" not in text  # noise diagnostics stay in the artifact


def test_untraced_result_renders_end_to_end_only():
    text = perf_summary.render(_result(traced=False))
    assert "`utt_per_s`" in text and "untraced run" in text
