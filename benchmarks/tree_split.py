"""Where a ``bank_tree`` step goes, and how many calls it is.

    python3 benchmarks/tree_split.py [--seed 2] [--utterances 100]

``bank_tree`` is 8 lanes of fast-GMM over the lexical tree: a few
hundred live ``(lane, state)`` slots of ~83k per step, so every stage of
:class:`~repro.runtime.lextree.TreeLaneBank` is bound by the NUMBER of
numpy calls, not by arithmetic.  Traced passes over the workload's own
requests — the benchmark's :class:`SpanRecorder` around ``bank.step`` >
``_candidate_slots`` / ``_demand`` / ``tree_update`` /
``apply_beam_rows``, the bank's stage clocks splitting the rest — give
the step as candidates / demand / scoring / token update / token move /
beam / exits / bookkeeping in µs (this box's, best pass per stage).
The count beside them repeats run for run: the C-level calls
(``sys.setprofile`` ``c_call`` events) inside ``bank.step`` over the
first 8-lane stream, per step.  It counts calls of C functions and
methods (``take``, ``divmod``, ``fill``, ``flatnonzero``, ...) and NOT
subscripts: ``a[i, j]`` and ``a[key] = v`` raise no ``c_call`` event
however much they cost, so spelling a 2-D fancy index as a flat-key
``take`` RAISES the count while the step gets faster (the flat-key
step read 149.26 -> 186.73 per step and ran faster).  Report it as a
count of one kind of dispatch, never as a cost, and gate nothing on
it.  The ``[exact]`` work counts (score_pairs calls and pairs, live
states, word exits) are what a change that claims equal work must
leave equal.  It gates nothing and is read-only on ``benchmarks/perf``
(imports, no edits).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _entry in (str(_ROOT / "src"), str(_ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from benchmarks.flat_split import step_c_calls  # noqa: E402
from benchmarks.perf.harness import fingerprint, pin_blas_threads  # noqa: E402

STAGES = (
    "candidates", "demand", "scoring", "token_update", "token_move",
    "beam", "exits", "bookkeeping",
)


def c_calls_in_step(rec, features, lanes: int) -> tuple[int, int]:
    """``(C-level calls inside bank.step, steps)`` over one stream."""
    calls, out = step_c_calls(lambda: rec.decode_stream(features, max_lanes=lanes))
    return calls, out.steps


def run(seed: int = 2, utterances: int | None = None, repeats: int = 3) -> dict:
    import repro.runtime.lextree as lextree_module
    from benchmarks.perf.generator import make_requests
    from benchmarks.perf.spans import SpanRecorder, aggregate
    from benchmarks.perf.workloads import MAX_LANES, SPECS
    from repro.decoder.recognizer import Recognizer

    spec = SPECS["bank_tree"]
    stamp = fingerprint(_ROOT, seed)
    task = spec.build_task()
    requests = make_requests(
        task, seed, utterances or spec.num_requests, spec.min_words, spec.max_words
    )
    features = [r.features for r in requests]
    options = dict(spec.options)
    rec = Recognizer.create(
        task.dictionary, task.pool, task.lm, task.tying,
        task.topology, options.pop("network"), **options,
    )
    scorer = rec.scorer
    rec.decode_stream(features[:1], max_lanes=MAX_LANES)  # caches warm
    first = features[:MAX_LANES]
    calls, call_steps = c_calls_in_step(rec, first, MAX_LANES)

    best = [float("inf")] * len(STAGES)
    for _ in range(repeats):
        recorder = SpanRecorder()
        banks = []
        pairs = {"calls": 0, "pairs": 0}

        def capture_bank(args, kwargs, bank) -> None:
            banks.append(bank)
            recorder.wrap(bank, "step", "step")
            recorder.wrap(bank, "_candidate_slots", "candidates")
            recorder.wrap(bank, "_demand", "demand")

        def count_pairs(args, kwargs, result) -> None:
            pairs["calls"] += 1
            pairs["pairs"] += len(args[1])

        recorder.wrap(rec, "make_bank", "make_bank", capture_bank)
        recorder.wrap(scorer, "score_pairs", "score_pairs", count_pairs)
        recorder.wrap(lextree_module, "tree_update", "token_update")
        recorder.wrap(lextree_module, "apply_beam_rows", "beam")
        try:
            out = rec.decode_stream(features, max_lanes=MAX_LANES)
        finally:
            recorder.unwrap_all()
        bank, steps = banks[-1], out.steps
        busy = aggregate(recorder.spans)
        step, candidates, demand, update, beam = (
            busy[name]["busy_s"]
            for name in ("step", "candidates", "demand", "token_update", "beam")
        )
        scoring_stage, update_stage, exit_stage = (
            bank.stage_scoring_s, bank.stage_update_s, bank.stage_exit_s
        )
        split = (  # in STAGES order
            candidates, demand, scoring_stage - candidates - demand,
            update, update_stage - update, beam, exit_stage - beam,
            step - scoring_stage - update_stage - exit_stage,
        )
        best = [min(b, 1e6 * s / steps) for b, s in zip(best, split)]
    stats = [s for r in out.results for s in r.frame_stats]
    frames = len(stats)
    stamp["load_end"] = list(os.getloadavg())
    return {
        "utterances": len(features),
        "lanes": MAX_LANES,
        "states": rec.network.num_states,
        "frames": frames,
        "steps": steps,
        "score_pairs_calls": pairs["calls"],
        "pairs": pairs["pairs"],
        "active_states_mean": sum(s.active_states for s in stats) / frames,
        "senones_requested": sum(s.requested_senones for s in stats),
        "word_exits": sum(s.word_exits for s in stats),
        "split_us_per_step": dict(zip(STAGES, best)),
        "step_us": sum(best),
        "c_calls_utterances": len(first),
        "c_calls_steps": call_steps,
        "c_calls": calls,
        "fingerprint": stamp,
    }


def render(report: dict) -> str:
    step = report["step_us"]
    lines = [
        f"bank_tree seed {report['fingerprint']['seed']}: "
        f"{report['utterances']} utterances, {report['frames']} frames in "
        f"{report['steps']} steps, {report['lanes']} lanes x "
        f"{report['states']} states",
        f"[exact] score_pairs calls {report['score_pairs_calls']}, pairs "
        f"{report['pairs']}, active_states_mean "
        f"{report['active_states_mean']:.2f}, senones_requested "
        f"{report['senones_requested']}, word_exits {report['word_exits']}",
        f"[count] C-level calls inside bank.step: {report['c_calls']} over the "
        f"{report['c_calls_steps']} steps of the first "
        f"{report['c_calls_utterances']}-utterance stream = "
        f"{report['c_calls'] / report['c_calls_steps']:.2f} per step "
        "(C function calls only, a[i, j] subscripts uncounted: not a cost)",
        "",
        f"traced step {step:.1f} us (best of the passes per stage; share of it):",
    ]
    for name, value in report["split_us_per_step"].items():
        lines.append(f"  {name:<12} {value:8.1f}  {value / step:6.1%}")
    lines += ["", "fingerprint: " + json.dumps(report["fingerprint"])]
    return "\n".join(lines)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--utterances", type=int, default=None)
    args = parser.parse_args()
    pin_blas_threads()  # before numpy is imported anywhere
    print(render(run(args.seed, args.utterances)))
