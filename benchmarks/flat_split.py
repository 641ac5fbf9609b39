"""Where a ``seq_command`` frame goes, and how many calls it is.

    python3 benchmarks/flat_split.py [--seed 2] [--utterances 100]

``seq_command`` is the paper's embedded single stream: a 1-lane flat
``LaneBank``, one 10 ms frame at a time, every stage bound by the NUMBER
of numpy calls, not by arithmetic (11.5 live states of 537).  Traced
passes over the workload's own requests — the benchmark's
:class:`SpanRecorder` around ``bank.step`` > ``_demand`` /
``chain_update`` / ``apply_beam_batch``, the bank's stage clocks
splitting the rest — give the frame as demand / scoring / chain / token
move / beam / exits / bookkeeping in µs (this box's, best pass per
stage).  The count beside them repeats run for run: the C-level calls
(``sys.setprofile`` ``c_call`` events) inside ``bank.step`` over the
first utterance.  It counts calls of C functions and methods
(``take``, ``divmod``, ``fill``, ``flatnonzero``, ...) and NOT
subscripts: ``a[i, j]`` and ``a[key] = v`` raise no ``c_call`` event
however much they cost, so replacing a fancy index with a ``take``
raises the count while the frame may get faster.  Report it as a count
of one kind of dispatch, never as a cost.  It gates nothing and is
read-only on ``benchmarks/perf`` (imports, no edits).
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

from benchmarks.perf.harness import fingerprint, pin_blas_threads  # noqa: E402

STAGES = ("demand", "scoring", "chain", "token_move", "beam", "exits", "bookkeeping")


def step_c_calls(run):
    """``(C-level calls made inside bank.step, result)`` of ``run()``."""
    from repro.runtime.batch import LaneBankBase

    step_code = LaneBankBase.step.__code__
    state = {"inside": 0, "calls": 0}

    def profiler(frame, event, arg) -> None:
        if event == "c_call":
            state["calls"] += state["inside"]
        elif frame.f_code is step_code and event in ("call", "return"):
            state["inside"] = int(event == "call")

    sys.setprofile(profiler)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return state["calls"], result


def c_calls_in_step(rec, features) -> int:
    """C-level calls made inside ``bank.step`` over one ``rec.decode``."""
    return step_c_calls(lambda: rec.decode(features))[0]


def run(seed: int = 2, utterances: int | None = None, repeats: int = 3) -> dict:
    import repro.runtime.batch as batch_module
    from benchmarks.perf.generator import make_requests
    from benchmarks.perf.spans import SpanRecorder, aggregate
    from benchmarks.perf.workloads import SPECS
    from repro.decoder.recognizer import Recognizer

    spec = SPECS["seq_command"]
    stamp = fingerprint(_ROOT, seed)
    task = spec.build_task()
    requests = make_requests(
        task, seed, utterances or spec.num_requests, spec.min_words, spec.max_words
    )
    features = [r.features for r in requests]
    rec = Recognizer.create(
        task.dictionary, task.pool, task.lm, task.tying, task.topology,
        "flat", mode="reference",
    )
    bank = rec.word_stage.bank
    rec.decode(features[0])  # scratch allocated, caches warm
    calls = c_calls_in_step(rec, features[0])
    frames = sum(f.shape[0] for f in features)

    def clocks() -> tuple:
        return bank.stage_scoring_s, bank.stage_update_s, bank.stage_exit_s

    best = [float("inf")] * len(STAGES)
    for _ in range(repeats):
        recorder = SpanRecorder()
        recorder.wrap(bank, "step", "step")
        recorder.wrap(bank, "_demand", "demand")
        recorder.wrap(batch_module, "chain_update", "chain")
        recorder.wrap(batch_module, "apply_beam_batch", "beam")
        before = clocks()
        try:
            results = [rec.decode(f) for f in features]
        finally:
            recorder.unwrap_all()
        busy = aggregate(recorder.spans)
        step, demand, chain, beam = (
            busy[name]["busy_s"] for name in ("step", "demand", "chain", "beam")
        )
        scoring, update, exits = (now - then for now, then in zip(clocks(), before))
        split = (  # in STAGES order
            demand, scoring - demand, chain, update - chain, beam, exits - beam,
            step - scoring - update - exits,
        )
        best = [min(b, 1e6 * s / frames) for b, s in zip(best, split)]
    stats = [s for r in results for s in r.frame_stats]
    stamp["load_end"] = list(os.getloadavg())
    return {
        "utterances": len(features),
        "frames": frames,
        "states": bank.net.num_states,
        "active_states_mean": sum(s.active_states for s in stats) / frames,
        "senones_requested": sum(s.requested_senones for s in stats),
        "word_exits": sum(s.word_exits for s in stats),
        "split_us_per_frame": dict(zip(STAGES, best)),
        "frame_us": sum(best),
        "c_calls_frames": int(features[0].shape[0]),
        "c_calls": calls,
        "fingerprint": stamp,
    }


def render(report: dict) -> str:
    frame = report["frame_us"]
    lines = [
        f"seq_command seed {report['fingerprint']['seed']}: "
        f"{report['utterances']} utterances, "
        f"{report['frames']} frames, 1 lane x {report['states']} states "
        f"({report['active_states_mean']:.2f} live)",
        f"[exact] senones_requested {report['senones_requested']}, "
        f"word_exits {report['word_exits']}\n"
        f"[count] C-level calls inside bank.step: {report['c_calls']} over the "
        f"{report['c_calls_frames']} frames of utterance 0 = "
        f"{report['c_calls'] / report['c_calls_frames']:.2f} per frame "
        "(C function calls only, a[i, j] subscripts uncounted: not a cost)",
        "",
        f"traced frame {frame:.1f} us (best of the passes per stage; share of it):",
    ]
    for name, value in report["split_us_per_frame"].items():
        lines.append(f"  {name:<12} {value:8.1f}  {value / frame:6.1%}")
    lines += ["", "fingerprint: " + json.dumps(report["fingerprint"])]
    return "\n".join(lines)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--utterances", type=int, default=None)
    args = parser.parse_args()
    pin_blas_threads()  # before numpy is imported anywhere
    print(render(run(args.seed, args.utterances)))
