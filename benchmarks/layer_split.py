"""Where a step of the search goes, read off the engine's own clock.

    python3 benchmarks/layer_split.py --workload {seq_command,bank_tree,bank_dense}
        [--seed 2] [--utterances 100] [--repeats 3]

The lane bank stamps every step into ONE clock of plain floats,
``bank.stage_s``, an entry per :data:`repro.runtime.batch.STAGES` — the
clock whose sums are the ``stage_*_s`` that ``DecodeTelemetry`` and the
benchmark report.  This decodes the workload's own requests (a 1-lane
``rec.decode`` each for ``seq_command``, an 8-lane ``decode_stream``
for the banks) and prints that clock per step, best pass per stage,
beside the ``[exact]`` work counts of the results' ``frame_stats``,
which a change claiming equal work must leave equal, and each pass's
wall time beside the process's CPU time (their ratio reads above 1 only
while a second thread, the blas scoring worker, runs beside the
search).  For blas it adds the scorer's own counters: the kernel per
step, the whole-table passes (the true table MB per audio second beside
the frozen harness's ``dense_steps x table bytes``), the scored-ahead
blocks' time on the scoring worker and the search thread's wait for
them.  It wraps no method: the bank is ``rec.word_stage.bank`` or what
the instance-shadowable ``make_bank`` seam hands out.  Timings are this
box's (the fingerprint is printed); it gates nothing and edits nothing under
``benchmarks/perf``.  ``blas_sweep.py`` sizes the blas block itself.
"""

from __future__ import annotations

import argparse
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

WORKLOADS = ("seq_command", "bank_tree", "bank_dense")


def prepare(workload: str, seed: int = 2, utterances: int | None = None):
    """``(recognizer, features, fingerprint)`` of one workload, warm."""
    from benchmarks.perf.generator import make_requests
    from benchmarks.perf.workloads import SPECS
    from repro.decoder.recognizer import Recognizer

    spec = SPECS[workload]
    stamp = fingerprint(_ROOT, seed)
    task = spec.build_task()
    requests = make_requests(
        task, seed, utterances or spec.num_requests, spec.min_words, spec.max_words
    )
    options = {"mode": "reference", "network": "flat", **spec.options}
    rec = Recognizer.create(
        task.dictionary, task.pool, task.lm, task.tying, task.topology,
        options.pop("network"), **options,
    )
    features = [r.features for r in requests]
    _decode(rec, workload, features[:1])  # scratch allocated, caches warm
    return rec, features, stamp


def _decode(rec, workload: str, features: list) -> tuple[list, list, int]:
    """One pass: ``(stage seconds, results, steps)`` of the bank that ran it."""
    from benchmarks.perf.workloads import MAX_LANES

    if workload == "seq_command":
        bank = rec.word_stage.bank  # the persistent 1-lane bank
        clock, steps = list(bank.stage_s), bank.steps
        results = [rec.decode(f) for f in features]
        spent = [now - then for now, then in zip(bank.stage_s, clock)]
        return spent, results, bank.steps - steps
    banks = []
    make_bank = rec.make_bank
    rec.make_bank = lambda lanes: banks.append(make_bank(lanes)) or banks[-1]
    try:
        out = rec.decode_stream(features, max_lanes=MAX_LANES)
    finally:
        del rec.make_bank
    return list(banks[-1].stage_s), out.results, out.steps


def measure(rec, workload: str, features: list, stamp: dict, repeats: int = 3) -> dict:
    from benchmarks.perf.workloads import FRAME_S
    from repro.decoder.lextree import TreeLexiconNetwork
    from repro.runtime import scoring
    from repro.runtime.batch import STAGES

    best = [float("inf")] * len(STAGES)
    passes = []
    for _ in range(repeats):
        wall, cpu = time.perf_counter(), time.process_time()
        spent, results, steps = _decode(rec, workload, features)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        passes.append({"wall_s": wall, "cpu_s": cpu, "cpu_per_wall": cpu / wall})
        best = [min(b, 1e6 * s / steps) for b, s in zip(best, spent)]
    stats = [s for r in results for s in r.frame_stats]
    exact = {
        "frames": len(stats),
        "steps": steps,
        "pairs": sum(s.requested_senones for s in stats),
        "word_exits": sum(s.word_exits for s in stats),
    }
    net = rec.network
    # The states every word entry is offered to: the tree's roots, the
    # flat network's word starts.
    starts = net.is_root_start if isinstance(net, TreeLexiconNetwork) else net.is_start
    report = {
        "workload": workload,
        "utterances": len(features),
        "states": net.num_states,
        "roots": int(starts.sum()),
        "active_states_mean": sum(s.active_states for s in stats) / len(stats),
        "exact": exact,
        "split_us_per_step": dict(zip(STAGES, best)),
        "step_us": sum(best),
        "passes": passes,
        "fingerprint": stamp,
    }
    scorer = rec.scorer
    if rec.mode == "blas":  # its counters cover the last pass (decode_stream resets them)
        exact.update(
            dense_steps=scorer.dense_steps,
            gathered_steps=scorer.fallback_steps,
            table_streams=scorer.table_streams,
        )
        on_worker = scoring._cpus() >= 2
        table_mb = rec.pool.table_bytes(rec.precision) / 1e6
        audio_s = len(stats) * FRAME_S
        busy = 1e6 * scorer.block_busy_s / steps
        report["blas"] = {
            "placement": "on the scoring worker" if on_worker else "in line",
            "block_frames": scorer._block_frames,
            "table_mb_per_audio_s": scorer.table_streams * table_mb / audio_s,
            "harness_table_mb_per_audio_s": scorer.dense_steps * table_mb / audio_s,
            "block_busy_us_per_step": busy,  # in line, inside the `score` stage
            "worker_busy_us_per_step": busy if on_worker else 0.0,
            "wait_us_per_step": 1e6 * scorer.block_wait_s / steps,
        }
    stamp["load_end"] = list(os.getloadavg())
    return report


def render(report: dict) -> str:
    step, exact = report["step_us"], report["exact"]
    lines = [
        f"{report['workload']} seed {report['fingerprint']['seed']}: "
        f"{report['utterances']} utterances, {report['states']} states per lane "
        f"({report['roots']} roots), "
        f"{report['active_states_mean']:.2f} live per frame",
        "[exact] " + ", ".join(f"{name} {value}" for name, value in exact.items()),
        "",
        f"step {step:.1f} us by the bank's stage clock "
        "(best of the passes per stage; share of it):",
    ]
    for name, value in report["split_us_per_step"].items():
        lines.append(f"  {name:<12} {value:8.1f}  {value / step:6.1%}")
    lines.append("")
    for i, run in enumerate(report["passes"], 1):
        lines.append(
            f"pass {i}: wall {run['wall_s']:.3f} s, process CPU {run['cpu_s']:.3f} s "
            f"({run['cpu_per_wall']:.2f} CPU s per wall s; above 1 = threads overlapped)"
        )
    blas = report.get("blas")
    if blas:
        lines += [
            "",
            f"table_mb_per_audio_s {blas['table_mb_per_audio_s']:.3f} "
            f"({exact['table_streams']} whole-table passes; the harness's "
            f"dense_steps x table bytes reads {blas['harness_table_mb_per_audio_s']:.3f})",
            f"blocks of <= {blas['block_frames']} frames per lane scored "
            f"{blas['placement']}: worker busy {blas['worker_busy_us_per_step']:.1f}"
            f" us/step (scorer.block_busy_s), search-thread wait "
            f"{blas['wait_us_per_step']:.1f} us/step (scorer.block_wait_s)",
        ]
    lines += ["", "fingerprint: " + json.dumps(report["fingerprint"])]
    return "\n".join(lines)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--utterances", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    pin_blas_threads()  # before numpy is imported anywhere
    rec, features, stamp = prepare(args.workload, args.seed, args.utterances)
    print(render(measure(rec, args.workload, features, stamp, args.repeats)))
