"""Where a ``bank_dense`` step goes, and what the next lever is worth.

    python3 benchmarks/dense_split.py [--seed 2] [--utterances 100]

ROADMAP item 3 asks to *measure first*: one traced pass of the
``bank_dense`` workload (8 lanes, ``mode="blas"``, every senone every
frame) with the benchmark's own :class:`SpanRecorder` around the
layers of one step — ``bank.step`` > ``scorer.score_pairs`` >
``scorer._score_table`` > ``pool.score_block_blas`` >
``_dense_quadratic`` / ``_fold_components`` — reduced to self time per
step, with the bank's stage clocks splitting what is left of the step.
The ``product`` row is the one stacked product (the mixture constant
rides in the table) with its block call's own glue around it.
The scorer scores each lane's next frames a block AHEAD, so the scoring
share is reported twice more: what is paid once per block (amortised
over the steps that read it) against what is still paid every step, and
the parameter stream as it really is — ``table_streams`` whole-table
passes — beside the frozen harness's ``dense_steps x table bytes``.
Then the sizing sweeps the NEXT decision needs, on the same pool and
real frames: a lane's block at 8 / 32 / 128 frames (per-step cost is
lanes x the block's time / its frames) and float32 against float64
tables.  Timings are this box's, best of ``--repeats``; the machine
fingerprint is printed with them.  It decides nothing and gates nothing.

Read-only on the measuring system: it imports ``SPECS`` /
``make_requests`` / ``SpanRecorder`` / ``aggregate`` / ``fingerprint``
from ``benchmarks/perf`` and edits nothing there.
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

SWEEP_FRAMES = (8, 32, 128)  # frames of ONE lane per block


def _best_us(call, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return 1e6 * best


def run(seed: int = 2, utterances: int | None = None, repeats: int = 30) -> dict:
    import numpy as np

    import repro.hmm.senone as senone_module
    from benchmarks.perf.generator import make_requests
    from benchmarks.perf.spans import SpanRecorder, aggregate
    from benchmarks.perf.workloads import FRAME_S, MAX_LANES, SPECS
    from repro.decoder.recognizer import Recognizer

    spec = SPECS["bank_dense"]
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
    pool, scorer = rec.pool, rec.scorer
    block_frames = scorer._block_frames
    rec.decode_stream(features[:1], max_lanes=MAX_LANES)  # tables built, caches warm

    # -- the traced pass -----------------------------------------------
    recorder = SpanRecorder()
    banks = []

    def capture_bank(args, kwargs, bank) -> None:
        banks.append(bank)
        recorder.wrap(bank, "step", "bank.step")

    recorder.wrap(rec, "make_bank", "make_bank", capture_bank)
    recorder.wrap(scorer, "score_pairs", "score_pairs")
    recorder.wrap(scorer, "_score_table", "_score_table")
    # On the INSTANCE: a wrapper set on the class would lose the
    # staticmethod binding of `_dense_quadratic`.
    recorder.wrap(pool, "score_block_blas", "score_block_blas")
    recorder.wrap(pool, "_dense_quadratic", "_dense_quadratic")
    recorder.wrap(senone_module, "_fold_components", "_fold_components")
    try:
        out = rec.decode_stream(features, max_lanes=MAX_LANES)
    finally:
        recorder.unwrap_all()
    bank, steps = banks[-1], out.steps
    agg = aggregate(recorder.spans)
    per_step = lambda seconds: 1e6 * seconds / steps  # noqa: E731
    score_busy = agg["score_pairs"]["busy_s"]
    step_busy = agg["bank.step"]["busy_s"]
    stages = bank.stage_scoring_s + bank.stage_update_s + bank.stage_exit_s
    split = {
        "product": per_step(
            agg["_dense_quadratic"]["self_s"] + agg["score_block_blas"]["self_s"]
        ),
        "fold": per_step(agg["_fold_components"]["self_s"]),
        "log_zero_map": per_step(agg["_score_table"]["self_s"]),
        "scorer_glue": per_step(agg["score_pairs"]["self_s"]),
        "bank_scoring_glue": per_step(bank.stage_scoring_s - score_busy),
        "token_update": per_step(bank.stage_update_s),
        "word_exits": per_step(bank.stage_exit_s),
        "step_bookkeeping": per_step(step_busy - stages),
    }
    audio_s = out.frames_processed * FRAME_S
    table_mb = pool.table_bytes(rec.precision) / 1e6

    # -- sizing sweeps ---------------------------------------------------
    frames = np.concatenate(features)
    while frames.shape[0] < max(SWEEP_FRAMES):
        frames = np.concatenate([frames, frames])
    tables = pool.blas_tables(rec.precision)
    block_us, product_us = {}, {}
    for k in SWEEP_FRAMES:
        block, per_step_of = frames[:k], MAX_LANES / k
        block_us[k] = per_step_of * _best_us(
            lambda: pool.score_block_blas(block), repeats
        )
        product_us[k] = per_step_of * _best_us(
            lambda: pool._dense_quadratic(block, tables.centre, tables.table), repeats
        )
    lane_block = frames[:block_frames]
    precision_us = {
        precision: MAX_LANES / block_frames * _best_us(
            lambda: pool.score_block_blas(lane_block, precision=precision), repeats
        )
        for precision in ("float64", "float32")
    }
    stamp["load_end"] = list(os.getloadavg())
    return {
        "seed": seed,
        "utterances": len(features),
        "lanes": MAX_LANES,
        "senones": pool.num_senones,
        "components": pool.num_components,
        "dim": pool.dim,
        "steps": steps,
        "dense_steps": scorer.dense_steps,
        "gathered_steps": scorer.fallback_steps,
        "table_streams": scorer.table_streams,
        "block_frames": block_frames,
        "step_us": per_step(step_busy),
        "split_us_per_step": split,
        # Behind the seam, paid once per block (product, fold, LOG_ZERO
        # map); `scorer_glue` is what every step still pays (frame
        # check, row read-out).
        "block_amortised_us_per_step": per_step(agg["_score_table"]["busy_s"]),
        "block_us": 1e6 * agg["_score_table"]["busy_s"] / scorer.table_streams,
        "table_mb_per_audio_s": scorer.table_streams * table_mb / audio_s,
        "harness_table_mb_per_audio_s": scorer.dense_steps * table_mb / audio_s,
        "block_us_per_step": block_us,
        "block_product_us_per_step": product_us,
        "table_precision_us_per_step": precision_us,
        "fingerprint": stamp,
    }


def render(report: dict) -> str:
    step = report["step_us"]
    lines = [
        f"bank_dense seed {report['seed']}: {report['utterances']} utterances, "
        f"{report['lanes']} lanes x {report['senones']} senones x "
        f"{report['components']} components x {report['dim']} dims",
        f"steps {report['steps']} (dense {report['dense_steps']}, gathered "
        f"{report['gathered_steps']}), {step:.0f} us/step traced",
        f"table_mb_per_audio_s {report['table_mb_per_audio_s']:.3f} "
        f"({report['table_streams']} whole-table passes; the harness's "
        f"dense_steps x table bytes reads "
        f"{report['harness_table_mb_per_audio_s']:.3f})",
        "",
        "self time per step (us, share of the step):",
    ]
    for name, value in report["split_us_per_step"].items():
        lines.append(f"  {name:<18} {value:8.1f}  {value / step:6.1%}")
    lines += [
        "",
        f"behind score_pairs, blocks of <= {report['block_frames']} frames per lane "
        "(us/step):",
        f"  block amortised    {report['block_amortised_us_per_step']:8.1f}  "
        f"({report['block_us']:.0f} us per block)",
        f"  per-step remainder {report['split_us_per_step']['scorer_glue']:8.1f}",
        "",
        f"K frames of ONE lane per block, x {report['lanes']} lanes "
        "(us/step: whole block, the product alone):",
    ]
    for k, value in report["block_us_per_step"].items():
        product = report["block_product_us_per_step"][k]
        lines.append(f"  K = {k:<3} {value:8.1f} {product:8.1f}")
    lines += [
        "",
        f"whole-table block at K = {report['block_frames']}, by table precision "
        "(us/step):",
    ]
    for precision, value in report["table_precision_us_per_step"].items():
        lines.append(f"  {precision:<8} {value:8.1f}")
    lines += ["", "fingerprint: " + json.dumps(report["fingerprint"])]
    return "\n".join(lines)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--utterances", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=30)
    args = parser.parse_args()
    pin_blas_threads()  # before numpy is imported anywhere
    print(render(run(args.seed, args.utterances, args.repeats)))
