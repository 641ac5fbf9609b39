"""What one blas block costs, by block length, table precision and mixture count.

    python3 benchmarks/blas_sweep.py [--seed 2] [--utterances 20] [--repeats 30]
                                     [--components 2,3,8]

The ``bank_dense`` pool (8 lanes, every senone every frame) scores each
lane a block of its next frames at a time: ONE product of the frames'
``[x'^2, x', 1]`` with the stacked table, ONE mixture fold, ONE
``LOG_ZERO`` map.  This times those three kernels directly on the
workload's own frames, then the whole ``score_block_blas`` call at 8 /
32 / 128 frames of one lane and, at the scorer's block length, on
float64 against float32 tables.  ``--components`` adds the M axis: the
same three kernels and the whole block, float64 and float32, on a
``SenonePool.random(6000, M, 39)`` pool per M (frames drawn from the
pool's own components), since ``bank_dense`` trains 2 components and
the paper's model has 8.  Each figure is the best of ``--repeats`` on
this box (the fingerprint is printed) and is also given per step —
``lanes x`` the block's time over its frames.  It sizes the next blas
decision; it gates nothing and edits nothing under ``benchmarks/perf``.
``layer_split.py`` splits the step around it.
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
PRECISIONS = ("float64", "float32")


def _best_us(call, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return 1e6 * best


def _kernels_us(pool, block, precision: str, repeats: int) -> dict:
    """Best-of times of one block's product, fold and ``LOG_ZERO`` map."""
    import numpy as np

    from repro.core.logadd import LOG_ZERO
    from repro.hmm.senone import _fold_components

    tables = pool.blas_tables(precision)
    product = pool._dense_quadratic(block, tables.centre, tables.table)
    items = product.reshape(block.shape[0], pool.num_senones, pool.num_components)
    scores = _fold_components(items)
    return {
        "product": _best_us(
            lambda: pool._dense_quadratic(block, tables.centre, tables.table), repeats
        ),
        "fold": _best_us(lambda: _fold_components(items), repeats),
        "log_zero_map": _best_us(
            lambda: np.maximum(scores, LOG_ZERO, out=scores), repeats
        ),
    }


def _component_axis(
    seed: int, components, senones: int, dim: int, frames: int, repeats: int
) -> dict:
    """The kernels and the whole block per mixture count M and table
    precision, on a random ``senones x M x dim`` pool scoring frames
    drawn from its own components."""
    import numpy as np

    from repro.hmm.senone import SenonePool

    axis = {}
    for m in components:
        rng = np.random.default_rng(seed)
        pool = SenonePool.random(senones, m, dim, rng=rng)
        s = rng.integers(senones, size=frames)
        c = rng.integers(m, size=frames)
        noise = rng.standard_normal((frames, dim))
        block = pool.means[s, c] + np.sqrt(pool.variances[s, c]) * noise
        axis[m] = {}
        for precision in PRECISIONS:
            timings = _kernels_us(pool, block, precision, repeats)
            timings["block"] = _best_us(
                lambda: pool.score_block_blas(block, precision=precision), repeats
            )
            axis[m][precision] = timings
    return axis


def run(
    seed: int = 2,
    utterances: int = 20,
    repeats: int = 30,
    components: tuple[int, ...] = (),
    senones: int = 6000,
    dim: int = 39,
) -> dict:
    import numpy as np

    from benchmarks.perf.generator import make_requests
    from benchmarks.perf.workloads import MAX_LANES, SPECS
    from repro.runtime.scoring import BLOCK_FRAMES

    spec = SPECS["bank_dense"]
    stamp = fingerprint(_ROOT, seed)
    task = spec.build_task()
    requests = make_requests(task, seed, utterances, spec.min_words, spec.max_words)
    frames = np.concatenate([r.features for r in requests])
    frames = np.tile(frames, (-(-max(SWEEP_FRAMES) // frames.shape[0]), 1))
    pool = task.pool
    block = frames[:BLOCK_FRAMES]
    kernels_us = _kernels_us(pool, block, "float64", repeats)
    block_us = {
        k: _best_us(lambda: pool.score_block_blas(frames[:k]), repeats)
        for k in SWEEP_FRAMES
    }
    precision_us = {
        precision: _best_us(
            lambda: pool.score_block_blas(block, precision=precision), repeats
        )
        for precision in PRECISIONS
    }
    component_us = _component_axis(
        seed, components, senones, dim, BLOCK_FRAMES, repeats
    )
    stamp["load_end"] = list(os.getloadavg())
    return {
        "lanes": MAX_LANES,
        "senones": pool.num_senones,
        "components": pool.num_components,
        "dim": pool.dim,
        "block_frames": BLOCK_FRAMES,
        "kernels_us": kernels_us,
        "block_us": block_us,
        "precision_us": precision_us,
        "component_pool": {"senones": senones, "dim": dim},
        "component_us": component_us,
        "fingerprint": stamp,
    }


def render(report: dict) -> str:
    lanes, frames = report["lanes"], report["block_frames"]
    per_step = lambda us, k=frames: lanes * us / k  # noqa: E731
    lines = [
        f"bank_dense pool seed {report['fingerprint']['seed']}: "
        f"{report['senones']} senones x {report['components']} components x "
        f"{report['dim']} dims, {lanes} lanes",
        "",
        f"one {frames}-frame block, kernel by kernel (us per block, per step):",
    ]
    for name, us in report["kernels_us"].items():
        lines.append(f"  {name:<14} {us:9.1f} {per_step(us):9.1f}")
    lines += ["", "the whole block call by frames of ONE lane (us per block, per step):"]
    for k, us in report["block_us"].items():
        lines.append(f"  K = {k:<10} {us:9.1f} {per_step(us, k):9.1f}")
    lines += ["", f"the whole block call at K = {frames} by table precision:"]
    for precision, us in report["precision_us"].items():
        lines.append(f"  {precision:<14} {us:9.1f} {per_step(us):9.1f}")
    if report["component_us"]:
        shape = report["component_pool"]
        lines += [
            "",
            f"random {shape['senones']} x M x {shape['dim']} pools, one {frames}-frame "
            "block by mixture count (us per block):",
            f"  {'M':>3} {'precision':<10}"
            + "".join(f"{k:>14}" for k in ("product", "fold", "log_zero_map", "block")),
        ]
        for m, by_precision in report["component_us"].items():
            for precision, us in by_precision.items():
                lines.append(
                    f"  {m:>3} {precision:<10}" + "".join(f"{v:14.1f}" for v in us.values())
                )
    lines += ["", "fingerprint: " + json.dumps(report["fingerprint"])]
    return "\n".join(lines)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--utterances", type=int, default=20)
    parser.add_argument("--repeats", type=int, default=30)
    parser.add_argument(
        "--components",
        type=lambda text: tuple(int(m) for m in text.split(",")),
        default=(),
        help="mixture counts to time on random 6000-senone pools, e.g. 2,3,8",
    )
    args = parser.parse_args()
    pin_blas_threads()  # before numpy is imported anywhere
    print(render(run(args.seed, args.utterances, args.repeats, args.components)))
