"""Design-space exploration: mantissa width x clock gating x CDS.

Sweeps the paper's three power/storage levers on one workload and
prints the trade-off table an SoC architect would look at:

* acoustic-model mantissa (23/15/12 bits) — flash size and bandwidth;
* clock gating on/off — idle-cycle power;
* conditional down-sampling on/off — scoring workload.

Run:  python examples/power_exploration.py
"""

import numpy as np

from repro.core.power import PowerModel
from repro.decoder import (
    FastGmmConfig,
    FastGmmModel,
    Recognizer,
    equivalent_activity,
)
from repro.eval import corpus_wer, format_table
from repro.quant import PAPER_FORMATS
from repro.runtime import BatchFastGmmScorer
from repro.workloads import expand_to_context_dependent, tiny_task


def mantissa_sweep(task) -> list[list[object]]:
    rows = []
    for fmt in PAPER_FORMATS:
        recognizer = Recognizer.create(
            task.dictionary, task.pool, task.lm, task.tying,
            mode="hardware", storage_format=fmt,
        )
        refs, hyps = [], []
        for utt in task.corpus.test:
            result = recognizer.decode(utt.features)
            refs.append(utt.words)
            hyps.append(result.words)
        wer = corpus_wer(refs, hyps).wer
        storage = task.pool.storage_bytes(fmt) / 1e6
        bandwidth = storage / 1e3 / 0.010  # GB/s if all senones stream
        rows.append([fmt.name, fmt.total_bits, f"{storage:.3f}",
                     f"{bandwidth:.3f}", f"{wer:.1%}"])
    return rows


def gating_and_cds(task) -> list[list[object]]:
    cd = expand_to_context_dependent(task, num_senones=6000)
    rows = []
    for cds in (False, True):
        config = FastGmmConfig(cds_enabled=cds, cds_distance=18.0)
        scorer = BatchFastGmmScorer(FastGmmModel(cd.pool, config=config))
        scorer.admit_lane(0)  # one lane, every senone, every frame
        senones = np.arange(cd.pool.num_senones)
        lane = np.zeros_like(senones)
        frames = 0
        for utt in cd.corpus.test[:4]:
            for frame in utt.features:
                scorer.score_pairs(frame[None, :], lane, senones)
            frames += utt.num_frames
        stats = scorer.retire_lane(0)
        activity = equivalent_activity(stats, cd.pool.dim, frames * senones.size)
        for gating in (True, False):
            power = PowerModel(clock_gating=gating).unit_report(
                activity, frames * 0.010
            )
            rows.append([
                "on" if cds else "off",
                "on" if gating else "off",
                f"{stats.skip_fraction:.0%}",
                f"{power.average_power_w * 1e3:.1f}",
            ])
    return rows


def main() -> None:
    print("building the tiny task...")
    task = tiny_task(seed=7)

    print()
    print(format_table(
        ["format", "bits/value", "model MB", "full-stream GB/s", "WER"],
        mantissa_sweep(task),
        title="mantissa sweep (hardware decode of the tiny test set)",
    ))

    print()
    print(format_table(
        ["CDS", "clock gating", "frames skipped", "unit power mW"],
        gating_and_cds(task),
        title="power levers at the full 6000-senone scoring load",
    ))
    print("\nreading: narrower mantissas shrink flash and bandwidth ~1/3 with"
          "\nno accuracy cost; gating and CDS each cut unit power independently.")


if __name__ == "__main__":
    main()
