"""R3 — real-time feasibility of two 50 MHz structures (Section IV-B).

Paper: "Two such dedicated structures (observation probability unit
and the Viterbi decoder combined) can support real time speech
recognition."

Two complementary measurements:

1. **Analytic sweep** over the active-senone fraction at the paper's
   full design point (6000 senones, 8 components, 39 dims): cycles per
   10 ms frame per structure, for 1 and 2 structures.  Shows the
   crossover — one unit cannot carry ~45% active senones, two can.
2. **Measured decode**: the 6000-senone dictation task decoded through
   the hardware models; per-frame critical-path cycles vs the 500,000
   cycle budget.
"""

import math

import numpy as np
import pytest

from benchmarks.conftest import PAPER
from repro.core.opunit import OpUnitSpec
from repro.core.viterbi_unit import ViterbiUnitSpec
from repro.decoder.recognizer import Recognizer
from repro.eval.realtime import analyze_unit_cycles, frame_cycle_budget
from repro.eval.report import format_table


def _sweep_rows():
    spec = OpUnitSpec(feature_dim=PAPER["dim"])
    viterbi = ViterbiUnitSpec()
    budget = frame_cycle_budget(PAPER["clock_hz"], PAPER["frame_period_s"])
    per_senone = spec.cycles_per_senone(PAPER["components"])
    # Viterbi work: ~2 transitions per active HMM state; active states
    # scale with active senones (3 states per senone is conservative).
    rows = []
    for fraction in (0.1, 0.2, 0.3, 0.45, 0.5, 0.75, 1.0):
        active = int(PAPER["senones"] * fraction)
        viterbi_cycles = viterbi.cycles_for_transitions(2 * 3 * active)
        for units in (1, 2):
            op_cycles = (active // units) * per_senone
            total = op_cycles + viterbi_cycles // units
            rows.append(
                [
                    f"{fraction:.0%}",
                    units,
                    total,
                    f"{total / budget:.2f}",
                    "yes" if total <= budget else "NO",
                ]
            )
    return rows, budget, per_senone


def test_analytic_sweep(benchmark):
    rows, budget, per_senone = benchmark.pedantic(_sweep_rows, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["active", "structures", "cycles/frame", "RTF", "real-time"],
            rows,
            title=(
                f"R3: cycles per 10 ms frame (budget {budget:,}; "
                f"{per_senone} cycles/senone at M=8, L=39)"
            ),
        )
    )
    by_key = {(r[0], r[1]): r[4] for r in rows}
    # The paper's operating point: <50% active, two structures.
    assert by_key[("45%", 2)] == "yes"
    # One structure cannot carry the same load...
    assert by_key[("45%", 1)] == "NO"
    # ...and even two structures cannot do the 100% worst case.
    assert by_key[("100%", 2)] == "NO"


def test_measured_decode_real_time(benchmark, dictation_cd):
    def run():
        recognizer = Recognizer.create(
            dictation_cd.dictionary, dictation_cd.pool, dictation_cd.lm,
            dictation_cd.tying, mode="hardware", num_unit_pairs=2,
        )
        cycles = []
        for utt in dictation_cd.corpus.test[:4]:
            result = recognizer.decode(utt.features)
            cycles.extend(result.frame_critical_cycles)
        return cycles

    cycles = benchmark.pedantic(run, rounds=1, iterations=1)
    report = analyze_unit_cycles(
        cycles, PAPER["clock_hz"], PAPER["frame_period_s"]
    )
    print(f"\nmeasured (6000-senone task, 3-comp models, 2 structures): "
          f"{report.format()}")
    assert report.is_real_time


def test_dma_in_the_loop(benchmark):
    """R3 with the memory path modelled: DMA must not steal real time.

    The paper's ~45% operating point is cut into two contiguous halves,
    one burst (16 setup cycles, 32 bytes/cycle) per structure, double
    buffered: only the first senone's fetch and the stream's excess over
    compute are on the critical path.  The frame must still fit the
    500k-cycle budget, and fetch must hide behind compute (the reason
    the paper insists on DMA access).
    """
    per_senone = OpUnitSpec().cycles_per_senone(PAPER["components"])
    senone_bytes = PAPER["components"] * (2 * PAPER["dim"] + 1) * 4
    first_fetch = 16 + math.ceil(senone_bytes / 32)

    def run():
        halves = np.array_split(np.arange(int(PAPER["senones"] * 0.45)), 2)
        compute = [half.size * per_senone for half in halves]
        fetch = [
            first_fetch + max(math.ceil(half.size * senone_bytes / 32) - work, 0)
            for half, work in zip(halves, compute)
        ]
        return compute, fetch

    compute, fetch = benchmark.pedantic(run, rounds=1, iterations=1)
    budget = frame_cycle_budget(PAPER["clock_hz"], PAPER["frame_period_s"])
    critical = max(max(work, stream) for work, stream in zip(compute, fetch))
    imbalance = (max(compute) - min(compute)) / max(compute)
    print(
        f"\nDMA-in-loop at 45% active: critical {critical:,} "
        f"cycles (budget {budget:,}), {len(compute)} transfers, "
        f"imbalance {imbalance:.1%}"
    )
    assert critical <= budget
    for work, stream in zip(compute, fetch):
        assert stream <= work  # double buffering hides the stream


def test_paper_budget_constant(benchmark):
    budget = benchmark.pedantic(
        frame_cycle_budget,
        args=(PAPER["clock_hz"], PAPER["frame_period_s"]),
        rounds=1,
        iterations=1,
    )
    assert budget == 500_000
