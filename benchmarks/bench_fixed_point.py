"""R7 — why the units use floating point (Section IV-B discussion).

Paper: "The observation probabilities are calculated in logarithmic
domain so the values can vary from zero to very large negative value,
which may cause a problem for the systems using fixed point
computation."

Measures the actual dynamic range of log senone scores produced by the
dictation decode, then quantizes them into candidate fixed-point
formats: narrow Q formats saturate heavily, while the paper's float32
represents the whole range with bounded relative error.
"""

import numpy as np

from benchmarks.fixed_point import QFormat
from repro.eval.report import format_table
from repro.quant.float_formats import IEEE_SINGLE


def _collect_scores(task, utterances=3):
    scores = []
    for utt in task.corpus.test[:utterances]:
        scores.extend(task.pool.score_frame(frame) for frame in utt.features)
    return np.concatenate(scores)


def test_log_score_dynamic_range(benchmark, dictation):
    scores = benchmark.pedantic(
        _collect_scores, args=(dictation,), rounds=1, iterations=1
    )
    lo, hi = float(scores.min()), float(scores.max())
    print(f"\nlog senone scores span [{lo:.1f}, {hi:.1f}] "
          f"({scores.size:,} scores)")
    # "zero to very large negative value"
    assert hi < 60.0
    assert lo < -500.0


def test_fixed_point_saturation(benchmark, dictation):
    scores = _collect_scores(dictation, utterances=2)
    formats = [QFormat(7, 8), QFormat(9, 6), QFormat(11, 4), QFormat(15, 16)]

    def run():
        rows = []
        for q in formats:
            _, stats = q.quantize_with_stats(scores)
            rows.append([str(q), q.total_bits, f"{stats.saturation_rate:.1%}"])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["format", "bits", "saturated"],
            rows,
            title="R7: fixed-point saturation on real log scores",
        )
    )
    # 16-bit Q formats clip; a wide 32-bit Q15.16 does not.
    assert float(rows[0][2].rstrip("%")) > 20.0
    assert float(rows[3][2].rstrip("%")) == 0.0


def test_float32_covers_range(benchmark, dictation):
    scores = _collect_scores(dictation, utterances=2)

    def run():
        quantized = IEEE_SINGLE.quantize(scores.astype(np.float32))
        nonzero = scores != 0
        return float(
            np.max(
                np.abs(
                    (quantized[nonzero] - scores[nonzero]) / scores[nonzero]
                )
            )
        )

    worst_rel = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nfloat32 worst relative error over the range: {worst_rel:.2e}")
    assert worst_rel < 1e-6
