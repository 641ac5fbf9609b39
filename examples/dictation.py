"""Large-vocabulary dictation — the paper's WSJ5K-style scenario.

Builds a 2000-word dictation task (pass --full for the 5000-word
variant used by the benchmarks), decodes the test set at 23-bit and
12-bit acoustic-model mantissas through the hardware models, and
reports WER, active-senone fractions and per-structure real-time
utilisation — the quantities behind the paper's Section IV claims.

Run:  python examples/dictation.py [--full]
"""

import sys

from repro.decoder import Recognizer
from repro.eval import analyze_unit_cycles, corpus_wer
from repro.quant import IEEE_SINGLE, MANTISSA_12
from repro.workloads import dictation_task, expand_to_context_dependent


def main() -> None:
    vocabulary = 5000 if "--full" in sys.argv else 2000
    print(f"building the {vocabulary}-word dictation task (takes ~20 s)...")
    task = dictation_task(
        vocabulary_size=vocabulary, train_sentences=120, test_sentences=10
    )
    task = expand_to_context_dependent(task, num_senones=6000)
    print(
        f"  network: {len(task.dictionary)} words, "
        f"{task.pool.num_senones} senones, bigram LM"
    )

    for fmt in (IEEE_SINGLE, MANTISSA_12):
        recognizer = Recognizer.create(
            task.dictionary, task.pool, task.lm, task.tying,
            mode="hardware", storage_format=fmt, num_unit_pairs=2,
        )
        references, hypotheses, cycles = [], [], []
        for utt in task.corpus.test:
            result = recognizer.decode(utt.features)
            references.append(utt.words)
            hypotheses.append(result.words)
            cycles.extend(result.frame_critical_cycles)
        counts = corpus_wer(references, hypotheses)
        stats = result.scoring_stats  # of the last utterance
        report = analyze_unit_cycles(cycles)
        print(f"\n[{fmt.name}]")
        print(f"  WER {counts.wer:.2%} ({counts.errors}/{counts.reference_length})")
        print(
            f"  model storage {task.pool.storage_bytes(fmt) / 1e6:.2f} MB, "
            f"active senones {stats.mean_active_fraction:.1%} of budget"
        )
        print(f"  per-structure: {report.format()}")

    print("\nlast hypotheses:")
    for ref, hyp in list(zip(references, hypotheses))[:5]:
        print(f"  REF: {' '.join(ref)}")
        print(f"  HYP: {' '.join(hyp)}")


if __name__ == "__main__":
    main()
