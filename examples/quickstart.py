"""Quickstart: train a tiny recognizer and decode held-out speech.

Builds the 20-word synthetic task (vocabulary, language model, audio,
trained acoustic models), wires up the recognizer in hardware mode —
senone scores flow through the OP-unit model and chain updates through
the Viterbi-unit model — and decodes the held-out test set.

Run:  python examples/quickstart.py
"""

from repro.decoder import Recognizer
from repro.eval import corpus_wer
from repro.workloads import tiny_task


def main() -> None:
    print("building and training the 20-word tiny task...")
    task = tiny_task(seed=7)
    print(
        f"  vocabulary {len(task.dictionary)} words, "
        f"{len(task.corpus.train)} training / {len(task.corpus.test)} test sentences, "
        f"{task.pool.num_senones} senones"
    )

    recognizer = Recognizer.create(
        task.dictionary, task.pool, task.lm, task.tying,
        mode="hardware", num_unit_pairs=2,
    )

    references, hypotheses = [], []
    for utt in task.corpus.test:
        result = recognizer.decode(utt.features)
        references.append(utt.words)
        hypotheses.append(result.words)
        marker = "  " if tuple(utt.words) == result.words else "* "
        print(f"{marker}REF: {' '.join(utt.words)}")
        print(f"{marker}HYP: {' '.join(result.words)}")

    counts = corpus_wer(references, hypotheses)
    print(
        f"\nWER {counts.wer:.1%} ({counts.errors} errors / "
        f"{counts.reference_length} words)"
    )
    stats = result.scoring_stats  # of the last utterance
    print(
        f"active senones: mean {stats.mean_active:.0f}/frame "
        f"({stats.mean_active_fraction:.0%} of {stats.senone_budget}) — "
        "the word-decode feedback keeps the OP units mostly idle"
    )


if __name__ == "__main__":
    main()
