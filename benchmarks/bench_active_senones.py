"""R2 — active senones per frame (Section IV-B discussion).

Paper: "In speech recognition, evaluation of all 6000 senone are not
generally required in every frame.  The Sphinx 3 recognition system
indicates that all senones are not evaluated in each frame.  Only
active senones are evaluated (number of the active senones is much
less than 50% of actual senones)."

Here: the dictation task re-tied over the full 6000-senone budget is
decoded with the word-decode feedback driving the phone decode stage;
the per-frame evaluated-senone fraction is measured, plus the
feedback-off ablation (which is the 100% worst case the bandwidth
number assumes).
"""

import numpy as np

from benchmarks.conftest import PAPER
from repro.decoder.recognizer import Recognizer
from repro.decoder.word_decode import DecoderConfig


def _run(task, use_feedback, utterances=6):
    recognizer = Recognizer.create(
        task.dictionary, task.pool, task.lm, task.tying,
        mode="reference", config=DecoderConfig(use_feedback=use_feedback),
    )
    fractions = []
    for utt in task.corpus.test[:utterances]:
        result = recognizer.decode(utt.features)
        fractions.append(result.mean_active_senone_fraction)
    return result.scoring_stats, float(np.mean(fractions))


def test_active_fraction_below_half(benchmark, dictation_cd):
    stats, mean_fraction = benchmark.pedantic(  # stats: the last utterance's
        _run, args=(dictation_cd, True), rounds=1, iterations=1
    )
    print(
        f"\nsenone budget {stats.senone_budget} (paper: {PAPER['senones']}); "
        f"mean active {stats.mean_active:.0f}/frame = {mean_fraction:.1%} "
        f"(paper: 'much less than 50%'); peak {stats.peak_active_fraction:.1%}"
    )
    assert stats.senone_budget == PAPER["senones"]
    assert mean_fraction < 0.5
    assert stats.peak_active_fraction < 0.7


def test_feedback_ablation(benchmark, dictation_cd):
    """Disabling the Figure-1 feedback arrow forces full evaluation."""
    _, without = benchmark.pedantic(
        _run, args=(dictation_cd, False, 2), rounds=1, iterations=1
    )
    _, with_feedback = _run(dictation_cd, True, 2)
    print(
        f"\nactive senones: feedback ON {with_feedback:.1%}, "
        f"feedback OFF {without:.1%}"
    )
    assert without == 1.0
    assert with_feedback < 0.5
