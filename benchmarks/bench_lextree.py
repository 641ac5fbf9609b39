"""A3 (extension) — flat vs. tree-structured lexicon search.

Design-choice ablation: the paper's word decode "combines
the triphones ... according to the words in the dictionary" without
fixing the search organisation.  The flat network (one HMM chain per
word) is simplest; the era's production decoders (Sphinx 3 'lextree')
share word prefixes in a tree.  This bench measures what the tree buys
on the 5000-word dictation task: state-bank size, *active* states per
frame, requested senones — at equal WER.
"""

import numpy as np

from repro.decoder.lextree import TreeLexiconNetwork
from repro.decoder.recognizer import Recognizer
from repro.eval.report import format_table
from repro.eval.wer import corpus_wer


def _run(task, use_tree, utterances=8):
    recognizer = Recognizer.create(
        task.dictionary, task.pool, task.lm, task.tying, task.topology,
        network="tree" if use_tree else "flat",
    )
    refs, hyps, active, senones = [], [], [], []
    for utt in task.corpus.test[:utterances]:
        result = recognizer.decode(utt.features)
        refs.append(utt.words)
        hyps.append(result.words)
        active.extend(s.active_states for s in result.frame_stats)
        senones.extend(s.requested_senones for s in result.frame_stats)
    return {
        "states": recognizer.network.num_states,
        "wer": corpus_wer(refs, hyps).wer,
        "active": float(np.mean(active)),
        "senones": float(np.mean(senones)),
    }


def test_tree_vs_flat(benchmark, dictation):
    def run():
        return _run(dictation, use_tree=False), _run(dictation, use_tree=True)

    flat, tree = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["organisation", "states", "WER", "active states/frame",
             "senones/frame"],
            [
                ["flat (per-word chains)", flat["states"], f"{flat['wer']:.1%}",
                 f"{flat['active']:.0f}", f"{flat['senones']:.0f}"],
                ["prefix tree", tree["states"], f"{tree['wer']:.1%}",
                 f"{tree['active']:.0f}", f"{tree['senones']:.0f}"],
            ],
            title="A3: lexicon organisation on the 5000-word dictation task",
        )
    )
    # Same accuracy...
    assert abs(tree["wer"] - flat["wer"]) <= 0.05
    # ...with a smaller state bank and a much smaller active set.
    assert tree["states"] < flat["states"]
    assert tree["active"] < 0.6 * flat["active"]


def test_tree_sharing_grows_with_vocabulary(benchmark):
    """Prefix sharing improves with vocabulary size."""
    from repro.lexicon.dictionary import PronunciationDictionary
    from repro.lexicon.triphone import SenoneTying
    from repro.workloads.wordgen import generate_words

    def build():
        tying = SenoneTying(num_senones=6000)
        factors = {}
        for count in (100, 2000):
            words = generate_words(count, seed=3)
            dictionary = PronunciationDictionary.from_pronunciations(words)
            tree = TreeLexiconNetwork.build(dictionary, tying)
            factors[count] = tree.sharing_factor
        return factors

    factors = benchmark.pedantic(build, rounds=1, iterations=1)
    print(f"\nsharing factor: 100 words {factors[100]:.2f}x, "
          f"2000 words {factors[2000]:.2f}x")
    assert factors[2000] > factors[100]
