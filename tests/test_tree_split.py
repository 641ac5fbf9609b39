"""``benchmarks/tree_split.py`` — the ``bank_tree`` step, split and counted."""

import importlib.util
import sys
from pathlib import Path

from repro.decoder.recognizer import Recognizer

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "tree_split", ROOT / "benchmarks" / "tree_split.py"
)
tree_split = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tree_split)


def test_three_utterance_cut_splits_a_step_and_counts_its_calls():
    report = tree_split.run(seed=2, utterances=3, repeats=1)
    split = report["split_us_per_step"]
    assert list(split) == list(tree_split.STAGES)
    assert all(value >= 0.0 for value in split.values())
    assert abs(sum(split.values()) - report["step_us"]) < 1e-9
    # Three lanes share each step; a few hundred live slots of the bank.
    assert report["steps"] < report["frames"]
    assert 0 < report["active_states_mean"] < report["states"]
    assert report["score_pairs_calls"] == report["steps"]
    assert report["pairs"] == report["senones_requested"] > 0
    assert report["word_exits"] > 0
    assert report["c_calls"] > report["c_calls_steps"] > 0

    text = tree_split.render(report)
    for name in tree_split.STAGES:
        assert name in text
    assert "C-level calls inside bank.step" in text and "per step" in text
    assert '"blas_threads"' in text  # the machine fingerprint


def test_the_call_count_is_exact(task):
    """The same stream is the same calls, run for run."""
    rec = Recognizer.create(
        task.dictionary, task.pool, task.lm, task.tying, network="tree"
    )
    features = [u.features for u in task.corpus.test[:3]]
    rec.decode_stream(features, max_lanes=3)  # scratch allocated
    first = tree_split.c_calls_in_step(rec, features, 3)
    assert first == tree_split.c_calls_in_step(rec, features, 3)
    assert first[0] > first[1] > 0
    assert sys.getprofile() is None  # the hook is removed again
