"""``benchmarks/flat_split.py`` — the 1-lane flat frame, split and counted."""

import importlib.util
import sys
from pathlib import Path

from repro.decoder.recognizer import Recognizer

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "flat_split", ROOT / "benchmarks" / "flat_split.py"
)
flat_split = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(flat_split)


def test_three_utterance_cut_splits_a_frame_and_counts_its_calls():
    report = flat_split.run(seed=2, utterances=3, repeats=1)
    split = report["split_us_per_frame"]
    assert list(split) == list(flat_split.STAGES)
    assert all(value >= 0.0 for value in split.values())
    assert abs(sum(split.values()) - report["frame_us"]) < 1e-9
    # One lane, a handful of live states of the whole network.
    assert 0 < report["active_states_mean"] < report["states"]
    assert report["senones_requested"] > 0 and report["word_exits"] > 0
    assert report["c_calls"] > report["c_calls_frames"] > 0

    text = flat_split.render(report)
    for name in flat_split.STAGES:
        assert name in text
    assert "C-level calls inside bank.step" in text and "per frame" in text
    assert '"blas_threads"' in text  # the machine fingerprint


def test_the_call_count_is_exact(task):
    """The same utterance is the same calls — what lets a PR report the
    count before and after as a count, not as a timing."""
    rec = Recognizer.create(task.dictionary, task.pool, task.lm, task.tying)
    features = task.corpus.test[0].features
    rec.decode(features)  # scratch allocated
    first = flat_split.c_calls_in_step(rec, features)
    assert first == flat_split.c_calls_in_step(rec, features) > features.shape[0]
    assert sys.getprofile() is None  # the hook is removed again
