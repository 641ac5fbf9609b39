"""Regenerate the committed golden sequential-decode fixtures.

The golden suite (``tests/test_golden_parity.py``) pins the repo's
core invariant — every runtime produces bit-identical per-utterance
outputs — to COMMITTED sequential ``Recognizer.decode`` outputs, so a
regression in the shared kernels cannot hide behind "batch and
sequential changed together".

Run from the repo root after an INTENTIONAL decoder behaviour change
(and say so in the commit message):

    PYTHONPATH=src python tests/golden/generate_golden.py

Scores are stored as ``float.hex()`` so the comparison is bit-exact,
not approximate.  The utterances are drawn from the deterministic
synthetic command-and-control task (the benchmark workload), chosen
for a strong length spread so the drained and continuous runtimes both
exercise ragged retirement against the same fixtures.

A second fixture family pins the TREE-LEXICON path
(``dictation_{reference,hardware,fast}.json``): sequential
``network="tree"`` decodes of a scaled-down large-vocabulary dictation
task, the oracle for the batched prefix-tree runtime
(:mod:`repro.runtime.lextree`).  Both ``*_hardware.json`` files also
pin the hardware accounting of each decode (Viterbi-unit activity, the
summed per-frame critical path, per-OP-unit busy cycles).
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.decoder.fast_gmm import FastGmmConfig, FastGmmStats  # noqa: E402
from repro.decoder.recognizer import Recognizer  # noqa: E402
from repro.workloads.tasks import command_task, dictation_task  # noqa: E402

GOLDEN_DIR = Path(__file__).resolve().parent
TASK_SEED = 19
#: Test-corpus indices with a strong length spread (83..321 frames).
UTTERANCE_INDICES = [14, 11, 4, 1, 2, 6]
MODES = ("reference", "hardware", "fast")

#: The tree-lexicon fixture workload: a scaled-down dictation task
#: (same recipe as ``dictation_task``, smaller vocabulary) that builds
#: in seconds yet still has real prefix sharing to exercise.
DICTATION_KWARGS = dict(
    vocabulary_size=300, train_sentences=60, test_sentences=12, seed=31
)
#: Dictation test-corpus indices with a strong spread (163..560 frames).
DICTATION_INDICES = [4, 1, 6, 3, 10]

#: Every four-layer work counter, straight from the dataclass, so a
#: future counter is pinned the moment it exists.
FAST_FIELDS = tuple(f.name for f in dataclasses.fields(FastGmmStats))


def make_recognizer(mode: str, task, network: str = "flat") -> Recognizer:
    """The canonical per-mode recognizer (fast = the all-layers preset).

    Single-sourced: the golden-parity test imports THIS function, so
    the fixtures and the parity checks cannot drift apart.
    """
    kwargs = {}
    if mode == "fast":
        kwargs["fast_config"] = FastGmmConfig.all_layers()
    return Recognizer.create(
        task.dictionary, task.pool, task.lm, task.tying,
        mode=mode, network=network, **kwargs,
    )


def make_dictation_task():
    """The dictation workload the tree fixture was generated from."""
    return dictation_task(**DICTATION_KWARGS)


def make_tree_recognizer(task, mode: str = "reference") -> Recognizer:
    """The canonical tree-lexicon recognizer the fixtures pin.

    ``network="tree"`` in each golden mode; the committed sequential
    outputs are the bit-exact oracle the sequential, drained-batch and
    continuous tree runtimes are all checked against.
    """
    return make_recognizer(mode, task, network="tree")


def fixture_path(mode: str, family: str = "command") -> Path:
    return GOLDEN_DIR / f"{family}_{mode}.json"


def utterance_record(index: int, result) -> dict:
    """What the fixtures pin of one sequential decode."""
    record = {
        "index": index,
        "frames": result.frames,
        "words": list(result.words),
        "score_hex": float(result.score).hex(),
        "score": result.score,  # human-readable; score_hex is the oracle
        "lattice_size": result.lattice_size,
        "active_states": [s.active_states for s in result.frame_stats],
        "requested_senones": [
            s.requested_senones for s in result.frame_stats
        ],
        "word_exits": [s.word_exits for s in result.frame_stats],
    }
    if result.fast_stats is not None:
        record["fast_stats"] = {
            f: getattr(result.fast_stats, f) for f in FAST_FIELDS
        }
    record.update(hardware_record(result))
    return record


def hardware_record(result) -> dict:
    """The hardware accounting of one decode (hardware mode only)."""
    if result.viterbi_activity is None:
        return {}
    return {
        "viterbi_activity": result.viterbi_activity,
        "critical_cycles_sum": sum(result.frame_critical_cycles),
        "op_unit_cycles_busy": [
            a["cycles_busy"] for a in result.op_unit_activities
        ],
    }


def generate(mode: str, task) -> dict:
    rec = make_recognizer(mode, task)
    utterances = [
        utterance_record(index, rec.decode(task.corpus.test[index].features))
        for index in UTTERANCE_INDICES
    ]
    return {
        "task": f"command_task(seed={TASK_SEED})",
        "mode": mode,
        "utterance_indices": UTTERANCE_INDICES,
        "utterances": utterances,
    }


def generate_dictation(mode: str, task) -> dict:
    rec = make_tree_recognizer(task, mode)
    utterances = [
        utterance_record(index, rec.decode(task.corpus.test[index].features))
        for index in DICTATION_INDICES
    ]
    kwargs = ", ".join(f"{k}={v}" for k, v in DICTATION_KWARGS.items())
    return {
        "task": f"dictation_task({kwargs})",
        "mode": mode,
        "network": "tree",
        "sharing_factor": round(rec.network.sharing_factor, 4),
        "utterance_indices": DICTATION_INDICES,
        "utterances": utterances,
    }


def main() -> int:
    print(f"building command_task(seed={TASK_SEED})...")
    task = command_task(seed=TASK_SEED)
    for mode in MODES:
        fixture = generate(mode, task)
        path = fixture_path(mode)
        path.write_text(json.dumps(fixture, indent=2) + "\n")
        lengths = [u["frames"] for u in fixture["utterances"]]
        print(f"wrote {path.name}: {len(lengths)} utterances, frames {lengths}")
    print("building the dictation tree-fixture task...")
    task = make_dictation_task()
    for mode in MODES:
        fixture = generate_dictation(mode, task)
        path = fixture_path(mode, "dictation")
        path.write_text(json.dumps(fixture, indent=2) + "\n")
        lengths = [u["frames"] for u in fixture["utterances"]]
        print(f"wrote {path.name}: {len(lengths)} utterances, frames {lengths}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
