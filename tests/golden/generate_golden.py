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

Two fixtures pin what the CI-tied tasks above cannot reach in fast
mode (there every senone is its own CI parent, so layer 2 never
substitutes a parent score).  ``dictation_cd_fast.json``: sequential
tree decodes of the dictation task re-tied over 1000 context-dependent
senones, all-layers preset.  ``fast_layers.json``: a few frames of
pooled demand straight into :class:`BatchFastGmmScorer` on a small CD
pool, for every on/off layer combination x shortlist size x PDE chunk
width, alone (B=1) and pooled (B=3) — per configuration the per-lane
work counters and a sha256 digest of the scores' ``float.hex()``.
Both were written by the per-lane kernels (``score_requests`` /
``evaluate_pairs`` / ``_pde_pairs``) that the whole-bank array passes
replaced, and are the oracle for that rewrite.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.decoder.fast_gmm import (  # noqa: E402
    FastGmmConfig,
    FastGmmModel,
    FastGmmStats,
)
from repro.decoder.recognizer import Recognizer  # noqa: E402
from repro.hmm.senone import SenonePool  # noqa: E402
from repro.lexicon.triphone import SenoneTying  # noqa: E402
from repro.runtime.scoring import BatchFastGmmScorer  # noqa: E402
from repro.workloads.tasks import (  # noqa: E402
    command_task,
    dictation_task,
    expand_to_context_dependent,
)

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

#: Senone budget of the context-dependent dictation fixture: 153 CI
#: parents under 1000 senones, so CI selection substitutes parent
#: scores for most of the demand (as on the ``bank_tree`` workload).
DICTATION_CD_SENONES = 1000

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


def make_dictation_cd_task(task=None):
    """The dictation task re-tied over a context-dependent senone space
    (``dictation_cd_task`` at the fixture's size); pass the already
    built dictation task to skip training it again."""
    return expand_to_context_dependent(
        task or make_dictation_task(), num_senones=DICTATION_CD_SENONES
    )


def generate_dictation_cd(task) -> dict:
    fixture = generate_dictation("fast", task)
    fixture["task"] = (
        f"expand_to_context_dependent({fixture['task']}, "
        f"num_senones={DICTATION_CD_SENONES})"
    )
    return fixture


# ----------------------------------------------------------------------
# fast_layers.json: the pooled backend, layer by layer, on a CD pool.

#: 153 CI parents with four CD senones each.
LAYER_SENONES = 765
LAYER_LANES = 3
LAYER_FRAMES = 6
#: Thresholds at which every enabled layer fires on the synthetic pool
#: (lanes skip, CI parents substitute AND expand, PDE abandons some
#: components and keeps others).
LAYER_THRESHOLDS = dict(cds_distance=1.0, ci_margin=60.0, pde_margin=40.0)


def fast_layer_configs() -> dict[str, FastGmmConfig]:
    """Every layer combination x shortlist size x PDE chunk width
    (5 does not divide the 39 dimensions; 13 does)."""
    configs = {}
    for combo in itertools.product([False, True], repeat=4):
        for shortlist, chunk in itertools.product((1, 2), (13, 5)):
            layers = "+".join(
                n for on, n in zip(combo, ("cds", "ci", "vq", "pde")) if on
            )
            configs[f"{layers or 'baseline'}/g{shortlist}/c{chunk}"] = FastGmmConfig(
                cds_enabled=combo[0],
                ci_selection_enabled=combo[1],
                gaussian_selection_enabled=combo[2],
                pde_enabled=combo[3],
                gs_shortlist=shortlist,
                pde_chunk=chunk,
                **LAYER_THRESHOLDS,
            )
    return configs


def fast_layer_inputs():
    """The CD pool and the seeded per-lane frames and demand."""
    tying = SenoneTying(num_senones=LAYER_SENONES)
    pool = SenonePool.random(
        LAYER_SENONES, num_components=4, dim=39, rng=np.random.default_rng(5)
    )
    rng = np.random.default_rng(20)
    # Frames near a component mean, so some senones score well.
    obs = np.empty((LAYER_LANES, LAYER_FRAMES, pool.dim))
    for b, t in itertools.product(range(LAYER_LANES), range(LAYER_FRAMES)):
        mean = pool.means[rng.integers(0, LAYER_SENONES), rng.integers(0, 4)]
        obs[b, t] = mean + rng.normal(size=pool.dim)
    # Stationary stretches (CDS food) at DIFFERENT steps per lane.
    for b in range(LAYER_LANES):
        for t in range(1 + b, LAYER_FRAMES, 3):
            obs[b, t] = obs[b, t - 1] + rng.normal(scale=0.5, size=pool.dim)
    # Random demand: a skipping lane meets senones it never scored.
    demand = [
        [
            np.unique(rng.integers(0, LAYER_SENONES, size=int(rng.integers(0, 80))))
            for _ in range(LAYER_LANES)
        ]
        for _ in range(LAYER_FRAMES)
    ]
    demand[2][1] = np.empty(0, dtype=np.int64)  # an active lane asking nothing
    return pool, tying, obs, demand


def fast_layer_record(config: FastGmmConfig, inputs) -> dict:
    """Counters and score digest of one configuration, lane 0 alone
    (``B1``) and all lanes pooled (``B3``)."""
    pool, tying, obs, demand = inputs
    model = FastGmmModel(pool, tying=tying, config=config)
    record = {}
    for lanes in ([0], list(range(LAYER_LANES))):
        scorer = BatchFastGmmScorer(model)
        for row in range(len(lanes)):
            scorer.admit_lane(row)
        digest = hashlib.sha256()
        for t in range(LAYER_FRAMES):
            senones = [demand[t][b] for b in lanes]
            scores = scorer.score_pairs(
                obs[lanes, t, :],
                np.repeat(np.arange(len(lanes)), [s.size for s in senones]),
                np.concatenate(senones),
                lanes=np.arange(len(lanes)),
            )
            digest.update("".join(float(x).hex() for x in scores).encode())
        record[f"B{len(lanes)}"] = {
            "counters": [
                [getattr(scorer.lane_state(row).fast_stats, f) for f in FAST_FIELDS]
                for row in range(len(lanes))
            ],
            "sha256": digest.hexdigest(),
        }
    return record


def generate_fast_layers() -> dict:
    inputs = fast_layer_inputs()
    return {
        "pool": f"SenonePool.random({LAYER_SENONES}, 4, 39, default_rng(5))",
        "counters": list(FAST_FIELDS),
        "configs": {
            name: fast_layer_record(config, inputs)
            for name, config in fast_layer_configs().items()
        },
    }


def write_fast_layers(path: Path) -> None:
    """One configuration per line, so the file stays a few KB."""
    fixture = generate_fast_layers()
    configs = fixture.pop("configs")
    head = json.dumps(fixture, indent=1)[:-2]  # minus the closing "\n}"
    lines = [f'  {json.dumps(k)}: {json.dumps(v)}' for k, v in configs.items()]
    path.write_text(head + ',\n "configs": {\n' + ",\n".join(lines) + "\n }\n}\n")


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
    fixture = generate_dictation_cd(make_dictation_cd_task(task))
    path = fixture_path("fast", "dictation_cd")
    path.write_text(json.dumps(fixture, indent=2) + "\n")
    print(f"wrote {path.name}: {len(fixture['utterances'])} utterances")
    write_fast_layers(GOLDEN_DIR / "fast_layers.json")
    print("wrote fast_layers.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
