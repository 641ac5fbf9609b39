"""One count check at every door: ``decoder.beam.check_count``.

A lane budget, a worker count, a window count or a fast-GMM layer size
that is not an integer used to slip past ``if x < 1`` — a NaN or a
float compares False there — and then either built the wrong thing (a
``2.5``- or NaN-lane stream decoded on every lane it was handed, a
``True`` one on one lane) or failed later with a ``TypeError`` far from
the argument.  Every door refuses it with a ``ValueError`` that names
the argument, at construction.
"""

from __future__ import annotations

import pytest

from repro.decoder import Recognizer
from repro.decoder.fast_gmm import FastGmmConfig
from repro.runtime.batch import LaneBank
from repro.runtime.serving import ServeLoop
from repro.serve import Server
from repro.serve.types import BrownoutPolicy, RetryPolicy

NAN = float("nan")


@pytest.fixture(scope="module")
def rec(task):
    return Recognizer.create(task.dictionary, task.pool, task.lm, task.tying)


def _stream(rec, task, value):
    feats = [utt.features for utt in task.corpus.test[:4]]
    return rec.decode_stream(feats, max_lanes=value)


def _unit_pairs(rec, task, value):
    return Recognizer.create(
        task.dictionary, task.pool, task.lm, task.tying,
        mode="hardware", num_unit_pairs=value,
    )


def _keyword(factory, name):
    return lambda rec, task, value: factory(**{name: value})


def _lane_bank(rec, task, value):
    return LaneBank(rec, value)


def _serve_loop(rec, task, value):
    return ServeLoop(rec, max_lanes=value)


def _server(name):
    return lambda rec, task, value: Server(rec, **{name: value})


NON_INTEGERS = (2.5, NAN, True)

# (door, argument, build(rec, task, value), the values it used to take)
DOORS = [
    ("decode_stream", "max_lanes", _stream, NON_INTEGERS),
    ("LaneBank", "num_lanes", _lane_bank, NON_INTEGERS),
    ("Recognizer", "num_unit_pairs", _unit_pairs, NON_INTEGERS),
    ("ServeLoop", "max_lanes", _serve_loop, NON_INTEGERS),
    ("Server", "num_workers", _server("num_workers"), NON_INTEGERS),
    ("Server", "max_lanes", _server("max_lanes"), NON_INTEGERS),
    ("Server", "max_queue", _server("max_queue"), NON_INTEGERS),
    # A float or NaN backlog was already refused; a bool was taken as 1.
    ("Server", "worker_backlog", _server("worker_backlog"), (True,)),
    *(
        ("FastGmmConfig", name, _keyword(FastGmmConfig.all_layers, name), NON_INTEGERS)
        for name in ("cds_max_run", "gs_codebook_size", "gs_shortlist", "pde_chunk")
    ),
    (
        "RetryPolicy", "max_reconnects",
        _keyword(RetryPolicy, "max_reconnects"), NON_INTEGERS,
    ),
    *(
        ("BrownoutPolicy", name, _keyword(BrownoutPolicy, name), NON_INTEGERS)
        for name in ("engage_windows", "release_windows")
    ),
]

CASES = [
    pytest.param(name, build, value, id=f"{door}-{name}-{value}")
    for door, name, build, values in DOORS
    for value in values
]


@pytest.mark.parametrize("name, build, value", CASES)
def test_door_refuses_a_non_integer_count(rec, task, name, build, value):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        build(rec, task, value)

