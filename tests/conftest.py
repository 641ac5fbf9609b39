"""Shared fixtures: expensive artifacts are built once per session."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.hmm.senone import SenonePool
from repro.workloads.tasks import TrainedTask, tiny_task


def _sequential(rec, base, cache, utt_index, length):
    """``rec.decode(base[utt_index][:length])``, decoded once per
    ``cache`` (the 1-lane oracle of a bank's lanes)."""
    key = (utt_index, length)
    if key not in cache:
        cache[key] = rec.decode(base[utt_index][:length])
    return cache[key]


def _assert_lane_equal(seq, lane, atol=None):
    """A bank's ``lane`` result against the 1-lane decode ``seq`` of the
    same features: words, score BITS, frames, lattice size, per-frame
    statistics, senones requested per frame and the fast-GMM work
    counters (``None`` outside fast mode).  With ``atol`` (the inexact
    blas family) words and frames, and the score within ``atol``."""
    assert lane.words == seq.words
    assert lane.frames == seq.frames
    if atol is not None:
        assert abs(lane.score - seq.score) <= atol
        return
    assert float(lane.score).hex() == float(seq.score).hex()
    assert lane.lattice_size == seq.lattice_size
    assert [f.__dict__ for f in lane.frame_stats] == [
        f.__dict__ for f in seq.frame_stats
    ]
    assert lane.scoring_stats.active_per_frame == seq.scoring_stats.active_per_frame
    assert lane.fast_stats == seq.fast_stats


@pytest.fixture(scope="session")
def task() -> TrainedTask:
    """The 20-word trained tiny task (built once; ~3 s)."""
    return tiny_task(seed=7)


@pytest.fixture(scope="session")
def golden_recipe():
    """``tests/golden/generate_golden.py``, the fixtures' generator."""
    path = Path(__file__).resolve().parent / "golden" / "generate_golden.py"
    spec = importlib.util.spec_from_file_location("golden_generate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def dictation_task(golden_recipe) -> TrainedTask:
    """The scaled-down dictation task the tree fixtures pin (~5 s)."""
    return golden_recipe.make_dictation_task()


@pytest.fixture(scope="session")
def soc(task):
    """The tiny task on the two-structure SoC.  Its reports depend on
    the decode alone, so one instance serves every test."""
    from repro.core.soc import SpeechSoC

    return SpeechSoC(task.dictionary, task.pool, task.lm, task.tying)


@pytest.fixture(scope="session")
def tiny_waveform(task) -> tuple[list[str], np.ndarray]:
    """Audio of the first two words of the tiny task's first test
    utterance: ``(words, waveform)``."""
    from repro.workloads.corpus import _realize_sentence
    from repro.workloads.synthesizer import PhoneSynthesizer

    words = list(task.corpus.test[0].words[:2])
    synth = PhoneSynthesizer(task.corpus.phone_set)
    waveform, _ = _realize_sentence(
        words, task.dictionary, synth, np.random.default_rng(99)
    )
    return words, waveform


@pytest.fixture(scope="session")
def small_pool() -> SenonePool:
    """A random 24-senone pool for unit-level scoring tests."""
    return SenonePool.random(24, num_components=4, dim=13, rng=np.random.default_rng(3))


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture()
def spy_block_unions(monkeypatch):
    """``spy_block_unions(pool)`` records the ``senones`` argument of
    every ``pool.score_block_blas`` call from then on (``None`` = the
    whole tables, no gather) — which blas kernel served a step."""

    def attach(pool: SenonePool) -> list:
        unions = []
        original = pool.score_block_blas

        def spy(observations, senones=None, precision="float64", out=None):
            unions.append(senones)
            return original(observations, senones, precision=precision, out=out)

        monkeypatch.setattr(pool, "score_block_blas", spy)
        return unions

    return attach
