"""Shared fixtures: expensive artifacts are built once per session."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hmm.senone import SenonePool
from repro.workloads.tasks import TrainedTask, tiny_task


@pytest.fixture(scope="session")
def task() -> TrainedTask:
    """The 20-word trained tiny task (built once; ~3 s)."""
    return tiny_task(seed=7)


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
