"""One generated lane lifecycle over both banks and every scoring family.

A lane bank's contract: the scheduler decides WHEN a lane is admitted,
stepped, cancelled, moved or rescored on other tables, never WHAT it
computes.  Every retired utterance equals the 1-lane
``Recognizer.decode`` of the same features and configuration (the
committed ``tests/golden`` fixtures are that decode's own oracle).
Hypothesis drives ONE state machine over {``LaneBank``,
``TreeLaneBank``} x {reference, hardware, fast, blas float64, blas
float32} x {feedback demand, full grid}, with these rules in any order:

* ``admit`` a slice of a test utterance into a free lane, with its
  features or FED (none; the bank's ``step(frames)`` then hands it its
  next frame) — fed and featured lanes never share a bank;
* ``step`` the bank a few frames, retiring what finished; a featured
  bank first refuses a fed block (it would end every lane at once), and
  with ``junk`` the whole score row holds 0.0, better than any real
  score, before each step — no decode may read it;
* ``grow`` a full bank below its cap by one free lane (the admission
  path of a bank as wide as its occupied lanes), admitting into it or
  leaving it free;
* ``cancel`` a lane mid-utterance, ``compact`` the bank to its occupied
  lanes at any point (a grown lane still free, a lane not yet stepped),
  ``set_precision`` to the other blas table format.

Checked after every rule: the tree's active list is its live slots,
idle rows and their pending entries are dead, and the scorer's lane
state is the bank's (fast: the admitted lanes; blas: blocks only for
occupied featured lanes, and after a step none left with unread rows
on other tables).  ``cancel`` returns the frames the lane decoded, and
each retirement equals ONE cached oracle decode — bit for bit in the
exact families (``conftest._assert_lane_equal``), within
``BLAS_SCORE_ATOL`` for blas float64 and, for a lane that met float32
tables, within ``FLOAT32_SCORE_ATOL`` of the float64 oracle with the
same words.  A failure prints the shrunk rule sequence that replays it.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from conftest import _assert_lane_equal, _sequential
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)
from test_runtime_fast import make_config

from repro.core.logadd import LOG_DEAD
from repro.decoder.recognizer import Recognizer
from repro.decoder.scorer import BLAS_SCORE_ATOL, FLOAT32_SCORE_ATOL
from repro.decoder.word_decode import DecoderConfig
from repro.hmm.senone import BLAS_PRECISIONS
from repro.runtime import LaneBank, TreeLaneBank

FAMILIES = ("reference", "hardware", "fast", "blas-float64", "blas-float32")
#: Test utterances, from frame OFFSET (speech, not the leading silence),
#: and the slices of them admitted: short, one block, and past a blas
#: block edge (with the next block sent ahead).
UTTERANCES = 3
OFFSET = 20
LENGTHS = (5, 14, 35)
MAX_LANES = 4
MAX_STEPS = 12

SETTINGS = settings(
    max_examples=12,
    stateful_step_count=30,
    derandomize=True,
    deadline=None,
    database=None,
    report_multiple_bugs=False,
    suppress_health_check=[HealthCheck.too_slow],
)


@dataclasses.dataclass
class _Rig:
    """One parametrisation: the oracle recognizer, the recognizer whose
    banks the machine drives (a twin: the oracle decodes mid-lifecycle)
    and the oracle's decode cache."""

    network: str
    mode: str
    precision: str
    oracle: Recognizer
    machine: Recognizer
    base: list
    cache: dict


@dataclasses.dataclass
class _Lane:
    utt: int
    length: int
    fed: bool
    decoded: int = 0
    met_float32: bool = False


class LaneLifecycle(RuleBasedStateMachine):
    def __init__(self, rig: _Rig) -> None:
        super().__init__()
        self.rig = rig
        rig.machine._reset_accounting()
        rig.machine.set_precision(rig.precision)
        self.scorer = rig.machine.scorer
        self.lanes: dict[int, _Lane] = {}
        self.admitted = 0

    @initialize(width=st.integers(1, MAX_LANES))
    def make_bank(self, width):
        self.bank = self.rig.machine.make_bank(width)
        kind = TreeLaneBank if self.rig.network == "tree" else LaneBank
        assert type(self.bank) is kind

    def _holds(self, fed: bool) -> bool:
        return any(lane.fed == fed for lane in self.lanes.values())

    @precondition(lambda self: self.bank.free_lanes())
    @rule(
        pick=st.integers(0, MAX_LANES - 1),
        utt=st.integers(0, UTTERANCES - 1),
        length=st.sampled_from(LENGTHS),
        fed=st.booleans(),
    )
    def admit(self, pick, utt, length, fed):
        """A fed lane (no features) joins only a bank holding no
        featured lane, and the other way round."""
        free = self.bank.free_lanes()
        lane = free[-1 - pick % len(free)]  # from the top: compact moves it
        self._admit(lane, utt, length, fed)

    def _admit(self, lane, utt, length, fed):
        if self.lanes:
            fed = self._holds(fed=True)
        features = None if fed else self.rig.base[utt][:length]
        self.bank.admit(lane, self.admitted, features)
        self.admitted += 1
        self.lanes[lane] = _Lane(utt, length, fed)

    @precondition(lambda self: self.lanes)
    @rule(steps=st.integers(1, MAX_STEPS), junk=st.booleans())
    def step(self, steps, junk):
        """``steps`` bank steps, retiring what finished; with ``junk``
        the whole score row holds 0.0 before each."""
        bank, base = self.bank, self.rig.base
        fed = self._holds(fed=True)
        if not fed:
            lane_len = bank.lane_len.copy()
            with pytest.raises(RuntimeError, match="admitted with features"):
                bank.step(np.zeros((bank.num_lanes, bank.recognizer.pool.dim)))
            assert np.array_equal(bank.lane_len, lane_len)
        for _ in range(steps):
            if not self.lanes:
                return
            frames = np.zeros((bank.num_lanes, bank.recognizer.pool.dim))
            for lane, state in self.lanes.items():
                frames[lane] = base[state.utt][state.decoded]
                state.decoded += 1
                state.met_float32 |= self.rig.machine.precision == "float32"
            if junk:
                bank._score_row.fill(0.0)
            finished = bank.step(frames) if fed else bank.step()
            ended = sorted(b for b, s in self.lanes.items() if s.decoded == s.length)
            if fed:
                assert finished == sorted(self.lanes)
                finished = ended
            assert finished == ended
            for lane in finished:
                self._check_retired(self.lanes.pop(lane), bank.retire(lane))
            if self.rig.mode == "blas":
                # A step reads every grid lane's next row on the current
                # tables: none keeps unread rows scored on others.
                for ahead in self.scorer._ahead.values():
                    block = ahead.block
                    assert (
                        ahead.offset == len(block.frames)
                        or block.precision == self.scorer.precision
                    )

    def _check_retired(self, state: _Lane, result) -> None:
        rig = self.rig
        oracle = _sequential(rig.oracle, rig.base, rig.cache, state.utt, state.length)
        atol = None
        if rig.mode == "blas":
            atol = FLOAT32_SCORE_ATOL if state.met_float32 else BLAS_SCORE_ATOL
        _assert_lane_equal(oracle, result, atol=atol)

    def _mid_utterance(self) -> list[int]:
        return sorted(b for b, state in self.lanes.items() if state.decoded)

    @precondition(_mid_utterance)
    @rule(pick=st.integers(0, MAX_LANES - 1))
    def cancel(self, pick):
        """Free a lane mid-utterance."""
        busy = self._mid_utterance()
        lane = busy[pick % len(busy)]
        assert self.bank.cancel(lane) == self.lanes.pop(lane).decoded

    @precondition(
        lambda self: not self.bank.free_lanes() and self.bank.num_lanes < MAX_LANES
    )
    @rule(
        admit=st.booleans(),
        utt=st.integers(0, UTTERANCES - 1),
        length=st.sampled_from(LENGTHS),
        fed=st.booleans(),
    )
    def grow(self, admit, utt, length, fed):
        """Admit into a full bank below its cap: it grows by one lane,
        appended free and frozen, every occupied lane and its scorer
        state left where it was.  The lane is admitted into, or left
        free for the invariant to inspect."""
        bank, width = self.bank, self.bank.num_lanes
        staying = [self._scorer_state(lane) for lane in range(width)]
        assert bank.open_lane() == width and bank.num_lanes == width + 1
        assert bank.delta.shape[0] == len(bank.lattices) == width + 1
        assert [self._scorer_state(lane) for lane in range(width)] == staying
        if admit:
            self._admit(width, utt, length, fed)

    @precondition(lambda self: self.lanes and self.bank.free_lanes())
    @rule()
    def compact(self):
        """Drop the free lanes at any point: each occupied lane, fresh or
        mid-utterance, moves down with its scorer state."""
        bank, keep = self.bank, sorted(self.lanes)
        moving = [self._scorer_state(lane) for lane in keep]
        assert bank.compact() == len(keep) == bank.num_lanes
        assert bank.delta.shape[0] == len(bank.lattices) == len(keep)
        assert bank.active.all()
        assert [self._scorer_state(lane) for lane in range(len(keep))] == moving
        self.lanes = {new: self.lanes[old] for new, old in enumerate(keep)}

    def _scorer_state(self, lane: int):
        """fast: the lane's CDS frame, cache row, skip run and counters;
        blas: its scored-ahead record."""
        if self.rig.mode == "fast":
            state = self.scorer.lane_state(lane)
            cds = (state.last_obs, state.last_scores)
            return [None if a is None else a.tobytes() for a in cds] + [
                state.skip_run, state.fast_stats,
            ]
        return getattr(self.scorer, "_ahead", {}).get(lane)

    @precondition(lambda self: self.rig.mode == "blas" and self._mid_utterance())
    @rule()
    def set_precision(self):
        """Swap to the other table format with lanes mid-utterance."""
        rec = self.rig.machine
        (precision,) = set(BLAS_PRECISIONS) - {rec.precision}
        assert rec.set_precision(precision)
        assert rec.precision == self.scorer.precision == precision

    @invariant()
    def bank_and_scorer_hold_the_lanes(self):
        bank = self.bank
        assert np.flatnonzero(bank.active).tolist() == sorted(self.lanes)
        idle = ~bank.active
        assert (bank.delta[idle] <= LOG_DEAD).all()
        assert (bank.pending_entry[idle] <= LOG_DEAD).all()
        if self.rig.network == "tree":
            assert np.array_equal(bank._alive, np.flatnonzero(bank.delta > LOG_DEAD))
        if self.rig.mode == "fast":
            admitted = self.scorer._lanes["admitted"]
            assert admitted.size <= bank.num_lanes
            assert admitted.tolist() == bank.active[: admitted.size].tolist()
            assert not bank.active[admitted.size :].any()
        elif self.rig.mode == "blas":
            featured = {b for b, state in self.lanes.items() if not state.fed}
            assert set(self.scorer._ahead) <= featured


@pytest.fixture(scope="module")
def oracles():
    """One oracle recognizer and decode cache per network x mode x
    demand, shared by both blas precisions (float64 is the oracle of
    both)."""
    return {}


@pytest.mark.parametrize("feedback", [True, False], ids=["feedback", "grid"])
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("network", ["flat", "tree"])
def test_lane_lifecycle(task, oracles, network, family, feedback):
    mode, _, precision = family.partition("-")
    key = (network, mode, feedback)
    if key not in oracles:
        kwargs = {"fast_config": make_config((True,) * 4)} if mode == "fast" else {}
        oracle = Recognizer.create(
            task.dictionary, task.pool, task.lm, task.tying, mode=mode,
            network=network, config=DecoderConfig(use_feedback=feedback), **kwargs,
        )
        oracles[key] = oracle, {}
    oracle, cache = oracles[key]
    rig = _Rig(
        network, mode, precision or "float64", oracle, oracle.twin(),
        [u.features[OFFSET:] for u in task.corpus.test[:UTTERANCES]], cache,
    )
    run_state_machine_as_test(lambda: LaneLifecycle(rig), settings=SETTINGS)
