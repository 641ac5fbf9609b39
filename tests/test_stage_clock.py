"""The lane bank's ONE stage clock (``LaneBankBase.stage_s``).

Both banks stamp a plain float per :data:`~repro.runtime.batch.STAGES`
entry at every stage boundary of a step; the three ``stage_*_s`` names
the benchmark and ``DecodeTelemetry`` read are sums of it.
"""

import itertools
import time

import pytest

import repro.runtime.batch as batch_module
import repro.runtime.lextree as lextree_module
from repro.decoder.recognizer import Recognizer
from repro.runtime.batch import STAGES

FROZEN = {
    "stage_scoring_s": ("candidates", "demand", "score", "score_in"),
    "stage_update_s": ("token_update", "token_move"),
    "stage_exit_s": ("beam", "exits"),
}


def _stage_sum(bank, names):
    return sum(bank.stage_s[STAGES.index(name)] for name in names)


def _frozen(bank):
    return {name: getattr(bank, name) for name in FROZEN}


@pytest.fixture(params=["flat", "tree"])
def stream(request, task):
    """A 3-lane ``decode_stream`` of five utterances (the bank compacts
    once the queue is drained), every bank call spied on the instance."""
    rec = Recognizer.create(
        task.dictionary, task.pool, task.lm, task.tying, network=request.param
    )
    seen = {"banks": [], "admitted": {}, "retired": {}, "compactions": [], "step_s": 0.0}
    make_bank = rec.make_bank

    def spied_bank(num_lanes):
        bank = make_bank(num_lanes)
        seen["banks"].append(bank)
        admit, retire, step, compact = bank.admit, bank.retire, bank.step, bank.compact

        def spied_admit(lane, utt, *args, **kwargs):
            admit(lane, utt, *args, **kwargs)
            seen["admitted"][utt] = _frozen(bank)

        def spied_retire(lane):
            seen["retired"][int(bank.lane_utt[lane])] = _frozen(bank)
            return retire(lane)

        def timed_step(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return step(*args, **kwargs)
            finally:
                seen["step_s"] += time.perf_counter() - t0

        def spied_compact():
            before = (bank.stage_s, list(bank.stage_s), bank.num_lanes)
            width = compact()
            after = (bank.stage_s, list(bank.stage_s))
            seen["compactions"].append((before, after, width))
            return width

        bank.admit, bank.retire = spied_admit, spied_retire
        bank.step, bank.compact = timed_step, spied_compact
        return bank

    rec.make_bank = spied_bank
    features = [u.features for u in task.corpus.test[:5]]
    out = rec.decode_stream(features, max_lanes=3)
    (bank,) = seen["banks"]
    return bank, out, seen


def test_the_clock_is_one_plain_float_per_stage(stream):
    bank, _, seen = stream
    assert len(bank.stage_s) == len(STAGES)
    assert all(type(value) is float for value in bank.stage_s)
    assert all(value > 0.0 for value in bank.stage_s)  # every stage ran
    # The stamps sit inside `step`: the clock never reads more than the
    # calls it covers took.
    assert sum(bank.stage_s) <= seen["step_s"]


def test_each_frozen_name_is_the_sum_of_its_stages(stream):
    bank, _, _ = stream
    for name, stages in FROZEN.items():
        assert getattr(bank, name) == _stage_sum(bank, stages)
    assert set(STAGES) == {s for stages in FROZEN.values() for s in stages} | {
        "bookkeeping"
    }
    with pytest.raises(AttributeError):  # read-only: the clock is the one writer
        bank.stage_scoring_s = 0.0


def test_a_lane_telemetry_is_the_mark_delta(stream):
    _, out, seen = stream
    assert len(out.results) == len(seen["admitted"]) == len(seen["retired"]) == 5
    for utt, result in enumerate(out.results):
        then, now = seen["admitted"][utt], seen["retired"][utt]
        for name in FROZEN:
            assert getattr(result.telemetry, name) == now[name] - then[name]
        assert result.telemetry.stage_scoring_s > 0.0


def test_compaction_keeps_the_clock(stream):
    bank, _, seen = stream
    assert seen["compactions"], "the stream's tail never compacted"
    for (clock, before, width), (clock_after, after), new_width in seen["compactions"]:
        assert new_width < width
        assert clock_after is clock and after == before


@pytest.mark.parametrize(
    "network, score_in_stamps", [("flat", 2), ("tree", 1)]  # flat: + its entry bank
)
def test_every_stage_boundary_is_stamped_once_per_step(
    task, monkeypatch, network, score_in_stamps
):
    """On a clock that ticks once per read, every stage gains one tick
    per step (bookkeeping two: ``step``'s entry and exit), so a stamp
    dropped or moved shows as a stage gaining the wrong count."""
    ticks = itertools.count()
    for module in (batch_module, lextree_module):
        monkeypatch.setattr(module, "perf_counter", lambda: float(next(ticks)))
    rec = Recognizer.create(
        task.dictionary, task.pool, task.lm, task.tying, network=network
    )
    features = [u.features for u in task.corpus.test[:5]]
    banks = []
    make_bank = rec.make_bank
    rec.make_bank = lambda lanes: banks.append(make_bank(lanes)) or banks[-1]
    rec.decode_stream(features, max_lanes=3)
    (bank,) = banks
    per_step = dict.fromkeys(STAGES, 1) | {"score_in": score_in_stamps, "bookkeeping": 2}
    assert bank.stage_s == [bank.steps * per_step[name] for name in STAGES]
