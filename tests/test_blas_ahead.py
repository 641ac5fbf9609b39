"""Full-grid demand scored ahead, per lane, behind ``score_pairs``.

``BatchBlasScorer`` scores a lane's next ``BLOCK_FRAMES`` frames in one
whole-table product when the lane was admitted with its audio.  What
must hold, and is pinned here:

* a lane's blocks are cut from its own utterance alone, so its score
  BITS do not depend on the bank's width, its co-tenants or the arrival
  order (a GEMM row's bits follow the product's shape — with one
  product per step over whoever shares the step they did);
* a cached row answers a step only if the step's frame IS the frame the
  row was scored from; everything else — fed lanes, streaming, direct
  callers, a lane handed other audio than it was admitted with — is the
  direct one-frame product, bit-equal to a stateless scorer;
* the block follows its lane through cancel / re-admit / compact;
* on two CPUs the blocks run on the process's one scoring worker
  thread, shared by every scorer: a block IN FLIGHT there (running, or
  queued behind a running one) is dropped by retire, reset and a
  precision swap and moved by compact, no row of it is read after, it
  counts once whatever the timing, no counter moves after ``reset``, a
  forked child rescores what its parent's worker owed, and scores have
  the same bits whichever thread ran them.
"""

import asyncio
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.logadd import LOG_ZERO
from repro.decoder.recognizer import Recognizer
from repro.decoder.scorer import BLAS_SCORE_ATOL
from repro.decoder.streaming import StreamingRecognizer
from repro.decoder.word_decode import DecoderConfig
from repro.hmm.senone import SenonePool
from repro.runtime import scoring
from repro.runtime.scoring import BLOCK_FRAMES, LEAD_FRAMES, BatchBlasScorer
from repro.serve import Server

DIM = 13


@pytest.fixture(scope="module")
def pool():
    return SenonePool.random(40, num_components=2, dim=DIM, rng=np.random.default_rng(5))


def _grid(rows, num_senones):
    """``rows x every senone`` as a bank hands it out: read-only."""
    rows = np.asarray(rows, dtype=np.int64)
    pairs = np.repeat(rows, num_senones), np.arange(rows.size * num_senones) % num_senones
    for array in pairs:
        array.setflags(write=False)
    return pairs


def _stateless(pool, obs, rows):
    """What a scorer with no lane state answers: one product per step."""
    block = pool.score_block_blas(obs[list(rows)])
    block[np.isneginf(block)] = LOG_ZERO
    return block.ravel()


class _Lanes:
    """Drives a scorer the way a feedback-off bank does: every step the
    active lanes' current frames, demanded as the kept full grid."""

    def __init__(self, pool, width):
        self.pool, self.width = pool, width
        self.scorer = BatchBlasScorer(pool)
        self.feats = {}
        self.t = {}
        self._grids = {}

    def admit(self, lane, features, tell=True):
        self.scorer.admit_lane(lane, features if tell else None)
        self.feats[lane], self.t[lane] = features, 0

    def drop(self, lane):
        self.scorer.retire_lane(lane)
        del self.feats[lane], self.t[lane]

    def compact(self):
        keep = sorted(self.feats)
        self.scorer.compact_lanes(keep)
        self.feats = {new: self.feats[old] for new, old in enumerate(keep)}
        self.t = {new: self.t[old] for new, old in enumerate(keep)}
        self.width = len(keep)

    def step(self):
        """Per-lane ``(N,)`` answers for every lane's next frame."""
        lanes = sorted(self.feats)
        obs = np.zeros((self.width, self.pool.dim))
        for lane in lanes:
            obs[lane] = self.feats[lane][self.t[lane]]
            self.t[lane] += 1
        grid = self._grids.setdefault(
            (self.width, tuple(lanes)), _grid(lanes, self.pool.num_senones)
        )
        out = self.scorer.score_pairs(obs, *grid, lanes=np.asarray(lanes))
        return dict(zip(lanes, out.reshape(len(lanes), -1)))


def _alone(pool, features, precision="float64"):
    """The rows a lane gets with the bank to itself."""
    lanes = _Lanes(pool, 1)
    lanes.scorer.precision = precision
    lanes.admit(0, features)
    return [lanes.step()[0] for _ in range(len(features))]


class TestLaneBlocks:
    """The lane lifecycle on the scored-ahead blocks, scorer driven
    directly: a freed or moved lane is where a stale row could survive."""

    def test_blocks_are_cut_per_lane_and_stream_the_tables_once_each(
        self, pool, rng, spy_block_unions
    ):
        lengths = [BLOCK_FRAMES - 5, 2 * BLOCK_FRAMES + 1, BLOCK_FRAMES]
        feats = [rng.normal(0.0, 2.0, size=(n, DIM)) for n in lengths]
        lanes = _Lanes(pool, 3)
        calls = spy_block_unions(pool)
        for lane, f in enumerate(feats):
            lanes.admit(lane, f)
        got = {lane: [] for lane in range(3)}
        for step in range(max(lengths)):
            for lane in [b for b in list(lanes.feats) if lanes.t[b] == lengths[b]]:
                lanes.drop(lane)
            for lane, row in lanes.step().items():
                got[lane].append(row)
        # One whole-table pass per block: ceil(T / BLOCK_FRAMES) per lane.
        blocks = sum(-(-n // BLOCK_FRAMES) for n in lengths)
        assert lanes.scorer.table_streams == blocks == len(calls)
        assert all(senones is None for senones in calls)
        assert lanes.scorer.dense_steps == max(lengths)
        for lane, f in enumerate(feats):
            assert np.array_equal(got[lane], _alone(pool, f))  # bit for bit
            np.testing.assert_allclose(
                np.ravel(got[lane]),
                pool.score_pairs(f, *_grid(range(len(f)), pool.num_senones)),
                atol=BLAS_SCORE_ATOL,
            )

    def test_cancel_readmit_compact_across_a_block_edge(self, pool, rng):
        """admit -> step past a block edge -> cancel -> re-admit the same
        lane with other audio -> compact -> step: the new occupant never
        sees the previous occupant's rows, the moved lane keeps its own."""
        old = rng.normal(0.0, 2.0, size=(3 * BLOCK_FRAMES, DIM))
        new = rng.normal(0.0, 2.0, size=(BLOCK_FRAMES + 9, DIM))
        keeper = rng.normal(0.0, 2.0, size=(2 * BLOCK_FRAMES + 3, DIM))
        lanes = _Lanes(pool, 3)
        lanes.admit(0, old)
        lanes.admit(2, keeper)
        kept = []
        for _ in range(BLOCK_FRAMES + 4):  # both lanes into their 2nd block
            kept.append(lanes.step()[2])
        lanes.drop(0)  # cancelled mid-block: its unread rows die with it
        lanes.admit(0, new)
        fresh = [lanes.step() for _ in range(3)]
        kept += [rows[2] for rows in fresh]
        lanes.drop(0)
        lanes.admit(1, new)  # same audio again, in the lane compaction moves
        lanes.compact()  # old lanes (1, 2) -> (0, 1)
        assert sorted(lanes.scorer._ahead) == [0, 1]
        moved = []
        for _ in range(len(keeper) - len(kept)):
            rows = lanes.step()
            moved.append(rows[0])
            kept.append(rows[1])
        alone_new = _alone(pool, new)
        assert np.array_equal([rows[0] for rows in fresh], alone_new[:3])
        assert np.array_equal(moved, alone_new[: len(moved)])
        assert np.array_equal(kept, _alone(pool, keeper))

    def test_reset_forgets_every_lane(self, pool, rng):
        lanes = _Lanes(pool, 1)
        lanes.admit(0, rng.normal(size=(5, DIM)))
        lanes.step()
        lanes.scorer.reset()
        assert lanes.scorer._ahead == {} and lanes.scorer.table_streams == 0

    def test_paper_scale_pool_shortens_the_block_not_the_budget(
        self, pool, monkeypatch
    ):
        assert BatchBlasScorer(pool)._block_frames == BLOCK_FRAMES
        # A budget of five frames of this pool stands in for a big pool.
        monkeypatch.setattr(scoring, "BLOCK_SCRATCH_ELEMENTS", 5 * 40 * 2)
        assert BatchBlasScorer(pool)._block_frames == 5


class TestOnlyTheAdmittedFrameReadsTheBlock:
    def test_other_audio_than_admitted_is_scored_directly_for_good(
        self, pool, rng, spy_block_unions
    ):
        feats = rng.normal(0.0, 2.0, size=(12, DIM))
        other = rng.normal(0.0, 2.0, size=(12, DIM))
        scorer = BatchBlasScorer(pool)
        scorer.admit_lane(0, feats)
        grid = _grid([0], pool.num_senones)
        first = scorer.score_pairs(feats[:1], *grid)
        assert scorer.table_streams == 1  # the block
        # Frame 1 is NOT what the lane was admitted with.
        got = scorer.score_pairs(other[1:2], *grid)
        assert np.array_equal(got, _stateless(pool, other[1:2], [0]))
        assert 0 not in scorer._ahead
        # ...and the admitted frame 2 does not bring the block back.
        calls = spy_block_unions(pool)
        got = scorer.score_pairs(feats[2:3], *grid)
        assert len(calls) == 1 and calls[0] is None
        assert np.array_equal(got, _stateless(pool, feats[2:3], [0]))
        assert scorer.table_streams == 3 and scorer.dense_steps == 3
        np.testing.assert_allclose(
            first, _stateless(pool, feats[:1], [0]), atol=BLAS_SCORE_ATOL
        )

    def test_features_changed_in_place_after_admission_do_not_match(self, pool, rng):
        feats = rng.normal(0.0, 2.0, size=(6, DIM))
        scorer = BatchBlasScorer(pool)
        scorer.admit_lane(0, feats)
        grid = _grid([0], pool.num_senones)
        scorer.score_pairs(feats[:1], *grid)  # block scored from the old values
        feats[1] += 1.0
        got = scorer.score_pairs(feats[1:2], *grid)
        assert np.array_equal(got, _stateless(pool, feats[1:2], [0]))

    def test_a_step_mixes_block_rows_and_direct_rows(self, pool, rng):
        """Lane 0 told its audio, lane 1 fed, lane 2 off its audio: one
        direct product for the two, lane 0 from its block."""
        feats = [rng.normal(0.0, 2.0, size=(4, DIM)) for _ in range(3)]
        lanes = _Lanes(pool, 3)
        lanes.admit(0, feats[0])
        lanes.admit(1, feats[1], tell=False)
        lanes.admit(2, feats[2])
        lanes.feats[2] = feats[2] + 0.5  # the bank hands in other frames
        alone = _alone(pool, feats[0])
        for t in range(4):
            streams = lanes.scorer.table_streams
            rows = lanes.step()
            # Step 0: lane 0's block, the block lane 2 never reads, the
            # direct product; afterwards the direct product alone.
            assert lanes.scorer.table_streams == streams + (3 if t == 0 else 1)
            assert np.array_equal(rows[0], alone[t])
            obs = np.stack([feats[1][t], feats[2][t] + 0.5])
            direct = _stateless(pool, obs, [0, 1]).reshape(2, -1)
            assert np.array_equal(rows[1], direct[0])
            assert np.array_equal(rows[2], direct[1])


# ----------------------------------------------------------------------
# The drivers
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def dense(task):
    return Recognizer.create(
        task.dictionary, task.pool, task.lm, task.tying,
        mode="blas", config=DecoderConfig(use_feedback=False),
    )


@pytest.fixture(scope="module")
def ragged(task):
    """16 utterances, shorter than a block up to several blocks."""
    utts = [u.features for u in task.corpus.test + task.corpus.train[:8]]
    lengths = [20, 33, 97, 32, 65, 120, 64, 31, 129, 45, 80, 21, 110, 66, 90, 58]
    return [f[:n] for f, n in zip(utts, lengths)]


def _answers(out):
    return [(r.words, float(r.score).hex()) for r in out]


class TestBatchShapeInvarianceIsExact:
    def test_widths_and_arrival_orders_give_the_same_bits(self, dense, ragged, rng):
        orders = [list(range(16)), list(rng.permutation(16))]
        seen = {}
        for max_lanes in (1, 3, 8):
            for order in orders:
                out = dense.decode_stream([ragged[i] for i in order], max_lanes=max_lanes)
                assert dense.scorer.dense_steps == out.steps
                for i, answer in zip(order, _answers(out)):
                    assert seen.setdefault(i, answer) == answer, (i, max_lanes)

    def test_sequential_decode_equals_the_stream(self, dense, ragged):
        stream = _answers(dense.decode_stream(ragged, max_lanes=3))
        for features, answer in zip(ragged[:6], stream):
            result = dense.decode(features)
            assert (result.words, float(result.score).hex()) == answer
            # Scored ahead like a stream lane: one table pass per block.
            assert dense.scorer.table_streams == -(-len(features) // BLOCK_FRAMES)
            assert result.telemetry.blas_table_streams == dense.scorer.table_streams
            assert result.telemetry.blas_dense_steps == len(features)

    def test_scores_stay_within_tolerance_of_the_exact_kernel(
        self, dense, ragged, task
    ):
        exact = Recognizer.create(
            task.dictionary, task.pool, task.lm, task.tying,
            mode="reference", config=DecoderConfig(use_feedback=False),
        )
        out = dense.decode_stream(ragged, max_lanes=8)
        for features, result in zip(ragged, out):
            oracle = exact.decode(features)
            assert result.words == oracle.words
            assert abs(result.score - oracle.score) <= BLAS_SCORE_ATOL

    def test_stream_telemetry_carries_the_table_passes(self, dense, ragged):
        out = dense.decode_stream(ragged[:3], max_lanes=3)
        blocks = sum(-(-len(f) // BLOCK_FRAMES) for f in ragged[:3])
        assert dense.scorer.table_streams == blocks
        longest = max(out, key=lambda r: r.frames)
        assert longest.telemetry.blas_table_streams == blocks  # rode every step
        assert longest.telemetry.blas_dense_steps == longest.frames


class _StatelessGridScorer:
    """PR 22's answer to a full-grid step: one product over the step's
    rows, nothing kept between steps."""

    def __init__(self, pool):
        self.pool, self.num_senones = pool, pool.num_senones

    def score_pairs(self, observations, pair_rows, pair_senones, lanes=None):
        return _stateless(self.pool, observations, pair_rows[:: self.num_senones])

    def admit_lane(self, lane, features=None):
        pass

    def retire_lane(self, lane):
        return None


class TestFedLanesAreTheDirectPath:
    def _stateless_decode(self, rec, features):
        bank = rec.make_bank(1)
        bank.scorer = _StatelessGridScorer(rec.pool)
        bank.admit(0, 0)
        for frame in features:
            bank.step(frame[None, :])
        return bank.retire(0)

    def test_fed_bank_and_streaming_equal_a_stateless_scorer(self, dense, ragged):
        features = ragged[2]
        oracle = self._stateless_decode(dense, features)
        bank = dense.make_bank(1)
        dense.scorer.reset()
        bank.admit(0, 0)  # no features: a fed lane
        for frame in features:
            bank.step(frame[None, :])
        fed = bank.retire(0)
        assert dense.scorer.table_streams == len(features)  # one pass per frame
        stream = StreamingRecognizer(dense, endpoint_silence_frames=10**6)
        for frame in features:
            stream.feed(frame)
        streamed = stream.finalize()
        for result in (fed, streamed):
            assert result.words == oracle.words
            assert float(result.score).hex() == float(oracle.score).hex()


# ----------------------------------------------------------------------
# Blocks in flight on the scoring worker
# ----------------------------------------------------------------------
def _cpus(monkeypatch, count):
    """The CPUs the process may run on, as the scorer reads them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _worker_threads():
    return [t for t in threading.enumerate() if t.name.startswith("blas-ahead")]


def _wait_for(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "the scoring worker never got there"
        time.sleep(0.001)


class _Gate:
    """Holds every block pass at its start until ``open`` is set, so a
    test acts while a block is IN FLIGHT; records each pass's first
    frame and thread (``main`` or the process's ``blas-ahead`` worker)."""

    def __init__(self, scorer):
        self.open = threading.Event()
        self.open.set()
        self.started, self.finished, self.threads = [], [], set()
        score = scorer._score_ahead

        def gated(block, frames):
            self.started.append(block.start)
            self.threads.add(threading.current_thread().name.split("_")[0])
            assert self.open.wait(timeout=30)
            try:
                return score(block, frames)
            finally:
                self.finished.append(block.start)

        scorer._score_ahead = gated


def _counters(scorer):
    return (
        scorer.dense_steps,
        scorer.fallback_steps,
        scorer.table_streams,
        scorer.block_busy_s,
        scorer.block_wait_s,
    )


class TestBlocksInFlight:
    """Each lifecycle call made while the worker holds a block: the
    lane's next block goes out after ``BLOCK_FRAMES - LEAD_FRAMES``
    steps, and the gate keeps it running (or queued) while the test
    acts."""

    TO_LEAD = BLOCK_FRAMES - LEAD_FRAMES  # the step that sends block 2

    def _held(self, pool, rng, monkeypatch, width, admitted):
        """A bank whose ``admitted`` lanes (3 blocks of audio each)
        have just sent their second block to a held worker."""
        _cpus(monkeypatch, 2)
        lanes = _Lanes(pool, width)
        gate = _Gate(lanes.scorer)
        feats = {}
        for lane in admitted:
            feats[lane] = rng.normal(0.0, 2.0, size=(3 * BLOCK_FRAMES, DIM))
            lanes.admit(lane, feats[lane])
        rows = {lane: [] for lane in admitted}
        for step in range(self.TO_LEAD):
            if step == self.TO_LEAD - 1:
                gate.open.clear()
            for lane, row in lanes.step().items():
                rows[lane].append(row)
        _wait_for(lambda: gate.started[-1:] == [BLOCK_FRAMES])
        return lanes, gate, feats, rows

    def test_retire_drops_a_running_block_and_the_readmitted_lane_reads_its_own(
        self, pool, rng, monkeypatch
    ):
        lanes, gate, feats, _ = self._held(pool, rng, monkeypatch, 1, [0])
        lanes.drop(0)  # cancelled with its next block on the worker
        assert lanes.scorer.table_streams == 2  # the running pass counts
        new = rng.normal(0.0, 2.0, size=(BLOCK_FRAMES + 5, DIM))
        lanes.admit(0, new)
        gate.open.set()
        got = [lanes.step()[0] for _ in range(len(new))]
        assert np.array_equal(got, _alone(pool, new))
        assert lanes.scorer.table_streams == 2 + 2
        assert gate.threads == {"blas-ahead"}  # no step scored a block itself

    def test_a_queued_block_dropped_still_runs_and_counts_once(
        self, pool, rng, monkeypatch
    ):
        # Lanes 0 and 2 reach their lead on the same step: lane 0's
        # block runs (held), lane 2's waits behind it.  The count does
        # not depend on whether the worker got to a block before the
        # drop: a submitted block always runs, and counts when dropped.
        lanes, gate, feats, rows = self._held(pool, rng, monkeypatch, 3, [0, 2])
        assert gate.started == [0, 0, BLOCK_FRAMES]
        lanes.drop(2)
        assert lanes.scorer.table_streams == 3
        gate.open.set()
        while lanes.t[0] < len(feats[0]):
            rows[0].append(lanes.step()[0])
        _wait_for(lambda: len(gate.finished) == 5)
        assert gate.started == [0, 0, BLOCK_FRAMES, BLOCK_FRAMES, 2 * BLOCK_FRAMES]
        assert lanes.scorer.table_streams == 1 + 1 + 3
        assert np.array_equal(rows[0], _alone(pool, feats[0]))

    def test_compact_moves_a_queued_block_with_its_lane(self, pool, rng, monkeypatch):
        lanes, gate, feats, rows = self._held(pool, rng, monkeypatch, 3, [0, 2])
        lanes.drop(0)  # running: counted, never read
        lanes.compact()  # old lane 2 -> lane 0, its queued block with it
        gate.open.set()
        while lanes.t[0] < len(feats[2]):
            rows[2].append(lanes.step()[0])
        assert np.array_equal(rows[2], _alone(pool, feats[2]))
        assert lanes.scorer.table_streams == 1 + 1 + 3
        _wait_for(lambda: len(gate.finished) == len(gate.started))

    def test_no_counter_moves_after_reset(self, pool, rng, monkeypatch):
        lanes, gate, _, _ = self._held(pool, rng, monkeypatch, 1, [0])
        scorer = lanes.scorer
        assert scorer.block_busy_s > 0.0
        scorer.reset()
        assert _counters(scorer) == (0, 0, 0, 0.0, 0.0) and scorer._ahead == {}
        gate.open.set()
        _wait_for(lambda: len(gate.finished) == 2)  # the held pass completes...
        time.sleep(0.01)
        assert _counters(scorer) == (0, 0, 0, 0.0, 0.0)  # ...and counts nowhere

    def test_a_precision_swap_drops_the_block_in_flight(self, pool, rng, monkeypatch):
        lanes, gate, feats, rows = self._held(pool, rng, monkeypatch, 1, [0])
        lanes.scorer.precision = "float32"  # the running float64 pass is waste
        assert lanes.scorer.table_streams == 2
        gate.open.set()
        while lanes.t[0] < len(feats[0]):
            rows[0].append(lanes.step()[0])
        swap = self.TO_LEAD
        old, new = rows[0][:swap], rows[0][swap:]
        assert np.array_equal(old, _alone(pool, feats[0])[:swap])
        # Rescored from the lane's next frame, on the new tables only.
        assert np.array_equal(new, _alone(pool, feats[0][swap:], "float32"))
        assert all((row == row.astype(np.float32)).all() for row in new)


class TestWorkerStress:
    def test_random_lifecycles_keep_every_lane_its_own_rows(self, pool, monkeypatch):
        """Three banks on three threads, each with its own scorer, all
        sharing the one worker (four threads on two CPUs), random admits, cancels,
        compactions and steps under a short switch interval: every row
        any occupant read is the row it gets with a bank to itself."""
        _cpus(monkeypatch, 2)
        finished = {}

        def drive(seed):
            rng = np.random.default_rng(seed)
            lanes, width = _Lanes(pool, 4), 4
            occupant, records = {}, []  # lane -> (features, rows read)
            for _ in range(150):
                for lane in [b for b in lanes.feats if lanes.t[b] == len(lanes.feats[b])]:
                    lanes.drop(lane)
                    del occupant[lane]
                free = [b for b in range(width) if b not in lanes.feats]
                if free and rng.random() < 0.3:
                    frames = int(rng.integers(1, 3 * BLOCK_FRAMES))
                    lane = int(rng.choice(free))
                    occupant[lane] = (rng.normal(0.0, 2.0, size=(frames, DIM)), [])
                    records.append(occupant[lane])
                    lanes.admit(lane, occupant[lane][0])
                elif lanes.feats and rng.random() < 0.1:  # cancelled mid-utterance
                    lane = int(rng.choice(sorted(lanes.feats)))
                    lanes.drop(lane)
                    del occupant[lane]
                elif lanes.feats and rng.random() < 0.05:
                    keep = sorted(lanes.feats)
                    lanes.compact()
                    lanes.width = width
                    occupant = {new: occupant[old] for new, old in enumerate(keep)}
                if lanes.feats:
                    for lane, row in lanes.step().items():
                        occupant[lane][1].append(row)
            finished[seed] = records

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=drive, args=(seed,)) for seed in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(old)
        assert sorted(finished) == [0, 1, 2]
        for records in finished.values():
            assert sum(len(rows) for _, rows in records) > 100
            for features, rows in records:
                assert np.array_equal(rows, _alone(pool, features)[: len(rows)])


class TestPlacement:
    """The worker exists only where the process may use two CPUs, and
    where a block ran never shows in its bits."""

    def _decode(self, task, ragged, monkeypatch, cpus):
        _cpus(monkeypatch, cpus)
        rec = Recognizer.create(
            task.dictionary, task.pool, task.lm, task.tying,
            mode="blas", config=DecoderConfig(use_feedback=False),
        )
        gate = _Gate(rec.scorer)
        out = rec.decode_stream(ragged, max_lanes=4)
        return rec.scorer, gate, _answers(out)

    def test_one_cpu_scores_in_line_with_the_bits_of_the_worker(
        self, task, ragged, monkeypatch
    ):
        inline, inline_gate, inline_out = self._decode(task, ragged, monkeypatch, 1)
        worker, worker_gate, worker_out = self._decode(task, ragged, monkeypatch, 2)
        assert inline_out == worker_out  # words and score bits
        assert inline_gate.threads == {"MainThread"}
        assert worker_gate.threads == {"blas-ahead"}
        assert inline.block_wait_s == 0.0 < inline.block_busy_s
        assert worker.block_busy_s > 0.0
        for counter in ("dense_steps", "fallback_steps", "table_streams"):
            assert getattr(inline, counter) == getattr(worker, counter)

    def test_every_scorer_in_the_process_shares_one_worker(
        self, task, ragged, monkeypatch
    ):
        """Twins (a thread-sharded ``Server``'s shards) add no thread."""
        _cpus(monkeypatch, 2)
        rec = Recognizer.create(
            task.dictionary, task.pool, task.lm, task.tying,
            mode="blas", config=DecoderConfig(use_feedback=False),
        )
        twins = [rec.twin(), rec.twin()]
        threads = set()
        for twin in twins:
            score = twin.scorer._score_ahead

            def recorded(block, frames, score=score):
                threads.add(threading.current_thread())
                return score(block, frames)

            twin.scorer._score_ahead = recorded
        outs = [None, None]

        def decode(i):
            outs[i] = _answers(twins[i].decode_stream(ragged, max_lanes=4))

        runs = [threading.Thread(target=decode, args=(i,)) for i in range(2)]
        for run in runs:
            run.start()
        for run in runs:
            run.join(timeout=120)
        assert outs[0] == outs[1] == _answers(rec.decode_stream(ragged, max_lanes=4))
        assert len(threads) == 1 and threads == set(_worker_threads())

    def test_without_an_affinity_call_the_cpu_count_decides(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        for count, placed in ((None, False), (1, False), (2, True), (8, True)):
            monkeypatch.setattr(os, "cpu_count", lambda count=count: count)
            assert (scoring._WORKER.executor() is not None) == placed

    def test_a_platform_without_fork_hooks_scores_on_the_worker(self):
        """No ``os.register_at_fork`` (Windows), no
        ``os.sched_getaffinity`` (macOS): the module imports, and a
        lane's blocks run on the worker with the in-line bits."""
        src = Path(scoring.__file__).resolve().parents[2]
        result = subprocess.run(
            [sys.executable, "-c", _NO_FORK_HOOKS],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["ok"]


_NO_FORK_HOOKS = """
import os
del os.register_at_fork, os.sched_getaffinity
os.cpu_count = lambda: 2
import threading
import numpy as np
from repro.core.logadd import LOG_ZERO
from repro.hmm.senone import SenonePool
from repro.runtime.scoring import BLOCK_FRAMES, BatchBlasScorer
pool = SenonePool.random(40, num_components=2, dim=13, rng=np.random.default_rng(3))
feats = np.random.default_rng(4).normal(size=(2 * BLOCK_FRAMES + 3, 13))
scorer = BatchBlasScorer(pool)
scorer.admit_lane(0, feats)
n = pool.num_senones
rows = np.zeros(n, dtype=np.intp)
rows.flags.writeable = False
senones = np.arange(n)
senones.flags.writeable = False
got = [scorer.score_pairs(frame[None], rows, senones, lanes=np.array([0])) for frame in feats]
want = np.maximum(pool.score_block_blas(feats[:BLOCK_FRAMES]), LOG_ZERO)
assert np.array_equal(np.array(got[:BLOCK_FRAMES]), want)
assert any(t.name.startswith("blas-ahead") for t in threading.enumerate())
assert scorer.table_streams == 3, scorer.table_streams
print("ok")
"""


_FORK_ON_RUNNING_BLOCKS = """
import os
import numpy as np
os.sched_getaffinity = lambda pid: {0, 1}  # the scoring worker runs
from repro.core.logadd import LOG_ZERO
from repro.hmm.senone import SenonePool
from repro.runtime.scoring import BLOCK_FRAMES, BatchBlasScorer
big = SenonePool.random(2000, num_components=2, dim=39, rng=np.random.default_rng(3))
scorer = BatchBlasScorer(big)
feats = np.random.default_rng(4).normal(size=(BLOCK_FRAMES, 39))
blocks = []
for _ in range(40):
    scorer.admit_lane(0, feats)  # block 0 to the worker; the last one dropped
    blocks.append(scorer._ahead[0].pending)
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    os.waitpid(pid, 0)
for block in blocks:
    block.future.result()  # dropped or not, every block ran
want = np.maximum(big.score_block_blas(feats), LOG_ZERO)
assert np.array_equal(blocks[-1].scores, want)
print(len(blocks), "forks ok")
"""


def _exit_code_within(pid, timeout=60.0):
    """A forked child's exit code, or a failure (and the child killed)
    if it is still running after ``timeout`` — a deadlock fails, it
    does not hang the suite."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.01)
    os.kill(pid, 9)
    os.waitpid(pid, 0)
    pytest.fail(f"forked child {pid} still running after {timeout} s")


class TestForkSafety:
    def test_a_forked_child_forgets_the_block_its_parent_had_in_flight(
        self, pool, rng, monkeypatch
    ):
        lanes, gate, feats, rows = TestBlocksInFlight()._held(
            pool, rng, monkeypatch, 1, [0]
        )
        pid = os.fork()  # the parent's block 2 is running, held
        if pid == 0:
            code = 1
            try:
                gate.open.set()  # the child's copy; no thread waits on it here
                while lanes.t[0] < len(feats[0]):
                    rows[0].append(lanes.step()[0])
                if np.array_equal(rows[0], _alone(pool, feats[0])):
                    code = 0
            finally:
                os._exit(code)
        gate.open.set()
        assert _exit_code_within(pid) == 0

    def test_a_fork_waits_for_the_block_the_worker_is_scoring(self):
        """OpenBLAS tears its thread pool down at a fork: a fork that
        lands while the worker is inside a threaded product wedges the
        fork or the worker for good.  Forks landing on the worker's
        blocks (a table big enough for OpenBLAS to thread its product)
        wait for them, and every block comes back.  Run in a fresh
        interpreter with a time limit, so a wedge fails the test."""
        src = Path(scoring.__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=str(src))
        result = subprocess.run(
            [sys.executable, "-c", _FORK_ON_RUNNING_BLOCKS],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["40", "forks", "ok"]

    def test_a_forked_shard_serves_after_the_parent_decoded(
        self, task, ragged, monkeypatch
    ):
        _cpus(monkeypatch, 2)
        rec = Recognizer.create(
            task.dictionary, task.pool, task.lm, task.tying,
            mode="blas", config=DecoderConfig(use_feedback=False),
        )
        expected = [rec.decode(f) for f in ragged[:6]]
        assert _worker_threads()  # the parent's worker runs

        async def serve():
            async with Server(rec, num_workers=1, max_lanes=3, use_processes=True) as server:
                sessions = [server.submit(f) for f in ragged[:6]]
                return await asyncio.wait_for(
                    asyncio.gather(*[s.result() for s in sessions]), timeout=120
                )

        for served, oracle in zip(asyncio.run(serve()), expected):
            assert served.ok
            assert served.words == oracle.words
            assert float(served.result.score).hex() == float(oracle.score).hex()
