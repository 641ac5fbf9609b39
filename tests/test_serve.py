"""The async serving front door (`repro.serve`) + its runtime bridge.

Covers, per the PR's acceptance criteria:

* the push-queue :class:`~repro.runtime.serving.ServeLoop` bridge
  (deterministic deadline interleavings via an injected clock);
* wall-clock timing metadata populated by ALL THREE runtimes;
* admission control (typed :class:`AdmissionRejected` load shedding),
  typed deadline timeouts (queued and mid-decode), cancellation;
* streaming sessions (frames + raw audio through the frontend,
  partial-hypothesis callbacks, endpoint auto-finish);
* the headline integration: >= 16 concurrent sessions through a
  2-worker SHARDED (forked) server at ``max_lanes=4`` per engine, in
  reference and blas modes, with per-utterance outputs bit-identical
  (reference) / word-identical within tolerance (blas) to sequential
  decode, deadline-missed sessions resolving to typed timeouts and
  over-capacity submits raising typed rejections.

No pytest-asyncio dependency: async tests run under ``asyncio.run``.
"""

import asyncio
import itertools
import math
import queue
import threading
import time
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import _assert_lane_equal
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decoder import Recognizer
from repro.decoder.scorer import BLAS_SCORE_ATOL
from repro.runtime.serving import (
    STOP,
    CancelJob,
    DecodeJob,
    JobCancelled,
    JobDone,
    JobTimedOut,
    LoopStats,
    ServeLoop,
    ServeStopped,
)
from repro.serve import AdmissionRejected, ServeStatus, Server, ServerClosed
from repro.serve.faults import Fault, FaultPlan
from repro.serve.fleet import (
    EdfQueue,
    Shard,
    autotune_backlog,
    capacity,
    pick_shard,
    steal_candidate,
)


def make_recognizer(task, mode="reference"):
    return Recognizer.create(
        task.dictionary, task.pool, task.lm, task.tying, mode=mode
    )


def queued_session(utt_id, deadline_at=None, client=None):
    """What `repro.serve.fleet` reads of a Session, hand-built."""
    return SimpleNamespace(
        job=DecodeJob(utt_id, np.zeros((1, 2)), 0.0, deadline_at),
        utt_id=utt_id,
        client=client,
        queued=None,
        steal_pending=False,
    )


@pytest.fixture(scope="module")
def recognizer(task):
    return make_recognizer(task)


@pytest.fixture(scope="module")
def workload(task):
    """16+ ragged utterances (full + truncated variants) and their
    sequential-decode baselines."""
    rec = make_recognizer(task)
    features = []
    for utt in task.corpus.test:
        features.append(utt.features)
        features.append(utt.features[: max(40, utt.features.shape[0] // 2)])
    baselines = [rec.decode(f) for f in features]
    return features, baselines


def run_loop_inline(rec, jobs_and_commands, max_lanes=2, clock=None):
    """Preload the inbox (commands + STOP) and run the loop to drain."""
    inbox = queue.Queue()
    for item in jobs_and_commands:
        inbox.put(item)
    inbox.put(STOP)
    events = []
    kwargs = {} if clock is None else {"clock": clock}
    serve = ServeLoop(rec.twin(), max_lanes=max_lanes, **kwargs)
    serve.run(inbox, events.append)
    return events


class FakeClock:
    """One tick per call — deadline interleavings become step counts."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


# ----------------------------------------------------------------------
# ServeLoop: the pull->push bridge, no asyncio involved
# ----------------------------------------------------------------------
class TestServeLoop:
    def test_drains_jobs_with_sequential_parity(self, task, workload):
        features, baselines = workload
        rec = make_recognizer(task)
        jobs = [
            DecodeJob(i, f, enqueued_at=0.0) for i, f in enumerate(features[:6])
        ]
        events = run_loop_inline(rec, jobs, max_lanes=3)
        done = {e.utt_id: e.result for e in events if isinstance(e, JobDone)}
        assert sorted(done) == list(range(6))
        for i, result in done.items():
            assert result.words == baselines[i].words
            assert result.score == baselines[i].score  # bit-identical
            assert result.timing is not None
            assert result.timing.wait_s >= 0.0
        stopped = [e for e in events if isinstance(e, ServeStopped)]
        assert len(stopped) == 1 and stopped[0].error is None
        assert stopped[0].stats.completed == 6

    def test_queued_deadline_is_shed_without_decoding(self, task, workload):
        features, baselines = workload
        rec = make_recognizer(task)
        clock = FakeClock()
        jobs = [
            DecodeJob(0, features[0], enqueued_at=0.0),
            # Deadline already in the past on the first clock read.
            DecodeJob(1, features[1], enqueued_at=0.0, deadline_at=0.5),
        ]
        events = run_loop_inline(rec, jobs, max_lanes=1, clock=clock)
        timeouts = [e for e in events if isinstance(e, JobTimedOut)]
        assert [t.utt_id for t in timeouts] == [1]
        assert timeouts[0].stage == "queued"
        assert timeouts[0].frames_decoded == 0
        done = {e.utt_id: e.result for e in events if isinstance(e, JobDone)}
        assert done[0].words == baselines[0].words

    def test_mid_decode_deadline_early_retires_without_perturbing(
        self, task, workload
    ):
        """The victim is cancelled mid-utterance; the survivor sharing
        the bank must stay bit-identical to its sequential decode."""
        features, baselines = workload
        rec = make_recognizer(task)
        clock = FakeClock()
        survivor, victim = features[0], features[2]  # victim is longer
        assert victim.shape[0] > 40
        jobs = [
            DecodeJob(0, survivor, enqueued_at=0.0),
            # ~one clock tick per loop iteration: expires mid-decode.
            DecodeJob(1, victim, enqueued_at=0.0, deadline_at=40.0),
        ]
        events = run_loop_inline(rec, jobs, max_lanes=2, clock=clock)
        timeouts = [e for e in events if isinstance(e, JobTimedOut)]
        assert [t.utt_id for t in timeouts] == [1]
        assert timeouts[0].stage == "decoding"
        assert 0 < timeouts[0].frames_decoded < victim.shape[0]
        done = {e.utt_id: e.result for e in events if isinstance(e, JobDone)}
        assert list(done) == [0]
        assert done[0].words == baselines[0].words
        assert done[0].score == baselines[0].score  # bit-identical

    def test_freed_lane_is_reused_after_timeout(self, task, workload):
        """A deadline-miss frees its lane for the next waiting job."""
        features, baselines = workload
        rec = make_recognizer(task)
        clock = FakeClock()
        jobs = [
            DecodeJob(0, features[2], enqueued_at=0.0, deadline_at=30.0),
            DecodeJob(1, features[0], enqueued_at=0.0),  # waits for the lane
        ]
        events = run_loop_inline(rec, jobs, max_lanes=1, clock=clock)
        timeouts = [e for e in events if isinstance(e, JobTimedOut)]
        assert [t.utt_id for t in timeouts] == [0]
        done = {e.utt_id: e.result for e in events if isinstance(e, JobDone)}
        assert done[1].words == baselines[0].words
        assert done[1].score == baselines[0].score

    def test_queued_cancel_never_costs_a_lane(self, task, workload):
        features, _ = workload
        rec = make_recognizer(task)
        jobs = [
            DecodeJob(0, features[0], enqueued_at=0.0),
            DecodeJob(1, features[1], enqueued_at=0.0),
            CancelJob(1),
        ]
        events = run_loop_inline(rec, jobs, max_lanes=1)
        cancelled = [e for e in events if isinstance(e, JobCancelled)]
        assert [c.utt_id for c in cancelled] == [1]
        assert cancelled[0].stage == "queued"
        assert [e.utt_id for e in events if isinstance(e, JobDone)] == [0]

    def test_malformed_features_fail_typed(self, task, workload):
        features, baselines = workload
        rec = make_recognizer(task)
        jobs = [
            DecodeJob(0, np.zeros((5, 3)), enqueued_at=0.0),  # wrong dim
            DecodeJob(1, features[0], enqueued_at=0.0),
        ]
        events = run_loop_inline(rec, jobs, max_lanes=1)
        failed = [e for e in events if e.__class__.__name__ == "JobFailed"]
        assert [f.utt_id for f in failed] == [0]
        done = {e.utt_id: e.result for e in events if isinstance(e, JobDone)}
        assert done[1].words == baselines[0].words

    def test_periodic_stats_events(self, task, workload):
        features, _ = workload
        rec = make_recognizer(task)
        jobs = [DecodeJob(i, features[i], enqueued_at=0.0) for i in range(4)]
        events = run_loop_inline(rec, jobs, max_lanes=2)
        stats = [e for e in events if isinstance(e, LoopStats)]
        assert stats, "expected periodic LoopStats"
        assert 0.0 < stats[-1].utilization <= 1.0


    def test_the_bank_is_as_wide_as_its_occupied_lanes(self, task, workload):
        """On a scripted arrival / retire / cancel / deadline schedule the
        bank the loop steps (seen through the ``make_bank`` seam) holds
        exactly its occupied lanes at every step, and the loop does the
        work a fixed ``max_lanes``-wide bank does: the same steps, frames
        and events, every ``JobDone`` equal to ``Recognizer.decode``."""
        features, _ = workload
        rec = make_recognizer(task)
        long, short = features[2], features[0][:12]
        too_late = features[4]
        schedule = [  # (bank steps before delivery, command)
            (0, DecodeJob(0, long, 0.0)),
            (0, DecodeJob(1, short, 0.0)),
            (5, DecodeJob(2, features[1], 0.0)),
            (5, DecodeJob(3, too_late, 0.0, deadline_at=40.0)),  # mid-decode
            (5, DecodeJob(4, short, 0.0)),  # waits for a lane
            (5, DecodeJob(5, np.zeros((5, 3)), 0.0)),  # fails: no lane, no growth
            (9, CancelJob(2)),
            (30, DecodeJob(6, short, 0.0, deadline_at=10.0)),  # shed while queued
            (30, DecodeJob(7, features[3][:20], 0.0)),
            (10**6, STOP),  # delivered once the loop idles
        ]

        def serve(fixed_width):
            twin = rec.twin()
            now = [0.0]
            banks, steps = [], []
            make_bank = twin.make_bank

            def spied_bank(num_lanes):
                bank = make_bank(3 if fixed_width else num_lanes)
                if fixed_width:  # never grown nor compacted
                    bank.compact = lambda: bank.num_lanes
                step = bank.step

                def counted_step(*args, **kwargs):
                    steps.append((bank.num_lanes, int(bank.active.sum())))
                    now[0] += 1.0
                    return step(*args, **kwargs)

                bank.step = counted_step
                banks.append(bank)
                return bank

            twin.make_bank = spied_bank
            pending = list(schedule)

            class Inbox:
                def get_nowait(self):
                    if pending and pending[0][0] <= len(steps):
                        return pending.pop(0)[1]
                    raise queue.Empty

                def get(self, timeout):  # idle: time runs on to the next command
                    if pending:
                        now[0] = max(now[0], pending[0][0])
                        return pending.pop(0)[1]
                    raise queue.Empty

            events = []
            stats = ServeLoop(twin, max_lanes=3, clock=lambda: now[0]).run(
                Inbox(), events.append
            )
            assert len(banks) == 1 and not pending
            return steps, events, stats

        steps, events, stats = serve(fixed_width=False)
        assert all(width == occupied for width, occupied in steps)
        assert {width for width, _ in steps} == {1, 2, 3}
        fixed_steps, fixed_events, fixed_stats = serve(fixed_width=True)
        assert any(width > occupied for width, occupied in fixed_steps)
        assert [occupied for _, occupied in steps] == [o for _, o in fixed_steps]
        assert (stats.steps, stats.frames_processed) == (
            fixed_stats.steps, fixed_stats.frames_processed,
        )
        assert stats.steps == len(steps)
        assert stats.utilization == fixed_stats.utilization

        def outcome(events):
            return [
                (type(e).__name__, e.utt_id, getattr(e, "stage", None))
                for e in events
                if not isinstance(e, (LoopStats, ServeStopped))
            ]

        assert outcome(events) == outcome(fixed_events)
        assert sorted(outcome(events)) == [
            ("JobCancelled", 2, "decoding"), ("JobDone", 0, None),
            ("JobDone", 1, None), ("JobDone", 4, None), ("JobDone", 7, None),
            ("JobFailed", 5, None), ("JobTimedOut", 3, "decoding"),
            ("JobTimedOut", 6, "queued"),
        ]
        jobs = {job.utt_id: job for _, job in schedule if isinstance(job, DecodeJob)}
        for done in (e for e in events if isinstance(e, JobDone)):
            _assert_lane_equal(rec.decode(jobs[done.utt_id].features), done.result)


# ----------------------------------------------------------------------
# Satellite: timing metadata from all three runtimes
# ----------------------------------------------------------------------
class TestDecodeTiming:
    def test_sequential_decode_stamps_timing(self, recognizer, task):
        result = recognizer.decode(task.corpus.test[0].features)
        assert result.timing is not None
        assert result.timing.wait_s == 0.0  # no queue in front
        assert result.timing.decode_s > 0.0
        assert result.timing.total_s == result.timing.decode_s
        assert result.rtf == result.timing.decode_s / result.audio_seconds

    def test_batch_runtime_stamps_timing(self, recognizer, task):
        feats = [u.features for u in task.corpus.test[:3]]
        batch = recognizer.decode_batch(feats)
        for lane in batch:
            assert lane.timing is not None
            assert lane.timing.decode_s > 0.0
            assert lane.timing.wait_s == 0.0  # admitted at step 0

    def test_continuous_runtime_stamps_timing(self, recognizer, task):
        feats = [u.features for u in task.corpus.test[:4]]
        stream = recognizer.decode_stream(feats, max_lanes=2)
        for lane in stream:
            assert lane.timing is not None
            assert lane.timing.decode_s > 0.0
            assert lane.timing.wait_s >= 0.0

    def test_timing_excluded_from_equality(self, recognizer, task):
        f = task.corpus.test[0].features
        a, b = recognizer.decode(f), recognizer.decode(f)
        assert a.timing is not None and b.timing is not None
        assert a.timing != b.timing  # different wall clocks...
        assert a == b  # ...same decode


# ----------------------------------------------------------------------
# Server: admission control, deadlines, cancellation, metrics
# ----------------------------------------------------------------------
class TestServer:
    def test_submit_parity_and_metrics(self, recognizer, workload):
        features, baselines = workload

        async def scenario():
            async with Server(
                recognizer, num_workers=1, max_lanes=4, max_queue=64
            ) as server:
                sessions = [server.submit(f) for f in features[:8]]
                results = [await s.result() for s in sessions]
                for result, base in zip(results, baselines):
                    assert result.status is ServeStatus.OK
                    assert result.words == base.words
                    assert result.result.score == base.score
                    assert result.result.timing.wait_s >= 0.0
                metrics = server.metrics()
                assert metrics.submitted == 8
                assert metrics.completed == 8
                assert metrics.queue_depth == 0 and metrics.in_flight == 0
                assert metrics.latency_p95_s >= metrics.latency_p50_s > 0.0
                assert metrics.rtf > 0.0
                assert 0.0 < metrics.lane_utilization <= 1.0

        asyncio.run(scenario())

    def test_admission_rejection_is_typed_and_counted(
        self, recognizer, workload
    ):
        features, _ = workload

        async def scenario():
            async with Server(
                recognizer,
                num_workers=1,
                max_lanes=1,
                worker_backlog=0,
                max_queue=1,
            ) as server:
                first = server.submit(features[0])  # dispatched
                second = server.submit(features[1])  # queued (depth 1)
                with pytest.raises(AdmissionRejected) as err:
                    server.submit(features[2])  # over capacity
                assert err.value.queue_depth == 1
                assert err.value.max_queue == 1
                assert (await first.result()).ok
                assert (await second.result()).ok
                assert server.metrics().rejections == 1

        asyncio.run(scenario())

    def test_deadline_miss_resolves_typed_timeout(self, recognizer, workload):
        features, baselines = workload

        async def scenario():
            async with Server(
                recognizer, num_workers=1, max_lanes=2
            ) as server:
                doomed = server.submit(features[0], deadline_s=0.0)
                fine = server.submit(features[1])
                timeout = await doomed.result()
                assert timeout.status is ServeStatus.TIMEOUT
                assert timeout.result is None
                ok = await fine.result()
                assert ok.ok and ok.words == baselines[1].words
                assert server.metrics().timeouts == 1

        asyncio.run(scenario())

    def test_cancel_resolves_typed_cancellation(self, recognizer, workload):
        features, _ = workload

        async def scenario():
            async with Server(
                recognizer, num_workers=1, max_lanes=1, worker_backlog=0
            ) as server:
                running = server.submit(features[1])
                queued = server.submit(features[0])
                assert queued.cancel()
                result = await queued.result()
                assert result.status is ServeStatus.CANCELLED
                assert (await running.result()).ok
                assert not queued.cancel()  # already resolved

        asyncio.run(scenario())

    def test_submit_validation_and_closed_server(self, recognizer, workload):
        features, _ = workload

        async def scenario():
            server = Server(recognizer)
            with pytest.raises(ServerClosed):
                server.submit(features[0])
            async with server:
                with pytest.raises(ValueError):
                    server.submit(np.zeros((0, recognizer.pool.dim)))
                with pytest.raises(ValueError):
                    server.submit(np.zeros((5, 2)))
            with pytest.raises(ServerClosed):
                server.submit(features[0])

        asyncio.run(scenario())

    @pytest.mark.parametrize("mode", ["reference", "hardware", "fast", "blas"])
    def test_non_finite_features_rejected_at_submit(self, task, mode):
        """One NaN cell used to index the hardware log-add table out of
        range inside ``bank.step``: the worker died and its clean
        neighbour resolved ``error`` with it (the other modes decoded
        the garbage to ``ok``).  Now every mode refuses it at the door."""
        rec = make_recognizer(task, mode)
        clean = task.corpus.test[0].features
        base = rec.decode(clean)
        bad = clean.copy()
        bad[10, 3] = np.nan

        async def scenario():
            async with Server(rec, max_lanes=2) as server:
                with pytest.raises(ValueError, match="finite"):
                    server.submit(bad)
                result = await server.submit(clean).result()
                assert result.status is ServeStatus.OK
                assert result.words == base.words
                if mode == "blas":
                    assert math.isclose(
                        result.result.score, base.score, abs_tol=BLAS_SCORE_ATOL
                    )
                else:
                    assert result.result.score == base.score  # bit-exact
                metrics = server.metrics()
                assert metrics.workers[0].alive
                assert metrics.submitted == 1 and metrics.errors == 0

        asyncio.run(scenario())

    def test_submit_refused_when_all_workers_died(self, recognizer, workload):
        """A dead fleet must refuse jobs, not hand out futures that
        can never resolve."""
        features, _ = workload

        async def scenario():
            async with Server(recognizer, num_workers=1) as server:
                # Simulate the worker dying out from under the server.
                shard = server._shards[0]
                shard.worker.request_stop()
                for _ in range(200):
                    if not shard.alive:
                        break
                    await asyncio.sleep(0.01)
                assert not shard.alive
                with pytest.raises(ServerClosed):
                    server.submit(features[0])

        asyncio.run(scenario())

    def test_default_deadline_applies(self, recognizer, workload):
        features, _ = workload

        async def scenario():
            async with Server(
                recognizer, num_workers=1, max_lanes=1, default_deadline_s=0.0
            ) as server:
                result = await server.submit(features[0]).result()
                assert result.status is ServeStatus.TIMEOUT
                # An explicit deadline overrides the default.
                result = await server.submit(
                    features[0], deadline_s=30.0
                ).result()
                assert result.ok

        asyncio.run(scenario())

    @pytest.mark.parametrize("deadline_s", [math.nan, math.inf])
    def test_non_finite_deadline_refused_at_submit(
        self, recognizer, workload, deadline_s
    ):
        """NaN compares false both ways, so one admitted NaN deadline
        broke the EDF heap's order for everything queued beside it
        (and itself resolved as an instant timeout)."""
        features, _ = workload

        async def scenario():
            async with Server(recognizer, num_workers=1) as server:
                with pytest.raises(ValueError, match="finite"):
                    server.submit(features[0], deadline_s=deadline_s)
                assert server.metrics().submitted == 0
                assert (await server.decode(features[0])).ok

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# Streaming sessions: frames, audio chunks, partials, endpointing
# ----------------------------------------------------------------------
class TestStreamSession:
    def test_frame_streaming_matches_sequential(self, recognizer, workload):
        features, baselines = workload

        async def scenario():
            async with Server(recognizer, num_workers=1, max_lanes=2) as server:
                session = server.open_session()
                feats = features[0]
                for start in range(0, feats.shape[0], 25):
                    session.send_frames(feats[start : start + 25])
                result = await session.result()
                assert result.ok
                assert result.words == baselines[0].words
                assert result.result.score == baselines[0].score

        asyncio.run(scenario())

    def test_partials_and_endpoint_auto_finish(self, task, recognizer):
        utt = task.corpus.test[0]
        sil = task.pool.means[task.tying.ci_senone("SIL", 0), 0]
        feats = np.vstack([utt.features, np.tile(sil, (60, 1))])
        partials = []

        async def scenario():
            async with Server(recognizer, num_workers=1, max_lanes=2) as server:
                session = server.open_session(
                    on_partial=lambda words, frame: partials.append(words),
                    partial_interval=15,
                    endpoint_silence_frames=25,
                )
                finished = False
                for frame in feats:
                    if session.send_frames(frame):
                        finished = True
                        break
                assert finished, "endpoint never auto-finished the session"
                assert session.endpointed
                result = await session.result()
                assert result.ok
                assert result.words == tuple(utt.words)

        asyncio.run(scenario())
        assert partials, "expected partial-hypothesis callbacks"

    def test_partials_over_a_tree_recognizer(self, task):
        """A session with ``on_partial`` streams through the tree
        lexicon too (its endpointer used to need ``word_of_state``)."""
        tree = Recognizer.create(
            task.dictionary, task.pool, task.lm, task.tying, network="tree"
        )
        utt = task.corpus.test[0]
        partials = []

        async def scenario():
            async with Server(tree, num_workers=1, max_lanes=2) as server:
                session = server.open_session(
                    on_partial=lambda words, frame: partials.append(words),
                    partial_interval=15,
                )
                session.send_frames(utt.features)
                session.finish()
                result = await session.result()
                assert result.ok
                assert result.words == tree.decode(utt.features).words

        asyncio.run(scenario())
        assert partials

    def test_endpointing_without_partials(self, task, recognizer):
        """`endpointing=True` runs the endpointer (and auto-finish)
        even when no partial callback is wanted."""
        utt = task.corpus.test[0]
        sil = task.pool.means[task.tying.ci_senone("SIL", 0), 0]
        feats = np.vstack([utt.features, np.tile(sil, (60, 1))])

        async def scenario():
            async with Server(recognizer, num_workers=1, max_lanes=2) as server:
                session = server.open_session(
                    endpointing=True, endpoint_silence_frames=25
                )
                finished = session.send_frames(feats)
                assert finished and session.endpointed
                result = await session.result()
                assert result.ok and result.words == tuple(utt.words)

        asyncio.run(scenario())

    def test_reused_frame_buffer_is_copied(self, recognizer, workload):
        """A client refilling ONE buffer per tick must not alias every
        stored frame to its last value."""
        features, baselines = workload

        async def scenario():
            async with Server(recognizer, num_workers=1, max_lanes=2) as server:
                session = server.open_session()
                buffer = np.empty(features[0].shape[1])
                for frame in features[0]:
                    buffer[:] = frame  # canonical mic-loop reuse
                    session.send_frames(buffer)
                result = await session.result()
                assert result.ok
                assert result.words == baselines[0].words
                assert result.result.score == baselines[0].score

        asyncio.run(scenario())

    def test_post_endpoint_frames_are_kept_as_leftover(self, task, recognizer):
        """Frames arriving in the same block after the endpoint belong
        to the next utterance — preserved, not silently dropped."""
        utt = task.corpus.test[0]
        sil = task.pool.means[task.tying.ci_senone("SIL", 0), 0]
        next_opening = np.tile(np.arange(sil.size, dtype=np.float64), (7, 1))
        feats = np.vstack([utt.features, np.tile(sil, (60, 1)), next_opening])

        async def scenario():
            async with Server(recognizer, num_workers=1, max_lanes=2) as server:
                session = server.open_session(
                    on_partial=lambda words, frame: None,
                    endpoint_silence_frames=25,
                )
                finished = session.send_frames(feats)  # one big block
                assert finished and session.endpointed
                leftover = session.leftover_frames
                assert leftover is not None and leftover.shape[0] >= 7
                # Everything the client sent is accounted for: decoded
                # frames + leftover == the full block.
                decoded = (await session.result()).result.frames
                assert decoded + leftover.shape[0] == feats.shape[0]
                # The tail end of the leftover is the next utterance's
                # opening block, bit for bit.
                np.testing.assert_array_equal(leftover[-7:], next_opening)

        asyncio.run(scenario())

    def test_frames_after_endpoint_across_calls_become_leftover(
        self, task, recognizer
    ):
        """With auto_finish off, frames sent in LATER calls after the
        endpoint also land in leftover_frames — never in this decode."""
        utt = task.corpus.test[0]
        sil = task.pool.means[task.tying.ci_senone("SIL", 0), 0]
        feats = np.vstack([utt.features, np.tile(sil, (60, 1))])

        async def scenario():
            async with Server(recognizer, num_workers=1, max_lanes=2) as server:
                session = server.open_session(
                    on_partial=lambda words, frame: None,
                    endpoint_silence_frames=25,
                    auto_finish=False,
                )
                for frame in feats:
                    session.send_frames(frame)
                    if session.endpointed:
                        break
                assert session.endpointed and not session.finished
                decoded_frames = len(session._frames)
                next_opening = task.corpus.test[1].features[:5]
                for frame in next_opening:  # next utterance starts
                    session.send_frames(frame)
                leftover = session.leftover_frames
                assert leftover is not None and leftover.shape[0] == 5
                np.testing.assert_array_equal(leftover, next_opening)
                result = await session.result()
                assert result.ok
                assert result.result.frames == decoded_frames  # not 5 more

        asyncio.run(scenario())

    def test_audio_chunks_match_one_shot_extraction(self, task, recognizer):
        from repro.frontend import Frontend, StreamingAudioBuffer

        rng = np.random.default_rng(5)
        waveform = rng.normal(size=16000)
        frontend = Frontend()
        buffered = StreamingAudioBuffer(frontend)
        for start in range(0, waveform.size, 1234):
            buffered.append(waveform[start : start + 1234])
        assert buffered.num_samples == waveform.size
        assert buffered.num_frames == frontend.num_frames(waveform.size)
        np.testing.assert_array_equal(
            buffered.extract(), frontend.extract(waveform)
        )

    def test_empty_and_mixed_sessions_rejected(self, recognizer, workload):
        features, _ = workload

        async def scenario():
            async with Server(recognizer, num_workers=1) as server:
                with pytest.raises(ValueError):
                    server.open_session().finish()
                session = server.open_session()
                session.send_frames(features[0][0])
                with pytest.raises(RuntimeError):
                    session.send_audio(np.zeros(100))

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# THE acceptance test: 2-worker sharded server, >= 16 concurrent
# sessions, max_lanes=4 per engine, reference + blas
# ----------------------------------------------------------------------
class TestShardedServerIntegration:
    @pytest.mark.parametrize("mode", ["reference", "blas"])
    def test_sharded_parity_deadlines_and_shedding(self, task, mode):
        rec = make_recognizer(task, mode=mode)
        features = []
        for utt in task.corpus.test:
            features.append(utt.features)
            features.append(utt.features[: max(40, utt.features.shape[0] // 2)])
        assert len(features) >= 16
        baselines = [rec.decode(f) for f in features]

        async def scenario():
            async with Server(
                rec,
                num_workers=2,
                max_lanes=4,
                max_queue=4,
                use_processes=True,  # forked shards over the shared pool
            ) as server:
                # All submits land before the loop yields, so dispatch
                # is deterministic: 2 workers x (4 lanes + 4 backlog)
                # = 16 in flight, then 4 queued, and every further
                # submit is shed with a typed rejection.
                sessions, rejections = [], 0
                for f in features + features[:8]:
                    try:
                        sessions.append(server.submit(f))
                    except AdmissionRejected as err:
                        rejections += 1
                        assert err.max_queue == 4
                        assert err.queue_depth == 4
                assert len(sessions) == 20
                assert rejections == 4
                assert server.metrics().rejections == rejections

                results = await asyncio.gather(
                    *[s.result() for s in sessions]
                )
                used_workers = set()
                for i, result in enumerate(results):
                    base = baselines[i % len(features)]
                    assert result.status is ServeStatus.OK
                    used_workers.add(result.worker)
                    if mode == "blas":
                        assert result.words == base.words
                        assert (
                            abs(result.result.score - base.score)
                            <= BLAS_SCORE_ATOL
                        )
                    else:
                        assert result.words == base.words
                        assert result.result.score == base.score  # bit-exact
                assert used_workers == {0, 1}  # both shards decoded

                # Deadline-missed sessions resolve to typed timeouts
                # (deadline 0 = already expired at enqueue) without
                # disturbing a healthy neighbour submitted after them.
                doomed = [
                    server.submit(f, deadline_s=0.0) for f in features[:3]
                ]
                healthy = server.submit(features[0])
                for session in doomed:
                    result = await session.result()
                    assert result.status is ServeStatus.TIMEOUT
                    assert result.result is None
                survivor = await healthy.result()
                assert survivor.ok
                assert survivor.words == baselines[0].words

                metrics = server.metrics()
                assert metrics.completed == 21
                assert metrics.timeouts == 3
                assert len(metrics.workers) == 2
                assert metrics.latency_p95_s > 0.0

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# Admission policy: EDF ordering, fair-share quotas, shed-wait
# percentiles, backlog autotuning
# ----------------------------------------------------------------------
class TestAdmissionPolicy:
    def test_edf_queue_orders_by_deadline_then_arrival(self):
        q = EdfQueue(max_queue=8)
        for i, deadline_at in enumerate([None, 10.0, 1.0, None]):
            q.push(queued_session(i, deadline_at, "a" if i % 2 else "b"))
        # Tightest deadline first; deadline-free jobs last, FIFO.
        assert [q.pop().utt_id for _ in range(len(q))] == [2, 1, 0, 3]
        assert q.pop() is None and len(q) == 0

    def test_edf_queue_remove_and_client_accounting(self):
        q = EdfQueue(max_queue=8)
        sessions = [
            queued_session(i, float(i), "a" if i < 3 else "b") for i in range(4)
        ]
        for session in sessions:
            q.push(session)
        assert q.queued_for("a") == 3 and q.queued_for("b") == 1
        assert q.active_clients() == 2
        assert q.remove(sessions[1]) and not q.remove(sessions[1])  # once
        assert q.queued_for("a") == 2
        assert [q.pop().utt_id for _ in range(len(q))] == [0, 2, 3]
        assert q.active_clients() == 0

    CLIENTS = [None, "a", "b", "c"]

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["push", "pop", "remove", "repush"]),
                st.integers(min_value=0, max_value=1 << 16),
                st.sampled_from([None, 1.0, 2.0, 3.0]),
                st.sampled_from(CLIENTS),
            ),
            max_size=60,
        ),
        max_queue=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_edf_queue_random_walk_matches_a_sorted_list(self, ops, max_queue):
        """The admission queue against the obvious model: a list kept
        sorted by ``(deadline, arrival)``.  Pop order, ``len``,
        per-client counts, the fair-share cap and the refusal it
        implies agree after every push / pop / remove / re-push (what
        a steal or a redispatch does)."""
        q = EdfQueue(max_queue)
        model = []  # (deadline key, arrival, session), kept sorted
        out = []  # sessions that left the queue: re-push candidates
        arrivals = itertools.count()
        ids = itertools.count()

        def push(session):
            q.push(session)
            deadline_at = session.job.deadline_at
            key = math.inf if deadline_at is None else deadline_at
            model.append((key, next(arrivals), session))
            model.sort(key=lambda entry: entry[:2])

        for op, pick, deadline_at, client in ops:
            if op == "push":
                push(queued_session(next(ids), deadline_at, client))
            elif op == "repush" and out:
                push(out.pop(pick % len(out)))
            elif op == "pop":
                expected = model.pop(0)[2] if model else None
                assert q.pop() is expected
                if expected is not None:
                    out.append(expected)
            elif op == "remove" and model:
                session = model.pop(pick % len(model))[2]
                assert q.remove(session) and not q.remove(session)
                out.append(session)

            assert len(q) == len(model)
            assert q.peek() is (model[0][2] if model else None)
            counts = Counter(entry[2].client for entry in model)
            assert q.active_clients() == len(counts)
            for c in self.CLIENTS:
                assert q.queued_for(c) == counts[c]
                active = len(counts) + (counts[c] == 0)
                share = max_queue if active <= 1 else max(1, max_queue // active)
                assert q.fair_share(c) == share
                if len(model) >= max_queue:
                    assert q.refusal(c) == ("queue_full", max_queue)
                elif counts[c] >= share:
                    assert q.refusal(c) == ("client_quota", max_queue)
                else:
                    assert q.refusal(c) is None
        assert [s.utt_id for s in q.drain()] == [e[2].utt_id for e in model]
        assert len(q) == 0 and q.active_clients() == 0

    def test_dispatch_follows_deadline_order_not_fifo(
        self, recognizer, workload
    ):
        """Jobs queued behind a busy worker dispatch earliest-deadline
        first: submit order A(10s) B(1s) C(none), completion order
        B, A, C."""
        features, _ = workload

        async def scenario():
            async with Server(
                recognizer,
                num_workers=1,
                max_lanes=1,
                worker_backlog=0,
                max_queue=8,
            ) as server:
                blocker = server.submit(features[0])  # occupies the lane
                a = server.submit(features[1], deadline_s=10.0)
                b = server.submit(features[1], deadline_s=1.0)
                c = server.submit(features[1])
                results = {
                    name: await s.result()
                    for name, s in [("a", a), ("b", b), ("c", c)]
                }
                assert (await blocker.result()).ok
                for name, result in results.items():
                    assert result.ok, f"{name}: {result}"
                assert (
                    results["b"].finished_at
                    < results["a"].finished_at
                    < results["c"].finished_at
                )

        asyncio.run(scenario())

    def test_client_quota_rejection_is_typed(self, recognizer, workload):
        """With two clients contending, each is capped at its fair
        share of the queue — the over-quota client gets a typed
        ``client_quota`` rejection while the other still has room."""
        features, _ = workload

        async def scenario():
            async with Server(
                recognizer,
                num_workers=1,
                max_lanes=1,
                worker_backlog=0,
                max_queue=4,
            ) as server:
                blocker = server.submit(features[0], client="a")
                queued = [
                    server.submit(features[1], client="a"),
                    server.submit(features[1], client="a"),
                    server.submit(features[1], client="b"),
                ]
                # Two active clients -> fair share is 4 // 2 = 2 each.
                with pytest.raises(AdmissionRejected) as err:
                    server.submit(features[1], client="a")
                assert err.value.reason == "client_quota"
                assert err.value.client == "a"
                assert err.value.max_queue == 4
                # "b" is under its share; the queue itself has room.
                queued.append(server.submit(features[1], client="b"))
                for session in [blocker, *queued]:
                    assert (await session.result()).ok
                assert server.metrics().rejections == 1

        asyncio.run(scenario())

    def test_wait_percentiles_include_shed_traffic(
        self, recognizer, workload
    ):
        """Queue-saturation metrics must not be survivorship-biased:
        jobs shed at their deadline contribute their full queue wait
        to wait_p95, so overload shows up where it hurt."""
        features, _ = workload

        async def scenario():
            async with Server(
                recognizer, num_workers=1, max_lanes=2, max_queue=16
            ) as server:
                survivors = [server.submit(features[0]) for _ in range(3)]
                for s in survivors:
                    assert (await s.result()).ok
                # Survivor waits are tiny on an idle server; the shed
                # series is EMPTY, and an empty series has no
                # percentile — NaN, not a flattering 0.0.
                healthy = server.metrics()
                assert healthy.wait_p95_s < 0.2
                assert math.isnan(healthy.shed_wait_p95_s)

                # Jobs that (by injected enqueue stamp) sat queued for
                # ~0.5s before their deadline passed: all shed, typed.
                now = time.monotonic()
                doomed = [
                    server.submit(
                        features[1],
                        enqueued_at=now - 0.5,
                        deadline_s=0.25,
                    )
                    for _ in range(4)
                ]
                for s in doomed:
                    result = await s.result()
                    assert result.status is ServeStatus.TIMEOUT
                    assert "shed before dispatch" in result.detail

                saturated = server.metrics()
                assert saturated.timeouts == 4
                assert saturated.shed_wait_p95_s >= 0.4
                # The combined percentile now reflects the shed jobs'
                # waits, which survivors alone would have hidden.
                assert saturated.wait_p95_s >= 0.4
                assert saturated.wait_p95_s > healthy.wait_p95_s

        asyncio.run(scenario())

    def test_autotune_halves_on_misses_and_grows_when_packed(
        self, recognizer
    ):
        """Unit-step the backlog autotuner: misses in the window halve
        the depth; a packed-and-healthy fleet with queued work grows
        it by one, up to the cap."""
        max_lanes = 2
        server = Server(recognizer, max_lanes=max_lanes, worker_backlog="auto")
        assert server.metrics().worker_backlog == 2  # "auto" starts at max_lanes
        shard = Shard(0)

        def step(backlog, window_misses, queued):
            return autotune_backlog(
                backlog, window_misses, [shard], max_lanes, queued
            )

        # Window with a timeout: depth halves.
        backlog = step(2, window_misses=1, queued=0)
        assert backlog == 1

        # Quiet window, fleet not packed: unchanged.
        backlog = step(backlog, window_misses=0, queued=0)
        assert backlog == 1

        # Packed and healthy with queued work: grows by one per window.
        for expected in (2, 3, 4, 5, 6, 7, 8):
            shard.jobs = [object()] * capacity(shard, max_lanes, backlog)
            backlog = step(backlog, window_misses=0, queued=1)
            assert backlog == expected
        # Capped at 4 * max_lanes.
        shard.jobs = [object()] * capacity(shard, max_lanes, backlog)
        backlog = step(backlog, window_misses=0, queued=1)
        assert backlog == 8 == 4 * max_lanes

        # A rejection in the window halves it again.
        assert step(backlog, window_misses=3, queued=1) == 4


# ----------------------------------------------------------------------
# Fleet behaviour: work stealing between skewed shards, worker-death
# re-dispatch to survivors
# ----------------------------------------------------------------------
class TestFleetResilience:
    def test_pick_shard_least_loaded_then_least_recently_picked(self):
        shards = [Shard(0, last_pick=5), Shard(1, last_pick=2), Shard(2, alive=False)]
        shards[0].jobs = [queued_session(0)]
        assert pick_shard(shards, 1, 1) is shards[1]  # 0 in flight beats 1
        shards[1].jobs = [queued_session(1)]
        assert pick_shard(shards, 1, 1) is shards[1]  # tie: picked longest ago
        shards[1].jobs.append(queued_session(2))  # at lanes + backlog: full
        assert pick_shard(shards, 1, 1) is shards[0]
        shards[0].health = 0.25  # its backlog share rounds down to nothing
        assert pick_shard(shards, 1, 1) is None  # the dead shard never is

    def test_steal_candidate_is_newest_unstolen_job_of_most_loaded(self):
        idle, busy, busier = Shard(0), Shard(1), Shard(2)
        busy.jobs = [queued_session(i) for i in range(2)]
        busier.jobs = [queued_session(i) for i in range(2, 5)]
        shards = [idle, busy, busier]
        assert steal_candidate(shards, 1) is busier.jobs[-1]
        busier.jobs[-1].steal_pending = True
        assert steal_candidate(shards, 1) is busier.jobs[-2]
        assert steal_candidate([idle, Shard(3)], 1) is None  # nothing waits
        idle.jobs = [queued_session(9)]  # every lane busy: nobody to feed
        assert steal_candidate(shards, 1) is None
        idle.jobs = []
        idle.alive = False  # spare lanes on a dead shard do not count
        assert steal_candidate(shards, 1) is None

    def test_work_stealing_rebalances_skewed_shards(self, task, workload):
        """One shard drains its short jobs while the other sits on a
        backlog of long ones: the server steals the waiting jobs back
        and re-runs them on the idle shard, bit-identically.

        The skew is SCHEDULED, not raced: a slow-shard fault stalls the
        victim 1.2 s inside its first utterance, while the thief needs
        120 engine steps (tens of milliseconds) to go idle.
        """
        features, baselines = workload
        rec = make_recognizer(task)
        short = features[1][:40]
        short_base = rec.decode(short)
        plan = FaultPlan(
            [
                Fault(
                    site="dispatch",
                    at=1,
                    kind="slow_shard",
                    worker=1,
                    stall_s=0.03,
                    stall_steps=40,
                )
            ]
        )

        async def scenario():
            async with Server(
                rec,
                num_workers=2,
                max_lanes=1,
                worker_backlog=2,
                max_queue=16,
                fault_plan=plan,
            ) as server:
                # Alternating submit + least-loaded dispatch gives
                # worker 0 the shorts and worker 1 the longs.
                sessions = []
                for i in range(6):
                    f = short if i % 2 == 0 else features[0]
                    sessions.append(server.submit(f))
                results = await asyncio.gather(
                    *[s.result() for s in sessions]
                )
                for i, result in enumerate(results):
                    base = short_base if i % 2 == 0 else baselines[0]
                    assert result.ok, result
                    assert result.words == base.words
                    assert result.result.score == base.score  # bit-exact
                metrics = server.metrics()
                assert metrics.steals >= 1
                # A stolen job ran on the shard that stole it.
                assert {r.worker for r in results} == {0, 1}

        asyncio.run(scenario())

    def test_worker_death_redispatches_queued_jobs(self, task, workload):
        """SIGKILL one of two forked shards mid-burst: the sweeper
        notices the silent death and every job it held (in lanes or
        backlog) re-runs on the survivor — same words, same scores,
        no silent drops."""
        features, baselines = workload
        rec = make_recognizer(task)

        async def scenario():
            async with Server(
                rec,
                num_workers=2,
                max_lanes=1,
                worker_backlog=2,
                max_queue=16,
                use_processes=True,
            ) as server:
                sessions = [server.submit(features[0]) for _ in range(6)]
                # Both shards hold dispatched jobs.
                assert all(shard.in_flight > 0 for shard in server._shards)
                server._shards[0].worker._proc.kill()  # no goodbye event
                results = await asyncio.gather(
                    *[s.result() for s in sessions]
                )
                for result in results:
                    assert result.status is ServeStatus.OK, result
                    assert result.words == baselines[0].words
                    assert result.result.score == baselines[0].score
                    assert result.worker == 1  # survivor decoded it...
                # ...including jobs first dispatched to the dead shard.
                assert not server._shards[0].alive
                assert server.metrics().errors == 0

        asyncio.run(scenario())

    def test_worker_death_during_streaming_session(self, task, workload):
        """The shard holding a finished streaming session's decode is
        SIGKILLed: the job re-runs on the survivor and the streamed
        utterance still comes back OK and bit-identical."""
        features, baselines = workload
        rec = make_recognizer(task)

        async def scenario():
            async with Server(
                rec,
                num_workers=2,
                max_lanes=1,
                worker_backlog=2,
                max_queue=16,
                use_processes=True,
            ) as server:
                stream = server.open_session()
                feats = features[0]
                for start in range(0, feats.shape[0], 30):
                    stream.send_frames(feats[start : start + 30])
                session = stream.finish()
                victim = session.worker
                assert victim is not None
                server._shards[victim].worker._proc.kill()
                result = await session.result()
                assert result.status is ServeStatus.OK, result
                assert result.words == baselines[0].words
                assert result.result.score == baselines[0].score
                assert result.worker == 1 - victim
                assert server.metrics().retries >= 1

        asyncio.run(scenario())

    def test_cancel_racing_worker_death_resolves_exactly_once(
        self, task, workload
    ):
        """cancel() lands on a job whose shard was just SIGKILLed —
        the cancel confirmation died with the worker, and the
        redispatch machinery re-homes the job anyway.  The session
        must resolve exactly once, typed, never hang: every submitted
        job is accounted for in the outcome counters."""
        features, baselines = workload
        rec = make_recognizer(task)

        async def scenario():
            async with Server(
                rec,
                num_workers=2,
                max_lanes=1,
                worker_backlog=2,
                max_queue=16,
                use_processes=True,
            ) as server:
                sessions = [server.submit(features[0]) for _ in range(4)]
                victim = sessions[0].worker
                assert victim is not None
                # Kill, then cancel, with no awaits in between: the
                # CancelJob goes to a corpse and can never confirm.
                server._shards[victim].worker._proc.kill()
                assert sessions[0].cancel()
                results = await asyncio.gather(
                    *[s.result() for s in sessions]
                )
                for result in results:
                    assert result.status is ServeStatus.OK, result
                    assert result.words == baselines[0].words
                    assert result.result.score == baselines[0].score
                metrics = server.metrics()
                # Exactly one typed outcome per job, nothing dropped.
                assert (
                    metrics.completed + metrics.cancelled + metrics.errors
                    == 4
                )
                # Both of the dead shard's jobs burned their one retry.
                assert metrics.retries == 2

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# submit_audio featurizes off the event loop
# ----------------------------------------------------------------------
class TestSubmitAudioOffLoop:
    def test_large_submit_audio_does_not_stall_loop(self, recognizer):
        """A big MFCC pass must run in the executor: while one client's
        waveform is featurized, the event loop keeps ticking (serving
        other sessions' partials, dispatch, deadline sweeps)."""
        rng = np.random.default_rng(11)
        waveform = rng.normal(size=16000 * 60)  # ~a minute of audio

        async def scenario():
            async with Server(recognizer, num_workers=1, max_lanes=2) as server:
                ticks = 0

                async def heartbeat():
                    nonlocal ticks
                    while True:
                        await asyncio.sleep(0.001)
                        ticks += 1

                beat = asyncio.get_running_loop().create_task(heartbeat())
                await asyncio.sleep(0.01)
                ticks = 0
                # Expired deadline: featurization cost is what we're
                # measuring; the decode itself is shed at dispatch.
                session = await server.submit_audio(
                    waveform, deadline_s=0.0
                )
                ticks_during = ticks
                beat.cancel()
                assert (
                    await session.result()
                ).status is ServeStatus.TIMEOUT
                # The loop ran concurrently with feature extraction.
                assert ticks_during >= 2, (
                    f"event loop stalled during submit_audio "
                    f"({ticks_during} heartbeats)"
                )

        asyncio.run(scenario())
