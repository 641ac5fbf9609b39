"""Trace propagation through the serving stack.

Covers, per the PR's acceptance criteria:

* the forked worker's engine loop builds a per-job worker trace —
  ``worker.queue`` + ``decode`` with per-stage children — that is
  well-nested and monotonic even under an injectable loop clock;
* the async front door merges its spans (``request``, ``queue.wait``,
  ``dispatch``) with the shard's into one tree on
  :attr:`ServeResult.trace`, under the id the request carried in;
* THE cross-process propagation test: a wire client mints the
  ``trace_id``, a forked 2-shard server threads it through admission,
  dispatch and the child process's decode, and the result event comes
  back with the SAME id and a merged tree whose cross-process
  timestamps nest — ``time.monotonic`` is system-wide on Linux;
* ``metrics_text`` ships the Prometheus exposition over the wire;
* the server's latency series are bounded histograms, not per-request
  lists (the O(1)-memory guarantee at the serving layer);
* tracing has no switch: every ``JobDone`` carries a trace and live
  stage clocks, whether or not the job brought a ``trace_id``.

No pytest-asyncio dependency: async tests run under ``asyncio.run``.
"""

import asyncio
import queue
import time

import pytest

from repro.decoder import Recognizer
from repro.obs import LogHistogram, Trace
from repro.runtime.serving import (
    STOP,
    DecodeJob,
    JobDone,
    ServeLoop,
    ServeStopped,
)
from repro.serve import ServeClient, Server, WireServer


@pytest.fixture(scope="module")
def recognizer(task):
    return Recognizer.create(
        task.dictionary, task.pool, task.lm, task.tying
    )


@pytest.fixture(scope="module")
def workload(task, recognizer):
    features = []
    for utt in task.corpus.test:
        features.append(utt.features)
        features.append(utt.features[: max(40, utt.features.shape[0] // 2)])
    baselines = [recognizer.decode(f) for f in features]
    return features, baselines


def run_traced_loop(rec, jobs, max_lanes=2, clock=time.monotonic, worker_id=None):
    inbox = queue.Queue()
    for job in jobs:
        inbox.put(job)
    inbox.put(STOP)
    events = []
    loop = ServeLoop(
        rec.twin(), max_lanes=max_lanes, clock=clock, worker_id=worker_id
    )
    loop.run(inbox, events.append)
    return events


class TickClock:
    """One tick per call — injectable, strictly monotonic."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def assert_well_nested(trace: Trace) -> None:
    """Every span is monotonic and lies inside its parent's window."""
    by_name = {s.name: s for s in trace.spans}
    assert trace.spans, "trace has no spans"
    for span in trace.spans:
        assert span.end_s >= span.start_s, span
        if span.parent is not None and span.parent in by_name:
            parent = by_name[span.parent]
            assert parent.start_s <= span.start_s + 1e-9, (span, parent)
            assert span.end_s <= parent.end_s + 1e-9, (span, parent)


# ----------------------------------------------------------------------
# Worker half: the engine loop's per-job trace
# ----------------------------------------------------------------------
class TestWorkerTraces:
    def test_worker_trace_spans_are_well_nested(self, recognizer, workload):
        features, _ = workload
        jobs = [
            DecodeJob(i, features[i], enqueued_at=0.0, trace_id=f"trace-{i}")
            for i in range(3)
        ]
        events = run_traced_loop(recognizer, jobs, worker_id=7)
        done = {e.utt_id: e.result for e in events if isinstance(e, JobDone)}
        assert set(done) == {0, 1, 2}
        for utt, result in done.items():
            trace = result.trace
            assert trace is not None
            # The job's trace_id came straight through the loop.
            assert trace.trace_id == f"trace-{utt}"
            assert trace.utt_id == utt
            assert_well_nested(trace)
            names = {s.name for s in trace.spans}
            assert {"worker.queue", "decode"} <= names
            # The stage split rides under the decode span.
            assert "decode.scoring" in names
            assert "decode.token_update" in names
            assert "decode.word_exit" in names
            for span in trace.spans:
                assert span.worker == 7
            # worker.queue hands off exactly where decode begins.
            q = trace.span("worker.queue")
            d = trace.span("decode")
            assert q.end_s == d.start_s
            # Stage children tile the decode window monotonically.
            stages = [s for s in trace.spans if s.parent == "decode"]
            stages.sort(key=lambda s: s.start_s)
            assert stages[0].start_s >= d.start_s
            assert stages[-1].end_s <= d.end_s + 1e-9
            for a, b in zip(stages, stages[1:]):
                assert b.start_s >= a.end_s - 1e-9

    def test_trace_survives_injected_clock(self, recognizer, workload):
        """A synthetic loop clock (ticks) coexists with the bank's real
        stamps: spans stay monotonic and well-nested regardless."""
        features, _ = workload
        jobs = [DecodeJob(0, features[0], enqueued_at=0.0, trace_id="tick-0")]
        events = run_traced_loop(
            recognizer, jobs, max_lanes=1, clock=TickClock(), worker_id=0
        )
        [done] = [e for e in events if isinstance(e, JobDone)]
        trace = done.result.trace
        assert trace.trace_id == "tick-0"
        assert_well_nested(trace)
        assert trace.render()  # renders without a request root

    def test_loop_reports_shard_telemetry(self, recognizer, workload):
        features, _ = workload
        jobs = [DecodeJob(i, features[i], enqueued_at=0.0) for i in range(2)]
        events = run_traced_loop(recognizer, jobs)
        done = [e for e in events if isinstance(e, JobDone)]
        total_frames = sum(e.result.telemetry.frames for e in done)
        assert total_frames == sum(features[i].shape[0] for i in range(2))
        for e in done:
            tel = e.result.telemetry
            assert tel.active_states > 0
            assert tel.senones_scored > 0
            # Tracing and the stage clocks have no off switch: a job
            # submitted without a trace_id still comes back traced.
            assert tel.stage_total_s > 0.0
            assert e.result.trace is not None
            assert e.result.trace.span("decode.scoring") is not None
        # The loop's own final stats roll the same counters up per shard.
        [stopped] = [e for e in events if isinstance(e, ServeStopped)]
        assert stopped.stats.telemetry.frames == total_frames


# ----------------------------------------------------------------------
# Front door: merged request trees on ServeResult
# ----------------------------------------------------------------------
class TestServerTraces:
    def test_request_tree_merges_both_halves(self, recognizer, workload):
        features, _ = workload

        async def scenario():
            async with Server(
                recognizer, num_workers=2, max_lanes=2
            ) as server:
                sessions = [server.submit(f) for f in features[:4]]
                return [await s.result() for s in sessions]

        results = asyncio.run(scenario())
        for result in results:
            assert result.ok
            trace = result.trace
            assert trace is not None
            assert_well_nested(trace)
            names = {s.name for s in trace.spans}
            # Front-door spans + the shard's, one tree.
            assert {
                "request", "queue.wait", "dispatch",
                "worker.queue", "decode",
            } <= names
            # No wire hop in-process: no wire.receive span.
            assert "wire.receive" not in names
            # Worker-side spans carry the serving shard's label; the
            # front door's carry none.
            assert trace.span("decode").worker == result.worker
            assert trace.span("request").worker is None
            assert trace.span("request").parent is None
            rendered = trace.render()
            assert "request" in rendered and "decode.scoring" in rendered

    def test_latency_series_are_bounded_histograms(
        self, recognizer, workload
    ):
        """The serving layer keeps NO per-request latency storage —
        the unbounded-deque bug stays fixed."""
        features, _ = workload

        async def scenario():
            async with Server(
                recognizer, num_workers=1, max_lanes=2
            ) as server:
                for hist in (
                    server._latency_hist,
                    server._wait_hist,
                    server._shed_wait_hist,
                ):
                    assert isinstance(hist, LogHistogram)
                footprint = len(server._latency_hist.counts)
                await server.submit(features[0]).result()
                # Synthetic completions: drive the metrics path 10k
                # times without 10k decodes.
                for i in range(10_000):
                    server._latency_hist.record(0.01 + (i % 97) * 1e-4)
                assert len(server._latency_hist.counts) == footprint
                metrics = server.metrics()
                assert metrics.latency_p99_s >= metrics.latency_p50_s > 0.0
                assert server._latency_hist.count == 10_001

        asyncio.run(scenario())

    def test_fleet_telemetry_rolls_up_per_worker(self, recognizer, workload):
        features, _ = workload

        async def scenario():
            async with Server(
                recognizer, num_workers=2, max_lanes=2
            ) as server:
                sessions = [server.submit(f) for f in features[:4]]
                for s in sessions:
                    assert (await s.result()).ok
                for _ in range(200):
                    metrics = server.metrics()
                    if metrics.telemetry and metrics.telemetry.frames >= sum(
                        features[i].shape[0] for i in range(4)
                    ):
                        return metrics
                    await asyncio.sleep(0.02)
                return server.metrics()

        metrics = asyncio.run(scenario())
        fleet = metrics.telemetry
        assert fleet is not None
        assert fleet.frames == sum(features[i].shape[0] for i in range(4))
        assert fleet.senones_scored > 0
        per_worker = [
            w.telemetry for w in metrics.workers if w.telemetry is not None
        ]
        assert sum(t.frames for t in per_worker) == fleet.frames


# ----------------------------------------------------------------------
# THE cross-process wire test: client-minted id, forked shards, one tree
# ----------------------------------------------------------------------
class TestWireTraces:
    def test_trace_id_survives_client_to_forked_shard_and_back(
        self, recognizer, workload
    ):
        features, _ = workload

        async def scenario():
            async with Server(
                recognizer,
                num_workers=2,
                max_lanes=2,
                use_processes=True,  # forked shards: separate processes
            ) as server:
                async with WireServer(server) as wire:
                    async with await ServeClient.connect(
                        wire.host, wire.port
                    ) as client:
                        tickets = [
                            await client.submit(f) for f in features[:6]
                        ]
                        results = [await t.result() for t in tickets]
                        return [
                            (t.trace_id, r) for t, r in zip(tickets, results)
                        ]

        pairs = asyncio.run(scenario())
        workers_seen = set()
        for minted, result in pairs:
            assert result.ok
            trace = result.trace
            assert trace is not None
            # The id the CLIENT minted is the id the tree came back
            # under — one trace across three processes.
            assert minted is not None
            assert trace.trace_id == minted
            assert_well_nested(trace)
            names = {s.name for s in trace.spans}
            assert {
                "request", "wire.receive", "queue.wait", "dispatch",
                "worker.queue", "decode", "decode.scoring",
            } <= names
            # The forked worker's spans land inside the server-side
            # request window: monotonic stamps merge across fork.
            request = trace.span("request")
            decode = trace.span("decode")
            assert request.start_s <= decode.start_s
            assert decode.end_s <= request.end_s + 1e-9
            assert decode.worker == result.worker
            workers_seen.add(decode.worker)
            # Telemetry rode the same result event.
            assert result.telemetry is not None
            assert result.telemetry.frames > 0
        assert workers_seen == {0, 1}, "both shards should have decoded"

    def test_metrics_text_over_the_wire(self, recognizer, workload):
        features, _ = workload

        async def scenario():
            async with Server(
                recognizer, num_workers=1, max_lanes=2
            ) as server:
                async with WireServer(server) as wire:
                    async with await ServeClient.connect(
                        wire.host, wire.port
                    ) as client:
                        for f in features[:3]:
                            assert (await client.decode(f)).ok
                        return await client.metrics_text()

        text = asyncio.run(scenario())
        assert "# TYPE repro_serve_completed_total counter" in text
        assert "repro_serve_completed_total 3" in text
        assert "# TYPE repro_serve_latency_seconds histogram" in text
        assert 'repro_serve_latency_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_serve_worker_alive" in text
        assert "repro_serve_decode_telemetry_total" in text
