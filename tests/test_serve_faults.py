"""Deterministic chaos for the serving stack (`repro.serve.faults`).

Covers, per the PR's acceptance criteria:

* :class:`FaultPlan` mechanics — counter-based sites, seeded schedule
  reproducibility, loud validation;
* client resilience — reconnect with capped/jittered backoff,
  idempotent submit replay (at most once), typed
  :class:`ConnectionLost` / :class:`RetriesExhausted` for everything
  non-retryable (streams never hang);
* graceful brownout — hysteresis engage/release, live blas precision
  downshift with full restoration, ``reason="brownout"`` admission
  tightening;
* THE chaos matrix: a seeded plan combining two worker kills, a
  socket drop (client auto-reconnects) and a slow shard, under 24
  mixed submit/stream jobs over two forked shards through a real
  socket — every job resolves to a typed outcome, zero silent drops,
  OK results bit-identical to fault-free decode, and the whole run
  repeats identically for the same plan.

No pytest-asyncio dependency: async tests run under ``asyncio.run``.
"""

import asyncio
import math

import numpy as np
import pytest

from repro.decoder import Recognizer
from repro.serve import (
    AdmissionRejected,
    BrownoutPolicy,
    ConnectionLost,
    Fault,
    FaultPlan,
    RetriesExhausted,
    RetryPolicy,
    ServeClient,
    ServeStatus,
    Server,
    WireServer,
)
from repro.serve.client import WireProtocolError
from repro.serve.fleet import Brownout, Shard, brownout_pressure


def make_recognizer(task, mode="reference", **kwargs):
    return Recognizer.create(
        task.dictionary, task.pool, task.lm, task.tying, mode=mode, **kwargs
    )


@pytest.fixture(scope="module")
def recognizer(task):
    return make_recognizer(task)


@pytest.fixture(scope="module")
def workload(task, recognizer):
    """Ragged utterances (full + truncated variants) with their
    fault-free sequential baselines — the bit-identity reference."""
    features = []
    for utt in task.corpus.test:
        features.append(utt.features)
        features.append(utt.features[: max(40, utt.features.shape[0] // 2)])
    baselines = [recognizer.decode(f) for f in features]
    return features, baselines


FAST_RETRY = RetryPolicy(
    max_reconnects=4, backoff_base_s=0.01, backoff_cap_s=0.05, jitter=0.5, seed=2
)


# ----------------------------------------------------------------------
# FaultPlan: counters, seeding, validation
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_fire_counts_events_and_records_injections(self):
        plan = FaultPlan(
            [
                Fault(site="wire_tx", at=2, kind="delay", delay_s=0.5),
                Fault(site="wire_tx", at=2, kind="disconnect"),
                Fault(site="dispatch", at=1, kind="worker_kill", worker=0),
            ]
        )
        assert plan.fire("wire_tx") == []  # event 1: nothing scheduled
        due = plan.fire("wire_tx")  # event 2: both faults fire together
        assert [f.kind for f in due] == ["delay", "disconnect"]
        assert plan.fire("wire_tx") == []  # event 3: one-shot, not repeated
        assert plan.count("wire_tx") == 3
        assert plan.faults_injected == 2
        assert [f.kind for f in plan.fire("dispatch")] == ["worker_kill"]
        assert plan.faults_injected == 3
        assert plan.count("wire_rx") == 0

    def test_unknown_site_raises_instead_of_disabling_faults(self):
        plan = FaultPlan([])
        with pytest.raises(ValueError, match="unknown fault site"):
            plan.fire("dispatchh")

    def test_fault_validation_is_loud(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            Fault(site="nope", at=1, kind="disconnect")
        with pytest.raises(ValueError, match="not valid at site"):
            Fault(site="wire_rx", at=1, kind="worker_kill")
        with pytest.raises(ValueError, match="1-based"):
            Fault(site="wire_rx", at=0, kind="disconnect")
        with pytest.raises(ValueError, match="target worker"):
            Fault(site="dispatch", at=1, kind="worker_kill")

    def test_seeded_schedule_is_reproducible(self):
        kwargs = dict(
            num_workers=2,
            jobs=24,
            worker_kills=2,
            slow_shards=1,
            wire_disconnects=2,
            client_disconnects=1,
        )
        a = FaultPlan.seeded(42, **kwargs)
        b = FaultPlan.seeded(42, **kwargs)
        assert a.faults == b.faults
        assert len(a) == 6
        assert FaultPlan.seeded(43, **kwargs).faults != a.faults
        # Kinds/sites follow the knobs exactly.
        kinds = sorted(f.kind for f in a.faults)
        assert kinds == sorted(
            ["worker_kill", "worker_kill", "slow_shard", "disconnect",
             "disconnect", "disconnect"]
        )
        assert all(
            f.worker is not None
            for f in a.faults
            if f.kind in ("worker_kill", "slow_shard")
        )


# ----------------------------------------------------------------------
# RetryPolicy: capped exponential backoff with seeded jitter
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_is_capped_exponential_and_seeded(self):
        policy = RetryPolicy(
            backoff_base_s=0.1, backoff_cap_s=0.3, jitter=0.5, seed=3
        )
        seq1 = [
            policy.backoff_s(k, np.random.default_rng(3)) for k in range(5)
        ]
        seq2 = [
            policy.backoff_s(k, np.random.default_rng(3)) for k in range(5)
        ]
        assert seq1 == seq2  # same seed, same jitter, run after run
        assert all(s <= 0.3 * 1.5 for s in seq1)  # cap * (1 + jitter)
        plain = RetryPolicy(backoff_base_s=0.1, backoff_cap_s=0.3, jitter=0.0)
        assert [plain.backoff_s(k, None) for k in range(4)] == [
            0.1,
            0.2,
            0.3,
            0.3,
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_reconnects=-1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_s=-0.1)

    @pytest.mark.parametrize("name", ["backoff_base_s", "backoff_cap_s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_refuses_a_backoff_that_never_ends(self, name, value):
        """``ServeClient`` awaits the backoff before it reconnects: a
        NaN or infinite one never ends, and the in-flight tickets would
        never resolve."""
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            RetryPolicy(**{name: value})


# ----------------------------------------------------------------------
# Brownout: hysteresis, precision downshift + restoration, admission
# ----------------------------------------------------------------------
class TestBrownout:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BrownoutPolicy(engage_pressure=0.5, release_pressure=0.5)
        with pytest.raises(ValueError):
            BrownoutPolicy(engage_windows=0)
        with pytest.raises(ValueError):
            BrownoutPolicy(admission_factor=0.0)
        with pytest.raises(ValueError):
            BrownoutPolicy(admission_factor=1.5)
        # A typo here used to construct fine and then kill every blas
        # shard (set_precision raising inside the serve loop) at the
        # moment brownout engaged.
        with pytest.raises(ValueError, match="supported: 'float64', 'float32'"):
            BrownoutPolicy(precision="float16")

    # One metrics window of an idle one-shard fleet with an empty
    # queue: hot if it shed anything (pressure 1.0), else cool (0.0).
    HOT = brownout_pressure(1, 0.0, [Shard(0)])
    COOL = brownout_pressure(0, 0.0, [Shard(0)])

    def test_hysteresis_needs_consecutive_windows(self):
        policy = BrownoutPolicy(
            engage_windows=2, release_windows=2, precision=None
        )
        brownout = Brownout(policy)
        brownout.step(self.HOT)  # window 1 shed something -> pressure 1.0
        assert not brownout.active  # one hot window is not enough
        brownout.step(self.HOT)
        assert brownout.active
        assert brownout.transitions == 1
        brownout.step(self.COOL)  # cool window 1 (no misses, empty queue)
        assert brownout.active  # one cool window is not enough
        brownout.step(self.COOL)
        assert not brownout.active
        assert brownout.transitions == 2

    def test_interrupted_hot_streak_resets(self):
        policy = BrownoutPolicy(
            engage_windows=2, release_windows=2, precision=None
        )
        brownout = Brownout(policy)
        brownout.step(self.HOT)  # hot
        brownout.step(self.COOL)  # cool: streak broken
        brownout.step(self.HOT)  # hot again, but streak restarted
        assert not brownout.active

    def test_pressure_sees_dead_shards_and_sheds(self):
        shards = [Shard(0), Shard(1, alive=False)]
        assert brownout_pressure(0, 0.0, shards) == 0.5  # half the fleet is gone
        assert brownout_pressure(3, 0.0, shards) == 1.0  # any shed forces 1.0

    def test_precision_downshift_and_full_restoration(self, task, workload):
        """Engage: every live blas shard swaps to float32 tables
        mid-serve.  Release: float64 restored, and a decode afterwards
        is bit-identical to one from before the brownout."""
        features, _ = workload
        rec = make_recognizer(task, mode="blas")
        policy = BrownoutPolicy(engage_windows=1, release_windows=1)

        async def poll_precision(server, want):
            for _ in range(500):
                workers = server.metrics().workers
                if all(w.precision == want for w in workers):
                    return
                await asyncio.sleep(0.01)
            raise AssertionError(
                f"workers never reached precision {want!r}: "
                f"{[w.precision for w in server.metrics().workers]}"
            )

        async def scenario():
            server = Server(rec, num_workers=2, max_lanes=2, brownout=policy)
            # Manual ticks only: the sweeper's own brownout ticks would
            # race the assertions below.
            server.WINDOW_S = 3600.0
            await server.start()
            try:
                before = await server.submit(features[0]).result()
                assert before.status is ServeStatus.OK
                # An idle worker reports precision only after its
                # first stats emission; the server-level view is live.
                assert server.metrics().scoring_precision == "float64"

                server._timeouts += 1  # simulate a shed window
                server._metrics_window()
                assert server._brownout_state.active
                m = server.metrics()
                assert m.brownout_active and m.brownout_transitions == 1
                assert m.scoring_precision == "float32"
                await poll_precision(server, "float32")
                degraded = await server.submit(features[0]).result()
                assert degraded.status is ServeStatus.OK  # degraded, not shed

                server._metrics_window()  # cool window -> release
                assert not server._brownout_state.active
                m = server.metrics()
                assert not m.brownout_active and m.brownout_transitions == 2
                assert m.scoring_precision == "float64"
                await poll_precision(server, "float64")
                after = await server.submit(features[0]).result()
                assert after.status is ServeStatus.OK
                # Full restoration: bit-identical to pre-brownout.
                assert after.words == before.words
                assert after.result.score == before.result.score
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_no_precision_rung_keeps_the_tables(self, task):
        """``precision=None`` is a brownout without a precision rung:
        it engages (and would tighten admission) but a blas fleet keeps
        serving at the recognizer's own precision."""
        rec = make_recognizer(task, mode="blas")
        policy = BrownoutPolicy(engage_windows=1, precision=None)
        server = Server(rec, brownout=policy)
        server._timeouts += 1  # a shed window
        server._metrics_window()
        assert server._brownout_state.active
        assert server.metrics().scoring_precision == "float64"

    def test_admission_tightens_with_typed_brownout_rejections(
        self, recognizer, workload
    ):
        features, _ = workload
        policy = BrownoutPolicy(
            engage_windows=1,
            release_windows=1,
            precision=None,
            admission_factor=0.5,
        )

        async def scenario():
            server = Server(
                recognizer,
                num_workers=1,
                max_lanes=1,
                max_queue=8,
                brownout=policy,
            )
            server.WINDOW_S = 3600.0
            await server.start()
            try:
                assert server._pending.effective_max_queue() == 8
                server._timeouts += 1
                server._metrics_window()
                assert server._brownout_state.active
                assert server._pending.effective_max_queue() == 4
                # 1 dispatches (into the one free lane), 4 fill the
                # tightened queue; the next submit sheds typed.
                sessions = [server.submit(features[0]) for _ in range(5)]
                with pytest.raises(AdmissionRejected) as err:
                    server.submit(features[0])
                assert err.value.reason == "brownout"
                assert err.value.max_queue == 4
                # Everything admitted still resolves: tightening the
                # door never drops accepted work.
                for session in sessions:
                    assert (await session.result()).status is ServeStatus.OK
            finally:
                await server.stop()

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# Injected engine faults through the server (threads, in-process)
# ----------------------------------------------------------------------
class TestDispatchFaults:
    def test_slow_shard_stalls_but_stays_correct(self, recognizer, workload):
        features, baselines = workload
        plan = FaultPlan(
            [
                Fault(
                    site="dispatch",
                    at=1,
                    kind="slow_shard",
                    worker=0,
                    stall_s=0.001,
                    stall_steps=10,
                )
            ]
        )

        async def scenario():
            async with Server(
                recognizer, num_workers=1, max_lanes=2, fault_plan=plan
            ) as server:
                for i in range(3):  # enough steps to cross STATS_EVERY
                    result = await server.submit(features[i]).result()
                    assert result.status is ServeStatus.OK
                    assert result.words == baselines[i].words
                    assert result.result.score == baselines[i].score
                assert plan.faults_injected == 1
                for _ in range(300):
                    worker = server.metrics().workers[0]
                    if worker.stalled_steps > 0:
                        break
                    await asyncio.sleep(0.01)
                assert server.metrics().workers[0].stalled_steps > 0
                assert server.metrics().faults_injected == 1
                # The flight recorder dumped the injection with the
                # dispatch history that led up to it.
                [dump] = [
                    i
                    for i in server.incidents()
                    if i.reason == "fault_injected"
                ]
                assert dump.shard == 0
                assert dump.detail == "slow_shard"
                kinds = {e["kind"] for e in dump.events}
                assert {"submit", "dispatch", "fault"} <= kinds
                assert "incident: fault_injected shard=0" in dump.render()

        asyncio.run(scenario())

    def test_thread_worker_crash_redispatches(self, recognizer, workload):
        """A CrashWorker fault kills a thread worker's loop (raise ->
        ServeStopped with a traceback); its jobs re-run on the
        survivor bit-identically."""
        features, baselines = workload
        plan = FaultPlan(
            [Fault(site="dispatch", at=1, kind="worker_kill", worker=0)]
        )

        async def scenario():
            async with Server(
                recognizer,
                num_workers=2,
                max_lanes=1,
                max_queue=16,
                fault_plan=plan,
            ) as server:
                sessions = [server.submit(features[0]) for _ in range(4)]
                results = await asyncio.gather(*[s.result() for s in sessions])
                for result in results:
                    assert result.status is ServeStatus.OK, result
                    assert result.words == baselines[0].words
                    assert result.result.score == baselines[0].score
                assert not server._shards[0].alive
                assert server.metrics().retries >= 1
                assert server.metrics().errors == 0
                # The death produced a timeline: the kill and the
                # doomed job's dispatch are in the dump.
                [death] = [
                    i for i in server.incidents() if i.reason == "worker_death"
                ]
                assert death.shard == 0
                kinds = {e["kind"] for e in death.events}
                assert {"dispatch", "fault", "worker_death"} <= kinds

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# Flight-recorder incidents outside injected faults
# ----------------------------------------------------------------------
class TestIncidentDumps:
    def test_deadline_miss_dumps_a_timeline(self, recognizer, workload):
        """A timeout is an incident, not a lone status code: the dump
        names the utterance and carries the events that led to it."""
        features, _ = workload

        async def scenario():
            async with Server(
                recognizer, num_workers=1, max_lanes=2
            ) as server:
                fine = server.submit(features[0])
                doomed = server.submit(features[1], deadline_s=0.0)
                assert (await fine.result()).status is ServeStatus.OK
                assert (await doomed.result()).status is ServeStatus.TIMEOUT
                [dump] = [
                    i for i in server.incidents() if i.reason == "timeout"
                ]
                assert f"utt {doomed.utt_id}" in dump.detail
                kinds = [e["kind"] for e in dump.events]
                assert "submit" in kinds
                # The healthy neighbour produced no dump.
                assert len(server.incidents()) == 1
                rendered = dump.render()
                assert rendered.startswith("incident: timeout")
                assert "[server] submit" in rendered

        asyncio.run(scenario())

    def test_incident_log_is_bounded_under_fault_load(
        self, recognizer, workload
    ):
        """Sustained timeouts cannot grow the black box without bound."""
        features, _ = workload

        async def scenario():
            async with Server(
                recognizer, num_workers=1, max_lanes=2
            ) as server:
                cap = server.flight._incidents.maxlen
                for _ in range(cap + 10):
                    server.flight.incident("timeout", detail="synthetic")
                assert len(server.incidents()) == cap

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# Client resilience over a real socket
# ----------------------------------------------------------------------
class TestClientResilience:
    def test_reconnect_replays_lost_submit(self, recognizer, workload):
        """The server drops the connection after reading (and
        discarding) the submit: the client reconnects, replays the
        keyed submit, and the result is bit-identical — decoded once."""
        features, baselines = workload
        plan = FaultPlan([Fault(site="wire_rx", at=2, kind="disconnect")])

        async def scenario():
            async with Server(recognizer, num_workers=1, max_lanes=2) as server:
                async with WireServer(server, fault_plan=plan) as wire:
                    client = await ServeClient.connect(
                        wire.host, wire.port, retry=FAST_RETRY
                    )
                    result = await (await client.submit(features[0])).result()
                    assert result.ok
                    assert result.words == baselines[0].words
                    assert result.score == baselines[0].score
                    assert client.reconnects == 1 and client.retries == 1
                    assert plan.faults_injected == 1
                    metrics = server.metrics()
                    assert metrics.reconnects == 1
                    assert metrics.submitted == 1 and metrics.completed == 1
                    await client.close()

        asyncio.run(scenario())

    @pytest.mark.parametrize("kind", ["disconnect", "truncate"])
    def test_replay_after_accept_reattaches_without_second_decode(
        self, recognizer, workload, kind
    ):
        """The connection dies AFTER the server accepted the submit
        (the accepted frame is cut mid-send): the replayed key
        re-attaches to the live session or its parked result — the
        server decodes exactly once."""
        features, baselines = workload
        plan = FaultPlan([Fault(site="wire_tx", at=2, kind=kind)])

        async def scenario():
            async with Server(recognizer, num_workers=1, max_lanes=2) as server:
                async with WireServer(server, fault_plan=plan) as wire:
                    client = await ServeClient.connect(
                        wire.host, wire.port, retry=FAST_RETRY
                    )
                    result = await (await client.submit(features[0])).result()
                    assert result.ok
                    assert result.words == baselines[0].words
                    assert result.score == baselines[0].score
                    metrics = server.metrics()
                    assert metrics.submitted == 1  # at-most-once decode
                    assert metrics.completed == 1
                    assert client.retries == 1
                    await client.close()

        asyncio.run(scenario())

    def test_second_loss_fails_typed_not_replayed_twice(
        self, recognizer, workload
    ):
        """A submit that burns its one replay fails with
        RetriesExhausted (it may have run server-side); the client
        itself survives and keeps serving new work."""
        features, baselines = workload
        plan = FaultPlan(
            [
                Fault(site="wire_rx", at=2, kind="disconnect"),
                Fault(site="wire_rx", at=4, kind="disconnect"),
            ]
        )

        async def scenario():
            async with Server(recognizer, num_workers=1, max_lanes=2) as server:
                async with WireServer(server, fault_plan=plan) as wire:
                    client = await ServeClient.connect(
                        wire.host, wire.port, retry=FAST_RETRY
                    )
                    with pytest.raises(RetriesExhausted):
                        await (await client.submit(features[0])).result()
                    assert client.reconnects == 2
                    # The connection is alive; only that submit died.
                    fresh = await client.decode(features[1])
                    assert fresh.ok
                    assert fresh.words == baselines[1].words
                    await client.close()

        asyncio.run(scenario())

    def test_reconnect_gives_up_typed_when_server_is_gone(
        self, recognizer, workload
    ):
        features, _ = workload

        async def scenario():
            async with Server(recognizer, num_workers=1, max_lanes=2) as server:
                wire = await WireServer(server).start()
                client = await ServeClient.connect(
                    wire.host,
                    wire.port,
                    retry=RetryPolicy(
                        max_reconnects=2,
                        backoff_base_s=0.01,
                        backoff_cap_s=0.02,
                        seed=4,
                    ),
                )
                await wire.stop()  # listener AND live connections die
                for _ in range(500):
                    if client._conn_exc is not None:
                        break
                    await asyncio.sleep(0.01)
                assert isinstance(client._conn_exc, RetriesExhausted)
                with pytest.raises(RetriesExhausted):
                    await client.submit(features[0])
                await client.close()

        asyncio.run(scenario())

    def test_stream_fails_typed_after_reconnect(self, recognizer, workload):
        """Streams are not idempotent: after a mid-stream connection
        loss the reconnected client raises ConnectionLost from every
        stream op instead of hanging, while fresh submits work."""
        features, baselines = workload
        plan = FaultPlan([Fault(site="client_tx", at=3, kind="disconnect")])

        async def scenario():
            async with Server(recognizer, num_workers=1, max_lanes=2) as server:
                async with WireServer(server) as wire:
                    client = await ServeClient.connect(
                        wire.host, wire.port, retry=FAST_RETRY, fault_plan=plan
                    )
                    stream = await client.open_stream()
                    await stream.send_frames(features[0][:30])  # tx 3: cut
                    for _ in range(500):  # streams die first, then redial
                        if client.reconnects == 1:
                            break
                        await asyncio.sleep(0.01)
                    assert client.reconnects == 1
                    assert isinstance(stream._ticket.failed, ConnectionLost)
                    with pytest.raises(ConnectionLost):
                        await stream.send_frames(features[0][30:60])
                    with pytest.raises(ConnectionLost):
                        await stream.finish()
                    fresh = await client.decode(features[1])
                    assert fresh.ok and fresh.words == baselines[1].words
                    await client.close()

        asyncio.run(scenario())

    def test_fail_all_sweeps_open_streams_without_retry(
        self, recognizer, workload
    ):
        """No retry policy: a connection loss fails open streams typed
        (the _fail_all sweep) — result() raises instead of hanging on
        a session the server already discarded."""
        features, _ = workload
        plan = FaultPlan([Fault(site="wire_rx", at=3, kind="disconnect")])

        async def scenario():
            async with Server(recognizer, num_workers=1, max_lanes=2) as server:
                async with WireServer(server, fault_plan=plan) as wire:
                    client = await ServeClient.connect(wire.host, wire.port)
                    stream = await client.open_stream()
                    await stream.send_frames(features[0][:30])  # rx 3: cut
                    for _ in range(500):
                        if client._conn_exc is not None:
                            break
                        await asyncio.sleep(0.01)
                    assert isinstance(client._conn_exc, ConnectionLost)
                    with pytest.raises(ConnectionLost):
                        await stream.result()
                    with pytest.raises(ConnectionLost):
                        await client.submit(features[0])
                    await client.close()

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# THE chaos matrix: kills + socket drop + slow shard, mixed traffic,
# two forked shards, one socket — typed outcomes, bit-identical OKs,
# deterministic replay
# ----------------------------------------------------------------------
def _chaos_plan() -> FaultPlan:
    """Two worker kills, one socket drop, one slow shard.

    ``at`` positions are laid out against the matrix's deterministic
    event sequence (sequential phase A pins the dispatch counter):

    * dispatch 1: worker 1 starts stalling (slow shard);
    * dispatch 3: worker 0 is SIGKILLed holding job 3 -> the liveness
      sweep redispatches it (dispatch 4) to the survivor;
    * wire_rx 7: the 6th submit is read and dropped, the socket cut ->
      the client reconnects and replays the keyed submit;
    * dispatch 26: after the 24 main jobs (6+8+6+4 dispatches plus the
      one redispatch), the first sentinel submit rides dispatch 26 and
      kills the last shard -> typed ERROR, never silence.
    """
    return FaultPlan(
        [
            Fault(
                site="dispatch",
                at=1,
                kind="slow_shard",
                worker=1,
                stall_s=0.003,
                stall_steps=30,
            ),
            Fault(site="dispatch", at=3, kind="worker_kill", worker=0),
            Fault(site="wire_rx", at=7, kind="disconnect"),
            Fault(site="dispatch", at=26, kind="worker_kill", worker=1),
        ],
        seed=1234,
    )


class TestChaosMatrix:
    JOBS = 24

    async def _run(self, recognizer, features):
        plan = _chaos_plan()
        n = len(features)
        outcomes = []
        record = {"outcomes": outcomes}

        async def consume(result):
            outcomes.append((result.status.value, result.words, result.score))

        async with Server(
            recognizer,
            num_workers=2,
            max_lanes=2,
            max_queue=32,
            use_processes=True,
            fault_plan=plan,
        ) as server:
            async with WireServer(server) as wire:
                client = await ServeClient.connect(
                    wire.host,
                    wire.port,
                    client="chaos",
                    retry=RetryPolicy(
                        max_reconnects=4,
                        backoff_base_s=0.01,
                        backoff_cap_s=0.05,
                        jitter=0.5,
                        seed=11,
                    ),
                    fault_plan=plan,
                )
                # Phase A: 6 sequential submits.  Job 3 rides the
                # worker-0 kill; job 6's frame is dropped on the wire
                # and survives through reconnect + keyed replay.
                for i in range(6):
                    ticket = await client.submit(features[i % n])
                    await consume(await ticket.result())
                # Phase B: 8 concurrent submits on the surviving shard.
                tickets = []
                for i in range(6, 14):
                    tickets.append(await client.submit(features[i % n]))
                for ticket in tickets:
                    await consume(await ticket.result())
                # Phase C: 6 streaming sessions, explicit finish.
                for i in range(14, 20):
                    feats = features[i % n]
                    stream = await client.open_stream()
                    for start in range(0, feats.shape[0], 30):
                        await stream.send_frames(feats[start : start + 30])
                    await consume(await stream.result())
                # Phase D: 4 more submits -> 24 mixed jobs total.
                for i in range(20, 24):
                    ticket = await client.submit(features[i % n])
                    await consume(await ticket.result())
                # Sentinel 1 rides dispatch 26: the last shard dies
                # holding it -> typed ERROR (no survivors left).
                sentinel = await (await client.submit(features[0])).result()
                record["sentinel"] = sentinel.status.value
                # Sentinel 2: a dead fleet refuses typed, never hangs.
                with pytest.raises(WireProtocolError, match="workers"):
                    await client.submit(features[0])
                snapshot = await client.metrics()
                record["metrics"] = {
                    key: snapshot[key]
                    for key in (
                        "submitted",
                        "completed",
                        "errors",
                        "timeouts",
                        "cancelled",
                        "retries",
                        "reconnects",
                        "faults_injected",
                    )
                }
                record["stalled"] = snapshot["workers"][1]["stalled_steps"]
                record["client"] = (client.retries, client.reconnects)
                # The flight recorder saw the whole story: each shard
                # death dumped a timeline containing the injected kill
                # and the doomed job's dispatch.
                deaths = [
                    i for i in server.incidents() if i.reason == "worker_death"
                ]
                for dump in deaths:
                    kinds = {e["kind"] for e in dump.events}
                    assert {"dispatch", "fault", "worker_death"} <= kinds
                record["incidents"] = sorted(
                    i.reason for i in server.incidents()
                )
                await client.close()
        return record

    def test_chaos_run_is_typed_bit_identical_and_deterministic(
        self, recognizer, workload
    ):
        features, baselines = workload
        n = len(features)

        first = asyncio.run(self._run(recognizer, features))

        # Every one of the 24 mixed jobs resolved OK — bit-identical
        # to its fault-free sequential baseline despite two kills, a
        # dropped socket and a stalling shard.
        assert len(first["outcomes"]) == self.JOBS
        for i, (status, words, score) in enumerate(first["outcomes"]):
            base = baselines[i % n]
            assert status == "ok", (i, status)
            assert words == base.words, i
            assert score == base.score, i  # bit-exact across the wire

        # The sentinel that killed the last shard is a typed ERROR.
        assert first["sentinel"] == "error"

        # Zero silent drops: every admitted job is accounted for.
        m = first["metrics"]
        assert m["submitted"] == self.JOBS + 1  # 24 OK + 1 sentinel
        assert m["completed"] == self.JOBS
        assert m["errors"] == 1
        assert m["timeouts"] == 0 and m["cancelled"] == 0
        # The resilience counters saw every injected fault.
        assert m["faults_injected"] == 4
        assert m["retries"] == 1  # job 3, redispatched after the kill
        assert m["reconnects"] == 1  # the client came back once
        assert first["client"] == (1, 1)  # one replay, one re-dial
        assert first["stalled"] > 0  # the slow shard really stalled

        # The flight recorder dumped every non-wire incident: three
        # injected dispatch faults, both shard deaths, and the
        # sentinel's typed ERROR — and nothing else.
        assert first["incidents"] == [
            "error",
            "fault_injected",
            "fault_injected",
            "fault_injected",
            "worker_death",
            "worker_death",
        ]

        # Determinism: the same plan replays to the same outcomes.
        second = asyncio.run(self._run(recognizer, features))
        assert second == first

    def test_seeded_plan_drives_a_wire_fleet_clean(
        self, recognizer, workload
    ):
        """A schedule generated from one RNG seed (kill + slow shard +
        wire delay) over threaded shards: every job still resolves OK
        and bit-identical, and the whole plan demonstrably fired."""
        features, baselines = workload
        n = len(features)
        kwargs = dict(
            num_workers=2, jobs=12, worker_kills=1, slow_shards=1, wire_delays=1
        )
        plan = FaultPlan.seeded(5, **kwargs)
        assert plan.faults == FaultPlan.seeded(5, **kwargs).faults

        async def scenario():
            async with Server(
                recognizer,
                num_workers=2,
                max_lanes=2,
                max_queue=32,
                fault_plan=plan,
            ) as server:
                async with WireServer(server) as wire:
                    client = await ServeClient.connect(
                        wire.host, wire.port, retry=FAST_RETRY
                    )
                    tickets = [
                        await client.submit(features[i % n]) for i in range(12)
                    ]
                    results = [await t.result() for t in tickets]
                    for i, result in enumerate(results):
                        base = baselines[i % n]
                        assert result.ok, (i, result)
                        assert result.words == base.words
                        assert result.score == base.score
                    metrics = server.metrics()
                    assert metrics.completed == 12
                    assert metrics.errors == 0
                    # kill (at < 12), slow (at < 6) and wire delay
                    # (at < 24 over hello+accepted+result frames) all
                    # land inside this run's event windows.
                    assert metrics.faults_injected == 3
                    await client.close()

        asyncio.run(scenario())
