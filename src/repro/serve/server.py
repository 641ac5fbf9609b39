"""The asyncio front door: sessions, admission control, sharding.

One :class:`Server` owns a bounded admission queue and ``num_workers``
engine workers (threads in-process, or forked worker processes in the
sharded mode), each running a
:class:`~repro.runtime.serving.ServeLoop` over its own
``max_lanes``-wide :class:`~repro.runtime.batch.LaneBank`:

    submit()/open_session()           asyncio event loop (this module)
        │  AdmissionRejected when the bounded queue is full
        │  (or the client is over its fair share of it)
        ▼
    EDF admission queue ──dispatch──▶ worker 0 [lane bank, max_lanes]
        │   earliest deadline         worker 1 [lane bank, max_lanes]
        │   first; least-loaded       ...
        │   worker; work stealing
        ▼   when in-flight skews
    ServeResult futures  ◀─events── JobDone / JobTimedOut / JobStolen

This module is the mechanism — lifecycle, submit, event routing,
request traces, metrics — over one :class:`~repro.serve.fleet.Shard`
record per worker and one :class:`Session` per request.  Every
decision it takes is a plain function or object of
:mod:`repro.serve.fleet` (no event loop there): the EDF order, the
per-client fair share and the admission bound in
:class:`~repro.serve.fleet.EdfQueue`; least-loaded dispatch in
``pick_shard``; work stealing in ``steal_candidate``; steal-aware
shard health in ``lose_steal``/``recover_health``; the
``worker_backlog="auto"`` depth in ``autotune_backlog``; brownout in
``brownout_pressure`` and the :class:`~repro.serve.fleet.Brownout`
hysteresis.  :meth:`Server._metrics_window` feeds the window-driven
ones.

Deadline semantics: a deadline is an ABSOLUTE budget from enqueue.  A
job that expires while queued is shed without ever touching a lane; a
job that expires mid-decode is early-retired
(:meth:`~repro.runtime.batch.LaneBank.cancel`), freeing its lane on
the very next engine iteration — in both cases the client's future
resolves to a typed :class:`~repro.serve.types.ServeResult` with
``status=TIMEOUT``, and no surviving utterance's output moves by a
bit.

Worker failure: a worker process that dies (detected by the sweeper's
liveness poll, or via its crash event) has its unresolved jobs
re-dispatched to the surviving workers — decode is deterministic, so
a re-run is bit-identical — and only a fleet with no survivors fails
jobs outright.

All public methods must be called from the event-loop thread; worker
events re-enter the loop through ``call_soon_threadsafe``.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import multiprocessing
import time

import numpy as np

from repro.decoder.beam import check_count
from repro.decoder.recognizer import Recognizer, validate_utterance_features
from repro.decoder.streaming import StreamingRecognizer
from repro.frontend.features import Frontend, StreamingAudioBuffer
from repro.obs.exposition import render_metrics_text
from repro.obs.flight import FlightRecorder, Incident
from repro.obs.histogram import LogHistogram
from repro.obs.telemetry import DecodeTelemetry
from repro.obs.trace import Trace, mint_trace_id
from repro.runtime.serving import (
    DecodeJob,
    JobCancelled,
    JobDone,
    JobFailed,
    JobStolen,
    JobTimedOut,
    LoopStats,
    ServeStopped,
)
from repro.serve import fleet
from repro.serve.engine import (
    ProcessEngineWorker,
    ThreadEngineWorker,
    start_outbox_pump,
)
from repro.serve.faults import FaultPlan
from repro.serve.metrics import ServerMetrics, WorkerMetrics
from repro.serve.types import (
    AdmissionRejected,
    BrownoutPolicy,
    ServeResult,
    ServeStatus,
    ServerClosed,
)

__all__ = ["Server", "Session", "StreamSession"]


class Session:
    """A ticket for one submitted utterance.

    ``await session.result()`` resolves to the typed
    :class:`~repro.serve.types.ServeResult` — a normal completion, a
    deadline miss, a cancellation, or an engine error.  The future
    never raises for those outcomes; only a torn-down server rejects
    it.
    """

    def __init__(
        self,
        server: "Server",
        job: DecodeJob,
        client: str | None = None,
        received_at: float | None = None,
    ) -> None:
        self._server = server
        #: The dispatchable form of this request, held until it
        #: resolves so a steal or a worker death can re-dispatch it.
        self.job = job
        self.utt_id = job.utt_id
        self.enqueued_at = job.enqueued_at
        self.client = client
        #: Where the session is: queued (``queued`` holds its
        #: :class:`~repro.serve.fleet.EdfQueue` arrival stamp, ``worker``
        #: is None) or dispatched (``worker`` names the shard whose
        #: ``jobs`` list holds it).
        self.queued: int | None = None
        self.worker: int | None = None
        self.steal_pending = False  # a StealJob for it is in flight
        self.redispatched = False  # already survived one worker death
        # Observability stamps for the merged request trace.
        self.trace_id = job.trace_id
        self.received_at = received_at  # wire arrival (None: in-process)
        self.dispatched_at: float | None = None
        self._future: asyncio.Future[ServeResult] = (
            server._aio_loop.create_future()
        )

    @property
    def done(self) -> bool:
        return self._future.done()

    async def result(self) -> ServeResult:
        return await self._future

    def cancel(self) -> bool:
        """Request cancellation; True if the session was still live."""
        return self._server._cancel_session(self)


class StreamSession:
    """A push-style client session: stream frames or audio, then decode.

    Feature frames stream through :meth:`send_frames`; raw audio
    chunks stream through :meth:`send_audio` (stitched and run through
    the frontend at :meth:`finish`).  If ``on_partial`` is given (or
    ``endpointing=True``), a per-session
    :class:`~repro.decoder.streaming.StreamingRecognizer` (sharing the
    server's models) follows the frame stream, invoking the callback
    with refreshed partial hypotheses and auto-finishing the session
    when its decoder-driven endpointer fires.  The
    authoritative result always comes from the batched engine, so it is
    bit-identical to a sequential decode regardless of how the frames
    arrived.
    """

    def __init__(
        self,
        server: "Server",
        deadline_s: float | None,
        on_partial,
        partial_interval: int,
        endpoint_silence_frames: int,
        auto_finish: bool,
        endpointing: bool | None,
        client: str | None = None,
    ) -> None:
        self._server = server
        self._deadline_s = deadline_s
        self._client = client
        self._auto_finish = auto_finish
        self._frames: list[np.ndarray] = []
        self._leftover: np.ndarray | None = None
        self._audio: StreamingAudioBuffer | None = None
        self._session: Session | None = None
        self._streaming: StreamingRecognizer | None = None
        # The endpointer IS the streaming decoder; running it costs a
        # sequential decode alongside the engine's, so it is on only
        # when the client asks for partials or for endpointing
        # explicitly — a plain buffer-then-finish() session stays free.
        if endpointing is None:
            endpointing = on_partial is not None
        if on_partial is not None or endpointing:
            self._streaming = StreamingRecognizer(
                server._partial_recognizer(),
                partial_interval=partial_interval if on_partial else 0,
                endpoint_silence_frames=endpoint_silence_frames,
                on_partial=on_partial,
            )

    @property
    def finished(self) -> bool:
        return self._session is not None

    @property
    def endpointed(self) -> bool:
        return self._streaming is not None and self._streaming.ended

    def send_frames(self, frames: np.ndarray) -> bool:
        """Push one frame ``(L,)`` or a block ``(n, L)``.

        Returns True if the endpointer fired and the session
        auto-finished.  Frames arriving AFTER the endpoint — in the
        same block or any later call (``auto_finish=False``) — belong
        to the next utterance: they are never decoded here but kept in
        :attr:`leftover_frames` so the caller can seed its next
        session with them instead of losing audio.
        """
        if self._session is not None:
            raise RuntimeError("session already finished")
        if self._audio is not None:
            raise RuntimeError("session is streaming audio, not frames")
        # Our own copy: streaming clients canonically refill one frame
        # buffer per tick, so keeping views of the caller's memory
        # would turn the whole utterance into N copies of its last
        # frame by finish() time.
        block = np.array(np.atleast_2d(frames), dtype=np.float64)
        for i, frame in enumerate(block):
            if self.endpointed:
                rest = block[i:]
                self._leftover = (
                    rest
                    if self._leftover is None
                    else np.vstack([self._leftover, rest])
                )
                break
            self._frames.append(frame)
            if self._streaming is not None and not self._streaming.ended:
                self._streaming.feed(frame)
        if self._auto_finish and self.endpointed:
            self.finish()
            return True
        return False

    @property
    def leftover_frames(self) -> np.ndarray | None:
        """Frames received after the endpoint fired (next utterance's
        opening frames), or None if the stream split cleanly."""
        return self._leftover

    def send_audio(self, chunk: np.ndarray) -> None:
        """Push a raw audio chunk (any length); features at finish."""
        if self._session is not None:
            raise RuntimeError("session already finished")
        if self._frames:
            raise RuntimeError("session is streaming frames, not audio")
        if self._streaming is not None:
            # Partials/endpointing run on feature frames; silently
            # ignoring them for an audio stream would leave a client
            # waiting on an endpoint that can never fire.
            raise RuntimeError(
                "partial callbacks/endpointing need frame streaming "
                "(send_frames); audio sessions buffer until finish()"
            )
        if self._audio is None:
            self._audio = StreamingAudioBuffer(self._server._frontend())
        self._audio.append(chunk)

    def finish(self) -> Session:
        """Close the stream and submit the utterance for decoding.

        Admission control applies here (the decode request enters the
        bounded queue now), so this can raise
        :class:`~repro.serve.types.AdmissionRejected`.
        """
        if self._session is None:
            if self._audio is not None:
                features = self._audio.extract()
            elif self._frames:
                features = np.vstack(self._frames)
            else:
                raise ValueError("cannot finish an empty session")
            self._submit(features)
        return self._session

    def _submit(self, features: np.ndarray) -> None:
        self._session = self._server.submit(
            features, deadline_s=self._deadline_s, client=self._client
        )

    async def result(self) -> ServeResult:
        if self._session is None and self._audio is not None:
            # Feature extraction for a buffered-audio session runs in
            # an executor so one client's waveform never stalls the
            # event loop (and with it every other session's dispatch).
            loop = asyncio.get_running_loop()
            self._submit(await loop.run_in_executor(None, self._audio.extract))
        return await self.finish().result()


class Server:
    """Async serving front door over one recognizer's models.

    Parameters
    ----------
    recognizer:
        A configured :class:`Recognizer` (any scoring mode; a blas
        recognizer's reduced-precision table choice rides along too).
        Each worker gets its own :meth:`Recognizer.twin`, so all
        engines share the compiled network, senone pool and LM — and,
        in the process mode, share them physically through fork's
        copy-on-write pages.
    num_workers / max_lanes:
        Engine count and lanes per engine; total decode concurrency is
        their product.
    max_queue:
        Bound on the server-side admission queue; a submit that finds
        it full raises :class:`AdmissionRejected` (load shedding).
        When several clients hold queued jobs at once, each is also
        capped at its fair share ``max_queue // #active-clients``.
    use_processes:
        True forks each worker (the sharded mode); False runs them as
        threads of this process.
    default_deadline_s:
        Deadline applied when ``submit`` gets none (None = unbounded).
    worker_backlog:
        Jobs dispatched to a worker beyond its ``max_lanes`` so a
        retiring lane refills without a round trip through the server
        (default: ``max_lanes``).  Pass ``"auto"`` for the
        backpressure-aware autotuner: starting at ``max_lanes``, the
        depth halves whenever a metrics window saw deadline misses or
        rejections (holding jobs at the server keeps them EDF-ordered
        and shed-able) and creeps up by one, to at most
        ``4 * max_lanes``, while the fleet is packed but healthy.
    """

    AUTOTUNE_INTERVAL_S = 0.25  # metrics window between autotune steps
    SWEEP_S = 0.02  # housekeeping period (deadline shed, liveness poll)

    def __init__(
        self,
        recognizer: Recognizer,
        *,
        num_workers: int = 1,
        max_lanes: int = 8,
        max_queue: int = 32,
        use_processes: bool = False,
        default_deadline_s: float | None = None,
        worker_backlog: int | str | None = None,
        frontend: Frontend | None = None,
        brownout: BrownoutPolicy | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        check_count("num_workers", num_workers, 1)
        check_count("max_lanes", max_lanes, 1)
        check_count("max_queue", max_queue, 1)
        self._autotune = worker_backlog == "auto"
        if worker_backlog is None or self._autotune:
            worker_backlog = max_lanes
        check_count("worker_backlog", worker_backlog, 0)
        self.recognizer = recognizer
        self.num_workers = num_workers
        self.max_lanes = max_lanes
        self.max_queue = max_queue
        self.use_processes = use_processes
        self.default_deadline_s = default_deadline_s
        self._backlog = worker_backlog
        self._window_misses_seen = 0  # timeouts + rejections at the last window
        self._frontend_obj = frontend
        self.fault_plan = fault_plan
        #: Bounded per-shard ring of recent serving events; dumps an
        #: :class:`Incident` timeline on timeout/fault/death/brownout.
        self.flight = FlightRecorder(shards=num_workers)

        # Brownout: declared policy + hysteresis state.  The serving
        # precision can differ from the recognizer's own while engaged.
        self.brownout = brownout
        self._brownout_state = fleet.Brownout(brownout)
        self._serving_precision = recognizer.precision

        self._state = "new"  # new -> running -> stopping -> stopped
        self._ids = itertools.count()
        self._pick_seq = itertools.count()
        # Every unresolved session is in ``_sessions`` and in exactly
        # one of: the admission queue, or one shard's ``jobs``.
        self._pending = fleet.EdfQueue(max_queue)
        self._sessions: dict[int, Session] = {}
        self._shards: list[fleet.Shard] = []  # one record per worker, at start()
        self._pump_stop = None
        self._outbox = None
        self._sweeper: asyncio.Task | None = None
        self._aio_loop: asyncio.AbstractEventLoop | None = None

        # Counters and latency windows for metrics().
        self._submitted = 0
        self._completed = 0
        self._timeouts = 0
        self._cancelled = 0
        self._errors = 0
        self._rejections = 0
        self._steals = 0
        self._retries = 0  # jobs re-dispatched after a worker death
        self._reconnects = 0  # wire clients re-attaching (WireServer bumps)
        # Bounded log-bucketed histograms (O(1) memory for any traffic
        # volume — the old unbounded sample lists grew forever): one
        # for end-to-end latency, one for survivors' queue waits, one
        # for shed jobs' waits.  They merge bucket-wise, so percentile
        # views can combine series (and servers) exactly.
        self._latency_hist = LogHistogram()
        self._wait_hist = LogHistogram()
        self._shed_wait_hist = LogHistogram()
        self._decode_s_total = 0.0
        self._audio_s_total = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "Server":
        if self._state != "new":
            raise RuntimeError(f"cannot start a {self._state} server")
        self._aio_loop = asyncio.get_running_loop()
        loop = self._aio_loop

        def emit(worker_id: int, event: object) -> None:
            try:
                loop.call_soon_threadsafe(self._on_event, worker_id, event)
            except RuntimeError:
                pass  # loop already closed; late events have no audience

        twins = [self.recognizer.twin() for _ in range(self.num_workers)]
        if self.use_processes:
            # Fork FIRST, before any helper thread exists, so each
            # child is single-threaded and inherits the models through
            # copy-on-write pages (the fork-friendly model handoff).
            ctx = multiprocessing.get_context("fork")
            outbox = ctx.Queue()
            self._outbox = outbox
            workers = [
                ProcessEngineWorker(i, twin, self.max_lanes, outbox, ctx)
                for i, twin in enumerate(twins)
            ]
            for worker in workers:
                worker.start()
            self._pump_stop = start_outbox_pump(outbox, emit)
        else:
            workers = [
                ThreadEngineWorker(i, twin, self.max_lanes, emit)
                for i, twin in enumerate(twins)
            ]
            for worker in workers:
                worker.start()
        idle = LoopStats(max_lanes=self.max_lanes)  # until a shard reports
        self._shards = [
            fleet.Shard(i, worker, stopped=asyncio.Event(), stats=idle)
            for i, worker in enumerate(workers)
        ]
        self._sweeper = loop.create_task(self._sweep_deadlines())
        self._state = "running"
        return self

    async def stop(self, drain: bool = True, timeout: float = 60.0) -> None:
        """Shut down: ``drain`` finishes accepted work first, else it
        is cancelled.  Idempotent."""
        if self._state in ("stopped", "new"):
            self._state = "stopped"
            return
        if self._state == "running":
            self._state = "stopping"
        if not drain:
            for session in self._pending.drain():
                self._resolve(session, ServeStatus.CANCELLED, detail="server stop")
            for shard in self._shards:
                for session in shard.jobs:
                    shard.worker.cancel(session.utt_id)
        futures = [s._future for s in self._sessions.values()]
        if futures:
            await asyncio.wait(futures, timeout=timeout)
        for shard in self._shards:
            shard.worker.request_stop()
        stop_waits = [
            asyncio.wait_for(shard.stopped.wait(), timeout=timeout)
            for shard in self._shards
        ]
        await asyncio.gather(*stop_waits, return_exceptions=True)
        loop = asyncio.get_running_loop()
        for shard in self._shards:
            joined = await loop.run_in_executor(None, shard.worker.join, 5.0)
            if not joined:
                shard.worker.terminate()
        if self._outbox is not None:
            self._pump_stop()
            # A SIGKILLed shard can die mid-write into the shared
            # outbox pipe; a truncated frame wedges the pump past the
            # stop sentinel and the pipe may hold undrained events.
            # Nothing in the outbox matters after stop, so never let
            # its feeder thread gate interpreter exit.
            self._outbox.cancel_join_thread()
            self._outbox = None
        if self._sweeper is not None:
            self._sweeper.cancel()
            self._sweeper = None
        # Anything still unresolved (a worker died mid-stop) errors out.
        for session in list(self._sessions.values()):
            self._resolve(
                session, ServeStatus.ERROR, detail="server stopped"
            )
        self._state = "stopped"

    async def __aenter__(self) -> "Server":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop(drain=not any(exc))

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        features: np.ndarray,
        *,
        deadline_s: float | None = None,
        enqueued_at: float | None = None,
        client: str | None = None,
        trace_id: str | None = None,
        received_at: float | None = None,
    ) -> Session:
        """Enqueue one utterance; returns its :class:`Session` ticket.

        ``trace_id`` continues a trace the client started (the wire
        path passes the header's id through); ``received_at`` is the
        wire-arrival stamp for the ``wire.receive`` span.  Both default
        sensibly for in-process submits: a fresh id is minted and the
        wire span is omitted.

        Raises :class:`AdmissionRejected` when the bounded queue is
        full, or when ``client`` is already at its fair share of it
        while other clients hold queued jobs (load shedding — nothing
        was enqueued), ValueError for malformed features or a
        non-finite ``deadline_s``, :class:`ServerClosed` when not
        running.
        """
        if self._state != "running":
            raise ServerClosed(f"server is {self._state}")
        if not any(shard.alive for shard in self._shards):
            # Nothing can ever dispatch this job; refusing beats
            # handing back a future that would never resolve.
            raise ServerClosed("all workers have exited")
        # Shed BEFORE validating: rejection is the hot path under
        # overload and must stay O(1), not pay a feature-matrix copy.
        refusal = self._pending.refusal(client)
        if refusal is not None:
            self._rejections += 1
            reason, bound = refusal
            raise AdmissionRejected(
                len(self._pending), bound, reason=reason, client=client
            )
        if deadline_s is None:
            deadline_s = self.default_deadline_s
        if deadline_s is not None and not math.isfinite(deadline_s):
            # NaN compares false both ways: it would break the EDF
            # heap's order for every job queued beside it.
            raise ValueError(f"deadline_s must be finite, got {deadline_s!r}")
        feats = validate_utterance_features(
            self.recognizer.pool.dim, self._submitted, features
        )
        if enqueued_at is None:
            enqueued_at = time.monotonic()
        deadline_at = None if deadline_s is None else enqueued_at + deadline_s
        utt_id = next(self._ids)
        if trace_id is None:
            trace_id = mint_trace_id()
        job = DecodeJob(utt_id, feats, enqueued_at, deadline_at, trace_id)
        session = Session(self, job, client=client, received_at=received_at)
        self._sessions[utt_id] = session
        self._submitted += 1
        self._pending.push(session)
        self.flight.record("submit", utt=utt_id, client=client)
        self._dispatch()
        return session

    async def featurize(self, waveform: np.ndarray) -> np.ndarray:
        """Run a raw waveform through the frontend, off the event loop.

        Feature extraction runs in an executor thread: a full MFCC
        pass over a long waveform takes tens of milliseconds, and on
        the event loop that would stall dispatch, the deadline sweep
        and every other session's partials while one client's audio
        is featurized — fatal once requests arrive over a socket.
        """
        wave = np.asarray(waveform, dtype=np.float64)
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self._frontend().extract, wave)

    async def submit_audio(self, waveform: np.ndarray, **kwargs) -> Session:
        """:meth:`featurize` a raw waveform, then :meth:`submit`."""
        return self.submit(await self.featurize(waveform), **kwargs)

    async def decode(self, features: np.ndarray, **kwargs) -> ServeResult:
        """Submit and await in one call."""
        return await self.submit(features, **kwargs).result()

    def open_session(
        self,
        *,
        deadline_s: float | None = None,
        on_partial=None,
        partial_interval: int = 20,
        endpoint_silence_frames: int = 30,
        auto_finish: bool = True,
        endpointing: bool | None = None,
        client: str | None = None,
    ) -> StreamSession:
        """Open a push-style streaming session (see :class:`StreamSession`).

        The decoder-driven endpointer (and with it ``auto_finish``)
        runs when ``on_partial`` is given or ``endpointing=True``;
        otherwise the session simply buffers until :meth:`finish`.
        """
        if self._state != "running":
            raise ServerClosed(f"server is {self._state}")
        return StreamSession(
            self,
            deadline_s,
            on_partial,
            partial_interval,
            endpoint_silence_frames,
            auto_finish,
            endpointing,
            client=client,
        )

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def metrics(self) -> ServerMetrics:
        workers = []
        fleet_telemetry = DecodeTelemetry()
        for shard in self._shards:
            stats = shard.stats
            if stats.telemetry is not None:
                fleet_telemetry.merge(stats.telemetry)
            workers.append(
                WorkerMetrics(
                    worker=shard.index,
                    in_flight=shard.in_flight,
                    steps=stats.steps,
                    frames_processed=stats.frames_processed,
                    max_lanes=self.max_lanes,
                    alive=shard.alive,
                    health=shard.health,
                    precision=stats.precision,
                    stalled_steps=stats.stalled_steps,
                    telemetry=stats.telemetry,
                )
            )
        # Shed traffic counts: a saturated door's longest waits belong
        # to the jobs that timed out, and a percentile computed over
        # survivors only would flatter exactly that knee.  Bucket-wise
        # histogram merge makes the combined view exact.
        waits = self._wait_hist.merged(self._shed_wait_hist)
        rec = self.recognizer
        if rec.mode == "blas":
            # Analytic (shapes x itemsizes), so a metrics poll never
            # forces table construction on a worker's behalf.  Reports
            # the precision the shards are SERVING at, which under an
            # engaged brownout differs from the recognizer's own.
            table_bytes = rec.pool.table_bytes(self._serving_precision)
        else:
            table_bytes = int(rec.pool.storage_bytes(rec.storage_format))
        return ServerMetrics(
            submitted=self._submitted,
            completed=self._completed,
            timeouts=self._timeouts,
            cancelled=self._cancelled,
            errors=self._errors,
            rejections=self._rejections,
            queue_depth=len(self._pending),
            in_flight=sum(shard.in_flight for shard in self._shards),
            workers=workers,
            latency_p50_s=self._latency_hist.percentile(0.50),
            latency_p95_s=self._latency_hist.percentile(0.95),
            wait_p50_s=waits.percentile(0.50),
            wait_p95_s=waits.percentile(0.95),
            shed_wait_p95_s=self._shed_wait_hist.percentile(0.95),
            steals=self._steals,
            worker_backlog=self._backlog,
            rtf=(
                self._decode_s_total / self._audio_s_total
                if self._audio_s_total
                else 0.0
            ),
            audio_seconds=self._audio_s_total,
            scoring_mode=rec.mode,
            scoring_precision=self._serving_precision,
            model_table_bytes=table_bytes,
            network=rec.network_kind,
            retries=self._retries,
            reconnects=self._reconnects,
            faults_injected=(
                self.fault_plan.faults_injected
                if self.fault_plan is not None
                else 0
            ),
            brownout_transitions=self._brownout_state.transitions,
            brownout_active=self._brownout_state.active,
            latency_p99_s=self._latency_hist.percentile(0.99),
            wait_p99_s=waits.percentile(0.99),
            latency_hist=self._latency_hist.to_dict(),
            wait_hist=self._wait_hist.to_dict(),
            shed_wait_hist=self._shed_wait_hist.to_dict(),
            telemetry=fleet_telemetry,
        )

    def metrics_text(self) -> str:
        """The metrics snapshot in Prometheus text exposition format."""
        return render_metrics_text(
            self.metrics(),
            {
                "latency": self._latency_hist,
                "wait": self._wait_hist.merged(self._shed_wait_hist),
                "shed_wait": self._shed_wait_hist,
            },
        )

    def incidents(self) -> list[Incident]:
        """Flight-recorder dumps captured so far (bounded, oldest first)."""
        return self.flight.incidents()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _frontend(self) -> Frontend:
        if self._frontend_obj is None:
            self._frontend_obj = Frontend()
        return self._frontend_obj

    def _partial_recognizer(self) -> Recognizer:
        """A lightweight per-session recognizer for partial hypotheses.

        Always reference mode (exact, no per-lane state) over the
        SHARED network/pool/LM — only the per-session decode state is
        new.  The engine's authoritative result is unaffected.
        """
        rec = self.recognizer
        return Recognizer(
            network=rec.network,
            pool=rec.pool,
            lm=rec.lm,
            config=rec.config,
            mode="reference",
            tying=rec.tying,
            frame_period_s=rec.frame_period_s,
        )

    def _shed_expired(self, now: float) -> None:
        """Shed every expired job at the EDF head — they sort first,
        so this never scans live entries and never costs a worker
        pick."""
        while True:
            session = self._pending.peek()
            if session is None:
                return
            deadline_at = session.job.deadline_at
            if deadline_at is None or now < deadline_at:
                return
            self._pending.pop()
            self._resolve(
                session,
                ServeStatus.TIMEOUT,
                detail="queued (shed before dispatch)",
            )

    def _dispatch(self) -> None:
        if len(self._pending):
            # ONE clock read per drain: with EDF ordering the expired
            # jobs form a prefix, so shedding happens up front instead
            # of burning a pick_shard pass per dead job.
            self._shed_expired(time.monotonic())
            while len(self._pending):
                shard = fleet.pick_shard(self._shards, self.max_lanes, self._backlog)
                if shard is None:
                    break
                session = self._pending.pop()
                session.worker = shard.index
                session.dispatched_at = time.monotonic()
                shard.last_pick = next(self._pick_seq)
                shard.jobs.append(session)
                self.flight.record("dispatch", shard=shard.index, utt=session.utt_id)
                shard.worker.submit(session.job)
                if self.fault_plan is not None:
                    self._fire_dispatch_faults()
        self._maybe_steal()

    def _fire_dispatch_faults(self) -> None:
        """One dispatch-site FaultPlan event: kill or stall shards.

        Fired once per job handed to a worker, AFTER the submit, so
        the server already tracks the job and a kill that races it
        exercises the real redispatch path.  Faults may target any
        worker, not just the one that took this job.
        """
        for fault in self.fault_plan.fire("dispatch"):
            shard = self._shards[fault.worker % len(self._shards)]
            if not shard.alive:
                continue
            self.flight.record("fault", shard=shard.index, fault=fault.kind)
            self.flight.incident(
                "fault_injected", shard=shard.index, detail=fault.kind
            )
            if fault.kind == "worker_kill":
                shard.worker.inject_crash()
            elif fault.kind == "slow_shard":
                shard.worker.slow(fault.stall_s, fault.stall_steps)

    def _maybe_steal(self) -> None:
        """Reclaim one backlogged job for an idle worker, when the
        admission queue has nothing to feed it.  Best-effort and
        race-free: the victim only gives a job back if it has not
        entered a lane, and the server re-dispatches on the
        :class:`JobStolen` event."""
        if len(self._pending):
            return
        session = fleet.steal_candidate(self._shards, self.max_lanes)
        if session is not None:
            session.steal_pending = True
            self._shards[session.worker].worker.steal(session.utt_id)

    def _cancel_session(self, session: Session) -> bool:
        if session.utt_id not in self._sessions:
            return False
        if session.worker is None:
            self._resolve(session, ServeStatus.CANCELLED, detail="queued")
        else:
            self._shards[session.worker].worker.cancel(session.utt_id)
        return True

    def _resolve(
        self,
        session: Session,
        status: ServeStatus,
        *,
        result=None,
        frames_decoded: int = 0,
        detail: str = "",
    ) -> None:
        self._sessions.pop(session.utt_id, None)
        if session.worker is None:
            self._pending.remove(session)
        else:
            self._shards[session.worker].jobs.remove(session)
        if session._future.done():
            return
        finished_at = time.monotonic()
        serve_result = ServeResult(
            utt_id=session.utt_id,
            status=status,
            result=result,
            worker=session.worker,
            enqueued_at=session.enqueued_at,
            finished_at=finished_at,
            frames_decoded=frames_decoded,
            detail=detail,
            trace=self._request_trace(session, result, finished_at),
        )
        session._future.set_result(serve_result)
        shard = session.worker if session.worker is not None else -1
        self.flight.record(
            "resolve", shard=shard, utt=session.utt_id, status=status.value
        )
        if status is ServeStatus.OK:
            self._completed += 1
            self._latency_hist.record(serve_result.latency_s)
            if result is not None and result.timing is not None:
                self._wait_hist.record(result.timing.wait_s)
                self._decode_s_total += result.timing.decode_s
                self._audio_s_total += result.audio_seconds
        elif status is ServeStatus.TIMEOUT:
            self._timeouts += 1
            # The shed-wait series: how long this job sat (queued, or
            # queued + partially decoded) before the door gave up on
            # it.  Folded into wait_p50/p95 so overload percentiles
            # include exactly the traffic overload victimizes.
            self._shed_wait_hist.record(serve_result.latency_s)
            self.flight.incident(
                "timeout",
                shard=session.worker,
                detail=f"utt {session.utt_id}: {detail}",
            )
        elif status is ServeStatus.CANCELLED:
            self._cancelled += 1
        else:
            self._errors += 1
            self.flight.incident(
                "error",
                shard=session.worker,
                detail=f"utt {session.utt_id}: {detail}",
            )

    def _request_trace(
        self, session: Session, result, finished_at: float
    ) -> Trace:
        """Merge the front door's spans with the shard's into one tree.

        Both halves stamp ``time.monotonic`` (system-wide on Linux),
        so a forked shard's timestamps land directly on the server's
        timeline — no clock translation, no skew bookkeeping.
        """
        trace = Trace(trace_id=session.trace_id, utt_id=session.utt_id)
        started = (
            session.received_at
            if session.received_at is not None
            else session.enqueued_at
        )
        trace.add("request", started, finished_at)
        if session.received_at is not None:
            trace.add(
                "wire.receive",
                session.received_at,
                session.enqueued_at,
                parent="request",
            )
        worker_trace = getattr(result, "trace", None)
        if session.dispatched_at is not None:
            trace.add(
                "queue.wait",
                session.enqueued_at,
                session.dispatched_at,
                parent="request",
            )
            # The dispatch span ends when the shard's intake saw the
            # job (its worker.queue span starts there); without the
            # worker half it degrades to a zero-length marker.
            handed_off = session.dispatched_at
            if worker_trace is not None:
                queue_span = worker_trace.span("worker.queue")
                if queue_span is not None:
                    handed_off = max(handed_off, queue_span.start_s)
            trace.add(
                "dispatch",
                session.dispatched_at,
                handed_off,
                parent="request",
            )
        if (
            worker_trace is not None
            and worker_trace.trace_id == trace.trace_id
        ):
            trace.merge(worker_trace)
        return trace

    def _on_event(self, worker_id: int, event: object) -> None:
        shard = self._shards[worker_id]
        if isinstance(event, JobStolen):
            session = self._sessions.get(event.utt_id)
            if session is None or session.worker != worker_id:
                return  # resolved (or re-homed) while the steal flew
            shard.jobs.remove(session)
            session.steal_pending = False
            session.worker = None
            self._steals += 1
            self.flight.record("steal", shard=worker_id, utt=event.utt_id)
            fleet.lose_steal(shard)
            # Back into the EDF queue (original deadline intact); the
            # dispatch below hands it to the idle worker that
            # triggered the steal.
            self._pending.push(session)
            self._dispatch()
            return
        if isinstance(event, (JobDone, JobTimedOut, JobCancelled, JobFailed)):
            session = self._sessions.get(event.utt_id)
            if session is None:
                # Late event for a session already resolved locally
                # (e.g. failed at stop() after terminating a wedged
                # worker).
                return
            if session.worker != worker_id:
                # Stale event from a previous owner (the job was
                # re-dispatched after its worker died); the current
                # owner's event is the one that counts.
                return
            if isinstance(event, JobDone):
                self._resolve(session, ServeStatus.OK, result=event.result)
            elif isinstance(event, JobFailed):
                self._resolve(session, ServeStatus.ERROR, detail=event.error)
            else:  # JobTimedOut and JobCancelled mirror each other
                timed_out = isinstance(event, JobTimedOut)
                self._resolve(
                    session,
                    ServeStatus.TIMEOUT if timed_out else ServeStatus.CANCELLED,
                    frames_decoded=event.frames_decoded,
                    detail=event.stage,
                )
        elif isinstance(event, LoopStats):
            shard.stats = event
        elif isinstance(event, ServeStopped):
            shard.stats = event.stats
            shard.alive = False
            shard.stopped.set()
            survivors = any(other.alive for other in self._shards)
            if event.error is not None or self._state == "running":
                # The worker died (crash, or exited while we were
                # still serving).  Decode is deterministic and every
                # dispatched session still holds its job, so its
                # unresolved work re-queues for the survivors —
                # bit-identical on the re-run.  Only a job that
                # already burned its one retry, or a fleet with no
                # survivors, fails outright.
                detail = event.error or "worker exited"
                self.flight.record("worker_death", shard=worker_id)
                self.flight.incident(
                    "worker_death",
                    shard=worker_id,
                    detail=detail.strip().splitlines()[-1] if detail else "",
                )
                # In submission order: the re-queue order is the FIFO
                # tie-break among equal deadlines.
                for session in sorted(shard.jobs, key=lambda s: s.utt_id):
                    session.steal_pending = False
                    if survivors and not session.redispatched:
                        shard.jobs.remove(session)
                        session.redispatched = True
                        self._retries += 1
                        session.worker = None
                        self._pending.push(session)
                    else:
                        self._resolve(session, ServeStatus.ERROR, detail=detail)
            if not survivors:
                for session in self._pending.drain():
                    self._resolve(
                        session, ServeStatus.ERROR, detail="no live workers"
                    )
        self._dispatch()

    async def _sweep_deadlines(self) -> None:
        """Periodic housekeeping off the hot path: shed queued jobs
        whose deadline passed before dispatch (an O(expired) pop of
        the EDF prefix), poll worker liveness so a SIGKILLed shard is
        noticed even though it could not emit its own death event,
        and close a metrics window every ``AUTOTUNE_INTERVAL_S``."""
        window_every = max(1, round(self.AUTOTUNE_INTERVAL_S / self.SWEEP_S))
        ticks = 0
        while True:
            await asyncio.sleep(self.SWEEP_S)
            ticks += 1
            self._check_worker_liveness()
            if ticks % window_every == 0:
                self._metrics_window()
            if len(self._pending):
                self._shed_expired(time.monotonic())

    def _check_worker_liveness(self) -> None:
        """Synthesize the death event a killed worker never sent."""
        if self._state != "running":
            return  # stop() owns worker teardown
        for shard in self._shards:
            if shard.alive and not shard.worker.alive():
                self._on_event(
                    shard.index,
                    ServeStopped(shard.stats, error="worker process died"),
                )

    def _metrics_window(self) -> None:
        """Close one metrics window: feed what it saw to the fleet
        policies and apply their verdicts.  Its misses (timeouts +
        rejections since the last window) are counted once, for the
        autotuner and the brownout alike."""
        misses = self._timeouts + self._rejections
        window_misses = misses - self._window_misses_seen
        self._window_misses_seen = misses
        if self._autotune:
            self._backlog = fleet.autotune_backlog(
                self._backlog,
                window_misses,
                self._shards,
                self.max_lanes,
                len(self._pending),
            )
        fleet.recover_health(self._shards)
        if self.brownout is not None:
            pressure = fleet.brownout_pressure(
                window_misses, len(self._pending) / self.max_queue, self._shards
            )
            if self._brownout_state.step(pressure):
                self._apply_brownout()

    def _apply_brownout(self) -> None:
        """Carry out a brownout edge the hysteresis just took."""
        policy = self.brownout
        active = self._brownout_state.active
        edge = "brownout_engage" if active else "brownout_release"
        self.flight.record(edge)
        self.flight.incident(edge, detail=f"queue={len(self._pending)}")
        self._pending.admission_factor = policy.admission_factor if active else 1.0
        if policy.downshift_precision and self.recognizer.mode == "blas":
            precision = policy.precision if active else self.recognizer.precision
            if precision != self._serving_precision:
                self._serving_precision = precision
                for shard in self._shards:
                    if shard.alive:
                        shard.worker.set_precision(precision)
