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

Admission is production-shaped along four axes:

* **EDF ordering** — the queue dispatches by earliest absolute
  deadline (FIFO among equals; deadline-free jobs go last), so under
  backlog the jobs with the least slack reach a lane first and
  already-dead jobs cluster at the head where they are shed for free.
* **Per-client fair share** — ``submit(..., client=...)`` tags each
  job; when several clients hold queued jobs at once, each is capped
  at ``max_queue // #active-clients`` queued entries, so one hot
  client cannot starve the rest of the door.
* **Work stealing** — a worker that goes idle while a sibling still
  has jobs waiting BEHIND its busy lanes reclaims one
  (:class:`~repro.runtime.serving.StealJob`); the job re-enters the
  EDF queue and immediately re-dispatches to the idle worker.
* **Backlog autotuning** — ``worker_backlog="auto"`` adapts how many
  jobs are pushed to a worker beyond its lanes: deadline misses and
  rejections shrink it (jobs held at the server stay EDF-orderable
  and shed-able — backpressure), sustained packed-and-healthy load
  grows it (hiding lane-refill latency).

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
import heapq
import itertools
import math
import multiprocessing
import time

import numpy as np

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


class _EdfQueue:
    """Earliest-deadline-first admission queue with O(log n) ops.

    Entries order by ``(deadline_at, arrival)`` — deadline-free jobs
    sort last (``inf``), FIFO breaks ties — so the head is always the
    most urgent job AND, once expired jobs exist, they form a prefix
    of the order (their deadlines are the smallest), which is what
    lets dispatch shed the dead for free before spending a worker
    pick.  Removal (client cancel, steal re-queue bookkeeping) is a
    lazy tombstone; per-client live counts back the fair-share quota.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, list]] = []
        self._entries: dict[int, list] = {}  # utt_id -> live entry
        self._arrival = itertools.count()
        self._client_queued: dict[str | None, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, job: DecodeJob, session: "Session") -> None:
        key = math.inf if job.deadline_at is None else job.deadline_at
        entry = [job, session, True]
        heapq.heappush(self._heap, (key, next(self._arrival), entry))
        self._entries[job.utt_id] = entry
        client = session.client
        self._client_queued[client] = self._client_queued.get(client, 0) + 1

    def peek(self) -> tuple[DecodeJob, "Session"] | None:
        while self._heap:
            entry = self._heap[0][2]
            if entry[2]:
                return entry[0], entry[1]
            heapq.heappop(self._heap)
        return None

    def pop(self) -> tuple[DecodeJob, "Session"] | None:
        while self._heap:
            entry = heapq.heappop(self._heap)[2]
            if entry[2]:
                self._drop(entry)
                return entry[0], entry[1]
        return None

    def remove(self, utt_id: int) -> bool:
        """Tombstone a queued job; False if it was not queued here."""
        entry = self._entries.get(utt_id)
        if entry is None:
            return False
        self._drop(entry)
        return True

    def _drop(self, entry: list) -> None:
        entry[2] = False
        del self._entries[entry[0].utt_id]
        client = entry[1].client
        count = self._client_queued[client] - 1
        if count:
            self._client_queued[client] = count
        else:
            del self._client_queued[client]

    def queued_for(self, client: str | None) -> int:
        return self._client_queued.get(client, 0)

    def active_clients(self) -> int:
        """Clients currently holding at least one queued job."""
        return len(self._client_queued)

    def drain(self):
        """Pop every live entry, most urgent first."""
        while True:
            item = self.pop()
            if item is None:
                return
            yield item


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
        utt_id: int,
        enqueued_at: float,
        client: str | None = None,
        trace_id: str | None = None,
        received_at: float | None = None,
    ) -> None:
        self._server = server
        self.utt_id = utt_id
        self.enqueued_at = enqueued_at
        self.client = client
        self.worker: int | None = None
        # Observability stamps for the merged request trace.
        self.trace_id = trace_id
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
            self._session = self._server.submit(
                features, deadline_s=self._deadline_s, client=self._client
            )
        return self._session

    async def result(self) -> ServeResult:
        if self._session is None and self._audio is not None:
            # Feature extraction for a buffered-audio session runs in
            # an executor so one client's waveform never stalls the
            # event loop (and with it every other session's dispatch).
            loop = asyncio.get_running_loop()
            features = await loop.run_in_executor(None, self._audio.extract)
            self._session = self._server.submit(
                features, deadline_s=self._deadline_s, client=self._client
            )
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
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if max_lanes < 1:
            raise ValueError(f"max_lanes must be >= 1, got {max_lanes}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self._autotune = worker_backlog == "auto"
        if worker_backlog is None or self._autotune:
            worker_backlog = max_lanes
        if not isinstance(worker_backlog, int) or worker_backlog < 0:
            raise ValueError(
                f"worker_backlog must be >= 0 or 'auto', got {worker_backlog!r}"
            )
        self.recognizer = recognizer
        self.num_workers = num_workers
        self.max_lanes = max_lanes
        self.max_queue = max_queue
        self.use_processes = use_processes
        self.default_deadline_s = default_deadline_s
        self._backlog = worker_backlog
        self._backlog_max = 4 * max_lanes
        self._autotune_last_misses = 0
        self._frontend_obj = frontend
        self.fault_plan = fault_plan
        #: Bounded per-shard ring of recent serving events; dumps an
        #: :class:`Incident` timeline on timeout/fault/death/brownout.
        self.flight = FlightRecorder(shards=num_workers)

        # Brownout: declared policy + hysteresis state.  The serving
        # precision can differ from the recognizer's own while engaged.
        self.brownout = brownout
        self._brownout_active = False
        self._brownout_transitions = 0
        self._brownout_hot = 0  # consecutive windows over engage_pressure
        self._brownout_cool = 0  # consecutive windows under release_pressure
        self._brownout_last_misses = 0
        self._base_precision = recognizer.precision
        self._serving_precision = recognizer.precision

        # Steal-aware shard health (populated at start()): a shard that
        # keeps losing queued work to steals is slow — its dispatch
        # backlog share is cut until it runs steal-free again.
        self._worker_health: list[float] = []
        self._worker_stolen: list[int] = []
        self._worker_stolen_last: list[int] = []

        self._state = "new"  # new -> running -> stopping -> stopped
        self._ids = itertools.count()
        self._pick_seq = itertools.count()
        self._pending = _EdfQueue()
        self._sessions: dict[int, Session] = {}
        self._workers: list = []
        self._worker_alive: list[bool] = []
        self._worker_last_pick: list[int] = []
        self._in_flight: list[int] = []
        self._worker_stats: dict[int, LoopStats] = {}
        self._stopped_events: dict[int, asyncio.Event] = {}
        # Dispatched-but-unresolved jobs, kept so a steal or a worker
        # death can re-dispatch without a round trip to the client.
        self._live_jobs: dict[int, DecodeJob] = {}
        self._worker_jobs: list[list[int]] = []  # dispatch order per worker
        self._steal_pending: set[int] = set()
        self._redispatched: set[int] = set()
        self._pump_stop = None
        self._outbox = None
        self._pump_thread = None
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

    @property
    def _capacity(self) -> int:
        """Jobs a worker may hold at once (lanes + current backlog)."""
        return self.max_lanes + self._backlog

    def _capacity_for(self, worker_id: int) -> int:
        """Per-shard capacity, scaled by steal-aware health.

        A shard at health ``h`` gets ``max_lanes + int(backlog * h)``:
        its lanes are always dispatchable (a lone survivor must still
        take everything), but a shard that keeps losing backlogged
        work to steals stops being handed a deep backlog it cannot
        drain — the soft circuit breaker.
        """
        health = (
            self._worker_health[worker_id] if self._worker_health else 1.0
        )
        return self.max_lanes + int(self._backlog * health)

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
            self._workers = [
                ProcessEngineWorker(i, twins[i], self.max_lanes, outbox, ctx)
                for i in range(self.num_workers)
            ]
            for worker in self._workers:
                worker.start()
            self._pump_thread, self._pump_stop = start_outbox_pump(outbox, emit)
        else:
            self._workers = [
                ThreadEngineWorker(i, twins[i], self.max_lanes, emit)
                for i in range(self.num_workers)
            ]
            for worker in self._workers:
                worker.start()
        self._worker_alive = [True] * self.num_workers
        self._worker_last_pick = [-1] * self.num_workers
        self._in_flight = [0] * self.num_workers
        self._worker_health = [1.0] * self.num_workers
        self._worker_stolen = [0] * self.num_workers
        self._worker_stolen_last = [0] * self.num_workers
        self._worker_jobs = [[] for _ in range(self.num_workers)]
        self._stopped_events = {
            i: asyncio.Event() for i in range(self.num_workers)
        }
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
            for job, session in self._pending.drain():
                self._resolve(session, ServeStatus.CANCELLED, detail="server stop")
            for session in list(self._sessions.values()):
                if session.worker is not None:
                    self._workers[session.worker].cancel(session.utt_id)
        futures = [s._future for s in self._sessions.values()]
        if futures:
            await asyncio.wait(futures, timeout=timeout)
        for worker in self._workers:
            worker.request_stop()
        stop_waits = [
            asyncio.wait_for(event.wait(), timeout=timeout)
            for event in self._stopped_events.values()
        ]
        await asyncio.gather(*stop_waits, return_exceptions=True)
        loop = asyncio.get_running_loop()
        for worker in self._workers:
            joined = await loop.run_in_executor(None, worker.join, 5.0)
            if not joined:
                worker.terminate()
        if self._pump_stop is not None:
            self._pump_stop()
        if self._outbox is not None:
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
        for _ in self._pending.drain():
            pass
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
        was enqueued), ValueError for malformed features,
        :class:`ServerClosed` when not running.
        """
        if self._state != "running":
            raise ServerClosed(f"server is {self._state}")
        if not any(self._worker_alive):
            # Nothing can ever dispatch this job; refusing beats
            # handing back a future that would never resolve.
            raise ServerClosed("all workers have exited")
        # Shed BEFORE validating: rejection is the hot path under
        # overload and must stay O(1), not pay a feature-matrix copy.
        depth = len(self._pending)
        bound = self._effective_max_queue()
        if depth >= bound:
            self._rejections += 1
            reason = "brownout" if bound < self.max_queue else "queue_full"
            raise AdmissionRejected(depth, bound, reason=reason, client=client)
        if self._pending.queued_for(client) >= self._fair_share(client):
            self._rejections += 1
            raise AdmissionRejected(
                depth, self.max_queue, reason="client_quota", client=client
            )
        feats = validate_utterance_features(
            self.recognizer.pool.dim, self._submitted, features
        )
        now = time.monotonic()
        if enqueued_at is None:
            enqueued_at = now
        if deadline_s is None:
            deadline_s = self.default_deadline_s
        deadline_at = None if deadline_s is None else enqueued_at + deadline_s
        utt_id = next(self._ids)
        if trace_id is None:
            trace_id = mint_trace_id()
        job = DecodeJob(utt_id, feats, enqueued_at, deadline_at, trace_id)
        session = Session(
            self,
            utt_id,
            enqueued_at,
            client=client,
            trace_id=trace_id,
            received_at=received_at,
        )
        self._sessions[utt_id] = session
        self._submitted += 1
        self._pending.push(job, session)
        self.flight.record("submit", utt=utt_id, client=client)
        self._dispatch()
        return session

    def _effective_max_queue(self) -> int:
        """The admission bound currently in force.

        Equal to ``max_queue`` except while a brownout with
        ``admission_factor < 1.0`` is engaged, when the bound tightens
        so queued latency shrinks along with precision.
        """
        if self._brownout_active and self.brownout.admission_factor < 1.0:
            return max(1, int(self.max_queue * self.brownout.admission_factor))
        return self.max_queue

    def _fair_share(self, client: str | None) -> int:
        """This client's cap on queued jobs, under current contention.

        A lone client may use the whole queue; once ``n`` distinct
        clients hold queued jobs, each is capped at ``max_queue // n``
        (at least 1).  The cap is advisory-fair, not an eviction
        policy: jobs already queued over a newly shrunk share stay.
        """
        active = self._pending.active_clients()
        if self._pending.queued_for(client) == 0:
            active += 1  # this client is about to become active
        if active <= 1:
            return self.max_queue
        return max(1, self.max_queue // active)

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
        for i in range(len(self._workers)):
            stats = self._worker_stats.get(i)
            telemetry = getattr(stats, "telemetry", None)
            if telemetry is not None:
                fleet_telemetry.merge(telemetry)
            workers.append(
                WorkerMetrics(
                    worker=i,
                    in_flight=self._in_flight[i] if self._in_flight else 0,
                    steps=stats.steps if stats else 0,
                    frames_processed=stats.frames_processed if stats else 0,
                    max_lanes=self.max_lanes,
                    alive=bool(self._worker_alive and self._worker_alive[i]),
                    health=(
                        self._worker_health[i] if self._worker_health else 1.0
                    ),
                    precision=stats.precision if stats else None,
                    stalled_steps=stats.stalled_steps if stats else 0,
                    telemetry=telemetry,
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
            in_flight=sum(self._in_flight) if self._in_flight else 0,
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
            brownout_transitions=self._brownout_transitions,
            brownout_active=self._brownout_active,
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

    def _pick_worker(self) -> int | None:
        """Least-loaded worker with spare capacity; round-robin ties.

        Capacity is per-shard (:meth:`_capacity_for`): health cuts a
        struggling shard's backlog share before load balancing runs.
        """
        best = None
        best_key = None
        for i in range(len(self._workers)):
            if (
                not self._worker_alive[i]
                or self._in_flight[i] >= self._capacity_for(i)
            ):
                continue
            key = (self._in_flight[i], self._worker_last_pick[i])
            if best_key is None or key < best_key:
                best, best_key = i, key
        return best

    def _shed_expired(self, now: float) -> None:
        """Shed every expired job at the EDF head — they sort first,
        so this never scans live entries and never costs a worker
        pick."""
        while True:
            head = self._pending.peek()
            if head is None:
                return
            job, session = head
            if job.deadline_at is None or now < job.deadline_at:
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
            # of burning a _pick_worker pass per dead job.
            now = time.monotonic()
            self._shed_expired(now)
            while len(self._pending):
                worker_id = self._pick_worker()
                if worker_id is None:
                    break
                job, session = self._pending.pop()
                session.worker = worker_id
                session.dispatched_at = time.monotonic()
                self._in_flight[worker_id] += 1
                self._worker_last_pick[worker_id] = next(self._pick_seq)
                self._live_jobs[job.utt_id] = job
                self._worker_jobs[worker_id].append(job.utt_id)
                self.flight.record("dispatch", shard=worker_id, utt=job.utt_id)
                self._workers[worker_id].submit(job)
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
            target = fault.worker % len(self._workers)
            if not self._worker_alive[target]:
                continue
            self.flight.record("fault", shard=target, fault=fault.kind)
            self.flight.incident(
                "fault_injected", shard=target, detail=fault.kind
            )
            if fault.kind == "worker_kill":
                self._workers[target].inject_crash()
            elif fault.kind == "slow_shard":
                self._workers[target].slow(fault.stall_s, fault.stall_steps)

    def _maybe_steal(self) -> None:
        """Reclaim one backlogged job for an idle worker.

        Fires when the admission queue is empty (otherwise plain
        dispatch feeds the idle worker) but in-flight counts skew: some
        worker has spare LANES while another holds jobs beyond its
        lanes — jobs that are, in all likelihood, still waiting in its
        loop's backlog.  The steal is best-effort and race-free: the
        victim only gives a job back if it has not entered a lane, and
        the server re-dispatches on the :class:`JobStolen` event.
        """
        if len(self._pending):
            return
        if not any(
            self._worker_alive[i] and self._in_flight[i] < self.max_lanes
            for i in range(len(self._workers))
        ):
            return
        victim = None
        for i in range(len(self._workers)):
            if not self._worker_alive[i] or self._in_flight[i] <= self.max_lanes:
                continue
            if victim is None or self._in_flight[i] > self._in_flight[victim]:
                victim = i
        if victim is None:
            return
        # Newest dispatched first: the most recent job is the least
        # likely to have reached a lane yet.
        for utt_id in reversed(self._worker_jobs[victim]):
            if utt_id in self._steal_pending:
                continue
            self._steal_pending.add(utt_id)
            self._workers[victim].steal(utt_id)
            return

    def _cancel_session(self, session: Session) -> bool:
        if session.utt_id not in self._sessions:
            return False
        if session.worker is None:
            self._resolve(session, ServeStatus.CANCELLED, detail="queued")
        else:
            self._workers[session.worker].cancel(session.utt_id)
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
        self._pending.remove(session.utt_id)
        self._live_jobs.pop(session.utt_id, None)
        self._steal_pending.discard(session.utt_id)
        self._redispatched.discard(session.utt_id)
        if session.worker is not None and session.worker < len(self._worker_jobs):
            try:
                self._worker_jobs[session.worker].remove(session.utt_id)
            except ValueError:
                pass
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
        if isinstance(event, JobStolen):
            session = self._sessions.get(event.utt_id)
            if session is None or session.worker != worker_id:
                return  # resolved (or re-homed) while the steal flew
            self._in_flight[worker_id] -= 1
            try:
                self._worker_jobs[worker_id].remove(event.utt_id)
            except ValueError:
                pass
            self._steal_pending.discard(event.utt_id)
            job = self._live_jobs.pop(event.utt_id, None)
            session.worker = None
            self._steals += 1
            self.flight.record("steal", shard=worker_id, utt=event.utt_id)
            # Losing queued work to a steal is the health signal: the
            # victim was too slow to reach this job.  Cut its backlog
            # share now; steal-free windows grow it back.
            self._worker_stolen[worker_id] += 1
            self._worker_health[worker_id] = max(
                0.25, self._worker_health[worker_id] * 0.5
            )
            if job is not None:
                # Back into the EDF queue (original deadline intact);
                # the dispatch below hands it to the idle worker that
                # triggered the steal.
                self._pending.push(job, session)
            self._dispatch()
            return
        if isinstance(event, (JobDone, JobTimedOut, JobCancelled, JobFailed)):
            session = self._sessions.get(event.utt_id)
            if session is None:
                # Late event for a session already resolved locally
                # (e.g. failed at stop() after terminating a wedged
                # worker) — its in-flight slot was already released.
                return
            if session.worker != worker_id:
                # Stale event from a previous owner (the job was
                # re-dispatched after its worker died); the current
                # owner's event is the one that counts.
                return
            self._in_flight[worker_id] -= 1
            if isinstance(event, JobDone):
                self._resolve(session, ServeStatus.OK, result=event.result)
            elif isinstance(event, JobTimedOut):
                self._resolve(
                    session,
                    ServeStatus.TIMEOUT,
                    frames_decoded=event.frames_decoded,
                    detail=event.stage,
                )
            elif isinstance(event, JobCancelled):
                self._resolve(
                    session,
                    ServeStatus.CANCELLED,
                    frames_decoded=event.frames_decoded,
                    detail=event.stage,
                )
            else:
                self._resolve(session, ServeStatus.ERROR, detail=event.error)
        elif isinstance(event, LoopStats):
            self._worker_stats[worker_id] = event
        elif isinstance(event, ServeStopped):
            self._worker_stats[worker_id] = event.stats
            self._worker_alive[worker_id] = False
            stopped = self._stopped_events.get(worker_id)
            if stopped is not None:
                stopped.set()
            if event.error is not None or self._state == "running":
                # The worker died (crash, or exited while we were
                # still serving).  Decode is deterministic and the
                # server still holds every dispatched job, so its
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
                survivors = any(self._worker_alive)
                for session in [
                    s
                    for s in self._sessions.values()
                    if s.worker == worker_id
                ]:
                    job = self._live_jobs.pop(session.utt_id, None)
                    self._steal_pending.discard(session.utt_id)
                    if (
                        survivors
                        and job is not None
                        and session.utt_id not in self._redispatched
                    ):
                        self._redispatched.add(session.utt_id)
                        self._retries += 1
                        session.worker = None
                        self._pending.push(job, session)
                    else:
                        self._resolve(
                            session, ServeStatus.ERROR, detail=detail
                        )
                self._worker_jobs[worker_id] = []
                self._in_flight[worker_id] = 0
            if not any(self._worker_alive):
                for job, session in self._pending.drain():
                    self._resolve(
                        session, ServeStatus.ERROR, detail="no live workers"
                    )
        self._dispatch()

    async def _sweep_deadlines(self) -> None:
        """Periodic housekeeping off the hot path: shed queued jobs
        whose deadline passed before dispatch (an O(expired) pop of
        the EDF prefix), poll worker liveness so a SIGKILLed shard is
        noticed even though it could not emit its own death event,
        and step the backlog autotuner."""
        autotune_every = max(1, round(self.AUTOTUNE_INTERVAL_S / self.SWEEP_S))
        ticks = 0
        while True:
            await asyncio.sleep(self.SWEEP_S)
            ticks += 1
            self._check_worker_liveness()
            if ticks % autotune_every == 0:
                if self._autotune:
                    self._autotune_tick()
                self._health_tick()
                if self.brownout is not None:
                    self._brownout_tick()
            if len(self._pending):
                self._shed_expired(time.monotonic())

    def _check_worker_liveness(self) -> None:
        """Synthesize the death event a killed worker never sent."""
        if self._state != "running":
            return  # stop() owns worker teardown
        for i, worker in enumerate(self._workers):
            if self._worker_alive[i] and not worker.alive():
                stats = self._worker_stats.get(i) or LoopStats(
                    0, 0, self.max_lanes, 0, 0, 0, 0
                )
                self._on_event(
                    i, ServeStopped(stats, error="worker process died")
                )

    def _health_tick(self) -> None:
        """Recover shard health after steal-free metrics windows.

        The cut happens at steal time (:class:`JobStolen` handling);
        recovery is +0.25 per window in which the shard lost nothing —
        asymmetric on purpose, like TCP: back off fast, recover slow.
        """
        for i in range(len(self._worker_health)):
            stolen = self._worker_stolen[i] - self._worker_stolen_last[i]
            self._worker_stolen_last[i] = self._worker_stolen[i]
            if stolen == 0 and self._worker_health[i] < 1.0:
                self._worker_health[i] = min(1.0, self._worker_health[i] + 0.25)

    def _brownout_pressure(self, window_misses: int) -> float:
        """Pressure in [0, 1] for one metrics window.

        The worst of: queue fullness, dead-shard fraction, and a
        forced 1.0 when the window shed anything — shedding IS the
        signal brownout exists to pre-empt.
        """
        if window_misses > 0:
            return 1.0
        pressure = len(self._pending) / self.max_queue
        if self.num_workers > 1 and self._worker_alive:
            dead = sum(1 for alive in self._worker_alive if not alive)
            pressure = max(pressure, dead / self.num_workers)
        return min(1.0, pressure)

    def _brownout_tick(self) -> None:
        """One hysteresis step of the declared :class:`BrownoutPolicy`."""
        policy = self.brownout
        misses = self._timeouts + self._rejections
        window_misses = misses - self._brownout_last_misses
        self._brownout_last_misses = misses
        pressure = self._brownout_pressure(window_misses)
        if pressure >= policy.engage_pressure:
            self._brownout_hot += 1
            self._brownout_cool = 0
        elif pressure <= policy.release_pressure:
            self._brownout_cool += 1
            self._brownout_hot = 0
        else:
            self._brownout_hot = 0
            self._brownout_cool = 0
        if not self._brownout_active and self._brownout_hot >= policy.engage_windows:
            self._set_brownout(True)
        elif self._brownout_active and self._brownout_cool >= policy.release_windows:
            self._set_brownout(False)

    def _set_brownout(self, active: bool) -> None:
        """Engage or release brownout; counts every transition edge."""
        policy = self.brownout
        self._brownout_active = active
        self._brownout_transitions += 1
        self._brownout_hot = 0
        self._brownout_cool = 0
        edge = "brownout_engage" if active else "brownout_release"
        self.flight.record(edge)
        self.flight.incident(edge, detail=f"queue={len(self._pending)}")
        if policy.downshift_precision and self.recognizer.mode == "blas":
            precision = policy.precision if active else self._base_precision
            if precision != self._serving_precision:
                self._serving_precision = precision
                for i, worker in enumerate(self._workers):
                    if self._worker_alive[i]:
                        worker.set_precision(precision)

    def _autotune_tick(self) -> None:
        """One backpressure-aware step of the worker_backlog depth.

        Misses (timeouts + rejections) in the window mean jobs
        committed to worker backlogs were the wrong call — held at the
        server they would have stayed EDF-ordered, steal-able and
        shed-able — so the depth halves.  A packed-but-healthy window
        (every live worker at capacity, jobs still queued, zero
        misses) grows it by one to hide lane-refill latency.
        """
        misses = self._timeouts + self._rejections
        window_misses = misses - self._autotune_last_misses
        self._autotune_last_misses = misses
        if window_misses > 0:
            self._backlog //= 2
            return
        live = [
            self._in_flight[i]
            for i in range(len(self._workers))
            if self._worker_alive[i]
        ]
        packed = bool(live) and all(n >= self._capacity for n in live)
        if packed and len(self._pending) > 0:
            self._backlog = min(self._backlog_max, self._backlog + 1)
