"""Thin asyncio client for the wire transport.

:class:`ServeClient` speaks the length-prefixed frame protocol of
:mod:`repro.serve.transport` and mirrors the in-process session API:

    client = await ServeClient.connect(host, port)
    result = await client.decode(features, deadline_s=0.5)   # WireResult
    ticket = await client.submit(features)                   # pipelined
    ...
    result = await ticket.result()
    stream = await client.open_stream(on_partial=print)
    await stream.send_frames(block)
    result = await (await stream.finish()).result()
    await client.close()

``submit``/``finish`` raise the same typed
:class:`~repro.serve.types.AdmissionRejected` the in-process API
raises (rebuilt from the ``rejected`` event), so a remote caller's
backpressure logic is identical to a local one's.  Deadline misses,
cancellations and server errors arrive as :class:`WireResult` values
with the corresponding :class:`~repro.serve.types.ServeStatus` — a
submitted utterance ALWAYS resolves; silence is a protocol bug, not a
shedding mechanism.

Resilience (opt-in via ``connect(..., retry=RetryPolicy())``): on a
connection loss the client reconnects with capped exponential backoff
plus seeded jitter.  What survives the blip is exactly the idempotent
work: every ``submit`` carries a client-unique idempotency ``key`` the
server deduplicates, so an in-flight submit is replayed AT MOST ONCE
after reconnecting — the server re-attaches it to the live session or
answers from its parked result, never decoding twice.  Everything
non-idempotent fails fast and typed instead of hanging: open streams
(their server-side state died with the connection) raise
:class:`~repro.serve.types.ConnectionLost` from ``send_frames`` /
``finish`` / pending results, metrics polls fail likewise, and a
submit that burned its one replay fails with
:class:`~repro.serve.types.RetriesExhausted`.  Without a retry
policy the old fail-everything-on-loss behavior is unchanged.
"""

from __future__ import annotations

import asyncio
import itertools
import uuid
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.obs.telemetry import DecodeTelemetry
from repro.obs.trace import Trace, mint_trace_id
from repro.serve.transport import (
    PROTOCOL_VERSION,
    FrameError,
    encode_array,
    read_frame,
    write_frame,
)
from repro.serve.types import (
    AdmissionRejected,
    ConnectionLost,
    RetriesExhausted,
    RetryPolicy,
    ServeStatus,
)

__all__ = ["ServeClient", "WireResult", "WireStream", "WireTicket"]


@dataclass(frozen=True)
class WireResult:
    """A :class:`~repro.serve.types.ServeResult` rebuilt client-side."""

    utt_id: int
    status: ServeStatus
    words: tuple[str, ...] | None
    score: float | None
    worker: int | None
    latency_s: float
    wait_s: float | None
    decode_s: float | None
    audio_seconds: float | None
    frames: int | None
    frames_decoded: int
    detail: str
    #: Merged cross-process span tree (server + shard), rebuilt from
    #: the result event (the server traces every request).
    trace: Trace | None = None
    #: The lane's decode-depth counters for this utterance.
    telemetry: DecodeTelemetry | None = None

    @property
    def ok(self) -> bool:
        return self.status is ServeStatus.OK

    @classmethod
    def from_event(cls, event: dict) -> "WireResult":
        words = event.get("words")
        trace = event.get("trace")
        telemetry = event.get("telemetry")
        return cls(
            utt_id=event["utt_id"],
            status=ServeStatus(event["status"]),
            words=None if words is None else tuple(words),
            score=event.get("score"),
            worker=event.get("worker"),
            latency_s=event.get("latency_s", 0.0),
            wait_s=event.get("wait_s"),
            decode_s=event.get("decode_s"),
            audio_seconds=event.get("audio_seconds"),
            frames=event.get("frames"),
            frames_decoded=event.get("frames_decoded", 0),
            detail=event.get("detail", ""),
            trace=None if trace is None else Trace.from_dict(trace),
            telemetry=(
                None
                if telemetry is None
                else DecodeTelemetry.from_dict(telemetry)
            ),
        )


class WireProtocolError(RuntimeError):
    """The server replied with an ``error`` event or broke protocol."""


def _quiet(future: asyncio.Future) -> None:
    """Retrieve a future's exception so an unobserved rejection (or a
    teardown-time ConnectionError) doesn't log a warning at GC."""
    if not future.cancelled():
        future.exception()


class WireTicket:
    """One accepted submission; resolves exactly once."""

    def __init__(self, client: "ServeClient", req_id: int) -> None:
        self._client = client
        self.req_id = req_id
        #: The trace id this submit minted (None for streams, which
        #: trace from the finish).  The result's trace carries it back.
        self.trace_id: str | None = None
        self.future: asyncio.Future = client._loop.create_future()
        self.future.add_done_callback(_quiet)

    async def result(self) -> WireResult:
        outcome = await asyncio.shield(self.future)
        self._client._tickets.pop(self.req_id, None)
        return outcome

    async def cancel(self) -> None:
        """Request cancellation; the result event still arrives."""
        await self._client._send({"op": "cancel", "id": self.req_id})


class WireStream:
    """A push-style streaming session over the wire.

    Streams are NOT idempotent: the server-side session accumulates
    state per frame, so if the connection dies mid-stream there is
    nothing safe to replay.  Every method raises the connection's
    typed :class:`~repro.serve.types.ConnectionLost` once the client
    marks this stream dead — surfacing the failure instead of letting
    a ``result()`` hang on a session the server already discarded.
    """

    def __init__(self, client: "ServeClient", req_id: int) -> None:
        self._client = client
        self.req_id = req_id
        self.endpointed = False
        self._ticket: WireTicket | None = None

    def _check_alive(self) -> None:
        exc = self._client._dead_streams.get(self.req_id)
        if exc is not None:
            raise exc

    async def send_frames(self, frames: np.ndarray) -> bool:
        """Push one frame or a block; True once the endpointer fired
        (the session is then already finished server-side)."""
        if self._ticket is not None:
            raise RuntimeError("stream already finished")
        self._check_alive()
        meta, payload = encode_array(np.atleast_2d(np.asarray(frames)))
        header = {"op": "frames", "id": self.req_id, **meta}
        await self._client._send(header, payload)
        # send_frames stays pipelined (no per-block ack); the endpoint
        # and admission events arrive through the reader task.
        if self.req_id in self._client._endpointed:
            self._client._endpointed.discard(self.req_id)
            self.endpointed = True
            self._client._open_streams.discard(self.req_id)
            self._ticket = await self._client._claim_ticket(self.req_id)
        return self.endpointed

    async def finish(self) -> WireTicket:
        """Submit the streamed utterance; raises
        :class:`AdmissionRejected` if the door sheds it."""
        if self._ticket is None:
            self._check_alive()
            client = self._client
            admission = client._admissions.get(self.req_id)
            if self.req_id in client._endpointed or (
                admission is not None and admission.done()
            ):
                # The server already auto-finished at the endpoint
                # (accepted or rejected); a finish op would be stale.
                client._endpointed.discard(self.req_id)
                self.endpointed = True
            else:
                await client._send({"op": "finish", "id": self.req_id})
            client._open_streams.discard(self.req_id)
            self._ticket = await client._claim_ticket(self.req_id)
        return self._ticket

    async def result(self) -> WireResult:
        return await (await self.finish()).result()


class ServeClient:
    """One connection to a :class:`~repro.serve.transport.WireServer`.

    With a :class:`~repro.serve.types.RetryPolicy` the "one
    connection" is logical: the client transparently re-dials after a
    loss and replays idempotent submits exactly once (see the module
    docstring for what is and is not retried).  ``fault_plan`` arms
    the ``client_tx`` injection site — the connection is aborted right
    after scheduled outgoing frames, which is how chaos tests exercise
    the reconnect path deterministically.
    """

    def __init__(self) -> None:
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._reader_task: asyncio.Task | None = None
        self._ids = itertools.count()
        self._tickets: dict[int, WireTicket] = {}
        self._admissions: dict[int, asyncio.Future] = {}
        self._partials: dict[int, Callable] = {}
        self._endpointed: set[int] = set()
        self._metrics_waiters: dict[int, asyncio.Future] = {}
        self._open_streams: set[int] = set()  # req ids of unfinished streams
        self._dead_streams: dict[int, Exception] = {}
        self.hello: dict = {}
        # Resilience state.
        self._retry: RetryPolicy | None = None
        self._rng = None
        self._fault_plan = None
        self._host: str | None = None
        self._port: int | None = None
        self._client_name: str | None = None
        self._key_prefix = uuid.uuid4().hex  # idempotency-key namespace
        self._closed = False
        self._conn_exc: Exception | None = None  # terminal connection loss
        # Idempotent submits in flight: req id -> (header, payload),
        # replayable at most once after a reconnect.
        self._pending_submits: dict[int, tuple[dict, bytes]] = {}
        self._replayed: set[int] = set()
        self.retries = 0  # submits replayed after a reconnect
        self.reconnects = 0  # successful re-dials

    # ------------------------------------------------------------------
    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        client: str | None = None,
        *,
        retry: RetryPolicy | None = None,
        fault_plan=None,
    ) -> "ServeClient":
        self = cls()
        self._loop = asyncio.get_running_loop()
        self._retry = retry
        self._fault_plan = fault_plan
        self._host, self._port = host, port
        if retry is not None:
            self._rng = np.random.default_rng(retry.seed)
            # Reconnects must present a stable identity or the server
            # sees a parade of strangers: fair-share state and the
            # reconnect counter both key on the hello name.
            if client is None:
                client = f"client-{self._key_prefix[:12]}"
        self._client_name = client
        self._reader, self._writer = await asyncio.open_connection(host, port)
        self._reader_task = self._loop.create_task(self._read_loop())
        hello_future = self._loop.create_future()
        self._hello_future = hello_future
        await self._send({"op": "hello", "client": client})
        self.hello = await hello_future
        if self.hello.get("protocol") != PROTOCOL_VERSION:
            raise WireProtocolError(
                f"server speaks protocol {self.hello.get('protocol')}, "
                f"client speaks {PROTOCOL_VERSION}"
            )
        return self

    async def close(self) -> None:
        self._closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def __aenter__(self) -> "ServeClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # ------------------------------------------------------------------
    async def submit(
        self, features: np.ndarray, *, deadline_s: float | None = None
    ) -> WireTicket:
        """Submit one utterance; raises :class:`AdmissionRejected` on a
        typed shed, returns a :class:`WireTicket` once accepted.

        With a retry policy the submit is idempotent: its frame
        carries a server-deduplicated key and is buffered until its
        result arrives, so one connection loss is absorbed (replayed
        once after reconnect) instead of surfaced.
        """
        self._check_usable()
        req_id = next(self._ids)
        self._register(req_id)
        meta, payload = encode_array(
            np.asarray(features, dtype=np.float64)
        )
        header = {"op": "submit", "id": req_id, **meta}
        # The trace starts HERE: the client mints the id, the server
        # and its shard add their spans to it, and the result event
        # carries the merged tree back under the same id.
        header["trace_id"] = mint_trace_id()
        if deadline_s is not None:
            header["deadline_s"] = deadline_s
        if self._retry is not None:
            header["key"] = f"{self._key_prefix}:{req_id}"
            self._pending_submits[req_id] = (header, payload)
        try:
            await self._send(header, payload)
        except (ConnectionError, OSError):
            # The socket died under the send.  An idempotent submit is
            # already buffered — the reader task's reconnect will
            # replay it and the admission future below resolves as
            # usual.  Anything else fails typed.
            if req_id not in self._pending_submits:
                raise ConnectionLost("connection lost during submit") from None
        ticket = await self._claim_ticket(req_id)
        ticket.trace_id = header["trace_id"]
        return ticket

    async def decode(
        self, features: np.ndarray, *, deadline_s: float | None = None
    ) -> WireResult:
        """Submit and await in one call."""
        ticket = await self.submit(features, deadline_s=deadline_s)
        return await ticket.result()

    async def submit_audio(
        self, waveform: np.ndarray, *, deadline_s: float | None = None
    ) -> WireTicket:
        """Ship a raw waveform; the server featurizes it off-loop.

        Not retried on connection loss (no idempotency key yet):
        resolves or raises typed like any non-retryable op.
        """
        self._check_usable()
        req_id = next(self._ids)
        self._register(req_id)
        meta, payload = encode_array(np.asarray(waveform, dtype=np.float64))
        header = {"op": "submit_audio", "id": req_id, **meta}
        if deadline_s is not None:
            header["deadline_s"] = deadline_s
        await self._send(header, payload)
        return await self._claim_ticket(req_id)

    async def open_stream(
        self,
        *,
        deadline_s: float | None = None,
        on_partial: Callable | None = None,
        partial_interval: int = 20,
        endpoint_silence_frames: int = 30,
        endpointing: bool | None = None,
    ) -> WireStream:
        """Open a streaming session (frames pushed with
        :meth:`WireStream.send_frames`)."""
        self._check_usable()
        req_id = next(self._ids)
        self._register(req_id)
        self._open_streams.add(req_id)
        header = {
            "op": "open",
            "id": req_id,
            "partials": on_partial is not None,
            "partial_interval": partial_interval,
            "endpoint_silence_frames": endpoint_silence_frames,
        }
        if deadline_s is not None:
            header["deadline_s"] = deadline_s
        if endpointing is not None:
            header["endpointing"] = endpointing
        if on_partial is not None:
            self._partials[req_id] = on_partial
        await self._send(header)
        return WireStream(self, req_id)

    async def metrics(self) -> dict:
        """A :class:`~repro.serve.metrics.ServerMetrics` snapshot.

        Not retried on connection loss (a stale snapshot is worse
        than a typed failure): raises :class:`ConnectionLost`.
        """
        self._check_usable()
        req_id = next(self._ids)
        future = self._loop.create_future()
        self._metrics_waiters[req_id] = future
        await self._send({"op": "metrics", "id": req_id})
        return await future

    async def metrics_text(self) -> str:
        """The server's Prometheus-style text exposition document.

        Same non-retry semantics as :meth:`metrics`.
        """
        self._check_usable()
        req_id = next(self._ids)
        future = self._loop.create_future()
        self._metrics_waiters[req_id] = future
        await self._send({"op": "metrics_text", "id": req_id})
        return await future

    # ------------------------------------------------------------------
    def _check_usable(self) -> None:
        """Refuse new work once the connection is terminally gone."""
        if self._conn_exc is not None:
            raise self._conn_exc
        if self._closed:
            raise ConnectionLost("client is closed")

    async def _send(self, header: dict, payload: bytes = b"") -> None:
        if self._writer is None:
            raise WireProtocolError("client is not connected")
        write_frame(self._writer, header, payload)
        await self._writer.drain()
        if self._fault_plan is not None:
            for fault in self._fault_plan.fire("client_tx"):
                if fault.kind == "disconnect":
                    # The frame was flushed; the socket dies before any
                    # reply — the client cannot know whether the server
                    # acted on it.  Exactly the ambiguity idempotent
                    # retry exists to resolve.
                    self._writer.transport.abort()

    def _register(self, req_id: int) -> WireTicket:
        """Create the ticket + admission future for a request.

        Called BEFORE the request frame is sent (and defensively from
        event handlers), so the reader task always finds a future to
        resolve no matter how it interleaves with the sender.
        """
        ticket = self._tickets.get(req_id)
        if ticket is None:
            ticket = WireTicket(self, req_id)
            self._tickets[req_id] = ticket
        if req_id not in self._admissions:
            admission = self._loop.create_future()
            admission.add_done_callback(_quiet)
            self._admissions[req_id] = admission
        return ticket

    async def _claim_ticket(self, req_id: int) -> WireTicket:
        """Await the admission decision for ``req_id``: returns the
        ticket on ``accepted``, raises the rebuilt
        :class:`AdmissionRejected` on ``rejected``.

        The ticket is captured before awaiting — a result event racing
        in behind the acceptance pops it from ``_tickets``.
        """
        ticket = self._register(req_id)
        admission = self._admissions[req_id]
        try:
            await asyncio.shield(admission)
        finally:
            self._admissions.pop(req_id, None)
        return ticket

    def _fail_nonretryable(self, exc: Exception) -> None:
        """Fail every op the reconnect machinery will NOT carry over.

        Open streams are swept here too (they used to hang: only
        registered tickets were failed, but a stream that never called
        ``finish()`` still holds server state that died with the
        connection) — their tickets, admissions and any later
        ``send_frames``/``finish`` all surface the typed error.
        Idempotent pending submits are spared: their replay resolves
        them.
        """
        for req_id in list(self._open_streams):
            self._dead_streams[req_id] = exc
            self._partials.pop(req_id, None)
            self._endpointed.discard(req_id)
        self._open_streams.clear()
        for req_id, future in list(self._admissions.items()):
            if req_id not in self._pending_submits and not future.done():
                future.set_exception(exc)
        for req_id, ticket in list(self._tickets.items()):
            if req_id not in self._pending_submits and not ticket.future.done():
                ticket.future.set_exception(exc)
        for future in self._metrics_waiters.values():
            if not future.done():
                future.set_exception(exc)
        self._metrics_waiters.clear()
        if getattr(self, "_hello_future", None) and not self._hello_future.done():
            self._hello_future.set_exception(exc)

    def _fail_all(self, exc: Exception) -> None:
        """Terminal: no reconnect is coming; everything fails typed."""
        self._conn_exc = exc if not self._closed else None
        self._fail_nonretryable(exc)
        for req_id, future in list(self._admissions.items()):
            if not future.done():
                future.set_exception(exc)
        for ticket in self._tickets.values():
            if not ticket.future.done():
                ticket.future.set_exception(exc)
        self._pending_submits.clear()

    async def _read_loop(self) -> None:
        try:
            while True:
                try:
                    header, _payload = await read_frame(self._reader)
                except (
                    asyncio.IncompleteReadError,
                    ConnectionError,
                    OSError,
                    FrameError,
                ):
                    if self._closed or self._retry is None:
                        self._fail_all(
                            ConnectionLost("server closed the connection")
                        )
                        return
                    if await self._reconnect():
                        continue
                    self._fail_all(
                        RetriesExhausted(
                            f"gave up after {self._retry.max_reconnects} "
                            "reconnect attempts"
                        )
                    )
                    return
                self._on_event(header)
        except asyncio.CancelledError:
            self._fail_all(ConnectionLost("client closed"))
            raise

    async def _reconnect(self) -> bool:
        """Re-dial with capped, jittered backoff; replay what is safe.

        Runs INSIDE the reader task, so the fresh hello frame is read
        inline here (awaiting a future the reader resolves would
        deadlock the reader against itself).
        """
        # Non-idempotent work dies now, typed — not after N backoffs.
        self._fail_nonretryable(
            ConnectionLost("connection lost; idempotent submits retrying")
        )
        if self._writer is not None:
            self._writer.close()
        for attempt in range(self._retry.max_reconnects):
            if self._closed:
                return False
            await asyncio.sleep(self._retry.backoff_s(attempt, self._rng))
            try:
                reader, writer = await asyncio.open_connection(
                    self._host, self._port
                )
                write_frame(
                    writer, {"op": "hello", "client": self._client_name}
                )
                await writer.drain()
                hello, _ = await read_frame(reader)
            except (ConnectionError, OSError, asyncio.IncompleteReadError, FrameError):
                continue
            if hello.get("event") != "hello":
                continue
            self._reader, self._writer = reader, writer
            self.hello = hello
            self.reconnects += 1
            await self._replay_pending()
            return True
        return False

    async def _replay_pending(self) -> None:
        """Re-send idempotent submits exactly once each.

        A submit that already spent its replay on a previous
        reconnect fails with :class:`RetriesExhausted` — it may have
        executed server-side, so a second blind replay is the
        caller's call to make, not ours.
        """
        for req_id in sorted(self._pending_submits):
            header, payload = self._pending_submits[req_id]
            if req_id in self._replayed:
                exc = RetriesExhausted(
                    f"submit {req_id} already replayed once"
                )
                self._pending_submits.pop(req_id, None)
                admission = self._admissions.get(req_id)
                if admission is not None and not admission.done():
                    admission.set_exception(exc)
                ticket = self._tickets.get(req_id)
                if ticket is not None and not ticket.future.done():
                    ticket.future.set_exception(exc)
                continue
            self._replayed.add(req_id)
            self.retries += 1
            try:
                await self._send(header, payload)
            except (ConnectionError, OSError):
                return  # this connection died too; the loop re-enters

    def _on_event(self, event: dict) -> None:
        kind = event.get("event")
        req_id = event.get("id")
        if kind == "hello":
            if not self._hello_future.done():
                self._hello_future.set_result(event)
        elif kind == "accepted":
            self._register(req_id)
            admission = self._admissions[req_id]
            if not admission.done():
                admission.set_result(True)
        elif kind == "rejected":
            exc = AdmissionRejected(
                event.get("queue_depth", 0),
                event.get("max_queue", 0),
                reason=event.get("reason", "queue_full"),
            )
            self._register(req_id)
            admission = self._admissions[req_id]
            if not admission.done():
                admission.set_exception(exc)
            # A rejected request never resolves; retire its ticket so
            # teardown doesn't flag it as abandoned.
            ticket = self._tickets.pop(req_id, None)
            if ticket is not None and not ticket.future.done():
                ticket.future.cancel()
            self._partials.pop(req_id, None)
            self._pending_submits.pop(req_id, None)
            self._replayed.discard(req_id)
        elif kind == "result":
            # The ticket stays registered until its holder consumes it
            # (WireTicket.result) — popping here would strand a stream
            # whose endpoint result outraces the client's finish().
            ticket = self._tickets.get(req_id)
            if ticket is not None and not ticket.future.done():
                ticket.future.set_result(WireResult.from_event(event))
            self._partials.pop(req_id, None)
            self._pending_submits.pop(req_id, None)
            self._replayed.discard(req_id)
        elif kind == "partial":
            callback = self._partials.get(req_id)
            if callback is not None:
                callback(tuple(event.get("words", ())), event.get("frame"))
        elif kind == "endpoint":
            self._endpointed.add(req_id)
        elif kind == "metrics":
            future = self._metrics_waiters.pop(req_id, None)
            if future is not None and not future.done():
                future.set_result(event.get("metrics", {}))
        elif kind == "metrics_text":
            future = self._metrics_waiters.pop(req_id, None)
            if future is not None and not future.done():
                future.set_result(event.get("text", ""))
        elif kind == "error":
            exc = WireProtocolError(event.get("error", "unknown error"))
            self._pending_submits.pop(req_id, None)
            self._replayed.discard(req_id)
            admission = self._admissions.get(req_id)
            if admission is not None and not admission.done():
                admission.set_exception(exc)
            else:
                ticket = self._tickets.get(req_id)
                if ticket is not None and not ticket.future.done():
                    ticket.future.set_exception(exc)
