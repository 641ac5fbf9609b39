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
    """One request, client-side; its result resolves exactly once.

    Everything the client knows about a request lives here, and the
    client's one ``req_id -> ticket`` map holds it only while an event
    for it can still arrive: a result, rejection, error or connection
    loss retires the whole request in one step.
    """

    def __init__(
        self, client: "ServeClient", req_id: int, on_partial: Callable | None
    ) -> None:
        self._client = client
        self.req_id = req_id
        #: The trace id this submit minted (None for streams, which
        #: trace from the finish).  The result's trace carries it back.
        self.trace_id: str | None = None
        self.future: asyncio.Future = client._loop.create_future()
        self.future.add_done_callback(_quiet)
        #: The admission decision: True once ``accepted``, the rebuilt
        #: :class:`AdmissionRejected` (or whatever failed the request
        #: first) as its exception.
        self.admission: asyncio.Future = client._loop.create_future()
        self.admission.add_done_callback(_quiet)
        self.on_partial = on_partial
        self.endpointed = False  # the server's endpointer closed the stream
        #: An idempotent submit's ``(header, payload)``, replayable at
        #: most once after a reconnect; None for everything else.
        self.pending: tuple[dict, bytes] | None = None
        self.replayed = False
        #: What failed the request: the connection loss it did not
        #: survive, or the server's ``error`` event.
        self.failed: Exception | None = None

    async def result(self) -> WireResult:
        return await asyncio.shield(self.future)

    async def cancel(self) -> None:
        """Request cancellation; the result event still arrives."""
        await self._client._send({"op": "cancel", "id": self.req_id})


class WireStream:
    """A push-style streaming session over the wire.

    Streams are NOT idempotent: the server-side session accumulates
    state per frame, so if the connection dies mid-stream there is
    nothing safe to replay.  Every method raises the connection's
    typed :class:`~repro.serve.types.ConnectionLost` once the loss has
    failed this stream's ticket (it reads :attr:`WireTicket.failed`)
    — surfacing the failure instead of letting a ``result()`` hang on
    a session the server already discarded.
    """

    def __init__(self, client: "ServeClient", ticket: WireTicket) -> None:
        self._client = client
        self._ticket = ticket
        self.req_id = ticket.req_id
        self.endpointed = False
        self._finished = False

    def _check_alive(self) -> None:
        if self._ticket.failed is not None:
            raise self._ticket.failed

    async def send_frames(self, frames: np.ndarray) -> bool:
        """Push one frame or a block; True once the endpointer fired
        (the session is then already finished server-side)."""
        if self._finished:
            raise RuntimeError("stream already finished")
        self._check_alive()
        meta, payload = encode_array(np.atleast_2d(np.asarray(frames)))
        header = {"op": "frames", "id": self.req_id, **meta}
        await self._client._send(header, payload)
        # send_frames stays pipelined (no per-block ack); the endpoint
        # and admission events arrive through the reader task.
        if self._ticket.endpointed:
            self.endpointed = self._finished = True
            await asyncio.shield(self._ticket.admission)
        return self.endpointed

    async def finish(self) -> WireTicket:
        """Submit the streamed utterance; raises
        :class:`AdmissionRejected` if the door sheds it."""
        ticket = self._ticket
        if not self._finished:
            self._check_alive()
            if ticket.endpointed or ticket.admission.done():
                # The server already auto-finished at the endpoint
                # (accepted or rejected); a finish op would be stale.
                self.endpointed = True
            else:
                await self._client._send({"op": "finish", "id": self.req_id})
            self._finished = True
        await asyncio.shield(ticket.admission)
        return ticket

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
        #: Requests an event can still arrive for, in request order.
        self._tickets: dict[int, WireTicket] = {}
        self._metrics_waiters: dict[int, asyncio.Future] = {}
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
        self._hello_future = self._loop.create_future()
        self._reader_task = self._loop.create_task(self._read_loop())
        await self._send({"op": "hello", "client": client})
        self.hello = await self._hello_future
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
        ticket = self._register()
        meta, payload = encode_array(
            np.asarray(features, dtype=np.float64)
        )
        header = {"op": "submit", "id": ticket.req_id, **meta}
        # The trace starts HERE: the client mints the id, the server
        # and its shard add their spans to it, and the result event
        # carries the merged tree back under the same id.
        header["trace_id"] = ticket.trace_id = mint_trace_id()
        if deadline_s is not None:
            header["deadline_s"] = deadline_s
        if self._retry is not None:
            header["key"] = f"{self._key_prefix}:{ticket.req_id}"
            ticket.pending = (header, payload)
        try:
            await self._send(header, payload)
        except (ConnectionError, OSError):
            # The socket died under the send.  An idempotent submit is
            # already buffered — the reader task's reconnect will
            # replay it and the admission future below resolves as
            # usual.  Anything else fails typed.
            if ticket.pending is None:
                self._retire(ticket)
                raise ConnectionLost("connection lost during submit") from None
        await asyncio.shield(ticket.admission)
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
        ticket = self._register()
        meta, payload = encode_array(np.asarray(waveform, dtype=np.float64))
        header = {"op": "submit_audio", "id": ticket.req_id, **meta}
        if deadline_s is not None:
            header["deadline_s"] = deadline_s
        await self._send(header, payload)
        await asyncio.shield(ticket.admission)
        return ticket

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
        ticket = self._register(on_partial)
        header = {
            "op": "open",
            "id": ticket.req_id,
            "partials": on_partial is not None,
            "partial_interval": partial_interval,
            "endpoint_silence_frames": endpoint_silence_frames,
        }
        if deadline_s is not None:
            header["deadline_s"] = deadline_s
        if endpointing is not None:
            header["endpointing"] = endpointing
        await self._send(header)
        return WireStream(self, ticket)

    async def metrics(self) -> dict:
        """A :class:`~repro.serve.metrics.ServerMetrics` snapshot.

        Not retried on connection loss (a stale snapshot is worse
        than a typed failure): raises :class:`ConnectionLost`.
        """
        return await self._poll("metrics")

    async def metrics_text(self) -> str:
        """The server's Prometheus-style text exposition document.

        Same non-retry semantics as :meth:`metrics`.
        """
        return await self._poll("metrics_text")

    async def _poll(self, op: str):
        self._check_usable()
        req_id = next(self._ids)
        future = self._metrics_waiters[req_id] = self._loop.create_future()
        await self._send({"op": op, "id": req_id})
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

    def _register(self, on_partial: Callable | None = None) -> WireTicket:
        """Mint the next request's ticket (refused once the connection
        is terminally gone).

        Called BEFORE the request frame is sent, so the reader task
        always finds the ticket no matter how it interleaves with the
        sender.
        """
        self._check_usable()
        ticket = WireTicket(self, next(self._ids), on_partial)
        self._tickets[ticket.req_id] = ticket
        return ticket

    def _retire(self, ticket: WireTicket, exc: Exception | None = None) -> None:
        """Forget a request no further event can concern; with ``exc``,
        resolve whatever of it is still open to that failure."""
        self._tickets.pop(ticket.req_id, None)
        ticket.pending = ticket.on_partial = None
        if exc is not None:
            ticket.failed = exc
            for future in (ticket.admission, ticket.future):
                if not future.done():
                    future.set_exception(exc)

    def _fail_nonretryable(self, exc: Exception) -> None:
        """Fail every op the reconnect machinery will NOT carry over.

        That includes open streams that never called ``finish()`` —
        their server-side state died with the connection, so their
        tickets and any later ``send_frames``/``finish`` surface the
        typed error instead of hanging.  Idempotent pending submits
        are spared: their replay resolves them.
        """
        for ticket in list(self._tickets.values()):
            if ticket.pending is None:
                self._retire(ticket, exc)
        for future in self._metrics_waiters.values():
            if not future.done():
                future.set_exception(exc)
        self._metrics_waiters.clear()
        if not self._hello_future.done():
            self._hello_future.set_exception(exc)

    def _fail_all(self, exc: Exception) -> None:
        """Terminal: no reconnect is coming; everything fails typed."""
        self._conn_exc = exc if not self._closed else None
        self._fail_nonretryable(exc)
        for ticket in list(self._tickets.values()):
            self._retire(ticket, exc)

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
        for ticket in list(self._tickets.values()):
            if ticket.pending is None:
                continue
            if ticket.replayed:
                self._retire(
                    ticket,
                    RetriesExhausted(
                        f"submit {ticket.req_id} already replayed once"
                    ),
                )
                continue
            ticket.replayed = True
            self.retries += 1
            try:
                await self._send(*ticket.pending)
            except (ConnectionError, OSError):
                return  # this connection died too; the loop re-enters

    def _on_event(self, event: dict) -> None:
        kind = event.get("event")
        req_id = event.get("id")
        if kind == "hello":
            if not self._hello_future.done():
                self._hello_future.set_result(event)
            return
        if kind in ("metrics", "metrics_text"):
            future = self._metrics_waiters.pop(req_id, None)
            if future is not None and not future.done():
                future.set_result(
                    event.get("metrics", {})
                    if kind == "metrics"
                    else event.get("text", "")
                )
            return
        ticket = self._tickets.get(req_id)
        if ticket is None:
            return  # retired: a late event has no audience
        if kind == "accepted":
            if not ticket.admission.done():
                ticket.admission.set_result(True)
        elif kind == "rejected":
            self._retire(ticket)
            if not ticket.admission.done():
                ticket.admission.set_exception(
                    AdmissionRejected(
                        event.get("queue_depth", 0),
                        event.get("max_queue", 0),
                        reason=event.get("reason", "queue_full"),
                    )
                )
            # A rejected request never resolves.
            if not ticket.future.done():
                ticket.future.cancel()
        elif kind == "result":
            self._retire(ticket)
            if not ticket.future.done():
                ticket.future.set_result(WireResult.from_event(event))
        elif kind == "partial":
            if ticket.on_partial is not None:
                ticket.on_partial(
                    tuple(event.get("words", ())), event.get("frame")
                )
        elif kind == "endpoint":
            ticket.endpointed = True
        elif kind == "error":
            self._retire(
                ticket, WireProtocolError(event.get("error", "unknown error"))
            )
