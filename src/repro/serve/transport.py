"""Wire transport: the front door over an actual socket.

:class:`WireServer` puts an asyncio-streams TCP listener in front of
an already-running :class:`~repro.serve.server.Server`, so clients in
other processes (or on other hosts) reach the same session API —
``submit``/``decode``, streamed frames with partial hypotheses, typed
rejections and deadline semantics — that in-process callers get.

Frame format (length-prefixed, not JSON-lines, so feature matrices
cross the wire as raw float64 bytes and decode stays BIT-identical):

    uint32 header_len | uint32 payload_len | header JSON | payload

both lengths big-endian.  The header is a UTF-8 JSON object; the
payload is an optional raw ndarray buffer described by the header's
``shape``/``dtype`` (C order).  Every client->server header carries an
``op`` and, for session-scoped ops, a client-chosen request ``id``;
every server->client header carries an ``event`` echoing that ``id``.

Client->server ops:

===============  ======================================================
``hello``        optional first frame: ``{"client": name}`` names the
                 fair-share principal (default: one per connection)
``submit``       features payload; optional ``deadline_s``
``submit_audio`` 1-D waveform payload, featurized server-side (off
                 the event loop); optional ``deadline_s``
``open``         open a streaming session (``partials``,
                 ``partial_interval``, ``endpoint_silence_frames``,
                 ``endpointing``, ``deadline_s``)
``frames``       feature-frame block payload for an open stream
``finish``       close the stream and submit it for decoding
``cancel``       cancel a submitted or streaming session
``metrics``      request a :class:`ServerMetrics` snapshot
``metrics_text`` request the Prometheus text exposition document
===============  ======================================================

A ``submit`` header may carry a client-minted ``trace_id``; the server
threads it through admission, dispatch and the shard's decode so the
``result`` event comes back with the merged cross-process span tree
(``trace``) plus the lane's decode-depth counters (``telemetry``).

Server->client events:

==============  =======================================================
``hello``       handshake reply (protocol version, scoring mode)
``accepted``    the submit/finish passed admission; a ``result`` event
                will follow for the same ``id``
``rejected``    typed load shed — mirrors :class:`AdmissionRejected`
                (``reason``, ``queue_depth``, ``max_queue``)
``partial``     streaming partial hypothesis (``words``, ``frame``)
``endpoint``    the stream's endpointer fired and auto-finished it
``result``      terminal status for ``id``: ``status`` is the
                :class:`ServeStatus` value plus ``words``/``score``
                (OK only), timing, ``detail``
``error``        malformed request (bad features, unknown op/id)
``metrics``      metrics snapshot as a JSON object
``metrics_text`` exposition document as one string
==============  =======================================================

Deadline semantics over the network are unchanged from in-process
serving: ``deadline_s`` is an absolute budget starting when the submit
passes admission ON THE SERVER (enqueue), so client-side network time
before that instant does not count against it, and a miss resolves to
a ``result`` event with ``status="timeout"`` — never a dropped
connection, never silence.

A client that disconnects mid-stream has its unresolved sessions
cancelled (freeing queue slots and lanes for everyone else) and its
open streams discarded; the server itself is unaffected.  The one
exception is an IDEMPOTENT submit: a ``submit`` op carrying a ``key``
survives its connection — the session keeps decoding, its result is
parked server-side (bounded LRU), and a retried submit with the same
key from any later connection re-attaches to the live session or is
answered from the parked result instead of decoding twice.  That is
what makes the client's retry-after-reconnect safe: at-most-once
decode, at-least-once delivery.

Robustness: a malformed, truncated or oversized frame arriving
mid-stream gets a typed ``error`` event (``fatal: true``) before the
connection is closed cleanly — the framing is length-prefixed, so
there is no way to resynchronize past garbage, but the failure is
diagnosable on the client instead of a bare reset, and a handler
crash can never leave an unhandled task exception.  A
:class:`~repro.serve.faults.FaultPlan` threads through both
directions of the socket (``wire_tx``/``wire_rx`` sites) so exactly
these failure paths are exercised deterministically in CI.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import itertools
import json
import math
import struct
import time
from collections import OrderedDict

import numpy as np

from repro.serve.server import Server, Session, StreamSession
from repro.serve.types import AdmissionRejected, ServeResult, ServerClosed

__all__ = [
    "FrameError",
    "PROTOCOL_VERSION",
    "WireServer",
    "decode_array",
    "encode_array",
    "frame_bytes",
    "read_frame",
    "result_payload",
    "write_frame",
]

PROTOCOL_VERSION = 1
_PREFIX = struct.Struct("!II")  # header_len, payload_len (big-endian)
MAX_FRAME_BYTES = 64 * 1024 * 1024  # refuse absurd frames before allocating


class FrameError(RuntimeError):
    """A malformed or oversized wire frame."""


def encode_array(arr: np.ndarray) -> tuple[dict, bytes]:
    """Describe ``arr`` for a frame header; payload is its raw bytes."""
    arr = np.ascontiguousarray(arr)
    meta = {"shape": list(arr.shape), "dtype": arr.dtype.str}
    return meta, arr.tobytes()


def decode_array(meta: dict, payload: bytes) -> np.ndarray:
    """Rebuild the ndarray a peer described; bit-exact round trip.

    ``meta`` comes off the wire: every description that cannot be
    honoured — missing or malformed fields, a non-numeric dtype, a
    negative dimension, a payload of the wrong size, anything
    ``frombuffer``/``reshape`` refuses — is a :class:`FrameError`.
    """
    try:
        shape = tuple(int(n) for n in meta["shape"])
        dtype = np.dtype(meta["dtype"])
        if dtype.kind not in "biuf":
            raise ValueError(f"dtype {dtype.str!r} is not numeric")
        if any(n < 0 for n in shape):
            raise ValueError(f"negative dimension in shape {list(shape)}")
        expected = math.prod(shape) * dtype.itemsize
        if expected != len(payload):
            raise ValueError(
                f"payload is {len(payload)} bytes, shape/dtype say {expected}"
            )
        return np.frombuffer(payload, dtype=dtype).reshape(shape).copy()
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FrameError(f"bad array description: {exc!r}") from None


async def read_frame(reader: asyncio.StreamReader) -> tuple[dict, bytes]:
    """Read one length-prefixed frame; raises ``IncompleteReadError``
    at EOF and :class:`FrameError` on garbage."""
    prefix = await reader.readexactly(_PREFIX.size)
    header_len, payload_len = _PREFIX.unpack(prefix)
    if header_len + payload_len > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {header_len + payload_len} bytes exceeds "
            f"MAX_FRAME_BYTES={MAX_FRAME_BYTES}"
        )
    header_bytes = await reader.readexactly(header_len)
    payload = await reader.readexactly(payload_len) if payload_len else b""
    try:
        header = json.loads(header_bytes)
    except ValueError as exc:
        raise FrameError(f"bad frame header: {exc}") from None
    if not isinstance(header, dict):
        raise FrameError(f"frame header must be an object, got {header!r}")
    return header, payload


def frame_bytes(header: dict, payload: bytes = b"") -> bytes:
    """Serialize one frame to its exact wire bytes."""
    header_bytes = json.dumps(header, separators=(",", ":")).encode()
    return _PREFIX.pack(len(header_bytes), len(payload)) + header_bytes + payload


def write_frame(
    writer: asyncio.StreamWriter, header: dict, payload: bytes = b""
) -> None:
    """Queue one frame on ``writer`` (caller drains)."""
    writer.write(frame_bytes(header, payload))


def result_payload(req_id, result: ServeResult) -> dict:
    """The ``result`` event for one resolved session.

    ``score`` survives JSON bit-exactly: Python serializes floats via
    ``repr``, which round-trips every finite float64.
    """
    header = {
        "event": "result",
        "id": req_id,
        "utt_id": result.utt_id,
        "status": result.status.value,
        "worker": result.worker,
        "latency_s": result.latency_s,
        "frames_decoded": result.frames_decoded,
        "detail": result.detail,
    }
    if result.result is not None:
        rec = result.result
        header["words"] = list(rec.words)
        header["score"] = rec.score
        header["frames"] = rec.frames
        header["audio_seconds"] = rec.audio_seconds
        if rec.timing is not None:
            header["wait_s"] = rec.timing.wait_s
            header["decode_s"] = rec.timing.decode_s
        if rec.telemetry is not None:
            header["telemetry"] = rec.telemetry.to_dict()
    if result.trace is not None:
        header["trace"] = result.trace.to_dict()
    return header


def _rejected(req_id, err: AdmissionRejected) -> dict:
    """The ``rejected`` event mirroring one :class:`AdmissionRejected`."""
    return {
        "event": "rejected",
        "id": req_id,
        "reason": err.reason,
        "queue_depth": err.queue_depth,
        "max_queue": err.max_queue,
    }


def _error(req_id, message: str) -> dict:
    """The per-request ``error`` event (connection stays open)."""
    return {"event": "error", "id": req_id, "error": message}


class _Connection:
    """One client connection: reader loop + serialized writer queue.

    All writes funnel through ``self._outq`` and a single writer task,
    so result-waiter tasks, partial callbacks (invoked synchronously
    inside ``send_frames``) and the reader loop never interleave
    partial frames on the socket.
    """

    def __init__(self, wire: "WireServer", conn_id: int, reader, writer):
        self.wire = wire
        self.client = f"conn-{conn_id}"
        self.reader = reader
        self.writer = writer
        self._outq: asyncio.Queue = asyncio.Queue()
        self._sessions: dict = {}  # req id -> Session (submitted)
        self._streams: dict = {}  # req id -> StreamSession (open)
        self._endpointed: set = set()  # streams closed by their endpointer
        self._keyed_reqs: set = set()  # req ids of idempotent submits
        self._waiters: set[asyncio.Task] = set()
        self._writer_task: asyncio.Task | None = None

    # -- writing -------------------------------------------------------
    def send(self, header: dict, payload: bytes = b"") -> None:
        self._outq.put_nowait((header, payload))

    async def _write_loop(self) -> None:
        while True:
            header, payload = await self._outq.get()
            plan = self.wire.fault_plan
            if plan is not None:
                aborted = False
                for fault in plan.fire("wire_tx"):
                    if fault.kind == "delay":
                        await asyncio.sleep(fault.delay_s)
                    elif fault.kind == "truncate":
                        # Half a frame, then a hard cut: the client's
                        # reader sees an incomplete read, never garbage
                        # accepted as a frame.
                        raw = frame_bytes(header, payload)
                        self.writer.write(raw[: max(1, len(raw) // 2)])
                        with contextlib.suppress(ConnectionError, OSError):
                            await self.writer.drain()
                        self.writer.transport.abort()
                        aborted = True
                    elif fault.kind == "disconnect":
                        self.writer.transport.abort()
                        aborted = True
                if aborted:
                    return
            write_frame(self.writer, header, payload)
            await self.writer.drain()

    # -- session plumbing ----------------------------------------------
    def _watch(self, req_id, session: Session, keyed: bool = False) -> None:
        self._sessions[req_id] = session
        if keyed:
            self._keyed_reqs.add(req_id)

        async def wait() -> None:
            # Shield the session future: cancelling this watcher (on
            # connection close) must not propagate into the session —
            # a keyed session outlives its connection by design, and
            # non-keyed work is cancelled explicitly via
            # ``session.cancel()`` so it resolves typed.
            result = await asyncio.shield(session.result())
            self._sessions.pop(req_id, None)
            self._keyed_reqs.discard(req_id)
            self.send(result_payload(req_id, result))

        task = asyncio.get_running_loop().create_task(wait())
        self._waiters.add(task)
        task.add_done_callback(self._waiters.discard)

    def _submit_outcome(self, req_id, submit, keyed: bool = False) -> None:
        """Run an admission attempt; emit accepted/rejected/error."""
        try:
            session = submit()
        except AdmissionRejected as err:
            self.send(_rejected(req_id, err))
        except (ValueError, TypeError, ServerClosed) as err:
            self.send(_error(req_id, str(err)))
        else:
            self.send({"event": "accepted", "id": req_id})
            self._watch(req_id, session, keyed=keyed)

    # -- op handlers ---------------------------------------------------
    async def handle(self, header: dict, payload: bytes) -> None:
        op = header.get("op")
        req_id = header.get("id")
        server = self.wire.server
        if isinstance(req_id, (list, dict)) or isinstance(
            header.get("key"), (list, dict)
        ):
            # Both index this connection's (and the wire server's)
            # maps; an unhashable one is this request's mistake alone.
            self.send(_error(req_id, "id and key must be JSON scalars"))
        elif op == "hello":
            if header.get("client"):
                self.client = str(header["client"])
                # A name we have greeted before is a client coming
                # back after a connection loss — the reconnect counter
                # the resilience metrics surface.
                if self.client in self.wire._seen_clients:
                    server._reconnects += 1
                else:
                    self.wire._seen_clients.add(self.client)
            self.send(
                {
                    "event": "hello",
                    "protocol": PROTOCOL_VERSION,
                    "scoring_mode": server.recognizer.mode,
                    "network": server.recognizer.network_kind,
                    "max_queue": server.max_queue,
                }
            )
        elif op == "submit":
            received_at = time.monotonic()  # wire.receive span start
            key = header.get("key")
            if key is not None:
                # Idempotent submit: a key we already know is a retry
                # after a connection loss, never a second decode.
                parked = self.wire._key_results.get(key)
                if parked is not None:
                    self.send({"event": "accepted", "id": req_id})
                    self.send(result_payload(req_id, parked))
                    return
                live = self.wire._keyed.get(key)
                if live is not None:
                    self.send({"event": "accepted", "id": req_id})
                    self._watch(req_id, live, keyed=True)
                    return
            try:
                features = decode_array(header, payload)
            except FrameError as err:
                self.send(_error(req_id, str(err)))
                return

            def submit() -> Session:
                session = server.submit(
                    features,
                    deadline_s=header.get("deadline_s"),
                    client=self.client,
                    trace_id=header.get("trace_id"),
                    received_at=received_at,
                )
                if key is not None:
                    self.wire._register_keyed(key, session)
                return session

            self._submit_outcome(req_id, submit, keyed=key is not None)
        elif op == "submit_audio":
            # Featurization runs in an executor (Server.featurize);
            # admission happens after it, on the loop.
            try:
                features = await server.featurize(decode_array(header, payload))
            except (FrameError, ValueError, TypeError) as err:
                self.send(_error(req_id, str(err)))
                return
            self._submit_outcome(
                req_id,
                lambda: server.submit(
                    features,
                    deadline_s=header.get("deadline_s"),
                    client=self.client,
                ),
            )
        elif op == "open":
            wants_partials = bool(header.get("partials"))
            on_partial = None
            if wants_partials:
                def on_partial(words, frame, req_id=req_id):
                    self.send(
                        {
                            "event": "partial",
                            "id": req_id,
                            "words": list(words),
                            "frame": frame,
                        }
                    )
            # Parameters the streaming decoder rejects are the client's
            # mistake on THIS request, like bad features on a submit.
            try:
                stream = server.open_session(
                    deadline_s=header.get("deadline_s"),
                    on_partial=on_partial,
                    partial_interval=int(header.get("partial_interval", 20)),
                    endpoint_silence_frames=int(
                        header.get("endpoint_silence_frames", 30)
                    ),
                    endpointing=header.get("endpointing"),
                    auto_finish=True,
                    client=self.client,
                )
            except (ValueError, TypeError, ServerClosed) as err:
                self.send(_error(req_id, str(err)))
                return
            self._streams[req_id] = stream
        elif op == "frames":
            stream = self._streams.get(req_id)
            if stream is None:
                # Blocks pipelined behind the endpoint cross the wire
                # after the stream auto-finished; the endpoint event
                # (already sent) tells the client where the cut was,
                # so these belong to its next utterance — ignored, not
                # an error.
                if req_id not in self._endpointed:
                    self.send(_error(req_id, "no open stream"))
                return
            try:
                block = decode_array(header, payload)
            except FrameError as err:
                self.send(_error(req_id, str(err)))
                return
            try:
                endpointed = stream.send_frames(block)
            except AdmissionRejected as err:
                # The endpointer fired and auto-finish hit a full door.
                self._streams.pop(req_id, None)
                self._endpointed.add(req_id)
                self.send(_rejected(req_id, err))
                return
            except (ValueError, RuntimeError) as err:
                self.send(_error(req_id, str(err)))
                return
            if endpointed:
                self._streams.pop(req_id, None)
                self._endpointed.add(req_id)
                leftover = stream.leftover_frames
                self.send(
                    {
                        "event": "endpoint",
                        "id": req_id,
                        "leftover_frames": (
                            0 if leftover is None else int(leftover.shape[0])
                        ),
                    }
                )
                self.send({"event": "accepted", "id": req_id})
                self._watch(req_id, stream.finish())
        elif op == "finish":
            stream = self._streams.pop(req_id, None)
            if stream is None:
                # A finish can cross an endpoint auto-finish on the
                # wire; if the session is already submitted (or even
                # already resolved) the redundant finish is benign.
                if req_id not in self._sessions and req_id not in self._endpointed:
                    self.send(_error(req_id, "no open stream"))
                return
            self._submit_outcome(req_id, stream.finish)
        elif op == "cancel":
            session = self._sessions.get(req_id)
            if session is not None:
                session.cancel()
            else:
                self._streams.pop(req_id, None)
        elif op == "metrics":
            metrics = self.wire.server.metrics()
            snapshot = dataclasses.asdict(metrics)
            snapshot["lane_utilization"] = metrics.lane_utilization
            self.send({"event": "metrics", "id": req_id, "metrics": snapshot})
        elif op == "metrics_text":
            self.send(
                {
                    "event": "metrics_text",
                    "id": req_id,
                    "text": server.metrics_text(),
                }
            )
        else:
            self.send(_error(req_id, f"unknown op {op!r}"))

    # -- lifecycle -----------------------------------------------------
    async def _send_fatal(self, message: str) -> None:
        """Best-effort typed goodbye, written DIRECTLY (not queued):
        the writer task is about to be cancelled, so the queue offers
        no delivery guarantee for a frame we close right after."""
        with contextlib.suppress(ConnectionError, OSError, RuntimeError):
            write_frame(
                self.writer,
                {"event": "error", "id": None, "error": message, "fatal": True},
            )
            await self.writer.drain()

    async def run(self) -> None:
        self._writer_task = asyncio.get_running_loop().create_task(
            self._write_loop()
        )
        try:
            while True:
                try:
                    header, payload = await read_frame(self.reader)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break  # peer went away; nothing to tell it
                except FrameError as err:
                    # Malformed/oversized frame mid-stream: the length
                    # prefix is the only sync mechanism, so there is no
                    # recovering — but the client gets a typed error,
                    # not a bare reset.
                    await self._send_fatal(f"protocol error: {err}")
                    break
                plan = self.wire.fault_plan
                if plan is not None:
                    dropped = False
                    for fault in plan.fire("wire_rx"):
                        if fault.kind == "disconnect":
                            dropped = True
                    if dropped:
                        # The request was read but never handled — the
                        # lost-submit case idempotent retry must cover.
                        self.writer.transport.abort()
                        break
                try:
                    await self.handle(header, payload)
                except asyncio.CancelledError:
                    raise
                except Exception as exc:  # noqa: BLE001 - boundary: any
                    # handler bug becomes a typed close, never an
                    # unhandled task exception that strands the client.
                    await self._send_fatal(f"internal error: {exc!r}")
                    break
        finally:
            await self.close()

    async def close(self) -> None:
        # A disconnecting client's unresolved work is cancelled so it
        # stops holding queue slots and lanes; open streams (never
        # submitted) are simply discarded.  Keyed (idempotent) submits
        # are the exception: they survive the connection so the client
        # can reconnect and re-attach — the WireServer-level watcher
        # parks their results.
        for task in list(self._waiters):
            task.cancel()
        for req_id, session in list(self._sessions.items()):
            if req_id not in self._keyed_reqs:
                session.cancel()
        self._sessions.clear()
        self._keyed_reqs.clear()
        self._streams.clear()
        if self._writer_task is not None:
            self._writer_task.cancel()
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class WireServer:
    """TCP front of a running :class:`~repro.serve.server.Server`.

    ``port=0`` (the default) binds an ephemeral port; read the bound
    address back from :attr:`host` / :attr:`port` after :meth:`start`.
    Each connection is one fair-share client unless it names itself in
    a ``hello`` op.

    ``fault_plan`` (default: the server's own) arms the ``wire_tx`` /
    ``wire_rx`` injection sites.  Keyed-submit state (live sessions,
    parked results) lives here, not on connections, because the whole
    point is surviving the connection.
    """

    #: Parked keyed results kept for late retries (bounded LRU).
    KEY_RESULT_CAP = 1024

    def __init__(
        self,
        server: Server,
        host: str = "127.0.0.1",
        port: int = 0,
        fault_plan=None,
    ) -> None:
        self.server = server
        self.host = host
        self.port = port
        self.fault_plan = (
            fault_plan if fault_plan is not None else server.fault_plan
        )
        self._listener: asyncio.AbstractServer | None = None
        self._conn_ids = itertools.count()
        self._connections: set[_Connection] = set()
        self._seen_clients: set[str] = set()
        self._keyed: dict[str, Session] = {}  # key -> live session
        self._key_results: OrderedDict[str, ServeResult] = OrderedDict()
        self._keyed_tasks: set[asyncio.Task] = set()

    def _register_keyed(self, key: str, session: Session) -> None:
        """Track an idempotent submit independently of any connection.

        The parking task outlives the submitting connection on
        purpose: it moves the session's result into the LRU the moment
        it resolves, so a client that lost its socket mid-decode can
        reconnect, retry the same key, and get the SAME result without
        a second decode.
        """
        self._keyed[key] = session

        async def park() -> None:
            result = await session.result()
            # No await between these lines: pop+park is atomic on the
            # loop, so a racing retry sees the key in exactly one map.
            self._keyed.pop(key, None)
            self._key_results[key] = result
            while len(self._key_results) > self.KEY_RESULT_CAP:
                self._key_results.popitem(last=False)

        task = asyncio.get_running_loop().create_task(park())
        self._keyed_tasks.add(task)
        task.add_done_callback(self._keyed_tasks.discard)

    async def start(self) -> "WireServer":
        if self._listener is not None:
            raise RuntimeError("wire server already started")
        self._listener = await asyncio.start_server(
            self._accept, self.host, self.port
        )
        sock = self._listener.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self

    async def _accept(self, reader, writer) -> None:
        conn = _Connection(self, next(self._conn_ids), reader, writer)
        self._connections.add(conn)
        try:
            await conn.run()
        finally:
            self._connections.discard(conn)

    async def stop(self) -> None:
        if self._listener is None:
            return
        self._listener.close()
        await self._listener.wait_closed()
        self._listener = None
        for conn in list(self._connections):
            await conn.close()
        self._connections.clear()
        for task in list(self._keyed_tasks):
            task.cancel()
        self._keyed.clear()
        self._key_results.clear()

    async def __aenter__(self) -> "WireServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()
