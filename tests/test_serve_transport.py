"""The wire transport (`repro.serve.transport` + `repro.serve.client`).

Covers, per the PR's acceptance criteria:

* the frame codec (length-prefixed JSON header + raw ndarray payload)
  round-trips arrays BIT-exactly and rejects malformed frames;
* loopback client/server: decode parity with sequential baselines,
  pipelined submits, typed `AdmissionRejected` (queue_full and
  client_quota across two connections), streaming sessions with
  partials and endpoint auto-finish over the socket, the metrics op;
* a client disconnecting mid-stream has its unresolved work cancelled
  without disturbing other connections;
* THE cross-process integration: a child process connects to a
  sharded (forked) server through a real socket, decodes bit-identical
  to sequential, and over-capacity submits come back as typed
  rejections — never silence;
* a burst larger than lanes + backlog + queue through one socket is
  fully partitioned into typed rejections and typed results, and the
  server's counters agree with the client's;
* non-finite features, and an ``open`` whose parameters the streaming
  decoder rejects, get a typed error on a connection that lives on.

No pytest-asyncio dependency: async tests run under ``asyncio.run``.
"""

import asyncio
import json
import os
import struct
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decoder import Recognizer
from repro.frontend.features import Frontend
from repro.serve import (
    AdmissionRejected,
    ServeClient,
    Server,
    ServeStatus,
    WireServer,
)
from repro.serve.client import WireProtocolError
from repro.serve.transport import (
    FrameError,
    decode_array,
    encode_array,
    frame_bytes,
    read_frame,
    write_frame,
)


#: Anything ``json.loads`` can hand the codec (NaN-free, so frames
#: compare equal after a round trip).
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)


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


class _BufferWriter:
    """Just enough of a StreamWriter for write_frame."""

    def __init__(self):
        self.buf = b""

    def write(self, data: bytes) -> None:
        self.buf += data


# ----------------------------------------------------------------------
# Frame codec: bit-exact arrays, malformed-frame rejection
# ----------------------------------------------------------------------
class TestFrameCodec:
    @pytest.mark.parametrize(
        "arr",
        [
            np.linspace(-1e9, 1e9, 39, dtype=np.float64).reshape(3, 13),
            np.arange(7, dtype=np.int16),
            np.array([[np.pi]], dtype=np.float32),
            np.zeros((0, 13)),
        ],
    )
    def test_array_roundtrip_is_bit_exact(self, arr):
        meta, payload = encode_array(arr)
        back = decode_array(meta, payload)
        assert back.dtype == arr.dtype and back.shape == arr.shape
        np.testing.assert_array_equal(
            back.view(np.uint8), arr.view(np.uint8)
        )

    def test_noncontiguous_array_roundtrip(self):
        arr = np.arange(24, dtype=np.float64).reshape(4, 6)[:, ::2]
        meta, payload = encode_array(arr)
        np.testing.assert_array_equal(decode_array(meta, payload), arr)

    def test_bad_array_descriptions_raise_frame_error(self):
        meta, payload = encode_array(np.zeros((2, 3)))
        with pytest.raises(FrameError):
            decode_array({"shape": [2, 3]}, payload)  # no dtype
        with pytest.raises(FrameError):
            decode_array({"shape": [2, 4], "dtype": "<f8"}, payload)
        with pytest.raises(FrameError):
            decode_array({"shape": [2, 3], "dtype": "nope"}, payload)
        assert decode_array(meta, payload).shape == (2, 3)

    def test_frame_roundtrip_and_garbage_rejection(self):
        async def scenario():
            meta, payload = encode_array(np.arange(6, dtype=np.float64))
            header = {"op": "submit", "id": 3, **meta}
            writer = _BufferWriter()
            write_frame(writer, header, payload)

            reader = asyncio.StreamReader()
            reader.feed_data(writer.buf)
            got_header, got_payload = await read_frame(reader)
            assert got_header == json.loads(json.dumps(header))
            assert got_payload == payload

            # Garbage JSON in the header is a FrameError, not a crash.
            bad = asyncio.StreamReader()
            junk = b"\x00\x00\x00\x04\x00\x00\x00\x00...."[:8] + b"@#$%"
            bad.feed_data(junk)
            with pytest.raises(FrameError):
                await read_frame(bad)

            # An absurd announced size is refused before allocation.
            huge = asyncio.StreamReader()
            huge.feed_data(b"\x7f\xff\xff\xff\x7f\xff\xff\xff")
            with pytest.raises(FrameError):
                await read_frame(huge)

        asyncio.run(scenario())

    @given(
        header=st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=4),
        payload=st.binary(max_size=48),
    )
    @settings(max_examples=100, deadline=None)
    def test_every_strict_prefix_of_a_frame_is_an_incomplete_read(
        self, header, payload
    ):
        """Truncate at every byte: a peer that dies mid-frame is always
        an ordinary EOF, never garbage accepted as a shorter frame."""
        raw = frame_bytes(header, payload)

        async def read(data):
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            return await read_frame(reader)

        async def scenario():
            for cut in range(len(raw)):
                with pytest.raises(asyncio.IncompleteReadError):
                    await read(raw[:cut])
            assert await read(raw) == (header, payload)

        asyncio.run(scenario())

    @given(
        meta=st.one_of(
            JSON_VALUES,
            st.fixed_dictionaries(
                {
                    "shape": st.one_of(
                        JSON_VALUES, st.lists(st.integers(-3, 4), max_size=4)
                    ),
                    "dtype": st.one_of(
                        JSON_VALUES,
                        st.sampled_from(
                            ["<f8", ">f4", "<i2", "?", "u1", "O", "V8", "U4",
                             "S3", "c16", "m8[s]", "f8,f8", "(2,)f8"]
                        ),
                    ),
                }
            ),
        ),
        payload=st.binary(max_size=96),
    )
    @settings(max_examples=400, deadline=None)
    def test_decode_array_returns_a_numeric_array_or_frame_error(
        self, meta, payload
    ):
        """Whatever a peer claims about its payload, the codec either
        honours it with a numeric ndarray or raises FrameError —
        nothing else escapes into the connection handler."""
        try:
            arr = decode_array(meta, payload)
        except FrameError:
            return
        assert isinstance(arr, np.ndarray) and arr.dtype.kind in "biuf"
        assert arr.nbytes == len(payload)


# ----------------------------------------------------------------------
# Loopback: one process, real sockets
# ----------------------------------------------------------------------
class TestWireLoopback:
    def test_decode_parity_and_pipelining(self, recognizer, workload):
        features, baselines = workload

        async def scenario():
            async with Server(
                recognizer, num_workers=1, max_lanes=4, max_queue=64
            ) as server:
                async with WireServer(server) as wire:
                    async with await ServeClient.connect(
                        wire.host, wire.port
                    ) as client:
                        assert client.hello["protocol"] == 1
                        assert client.hello["network"] == "flat"
                        tickets = [
                            await client.submit(f) for f in features[:8]
                        ]
                        results = [await t.result() for t in tickets]
                        for result, base in zip(results, baselines):
                            assert result.ok
                            assert result.words == base.words
                            assert result.score == base.score  # bit-exact
                            assert result.latency_s > 0.0

        asyncio.run(scenario())

    def test_rejection_is_typed_over_the_wire(self, recognizer, workload):
        features, _ = workload

        async def scenario():
            async with Server(
                recognizer,
                num_workers=1,
                max_lanes=1,
                worker_backlog=0,
                max_queue=1,
            ) as server:
                async with WireServer(server) as wire:
                    async with await ServeClient.connect(
                        wire.host, wire.port
                    ) as client:
                        first = await client.submit(features[0])
                        second = await client.submit(features[1])
                        with pytest.raises(AdmissionRejected) as err:
                            await client.submit(features[2])
                        assert err.value.reason == "queue_full"
                        assert err.value.queue_depth == 1
                        assert err.value.max_queue == 1
                        assert (await first.result()).ok
                        assert (await second.result()).ok

        asyncio.run(scenario())

    def test_non_finite_features_get_a_typed_error(self, recognizer, workload):
        features, baselines = workload
        bad = features[0].copy()
        bad[10, 3] = np.inf

        async def scenario():
            async with Server(recognizer, num_workers=1, max_lanes=2) as server:
                async with WireServer(server) as wire:
                    async with await ServeClient.connect(
                        wire.host, wire.port
                    ) as client:
                        with pytest.raises(WireProtocolError, match="finite"):
                            await client.submit(bad)
                        # Typed refusal, not a dropped connection.
                        ticket = await client.submit(features[0])
                        result = await ticket.result()
                        assert result.ok
                        assert result.score == baselines[0].score

        asyncio.run(scenario())

    @pytest.mark.parametrize(
        "bad_open",
        [
            {"endpointing": True, "endpoint_silence_frames": 0},
            {"on_partial": lambda words, frame: None, "partial_interval": -1},
            {"partial_interval": "soon"},
        ],
        ids=["silence-frames-0", "partial-interval-negative", "non-integer"],
    )
    def test_bad_open_gets_a_typed_error_on_that_stream_only(
        self, recognizer, workload, bad_open
    ):
        """Parameters the streaming decoder rejects are answered like a
        bad submit — they used to escape ``handle`` as an internal
        error that closed the socket under every in-flight request."""
        features, baselines = workload

        async def scenario():
            async with Server(recognizer, num_workers=1, max_lanes=2) as server:
                async with WireServer(server) as wire:
                    async with await ServeClient.connect(
                        wire.host, wire.port
                    ) as client:
                        neighbour = await client.submit(features[0])
                        stream = await client.open_stream(**bad_open)
                        with pytest.raises(WireProtocolError):
                            await stream.result()
                        result = await neighbour.result()
                        assert result.ok
                        assert result.words == baselines[0].words
                        assert result.score == baselines[0].score
                        # ... and the connection takes new work.
                        assert (await client.decode(features[1])).ok

        asyncio.run(scenario())

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda h: {**h, "dtype": "O"},
            lambda h: {**h, "shape": [-n for n in h["shape"]]},
            lambda h: {**h, "key": [1, 2]},
            lambda h: {**h, "id": [7]},
            lambda h: {**h, "deadline_s": float("nan")},
        ],
        ids=[
            "dtype-object",
            "negative-shape",
            "key-non-scalar",
            "id-non-scalar",
            "deadline-nan",
        ],
    )
    def test_malformed_header_field_gets_a_typed_error_on_that_request_only(
        self, recognizer, workload, mangle
    ):
        """Header fields no honest client sends.  The first four used
        to escape ``handle`` as an internal error that closed the
        socket under the neighbour; a NaN deadline was admitted and
        broke the EDF heap's order."""
        features, baselines = workload
        meta, payload = encode_array(np.asarray(features[0], dtype=np.float64))
        good = {"op": "submit", **meta}

        async def scenario():
            async with Server(recognizer, num_workers=1, max_lanes=2) as server:
                async with WireServer(server) as wire:
                    reader, writer = await asyncio.open_connection(
                        wire.host, wire.port
                    )

                    async def events_until_result(req_id):
                        seen = []
                        while True:
                            event, _ = await asyncio.wait_for(
                                read_frame(reader), 30.0
                            )
                            seen.append(event)
                            if event["event"] == "result" and event["id"] == req_id:
                                return seen

                    def assert_ok(result):
                        assert result["status"] == "ok"
                        assert tuple(result["words"]) == baselines[0].words
                        assert result["score"] == baselines[0].score

                    bad = mangle({**good, "id": 1})
                    write_frame(writer, {**good, "id": 0}, payload)  # neighbour
                    write_frame(writer, bad, payload)
                    await writer.drain()
                    seen = await events_until_result(0)
                    [error] = [e for e in seen if e["event"] == "error"]
                    assert error["id"] == bad["id"] and "fatal" not in error
                    assert_ok(seen[-1])
                    # ... and the connection takes new work.
                    write_frame(writer, {**good, "id": 2}, payload)
                    await writer.drain()
                    assert_ok((await events_until_result(2))[-1])
                    assert server.metrics().submitted == 2
                    writer.close()

        asyncio.run(scenario())

    def test_submit_audio_featurizes_server_side(self, recognizer):
        """A waveform over the wire decodes like its features would,
        and one too short to frame is a typed error, not a closed socket."""
        waveform = np.random.default_rng(5).normal(size=16000)
        want = recognizer.decode(Frontend().extract(waveform))

        async def scenario():
            async with Server(recognizer, num_workers=1, max_lanes=2) as server:
                async with WireServer(server) as wire:
                    async with await ServeClient.connect(
                        wire.host, wire.port
                    ) as client:
                        with pytest.raises(WireProtocolError, match="empty"):
                            await client.submit_audio(waveform[:10])
                        ticket = await client.submit_audio(waveform)
                        result = await ticket.result()
                        assert result.ok
                        assert result.words == want.words
                        assert result.score == want.score

        asyncio.run(scenario())

    def test_client_quota_across_connections(self, recognizer, workload):
        """Two named connections contend for the queue; the greedy one
        is shed with a typed client_quota rejection while the other
        still gets in."""
        features, _ = workload

        async def scenario():
            async with Server(
                recognizer,
                num_workers=1,
                max_lanes=1,
                worker_backlog=0,
                max_queue=4,
            ) as server:
                async with WireServer(server) as wire:
                    a = await ServeClient.connect(
                        wire.host, wire.port, client="tenant-a"
                    )
                    b = await ServeClient.connect(
                        wire.host, wire.port, client="tenant-b"
                    )
                    blocker = await a.submit(features[0])
                    held = [
                        await a.submit(features[1]),
                        await a.submit(features[1]),
                        await b.submit(features[1]),
                    ]
                    with pytest.raises(AdmissionRejected) as err:
                        await a.submit(features[1])
                    assert err.value.reason == "client_quota"
                    held.append(await b.submit(features[1]))
                    for ticket in [blocker, *held]:
                        assert (await ticket.result()).ok
                    await a.close()
                    await b.close()

        asyncio.run(scenario())

    def test_streaming_partials_and_endpoint(self, task, recognizer):
        utt = task.corpus.test[0]
        sil = task.pool.means[task.tying.ci_senone("SIL", 0), 0]
        feats = np.vstack([utt.features, np.tile(sil, (60, 1))])
        partials = []

        async def scenario():
            async with Server(
                recognizer, num_workers=1, max_lanes=2
            ) as server:
                async with WireServer(server) as wire:
                    async with await ServeClient.connect(
                        wire.host, wire.port
                    ) as client:
                        stream = await client.open_stream(
                            on_partial=lambda words, frame: partials.append(
                                (frame, words)
                            ),
                            partial_interval=15,
                            endpoint_silence_frames=25,
                        )
                        for start in range(0, feats.shape[0], 20):
                            if await stream.send_frames(
                                feats[start : start + 20]
                            ):
                                break
                        result = await stream.result()
                        assert result.ok
                        assert result.words == tuple(utt.words)

        asyncio.run(scenario())
        assert partials, "expected partial hypotheses over the wire"

    def test_stream_without_endpointing_finishes_explicitly(
        self, recognizer, workload
    ):
        features, baselines = workload

        async def scenario():
            async with Server(
                recognizer, num_workers=1, max_lanes=2
            ) as server:
                async with WireServer(server) as wire:
                    async with await ServeClient.connect(
                        wire.host, wire.port
                    ) as client:
                        stream = await client.open_stream()
                        feats = features[0]
                        for start in range(0, feats.shape[0], 25):
                            await stream.send_frames(
                                feats[start : start + 25]
                            )
                        result = await stream.result()
                        assert result.ok
                        assert result.words == baselines[0].words
                        assert result.score == baselines[0].score

        asyncio.run(scenario())

    def test_metrics_op_reports_server_state(self, recognizer, workload):
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
                        snapshot = await client.metrics()
                        assert snapshot["submitted"] == 3
                        assert snapshot["completed"] == 3
                        assert snapshot["scoring_mode"] == "reference"
                        assert snapshot["network"] == "flat"
                        assert snapshot["worker_backlog"] >= 0
                        assert len(snapshot["workers"]) == 1
                        assert snapshot["latency_p95_s"] > 0.0
                        # The resilience counters ride the same op.
                        assert snapshot["retries"] == 0
                        assert snapshot["reconnects"] == 0
                        assert snapshot["faults_injected"] == 0
                        assert snapshot["brownout_transitions"] == 0
                        assert snapshot["brownout_active"] is False
                        assert snapshot["workers"][0]["health"] == 1.0

        asyncio.run(scenario())

    def test_deadline_miss_is_a_typed_result(self, recognizer, workload):
        features, _ = workload

        async def scenario():
            async with Server(
                recognizer, num_workers=1, max_lanes=2
            ) as server:
                async with WireServer(server) as wire:
                    async with await ServeClient.connect(
                        wire.host, wire.port
                    ) as client:
                        result = await client.decode(
                            features[0], deadline_s=0.0
                        )
                        assert result.status.value == "timeout"
                        assert result.words is None

        asyncio.run(scenario())

    def test_disconnect_mid_stream_cancels_server_side(
        self, recognizer, workload
    ):
        """A client that vanishes mid-stream (and with a submitted job
        outstanding) must not leak sessions: its work is cancelled and
        other connections keep decoding."""
        features, baselines = workload

        async def scenario():
            async with Server(
                recognizer,
                num_workers=1,
                max_lanes=1,
                worker_backlog=0,
                max_queue=8,
            ) as server:
                async with WireServer(server) as wire:
                    rude = await ServeClient.connect(wire.host, wire.port)
                    stream = await rude.open_stream()
                    await stream.send_frames(features[0][:30])
                    queued = await rude.submit(features[0])
                    assert queued is not None
                    await rude.close()  # mid-stream, job unresolved

                    # The server notices EOF and cancels the leftovers.
                    for _ in range(400):
                        m = server.metrics()
                        if (
                            m.cancelled + m.completed >= 1
                            and m.queue_depth == 0
                            and not server._sessions
                        ):
                            break
                        await asyncio.sleep(0.01)
                    assert not server._sessions
                    assert server.metrics().queue_depth == 0

                    # A polite neighbour is unaffected.
                    async with await ServeClient.connect(
                        wire.host, wire.port
                    ) as polite:
                        result = await polite.decode(features[1])
                        assert result.ok
                        assert result.words == baselines[1].words

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# Raw-socket fuzz: a malformed frame gets ONE typed fatal error frame
# and a clean close; the listener shrugs and keeps serving
# ----------------------------------------------------------------------
class TestWireFuzz:
    @pytest.mark.parametrize(
        "raw",
        [
            # announced sizes far past MAX_FRAME_BYTES — refused before
            # any allocation happens
            b"\x7f\xff\xff\xff\x7f\xff\xff\xff",
            # honest prefix, header bytes that are not JSON
            struct.pack("!II", 4, 0) + b"@#$%",
            # valid JSON, but not an object
            struct.pack("!II", 7, 0) + b"[1,2,3]",
        ],
        ids=["oversized", "not-json", "not-a-dict"],
    )
    def test_malformed_frame_gets_typed_fatal_and_close(
        self, recognizer, workload, raw
    ):
        features, baselines = workload

        async def scenario():
            async with Server(
                recognizer, num_workers=1, max_lanes=2
            ) as server:
                async with WireServer(server) as wire:
                    reader, writer = await asyncio.open_connection(
                        wire.host, wire.port
                    )
                    writer.write(raw)
                    await writer.drain()
                    header, _ = await read_frame(reader)
                    assert header["event"] == "error"
                    assert header["fatal"] is True
                    assert "protocol error" in header["error"]
                    assert await reader.read() == b""  # clean close
                    writer.close()

                    # The listener survives fuzzed peers.
                    async with await ServeClient.connect(
                        wire.host, wire.port
                    ) as client:
                        result = await client.decode(features[0])
                        assert result.ok
                        assert result.words == baselines[0].words

        asyncio.run(scenario())

    def test_truncated_frame_then_close_is_silent(
        self, recognizer, workload
    ):
        """A peer that dies mid-frame is an ordinary disconnect — no
        error frame, no log spew, and the next connection is served."""
        features, baselines = workload

        async def scenario():
            async with Server(
                recognizer, num_workers=1, max_lanes=2
            ) as server:
                async with WireServer(server) as wire:
                    reader, writer = await asyncio.open_connection(
                        wire.host, wire.port
                    )
                    meta, payload = encode_array(
                        np.asarray(features[0], dtype=np.float64)
                    )
                    whole = frame_bytes(
                        {"op": "submit", "id": 0, **meta}, payload
                    )
                    writer.write(whole[: len(whole) // 2])
                    await writer.drain()
                    writer.close()
                    # Half a frame is never parsed into a submit; the
                    # server sends nothing back.
                    assert await reader.read() == b""
                    assert server.metrics().submitted == 0

                    async with await ServeClient.connect(
                        wire.host, wire.port
                    ) as client:
                        result = await client.decode(features[1])
                        assert result.ok
                        assert result.words == baselines[1].words

        asyncio.run(scenario())

    def test_keyed_submit_retry_replays_without_second_decode(
        self, recognizer, workload
    ):
        """Raw-frame view of idempotent dedup: a second submit with the
        same key (and no payload at all) gets the parked result back —
        identical words and bit-identical score, one decode total."""
        features, baselines = workload

        async def scenario():
            async with Server(
                recognizer, num_workers=1, max_lanes=2
            ) as server:
                async with WireServer(server) as wire:
                    reader, writer = await asyncio.open_connection(
                        wire.host, wire.port
                    )
                    writer.write(
                        frame_bytes({"op": "hello", "client": "dedup"})
                    )
                    await writer.drain()
                    hello, _ = await read_frame(reader)
                    assert hello["event"] == "hello"

                    meta, payload = encode_array(
                        np.asarray(features[0], dtype=np.float64)
                    )
                    writer.write(
                        frame_bytes(
                            {"op": "submit", "id": 0, "key": "k1", **meta},
                            payload,
                        )
                    )
                    await writer.drain()
                    accepted, _ = await read_frame(reader)
                    assert accepted["event"] == "accepted"
                    first, _ = await read_frame(reader)
                    assert first["event"] == "result"
                    assert first["status"] == "ok"
                    assert tuple(first["words"]) == baselines[0].words

                    # The retry: same key, new request id, no payload.
                    writer.write(
                        frame_bytes({"op": "submit", "id": 1, "key": "k1"})
                    )
                    await writer.drain()
                    accepted2, _ = await read_frame(reader)
                    assert accepted2["event"] == "accepted"
                    assert accepted2["id"] == 1
                    second, _ = await read_frame(reader)
                    assert second["event"] == "result"
                    assert second["id"] == 1
                    assert second["words"] == first["words"]
                    assert second["score"] == first["score"]

                    metrics = server.metrics()
                    assert metrics.submitted == 1  # decoded exactly once
                    assert metrics.completed == 1
                    writer.close()

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# THE cross-process acceptance test: child process -> socket -> sharded
# server; bit-identical words, typed shedding
# ----------------------------------------------------------------------
CHILD_SCRIPT = """
import asyncio, json, sys
import numpy as np
from repro.serve import AdmissionRejected, ServeClient

async def main(host, port, npz_path):
    data = np.load(npz_path)
    feats = [data[f"utt_{i}"] for i in range(len(data.files))]
    out = {"results": [], "rejection": None}
    client = await ServeClient.connect(host, int(port), client="child")
    tickets = [await client.submit(f) for f in feats]

    # Burst duplicates at the saturated door until one is shed.  Every
    # accepted submit is awaited below -- nothing resolves silently.
    extras = []
    for _ in range(64):
        try:
            extras.append(await client.submit(feats[0]))
        except AdmissionRejected as err:
            out["rejection"] = {
                "reason": err.reason,
                "queue_depth": err.queue_depth,
                "max_queue": err.max_queue,
            }
            break

    for ticket in tickets:
        r = await ticket.result()
        out["results"].append(
            {
                "status": r.status.value,
                "words": list(r.words or ()),
                "score": r.score,
                "worker": r.worker,
            }
        )
    out["extras"] = [
        (await t.result()).status.value for t in extras
    ]
    await client.close()
    print(json.dumps(out))

asyncio.run(main(*sys.argv[1:]))
"""


class TestWireOverload:
    def test_burst_partitions_into_typed_outcomes(self, recognizer, workload):
        """Zero silent drops: every offered utterance is either refused
        with a typed AdmissionRejected or resolves to one typed status,
        and every OK decode is the sequential one bit for bit.  How many
        are shed (or miss the deadline) depends on the host's speed and
        is deliberately not asserted — only the partition is."""
        features, baselines = workload
        offered = features * 2
        assert len(offered) > 4 + 4 + 4  # lanes + backlog + queue below

        async def scenario():
            rejected = 0
            accepted = []
            async with Server(
                recognizer,
                num_workers=2,
                max_lanes=2,
                max_queue=4,
                worker_backlog="auto",
                use_processes=True,
            ) as server:
                async with WireServer(server) as wire:
                    async with await ServeClient.connect(
                        wire.host, wire.port, client="burst"
                    ) as client:
                        for i, f in enumerate(offered):
                            try:
                                ticket = await client.submit(f, deadline_s=0.5)
                            except AdmissionRejected:
                                rejected += 1
                            else:
                                accepted.append((i, ticket))
                        results = [
                            (i, await asyncio.wait_for(t.result(), timeout=60))
                            for i, t in accepted
                        ]
                    return rejected, results, server.metrics()

        rejected, results, metrics = asyncio.run(scenario())
        assert len(results) + rejected == len(offered)
        statuses = Counter(result.status for _, result in results)
        for i, result in results:
            if result.ok:
                base = baselines[i % len(baselines)]
                assert result.words == base.words
                assert result.score == base.score  # bit-exact
        assert metrics.submitted == len(results)
        assert metrics.rejections == rejected
        assert metrics.completed == statuses[ServeStatus.OK]
        assert metrics.timeouts == statuses[ServeStatus.TIMEOUT]
        assert metrics.cancelled == statuses[ServeStatus.CANCELLED] == 0
        assert metrics.errors == statuses[ServeStatus.ERROR] == 0


class TestCrossProcessWire:
    def test_child_process_decodes_bit_identical(
        self, task, recognizer, workload, tmp_path
    ):
        features, baselines = workload
        parity_count = 4
        npz_path = tmp_path / "utts.npz"
        np.savez(
            npz_path,
            **{f"utt_{i}": features[i] for i in range(parity_count)},
        )

        async def scenario():
            async with Server(
                recognizer,
                num_workers=2,
                max_lanes=2,
                worker_backlog=0,
                max_queue=2,
                use_processes=True,  # forked shards, shared model pages
            ) as server:
                async with WireServer(server) as wire:
                    import repro

                    env = dict(os.environ)
                    env["PYTHONPATH"] = os.path.dirname(
                        os.path.dirname(repro.__file__)
                    )
                    child = await asyncio.create_subprocess_exec(
                        sys.executable,
                        "-c",
                        CHILD_SCRIPT,
                        wire.host,
                        str(wire.port),
                        str(npz_path),
                        env=env,
                        stdout=asyncio.subprocess.PIPE,
                        stderr=asyncio.subprocess.PIPE,
                    )
                    stdout, stderr = await asyncio.wait_for(
                        child.communicate(), timeout=120
                    )
                    assert child.returncode == 0, stderr.decode()
                    return json.loads(stdout.decode())

        report = asyncio.run(scenario())

        # Bit-identical across process + socket: words AND float64
        # scores survive the wire exactly.
        assert len(report["results"]) == parity_count
        workers_used = set()
        for got, base in zip(report["results"], baselines):
            assert got["status"] == "ok"
            assert tuple(got["words"]) == base.words
            assert got["score"] == base.score
            workers_used.add(got["worker"])
        assert workers_used == {0, 1}, "both shards should have decoded"

        # The saturated door shed with a typed rejection...
        assert report["rejection"] is not None
        assert report["rejection"]["reason"] in (
            "queue_full",
            "client_quota",
        )
        assert report["rejection"]["max_queue"] == 2
        # ...and every accepted extra resolved to a typed status.
        assert all(
            status in ("ok", "timeout") for status in report["extras"]
        )
