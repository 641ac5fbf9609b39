"""`repro.serve` — the async streaming front door.

The subsystem that turns the recognizer's lane engine into an
actual service: clients open sessions and stream feature frames (or
raw audio through the frontend); an asyncio :class:`Server` runs a
bounded admission queue in front of one or more engine workers, each
driving a :class:`~repro.runtime.serving.ServeLoop` over its own lane
bank.  Admission control sheds load with a typed
:class:`AdmissionRejected`; per-utterance deadlines early-retire lanes
and resolve to typed ``TIMEOUT`` results without moving any surviving
utterance's bit-exact output; the sharded mode forks N worker
processes over the shared read-only senone pool and lexicon, and
dispatches a job only into a free lane of the least-loaded shard
(round-robin among equals).  Per-server metrics (queue depth,
lane utilization, p50/p95 latency, RTF) ride on the wall-clock timing
every runtime now stamps into its results.

The admission queue is earliest-deadline-first with per-client
fair-share quotas, and it is the one place a job waits: a shard never
holds a job it cannot start.  The dispatcher re-dispatches a dead
worker's jobs to the survivors.  :class:`WireServer` /
:class:`ServeClient` put the whole session API on a TCP socket with a
length-prefixed binary frame protocol (see
:mod:`repro.serve.transport`) so other processes and hosts get the
same typed rejections, deadlines and bit-identical decodes.

Resilience is first-class: a seeded :class:`FaultPlan`
(:mod:`repro.serve.faults`) injects worker kills, slow shards and wire
failures deterministically so chaos runs are ordinary CI tests; the
client reconnects with capped, jittered backoff per
:class:`RetryPolicy` and retries idempotent submits exactly once
(typed :class:`ConnectionLost` / :class:`RetriesExhausted` otherwise);
and a declared :class:`BrownoutPolicy` lets the server degrade
gracefully under sustained pressure — blas precision downshift and/or
tightened admission, with hysteresis and full restoration — instead of
shedding blindly.

Observability (:mod:`repro.obs`) is always on and observes-only:
every request carries a ``trace_id`` from the client (or the front
door) through admission, dispatch and the shard's decode, resolving
with a merged cross-process span tree on
:attr:`ServeResult.trace` / :attr:`WireResult.trace`; per-lane
decode-depth telemetry rolls up per shard into the metrics snapshot;
latency/wait series live in bounded mergeable histograms (p50/p95/p99
and a Prometheus-style ``metrics_text`` exposition); and a bounded
flight recorder dumps a causal timeline on every timeout, injected
fault, worker death and brownout transition.
"""

from repro.serve.client import ServeClient, WireResult, WireStream, WireTicket
from repro.serve.faults import FAULT_KINDS, FAULT_SITES, Fault, FaultPlan
from repro.serve.metrics import ServerMetrics, WorkerMetrics
from repro.serve.server import Server, Session, StreamSession
from repro.serve.transport import WireServer
from repro.serve.types import (
    AdmissionRejected,
    BrownoutPolicy,
    ConnectionLost,
    RetriesExhausted,
    RetryPolicy,
    ServeResult,
    ServeStatus,
    ServerClosed,
)

__all__ = [
    "AdmissionRejected",
    "BrownoutPolicy",
    "ConnectionLost",
    "FAULT_KINDS",
    "FAULT_SITES",
    "Fault",
    "FaultPlan",
    "RetriesExhausted",
    "RetryPolicy",
    "ServeClient",
    "Server",
    "ServerClosed",
    "ServerMetrics",
    "ServeResult",
    "ServeStatus",
    "Session",
    "StreamSession",
    "WireResult",
    "WireServer",
    "WireStream",
    "WireTicket",
    "WorkerMetrics",
]
