"""Per-server metrics: queue depth, lane utilization, latency, RTF.

The engine loops emit :class:`~repro.runtime.serving.LoopStats`
snapshots with their result events; the server folds those together
with its own admission counters and completed-session latencies into
one :class:`ServerMetrics` view — no side tables, no extra clocks (the
per-utterance stamps ride on
:class:`~repro.decoder.recognizer.DecodeTiming`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.telemetry import DecodeTelemetry

__all__ = ["ServerMetrics", "WorkerMetrics"]


@dataclass(frozen=True)
class WorkerMetrics:
    """One engine's live view."""

    worker: int
    in_flight: int  # jobs dispatched to it, not yet resolved
    steps: int
    frames_processed: int
    max_lanes: int
    alive: bool
    # Steal-aware health score in [0.25, 1.0]: losing work to steals
    # cuts it (and with it the shard's dispatch backlog share — a soft
    # circuit breaker); steal-free windows recover it.
    health: float = 1.0
    precision: str | None = None  # blas table precision this shard serves at
    stalled_steps: int = 0  # engine steps delayed by injected stalls
    #: Shard-cumulative decode-depth rollup (senones scored, beam
    #: survivors, fast-GMM layer hits, stage seconds), from LoopStats.
    telemetry: DecodeTelemetry | None = None

    @property
    def lane_utilization(self) -> float:
        slots = self.steps * self.max_lanes
        return self.frames_processed / slots if slots else 0.0


@dataclass(frozen=True)
class ServerMetrics:
    """The whole front door at a glance."""

    submitted: int
    completed: int
    timeouts: int
    cancelled: int
    errors: int
    rejections: int
    queue_depth: int  # waiting in the server's admission queue
    in_flight: int  # dispatched to workers, unresolved
    workers: list[WorkerMetrics] = field(default_factory=list)
    latency_p50_s: float = 0.0  # end-to-end, completed utterances
    latency_p95_s: float = 0.0
    # Queue-wait percentiles cover ALL resolved traffic: completed
    # utterances contribute their enqueue->lane-admission wait, shed
    # (timed-out) utterances contribute their enqueue->shed wait.
    # Counting only survivors would flatter exactly the overload knee
    # these numbers exist to expose — under saturation the longest
    # waits belong to the jobs that never made it.
    wait_p50_s: float = 0.0
    wait_p95_s: float = 0.0
    shed_wait_p95_s: float = 0.0  # the shed series alone
    steals: int = 0  # jobs reclaimed from a busy shard's backlog
    worker_backlog: int = 0  # current per-worker over-dispatch depth
    rtf: float = 0.0  # total decode wall time / total audio decoded
    audio_seconds: float = 0.0
    scoring_mode: str = "reference"  # the workers' scoring backend
    scoring_precision: str = "float64"  # blas table precision in use
    model_table_bytes: int = 0  # scoring-table footprint per worker
    network: str = "flat"  # lexicon family the lanes search (flat|tree)
    # Resilience counters (trailing defaults keep positional callers
    # working).  `retries` counts jobs re-dispatched after a worker
    # death; `reconnects` counts wire clients that re-attached under a
    # known name; `faults_injected` counts FaultPlan faults actually
    # consumed; `brownout_transitions` counts engage+release edges.
    retries: int = 0
    reconnects: int = 0
    faults_injected: int = 0
    brownout_transitions: int = 0
    brownout_active: bool = False
    # Observability (trailing defaults again).  The percentile fields
    # above now come from bounded log-bucketed histograms rather than
    # unbounded sample lists; the sparse histogram snapshots ship here
    # so remote consumers can merge across servers.
    latency_p99_s: float = float("nan")
    wait_p99_s: float = float("nan")
    latency_hist: dict | None = None
    wait_hist: dict | None = None
    shed_wait_hist: dict | None = None
    #: Fleet-wide decode-depth rollup (every live shard's telemetry
    #: merged; dead shards keep their last reported rollup).
    telemetry: DecodeTelemetry | None = None

    @property
    def lane_utilization(self) -> float:
        """Frame-weighted utilization across every worker's lane bank."""
        slots = sum(w.steps * w.max_lanes for w in self.workers)
        frames = sum(w.frames_processed for w in self.workers)
        return frames / slots if slots else 0.0
