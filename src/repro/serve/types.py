"""Typed results and rejections of the serving front door.

Admission failures are EXCEPTIONS (raised at ``submit`` time — the
client never gets a ticket), while deadline misses, cancellations and
worker errors are RESULTS (the client holds a ticket; it resolves to a
:class:`ServeResult` whose ``status`` says what happened).  That split
mirrors the two control points of the tentpole: load shedding at the
door, deadlines inside the engine.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from repro.decoder.beam import check_count
from repro.decoder.recognizer import RecognitionResult
from repro.hmm.senone import check_blas_precision
from repro.obs.trace import Trace

__all__ = [
    "AdmissionRejected",
    "BrownoutPolicy",
    "ConnectionLost",
    "RetriesExhausted",
    "RetryPolicy",
    "ServeResult",
    "ServeStatus",
    "ServerClosed",
]


class ServeStatus(enum.Enum):
    """How a submitted utterance resolved."""

    OK = "ok"  # decoded; ``result`` holds the RecognitionResult
    TIMEOUT = "timeout"  # missed its deadline (queued or mid-decode)
    CANCELLED = "cancelled"  # client cancelled it
    ERROR = "error"  # rejected by the engine or its worker died


class AdmissionRejected(RuntimeError):
    """Load shed at the door.

    ``reason`` says which policy fired: ``"queue_full"`` (the bounded
    admission queue has no room for anyone) or ``"client_quota"``
    (the queue has room, but this client already holds its fair share
    of it while other clients are waiting).  Carries the observed
    depth so callers can implement backpressure (retry with jitter,
    spill to another server, degrade).
    """

    def __init__(
        self,
        queue_depth: int,
        max_queue: int,
        reason: str = "queue_full",
        client: str | None = None,
    ) -> None:
        if reason == "client_quota":
            message = (
                f"client {client!r} is over its fair share of the "
                f"admission queue ({queue_depth}/{max_queue} waiting)"
            )
        elif reason == "brownout":
            message = (
                f"admission tightened under brownout "
                f"({queue_depth}/{max_queue} effective slots)"
            )
        else:
            message = f"admission queue full ({queue_depth}/{max_queue} waiting)"
        super().__init__(message)
        self.queue_depth = queue_depth
        self.max_queue = max_queue
        self.reason = reason
        self.client = client


class ServerClosed(RuntimeError):
    """Submitted to a server that is not running."""


class ConnectionLost(ConnectionError):
    """The wire connection died with this operation in flight.

    A :class:`ConnectionError` subclass, so code that already catches
    connection failures keeps working — but typed, so resilient
    clients can tell "the socket dropped, my request may or may not
    have run" apart from every other failure.  Raised for operations
    the client will NOT transparently retry: open streams (the
    server-side session was cancelled with the connection), metrics
    polls, and submits once reconnection is disabled or exhausted.
    """


class RetriesExhausted(ConnectionLost):
    """Reconnect/retry budget spent without the operation resolving.

    The subclass split matters for callers: plain
    :class:`ConnectionLost` means "not retryable, never retried";
    :class:`RetriesExhausted` means "retried per policy and still
    failed" — the request may have executed server-side, so blind
    resubmission risks duplicate work.
    """


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side reconnect/retry behavior for :class:`ServeClient`.

    On connection loss the client reconnects up to ``max_reconnects``
    times with capped exponential backoff: attempt ``k`` sleeps
    ``min(backoff_cap_s, backoff_base_s * 2**k)`` scaled by up to
    ``jitter`` of seeded random spread (deterministic for a fixed
    ``seed`` — chaos tests stay reproducible).  Only idempotent work
    is retried: submits carry a server-deduplicated idempotency key,
    so an admitted-but-unacked submit is re-attached rather than
    re-run.  Streams and metrics polls are never retried (their
    futures fail typed with :class:`ConnectionLost`).
    """

    max_reconnects: int = 3
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    jitter: float = 0.5
    seed: int | None = None

    def __post_init__(self) -> None:
        check_count("max_reconnects", self.max_reconnects, 0)
        # A NaN or infinite backoff is a reconnect sleep that never
        # ends: the in-flight tickets would never resolve.
        for name in ("backoff_base_s", "backoff_cap_s"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def backoff_s(self, attempt: int, rng) -> float:
        """Sleep before reconnect ``attempt`` (0-based)."""
        base = min(self.backoff_cap_s, self.backoff_base_s * (2.0**attempt))
        if self.jitter and rng is not None:
            base *= 1.0 + self.jitter * float(rng.random())
        return base


@dataclass(frozen=True)
class BrownoutPolicy:
    """Server-side graceful degradation under sustained pressure.

    Pressure per metrics window is the worst of: admission-queue
    fullness (``depth / max_queue``), dead-shard fraction, and a
    forced 1.0 for any window that shed work (timeouts or
    rejections).  Hysteresis keeps the server from flapping: brownout
    ENGAGES after ``engage_windows`` consecutive windows at or above
    ``engage_pressure`` and RELEASES (full restoration) only after
    ``release_windows`` consecutive windows at or below
    ``release_pressure``.

    While engaged the server degrades instead of shedding blindly:

    * ``precision`` (``None``: no precision rung) swaps every live blas
      worker's scoring tables to that precision (float32 halves table
      bandwidth; path scores stay within the documented
      ``FLOAT32_SCORE_ATOL``), restored to the recognizer's own
      precision on release;
    * ``admission_factor < 1.0`` tightens the effective admission
      bound to ``max(1, int(max_queue * admission_factor))`` so the
      queue — and with it worst-case queued latency — shrinks; those
      rejections carry ``reason="brownout"``.

    Non-blas recognizers simply skip the precision axis.
    """

    engage_pressure: float = 0.75
    release_pressure: float = 0.25
    engage_windows: int = 2
    release_windows: int = 4
    precision: str | None = "float32"
    admission_factor: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.engage_pressure <= 1.0:
            raise ValueError(
                f"engage_pressure must be in (0, 1], got {self.engage_pressure}"
            )
        if not 0.0 <= self.release_pressure < self.engage_pressure:
            raise ValueError(
                "release_pressure must be in [0, engage_pressure); got "
                f"{self.release_pressure} vs {self.engage_pressure}"
            )
        check_count("engage_windows", self.engage_windows, 1)
        check_count("release_windows", self.release_windows, 1)
        if not 0.0 < self.admission_factor <= 1.0:
            raise ValueError(
                f"admission_factor must be in (0, 1], got {self.admission_factor}"
            )
        # A typo here would otherwise surface inside every shard's loop
        # at the moment brownout engages, killing the fleet under load.
        if self.precision is not None:
            check_blas_precision(self.precision)


@dataclass(frozen=True)
class ServeResult:
    """What one submitted utterance resolved to.

    ``result`` is populated only for :attr:`ServeStatus.OK`; its
    embedded :class:`~repro.decoder.recognizer.DecodeTiming` carries
    the queue-wait / decode-time / RTF breakdown.  ``latency_s`` is the
    end-to-end enqueue-to-resolution wall time and is populated for
    every status (a timeout's latency is how long the client waited to
    learn of it).  ``detail`` disambiguates non-OK statuses (timeout
    stage, error text); ``frames_decoded`` counts work discarded by a
    mid-decode timeout or cancellation.
    """

    utt_id: int
    status: ServeStatus
    result: RecognitionResult | None
    worker: int | None
    enqueued_at: float
    finished_at: float
    frames_decoded: int = 0
    detail: str = ""
    #: Merged request timeline: the front door's spans (request,
    #: wire.receive, queue.wait, dispatch) plus the shard's spans
    #: (worker.queue, decode and its stage children), cross-process.
    trace: Trace | None = field(default=None, compare=False)

    @property
    def ok(self) -> bool:
        return self.status is ServeStatus.OK

    @property
    def words(self) -> tuple[str, ...] | None:
        return self.result.words if self.result is not None else None

    @property
    def latency_s(self) -> float:
        return self.finished_at - self.enqueued_at
