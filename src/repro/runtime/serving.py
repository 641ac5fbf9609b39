"""Push-queue serving bridge over the lane engine.

:meth:`~repro.decoder.recognizer.Recognizer.decode_stream`
is PULL-style: it consumes a lazy iterable and returns once the stream
drains — the right shape for offline workloads, the wrong one for a
server, where requests arrive asynchronously, carry deadlines, and can
be cancelled mid-decode.  :class:`ServeLoop` is the bridge: a
synchronous, long-running engine loop (run it in a worker thread or a
forked worker process — :mod:`repro.serve` does both) that

* pulls :class:`DecodeJob` / :class:`CancelJob` / :data:`STOP` commands
  from a push-style thread-safe queue,
* admits jobs into a :class:`~repro.runtime.batch.LaneBank` FIFO, at
  most ``max_lanes`` decoding simultaneously, in a bank exactly as wide
  as its occupied lanes: it starts at one lane, grows by one when it
  admits into a full bank
  (:meth:`~repro.runtime.batch.LaneBankBase.open_lane`) and drops its
  free lanes before every step
  (:meth:`~repro.runtime.batch.LaneBankBase.compact`) — the rule
  ``decode_stream`` follows too — so a step costs the requests in
  flight, not the lane cap,
* enforces per-utterance deadlines — a job whose deadline passes while
  QUEUED is shed without decoding; one that misses MID-DECODE is
  early-retired through :meth:`~repro.runtime.batch.LaneBank.cancel`,
  which frees the lane without perturbing any surviving lane's
  bit-exact output,
* emits typed events (:class:`JobDone`, :class:`JobTimedOut`,
  :class:`JobCancelled`, :class:`JobFailed`, :class:`LoopStats`,
  :class:`ServeStopped`) through a caller-supplied callback the moment
  each utterance resolves — no waiting for the stream to drain.

Parity: the loop only decides WHEN lanes are seeded, moved and freed;
every per-frame operation is the same
:class:`~repro.runtime.batch.LaneBank` kernel the offline drivers use,
elementwise or per row, so completed utterances are bit-identical to a
sequential decode (tolerance-scored in blas mode) for any arrival
order, deadline pattern, cancellation interleaving or bank width.
"""

from __future__ import annotations

import queue as queue_mod
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.decoder.beam import check_count
from repro.decoder.recognizer import RecognitionResult, Recognizer
from repro.obs.telemetry import DecodeTelemetry
from repro.obs.trace import Trace, mint_trace_id

__all__ = [
    "STOP",
    "CancelJob",
    "CrashWorker",
    "DecodeJob",
    "JobCancelled",
    "JobDone",
    "JobFailed",
    "JobTimedOut",
    "LoopStats",
    "ServeLoop",
    "ServeStopped",
    "SetPrecision",
    "SlowShard",
]


class _Stop:
    """Sentinel command: drain everything already submitted, then exit."""

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return "STOP"


STOP = _Stop()


# ----------------------------------------------------------------------
# Commands (caller -> loop)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DecodeJob:
    """One utterance to decode.

    ``enqueued_at``/``deadline_at`` are ``time.monotonic`` stamps
    (system-wide on Linux, so they survive the hop into a forked worker
    process).  ``deadline_at is None`` means no deadline.
    """

    utt_id: int
    features: np.ndarray
    enqueued_at: float
    deadline_at: float | None = None
    #: Request trace id (minted by the client or front door); the loop
    #: tags its worker-side spans with it so the server can merge the
    #: cross-process timeline.  ``None`` mints one worker-side.
    trace_id: str | None = None


@dataclass(frozen=True)
class CancelJob:
    """Cancel a previously submitted job (queued or mid-decode)."""

    utt_id: int


@dataclass(frozen=True)
class CrashWorker:
    """Fault injection: die mid-serve as if the shard hit a hard fault.

    The loop raises from its own core, so the caller sees exactly what
    a real crash produces — a :class:`ServeStopped` with a traceback
    (thread workers) or a dead process (the forked transport injects
    the crash as a SIGKILL instead, which is even less polite).
    """

    reason: str = "injected crash"


@dataclass(frozen=True)
class SlowShard:
    """Fault injection: stall ``stall_s`` before each of the next
    ``steps`` engine steps — a thermally throttled / page-faulting
    shard that is alive but late.  Decoded output is untouched; only
    timing degrades, which is what the deadline logic must absorb."""

    stall_s: float
    steps: int


@dataclass(frozen=True)
class SetPrecision:
    """Brownout control: swap the blas scoring tables to ``precision``.

    Only meaningful for ``mode="blas"`` recognizers (ignored
    otherwise).  Swapping between frame-synchronous steps is safe
    mid-decode — in-flight utterances finish on the new tables: what
    the blas scorer scored ahead for a lane on the old tables is never
    read after the swap.  The loop reports the active precision in
    every subsequent :class:`LoopStats`.
    """

    precision: str


# ----------------------------------------------------------------------
# Events (loop -> caller)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobDone:
    """An utterance finished normally; ``result`` carries its timing."""

    utt_id: int
    result: RecognitionResult


@dataclass(frozen=True)
class JobTimedOut:
    """An utterance missed its deadline.

    ``stage`` is ``"queued"`` (shed before a lane ever saw it) or
    ``"decoding"`` (early-retired after ``frames_decoded`` frames).
    """

    utt_id: int
    stage: str
    frames_decoded: int
    deadline_at: float
    observed_at: float


@dataclass(frozen=True)
class JobCancelled:
    """An utterance was cancelled on request; mirrors JobTimedOut."""

    utt_id: int
    stage: str
    frames_decoded: int


@dataclass(frozen=True)
class JobFailed:
    """A job could not be admitted (e.g. malformed features)."""

    utt_id: int
    error: str


@dataclass(frozen=True)
class LoopStats:
    """Utilization counters, emitted periodically and at shutdown
    (all-zero: a loop that has not reported yet)."""

    max_lanes: int
    steps: int = 0
    frames_processed: int = 0
    completed: int = 0
    timeouts: int = 0
    cancelled: int = 0
    failed: int = 0
    precision: str | None = None
    stalled_steps: int = 0
    #: Shard-cumulative decode-depth rollup (every completed lane's
    #: :class:`~repro.obs.telemetry.DecodeTelemetry` merged in).
    telemetry: DecodeTelemetry | None = None

    @property
    def utilization(self) -> float:
        """Occupied share of the lane cap: frames decoded over
        ``steps x max_lanes`` (the bank itself is never wider than its
        occupied lanes)."""
        slots = self.steps * self.max_lanes
        return self.frames_processed / slots if slots else 0.0


@dataclass(frozen=True)
class ServeStopped:
    """The loop exited; final stats, plus the traceback if it crashed."""

    stats: LoopStats
    error: str | None = None


class ServeLoop:
    """Drive one lane bank from a push-style command queue.

    Parameters
    ----------
    recognizer:
        A :class:`~repro.decoder.recognizer.Recognizer` (any scoring
        mode) this loop has to itself — the server hands each shard a
        :meth:`~repro.decoder.recognizer.Recognizer.twin`; the loop
        builds one bank from it, as wide as its occupied lanes.
    max_lanes:
        Simultaneously decoding utterances (the cap on the stacked
        state's ``B``).
    clock:
        Injectable monotonic clock (tests pin deadline interleavings).
    worker_id:
        Shard label stamped on worker-side spans (``None`` leaves the
        spans unlabelled — the standalone / test configuration).
    """

    STATS_EVERY = 64  # steps between periodic LoopStats events
    #: Block this long on an empty inbox before re-checking (bounds idle
    #: wake-up latency and deadline-check granularity while idle; while
    #: lanes are decoding, deadlines are checked every step).
    POLL_S = 0.002

    def __init__(
        self,
        recognizer: Recognizer,
        max_lanes: int = 8,
        clock: Callable[[], float] = time.monotonic,
        worker_id: int | None = None,
    ) -> None:
        check_count("max_lanes", max_lanes, 1)
        self.recognizer = recognizer
        self.max_lanes = max_lanes
        self.clock = clock
        self.worker_id = worker_id

    def _worker_trace(
        self, job: DecodeJob, arrived_at: float, result: RecognitionResult
    ) -> Trace:
        """The shard-side half of a request's timeline.

        ``worker.queue`` covers inbox arrival to lane admission;
        ``decode`` covers the lane occupancy.  The decode stage
        children come from the bank's stage clocks — those are
        bank-scoped samples (concurrent lanes share each step), so
        they are normalized to fit the lane's decode window and laid
        end to end: relative proportions are exact, absolute child
        timestamps are the lane's share of each step.
        """
        trace = Trace(
            trace_id=job.trace_id or mint_trace_id(), utt_id=job.utt_id
        )
        # The bank stamps every result it retires.
        admitted = result.timing.admitted_at
        finished = result.timing.finished_at
        wid = self.worker_id
        trace.add(
            "worker.queue", arrived_at, admitted, worker=wid, parent="request"
        )
        trace.add("decode", admitted, finished, worker=wid, parent="request")
        tel = result.telemetry
        if tel.stage_total_s > 0:
            window = max(finished - admitted, 0.0)
            scale = min(1.0, window / tel.stage_total_s)
            at = admitted
            for name, dur in (
                ("decode.scoring", tel.stage_scoring_s),
                ("decode.token_update", tel.stage_update_s),
                ("decode.word_exit", tel.stage_exit_s),
            ):
                end = at + dur * scale
                trace.add(name, at, end, worker=wid, parent="decode")
                at = end
        return trace

    def run(self, inbox: "queue_mod.Queue", emit: Callable[[object], None]) -> LoopStats:
        """Serve until :data:`STOP` arrives and all admitted work drains.

        ``inbox`` is any object with the blocking ``Queue`` protocol
        (``queue.Queue`` for a thread worker, ``multiprocessing``'s
        queue for a forked worker).  ``emit`` receives every event; it
        must be cheap and must not raise.  Always emits a final
        :class:`ServeStopped` (with the traceback when the loop dies on
        an internal error) and returns the final stats.
        """
        rec = self.recognizer
        rec._reset_accounting()
        # The bank is as wide as its occupied lanes: it grows by one
        # lane at an admission into a full bank and drops its free lanes
        # before a step, so it never steps a lane nobody occupies.
        bank = rec.make_bank(1)
        # A job travels with its inbox-arrival stamp: first in
        # ``waiting``, then in ``slots`` under its utterance id (lanes
        # move when the bank compacts; ids do not) until it resolves.
        waiting: deque[tuple[DecodeJob, float]] = deque()
        slots: dict[int, tuple[DecodeJob, float]] = {}
        cancels: set[int] = set()
        shard_telemetry = DecodeTelemetry()
        stopping = False
        completed = timeouts = cancelled = failed = 0
        stall_s = 0.0
        stall_steps = 0
        stalled_steps = 0

        def stats() -> LoopStats:
            return LoopStats(
                steps=bank.steps,
                frames_processed=bank.frames_processed,
                max_lanes=self.max_lanes,
                completed=completed,
                timeouts=timeouts,
                cancelled=cancelled,
                failed=failed,
                precision=rec.precision,
                stalled_steps=stalled_steps,
                telemetry=replace(shard_telemetry),
            )

        error: str | None = None
        try:
            while True:
                # 1. Intake: drain the inbox; when fully idle, block
                #    briefly instead of spinning.
                block = not bank.any_active and not waiting and not stopping
                while True:
                    try:
                        msg = (
                            inbox.get(timeout=self.POLL_S)
                            if block
                            else inbox.get_nowait()
                        )
                    except queue_mod.Empty:
                        break
                    block = False
                    if isinstance(msg, _Stop):
                        stopping = True
                    elif isinstance(msg, CancelJob):
                        cancels.add(msg.utt_id)
                    elif isinstance(msg, CrashWorker):
                        raise RuntimeError(msg.reason)
                    elif isinstance(msg, SlowShard):
                        stall_s = msg.stall_s
                        stall_steps = msg.steps
                    elif isinstance(msg, SetPrecision):
                        if rec.set_precision(msg.precision):
                            emit(stats())
                    else:
                        waiting.append((msg, self.clock()))
                now = self.clock()

                # 2. Shed queued jobs that were cancelled or whose
                #    deadline already passed — they never cost a lane.
                if waiting:
                    kept: deque[tuple[DecodeJob, float]] = deque()
                    for entry in waiting:
                        job = entry[0]
                        if job.utt_id in cancels:
                            cancels.discard(job.utt_id)
                            emit(JobCancelled(job.utt_id, "queued", 0))
                            cancelled += 1
                        elif job.deadline_at is not None and now >= job.deadline_at:
                            emit(
                                JobTimedOut(
                                    job.utt_id, "queued", 0, job.deadline_at, now
                                )
                            )
                            timeouts += 1
                        else:
                            kept.append(entry)
                    waiting = kept

                # 3. Early-retire decoding lanes that were cancelled or
                #    missed their deadline; the freed lanes re-admit
                #    below, this very iteration.
                for lane in np.flatnonzero(bank.active).tolist():
                    utt = int(bank.lane_utt[lane])
                    deadline = slots[utt][0].deadline_at
                    if utt in cancels:
                        cancels.discard(utt)
                        del slots[utt]
                        frames = bank.cancel(lane)
                        emit(JobCancelled(utt, "decoding", frames))
                        cancelled += 1
                    elif deadline is not None and now >= deadline:
                        del slots[utt]
                        frames = bank.cancel(lane)
                        emit(JobTimedOut(utt, "decoding", frames, deadline, now))
                        timeouts += 1
                # Anything still unmatched was already resolved (the
                # job preceded its cancel through the same FIFO inbox).
                cancels.clear()

                # 4. Admission: FIFO into a free lane, or one the bank
                #    grows by, while fewer than max_lanes are occupied.
                while waiting and bank.occupied < self.max_lanes:
                    entry = waiting.popleft()
                    job = entry[0]
                    try:
                        feats = rec._validate_features(job.utt_id, job.features)
                    except (TypeError, ValueError) as exc:
                        emit(JobFailed(job.utt_id, repr(exc)))
                        failed += 1
                        continue
                    bank.admit(
                        bank.open_lane(), job.utt_id, feats,
                        enqueued_at=job.enqueued_at,
                    )
                    slots[job.utt_id] = entry

                # 5. Idle / exit.
                if not bank.any_active:
                    if stopping and not waiting:
                        break
                    continue

                # 6. Drop the free lanes, then one frame-synchronous
                #    step; retire finishers.  An injected slow-shard
                #    fault stalls before the step — the shard stays alive
                #    and correct, just late.
                if not bank.active.all():
                    bank.compact()
                if stall_steps > 0:
                    stall_steps -= 1
                    stalled_steps += 1
                    time.sleep(stall_s)
                # A retire refreshes stats immediately: per-shard
                # telemetry in the metrics snapshot must not go stale
                # while the loop idles between jobs.
                retired = False
                for lane in bank.step():
                    job, arrived_at = slots.pop(int(bank.lane_utt[lane]))
                    result = bank.retire(lane)
                    shard_telemetry.merge(result.telemetry)
                    result.trace = self._worker_trace(job, arrived_at, result)
                    emit(JobDone(job.utt_id, result))
                    completed += 1
                    retired = True
                if retired or bank.steps % self.STATS_EVERY == 0:
                    emit(stats())
        except Exception:  # pragma: no cover - defensive: report, don't hang
            import traceback

            error = traceback.format_exc()
        final = stats()
        emit(ServeStopped(final, error=error))
        return final
