"""Engine workers: one :class:`~repro.runtime.serving.ServeLoop` each.

Two transports behind one interface:

* :class:`ThreadEngineWorker` runs the loop in a daemon thread of the
  server's process — zero-copy job handoff, ideal for tests, demos and
  single-core hosts.
* :class:`ProcessEngineWorker` runs the loop in a FORKED worker
  process — the sharded mode.  Fork is the model handoff: the compiled
  lexicon network, the :class:`~repro.hmm.senone.SenonePool` and the
  LM are built once in the parent and inherited read-only through
  copy-on-write pages, so N shards share one copy of the acoustic
  model exactly like the paper's single flash array feeding parallel
  units.  Jobs and events cross the process boundary through
  ``multiprocessing`` queues; all timestamps are ``time.monotonic``,
  which is system-wide on Linux, so latency math stays coherent across
  shards.

Every worker pushes ``(worker_id, event)`` pairs at the server through
a thread-safe ``emit`` callable; process workers share one outbox
queue drained by a single pump thread (:func:`start_outbox_pump`).
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import threading
from typing import Callable

from repro.decoder.recognizer import Recognizer
from repro.runtime.serving import (
    STOP,
    CancelJob,
    CrashWorker,
    DecodeJob,
    ServeLoop,
    SetPrecision,
    SlowShard,
    StealJob,
)

__all__ = [
    "ProcessEngineWorker",
    "ThreadEngineWorker",
    "start_outbox_pump",
]

_PUMP_STOP = ("__pump_stop__", None)


class _EngineWorker:
    """The command half both transports share: each is one message on
    the loop's inbox (a ``queue.Queue`` or a ``multiprocessing`` one).
    Starting, crashing and reaping the loop are the transport's own."""

    _inbox: "queue_mod.Queue"

    def submit(self, job: DecodeJob) -> None:
        self._inbox.put(job)

    def cancel(self, utt_id: int) -> None:
        self._inbox.put(CancelJob(utt_id))

    def steal(self, utt_id: int) -> None:
        self._inbox.put(StealJob(utt_id))

    def set_precision(self, precision: str) -> None:
        self._inbox.put(SetPrecision(precision))

    def slow(self, stall_s: float, steps: int) -> None:
        self._inbox.put(SlowShard(stall_s, steps))

    def request_stop(self) -> None:
        self._inbox.put(STOP)


class ThreadEngineWorker(_EngineWorker):
    """A serve loop in a daemon thread of this process."""

    def __init__(
        self,
        worker_id: int,
        recognizer: Recognizer,
        max_lanes: int,
        emit: Callable[[int, object], None],
    ) -> None:
        self.worker_id = worker_id
        self._inbox: "queue_mod.Queue" = queue_mod.Queue()
        self._serve = ServeLoop(recognizer, max_lanes=max_lanes, worker_id=worker_id)
        self._thread = threading.Thread(
            target=self._serve.run,
            args=(self._inbox, lambda event: emit(worker_id, event)),
            name=f"serve-engine-{worker_id}",
            daemon=True,
        )

    def start(self) -> None:
        self._thread.start()

    def inject_crash(self) -> None:
        """Fault injection: the loop raises and dies with ServeStopped."""
        self._inbox.put(CrashWorker())

    def alive(self) -> bool:
        return self._thread.is_alive()

    def join(self, timeout: float) -> bool:
        self._thread.join(timeout)
        return not self._thread.is_alive()

    def terminate(self) -> None:
        """Threads cannot be killed; the daemon flag is the backstop."""


def _process_worker_main(
    worker_id: int,
    recognizer: Recognizer,
    max_lanes: int,
    inbox,
    outbox,
) -> None:
    """Forked child entry point: serve until STOP, then exit."""
    serve = ServeLoop(recognizer, max_lanes=max_lanes, worker_id=worker_id)
    serve.run(inbox, lambda event: outbox.put((worker_id, event)))


class ProcessEngineWorker(_EngineWorker):
    """A serve loop in a forked worker process (one shard).

    Must be constructed (and ideally started) before the parent spins
    up helper threads: fork copies only the calling thread, so forking
    early keeps the child single-threaded and the model pages shared.
    """

    def __init__(
        self,
        worker_id: int,
        recognizer: Recognizer,
        max_lanes: int,
        outbox,
        ctx: multiprocessing.context.BaseContext,
    ) -> None:
        self.worker_id = worker_id
        self._inbox = ctx.Queue()
        # Fork passes args by copy-on-write inheritance, not pickling:
        # the recognizer's pool/network/LM stay one shared copy.
        self._proc = ctx.Process(
            target=_process_worker_main,
            args=(worker_id, recognizer, max_lanes, self._inbox, outbox),
            name=f"serve-shard-{worker_id}",
            daemon=True,
        )

    def start(self) -> None:
        self._proc.start()

    def inject_crash(self) -> None:
        """Fault injection: SIGKILL the shard — no goodbye event, the
        server must notice through liveness polling exactly as it
        would for a real hardware death."""
        if self._proc.is_alive():
            self._proc.kill()

    def alive(self) -> bool:
        return self._proc.is_alive()

    def join(self, timeout: float) -> bool:
        self._proc.join(timeout)
        if self._proc.exitcode is not None:
            # A dead shard can never drain its inbox; without this the
            # queue's feeder thread blocks interpreter exit trying to
            # flush jobs nobody will ever read.
            self._inbox.cancel_join_thread()
        return self._proc.exitcode is not None

    def terminate(self) -> None:
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(1.0)
        self._inbox.cancel_join_thread()


def start_outbox_pump(
    outbox, emit: Callable[[int, object], None]
) -> Callable[[], None]:
    """Drain a shared worker outbox onto ``emit`` from a daemon thread.

    Returns a ``stop()`` that unblocks and ends the pump thread (by
    sending a sentinel through the queue itself, so no poll loop).
    ``emit`` exceptions are swallowed: a closing event loop must not
    kill the pump while late worker events are still in flight.
    """

    def pump() -> None:
        while True:
            try:
                worker_id, event = outbox.get()
            except (EOFError, OSError):  # queue torn down under us
                return
            if (worker_id, event) == _PUMP_STOP:
                return
            try:
                emit(worker_id, event)
            except RuntimeError:  # event loop already closed
                pass

    def stop() -> None:
        outbox.put(_PUMP_STOP)

    threading.Thread(target=pump, name="serve-outbox-pump", daemon=True).start()
    return stop
