"""Continuous batching: mid-decode lane refill from a waiting queue.

:class:`~repro.runtime.batch.BatchRecognizer` drains each batch to its
longest utterance — retired lanes idle exactly the way ASRPU-style
accelerators avoid via work queues.  This module keeps the datapath
busy instead: :class:`ContinuousBatchRecognizer.decode_stream` pulls
utterances from a waiting queue (any iterable, consumed lazily) and
admits the next one into a lane the moment that lane's current
utterance finalizes, so with enough waiting work every
frame-synchronous step advances ``max_lanes`` real frames.

Admission policy
----------------
FIFO: the first ``max_lanes`` utterances are admitted at step 0; every
retirement immediately pulls the next utterance from the queue into
the freed lane (the new utterance's frame 0 is processed on the very
next step).  Results are returned in submission order regardless of
which lane served an utterance or when it finished.  Once the queue is
DRAINED a freed lane can never be refilled, so the bank compacts to
its occupied lanes (:meth:`~repro.runtime.batch.LaneBank.compact`)
instead of stepping dead rows through the tail.

Parity guarantee
----------------
The scheduler only decides WHEN a lane is (re)seeded; every per-frame
operation runs through the same :class:`~repro.runtime.batch.LaneBank`
kernels as the drained batch runtime — elementwise or per-row math
over the stacked ``(B, S)`` state, per-lane frame counters, per-lane
lattices; per-lane scorer state (fast mode's CDS cache) is reset
through the backend lifecycle hooks at every reseed.  Each utterance's
words, path score, per-frame statistics and fast-GMM work counters are
therefore bit-identical to a 1-lane
:class:`~repro.decoder.recognizer.Recognizer.decode`, in reference,
hardware and fast modes, for any arrival order and any ``max_lanes``
(enforced by ``tests/test_golden_parity.py``,
``tests/test_runtime_continuous.py`` and ``tests/test_runtime_fast.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from repro.decoder.recognizer import RecognitionResult
from repro.runtime.batch import BatchDecodeResult, BatchRecognizer

__all__ = ["ContinuousBatchRecognizer", "ContinuousDecodeResult"]

_QUEUE_END = object()  # exhaustion sentinel; None in the queue must still error


@dataclass
class ContinuousDecodeResult(BatchDecodeResult):
    """One continuous-batching run over a stream of utterances.

    Extends :class:`~repro.runtime.batch.BatchDecodeResult` (container
    protocol, ``words``, ``audio_seconds``, pooled hardware accounting)
    with the schedule: ``results`` is in submission order, and
    ``lane_of``/``admit_steps`` record which lane served each utterance
    and at which frame-synchronous step it was admitted — inspection
    only, with no bearing on any utterance's decode output.
    """

    max_lanes: int = 0  # lanes the bank was built with
    lane_of: list[int] = field(default_factory=list)
    admit_steps: list[int] = field(default_factory=list)

    @property
    def utilization(self) -> float:
        """Fraction of lane-steps that decoded a real frame.

        Over the bank's ``max_lanes`` (not the utterance count): with a
        deep enough queue this approaches 1.0 — the whole point of
        refilling lanes mid-decode — while the drained
        :class:`~repro.runtime.batch.BatchDecodeResult.utilization` of
        the same ragged workload sits well below it.
        """
        slots = self.steps * self.max_lanes
        return self.frames_processed / slots if slots else 0.0


class ContinuousBatchRecognizer(BatchRecognizer):
    """A batched recognizer that refills lanes mid-decode.

    Construction mirrors :class:`~repro.runtime.batch.BatchRecognizer`
    (same modes, same models, ``create``/``from_recognizer``
    classmethods); :meth:`decode_batch` remains available for
    drain-to-longest decoding of a fixed batch, while
    :meth:`decode_stream` serves an utterance queue continuously.
    """

    def decode_stream(
        self,
        features: Iterable[np.ndarray],
        max_lanes: int = 8,
    ) -> ContinuousDecodeResult:
        """Decode a stream of utterances with continuous lane refill.

        ``features`` is any iterable of ``(T, L)`` feature matrices —
        a list, or a lazy generator acting as the waiting queue; it is
        consumed exactly as lanes free up.  ``max_lanes`` bounds the
        number of simultaneously decoding utterances (the stacked
        state's ``B``).  Returns per-utterance results in submission
        order, each independent of what shared the bank with it.
        """
        if max_lanes < 1:
            raise ValueError(f"max_lanes must be >= 1, got {max_lanes}")
        queue: Iterator[np.ndarray] = iter(features)

        # Seed up to max_lanes utterances; a stream shorter than the
        # lane budget gets a bank its own size (no dead lanes).
        first: list[np.ndarray] = []
        for raw in queue:
            first.append(self._validate_features(len(first), raw))
            if len(first) == max_lanes:
                break
        if not first:
            raise ValueError("cannot decode an empty stream")

        self._reset_accounting()
        bank = self.make_bank(len(first))
        built_lanes = bank.num_lanes
        lane_of: list[int] = []
        admit_steps: list[int] = []
        for lane, f in enumerate(first):
            bank.admit(lane, lane, f)
            lane_of.append(lane)
            admit_steps.append(0)
        admitted = len(first)

        finished: dict[int, RecognitionResult] = {}
        drained = False
        while bank.any_active:
            retired = False
            for lane in bank.step():
                utt = int(bank.lane_utt[lane])
                finished[utt] = bank.retire(lane)
                retired = True
                nxt = next(queue, _QUEUE_END)
                if nxt is _QUEUE_END:
                    drained = True
                else:
                    bank.admit(lane, admitted, self._validate_features(admitted, nxt))
                    lane_of.append(lane)
                    admit_steps.append(bank.steps)
                    admitted += 1
            # Lane compaction: once the waiting queue is drained a
            # freed lane can never be refilled, so shrink the bank to
            # its occupied lanes instead of stepping dead rows through
            # the tail.  (lane_of/admit_steps keep the PRE-compaction
            # lane ids each utterance was admitted into.)
            if drained and retired and bank.any_active:
                bank.compact()

        return ContinuousDecodeResult(
            results=[finished[i] for i in range(admitted)],
            frames_processed=bank.frames_processed,
            steps=bank.steps,
            max_lanes=built_lanes,
            lane_of=lane_of,
            admit_steps=admit_steps,
            **self._pooled_accounting(),
        )
