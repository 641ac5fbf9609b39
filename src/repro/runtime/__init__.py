"""The serving runtime: batched, frame-synchronous decoding.

Scales the single-microphone architecture of the paper to many
simultaneous audio streams — and IS the search engine of the
single-stream case too (``Recognizer.decode`` feeds a 1-lane bank).
One lane engine (stacked ``(B, S)`` state, one pooled senone
evaluation and one bank-wide token update per step) with one bank per
lexicon family: :class:`~repro.runtime.batch.LaneBank` over the flat
per-word network and :class:`~repro.runtime.lextree.TreeLaneBank` over
the lexicon prefix tree (``network="tree"`` — the large-vocabulary
dictation path), both built through
:meth:`~repro.decoder.recognizer.Recognizer.make_bank`.

The offline driver is
:meth:`~repro.decoder.recognizer.Recognizer.decode_stream`: it serves a
waiting queue with continuous batching — the moment a lane's utterance
finalizes, the next queued utterance is admitted into that lane, so
ragged lengths never idle the datapath (``decode_batch`` is the same
loop over a queue exactly as long as its lanes).  Per-utterance outputs
are bit-identical to the 1-lane
:meth:`~repro.decoder.recognizer.Recognizer.decode` in reference,
hardware and fast modes (see ``tests/test_golden_parity.py`` and
``tests/test_runtime_fast.py``); the matmul-form ``blas`` mode is
word-identical with rounding-tolerance scores
(``tests/test_runtime_blas.py``).

The online driver, :class:`~repro.runtime.serving.ServeLoop`
(:mod:`repro.runtime.serving`), bridges the pull-style lane engine to
a PUSH-style command queue for the async front door
(:mod:`repro.serve`): jobs arrive asynchronously, deadlines early-
retire lanes through :meth:`LaneBank.cancel`, and per-utterance events
fire the moment each lane retires.
"""

from repro.runtime.batch import LaneBank, LaneBankBase
from repro.runtime.lextree import TreeLaneBank
from repro.runtime.serving import (
    CancelJob,
    DecodeJob,
    JobCancelled,
    JobDone,
    JobFailed,
    JobTimedOut,
    LoopStats,
    ServeLoop,
    ServeStopped,
)
from repro.runtime.scoring import (
    BatchBlasScorer,
    BatchFastGmmScorer,
    BatchHardwareScorer,
    BatchReferenceScorer,
    BatchScoringBackend,
)

__all__ = [
    "LaneBank",
    "LaneBankBase",
    "TreeLaneBank",
    "BatchReferenceScorer",
    "BatchHardwareScorer",
    "BatchFastGmmScorer",
    "BatchBlasScorer",
    "BatchScoringBackend",
    "ServeLoop",
    "DecodeJob",
    "CancelJob",
    "JobDone",
    "JobTimedOut",
    "JobCancelled",
    "JobFailed",
    "LoopStats",
    "ServeStopped",
]
