"""The end-to-end recognizer.

Wires the stages of Figure 1 together — phone decode (senone scoring),
word decode (token passing + lattice) and global best path search —
over a chosen scoring backend.  There is ONE recognizer class over ONE
search engine: the lane bank of :mod:`repro.runtime.batch` /
:mod:`repro.runtime.lextree` scoring through the pooled backends of
:mod:`repro.runtime.scoring`.  :meth:`Recognizer.decode` drives a
persistent 1-lane bank frame by frame; :meth:`Recognizer.decode_stream`
(and :meth:`Recognizer.decode_batch`, a stream exactly as long as its
lanes) and the serve loop step wider banks built by the same
:meth:`Recognizer.make_bank` from the same models.  Modes:

* ``mode="reference"`` — double-precision software decode (the paper's
  correctness baseline);
* ``mode="hardware"`` — senone scores flow through the OP-unit models
  (quantized parameters, logadd SRAM) and chain updates through the
  Viterbi-unit model, with cycles/activity/bandwidth accounted;
* ``mode="fast"`` — the four-layer fast-GMM scorer (ablation A1);
* ``mode="blas"`` — matmul-form scoring: the Gaussian quadratic form
  expanded into dense products against stacked senone-major tables
  (``exact=False`` — words match the reference decode, scores agree
  within :data:`~repro.decoder.scorer.BLAS_SCORE_ATOL`).  The
  ``precision`` knob is the dtype of the stored tables: ``"float64"``
  (the default) or ``"float32"`` (half the table bandwidth, drift
  within :data:`~repro.decoder.scorer.FLOAT32_SCORE_ATOL`).

The recognizer is reusable across utterances — per-decode state is
reset at each ``decode*`` call — but runs ONE decode at a time: its
scoring backend and hardware units are shared by every bank it builds.
:meth:`Recognizer.twin` gives a second recognizer over the same models
for anything that must run alongside (the server takes one per shard).

:mod:`repro.runtime` imports this module for the result and validator
types, so the runtime classes used here are imported where they are
used, not at module level.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.core.opunit import OpUnit, OpUnitSpec
from repro.core.viterbi_unit import ViterbiUnit, ViterbiUnitSpec
from repro.decoder.beam import check_count
from repro.decoder.best_path import find_best_path
from repro.decoder.fast_gmm import FastGmmConfig, FastGmmModel, FastGmmStats
from repro.decoder.lextree import TreeLexiconNetwork
from repro.decoder.network import FlatLexiconNetwork
from repro.decoder.phone_decode import PhoneDecodeStage
from repro.decoder.scorer import ScoringStats
from repro.decoder.word_decode import DecoderConfig, FrameStats, WordDecodeStage
from repro.hmm.senone import SenonePool, check_blas_precision
from repro.hmm.topology import HmmTopology
from repro.lexicon.dictionary import PronunciationDictionary
from repro.lexicon.triphone import SenoneTying
from repro.lm.ngram import NGramModel
from repro.obs.telemetry import DecodeTelemetry
from repro.obs.trace import Trace
from repro.quant.float_formats import IEEE_SINGLE, FloatFormat

__all__ = [
    "BatchDecodeResult",
    "DecodeTiming",
    "Recognizer",
    "RecognitionResult",
    "SUPPORTED_NETWORKS",
    "build_network",
    "validate_precision",
    "validate_utterance_features",
]

_QUEUE_END = object()  # exhaustion sentinel; None in the queue must still error

#: The lexicon-network families the recognizer can search:
#: ``"flat"`` (one HMM chain per word) and ``"tree"`` (the shared
#: prefix tree, the paper's large-vocabulary path).
SUPPORTED_NETWORKS = ("flat", "tree")

#: Either compiled network family (the ``network=`` object surface).
AnyLexiconNetwork = FlatLexiconNetwork | TreeLexiconNetwork


def build_network(
    network: str,
    dictionary: PronunciationDictionary,
    tying: SenoneTying,
    topology: HmmTopology | None = None,
) -> AnyLexiconNetwork:
    """Compile the dictionary into the chosen network family.

    The single ``network=`` validator behind ``Recognizer.create``,
    mirroring the ``SUPPORTED_MODES`` contract: unknown values raise a
    :class:`ValueError` naming the supported networks.
    """
    if network not in SUPPORTED_NETWORKS:
        supported = ", ".join(repr(n) for n in SUPPORTED_NETWORKS)
        raise ValueError(
            f"unknown network {network!r}; supported networks: {supported}"
        )
    if network == "tree":
        return TreeLexiconNetwork.build(dictionary, tying, topology)
    return FlatLexiconNetwork.build(dictionary, tying, topology)


def validate_precision(mode: str, precision: str) -> None:
    """Reject precision/mode combinations no backend implements.

    The ``precision`` knob is the dtype of the BLAS tables
    (:data:`~repro.hmm.senone.BLAS_PRECISIONS`), so it only has meaning
    in ``mode="blas"``; asking any other backend for float32 tables
    would be silently ignored — error out instead.
    """
    check_blas_precision(precision)
    if precision != "float64" and mode != "blas":
        raise ValueError(
            f"precision={precision!r} requires mode='blas' "
            f"(the {mode!r} backend has no reduced-precision tables)"
        )


def validate_utterance_features(
    dim: int, index: int | None, features: np.ndarray
) -> np.ndarray:
    """One utterance's features as the ``(T, dim)`` float64 the lane
    bank expects — the single validator behind every ``decode*``
    method, the serve loop, the lane bank's ``admit`` and the server's
    submit, so the accepted shape rules cannot drift apart.  ``index``
    labels the utterance in multi-utterance error messages (None for a
    lone decode)."""
    prefix = "" if index is None else f"utterance {index}: "
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 2 or f.shape[1] != dim:
        raise ValueError(
            f"{prefix}features must be (T, {dim}), got {f.shape}"
        )
    if f.shape[0] == 0:
        raise ValueError(f"{prefix}cannot decode an empty utterance")
    # Features come from outside the program (wire, audio front end); a
    # NaN/inf cell indexes the hardware log-add table out of range and
    # takes the whole shard down, so it is refused at the door.
    if not np.isfinite(f).all():
        raise ValueError(f"{prefix}features must be finite (found NaN or inf)")
    return f


@dataclass(frozen=True)
class DecodeTiming:
    """Wall-clock milestones of one utterance's decode.

    All stamps come from one monotonic clock (``time.monotonic``, which
    is system-wide on Linux, so stamps taken in different worker
    processes of a sharded server remain comparable).  ``enqueued_at``
    is when the utterance entered a waiting queue (for a sequential
    decode it equals ``admitted_at``), ``admitted_at`` is when a lane
    started decoding it, ``finished_at`` when its result was packaged.
    Populated by the lane bank at retirement, so serving metrics
    (queue wait, decode latency, real-time factor) need no side tables.
    """

    enqueued_at: float
    admitted_at: float
    finished_at: float

    @property
    def wait_s(self) -> float:
        """Enqueue-to-admission wait (0 for a sequential decode)."""
        return self.admitted_at - self.enqueued_at

    @property
    def decode_s(self) -> float:
        """Admission-to-result decode wall time."""
        return self.finished_at - self.admitted_at

    @property
    def total_s(self) -> float:
        """Enqueue-to-result latency."""
        return self.finished_at - self.enqueued_at

    def rtf(self, audio_seconds: float) -> float:
        """Real-time factor: decode wall time per second of audio."""
        return self.decode_s / audio_seconds if audio_seconds > 0 else 0.0


@dataclass
class RecognitionResult:
    """Everything one decode produced."""

    words: tuple[str, ...]
    score: float
    frames: int
    frame_stats: list[FrameStats]
    scoring_stats: ScoringStats
    lattice_size: int
    frame_period_s: float
    op_unit_activities: list[dict[str, float]] | None = None
    viterbi_activity: dict[str, float] | None = None
    frame_critical_cycles: list[int] | None = None
    #: Four-layer work counters (fast mode only): frames skipped,
    #: Gaussians touched, dimensions multiplied, senones approximated.
    fast_stats: FastGmmStats | None = None
    #: Wall-clock milestones (enqueue wait, decode time) stamped by the
    #: runtime that produced this result; excluded from equality so two
    #: decodes of the same utterance still compare equal.
    timing: DecodeTiming | None = field(default=None, compare=False)
    #: Decode-depth work counters (active states, senones scored,
    #: fast-layer hits, stage wall-clock split) packaged by the lane
    #: bank at retirement.  Observability only: excluded from equality
    #: like ``timing``.
    telemetry: "DecodeTelemetry | None" = field(default=None, compare=False)
    #: Request spans attached by the serving stack (worker-side spans
    #: ride here across the process boundary before the server merges
    #: them).  Observability only: excluded from equality.
    trace: "Trace | None" = field(default=None, compare=False)

    @property
    def audio_seconds(self) -> float:
        return self.frames * self.frame_period_s

    @property
    def rtf(self) -> float | None:
        """Real-time factor of this decode (None without timing)."""
        if self.timing is None:
            return None
        return self.timing.rtf(self.audio_seconds)

    @property
    def mean_active_senone_fraction(self) -> float:
        return self.scoring_stats.mean_active_fraction

    @property
    def mean_active_states(self) -> float:
        if not self.frame_stats:
            return 0.0
        return float(np.mean([s.active_states for s in self.frame_stats]))


@dataclass
class BatchDecodeResult:
    """One multi-utterance decode: per-utterance results plus the
    schedule and the pooled accounting.

    ``results`` is in submission order; ``lane_of``/``admit_steps``
    record which lane served each utterance and at which
    frame-synchronous step it was admitted — inspection only, with no
    bearing on any utterance's decode output.
    """

    results: list[RecognitionResult]
    frames_processed: int  # real frames decoded across all utterances
    steps: int  # frame-synchronous steps taken
    max_lanes: int  # lanes the bank was built with
    lane_of: list[int]
    admit_steps: list[int]
    op_unit_activities: list[dict[str, float]] | None = None
    viterbi_activity: dict[str, float] | None = None
    frame_critical_cycles: list[int] | None = None

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index: int) -> RecognitionResult:
        return self.results[index]

    @property
    def words(self) -> list[tuple[str, ...]]:
        return [r.words for r in self.results]

    @property
    def audio_seconds(self) -> float:
        """Audio decoded, from each utterance's TRUE length."""
        return float(sum(r.audio_seconds for r in self.results))

    @property
    def utilization(self) -> float:
        """Fraction of lane-steps that decoded a real frame.

        Over the bank's ``max_lanes``: ``1.0`` means the datapath never
        idled.  A fixed batch of ragged lengths sits below that (short
        lanes finish early and nothing refills them); with a queue
        deeper than the lanes it approaches 1.0 — the whole point of
        refilling lanes mid-decode.
        """
        slots = self.steps * self.max_lanes
        return self.frames_processed / slots if slots else 0.0


class Recognizer:
    """The staged decoder over one compiled network (see module
    docstring): the one place ``mode``, ``precision`` and the models
    are validated and turned into a scoring backend, and the one bank
    factory, for single utterances, batches, streams and the serve
    loop alike.

    ``fast_model`` shares an already-built fast-GMM model (pass
    ``tying`` for CI selection and ``fast_config`` for the layer
    thresholds otherwise).
    """

    SUPPORTED_MODES = ("reference", "hardware", "fast", "blas")
    SUPPORTED_NETWORKS = SUPPORTED_NETWORKS

    def __init__(
        self,
        network: AnyLexiconNetwork,
        pool: SenonePool,
        lm: NGramModel,
        config: DecoderConfig | None = None,
        mode: str = "reference",
        storage_format: FloatFormat = IEEE_SINGLE,
        num_unit_pairs: int = 2,
        tying: SenoneTying | None = None,
        fast_config: FastGmmConfig | None = None,
        frame_period_s: float = 0.010,
        precision: str = "float64",
        fast_model: FastGmmModel | None = None,
    ) -> None:
        from repro.runtime.scoring import (
            BatchBlasScorer,
            BatchFastGmmScorer,
            BatchHardwareScorer,
            BatchReferenceScorer,
        )

        if mode not in self.SUPPORTED_MODES:
            supported = ", ".join(repr(m) for m in self.SUPPORTED_MODES)
            raise ValueError(
                f"unknown mode {mode!r}; supported modes: {supported}"
            )
        validate_precision(mode, precision)
        if fast_config is not None and mode != "fast":
            # Only the fast backend has layers; any other would drop
            # the thresholds without a word.
            raise ValueError(
                f"fast_config requires mode='fast' "
                f"(the {mode!r} backend has no fast-GMM layers)"
            )
        if not (math.isfinite(frame_period_s) and frame_period_s > 0):
            # audio_seconds is frames x period; every real-time factor
            # divides by those seconds.
            raise ValueError(
                f"frame_period_s must be finite and positive, "
                f"got {frame_period_s!r}"
            )
        if not isinstance(network, AnyLexiconNetwork):
            raise TypeError(
                "network must be a FlatLexiconNetwork or TreeLexiconNetwork, "
                f"got {type(network).__name__}"
            )
        if pool.num_senones != network.num_senones:
            raise ValueError(
                f"pool has {pool.num_senones} senones, network expects "
                f"{network.num_senones}"
            )
        if tuple(lm.vocabulary.words()) != tuple(network.words):
            raise ValueError("LM vocabulary order must match network words")
        if isinstance(network, TreeLexiconNetwork) and lm.order > 2:
            # A leaf exit knows one word of history; a trigram would
            # silently decode as a bigram (and score </s> as a trigram).
            raise ValueError(
                f"network='tree' supports LM order <= 2, got order {lm.order}"
            )
        if config is not None and not isinstance(config, DecoderConfig):
            raise TypeError(
                f"config must be a DecoderConfig, got {type(config).__name__}"
            )
        self.network = network
        self.network_kind = (
            "tree" if isinstance(network, TreeLexiconNetwork) else "flat"
        )
        self.pool = pool
        self.lm = lm
        self.mode = mode
        self.storage_format = storage_format
        self.config = config or DecoderConfig()
        self.frame_period_s = frame_period_s
        self.tying = tying
        self.precision = precision
        self.op_units: list[OpUnit] = []
        self.viterbi_unit: ViterbiUnit | None = None

        def stored() -> SenonePool:
            """The pool as stored in flash (quantized when narrow)."""
            if storage_format.mantissa_bits == 23:
                return pool
            return pool.quantized(storage_format)

        if mode == "hardware":
            check_count("num_unit_pairs", num_unit_pairs, 1)
            spec = OpUnitSpec(feature_dim=pool.dim)
            self.op_units = [OpUnit(spec) for _ in range(num_unit_pairs)]
            table = pool.gaussian_table(storage_format)
            self.scorer = BatchHardwareScorer(self.op_units, table)
            self.viterbi_unit = ViterbiUnit(ViterbiUnitSpec())
        elif mode == "fast":
            self.scorer = BatchFastGmmScorer(
                fast_model
                or FastGmmModel(stored(), tying=tying, config=fast_config)
            )
        elif mode == "blas":
            self.scorer = BatchBlasScorer(stored(), precision=precision)
        else:
            self.scorer = BatchReferenceScorer(stored())
        self.phone_stage = PhoneDecodeStage(self.scorer)
        self.word_stage = WordDecodeStage(self)

    def set_precision(self, precision: str) -> bool:
        """Swap the blas scoring tables to ``precision``; True if changed.

        The brownout control of the serve loop.  Safe between the steps
        of a running bank: in-flight utterances finish on the new
        tables — the blas scorer ties every block it scored ahead for a
        lane to the table format it was scored on, and rescores from
        the lane's next frame after a swap — and the scorer OBJECT
        stays (banks hold a reference to it; lanes in flight measure
        their kernel steps against admission marks of its counters);
        only its table format changes.  Other modes have no precision
        axis and ignore a known precision; an unknown one raises
        ``ValueError`` in every mode.
        """
        check_blas_precision(precision)
        if self.mode != "blas" or precision == self.precision:
            return False
        self.scorer.pool.blas_tables(precision)  # built here, not on the next step
        self.precision = self.scorer.precision = precision
        return True

    @classmethod
    def create(
        cls,
        dictionary: PronunciationDictionary,
        pool: SenonePool,
        lm: NGramModel,
        tying: SenoneTying,
        topology: HmmTopology | None = None,
        network: str = "flat",
        **kwargs,
    ):
        """Build the network from a dictionary and wire everything.

        ``network`` selects the lexicon family next to ``mode=``:
        ``"flat"`` (per-word HMM chains) or ``"tree"`` (the shared
        prefix tree — the large-vocabulary path).
        """
        net = build_network(network, dictionary, tying, topology)
        return cls(network=net, pool=pool, lm=lm, tying=tying, **kwargs)

    def twin(self) -> "Recognizer":
        """A second recognizer over the SAME models, with its own
        scoring state.

        Shares the compiled network, pool, LM and — in fast mode — this
        recognizer's OWN :class:`~repro.decoder.fast_gmm.FastGmmModel`
        (the VQ codebook is clustered once and both score through
        identical shortlists and CI maps, a prerequisite for
        bit-identical outputs); owns its scorer, hardware units and
        1-lane stage.  A recognizer runs one decode at a time, so
        whatever must decode alongside this one (each server shard, a
        stream beside a live ``StreamingRecognizer``) takes a twin.
        """
        return Recognizer(
            network=self.network,
            pool=self.pool,
            lm=self.lm,
            config=self.config,
            mode=self.mode,
            storage_format=self.storage_format,
            num_unit_pairs=max(len(self.op_units), 1),
            tying=self.tying,
            frame_period_s=self.frame_period_s,
            precision=self.precision,
            fast_model=self.scorer.model if self.mode == "fast" else None,
        )

    # The frozen perf harness (benchmarks/perf/workloads.py) calls it.
    as_continuous = twin

    def make_bank(self, num_lanes: int):
        """A lane bank matched to this recognizer's network family.

        The single bank factory behind :meth:`decode`,
        :meth:`decode_batch`, :meth:`decode_stream` and the serve loop,
        so every driver picks up the tree token bank automatically when
        the recognizer was built with ``network="tree"``.
        """
        if self.network_kind == "tree":
            from repro.runtime.lextree import TreeLaneBank

            return TreeLaneBank(self, num_lanes)
        from repro.runtime.batch import LaneBank

        return LaneBank(self, num_lanes)

    def _validate_features(
        self, index: int | None, features: np.ndarray
    ) -> np.ndarray:
        """One utterance's features as the (T, L) float64 the bank expects."""
        return validate_utterance_features(self.pool.dim, index, features)

    def _reset_accounting(self) -> None:
        """Clear pooled hardware accounting before a decode."""
        self.scorer.reset()
        if self.viterbi_unit is not None:
            self.viterbi_unit.reset_counters()

    def _pooled_accounting(self) -> dict:
        """Hardware accounting since the last reset (None outside hardware mode)."""
        return {
            "op_unit_activities": (
                [u.activity() for u in self.op_units] if self.op_units else None
            ),
            "viterbi_activity": (
                self.viterbi_unit.activity() if self.viterbi_unit else None
            ),
            "frame_critical_cycles": (
                list(self.scorer.frame_critical_cycles)
                if self.mode == "hardware"
                else None
            ),
        }

    # ------------------------------------------------------------------
    def decode(self, features: np.ndarray) -> RecognitionResult:
        """Recognize one utterance from its feature matrix (T, L)."""
        feats = self._validate_features(None, features)
        self.word_stage.reset()
        # The stage's lane is fed frame by frame through the
        # `process_frame` seam, but here the whole utterance is known:
        # tell the scorer, so it may score ahead exactly as it does for
        # a lane of `decode_stream`.
        self.scorer.admit_lane(0, feats)
        process_frame = self.word_stage.process_frame
        for frame in feats:
            process_frame(frame)
        best = find_best_path(
            self.word_stage.lattice,
            self.lm,
            self.network,
            feats.shape[0] - 1,
            lm_scale=self.config.lm_scale,
        )
        result = self.word_stage.bank.package(0, best)
        return dataclasses.replace(result, **self._pooled_accounting())

    def decode_batch(self, features: list[np.ndarray]) -> BatchDecodeResult:
        """Decode ``B`` utterances frame-synchronously, one lane each.

        ``features`` holds one ``(T_b, L)`` matrix per utterance;
        lengths may be ragged.  A fixed batch is a stream exactly as
        long as its lanes — ``decode_stream(features,
        max_lanes=len(features))`` — so ``steps`` is the longest
        utterance and nothing is refilled.  Once the short lanes retire
        the bank compacts to the lanes still decoding, so the pooled
        hardware accounting (``viterbi_activity``) charges the Viterbi
        unit for the lanes that exist at each step, not for
        ``len(features)`` rows throughout.
        """
        if not features:
            raise ValueError("cannot decode an empty batch")
        return self.decode_stream(features, max_lanes=len(features))

    def decode_stream(
        self,
        features: Iterable[np.ndarray],
        max_lanes: int = 8,
    ) -> BatchDecodeResult:
        """Decode a stream of utterances with continuous lane refill.

        ``features`` is any iterable of ``(T, L)`` feature matrices —
        a list, or a lazy generator acting as the waiting queue; it is
        consumed exactly as lanes free up.  ``max_lanes`` bounds the
        number of simultaneously decoding utterances (the stacked
        state's ``B``).

        FIFO admission, and a bank exactly as wide as its occupied
        lanes (the serve loop's rule too): an utterance is pulled only
        while fewer than ``max_lanes`` lanes are occupied, into the
        lowest free lane or a lane the bank grows by
        (:meth:`~repro.runtime.batch.LaneBankBase.open_lane`), so the
        first ``max_lanes`` are admitted before step 0 and every
        retirement pulls the next one into the freed lane (its frame 0
        is processed on the very next step).  A lane left free because
        the queue is DRAINED is dropped before the next step
        (:meth:`~repro.runtime.batch.LaneBankBase.compact`) instead of
        being stepped dead through the tail.

        The scheduler only decides WHEN a lane is (re)seeded; every
        per-frame operation is the bank's, per-lane scorer state is
        reset through the backend lifecycle hooks at every reseed.
        Results come back in submission order and each utterance's
        words, path score, frame statistics and fast-GMM work counters
        are bit-identical to :meth:`decode` (blas: words identical,
        scores within tolerance) for any arrival order and any
        ``max_lanes`` — enforced by ``tests/test_golden_parity.py``.
        """
        check_count("max_lanes", max_lanes, 1)
        queue = iter(features)
        self._reset_accounting()
        bank = self.make_bank(1)
        admitted = 0
        lane_of: list[int] = []  # the lane at admission, before any compaction
        admit_steps: list[int] = []
        finished: dict[int, RecognitionResult] = {}
        while True:
            while bank.occupied < max_lanes:
                nxt = next(queue, _QUEUE_END)
                if nxt is _QUEUE_END:
                    break
                feats = self._validate_features(admitted, nxt)
                lane = bank.open_lane()
                bank.admit(lane, admitted, feats)
                lane_of.append(lane)
                admit_steps.append(bank.steps)
                admitted += 1
            if not bank.any_active:
                break
            if not bank.active.all():
                bank.compact()
            for lane in bank.step():
                utt = int(bank.lane_utt[lane])
                finished[utt] = bank.retire(lane)
        if not admitted:
            raise ValueError("cannot decode an empty stream")

        return BatchDecodeResult(
            results=[finished[i] for i in range(admitted)],
            frames_processed=bank.frames_processed,
            steps=bank.steps,
            max_lanes=min(max_lanes, admitted),
            lane_of=lane_of,
            admit_steps=admit_steps,
            **self._pooled_accounting(),
        )
