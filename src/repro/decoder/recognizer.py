"""The end-to-end recognizer facade.

Wires the stages of Figure 1 together — phone decode (senone scoring),
word decode (token passing + lattice) and global best path search —
over a chosen scoring backend.  There is ONE search engine: the lane
bank of :mod:`repro.runtime.batch` / :mod:`repro.runtime.lextree`
scoring through the pooled backends of :mod:`repro.runtime.scoring`.
:meth:`Recognizer.decode` drives a persistent 1-lane bank frame by
frame; the batched runtimes drive wider banks built by the same
:meth:`RecognizerBase.make_bank` from the same models.  Modes:

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
  ``precision`` knob selects the stored tables: ``"float64"`` (the
  default), ``"float32"`` (half the table bandwidth, drift within
  :data:`~repro.decoder.scorer.FLOAT32_SCORE_ATOL`) or ``"int8"``
  (symmetric per-row codes, ~1/7 the table bytes, drift within
  :data:`~repro.decoder.scorer.INT8_SCORE_ATOL`).

The recognizer is reusable across utterances; per-utterance state is
reset at each :meth:`Recognizer.decode`.

:mod:`repro.runtime` imports this module for the result and validator
types, so the runtime classes used here are imported where they are
used, not at module level.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.core.opunit import OpUnit, OpUnitSpec
from repro.core.viterbi_unit import ViterbiUnit, ViterbiUnitSpec
from repro.decoder.best_path import find_best_path
from repro.decoder.fast_gmm import FastGmmConfig, FastGmmModel, FastGmmStats
from repro.decoder.lextree import TreeLexiconNetwork
from repro.decoder.network import FlatLexiconNetwork
from repro.decoder.phone_decode import PhoneDecodeStage
from repro.decoder.scorer import ScoringStats
from repro.decoder.word_decode import DecoderConfig, FrameStats, WordDecodeStage
from repro.hmm.senone import BLAS_PRECISIONS, SenonePool
from repro.hmm.topology import HmmTopology
from repro.lexicon.dictionary import PronunciationDictionary
from repro.lexicon.triphone import SenoneTying
from repro.lm.ngram import NGramModel
from repro.obs.telemetry import DecodeTelemetry
from repro.obs.trace import Trace
from repro.quant.float_formats import IEEE_SINGLE, FloatFormat

__all__ = [
    "DecodeTiming",
    "Recognizer",
    "RecognizerBase",
    "RecognitionResult",
    "SUPPORTED_NETWORKS",
    "build_network",
    "network_kind_of",
    "resolve_storage_pool",
    "validate_decoder_models",
    "validate_precision",
    "validate_utterance_features",
]

#: The lexicon-network families every decoder front end can search:
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

    The single ``network=`` validator behind ``Recognizer.create`` and
    ``BatchRecognizer.create``, mirroring the ``SUPPORTED_MODES``
    contract: unknown values raise a :class:`ValueError` naming the
    supported networks.
    """
    if network not in SUPPORTED_NETWORKS:
        supported = ", ".join(repr(n) for n in SUPPORTED_NETWORKS)
        raise ValueError(
            f"unknown network {network!r}; supported networks: {supported}"
        )
    if network == "tree":
        return TreeLexiconNetwork.build(dictionary, tying, topology)
    return FlatLexiconNetwork.build(dictionary, tying, topology)


def network_kind_of(network: AnyLexiconNetwork) -> str:
    """The ``network=`` axis value a compiled network belongs to."""
    return "tree" if isinstance(network, TreeLexiconNetwork) else "flat"


def validate_precision(mode: str, precision: str) -> None:
    """Reject precision/mode combinations no backend implements.

    The ``precision`` knob selects reduced-precision BLAS tables
    (:data:`~repro.hmm.senone.BLAS_PRECISIONS`), so it only has meaning
    in ``mode="blas"``; asking any other backend for float32/int8
    tables would be silently ignored — error out instead.  Shared by
    the sequential and batched recognizers so the accepted surface
    cannot drift apart.
    """
    if precision not in BLAS_PRECISIONS:
        supported = ", ".join(repr(p) for p in BLAS_PRECISIONS)
        raise ValueError(
            f"unknown precision {precision!r}; supported: {supported}"
        )
    if precision != "float64" and mode != "blas":
        raise ValueError(
            f"precision={precision!r} requires mode='blas' "
            f"(the {mode!r} backend has no reduced-precision tables)"
        )


def validate_utterance_features(
    dim: int, index: int | None, features: np.ndarray
) -> np.ndarray:
    """One utterance's features as the ``(T, dim)`` float64 every
    decoder front end expects — the single validator behind the
    sequential recognizer, the batched runtimes, the serve loop and
    the server's submit, so the accepted shape rules cannot drift
    apart.  ``index`` labels the utterance in multi-utterance error
    messages (None for a lone decode)."""
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


def resolve_storage_pool(pool: SenonePool, storage_format: FloatFormat) -> SenonePool:
    """The pool as stored in flash (quantized when narrow).

    Shared by the sequential and batched recognizers so both always
    score through the same stored bits.
    """
    if storage_format.mantissa_bits == 23:
        return pool
    return pool.quantized(storage_format)


def validate_decoder_models(
    network: AnyLexiconNetwork, pool: SenonePool, lm: NGramModel
) -> None:
    """The invariants every decoder front end relies on."""
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


@dataclass(frozen=True)
class DecodeTiming:
    """Wall-clock milestones of one utterance's decode.

    All stamps come from one monotonic clock (``time.monotonic``, which
    is system-wide on Linux, so stamps taken in different worker
    processes of a sharded server remain comparable).  ``enqueued_at``
    is when the utterance entered a waiting queue (for a sequential
    decode it equals ``admitted_at``), ``admitted_at`` is when a lane
    started decoding it, ``finished_at`` when its result was packaged.
    Populated by all three runtimes, so serving metrics (queue wait,
    decode latency, real-time factor) need no side tables.
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
    def peak_active_senone_fraction(self) -> float:
        return self.scoring_stats.peak_active_fraction

    @property
    def mean_active_states(self) -> float:
        if not self.frame_stats:
            return 0.0
        return float(np.mean([s.active_states for s in self.frame_stats]))


class RecognizerBase:
    """What every decoder front end is built on: the compiled network,
    the models, the scoring backend chosen by ``mode`` and the lane-bank
    factory over them.  The one place ``mode`` is validated and turned
    into a backend, for :class:`Recognizer` and the batched runtimes
    alike.
    """

    SUPPORTED_MODES = ("reference", "hardware", "fast", "blas")
    SUPPORTED_NETWORKS = SUPPORTED_NETWORKS

    def __init__(
        self,
        network: AnyLexiconNetwork,
        pool: SenonePool,
        lm: NGramModel,
        config: DecoderConfig | None,
        mode: str,
        storage_format: FloatFormat,
        num_unit_pairs: int,
        frame_period_s: float,
        tying: SenoneTying | None,
        fast_config: FastGmmConfig | None,
        fast_model: FastGmmModel | None,
        precision: str,
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
        validate_decoder_models(network, pool, lm)
        if config is not None and not isinstance(config, DecoderConfig):
            raise TypeError(
                f"config must be a DecoderConfig, got {type(config).__name__}"
            )
        self.network = network
        self.network_kind = network_kind_of(network)
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

        if mode == "hardware":
            if num_unit_pairs < 1:
                raise ValueError(f"num_unit_pairs must be >= 1, got {num_unit_pairs}")
            spec = OpUnitSpec(feature_dim=pool.dim)
            self.op_units = [OpUnit(spec) for _ in range(num_unit_pairs)]
            table = pool.gaussian_table(storage_format)
            self.scorer = BatchHardwareScorer(self.op_units, table)
            self.viterbi_unit = ViterbiUnit(ViterbiUnitSpec())
        elif mode == "fast":
            self.scorer = BatchFastGmmScorer(
                fast_model
                or FastGmmModel(
                    resolve_storage_pool(pool, storage_format),
                    tying=tying,
                    config=fast_config,
                )
            )
        elif mode == "blas":
            self.scorer = BatchBlasScorer(
                resolve_storage_pool(pool, storage_format), precision=precision
            )
        else:
            self.scorer = BatchReferenceScorer(
                resolve_storage_pool(pool, storage_format)
            )

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

    def make_bank(self, num_lanes: int):
        """A lane bank matched to this recognizer's network family.

        The single bank factory behind :meth:`Recognizer.decode`,
        :meth:`~repro.runtime.batch.BatchRecognizer.decode_batch`,
        :meth:`~repro.runtime.continuous.ContinuousBatchRecognizer.decode_stream`
        and the serve loop, so every runtime picks up the tree token
        bank automatically when the recognizer was built with
        ``network="tree"``.
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


class Recognizer(RecognizerBase):
    """Facade over the staged decoder (see module docstring)."""

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
    ) -> None:
        super().__init__(
            network, pool, lm, config, mode, storage_format, num_unit_pairs,
            frame_period_s, tying, fast_config, None, precision,
        )
        self.phone_stage = PhoneDecodeStage(self.scorer)
        self.word_stage = WordDecodeStage(self)

    # ------------------------------------------------------------------
    def as_batch(self):
        """A :class:`~repro.runtime.BatchRecognizer` twin of this decoder.

        Shares the compiled network and models (including the fast-GMM
        model in fast mode); decodes B utterances frame-synchronously,
        each output independent of the batch it rode in.
        """
        from repro.runtime.batch import BatchRecognizer

        return BatchRecognizer.from_recognizer(self)

    def as_continuous(self):
        """A continuous-batching twin of this decoder.

        Shares the compiled network and models (including the fast-GMM
        model in fast mode); serves an utterance queue with mid-decode
        lane refill
        (:meth:`~repro.runtime.continuous.ContinuousBatchRecognizer.decode_stream`),
        each output independent of arrival order and lane count.
        """
        from repro.runtime.continuous import ContinuousBatchRecognizer

        return ContinuousBatchRecognizer.from_recognizer(self)

    # ------------------------------------------------------------------
    def decode(self, features: np.ndarray) -> RecognitionResult:
        """Recognize one utterance from its feature matrix (T, L)."""
        feats = self._validate_features(None, features)
        self.word_stage.reset()
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
