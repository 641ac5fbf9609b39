"""The staged decoder (Figure 1): phone decode, word decode, best path.

The search engine is the lane bank of :mod:`repro.runtime`; this
package holds the networks, the per-lane kernels, the fast-GMM model,
the result types, the one recognizer class that drives the bank at
every width and the streaming facade over its 1-lane stage.
"""

from repro.decoder.beam import BeamConfig, apply_beam
from repro.decoder.best_path import BestPath, find_best_path
from repro.decoder.fast_gmm import (
    FastGmmConfig,
    FastGmmLaneState,
    FastGmmModel,
    FastGmmStats,
    equivalent_activity,
)
from repro.decoder.lattice import WordExit, WordLattice
from repro.decoder.lextree import TreeLexiconNetwork
from repro.decoder.network import FlatLexiconNetwork
from repro.decoder.phone_decode import PhoneDecodeStage
from repro.decoder.recognizer import (
    BatchDecodeResult,
    RecognitionResult,
    Recognizer,
)
from repro.decoder.scorer import ScoringStats
from repro.decoder.streaming import StreamingEvent, StreamingRecognizer
from repro.decoder.viterbi import ViterbiResult, viterbi_decode, viterbi_score
from repro.decoder.word_decode import DecoderConfig, FrameStats, WordDecodeStage

__all__ = [
    "Recognizer",
    "RecognitionResult",
    "BatchDecodeResult",
    "DecoderConfig",
    "FrameStats",
    "WordDecodeStage",
    "PhoneDecodeStage",
    "FlatLexiconNetwork",
    "WordLattice",
    "WordExit",
    "BestPath",
    "find_best_path",
    "BeamConfig",
    "apply_beam",
    "ScoringStats",
    "FastGmmConfig",
    "FastGmmLaneState",
    "FastGmmModel",
    "FastGmmStats",
    "equivalent_activity",
    "viterbi_decode",
    "viterbi_score",
    "ViterbiResult",
    "TreeLexiconNetwork",
    "StreamingRecognizer",
    "StreamingEvent",
]
