"""The word decode stage (Figure 1) — token passing over the lexicon.

"The word decode stage combines the triphones based on high
probability values and valid triphone combination according to the
words in the dictionary. ... The word decode also decides which
senones are to be evaluated by the phone decode based on the phone
combinations of the active words in the dictionary.  The word decode
generates a lattice of probable words spoken."

Implementation: time-synchronous Viterbi token passing over the
:class:`~repro.decoder.network.FlatLexiconNetwork`.  The frame loop is
:class:`repro.runtime.batch.LaneBank` (one lane for one audio stream,
B lanes for B); this module holds the search configuration, the
start-of-utterance entries, the one LM-history walk over a lattice, and
:class:`WordDecodeStage`, the frame-at-a-time view of a 1-lane bank.
Each frame:

1. determine candidate states (alive, their right neighbours, and
   word-start states holding a pending entry) — the union of their
   senones is the *feedback list* sent to the phone decode stage;
2. run the left-to-right chain recurrence
   (:func:`repro.core.viterbi_unit.chain_update`: float32 and charged
   to the Viterbi unit model in hardware mode, else double precision);
3. propagate token payloads (word entry frame, predecessor lattice
   exit) along the winning arcs;
4. prune with the state beam / histogram cap;
5. record word exits above the word beam into the
   :class:`~repro.decoder.lattice.WordLattice`, and convert them into
   LM-weighted *pending entries* offered to every word (and the
   silence model) at the next frame — every lane in one pass per step,
   the pass the tree bank runs too
   (:meth:`~repro.runtime.batch.LaneBankBase._record_exits`).

The language model is applied at word entry (bigram/trigram row of the
exiting word's history), so the lattice scores already contain LM mass
and the global best path search reduces to an exact traceback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.decoder.beam import BeamConfig, check_count
from repro.decoder.lattice import WordLattice
from repro.decoder.network import FlatLexiconNetwork
from repro.lm.ngram import NGramModel

__all__ = [
    "DecoderConfig",
    "FrameStats",
    "WordDecodeStage",
    "prime_entries",
    "last_real_exit",
    "lm_history_of",
]


@dataclass(frozen=True)
class DecoderConfig:
    """Search parameters of the staged decoder."""

    beam: BeamConfig = field(default_factory=BeamConfig)
    lm_scale: float = 2.0
    word_insertion_penalty: float = -4.0
    silence_penalty: float = -2.0
    max_exits_per_frame: int = 24
    use_feedback: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.beam, BeamConfig):
            raise TypeError(
                f"beam must be a BeamConfig, got {type(self.beam).__name__}"
            )
        # A NaN weight poisons every path score it touches.
        for name in ("lm_scale", "word_insertion_penalty", "silence_penalty"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.lm_scale <= 0:
            raise ValueError(f"lm_scale must be positive, got {self.lm_scale}")
        check_count("max_exits_per_frame", self.max_exits_per_frame, 1)


@dataclass
class FrameStats:
    """Per-frame search statistics."""

    frame: int
    active_states: int
    requested_senones: int
    word_exits: int


# ----------------------------------------------------------------------
# What the flat bank's lanes start from, and the history walk its exit
# pass (and the best path search) reads the LM through.
# ----------------------------------------------------------------------


def prime_entries(
    network: FlatLexiconNetwork,
    config: DecoderConfig,
    lm: NGramModel,
    pending_entry: np.ndarray,
    pending_src: np.ndarray,
) -> None:
    """Initial word entries: LM row conditioned on ``<s>``.

    Writes into ``pending_entry``/``pending_src`` in place; both may be
    1-D (one utterance) or 2-D (a batch — rows are identical because
    every utterance starts from BOS).
    """
    bos = (lm.vocabulary.bos_id,)
    row = config.lm_scale * lm.log_prob_row(bos)
    pending_entry[..., : network.num_words] = row + config.word_insertion_penalty
    pending_src[..., : network.num_words] = -1
    if network.has_silence:
        pending_entry[..., network.silence_word] = config.silence_penalty
        pending_src[..., network.silence_word] = -1


def last_real_exit(lattice: WordLattice, network: FlatLexiconNetwork, index: int) -> int:
    """Nearest non-silence exit at or before ``index`` (-1 = BOS)."""
    word, predecessor = lattice.word, lattice.predecessor
    while index >= 0 and word[index] == network.silence_word:
        index = predecessor[index]
    return index


def lm_history_of(
    lattice: WordLattice,
    network: FlatLexiconNetwork,
    lm: NGramModel,
    index: int,
) -> tuple[int, ...]:
    """The LM context lattice exit ``index`` exposes.

    For bigram models this is the last real word; for trigram models
    the last two.  Silence records are transparent: the walk skips
    them, so "w1 <sil> w2" exposes ``(w1, w2)``.  ``<s>`` fills missing
    positions.  The one history walk: it keys the LM rows of the lane
    banks' exit pass and gives the best path search's final ``</s>``
    term.
    """
    vocab = lm.vocabulary
    first = last_real_exit(lattice, network, index)
    if first < 0:
        return (vocab.bos_id,)
    if lm.order < 3:
        return (lattice.lm_history[first],)
    second = last_real_exit(lattice, network, lattice.predecessor[first])
    prev = vocab.bos_id if second < 0 else lattice.lm_history[second]
    return (prev, lattice.lm_history[first])


class WordDecodeStage:
    """The word decode stage of one audio stream, a frame at a time.

    A view of a persistent 1-lane bank
    (:meth:`~repro.decoder.recognizer.Recognizer.make_bank` picks
    the flat or the tree bank), for the callers that hand in frames as
    they arrive: :meth:`~repro.decoder.recognizer.Recognizer.decode`
    and :class:`~repro.decoder.streaming.StreamingRecognizer`.  The
    search itself is the bank's; nothing is decided here.
    """

    def __init__(self, recognizer) -> None:
        self.bank = recognizer.make_bank(1)
        # Scoring goes through the phone stage (see PhoneDecodeStage).
        self.bank.scorer = recognizer.phone_stage
        self.reset()

    def reset(self) -> None:
        """Prepare for a new utterance: a fresh lane, cleared accounting."""
        bank = self.bank
        if bank.active[0]:
            bank.cancel(0)
        bank.recognizer._reset_accounting()
        bank.admit(0, 0)
        # Held here as well: the bank drops its references when the
        # lane is packaged, and StreamingRecognizer's best path search
        # and the tests read them after decode().
        self.lattice = bank.lattices[0]
        self.frame_stats = bank.lane_frame_stats[0]

    def process_frame(self, observation: np.ndarray) -> FrameStats:
        """Advance the search by one frame."""
        self.bank.step(np.asarray(observation, dtype=np.float64)[None, :])
        return self.frame_stats[-1]

    @property
    def delta(self) -> np.ndarray:
        """The lane's token scores, ``(num_states,)``."""
        return self.bank.delta[0]

    @property
    def frames_processed(self) -> int:
        return len(self.frame_stats)
