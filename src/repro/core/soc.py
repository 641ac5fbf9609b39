"""The complete SoC: processor + dedicated structures + memories.

This is the paper's Figure 1 system assembled: the MFCC frontend and
the word-decode/best-path stages run in software on the embedded
processor, senone scoring and Viterbi updates run on the dedicated unit
models (two structures by default, as the paper concludes), and the
acoustic model / dictionary / LM live in flash behind a DMA channel.
Every decode yields a consolidated report: recognized words, real-time
factors, flash footprint, sustained and peak bandwidth, and the power
breakdown.  The report is arithmetic over the one decode it describes:
nothing carries over from one call to the next.

Sizes follow the paper's Section IV-B convention: decimal megabytes
(1 MB = 10^6 B) and gigabytes per second (1 GB/s = 10^9 B/s), so the
15.168 MB acoustic model streamed every 10 ms frame is 1.5168 GB/s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.power import AreaTable, PowerModel, PowerReport
from repro.decoder.recognizer import RecognitionResult, Recognizer
from repro.eval.realtime import RealTimeReport, analyze_unit_cycles
from repro.frontend.features import Frontend
from repro.hmm.acoustic_model import AcousticModel
from repro.hmm.senone import SenonePool
from repro.lexicon.dictionary import PronunciationDictionary
from repro.lexicon.triphone import SenoneTying
from repro.lm.ngram import NGramModel
from repro.quant.float_formats import IEEE_SINGLE, FloatFormat

__all__ = ["SpeechSoC", "SocDecodeReport", "SoftwareCosts"]

MB = 1e6
#: The flash module the three stored models must fit in.
FLASH_CAPACITY_BYTES = 64 * MB
#: Clock of the embedded core (ARM946E-S class) running the software stages.
CORE_CLOCK_HZ = 200e6


@dataclass(frozen=True)
class SoftwareCosts:
    """Cycle prices of the software stages on the embedded core.

    The paper leaves the frontend, the word decode stage and the global
    best-path search to the core, and calls them "lightweight" beside
    the observation probabilities.  The prices are conservative (high),
    so real-time conclusions are not flattered by the software model:
    the frontend is dominated by the FFT, the word decode scales with
    the active words.
    """

    frontend_per_frame: int = 60_000  # 512-pt FFT + filterbank + DCT + deltas
    word_decode_per_active_word: int = 220  # token bookkeeping per word per frame
    word_decode_base_per_frame: int = 8_000  # pruning, list management
    lattice_insert: int = 400  # per word-lattice entry
    best_path_per_edge: int = 90  # LM lookup + relax per lattice edge
    feedback_per_phone: int = 25  # "phones for evaluation" list build


#: What the core pays for each software stage.
CORE_COSTS = SoftwareCosts()


@dataclass
class SocDecodeReport:
    """Everything one SoC decode produced."""

    recognition: RecognitionResult
    op_unit_reports: list[RealTimeReport]
    power: PowerReport
    processor_utilization: float
    mean_bandwidth_gbps: float
    peak_bandwidth_gbps: float
    flash_footprint_mb: dict[str, float]
    area_mm2: float

    @property
    def words(self) -> tuple[str, ...]:
        return self.recognition.words

    @property
    def is_real_time(self) -> bool:
        """All dedicated units and the processor fit their budgets."""
        units_ok = all(r.is_real_time for r in self.op_unit_reports)
        return units_ok and self.processor_utilization <= 1.0

    def format(self) -> str:
        lines = [f"recognized: {' '.join(self.words) or '(empty)'}"]
        for i, report in enumerate(self.op_unit_reports):
            lines.append(f"structure[{i}]: {report.format()}")
        lines.append(
            f"processor utilization: {100 * self.processor_utilization:.1f} %"
        )
        lines.append(
            f"bandwidth: mean {self.mean_bandwidth_gbps:.3f} GB/s, "
            f"peak {self.peak_bandwidth_gbps:.3f} GB/s"
        )
        footprint = ", ".join(
            f"{name} {mb:.2f} MB" for name, mb in self.flash_footprint_mb.items()
        )
        lines.append(f"flash: {footprint}")
        lines.append(f"area (dedicated structures): {self.area_mm2:.1f} mm^2")
        lines.append(
            f"power: {self.power.average_power_w * 1e3:.1f} mW "
            f"over {self.power.duration_s:.2f} s audio"
        )
        return "\n".join(lines)


class SpeechSoC:
    """The assembled low-power recognizer SoC.

    Parameters
    ----------
    dictionary, pool, lm, tying:
        The recognition models (stored to flash at construction).
    num_structures:
        Dedicated OP+Viterbi structure pairs (the paper uses 2).
    storage_format:
        Acoustic model storage precision (mantissa study, T1/R1).
    clock_gating:
        Paper's power-saving feature; switchable for the R4 ablation.
    """

    def __init__(
        self,
        dictionary: PronunciationDictionary,
        pool: SenonePool,
        lm: NGramModel,
        tying: SenoneTying,
        num_structures: int = 2,
        storage_format: FloatFormat = IEEE_SINGLE,
        clock_gating: bool = True,
    ) -> None:
        if num_structures < 1:
            raise ValueError(f"num_structures must be >= 1, got {num_structures}")
        # Flash image: acoustic model + dictionary + LM, behind DMA.
        flash_bytes = {
            "acoustic-model": pool.storage_bytes(storage_format),
            "dictionary": dictionary.storage_bits()["total_bits"] / 8,
            "language-model": lm.storage_bytes(),
        }
        stored = sum(flash_bytes.values())
        if stored > FLASH_CAPACITY_BYTES:
            raise MemoryError(
                f"flash overflow: {stored / MB:.2f} MB > capacity "
                f"{FLASH_CAPACITY_BYTES / MB:.2f} MB"
            )
        self.flash_footprint_mb = {
            name: num_bytes / MB for name, num_bytes in flash_bytes.items()
        }
        self.storage_format = storage_format
        self.frontend = Frontend()
        self.recognizer = Recognizer.create(
            dictionary,
            pool,
            lm,
            tying,
            mode="hardware",
            storage_format=storage_format,
            num_unit_pairs=num_structures,
        )
        self.power_model = PowerModel(
            clock_hz=self.recognizer.op_units[0].spec.clock_hz,
            clock_gating=clock_gating,
        )
        self.area = AreaTable()
        self.num_structures = num_structures
        self._senone_bytes = (
            self.recognizer.pool.gaussian_table(storage_format).senone_bytes()
        )

    # ------------------------------------------------------------------
    def decode_waveform(self, waveform: np.ndarray) -> SocDecodeReport:
        """Full pipeline: audio in, report out (frontend on the CPU)."""
        features = self.frontend.extract(np.asarray(waveform, dtype=np.float64))
        if features.shape[0] == 0:
            raise ValueError("waveform too short for a single frame")
        return self._report(self.recognizer.decode(features), features.shape[0])

    def decode_features(self, features: np.ndarray) -> SocDecodeReport:
        """Decode pre-extracted features through the dedicated units."""
        return self._report(self.recognizer.decode(features), 0)

    def _report(
        self, result: RecognitionResult, frontend_frames: int
    ) -> SocDecodeReport:
        """The report of one decode, from its result alone.

        ``frontend_frames`` are the frames the core's frontend extracted
        for it (none when the features came in pre-extracted).
        """
        period = result.frame_period_s
        # Software stage costs (Figure 1 dotted boxes).
        costs = CORE_COSTS
        cycles = frontend_frames * costs.frontend_per_frame
        for stats in result.frame_stats:
            cycles += (
                costs.word_decode_base_per_frame
                + max(stats.active_states // 3, 1) * costs.word_decode_per_active_word
                + stats.requested_senones * costs.feedback_per_phone
            )
        cycles += result.lattice_size * (
            costs.lattice_insert + costs.best_path_per_edge
        )
        # Senone parameters the DMA streams from flash, frame by frame.
        frame_bytes = [
            stats.requested_senones * self._senone_bytes
            for stats in result.frame_stats
        ]

        # Per-structure real-time reports: the OP stream dominates; the
        # Viterbi unit's transitions are divided across structures.
        viterbi = result.viterbi_activity
        viterbi_share = viterbi["cycles_busy"] / (
            self.num_structures * max(result.frames, 1)
        )
        critical = np.asarray(result.frame_critical_cycles, dtype=np.float64)
        unit_report = analyze_unit_cycles(
            critical + viterbi_share, self.power_model.clock_hz, period
        )

        activities = [*result.op_unit_activities, viterbi]
        audio_s = result.audio_seconds
        return SocDecodeReport(
            recognition=result,
            op_unit_reports=[unit_report] * self.num_structures,
            power=self.power_model.combined_report(activities, audio_s),
            processor_utilization=cycles / CORE_CLOCK_HZ / audio_s,
            mean_bandwidth_gbps=sum(frame_bytes) / len(frame_bytes) / period / 1e9,
            peak_bandwidth_gbps=max(frame_bytes) / period / 1e9,
            flash_footprint_mb=dict(self.flash_footprint_mb),
            area_mm2=self.area.total() * self.num_structures,
        )

    # ------------------------------------------------------------------
    def worst_case_bandwidth_gbps(self) -> float:
        """All senones streamed every frame (the paper's worst case,
        :meth:`~repro.hmm.acoustic_model.AcousticModel.worst_case_bandwidth`
        at the decoder's frame period)."""
        model = AcousticModel(
            self.recognizer.pool, frame_period_s=self.recognizer.frame_period_s
        )
        return model.worst_case_bandwidth(self.storage_format) / 1e9
