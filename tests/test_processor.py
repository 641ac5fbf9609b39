"""The embedded core's share of a decode (repro.core.soc): the software
stages priced by ``CORE_COSTS`` against the 200 MHz clock."""

import pytest

from repro.core.soc import CORE_CLOCK_HZ, CORE_COSTS, SoftwareCosts


class TestCharging:
    def test_convenience_wrappers(self, soc, task):
        """Word decode and feedback per frame, lattice and best path per
        lattice entry; no frontend for pre-extracted features."""
        report = soc.decode_features(task.corpus.test[0].features)
        result = report.recognition
        costs = CORE_COSTS
        expected = sum(
            costs.word_decode_base_per_frame
            + max(stats.active_states // 3, 1) * costs.word_decode_per_active_word
            + stats.requested_senones * costs.feedback_per_phone
            for stats in result.frame_stats
        ) + result.lattice_size * (costs.lattice_insert + costs.best_path_per_edge)
        busy_s = report.processor_utilization * result.audio_seconds
        assert busy_s * CORE_CLOCK_HZ == pytest.approx(expected)


class TestUtilization:
    def test_utilization(self, soc, tiny_waveform):
        """Audio in adds the frontend's frames to the same decode."""
        _, waveform = tiny_waveform
        audio = soc.decode_waveform(waveform)
        features = soc.frontend.extract(waveform)
        feats = soc.decode_features(features)
        frames = features.shape[0]
        assert audio.words == feats.words
        frontend = frames * CORE_COSTS.frontend_per_frame / CORE_CLOCK_HZ
        seconds = audio.recognition.audio_seconds
        assert audio.processor_utilization == pytest.approx(
            feats.processor_utilization + frontend / seconds
        )

    def test_frontend_is_lightweight(self):
        """Section III-A: the frontend 'is a lightweight process'."""
        one_second = 100 * CORE_COSTS.frontend_per_frame  # 100 frames
        assert one_second / CORE_CLOCK_HZ < 0.05

    def test_costs_frozen(self):
        with pytest.raises(Exception):
            CORE_COSTS.frontend_per_frame = 0  # type: ignore[misc]
        assert CORE_COSTS == SoftwareCosts(
            frontend_per_frame=60_000,
            word_decode_per_active_word=220,
            word_decode_base_per_frame=8_000,
            lattice_insert=400,
            best_path_per_edge=90,
            feedback_per_phone=25,
        )
