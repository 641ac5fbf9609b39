"""The SoC's memory arithmetic (repro.core.soc): the flash image the
models occupy and the senone parameters the DMA streams per frame."""

import pytest

from repro.core import soc as soc_module
from repro.core.soc import MB, SpeechSoC
from repro.quant.float_formats import IEEE_SINGLE


class TestFlash:
    def test_store_and_lookup(self, soc, task):
        """The three stored sizes, in decimal megabytes."""
        footprint = soc.flash_footprint_mb
        assert footprint["acoustic-model"] == task.pool.storage_bytes() / MB
        bits = task.dictionary.storage_bits()["total_bits"]
        assert footprint["dictionary"] == bits / 8 / MB
        assert footprint["language-model"] == task.lm.storage_bytes() / MB

    def test_capacity_enforced(self, task, monkeypatch):
        stored = sum(
            SpeechSoC(task.dictionary, task.pool, task.lm, task.tying)
            .flash_footprint_mb.values()
        )
        monkeypatch.setattr(soc_module, "FLASH_CAPACITY_BYTES", 0.5 * stored * MB)
        with pytest.raises(MemoryError):
            SpeechSoC(task.dictionary, task.pool, task.lm, task.tying)


class TestBandwidthMeter:
    def test_paper_worst_case(self, soc):
        """15.168 MB per 10 ms frame = 1.5168 GB/s (Section IV-B): the
        worst case streams the whole stored model every frame."""
        model_mb = soc.flash_footprint_mb["acoustic-model"]
        assert soc.worst_case_bandwidth_gbps() == pytest.approx(
            model_mb * MB / 0.010 / 1e9
        )
        paper_mb = IEEE_SINGLE.storage_bytes(6000 * 8 * (2 * 39 + 1)) / MB
        assert paper_mb == pytest.approx(15.168)
        scale = paper_mb / model_mb
        assert soc.worst_case_bandwidth_gbps() * scale == pytest.approx(1.5168)

    def test_mean_vs_peak(self, soc, task):
        """Each frame streams the parameters of the senones it requested."""
        report = soc.decode_features(task.corpus.test[0].features)
        senone_bytes = task.pool.gaussian_table().senone_bytes()
        frame_bytes = [
            stats.requested_senones * senone_bytes
            for stats in report.recognition.frame_stats
        ]
        assert min(frame_bytes) < max(frame_bytes)
        assert report.peak_bandwidth_gbps == max(frame_bytes) / 0.010 / 1e9
        assert report.mean_bandwidth_gbps == pytest.approx(
            sum(frame_bytes) / len(frame_bytes) / 0.010 / 1e9
        )
