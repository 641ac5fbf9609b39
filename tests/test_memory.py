"""Tests for repro.core.memory."""

import pytest

from repro.core.memory import (
    GB,
    MB,
    BandwidthMeter,
    DmaChannel,
    FlashMemory,
)


class TestFlash:
    def test_store_and_lookup(self):
        flash = FlashMemory(capacity_bytes=32 * MB)
        region = flash.store("acoustic-model", 15.168 * MB)
        assert region.num_bytes == 15.168 * MB
        assert flash.region("acoustic-model").name == "acoustic-model"

    def test_capacity_enforced(self):
        flash = FlashMemory(capacity_bytes=10 * MB)
        flash.store("a", 8 * MB)
        with pytest.raises(MemoryError):
            flash.store("b", 4 * MB)

    def test_replace_region(self):
        flash = FlashMemory(capacity_bytes=10 * MB)
        flash.store("a", 8 * MB)
        flash.store("a", 2 * MB)  # replacement frees the old allocation
        assert flash.total_stored_bytes == 2 * MB

    def test_failed_replace_keeps_original(self):
        flash = FlashMemory(capacity_bytes=10 * MB)
        flash.store("a", 4 * MB)
        flash.store("b", 4 * MB)
        with pytest.raises(MemoryError):
            flash.store("a", 8 * MB)
        assert flash.region("a").num_bytes == 4 * MB

    def test_unknown_region(self):
        with pytest.raises(KeyError):
            FlashMemory().region("nope")

    def test_read_accounting(self):
        flash = FlashMemory()
        flash.store("model", MB)
        flash.record_read("model", 1000.0)
        flash.record_read("model", 500.0)
        region = flash.region("model")
        assert region.reads == 2
        assert region.bytes_read == 1500.0

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            FlashMemory(capacity_bytes=0)
        with pytest.raises(ValueError):
            FlashMemory().store("x", -1)


class TestDma:
    def test_transfer_accounting(self):
        flash = FlashMemory()
        flash.store("model", MB)
        dma = DmaChannel(flash)
        dma.transfer("model", 2528.0)
        dma.transfer("model", 2528.0)
        assert dma.transfers == 2
        assert dma.bytes_transferred == 5056.0
        assert dma.total_setup_cycles == 2 * dma.setup_cycles
        assert flash.region("model").bytes_read == 5056.0


class TestBandwidthMeter:
    def test_paper_worst_case(self):
        """15.168 MB per 10 ms frame = 1.5168 GB/s (Section IV-B)."""
        meter = BandwidthMeter(frame_period_s=0.010)
        meter.record_frame(15.168 * MB)
        assert meter.peak_gb_per_second() == pytest.approx(1.5168)

    def test_mean_vs_peak(self):
        meter = BandwidthMeter(frame_period_s=0.010)
        meter.record_frame(10 * MB)
        meter.record_frame(20 * MB)
        assert meter.peak_bytes_per_second == pytest.approx(20 * MB / 0.010)
        assert meter.mean_bytes_per_second == pytest.approx(15 * MB / 0.010)

    def test_empty_meter(self):
        meter = BandwidthMeter()
        assert meter.peak_gb_per_second() == 0.0
        assert meter.mean_gb_per_second() == 0.0
        assert meter.frames == 0

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            BandwidthMeter(frame_period_s=0)
        with pytest.raises(ValueError):
            BandwidthMeter().record_frame(-1)

    def test_units(self):
        assert GB == 1e9 and MB == 1e6
