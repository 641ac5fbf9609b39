"""Tests for repro.core.soc — the assembled system."""

import pytest

from repro.core.soc import SpeechSoC
from repro.quant.float_formats import IEEE_SINGLE, MANTISSA_12


class TestDecode:
    def test_decode_features_words(self, soc, task):
        utt = task.corpus.test[0]
        report = soc.decode_features(utt.features)
        assert report.words == tuple(utt.words)

    def test_decode_waveform_end_to_end(self, task, tiny_waveform):
        """Audio in, words out — the full Figure 1 pipeline."""
        soc = SpeechSoC(task.dictionary, task.pool, task.lm, task.tying)
        words, waveform = tiny_waveform
        report = soc.decode_waveform(waveform)
        assert report.words == tuple(words)

    def test_a_repeated_waveform_reports_the_same(self, task, tiny_waveform):
        """Nothing carries over between decodes: the second report of
        the same audio on one SoC is the first one again, and the core
        reads 3.5 % busy both times."""
        soc = SpeechSoC(task.dictionary, task.pool, task.lm, task.tying)
        _, waveform = tiny_waveform
        first = soc.decode_waveform(waveform)
        second = soc.decode_waveform(waveform)
        assert first.processor_utilization == pytest.approx(0.0350, abs=5e-5)
        assert second.processor_utilization == first.processor_utilization
        assert second == first

    def test_real_time_on_tiny_task(self, soc, task):
        report = soc.decode_features(task.corpus.test[0].features)
        assert report.is_real_time
        for unit_report in report.op_unit_reports:
            assert unit_report.mean_utilization < 0.5

    def test_processor_utilization_low(self, soc, task):
        report = soc.decode_features(task.corpus.test[0].features)
        assert 0.0 < report.processor_utilization < 0.5

    def test_power_reported(self, soc, task):
        report = soc.decode_features(task.corpus.test[0].features)
        assert report.power.average_power_w > 0
        # Mostly idle tiny task: far below the 400 mW full-load point.
        assert report.power.average_power_w < 0.4

    def test_bandwidth_below_worst_case(self, soc, task):
        report = soc.decode_features(task.corpus.test[0].features)
        assert 0 < report.peak_bandwidth_gbps < soc.worst_case_bandwidth_gbps()

    def test_flash_regions(self, soc, task):
        names = ["acoustic-model", "dictionary", "language-model"]
        assert list(soc.flash_footprint_mb) == names
        report = soc.decode_features(task.corpus.test[0].features)
        assert report.flash_footprint_mb == soc.flash_footprint_mb

    def test_area_scales_with_structures(self, task):
        one = SpeechSoC(task.dictionary, task.pool, task.lm, task.tying,
                        num_structures=1)
        report = one.decode_features(task.corpus.test[0].features)
        assert report.area_mm2 == pytest.approx(2.2, abs=0.01)

    def test_format_output(self, soc, task):
        report = soc.decode_features(task.corpus.test[0].features)
        text = report.format()
        assert "recognized:" in text and "GB/s" in text and "mm^2" in text


class TestConfiguration:
    def test_narrow_storage_shrinks_flash(self, task):
        wide = SpeechSoC(task.dictionary, task.pool, task.lm, task.tying)
        narrow = SpeechSoC(
            task.dictionary, task.pool, task.lm, task.tying,
            storage_format=MANTISSA_12,
        )
        wide_mb = wide.flash_footprint_mb["acoustic-model"]
        narrow_mb = narrow.flash_footprint_mb["acoustic-model"]
        assert narrow_mb == pytest.approx(wide_mb * 21 / 32)

    def test_clock_gating_saves_energy(self, task):
        utt = task.corpus.test[0]
        gated = SpeechSoC(task.dictionary, task.pool, task.lm, task.tying,
                          clock_gating=True)
        free = SpeechSoC(task.dictionary, task.pool, task.lm, task.tying,
                         clock_gating=False)
        e_gated = gated.decode_features(utt.features).power.energy_j
        e_free = free.decode_features(utt.features).power.energy_j
        assert e_gated < e_free

    def test_rejects_zero_structures(self, task):
        with pytest.raises(ValueError):
            SpeechSoC(task.dictionary, task.pool, task.lm, task.tying,
                      num_structures=0)

    def test_worst_case_bandwidth_formula(self, soc, task):
        expected = task.pool.storage_bytes() / 0.010 / 1e9
        assert soc.worst_case_bandwidth_gbps() == pytest.approx(expected)


@pytest.mark.parametrize("storage", [IEEE_SINGLE, MANTISSA_12], ids=["ieee", "m12"])
@pytest.mark.parametrize("structures", [1, 2])
@pytest.mark.parametrize("entry", ["features", "waveform"])
def test_a_report_is_a_function_of_its_decode(
    task, tiny_waveform, entry, structures, storage
):
    """Other decodes in between change nothing: an input reads the
    report a fresh SoC gives it."""
    soc = SpeechSoC(task.dictionary, task.pool, task.lm, task.tying,
                    num_structures=structures, storage_format=storage)
    _, waveform = tiny_waveform
    if entry == "features":
        decode, source = soc.decode_features, task.corpus.test[0].features
    else:
        decode, source = soc.decode_waveform, waveform
    first = decode(source)
    soc.decode_features(task.corpus.test[1].features)
    soc.decode_waveform(waveform)
    assert decode(source) == first
