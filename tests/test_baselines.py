"""The Section V comparison systems priced on one decode's counters
(``benchmarks/bench_baseline_comparison.py``)."""

from dataclasses import replace

import numpy as np
import pytest

from benchmarks.bench_baseline_comparison import (
    SOFTWARE_CPU,
    mathew_accelerator,
    merge_phone_groups,
    merged_pool,
    nedevschi_recognizer,
    software_cpu,
)
from repro.core.power import EnergyTable, PowerModel
from repro.decoder.recognizer import Recognizer
from repro.decoder.word_decode import DecoderConfig
from repro.eval.wer import corpus_wer


@pytest.fixture(scope="module")
def reference_result(task):
    rec = Recognizer.create(task.dictionary, task.pool, task.lm, task.tying,
                            mode="reference")
    return rec.decode(task.corpus.test[0].features)


@pytest.fixture(scope="module")
def full_senone_result(task):
    """A hardware decode scoring every senone every frame, as the
    Mathew et al. accelerator does."""
    rec = Recognizer.create(
        task.dictionary, task.pool, task.lm, task.tying,
        mode="hardware", config=DecoderConfig(use_feedback=False),
    )
    return rec.decode(task.corpus.test[0].features)


class TestSoftwareBaseline:
    def test_words_unchanged(self, task, reference_result):
        assert reference_result.words == tuple(task.corpus.test[0].words)

    def test_cycles_per_frame_formula(self, task, reference_result):
        """Each frame: every requested senone's M*L dimensions and M-1
        logadds, two transitions per active state, a fixed overhead."""
        m, dim = task.pool.num_components, task.pool.dim
        expected = [
            s.requested_senones * (m * dim * 10 + max(m - 1, 1) * 35)
            + 16 * s.active_states + 4000
            for s in reference_result.frame_stats
        ]
        realtime, _ = software_cpu(reference_result, task.pool)
        assert realtime.frames == len(expected)
        assert realtime.mean_cycles_per_frame == pytest.approx(np.mean(expected))
        assert realtime.peak_cycles_per_frame == max(expected)

    def test_cpu_costs_exceed_dedicated_units(self, task, reference_result, soc):
        """The architecture claim: software on the embedded core is far
        more expensive per frame than the dedicated units."""
        realtime, _ = software_cpu(reference_result, task.pool)
        soc_report = soc.decode_features(task.corpus.test[0].features)
        # Compare time per frame: CPU vs dedicated unit.
        cpu_s = realtime.mean_cycles_per_frame / SOFTWARE_CPU["clock_hz"]
        unit_s = (
            soc_report.op_unit_reports[0].mean_cycles_per_frame
            / soc.recognizer.op_units[0].spec.clock_hz
        )
        assert cpu_s > 2 * unit_s

    def test_feedback_cuts_the_software_cost(self, task, reference_result):
        """Scoring only the senones the word decode asks for is what
        the paper's feedback buys, in software too."""
        rec = Recognizer.create(
            task.dictionary, task.pool, task.lm, task.tying,
            mode="reference", config=DecoderConfig(use_feedback=False),
        )
        every_senone = rec.decode(task.corpus.test[0].features)
        with_feedback, _ = software_cpu(reference_result, task.pool)
        without, _ = software_cpu(every_senone, task.pool)
        assert with_feedback.mean_cycles_per_frame < without.mean_cycles_per_frame

    def test_energy_positive(self, task, reference_result):
        _, energy_j = software_cpu(reference_result, task.pool)
        assert energy_j > 0

    def test_energy_is_busy_time_at_active_power(self, task, reference_result):
        """The core never idles: energy is its busy seconds at 0.45 W."""
        realtime, energy_j = software_cpu(reference_result, task.pool)
        busy_s = realtime.mean_cycles_per_frame * realtime.frames / 200e6
        assert energy_j == pytest.approx(busy_s * 0.45)


class TestMathew:
    def test_higher_power_than_ours(self, task, full_senone_result, soc):
        """Section V: 'our design has much less power consumption'."""
        power, _, _ = mathew_accelerator(full_senone_result)
        our_report = soc.decode_features(task.corpus.test[0].features)
        assert power.average_power_w > 3 * our_report.power.average_power_w

    def test_higher_bandwidth_than_feedback_decode(self, task, full_senone_result, soc):
        _, bandwidth_gbps, _ = mathew_accelerator(full_senone_result)
        our_report = soc.decode_features(task.corpus.test[0].features)
        assert bandwidth_gbps > our_report.mean_bandwidth_gbps

    def test_cpu_stalls_reported(self, full_senone_result):
        _, _, stall = mathew_accelerator(full_senone_result)
        assert stall > 0

    def test_scores_every_senone_every_frame(self, task, full_senone_result):
        """The row's premise: without feedback the whole model streams
        every frame."""
        assert all(
            s.requested_senones == task.pool.num_senones
            for s in full_senone_result.frame_stats
        )

    def test_words_still_correct(self, task, full_senone_result):
        assert full_senone_result.words == tuple(task.corpus.test[0].words)

    def test_power_is_our_table_scaled_and_ungated(self, full_senone_result):
        """Every per-op energy is 2.4x ours, at 100 MHz with no clock
        gating (so the gated-clock fraction prices nothing)."""
        power, _, _ = mathew_accelerator(full_senone_result)
        ungated = PowerModel(replace(EnergyTable(), gated_clock_fraction=0.5),
                             clock_hz=100e6, clock_gating=False)
        ours = ungated.combined_report(
            [*full_senone_result.op_unit_activities,
             full_senone_result.viterbi_activity],
            full_senone_result.audio_seconds,
        )
        assert power.average_power_w == pytest.approx(2.4 * ours.average_power_w)

    def test_stall_follows_the_fetched_bytes(self, full_senone_result):
        """60 stall cycles of the 200 MHz core per KB crossing the bus:
        0.3 of a second per GB/s of model stream."""
        _, bandwidth_gbps, stall = mathew_accelerator(full_senone_result)
        fetched = sum(
            a["parameter_bytes"] for a in full_senone_result.op_unit_activities
        )
        assert bandwidth_gbps == pytest.approx(
            fetched / full_senone_result.audio_seconds / 1e9
        )
        assert stall == pytest.approx(0.3 * bandwidth_gbps)


class TestNedevschi:
    def test_vocabulary_cap_enforced(self, task):
        from repro.workloads.wordgen import generate_words
        from repro.lexicon.dictionary import PronunciationDictionary

        big_words = generate_words(250, seed=77)
        big = PronunciationDictionary.from_pronunciations(big_words)
        with pytest.raises(ValueError):
            nedevschi_recognizer(big, task.pool, task.lm, task.tying,
                                 task.corpus.phone_set)

    def test_phone_merge_under_30_groups(self, task):
        mapping = merge_phone_groups(task.corpus.phone_set, num_groups=28)
        groups = set(mapping.values())
        assert len(groups) < 30
        assert set(mapping) == set(task.corpus.phone_set.names())

    @pytest.mark.parametrize("num_groups", [12, 28])
    def test_merge_yields_exactly_the_asked_groups(self, task, num_groups):
        mapping = merge_phone_groups(task.corpus.phone_set, num_groups=num_groups)
        assert len(set(mapping.values())) == num_groups

    def test_fewer_groups_than_classes_refused(self, task):
        """Each articulatory class keeps at least one group of its own."""
        phone_set = task.corpus.phone_set
        classes = len({p.phone_class for p in phone_set})
        mapping = merge_phone_groups(phone_set, num_groups=classes)
        assert len(set(mapping.values())) == classes
        with pytest.raises(ValueError):
            merge_phone_groups(phone_set, num_groups=classes - 1)

    def test_merge_stays_within_a_class(self, task):
        """A phone only merges into its own articulatory class, so
        silence never takes a speech phone's models."""
        phones = {p.name: p for p in task.corpus.phone_set}
        mapping = merge_phone_groups(task.corpus.phone_set, num_groups=12)
        assert all(
            phones[rep].phone_class is phones[name].phone_class
            for name, rep in mapping.items()
        )

    def test_merge_bounds_validated(self, task):
        with pytest.raises(ValueError):
            merge_phone_groups(task.corpus.phone_set, num_groups=1)
        with pytest.raises(ValueError):
            merge_phone_groups(task.corpus.phone_set, num_groups=51)

    def test_merged_pool_shares_parameters(self, task):
        pool = merged_pool(task.pool, task.tying, task.corpus.phone_set, 28)
        mapping = merge_phone_groups(task.corpus.phone_set, 28)
        merged = [(p, r) for p, r in mapping.items() if p != r]
        assert merged, "expected at least one merged phone"
        phone, rep = merged[0]
        src = task.tying.ci_senone(rep, 0)
        dst = task.tying.ci_senone(phone, 0)
        assert np.array_equal(pool.means[dst], pool.means[src])

    def test_reduced_phones_hurt_wer(self, task):
        """Section V: merged phones imply 'high error rate'."""
        device = nedevschi_recognizer(
            task.dictionary, task.pool, task.lm, task.tying,
            task.corpus.phone_set, num_phone_groups=12,
        )
        full = Recognizer.create(task.dictionary, task.pool, task.lm, task.tying,
                                 mode="reference")
        refs, dev_hyps, full_hyps = [], [], []
        for utt in task.corpus.test:
            refs.append(utt.words)
            dev_hyps.append(device.decode(utt.features).words)
            full_hyps.append(full.decode(utt.features).words)
        dev_wer = corpus_wer(refs, dev_hyps).wer
        full_wer = corpus_wer(refs, full_hyps).wer
        assert dev_wer > full_wer
