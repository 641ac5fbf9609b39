"""A2 — comparison against the Section V related-work systems.

Paper claims reproduced:

* software on general-purpose/embedded processors is not real-time
  capable for LVCSR (Sections I and V);
* vs Mathew et al. (CASES'03): "our design has much less power
  consumption", and their non-DMA model access contends with the CPU;
* vs Nedevschi et al. (DAC'05): vocabulary capped at a couple hundred
  words, and <30 phones "implies possibility of high error rate".

Each system is a frozen row of its constants priced on one decode's
counters: ``SOFTWARE_CPU`` (:func:`software_cpu`, an ARM9-class core
with a VFP), ``MATHEW`` (:func:`mathew_accelerator`: every senone every
frame, a hotter ungated datapath, model fetches stalling the host bus)
and ``NEDEVSCHI`` (:func:`nedevschi_recognizer`: a word cap, and phones
merged into groups that share their representative's senones).
"""

from dataclasses import fields, replace
from types import MappingProxyType

import numpy as np
import pytest

from repro.core.power import EnergyTable, PowerModel
from repro.core.soc import SpeechSoC
from repro.decoder.recognizer import Recognizer
from repro.decoder.word_decode import DecoderConfig
from repro.eval.realtime import analyze_unit_cycles
from repro.eval.report import format_table
from repro.eval.wer import corpus_wer
from repro.hmm.senone import SenonePool
from repro.lexicon.dictionary import PronunciationDictionary
from repro.workloads.tasks import command_task
from repro.workloads.wordgen import generate_words

#: Embedded-core prices, conservatively low (a VFP9-S multiply-accumulate
#: is ~5 cycles; operands come from memory, the model exceeds the cache).
SOFTWARE_CPU = MappingProxyType({
    "cycles_per_dim": 10.0,  # loads + sub + two muls + acc
    "cycles_per_logadd": 35.0,  # compare, sub, exp approx, add
    "cycles_per_transition": 8.0,  # two loads, add, compare
    "cycles_per_frame_overhead": 4000.0,  # lists, pruning, control
    "clock_hz": 200e6,
    "active_power_w": 0.45,  # ARM9 + VFP + SRAM/bus, 0.18 um class
})
MATHEW = MappingProxyType({
    "energy_scale": 2.4,  # per-op energy vs our 0.18um units
    "clock_hz": 100e6,  # higher clock to absorb the full senone load
    "stall_cycles_per_kb": 60.0,  # CPU stall per KB fetched (no DMA)
    "cpu_clock_hz": 200e6,
})
NEDEVSCHI = MappingProxyType({"max_words": 200, "phone_groups": 28})


def software_cpu(result, pool):
    """``(RealTimeReport, energy J)`` of decode ``result`` in software."""
    cpu = SOFTWARE_CPU
    per_senone = (
        pool.num_components * pool.dim * cpu["cycles_per_dim"]
        + max(pool.num_components - 1, 1) * cpu["cycles_per_logadd"]
    )
    # Chain transitions: ~2 per active state (self + forward).
    per_frame = [
        stats.requested_senones * per_senone
        + 2 * stats.active_states * cpu["cycles_per_transition"]
        + cpu["cycles_per_frame_overhead"]
        for stats in result.frame_stats
    ]
    realtime = analyze_unit_cycles(per_frame, cpu["clock_hz"], result.frame_period_s)
    energy_j = float(np.sum(per_frame)) / cpu["clock_hz"] * cpu["active_power_w"]
    return realtime, energy_j


def mathew_accelerator(result):
    """``(PowerReport, bandwidth GB/s, host stall fraction)`` of the
    hardware-mode decode ``result`` on the Mathew et al. accelerator."""
    base = EnergyTable()
    model = PowerModel(
        replace(base, **{
            f.name: getattr(base, f.name) * MATHEW["energy_scale"]
            for f in fields(base) if f.name != "gated_clock_fraction"
        }),
        clock_hz=MATHEW["clock_hz"],
        clock_gating=False,  # throughput design, free-running clock
    )
    audio_s = result.audio_seconds
    activities = [*result.op_unit_activities, result.viterbi_activity]
    total_bytes = sum(a.get("parameter_bytes", 0.0) for a in activities)
    stall_cycles = total_bytes / 1e3 * MATHEW["stall_cycles_per_kb"]
    return (
        model.combined_report(activities, audio_s),
        total_bytes / audio_s / 1e9,
        stall_cycles / (MATHEW["cpu_clock_hz"] * audio_s),
    )


def merge_phone_groups(phone_set, num_groups=NEDEVSCHI["phone_groups"]):
    """Map each phone to a group representative (< 30 groups).

    The groups are apportioned to the articulatory classes by largest
    remainder of their phone shares, at least one and at most one per
    phone each, so there are exactly ``num_groups``; a class's phones
    are bucketed by index modulo its groups, and the lowest-index phone
    of a bucket represents it.
    """
    by_class: dict[object, list] = {}
    for phone in phone_set:
        by_class.setdefault(phone.phone_class, []).append(phone)
    classes = sorted(by_class, key=lambda c: c.value)
    if not len(classes) <= num_groups < len(phone_set):
        raise ValueError(
            f"num_groups must be in [{len(classes)}, {len(phone_set)}) "
            f"(one group per articulatory class at least), got {num_groups}"
        )
    sizes = [len(by_class[cls]) for cls in classes]
    quota = [num_groups * size / len(phone_set) for size in sizes]
    seats = [1] * len(classes)
    for _ in range(num_groups - len(classes)):
        open_ = [i for i, size in enumerate(sizes) if seats[i] < size]
        seats[max(open_, key=lambda i: quota[i] - seats[i])] += 1
    mapping: dict[str, str] = {}
    for cls, buckets in zip(classes, seats):
        phones = sorted(by_class[cls], key=lambda p: p.index)
        for i, phone in enumerate(phones):
            mapping[phone.name] = phones[i % buckets].name
    return mapping


def merged_pool(pool, tying, phone_set, num_groups=NEDEVSCHI["phone_groups"]):
    """A pool where merged phones share their representative's senones."""
    mapping = merge_phone_groups(phone_set, num_groups)
    source = np.arange(pool.num_senones)
    for phone in phone_set:
        for state in range(tying.states_per_hmm):
            source[tying.ci_senone(phone.name, state)] = tying.ci_senone(
                mapping[phone.name], state
            )
    return SenonePool(pool.means[source], pool.variances[source], pool.weights[source])


def nedevschi_recognizer(
    dictionary, pool, lm, tying, phone_set, num_phone_groups=NEDEVSCHI["phone_groups"]
):
    """A reference recognizer over the merged-phone pool; a vocabulary
    past the device's cap raises ``ValueError``."""
    if len(dictionary) > NEDEVSCHI["max_words"]:
        raise ValueError(f"{len(dictionary)} words exceed the device's word cap")
    reduced = merged_pool(pool, tying, phone_set, num_phone_groups)
    return Recognizer.create(dictionary, reduced, lm, tying, mode="reference")


def test_software_not_real_time_at_scale(benchmark, dictation_cd):
    """Full-budget senone load swamps the embedded core."""

    def run():
        recognizer = Recognizer.create(
            dictation_cd.dictionary, dictation_cd.pool, dictation_cd.lm,
            dictation_cd.tying, mode="reference",
            config=DecoderConfig(use_feedback=False),  # Sphinx-style full eval
        )
        result = recognizer.decode(dictation_cd.corpus.test[0].features)
        return software_cpu(result, dictation_cd.pool)[0]

    realtime = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nsoftware on embedded core: {realtime.format()}")
    assert not realtime.is_real_time
    assert realtime.real_time_factor > 3.0


def test_our_soc_is_real_time_on_same_load(benchmark, dictation_cd):
    def run():
        soc = SpeechSoC(
            dictation_cd.dictionary, dictation_cd.pool, dictation_cd.lm,
            dictation_cd.tying,
        )
        return soc.decode_features(dictation_cd.corpus.test[0].features)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nour SoC: {report.op_unit_reports[0].format()}")
    assert report.is_real_time


def test_mathew_power_and_bandwidth(benchmark, dictation_cd):
    def run():
        rec = Recognizer.create(
            dictation_cd.dictionary, dictation_cd.pool, dictation_cd.lm,
            dictation_cd.tying, mode="hardware",
            config=DecoderConfig(use_feedback=False),
        )
        mathew = mathew_accelerator(rec.decode(dictation_cd.corpus.test[0].features))
        ours = SpeechSoC(
            dictation_cd.dictionary, dictation_cd.pool, dictation_cd.lm,
            dictation_cd.tying,
        )
        ours_report = ours.decode_features(dictation_cd.corpus.test[0].features)
        return mathew, ours_report

    (power, bandwidth_gbps, cpu_stall), ours_report = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    print()
    print(
        format_table(
            ["system", "power mW", "bandwidth GB/s", "CPU stall"],
            [
                [
                    "Mathew et al. (no feedback, no DMA)",
                    f"{power.average_power_w * 1e3:.0f}",
                    f"{bandwidth_gbps:.3f}",
                    f"{cpu_stall:.1%}",
                ],
                [
                    "this paper (feedback + DMA)",
                    f"{ours_report.power.average_power_w * 1e3:.0f}",
                    f"{ours_report.mean_bandwidth_gbps:.3f}",
                    "0.0% (DMA)",
                ],
            ],
            title="A2: accelerator comparison on the 6000-senone dictation load",
        )
    )
    assert power.average_power_w > 1.5 * ours_report.power.average_power_w
    assert bandwidth_gbps > ours_report.mean_bandwidth_gbps
    assert cpu_stall > 0.01


def test_nedevschi_limitations(benchmark):
    """Vocabulary cap + merged phones on the command task.

    The asserted comparison is at 12 phone groups; the printed sweep over
    the group count shows where merging stops costing words (12 groups
    alone reads 100 % WER, saturated)."""
    task = command_task(seed=19)
    utts = task.corpus.test[:8]
    refs = [utt.words for utt in utts]

    def wer(recognizer):
        return corpus_wer(refs, [recognizer.decode(u.features).words for u in utts])

    def run():
        device = {
            groups: wer(
                nedevschi_recognizer(
                    task.dictionary, task.pool, task.lm, task.tying,
                    task.corpus.phone_set, num_phone_groups=groups,
                )
            )
            for groups in (8, 12, 16, 24, 32, 40)
        }
        full = Recognizer.create(
            task.dictionary, task.pool, task.lm, task.tying, mode="reference"
        )
        return device, wer(full)

    device, full_wer = benchmark.pedantic(run, rounds=1, iterations=1)
    device_wer = device[12]
    print(f"\ncommand task WER: Nedevschi-style (12 phone groups) "
          f"{device_wer.wer:.1%} vs ours {full_wer.wer:.1%}")
    sweep = ", ".join(f"{groups}: {w.wer:.1%}" for groups, w in device.items())
    print(f"device WER by phone groups: {sweep}, "
          f"full set ({len(task.corpus.phone_set)}): {full_wer.wer:.1%}")
    assert device_wer.wer > full_wer.wer

    # The 200-word cap: a large-vocabulary dictionary must be rejected.
    big = PronunciationDictionary.from_pronunciations(generate_words(300, seed=9))
    with pytest.raises(ValueError):
        nedevschi_recognizer(big, task.pool, task.lm, task.tying, task.corpus.phone_set)
