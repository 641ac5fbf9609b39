"""A1 — ablation of the four-layer fast-GMM scheme (Chan et al. [1]).

Paper (Section IV-B): "Our architecture adapts to the four layer
scheme integrated by A. Chan et al.  The Conditional Down Sampling
(CDS) is one of the four layers and has the potential to cut the power
usage by a considerable margin."

Each layer is toggled on the dictation workload; for every
configuration we report recognition accuracy, the work executed
(Gaussians, dimensions, skipped frames) and the modelled unit power.
"""

import dataclasses

from repro.core.power import PowerModel
from repro.decoder.fast_gmm import FastGmmConfig, FastGmmStats, equivalent_activity
from repro.decoder.recognizer import Recognizer
from repro.eval.report import format_table
from repro.eval.wer import corpus_wer

_CONFIGS = {
    "baseline": FastGmmConfig(),
    "L1 CDS": FastGmmConfig(cds_enabled=True, cds_distance=18.0),
    "L2 CI-select": FastGmmConfig(ci_selection_enabled=True, ci_margin=14.0),
    "L3 Gauss-select": FastGmmConfig(gaussian_selection_enabled=True, gs_shortlist=2),
    "L4 PDE": FastGmmConfig(pde_enabled=True, pde_margin=40.0),
    "all layers": FastGmmConfig(
        cds_enabled=True,
        cds_distance=18.0,
        ci_selection_enabled=True,
        ci_margin=14.0,
        gaussian_selection_enabled=True,
        gs_shortlist=2,
        pde_enabled=True,
        pde_margin=40.0,
    ),
}


def _run_config(task, name, config, utterances=6):
    recognizer = Recognizer.create(
        task.dictionary, task.pool, task.lm, task.tying,
        mode="fast", fast_config=config,
    )
    utts = task.corpus.test[:utterances]
    results = [recognizer.decode(utt.features) for utt in utts]
    counts = corpus_wer([u.words for u in utts], [r.words for r in results])
    # Each decode starts fresh counters, so the work of the list is the
    # sum over its utterances — priced against the audio of the SAME
    # utterances (one utterance's work spread over six utterances'
    # audio understates the dynamic power about six-fold).
    stats = FastGmmStats(
        *(
            sum(getattr(r.fast_stats, f.name) for r in results)
            for f in dataclasses.fields(FastGmmStats)
        )
    )
    senones_requested = sum(r.scoring_stats.senones_requested for r in results)
    audio_s = sum(r.audio_seconds for r in results)
    activity = equivalent_activity(stats, task.pool.dim, senones_requested)
    power = PowerModel().unit_report(activity, audio_s)
    return {
        "config": name,
        "wer": counts.wer,
        "gauss_frac": stats.gaussian_fraction if stats.gaussians_possible else 1.0,
        "dim_frac": stats.dim_fraction if stats.dims_possible else 1.0,
        "skip_frac": stats.skip_fraction,
        "power_mw": power.average_power_w * 1e3,
    }


def test_fourlayer_ablation(benchmark, dictation_cd):
    def run():
        return [
            _run_config(dictation_cd, name, config)
            for name, config in _CONFIGS.items()
        ]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["config", "WER", "gauss frac", "dim frac", "frames skipped", "power mW"],
            [
                [
                    r["config"],
                    f"{r['wer']:.1%}",
                    f"{r['gauss_frac']:.2f}",
                    f"{r['dim_frac']:.2f}",
                    f"{r['skip_frac']:.0%}",
                    f"{r['power_mw']:.1f}",
                ]
                for r in rows
            ],
            title="A1: four-layer fast-GMM ablation (6000-senone dictation)",
        )
    )
    by_name = {r["config"]: r for r in rows}
    baseline = by_name["baseline"]
    # Every layer must cut power without wrecking accuracy.  (The
    # word-decode feedback already prunes ~93% of senones, yet the
    # decode-driven load still sits well above the leakage/clock floor:
    # the combined scheme roughly halves it.  The CDS saving at full
    # load is measured in bench_power.)
    for name in ("L1 CDS", "L2 CI-select", "L3 Gauss-select", "L4 PDE", "all layers"):
        row = by_name[name]
        assert row["power_mw"] < baseline["power_mw"], name
        assert row["wer"] <= baseline["wer"] + 0.10, name
    combined = by_name["all layers"]
    # The combined configuration compounds the work savings.
    assert combined["dim_frac"] < 0.7
    assert combined["gauss_frac"] < 0.8
    assert combined["skip_frac"] > 0.10
    assert combined["power_mw"] < 0.9 * baseline["power_mw"]
