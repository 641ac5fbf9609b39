"""The metric and workload catalogue — the one place names, units,
directions and bounds are written down.  ``BENCHMARK.json`` at the repo
root is this catalogue rendered (``python -m benchmarks.perf.metrics``
prints it; the harness test asserts the two agree).

``exact`` marks a count that must repeat exactly for a given seed: the
A/A tool asserts it, and only such counts may ever back a claim that
is not a timing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

__all__ = [
    "Metric",
    "RUN_SECONDS",
    "WORKLOADS",
    "END_TO_END",
    "PER_LAYER",
    "EXACT",
    "benchmark_json",
]

#: Declared measuring time of one run; the fixed replay counts in
#: ``workloads.py`` are sized to about this much replayed work.
RUN_SECONDS = 15


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float | None = None  # end-to-end only
    exact: bool = False


WORKLOADS = [
    (
        "seq_command",
        "closed loop, 1 caller: waveform -> MFCC -> sequential reference decode; "
        "the paper's embedded single stream, bank/serve/wire layers idle",
    ),
    (
        "bank_tree",
        "offline stream, 8 lanes: fast-GMM over the lexical tree on CD dictation; "
        "the only workload where fast_gmm, the tree token bank and exits all weigh",
    ),
    (
        "bank_dense",
        "offline stream, 8 lanes: dense blas scoring of every senone every frame; "
        "a scoring-kernel gain shows here, a token-update gain does not",
    ),
    (
        "wire_command",
        "socket + admission + forked shard in front of the decoder: closed-loop "
        "capacity phase and 30 req/s open-loop paced phase; others bypass all of it",
    ),
]

END_TO_END = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("utt_per_s", "1/s", "higher", 0.20),
    Metric("latency_p50_ms", "ms", "lower", 0.20),
    # 0.25 where the issue's ceiling is 0.20: wire_command's open-loop p90
    # spread 20.7 % in a heavily contended set of ten runs (README, A/A 4).
    Metric("latency_p90_ms", "ms", "lower", 0.25),
    # Exact in effect: one failed send (1 of <= 1150) or one wrong word
    # (1 of >= 80) moves either by more than this.
    Metric("ok_frac", "ratio", "higher", 0.0005),
    Metric("word_acc", "ratio", "higher", 0.0005),
    Metric("peak_rss_mb", "MB", "lower", 0.05),
]


def _m(name: str, unit: str, better: str = "lower", exact: bool = False) -> Metric:
    return Metric(name, unit, better, None, exact)


PER_LAYER = [
    # frontend
    _m("frontend.extract_busy_s", "s"),
    _m("frontend.ms_per_audio_s", "ms/s"),
    _m("frontend.frames", "count", "higher", exact=True),
    # decoder.phone_decode — sequential scoring
    _m("decoder.phone_decode.score_busy_s", "s"),
    _m("decoder.phone_decode.calls", "count", exact=True),
    _m("decoder.phone_decode.senones_requested", "count", exact=True),
    _m("decoder.phone_decode.us_per_senone", "us"),
    _m("decoder.phone_decode.active_senone_frac", "ratio", exact=True),
    # runtime.scoring / hmm.senone — banked scoring
    _m("runtime.scoring.score_pairs_busy_s", "s"),
    _m("runtime.scoring.calls", "count", exact=True),
    _m("runtime.scoring.pairs", "count", exact=True),
    _m("runtime.scoring.ns_per_pair", "ns"),
    _m("runtime.scoring.dense_steps", "count", "higher", exact=True),
    _m("runtime.scoring.gathered_steps", "count", exact=True),
    _m("runtime.scoring.table_mb_per_audio_s", "MB/s"),
    _m("runtime.scoring.stage_share", "ratio"),
    # decoder.fast_gmm — work saved by the four layers
    _m("decoder.fast_gmm.frames_skipped_frac", "ratio", "higher", exact=True),
    _m("decoder.fast_gmm.gaussians_frac", "ratio", exact=True),
    _m("decoder.fast_gmm.dims_frac", "ratio", exact=True),
    _m("decoder.fast_gmm.senones_approximated", "count", "higher", exact=True),
    # decoder.word_decode — sequential token pass + exits
    _m("decoder.word_decode.process_frame_self_s", "s"),
    _m("decoder.word_decode.us_per_frame", "us"),
    _m("decoder.word_decode.active_states_mean", "count", exact=True),
    _m("decoder.word_decode.word_exits", "count", exact=True),
    # core.viterbi_unit / runtime.lextree — token-bank update
    _m("runtime.lextree.update_busy_s", "s"),
    _m("runtime.lextree.ns_per_state_step", "ns"),
    _m("runtime.lextree.active_states_mean", "count", exact=True),
    _m("runtime.lextree.stage_share", "ratio"),
    # decoder.lextree — word exits + beam
    _m("decoder.lextree.exit_busy_s", "s"),
    _m("decoder.lextree.word_exits", "count", exact=True),
    _m("decoder.lextree.stage_share", "ratio"),
    # decoder.best_path
    _m("decoder.best_path.busy_s", "s"),
    _m("decoder.best_path.ms_per_utt", "ms"),
    _m("decoder.best_path.calls", "count", exact=True),
    # runtime.batch — lane lifecycle
    _m("runtime.batch.steps", "count", exact=True),
    _m("runtime.batch.step_ms_p50", "ms"),
    _m("runtime.batch.step_ms_p90", "ms"),
    _m("runtime.batch.steps_over_10ms_frac", "ratio"),
    _m("runtime.batch.lane_utilization", "ratio", "higher", exact=True),
    _m("runtime.batch.admit_busy_s", "s"),
    _m("runtime.batch.retire_busy_s", "s"),
    _m("runtime.batch.bookkeeping_self_s", "s"),
    # runtime.serving / serve.engine — the shard
    _m("runtime.serving.worker_queue_ms_p50", "ms"),
    _m("runtime.serving.decode_ms_p50", "ms"),
    _m("runtime.serving.lane_utilization", "ratio", "higher"),
    _m("runtime.serving.steps", "count"),
    # serve.server — admission and dispatch
    _m("serve.server.queue_wait_ms_p50", "ms"),
    _m("serve.server.queue_wait_ms_p90", "ms"),
    _m("serve.server.dispatch_ms_p50", "ms"),
    _m("serve.server.queue_depth_max", "count"),
    _m("serve.server.rejections", "count"),
    _m("serve.server.timeouts", "count"),
    _m("serve.server.steals", "count"),
    # serve.transport / serve.client — the wire
    _m("serve.transport.receive_ms_p50", "ms"),
    _m("serve.transport.bytes_per_req", "B", exact=True),
    _m("serve.transport.encode_us_per_req", "us"),
    _m("serve.transport.decode_us_per_req", "us"),
    _m("serve.client.rtt_idle_ms", "ms"),
    _m("serve.client.unaccounted_ms_p50", "ms"),
    _m("serve.client.outside_decode_ms_p50", "ms"),
    # setup and fixtures
    _m("setup.network_build_s", "s"),
    _m("setup.scorer_build_s", "s"),
    _m("setup.runtime_start_s", "s"),
    _m("setup.first_decode_s", "s"),
    _m("workloads.task_build_s", "s"),
    _m("workloads.audio_s", "s", "higher", exact=True),
    _m("workloads.frames", "count", "higher", exact=True),
    # obs — what the benchmark's own wrappers cost
    _m("obs.traced_vs_untraced", "ratio"),
    # process
    _m("process.cpu_s_per_audio_s", "s/s"),
    _m("process.cpu_util", "ratio"),
    _m("process.rss_after_setup_mb", "MB"),
    _m("process.rss_growth_mb", "MB"),
    _m("process.gc_collections", "count"),
    _m("process.invol_ctx_switches", "count"),
    # harness — noise diagnostics
    _m("harness.replays", "count", "higher"),
    _m("harness.pass_s_min", "s"),
    _m("harness.pass_s_median", "s"),
    _m("harness.pass_s_iqr", "s"),
    _m("harness.raw_utt_per_s", "1/s", "higher"),
    _m("harness.latency_all_p50_ms", "ms"),
    _m("harness.latency_all_p90_ms", "ms"),
    _m("harness.box_speed_p50", "ratio"),
    _m("harness.box_speed_max", "ratio"),
    _m("harness.shard_speed_p50", "ratio"),
    _m("harness.generator_late_ms_p95", "ms"),
    _m("harness.samples", "count", "higher"),
]

EXACT = frozenset(m.name for m in PER_LAYER if m.exact)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
