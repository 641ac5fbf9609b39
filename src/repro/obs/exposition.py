"""Prometheus-style text exposition of a server metrics snapshot.

:func:`render_metrics_text` turns a
:class:`~repro.serve.metrics.ServerMetrics` snapshot plus the server's
latency histograms into the plain-text exposition format scrapers
expect: ``counter`` lines for the monotonic counters, ``gauge`` lines
for the instantaneous ones, and a full ``histogram`` family
(cumulative ``_bucket{le=...}`` lines, ``_sum``, ``_count``) per
latency series, with per-worker and telemetry families labelled by
shard.  Quantile gauges carry the histogram-derived p50/p95/p99; an
empty series renders ``NaN``, which the exposition format defines and
which no dashboard mistakes for a great latency.

This module only formats — it imports nothing from :mod:`repro.serve`
(the metrics object is duck-typed), so the dependency arrow stays
serve -> obs.
"""

from __future__ import annotations

import math

from repro.obs.histogram import LogHistogram

__all__ = ["render_metrics_text"]

_PREFIX = "repro_serve"


def _fmt(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


class _Writer:
    def __init__(self) -> None:
        self.lines: list[str] = []

    def family(self, name: str, kind: str, help_text: str) -> None:
        self.lines.append(f"# HELP {_PREFIX}_{name} {help_text}")
        self.lines.append(f"# TYPE {_PREFIX}_{name} {kind}")

    def sample(self, name: str, value, labels: dict | None = None) -> None:
        label_s = ""
        if labels:
            inner = ",".join(f'{k}="{v}"' for k, v in labels.items())
            label_s = "{" + inner + "}"
        self.lines.append(f"{_PREFIX}_{name}{label_s} {_fmt(value)}")

    def histogram(
        self, name: str, hist: LogHistogram, help_text: str
    ) -> None:
        """Cumulative buckets + sum/count + quantile gauges."""
        self.family(f"{name}_seconds", "histogram", help_text)
        cumulative = 0
        for idx, count in enumerate(hist.counts):
            cumulative += count
            if count == 0 and idx not in (0, len(hist.counts) - 1):
                continue  # sparse: only occupied edges (plus the ends)
            upper = hist.bucket_upper(idx)
            le = "+Inf" if math.isinf(upper) else repr(upper)
            self.sample(
                f"{name}_seconds_bucket", cumulative, {"le": le}
            )
        self.sample(f"{name}_seconds_sum", hist.sum)
        self.sample(f"{name}_seconds_count", hist.count)
        for q in (0.5, 0.95, 0.99):
            self.sample(
                f"{name}_seconds",
                hist.percentile(q),
                {"quantile": repr(q)},
            )

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


def render_metrics_text(
    metrics, histograms: dict[str, LogHistogram]
) -> str:
    """The exposition document for one snapshot.

    ``metrics`` is a :class:`~repro.serve.metrics.ServerMetrics`
    (duck-typed); ``histograms`` maps series name (``latency``,
    ``wait``, ``shed_wait``) to the server's live histograms.
    """
    w = _Writer()
    counters = [
        ("submitted", "Utterances accepted past admission"),
        ("completed", "Utterances decoded to a result"),
        ("timeouts", "Deadline misses (queued or mid-decode)"),
        ("cancelled", "Client cancellations"),
        ("errors", "Engine / worker failures"),
        ("rejections", "Load sheds at the admission door"),
        ("retries", "Jobs re-dispatched after a worker death"),
        ("reconnects", "Wire clients re-attaching under a known name"),
        ("faults_injected", "FaultPlan faults actually consumed"),
        ("brownout_transitions", "Brownout engage+release edges"),
    ]
    for name, help_text in counters:
        w.family(f"{name}_total", "counter", help_text)
        w.sample(f"{name}_total", getattr(metrics, name))

    gauges = [
        ("queue_depth", "Jobs waiting in the admission queue"),
        ("in_flight", "Jobs dispatched to workers, unresolved"),
        ("audio_seconds", "Audio decoded since start"),
        ("rtf", "Decode wall time per second of audio"),
        ("brownout_active", "1 while brownout is engaged"),
        ("model_table_bytes", "Scoring-table footprint per worker"),
    ]
    for name, help_text in gauges:
        w.family(name, "gauge", help_text)
        w.sample(name, getattr(metrics, name))

    for name, hist in histograms.items():
        if hist is None:
            continue
        w.histogram(name, hist, f"Distribution of {name} seconds")

    w.family("worker_alive", "gauge", "1 while the shard serves")
    for worker in metrics.workers:
        w.sample("worker_alive", worker.alive, {"worker": worker.worker})
    w.family("worker_in_flight", "gauge", "Unresolved jobs on the shard")
    for worker in metrics.workers:
        w.sample(
            "worker_in_flight", worker.in_flight, {"worker": worker.worker}
        )
    w.family(
        "worker_frames_processed_total",
        "counter",
        "Real frames the shard's lane bank decoded",
    )
    for worker in metrics.workers:
        w.sample(
            "worker_frames_processed_total",
            worker.frames_processed,
            {"worker": worker.worker},
        )

    # Decode-depth telemetry, per shard: every additive counter of the
    # shard's DecodeTelemetry rollup becomes one labelled sample.
    telemetered = [
        w_ for w_ in metrics.workers if getattr(w_, "telemetry", None)
    ]
    if telemetered:
        w.family(
            "decode_telemetry_total",
            "counter",
            "Per-shard decode-depth counters (field label selects which)",
        )
        for worker in telemetered:
            for key, value in worker.telemetry.to_dict().items():
                w.sample(
                    "decode_telemetry_total",
                    value,
                    {"worker": worker.worker, "field": key},
                )
    return w.render()
