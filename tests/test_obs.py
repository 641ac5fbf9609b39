"""`repro.obs` units: histograms, traces, telemetry, flight recorder.

Covers, per the PR's acceptance criteria:

* :class:`LogHistogram` — O(1) memory under sustained recording (the
  regression test for the unbounded-deque metrics bug), NaN on empty,
  bounded-relative-error percentiles, exact bucket-wise merge, sparse
  dict round trip;
* :class:`Trace` / :class:`Span` — minting uniqueness (including
  thread safety), well-nested span trees under an injectable clock,
  merge-by-trace-id semantics, dict round trip, tree rendering;
* :class:`DecodeTelemetry` — additive merge is field-exact, derived
  fractions, dict round trip ignoring unknown keys;
* :class:`FlightRecorder` — bounded rings, per-shard merge order,
  bounded incident retention;
* exposition — counters/gauges/histogram families render, NaN
  percentiles render as the literal ``NaN``.
"""

import json
import math
import sys
import threading

import pytest

from repro.obs import (
    DecodeTelemetry,
    FlightRecorder,
    LogHistogram,
    Trace,
    mint_trace_id,
)
from repro.obs.exposition import render_metrics_text
from repro.obs.flight import SERVER_SHARD


# ----------------------------------------------------------------------
# LogHistogram
# ----------------------------------------------------------------------
class TestLogHistogram:
    def test_empty_percentile_is_nan_not_zero(self):
        hist = LogHistogram()
        assert math.isnan(hist.percentile(0.5))
        assert math.isnan(hist.percentile(0.95))
        assert hist.count == 0

    def test_percentile_relative_error_is_bucket_bounded(self):
        hist = LogHistogram()
        values = [0.001 * 1.11**i for i in range(80)]  # spans decades
        for v in values:
            hist.record(v)
        ratio = 10 ** (1 / hist.per_decade)
        for q in (0.1, 0.5, 0.9, 0.99):
            exact = sorted(values)[min(len(values) - 1, int(q * len(values)))]
            approx = hist.percentile(q)
            # Within two bucket widths of the exact sample quantile
            # (one for the bucket, one for rank-rounding at the edge).
            assert exact / ratio**2 <= approx <= exact * ratio**2

    def test_out_of_range_values_clamp_to_bounds(self):
        hist = LogHistogram(lo=1e-3, hi=1.0)
        for v in (0.0, -5.0, 1e-9):
            hist.record(v)
        assert hist.percentile(0.5) == hist.lo
        hist2 = LogHistogram(lo=1e-3, hi=1.0)
        hist2.record(50.0)
        assert hist2.percentile(0.5) == hist2.hi

    def test_memory_is_constant_over_10k_completions(self):
        """THE regression test for the unbounded metrics-series bug:
        the latency accumulator must not grow with traffic."""
        hist = LogHistogram()
        baseline = sys.getsizeof(hist.counts) + len(hist.counts)
        for i in range(10_000):
            hist.record(0.0001 * (1 + i % 997))
        assert hist.count == 10_000
        assert sys.getsizeof(hist.counts) + len(hist.counts) == baseline
        # And the structure holds no per-sample storage at all.
        assert len(hist.counts) == hist.num_buckets + 2

    def test_merge_is_exact_and_config_checked(self):
        a, b = LogHistogram(), LogHistogram()
        for i in range(50):
            a.record(0.01 * (1 + i))
            b.record(0.5 + 0.01 * i)
        combined = a.merged(b)
        assert combined.count == a.count + b.count
        assert combined.sum == pytest.approx(a.sum + b.sum)
        for i, n in enumerate(combined.counts):
            assert n == a.counts[i] + b.counts[i]
        with pytest.raises(ValueError, match="different bucket configs"):
            a.merge(LogHistogram(per_decade=10))

    def test_dict_round_trip_is_sparse_and_json_safe(self):
        hist = LogHistogram()
        for v in (0.002, 0.002, 0.4, 7.0):
            hist.record(v)
        data = json.loads(json.dumps(hist.to_dict()))
        assert len(data["buckets"]) == 3  # only occupied buckets ship
        back = LogHistogram.from_dict(data)
        assert back.counts == hist.counts
        assert back.percentile(0.5) == hist.percentile(0.5)


# ----------------------------------------------------------------------
# Traces
# ----------------------------------------------------------------------
class TestTrace:
    def test_minted_ids_are_unique_across_threads(self):
        ids = []
        lock = threading.Lock()

        def mint_many():
            local = [mint_trace_id() for _ in range(200)]
            with lock:
                ids.extend(local)

        threads = [threading.Thread(target=mint_many) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(ids)) == len(ids)

    def test_spans_are_well_nested_under_injected_clock(self):
        """Children lie inside their parents and siblings advance
        monotonically — the structural invariant the serving stack
        promises for every merged trace."""
        trace = Trace(trace_id="t-1", utt_id=3)
        trace.add("request", 0.0, 10.0)
        trace.add("queue.wait", 1.0, 3.0, parent="request")
        trace.add("decode", 3.0, 9.0, parent="request", worker=1)
        trace.add("decode.scoring", 3.0, 7.0, parent="decode", worker=1)
        trace.add("decode.token_update", 7.0, 9.0, parent="decode", worker=1)
        by_name = {s.name: s for s in trace.spans}
        for span in trace.spans:
            assert span.end_s >= span.start_s
            if span.parent is not None:
                parent = by_name[span.parent]
                assert parent.start_s <= span.start_s
                assert span.end_s <= parent.end_s
        siblings = [s for s in trace.spans if s.parent == "decode"]
        starts = [s.start_s for s in siblings]
        assert starts == sorted(starts)
        assert trace.duration_s == 10.0

    def test_merge_requires_matching_trace_id(self):
        ours = Trace(trace_id="t-1")
        ours.add("request", 0.0, 2.0)
        theirs = Trace(trace_id="t-1")
        theirs.add("decode", 0.5, 1.5, worker=0)
        ours.merge(theirs)
        assert {s.name for s in ours.spans} == {"request", "decode"}
        with pytest.raises(ValueError, match="cannot merge"):
            ours.merge(Trace(trace_id="t-2"))

    def test_dict_round_trip(self):
        trace = Trace(trace_id="t-9", utt_id=4)
        trace.add("request", 1.0, 2.0)
        trace.add("decode", 1.2, 1.9, parent="request", worker=2)
        back = Trace.from_dict(json.loads(json.dumps(trace.to_dict())))
        assert back.trace_id == "t-9" and back.utt_id == 4
        assert [s.to_dict() for s in back.spans] == [
            s.to_dict() for s in trace.spans
        ]

    def test_render_draws_the_tree(self):
        trace = Trace(trace_id="t-7", utt_id=0)
        trace.add("request", 0.0, 0.010)
        trace.add("decode", 0.002, 0.009, parent="request", worker=1)
        trace.add("decode.scoring", 0.002, 0.007, parent="decode", worker=1)
        text = trace.render()
        lines = text.splitlines()
        assert "trace t-7" in lines[0]
        assert any("decode" in l and "[worker 1]" in l for l in lines)
        # The child is indented beneath its parent.
        decode_at = next(i for i, l in enumerate(lines) if "─ decode " in l)
        child_at = next(i for i, l in enumerate(lines) if "decode.scoring" in l)
        assert child_at > decode_at
        assert lines[child_at].index("decode.scoring") > lines[
            decode_at
        ].index("decode")

    def test_dangling_parent_promotes_child_to_root(self):
        trace = Trace(trace_id="t-8")
        trace.add("decode", 0.0, 1.0, parent="request")  # never merged
        assert "decode" in trace.render()


# ----------------------------------------------------------------------
# DecodeTelemetry
# ----------------------------------------------------------------------
class TestDecodeTelemetry:
    def test_merge_sums_every_field(self):
        a = DecodeTelemetry(frames=10, active_states=100, senones_scored=40)
        b = DecodeTelemetry(
            frames=5, active_states=20, stage_scoring_s=0.25, word_exits=3
        )
        a.merge(b).merge(None)
        assert a.frames == 15
        assert a.active_states == 120
        assert a.senones_scored == 40
        assert a.word_exits == 3
        assert a.stage_scoring_s == 0.25
        assert a.mean_active_states == pytest.approx(8.0)

    def test_fractions_guard_empty(self):
        tel = DecodeTelemetry()
        assert tel.mean_active_states == 0.0
        assert tel.fast_gaussian_fraction == 0.0
        assert tel.fast_dim_fraction == 0.0

    def test_dict_round_trip_ignores_unknown_keys(self):
        tel = DecodeTelemetry(frames=7, blas_dense_steps=5)
        data = tel.to_dict()
        data["从未见过"] = 1  # forward-compat: wire peers may be newer
        back = DecodeTelemetry.from_dict(data)
        assert back == tel


# ----------------------------------------------------------------------
# FlightRecorder
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def make(self, **kw):
        ticks = iter(range(100000))
        return FlightRecorder(clock=lambda: float(next(ticks)), **kw)

    def test_rings_are_bounded(self):
        rec = self.make(shards=2, capacity=8)
        for i in range(100):
            rec.record("dispatch", shard=i % 2, utt=i)
        assert len(rec.events(0)) == 8
        assert len(rec.events(1)) == 8
        # Oldest events were evicted, newest retained.
        assert rec.events(1)[-1]["utt"] == 99

    def test_incident_merges_shard_and_front_door(self):
        rec = self.make(shards=2)
        rec.record("submit", utt=1)
        rec.record("dispatch", shard=0, utt=1)
        rec.record("dispatch", shard=1, utt=2)
        dump = rec.incident("timeout", shard=0, detail="utt 1")
        kinds = [(e["kind"], e["shard"]) for e in dump.events]
        assert ("submit", SERVER_SHARD) in kinds
        assert ("dispatch", 0) in kinds
        assert ("dispatch", 1) not in kinds  # other shard's ring excluded
        ats = [e["at"] for e in dump.events]
        assert ats == sorted(ats)
        text = dump.render()
        assert "incident: timeout shard=0" in text
        assert "utt 1" in text

    def test_incident_log_is_bounded(self):
        rec = self.make(shards=1, max_incidents=4)
        for i in range(10):
            rec.incident(f"fault-{i}")
        kept = rec.incidents()
        assert len(kept) == 4
        assert kept[-1].reason == "fault-9"

    def test_unknown_shard_falls_back_to_front_door(self):
        rec = self.make(shards=1)
        rec.record("resolve", shard=99, utt=1)
        assert any(e["kind"] == "resolve" for e in rec.events(SERVER_SHARD))


# ----------------------------------------------------------------------
# Exposition
# ----------------------------------------------------------------------
class _FakeWorker:
    def __init__(self, worker):
        self.worker = worker
        self.alive = True
        self.in_flight = 2
        self.frames_processed = 100
        self.telemetry = DecodeTelemetry(frames=10, senones_scored=50)


class _FakeMetrics:
    submitted = 5
    completed = 4
    timeouts = 1
    cancelled = 0
    errors = 0
    rejections = 2
    retries = 0
    reconnects = 0
    faults_injected = 0
    brownout_transitions = 0
    queue_depth = 3
    in_flight = 2
    audio_seconds = 1.5
    rtf = 0.2
    brownout_active = False
    model_table_bytes = 1024
    workers = [_FakeWorker(0), _FakeWorker(1)]


class TestExposition:
    def test_renders_counters_gauges_histograms_and_telemetry(self):
        hist = LogHistogram()
        for v in (0.01, 0.02, 0.04):
            hist.record(v)
        text = render_metrics_text(
            _FakeMetrics(), {"latency": hist, "wait": LogHistogram()}
        )
        assert "# TYPE repro_serve_completed_total counter" in text
        assert "repro_serve_completed_total 4" in text
        assert "repro_serve_queue_depth 3" in text
        assert "# TYPE repro_serve_latency_seconds histogram" in text
        assert 'repro_serve_latency_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_serve_latency_seconds_count 3" in text
        # An empty series' quantile gauges are the literal NaN.
        assert 'repro_serve_wait_seconds{quantile="0.95"} NaN' in text
        assert (
            'repro_serve_decode_telemetry_total{worker="1",field="senones_scored"} 50'
            in text
        )
        # Exposition documents end with a newline.
        assert text.endswith("\n")

    def test_cumulative_buckets_are_monotonic(self):
        hist = LogHistogram()
        for i in range(200):
            hist.record(0.001 * (1 + i))
        text = render_metrics_text(_FakeMetrics(), {"latency": hist})
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_serve_latency_seconds_bucket")
        ]
        assert counts == sorted(counts)
        assert counts[-1] == 200
