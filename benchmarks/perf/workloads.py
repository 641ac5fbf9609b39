"""The four workloads: what each builds, replays and traces.

A workload is a fixed, seeded list of >= 100 distinct requests replayed
a FIXED number of times (never time-boxed, so two commits do identical
work).  Everything here calls public entry points of the product and
reads the instruments it already emits (``RecognitionResult.timing`` /
``telemetry`` / ``trace``, ``LaneBank.stage_*_s``, ``Server.metrics()``);
nothing under ``src/`` is touched.  README.md says why each workload
exists and which layer should move which number on it.

Sizes are fitted to the driver's budget (about 35 s per run including
fixture training); README.md records what was shrunk from the sizes
the issue first proposed and what that did to the stage split.
``word_acc`` is scored on a separate FIXED evaluation list (generator
seed 0, outside every timed window), so it reads the same under every
``--seed`` and only a change to the program can move it.
"""

from __future__ import annotations

import asyncio
import copy
import gc
import multiprocessing
import os
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import repro.decoder.recognizer as recognizer_module
import repro.runtime.batch as batch_module
import repro.serve.client as client_module
import repro.serve.transport as transport_module
from repro.decoder.fast_gmm import FastGmmConfig
from repro.decoder.recognizer import Recognizer, build_network
from repro.decoder.scorer import BLAS_SCORE_ATOL
from repro.decoder.word_decode import DecoderConfig
from repro.eval.wer import corpus_wer
from repro.frontend.features import Frontend
from repro.obs.telemetry import DecodeTelemetry
from repro.serve import AdmissionRejected, ServeClient, Server, WireServer
from repro.workloads.tasks import (
    TrainedTask,
    command_task,
    dictation_cd_task,
    expand_to_context_dependent,
)

from . import harness
from .generator import Request, digest, make_requests, poisson_due_times
from .metrics import END_TO_END, PER_LAYER
from .spans import SpanRecorder, aggregate

__all__ = ["Spec", "SPECS", "Raw", "measure", "summarize", "run_workload"]

MAX_LANES = 8
CHECKED = 8  # leading requests also decoded by a sequential Recognizer
FRAME_S = 0.010
SEQ_PROBE_EVERY = 10  # requests between box-speed probes (~0.4 s)
BANK_PROBE_EVERY = 12  # stream admissions between probes (~0.6 s)
WIRE_PROBE_PERIOD_S = 0.25  # the shard's speed helper
PACE_WINDOW_S = 1.0  # shard-speed samples that set an open loop's time scale
EVAL_REQUESTS = 50  # the fixed list word_acc is scored on
EVAL_SEED = 0  # generator seed of everything that must not follow --seed
#: Units of per-layer metrics that are durations (box-speed corrected).
TIME_UNITS = frozenset({"s", "ms", "us", "ns", "ms/s"})
UNITS = {m.name: m.unit for m in PER_LAYER}
_now = time.monotonic  # the product's own stamps use the same clock


# ----------------------------------------------------------------------
# Drivers: one per runtime family.  ``setup`` goes from trained model
# arrays to a first decoded utterance and returns the phase split;
# ``replay`` runs every request once, probing the box speed as it
# goes, and returns box-speed-corrected chunk and per-request seconds
# next to the raw ones; ``traced_replay`` does the same under the
# benchmark's wrappers and returns the per-layer numbers it measured;
# ``decode_words`` decodes the evaluation list, untimed.
# ----------------------------------------------------------------------
def _build_recognizer(
    task: TrainedTask, network: str = "flat", **kwargs
) -> tuple[Recognizer, dict]:
    """Compile the lexicon network, then build the scorer around it;
    returns the recognizer and the two set-up phases it cost."""
    t0 = _now()
    net = build_network(network, task.dictionary, task.tying, task.topology)
    t1 = _now()
    rec = Recognizer(
        network=net, pool=task.pool, lm=task.lm, tying=task.tying, **kwargs
    )
    return rec, {"network_build_s": t1 - t0, "scorer_build_s": _now() - t1}


class Driver:
    """What ``measure`` needs from a runtime family."""

    def __init__(
        self, spec: "Spec", requests: list[Request], warmup: Request,
        seed: int, speed: harness.BoxSpeed,
    ) -> None:
        self.options = spec.options
        self.requests = requests
        self.features = [r.features for r in requests]
        self.warmup = warmup  # the fixed utterance every set-up decodes
        self.speed = speed
        self.pass_speed = speed  # the timeline that corrects the replays
        self.atol = BLAS_SCORE_ATOL if self.options.get("mode") == "blas" else 0.0
        self.rec: Recognizer | None = None

    def sequential(self, task: TrainedTask) -> Recognizer:
        """The sequential recognizer the output check compares with."""
        return self.rec

    def idle_probes(self, layer: dict) -> None:
        """Measurements on the idle runtime, before the replays."""

    def latency_replays(self, check: harness.OutputCheck, passes: list) -> list:
        """The replays ``latency_*`` come from (default: the same)."""
        return passes

    def teardown(self) -> None:
        self.rec = None

    def close(self, layer: dict) -> None:
        """After the last teardown."""

    def release(self) -> None:
        """Stop every process the driver started and wait for each to
        end; runs on every path out of ``measure``, so it must do
        nothing when ``teardown`` and ``close`` already ran."""


class SeqDriver(Driver):
    """Closed loop, one caller: extract features, decode, next."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.frontend = Frontend()

    def setup(self, task: TrainedTask) -> dict:
        self.rec, phases = _build_recognizer(task, mode="reference")
        t0 = _now()
        self._one(self.warmup)
        return {**phases, "runtime_start_s": 0.0, "first_decode_s": _now() - t0}

    def sequential(self, task: TrainedTask) -> Recognizer:
        return _build_recognizer(task, mode="reference")[0]  # not the one measured

    def _one(self, request: Request):
        return self.rec.decode(self.frontend.extract(request.waveform))

    def decode_words(self, requests: list[Request]) -> list[tuple[str, ...]]:
        return [tuple(self._one(request).words) for request in requests]

    def replay(self, check: harness.OutputCheck, phase: str) -> dict:
        speed = self.speed
        spans, chunks, results = [], [], []
        speed.probe()
        for at in range(0, len(self.requests), SEQ_PROBE_EVERY):
            c0 = _now()
            for request in self.requests[at : at + SEQ_PROBE_EVERY]:
                t0 = _now()
                results.append(self._one(request))
                spans.append((t0, _now()))
            chunks.append((c0, _now()))
            speed.probe()
        for request, result in zip(self.requests, results):
            check.record(phase, request.index, result.words, result.score)
        self.last_results = results
        return {
            "throughput_n": len(spans),
            "interval": (chunks[0][0], chunks[-1][1]),
            "chunk_s": [speed.corrected(c0, c1) for c0, c1 in chunks],
            "raw_pass_s": sum(c1 - c0 for c0, c1 in chunks),
            "latency_s": [speed.corrected(t0, t1) for t0, t1 in spans],
            "raw_latency_s": [t1 - t0 for t0, t1 in spans],
        }

    def traced_replay(
        self, recorder: SpanRecorder, check: harness.OutputCheck
    ) -> dict:
        rec = self.rec
        recorder.wrap(self.frontend, "extract", "frontend.extract")
        recorder.wrap(
            rec.word_stage, "process_frame", "decoder.word_decode.process_frame"
        )
        recorder.wrap(
            rec.phone_stage, "score_frame", "decoder.phone_decode.score_frame"
        )
        recorder.wrap(
            recognizer_module, "find_best_path", "decoder.best_path.find_best_path"
        )
        original = self._one

        def one(request: Request):
            with recorder.span("seq.request", request=request.index):
                return original(request)

        self._one = one
        try:
            out = self.replay(check, "traced")
        finally:
            self._one = original
            recorder.unwrap_all()

        agg = aggregate(recorder.spans)
        frames = sum(r.frames for r in self.last_results)
        audio_s = frames * FRAME_S
        stats = [s for r in self.last_results for s in r.frame_stats]
        requested = sum(s.requested_senones for s in stats)
        extract = agg["frontend.extract"]
        score = agg["decoder.phone_decode.score_frame"]
        frame = agg["decoder.word_decode.process_frame"]
        best = agg["decoder.best_path.find_best_path"]
        measured = (
            {
                "frontend.extract_busy_s": extract["busy_s"],
                "frontend.ms_per_audio_s": 1e3 * extract["busy_s"] / audio_s,
                "frontend.frames": frames,
                "decoder.phone_decode.score_busy_s": score["busy_s"],
                "decoder.phone_decode.calls": score["calls"],
                "decoder.phone_decode.senones_requested": requested,
                "decoder.phone_decode.us_per_senone": 1e6 * score["busy_s"] / requested,
                "decoder.phone_decode.active_senone_frac": requested
                / (frames * rec.pool.num_senones),
                "decoder.word_decode.process_frame_self_s": frame["self_s"],
                "decoder.word_decode.us_per_frame": 1e6 * frame["self_s"] / frames,
                "decoder.word_decode.active_states_mean": sum(
                    s.active_states for s in stats
                )
                / frames,
                "decoder.word_decode.word_exits": sum(s.word_exits for s in stats),
                "decoder.best_path.busy_s": best["busy_s"],
                "decoder.best_path.ms_per_utt": 1e3 * best["busy_s"] / best["calls"],
                "decoder.best_path.calls": best["calls"],
            }
        )
        out.update(layer=measured, shares=_self_shares(agg, "seq.request"))
        return out


class BankDriver(Driver):
    """Offline stream through ``decode_stream`` over an 8-lane bank.

    ``options`` are the ``Recognizer`` arguments (mode, network,
    precision, config, fast_config).
    """

    def setup(self, task: TrainedTask) -> dict:
        # The sequential recognizer owns the scorer tables / fast-GMM
        # model; the continuous twin shares them (and is what the
        # output check's sequential reference must agree with).
        self.rec, phases = _build_recognizer(task, **self.options)
        t0 = _now()
        self.crec = self.rec.as_continuous()
        phases["scorer_build_s"] += _now() - t0
        t0 = _now()
        self.crec.decode_stream([self.warmup.features], max_lanes=MAX_LANES)
        return {**phases, "runtime_start_s": 0.0, "first_decode_s": _now() - t0}

    def teardown(self) -> None:
        self.rec = self.crec = None

    def decode_words(self, requests: list[Request]) -> list[tuple[str, ...]]:
        out = self.crec.decode_stream(
            [request.features for request in requests], max_lanes=MAX_LANES
        )
        return [tuple(result.words) for result in out.results]

    def replay(self, check: harness.OutputCheck, phase: str) -> dict:
        speed = self.speed
        cuts = []  # (probe start, probe end) inside the stream

        def waiting_queue():
            # decode_stream pulls the next utterance the moment a lane
            # retires, at the same step of every replay, so a probe
            # taken here cuts the stream into chunks of identical work.
            for index, features in enumerate(self.features):
                if index and index % BANK_PROBE_EVERY == 0:
                    c0 = _now()
                    speed.probe()
                    cuts.append((c0, _now()))
                yield features

        speed.probe()
        t0 = _now()
        out = self.crec.decode_stream(waiting_queue(), max_lanes=MAX_LANES)
        t1 = _now()
        speed.probe()
        for request, result in zip(self.requests, out.results):
            check.record(phase, request.index, result.words, result.score)
        self.last = out
        edges = [t0, *[t for cut in cuts for t in cut], t1]
        chunks = list(zip(edges[0::2], edges[1::2]))
        # lane admission -> result, from the product's own stamps
        spans = [(r.timing.admitted_at, r.timing.finished_at) for r in out.results]
        return {
            "throughput_n": len(out.results),
            "interval": (t0, t1),
            "chunk_s": [speed.corrected(c0, c1) for c0, c1 in chunks],
            "raw_pass_s": sum(c1 - c0 for c0, c1 in chunks),
            "latency_s": [speed.corrected(a, b, serial_probes=True) for a, b in spans],
            "raw_latency_s": [b - a for a, b in spans],
        }

    def traced_replay(
        self, recorder: SpanRecorder, check: harness.OutputCheck
    ) -> dict:
        crec = self.crec
        scorer = crec.scorer
        banks = []
        counts = {"pairs": 0, "dense_pairs": 0, "dense_seen": 0}

        def count_pairs(args, kwargs, result) -> None:
            pairs = len(args[1])
            counts["pairs"] += pairs
            dense = getattr(scorer, "dense_steps", 0)
            if dense > counts["dense_seen"]:
                counts["dense_pairs"] += pairs
            counts["dense_seen"] = dense

        def capture_bank(args, kwargs, bank) -> None:
            banks.append(bank)
            for method in ("step", "admit", "retire", "compact"):
                recorder.wrap(bank, method, f"runtime.batch.{method}")

        recorder.wrap(crec, "make_bank", "runtime.batch.make_bank", capture_bank)
        recorder.wrap(scorer, "score_pairs", "runtime.scoring.score_pairs", count_pairs)
        recorder.wrap(batch_module, "find_best_path", "decoder.best_path.find_best_path")
        try:
            with recorder.span("bank.decode_stream"):
                out = self.replay(check, "traced")
        finally:
            recorder.unwrap_all()

        bank = banks[-1]
        agg = aggregate(recorder.spans)
        tel = DecodeTelemetry()
        for result in self.last.results:
            tel.merge(result.telemetry)
        audio_s = tel.frames * FRAME_S
        stage_total = bank.stage_scoring_s + bank.stage_update_s + bank.stage_exit_s
        steps = [
            s[2] - s[1] for s in recorder.spans if s[0] == "runtime.batch.step"
        ]
        score = agg["runtime.scoring.score_pairs"]
        best = agg["decoder.best_path.find_best_path"]
        pool = crec.pool
        per_senone = (
            pool.means[0].nbytes + pool.variances[0].nbytes + pool.weights[0].nbytes
        )
        dense_steps = getattr(scorer, "dense_steps", 0)
        table_bytes = (
            dense_steps * pool.table_bytes(crec.precision)
            + (counts["pairs"] - counts["dense_pairs"]) * per_senone
        )
        measured = (
            {
                "runtime.scoring.score_pairs_busy_s": score["busy_s"],
                "runtime.scoring.calls": score["calls"],
                "runtime.scoring.pairs": counts["pairs"],
                "runtime.scoring.ns_per_pair": 1e9 * score["busy_s"] / counts["pairs"],
                "runtime.scoring.dense_steps": dense_steps,
                "runtime.scoring.gathered_steps": getattr(scorer, "fallback_steps", 0),
                "runtime.scoring.table_mb_per_audio_s": table_bytes / 1e6 / audio_s,
                "runtime.scoring.stage_share": bank.stage_scoring_s / stage_total,
                "decoder.fast_gmm.frames_skipped_frac": tel.fast_skip_fraction,
                "decoder.fast_gmm.gaussians_frac": tel.fast_gaussian_fraction,
                "decoder.fast_gmm.dims_frac": tel.fast_dim_fraction,
                "decoder.fast_gmm.senones_approximated": tel.fast_senones_approximated,
                "runtime.lextree.update_busy_s": bank.stage_update_s,
                "runtime.lextree.ns_per_state_step": 1e9
                * bank.stage_update_s
                / (tel.frames * crec.network.num_states),
                "runtime.lextree.active_states_mean": tel.mean_active_states,
                "runtime.lextree.stage_share": bank.stage_update_s / stage_total,
                "decoder.lextree.exit_busy_s": bank.stage_exit_s,
                "decoder.lextree.word_exits": tel.word_exits,
                "decoder.lextree.stage_share": bank.stage_exit_s / stage_total,
                "decoder.best_path.busy_s": best["busy_s"],
                "decoder.best_path.ms_per_utt": 1e3 * best["busy_s"] / best["calls"],
                "decoder.best_path.calls": best["calls"],
                "runtime.batch.steps": self.last.steps,
                "runtime.batch.step_ms_p50": 1e3 * harness.quantile(steps, 0.50),
                "runtime.batch.step_ms_p90": 1e3 * harness.quantile(steps, 0.90),
                "runtime.batch.steps_over_10ms_frac": sum(
                    1 for s in steps if s > FRAME_S
                )
                / len(steps),
                "runtime.batch.lane_utilization": self.last.utilization,
                "runtime.batch.admit_busy_s": agg["runtime.batch.admit"]["busy_s"],
                "runtime.batch.retire_busy_s": agg["runtime.batch.retire"]["busy_s"],
                "runtime.batch.bookkeeping_self_s": sum(steps) - stage_total,
            }
        )
        out.update(layer=measured, shares=_self_shares(agg, "bank.decode_stream"))
        out["shares"]["stage_clocks"] = {
            "scoring": bank.stage_scoring_s / stage_total,
            "update": bank.stage_update_s / stage_total,
            "exit": bank.stage_exit_s / stage_total,
        }
        return out


class WireDriver(Driver):
    """ServeClient -> WireServer -> Server -> one forked shard.

    Phase ``capacity`` is a closed loop with ``in_flight`` requests
    outstanding (gives ``utt_per_s``); phase ``paced`` is an open loop
    on a seeded Poisson schedule at a fixed rate well under capacity
    (in box time: see ``_paced``), each request timed from its DUE
    time (gives ``latency_*``).
    """

    def __init__(self, spec: "Spec", requests, warmup, seed: int, speed) -> None:
        super().__init__(spec, requests, warmup, seed, speed)
        opts = spec.options
        self.in_flight = opts["in_flight"]
        self.capacity_order = [
            i % len(requests) for i in range(opts["capacity_sends"])
        ]
        self.due = poisson_due_times(seed, len(requests), opts["rate_per_s"]).tolist()
        self.loop = asyncio.new_event_loop()
        self.server = self.wire = self.client = None
        self.final_metrics = None
        self.shard_speed: harness.FollowerSpeed | None = None

    # -- lifecycle -----------------------------------------------------
    def setup(self, task: TrainedTask) -> dict:
        return self.loop.run_until_complete(self._start(task))

    async def _start(self, task: TrainedTask) -> dict:
        self.rec, phases = _build_recognizer(task, mode="reference")
        t2 = _now()
        self.server = Server(
            self.rec, num_workers=1, max_lanes=MAX_LANES, max_queue=256,
            use_processes=True,
        )
        await self.server.start()
        self.wire = await WireServer(self.server).start()
        self.client = await ServeClient.connect(
            self.wire.host, self.wire.port, client="perf"
        )
        t3 = _now()
        first = await self.client.decode(self.warmup.features)
        if not first.ok:
            raise RuntimeError(f"first wire decode resolved {first.status}")
        return {
            **phases,
            "runtime_start_s": t3 - t2,
            "first_decode_s": _now() - t3,
        }

    def teardown(self) -> None:
        if self.server is not None:
            self.loop.run_until_complete(self._stop())

    async def _stop(self) -> None:
        if self.client is not None:
            await self.client.close()
        if self.wire is not None:
            await self.wire.stop()
        await self.server.stop()
        self.final_metrics = self.server.metrics()  # shard's final LoopStats
        self.rec = self.server = self.wire = self.client = None

    def release(self) -> None:
        if self.shard_speed is not None:
            self.shard_speed.stop()
        try:
            if self.server is not None and not self.loop.is_closed():
                self.loop.run_until_complete(asyncio.wait_for(self._stop(), 30.0))
        except Exception:
            pass  # the run is failing already; the shard is killed below
        finally:
            # a shard the server could not stop
            for child in multiprocessing.active_children():
                child.terminate()
                child.join(10.0)
                if child.is_alive():
                    child.kill()
                    child.join()
            if not self.loop.is_closed():
                self.loop.close()

    def close(self, layer: dict) -> None:
        self.release()
        layer["harness.shard_speed_p50"] = harness.quantile(
            self.shard_speed.factors, 0.50
        )
        shard = self.final_metrics.workers[0]
        layer["runtime.serving.lane_utilization"] = shard.lane_utilization
        layer["runtime.serving.steps"] = shard.steps

    # -- one request ---------------------------------------------------
    async def _send(self, index: int, recorder: SpanRecorder | None):
        if recorder is not None:
            recorder.request = index  # encode_array runs before the first await
        try:
            ticket = await self.client.submit(self.features[index])
        except AdmissionRejected:
            return None
        return await ticket.result()

    def _record(self, check, phase: str, index: int, result) -> None:
        if result is None:
            check.record(phase, index, None, None, "rejected")
        else:
            check.record(phase, index, result.words, result.score, result.status.value)

    # -- phases --------------------------------------------------------
    async def _timed(self, phase) -> tuple[float, float]:
        """Run one phase; returns its interval, with the shard's speed
        samples over it folded in.  Nothing else runs on the client's
        event loop meanwhile."""
        t0 = time.monotonic()
        await phase
        t1 = time.monotonic()
        # the shard's samples trail by up to a period: wait one out so
        # the phase's end is bracketed
        await asyncio.sleep(WIRE_PROBE_PERIOD_S)
        self.shard_speed.drain()
        return t0, t1

    async def _capacity(self, check, phase: str, recorder=None) -> dict:
        order = self.capacity_order
        times = [0.0] * len(order)
        results = [None] * len(order)
        slots = iter(range(len(order)))
        depth = [0]

        async def caller() -> None:
            for slot in slots:
                t0 = time.monotonic()
                results[slot] = await self._send(order[slot], recorder)
                times[slot] = time.monotonic() - t0

        async def sample_queue() -> None:
            while True:
                depth[0] = max(depth[0], self.server.metrics().queue_depth)
                await asyncio.sleep(0.02)

        sampler = asyncio.ensure_future(sample_queue()) if recorder else None
        t0, t1 = await self._timed(
            asyncio.gather(*[caller() for _ in range(self.in_flight)])
        )
        if sampler is not None:
            sampler.cancel()
        for slot, result in enumerate(results):
            self._record(check, phase, order[slot], result)
        return {
            "throughput_n": len(order),
            "interval": (t0, t1),
            "chunk_s": [self.shard_speed.corrected(t0, t1)],
            "raw_pass_s": t1 - t0,
            "raw_latency_s": times,
            "queue_depth_max": depth[0],
        }

    async def _paced(self, check, phase: str, recorder=None) -> dict:
        n = len(self.features)
        sent = [0.0] * n
        done = [0.0] * n
        results = [None] * n

        async def one(index: int) -> None:
            sent[index] = time.monotonic()
            results[index] = await self._send(index, recorder)
            done[index] = time.monotonic()

        due: list[float] = []

        async def schedule() -> None:
            origin = time.monotonic() + 0.05
            # The schedule runs in BOX time: on a box running 1.5x slow
            # the requests come 1.5x further apart, so the shard is as
            # busy as on the quiet box and the latencies, divided by
            # the same factor, stay comparable.  Paced in wall time the
            # offered load rises with the slowdown and queueing makes
            # latency more than linear in it (README has the A/B).
            self.shard_speed.drain()
            scale = self.shard_speed.factor(origin - PACE_WINDOW_S, origin)
            due.extend(origin + scale * t for t in self.due)
            tasks = []
            for index in range(n):
                delay = due[index] - time.monotonic()
                if delay > 0:
                    await asyncio.sleep(delay)
                tasks.append(asyncio.ensure_future(one(index)))
            await asyncio.gather(*tasks)

        t0, t1 = await self._timed(schedule())
        for index, result in enumerate(results):
            self._record(check, phase, index, result)
        raw_latency, lateness = harness.open_loop_times(due, sent, done)
        return {
            "interval": (t0, t1),
            "raw_pass_s": t1 - t0,
            # timed from when each request was DUE, on the quiet box
            "latency_s": [
                self.shard_speed.corrected(a, b) for a, b in zip(due, done)
            ],
            "raw_latency_s": raw_latency,
            "lateness_s": lateness,
            "client_s": [d - s for s, d in zip(sent, done)],
            "sent_at": sent,
            "done_at": done,
            "results": results,
        }

    def replay(self, check: harness.OutputCheck, phase: str) -> dict:
        return self.loop.run_until_complete(self._capacity(check, phase))

    def latency_replays(self, check: harness.OutputCheck, passes: list) -> list:
        return [
            self.loop.run_until_complete(self._paced(check, f"paced{r}"))
            for r in range(self.options["paced_replays"])
        ]

    def decode_words(self, requests: list[Request]) -> list[tuple[str, ...]]:
        async def decode_all():
            # fewer than max_queue, so none is refused
            return await asyncio.gather(
                *[self.client.decode(request.features) for request in requests]
            )

        results = self.loop.run_until_complete(decode_all())
        return [tuple(r.words) if r.ok else () for r in results]

    def idle_probes(self, layer: dict, samples: int = 20) -> None:
        # A request spends ~95 % of its time in the forked shard, on
        # the other vCPU: its speed is what corrects the replays.
        shards = [
            child for child in multiprocessing.active_children()
            if child.name.startswith("serve-shard-")
        ]
        if len(shards) != 1:
            raise RuntimeError(f"expected one forked shard, found {shards}")
        (shard,) = shards
        self.shard_speed = self.pass_speed = harness.FollowerSpeed(
            shard.pid, WIRE_PROBE_PERIOD_S
        )
        give_up = _now() + 30.0
        while not self.shard_speed.times:
            if _now() > give_up:
                raise RuntimeError("the shard's speed probe never reported")
            time.sleep(0.05)
            self.shard_speed.drain()

        async def round_trips() -> float:
            best = float("inf")
            for _ in range(samples):
                t0 = _now()
                await self.client.metrics()
                best = min(best, _now() - t0)
            return best

        self.speed.probe()
        t0 = _now()
        best = self.loop.run_until_complete(round_trips())
        t1 = _now()
        self.speed.probe()
        layer["serve.client.rtt_idle_ms"] = 1e3 * best / self.speed.factor(t0, t1)

    def traced_replay(
        self, recorder: SpanRecorder, check: harness.OutputCheck
    ) -> dict:
        sizes = {"bytes": 0, "encodes": 0}

        def count_bytes(args, kwargs, result) -> None:
            sizes["bytes"] += len(result[1])
            sizes["encodes"] += 1

        recorder.wrap(
            client_module, "encode_array", "serve.transport.encode_array", count_bytes
        )
        recorder.wrap(transport_module, "decode_array", "serve.transport.decode_array")
        try:
            capacity = self.loop.run_until_complete(
                self._capacity(check, "traced.capacity", recorder)
            )
            paced = self.loop.run_until_complete(
                self._paced(check, "traced.paced", recorder)
            )
        finally:
            recorder.unwrap_all()
            recorder.request = None

        # The server's own span tree (tracing is a product default)
        # rides back on every result; fold the paced replay's trees in
        # under one client-side span per request.
        named: dict[str, list[float]] = {}
        unaccounted, outside_decode = [], []
        for index, result in enumerate(paced["results"]):
            if result is None or result.trace is None:
                continue
            root = recorder.add(
                "serve.client.request",
                paced["sent_at"][index],
                paced["done_at"][index],
                request=index,
            )
            ids = {None: root}
            for span in result.trace.spans:
                ids[span.name] = recorder.add(
                    span.name, span.start_s, span.end_s,
                    parent=ids.get(span.parent, root), request=index,
                )
                named.setdefault(span.name, []).append(span.duration_s)
            client_s = paced["client_s"][index]
            request = result.trace.span("request")
            decode = result.trace.span("decode")
            if request is not None:
                unaccounted.append(client_s - request.duration_s)
            if decode is not None:
                outside_decode.append(client_s - decode.duration_s)

        def p(name: str, q: float) -> float:
            values = named.get(name)
            return 1e3 * harness.quantile(values, q) if values else 0.0

        agg = aggregate(recorder.spans)
        encode = agg.get("serve.transport.encode_array", {"busy_s": 0.0, "calls": 1})
        decode = agg.get("serve.transport.decode_array", {"busy_s": 0.0, "calls": 1})
        metrics = self.server.metrics()
        measured = (
            {
                "runtime.serving.worker_queue_ms_p50": p("worker.queue", 0.5),
                "runtime.serving.decode_ms_p50": p("decode", 0.5),
                "serve.server.queue_wait_ms_p50": p("queue.wait", 0.5),
                "serve.server.queue_wait_ms_p90": p("queue.wait", 0.9),
                "serve.server.dispatch_ms_p50": p("dispatch", 0.5),
                "serve.server.queue_depth_max": capacity["queue_depth_max"],
                "serve.server.rejections": metrics.rejections,
                "serve.server.timeouts": metrics.timeouts,
                "serve.server.steals": metrics.steals,
                "serve.transport.receive_ms_p50": p("wire.receive", 0.5),
                "serve.transport.bytes_per_req": sizes["bytes"] / sizes["encodes"],
                "serve.transport.encode_us_per_req": 1e6
                * encode["busy_s"]
                / encode["calls"],
                "serve.transport.decode_us_per_req": 1e6
                * decode["busy_s"]
                / decode["calls"],
                "serve.client.unaccounted_ms_p50": 1e3
                * harness.quantile(unaccounted, 0.5),
                "serve.client.outside_decode_ms_p50": 1e3
                * harness.quantile(outside_decode, 0.5),
            }
        )
        return {
            "interval": paced["interval"],
            "chunk_s": capacity["chunk_s"],
            "layer": measured,
            "shares": _self_shares(agg, "serve.client.request"),
        }


def _self_shares(agg: dict[str, dict], root: str) -> dict:
    """Each span name's self time as a share of the root span's busy
    time — the README's per-workload table."""
    total = agg[root]["busy_s"]
    return {name: entry["self_s"] / total for name, entry in sorted(agg.items())}


# ----------------------------------------------------------------------
# Specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Spec:
    name: str
    build_task: Callable[[], TrainedTask]
    driver: type
    num_requests: int
    min_words: int
    max_words: int
    replays: int  # R, fixed
    setups: int  # K cold set-ups, the minimum is reported
    options: dict = field(default_factory=dict)


def _dense_task() -> TrainedTask:
    return expand_to_context_dependent(command_task(seed=19), num_senones=2048)


def _tree_task() -> TrainedTask:
    return dictation_cd_task(
        vocabulary_size=600, train_sentences=60, seed=31, num_senones=1000
    )


SPECS = {
    "seq_command": Spec(
        name="seq_command",
        build_task=lambda: command_task(seed=19),
        driver=SeqDriver,
        num_requests=100, min_words=1, max_words=4,
        replays=3, setups=9,
    ),
    "bank_tree": Spec(
        name="bank_tree",
        build_task=_tree_task,
        driver=BankDriver,
        num_requests=100, min_words=1, max_words=2,
        replays=3, setups=3,
        options={
            "mode": "fast",
            "network": "tree",
            "fast_config": FastGmmConfig.all_layers(),
        },
    ),
    "bank_dense": Spec(
        name="bank_dense",
        build_task=_dense_task,
        driver=BankDriver,
        num_requests=100, min_words=1, max_words=4,
        replays=3, setups=5,
        options={
            "mode": "blas",
            "precision": "float64",
            "network": "flat",
            "config": DecoderConfig(use_feedback=False),
        },
    ),
    "wire_command": Spec(
        name="wire_command",
        build_task=lambda: command_task(seed=19),
        driver=WireDriver,
        num_requests=100, min_words=1, max_words=4,
        replays=4, setups=5,
        options={
            "in_flight": 16,
            "capacity_sends": 150,
            "paced_replays": 4,
            "rate_per_s": 30.0,
        },
    ),
}


# ----------------------------------------------------------------------
# Measure -> summarize
# ----------------------------------------------------------------------
@dataclass
class Raw:
    """Everything one run measured, before it is reduced to metrics."""

    spec: Spec
    seed: int
    requests: list[Request]
    check: harness.OutputCheck
    setup_samples: list[dict]
    passes: list[dict]  # throughput phase, one per replay
    latency_passes: list[dict]  # latency phase (same list unless paced)
    traced: dict | None
    layer: dict
    input_digest: str
    box_speed: list[float]  # every probe's factor, in order
    peak_rss_mb: float  # this process + reaped children, after teardown
    word_acc: float  # on the fixed evaluation list
    phase_wall_s: dict = field(default_factory=dict)


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _gc_collections() -> int:
    return sum(s["collections"] for s in gc.get_stats())


def measure(
    spec: Spec,
    task: TrainedTask,
    requests: list[Request],
    evaluation: list[Request],
    seed: int,
    trace: bool,
    trace_path: Path | None = None,
    inject_mismatch: bool = False,
) -> Raw:
    """``evaluation`` is the fixed list ``word_acc`` is scored on; its
    first utterance is also the one every set-up decodes, so neither
    number depends on what ``--seed`` generated."""
    speed = harness.BoxSpeed()
    driver = spec.driver(spec, requests, evaluation[0], seed, speed)
    try:
        return _measure(
            spec, driver, task, requests, evaluation, seed, trace, trace_path,
            inject_mismatch,
        )
    finally:
        driver.release()


def _measure(
    spec: Spec,
    driver: Driver,
    task: TrainedTask,
    requests: list[Request],
    evaluation: list[Request],
    seed: int,
    trace: bool,
    trace_path: Path | None,
    inject_mismatch: bool,
) -> Raw:
    speed = driver.speed
    check = harness.OutputCheck(atol=driver.atol)
    layer = {m.name: 0.0 for m in PER_LAYER}
    phase_wall = {}
    mark = _now()

    def lap(name: str) -> None:
        nonlocal mark
        phase_wall[name] = _now() - mark
        mark = _now()

    # Cold set-up, K times, each from a fresh deep copy of the trained
    # task so per-object caches (blas tables, precision tables) are
    # cold; the last one stays up and serves the replays.
    setup_samples = []
    for k in range(spec.setups):
        if k:
            driver.teardown()
        cold = copy.deepcopy(task)
        speed.probe()
        t0 = _now()
        phases = driver.setup(cold)
        t1 = _now()
        speed.probe()
        factor = speed.factor(t0, t1)
        sample = {name: value / factor for name, value in phases.items()}
        sample["setup_s"] = (t1 - t0) / factor
        sample["raw_setup_s"] = t1 - t0
        setup_samples.append(sample)
    layer["process.rss_after_setup_mb"] = harness.peak_rss_mb()
    lap("setups")

    reference = driver.sequential(task)
    for request in requests[:CHECKED]:
        result = reference.decode(request.features)
        check.expect(request.index, result.words, result.score)
    driver.idle_probes(layer)
    lap("reference")

    window = {
        "wall": _now(), "cpu": _cpu_s(), "gc": _gc_collections(),
        "ctx": resource.getrusage(resource.RUSAGE_SELF).ru_nivcsw,
    }
    passes = []
    for r in range(spec.replays):
        passes.append(driver.replay(check, f"replay{r}"))
        if inject_mismatch and r == 0:
            words, score = check.canonical[0]
            check.canonical[0] = (words + ("<injected-mismatch>",), score)
    latency_passes = driver.latency_replays(check, passes)
    lap("replays")

    wer = corpus_wer(
        [r.words for r in evaluation], driver.decode_words(evaluation)
    ).wer
    lap("evaluation")

    traced = None
    if trace:
        recorder = SpanRecorder()
        traced = driver.traced_replay(recorder, check)
        # One factor for the whole traced replay: spans keep their raw
        # stamps in the trace file, the durations derived from them are
        # reported on the quiet box like every other time.
        factor = driver.pass_speed.factor(*traced["interval"])
        for name, value in traced.pop("layer").items():
            layer[name] = value / factor if UNITS[name] in TIME_UNITS else value
        layer["obs.traced_vs_untraced"] = sum(traced["chunk_s"]) / min(
            sum(p["chunk_s"]) for p in passes
        )
        if trace_path is not None:
            recorder.write(trace_path, workload=spec.name, seed=seed)
        lap("traced")

    driver.teardown()
    # read before close() reaps the speed-probe helper: the children
    # counted are the product's (the forked shards)
    peak_rss_mb = harness.peak_rss_mb()
    driver.close(layer)

    frames = sum(r.frames for r in requests)
    # every send decodes one request's audio
    decoded_audio_s = FRAME_S * frames * check.sent / len(requests)
    wall = _now() - window["wall"]
    cpu = _cpu_s() - window["cpu"]
    layer.update(
        {
            "workloads.audio_s": frames * FRAME_S,
            "workloads.frames": frames,
            "process.cpu_s_per_audio_s": cpu / decoded_audio_s,
            "process.cpu_util": cpu / wall,
            "process.rss_growth_mb": peak_rss_mb
            - layer["process.rss_after_setup_mb"],
            "process.gc_collections": _gc_collections() - window["gc"],
            "process.invol_ctx_switches": resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_nivcsw
            - window["ctx"],
        }
    )
    lap("teardown")
    return Raw(
        spec=spec, seed=seed, requests=requests, check=check,
        setup_samples=setup_samples, passes=passes,
        latency_passes=latency_passes, traced=traced, layer=layer,
        input_digest=digest(
            requests, np.asarray(getattr(driver, "due", []), dtype=np.float64)
        ),
        box_speed=list(speed.factors),
        peak_rss_mb=peak_rss_mb,
        word_acc=1.0 - wer,
        phase_wall_s=phase_wall,
    )


def summarize(raw: Raw) -> dict:
    """Reduce a run to the seven end-to-end metrics, the per-layer
    metrics and the noise diagnostics."""
    check = raw.check
    passes, latency_passes = raw.passes, raw.latency_passes
    n = passes[0]["throughput_n"]
    # replay-min at the finest grain that repeats: per request for the
    # latencies, per chunk of identical work for the throughput
    per_request = harness.replay_min([p["latency_s"] for p in latency_passes])
    per_chunk = harness.replay_min([p["chunk_s"] for p in passes])
    best_setup = min(raw.setup_samples, key=lambda s: s["setup_s"])

    values = {
        "setup_s": best_setup["setup_s"],
        "utt_per_s": n / sum(per_chunk),
        "latency_p50_ms": 1e3 * harness.quantile(per_request, 0.50),
        "latency_p90_ms": 1e3 * harness.tail_quantile(per_request, 0.90),
        "ok_frac": check.ok_frac,
        "word_acc": raw.word_acc,
        "peak_rss_mb": raw.peak_rss_mb,
    }
    end_to_end = {
        m.name: {"value": values[m.name], "unit": m.unit} for m in END_TO_END
    }

    # The same reductions with no box-speed correction and no minimum:
    # what a stopwatch saw, all samples.
    raw_pass_s = [p["raw_pass_s"] for p in passes]
    raw_samples = [t for p in latency_passes for t in p["raw_latency_s"]]
    pass_spread = harness.spread(raw_pass_s)
    lateness = [t for p in latency_passes for t in p.get("lateness_s", [])]
    layer = dict(raw.layer)
    layer.update(
        {
            "setup.network_build_s": best_setup["network_build_s"],
            "setup.scorer_build_s": best_setup["scorer_build_s"],
            "setup.runtime_start_s": best_setup["runtime_start_s"],
            "setup.first_decode_s": best_setup["first_decode_s"],
            "harness.replays": len(passes),
            "harness.pass_s_min": pass_spread["min"],
            "harness.pass_s_median": pass_spread["median"],
            "harness.pass_s_iqr": pass_spread["iqr"],
            "harness.raw_utt_per_s": n / pass_spread["min"],
            "harness.latency_all_p50_ms": 1e3 * harness.quantile(raw_samples, 0.50),
            "harness.latency_all_p90_ms": 1e3 * harness.quantile(raw_samples, 0.90),
            "harness.box_speed_p50": harness.quantile(raw.box_speed, 0.50),
            "harness.box_speed_max": max(raw.box_speed),
            "harness.generator_late_ms_p95": (
                1e3 * harness.quantile(lateness, 0.95) if lateness else 0.0
            ),
            "harness.samples": len(per_request),
        }
    )
    per_layer = {
        m.name: {"value": layer[m.name], "unit": m.unit} for m in PER_LAYER
    }
    return {
        "workload": raw.spec.name,
        "seed": raw.seed,
        "correct": check.failed == 0,
        "attempted": check.sent,
        "failed": check.failed,
        "rejected": check.rejected,
        "phases": check.phases,
        "problems": check.problems,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "traced": raw.traced is not None,
        "shares": raw.traced["shares"] if raw.traced else None,
        "diagnostics": {
            "setup_s_samples": [s["setup_s"] for s in raw.setup_samples],
            "raw_setup_s_samples": [s["raw_setup_s"] for s in raw.setup_samples],
            "raw_pass_s": raw_pass_s,
            "corrected_pass_s": [sum(p["chunk_s"]) for p in passes],
            # every sample, so another estimator can be tried offline
            "chunk_s": [p["chunk_s"] for p in passes],
            "latency_s": [p["latency_s"] for p in latency_passes],
            "raw_latency_s": [p["raw_latency_s"] for p in latency_passes],
            "box_speed": raw.box_speed,
            "phase_wall_s": raw.phase_wall_s,
            "input_digest": raw.input_digest,
        },
    }


def run_workload(
    name: str,
    seed: int,
    trace: bool,
    out_dir: Path,
    root: Path,
    inject_mismatch: bool = False,
) -> dict:
    spec = SPECS[name]
    stamp = harness.fingerprint(root, seed)
    t0 = _now()
    task = spec.build_task()
    task_build_s = _now() - t0
    requests = make_requests(
        task, seed, spec.num_requests, spec.min_words, spec.max_words
    )
    evaluation = make_requests(
        task, EVAL_SEED, EVAL_REQUESTS, spec.min_words, spec.max_words
    )
    t1 = _now()
    raw = measure(
        spec, task, requests, evaluation, seed,
        trace=trace,
        trace_path=out_dir / f"trace-{name}.json",
        inject_mismatch=inject_mismatch,
    )
    raw.layer["workloads.task_build_s"] = task_build_s
    raw.phase_wall_s.update(task_build=task_build_s, generate=t1 - t0 - task_build_s)
    result = summarize(raw)
    stamp["load_end"] = list(os.getloadavg())
    result["fingerprint"] = stamp
    result["run_wall_s"] = _now() - t0
    return result
