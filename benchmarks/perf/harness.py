"""The estimator and the bookkeeping around it (no product imports).

Two corrections stand between a stopwatch and a reported time, both
because the bench box is a shared 2-vCPU microVM (README.md has the A/A
numbers behind each):

* **replay-min** — short bursts of host contention only ever ADD time,
  so a request's time is its minimum over ``R`` replays of identical
  work and throughput comes from per-chunk minima;
* **box-speed correction** — the host also slows the whole VM by up to
  2x for tens of seconds at a time, which no minimum over a 15 s run
  can escape.  :class:`BoxSpeed` runs a small frozen kernel every few
  hundred milliseconds alongside the work and every reported time is
  divided by how slow that kernel ran over the same interval.

The plain, uncorrected all-sample statistics are kept as ``harness.*``
diagnostics, so a change that adds intermittent stalls — or a run made
on a badly contended box — still shows.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from pathlib import Path

__all__ = [
    "BLAS_THREAD_VARS",
    "pin_blas_threads",
    "SpeedTimeline",
    "BoxSpeed",
    "FollowerSpeed",
    "replay_min",
    "quantile",
    "tail_quantile",
    "spread",
    "open_loop_times",
    "OutputCheck",
    "peak_rss_mb",
    "fingerprint",
    "run_once",
]

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: A percentile is reported only with this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def pin_blas_threads() -> None:
    """One BLAS thread — must run before numpy is first imported.

    nproc is 2 on the bench box: one load-generating process, one
    asyncio thread and at most one forked shard already fill it, and a
    BLAS pool that size only adds scheduling noise.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


# -- box speed ---------------------------------------------------------
class SpeedTimeline:
    """Box-speed samples over time and the corrections read off them.

    A sample is ``(time.monotonic() instant, factor)``: 1.0 is the
    quiet bench box, 1.6 means everything currently takes 1.6x as
    long.  :meth:`corrected` divides an interval by the time-weighted
    mean factor over it (linear between samples).
    """

    def __init__(self) -> None:
        self.times: list[float] = []  # probe midpoints
        self.factors: list[float] = []
        self.spans: list[tuple[float, float]] = []  # local probes' (start, end)

    def factor(self, t0: float, t1: float) -> float:
        """Time-weighted mean factor over ``[t0, t1]`` (piecewise linear
        between samples, constant beyond the first and last)."""
        import numpy as np

        if not self.times:
            raise RuntimeError("no box-speed sample yet")
        if t1 <= t0:
            return float(np.interp(t0, self.times, self.factors))
        lo = bisect_right(self.times, t0)
        hi = bisect_left(self.times, t1)
        knots = [t0, *self.times[lo:hi], t1]
        values = np.interp(knots, self.times, self.factors)
        widths = np.diff(knots)
        area = float((0.5 * (values[1:] + values[:-1]) * widths).sum())
        return area / (t1 - t0)

    def probe_time_within(self, t0: float, t1: float) -> float:
        """Seconds of ``[t0, t1]`` spent inside local probes."""
        return sum(
            max(0.0, min(end, t1) - max(start, t0)) for start, end in self.spans
        )

    def corrected(self, t0: float, t1: float, serial_probes: bool = False) -> float:
        """``t1 - t0`` on the quiet box.  ``serial_probes`` also removes
        probe time inside the interval — right where the probe ran on
        the measured thread in series with the work."""
        elapsed = t1 - t0
        if serial_probes:
            elapsed -= self.probe_time_within(t0, t1)
        return elapsed / self.factor(t0, t1)


class BoxSpeed(SpeedTimeline):
    """How slow the box is running, sampled by a frozen probe.

    :meth:`probe` times three small kernels — interpreter-bound, many
    small numpy calls, one dense product, the decoder's own mix — and
    records ``factor = mean(kernel time / its time on the quiet bench
    box)`` at that instant.  The kernels and the nominal constants
    below are part of the unit of every reported time: never edit them.
    """

    #: Seconds per kernel on the quiet bench box (minimum over an hour
    #: of probing, Xeon @ 2.10 GHz, one BLAS thread).
    NOMINAL = (0.000414, 0.000596, 0.000437)

    def __init__(self) -> None:
        import numpy as np

        super().__init__()
        rng = np.random.default_rng(0)
        self._np = np
        self._state = rng.standard_normal((8, 3000))
        self._index = rng.integers(0, 3000, size=3000)
        self._out = np.empty((8, 3000))
        self._obs = rng.standard_normal((8, 39))
        self._table = rng.standard_normal((39, 4096))

    def _interpreter(self) -> float:
        t0 = time.monotonic()
        total, seen = 0.0, {}
        for i in range(5000):
            total += i * 0.5
            seen[i & 31] = total
        return time.monotonic() - t0

    def _small_calls(self) -> float:
        np, state, out = self._np, self._state, self._out
        t0 = time.monotonic()
        for _ in range(12):
            np.take(state, self._index, axis=1, out=out)
            top = out.max()
            np.flatnonzero(out[0] > 0.5 * top)
            np.maximum(out, state, out=out)
        return time.monotonic() - t0

    def _dense(self) -> float:
        t0 = time.monotonic()
        for _ in range(5):
            (self._obs @ self._table).max()
        return time.monotonic() - t0

    def probe(self) -> float:
        """Sample the box speed now; returns the factor recorded."""
        start = time.monotonic()
        kernels = (self._interpreter, self._small_calls, self._dense)
        # best of two per kernel: a burst that hits one repetition of a
        # 0.5 ms kernel is noise in the probe, not the box's speed
        best = [min(kernel(), kernel()) for kernel in kernels]
        end = time.monotonic()
        factor = sum(t / n for t, n in zip(best, self.NOMINAL)) / len(best)
        self.times.append(0.5 * (start + end))
        self.factors.append(factor)
        self.spans.append((start, end))
        return factor


def _follow_and_probe(pid: int, period_s: float) -> None:
    """Body of :class:`FollowerSpeed`'s helper process: one
    ``<probe midpoint> <factor>`` line on stdout per sample, until the
    pipe closes or the process that started it is gone."""
    speed = BoxSpeed()
    stat = Path(f"/proc/{pid}/stat")
    parent = os.getppid()
    try:
        while os.getppid() == parent:
            time.sleep(period_s)
            try:
                # field 39 of /proc/<pid>/stat: the CPU it last ran on
                cpu = int(stat.read_text().rsplit(")", 1)[1].split()[36])
                os.sched_setaffinity(0, {cpu})
            except (OSError, ValueError, IndexError):
                pass  # no such process or no /proc: sample wherever we are
            factor = speed.probe()
            print(repr(speed.times[-1]), repr(factor), flush=True)
    except (BrokenPipeError, KeyboardInterrupt):
        pass


class FollowerSpeed(SpeedTimeline):
    """The speed of the CPU ANOTHER process runs on.

    A forked shard decodes on the other vCPU, which the host slows
    independently of the one the load generator runs on, so a probe in
    the generator's process is the wrong thermometer for it.  A small
    helper process hops onto whichever CPU ``pid`` last ran on every
    ``period_s`` (the product's own placement is left alone), runs the
    same probe there — about 1 % of that CPU — and pipes the samples
    back; ``time.monotonic`` is system-wide, so they land on the
    caller's timeline.

    The helper is this file run as a script through ``subprocess`` —
    not ``multiprocessing``'s spawn context, whose resource-tracker
    process outlives the process that started it.  :meth:`stop`
    terminates it and waits for it; it also leaves on its own when its
    parent is gone.
    """

    def __init__(self, pid: int, period_s: float) -> None:
        super().__init__()
        self._helper = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(pid), repr(period_s)],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            env={**os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1")},
        )
        os.set_blocking(self._helper.stdout.fileno(), False)
        self._pending = b""

    def drain(self) -> None:
        """Fold the samples piped back so far into the timeline."""
        try:
            data = os.read(self._helper.stdout.fileno(), 1 << 16)
        except BlockingIOError:
            return
        *lines, self._pending = (self._pending + data).split(b"\n")
        for line in lines:
            at, factor = line.split()
            self.times.append(float(at))
            self.factors.append(float(factor))

    def stop(self) -> None:
        """Terminate the helper and wait until it has ended."""
        if self._helper.poll() is None:
            self.drain()
            self._helper.terminate()
        try:
            self._helper.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._helper.kill()
            self._helper.wait()
        self._helper.stdout.close()


# -- estimator ---------------------------------------------------------
def replay_min(replays: list[list[float]]) -> list[float]:
    """Per-request minimum over replays; ``replays[r][i]`` is request
    ``i``'s time in replay ``r``."""
    if not replays:
        raise ValueError("need at least one replay")
    width = len(replays[0])
    if any(len(r) != width for r in replays):
        raise ValueError("replays cover different request counts")
    return [min(column) for column in zip(*replays)]


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile; an empty series is an error, not NaN."""
    import numpy as np

    if not values:
        raise ValueError("quantile of an empty series")
    return float(np.quantile(values, q))


def tail_quantile(values: list[float], q: float) -> float:
    """``quantile`` that refuses a tail it has too few samples for:
    at least :data:`MIN_TAIL_SAMPLES` values must lie beyond ``q``."""
    beyond = len(values) * (1.0 - q)
    if beyond < MIN_TAIL_SAMPLES - 1e-9:
        raise ValueError(
            f"p{q * 100:g} of {len(values)} samples leaves {beyond:.1f} "
            f"beyond it; need {MIN_TAIL_SAMPLES}"
        )
    return quantile(values, q)


def spread(values: list[float]) -> dict:
    """min / median / inter-quartile range of a small series."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = q3 - q1
    else:
        iqr = 0.0
    return {
        "min": min(values),
        "median": statistics.median(values),
        "iqr": iqr,
    }


def open_loop_times(
    due: list[float], sent: list[float], done: list[float]
) -> tuple[list[float], list[float]]:
    """(latency, lateness) per request of an open-loop phase.

    Latency runs from when the request was DUE, not from when the
    generator got round to sending it, so the wait a stall imposes on
    later requests is counted; lateness (``sent - due``) says how far
    behind schedule the generator itself ran.
    """
    latency = [d - t for t, d in zip(due, done)]
    lateness = [max(0.0, s - t) for t, s in zip(due, sent)]
    return latency, lateness


# -- output check ------------------------------------------------------
class OutputCheck:
    """Counts sends and verifies what came back.

    A send is *ok* when it resolved OK, its ``(words, float.hex(score))``
    equals every other replay's answer for that request, and — for the
    first few requests — the answer matches a sequential
    ``Recognizer.decode`` of the same configuration (bit-equal, or
    within ``atol`` for the blas family).
    """

    def __init__(self, atol: float = 0.0) -> None:
        self.atol = atol
        self.sent = 0
        self.ok = 0
        self.rejected = 0
        self.canonical: dict[int, tuple[tuple[str, ...], float]] = {}
        self.reference: dict[int, tuple[tuple[str, ...], float]] = {}
        self.problems: list[str] = []
        self.phases: dict[str, dict[str, int]] = {}

    def expect(self, index: int, words, score: float) -> None:
        """Register the sequential reference answer for ``index``."""
        self.reference[index] = (tuple(words), float(score))

    def _fail(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)

    def record(
        self,
        phase: str,
        index: int,
        words,
        score: float | None,
        status: str = "ok",
    ) -> bool:
        counts = self.phases.setdefault(
            phase, {"sent": 0, "ok": 0, "failed": 0, "rejected": 0}
        )
        self.sent += 1
        counts["sent"] += 1
        if status == "rejected":
            self.rejected += 1
            counts["rejected"] += 1
            self._fail(f"{phase}[{index}]: rejected")
            return False
        good = status == "ok" and words is not None and score is not None
        if not good:
            self._fail(f"{phase}[{index}]: status {status}")
        else:
            answer = (tuple(words), float(score))
            first = self.canonical.setdefault(index, answer)
            if answer[0] != first[0] or answer[1].hex() != first[1].hex():
                good = False
                self._fail(f"{phase}[{index}]: differs between replays")
            ref = self.reference.get(index)
            if ref is not None and (
                answer[0] != ref[0] or abs(answer[1] - ref[1]) > self.atol
            ):
                good = False
                self._fail(f"{phase}[{index}]: differs from sequential decode")
        if good:
            self.ok += 1
            counts["ok"] += 1
        else:
            counts["failed"] += 1
        return good

    @property
    def failed(self) -> int:
        return self.sent - self.ok

    @property
    def ok_frac(self) -> float:
        return self.ok / self.sent if self.sent else 0.0


# -- process and machine -----------------------------------------------
def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 and out.stdout else None


def _blas_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        return {"name": None, "version": None}


def fingerprint(root: Path, seed: int) -> dict:
    """Where and on what a result was measured (``load_end`` is added
    by the caller when the run finishes)."""
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas_info(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "load_start": list(os.getloadavg()),
        "git_commit": _git_commit(root),
        "seed": seed,
    }


def run_once(workload: str, seed: int, trace: bool, out_path: Path) -> dict:
    """One workload in its own subprocess (so ``peak_rss_mb`` and BLAS
    pinning are per workload); returns the full result it wrote."""
    command = [
        sys.executable, str(Path(__file__).with_name("run.py")),
        "--workload", workload, "--seed", str(seed),
        "--trace", str(int(trace)), "--out", str(out_path),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    if done.returncode not in (0, 1) or not out_path.is_file():
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}"
        )
    return json.loads(out_path.read_text())


if __name__ == "__main__":  # FollowerSpeed's helper
    _follow_and_probe(int(sys.argv[1]), float(sys.argv[2]))
