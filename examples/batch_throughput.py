"""Serving many microphones at once: the batched decoding runtime.

The paper's SoC decodes one utterance in real time; a server built
from the same architecture must keep up with many simultaneous audio
streams.  This example decodes the tiny task's test set three ways
through ONE :class:`Recognizer` — sequentially (``decode``), as a
fixed batch (``decode_batch``) and as a ragged arrival stream
(``decode_stream``: lanes refilled from the waiting queue mid-decode) —
and shows that every method produces *identical* words and path scores
while sustaining several times the throughput.

Run:  python examples/batch_throughput.py
"""

import time

from repro.decoder import Recognizer
from repro.workloads import tiny_task


def main() -> None:
    print("building and training the tiny task...")
    task = tiny_task(seed=7)
    rec = Recognizer.create(
        task.dictionary, task.pool, task.lm, task.tying, mode="reference"
    )
    features = [u.features for u in task.corpus.test]

    # Warm both paths, then time them.
    sequential = [rec.decode(f) for f in features]
    batched = rec.decode_batch(features)

    t0 = time.perf_counter()
    sequential = [rec.decode(f) for f in features]
    t_seq = time.perf_counter() - t0
    t0 = time.perf_counter()
    batched = rec.decode_batch(features)
    t_batch = time.perf_counter() - t0

    print(f"\n{len(features)} utterances, batch size {len(features)}")
    for seq, lane in zip(sequential, batched):
        mark = "==" if (seq.words, seq.score) == (lane.words, lane.score) else "!!"
        print(f"  [{mark}] {' '.join(lane.words) or '<empty>'}")
    identical = all(
        s.words == b.words and s.score == b.score
        for s, b in zip(sequential, batched)
    )
    print(f"\nsequential: {t_seq:.3f} s ({len(features) / t_seq:.1f} utt/s)")
    print(f"batched:    {t_batch:.3f} s ({len(features) / t_batch:.1f} utt/s)")
    print(f"speedup:    {t_seq / t_batch:.2f}x")
    print(f"outputs identical: {identical}")

    # Continuous batching: a ragged arrival stream served with
    # mid-decode lane refill instead of draining to the longest lane.
    ragged = [
        f[: max(5, f.shape[0] // (1 + i % 3))] for i, f in enumerate(features)
    ]
    stream = rec.decode_stream(iter(ragged), max_lanes=4)
    chunks = [ragged[i : i + 4] for i in range(0, len(ragged), 4)]
    drained = [rec.decode_batch(g) for g in chunks]
    drain_steps = sum(d.steps for d in drained)
    drain_lanes = [lane for d in drained for lane in d.results]
    stream_ok = all(
        d.words == s.words and d.score == s.score
        for d, s in zip(drain_lanes, stream)
    )
    print(
        f"\ncontinuous (max_lanes=4, ragged arrivals): "
        f"{stream.steps} steps at utilization {stream.utilization:.2f} "
        f"vs {drain_steps} drained steps"
    )
    print(f"continuous outputs identical: {stream_ok}")


if __name__ == "__main__":
    main()
