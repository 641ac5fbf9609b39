"""The serving front door over an actual socket — wire transport,
typed shedding and fleet-grade admission, end to end.

One process plays both sides of the wire (loopback TCP, ephemeral
port), but everything crosses a REAL socket as length-prefixed binary
frames, exactly as a remote client would see it:

* a :class:`repro.serve.WireServer` fronts a 2-worker server whose
  admission queue is earliest-deadline-first with per-client
  fair-share quotas;
* client ``kiosk`` decodes a batch of utterances over the wire —
  words AND float64 scores come back bit-identical to a sequential
  in-process decode, because feature matrices travel as raw bytes;
* client ``kiosk`` then floods the door until it is shed with a typed
  :class:`~repro.serve.AdmissionRejected`, while client ``badge``
  still gets in under its own fair share of the queue;
* a streaming session pushes frames over the socket and collects
  partial hypotheses as ``partial`` events;
* the ``metrics`` op shows the whole front door at a glance —
  including wait percentiles that count shed traffic.

Run:  python examples/wire_demo.py
"""

import asyncio

from repro.decoder import Recognizer
from repro.serve import AdmissionRejected, ServeClient, Server, WireServer
from repro.workloads import tiny_task


async def run_wire(task, recognizer) -> None:
    utts = task.corpus.test[:4]
    baselines = [recognizer.decode(u.features) for u in utts]

    async with Server(
        recognizer,
        num_workers=2,
        max_lanes=2,
        max_queue=4,
    ) as server:
        async with WireServer(server) as wire:
            print(f"wire server on {wire.host}:{wire.port}")

            kiosk = await ServeClient.connect(
                wire.host, wire.port, client="kiosk"
            )
            badge = await ServeClient.connect(
                wire.host, wire.port, client="badge"
            )

            # -- bit-identical decode across the socket ---------------
            tickets = [await kiosk.submit(u.features) for u in utts]
            results = [await t.result() for t in tickets]
            exact = all(
                r.ok and r.words == b.words and r.score == b.score
                for r, b in zip(results, baselines)
            )
            for r in results:
                print(f"  kiosk decoded (worker {r.worker}): "
                      f"{' '.join(r.words)!r}")
            print(f"wire decode bit-identical to sequential: {exact}")

            # -- typed shedding + fair-share quotas -------------------
            # Fill the lanes so further submits queue at the door,
            # park one badge job in the queue (making badge an active
            # tenant), then let kiosk flood.  Once the queue holds
            # kiosk's fair share, its next submit is shed with a typed
            # rejection — while badge's share stays untouched.
            warmup = [await kiosk.submit(utts[0].features)
                      for _ in range(4)]  # occupies 2 workers x 2 lanes
            badge_first = await badge.submit(utts[1].features)
            flood, rejection = [], None
            for _ in range(32):
                try:
                    flood.append(await kiosk.submit(utts[0].features))
                except AdmissionRejected as err:
                    rejection = err
                    break
            assert rejection is not None
            print(f"kiosk shed after {len(flood)} queued: "
                  f"typed rejection ({rejection.reason}, "
                  f"{rejection.queue_depth}/{rejection.max_queue} queued)")
            # badge still gets in under its own share of the queue.
            badge_ticket = await badge.submit(utts[1].features)
            print("badge still admitted under its fair share")
            for t in [*warmup, badge_first, *flood, badge_ticket]:
                assert (await t.result()).ok  # nothing dropped silently

            # -- streaming with partials over the socket --------------
            partials = []
            stream = await kiosk.open_stream(
                on_partial=lambda words, frame: partials.append(words),
                partial_interval=10,
                endpointing=False,
            )
            feats = utts[2].features
            for start in range(0, feats.shape[0], 20):
                await stream.send_frames(feats[start : start + 20])
            final = await stream.result()
            print(f"streamed over the wire: {' '.join(final.words)!r} "
                  f"({len(partials)} partial updates)")

            # -- the metrics op ---------------------------------------
            snapshot = await kiosk.metrics()
            print(f"\nserver metrics over the wire: "
                  f"{snapshot['completed']} completed, "
                  f"{snapshot['rejections']} rejection(s), "
                  f"wait p95 {snapshot['wait_p95_s'] * 1000:.0f} ms "
                  f"(shed traffic included)")

            await kiosk.close()
            await badge.close()


def main() -> None:
    print("building the tiny task...")
    task = tiny_task(seed=7)
    recognizer = Recognizer.create(
        task.dictionary, task.pool, task.lm, task.tying, mode="reference"
    )
    asyncio.run(run_wire(task, recognizer))


if __name__ == "__main__":
    main()
