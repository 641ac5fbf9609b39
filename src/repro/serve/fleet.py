"""Fleet policy: what the front door knows about a shard, and every
decision it takes over the fleet.

:class:`~repro.serve.server.Server` owns lifecycle, submit, event
routing, tracing and metrics; the rules it applies live here, as plain
functions and small objects over one :class:`Shard` record per engine
worker and one session per request.  Nothing in this module touches an
event loop, a clock or a worker transport, so each rule is testable
with hand-built records.  A *session* here is anything with the
attributes the server's :class:`~repro.serve.server.Session` carries:
``job`` (its :class:`~repro.runtime.serving.DecodeJob`), ``client``,
``queued`` and ``steal_pending``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

from repro.runtime.serving import LoopStats
from repro.serve.types import BrownoutPolicy

__all__ = [
    "Brownout",
    "EdfQueue",
    "Shard",
    "autotune_backlog",
    "brownout_pressure",
    "capacity",
    "lose_steal",
    "pick_shard",
    "recover_health",
    "steal_candidate",
]


@dataclass
class Shard:
    """Everything the front door knows about one engine worker."""

    index: int
    #: The engine worker and the event its ``ServeStopped`` sets — the
    #: server's handles; no rule in this module reads them.
    worker: object = None
    stopped: object = None
    alive: bool = True
    last_pick: int = -1  # dispatch sequence number of the latest pick
    #: Steal-aware health in [0.25, 1.0]; scales the backlog share.
    health: float = 1.0
    stolen: int = 0  # steals lost since the last health window
    #: The loop's latest report (the server starts it at all-zero).
    stats: LoopStats | None = None
    #: Dispatched-but-unresolved sessions, in dispatch order — kept so
    #: a steal or a death can re-dispatch without asking the client.
    jobs: list = field(default_factory=list)

    @property
    def in_flight(self) -> int:
        return len(self.jobs)


class EdfQueue:
    """Earliest-deadline-first admission queue with O(log n) ops.

    Sessions order by ``(deadline_at, arrival)`` — deadline-free jobs
    sort last (``inf``), FIFO breaks ties — so the head is always the
    most urgent job AND, once expired jobs exist, they form a prefix
    of the order (their deadlines are the smallest), which is what
    lets dispatch shed the dead for free before spending a worker
    pick.  A queued session carries its arrival stamp in
    ``session.queued`` (``None`` when not queued): removal clears it,
    a re-push (steal, redispatch) takes a fresh one, and a heap entry
    whose stamp no longer matches is a tombstone.  Per-client live
    counts back the two quota rules, which live here because they read
    nothing else.
    """

    def __init__(self, max_queue: int) -> None:
        self.max_queue = max_queue
        #: Scales the admission bound; below 1.0 only while a brownout
        #: with ``admission_factor < 1.0`` is engaged.
        self.admission_factor = 1.0
        self._heap: list[tuple[float, int, object]] = []
        self._live = 0
        self._arrival = itertools.count()
        self._client_queued: dict[str | None, int] = {}

    def __len__(self) -> int:
        return self._live

    def push(self, session) -> None:
        deadline = session.job.deadline_at
        session.queued = next(self._arrival)
        heapq.heappush(
            self._heap,
            (math.inf if deadline is None else deadline, session.queued, session),
        )
        self._live += 1
        client = session.client
        self._client_queued[client] = self._client_queued.get(client, 0) + 1

    def peek(self):
        """The most urgent queued session, or None."""
        while self._heap:
            _, stamp, session = self._heap[0]
            if session.queued == stamp:
                return session
            heapq.heappop(self._heap)
        return None

    def pop(self):
        session = self.peek()
        if session is not None:
            heapq.heappop(self._heap)
            self.remove(session)
        return session

    def remove(self, session) -> bool:
        """Take a session out of the queue; False if it was not in it."""
        if session.queued is None:
            return False
        session.queued = None
        self._live -= 1
        count = self._client_queued[session.client] - 1
        if count:
            self._client_queued[session.client] = count
        else:
            del self._client_queued[session.client]
        return True

    def queued_for(self, client: str | None) -> int:
        return self._client_queued.get(client, 0)

    def active_clients(self) -> int:
        """Clients currently holding at least one queued job."""
        return len(self._client_queued)

    def drain(self):
        """Pop every queued session, most urgent first."""
        while (session := self.pop()) is not None:
            yield session

    def effective_max_queue(self) -> int:
        """The admission bound currently in force.

        Equal to ``max_queue`` except while an engaged brownout has
        tightened it, so queued latency shrinks along with precision.
        """
        if self.admission_factor < 1.0:
            return max(1, int(self.max_queue * self.admission_factor))
        return self.max_queue

    def fair_share(self, client: str | None) -> int:
        """This client's cap on queued jobs, under current contention.

        A lone client may use the whole queue; once ``n`` distinct
        clients hold queued jobs, each is capped at ``max_queue // n``
        (at least 1).  The cap is advisory-fair, not an eviction
        policy: jobs already queued over a newly shrunk share stay.
        """
        active = self.active_clients()
        if self.queued_for(client) == 0:
            active += 1  # this client is about to become active
        if active <= 1:
            return self.max_queue
        return max(1, self.max_queue // active)

    def refusal(self, client: str | None) -> tuple[str, int] | None:
        """Why a submit from ``client`` must be shed now, as
        ``(reason, bound)``; None when there is room.  O(1): shedding
        is the hot path under overload."""
        bound = self.effective_max_queue()
        if self._live >= bound:
            return ("brownout" if bound < self.max_queue else "queue_full"), bound
        if self.queued_for(client) >= self.fair_share(client):
            return "client_quota", self.max_queue
        return None


def capacity(shard: Shard, max_lanes: int, backlog: int) -> int:
    """Jobs ``shard`` may hold at once: its lanes plus its share of
    the over-dispatch ``backlog``.

    A shard at health ``h`` gets ``max_lanes + int(backlog * h)``: its
    lanes are always dispatchable (a lone survivor must still take
    everything), but a shard that keeps losing backlogged work to
    steals stops being handed a deep backlog it cannot drain — the
    soft circuit breaker.
    """
    return max_lanes + int(backlog * shard.health)


def pick_shard(shards: list[Shard], max_lanes: int, backlog: int) -> Shard | None:
    """Least-loaded live shard with spare capacity; round-robin ties
    (the least recently picked wins).  None when the fleet is full."""
    return min(
        (
            shard
            for shard in shards
            if shard.alive
            and shard.in_flight < capacity(shard, max_lanes, backlog)
        ),
        key=lambda shard: (shard.in_flight, shard.last_pick),
        default=None,
    )


def steal_candidate(shards: list[Shard], max_lanes: int):
    """The session to reclaim for an idle shard, or None.

    There is one when in-flight counts skew: some live shard has spare
    LANES while another holds jobs beyond its lanes — jobs that are, in
    all likelihood, still waiting in its loop's backlog.  The victim is
    the most loaded such shard; of its jobs, the newest not already
    being stolen (the most recent dispatch is the least likely to have
    reached a lane yet).
    """
    live = [shard for shard in shards if shard.alive]
    if not any(shard.in_flight < max_lanes for shard in live):
        return None
    victim = max(
        (shard for shard in live if shard.in_flight > max_lanes),
        key=lambda shard: shard.in_flight,
        default=None,
    )
    if victim is None:
        return None
    for session in reversed(victim.jobs):
        if not session.steal_pending:
            return session
    return None


def lose_steal(shard: Shard) -> None:
    """Losing queued work to a steal is the health signal: the shard
    was too slow to reach that job.  Halve its health (floor 0.25)
    now; steal-free windows grow it back."""
    shard.stolen += 1
    shard.health = max(0.25, shard.health * 0.5)


def recover_health(shards: list[Shard]) -> None:
    """One metrics window of health recovery: +0.25 for every shard
    that lost nothing in it — asymmetric on purpose, like TCP: back
    off fast, recover slow."""
    for shard in shards:
        if shard.stolen == 0 and shard.health < 1.0:
            shard.health = min(1.0, shard.health + 0.25)
        shard.stolen = 0


def autotune_backlog(
    backlog: int,
    window_misses: int,
    shards: list[Shard],
    max_lanes: int,
    queued: int,
) -> int:
    """One backpressure-aware step of the ``worker_backlog`` depth.

    Misses (timeouts + rejections) in the window mean jobs committed
    to worker backlogs were the wrong call — held at the server they
    would have stayed EDF-ordered, steal-able and shed-able — so the
    depth halves.  A packed-but-healthy window (every live shard
    holding ``max_lanes + backlog`` jobs, more still queued, zero
    misses) grows it by one, to at most ``4 * max_lanes``, to hide
    lane-refill latency.
    """
    if window_misses > 0:
        return backlog // 2
    live = [shard.in_flight for shard in shards if shard.alive]
    packed = bool(live) and all(n >= max_lanes + backlog for n in live)
    if packed and queued > 0:
        return min(4 * max_lanes, backlog + 1)
    return backlog


def brownout_pressure(
    window_misses: int, queue_fill: float, shards: list[Shard]
) -> float:
    """Pressure in [0, 1] for one metrics window.

    The worst of: queue fullness (``depth / max_queue``), dead-shard
    fraction of a multi-shard fleet, and a forced 1.0 when the window
    shed anything — shedding IS the signal brownout exists to pre-empt.
    """
    if window_misses > 0:
        return 1.0
    pressure = queue_fill
    if len(shards) > 1:
        dead = sum(1 for shard in shards if not shard.alive)
        pressure = max(pressure, dead / len(shards))
    return min(1.0, pressure)


class Brownout:
    """Engage/release hysteresis of one declared :class:`BrownoutPolicy`
    (None: never engages)."""

    def __init__(self, policy: BrownoutPolicy | None) -> None:
        self.policy = policy
        self.active = False
        self.transitions = 0  # engage + release edges
        self._hot = 0  # consecutive windows at/over engage_pressure
        self._cool = 0  # consecutive windows at/under release_pressure

    def step(self, pressure: float) -> bool:
        """Feed one window's pressure; True if that flipped the state."""
        policy = self.policy
        if pressure >= policy.engage_pressure:
            self._hot += 1
            self._cool = 0
        elif pressure <= policy.release_pressure:
            self._cool += 1
            self._hot = 0
        else:
            self._hot = self._cool = 0
        if self.active:
            flip = self._cool >= policy.release_windows
        else:
            flip = self._hot >= policy.engage_windows
        if flip:
            self.active = not self.active
            self.transitions += 1
            self._hot = self._cool = 0
        return flip
