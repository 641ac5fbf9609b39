"""Fleet policy: what the front door knows about a shard, and every
decision it takes over the fleet.

:class:`~repro.serve.server.Server` owns lifecycle, submit, event
routing, tracing and metrics; the rules it applies live here, as plain
functions and small objects over one :class:`Shard` record per engine
worker and one session per request.  Nothing in this module touches an
event loop, a clock or a worker transport, so each rule is testable
with hand-built records.  A *session* here is anything with the
attributes the server's :class:`~repro.serve.server.Session` carries:
``job`` (its :class:`~repro.runtime.serving.DecodeJob`), ``client``
and ``queued``.

A job waits in one place, the :class:`EdfQueue`: :func:`pick_shard`
hands a shard a job only into a free lane, so a shard never holds work
it cannot start, and deadlines, fair share, brownout and shedding see
every waiting job.
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
    "brownout_pressure",
    "pick_shard",
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
    #: The loop's latest report (the server starts it at all-zero).
    stats: LoopStats | None = None
    #: Dispatched-but-unresolved sessions, one per busy lane, in
    #: dispatch order — kept so a death can re-dispatch them without
    #: asking the client.
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
    a re-push (a redispatch) takes a fresh one, and a heap entry
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


def pick_shard(shards: list[Shard], max_lanes: int) -> Shard | None:
    """Least-loaded live shard with a free lane; round-robin ties (the
    least recently picked wins).  None when every lane is busy: the job
    keeps waiting in the :class:`EdfQueue`, the one place a job waits."""
    return min(
        (
            shard
            for shard in shards
            if shard.alive and shard.in_flight < max_lanes
        ),
        key=lambda shard: (shard.in_flight, shard.last_pick),
        default=None,
    )


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
