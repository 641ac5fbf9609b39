"""Request spans: where one utterance's wall time actually went.

A :class:`Trace` is a flat list of named :class:`Span` records tied to
one ``trace_id``.  Spans are START/END pairs on the shared monotonic
clock (``time.monotonic`` is system-wide on Linux, so spans stamped in
a forked worker process merge with server-side spans without any clock
translation) plus an optional ``parent`` span name, which is what
makes the list renderable as a tree::

    request                                  41.8ms
    ├─ wire.receive                           0.1ms
    ├─ queue.wait                             3.2ms
    ├─ dispatch                               0.4ms
    ├─ worker.queue        [worker 1]         0.7ms
    └─ decode              [worker 1]        37.4ms
       ├─ decode.scoring                     29.1ms
       ├─ decode.token_update                 6.0ms
       └─ decode.word_exit                    1.2ms

Trace ids are minted with :func:`mint_trace_id`: a per-process random
prefix plus a counter.  That is deliberately NOT a fresh ``uuid4`` per
request — minting is on the submit hot path of every request (tracing
has no off switch), while the prefix still keeps ids unique across
client processes.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass, field

__all__ = ["Span", "Trace", "mint_trace_id"]

# Per-process namespace for minted ids: 48 random bits + the pid, so
# two processes (or a fork) can never collide even if they race the
# counter.  Regenerated lazily after a fork (the pid changed).
_mint_lock = threading.Lock()
_mint_prefix: str | None = None
_mint_pid: int | None = None
_mint_counter = itertools.count()


def mint_trace_id() -> str:
    """A process-unique trace id, cheap enough for the submit path."""
    global _mint_prefix, _mint_pid, _mint_counter
    pid = os.getpid()
    if _mint_prefix is None or _mint_pid != pid:
        with _mint_lock:
            if _mint_prefix is None or _mint_pid != pid:
                _mint_prefix = f"{os.urandom(6).hex()}{pid:x}"
                _mint_pid = pid
                _mint_counter = itertools.count()
    return f"{_mint_prefix}-{next(_mint_counter):x}"


@dataclass
class Span:
    """One named interval on the shared monotonic clock."""

    name: str
    start_s: float
    end_s: float
    worker: int | None = None  # shard that produced it (None: server side)
    parent: str | None = None  # parent span NAME within the same trace

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def to_dict(self) -> dict:
        out = {"name": self.name, "start_s": self.start_s, "end_s": self.end_s}
        if self.worker is not None:
            out["worker"] = self.worker
        if self.parent is not None:
            out["parent"] = self.parent
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        return cls(
            name=data["name"],
            start_s=data["start_s"],
            end_s=data["end_s"],
            worker=data.get("worker"),
            parent=data.get("parent"),
        )


@dataclass
class Trace:
    """Every span one request accumulated, across processes.

    Excluded from result equality by its carriers
    (:class:`~repro.decoder.recognizer.RecognitionResult`,
    :class:`~repro.serve.types.ServeResult` hold it in
    ``compare=False`` / trailing fields), so two decodes of the same
    utterance still compare equal — tracing observes, it never
    participates.
    """

    trace_id: str
    utt_id: int | None = None
    spans: list[Span] = field(default_factory=list)

    def add(
        self,
        name: str,
        start_s: float,
        end_s: float,
        worker: int | None = None,
        parent: str | None = None,
    ) -> Span:
        span = Span(name, start_s, end_s, worker=worker, parent=parent)
        self.spans.append(span)
        return span

    def merge(self, other: "Trace | None") -> None:
        """Fold another process's spans for the SAME trace into this one."""
        if other is None:
            return
        if other.trace_id != self.trace_id:
            raise ValueError(
                f"cannot merge trace {other.trace_id!r} into {self.trace_id!r}"
            )
        self.spans.extend(other.spans)

    def span(self, name: str) -> Span | None:
        """The first span with ``name`` (spans are few; linear is fine)."""
        for span in self.spans:
            if span.name == name:
                return span
        return None

    @property
    def duration_s(self) -> float:
        if not self.spans:
            return 0.0
        return max(s.end_s for s in self.spans) - min(
            s.start_s for s in self.spans
        )

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "utt_id": self.utt_id,
            "spans": [s.to_dict() for s in self.spans],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Trace":
        return cls(
            trace_id=data["trace_id"],
            utt_id=data.get("utt_id"),
            spans=[Span.from_dict(s) for s in data.get("spans", ())],
        )

    # -- rendering -----------------------------------------------------
    def render(self) -> str:
        """The span tree as indented text, children under parents.

        Roots and siblings sort by start time, so reading top to
        bottom follows the request through the stack.
        """
        children: dict[str | None, list[Span]] = {}
        names = {s.name for s in self.spans}
        for span in self.spans:
            # A dangling parent (its span was dropped or never merged)
            # promotes the child to a root instead of hiding it.
            key = span.parent if span.parent in names else None
            children.setdefault(key, []).append(span)
        for spans in children.values():
            spans.sort(key=lambda s: (s.start_s, s.name))
        width = max((len(s.name) for s in self.spans), default=0) + 4
        lines = [f"trace {self.trace_id} (utt {self.utt_id})"]

        def walk(parent: str | None, indent: str) -> None:
            spans = children.get(parent, [])
            for i, span in enumerate(spans):
                last = i == len(spans) - 1
                branch = "└─ " if last else "├─ "
                shard = f" [worker {span.worker}]" if span.worker is not None else ""
                pad = " " * max(1, width - len(span.name) - len(indent))
                lines.append(
                    f"{indent}{branch}{span.name}{pad}"
                    f"{span.duration_s * 1000:8.2f}ms{shard}"
                )
                walk(span.name, indent + ("   " if last else "│  "))

        walk(None, "")
        return "\n".join(lines)
