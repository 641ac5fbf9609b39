"""The benchmark's own spans, recorded around calls into each layer.

The product is measured from outside: :meth:`SpanRecorder.wrap`
shadows a method on an INSTANCE the benchmark built (or a function on
a module it imported) with a timing wrapper for the one traced replay
and :meth:`SpanRecorder.unwrap_all` removes it again.  Spans (name,
start, end, parent, request id) stay in memory until the workload
ends.  A layer's *self time* is its span minus the part of that
interval its child spans cover — children may overlap each other, so
the covered part is the measure of their union, not their sum.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

__all__ = ["SpanRecorder", "covered", "aggregate"]

_NAME, _START, _END, _PARENT, _REQUEST = range(5)


class SpanRecorder:
    """In-memory span list with per-thread parent tracking."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, request]
        self.request: int | None = None  # stamped on spans as they open
        self._local = threading.local()
        self._undo: list[tuple[object, str, object, bool]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, request: int | None = None) -> int:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append(
            [
                name,
                time.monotonic(),
                None,
                stack[-1] if stack else None,
                self.request if request is None else request,
            ]
        )
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][_END] = time.monotonic()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()
        elif index in stack:  # a coroutine resumed out of order
            stack.remove(index)

    @contextmanager
    def span(self, name: str, request: int | None = None):
        index = self.open(name, request)
        try:
            yield index
        finally:
            self.close(index)

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: int | None = None,
        request: int | None = None,
    ) -> int:
        """Import a span measured elsewhere (the server's own trace)."""
        self.spans.append([name, start, end, parent, request])
        return len(self.spans) - 1

    # -- wrappers ------------------------------------------------------
    def wrap(self, owner: object, attr: str, name: str, after=None) -> None:
        """Record a span around every ``owner.attr(...)`` call.

        ``after(args, kwargs, result)`` runs once the span is closed —
        the place to count work at the boundary where it happens.
        """
        original = getattr(owner, attr)
        shadowed = attr in getattr(owner, "__dict__", {})

        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original, shadowed))

    def unwrap_all(self) -> None:
        for owner, attr, original, shadowed in reversed(self._undo):
            if shadowed:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()

    # -- output --------------------------------------------------------
    def write(self, path: Path, **header) -> None:
        """Every span, times relative to the first; ``parent`` indexes
        this list (``end_s`` is null for a span that never closed)."""
        origin = min((s[_START] for s in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        document = dict(header)
        document["columns"] = ["name", "start_s", "end_s", "parent", "request"]
        document["spans"] = [
            [
                s[_NAME],
                s[_START] - origin,
                None if s[_END] is None else s[_END] - origin,
                s[_PARENT],
                s[_REQUEST],
            ]
            for s in self.spans
        ]
        path.write_text(json.dumps(document) + "\n")


def covered(start: float, end: float, children: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``children``."""
    total = 0.0
    at = start
    for c_start, c_end in sorted(children):
        c_start = max(c_start, at)
        c_end = min(c_end, end)
        if c_end > c_start:
            total += c_end - c_start
            at = c_end
    return total


def aggregate(spans: list[list]) -> dict[str, dict]:
    """Per span name: ``calls``, ``busy_s`` (sum of durations) and
    ``self_s`` (sum of durations minus child-covered time)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[_END] is not None and s[_PARENT] is not None:
            children.setdefault(s[_PARENT], []).append((s[_START], s[_END]))
    out: dict[str, dict] = {}
    for index, s in enumerate(spans):
        if s[_END] is None:
            continue
        duration = s[_END] - s[_START]
        inside = covered(s[_START], s[_END], children.get(index, []))
        entry = out.setdefault(s[_NAME], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["busy_s"] += duration
        entry["self_s"] += duration - inside
    return out
