"""Spans around the benchmark's calls into the package's layers.

A span is recorded for each public call the benchmark makes: its name
(``<layer>.<call>``), start, end, the span that caused it, the operation
it belongs to, the phase (a set-up or a round) and the graph size it
worked on.  Spans stay in memory and are written out once, when the run
ends.  The untraced run uses ``NullTracer``, whose ``call`` is a plain
function call.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass(frozen=True, slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    phase: str
    n: int | None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """Calls through without recording anything."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records one span per call; nesting follows the call stack.

    The harness sets ``phase`` and, around each operation, ``op`` and
    ``op_n``.  A span's size is its first argument's vertex count when it
    has one (an embedding), else the operation's.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = ""
        self.op: int | None = None
        self.op_n: int | None = None
        self._stack: list[int] = []
        self._next_id = 0

    def call(self, name, fn, *args, **kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        n = getattr(args[0], "vertex_count", self.op_n) if args else self.op_n
        self._stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.op, self.phase, n))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the time its direct children cover."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    return {s.id: s.duration - child_time.get(s.id, 0.0) for s in spans}
