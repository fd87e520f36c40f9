"""Spans and a stream proxy for the benchmark's traced runs.

Spans are opened and closed by the benchmark's own code: around calls into
the library's public functions, and at the begin/end boundary of every
stream pass read through `TracedStream`. Nothing inside the library is
instrumented. Spans stay in memory until the child process writes them out
when its command has finished.

This module imports only the standard library, so a child can create its
tracer before it imports the code under test.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder; spans nest by the order they open."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []

    def open(self, name: str, **attrs) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(span)
        self._open.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        if not self._open or self._open[-1] is not span:
            raise RuntimeError(f"span {span['name']!r} closed out of order")
        self._open.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        span = self.open(name, **attrs)
        try:
            yield span
        finally:
            self.close(span)

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    # -- analysis -------------------------------------------------------------

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def children(self, span: dict) -> list[dict]:
        return [s for s in self.spans if s["parent"] == span["id"]]

    def total(self, name: str) -> float:
        return sum(duration(s) for s in self.named(name))

    def self_time(self, span: dict) -> float:
        """Duration minus the part of it that child spans cover."""
        return duration(span) - sum(duration(c) for c in self.children(span))


def duration(span: dict) -> float:
    return span["end"] - span["start"]


class TracedStream:
    """Forwards an edge stream's pass protocol, one span per pass.

    Each pass span records how many edges were read and how long the reads
    themselves took, so a pass splits into read time and the time the
    consumer spent on the edges. `stats()` is forwarded untouched: its pass
    runs inside the stream and is timed whole by the caller's span.
    """

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self._span = None
        self._edges = 0
        self._read_s = 0.0

    def __len__(self) -> int:
        return len(self._inner)

    @property
    def pass_counter(self) -> int:
        return self._inner.pass_counter

    def stats(self):
        return self._inner.stats()

    def begin_pass(self) -> None:
        self._span = self._tracer.open("stream.pass")
        self._edges = 0
        self._read_s = 0.0
        self._inner.begin_pass()

    def next_edge(self):
        started = time.perf_counter()
        edge = self._inner.next_edge()
        self._read_s += time.perf_counter() - started
        if edge is not None:
            self._edges += 1
        return edge

    def end_pass(self) -> None:
        self._inner.end_pass()
        self._close(completed=True)

    def abort_pass(self) -> None:
        self._inner.abort_pass()
        self._close(completed=False)

    def _close(self, completed: bool) -> None:
        span = self._span
        self._span = None
        span["attrs"].update(edges=self._edges, read_s=self._read_s, completed=completed)
        self._tracer.close(span)

    def edges(self):
        """One full pass as an iterator, driven through this proxy."""
        self.begin_pass()
        completed = False
        try:
            while True:
                edge = self.next_edge()
                if edge is None:
                    completed = True
                    return
                yield edge
        finally:
            if completed:
                self.end_pass()
            else:
                self.abort_pass()
