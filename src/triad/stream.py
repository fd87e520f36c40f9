"""Replayable, pass-counted edge streams.

A stream yields every edge exactly once per pass, in a fixed order for a
fixed shuffle seed; the order is decided once, when the stream is opened.
Passes follow an explicit begin / next / end protocol so estimator pass
budgets can be audited, and `edges()` wraps the protocol for plain
iteration. File-backed streams keep only line byte-offsets in memory and
read through the file buffer; they never hold the parsed edge list.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import edgelist
from .errors import StreamUsageError

Edge = tuple[int, int]


@dataclass(frozen=True)
class StreamStats:
    n: int  # distinct endpoints
    m: int  # edges


class EdgeStream:
    """Single-consumer cursor over an edge source.

    Use `from_file` or `from_edges`. Independent streams over the same
    source may be consumed concurrently; one stream must not be.
    """

    def __init__(self, *, mem: Optional[list[Edge]], path=None,
                 offsets: Optional[list[int]] = None, order_seed: Optional[int] = None):
        self._mem = mem
        self._path = path
        self._offsets = offsets
        self._order_seed = order_seed
        self._order: Optional[np.ndarray] = None
        if order_seed is not None:
            count = len(mem) if mem is not None else len(offsets)
            self._order = np.random.default_rng(order_seed).permutation(count)
        self._fh = None
        self._active = False
        self._pos = 0
        self._passes = 0
        self._stats: Optional[StreamStats] = None

    @classmethod
    def from_file(cls, path: str | os.PathLike, order_seed: Optional[int] = None) -> "EdgeStream":
        offsets = edgelist.scan_offsets(path)
        return cls(mem=None, path=path, offsets=offsets, order_seed=order_seed)

    @classmethod
    def from_edges(cls, edges, order_seed: Optional[int] = None) -> "EdgeStream":
        return cls(mem=edgelist.validate_edges(edges), order_seed=order_seed)

    def __len__(self) -> int:
        return len(self._mem) if self._mem is not None else len(self._offsets)

    @property
    def pass_counter(self) -> int:
        """Completed passes so far; increments once per finished pass."""
        return self._passes

    def begin_pass(self) -> None:
        if self._active:
            raise StreamUsageError("begin_pass during an active pass")
        self._active = True
        self._pos = 0
        if self._mem is None and self._fh is None:
            self._fh = open(self._path, "rb")

    def next_edge(self) -> Optional[Edge]:
        """Next edge of the current pass, or None at end of pass."""
        if not self._active:
            raise StreamUsageError("next_edge outside a pass")
        if self._pos >= len(self):
            return None
        idx = int(self._order[self._pos]) if self._order is not None else self._pos
        self._pos += 1
        if self._mem is not None:
            return self._mem[idx]
        self._fh.seek(self._offsets[idx])
        edge = edgelist.parse_line(self._fh.readline(), idx + 1)
        assert edge is not None  # offsets point at validated edge lines
        return edge

    def end_pass(self) -> None:
        """Finish an exhausted pass; this is the only point the counter moves."""
        if not self._active:
            raise StreamUsageError("end_pass outside a pass")
        if self._pos < len(self):
            raise StreamUsageError("end_pass before the pass was exhausted")
        self._active = False
        self._passes += 1

    def abort_pass(self) -> None:
        """Drop an unfinished pass without counting it."""
        if not self._active:
            raise StreamUsageError("abort_pass outside a pass")
        self._active = False

    def edges(self) -> Iterator[Edge]:
        """One full pass as an iterator; counts the pass when run to the end."""
        self.begin_pass()
        completed = False
        try:
            while True:
                e = self.next_edge()
                if e is None:
                    completed = True
                    return
                yield e
        finally:
            if completed:
                self.end_pass()
            else:
                self.abort_pass()

    def stats(self) -> StreamStats:
        """Exact (n, m) where n counts distinct endpoints.

        The first call consumes one pass; the result is cached after that,
        since it cannot change for an immutable source.
        """
        if self._stats is None:
            verts: set[int] = set()
            m = 0
            for u, v in self.edges():
                verts.add(u)
                verts.add(v)
                m += 1
            self._stats = StreamStats(n=len(verts), m=m)
        return self._stats
