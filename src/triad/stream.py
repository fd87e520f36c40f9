"""Replayable, pass-counted edge streams.

A stream yields every edge exactly once per pass, in a fixed order for a
fixed shuffle seed; the order is decided once, when the stream is opened.
Passes follow an explicit begin / next / end protocol so estimator pass
budgets can be audited: `next_block` hands out read-only numpy views of
the next run of edges for consumers that work on columns, and `next_edge`
hands out one edge as a pair of Python ints. Opening a stream validates
its edges once and copies them into two int64 columns (16 bytes per edge)
in pass order; no pass rereads the source, so a file that changes or
disappears, or an array that is changed, after opening changes nothing.
"""

from __future__ import annotations

import os
from typing import NamedTuple, Optional

import numpy as np

from . import edgelist
from .errors import InputError, StreamUsageError
from .idset import Edge, _distinct, _presence


class StreamStats(NamedTuple):
    n: int  # distinct endpoints
    m: int  # edges


class EdgeStream:
    """Single-consumer cursor over a validated edge list.

    Use `from_file` or `from_edges`, which validate the edges. The
    constructor takes edges that are already validated, as an (m, 2) int64
    array: canonical (u < v), distinct, with ids in [0, 2**63), as an
    edge-list scan or a Graph guarantees; they are not checked again. It
    copies them into two read-only int64 columns already in pass order, so
    a pass reads them back without touching the source. Independent
    streams over the same source may be consumed concurrently; one stream
    must not be.
    """

    def __init__(self, ends: np.ndarray, order_seed: Optional[int] = None):
        if order_seed is not None and order_seed < 0:
            raise InputError(f"order seed must be non-negative, got {order_seed}")
        if order_seed is None:
            u, v = ends[:, 0].copy(), ends[:, 1].copy()
        else:
            order = np.random.default_rng(order_seed).permutation(len(ends))
            u, v = ends[order, 0], ends[order, 1]
        u.flags.writeable = False
        v.flags.writeable = False
        self._u, self._v = u, v
        self._active = False
        self._pos = 0
        self._passes = 0
        self._stats: Optional[StreamStats] = None

    @classmethod
    def from_file(cls, path: str | os.PathLike, order_seed: Optional[int] = None) -> "EdgeStream":
        return cls(edgelist.read_edges(path), order_seed=order_seed)

    @classmethod
    def from_edges(cls, edges, order_seed: Optional[int] = None) -> "EdgeStream":
        return cls(edgelist.validate_edges(edges), order_seed=order_seed)

    def __len__(self) -> int:
        return len(self._u)

    @property
    def pass_counter(self) -> int:
        """Completed passes so far; increments once per finished pass."""
        return self._passes

    def begin_pass(self) -> None:
        if self._active:
            raise StreamUsageError("begin_pass during an active pass")
        self._active = True
        self._pos = 0

    def next_edge(self) -> Optional[Edge]:
        """Next edge of the current pass as Python ints, or None at end of pass."""
        if not self._active:
            raise StreamUsageError("next_edge outside a pass")
        pos = self._pos
        if pos >= len(self._u):
            return None
        self._pos = pos + 1
        return self._u.item(pos), self._v.item(pos)

    def next_block(self, size: int) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """Up to `size` next edges of the current pass as two read-only
        int64 columns (views of the stream's own storage, no copy), or None
        at end of pass."""
        if not self._active:
            raise StreamUsageError("next_block outside a pass")
        pos = self._pos
        count = min(size, len(self._u) - pos)
        if count <= 0:
            return None
        self._pos = pos + count
        return self._u[pos:pos + count], self._v[pos:pos + count]

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

    def stats(self) -> StreamStats:
        """Exact (n, m) where n counts distinct endpoints.

        The first call consumes one pass, read as one block; the result is
        cached after that, since it cannot change for an immutable source.
        Dense ids are counted on a presence mark of one byte per id, and
        only sparse ids are sorted.
        """
        if self._stats is None:
            self.begin_pass()
            block = self.next_block(len(self))
            self.end_pass()
            if block is None:
                self._stats = StreamStats(n=0, m=0)
            else:
                seen = _presence(block)
                n = (len(_distinct(np.concatenate(block))) if seen is None
                     else int(np.count_nonzero(seen)))
                self._stats = StreamStats(n=n, m=len(block[0]))
        return self._stats
