"""Seeded samplers and the columnar observers that ride on stream passes.

All pseudo-randomness flows through `substream`, which derives an
independent generator from (seed, role, key...) using SeedSequence spawn
keys. Each sampler takes one generator, keyed by (seed, role, repetition),
so a fixed (seed, stream order) reproduces every output bit for bit.

`run_pass` feeds every observer the same blocks of edges, two int64
columns (u, v) of at most BLOCK_EDGES edges, through `observe_block(u, v)`.
A stream that offers `next_block` is read as zero-copy views of its own
columns; any other stream that speaks the begin / next_edge / end protocol
is read edge by edge into blocks. Each observer is a numpy kernel over the
block:

- `EdgePicker` collects the rows at given positions of a running integer
  axis on which row i spans w_i consecutive positions. An edge block is
  the weight-1 case, so a position is a stream position, and r iid uniform
  positions in [0, m) are r independent uniform edges. Rows weighted by
  d_e, with r iid uniform positions in [0, d_E), are r independent edges
  of law d_e / d_E; a zero-weight row owns no position and is never picked.
  This is the package's one weighted sampler: ideal mode's pass 1 and the
  main estimator's degree-proportional draws from its sample R use it.
- `DegreeCounter` counts exact degrees of a query set: each block's ids
  are looked up among the sorted queries, and `bincount` adds the hits;
  `degrees` then reads queried vertices' degrees through the same index.
  The two observers below extend it, so they count their vertices too.
- `IncidentPicker` collects, per slot, the other endpoint of the j-th edge
  incident to the slot's anchor, matched against the anchor's running
  count. j uniform in [0, d_a) is a uniform neighbor, and every j in
  [0, d_a) is the whole neighborhood. `neighbor_picker` builds one for
  arrays of anchors and their degrees with one sample size s: s uniform
  positions per anchor, or every position once s covers d_a.
- `ClosureChecker` tells which of a list of vertex pairs are edges. Ids
  reach 2**63 - 1, so two of them do not pack into one int64 key; a pair's
  key is built from the ranks of its ends among the queried vertices.

A pass streams all m edges past a query set of k keys, so its cost is m
membership tests. The counter hashes its sorted vertices once into a
`idset._HashIndex`, a linear-probing table at most half full and O(k) in
size: each slot holds its own int64 key and the key's int32 rank, 12
bytes a slot. A lookup is expected O(1) probes, each one read of the key
slots, where binary search takes log2(k) cache misses, and it answers
with the same rank among the sorted keys. The picker and the checker hash
their distinct slot keys, built from those ranks, into one more index.
Vertex ids and rank keys are non-negative, so an empty slot holds -1.
Pass 6 runs the same `ClosureChecker` as pass 4; the degrees it counts
on the way are not read.

Every sample's total is known before its pass (m from the stats pass, d_E
from ideal mode's sizing pass, an anchor's degree from a degree pass), so
its positions are drawn up front and the pass only collects them.
"""

from __future__ import annotations

from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .errors import InputError
from .idset import _HashIndex, _distinct

# Role tags keep substreams for different duties disjoint under one seed.
ROLE_EDGE_SAMPLE = 1
ROLE_WEIGHTED_SAMPLE = 2
ROLE_PICK = 3
ROLE_NEIGHBOR = 4
ROLE_WEDGE = 5
ROLE_GENERATE = 6

# edges per block that `run_pass` hands to its observers
BLOCK_EDGES = 1 << 16


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (seed, key...); same inputs, same stream."""
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def run_pass(stream, observers: Sequence) -> None:
    """Drive one full pass, feeding every block of edges to every observer."""
    stream.begin_pass()
    try:
        for u, v in _blocks(stream):
            for ob in observers:
                ob.observe_block(u, v)
    except BaseException:
        stream.abort_pass()
        raise
    stream.end_pass()


def _blocks(stream):
    """The current pass as (u, v) int64 columns of at most BLOCK_EDGES edges."""
    size = BLOCK_EDGES
    read = getattr(stream, "next_block", None)
    if read is not None:
        while (block := read(size)) is not None:
            yield block
        return
    while True:
        edges = []
        while len(edges) < size and (e := stream.next_edge()) is not None:
            edges.append(e)
        if not edges:
            return
        flat = np.fromiter(chain.from_iterable(edges), dtype=np.int64, count=2 * len(edges))
        yield flat[0::2], flat[1::2]
        if len(edges) < size:
            return


class EdgePicker:
    """The rows at given positions of a running integer axis (0-based).

    Each `observe_rows` call appends rows, row i spanning `weights[i]`
    consecutive positions; `total` is the axis length so far. An edge block
    is the weight-1 case, so a position is then a stream position.
    """

    def __init__(self, positions):
        positions = np.asarray(positions, dtype=np.int64)
        # tied positions pick the same row, so the sort need not be stable
        self._order = np.argsort(positions)
        self._sorted = positions[self._order]
        # (count, columns), allocated by the first rows observed
        self._picked: Optional[np.ndarray] = None
        self.total = 0

    def observe_block(self, u: np.ndarray, v: np.ndarray) -> None:
        self.observe_rows((u, v), np.ones(len(u), dtype=np.int64))

    def observe_rows(self, columns: Sequence[np.ndarray], weights: np.ndarray) -> None:
        """Append rows `columns[j][i]`, row i weighing `weights[i]` >= 0."""
        if self._picked is None:
            self._picked = np.zeros((len(self._sorted), len(columns)), dtype=np.int64)
        start = self.total
        # row i spans [ends[i] - weights[i], ends[i]) on the axis
        ends = start + np.cumsum(weights, dtype=np.int64)
        if len(ends):
            self.total = int(ends[-1])
        lo, hi = np.searchsorted(self._sorted, (start, self.total))
        if lo < hi:
            rows = np.searchsorted(ends, self._sorted[lo:hi], side="right")
            self._picked[self._order[lo:hi]] = np.column_stack([c[rows] for c in columns])

    def samples(self) -> np.ndarray:
        """The picked rows as a (count, columns) int64 array, in slot order."""
        if len(self._sorted) and self._sorted[-1] >= self.total:
            raise InputError("a sampled position lies past the end of the pass")
        if self._picked is None:
            return np.zeros((0, 2), dtype=np.int64)
        return self._picked


class DegreeCounter:
    """Exact degrees of a set of query vertices, in one pass: `counts[i]` is
    the degree of `vertices[i]`, the distinct queries in sorted order."""

    def __init__(self, vertices):
        self.vertices = _distinct(vertices)
        self.counts = np.zeros(len(self.vertices), dtype=np.int64)
        self._index = _HashIndex(self.vertices)

    def observe_block(self, u: np.ndarray, v: np.ndarray) -> None:
        self._count(u)
        self._count(v)

    def _count(self, column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Count a block column's queried ids; per row, `find`'s rank and hit."""
        rank, hit = self._index.find(column)
        self.counts += np.bincount(rank[hit], minlength=len(self.counts))
        return rank, hit

    def degrees(self, vertices) -> np.ndarray:
        """Counted degrees, shaped as `vertices`; a vertex never queried is an InputError."""
        vertices = np.asarray(vertices, dtype=np.int64)
        idx, hit = self._index.find(vertices.ravel())
        if not hit.all():
            raise InputError(f"vertex {vertices.ravel()[~hit][0]} was not counted")
        return self.counts[idx].reshape(vertices.shape)


class IncidentPicker(DegreeCounter):
    """Per slot i, the other endpoint of the positions[i]-th edge incident
    to anchors[i] (0-based, in stream order), collected in one pass.

    The anchors are the counted vertices. Each block's incidences with them
    are ranked within their anchor by stream order and offset by the
    anchor's count so far, which names every incidence by the same
    (anchor rank, position) key as the slots that want it. A pass meets
    each key at most once.
    """

    def __init__(self, anchors, positions):
        anchors = np.asarray(anchors, dtype=np.int64)
        positions = np.asarray(positions, dtype=np.int64)
        super().__init__(anchors)
        # a position is below its anchor's degree, hence below m; rank * span
        # stays far below 2**63 for any stream that fits in memory
        self._span = int(positions.max()) + 1 if len(positions) else 1
        keys = self._index.find(anchors)[0] * self._span + positions
        keys, self._slot = np.unique(keys, return_inverse=True)
        self._key_index = _HashIndex(keys)
        # per distinct key, the other endpoint; -1 marks one the pass has
        # not met, and ids are never negative
        self._other = np.full(len(keys), -1, dtype=np.int64)

    def observe_block(self, u: np.ndarray, v: np.ndarray) -> None:
        iu, ru = self._ranks(u)
        iv, rv = self._ranks(v)
        rank = np.concatenate((ru, rv))
        # (rank, index) pairs are distinct, so one key sorts them as lexsort would
        order = np.argsort(rank * len(u) + np.concatenate((iu, iv)))
        rank = rank[order]
        other = np.concatenate((v[iu], u[iv]))[order]
        count = np.bincount(rank, minlength=len(self.counts))
        first = np.cumsum(count) - count
        pos = self.counts[rank] + np.arange(len(rank)) - first[rank]
        self.counts += count
        wanted = pos < self._span
        j, hit = self._key_index.find(rank[wanted] * self._span + pos[wanted])
        self._other[j[hit]] = other[wanted][hit]

    def _ranks(self, column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows of a block column that hold an anchor, and its rank; the
        block-long lookup arrays are dropped here, before the sort."""
        rank, hit = self._index.find(column)
        rows = np.flatnonzero(hit)
        return rows, rank[rows]

    def results(self) -> np.ndarray:
        """The other endpoint per slot, in slot order."""
        found = self._other[self._slot]
        if (found < 0).any():
            raise InputError("a sampled position lies past its anchor's degree")
        return found


def neighbor_picker(anchors, degrees, s: int,
                    rng: np.random.Generator) -> tuple[IncidentPicker, np.ndarray]:
    """An `IncidentPicker` serving one request per anchor, and the slot
    bounds: request i owns slots bounds[i]:bounds[i + 1].

    `degrees[i]` is the degree of `anchors[i]`. An anchor of degree at most
    s gets every position in [0, d), its whole neighborhood; any other gets
    s iid uniform positions in [0, d). An anchor of degree 0 gets no slot.
    """
    anchors = np.asarray(anchors, dtype=np.int64)
    degrees = np.asarray(degrees, dtype=np.int64)
    count = np.minimum(degrees, s)
    bounds = np.concatenate(([0], np.cumsum(count)))
    positions = np.arange(int(bounds[-1])) - np.repeat(bounds[:-1], count)
    sampled = np.repeat(degrees > s, count)
    positions[sampled] = rng.integers(np.repeat(degrees, count)[sampled])
    return IncidentPicker(np.repeat(anchors, count), positions), bounds


class ClosureChecker(DegreeCounter):
    """Whether each of a list of vertex pairs (a[i], b[i]) is an edge. The
    pairs' ends are the counted vertices, so the pass counts their degrees
    too."""

    def __init__(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        super().__init__(np.concatenate((a, b)))
        keys = self._key(self._index.find(a)[0], self._index.find(b)[0])
        keys, self._slot = np.unique(keys, return_inverse=True)
        self._key_index = _HashIndex(keys)
        self._hit = np.zeros(len(keys), dtype=bool)

    def _key(self, ra: np.ndarray, rb: np.ndarray) -> np.ndarray:
        # ranks lie below k = len(vertices), so lo * k + hi names an
        # unordered pair and fits in int64 while k < 3e9
        return np.minimum(ra, rb) * len(self.vertices) + np.maximum(ra, rb)

    def observe_block(self, u: np.ndarray, v: np.ndarray) -> None:
        ru, hu = self._count(u)
        rv, hv = self._count(v)
        both = hu & hv
        idx, hit = self._key_index.find(self._key(ru[both], rv[both]))
        self._hit[idx[hit]] = True

    def present(self) -> np.ndarray:
        """Per pair, in the order given: whether it is an edge."""
        return self._hit[self._slot]
