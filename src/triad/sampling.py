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
  are ranked among the sorted queries, and `bincount` adds the hits;
  `degrees` then reads queried vertices' degrees through the same index.
  The two observers below extend it, so they count their vertices too.
- `IncidentPicker` collects, per slot, the other endpoint of the j-th edge
  incident to the slot's anchor, counted from the anchor's running
  count. j uniform in [0, d_a) is a uniform neighbor, and every j in
  [0, d_a) is the whole neighborhood. `neighbor_picker` builds one for
  arrays of anchors and their degrees with one sample size s: s uniform
  positions per anchor, or every position once s covers d_a.
- `ClosureChecker` tells which of a list of vertex pairs are edges. Ids
  reach 2**63 - 1, so two of them do not pack into one int64 key; a pair's
  key is built from the ranks of its ends among the queried vertices.

A pass streams all m edges past a query set of k keys, so its cost is m
membership tests. The counter indexes its sorted vertices once, by
`idset._rank_index`. When the ids are dense, that is an int32 rank table
over [0, largest id] plus one trailing -1 slot, and a lookup is one
gather; the table is built only when its 4 bytes an id come to no more
than the 12 bytes per home slot a hash would take. Otherwise it is an
`idset._HashIndex`, a linear-probing table at most half full whose slots
each hold an int64 key and its int32 rank; a lookup is expected O(1)
probes, where binary search takes log2(k) cache misses. Either answers
each id with its int32 rank among the sorted keys, or -1 on a miss, and
the observers work on those ranks. The checker hashes its distinct pair
keys, built from the ranks, into one more `_HashIndex`, and marks each
block's hits in a flag array with one trailing entry that every miss's -1
lands on. The picker keeps no slot index: it sorts each block's
incidences by (anchor rank, stream order) and reads each open slot's
incidence by arithmetic, at the anchor's run start plus the slot's
position past the anchor's count so far. Vertex ids and pair keys are
non-negative, so an empty hash slot holds -1. Pass 6 runs the same
`ClosureChecker` as pass 4; the degrees it counts on the way are not
read.

Every sample's total is known before its pass (m from the stats pass, d_E
from ideal mode's sizing pass, an anchor's degree from a degree pass), so
its positions are drawn up front and the pass only collects them.
"""

from __future__ import annotations

from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .errors import InputError
from .idset import _HashIndex, _distinct, _rank_index

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
        self._index = _rank_index(self.vertices)

    def observe_block(self, u: np.ndarray, v: np.ndarray) -> None:
        self._count(u)
        self._count(v)

    def _count(self, column: np.ndarray) -> np.ndarray:
        """Count a block column's queried ids; per row, the id's rank or -1."""
        rank = self._index.ranks(column)
        # a miss lands in bin 0, which is dropped
        self.counts += np.bincount(rank + 1, minlength=len(self.counts) + 1)[1:]
        return rank

    def degrees(self, vertices) -> np.ndarray:
        """Counted degrees, shaped as `vertices`; a vertex never queried is an InputError."""
        vertices = np.asarray(vertices, dtype=np.int64)
        rank = self._index.ranks(vertices.ravel())
        if (rank < 0).any():
            raise InputError(f"vertex {vertices.ravel()[rank < 0][0]} was not counted")
        return self.counts[rank].reshape(vertices.shape)


class IncidentPicker(DegreeCounter):
    """Per slot i, the other endpoint of the positions[i]-th edge incident
    to anchors[i] (0-based, in stream order), collected in one pass.

    The anchors are the counted vertices. Each block's incidences with them
    are sorted by (anchor rank, stream order), so an anchor's incidences
    form one run. A block holds anchor a's positions [counts[a], counts[a]
    + its count in the block), and an open slot (a, p) among them is entry
    p - counts[a] of a's run. Filled slots leave the open slots, so each
    block's slot work is the slots still open.
    """

    def __init__(self, anchors, positions):
        super().__init__(anchors)
        # per open slot, a column: its index, its anchor's rank, its position
        self._open = np.stack((np.arange(len(anchors)), self._index.ranks(anchors),
                               np.asarray(positions, dtype=np.int64)))
        # per slot, the other endpoint, written when the pass meets the slot
        self._other = np.full(len(anchors), -1, dtype=np.int64)

    def observe_block(self, u: np.ndarray, v: np.ndarray) -> None:
        # both ends of each row in stream order: entry 2i + c is column c of row i
        rank = np.column_stack((self._index.ranks(u), self._index.ranks(v))).ravel()
        at = np.flatnonzero(rank >= 0)
        rank = rank[at]
        count = np.bincount(rank, minlength=len(self.counts))
        # the block holds anchor a's positions [counts[a], counts[a] + count[a])
        _, anchor, position = self._open
        met = position < (self.counts + count)[anchor]
        if met.any():
            slot, anchor, position = self._open.take(np.flatnonzero(met), axis=1)
            self._open = self._open.take(np.flatnonzero(~met), axis=1)
            # entries are distinct and below 2 * len(u), so keys rank * 2 len(u)
            # + entry sort as lexsort would, and each key holds its entry
            runs = np.sort(rank.astype(np.int64) * (2 * len(u)) + at)
            # position p of anchor a sits at run entry p - (counts[a] - first[a])
            skip = self.counts - np.cumsum(count) + count
            entry = runs[position - skip[anchor]] % (2 * len(u))
            row = entry >> 1
            self._other[slot] = np.where(entry & 1, u[row], v[row])
        self.counts += count

    def results(self) -> np.ndarray:
        """The other endpoint per slot, in slot order."""
        if self._open.shape[1]:
            raise InputError("a sampled position lies past its anchor's degree")
        return self._other


def neighbor_picker(anchors, degrees, s: int,
                    rng: np.random.Generator) -> tuple[IncidentPicker, np.ndarray]:
    """An `IncidentPicker` serving one request per anchor, and the slot
    bounds: request i owns slots bounds[i]:bounds[i + 1].

    `degrees[i]` is the degree of `anchors[i]`. An anchor of degree at most
    s gets every position in [0, d), its whole neighborhood; any other gets
    s iid uniform positions in [0, d). An anchor of degree 0 gets no slot.
    """
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
        super().__init__(np.concatenate((a, b)))
        keys = self._key(self._index.ranks(a), self._index.ranks(b))
        keys, self._slot = np.unique(keys, return_inverse=True)
        self._key_index = _HashIndex(keys)
        # per distinct key, whether the pass met it; a miss's rank, -1,
        # marks the trailing entry, which no pair reads
        self._hit = np.zeros(len(keys) + 1, dtype=bool)

    def _key(self, ra: np.ndarray, rb: np.ndarray) -> np.ndarray:
        # ranks lie below k = len(vertices), so lo * k + hi names an
        # unordered pair and fits in int64 while k < 3e9
        return np.minimum(ra, rb, dtype=np.int64) * len(self.vertices) + np.maximum(ra, rb)

    def observe_block(self, u: np.ndarray, v: np.ndarray) -> None:
        ru, rv = self._count(u), self._count(v)
        both = np.flatnonzero((ru >= 0) & (rv >= 0))
        self._hit[self._key_index.ranks(self._key(ru[both], rv[both]))] = True

    def present(self) -> np.ndarray:
        """Per pair, in the order given: whether it is an edge."""
        return self._hit[self._slot]
