"""In-memory graphs and exact combinatorial oracles.

These are the ground truth the streaming estimators are verified against:
exact degrees and edge degrees, degeneracy, two independent triangle
counters, per-edge triangle counts, and the heavy / costly classification
of the paper's analysis, which only the acceptance tests read.

A Graph is one compressed sparse row (CSR) adjacency: `indptr` holds n + 1
row offsets and `indices` the 2m neighbor ids, sorted within each row; both
are read-only, and a degree is the gap between two offsets. `indptr` is
int64; `indices` is int32 below 2**31 vertices, else int64. The CSR build
and the kernel's orientation sort pair keys x * n + y, int32 when
n * n < 2**31, else int64. Otherwise the oracles widen ids only to form
the hash set's int64 keys, or a step at a time to index by them, which
numpy does several times faster by int64 ids than by int32 ones.
Three oracles are numpy kernels over these arrays that need O(n + m) memory:

- `triangles_exact_cn` orients every edge from the lower to the higher
  (degree, id) rank and closes the wedges of each out-list by membership
  in a hash set of the oriented edge keys (forward counting; Chiba &
  Nishizeki 1985, Latapy 2008). Out-lists have at most sqrt(2m) entries
  and the wedges number at most d_E / 2. They are generated one out-degree
  class at a time, as index pairs over a matrix of equal-length out-lists,
  a bounded step at a time. A list builds none unless some wedge (b, c)
  has c in the rank range of b's out-list, as a closing one must; a kept
  list's wedges are each probed once, in a set of the keys they can hit.
- `degeneracy` peels in batches: at level k each round removes every live
  vertex of current degree <= k, and only the removed vertices' neighbors
  are revisited. The level rises to the least live degree when a round
  removes nothing, and the last level reached is the degeneracy.
- `sum_edge_degrees` is half the sum of min(d_row, d_col) over the CSR.

Loading relabels ids to dense [0, n) in their original order, through
`idset._dense_ids`, and keeps the original ids as `labels`, a read-only
int64 array. The CSR is built from the scan's blocks a step at a time,
with no whole copy of the edges: one sort of its (row, column) keys, whose
offsets give `indptr` and whose remainders become `indices`, in place
when the two dtypes agree.

A Graph is immutable after construction, so every oracle is safe to call
concurrently.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from itertools import combinations
from typing import Iterator, NamedTuple

import numpy as np

from . import edgelist
from .errors import InputError
from .idset import Edge, Triangle, _HashSet, _dense_ids, _distinct, triangle_edges

# wedges per kernel step (or one out-list's d - 1, if more), and entries
# per step wherever a pass over the edges is split (the CSR build, the
# liveness pass, the peel, d_E). A step holds a few int64 temporaries of
# this length (512 KiB each at 2**16), so its working set fits a core's L2
# cache. On the lb NO gadget (p=q=40, N=150), on a shared 2-vCPU Xeon with
# 2 MiB of L2 per core, the count takes 5.1, 4.9, 4.7, 4.8 and 4.9 ms at
# 2**14 .. 2**18 (medians of 15 interleaved runs, measured October 2026
# with int32 oriented keys); its tracemalloc peak is 3.2 MiB up to 2**15,
# and the wedge steps raise it to 3.6, 4.7 and 5.2 MiB at 2**16 .. 2**18.
# On er(3000, 0.03), where the liveness pass keeps nearly every list, the
# count takes 88, 84, 75, 73 and 79 ms (medians of 5), and the peak,
# 6.6 MiB up to 2**16, is 8.0 and 11.3 MiB above.
_WEDGE_CHUNK = 1 << 16


def canonical_edge(u: int, v: int) -> Edge:
    if u == v:
        raise InputError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def pick_anchor(u: int, v: int, d_u: int, d_v: int) -> int:
    """Endpoint whose neighborhood defines N(e).

    The lower-degree endpoint; equal degrees go to the larger id. Samplers
    and oracles share this rule so they agree edge by edge.
    """
    if u > v:
        u, v = v, u
        d_u, d_v = d_v, d_u
    return u if d_u < d_v else v


class Graph:
    """Immutable undirected simple graph on dense vertex ids [0, n)."""

    __slots__ = ("n", "m", "labels", "indptr", "indices")

    def __init__(self, n: int, edges):
        if n < 0:
            raise InputError(f"negative vertex count {n}")
        ends = edgelist.validate_edges(edges)
        if ends.size and ends.max() >= n:
            raise InputError(f"vertex {int(ends.max())} out of range for n={n}")
        self.labels = None
        self._fill(n, [ends], lambda ids: ids)

    def _fill(self, n: int, blocks: list, dense) -> bool:
        """Build the CSR from (k, 2) blocks of canonical edges whose ids
        `dense` maps to [0, n); return whether an edge repeats, which only
        an unchecked file holds, and empty the list unless one does."""
        # one sort of (row, column) keys groups the rows and sorts each one;
        # row r's keys are those in [r * n, (r + 1) * n). They are int32
        # when n * n fits, and become `indices` in place when dtypes agree
        m = sum(len(b) for b in blocks)
        keys = np.empty(2 * m, dtype=_key_dtype(n))
        halves, at = keys.reshape(2, m), 0
        for b in blocks:
            for first in range(0, len(b), _WEDGE_CHUNK):
                ends = dense(b[first:first + _WEDGE_CHUNK].T)
                step = slice(at, at + ends.shape[1])
                np.multiply(ends, n, out=halves[:, step], dtype=keys.dtype)
                halves[:, step] += ends[::-1]
                at = step.stop
        keys.sort()
        repeats = bool((keys[1:] == keys[:-1]).any())
        if not repeats:
            blocks.clear()
        indptr = np.searchsorted(keys, np.arange(n + 1, dtype=keys.dtype) * n)
        index = np.int32 if n < 2**31 else np.int64
        indices = keys if keys.dtype == index else np.empty(2 * m, dtype=index)
        np.remainder(keys, n, out=indices, casting="unsafe")
        del keys, halves
        indptr.flags.writeable = False
        indices.flags.writeable = False
        self.n = n
        self.m = m
        self.indptr = indptr
        self.indices = indices
        return repeats

    @classmethod
    def from_file(cls, path) -> "Graph":
        """Load an edge list, remapping possibly-sparse ids to dense [0, n).

        `labels` is a read-only int64 array of the original ids, indexed by
        the dense id. The file is read once, and the CSR is built from the
        scan's blocks; a repeated edge shows as two equal keys in the CSR's
        sort, and only then is the first one looked for.
        """
        scan = edgelist.EdgeScan(path)
        if scan.bad is not None:
            scan.raise_first_fault()
        g, repeats = cls._relabelled(scan.blocks)
        if repeats:
            scan.raise_first_fault()
        return g

    @classmethod
    def from_checked_edges(cls, ends: np.ndarray) -> "Graph":
        """Graph of already-validated edges, an (m, 2) integer array,
        remapping ids to dense [0, n).

        The edges must be canonical (u < v), distinct, and have ids in
        [0, 2**63), as an edge-list scan or an EdgeStream guarantees; they
        are not checked again. Dense ids follow the original order, and
        `labels`, a read-only int64 array, maps each dense id back to its
        original id.
        """
        return cls._relabelled([ends])[0]

    @classmethod
    def _relabelled(cls, blocks: list) -> tuple["Graph", bool]:
        """`from_checked_edges` of a list of blocks, and whether an edge repeats."""
        ids, dense = _dense_ids(blocks)
        g = cls.__new__(cls)
        ids.flags.writeable = False
        g.labels = ids
        return g, g._fill(len(ids), blocks, dense)

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise InputError(f"vertex {v} out of range [0, {self.n})")
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not 0 <= v < self.n:
            raise InputError(f"vertex {v} out of range [0, {self.n})")
        return tuple(self.indices[self.indptr[v]:self.indptr[v + 1]].tolist())

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            return False
        lo, hi = self.indptr[u], self.indptr[u + 1]
        i = bisect_left(self.indices, v, lo, hi)
        return bool(i < hi and self.indices[i] == v)

    def edges(self) -> Iterator[Edge]:
        """Canonical edges in sorted order."""
        u, v = _edge_ends(self)
        return zip(u.tolist(), v.tolist())

    def edge_array(self) -> np.ndarray:
        """Canonical edges in sorted order, as an (m, 2) int64 array."""
        return np.stack(_edge_ends(self), axis=1, dtype=np.int64)

    def edge_list(self) -> list[Edge]:
        return list(self.edges())

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _key_dtype(n: int) -> type:
    """The dtype of a pair key x * n + y over ids in [0, n): int32 when
    n * n fits, else int64."""
    return np.int32 if n * n < 2**31 else np.int64


def _edge_ends(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays (u, v) of the canonical edges, in sorted order."""
    rows = np.repeat(np.arange(g.n, dtype=g.indices.dtype), np.diff(g.indptr))
    upper = g.indices > rows
    return rows[upper], g.indices[upper]


def _ranges(starts: np.ndarray, lengths: np.ndarray, dtype) -> np.ndarray:
    """The integer ranges [starts[i], starts[i] + lengths[i]), joined, in `dtype`."""
    offsets = np.cumsum(lengths) - lengths
    return (np.repeat((starts - offsets).astype(dtype), lengths)
            + np.arange(int(lengths.sum()), dtype=dtype))


def sum_edge_degrees(g: Graph) -> int:
    """Total edge degree, half the sum of min(d_row, d_col) over the CSR's
    2m entries; at most 2 * m * degeneracy for every graph. The mins are
    taken in place in `indices`' dtype, _WEDGE_CHUNK entries a step."""
    deg = np.diff(g.indptr).astype(g.indices.dtype)
    ends = np.repeat(deg, deg)
    for first in range(0, len(ends), _WEDGE_CHUNK):
        step = ends[first:first + _WEDGE_CHUNK]
        np.minimum(step, deg.take(g.indices[first:first + _WEDGE_CHUNK]), out=step)
    return int(ends.sum(dtype=np.int64)) // 2


def degeneracy(g: Graph) -> int:
    """Exact degeneracy by batched peeling.

    At level k, each round removes every live vertex of current degree <= k
    and lowers the degrees of their live neighbors; those that drop to <= k
    form the next round. When a round removes nothing, what is left is the
    (k+1)-core, and the level jumps to its least degree. The last level
    reached is the degeneracy. A round costs the removed vertices' adjacency,
    whose positions are int32 where they fit and are widened to int64 with
    the neighbors they read _WEDGE_CHUNK at a time; the live list is
    compacted only between levels, and a vertex stays on it for at most its
    core number of levels, so all compactions cost O(n + m). Degrees stay
    int64, as `np.subtract.at` is several times slower on int32.
    """
    deg = np.diff(g.indptr)
    positions = np.int32 if len(g.indices) < 2**31 else np.int64
    alive = np.ones(g.n, dtype=bool)
    live = np.arange(g.n)
    k = 0
    while True:
        live = live[alive[live]]
        if not live.size:
            return k
        k = int(deg[live].min())
        frontier = live[deg[live] <= k]
        while frontier.size:
            alive[frontier] = False
            starts = g.indptr[frontier]
            at = _ranges(starts, g.indptr[frontier + 1] - starts, positions)
            low = []
            for first in range(0, len(at), _WEDGE_CHUNK):
                step = at[first:first + _WEDGE_CHUNK].astype(np.int64)
                nbrs = g.indices[step].astype(np.int64)
                nbrs = nbrs[alive[nbrs]]
                np.subtract.at(deg, nbrs, 1)
                low.append(nbrs[deg[nbrs] <= k])
            frontier = _distinct(np.concatenate(low)) if low else at


def triangles_exact_naive(g: Graph) -> int:
    """Count triangles by testing every vertex triple.

    Cubic in n; meant as an independent cross-check for n up to a few
    hundred, not for production counting.
    """
    nbr = [frozenset(g.neighbors(v)) for v in range(g.n)]
    count = 0
    for a, b, c in combinations(range(g.n), 3):
        if b in nbr[a] and c in nbr[a] and c in nbr[b]:
            count += 1
    return count


def _oriented_keys(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vertices in (degree, id) rank order, the sorted edge keys, and the
    out-degree of each rank.

    The key of an edge is rank(x) * n + rank(y), oriented so that
    rank(x) < rank(y), in `_key_dtype(n)`. The edges are the CSR's canonical
    copies, a suffix of each row; a bool index by rank order would branch
    unpredictably.
    """
    n = g.n
    by_rank = np.argsort(np.diff(g.indptr), kind="stable")
    rank = np.empty(n, dtype=g.indices.dtype)
    rank[by_rank] = np.arange(n, dtype=rank.dtype)
    u, v = _edge_ends(g)
    u = rank.take(u)
    v = rank.take(v)
    low = np.minimum(u, v)
    size = np.bincount(low, minlength=n)
    keys = np.multiply(low, n, dtype=_key_dtype(n))
    keys += np.maximum(u, v, out=u)
    keys.sort()
    return by_rank, keys, size


def _forward_triangles(g: Graph) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every triangle once, as chunks of vertex-id arrays (a, b, c).

    Each edge points from its lower to its higher (degree, id) rank. A
    triangle is found exactly once: at its lowest-rank vertex a, as the pair
    (b, c) of a's out-neighbors that an oriented edge b -> c joins.

    A wedge (b, c) can close only if c lies within the rank range of b's
    sorted out-list. A liveness pass (_live_entries) keeps the lists with a
    wedge that can, and marks the b that head one: only kept lists build
    wedges, each is probed once, and the hash set holds only the marked
    b's keys, the only keys a probe can hit.

    The kept lists are taken one out-degree class at a time. The lists of
    a class of out-degree d are the columns of a (d x r) matrix, and its
    wedges are the row pairs i < j, about _WEDGE_CHUNK a step: whole lists
    when a list's C(d, 2) wedges fit, else one list a few first rows i at a
    time, so a step never holds more than max(_WEDGE_CHUNK, d - 1) wedges.
    A step's wedges are closed by membership in the set.
    """
    n = g.n
    by_rank, keys, size = _oriented_keys(g)
    # rank r's out-list is dst[start[r]:start[r] + size[r]], sorted, and
    # spans the ranks low[r] .. top[r]; an empty one has low = top = n,
    # which no rank in [0, n) reaches; the keys are rebuilt once probed
    start = np.cumsum(size) - size
    dst = keys if keys.dtype == g.indices.dtype else np.empty(len(keys), dtype=g.indices.dtype)
    np.remainder(keys, n, out=dst, casting="unsafe")
    del keys
    src = np.repeat(np.arange(n, dtype=dst.dtype), size)
    low = np.full(n, n, dtype=dst.dtype)
    top = np.full(n, n, dtype=dst.dtype)
    has = np.flatnonzero(size)
    low[has] = dst[start[has]]
    top[has] = dst[start[has] + size[has] - 1]
    del has
    kept, probed = _live_entries(src, dst, low, top)
    probed = np.repeat(probed, size)
    keys = np.multiply(src[probed], n, dtype=np.int64)
    keys += dst[probed]
    del src, probed, low, top
    edges = _HashSet(keys)
    del keys
    # the kept ranks of out-degree d are by_size[bounds[d - 1]:bounds[d]]
    by_size = np.flatnonzero(kept)
    by_size = by_size[np.argsort(size[by_size], kind="stable")]
    bounds = np.cumsum(np.bincount(size[by_size])).tolist()
    del kept, size
    for d in range(2, len(bounds)):
        rows = by_size[bounds[d - 1]:bounds[d]]
        if not len(rows):
            continue
        per = min(len(rows), max(1, _WEDGE_CHUNK // (d * (d - 1) // 2)))
        for first, last in _wedge_steps(d):
            # the row pairs (i, j), i < j, whose first row is in [first, last)
            i, j = np.triu_indices(last - first, 1, d - first)
            i += first
            j += first
            for k in range(0, len(rows), per):
                block = rows[k:k + per]
                # column t is the out-list of block[t]; wedge (p, t) is
                # (lists[i[p], t], lists[j[p], t]), at position p * r + t
                lists = dst[start[block] + np.arange(d)[:, None]].astype(np.int64)
                key = (lists * n)[i]
                key += lists[j]
                key = key.ravel()
                hit = np.flatnonzero(edges.contains(key))
                b, c = np.divmod(key[hit], n)
                yield by_rank[block[hit % len(block)]], by_rank[b], by_rank[c]


def _live_entries(src: np.ndarray, dst: np.ndarray, low: np.ndarray,
                  top: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Marks over the ranks: of the lists that may close a wedge, and of
    the entries b whose out-lists a probe may hit.

    Some wedge (b, c) of a list has c within b's range [low[b], top[b]]
    only if that range meets [c', the list's last entry], c' <= c being
    b's successor in the list: for entry p of the sorted (src, dst),
    dst[p + 1]. A list's last entry b heads no wedge and is never marked,
    as low[b] > b. The entries are taken _WEDGE_CHUNK a step, as int64.
    """
    kept = np.zeros(len(low), dtype=bool)
    probed = np.zeros(len(low), dtype=bool)
    for first in range(0, len(src) - 1, _WEDGE_CHUNK):
        last = min(first + _WEDGE_CHUNK, len(src) - 1)
        a, b = src[first:last].astype(np.int64), dst[first:last].astype(np.int64)
        live = low[b] <= top[a]
        live &= top[b] >= dst[first + 1:last + 1]
        live = np.flatnonzero(live)
        kept[a[live]] = True
        probed[b[live]] = True
    return kept, probed


def _wedge_steps(d: int) -> list[tuple[int, int]]:
    """Ranges [first, last) of the first rows i of the pairs i < j of an
    out-list of d entries, each holding at most _WEDGE_CHUNK pairs or one
    row's d - 1 - first: one range when all C(d, 2) pairs fit."""
    cuts, pairs = [0], 0
    for i in range(d - 1):
        pairs += d - 1 - i
        if pairs > _WEDGE_CHUNK and i > cuts[-1]:
            cuts.append(i)
            pairs = d - 1 - i
    cuts.append(d - 1)
    return list(zip(cuts, cuts[1:]))


def enumerate_triangles(g: Graph) -> Iterator[Triangle]:
    """Yield each triangle exactly once as a sorted triple (a < b < c).

    Triples come in lexicographic order, which is also the canonical order
    of the edge (a, b) joining each triangle's two smallest vertices. The
    forward kernel finds them in another order, so all T triples are held
    and sorted before the first is yielded.
    """
    found = [np.column_stack(chunk) for chunk in _forward_triangles(g)]
    if not found:
        return
    tris = np.sort(np.concatenate(found), axis=1)
    tris = tris[np.lexsort(tris.T[::-1])]
    yield from map(tuple, tris.tolist())


def triangles_exact_cn(g: Graph) -> int:
    """Exact triangle count by degree-ordered forward counting.

    Each triangle is closed once, from its lowest-ranked vertex (see
    _forward_triangles); no division by 3 is involved.
    """
    return sum(len(a) for a, _, _ in _forward_triangles(g))


class EdgeProfile(NamedTuple):
    edge: Edge
    d_e: int
    t_e: int


def per_edge_triangles(g: Graph) -> list[EdgeProfile]:
    """Exact per-edge triangle participation counts, in canonical edge order."""
    counts: Counter[Edge] = Counter()
    for tri in enumerate_triangles(g):
        for e in triangle_edges(tri):
            counts[e] += 1
    deg = np.diff(g.indptr).tolist()
    return [EdgeProfile(e, min(deg[e[0]], deg[e[1]]), counts.get(e, 0)) for e in g.edges()]


class EdgeClassification(NamedTuple):
    """Heavy / costly flags at a given epsilon, for edges and triangles.

    heavy edge:  t_e > kappa / eps
    costly edge: t_e == 0, or d_e / t_e > m * kappa / (eps * T)
    heavy triangle:  all three edges heavy
    costly triangle: any edge costly
    """

    epsilon: float
    heavy_edges: frozenset[Edge]
    costly_edges: frozenset[Edge]
    heavy_triangles: tuple[Triangle, ...]
    costly_triangles: tuple[Triangle, ...]


def classify_edges(g: Graph, epsilon: float, t_total: int, kappa: int) -> EdgeClassification:
    # epsilon beyond 1 is allowed: the saturation checks classify at 4x the
    # run epsilon, which can exceed 1 at desk scale; the cutoffs stay
    # well-defined, they just shrink
    if t_total <= 0:
        raise InputError("classification needs a positive triangle count")
    if epsilon <= 0:
        raise InputError(f"epsilon must be positive, got {epsilon}")
    heavy_cut = kappa / epsilon
    costly_cut = g.m * kappa / (epsilon * t_total)
    heavy: set[Edge] = set()
    costly: set[Edge] = set()
    for p in per_edge_triangles(g):
        if p.t_e > heavy_cut:
            heavy.add(p.edge)
        if p.t_e == 0 or p.d_e / p.t_e > costly_cut:
            costly.add(p.edge)
    heavy_tris: list[Triangle] = []
    costly_tris: list[Triangle] = []
    for tri in enumerate_triangles(g):
        edges = triangle_edges(tri)
        if all(e in heavy for e in edges):
            heavy_tris.append(tri)
        if any(e in costly for e in edges):
            costly_tris.append(tri)
    return EdgeClassification(
        epsilon=epsilon,
        heavy_edges=frozenset(heavy),
        costly_edges=frozenset(costly),
        heavy_triangles=tuple(heavy_tris),
        costly_triangles=tuple(costly_tris),
    )
