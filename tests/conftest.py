"""Shared fixtures, strategies, and independent miniature oracles."""

from __future__ import annotations

import heapq
import os
from bisect import bisect_right
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import hypothesis.strategies as st
import pytest

from triad.graph import Graph, canonical_edge, pick_anchor, sum_edge_degrees
from triad.sampling import ROLE_WEIGHTED_SAMPLE, substream

# child processes run `python -m triad` from this checkout, installed or not
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]))


def k_complete(k: int) -> Graph:
    return Graph(k, list(combinations(range(k), 2)))


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_bipartite(p: int, q: int) -> Graph:
    return Graph(p + q, [(i, p + j) for i in range(p) for j in range(q)])


def wheel_by_hand(n: int) -> Graph:
    """Hub 0 plus an (n-1)-cycle, built directly for cross-checks."""
    edges = [(0, i) for i in range(1, n)]
    edges += [(i, i + 1) for i in range(1, n - 1)]
    edges.append((1, n - 1))
    return Graph(n, edges)


def read_pass(stream) -> list[tuple[int, int]]:
    """One full pass of a stream, read edge by edge through the protocol."""
    stream.begin_pass()
    edges = []
    while (edge := stream.next_edge()) is not None:
        edges.append(edge)
    stream.end_pass()
    return edges


def brute_degeneracy(g: Graph) -> int:
    """Max over all vertex subsets of the induced minimum degree.

    Exponential; only usable for n <= 8.
    """
    assert g.n <= 8
    best = 0
    for size in range(1, g.n + 1):
        for sub in combinations(range(g.n), size):
            ss = set(sub)
            mind = min(sum(1 for w in g.neighbors(v) if w in ss) for v in sub)
            if mind > best:
                best = mind
    return best


def brute_triangle_count(g: Graph) -> int:
    count = 0
    for a, b, c in combinations(range(g.n), 3):
        if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c):
            count += 1
    return count


def heap_degeneracy(g: Graph) -> int:
    """Degeneracy by one-at-a-time min-degree peeling with a lazy heap.

    The largest degree seen at removal time; O(m log n). Reference for the
    batched peel in triad.graph.
    """
    deg = [g.degree(v) for v in range(g.n)]
    heap = [(d, v) for v, d in enumerate(deg)]
    heapq.heapify(heap)
    removed = [False] * g.n
    best = 0
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != deg[v]:
            continue
        removed[v] = True
        if d > best:
            best = d
        for w in g.neighbors(v):
            if not removed[w]:
                deg[w] -= 1
                heapq.heappush(heap, (deg[w], w))
    return best


def bisect_triangles(g: Graph):
    """Each triangle once as a sorted triple, by per-edge intersection.

    For every canonical edge (u, v) in sorted order, walk the anchor's
    neighbors w > v and keep those adjacent to the other endpoint; each
    edge costs min(d_u, d_v). Reference for the forward count in
    triad.graph.
    """
    nbrs = [g.neighbors(v) for v in range(g.n)]
    nbr_sets = [frozenset(ns) for ns in nbrs]
    for u, v in g.edges():
        a = pick_anchor(u, v, len(nbrs[u]), len(nbrs[v]))
        other = v if a == u else u
        anchor_nbrs = nbrs[a]
        for w in anchor_nbrs[bisect_right(anchor_nbrs, v):]:
            if w in nbr_sets[other]:
                yield (u, v, w)


def loop_edge_degrees(g: Graph) -> int:
    """d_E as a Python sum over the edges; reference for sum_edge_degrees."""
    return sum(min(g.degree(u), g.degree(v)) for u, v in g.edges())


def lowest_degree_edge(g: Graph, tri) -> tuple[int, int]:
    """The oracle-mode charging rule, restated: min (d_e, canonical edge)."""
    a, b, c = sorted(tri)
    candidates = []
    for e in ((a, b), (a, c), (b, c)):
        candidates.append((min(g.degree(e[0]), g.degree(e[1])), e))
    return min(candidates)[1]


def ideal_drawn_edges(g: Graph, count: int, seed: int) -> int:
    """How many distinct edges `count` ideal-mode instances draw from a
    stream of `g.edge_list()`: instance i takes the edge that spans its
    position on the d_e axis, replayed from the run's own generator."""
    ends, total = [], 0
    for u, v in g.edge_list():
        total += min(g.degree(u), g.degree(v))
        ends.append(total)
    positions = substream(seed, ROLE_WEIGHTED_SAMPLE).integers(total, size=count)
    return len({bisect_right(ends, p) for p in positions.tolist()})


def exact_expected_x(g: Graph) -> Fraction:
    """E[X] of the oracle-mode estimator by full outcome enumeration.

    Pick e with probability d_e/d_E, then w uniform over the anchor's
    neighborhood; score d_E when the wedge closes into a triangle charged
    to e. Exact rational arithmetic, independent of the sampled code path.
    """
    d_e_total = sum_edge_degrees(g)
    total = Fraction(0)
    for u, v in g.edges():
        d_u, d_v = g.degree(u), g.degree(v)
        d_e = min(d_u, d_v)
        anchor = pick_anchor(u, v, d_u, d_v)
        other = v if anchor == u else u
        pr_edge = Fraction(d_e, d_e_total)
        for w in g.neighbors(anchor):
            if w == other or not g.has_edge(other, w):
                continue
            if lowest_degree_edge(g, (u, v, w)) == canonical_edge(u, v):
                total += pr_edge * Fraction(1, d_e) * d_e_total
    return total


@st.composite
def small_graphs(draw, max_n: int = 14, min_n: int = 2):
    n = draw(st.integers(min_n, max_n))
    possible = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(possible), unique=True,
                          max_size=len(possible)))
    return Graph(n, edges)


@pytest.fixture
def k3() -> Graph:
    return k_complete(3)


@pytest.fixture
def k4() -> Graph:
    return k_complete(4)
