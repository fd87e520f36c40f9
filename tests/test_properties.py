"""Property-based checks of the oracle invariants and the sampling/
assignment contracts, over randomly generated small graphs."""

from unittest import mock

import hypothesis.strategies as st
import numpy as np
from hypothesis import assume, given, settings

from triad import sampling
from triad.assignment import AssignmentTable, EdgeEstimate, INFINITY, is_assigned
from triad.estimator import EstimatorConfig, _drive, _Repetition
from triad.graph import (
    degeneracy,
    per_edge_triangles,
    sum_edge_degrees,
    triangle_edges,
    triangles_exact_cn,
    triangles_exact_naive,
)
from triad.sampling import ClosureChecker, DegreeCounter, EdgePicker, IncidentPicker, run_pass
from triad.stream import EdgeStream

from conftest import brute_degeneracy, brute_triangle_count, small_graphs


@given(small_graphs())
@settings(max_examples=120)
def test_two_triangle_oracles_agree(g):
    assert triangles_exact_naive(g) == triangles_exact_cn(g)


@given(small_graphs())
@settings(max_examples=120)
def test_cn_matches_third_brute_count(g):
    assert triangles_exact_cn(g) == brute_triangle_count(g)


@given(small_graphs())
@settings(max_examples=120)
def test_edge_incidences_sum_to_three_t(g):
    assert sum(p.t_e for p in per_edge_triangles(g)) == 3 * triangles_exact_cn(g)


@given(small_graphs())
@settings(max_examples=120)
def test_edge_degree_sum_bounded_by_twice_m_kappa(g):
    assert sum_edge_degrees(g) <= 2 * g.m * degeneracy(g)


@given(small_graphs())
@settings(max_examples=120)
def test_triangle_count_bounded_by_twice_m_kappa(g):
    assert triangles_exact_cn(g) <= 2 * g.m * degeneracy(g)


@given(small_graphs())
@settings(max_examples=120)
def test_per_edge_count_never_exceeds_edge_degree(g):
    for p in per_edge_triangles(g):
        assert p.t_e <= p.d_e


@given(small_graphs(max_n=7))
@settings(max_examples=60, deadline=None)
def test_peeling_degeneracy_matches_subset_brute_force(g):
    assert degeneracy(g) == brute_degeneracy(g)


@given(small_graphs(min_n=3), st.integers(0, 2**20))
@settings(max_examples=60)
def test_stream_passes_are_identical_permutations(g, seed):
    edges = g.edge_list()
    if not edges:
        return
    s = EdgeStream.from_edges(edges, order_seed=seed)
    first = list(s.edges())
    assert sorted(first) == sorted(edges)
    assert list(s.edges()) == first
    assert s.pass_counter == 2


@given(small_graphs(min_n=3), st.integers(0, 2**20), st.integers(0, 2**20))
@settings(max_examples=60, deadline=None)
def test_shared_passes_match_sequential_per_repetition(g, seed, order_seed):
    # no exact fallback, so even tiny graphs run the sampled stages
    assume(g.m > 0)
    cfg = EstimatorConfig(epsilon=0.2, t_hat=max(1, triangles_exact_cn(g)),
                          kappa_hat=max(1, degeneracy(g)), repetitions=3,
                          seed=seed, scale=0.01, exact_fallback=False)
    outcomes = []
    for shared in (False, True):
        stream = EdgeStream.from_edges(g.edge_list(), order_seed=order_seed)
        reps = [_Repetition(stream.stats(), cfg, rep=i) for i in range(cfg.repetitions)]
        _drive(stream, [reps] if shared else [[rep] for rep in reps])
        outcomes.append([(rep.x, rep.flags, rep.peak_items, rep.ell, list(rep.table.items()))
                         for rep in reps])
    assert outcomes[0] == outcomes[1]


@st.composite
def observer_cases(draw):
    """A small graph under distinct ids up to 2**63 - 1, a stream order, a
    block size, and queries: picked positions, incident positions, degree
    vertices and vertex pairs, some of them about absent vertices, and
    per-edge weights (zeros included) with positions on their axis."""
    g = draw(small_graphs(min_n=2))
    ids = draw(st.lists(st.integers(0, 2**63 - 1), min_size=g.n + 2, max_size=g.n + 2,
                        unique=True))
    edges = [(ids[u], ids[v]) for u, v in g.edge_list()]
    stream = EdgeStream.from_edges(edges, order_seed=draw(st.integers(0, 2**20)))
    order = list(stream.edges())  # the pass order every later pass repeats
    incident = {x: [] for x in ids}
    for u, v in order:
        incident[u].append(v)
        incident[v].append(u)
    vertex = st.sampled_from(ids)
    positions = draw(st.lists(st.integers(0, len(order) - 1), max_size=12)) if order else []
    with_edges = [x for x in ids if incident[x]]
    slots = draw(st.lists(
        st.sampled_from(with_edges).flatmap(
            lambda a: st.tuples(st.just(a), st.integers(0, len(incident[a]) - 1))),
        max_size=20)) if with_edges else []
    degree_vertices = draw(st.lists(vertex, max_size=10))
    pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1]),
                          max_size=15))
    block = draw(st.sampled_from([1, 2, 3, 7, 1 << 16]))
    weights = draw(st.lists(st.integers(0, 3), min_size=len(order), max_size=len(order)))
    axis = sum(weights)
    weighted = draw(st.lists(st.integers(0, axis - 1), max_size=12)) if axis else []
    return (stream, order, incident, positions, slots, degree_vertices, pairs, block,
            weights, weighted)


class WeightedRows:
    """Feeds a picker the i-th edge of the pass as the row (u, v, w),
    weighted by w = weights[i]."""

    def __init__(self, picker, weights):
        self.picker = picker
        self.weights = np.array(weights, dtype=np.int64)
        self.seen = 0

    def observe_block(self, u, v):
        w = self.weights[self.seen:self.seen + len(u)]
        self.seen += len(u)
        self.picker.observe_rows((u, v, w), w)


@given(observer_cases())
@settings(max_examples=150, deadline=None)
def test_block_observers_match_brute_force(case):
    (stream, order, incident, positions, slots, degree_vertices, pairs, block,
     weights, weighted) = case
    picker = EdgePicker(positions)
    neighbors = IncidentPicker([a for a, _ in slots], [j for _, j in slots])
    counter = DegreeCounter(degree_vertices)
    closure = ClosureChecker([a for a, _ in pairs], [b for _, b in pairs])
    weighted_picker = EdgePicker(weighted)
    with mock.patch.object(sampling, "BLOCK_EDGES", block):
        run_pass(stream, [picker, neighbors, counter, closure,
                          WeightedRows(weighted_picker, weights)])
    assert [tuple(e) for e in picker.samples().tolist()] == [order[p] for p in positions]
    assert neighbors.results().tolist() == [incident[a][j] for a, j in slots]
    assert counter.degrees() == {x: len(incident[x]) for x in degree_vertices}
    edge_set = set(order)
    assert closure.present().tolist() == [(min(p), max(p)) in edge_set for p in pairs]
    # brute force: row (u, v, w) repeated w times, indexed by position
    rows = [(u, v, w) for (u, v), w in zip(order, weights) for _ in range(w)]
    assert weighted_picker.total == len(rows)
    assert [tuple(r) for r in weighted_picker.samples().tolist()] == [rows[p] for p in weighted]


@given(
    st.lists(
        st.tuples(st.integers(0, 2),  # which edge of the triangle to ask about
                  st.tuples(st.floats(0, 8), st.floats(0, 8), st.floats(0, 8))),
        min_size=1, max_size=12,
    ),
    st.floats(0.05, 0.45),
    st.integers(1, 4),
)
@settings(max_examples=150)
def test_unique_assignment_under_arbitrary_call_sequences(calls, eps, kappa_hat):
    # one shared table, arbitrary interleavings of queries about the same
    # triangle: at most one edge may ever collect a YES
    tri = (0, 1, 2)
    edges = triangle_edges(tri)
    table = AssignmentTable()
    yes_edges = set()
    for which, ys in calls:
        est = {e: EdgeEstimate(e, 2, y) for e, y in zip(edges, ys)}
        if is_assigned(tri, edges[which], est, eps, kappa_hat, table):
            yes_edges.add(edges[which])
    assert len(yes_edges) <= 1


@given(st.integers(3, 40), st.integers(0, 2**16))
@settings(max_examples=40)
def test_infinite_estimates_never_assign(n_unused, seed_unused):
    tri = (0, 1, 2)
    edges = triangle_edges(tri)
    est = {e: EdgeEstimate(e, 3, INFINITY) for e in edges}
    table = AssignmentTable()
    assert not any(is_assigned(tri, e, est, 0.25, 2, table) for e in edges)
