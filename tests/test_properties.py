"""Property-based checks of the oracle invariants and the sampling/
assignment contracts, over randomly generated small graphs."""

import hypothesis.strategies as st
from hypothesis import assume, given, settings

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
