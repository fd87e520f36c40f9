"""Assignment rule: cutoffs, memoization, and deterministic saturation."""

import math

import pytest

from triad.assignment import (
    INFINITY,
    AssignmentTable,
    EdgeEstimate,
    assign_triangle,
    compute_s,
    degree_cutoff,
    load_cutoff,
    saturated_estimates,
)
from triad.errors import ConfigError, InputError, SchedulingError
from triad.generators import gen_book
from triad.graph import enumerate_triangles, per_edge_triangles, triangle_edges

from conftest import k_complete


def estimates_for(tri, ys, ds=None):
    edges = triangle_edges(tri)
    ds = ds or [2, 2, 2]
    return {e: EdgeEstimate(e, d, y) for e, d, y in zip(edges, ds, ys)}


class TestComputeS:
    def test_frozen_arithmetic(self):
        # ceil(61 * log2(1001) / 0.04 * 1997 * 2 / 998), recomputed exactly
        expected = math.ceil(61 * math.log2(1001) / 0.04 * 1997 * 2 / 998)
        assert expected == 60831
        assert compute_s(1001, 1997, 0.2, 998, 2, c_s=61) == 60831

    def test_t_hat_scaling(self):
        base = compute_s(1001, 1997, 0.2, 998, 2)
        quartered = compute_s(1001, 1997, 0.2, 4 * 998, 2)
        assert abs(4 * quartered - base) <= 4  # ceil slack only

    def test_epsilon_scaling(self):
        base = compute_s(1001, 1997, 0.1, 998, 2)
        doubled_eps = compute_s(1001, 1997, 0.2, 998, 2)
        assert abs(4 * doubled_eps - base) <= 4

    def test_rejects_bad_t_hat(self):
        with pytest.raises(ConfigError):
            compute_s(100, 100, 0.2, 0, 2)

    @pytest.mark.parametrize("epsilon", [0, -0.2])
    def test_rejects_nonpositive_epsilon(self, epsilon):
        with pytest.raises(ConfigError) as exc:
            compute_s(100, 100, epsilon, 1, 2)
        assert (exc.type, str(exc.value)) == (ConfigError,
                                              f"epsilon must be positive, got {epsilon}")


class TestAssignTriangle:
    def test_all_thresholded_is_unassigned(self):
        table = AssignmentTable()
        est = estimates_for((0, 1, 2), [INFINITY, INFINITY, INFINITY])
        assert assign_triangle((0, 1, 2), est, 0.5, 2, table) is None

    def test_k4_saturated_ties_break_canonically(self):
        # every edge participates in exactly 2 triangles; with exact
        # estimates and cutoff 3/(2*0.5)=3 the canonical minimum edge wins
        g = k_complete(4)
        est = saturated_estimates(g, 0.5, t_hat=4, kappa_hat=3)
        assert all(e.y == 2.0 for e in est.values())
        table = AssignmentTable()
        assert assign_triangle((0, 1, 2), est, 0.5, 3, table) == (0, 1)
        assert assign_triangle((1, 2, 3), est, 0.5, 3, table) == (1, 2)

    def test_memo_short_circuits_and_needs_no_estimates(self):
        table = AssignmentTable()
        est = estimates_for((0, 1, 2), [1.0, 2.0, 3.0])
        first = assign_triangle((0, 1, 2), est, 0.5, 2, table)
        assert first == (0, 1)
        # deliberately contradictory estimates: the memo must win untouched
        poisoned = estimates_for((0, 1, 2), [INFINITY, INFINITY, INFINITY])
        assert assign_triangle((0, 1, 2), poisoned, 0.5, 2, table) == (0, 1)
        assert len(table) == 1

    def test_load_cutoff_rejects(self):
        table = AssignmentTable()
        est = estimates_for((0, 1, 2), [10.0, 11.0, 12.0])
        # 10 > 2/(2*0.5) = 2
        assert assign_triangle((0, 1, 2), est, 0.5, 2, table) is None

    def test_missing_estimate_is_scheduling_error(self):
        table = AssignmentTable()
        est = estimates_for((0, 1, 2), [1.0, 1.0, 1.0])
        del est[(0, 1)]
        with pytest.raises(SchedulingError):
            assign_triangle((0, 1, 2), est, 0.5, 2, table)

    def test_table_rejects_contradictory_rewrites(self):
        table = AssignmentTable()
        table.record((0, 1, 2), (0, 1))
        table.record((0, 1, 2), (0, 1))  # idempotent rewrite is fine
        with pytest.raises(SchedulingError):
            table.record((0, 1, 2), (1, 2))


class TestIsAssigned:
    def test_unassigned_triangle_no_for_all_edges(self):
        table = AssignmentTable()
        est = estimates_for((0, 1, 2), [INFINITY, INFINITY, INFINITY])
        for e in triangle_edges((0, 1, 2)):
            assert assign_triangle((0, 1, 2), est, 0.5, 2, table) != e

    def test_yes_for_winner_no_for_others(self):
        table = AssignmentTable()
        est = estimates_for((0, 1, 2), [2.0, 1.0, 2.0])
        assert assign_triangle((0, 1, 2), est, 0.5, 2, table) == (0, 2)
        assert assign_triangle((0, 1, 2), est, 0.5, 2, table) != (0, 1)
        assert assign_triangle((0, 1, 2), est, 0.5, 2, table) != (1, 2)

    def test_k3_saturated(self):
        g = k_complete(3)
        est = saturated_estimates(g, 0.5, t_hat=1, kappa_hat=2)
        table = AssignmentTable()
        # every edge has exactly one triangle; cutoff 2/(2*0.5) = 2 passes
        assert assign_triangle((0, 1, 2), est, 0.5, 2, table) == (0, 1)

    def test_edge_outside_triangle_rejected(self):
        # the table takes only one of the triangle's own edges, or None
        table = AssignmentTable()
        with pytest.raises(InputError):
            table.record((0, 1, 2), (0, 5))


class TestCutoffs:
    def test_degree_cutoff_value(self):
        assert degree_cutoff(6, 0.5, 4, 3) == 6 * 9 / (0.25 * 4)

    def test_load_cutoff_value(self):
        assert load_cutoff(0.5, 3) == 3.0

    def test_saturated_estimates_threshold_spine(self):
        # book spine degree exceeds m * k^2 / (eps^2 T) for these settings:
        # cutoff = 601 * 4 / (0.04 * 300) ~ 200.3, spine degree 301
        g, truth = gen_book(300)
        est = saturated_estimates(g, 0.2, t_hat=truth.triangles, kappa_hat=truth.kappa)
        cut = degree_cutoff(g.m, 0.2, truth.triangles, truth.kappa)
        assert est[(0, 1)].d_e == 301
        assert 301 > cut
        assert est[(0, 1)].y == INFINITY
        # page edges stay estimable
        assert est[(0, 2)].y == 1.0


class TestSaturatedBehavior:
    def test_book_triangles_go_to_page_edges(self):
        g, truth = gen_book(30)
        est = saturated_estimates(g, 0.5, t_hat=truth.triangles, kappa_hat=truth.kappa)
        table = AssignmentTable()
        for tri in enumerate_triangles(g):
            winner = assign_triangle(tri, est, 0.5, truth.kappa, table)
            assert winner is not None
            assert winner != (0, 1)  # the heavy spine never wins

    def test_per_edge_load_stays_under_cutoff(self):
        g, truth = gen_book(30)
        est = saturated_estimates(g, 0.5, t_hat=truth.triangles, kappa_hat=truth.kappa)
        table = AssignmentTable()
        loads = {}
        for tri in enumerate_triangles(g):
            winner = assign_triangle(tri, est, 0.5, truth.kappa, table)
            if winner is not None:
                loads[winner] = loads.get(winner, 0) + 1
        t_e = {p.edge: p.t_e for p in per_edge_triangles(g)}
        for e, load in loads.items():
            assert t_e[e] <= load_cutoff(0.5, truth.kappa)
            assert load <= truth.kappa / 0.5
