"""Assignment rule: cutoffs, sample sizes, tie-breaks, and deterministic
saturation."""

import math

import pytest

from triad.assignment import (
    INFINITY,
    assign_rows,
    compute_s,
    degree_cutoff,
    load_cutoff,
)
from triad.errors import ConfigError
from triad.generators import gen_book
from triad.graph import per_edge_triangles, triangle_edges

from conftest import charged_edges, k_complete, saturated_rows


def charged_edge(ys, epsilon, kappa_hat):
    """The edge of triangle (0, 1, 2) that `assign_rows` charges, given its
    edges' estimates in canonical order, or None."""
    [edge] = charged_edges([(0, 1, 2)], assign_rows([ys], epsilon, kappa_hat))
    return edge


class TestComputeS:
    def test_frozen_arithmetic(self):
        # ceil(61 * log2(1001) / 0.04 * 1997 * 2 / 998), recomputed exactly
        expected = math.ceil(61 * math.log2(1001) / 0.04 * 1997 * 2 / 998)
        assert expected == 60831
        assert compute_s(1001, 1997, 0.2, 998, 2) == 60831

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
        assert charged_edge([INFINITY, INFINITY, INFINITY], 0.5, 2) is None

    def test_k4_saturated_ties_break_canonically(self):
        # every edge participates in exactly 2 triangles; with exact
        # estimates and cutoff 3/(2*0.5)=3 the canonical minimum edge wins
        g = k_complete(4)
        triangles, y = saturated_rows(g, 0.5, t_hat=4, kappa_hat=3)
        assert (y == 2.0).all()
        won = dict(zip(triangles, charged_edges(triangles, assign_rows(y, 0.5, 3))))
        assert won[(0, 1, 2)] == (0, 1)
        assert won[(1, 2, 3)] == (1, 2)

    def test_load_cutoff_rejects(self):
        # 10 > 2/(2*0.5) = 2
        assert charged_edge([10.0, 11.0, 12.0], 0.5, 2) is None


class TestIsAssigned:
    def test_unassigned_triangle_no_for_all_edges(self):
        for e in triangle_edges((0, 1, 2)):
            assert charged_edge([INFINITY, INFINITY, INFINITY], 0.5, 2) != e

    def test_yes_for_winner_no_for_others(self):
        assert charged_edge([2.0, 1.0, 2.0], 0.5, 2) == (0, 2)
        assert charged_edge([2.0, 1.0, 2.0], 0.5, 2) != (0, 1)
        assert charged_edge([2.0, 1.0, 2.0], 0.5, 2) != (1, 2)

    def test_k3_saturated(self):
        g = k_complete(3)
        triangles, y = saturated_rows(g, 0.5, t_hat=1, kappa_hat=2)
        # every edge has exactly one triangle; cutoff 2/(2*0.5) = 2 passes
        assert charged_edges(triangles, assign_rows(y, 0.5, 2)) == [(0, 1)]


class TestCutoffs:
    def test_degree_cutoff_value(self):
        assert degree_cutoff(6, 0.5, 4, 3) == 6 * 9 / (0.25 * 4)

    def test_load_cutoff_value(self):
        assert load_cutoff(0.5, 3) == 3.0

    def test_saturated_estimates_threshold_spine(self):
        # book spine degree exceeds m * k^2 / (eps^2 T) for these settings:
        # cutoff = 601 * 4 / (0.04 * 300) ~ 200.3, spine degree 301
        g, truth = gen_book(300)
        triangles, y = saturated_rows(g, 0.2, t_hat=truth.triangles, kappa_hat=truth.kappa)
        cut = degree_cutoff(g.m, 0.2, truth.triangles, truth.kappa)
        d_e = {p.edge: p.d_e for p in per_edge_triangles(g)}
        assert d_e[(0, 1)] == 301
        assert 301 > cut
        # triangle (0, 1, 2)'s row: the spine (0, 1), then page edges (0, 2), (1, 2)
        assert triangles[0] == (0, 1, 2)
        assert y[0, 0] == INFINITY
        # page edges stay estimable
        assert y[0, 1] == 1.0


class TestSaturatedBehavior:
    def test_book_triangles_go_to_page_edges(self):
        g, truth = gen_book(30)
        triangles, y = saturated_rows(g, 0.5, t_hat=truth.triangles, kappa_hat=truth.kappa)
        for winner in charged_edges(triangles, assign_rows(y, 0.5, truth.kappa)):
            assert winner is not None
            assert winner != (0, 1)  # the heavy spine never wins

    def test_per_edge_load_stays_under_cutoff(self):
        g, truth = gen_book(30)
        triangles, y = saturated_rows(g, 0.5, t_hat=truth.triangles, kappa_hat=truth.kappa)
        loads = {}
        for winner in charged_edges(triangles, assign_rows(y, 0.5, truth.kappa)):
            if winner is not None:
                loads[winner] = loads.get(winner, 0) + 1
        t_e = {p.edge: p.t_e for p in per_edge_triangles(g)}
        for e, load in loads.items():
            assert t_e[e] <= load_cutoff(0.5, truth.kappa)
            assert load <= truth.kappa / 0.5
