"""Six-pass estimator: parameter formulas, pass budgets, degradation
paths, and the conditional expectation identity on a forced sample."""

import math
import tracemalloc
import weakref
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from triad import estimator
from triad.assignment import AssignmentTable, assign_triangle, saturated_estimates
from triad.errors import ConfigError, InputError
from triad.estimator import (
    EstimatorConfig,
    compute_ell,
    compute_r,
    _Repetition,
    _drive,
    estimate,
)
from triad.graph import (
    canonical_edge, degeneracy, enumerate_triangles, pick_anchor, triangle_edges,
    triangles_exact_cn)
from triad.generators import (
    gen_book,
    gen_erdos_renyi,
    gen_lb_instance,
    gen_preferential_attachment,
    gen_wheel,
    lb_spec,
)
from triad.sampling import run_pass
from triad.stream import EdgeStream

from conftest import k_complete, path_graph


def stream_for(g, order_seed=None):
    return EdgeStream.from_edges(g.edge_list(), order_seed=order_seed)


class ForcedSample(_Repetition):
    """A repetition whose R is the given edges: stage 0 takes no pass, and
    the r >= m exact-fallback shortcut is off."""

    def __init__(self, stats, config, edges):
        super().__init__(stats, config, rep=0, base_flags=config.validate())
        self.forced = np.array([canonical_edge(u, v) for u, v in edges],
                               dtype=np.int64).reshape(-1, 2)
        self._fallback_next = False

    def _begin_0(self):
        return []

    def _end_0(self):
        self.sample = self.forced
        self.r = len(self.sample)


class TestComputeR:
    def test_frozen_arithmetic_and_cap(self):
        # ceil(7 * log2(1001) / 0.04 * (2000 * 15) / (0.6 * 1000)) recomputed
        expected = math.ceil(7 * math.log2(1001) / 0.04 * (2000 * 15) / (0.6 * 1000))
        assert expected == 87214
        assert compute_r(1001, 2000, 0.2, 1000, 3, c_r=7, cap=False) == 87214
        assert compute_r(1001, 2000, 0.2, 1000, 3, c_r=7) == 2000  # capped at m

    def test_t_hat_scaling(self):
        base = compute_r(1001, 2000, 0.2, 1000, 3, cap=False)
        tenfold = compute_r(1001, 2000, 0.2, 10_000, 3, cap=False)
        assert abs(10 * tenfold - base) <= 10

    def test_epsilon_halving_is_roughly_eightfold(self):
        # 1/eps^3 dependence; the assigned-fraction factor drifts slightly
        base = compute_r(1001, 2000, 0.02, 1000, 3, cap=False)
        halved = compute_r(1001, 2000, 0.01, 1000, 3, cap=False)
        assert 7.5 <= halved / base <= 8.5

    def test_rejects_bad_t_hat(self):
        with pytest.raises(ConfigError):
            compute_r(10, 10, 0.2, 0, 1)

    @pytest.mark.parametrize("epsilon", [0, -0.1, 0.5, 0.7])
    def test_rejects_epsilon_outside_the_analysis(self, epsilon):
        with pytest.raises(ConfigError) as exc:
            compute_r(10, 10, epsilon, 1, 1)
        assert (exc.type, str(exc.value)) == (
            ConfigError, f"epsilon must lie in (0, 0.5), got {epsilon}")


class TestComputeEll:
    def test_frozen_arithmetic(self):
        expected = math.ceil(21 * math.log2(1001) / 0.04 * (2000 * 1500) / (500 * 0.6 * 1000))
        assert expected == 52328
        assert compute_ell(1001, 2000, 0.2, 1000, r=500, d_r=1500, c_ell=21) == 52328

    def test_doubling_d_r_doubles_ell(self):
        a = compute_ell(1001, 2000, 0.2, 1000, r=500, d_r=1500)
        b = compute_ell(1001, 2000, 0.2, 1000, r=500, d_r=3000)
        assert abs(b - 2 * a) <= 2

    def test_doubling_r_halves_ell(self):
        a = compute_ell(1001, 2000, 0.2, 1000, r=500, d_r=1500)
        b = compute_ell(1001, 2000, 0.2, 1000, r=1000, d_r=1500)
        assert abs(2 * b - a) <= 2

    def test_rejects_nonpositive_d_r(self):
        with pytest.raises(InputError):
            compute_ell(10, 10, 0.2, 1, r=5, d_r=0)

    @pytest.mark.parametrize("epsilon", [0, -0.1, 0.5, 0.7])
    def test_rejects_epsilon_outside_the_analysis(self, epsilon):
        with pytest.raises(ConfigError) as exc:
            compute_ell(10, 10, epsilon, 1, r=5, d_r=10)
        assert (exc.type, str(exc.value)) == (
            ConfigError, f"epsilon must lie in (0, 0.5), got {epsilon}")


class TestConfigValidation:
    def good(self):
        return EstimatorConfig(epsilon=0.2, t_hat=10, kappa_hat=2)

    def test_good_config_passes_with_flags(self):
        flags = self.good().validate()
        assert "epsilon-above-analysis" in flags  # 0.2 >= 1/6

    def test_small_epsilon_is_unflagged(self):
        cfg = replace(self.good(), epsilon=0.05)
        assert cfg.validate() == []

    @pytest.mark.parametrize("field,value", [
        ("epsilon", 0.0), ("epsilon", 0.5), ("epsilon", -0.1),
        ("t_hat", 0), ("kappa_hat", 0),
        ("c_r", 6.0), ("c_ell", 20.0), ("c_s", 60.0),
        ("repetitions", 0), ("repetitions", 2),
        ("scale", 0.0), ("scale", 1.5),
        ("seed", -1), ("abort_multiplier", 1.0),
        # NaN compares false with every bound; an infinite constant makes no
        # sample size
        ("c_r", math.nan), ("c_ell", math.nan), ("c_s", math.nan), ("c_r", math.inf),
        ("abort_multiplier", math.nan), ("abort_multiplier", math.inf),
        ("epsilon", math.nan), ("scale", math.nan),
    ])
    def test_rejected_values(self, field, value):
        with pytest.raises(ConfigError):
            replace(self.good(), **{field: value}).validate()


class TestEstimateOnce:
    def test_triangle_free_always_zero(self):
        g = path_graph(40)
        for seed in range(6):
            cfg = EstimatorConfig(epsilon=0.2, t_hat=5, kappa_hat=1,
                                  seed=seed, scale=0.05, exact_fallback=False)
            x, report = estimate(stream_for(g), cfg)
            assert x == 0.0
            assert report.passes == 6

    def test_six_passes_after_stats(self):
        g, truth = gen_book(400)
        s = stream_for(g)
        s.stats()
        before = s.pass_counter
        cfg = EstimatorConfig(epsilon=0.2, t_hat=truth.triangles, kappa_hat=2,
                              seed=1, scale=0.004)
        _, report = estimate(s, cfg)
        assert s.pass_counter - before == 6
        assert report.passes == 6

    def test_estimate_support(self):
        # X is 0 or sits in [(m/r) d_R / ell, (m/r) d_R], a rational with
        # denominator ell
        g, truth = gen_book(400)
        for seed in range(8):
            cfg = EstimatorConfig(epsilon=0.2, t_hat=truth.triangles, kappa_hat=2,
                                  seed=seed, scale=0.004)
            s = stream_for(g, order_seed=seed)
            rep = _Repetition(s.stats(), cfg, rep=0, base_flags=cfg.validate())
            _drive(s, [[rep]])
            if "exact-fallback" in rep.flags:
                continue
            unit = (g.m / rep.r) * rep.d_r / rep.ell
            if rep.x == 0.0:
                continue
            assert unit - 1e-9 <= rep.x <= rep.ell * unit + 1e-9
            score = rep.x / unit
            assert abs(score - round(score)) < 1e-6

    def test_exact_fallback_on_tiny_graph(self):
        g = k_complete(4)
        cfg = EstimatorConfig(epsilon=0.2, t_hat=1, kappa_hat=3, seed=0)
        x, report = estimate(stream_for(g), cfg)
        assert "exact-fallback" in report.flags
        assert x == 4.0  # exact count, not an estimate
        assert report.passes == 1  # one collection pass

    def test_empty_stream_rejected(self):
        cfg = EstimatorConfig(epsilon=0.2, t_hat=1, kappa_hat=1)
        with pytest.raises(InputError):
            estimate(EdgeStream.from_edges([]), cfg)

    def test_report_json_keys_are_frozen(self):
        g, truth = gen_book(50)
        cfg = EstimatorConfig(epsilon=0.2, t_hat=truth.triangles, kappa_hat=2, seed=3)
        _, report = estimate(stream_for(g), cfg)
        assert list(report.to_json_dict().keys()) == [
            "estimate", "passes", "stored_edges_peak", "r", "ell", "s",
            "assignment_calls", "memo_size", "seed", "config",
        ]


def assert_mean_within_4se(xs, expected):
    """The sample mean of `xs` lies within 4 standard errors of `expected`."""
    mean = sum(xs) / len(xs)
    var = sum((x - mean) ** 2 for x in xs) / len(xs)
    se = (var / len(xs)) ** 0.5
    assert abs(mean - expected) <= 4 * max(se, 0.05)


# graphs whose forced samples are checked beside K4 and book(3): the lb NO
# gadget with one shared block, a PA graph and an ER graph
MORE_GRAPHS = {
    "lb-no": lambda: gen_lb_instance(lb_spec(3, 3, 9, "no", seed=0))[0],
    "pa": lambda: gen_preferential_attachment(30, 3, seed=2),
    "er": lambda: gen_erdos_renyi(25, 0.3, seed=4),
}


class TestForcedSampleIdentity:
    """With R forced to the whole edge set and saturated (deterministic)
    assignment, E[X] equals the total number of assigned triangles."""

    @staticmethod
    def expected_assigned_total(g, epsilon, t_hat, kappa_hat):
        est = saturated_estimates(g, epsilon, t_hat, kappa_hat)
        table = AssignmentTable()
        assigned = 0
        for tri in enumerate_triangles(g):
            if assign_triangle(tri, est, epsilon, kappa_hat, table) is not None:
                assigned += 1
        return assigned

    def exact_conditional_expectation(self, g, epsilon, t_hat, kappa_hat):
        """E[Y | R = E] for one draw, by Fraction enumeration."""
        est = saturated_estimates(g, epsilon, t_hat, kappa_hat)
        table = AssignmentTable()
        edges = g.edge_list()
        d_r = sum(min(g.degree(u), g.degree(v)) for u, v in edges)
        total = Fraction(0)
        for u, v in edges:
            d_u, d_v = g.degree(u), g.degree(v)
            d_e = min(d_u, d_v)
            anchor = pick_anchor(u, v, d_u, d_v)
            other = v if anchor == u else u
            for w in g.neighbors(anchor):
                if w == other or not g.has_edge(other, w):
                    continue
                tri = tuple(sorted((u, v, w)))
                if assign_triangle(tri, est, epsilon, kappa_hat, table) == (u, v):
                    total += Fraction(d_e, d_r) * Fraction(1, d_e)
        return total, d_r

    def test_k4_conditional_expectation_identity(self):
        g = k_complete(4)
        ey, d_r = self.exact_conditional_expectation(g, 0.25, 4, 3)
        assigned = self.expected_assigned_total(g, 0.25, 4, 3)
        assert assigned == 4
        assert ey == Fraction(assigned, d_r)
        # E[X] = (m/r) * d_R * E[Y] with r = m is exactly the assigned total
        assert ey * d_r == 4

    def test_k4_forced_sample_empirical_mean(self):
        g = k_complete(4)
        forced = g.edge_list()
        xs = []
        for seed in range(400):
            cfg = EstimatorConfig(epsilon=0.25, t_hat=4, kappa_hat=3, seed=seed,
                                  exact_fallback=False)
            s = stream_for(g)
            rep = ForcedSample(s.stats(), cfg, forced)
            _drive(s, [[rep]])
            assert rep.r == 6
            xs.append(rep.x)
        mean = sum(xs) / len(xs)
        var = sum((x - mean) ** 2 for x in xs) / len(xs)
        se = (var / len(xs)) ** 0.5
        assert abs(mean - 4.0) <= 4 * max(se, 0.05)

    def test_book3_conditional_expectation_identity(self):
        g, truth = gen_book(3)
        ey, d_r = self.exact_conditional_expectation(g, 0.25, truth.triangles, truth.kappa)
        assigned = self.expected_assigned_total(g, 0.25, truth.triangles, truth.kappa)
        assert ey == Fraction(assigned, d_r)

    @pytest.mark.parametrize("order", ["given", "reversed", "high-degree-first",
                                       "high-degree-last", "grouped-by-triangle"])
    def test_book3_forced_sample_empirical_mean_in_any_stream_order(self, order):
        # the guarantee holds for arbitrary-order streams: the order decides
        # which incident edge a position picks, never the law of the pick
        g, truth = gen_book(3)
        edges = g.edge_list()
        # by the sum of the end degrees: the spine (0, 1) is the one heaviest edge
        by_degree = sorted(edges, key=lambda e: g.degree(e[0]) + g.degree(e[1]))
        # each triangle's edges in a row, the spine with the first page
        grouped = list(dict.fromkeys(e for tri in enumerate_triangles(g)
                                     for e in triangle_edges(tri)))
        orders = {"given": edges, "reversed": edges[::-1],
                  "high-degree-first": by_degree[::-1], "high-degree-last": by_degree,
                  "grouped-by-triangle": grouped}
        assert len({tuple(o) for o in orders.values()}) == 5
        assert sorted(grouped) == edges
        assigned = self.expected_assigned_total(g, 0.25, truth.triangles, truth.kappa)
        xs = []
        for seed in range(200):
            # s = 1,058 still covers every neighborhood, so the estimates stay
            # saturated; the scale only shortens ell
            cfg = EstimatorConfig(epsilon=0.25, t_hat=truth.triangles, kappa_hat=truth.kappa,
                                  seed=seed, scale=0.1, exact_fallback=False)
            s = EdgeStream.from_edges(orders[order])
            rep = ForcedSample(s.stats(), cfg, edges)
            _drive(s, [[rep]])
            xs.append(rep.x)
        mean = sum(xs) / len(xs)
        var = sum((x - mean) ** 2 for x in xs) / len(xs)
        se = (var / len(xs)) ** 0.5
        assert abs(mean - assigned) <= 4 * max(se, 0.05)


    @pytest.mark.parametrize("name", sorted(MORE_GRAPHS))
    def test_conditional_expectation_identity_on_more_graphs(self, name):
        g = MORE_GRAPHS[name]()
        t, kappa = triangles_exact_cn(g), degeneracy(g)
        ey, d_r = self.exact_conditional_expectation(g, 0.25, t, kappa)
        assert ey * d_r == self.expected_assigned_total(g, 0.25, t, kappa)

    @pytest.mark.parametrize("name", sorted(MORE_GRAPHS))
    def test_forced_sample_empirical_mean_on_more_graphs(self, name):
        g = MORE_GRAPHS[name]()
        t, kappa = triangles_exact_cn(g), degeneracy(g)
        edges = g.edge_list()
        assigned = self.expected_assigned_total(g, 0.25, t, kappa)
        xs = []
        for seed in range(100):
            # s (332 to 690 here) covers every edge degree (at most 12), so
            # the estimates stay saturated; the scale only shortens ell
            cfg = EstimatorConfig(epsilon=0.25, t_hat=t, kappa_hat=kappa, seed=seed,
                                  scale=0.01, exact_fallback=False)
            s = stream_for(g)
            rep = ForcedSample(s.stats(), cfg, edges)
            _drive(s, [[rep]])
            assert rep.s >= max(min(g.degree(u), g.degree(v)) for u, v in edges)
            assert "exact-fallback" not in rep.flags and "space-abort" not in rep.flags
            xs.append(rep.x)
        assert_mean_within_4se(xs, assigned)


class TestUnforcedSampleMean:
    """E[X] equals the assigned total with R drawn by stage 0 too, in any
    stream order, while the estimates stay saturated."""

    @pytest.mark.parametrize("order", ["given", "reversed", "high-degree-first",
                                       "high-degree-last", "grouped-by-triangle"])
    @pytest.mark.parametrize("name", sorted(MORE_GRAPHS))
    def test_mean_in_any_stream_order(self, name, order):
        g = MORE_GRAPHS[name]()
        t, kappa = triangles_exact_cn(g), degeneracy(g)
        edges = g.edge_list()
        by_degree = sorted(edges, key=lambda e: -min(g.degree(e[0]), g.degree(e[1])))
        # each triangle's edges in a row, then the edges on no triangle
        grouped = list(dict.fromkeys([e for tri in enumerate_triangles(g)
                                      for e in triangle_edges(tri)] + edges))
        orders = {"given": edges, "reversed": edges[::-1], "high-degree-first": by_degree,
                  "high-degree-last": by_degree[::-1], "grouped-by-triangle": grouped}
        assert len({tuple(o) for o in orders.values()}) == 5
        assert sorted(grouped) == edges
        assigned = TestForcedSampleIdentity.expected_assigned_total(g, 0.25, t, kappa)
        xs = []
        for seed in range(200):
            # r < m, so R is a proper sample, and s still covers every edge
            # degree, so the estimates stay saturated
            cfg = EstimatorConfig(epsilon=0.25, t_hat=t, kappa_hat=kappa, seed=seed,
                                  scale=0.0005, exact_fallback=False)
            x, report = estimate(EdgeStream.from_edges(orders[order]), cfg)
            assert report.r < g.m
            assert report.s >= max(min(g.degree(u), g.degree(v)) for u, v in edges)
            assert "space-abort" not in report.flags
            xs.append(x)
        assert_mean_within_4se(xs, assigned)


class TestStorageAccounting:
    """Live items by role on K4 with R forced to E, counted in closed form."""

    def test_live_items_per_stage_and_peak(self):
        g = k_complete(4)
        eps, t_hat, kappa_hat = 0.25, 4, 3
        cfg = EstimatorConfig(epsilon=eps, t_hat=t_hat, kappa_hat=kappa_hat, seed=0,
                              exact_fallback=False)
        s = stream_for(g)
        rep = ForcedSample(s.stats(), cfg, g.edge_list())
        live, peaks = [], []
        for stage in range(6):
            observers = rep.stage_begin(stage)
            if observers:
                run_pass(s, observers)
            rep.stage_end(stage)
            live.append(rep._live_items())
            peaks.append(rep.peak_items)
            if stage == 1:
                assert len(rep.sample) == 0  # R is released once the draws are made

        # every vertex has degree 3, so every edge degree is 3 and d_R = 18
        m, n, r, d_e = 6, 4, 6, 3
        ell = math.ceil(21 * math.log2(n) / eps**2 * m * (r * d_e) / (r * (1 - 2 * eps) * t_hat))
        assert rep.ell == ell == 6048
        # s is far above d_e and the degree cutoff far above d_e, so each of a
        # triangle's edges collects its anchor's whole neighborhood
        triangles = 4
        wedge_slots = triangles * 3 * d_e
        # stage 1 holds R with its endpoints' degrees, releases the counter,
        # then holds R and one slot id per draw, and keeps only the drawn
        # edges, here all d = m of them, and one reference per draw
        stage_1_peak = max(r + n, r + ell)
        d = m
        with_draws = d + ell
        # a neighbor rides beside its draw's reference: one item, the edge (a, w)
        with_neighbors = d + ell
        # stage 3 drops the draws and their neighbors once their wedges are
        # counted per triangle edge
        with_wedges = 3 * triangles + wedge_slots
        # the settled repetition keeps only its memo, one entry per triangle
        assert live == [r, with_draws, with_neighbors, with_wedges, with_wedges, triangles]
        assert peaks[1] == stage_1_peak == 6_054
        # the peak is stage 3's end: the drawn edges, the draws with their
        # neighbors and the counted degrees of the third vertices, here all
        # n of them
        assert rep.peak_items == with_neighbors + n == 6_058
        assert len(rep.memo) == len(rep.charged) == triangles


class TestScoring:
    def test_each_closed_draw_scores_by_the_table(self):
        # recount the score draw by draw: a drawn wedge that closes scores 1
        # when the memo charges its triangle to the drawn edge itself
        g, truth = gen_wheel(30)
        cfg = EstimatorConfig(epsilon=0.2, t_hat=truth.triangles, kappa_hat=3, seed=5,
                              scale=0.01, exact_fallback=False)
        s = stream_for(g, order_seed=2)
        rep = ForcedSample(s.stats(), cfg, g.edge_list())
        for stage in range(6):
            observers = rep.stage_begin(stage)
            if observers:
                run_pass(s, observers)
            if stage == 3:  # stage 3's end drops the draws
                edges = rep.drawn_edges[rep.draw_rows]
                draws = list(zip(edges.tolist(), rep.neighbors.tolist()))
            rep.stage_end(stage)
        charged = dict(zip(map(tuple, rep.memo.tolist()), rep.charged.tolist()))
        score = 0
        for (u, v), w in draws:
            anchor = pick_anchor(u, v, g.degree(u), g.degree(v))
            other = v if anchor == u else u
            if w != other and g.has_edge(other, w):
                tri = tuple(sorted((u, v, w)))
                column = charged[tri]
                score += column >= 0 and triangle_edges(tri)[column] == (u, v)
        assert 0 < score < rep.ell
        assert rep.x == (g.m / rep.r) * rep.d_r * (score / rep.ell)


class TestRepetitions:
    def test_single_repetition_is_the_estimate(self):
        g, truth = gen_book(300)
        cfg = EstimatorConfig(epsilon=0.2, t_hat=truth.triangles, kappa_hat=2,
                              repetitions=1, seed=2, scale=0.004)
        x1, _ = estimate(stream_for(g, order_seed=1), cfg)
        x2, _ = estimate(stream_for(g, order_seed=1), cfg)
        assert x1 == x2

    def test_median_of_identical_values(self):
        g = path_graph(30)  # every repetition returns 0
        cfg = EstimatorConfig(epsilon=0.2, t_hat=3, kappa_hat=1,
                              repetitions=5, seed=0, scale=0.05,
                              exact_fallback=False)
        x, _ = estimate(stream_for(g), cfg)
        assert x == 0.0

    def test_sequential_pass_total(self):
        g, truth = gen_book(400)
        s = stream_for(g)
        s.stats()
        before = s.pass_counter
        cfg = EstimatorConfig(epsilon=0.2, t_hat=truth.triangles, kappa_hat=2,
                              repetitions=3, seed=4, scale=0.004)
        _, report = estimate(s, cfg)
        assert s.pass_counter - before == 18
        assert report.passes == 6

    def test_share_passes_runs_six_total_and_matches_sequential(self):
        g, truth = gen_book(400)
        cfg = EstimatorConfig(epsilon=0.2, t_hat=truth.triangles, kappa_hat=2,
                              repetitions=5, seed=4, scale=0.004)
        s_seq = stream_for(g, order_seed=9)
        x_seq, _ = estimate(s_seq, cfg)
        s_sh = stream_for(g, order_seed=9)
        s_sh.stats()
        before = s_sh.pass_counter
        x_sh, report = estimate(s_sh, replace(cfg, share_passes=True))
        assert s_sh.pass_counter - before == 6
        assert x_sh == x_seq
        assert "shared-passes" in report.flags

    def test_bit_identical_reports(self):
        g, truth = gen_book(250)
        cfg = EstimatorConfig(epsilon=0.2, t_hat=truth.triangles, kappa_hat=2,
                              repetitions=3, seed=11, scale=0.005)
        _, r1 = estimate(stream_for(g, order_seed=2), cfg)
        _, r2 = estimate(stream_for(g, order_seed=2), cfg)
        assert r1.to_json_dict() == r2.to_json_dict()

    def test_tables_are_per_repetition(self):
        g, truth = gen_book(400)
        cfg = EstimatorConfig(epsilon=0.2, t_hat=truth.triangles, kappa_hat=2,
                              repetitions=3, seed=4, scale=0.004)
        _, report = estimate(stream_for(g), cfg)
        assert len(report.tables) == 3
        assert report.memo_size == sum(len(t) for t in report.tables)

    def test_tables_read_the_memo_arrays(self):
        # charged column j is edge j of the triangle in `triangle_edges`
        # order, and -1 leaves the triangle unassigned; rows keep their order
        memo = np.array([[4, 7, 9], [0, 1, 2], [1, 3, 5], [2, 6, 8]])
        report = estimator.RunReport(
            estimate=0.0, passes=6, stored_edges_peak=0, r=1, ell=1, s=1,
            assignment_calls=0, memo_size=4, seed=0, config={},
            memos=((memo, np.array([2, -1, 0, 1])), (memo[:0], np.array([], dtype=np.int64))))
        assert [list(table.items()) for table in report.tables] == [
            [((4, 7, 9), (7, 9)), ((0, 1, 2), None), ((1, 3, 5), (1, 3)), ((2, 6, 8), (2, 8))],
            []]

    @pytest.mark.parametrize("share_passes", [False, True])
    def test_no_stage_holds_the_previous_stages_observers(self, monkeypatch, share_passes):
        # an observer holds its hash indexes; a pass must not carry the last
        # stage's observers beside its own, nor two per repetition
        g, truth = gen_book(400)
        cfg = EstimatorConfig(epsilon=0.2, t_hat=truth.triangles, kappa_hat=2,
                              repetitions=3, seed=4, scale=0.004, share_passes=share_passes)
        earlier = []
        # per stage_begin call since the last pass: whether it began a pass
        begun = []
        stage_begin = estimator._StageMachine.stage_begin

        def counting_begin(rep, stage):
            observers = stage_begin(rep, stage)
            begun.append(bool(observers))
            return observers

        def recording_pass(stream, observers):
            assert [ref() for ref in earlier if ref() is not None] == []
            assert len(observers) == sum(begun)
            begun.clear()
            earlier.extend(weakref.ref(ob) for ob in observers)
            run_pass(stream, observers)

        monkeypatch.setattr(estimator._StageMachine, "stage_begin", counting_begin)
        monkeypatch.setattr(estimator, "run_pass", recording_pass)
        estimate(stream_for(g, order_seed=9), cfg)
        assert len(earlier) >= 6


class TestDegradationPaths:
    def test_space_abort_flag(self):
        # shrink the budget to r + ell + s to force the Markov-style abort
        # deterministically. On the lb NO gadget every triangle's edges have
        # degree at least p, so the planned wedge slots alone exceed it
        g, truth = gen_lb_instance(lb_spec(10, 10, 30, "no", seed=1))
        cfg = EstimatorConfig(epsilon=0.2, t_hat=truth.triangles, kappa_hat=truth.kappa,
                              seed=1, scale=0.004, exact_fallback=False,
                              abort_multiplier=1.000001)
        x, report = estimate(stream_for(g, order_seed=5), cfg)
        assert "space-abort" in report.flags
        assert x == 0.0
        assert report.passes == 4
        # the repetition aborts holding its triangles, three items each,
        # and the planned wedge slots
        budget = math.ceil(cfg.abort_multiplier * (report.r + report.ell + report.s))
        assert report.stored_edges_peak - 3 * truth.triangles > budget

    def test_r_reaching_m_falls_back_once_per_run(self):
        # t_hat = 1 drives r to m: every repetition would collect the same
        # graph, so the run collects it once
        g, truth = gen_wheel(30)
        s = stream_for(g)
        s.stats()
        before = s.pass_counter
        cfg = EstimatorConfig(epsilon=0.2, t_hat=1, kappa_hat=3, seed=0, repetitions=5)
        x, report = estimate(s, cfg)
        assert s.pass_counter - before == 1
        assert len(report.tables) == 1
        assert x == truth.triangles
        assert report.passes == 1
        assert report.stored_edges_peak == g.m
        assert "exact-fallback" in report.flags

    def test_ell_above_m_falls_back_in_pass_3(self):
        # on K8 (m = 28, T = 56) r = 5 stays below m, but every degree is 7,
        # so d_R = 35 and ell = 35 exceeds m: the pass after the degree pass
        # collects the graph in place of the draws' neighbors
        g = k_complete(8)
        cfg = EstimatorConfig(epsilon=0.4, t_hat=56, kappa_hat=1, seed=1, scale=0.005)
        s = stream_for(g)
        x, report = estimate(s, cfg)
        assert (report.r, report.ell, g.m) == (5, 35, 28)
        assert x == 56.0
        assert "exact-fallback" in report.flags
        assert report.stored_edges_peak == g.m
        assert report.passes == 3
        assert s.pass_counter == 4  # the stats pass, then three
        # three repetitions each fall back alike, in their own passes or shared
        cfg = replace(cfg, repetitions=3)
        outcomes = []
        for shared in (False, True):
            stream = stream_for(g)
            reps = [_Repetition(stream.stats(), cfg, rep=i) for i in range(cfg.repetitions)]
            _drive(stream, [reps] if shared else [[rep] for rep in reps])
            assert stream.pass_counter == 1 + (3 if shared else 9)
            outcomes.append([(rep.x, rep.flags, rep.passes, rep.peak_items, rep.r, rep.ell,
                              rep.d_r) for rep in reps])
        assert outcomes[0] == outcomes[1] == [(56.0, ["exact-fallback"], 3, 28, 5, 35, 35)] * 3

    def test_stream_that_changes_after_its_first_pass_is_an_input_error(self):
        # every sampled edge's ends have degree >= 1 in a replayed pass 2, so
        # d_R >= r >= 1; a stream whose later passes name other vertices
        # breaks that contract, and no estimate is made
        g, truth = gen_book(400)

        class Changing:
            def __init__(self):
                self.now, self.later = stream_for(g), EdgeStream(g.edge_array() + 10_000)

            def stats(self):
                return self.now.stats()

            def begin_pass(self):
                self.now.begin_pass()

            def next_edge(self):
                return self.now.next_edge()

            def end_pass(self):
                self.now.end_pass()
                self.now = self.later

            def abort_pass(self):
                self.now.abort_pass()

        cfg = EstimatorConfig(epsilon=0.2, t_hat=truth.triangles, kappa_hat=2,
                              seed=1, scale=0.004)
        assert compute_r(g.n, g.m, 0.2, truth.triangles, 2, scale=0.004) < g.m
        with pytest.raises(InputError, match="d_R must be positive"):
            estimate(Changing(), cfg)

    def test_fallback_estimate_is_exact(self):
        g, truth = gen_wheel(30)
        cfg = EstimatorConfig(epsilon=0.2, t_hat=1, kappa_hat=3, seed=0)
        x, report = estimate(stream_for(g), cfg)
        assert "exact-fallback" in report.flags
        assert x == triangles_exact_cn(g) == truth.triangles


class TestNoSpaceAdvantage:
    """A sampled repetition that stores more than the graph is flagged, and
    its value stands: it is not turned into a fallback."""

    def test_flagged_above_m(self):
        # pa(5000, 4) at eps 0.2, scale 0.008 stores about 1.36 m, R and the
        # pending draws at the end of pass 2
        g = gen_preferential_attachment(5000, 4, seed=0)
        cfg = EstimatorConfig(epsilon=0.2, t_hat=triangles_exact_cn(g),
                              kappa_hat=degeneracy(g), seed=1, scale=0.008)
        x, report = estimate(stream_for(g, order_seed=1), cfg)
        assert report.stored_edges_peak > g.m
        assert "no-space-advantage" in report.flags
        assert "exact-fallback" not in report.flags
        assert x > 0
        assert list(report.to_json_dict()) == [
            "estimate", "passes", "stored_edges_peak", "r", "ell", "s",
            "assignment_calls", "memo_size", "seed", "config"]

    def test_not_flagged_below_m(self):
        # book(64000) at scale 0.004 stores under 2 % of m
        g, truth = gen_book(64000)
        cfg = EstimatorConfig(epsilon=0.2, t_hat=truth.triangles, kappa_hat=truth.kappa,
                              seed=1, scale=0.004)
        _, report = estimate(stream_for(g, order_seed=1), cfg)
        assert report.stored_edges_peak < g.m
        assert "no-space-advantage" not in report.flags

    def test_fallback_is_not_flagged(self):
        g, truth = gen_wheel(30)
        cfg = EstimatorConfig(epsilon=0.2, t_hat=1, kappa_hat=3, seed=0)
        _, report = estimate(stream_for(g), cfg)
        assert "exact-fallback" in report.flags
        assert "no-space-advantage" not in report.flags


class DrawBytes(_Repetition):
    """A repetition that records, when pass 4's end releases its draws, how
    many draws and drawn edges it held and the traced bytes the release
    freed."""

    def _drop_draws(self):
        draws = len(getattr(self, "draw_rows", ()))
        rows = len(getattr(self, "drawn_edges", ()))
        before = tracemalloc.get_traced_memory()[0]
        super()._drop_draws()
        if draws:
            self.released = (draws, rows, before - tracemalloc.get_traced_memory()[0])


class TestDrawStorage:
    """Each drawn edge is held once, and a draw is a reference to it: on
    pa(5000, 4) at eps 0.2, scale 0.005 the peak is R and the pending draws
    at the end of pass 2, below m."""

    @staticmethod
    def config(g, seed):
        return EstimatorConfig(epsilon=0.2, t_hat=triangles_exact_cn(g), kappa_hat=4,
                               seed=seed, scale=0.005)

    @pytest.mark.parametrize("seed, peak", [(1, 17_017), (2, 17_066), (3, 16_920)])
    def test_peak_is_r_plus_ell_below_m(self, seed, peak):
        g = gen_preferential_attachment(5000, 4, seed=0)
        _, report = estimate(stream_for(g, order_seed=seed), self.config(g, seed))
        assert report.stored_edges_peak == report.r + report.ell == peak < g.m == 19_984
        assert "no-space-advantage" not in report.flags
        assert "exact-fallback" not in report.flags

    def test_draw_state_bytes(self):
        # at pass 4's end a draw holds three int64s, its reference, its
        # neighbor and at most one open index: 24 bytes. A drawn edge holds
        # six, its two ends, their two degrees, its anchor and its other
        # end: 48 bytes. 4 KiB covers the seven arrays' headers. One copy of
        # the edge and its degrees per draw would take about 64 bytes a draw
        g = gen_preferential_attachment(5000, 4, seed=0)
        s = stream_for(g, order_seed=1)
        rep = DrawBytes(s.stats(), self.config(g, 1), rep=0)
        tracemalloc.start()
        try:
            _drive(s, [[rep]])
        finally:
            tracemalloc.stop()
        draws, rows, freed = rep.released
        assert draws == rep.ell == 9_163
        assert rows < draws
        assert 16 * draws <= freed <= 24 * draws + 48 * rows + 4096


class TestFallbackStorage:
    """On the lb NO gadget (p = q = 20, 81 blocks, m = 22,000) at eps 0.2,
    scale 0.005, every repetition decides in mid-run that its sample would
    cost more than the graph, and collects the graph instead."""

    @staticmethod
    def gadget():
        g, truth = gen_lb_instance(lb_spec(20, 20, 81, "no", seed=1))
        return g, truth, degeneracy(g)

    @staticmethod
    def config(truth, kappa, repetitions):
        return EstimatorConfig(epsilon=0.2, t_hat=truth.triangles, kappa_hat=kappa, seed=1,
                               scale=0.005, repetitions=repetitions)

    def test_collecting_pass_holds_no_sampled_state(self):
        # the planned wedge slots are never counted, and the sampled state
        # is dropped before the collecting pass: the peak is m or what the
        # repetition held when it decided, whichever is larger
        g, truth, kappa = self.gadget()
        s = stream_for(g, order_seed=1)
        rep = _Repetition(s.stats(), self.config(truth, kappa, 1), rep=0)
        held = None
        for stage in range(6):
            observers = rep.stage_begin(stage)
            if rep._collector is not None:
                held = rep.peak_items
            if observers:
                run_pass(s, observers)
            rep.stage_end(stage)
            if rep.settled:
                break
        assert "exact-fallback" in rep.flags
        assert rep.x == truth.triangles
        assert held is not None
        assert rep.peak_items <= max(held, g.m)

    def test_collector_hands_its_blocks_to_the_graph(self):
        # the blocks are not held beside the graph built from them
        g, truth, kappa = self.gadget()
        collector = estimator._GraphCollector()
        run_pass(stream_for(g, order_seed=1), [collector])
        assert collector._blocks
        assert triangles_exact_cn(collector.graph()) == truth.triangles
        assert collector._blocks == [] and collector.size == g.m

    def test_settled_repetitions_release_their_state(self):
        # a settled repetition keeps only its outcome, so three sequential
        # repetitions that each collect the graph peak where one does
        g, truth, kappa = self.gadget()
        peaks = []
        for repetitions in (1, 3):
            s = stream_for(g, order_seed=1)
            s.stats()
            tracemalloc.start()
            try:
                x, report = estimate(s, self.config(truth, kappa, repetitions))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert "exact-fallback" in report.flags
            assert report.passes < 6
            assert x == truth.triangles
        assert peaks[1] <= 1.25 * peaks[0]
