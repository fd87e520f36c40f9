"""Degree-oracle estimator tests.

The unbiasedness oracle here is an exact outcome-tree enumeration over
(edge pick, neighbor pick) with Fraction arithmetic, written independently
of the sampled implementation.
"""

import numpy as np
import pytest

from triad.errors import ConfigError, InputError
from triad.estimator import _REPORT_KEYS
from triad.graph import Graph, canonical_edge, pick_anchor, sum_edge_degrees
from triad.generators import gen_book, gen_preferential_attachment, gen_wheel
from triad.ideal import DegreeOracle, IdealReport, _IdealRun, ideal_estimate, ideal_sample
from triad.sampling import run_pass
from triad.stream import EdgeStream

from conftest import exact_expected_x, ideal_drawn_edges, k_complete, path_graph


def fresh_stream(g: Graph) -> EdgeStream:
    return EdgeStream.from_edges(g.edge_list())

class TestExactEnumeration:
    def test_k3_expectation_is_one(self):
        assert exact_expected_x(k_complete(3)) == 1

    def test_book2_expectation_is_two(self):
        g, _ = gen_book(2)
        assert sum_edge_degrees(g) == 11
        assert exact_expected_x(g) == 2

    def test_k4_and_k5(self):
        assert exact_expected_x(k_complete(4)) == 4
        assert exact_expected_x(k_complete(5)) == 10

    def test_small_wheel(self):
        g, truth = gen_wheel(6)
        assert exact_expected_x(g) == truth.triangles


class TestDegreeOracle:
    def test_each_lookup_counts_one_query(self):
        g = path_graph(4)
        oracle = DegreeOracle(g)
        assert oracle(np.array([0, 1, 1, 3])).tolist() == [1, 2, 2, 1]
        assert oracle(np.array([], dtype=np.int64)).tolist() == []
        assert oracle.queries == 4

    def test_out_of_range_vertex_rejected(self):
        g = path_graph(4)
        for bad in (4, -1):
            with pytest.raises(InputError):
                DegreeOracle(g)(np.array([0, bad]))


class TestSingleInstance:
    def test_k3_support_and_frequency(self):
        g = k_complete(3)
        values = set()
        hits = 0
        trials = 6000
        for seed in range(trials):
            [x], _, _ = ideal_sample(fresh_stream(g), DegreeOracle(g), 1, seed,
                                     d_e_total=sum_edge_degrees(g))
            values.add(x)
            hits += x == 6.0
        assert values == {0.0, 6.0}
        # exact enumeration gives Pr[X = d_E] = 1/6
        assert abs(hits / trials - 1 / 6) < 0.02

    def test_triangle_free_always_zero(self):
        g = path_graph(6)
        for seed in range(25):
            xs, _, _ = ideal_sample(fresh_stream(g), DegreeOracle(g), 1, seed,
                                    d_e_total=sum_edge_degrees(g))
            assert xs[0] == 0.0

    def test_exactly_three_passes(self):
        g = k_complete(4)
        s = fresh_stream(g)
        ideal_sample(s, DegreeOracle(g), 1, seed=0, d_e_total=sum_edge_degrees(g))
        assert s.pass_counter == 3

    def test_empty_stream_errors(self):
        g = Graph(3, [])
        with pytest.raises(InputError):
            ideal_sample(fresh_stream(g), DegreeOracle(g), 1, seed=0,
                         d_e_total=sum_edge_degrees(g))

    def test_instance_count_below_one_rejected(self):
        g = k_complete(3)
        with pytest.raises(InputError) as exc:
            _IdealRun(DegreeOracle(g), 0, 0, sum_edge_degrees(g))
        assert (exc.type, str(exc.value)) == (InputError, "instance count must be >= 1, got 0")

    def test_wrong_edge_degree_total_rejected(self):
        g = k_complete(4)
        for wrong in (sum_edge_degrees(g) - 1, sum_edge_degrees(g) + 1):
            with pytest.raises(InputError):
                ideal_sample(fresh_stream(g), DegreeOracle(g), 8, seed=0, d_e_total=wrong)


class TestSampledMoments:
    def test_book2_empirical_mean_matches_enumeration(self):
        g, _ = gen_book(2)
        n = 40_000
        xs, d_e_total, _ = ideal_sample(fresh_stream(g), DegreeOracle(g), n, seed=3,
                                        d_e_total=sum_edge_degrees(g))
        assert d_e_total == 11
        se = xs.std() / np.sqrt(n)
        assert abs(xs.mean() - 2.0) <= 4 * se

    def test_variance_bounded_by_de_times_t(self):
        g, truth = gen_wheel(21)
        n = 30_000
        xs, d_e_total, _ = ideal_sample(fresh_stream(g), DegreeOracle(g), n, seed=8,
                                        d_e_total=sum_edge_degrees(g))
        assert xs.var() <= 1.1 * d_e_total * truth.triangles

    def test_instances_share_three_passes(self):
        g, _ = gen_book(10)
        s = fresh_stream(g)
        ideal_sample(s, DegreeOracle(g), 5000, seed=1, d_e_total=sum_edge_degrees(g))
        assert s.pass_counter == 3

    def test_pass_one_makes_two_queries_per_edge(self):
        g = path_graph(8)  # triangle-free: no third-vertex queries
        oracle = DegreeOracle(g)
        ideal_sample(fresh_stream(g), oracle, 10, seed=0, d_e_total=sum_edge_degrees(g))
        assert oracle.queries == 2 * g.m

    def test_reproducible(self):
        g, _ = gen_book(6)
        a = ideal_sample(fresh_stream(g), DegreeOracle(g), 64, seed=21,
                         d_e_total=sum_edge_degrees(g))[0]
        b = ideal_sample(fresh_stream(g), DegreeOracle(g), 64, seed=21,
                         d_e_total=sum_edge_degrees(g))[0]
        assert np.array_equal(a, b)


class TestMedianOfMeans:
    def test_k3_within_half_of_t_most_of_the_time(self):
        g = k_complete(3)
        good = 0
        for trial in range(30):
            est, report = ideal_estimate(fresh_stream(g), DegreeOracle(g),
                                         epsilon=0.5, t_hat=1, seed=1000 + trial)
            good += 0.5 <= est <= 1.5
        assert good >= 20

    def test_triangle_free_estimates_zero(self):
        g = path_graph(7)
        est, _ = ideal_estimate(fresh_stream(g), DegreeOracle(g),
                                epsilon=0.5, t_hat=1, seed=4)
        assert est == 0.0

    def test_wheel101_quarter_band(self):
        g, truth = gen_wheel(101)
        good = 0
        for trial in range(30):
            est, _ = ideal_estimate(fresh_stream(g), DegreeOracle(g),
                                    epsilon=0.25, t_hat=truth.triangles,
                                    seed=5000 + trial)
            good += 75 <= est <= 125
        assert good >= 20

    def test_report_fields(self):
        g, truth = gen_book(4)
        est, report = ideal_estimate(fresh_stream(g), DegreeOracle(g),
                                     epsilon=0.5, t_hat=truth.triangles, seed=2)
        assert report.passes == 3
        assert report.groups == 7
        assert report.instances == 7 * report.group_size
        assert report.d_e_total == sum_edge_degrees(g)
        assert report.oracle_queries > 0

    def test_report_serializes_in_the_frozen_keys(self):
        report = IdealReport(estimate=2.5, passes=3, stored_edges_peak=28, instances=14,
                             groups=7, group_size=2, d_e_total=18, oracle_queries=40,
                             closure_hits=9, seed=5, epsilon=0.5, t_hat=4)
        payload = report.to_json_dict()
        assert tuple(payload) == _REPORT_KEYS + ("oracle_queries",)
        # r is the instance count, assignment_calls the closure hits
        assert payload == {
            "estimate": 2.5, "passes": 3, "stored_edges_peak": 28, "r": 14, "ell": 0,
            "s": 0, "assignment_calls": 9, "memo_size": 0, "seed": 5,
            "config": {"mode": "ideal", "epsilon": 0.5, "t_hat": 4, "groups": 7,
                       "group_size": 2},
            "oracle_queries": 40,
        }

    def test_report_keeps_its_run_bounds(self):
        g, truth = gen_book(4)
        _, report = ideal_estimate(fresh_stream(g), DegreeOracle(g),
                                   epsilon=0.5, t_hat=truth.triangles, seed=2)
        assert (report.epsilon, report.t_hat, report.seed) == (0.5, truth.triangles, 2)

    def test_sizing_pass_plus_three(self):
        g, truth = gen_book(4)
        s = fresh_stream(g)
        ideal_estimate(s, DegreeOracle(g), epsilon=0.5, t_hat=truth.triangles, seed=2)
        assert s.pass_counter == 4  # stats-style sizing pass + 3 estimator passes

    def test_group_size_formula(self):
        g, truth = gen_wheel(9)
        d_e_total = sum_edge_degrees(g)
        _, report = ideal_estimate(fresh_stream(g), DegreeOracle(g),
                                   epsilon=0.25, t_hat=truth.triangles, seed=0)
        import math
        assert report.group_size == math.ceil(4 * d_e_total / (0.0625 * truth.triangles))

    def test_empty_stream_errors(self):
        g = Graph(3, [])
        with pytest.raises(InputError) as exc:
            ideal_estimate(fresh_stream(g), DegreeOracle(g), epsilon=0.2, t_hat=1, seed=0)
        assert (exc.type, str(exc.value)) == (InputError,
                                              "cannot estimate on a stream with no edges")

    def test_config_errors(self):
        g = k_complete(3)
        with pytest.raises(ConfigError):
            ideal_estimate(fresh_stream(g), DegreeOracle(g), epsilon=0.5, t_hat=0, seed=0)
        with pytest.raises(ConfigError):
            ideal_estimate(fresh_stream(g), DegreeOracle(g), epsilon=1.5, t_hat=1, seed=0)

    @pytest.mark.parametrize("epsilon, message", [
        pytest.param(1e-9, "ask for 56027999999999992659968 instances",
                     id="1e-09-56027999999999992659968"),
        pytest.param(1e-200, "the instance count is out of float range for epsilon 1e-200, "
                     "t_hat 1", id="1e-200-inf"),
    ])
    def test_instance_count_past_any_draw_is_a_config_error(self, epsilon, message):
        # numpy refuses 2**63 positions or more before allocating any; an
        # eps^2 that underflows to 0 would ask for unboundedly many
        g, _ = gen_book(400)
        with pytest.raises(ConfigError, match=message):
            ideal_estimate(fresh_stream(g), DegreeOracle(g), epsilon=epsilon, t_hat=1, seed=0)

    @pytest.mark.parametrize("epsilon, t_hat", [(0.2, 10**400), (1e-200, 1)])
    def test_count_out_of_float_range_is_refused_before_any_pass(self, epsilon, t_hat):
        g, _ = gen_book(400)
        stream = fresh_stream(g)
        with pytest.raises(ConfigError, match="the instance count is out of float range"):
            ideal_estimate(stream, DegreeOracle(g), epsilon=epsilon, t_hat=t_hat, seed=0)
        assert stream.pass_counter == 0


def drive_stages(g: Graph, count: int, seed: int):
    """Run an ideal run's three stages by hand: the run, its draws as rows
    (u, v, d_u, d_v), the neighbors its stage 2 collected, and its live
    items after each stage."""
    run = _IdealRun(DegreeOracle(g), count, seed, sum_edge_degrees(g))
    stream = fresh_stream(g)
    live = []
    for stage in (1, 2, 3):
        run_pass(stream, run.stage_begin(stage))
        if stage == 3:
            draws = np.column_stack((run.drawn_edges, run.drawn_ends))[run.draw_rows]
            neighbors = run.neighbors.copy()
        run.stage_end(stage)
        live.append(run._live_items())
    assert run.settled and run.passes == 3
    return run, draws, neighbors, live


class TestChargingRule:
    """Columnar scoring against the tuple rule it replaced, instance by
    instance, on graphs where many closed triangles have d_e ties."""

    @staticmethod
    def tuple_rule(g, oracle, pick, w, d_e_total):
        """(value, closed, tied) of one instance: the charged edge is the
        least (d_e, canonical edge) of the closed triangle's three edges."""
        a, b, d_a, d_b = pick
        anchor = pick_anchor(a, b, d_a, d_b)
        other = b if anchor == a else a
        if w == other or not g.has_edge(other, w):
            return 0.0, False, False
        [d_w] = oracle(np.array([w])).tolist()
        tri_edges = sorted([
            (min(d_a, d_b), canonical_edge(a, b)),
            (min(d_a, d_w), canonical_edge(a, w)),
            (min(d_b, d_w), canonical_edge(b, w)),
        ])
        value = float(d_e_total) if tri_edges[0][1] == canonical_edge(a, b) else 0.0
        return value, True, tri_edges[0][0] == tri_edges[1][0]

    @pytest.mark.parametrize("graph", [
        lambda: gen_wheel(9)[0], lambda: k_complete(5), lambda: gen_book(4)[0],
        lambda: gen_preferential_attachment(40, 3, seed=2),
    ], ids=["wheel9", "k5", "book4", "pa40"])
    def test_every_instance_matches_the_tuple_rule(self, graph):
        g = graph()
        run, draws, neighbors, _ = drive_stages(g, 3000, seed=11)
        oracle = DegreeOracle(g)
        closed = tied = 0
        for i, (pick, w) in enumerate(zip(draws.tolist(), neighbors.tolist())):
            value, hit, tie = self.tuple_rule(g, oracle, pick, w, sum_edge_degrees(g))
            assert run.x[i] == value, (i, pick, w)
            closed += hit
            tied += tie
        assert run.hits == closed
        # the tie order, canonical-first, is exercised
        assert tied > 0


class TestIdealStorage:
    """Ideal mode holds each drawn edge once, and per instance a reference
    to it and one neighbor."""

    def test_live_items_per_stage_and_peak(self):
        g = k_complete(4)
        count = 50
        run, _, _, live = drive_stages(g, count, seed=0)
        drawn = ideal_drawn_edges(g, count, seed=0)
        # stage 1 holds the drawn edges and a reference per instance, stage
        # 2 puts a neighbor beside each reference, and the settled run keeps
        # only its instance values
        assert drawn == g.m == 6
        assert live == [drawn + count, drawn + count, 0]
        assert run.peak_items == drawn + count == 56

    def test_report_peak_in_closed_form(self):
        g = k_complete(4)
        _, report = ideal_estimate(fresh_stream(g), DegreeOracle(g), epsilon=0.5,
                                   t_hat=4, seed=0)
        # d_E = 6 edges * 3; group_size = ceil(4 * 18 / (0.25 * 4)) = 72;
        # 504 instances draw all six edges
        assert report.instances == 7 * 72
        assert ideal_drawn_edges(g, report.instances, seed=0) == g.m
        assert report.stored_edges_peak == g.m + report.instances == 510
        assert report.passes == 3
