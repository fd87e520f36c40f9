"""Generator ground truth against closed forms and the exact oracles."""

import pytest

from triad.errors import InputError
from triad.graph import (
    degeneracy,
    per_edge_triangles,
    sum_edge_degrees,
    triangles_exact_cn,
    triangles_exact_naive,
)
from triad.generators import (
    LbSpec,
    gen_book,
    gen_erdos_renyi,
    gen_lb_instance,
    gen_preferential_attachment,
    gen_wheel,
    lb_spec,
)


def assert_truth_matches_oracles(g, truth):
    assert truth.n == g.n
    assert truth.m == g.m
    assert truth.triangles == triangles_exact_cn(g)
    assert truth.kappa == degeneracy(g)


class TestWheel:
    def test_wheel5(self):
        g, truth = gen_wheel(5)
        assert (truth.m, truth.triangles, truth.kappa) == (8, 4, 3)
        assert_truth_matches_oracles(g, truth)

    def test_wheel4_is_k4(self):
        # the rim triangle makes T = 4, not n - 1
        g, truth = gen_wheel(4)
        assert truth.triangles == 4
        assert_truth_matches_oracles(g, truth)

    def test_closed_form_cross_checked_at_51(self):
        g, truth = gen_wheel(51)
        assert truth.triangles == 50 == triangles_exact_naive(g)
        assert_truth_matches_oracles(g, truth)

    def test_wheel_1001_closed_form(self):
        g, truth = gen_wheel(1001)
        assert (truth.n, truth.m, truth.triangles, truth.kappa) == (1001, 2000, 1000, 3)
        assert_truth_matches_oracles(g, truth)

    def test_linear_growth_with_constant_degeneracy(self):
        # m and T both scale with n while the degeneracy stays at 3
        for n in (8, 32, 128):
            _, truth = gen_wheel(n)
            assert truth.m == 2 * (n - 1)
            assert truth.triangles == n - 1
            assert truth.kappa == 3

    def test_too_small(self):
        with pytest.raises(InputError):
            gen_wheel(3)


class TestBook:
    def test_single_page_is_k3(self):
        g, truth = gen_book(1)
        assert (g.n, g.m, truth.triangles, truth.kappa) == (3, 3, 1, 2)
        assert_truth_matches_oracles(g, truth)

    def test_closed_form_cross_checked_at_20(self):
        g, truth = gen_book(20)
        assert truth.triangles == 20 == triangles_exact_naive(g)
        assert_truth_matches_oracles(g, truth)

    def test_book_998_closed_form(self):
        g, truth = gen_book(998)
        assert (truth.n, truth.m, truth.triangles, truth.kappa) == (1000, 1997, 998, 2)
        assert truth.triangles == triangles_exact_cn(g)
        assert truth.kappa == degeneracy(g)

    def test_spine_carries_every_triangle(self):
        g, _ = gen_book(17)
        t_e = {p.edge: p.t_e for p in per_edge_triangles(g)}
        assert t_e[(0, 1)] == 17
        assert all(v == 1 for e, v in t_e.items() if e != (0, 1))

    def test_zero_pages_rejected(self):
        with pytest.raises(InputError):
            gen_book(0)


class TestLbInstances:
    def test_yes_p2_q1_n6(self):
        spec = lb_spec(p=2, q=1, blocks=6, kind="yes", seed=0)
        g, truth = gen_lb_instance(spec)
        assert truth.m == 2 * 2 + 2 * 2 * 2 * 1 == 12
        assert truth.m == g.m
        assert truth.triangles == 0 == triangles_exact_cn(g)
        assert truth.kappa == 2 == degeneracy(g)

    def test_no_with_one_shared_index(self):
        spec = lb_spec(p=2, q=1, blocks=6, kind="no", seed=0)
        g, truth = gen_lb_instance(spec)
        assert len(spec.shared_indices()) == 1
        assert truth.triangles == 4 == triangles_exact_cn(g)  # p^2 q
        assert 2 <= truth.kappa <= 4
        assert truth.kappa == degeneracy(g)

    def test_p4_q4_n30(self):
        spec = lb_spec(p=4, q=4, blocks=30, kind="no", seed=3)
        g, truth = gen_lb_instance(spec)
        assert truth.m == 16 + 2 * 10 * 16 == 336
        assert truth.m == g.m
        assert truth.triangles == 64 == triangles_exact_cn(g)
        assert 4 <= truth.kappa <= 8

    def test_yes_degeneracy_is_exactly_p(self):
        for p in (2, 3, 5):
            spec = lb_spec(p=p, q=2, blocks=9, kind="yes", seed=p)
            g, truth = gen_lb_instance(spec)
            assert truth.kappa == p == degeneracy(g)

    def test_multiple_shared_indices(self):
        spec = lb_spec(p=2, q=3, blocks=12, kind="no", seed=1, shared=2)
        g, truth = gen_lb_instance(spec)
        assert len(spec.shared_indices()) == 2
        assert truth.triangles == 2 * 4 * 3 == triangles_exact_cn(g)

    def test_spec_invariants_enforced(self):
        with pytest.raises(InputError):
            LbSpec(p=2, q=1, blocks=6, x=(1, 1, 0, 0, 0, 0),
                   y=(1, 0, 0, 0, 0, 1), kind="yes")  # shares index 0
        with pytest.raises(InputError):
            LbSpec(p=2, q=1, blocks=6, x=(1, 1, 1, 0, 0, 0),
                   y=(0, 0, 0, 1, 1, 0), kind="yes")  # popcount 3 != 2
        with pytest.raises(InputError):
            LbSpec(p=2, q=1, blocks=7, x=(1, 1, 0, 0, 0, 0, 0),
                   y=(0, 0, 1, 1, 0, 0, 0), kind="yes")  # 7 % 3 != 0
        with pytest.raises(InputError):
            lb_spec(p=2, q=1, blocks=6, kind="no", seed=0, shared=3)

    @pytest.mark.parametrize("change, message", [
        ({"p": 0}, "p and q must be >= 1"),
        ({"q": 0}, "p and q must be >= 1"),
        ({"x": (1, 1, 0, 0, 0)}, "indicator strings must have one bit per block"),
        ({"kind": "no"}, "no instance must share at least one index"),
        ({"kind": "maybe"}, "kind must be 'yes' or 'no', got 'maybe'"),
    ], ids=["p-zero", "q-zero", "short-indicator", "no-disjoint", "kind-unknown"])
    def test_spec_refuses_bad_fields(self, change, message):
        # the base spec is a valid "yes" instance: disjoint supports
        base = {"p": 2, "q": 1, "blocks": 6, "x": (1, 1, 0, 0, 0, 0),
                "y": (0, 0, 1, 1, 0, 0), "kind": "yes"}
        with pytest.raises(InputError) as exc:
            LbSpec(**dict(base, **change))
        assert (exc.type, str(exc.value)) == (InputError, message)

    @pytest.mark.parametrize("blocks, kind, message", [
        (0, "no", "block count must be a positive multiple of 3, got 0"),
        (7, "no", "block count must be a positive multiple of 3, got 7"),
        (6, "maybe", "kind must be 'yes' or 'no', got 'maybe'"),
    ])
    def test_lb_spec_refuses_bad_arguments(self, blocks, kind, message):
        with pytest.raises(InputError) as exc:
            lb_spec(p=2, q=1, blocks=blocks, kind=kind, seed=0)
        assert (exc.type, str(exc.value)) == (InputError, message)

    def test_deterministic_for_fixed_seed(self):
        a = lb_spec(p=3, q=2, blocks=12, kind="no", seed=9)
        b = lb_spec(p=3, q=2, blocks=12, kind="no", seed=9)
        assert a == b
        ga, _ = gen_lb_instance(a)
        gb, _ = gen_lb_instance(b)
        assert ga.edge_list() == gb.edge_list()

    def test_isolated_blocks_count_toward_n(self):
        spec = lb_spec(p=2, q=5, blocks=6, kind="yes", seed=0)
        g, truth = gen_lb_instance(spec)
        # 2 of 6 blocks stay disconnected but their q vertices exist
        assert truth.n == g.n == 4 + 30


class TestPreferentialAttachment:
    def test_attach_one_grows_a_tree(self):
        g = gen_preferential_attachment(40, 1, seed=2)
        assert g.m == 39
        assert triangles_exact_cn(g) == 0
        assert degeneracy(g) == 1

    def test_degeneracy_bounded_by_attach(self):
        g = gen_preferential_attachment(2000, 3, seed=7)
        assert degeneracy(g) <= 3
        assert g.m == 3 * (2000 - 3)

    def test_fixed_seed_identical_edge_list(self):
        a = gen_preferential_attachment(100, 2, seed=5)
        b = gen_preferential_attachment(100, 2, seed=5)
        assert a.edge_list() == b.edge_list()

    def test_rejects_bad_sizes(self):
        with pytest.raises(InputError):
            gen_preferential_attachment(3, 3, seed=0)
        with pytest.raises(InputError):
            gen_preferential_attachment(10, 0, seed=0)


class TestErdosRenyi:
    def test_prob_zero_is_edgeless(self):
        g = gen_erdos_renyi(10, 0.0, seed=0)
        assert g.m == 0

    def test_prob_one_is_complete(self):
        g = gen_erdos_renyi(4, 1.0, seed=0)
        assert g.m == 6
        assert triangles_exact_cn(g) == 4

    def test_oracles_agree_on_sample(self):
        g = gen_erdos_renyi(60, 0.3, seed=4)
        assert triangles_exact_naive(g) == triangles_exact_cn(g)

    def test_deterministic(self):
        assert (gen_erdos_renyi(30, 0.4, seed=1).edge_list()
                == gen_erdos_renyi(30, 0.4, seed=1).edge_list())

    def test_rejects_bad_prob(self):
        with pytest.raises(InputError):
            gen_erdos_renyi(5, 1.5, seed=0)

    def test_rejects_negative_n(self):
        with pytest.raises(InputError) as exc:
            gen_erdos_renyi(-1, 0.5, seed=0)
        assert (exc.type, str(exc.value)) == (InputError, "negative vertex count -1")


class TestCorpusInvariants:
    def corpus(self):
        yield gen_wheel(25)[0]
        yield gen_book(25)[0]
        yield gen_lb_instance(lb_spec(2, 2, 6, "no", seed=0))[0]
        yield gen_preferential_attachment(60, 3, seed=1)
        yield gen_erdos_renyi(30, 0.3, seed=2)

    def test_chiba_bounds_hold_everywhere(self):
        for g in self.corpus():
            kappa = degeneracy(g)
            assert sum_edge_degrees(g) <= 2 * g.m * kappa
            assert triangles_exact_cn(g) <= 2 * g.m * kappa
