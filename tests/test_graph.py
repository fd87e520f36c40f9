"""Exact oracle tests. Derived values are recomputed here by hand or by a
second, independent method before being asserted."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import triad.graph
from triad import edgelist
from triad.errors import EdgeListError, InputError
from triad.graph import (
    Graph,
    canonical_edge,
    classify_edges,
    degeneracy,
    enumerate_triangles,
    per_edge_triangles,
    pick_anchor,
    sum_edge_degrees,
    triangle_edges,
    triangles_exact_cn,
    triangles_exact_naive,
)
from triad.generators import (
    gen_book,
    gen_erdos_renyi,
    gen_lb_instance,
    gen_preferential_attachment,
    gen_wheel,
    lb_spec,
)
from triad.stream import EdgeStream

from conftest import (
    bisect_triangles,
    brute_degeneracy,
    complete_bipartite,
    heap_degeneracy,
    k_complete,
    loop_edge_degrees,
    path_graph,
    star_graph,
    wheel_by_hand,
)


class TestGraphConstruction:
    def test_adjacency_is_symmetric_and_sorted(self):
        g = Graph(4, [(2, 0), (3, 1), (0, 1)])
        assert g.neighbors(0) == (1, 2)
        assert g.neighbors(2) == (0,)
        assert g.m == 3
        for u in range(4):
            for v in g.neighbors(u):
                assert u in g.neighbors(v)

    def test_degree_sum_is_twice_m(self):
        g = gen_erdos_renyi(30, 0.3, seed=5)
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m

    def test_rejects_duplicates_and_loops(self):
        with pytest.raises(EdgeListError):
            Graph(3, [(0, 1), (1, 0)])
        with pytest.raises(EdgeListError):
            Graph(3, [(1, 1)])

    def test_rejects_ids_from_2_to_63(self):
        # ids must fit the int64 CSR arrays
        with pytest.raises(EdgeListError):
            Graph(3, [(0, 2**63)])
        with pytest.raises(EdgeListError):
            Graph(3, [(0, 1), (1, 2**70)])

    def test_out_of_range_vertex(self):
        with pytest.raises(InputError):
            Graph(2, [(0, 5)])

    def test_negative_vertex_count(self):
        with pytest.raises(InputError) as exc:
            Graph(-1, [])
        assert (exc.type, str(exc.value)) == (InputError, "negative vertex count -1")

    def test_csr_arrays_are_read_only(self, k4):
        with pytest.raises(ValueError):
            k4.indptr[1] = 0
        with pytest.raises(ValueError):
            k4.indices[0] = 3
        assert k4.neighbors(0) == (1, 2, 3)

    def test_from_file_remaps_sparse_ids(self, tmp_path):
        p = tmp_path / "sparse.el"
        p.write_text("# comment\n10 30\n30 20\n")
        g = Graph.from_file(p)
        assert g.n == 3
        assert g.m == 2
        assert g.labels.tolist() == [10, 20, 30]
        # 30 is dense id 2, adjacent to both others
        assert g.degree(2) == 2

    def test_a_loaded_graph_holds_its_csr_and_labels_only(self, tmp_path):
        # the CSR (8 bytes per edge in int32 `indices`, 8 per vertex in
        # `indptr`) and 8 bytes per vertex of labels: no per-vertex Python
        # objects
        assert Graph.__slots__ == ("n", "m", "labels", "indptr", "indices")
        book, _ = gen_book(64000)
        p = tmp_path / "book.el"
        p.write_text("".join(f"{u} {v}\n" for u, v in book.edges()))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            g = Graph.from_file(p)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert (g.n, g.m) == (book.n, book.m)
        assert held <= 8 * g.m + 16 * (g.n + 1) + 64 * 1024
        assert g.indices.dtype == np.int32
        assert g.indptr.dtype == g.labels.dtype == np.int64
        assert g.edge_array().dtype == np.int64
        # dense ids keep the presence mark's ids, sparse ones np.unique's
        sparse = Graph.from_checked_edges(np.array([[10, 2**40], [10, 2**62]]))
        for labels in (g.labels, sparse.labels):
            assert labels.dtype == np.int64
            assert not labels.flags.writeable
        assert np.array_equal(g.labels, np.arange(g.n))
        assert sparse.labels.tolist() == [10, 2**40, 2**62]


class TestInt32Boundary:
    """Ids and ranks either side of 2**31, where int32 arrays stop."""

    # the first four lines are one chunk of ids below 2**31, which the scan
    # may narrow to int32; the rest reach 2**31 - 1, 2**31 and 2**40, and
    # close the triangles 3 A B and 3 B C
    SMALL = b"0 1\n1 2\n0 2\n2 3\n"
    LARGE = (b"3 2147483647\n2147483647 2147483648\n2147483648 3\n"
             b"2147483648 1099511627776\n1099511627776 0\n3 1099511627776\n")

    @pytest.mark.parametrize("chunk", [len(SMALL), edgelist.CHUNK_BYTES])
    def test_a_load_across_the_boundary_matches_int64_edges(
            self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(edgelist, "CHUNK_BYTES", chunk)
        p = tmp_path / "wide.el"
        p.write_bytes(self.SMALL + self.LARGE)
        edges = edgelist.read_edges(p)
        assert edges.dtype == np.int64
        g = Graph.from_file(p)
        want = Graph.from_checked_edges(np.array(
            [[0, 1], [1, 2], [0, 2], [2, 3], [3, 2**31 - 1], [2**31 - 1, 2**31],
             [3, 2**31], [2**31, 2**40], [0, 2**40], [3, 2**40]], dtype=np.int64))
        assert sorted(edges.tolist()) == want.labels[want.edge_array()].tolist()
        assert g.labels.tolist() == want.labels.tolist() == [
            0, 1, 2, 3, 2**31 - 1, 2**31, 2**40]
        assert np.array_equal(g.indptr, want.indptr)
        assert np.array_equal(g.indices, want.indices)
        assert triangles_exact_cn(g) == triangles_exact_cn(want) == 3
        assert degeneracy(g) == degeneracy(want) == 2
        assert sum_edge_degrees(g) == sum_edge_degrees(want) == loop_edge_degrees(want)

    def test_rank_keys_past_2_31_are_formed_in_int64(self):
        # n = 50,002 > 46,341, so rank * n + rank passes 2**31 while the
        # ranks themselves may be int32
        g, truth = gen_book(50000)
        assert (g.n - 1) ** 2 >= 2**31
        assert triangles_exact_cn(g) == truth.triangles == 50000
        assert list(enumerate_triangles(g)) == [(0, 1, page) for page in range(2, 50002)]
        # the spine has edge degree k + 1, each of the 2k page edges 2
        assert sum_edge_degrees(g) == 5 * 50000 + 1


class TestInt32KeyBoundary:
    """The CSR's (row, column) keys and the kernel's oriented keys are int32
    when n * n < 2**31, so up to n = 46,340; each load either side of that
    matches the same load with int64 keys, byte for byte. The largest CSR
    key, n * n - 2, passes 2**31 at n = 46,341, and the largest oriented
    key, n * n - n - 1, at n = 46,342."""

    @staticmethod
    def chorded_path(tmp_path, n, spread):
        # the path 0 - 1 - ... - (n - 1) with a chord (v, v + 2) at each v
        # divisible by 3, which closes the triangle v, v + 1, v + 2; ids
        # spread by 1000 are too sparse for the presence mark
        edges = [(v - 1, v) for v in range(1, n)] + [(v, v + 2) for v in range(0, n - 2, 3)]
        p = tmp_path / f"path{n}.el"
        p.write_text("".join(f"{u * spread} {v * spread}\n" for u, v in edges))
        return p, len(edges), len(range(0, n - 2, 3))

    @pytest.mark.parametrize("spread", [1, 1000])
    @pytest.mark.parametrize("n", [46340, 46341, 46342])
    def test_a_load_and_its_oracles_match_int64_keys(self, tmp_path, monkeypatch, n, spread):
        assert triad.graph._key_dtype(n) is (np.int32 if n == 46340 else np.int64)
        p, m, triangles = self.chorded_path(tmp_path, n, spread)
        g = Graph.from_file(p)
        with monkeypatch.context() as wide:
            wide.setattr(triad.graph, "_key_dtype", lambda n: np.int64)
            want = Graph.from_file(p)
            want_oracles = (triangles_exact_cn(want), degeneracy(want), sum_edge_degrees(want))
        assert (g.n, g.m) == (want.n, want.m) == (n, m)
        for name in ("labels", "indptr", "indices"):
            got, expected = getattr(g, name), getattr(want, name)
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), name
        assert g.indices.dtype == np.int32
        assert np.array_equal(g.labels, np.arange(n) * spread)
        assert (triangles_exact_cn(g), degeneracy(g), sum_edge_degrees(g)) == want_oracles
        assert want_oracles[:2] == (triangles, 2)
        assert want_oracles[2] == loop_edge_degrees(g)


class TestExactPathMemory:
    def test_load_and_oracles_peak_within_36_bytes_per_edge(self, tmp_path):
        # the lb NO gadget (p = q = 40, N = 150; m = 161,600). Each traced
        # peak counts the loaded Graph too: int32 `indices` and oracles that
        # never widen a whole array keep each near half of the 41 to 65
        # bytes per edge that int64 ids and whole-array temporaries took
        lb, truth = gen_lb_instance(lb_spec(40, 40, 150, "no", seed=1))
        p = tmp_path / "lb.el"
        p.write_text("".join(f"{u} {v}\n" for u, v in lb.edges()))
        peaks = {}
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            g = Graph.from_file(p)
            peaks["load"] = tracemalloc.get_traced_memory()[1] - before
            for oracle in (triangles_exact_cn, degeneracy, sum_edge_degrees):
                tracemalloc.reset_peak()
                peaks[oracle.__name__] = (oracle(g), tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        assert g.m == truth.m == 161600
        assert peaks["triangles_exact_cn"][0] == truth.triangles
        assert peaks["degeneracy"][0] == truth.kappa
        per_edge = {name: (peak if name == "load" else peak[1]) / g.m
                    for name, peak in peaks.items()}
        assert all(b <= 36 for b in per_edge.values()), per_edge
        # the load holds the int32 blocks (8 bytes per edge) and the int32
        # keys that become `indices` in place (8), with `indptr` read off
        # the keys by binary search: 19.9 bytes per edge, against 29.8 with
        # int64 keys and a bincount of `indices`. The bound leaves 2.1
        # bytes per edge, about 340 KB, of margin
        assert per_edge["load"] <= 22, per_edge


class TestFromFileFaults:
    """`Graph.from_file` finds repeats in the CSR's sort, not in a scan of
    its own, and still reports the first fault in file order."""

    # line 3 is not plain, so its chunk keeps line numbers; line 6 repeats it
    REPEAT = b"# header\n1 2\n2  3\n3 4\n5 6\n3 2\n2 1\n"

    @pytest.mark.parametrize("chunk", [1, 8, 12, 16, edgelist.CHUNK_BYTES])
    def test_repeat_is_named_at_its_second_line(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(edgelist, "CHUNK_BYTES", chunk)
        p = tmp_path / "repeat.el"
        p.write_bytes(self.REPEAT)
        with pytest.raises(EdgeListError, match="duplicate edge 2 3") as err:
            Graph.from_file(p)
        assert err.value.lineno == 6
        # all plain: the repeat's line comes from its row
        p.write_bytes(self.REPEAT.replace(b"2  3", b"2 3"))
        with pytest.raises(EdgeListError, match="duplicate edge 2 3") as err:
            Graph.from_file(p)
        assert err.value.lineno == 6

    @pytest.mark.parametrize("chunk", [1, 8, edgelist.CHUNK_BYTES])
    def test_first_fault_in_file_order(self, tmp_path, monkeypatch, chunk):
        # both callers of `raise_first_fault` name the same first fault
        monkeypatch.setattr(edgelist, "CHUNK_BYTES", chunk)
        p = tmp_path / "faults.el"
        for load in (Graph.from_file, EdgeStream.from_file):
            p.write_bytes(b"1 2\n2 3\n4 x\n2 1\n")
            with pytest.raises(EdgeListError, match="non-integer vertex id") as err:
                load(p)
            assert err.value.lineno == 3
            p.write_bytes(b"1 2\n2 3\n2 1\n4 x\n")
            with pytest.raises(EdgeListError, match="duplicate edge 1 2") as err:
                load(p)
            assert err.value.lineno == 3

    def test_a_clean_file_sorts_its_keys_once(self, tmp_path, monkeypatch):
        # the CSR's sort shows there is no repeat; `_first_repeat` runs
        # only to name one
        calls = []
        monkeypatch.setattr(edgelist, "_first_repeat", lambda edges: calls.append(edges))
        p = tmp_path / "clean.el"
        p.write_bytes(b"# k4\n0 1\n0 2\n0 3\n1 2\n1  3\n2 3\n")
        assert Graph.from_file(p).m == 6
        assert calls == []

    @pytest.mark.parametrize("text", [b"0 1\n1 2\n", b"0 1\n1 2\n1 0\n", b"0 1\n1 x\n",
                                      b"0 1\n1 0\n1 x\n", b"0 1\n1  2\n2 0\n1 0\n"])
    def test_the_file_is_opened_once(self, tmp_path, monkeypatch, text):
        # a second read could see a file that changed in between
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(edgelist, "open", counting_open, raising=False)
        monkeypatch.setattr(edgelist, "CHUNK_BYTES", 4)
        p = tmp_path / "once.el"
        p.write_bytes(text)
        try:
            Graph.from_file(p)
        except EdgeListError:
            pass
        assert opened == [p]


class TestDegree:
    def test_k3(self, k3):
        assert k3.degree(0) == 2

    def test_wheel5_hub(self):
        # hand-built W5: hub 0 touches all four rim vertices
        w5 = wheel_by_hand(5)
        assert w5.degree(0) == 4
        for rim in range(1, 5):
            assert w5.degree(rim) == 3

    def test_isolated_vertex(self):
        g = Graph(3, [(0, 1)])
        assert g.degree(2) == 0

    def test_out_of_range(self, k3):
        with pytest.raises(InputError):
            k3.degree(3)

    @pytest.mark.parametrize("v", [-1, 3])
    def test_neighbors_out_of_range(self, k3, v):
        with pytest.raises(InputError) as exc:
            k3.neighbors(v)
        assert (exc.type, str(exc.value)) == (InputError, f"vertex {v} out of range [0, 3)")

    @pytest.mark.parametrize("u, v", [(0, 3), (3, 0), (-1, 1), (1, -1)])
    def test_has_edge_out_of_range_is_false(self, k3, u, v):
        assert k3.has_edge(u, v) is False


class TestEdgeDegree:
    def test_k3(self, k3):
        assert min(k3.degree(0), k3.degree(1)) == 2

    def test_wheel5_spoke(self):
        w5 = wheel_by_hand(5)
        # min(rim degree 3, hub degree 4)
        assert min(w5.degree(0), w5.degree(1)) == 3

    def test_star_leaf(self):
        g = star_graph(5)
        assert min(g.degree(0), g.degree(3)) == 1

    def test_anchor_is_lower_degree_endpoint(self):
        g = star_graph(5)
        assert pick_anchor(0, 2, g.degree(0), g.degree(2)) == 2  # the leaf

    def test_anchor_tie_goes_to_larger_id(self, k3):
        # equal degrees everywhere: the larger endpoint anchors
        assert pick_anchor(0, 1, k3.degree(0), k3.degree(1)) == 1
        assert pick_anchor(2, 0, k3.degree(2), k3.degree(0)) == 2
        assert pick_anchor(7, 3, 5, 5) == 7


class TestSumEdgeDegrees:
    def test_k3(self, k3):
        assert sum_edge_degrees(k3) == 6

    def test_k4_against_direct_recount(self, k4):
        direct = sum(min(k4.degree(u), k4.degree(v)) for u, v in k4.edge_list())
        assert direct == 18
        assert sum_edge_degrees(k4) == 18

    def test_wheel5_hand_enumeration(self):
        # 4 rim edges with d_e = 3 and 4 spokes with d_e = min(3, 4) = 3
        w5 = wheel_by_hand(5)
        assert w5.m == 8
        assert sum_edge_degrees(w5) == 24


class TestDegeneracy:
    def test_complete_graphs(self):
        for k in range(2, 7):
            assert degeneracy(k_complete(k)) == k - 1

    def test_wheel_1001(self):
        g, _ = gen_wheel(1001)
        assert degeneracy(g) == 3

    def test_complete_bipartite(self):
        assert degeneracy(complete_bipartite(4, 4)) == 4

    def test_tree(self):
        assert degeneracy(path_graph(9)) == 1

    def test_edgeless(self):
        assert degeneracy(Graph(5, [])) == 0

    def test_matches_brute_force_on_small_graphs(self):
        for seed in range(12):
            g = gen_erdos_renyi(7, 0.45, seed=seed)
            assert degeneracy(g) == brute_degeneracy(g)


    def test_peel_and_stream_stats_leave_numpy_ma_unimported(self):
        # plain np.unique imports numpy.ma on its first call, which costs
        # a fresh `triad exact` process about 17 ms
        code = ("import sys\n"
                "from triad.generators import gen_wheel\n"
                "from triad.graph import degeneracy\n"
                "from triad.stream import EdgeStream\n"
                "g, _ = gen_wheel(50)\n"
                "assert degeneracy(g) == 3\n"
                "assert EdgeStream.from_edges(g.edge_list()).stats().n == 50\n"
                "print('numpy.ma' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(triad.graph.__file__).parents[1]))
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "False\n"

    def test_ideal_estimate_leaves_numpy_ma_unimported(self):
        # np.median imports numpy.ma on its first call, about 16 ms of a
        # fresh `triad estimate --mode ideal` process
        code = ("import sys\n"
                "from triad.generators import gen_wheel\n"
                "from triad.ideal import DegreeOracle, ideal_estimate\n"
                "from triad.stream import EdgeStream\n"
                "g, _ = gen_wheel(50)\n"
                "value, _ = ideal_estimate(EdgeStream(g.edge_array()), DegreeOracle(g),\n"
                "                          epsilon=0.5, t_hat=49, seed=1)\n"
                "assert value >= 0\n"
                "print('numpy.ma' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(triad.graph.__file__).parents[1]))
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "False\n"


class TestTriangleCounts:
    def test_k3_and_k4(self, k3, k4):
        assert triangles_exact_naive(k3) == 1
        assert triangles_exact_cn(k3) == 1
        assert triangles_exact_naive(k4) == 4
        assert triangles_exact_cn(k4) == 4

    def test_book_naive(self):
        g, _ = gen_book(80)
        assert triangles_exact_naive(g) == 80

    def test_wheel_cross_oracle_then_closed_form(self):
        small, _ = gen_wheel(51)
        assert triangles_exact_naive(small) == triangles_exact_cn(small) == 50
        big, _ = gen_wheel(1001)
        assert triangles_exact_cn(big) == 1000

    def test_random_200_vertex_cross_oracle(self):
        g = gen_erdos_renyi(200, 0.05, seed=17)
        assert triangles_exact_naive(g) == triangles_exact_cn(g)

    def test_enumeration_yields_sorted_unique_triples(self, k4):
        tris = list(enumerate_triangles(k4))
        assert len(tris) == len(set(tris)) == 4
        assert all(a < b < c for a, b, c in tris)


KERNEL_GRAPHS = {
    **{f"pa(2000,4) seed {seed}": lambda seed=seed: gen_preferential_attachment(2000, 4, seed=seed)
       for seed in (0, 1, 2)},
    "er(400,0.05)": lambda: gen_erdos_renyi(400, 0.05, seed=3),
    "lb yes": lambda: gen_lb_instance(lb_spec(4, 3, 9, "yes", seed=0))[0],
    "lb no": lambda: gen_lb_instance(lb_spec(4, 3, 9, "no", seed=0))[0],
    "star(50)": lambda: star_graph(50),
    "edgeless with isolated vertices": lambda: Graph(7, []),
    "isolated vertices beside a triangle": lambda: Graph(6, [(1, 3), (3, 4), (1, 4)]),
    "K7": lambda: k_complete(7),
}


class TestKernelsAgainstReferences:
    """The numpy kernels against the loop oracles in conftest."""

    @pytest.mark.parametrize("name", sorted(KERNEL_GRAPHS))
    def test_kernels_match_references(self, name):
        g = KERNEL_GRAPHS[name]()
        reference = list(bisect_triangles(g))
        assert triangles_exact_cn(g) == len(reference)
        assert list(enumerate_triangles(g)) == reference
        assert degeneracy(g) == heap_degeneracy(g)
        assert sum_edge_degrees(g) == loop_edge_degrees(g)

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    def test_wedges_spanning_many_chunks(self, monkeypatch, chunk):
        # K7's first out-list alone has 15 wedges, more than chunks 1 and 5;
        # the wheel's rim and the book's pages are classes of many lists,
        # and most of the lb NO gadget's out-lists build no wedge
        graphs = [k_complete(7), gen_preferential_attachment(300, 4, seed=1),
                  gen_erdos_renyi(120, 0.1, seed=4),
                  gen_lb_instance(lb_spec(4, 3, 9, "no", seed=0))[0],
                  gen_wheel(50)[0], gen_book(20)[0]]
        expected = [list(bisect_triangles(g)) for g in graphs]
        monkeypatch.setattr(triad.graph, "_WEDGE_CHUNK", chunk)
        for g, tris in zip(graphs, expected):
            assert triangles_exact_cn(g) == len(tris)
            assert list(enumerate_triangles(g)) == tris

    def test_probe_batches_stay_within_a_step(self, monkeypatch):
        # K60's lowest rank has out-degree d = 59 and C(59, 2) = 1,711
        # wedges, far more than the patched chunk: its list is split, and
        # no batch probes more than max(chunk, d - 1) wedges
        chunk = 100
        monkeypatch.setattr(triad.graph, "_WEDGE_CHUNK", chunk)
        sizes = []
        contains = triad.graph._HashSet.contains

        def spy(self, values):
            sizes.append(len(values))
            return contains(self, values)

        monkeypatch.setattr(triad.graph._HashSet, "contains", spy)
        assert triangles_exact_cn(k_complete(60)) == 34220
        # every wedge of K60 closes, so every one is probed
        assert sum(sizes) == 34220
        assert max(sizes) <= max(chunk, 58)

    def test_set_holds_only_the_keys_a_probe_can_reach(self, monkeypatch):
        # in the lb NO gadget only the A -> B edges can close a wedge: a
        # block vertex's out-list is A, B or both, no two vertices of A or
        # of B are joined, and B's out-lists are empty; so the kernel hashes
        # the p^2 = 100 keys of A's out-lists, not all m = 2,100 keys. Each
        # wedge of a kept list is probed once: the shared block's q = 10
        # lists A u B have C(2p, 2) = 190 wedges each, 1,900 in all
        g = gen_lb_instance(lb_spec(10, 10, 30, "no", seed=0))[0]
        assert g.m == 2100
        sizes, probes = [], []
        init = triad.graph._HashSet.__init__
        contains = triad.graph._HashSet.contains

        def spy(self, keys):
            sizes.append(len(keys))
            init(self, keys)

        def probe_spy(self, values):
            probes.append(len(values))
            return contains(self, values)

        monkeypatch.setattr(triad.graph._HashSet, "__init__", spy)
        monkeypatch.setattr(triad.graph._HashSet, "contains", probe_spy)
        reference = list(bisect_triangles(g))
        assert triangles_exact_cn(g) == len(reference) == 1000
        assert sum(probes) == 1900
        assert list(enumerate_triangles(g)) == reference
        assert sizes == [100, 100]
        assert sum(probes) == 2 * 1900

    def test_long_path_peels_in_many_rounds(self):
        # one vertex from each end per round: about 10k rounds at level 1
        g = path_graph(20000)
        assert degeneracy(g) == heap_degeneracy(g) == 1
        assert triangles_exact_cn(g) == 0
        assert sum_edge_degrees(g) == loop_edge_degrees(g) == 2 * 19999 - 2


class TestPerEdgeTriangles:
    def test_k3(self, k3):
        profiles = per_edge_triangles(k3)
        assert all(p.t_e == 1 for p in profiles)
        assert sum(p.t_e for p in profiles) == 3

    def test_book_spine_versus_pages(self):
        k = 25
        g, _ = gen_book(k)
        by_edge = {p.edge: p.t_e for p in per_edge_triangles(g)}
        assert by_edge[(0, 1)] == k
        assert all(t == 1 for e, t in by_edge.items() if e != (0, 1))

    def test_k4_all_edges_two(self, k4):
        assert all(p.t_e == 2 for p in per_edge_triangles(k4))

    def test_incidence_sum_is_three_t(self):
        g = gen_erdos_renyi(40, 0.3, seed=2)
        total = sum(p.t_e for p in per_edge_triangles(g))
        assert total == 3 * triangles_exact_cn(g)


class TestClassification:
    def test_book_spine_is_heavy(self):
        g, truth = gen_book(100)
        cls = classify_edges(g, 0.5, truth.triangles, truth.kappa)
        assert (0, 1) in cls.heavy_edges  # t_e = 100 > 2 / 0.5 = 4
        assert all(e == (0, 1) for e in cls.heavy_edges)
        assert not cls.heavy_triangles  # pages are never heavy

    def test_k4_has_no_heavy_edges(self, k4):
        cls = classify_edges(k4, 0.5, 4, 3)
        assert not cls.heavy_edges  # t_e = 2 <= 3 / 0.5

    def test_zero_triangle_edge_is_costly(self):
        # a triangle plus a dangling edge that closes nothing
        g = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        cls = classify_edges(g, 0.5, 1, degeneracy(g))
        assert (2, 3) in cls.costly_edges

    def test_requires_positive_t(self, k3):
        with pytest.raises(InputError):
            classify_edges(k3, 0.5, 0, 2)

    @pytest.mark.parametrize("epsilon", [0, -0.5])
    def test_requires_positive_epsilon(self, k3, epsilon):
        with pytest.raises(InputError) as exc:
            classify_edges(k3, epsilon, 1, 2)
        assert (exc.type, str(exc.value)) == (InputError,
                                              f"epsilon must be positive, got {epsilon}")


class TestHelpers:
    def test_canonical_edge(self):
        assert canonical_edge(5, 2) == (2, 5)
        with pytest.raises(InputError):
            canonical_edge(1, 1)

    def test_triangle_edges(self):
        assert triangle_edges((3, 1, 2)) == ((1, 2), (1, 3), (2, 3))
        with pytest.raises(InputError):
            triangle_edges((1, 1, 2))


class TestChibaBounds:
    def test_families(self):
        graphs = [
            k_complete(5),
            wheel_by_hand(9),
            gen_book(40)[0],
            complete_bipartite(3, 6),
            gen_erdos_renyi(35, 0.4, seed=1),
        ]
        for g in graphs:
            kappa = degeneracy(g)
            assert sum_edge_degrees(g) <= 2 * g.m * kappa
            assert triangles_exact_cn(g) <= 2 * g.m * kappa
