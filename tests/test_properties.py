"""Property-based checks of the oracle invariants and the sampling/
assignment contracts, over randomly generated small graphs, and of the
columnar edge-list parse against the per-line specification."""

import io
import tempfile
import weakref
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, example, given, settings

from triad import edgelist, sampling
from triad.assignment import (
    AssignmentTable, EdgeEstimate, INFINITY, assign_rows, assign_triangle, load_cutoff)
from triad.errors import EdgeListError
from triad.estimator import EstimatorConfig, _anchor_ends, _drive, _Repetition
from triad.graph import (
    Graph,
    degeneracy,
    per_edge_triangles,
    pick_anchor,
    sum_edge_degrees,
    triangle_edges,
    triangles_exact_cn,
    triangles_exact_naive,
)
from triad.idset import _presence, _relabel
from triad.sampling import ClosureChecker, DegreeCounter, EdgePicker, IncidentPicker, run_pass
from triad.stream import EdgeStream

from conftest import brute_degeneracy, brute_triangle_count, read_pass, small_graphs


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
    first = read_pass(s)
    assert sorted(first) == sorted(edges)
    assert read_pass(s) == first
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
        outcomes.append([(rep.x, rep.flags, rep.peak_items, rep.ell, rep.memo.tolist(),
                          rep.charged.tolist()) for rep in reps])
    assert outcomes[0] == outcomes[1]


class DrawKeeper(_Repetition):
    """A repetition whose release does nothing: it keeps its draws and their
    neighbors through passes 5 and 6, and only settling empties them."""

    def _drop_draws(self):
        pass

    def _drop_samples(self):
        _Repetition._drop_draws(self)
        super()._drop_samples()


class CopyKeeper(_Repetition):
    """A repetition that holds one copy of its drawn edge and degrees per
    draw, each draw referencing its own row."""

    def _draw(self, edges, ends, draws):
        self.draw_rows = np.arange(len(draws))
        self.drawn_edges, self.drawn_ends = edges[draws], ends[draws]
        self.drawn_anchors, self.drawn_others = _anchor_ends(
            *self.drawn_edges.T, *self.drawn_ends.T)


class DrawWatcher(_Repetition):
    """A repetition that checks its drawn edges and per-draw arrays from
    stage 2 are freed once stage_end(3) returns."""

    def stage_end(self, stage):
        names = ("drawn_edges", "drawn_ends", "drawn_anchors", "drawn_others", "draw_rows",
                 "neighbors")
        refs = [weakref.ref(getattr(self, name)) for name in names] if stage == 3 else []
        super().stage_end(stage)
        assert [name for name, ref in zip(names, refs) if ref() is not None] == []


@given(small_graphs(min_n=3), st.integers(0, 2**20), st.integers(0, 2**20))
@settings(max_examples=60, deadline=None)
def test_dropping_the_draws_changes_only_storage(g, seed, order_seed):
    # the abort budget is out of reach, so storage decides nothing
    assume(g.m > 0)
    cfg = EstimatorConfig(epsilon=0.2, t_hat=max(1, triangles_exact_cn(g)),
                          kappa_hat=max(1, degeneracy(g)), repetitions=3,
                          seed=seed, scale=0.01, exact_fallback=False, abort_multiplier=1e6)
    runs = []
    for cls, shared in ((DrawWatcher, False), (DrawWatcher, True), (DrawKeeper, False),
                        (CopyKeeper, False), (CopyKeeper, True)):
        stream = EdgeStream.from_edges(g.edge_list(), order_seed=order_seed)
        reps = [cls(stream.stats(), cfg, rep=i) for i in range(cfg.repetitions)]
        _drive(stream, [reps] if shared else [[rep] for rep in reps])
        runs.append(reps)
    # each keeper holds more than the real run, sequentially or shared
    for keeper in runs[2:]:
        for kept, real in zip(keeper, runs[0]):
            assert (real.x, real.ell, real.memo.tolist(), real.charged.tolist(),
                    real.assignment_calls) == (kept.x, kept.ell, kept.memo.tolist(),
                                               kept.charged.tolist(), kept.assignment_calls)
            # the keeper may store more than m where the real run does not
            assert [fl for fl in kept.flags if fl in real.flags] == real.flags
            assert set(kept.flags) - set(real.flags) <= {"no-space-advantage"}
            assert real.peak_items <= kept.peak_items


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
    order = read_pass(stream)  # the pass order every later pass repeats
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
    anchors = [a for a, _ in slots]
    assert neighbors.degrees(anchors).tolist() == [len(incident[a]) for a in anchors]
    assert dict(zip(counter.vertices.tolist(), counter.counts.tolist())) == {
        x: len(incident[x]) for x in degree_vertices}
    edge_set = set(order)
    assert closure.present().tolist() == [(min(p), max(p)) in edge_set for p in pairs]
    ends = [x for pair in pairs for x in pair]
    assert closure.degrees(ends).tolist() == [len(incident[x]) for x in ends]
    # brute force: row (u, v, w) repeated w times, indexed by position
    rows = [(u, v, w) for (u, v), w in zip(order, weights) for _ in range(w)]
    assert weighted_picker.total == len(rows)
    assert [tuple(r) for r in weighted_picker.samples().tolist()] == [rows[p] for p in weighted]
    # the estimator's anchor rule on the pass's edges and their degrees, ties
    # included, against the scalar rule
    u, v = np.array(order, dtype=np.int64).reshape(-1, 2).T
    degree = np.vectorize(lambda x: len(incident[x]), otypes=[np.int64])
    anchors, others = _anchor_ends(u, v, degree(u), degree(v))
    want = [pick_anchor(a, b, len(incident[a]), len(incident[b])) for a, b in order]
    assert anchors.tolist() == want
    assert others.tolist() == [b if x == a else a for (a, b), x in zip(order, want)]


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
        if assign_triangle(tri, est, eps, kappa_hat, table) == edges[which]:
            yes_edges.add(edges[which])
    assert len(yes_edges) <= 1


@given(
    st.lists(st.tuples(*[st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.0, INFINITY])] * 3),
             max_size=20),
    st.floats(0.05, 0.45),
    st.integers(1, 4),
)
@settings(max_examples=150)
def test_columnar_rule_matches_the_per_triangle_minimum(rows, eps, kappa_hat):
    # the reference: the smallest (estimate, edge) pair, canonical edges
    # breaking ties, and no edge when that estimate exceeds the load cutoff
    edges = triangle_edges((0, 1, 2))
    want = []
    for ys in rows:
        y, edge = min(zip(ys, edges))
        want.append(-1 if y > load_cutoff(eps, kappa_hat) else edges.index(edge))
    assert assign_rows(np.array(rows).reshape(-1, 3), eps, kappa_hat).tolist() == want


@given(st.integers(3, 40), st.integers(0, 2**16))
@settings(max_examples=40)
def test_infinite_estimates_never_assign(n_unused, seed_unused):
    tri = (0, 1, 2)
    edges = triangle_edges(tri)
    est = {e: EdgeEstimate(e, 3, INFINITY) for e in edges}
    table = AssignmentTable()
    assert not any(assign_triangle(tri, est, 0.25, 2, table) == e for e in edges)


# ids from a small pool, so repeats and self-loops are common, plus the
# edges of the id range: 2**63 - 1 and 2**63, leading zeros past 19 digits
# on both sides of it, and 2**64
_IDS = st.one_of(
    st.sampled_from([b"0", b"1", b"2", b"7", b"07", b"9223372036854775807",
                     b"9223372036854775808", b"18446744073709551616",
                     b"0000000000000000000007", b"00000000000000000000009223372036854775807",
                     b"00000000000000000000009223372036854775808"]),
    st.integers(0, 2**64).map(lambda i: str(i).encode()),
)
_ID_FIELDS = st.tuples(
    st.sampled_from([b""] * 24 + [b"-", b"+", b"#"]),
    _IDS,
    st.sampled_from([b""] * 24 + [b"_0", "\u0660".encode(), b"\xc3\xa9", b"\xff", b"x"]),
).map(b"".join)
_SPACES = st.sampled_from([b" ", b"\t", b"  ", b"\x0b", b"\x0c", b" \r "])
_EDGE_LINES = st.tuples(
    st.sampled_from([b""] * 3 + [b" ", b"\t"]),
    st.one_of(*[st.lists(_ID_FIELDS, min_size=2, max_size=2)] * 4, st.lists(_ID_FIELDS, max_size=3)),
    _SPACES,
    st.sampled_from([b""] * 3 + [b"\r", b" "]),
).map(lambda p: p[0] + p[2].join(p[1]) + p[3])
_OTHER_LINES = st.sampled_from([
    b"", b"  ", b"\r", b"# comment", b"#\xff caf\xc3\xa9", b"  # 1 2", b"#", b"\x0c",
    b"1 1", b"01 1", b"2 1", b"1 2", b"1 02", b"-3 4", b"+3 4", b"1_0 2",
    b"0 1\r0 2", b"caf\xc3\xa9 1",
])
# plain edges over a few ids, so files of many good lines and repeats are common
_PLAIN_LINES = st.tuples(st.integers(0, 30), _SPACES, st.integers(0, 30)).map(
    lambda p: b"%d%s%d" % p)
_FILES = st.tuples(
    st.lists(st.one_of(*[_PLAIN_LINES] * 12, *[_EDGE_LINES] * 2, _OTHER_LINES), max_size=30),
    st.booleans(),
).map(lambda p: b"\n".join(p[0]) + (b"\n" if p[1] and p[0] else b""))


def per_line_parse(data: bytes):
    """The specification: `parse_line` on each line, and a seen-set that
    reports a repeated edge at its second occurrence."""
    out, seen = [], set()
    try:
        for lineno, raw in enumerate(io.BytesIO(data), start=1):
            edge = edgelist.parse_line(raw, lineno)
            if edge is not None:
                if edge in seen:
                    raise EdgeListError(f"duplicate edge {edge[0]} {edge[1]}", lineno)
                seen.add(edge)
                out.append(edge)
    except EdgeListError as exc:
        return str(exc)
    return out


@given(_FILES)
@settings(max_examples=400, deadline=None)
def test_columnar_parse_matches_the_per_line_specification(data):
    want = per_line_parse(data)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.el"
        path.write_bytes(data)
        for chunk in (1, 2, 7, 16, edgelist.CHUNK_BYTES):
            with mock.patch.object(edgelist, "CHUNK_BYTES", chunk):
                try:
                    edges = edgelist.read_edges(path)
                except EdgeListError as exc:
                    got = str(exc)
                else:
                    assert edges.dtype == np.int64 and edges.shape == (len(edges), 2)
                    got = [tuple(e) for e in edges.tolist()]
            assert got == want, chunk


def graph_load(path):
    """`Graph.from_file` as `per_line_parse` reports it: the edges in the
    file's ids, sorted, or the error message."""
    try:
        g = Graph.from_file(path)
    except EdgeListError as exc:
        return str(exc)
    return sorted((g.labels[u], g.labels[v]) for u, v in g.edges())


def edge_list(path):
    """`read_edges` as `per_line_parse` reports it."""
    try:
        edges = edgelist.read_edges(path)
    except EdgeListError as exc:
        return str(exc)
    assert edges.dtype == np.int64 and edges.shape == (len(edges), 2)
    return [tuple(e) for e in edges.tolist()]


def assert_loads_match(data, read_edges_too):
    """`Graph.from_file`, and `read_edges` if asked, give what
    `per_line_parse` gives, at chunk sizes from one byte to the default."""
    want = per_line_parse(data)
    want_graph = sorted(want) if isinstance(want, list) else want
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.el"
        path.write_bytes(data)
        for chunk in (1, 2, 7, 16, edgelist.CHUNK_BYTES):
            with mock.patch.object(edgelist, "CHUNK_BYTES", chunk):
                assert graph_load(path) == want_graph, chunk
                if read_edges_too:
                    assert edge_list(path) == want, chunk


@given(_FILES)
@settings(max_examples=400, deadline=None)
def test_graph_load_matches_the_per_line_specification(data):
    assert_loads_match(data, read_edges_too=False)


# plain lines, which the one-pass parse of a chunk takes: ids from a small
# pool, so self-loops and repeats are common, some with leading zeros, and
# now and then an id at either side of 2**63; one space or tab between
_PLAIN_TEXT_IDS = st.one_of(
    *[st.tuples(st.sampled_from([b""] * 4 + [b"0", b"00"]),
                st.integers(0, 30).map(b"%d".__mod__)).map(b"".join)] * 12,
    st.sampled_from([b"9223372036854775807", b"9223372036854775808", b"18446744073709551616",
                     b"00000000000000000000009223372036854775807",
                     b"00000000000000000000009223372036854775808"]),
)
_PLAIN_TEXT_FILES = st.tuples(
    st.sampled_from([b"", b"# header\n", b"# family=lb\n#\xff\n"]),
    st.lists(st.tuples(_PLAIN_TEXT_IDS, st.sampled_from([b" ", b"\t"]), _PLAIN_TEXT_IDS)
             .map(b"".join), max_size=30),
    st.booleans(),
).map(lambda p: p[0] + b"\n".join(p[1]) + (b"\n" if p[2] and p[1] else b""))


@given(_PLAIN_TEXT_FILES)
@settings(max_examples=400, deadline=None)
def test_plain_files_match_the_per_line_specification(data):
    assert_loads_match(data, read_edges_too=True)


# plain ids from a small pool, so self-loops and repeats are common
_PLAIN_IDS = st.integers(0, 30)
_PLAIN_PAIRS = st.one_of(st.tuples(_PLAIN_IDS, _PLAIN_IDS),
                         st.lists(_PLAIN_IDS, min_size=2, max_size=2))
# ids the columnar checks must refuse, or that a columnar read would
# silently coerce: negative ints, ints on either side of 2**63, bools,
# numpy integers, floats and strings
_ODD_IDS = st.one_of(
    st.integers(-2, -1),
    st.integers(2**63 - 1, 2**63 + 1),
    st.just(2**64),
    st.booleans(),
    st.integers(0, 30).map(np.int64),
    st.integers(0, 30).map(np.uint8),
    st.sampled_from([0.0, 2.5, 3.0, float("nan"), np.float64(1.0), "7", "a"]),
)
_ANY_IDS = st.one_of(_PLAIN_IDS, _ODD_IDS)
# mostly pairs, some with an odd id; 1- and 3-tuples, and ints with no length
_ANY_PAIRS = st.one_of(_PLAIN_PAIRS, st.tuples(_ANY_IDS, _ANY_IDS), st.tuples(_ANY_IDS),
                       st.tuples(_ANY_IDS, _ANY_IDS, _ANY_IDS), st.integers(0, 3))


def pairwise_validation(pairs):
    """The specification: `_validate_pairs`, one pair at a time."""
    try:
        return edgelist._validate_pairs(pairs).tolist()
    except EdgeListError as exc:
        return str(exc), exc.lineno


@given(st.one_of(st.lists(_PLAIN_PAIRS, max_size=20), st.lists(_ANY_PAIRS, max_size=20)),
       st.booleans())
@settings(max_examples=400, deadline=None)
def test_columnar_validation_matches_the_pairwise_specification(pairs, as_iterator):
    want = pairwise_validation(pairs)
    try:
        edges = edgelist.validate_edges(iter(pairs) if as_iterator else pairs)
    except EdgeListError as exc:
        got = str(exc), exc.lineno
    else:
        assert edges.dtype == np.int64 and edges.shape == (len(edges), 2)
        got = edges.tolist()
    assert got == want


def lexsort_first_repeat(edges):
    """The specification: a stable lexsort by (u, v) puts each repeat right
    after an earlier copy, and the first repeat in order is the least row
    equal to the row before it."""
    if len(edges) < 2:
        return None
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    ranked = edges[order]
    same = (ranked[1:] == ranked[:-1]).all(axis=1)
    return int(order[1:][same].min()) if same.any() else None


# ids that fit the sort key u * (max v + 1) + v, and ids near 2**63 that do not
_KEYED_IDS = st.integers(0, 40)
_HUGE_IDS = st.integers(2**63 - 40, 2**63 - 1)


@given(st.one_of(st.lists(st.tuples(_KEYED_IDS, _KEYED_IDS), max_size=60),
                 st.lists(st.tuples(_KEYED_IDS, _KEYED_IDS), max_size=60, unique=True),
                 st.lists(st.tuples(st.one_of(_KEYED_IDS, _HUGE_IDS),
                                    st.one_of(_KEYED_IDS, _HUGE_IDS)), max_size=60)))
@example([(0, 2**63 - 1), (0, 2**63 - 1)])
@example([(0, 2**62), (1, 2**62 - 1), (0, 2**62)])
@settings(max_examples=400, deadline=None)
def test_sorted_key_repeat_check_matches_the_lexsort_specification(pairs):
    pairs = [(min(p), max(p)) for p in pairs if p[0] != p[1]]
    edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    assert edgelist._first_repeat(edges) == lexsort_first_repeat(edges)


@pytest.mark.parametrize("repeat", [False, True])
@pytest.mark.parametrize("u, v", [(0, 2**31 - 2), (0, 2**31 - 1), (2**15 - 1, 2**16 - 2),
                                  (2**15 - 1, 2**16 - 1)])
def test_repeat_check_either_side_of_int32_keys(u, v, repeat):
    # u and v are the largest ids, so the key bound (u + 1) * (v + 1) is
    # 2**31 - 1, 2**31, 2**31 - 2**15 and 2**31: the sort key is int32 in
    # the first and third cases and int64 in the others
    pairs = [(u, v), (0, 1), (u, v - 1), (0, v - 2), (u, 2)] + [(u, v - 1)] * repeat + [(0, 3)]
    edges = np.array(pairs, dtype=np.int64)
    assert edgelist._first_repeat(edges) == lexsort_first_repeat(edges) == (5 if repeat else None)


@given(st.one_of(st.lists(st.integers(0, 60), max_size=80),
                 st.lists(st.integers(0, 2**63 - 1), max_size=80)))
@settings(max_examples=300, deadline=None)
def test_presence_relabel_matches_unique(ids):
    ends = np.array(ids[:len(ids) // 2 * 2], dtype=np.int64).reshape(-1, 2)
    want_ids, want = np.unique(ends, return_inverse=True)
    got_ids, got = _relabel(ends)
    # the mark is used exactly when the largest id is below twice the entries
    dense = ends.size > 0 and int(ends.max()) < 2 * ends.size
    assert (_presence((ends,)) is not None) == (dense or ends.size == 0)
    assert got_ids.dtype == np.int64 and got.dtype == np.int64
    assert got_ids.tolist() == want_ids.tolist()
    assert got.shape == ends.shape
    assert got.tolist() == want.reshape(ends.shape).tolist()
