"""Sampler distribution checks at fixed seed schedules, plus the batching
and reproducibility contracts. Every observer is driven through `run_pass`."""

from collections import Counter
from types import SimpleNamespace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from triad.errors import InputError
from triad import sampling
from triad.graph import _HashSet, canonical_edge
from triad.idset import _DenseIndex, _rank_index
from triad.sampling import (
    ROLE_EDGE_SAMPLE,
    ROLE_NEIGHBOR,
    ClosureChecker,
    DegreeCounter,
    EdgePicker,
    _HashIndex,
    neighbor_picker,
    run_pass,
    substream,
)
from triad.stream import EdgeStream


def stream_of(edges, seed=None):
    return EdgeStream.from_edges(edges, order_seed=seed)


def edge_sample(stream, r, seed):
    # r iid uniform positions in [0, m), as the estimator's pass 1 draws
    # them; an empty stream gets positions in [0, 1), which its pass never
    # reaches
    positions = substream(seed, ROLE_EDGE_SAMPLE).integers(max(len(stream), 1), size=r)
    picker = EdgePicker(positions)
    run_pass(stream, [picker])
    return [tuple(e) for e in picker.samples().tolist()]


def neighbor_samples(edges, anchors, s, seed, stream=None):
    # positions are drawn against the anchors' degrees, which the estimator
    # knows from an earlier pass; here they come from the edge list itself
    degree = Counter(x for e in edges for x in e)
    picker, bounds = neighbor_picker(anchors, [degree[a] for a in anchors], s,
                                     substream(seed, ROLE_NEIGHBOR))
    run_pass(stream_of(edges) if stream is None else stream, [picker])
    found, b = picker.results().tolist(), bounds.tolist()
    return [found[b[i]:b[i + 1]] for i in range(len(anchors))]


def closure(stream, pairs=(), degree_vertices=()):
    pairs = [canonical_edge(*p) for p in pairs]
    checker = ClosureChecker([a for a, _ in pairs], [b for _, b in pairs])
    counter = DegreeCounter(list(degree_vertices))
    run_pass(stream, [checker, counter])
    return SimpleNamespace(present=dict(zip(pairs, checker.present().tolist())),
                           degrees=dict(zip(counter.vertices.tolist(), counter.counts.tolist())))


class TestSubstream:
    def test_same_key_same_stream(self):
        a = substream(7, 1, 2).random(5)
        b = substream(7, 1, 2).random(5)
        assert np.array_equal(a, b)

    def test_different_keys_differ(self):
        a = substream(7, 1, 2).random(5)
        b = substream(7, 1, 3).random(5)
        assert not np.array_equal(a, b)

    def test_negative_seed_rejected(self):
        with pytest.raises(InputError):
            substream(-1)


class TestUniformEdgeSample:
    def test_support_on_k3(self):
        sample = edge_sample(stream_of([(0, 1), (0, 2), (1, 2)]), 3, seed=5)
        assert len(sample) == 3
        assert set(sample) <= {(0, 1), (0, 2), (1, 2)}

    def test_two_edge_frequencies(self):
        sample = edge_sample(stream_of([(0, 1), (2, 3)]), 10_000, seed=1)
        freq = sample.count((0, 1)) / 10_000
        assert abs(freq - 0.5) < 0.02

    def test_single_edge_stream(self):
        assert edge_sample(stream_of([(4, 9)]), 1, seed=0) == [(4, 9)]

    def test_empty_stream_errors(self):
        with pytest.raises(InputError):
            edge_sample(stream_of([]), 3, seed=0)

    def test_consumes_exactly_one_pass(self):
        s = stream_of([(0, 1), (1, 2)])
        edge_sample(s, 50, seed=3)
        assert s.pass_counter == 1

    def test_reproducible(self):
        edges = [(i, i + 1) for i in range(20)]
        a = edge_sample(stream_of(edges), 40, seed=9)
        b = edge_sample(stream_of(edges), 40, seed=9)
        assert a == b


class TestWeightedRows:
    def test_every_position_maps_to_its_row(self):
        # rows 0..5 weighing 2, 0, 3, 1, 0, 2 over two calls: the axis
        # [0, 8) is every position once, so each row is picked exactly
        # weight times and the zero-weight rows never
        weights = np.array([2, 0, 3, 1, 0, 2])
        picker = EdgePicker(np.arange(weights.sum())[::-1])
        rows = np.arange(6)
        picker.observe_rows((rows[:3], 10 * rows[:3]), weights[:3])
        picker.observe_rows((rows[3:], 10 * rows[3:]), weights[3:])
        assert picker.total == 8
        assert picker.samples().tolist() == [[r, 10 * r] for r in [5, 5, 3, 2, 2, 2, 0, 0]]

    def test_position_past_the_total_rejected(self):
        picker = EdgePicker([3])
        picker.observe_rows((np.array([7]),), np.array([3]))
        with pytest.raises(InputError):
            picker.samples()


class TestNeighborSamplePass:
    def test_support_on_k3(self):
        for seed in range(20):
            res = neighbor_samples([(0, 1), (0, 2), (1, 2)], [0], 1, seed)
            assert res[0][0] in (1, 2)

    def test_star_center_uniform(self):
        # 40,000 one-slot requests on a center of degree 4 > s
        star = [(0, leaf) for leaf in range(1, 5)]
        res = neighbor_samples(star, [0] * 40_000, 1, seed=6)
        draws = np.array([slots[0] for slots in res])
        assert len(draws) == 40_000
        for leaf in range(1, 5):
            assert abs(np.mean(draws == leaf) - 0.25) < 0.02

    def test_many_requests_one_pass(self):
        edges = [(0, 1), (2, 3), (4, 5)]
        s = stream_of(edges)
        res = neighbor_samples(edges, [0, 3], 1, seed=0, stream=s)
        assert s.pass_counter == 1
        assert res[0] == [1] and res[1] == [2]

    def test_full_scan_collects_whole_neighborhood(self):
        # s at or above the degree collects every neighbor once
        star = [(0, leaf) for leaf in range(1, 6)]
        for s in (5, 9):
            res = neighbor_samples(star, [0], s, seed=0)
            assert sorted(res[0]) == [1, 2, 3, 4, 5]

    def test_position_past_the_anchor_degree_is_refused(self):
        # anchor 0 has two incident edges, so position 5 is never met
        picker = sampling.IncidentPicker([0], [5])
        run_pass(stream_of([(0, 1), (0, 2)]), [picker])
        with pytest.raises(InputError) as exc:
            picker.results()
        assert (exc.type, str(exc.value)) == (
            InputError, "a sampled position lies past its anchor's degree")

    def test_absent_anchor_yields_empty(self):
        res = neighbor_samples([(0, 1)], [7], 3, seed=0)
        assert res[0] == []

    def test_bitwise_reproducible(self):
        # anchor 0 (degree 8) is sampled, anchor 9 (degree 2) scanned whole
        edges = [(0, i) for i in range(1, 9)] + [(9, 10), (9, 11)]
        a = neighbor_samples(edges, [0, 9], 4, seed=13)
        b = neighbor_samples(edges, [0, 9], 4, seed=13)
        assert a == b
        assert [len(slots) for slots in a] == [4, 2]

    def test_slots_within_one_request_are_independent(self):
        # two slots over a three-neighbor anchor: all nine outcomes appear
        edges = [(0, 1), (0, 2), (0, 3)]
        outcomes = set()
        for seed in range(60):
            res = neighbor_samples(edges, [0], 2, seed)
            outcomes.add(tuple(res[0]))
        assert outcomes == {(a, b) for a in (1, 2, 3) for b in (1, 2, 3)}


class TestClosureCheckPass:
    def test_present_pair(self):
        res = closure(stream_of([(0, 1), (0, 2), (1, 2)]), pairs=[(1, 2)])
        assert res.present[(1, 2)] is True

    def test_absent_pair(self):
        res = closure(stream_of([(0, 1), (1, 2)]), pairs=[(0, 2)])
        assert res.present[(0, 2)] is False

    def test_degrees_on_path(self):
        res = closure(stream_of([(0, 1), (1, 2)]), degree_vertices=[0, 1, 2])
        assert res.degrees == {0: 1, 1: 2, 2: 1}

    def test_batched_in_one_pass(self):
        s = stream_of([(0, 1), (1, 2), (2, 3)])
        res = closure(s, pairs=[(0, 1), (0, 3)], degree_vertices=[1, 3])
        assert s.pass_counter == 1
        assert res.present == {(0, 1): True, (0, 3): False}
        assert res.degrees == {1: 2, 3: 1}

    def test_checker_finds_edges_and_counts_the_pair_ends(self):
        # pairs in either order, repeated, absent, and a vertex paired with itself
        edges = [(0, 1), (1, 2), (2, 3), (0, 3), (3, 5)]
        a, b = [0, 1, 3, 2, 5, 0, 3], [1, 3, 0, 3, 4, 0, 0]
        checker = ClosureChecker(a, b)
        run_pass(stream_of(edges), [checker])
        assert checker.present().tolist() == [True, False, True, True, False, False, True]
        assert checker.degrees([0, 1, 2, 3, 4, 5]).tolist() == [2, 2, 2, 3, 0, 1]


class TestDegreeLookup:
    """`DegreeCounter.degrees` after a pass, against a `bincount` reference."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_bincount_on_random_blocks(self, seed, monkeypatch):
        # small blocks, so each counter sees many of them
        monkeypatch.setattr(sampling, "BLOCK_EDGES", 37)
        rng = np.random.default_rng(seed)
        n = 300
        pairs = {canonical_edge(*p) for p in rng.integers(n, size=(2_000, 2)).tolist()
                 if p[0] != p[1]}
        edges = sorted(pairs)
        # queries include vertices the stream never names, of degree 0
        queries = rng.choice(n + 50, size=120, replace=False)
        counter = DegreeCounter(np.concatenate((queries, queries[:30])))
        run_pass(stream_of(edges, seed=seed), [counter])
        reference = np.bincount(np.array(edges).ravel(), minlength=n + 50)
        flat = rng.choice(queries, size=500)
        assert counter.degrees(flat).tolist() == reference[flat].tolist()
        rows = rng.choice(queries, size=(250, 2))
        got = counter.degrees(rows)
        assert got.shape == (250, 2)
        assert got.tolist() == reference[rows].tolist()
        assert counter.degrees(flat.tolist()).tolist() == reference[flat].tolist()

    def test_uncounted_vertex_raises(self):
        counter = DegreeCounter([1, 2])
        run_pass(stream_of([(0, 1), (1, 2)]), [counter])
        assert counter.degrees([[1, 2], [2, 2]]).tolist() == [[2, 1], [1, 1]]
        with pytest.raises(InputError, match="vertex 0 was not counted"):
            counter.degrees([1, 0])
        with pytest.raises(InputError, match="vertex 5 was not counted"):
            counter.degrees(np.array([[1, 2], [5, 1]]))

    def test_empty_query_set(self):
        counter = DegreeCounter([])
        run_pass(stream_of([(0, 1), (1, 2)]), [counter])
        assert counter.degrees([]).shape == (0,)
        assert counter.degrees(np.empty((0, 2), dtype=np.int64)).shape == (0, 2)
        with pytest.raises(InputError):
            counter.degrees([1])


def searchsorted_lookup(keys, needles):
    """The binary-search reference: position in the sorted keys, and hit."""
    idx = np.searchsorted(keys, needles)
    if len(keys) == 0:
        return idx, np.zeros(len(needles), dtype=bool)
    return idx, keys[np.minimum(idx, len(keys) - 1)] == needles


def assert_matches_reference(keys, needles):
    keys = np.asarray(keys, dtype=np.int64)
    index = _HashIndex(keys)
    rank = index.ranks(needles)
    hit = rank >= 0
    ref_idx, ref_hit = searchsorted_lookup(keys, np.asarray(needles, dtype=np.int64))
    assert rank.dtype == np.int32
    assert np.array_equal(hit, ref_hit)
    assert np.array_equal(rank[hit], ref_idx[ref_hit])
    return index


def longest_filled_run(index) -> int:
    """The longest run of consecutive filled slots in a hash set's slots."""
    filled = np.concatenate(([0], (index._slots >= 0).view(np.int8), [0]))
    edges = np.flatnonzero(np.diff(filled))
    return int((edges[1::2] - edges[0::2]).max(initial=0))


def key_family(name, k, rng):
    """k distinct non-negative ids of one shape, sorted."""
    j = np.arange(k, dtype=np.int64)
    if name == "consecutive":
        return j
    if name == "multiples-2**20":
        return j << 20
    if name == "multiples-2**32":
        return j << 32
    if name == "stride-1000003":
        return j * 1_000_003
    if name == "down-from-2**63-1":
        return np.sort((2**63 - 1) - j)
    if name == "random-63-bit":
        return np.unique(rng.integers(2**63 - 1, size=k, dtype=np.int64))
    # ClosureChecker's pair keys: lo * kv + hi over ranks below kv
    kv = 5_000
    a, b = rng.integers(kv, size=(2, 2 * k))
    return np.unique(np.minimum(a, b) * kv + np.maximum(a, b))[:k]


KEY_FAMILIES = ["consecutive", "multiples-2**20", "multiples-2**32", "stride-1000003",
                "down-from-2**63-1", "random-63-bit", "pair-keys"]


class TestHashIndex:
    @pytest.mark.parametrize("family", KEY_FAMILIES)
    def test_matches_binary_search_on_key_families(self, family):
        rng = np.random.default_rng(11)
        keys = key_family(family, 60_000, rng)
        assert len(keys) == 60_000
        # every key, its neighbours on both sides, and random ids
        needles = np.concatenate((keys, keys - 1, keys + 1,
                                  rng.integers(2**63 - 1, size=60_000, dtype=np.int64)))
        rng.shuffle(needles)
        index = assert_matches_reference(keys, needles)
        # a lookup round reads one filled slot per unresolved needle, so no
        # needle walks past the longest run; a clustering hash would show
        # here as a run in the thousands
        assert 1 <= longest_filled_run(index) <= 64

    def test_table_is_linear_in_the_keys(self):
        for k in (1, 2, 3, 1000, 4096, 4097):
            index = _HashIndex(np.arange(k))
            home_slots = 1 << (64 - int(index._shift))
            assert 2 * k <= home_slots < 4 * k
            # the table ends at the empty slot after the last filled one
            last = int(np.flatnonzero(index._table >= 0)[-1])
            assert len(index._table) == max(home_slots, last + 2) <= home_slots + k + 1
            assert index._table.dtype == np.int32

    def test_empty_keys(self):
        index = assert_matches_reference([], [0, 5, 2**63 - 1])
        assert index.ranks(np.array([0, 5], dtype=np.int64)).tolist() == [-1, -1]

    def test_empty_needles(self):
        assert len(_HashIndex(np.arange(10)).ranks(np.zeros(0, dtype=np.int64))) == 0

    def test_all_misses(self):
        keys = np.arange(0, 2_000, 2)
        assert (_HashIndex(keys).ranks(np.arange(1, 2_000, 2)) == -1).all()

    def test_negative_keys_and_needles(self):
        # keys are non-negative, so an empty slot holds -1; a negative key is
        # refused, and a negative needle, -1 included, misses
        for keys in ([-1], [0, -7], [-(2**63), 2**63 - 1]):
            with pytest.raises(ValueError, match="non-negative"):
                _HashIndex(np.array(keys, dtype=np.int64))
        keys = [0, 7, 2**63 - 1]
        assert_matches_reference(keys, [-1, -2, -(2**63), 0, 7, -1, 2**63 - 1, 5, -8])
        assert_matches_reference([2**63 - 1], [2**63 - 1] * 3 + list(range(-20, 20)))

    def test_read_only_needle_views(self):
        edges = [(i, 3 * i + 1) for i in range(500)]
        stream = stream_of(edges, seed=4)
        stream.begin_pass()
        u, v = stream.next_block(1 << 16)
        stream.end_pass()
        assert not u.flags.writeable and not v.flags.writeable
        keys = np.arange(0, 1_600, 5)
        for column in (u, v, u[::3]):
            assert_matches_reference(keys, column)
        flat = np.arange(1_000, dtype=np.int64)
        flat.flags.writeable = False
        assert_matches_reference(keys, flat[1::2])

    @given(st.sets(st.integers(0, 2**63 - 1), max_size=300),
           st.lists(st.integers(-(2**63), 2**63 - 1), max_size=300),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_binary_search_on_arbitrary_sets(self, keys, others, data):
        keys = sorted(keys)
        picked = data.draw(st.lists(st.sampled_from(keys), max_size=300)) if keys else []
        needles = data.draw(st.permutations(others + picked))
        assert_matches_reference(keys, np.array(needles, dtype=np.int64))


def assert_contains_matches_reference(keys, needles):
    """`_HashSet.contains` against the binary-search reference; the set
    takes its keys in any order and builds no rank table."""
    keys = np.asarray(keys, dtype=np.int64)
    needles = np.asarray(needles, dtype=np.int64)
    members = _HashSet(np.random.default_rng(3).permutation(keys))
    assert not hasattr(members, "_table")
    # -1, the value an empty slot holds, is a needle like any other
    needles = np.append(needles, -1)
    hit = members.contains(needles)
    assert hit.dtype == bool
    assert np.array_equal(hit, searchsorted_lookup(np.sort(keys), needles)[1])
    return members


class TestHashSet:
    @pytest.mark.parametrize("family", KEY_FAMILIES)
    def test_contains_matches_binary_search_on_key_families(self, family):
        rng = np.random.default_rng(12)
        keys = key_family(family, 60_000, rng)
        needles = np.concatenate((keys, keys - 1, keys + 1,
                                  rng.integers(2**63 - 1, size=60_000, dtype=np.int64)))
        rng.shuffle(needles)
        members = assert_contains_matches_reference(keys, needles)
        assert 1 <= longest_filled_run(members) <= 64

    def test_empty_value_is_no_key(self):
        for keys in ([], [0], [1], [2**63 - 1], [0, 2**63 - 1], [0, 1, 2**63 - 1]):
            members = assert_contains_matches_reference(keys, keys + [0, -1, 1, -(2**63)])
            # every slot holds a key or -1
            assert set(members._slots.tolist()) - set(keys) == {-1}

    @given(st.sets(st.integers(0, 2**63 - 1), max_size=300),
           st.lists(st.integers(-(2**63), 2**63 - 1), max_size=300),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_contains_matches_binary_search_on_arbitrary_sets(self, keys, others, data):
        keys = sorted(keys)
        picked = data.draw(st.lists(st.sampled_from(keys), max_size=300)) if keys else []
        needles = data.draw(st.permutations(others + picked))
        assert_contains_matches_reference(keys, needles)

    @given(st.sets(st.integers(0, 400), max_size=300),
           st.lists(st.integers(-(2**63), -1), max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_contains_matches_binary_search_on_negative_needles(self, keys, others):
        keys = sorted(keys | set(range(0, 200, 3)))
        assert_contains_matches_reference(keys, others + [-k for k in keys] + keys)


def assert_index_matches_reference(index, keys, needles):
    """An index's `ranks` against the binary-search reference: the int32
    index, -1 on a miss."""
    keys = np.asarray(keys, dtype=np.int64)
    needles = np.asarray(needles, dtype=np.int64)
    ref_idx, ref_hit = searchsorted_lookup(keys, needles)
    rank = index.ranks(needles)
    assert rank.dtype == np.int32
    assert np.array_equal(rank, np.where(ref_hit, ref_idx, -1))


def dense_family(name, k, rng):
    """k distinct non-negative ids that fill much of [0, largest], sorted."""
    j = np.arange(k, dtype=np.int64)
    if name == "consecutive":
        return j
    if name == "stride-3":
        return 3 * j
    if name == "half-of-2k":
        return np.sort(rng.choice(2 * k, size=k, replace=False))
    # a block far from 0: the table spans [0, 2**20 + k]
    return j + (1 << 20)


DENSE_FAMILIES = ["consecutive", "stride-3", "half-of-2k", "offset-2**20"]

# needles that every index must miss unless they are keys: the ends of int64
EDGE_NEEDLES = [-1, -2, -(2**63), 2**63 - 1, 2**63 - 2, 0]


class TestDenseIndex:
    @pytest.mark.parametrize("family", DENSE_FAMILIES)
    def test_matches_binary_search_on_dense_families(self, family):
        rng = np.random.default_rng(13)
        keys = dense_family(family, 60_000, rng)
        top = int(keys[-1])
        needles = np.concatenate((
            keys, keys - 1, keys + 1, -keys, [top + 1, top + 2, 2 * top], EDGE_NEEDLES,
            rng.integers(-(2**63), 2**63 - 1, size=20_000, dtype=np.int64),
            rng.integers(-5, top + 5, size=20_000)))
        rng.shuffle(needles)
        for index in (_DenseIndex(keys), _HashIndex(keys)):
            assert_index_matches_reference(index, keys, needles)

    def test_table_spans_the_keys_and_one_more_slot(self):
        index = _DenseIndex(np.array([2, 5, 9]))
        assert index._table.tolist() == [-1, -1, 0, -1, -1, 1, -1, -1, -1, 2, -1]
        assert index._table.dtype == np.int32

    def test_keys_in_any_order_answer_their_index(self):
        keys = np.array([7, 0, 3, 2**20])
        for index in (_DenseIndex(keys), _HashIndex(keys)):
            assert index.ranks([3, 7, 2**20, 0, 1]).tolist() == [2, 0, 3, 1, -1]

    def test_empty_keys(self):
        index = _DenseIndex(np.zeros(0, dtype=np.int64))
        assert_index_matches_reference(index, [], EDGE_NEEDLES + [5])
        assert index.ranks(np.zeros(0, dtype=np.int64)).shape == (0,)

    def test_largest_id_as_a_needle(self):
        # 2**63 - 1 lies past every table; so does -1 read as uint64
        keys = [0, 1, 4]
        assert_index_matches_reference(_DenseIndex(keys), keys, EDGE_NEEDLES + [4, 5])

    def test_read_only_needle_views(self):
        edges = [(i, 3 * i + 1) for i in range(500)]
        stream = stream_of(edges, seed=4)
        stream.begin_pass()
        u, v = stream.next_block(1 << 16)
        stream.end_pass()
        assert not u.flags.writeable and not v.flags.writeable
        keys = np.arange(0, 1_600, 5)
        index = _DenseIndex(keys)
        for column in (u, v, u[::3], v[1::2]):
            assert_index_matches_reference(index, keys, column)

    @given(st.sets(st.integers(0, 3_000), max_size=300),
           st.lists(st.integers(-(2**63), 2**63 - 1), max_size=300),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_binary_search_on_arbitrary_sets(self, keys, others, data):
        keys = sorted(keys)
        picked = data.draw(st.lists(st.sampled_from(keys), max_size=300)) if keys else []
        near = [k + d for k in keys[-3:] for d in (1, 2)]
        needles = data.draw(st.permutations(others + picked + near + EDGE_NEEDLES))
        assert_index_matches_reference(_DenseIndex(keys), keys, needles)


class TestRankIndexFactory:
    @staticmethod
    def hash_bytes(keys) -> int:
        """What a hash over the keys takes at least: 12 bytes per home slot."""
        index = _HashIndex(keys)
        return 12 << (64 - int(index._shift))

    @pytest.mark.parametrize("k", [2, 3, 100, 4096, 4097, 60_000])
    def test_sparse_ids_get_the_hash_and_dense_ids_the_table(self, k):
        j = np.arange(k, dtype=np.int64)
        assert type(_rank_index(j << 20)) is _HashIndex
        assert type(_rank_index(j)) is _DenseIndex
        assert type(_rank_index(j[::-1] * 3)) is _DenseIndex

    @pytest.mark.parametrize("k", [1, 2, 5, 1000, 4096, 4097])
    def test_rule_at_its_boundary(self, k):
        # the table holds top + 2 int32 slots; the hash 2**b home slots of
        # 12 bytes. The table is taken up to 4 (top + 2) = 12 * 2**b
        home = 12 << (64 - int(_HashIndex(np.arange(k))._shift))
        top = home // 4 - 2
        keys = np.append(np.arange(k - 1), top)
        table = _rank_index(keys)
        assert type(table) is _DenseIndex and table._table.nbytes == home
        keys[-1] = top + 1
        assert type(_rank_index(keys)) is _HashIndex

    def test_table_is_never_larger_than_the_hash(self):
        rng = np.random.default_rng(5)
        picked = {_DenseIndex: 0, _HashIndex: 0}
        for _ in range(300):
            k = int(rng.integers(1, 3_000))
            keys = np.unique(rng.integers(int(rng.integers(k, 16 * k)), size=k))
            index = _rank_index(keys)
            picked[type(index)] += 1
            dense_bytes = 4 * (int(keys[-1]) + 2)
            assert (dense_bytes <= self.hash_bytes(keys)) == (type(index) is _DenseIndex)
            if type(index) is _DenseIndex:
                assert index._table.nbytes == dense_bytes
            assert_index_matches_reference(index, keys, np.arange(-2, int(keys[-1]) + 3))
        assert min(picked.values()) > 50

    def test_negative_keys_are_refused(self):
        with pytest.raises(ValueError, match="non-negative"):
            _rank_index(np.array([-1, 0, 3]))


def random_graph(rng, n, m):
    pairs = {canonical_edge(*p) for p in rng.integers(n, size=(m, 2)).tolist() if p[0] != p[1]}
    return sorted(pairs)


class TestObserversAcrossBlocks:
    """Blocks of 37 edges against one block: counts carry across blocks and
    a slot is often filled blocks after its anchor was first met. Dense ids
    take the rank table, ids spread by 2**33 the hash."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("spread, kind", [(1, _DenseIndex), (2**33, _HashIndex)])
    def test_many_blocks_match_one(self, seed, spread, kind, monkeypatch):
        rng = np.random.default_rng(seed)
        edges = [(spread * u + 5, spread * v + 5) for u, v in random_graph(rng, 120, 1_500)]
        order = read_order(edges, seed)
        incident = {}
        for u, v in order:
            incident.setdefault(u, []).append(v)
            incident.setdefault(v, []).append(u)
        ids = sorted(incident)
        # anchors with repeats, each position below its degree, many late
        anchors = rng.choice(ids, size=400)
        positions = [int(rng.integers(len(incident[a]))) for a in anchors]
        a, b = rng.choice(ids, size=(2, 300))

        def run(block):
            monkeypatch.setattr(sampling, "BLOCK_EDGES", block)
            picker = sampling.IncidentPicker(anchors, positions)
            checker = ClosureChecker(a, b)
            assert type(picker._index) is kind and type(checker._index) is kind
            run_pass(stream_of(edges, seed=seed), [picker, checker])
            return (picker.results(), picker.degrees(anchors), checker.present(),
                    checker.degrees(np.concatenate((a, b))))

        many, one = run(37), run(1 << 16)
        for x, y in zip(many, one):
            assert np.array_equal(x, y)
        assert many[0].tolist() == [incident[x][p] for x, p in zip(anchors.tolist(), positions)]
        edge_set = set(order)
        assert many[2].tolist() == [(min(p), max(p)) in edge_set
                                    for p in zip(a.tolist(), b.tolist())]


def read_order(edges, seed):
    """The edges in the order a stream over them with this order seed reads them."""
    stream = stream_of(edges, seed=seed)
    stream.begin_pass()
    u, v = stream.next_block(len(edges))
    stream.end_pass()
    return list(zip(u.tolist(), v.tolist()))
