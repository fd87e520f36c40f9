"""Pass protocol, replay determinism, and edge-list validation."""

import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from triad import edgelist, sampling
from triad.edgelist import parse_line, read_edges
from triad.errors import EdgeListError, StreamUsageError
from triad.estimator import EstimatorConfig, estimate
from triad.generators import gen_book, gen_wheel
from triad.graph import Graph
from triad.ideal import DegreeOracle, ideal_estimate
from triad.stream import EdgeStream, StreamStats

from conftest import read_pass


K3_TEXT = "0 1\n0 2\n1 2\n"


def k3_file(tmp_path):
    p = tmp_path / "k3.el"
    p.write_text(K3_TEXT)
    return p


class TestOpenAndValidate:
    def test_k3_file_stats(self, tmp_path):
        s = EdgeStream.from_file(k3_file(tmp_path))
        assert s.pass_counter == 0
        assert s.stats() == StreamStats(n=3, m=3)
        assert s.pass_counter == 1

    def test_stats_cached_after_first_pass(self, tmp_path):
        s = EdgeStream.from_file(k3_file(tmp_path))
        s.stats()
        s.stats()
        assert s.pass_counter == 1

    def test_two_seeds_same_multiset_different_order(self, tmp_path):
        path = tmp_path / "p.el"
        path.write_text("".join(f"{i} {i + 1}\n" for i in range(12)))
        a = read_pass(EdgeStream.from_file(path, order_seed=1))
        b = read_pass(EdgeStream.from_file(path, order_seed=2))
        assert sorted(a) == sorted(b)
        assert a != b

    def test_self_loop_rejected_with_line_number(self, tmp_path):
        p = tmp_path / "bad.el"
        p.write_text("0 1\n1 1\n")
        with pytest.raises(EdgeListError, match="line 2"):
            EdgeStream.from_file(p)

    def test_duplicate_rejected_either_orientation(self, tmp_path):
        p = tmp_path / "dup.el"
        p.write_text("0 1\n2 3\n1 0\n")
        with pytest.raises(EdgeListError, match="line 3"):
            EdgeStream.from_file(p)

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "junk.el"
        p.write_text("0 1\nnope\n")
        with pytest.raises(EdgeListError, match="line 2"):
            EdgeStream.from_file(p)

    def test_comments_and_blanks_skipped(self, tmp_path):
        p = tmp_path / "c.el"
        p.write_text("# header\n\n0 1\n# mid\n1 2\n")
        s = EdgeStream.from_file(p)
        assert s.stats() == StreamStats(n=3, m=2)

    def test_in_memory_source_validated(self):
        with pytest.raises(EdgeListError):
            EdgeStream.from_edges([(0, 1), (1, 0)])

    def test_ids_past_int_str_limit_rejected_in_memory(self):
        # str() refuses ints of more than 4,300 digits; the message quotes
        # such an id by its head and its length
        huge = 10**5000
        with pytest.raises(EdgeListError, match=r"line 2: .*\(5001 characters\)"):
            EdgeStream.from_edges([(0, 1), (huge, 1)])
        with pytest.raises(EdgeListError, match=r"\(5001 characters\)\) is not below"):
            Graph(3, [(0, huge)])
        with pytest.raises(EdgeListError, match="negative vertex id"):
            Graph(3, [(0, -huge)])

    @pytest.mark.parametrize("token, quoted", [
        (b"12", "12"), (7, "7"), (-7, "-7"), (b"x" * 40, "x" * 40), (10**40 - 1, "9" * 40),
        (b"x" * 41, "x" * 40 + "... (41 characters)"),
        (10**40, "1" + "0" * 39 + "... (41 characters)"),
        (-(10**5000), "-1" + "0" * 39 + "... (5002 characters)"),
    ], ids=["bytes", "int", "negative", "40-bytes", "40-digits", "41-bytes", "41-digits",
            "5001-digits"])
    def test_quote_keeps_short_tokens_and_caps_long_ones(self, token, quoted):
        assert edgelist.quote(token) == quoted


class TestInMemoryPairs:
    @pytest.mark.parametrize("edges, lineno, message", [
        ([(0, 1.5), (0, 1.2), (1, 2), (0, 2)], 1, "non-integer vertex id in (0, 1.5)"),
        ([(0, 1), (0.9, 0.2), (1, 2)], 2, "non-integer vertex id in (0.9, 0.2)"),
        ([(0, 1), (np.float64(2.0), 1)], 2, "non-integer vertex id in (np.float64(2.0), 1)"),
        ([("a", 1)], 1, "non-integer vertex id in ('a', 1)"),
        ([(0, 1, 2)], 1, "expected two vertex ids, got 3 fields"),
        ([(0, 1), (2,)], 2, "expected two vertex ids, got 1 fields"),
        ([5], 1, "expected two vertex ids, got 'int' with no length"),
        ([(0, 1), iter((1, 2))], 2,
         "expected two vertex ids, got 'tuple_iterator' with no length"),
    ], ids=["float", "truncates-to-a-loop", "numpy-float", "str", "three-ids", "one-id",
            "no-length-int", "no-length-iterator"])
    def test_rejected_at_the_pairs_index(self, edges, lineno, message):
        for open_ in (lambda: Graph(3, edges), lambda: EdgeStream.from_edges(edges)):
            with pytest.raises(EdgeListError) as err:
                open_()
            assert str(err.value) == f"line {lineno}: {message}"
            assert err.value.lineno == lineno

    def test_long_non_integer_is_quoted_short(self):
        with pytest.raises(EdgeListError, match=r"\(1002 characters\)\)$"):
            EdgeStream.from_edges([(0, "7" * 1000)])

    def test_integer_types_accepted(self):
        edges = [(np.int64(0), np.uint8(1)), (True, 2), (0, 2)]
        assert Graph(3, edges).edge_list() == [(0, 1), (0, 2), (1, 2)]
        assert read_pass(EdgeStream.from_edges(edges)) == [(0, 1), (1, 2), (0, 2)]


class TestPassProtocol:
    def test_one_pass_yields_all_edges_and_counts_once(self):
        s = EdgeStream.from_edges([(0, 1), (0, 2), (1, 2)])
        s.begin_pass()
        seen = []
        while (e := s.next_edge()) is not None:
            seen.append(e)
        s.end_pass()
        assert len(seen) == 3
        assert s.pass_counter == 1

    def test_consecutive_passes_identical_for_fixed_seed(self):
        s = EdgeStream.from_edges([(i, i + 1) for i in range(9)], order_seed=7)
        first = read_pass(s)
        second = read_pass(s)
        assert first == second
        assert s.pass_counter == 2

    def test_nested_begin_is_usage_error(self):
        s = EdgeStream.from_edges([(0, 1)])
        s.begin_pass()
        with pytest.raises(StreamUsageError):
            s.begin_pass()

    def test_end_before_exhaustion_is_usage_error(self):
        s = EdgeStream.from_edges([(0, 1), (1, 2)])
        s.begin_pass()
        s.next_edge()
        with pytest.raises(StreamUsageError):
            s.end_pass()

    def test_next_edge_outside_pass(self):
        s = EdgeStream.from_edges([(0, 1)])
        with pytest.raises(StreamUsageError):
            s.next_edge()

    def test_abort_does_not_count(self):
        s = EdgeStream.from_edges([(0, 1), (1, 2)])
        s.begin_pass()
        s.next_edge()
        s.abort_pass()
        assert s.pass_counter == 0
        assert read_pass(s) != []  # stream still usable

    def test_an_observer_fault_aborts_the_pass_and_propagates(self):
        class Faulty:
            def __init__(self):
                self.blocks = 0

            def observe_block(self, u, v):
                self.blocks += 1
                raise RuntimeError("observer fault")

        s = EdgeStream.from_edges([(0, 1), (1, 2)])
        s.stats()
        faulty = Faulty()
        with pytest.raises(RuntimeError, match="observer fault"):
            sampling.run_pass(s, [faulty])
        assert faulty.blocks == 1
        assert s.pass_counter == 1
        # the aborted pass is over: a fresh one starts from the first edge
        assert read_pass(s) == [(0, 1), (1, 2)]
        assert s.pass_counter == 2

    @pytest.mark.parametrize("call, args", [("next_block", (4,)), ("end_pass", ()),
                                            ("abort_pass", ())])
    def test_calls_outside_a_pass_are_usage_errors(self, call, args):
        s = EdgeStream.from_edges([(0, 1)])
        with pytest.raises(StreamUsageError, match="outside a pass"):
            getattr(s, call)(*args)
        read_pass(s)
        with pytest.raises(StreamUsageError, match="outside a pass"):
            getattr(s, call)(*args)
        assert s.pass_counter == 1

    def test_reading_past_end_signals_none_not_error(self):
        s = EdgeStream.from_edges([(0, 1)])
        s.begin_pass()
        s.next_edge()
        assert s.next_edge() is None
        assert s.next_edge() is None
        s.end_pass()


class TestStats:
    def test_wheel_file(self, tmp_path):
        g, truth = gen_wheel(1001)
        p = tmp_path / "wheel.el"
        p.write_text("".join(f"{u} {v}\n" for u, v in g.edges()))
        s = EdgeStream.from_file(p)
        assert s.stats() == StreamStats(n=1001, m=2000)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.el"
        p.write_text("")
        s = EdgeStream.from_file(p)
        assert s.stats() == StreamStats(n=0, m=0)

    def test_stable_across_passes(self):
        s = EdgeStream.from_edges([(0, 5), (5, 9)], order_seed=3)
        first = s.stats()
        read_pass(s)
        assert s.stats() == first == StreamStats(n=3, m=2)

    def test_dense_ids_are_counted_on_one_byte_per_id(self):
        # a ring with chords on ids [0, n): n is counted on a presence mark,
        # with no copy or sort of the 2m endpoints
        n = 200_000
        ids = np.arange(n, dtype=np.int64)
        ring = np.column_stack((ids, (ids + 1) % n))
        chords = np.column_stack((ids, (ids + 7) % n))
        ends = np.sort(np.concatenate((ring, chords)), axis=1)
        s = EdgeStream(ends, order_seed=5)
        tracemalloc.start()
        try:
            stats = s.stats()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats == StreamStats(n=n, m=2 * n)
        assert peak < n + 64 * 1024

    def test_sparse_ids_are_counted_exactly(self):
        edges = [(0, 2**63 - 1), (5, 2**40), (5, 2**63 - 1), (2**40, 2**62)]
        s = EdgeStream.from_edges(edges, order_seed=2)
        assert s.stats() == StreamStats(n=5, m=4)


class TestReplayDeterminism:
    def test_k_passes_are_k_identical_permutations(self, tmp_path):
        g, _ = gen_wheel(31)
        p = tmp_path / "w.el"
        p.write_text("".join(f"{u} {v}\n" for u, v in g.edges()))
        s = EdgeStream.from_file(p, order_seed=11)
        reference = read_pass(s)
        assert sorted(reference) == sorted(g.edges())
        for _ in range(3):
            assert read_pass(s) == reference

    def test_independent_cursors_over_same_source(self, tmp_path):
        path = k3_file(tmp_path)
        a = EdgeStream.from_file(path, order_seed=4)
        b = EdgeStream.from_file(path, order_seed=4)
        a.begin_pass()
        b.begin_pass()
        ea = [a.next_edge(), a.next_edge(), a.next_edge(), a.next_edge()]
        eb = [b.next_edge(), b.next_edge(), b.next_edge(), b.next_edge()]
        a.end_pass()
        b.end_pass()
        assert ea == eb

    @pytest.mark.parametrize("order_seed", [None, 0, 7])
    def test_constructor_matches_validating_from_edges(self, order_seed):
        # ideal mode streams a Graph's already-checked edges through the
        # plain constructor; it must order them as from_edges does
        g, _ = gen_wheel(31)
        plain = EdgeStream(g.edge_array(), order_seed=order_seed)
        checked = EdgeStream.from_edges(g.edge_list(), order_seed=order_seed)
        for _ in range(2):
            assert read_pass(plain) == read_pass(checked)
        assert plain.stats() == checked.stats()

    @pytest.mark.parametrize("order_seed", [None, 0, 7])
    def test_edge_array_opens_the_stream_the_pairs_open(self, order_seed):
        # ideal mode hands the stream the graph's (m, 2) int64 array; the
        # graph's pairs validate to that same array
        g, _ = gen_wheel(31)
        pairs = edgelist.validate_edges(g.edge_list())
        assert pairs.dtype == np.int64 and np.array_equal(pairs, g.edge_array())
        from_array = EdgeStream(g.edge_array(), order_seed=order_seed)
        from_pairs = EdgeStream(pairs, order_seed=order_seed)
        assert read_pass(from_array) == read_pass(from_pairs)


class TestOwnedColumns:
    @pytest.mark.parametrize("order_seed", [None, 5])
    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_changing_the_callers_array_changes_no_pass(self, m, order_seed):
        # a column view of a (1, 2) array is contiguous, so it is the
        # caller's memory unless the stream copies it
        edges = [(2 * i, 2 * i + 1) for i in range(m)]
        ends = np.array(edges, dtype=np.int64).reshape(-1, 2)
        s = EdgeStream(ends, order_seed=order_seed)
        before = read_pass(s)
        assert {type(x) for edge in before for x in edge} <= {int}
        ends += 10
        assert read_pass(s) == before
        assert sorted(before) == edges

        s.begin_pass()
        while (block := s.next_block(2)) is not None:
            for column in block:
                assert column.dtype == np.int64 and not column.flags.writeable
                with pytest.raises(ValueError):
                    column[0] = 0
        s.end_pass()
        assert read_pass(s) == before


class TestSourceChangesAfterOpen:
    def test_passes_replay_the_edges_validated_at_open(self, tmp_path):
        g, _ = gen_wheel(31)
        p = tmp_path / "w.el"
        text = "".join(f"{u} {v}\n" for u, v in g.edges())
        p.write_text(text)
        s = EdgeStream.from_file(p, order_seed=5)
        reference = read_pass(s)

        p.write_text("0 1\n")  # truncated
        assert read_pass(s) == reference
        # other edges in lines of the same lengths
        p.write_text(text.translate(str.maketrans("0123456789", "1234567890")))
        assert read_pass(s) == reference
        p.unlink()
        assert read_pass(s) == reference
        assert s.stats() == StreamStats(n=31, m=60)
        assert s.pass_counter == 5


# id-like fields: digits with an optional sign or comment mark in front and
# an optional separator, non-ASCII digit (ARABIC-INDIC DIGIT ZERO) or high
# byte inside, so the fuzz often builds lines that are almost edges
_DIGITS = [b"0", b"1", b"7", b"42", b"9223372036854775807", b"9223372036854775808"]
_FIELDS = st.tuples(
    st.sampled_from([b""] * 4 + [b"+", b"-", b"#"]),
    st.sampled_from(_DIGITS),
    st.sampled_from([b""] * 4 + [b"_", b".", b"x", "\u0660".encode(), b"\xff"]),
    st.sampled_from([b"", b"0", b"7"]),
).map(b"".join)
_GAPS = st.sampled_from([b" ", b"\t", b"  ", b"\r", b"\x0b", b"\x0c"])
_NEAR_EDGES = st.tuples(
    st.one_of(st.lists(_FIELDS, min_size=2, max_size=2), st.lists(_FIELDS, max_size=3)),
    _GAPS,
).map(lambda fg: fg[1].join(fg[0]))


class TestParseLineFuzz:
    @given(st.one_of(st.binary(max_size=40), _NEAR_EDGES))
    @settings(max_examples=1000)
    def test_only_skip_canonical_edge_or_edge_list_error(self, line):
        try:
            edge = parse_line(line + b"\n", 9)
        except EdgeListError as exc:
            assert "line 9" in str(exc)
            return
        fields = line.split()
        if edge is None:
            assert not fields or fields[0].startswith(b"#")
            return
        assert len(fields) == 2 and all(f.isdigit() for f in fields)
        u, v = edge
        assert 0 <= u < v < 2**63
        assert sorted(int(f) for f in fields) == [u, v]

    @pytest.mark.parametrize("line", [b"1_0 2", b"0_1 2", b"+2 3", b"1 0x2", b"\xd9\xa0 1"])
    def test_non_digit_id_rejected(self, line):
        with pytest.raises(EdgeListError, match="non-integer vertex id"):
            parse_line(line, 1)

    def test_leading_minus_is_a_negative_id(self):
        with pytest.raises(EdgeListError, match="negative vertex id"):
            parse_line(b"-3 4\n", 1)


class TestColumnarParse:
    def test_peak_memory_is_a_small_multiple_of_the_result(self, tmp_path):
        # a list of tuples and a seen-set cost about ten times the 16 bytes
        # per edge of the int64 result; the chunked parse holds the result,
        # its concatenation and one chunk's scratch
        m = 200_000
        p = tmp_path / "big.el"
        p.write_text("".join(f"{i} {i + 1 + i % 1000}\n" for i in range(m)))
        tracemalloc.start()
        try:
            edges = read_edges(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(edges) == m
        assert peak < 5 * 16 * m

    def test_a_line_many_chunks_long(self, tmp_path, monkeypatch):
        # a line with no b"\n" in a chunk is carried whole into the next
        # chunks: a long comment, a long leading-zero id, a spaced-out last
        # line with no b"\n", and a repeat placed after all three
        monkeypatch.setattr(edgelist, "CHUNK_BYTES", 64)
        head = b"#" + b"x" * 100_000 + b"\n" + b"0" * 3000 + b"7 9\n1 2\n"
        p = tmp_path / "long.el"
        p.write_bytes(head + b"8" + b" " * 10_000 + b"7")
        assert read_edges(p).tolist() == [[7, 9], [1, 2], [7, 8]]
        p.write_bytes(head + b"8" + b" " * 10_000 + b"7\n9 7")
        with pytest.raises(EdgeListError, match="duplicate edge 7 9") as err:
            read_edges(p)
        assert err.value.lineno == 5


class TestDigitWidthBoundary:
    """A run of fields at most 9 digits wide is read in uint32 and comes out
    int32; a wider one is read in uint64. Each file is scanned as it is and
    with the 32-bit read turned off, and the two scans match byte for byte."""

    # 10**9 - 1 and 10**9, 2**31 - 1 and 2**31, leading-zero fields wider
    # than 9 digits, and the largest id
    FIELDS = [b"999999999", b"1000000000", b"2147483647", b"2147483648",
              b"0000000001", b"000000000000000000000000000007", b"9223372036854775807"]

    @staticmethod
    def files(field):
        # the field on both sides, in a plain chunk and in one that is not
        plain = b"# h\n3 " + field + b"\n" + field + b" 5\n3 5\n"
        return plain, plain.replace(b"3 5", b"3  5")

    @staticmethod
    def scan(path, monkeypatch, wide):
        with monkeypatch.context() as m:
            if wide:
                m.setattr(edgelist, "_INT32_DIGITS", 0)
            scan = edgelist.EdgeScan(path)
            try:
                edges = read_edges(path)
            except EdgeListError as err:
                return [(b.dtype, b.tobytes()) for b in scan.blocks], scan.bad, str(err), err.lineno
            return [(b.dtype, b.tobytes()) for b in scan.blocks], scan.bad, edges.dtype, edges.tobytes()

    @pytest.mark.parametrize("chunk", [8, edgelist.CHUNK_BYTES])
    @pytest.mark.parametrize("field", FIELDS)
    def test_narrow_read_matches_the_64_bit_read(self, tmp_path, monkeypatch, field, chunk):
        monkeypatch.setattr(edgelist, "CHUNK_BYTES", chunk)
        value = int(field)
        for text in self.files(field):
            p = tmp_path / "ids.el"
            p.write_bytes(text)
            narrow = self.scan(p, monkeypatch, wide=False)
            assert narrow == self.scan(p, monkeypatch, wide=True)
            blocks, bad, dtype, edges = narrow
            assert bad is None
            assert dtype == np.int64
            want = np.array([sorted((3, value)), sorted((value, 5)), [3, 5]], dtype=np.int64)
            assert edges == want.tobytes()
            # a block is int32 exactly when its ids are below 2**31
            for dtype, data in blocks:
                assert dtype == (np.int32 if np.frombuffer(data, dtype).max(initial=0) < 2**31 else np.int64)

    @pytest.mark.parametrize("text", [b"1 2\n3 9223372036854775808\n",
                                      b"1 2\n999999999 999999999\n",
                                      b"5 999999999\n999999999 5\n",
                                      b"5 999999999\n2 3\n999999999  5\n",
                                      b"0000000001 2\n1 00000000000000000002\n"])
    def test_faults_match_the_64_bit_read(self, tmp_path, monkeypatch, text):
        p = tmp_path / "bad.el"
        p.write_bytes(text)
        narrow = self.scan(p, monkeypatch, wide=False)
        assert narrow == self.scan(p, monkeypatch, wide=True)
        with pytest.raises(EdgeListError) as err:
            Graph.from_file(p)
        assert (str(err.value), err.value.lineno) == narrow[2:]

    def test_nine_digit_ids_scan_into_int32_blocks(self, tmp_path, monkeypatch):
        # both parses return int32 edges, and the scan keeps those very
        # arrays: no uint64 accumulator, no int64 view, no int32 copy
        returned = []
        for name in ("_parse_plain", "_parse_chunk"):
            def spy(text, parse=getattr(edgelist, name)):
                result = parse(text)
                if result is not None:
                    returned.append(result[0])
                return result
            monkeypatch.setattr(edgelist, name, spy)
        monkeypatch.setattr(edgelist, "CHUNK_BYTES", 16)
        p = tmp_path / "nine.el"
        p.write_bytes(b"0 999999999\n12 7\n1  999999999\n")
        scan = edgelist.EdgeScan(p)
        # a plain chunk, then one that is not
        assert [b.tolist() for b in scan.blocks] == [[[0, 999999999]], [[7, 12], [1, 999999999]]]
        assert len(returned) == 2
        assert all(b is r and b.dtype == np.int32 for b, r in zip(scan.blocks, returned))


class ProtocolOnly:
    """Forwards the pass protocol and nothing else, as a benchmark proxy does."""

    def __init__(self, inner):
        self._inner = inner

    def __len__(self):
        return len(self._inner)

    @property
    def pass_counter(self):
        return self._inner.pass_counter

    def stats(self):
        return self._inner.stats()

    def begin_pass(self):
        self._inner.begin_pass()

    def next_edge(self):
        return self._inner.next_edge()

    def end_pass(self):
        self._inner.end_pass()

    def abort_pass(self):
        self._inner.abort_pass()


class TestEstimatorsUseOnlyThePassProtocol:
    @pytest.mark.parametrize("share_passes", [False, True])
    def test_main_mode(self, tmp_path, share_passes):
        g, truth = gen_book(300)
        p = tmp_path / "book.el"
        p.write_text("".join(f"{u} {v}\n" for u, v in g.edges()))
        cfg = EstimatorConfig(epsilon=0.2, t_hat=truth.triangles, kappa_hat=2, seed=4,
                              scale=0.004, repetitions=3, share_passes=share_passes)
        runs = []
        for wrap in (lambda s: s, ProtocolOnly):
            stream = wrap(EdgeStream.from_file(p, order_seed=2))
            value, report = estimate(stream, cfg)
            runs.append((value, report.to_json_dict(), report.flags, stream.pass_counter))
        assert runs[0] == runs[1]

    def test_ideal_mode(self):
        g, truth = gen_wheel(201)
        runs = []
        for wrap in (lambda s: s, ProtocolOnly):
            stream = wrap(EdgeStream.from_edges(g.edge_list(), order_seed=3))
            value, report = ideal_estimate(stream, DegreeOracle(g), epsilon=0.3,
                                           t_hat=truth.triangles, seed=6)
            runs.append((value, report, stream.pass_counter))
        assert runs[0] == runs[1]


class TestBlockSize:
    """A pass hands its observers the same edges whatever the block size,
    so no outcome may depend on it."""

    @staticmethod
    def main_run(path, share_passes):
        # at seed 1 one repetition of three takes the wedge-budget exact
        # fallback, so the graph collector sees blocks too
        cfg = EstimatorConfig(epsilon=0.2, t_hat=300, kappa_hat=2, seed=1, scale=0.004,
                              repetitions=3, share_passes=share_passes)
        stream = EdgeStream.from_file(path, order_seed=2)
        value, report = estimate(stream, cfg)
        return value, report.to_json_dict(), report.flags, stream.pass_counter

    @pytest.mark.parametrize("share_passes", [False, True])
    def test_main_mode(self, tmp_path, monkeypatch, share_passes):
        g, truth = gen_book(300)
        assert truth.triangles == 300
        p = tmp_path / "book.el"
        p.write_text("".join(f"{u} {v}\n" for u, v in g.edges()))
        default = self.main_run(p, share_passes)
        assert "exact-fallback" in default[2]
        for size in (1, 2, 7):
            monkeypatch.setattr(sampling, "BLOCK_EDGES", size)
            assert self.main_run(p, share_passes) == default, size

    def test_ideal_mode(self, monkeypatch):
        g, truth = gen_wheel(201)

        def run():
            stream = EdgeStream.from_edges(g.edge_list(), order_seed=3)
            value, report = ideal_estimate(stream, DegreeOracle(g), epsilon=0.3,
                                           t_hat=truth.triangles, seed=6)
            return value, report, stream.pass_counter

        default = run()
        for size in (1, 2, 7):
            monkeypatch.setattr(sampling, "BLOCK_EDGES", size)
            assert run() == default, size
