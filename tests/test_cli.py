"""CLI behavior through real subprocess invocations: output schemas, exit
codes, env overrides, and byte-level determinism."""

import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from triad import cli, edgelist
from triad.assignment import compute_s
from triad.errors import ConfigError
from triad.estimator import EstimatorConfig
from triad.generators import gen_book, gen_preferential_attachment, gen_wheel
from triad.graph import Graph
from triad.ideal import DegreeOracle, ideal_estimate
from triad.stream import EdgeStream

from conftest import ideal_drawn_edges

CLI = [sys.executable, "-m", "triad"]


def run_cli(*args, env_extra=None, cwd=None):
    import os
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          env=env, cwd=cwd)


def write_five_edge_file(path):
    """Five edges out of sorted order, one of them written high id first."""
    path.write_text("5 9\n1 9\n1 5\n9 3\n3 5\n")
    return path


def write_shuffled_pa_file(path, spread=lambda ids: ids):
    """pa(300, 3) in a shuffled order, each edge written either way round,
    its ids mapped through `spread`; returns the path."""
    rng = np.random.default_rng(4)
    edges = gen_preferential_attachment(300, 3, seed=1).edge_array()
    edges = edges[rng.permutation(len(edges))]
    flip = rng.random(len(edges)) < 0.5
    edges[flip] = edges[flip, ::-1]
    path.write_text("".join(f"{u} {v}\n" for u, v in spread(edges).tolist()))
    return path


def write_book_file(tmp_path, k=200):
    g, truth = gen_book(k)
    path = tmp_path / f"book{k}.el"
    path.write_text("".join(f"{u} {v}\n" for u, v in g.edges()))
    return path, truth


class TestGen:
    def test_wheel_file_and_sidecar(self, tmp_path):
        out = tmp_path / "wheel.el"
        res = run_cli("gen", "wheel", "--n", "1001", "--out", str(out))
        assert res.returncode == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == 2000
        sidecar = json.loads((tmp_path / "wheel.el.json").read_text())
        assert sidecar["T"] == 1000
        assert sidecar["kappa"] == 3

    def test_lb_sidecar(self, tmp_path):
        out = tmp_path / "lb.el"
        res = run_cli("gen", "lb", "--p", "4", "--q", "4", "--N", "30",
                      "--kind", "no", "--out", str(out), "--seed", "3")
        assert res.returncode == 0
        sidecar = json.loads((tmp_path / "lb.el.json").read_text())
        assert sidecar["T"] == 64

    def test_gen_output_takes_the_plain_pass(self, tmp_path, monkeypatch):
        # `triad gen` writes a `#` header, then `u v` lines: the header is
        # skipped, and every chunk is read by the one-pass parse
        out = tmp_path / "lb.el"
        res = run_cli("gen", "lb", "--p", "4", "--q", "4", "--N", "30",
                      "--kind", "no", "--out", str(out), "--seed", "3")
        assert res.returncode == 0
        m = json.loads((tmp_path / "lb.el.json").read_text())["m"]
        general = []
        parse_chunk = edgelist._parse_chunk
        monkeypatch.setattr(edgelist, "_parse_chunk",
                            lambda text: general.append(text) or parse_chunk(text))
        for chunk in (64, 1024, edgelist.CHUNK_BYTES):
            monkeypatch.setattr(edgelist, "CHUNK_BYTES", chunk)
            assert Graph.from_file(out).m == m
        assert general == []

    def test_book_k1_is_k3(self, tmp_path):
        out = tmp_path / "k3.el"
        res = run_cli("gen", "book", "--k", "1", "--out", str(out))
        assert res.returncode == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert sorted(lines) == ["0 1", "0 2", "1 2"]

    def test_missing_param_is_config_error(self, tmp_path):
        res = run_cli("gen", "wheel", "--out", str(tmp_path / "x.el"))
        assert res.returncode == 2

    def test_random_families_get_oracle_sidecars(self, tmp_path):
        out = tmp_path / "er.el"
        res = run_cli("gen", "er", "--n", "20", "--prob", "0.4",
                      "--seed", "2", "--out", str(out))
        assert res.returncode == 0
        sidecar = json.loads((tmp_path / "er.el.json").read_text())
        payload = json.loads(run_cli("exact", str(out)).stdout)
        assert sidecar["T"] == payload["T"]
        assert sidecar["kappa"] == payload["kappa"]


class TestExact:
    def test_k3(self, tmp_path):
        p = tmp_path / "k3.el"
        p.write_text("0 1\n0 2\n1 2\n")
        res = run_cli("exact", str(p))
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload == {"T": 1, "kappa": 2, "d_E": 6, "m": 3, "n": 3}

    def test_wheel(self, tmp_path):
        out = tmp_path / "w.el"
        run_cli("gen", "wheel", "--n", "1001", "--out", str(out))
        payload = json.loads(run_cli("exact", str(out)).stdout)
        assert payload["T"] == 1000
        assert payload["kappa"] == 3

    def test_lb_yes_is_triangle_free(self, tmp_path):
        out = tmp_path / "lb.el"
        run_cli("gen", "lb", "--p", "2", "--q", "1", "--N", "6",
                "--kind", "yes", "--out", str(out))
        payload = json.loads(run_cli("exact", str(out)).stdout)
        assert payload["T"] == 0

    def test_unreadable_file_exit_3(self):
        res = run_cli("exact", "/nonexistent/file.el")
        assert res.returncode == 3

    def test_malformed_file_exit_3(self, tmp_path):
        p = tmp_path / "bad.el"
        p.write_text("1 1\n")
        res = run_cli("exact", str(p))
        assert res.returncode == 3
        assert "line 1" in res.stderr

    def test_comment_only_file_is_the_empty_graph(self, tmp_path):
        p = tmp_path / "empty.el"
        p.write_text("# no edges\n\n")
        res = run_cli("exact", str(p))
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == '{"T": 0, "kappa": 0, "d_E": 0, "m": 0, "n": 0}'

    def test_csv_format(self, tmp_path):
        p = tmp_path / "k3.el"
        p.write_text("0 1\n0 2\n1 2\n")
        res = run_cli("exact", "--format", "csv", str(p))
        lines = res.stdout.strip().splitlines()
        assert lines == ["T,kappa,d_E,m,n", "1,2,6,3,3"]

    def test_imports_only_the_graph_oracles(self, tmp_path):
        # `python -m triad` runs `triad/__main__.py` as the main module, so
        # -X importtime lists every triad module but that one
        p = tmp_path / "k4.el"
        p.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        res = subprocess.run([sys.executable, "-X", "importtime"] + CLI[1:] + ["exact", str(p)],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout) == {"T": 4, "kappa": 3, "d_E": 18, "m": 6, "n": 4}
        loaded = {line.rpartition("|")[2].strip() for line in res.stderr.splitlines()
                  if line.startswith("import time:")}
        assert sorted(m for m in loaded if m.partition(".")[0] == "triad") == [
            "triad", "triad.cli", "triad.edgelist", "triad.errors", "triad.graph",
            "triad.idset"]
        assert "dataclasses" not in loaded


# every command that parses an edge-list file, with the flags it needs
PARSING_COMMANDS = {
    "exact": ("exact",),
    "ideal": ("estimate", "--mode", "ideal", "--epsilon", "0.3", "--t-hat", "1"),
    "main": ("estimate", "--mode", "main", "--epsilon", "0.2", "--t-hat", "1",
             "--kappa-hat", "2"),
}


class TestUnreadablePath:
    @pytest.mark.parametrize("command", sorted(PARSING_COMMANDS))
    def test_directory_exits_3(self, tmp_path, command):
        res = run_cli(*PARSING_COMMANDS[command], str(tmp_path))
        assert res.returncode == 3
        assert res.stdout == ""
        assert res.stderr.startswith("triad: cannot read input: ")
        assert res.stderr.count("\n") == 1


class TestUnwritableOutput:
    def test_gen_into_a_directory_exits_2(self, tmp_path):
        res = run_cli("gen", "wheel", "--n", "5", "--out", str(tmp_path))
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == (f"triad: config error: cannot write output {str(tmp_path)!r}: "
                              "Is a directory\n")

    def test_gen_sidecar_into_a_directory_exits_2(self, tmp_path):
        (tmp_path / "w.el.json").mkdir()
        res = run_cli("gen", "wheel", "--n", "5", "--out", str(tmp_path / "w.el"))
        assert res.returncode == 2
        assert res.stderr == (f"triad: config error: cannot write output "
                              f"{str(tmp_path / 'w.el.json')!r}: Is a directory\n")

    def test_bench_into_a_directory_exits_2(self, tmp_path):
        mf = tmp_path / "m.json"
        mf.write_text("[]")
        res = run_cli("bench", str(mf), "--out", str(tmp_path))
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == (f"triad: config error: cannot write output {str(tmp_path)!r}: "
                              "Is a directory\n")


def closed_pipe_run(args, unbuffered, stderr):
    """Run the CLI with stdout on a pipe whose reader closes it at once,
    long before the child writes its report; (exit code, stderr text)."""
    import os
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(CLI + list(args), stdout=subprocess.PIPE, stderr=stderr, env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode() if proc.stderr else ""
    if proc.stderr:
        proc.stderr.close()
    return proc.wait(), err


class TestClosedOutputPipe:
    """A reader that goes away is an output that cannot be written: exit 2
    and at most one line on stderr, with no traceback or shutdown message,
    whether stdout is block-buffered or unbuffered."""

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_stdout_exits_2(self, tmp_path, unbuffered):
        path, _ = write_book_file(tmp_path, k=50)
        code, err = closed_pipe_run(["exact", str(path)], unbuffered, subprocess.PIPE)
        assert code == 2
        assert err.startswith("triad: cannot write output: ")
        assert "Broken pipe" in err and err.count("\n") == 1

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_stderr_on_the_same_closed_pipe_exits_2(self, tmp_path, unbuffered):
        path, _ = write_book_file(tmp_path, k=50)
        code, _ = closed_pipe_run(["exact", str(path)], unbuffered, subprocess.STDOUT)
        assert code == 2


def test_report_is_one_write_for_a_reader_that_stops_early(tmp_path):
    # unbuffered, a report written in two calls loses its second to a
    # reader that closes after the first bytes; one write never does
    import os
    g, _ = gen_wheel(1001)
    path = tmp_path / "wheel.el"
    path.write_text("".join(f"{u} {v}\n" for u, v in g.edges()))
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    codes = []
    for _ in range(10):
        proc = subprocess.Popen(CLI + ["exact", str(path)], stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, env=env)
        head = b""
        while len(head) < 10:
            more = os.read(proc.stdout.fileno(), 10 - len(head))
            if not more:
                break
            head += more
        proc.stdout.close()
        codes.append(proc.wait(timeout=60))
        assert head == b'{"T": 1000'
    assert codes == [0] * 10


class TestNonAsciiInput:
    @pytest.mark.parametrize("command", sorted(PARSING_COMMANDS))
    def test_non_ascii_comment_is_accepted(self, tmp_path, command):
        p = tmp_path / "k3.el"
        p.write_bytes("# caf\u00e9\n0 1\n0 2\n1 2\n".encode("utf-8"))
        res = run_cli(*PARSING_COMMANDS[command], str(p))
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)

    @pytest.mark.parametrize("command", sorted(PARSING_COMMANDS))
    def test_non_ascii_byte_in_edge_line_exits_3(self, tmp_path, command):
        p = tmp_path / "bad.el"
        p.write_bytes(b"0 1\n0 2\xff\n1 2\n")
        res = run_cli(*PARSING_COMMANDS[command], str(p))
        assert res.returncode == 3
        assert "line 2" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("command", sorted(PARSING_COMMANDS))
    def test_cr_only_line_endings_exit_3(self, tmp_path, command):
        # lines end at b"\n" only, so a CR-only file is one line of many fields
        p = tmp_path / "cr.el"
        p.write_bytes(b"0 1\r0 2\r1 2\r")
        res = run_cli(*PARSING_COMMANDS[command], str(p))
        assert res.returncode == 3
        assert "line 1" in res.stderr
        assert "Traceback" not in res.stderr


class TestVertexIdRange:
    # ids must fit a signed 64-bit integer, the graph arrays' dtype
    @pytest.mark.parametrize("command", sorted(PARSING_COMMANDS))
    @pytest.mark.parametrize("big", [2**63, 2**70])
    def test_id_from_2_to_63_exits_3(self, tmp_path, command, big):
        p = tmp_path / "big.el"
        p.write_text(f"0 1\n0 2\n1 {big}\n")
        res = run_cli(*PARSING_COMMANDS[command], str(p))
        assert res.returncode == 3
        assert "line 3" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("command", sorted(PARSING_COMMANDS))
    def test_largest_id_is_accepted(self, tmp_path, command):
        top = 2**63 - 1
        p = tmp_path / "top.el"
        p.write_text(f"0 1\n0 {top}\n1 {top}\n")
        res = run_cli(*PARSING_COMMANDS[command], str(p))
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        if command == "exact":
            assert payload == {"T": 1, "kappa": 2, "d_E": 6, "m": 3, "n": 3}


class TestVertexIdSpelling:
    # an id is plain ASCII digits, so no two spellings name one vertex
    @pytest.mark.parametrize("command", sorted(PARSING_COMMANDS))
    @pytest.mark.parametrize("line", ["1_0 2", "+1 2"])
    def test_non_digit_id_exits_3(self, tmp_path, command, line):
        p = tmp_path / "spelled.el"
        p.write_text(f"0 1\n0 2\n{line}\n")
        res = run_cli(*PARSING_COMMANDS[command], str(p))
        assert res.returncode == 3
        assert "line 3" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("command", sorted(PARSING_COMMANDS))
    def test_leading_zeros_past_19_digits_name_the_same_id(self, tmp_path, command):
        # int() reads 22 digits with 21 leading zeros as 7, so the third
        # line closes the triangle {0, 7, 9}; a digit count alone would
        # call the id out of range or drop the line
        p = tmp_path / "zeros.el"
        p.write_text("0 7\n0 9\n0000000000000000000007 9\n")
        res = run_cli(*PARSING_COMMANDS[command], str(p))
        assert res.returncode == 0, res.stderr
        if command == "exact":
            assert json.loads(res.stdout) == {"T": 1, "kappa": 2, "d_E": 6, "m": 3, "n": 3}

    @pytest.mark.parametrize("command", sorted(PARSING_COMMANDS))
    def test_thousands_of_leading_zeros_name_the_same_id(self, tmp_path, command):
        # 5,000 digits is past int()'s default limit of 4,300
        padded, plain = tmp_path / "padded.el", tmp_path / "plain.el"
        padded.write_text("0" * 5000 + "7 9\n")
        plain.write_text("7 9\n")
        res = run_cli(*PARSING_COMMANDS[command], str(padded))
        assert res.returncode == 0, res.stderr
        assert res.stdout == run_cli(*PARSING_COMMANDS[command], str(plain)).stdout

    @pytest.mark.parametrize("command", sorted(PARSING_COMMANDS))
    def test_thousands_of_digits_are_out_of_range(self, tmp_path, command):
        p = tmp_path / "long.el"
        p.write_text("0 1\n" + "1" * 5000 + " 9\n")
        res = run_cli(*PARSING_COMMANDS[command], str(p))
        assert res.returncode == 3
        assert ("line 2: vertex id in [" + "1" * 40 + "... (5000 characters), 9]"
                " is not below 2**63") in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("command", sorted(PARSING_COMMANDS))
    @pytest.mark.parametrize("line", ["1" * 5000 + " 9", "x" * 100_000 + " 9"],
                             ids=["5000-digit-id", "100000-byte-field"])
    def test_long_fields_keep_the_message_short(self, tmp_path, command, line):
        # a message quotes a long id or field by its head and its length
        p = tmp_path / "long.el"
        p.write_text(f"0 1\n{line}\n")
        res = run_cli(*PARSING_COMMANDS[command], str(p))
        assert res.returncode == 3
        assert "line 2: " in res.stderr
        assert len(res.stderr) < 200

    @pytest.mark.parametrize("command", sorted(PARSING_COMMANDS))
    def test_leading_zeros_repeat_an_edge(self, tmp_path, command):
        p = tmp_path / "zeros.el"
        p.write_text("0 7\n0 9\n9 0000000000000000000000\n")
        res = run_cli(*PARSING_COMMANDS[command], str(p))
        assert res.returncode == 3
        assert "line 3: duplicate edge 0 9" in res.stderr


class TestEstimate:
    def test_main_mode_report(self, tmp_path):
        path, truth = write_book_file(tmp_path, 400)
        res = run_cli("estimate", "--mode", "main", "--epsilon", "0.2",
                      "--t-hat", str(truth.triangles), "--kappa-hat", "2",
                      "--seed", "7", "--scale", "0.004", str(path))
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        assert list(payload.keys()) == [
            "estimate", "passes", "stored_edges_peak", "r", "ell", "s",
            "assignment_calls", "memo_size", "seed", "config",
        ]
        assert payload["passes"] == 6
        assert payload["seed"] == 7

    def test_main_mode_loads_no_graph_oracles(self, tmp_path):
        # a sampled run, its assignment dump included, never builds a Graph;
        # -X importtime lists every triad module but `triad/__main__.py`
        path, truth = write_book_file(tmp_path, 400)
        res = subprocess.run(
            [sys.executable, "-X", "importtime"] + CLI[1:] + [
                "estimate", "--mode", "main", "--epsilon", "0.2",
                "--t-hat", str(truth.triangles), "--kappa-hat", "2", "--seed", "7",
                "--scale", "0.004", "--debug-dump-assignments", str(path)],
            capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["passes"] == 6
        assert "exact-fallback" not in res.stderr
        assert "assignments: [{" in res.stderr
        loaded = {line.rpartition("|")[2].strip() for line in res.stderr.splitlines()
                  if line.startswith("import time:")}
        assert sorted(m for m in loaded if m.partition(".")[0] == "triad") == [
            "triad", "triad.assignment", "triad.cli", "triad.edgelist", "triad.errors",
            "triad.estimator", "triad.idset", "triad.sampling", "triad.stream"]

    @pytest.mark.parametrize("reps,share", [(1, False), (5, False), (5, True)])
    def test_r_reaching_m_collects_the_graph_once(self, tmp_path, reps, share):
        # t_hat = 1 drives r to m, so the run stores the graph on the pass
        # after stats and counts it exactly, whatever the repetition count
        path, truth = write_book_file(tmp_path, 60)
        res = run_cli("estimate", "--mode", "main", "--epsilon", "0.2",
                      "--t-hat", "1", "--kappa-hat", "2", "--repetitions", str(reps),
                      *(["--share-passes"] if share else []), str(path))
        assert res.returncode == 0, res.stderr
        config = EstimatorConfig(epsilon=0.2, t_hat=1, kappa_hat=2,
                                 repetitions=reps, share_passes=share)
        assert json.loads(res.stdout) == {
            "estimate": float(truth.triangles), "passes": 1,
            "stored_edges_peak": truth.m, "r": truth.m, "ell": 0,
            "s": compute_s(truth.n, truth.m, 0.2, 1, 2), "assignment_calls": 0,
            "memo_size": 0, "seed": 0, "config": config.as_dict(),
        }
        assert "passes including stats: 2" in res.stderr
        assert "exact-fallback" in res.stderr

    def test_ideal_mode_three_passes(self, tmp_path):
        path, truth = write_book_file(tmp_path, 60)
        res = run_cli("estimate", "--mode", "ideal", "--epsilon", "0.3",
                      "--t-hat", str(truth.triangles), "--seed", "1", str(path))
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        assert payload["passes"] == 3
        assert payload["oracle_queries"] > 0

    def test_ideal_mode_reports_its_accounted_peak(self, tmp_path):
        # the stored peak is what the run held, each drawn edge once and a
        # reference with its neighbor per instance, not the instance count r
        path, truth = write_book_file(tmp_path, 60)
        res = run_cli("estimate", "--mode", "ideal", "--epsilon", "0.3",
                      "--t-hat", str(truth.triangles), "--seed", "1", str(path))
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        g = Graph.from_file(path)
        _, report = ideal_estimate(EdgeStream(g.edge_array()), DegreeOracle(g), epsilon=0.3,
                                   t_hat=truth.triangles, seed=1)
        drawn = ideal_drawn_edges(g, payload["r"], seed=1)
        assert payload["stored_edges_peak"] == report.stored_edges_peak == drawn + payload["r"]

    def test_ideal_mode_imports_no_graph_oracles(self, tmp_path):
        # the oracle is a degree table counted off the stream's own edges
        path, truth = write_book_file(tmp_path, 60)
        res = subprocess.run([sys.executable, "-X", "importtime"] + CLI[1:] + [
            "estimate", "--mode", "ideal", "--epsilon", "0.3", "--t-hat", str(truth.triangles),
            str(path)], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        loaded = {line.rpartition("|")[2].strip() for line in res.stderr.splitlines()
                  if line.startswith("import time:")}
        assert sorted(m for m in loaded if m.partition(".")[0] == "triad") == [
            "triad", "triad.assignment", "triad.cli", "triad.edgelist", "triad.errors",
            "triad.estimator", "triad.ideal", "triad.idset", "triad.sampling", "triad.stream"]

    @pytest.mark.parametrize("order_seed", [None, 3])
    @pytest.mark.parametrize("write", [
        write_five_edge_file, write_shuffled_pa_file,
    ], ids=["five-edges", "pa300"])
    def test_both_modes_read_the_same_stream(self, tmp_path, monkeypatch, write, order_seed):
        # the estimators assume no stream order, so both modes read the file's
        # order, or the same permutation of it; ideal mode's ids are dense
        # [0, n) in their order
        path = write(tmp_path / "unsorted.el")
        opened = []
        init = EdgeStream.__init__

        def spy(self, ends, order_seed=None):
            init(self, ends, order_seed=order_seed)
            opened.append(np.column_stack((self._u, self._v)))

        monkeypatch.setattr(EdgeStream, "__init__", spy)
        seeded = [] if order_seed is None else ["--order-seed", str(order_seed)]
        for mode, flags in (("main", ["--kappa-hat", "3"]), ("ideal", [])):
            assert cli.main(["--quiet", "estimate", str(path), "--mode", mode, "--epsilon",
                             "0.3", "--t-hat", "1000", *flags, *seeded]) == 0, mode
        main, ideal = opened
        _, dense = np.unique(main, return_inverse=True)
        assert ideal.dtype == np.int64
        assert ideal.tolist() == dense.reshape(main.shape).tolist()
        if order_seed is None:
            assert main.tolist() == edgelist.read_edges(path).tolist()

    @pytest.mark.parametrize("order_seed", [None, 5])
    def test_ideal_mode_on_sparse_ids_prints_the_dense_report(self, tmp_path, order_seed):
        # ids spread to id * 2**33 + 5 are relabelled by binary search, dense
        # ones by a presence mark's running count; both give the same stream
        from triad.idset import _presence

        paths = [write_shuffled_pa_file(tmp_path / "dense.el"),
                 write_shuffled_pa_file(tmp_path / "sparse.el", lambda ids: (ids << 33) + 5)]
        assert [_presence((edgelist.read_edges(p),)) is None for p in paths] == [False, True]
        seeded = () if order_seed is None else ("--order-seed", str(order_seed))
        dense, sparse = (run_cli("estimate", str(p), "--mode", "ideal", "--epsilon", "0.3",
                                 "--t-hat", "200", "--seed", "1", *seeded) for p in paths)
        assert dense.returncode == 0, dense.stderr
        assert (sparse.returncode, sparse.stdout, sparse.stderr) == (
            0, dense.stdout, dense.stderr)

    def test_missing_t_hat_exits_2(self, tmp_path):
        path, _ = write_book_file(tmp_path, 30)
        res = run_cli("estimate", "--mode", "main", "--epsilon", "0.2",
                      "--kappa-hat", "2", str(path))
        assert res.returncode == 2

    def test_missing_kappa_hat_in_main_mode_exits_2(self, tmp_path):
        path, _ = write_book_file(tmp_path, 30)
        res = run_cli("estimate", "--mode", "main", "--epsilon", "0.2",
                      "--t-hat", "30", str(path))
        assert res.returncode == 2

    def test_bad_epsilon_exits_2(self, tmp_path):
        path, _ = write_book_file(tmp_path, 30)
        res = run_cli("estimate", "--mode", "main", "--epsilon", "0.7",
                      "--t-hat", "30", "--kappa-hat", "2", str(path))
        assert res.returncode == 2

    @pytest.mark.parametrize("flags, names", [
        (("--mode", "main", "--kappa-hat", "2", "--order-seed", "-1"), "order seed"),
        (("--mode", "ideal", "--order-seed", "-1"), "order seed"),
        (("--mode", "main", "--kappa-hat", "2", "--abort-multiplier", "nan"), "abort_multiplier"),
        (("--mode", "main", "--kappa-hat", "2", "--abort-multiplier", "inf"), "abort_multiplier"),
    ], ids=["order-seed-main", "order-seed-ideal", "abort-multiplier-nan",
            "abort-multiplier-inf"])
    def test_bad_flag_value_is_one_config_error_line(self, tmp_path, flags, names):
        path, _ = write_book_file(tmp_path, 30)
        res = run_cli("estimate", str(path), "--epsilon", "0.2", "--t-hat", "30", *flags)
        assert res.returncode == 2
        assert res.stderr.startswith(f"triad: config error: {names} must be ")
        assert res.stderr.count("\n") == 1

    @pytest.mark.parametrize("flags", [
        ("--kappa-hat", "3"), ("--repetitions", "2"), ("--repetitions", "1"),
        ("--scale", "7"), ("--scale", "1"), ("--share-passes",),
        ("--abort-multiplier", "nan"), ("--abort-multiplier", "10"),
        ("--debug-dump-assignments",),
    ], ids=lambda flags: "=".join(flags))
    def test_ideal_mode_refuses_a_main_mode_flag(self, tmp_path, flags):
        # refused even at main mode's default value: ideal mode never reads it
        path, _ = write_book_file(tmp_path, 30)
        res = run_cli("estimate", str(path), "--mode", "ideal", "--epsilon", "0.2",
                      "--t-hat", "30", *flags)
        assert res.returncode == 2
        assert res.stderr == f"triad: config error: ideal mode does not take {flags[0]}\n"
        assert res.stdout == ""

    def test_ideal_mode_names_every_main_mode_flag(self, tmp_path):
        path, _ = write_book_file(tmp_path, 30)
        res = run_cli("estimate", str(path), "--mode", "ideal", "--epsilon", "0.2",
                      "--t-hat", "30", "--repetitions", "2", "--abort-multiplier", "nan",
                      "--scale", "7", "--kappa-hat", "3")
        assert res.returncode == 2
        assert res.stderr == ("triad: config error: ideal mode does not take --kappa-hat, "
                              "--repetitions, --scale, --abort-multiplier\n")

    def test_main_mode_defaults_match_the_config_defaults(self, tmp_path):
        # main-mode flags left out take EstimatorConfig's defaults
        path, truth = write_book_file(tmp_path, 30)
        res = run_cli("estimate", str(path), "--epsilon", "0.2",
                      "--t-hat", str(truth.triangles), "--kappa-hat", "2")
        assert res.returncode == 0, res.stderr
        config = EstimatorConfig(epsilon=0.2, t_hat=truth.triangles, kappa_hat=2)
        assert json.loads(res.stdout)["config"] == config.as_dict()

    def test_no_space_advantage_is_flagged_on_stderr_only(self, tmp_path):
        # pa(5000, 4) at eps 0.2, scale 0.008, seed and order seed 1 stores
        # about 1.36 m; in file order the same seed falls back
        out = tmp_path / "pa.el"
        assert run_cli("gen", "pa", "--n", "5000", "--attach", "4", "--out", str(out)).returncode == 0
        truth = json.loads((tmp_path / "pa.el.json").read_text())
        res = run_cli("estimate", str(out), "--epsilon", "0.2", "--t-hat", str(truth["T"]),
                      "--kappa-hat", str(truth["kappa"]), "--scale", "0.008", "--seed", "1",
                      "--order-seed", "1")
        assert res.returncode == 0, res.stderr
        flags = [line for line in res.stderr.splitlines() if line.startswith("flags: ")]
        assert flags and "no-space-advantage" in flags[0].split(": ")[1].split(",")
        assert "exact-fallback" not in flags[0]
        payload = json.loads(res.stdout)
        assert list(payload) == ["estimate", "passes", "stored_edges_peak", "r", "ell", "s",
                                 "assignment_calls", "memo_size", "seed", "config"]
        assert payload["stored_edges_peak"] > truth["m"]

    def test_quiet_silences_stderr(self, tmp_path):
        path, truth = write_book_file(tmp_path, 60)
        res = run_cli("estimate", "--quiet", "--mode", "ideal", "--epsilon", "0.3",
                      "--t-hat", str(truth.triangles), str(path))
        assert res.stderr == ""

    def test_csv_format(self, tmp_path):
        path, truth = write_book_file(tmp_path, 60)
        res = run_cli("--format", "csv", "estimate", "--mode", "ideal",
                      "--epsilon", "0.3", "--t-hat", str(truth.triangles), str(path))
        lines = res.stdout.strip().splitlines()
        assert lines[0].startswith("estimate,passes,stored_edges_peak")
        assert len(lines) == 2

    def test_debug_dump_assignments(self, tmp_path):
        path, truth = write_book_file(tmp_path, 400)
        res = run_cli("estimate", "--mode", "main", "--epsilon", "0.2",
                      "--t-hat", str(truth.triangles), "--kappa-hat", "2",
                      "--seed", "7", "--scale", "0.004",
                      "--debug-dump-assignments", str(path))
        dump_lines = [l for l in res.stderr.splitlines() if l.startswith("assignments:")]
        assert len(dump_lines) == 1
        entries = json.loads(dump_lines[0].split("assignments: ", 1)[1])
        assert entries, "expected at least one memoized triangle"
        assert {"repetition", "triangle", "edge"} <= set(entries[0])

    def test_debug_dump_is_the_golden_line(self, tmp_path):
        # a golden run: the whole stderr line, 14,267 characters, is pinned by
        # its digest; its first and last entries and per-repetition counts
        # are spelled out so that a failure shows where it starts
        path, truth = write_book_file(tmp_path, 400)
        res = run_cli("estimate", "--mode", "main", "--epsilon", "0.2",
                      "--t-hat", str(truth.triangles), "--kappa-hat", "2",
                      "--seed", "7", "--scale", "0.004", "--repetitions", "3",
                      "--debug-dump-assignments", str(path))
        assert res.returncode == 0, res.stderr
        [line] = [l for l in res.stderr.splitlines() if l.startswith("assignments: ")]
        entries = json.loads(line.split("assignments: ", 1)[1])
        assert entries[0] == {"repetition": 0, "triangle": [0, 1, 117], "edge": [0, 117]}
        assert entries[-1] == {"repetition": 2, "triangle": [0, 1, 131], "edge": [0, 131]}
        assert [sum(e["repetition"] == rep for e in entries) for rep in range(3)] == [139, 44, 49]
        assert json.loads(res.stdout)["memo_size"] == len(entries) == 232
        assert len(line) == 14267
        assert hashlib.sha256(line.encode()).hexdigest() == (
            "4062465c0fd7f34a99733dc2f2a9bcd76c4af399830e56d3447e8a084a4d99cb")

    def test_ideal_instance_count_past_any_draw_exits_2(self, tmp_path):
        path, _ = write_book_file(tmp_path, 400)
        res = run_cli("estimate", "--mode", "ideal", "--epsilon", "1e-9", "--t-hat", "1",
                      str(path))
        assert (res.returncode, res.stdout) == (2, "")
        assert res.stderr == ("triad: config error: epsilon 1e-09 and t_hat 1 ask for "
                              "56027999999999992659968 instances, more than one run can draw\n")

    @pytest.mark.parametrize("args, message", [
        (("--t-hat", str(10**400), "--kappa-hat", "2"),
         f"r is out of float range for epsilon 0.2, t_hat {10**400}, kappa_hat 2"),
        (("--mode", "ideal", "--t-hat", str(10**400)),
         f"the instance count is out of float range for epsilon 0.2, t_hat {10**400}"),
        (("--t-hat", "400", "--kappa-hat", str(10**400)),
         f"r is out of float range for epsilon 0.2, t_hat 400, kappa_hat {10**400}"),
        # 1 / eps^2 overflows to inf, and eps^2 underflows to 0
        (("--t-hat", "400", "--kappa-hat", "2", "--epsilon", "1e-160"),
         "r is out of float range for epsilon 1e-160, t_hat 400, kappa_hat 2"),
        (("--t-hat", "400", "--kappa-hat", "2", "--epsilon", "1e-170"),
         "r is out of float range for epsilon 1e-170, t_hat 400, kappa_hat 2"),
        # the budget at the least r, ell and s any stream gives, read before
        # the first pass
        (("--t-hat", "400", "--kappa-hat", "2", "--scale", "0.004",
          "--abort-multiplier", "1e308"),
         "the space budget is out of float range for abort_multiplier 1e+308"),
    ], ids=["t_hat-main", "t_hat-ideal", "kappa_hat", "epsilon-inf", "epsilon-zero",
            "abort_multiplier"])
    def test_sizes_out_of_float_range_exit_2(self, tmp_path, args, message):
        path, _ = write_book_file(tmp_path, 400)
        res = run_cli("estimate", "--epsilon", "0.2", *args, str(path))
        assert (res.returncode, res.stdout) == (2, "")
        assert res.stderr == f"triad: config error: {message}\n"

    def test_ideal_report_is_the_frozen_payload(self, tmp_path):
        # a golden run: every printed figure is pinned, in both formats; the
        # stored peak is 395 distinct drawn edges plus the 1,869 instances
        run_cli("gen", "wheel", "--n", "201", "--out", str(tmp_path / "w.el"))
        args = ("estimate", str(tmp_path / "w.el"), "--mode", "ideal", "--epsilon", "0.3",
                "--t-hat", "200", "--seed", "2")
        res = run_cli(*args)
        assert res.returncode == 0, res.stderr
        assert res.stdout == (
            '{"estimate": 188.76404494382024, "passes": 3, "stored_edges_peak": 2264, '
            '"r": 1869, "ell": 0, "s": 0, "assignment_calls": 958, "memo_size": 0, '
            '"seed": 2, "config": {"mode": "ideal", "epsilon": 0.3, "t_hat": 200, '
            '"groups": 7, "group_size": 267}, "oracle_queries": 2558}\n')
        res = run_cli("--format", "csv", *args)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines() == [
            "estimate,passes,stored_edges_peak,r,ell,s,assignment_calls,memo_size,seed",
            "188.76404494382024,3,2264,1869,0,0,958,0,2"]

    def test_env_seed_override(self, tmp_path):
        path, truth = write_book_file(tmp_path, 60)
        res = run_cli("estimate", "--mode", "ideal", "--epsilon", "0.3",
                      "--t-hat", str(truth.triangles), str(path),
                      env_extra={"TRIAD_SEED": "123"})
        assert json.loads(res.stdout)["seed"] == 123


class TestEnvironment:
    @pytest.mark.parametrize("name, value", [("TRIAD_SEED", "abc"), ("TRIAD_FORMAT", "xml")])
    def test_bad_value_names_the_variable(self, tmp_path, name, value):
        p = tmp_path / "k3.el"
        p.write_text("0 1\n0 2\n1 2\n")
        res = run_cli("exact", str(p), env_extra={name: value})
        assert res.returncode == 2
        assert res.stderr == f"triad: config error: bad {name} value {value!r}\n"
        assert res.stdout == ""

    def test_format_from_the_environment(self, tmp_path):
        p = tmp_path / "k3.el"
        p.write_text("0 1\n0 2\n1 2\n")
        res = run_cli("exact", str(p), env_extra={"TRIAD_FORMAT": "csv"})
        assert res.returncode == 0
        assert res.stdout.splitlines() == ["T,kappa,d_E,m,n", "1,2,6,3,3"]


MANIFEST = [
    {
        "family": "book",
        "params": {"k": 300},
        "config": {"epsilon": 0.2, "t_hat": "exact", "kappa_hat": "exact",
                   "repetitions": 3, "scale": 0.004},
        "trials": 2,
        "seed": 11,
    }
]


class TestBench:
    def test_rows_and_header(self, tmp_path):
        mf = tmp_path / "m.json"
        mf.write_text(json.dumps(MANIFEST))
        res = run_cli("bench", str(mf), "--fixed-clock")
        assert res.returncode == 0, res.stderr
        lines = res.stdout.strip().splitlines()
        assert lines[0] == ("family,n,m,T_exact,kappa,epsilon,t_hat,kappa_hat,"
                            "estimate,relative_error,passes,stored_edges_peak,"
                            "r,ell,s,seed,wall_time_ms")
        assert len(lines) == 3  # header + 2 trials

    def test_empty_manifest_gives_header_only(self, tmp_path):
        mf = tmp_path / "empty.json"
        mf.write_text("[]")
        res = run_cli("bench", str(mf))
        assert res.returncode == 0
        assert len(res.stdout.strip().splitlines()) == 1

    def test_schema_violation_exits_2(self, tmp_path):
        mf = tmp_path / "bad.json"
        mf.write_text(json.dumps([{"family": "book"}]))
        assert run_cli("bench", str(mf)).returncode == 2

    @pytest.mark.parametrize("change, key", [
        ({"config": {"epsilon": "x"}}, "config.epsilon"),
        ({"config": {}}, "config.epsilon"),
        ({"trials": "two"}, "trials"),
        ({"params": {"k": "ten"}}, "params.k"),
        ({"config": {"epsilon": 0.2, "t_hat": "many"}}, "config.t_hat"),
        ({"params": {"k": 10.9}}, "params.k"),
        ({"params": {"k": True}}, "params.k"),
        ({"trials": 2.5}, "trials"),
        ({"trials": True}, "trials"),
        ({"seed": 1.5}, "seed"),
        ({"seed": float("inf")}, "seed"),
        ({"config": {"epsilon": 0.2, "repetitions": 1.5}}, "config.repetitions"),
        ({"config": {"epsilon": 0.2, "t_hat": 30.5}}, "config.t_hat"),
        ({"config": {"epsilon": 0.2, "kappa_hat": False}}, "config.kappa_hat"),
        ({"config": {"epsilon": True}}, "config.epsilon"),
        ({"config": {"epsilon": 0.2, "scale": True}}, "config.scale"),
        ({"config": {"epsilon": 0.2, "share_passes": "false"}}, "config.share_passes"),
        ({"config": {"epsilon": 0.2, "share_passes": 1}}, "config.share_passes"),
        ({"family": "lb", "params": {"p": 3, "q": 2, "N": 9, "kind": True}}, "params.kind"),
        ({"trials": 0}, "trials"),
        ({"trials": -3}, "trials"),
    ], ids=["epsilon", "no-epsilon", "trials", "param", "t_hat", "param-fraction",
            "param-bool", "trials-fraction", "trials-bool", "seed-fraction", "seed-inf",
            "repetitions-fraction", "t_hat-fraction", "kappa_hat-bool", "epsilon-bool",
            "scale-bool", "share_passes-string", "share_passes-int", "kind-bool",
            "trials-zero", "trials-negative"])
    def test_bad_value_names_the_row_and_key(self, tmp_path, change, key):
        good = {"family": "book", "params": {"k": 20}, "config": {"epsilon": 0.2}}
        mf = tmp_path / "bad.json"
        mf.write_text(json.dumps([good, dict(good, **change)]))
        res = run_cli("bench", str(mf))
        assert res.returncode == 2
        assert res.stderr.startswith(f"triad: config error: manifest row 1: bad {key} value ")
        assert res.stderr.count("\n") == 1

    @pytest.mark.parametrize("change, message", [
        ({"config": {"epsilon": 0.2, "repetitions": 2}},
         "repetitions must be odd and positive, got 2"),
        ({"config": {"epsilon": 0.2, "scale": 0}}, "scale must lie in (0, 1], got 0.0"),
        ({"config": {"epsilon": 0.7}}, "epsilon must lie in (0, 0.5), got 0.7"),
        ({"seed": -1}, "seed must be non-negative, got -1"),
        ({"config": {"epsilon": 0.2, "repetitons": 11}}, "unknown key 'config.repetitons'"),
        ({"trails": 3}, "unknown key 'trails'"),
        ({"params": {"k": 50, "pages": 9}}, "unknown key 'params.pages'"),
    ], ids=["repetitions-even", "scale-zero", "epsilon-large", "seed-negative",
            "config-unknown", "row-unknown", "params-unknown"])
    def test_config_error_names_the_row(self, tmp_path, change, message):
        good = {"family": "book", "params": {"k": 20}, "config": {"epsilon": 0.2}}
        mf = tmp_path / "bad.json"
        mf.write_text(json.dumps([good, dict(good, **change)]))
        res = run_cli("bench", str(mf))
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == f"triad: config error: manifest row 1: {message}\n"

    def test_every_row_is_checked_before_any_instance_is_generated(self, tmp_path):
        # row 0 would fail when its instance is generated, row 1 when it is read
        rows = [{"family": "wheel", "params": {"n": 3}, "config": {"epsilon": 0.2}},
                {"family": "book", "params": {"k": 20}, "config": {"epsilon": 0.2},
                 "trials": 0}]
        mf = tmp_path / "bad.json"
        mf.write_text(json.dumps(rows))
        res = run_cli("bench", str(mf))
        assert (res.returncode, res.stdout) == (2, "")
        assert res.stderr == "triad: config error: manifest row 1: bad trials value 0\n"

    @pytest.mark.parametrize("family", ["nope", 5, None])
    def test_unknown_family_is_refused_before_any_instance_is_generated(self, tmp_path,
                                                                        family):
        # row 0 would fail only when its instance is generated
        rows = [{"family": "wheel", "params": {"n": 3}, "config": {"epsilon": 0.2}},
                {"family": family, "params": {}, "config": {"epsilon": 0.2}}]
        mf = tmp_path / "bad.json"
        mf.write_text(json.dumps(rows))
        res = run_cli("bench", str(mf))
        assert (res.returncode, res.stdout) == (2, "")
        assert res.stderr == (
            f"triad: config error: manifest row 1: unknown family {family!r}\n")

    @pytest.mark.parametrize("name", ["params", "config"])
    def test_non_object_table_exits_2(self, tmp_path, name):
        row = {"family": "book", "params": {"k": 20}, "config": {"epsilon": 0.2}, name: [1]}
        mf = tmp_path / "bad.json"
        mf.write_text(json.dumps([row]))
        res = run_cli("bench", str(mf))
        assert res.returncode == 2
        assert res.stderr == f"triad: config error: manifest row 0: {name!r} is not an object\n"

    def test_integral_numbers_and_booleans_where_due_are_read(self, tmp_path):
        # an integer may be written 11.0 or "11"; share_passes is a JSON boolean
        row = {"family": "book", "params": {"k": 20.0}, "trials": "2", "seed": 11.0,
               "config": {"epsilon": 0.2, "repetitions": 3.0, "scale": 1,
                          "t_hat": 20, "kappa_hat": "2", "share_passes": True}}
        mf = tmp_path / "m.json"
        mf.write_text(json.dumps([row]))
        res = run_cli("bench", str(mf), "--fixed-clock")
        assert res.returncode == 0, res.stderr
        rows = [line.split(",") for line in res.stdout.splitlines()[1:]]
        assert [(r[0], r[2], r[6], r[7], r[15]) for r in rows] == [
            ("book", "41", "20", "2", "11"), ("book", "41", "20", "2", "12")]

    @pytest.mark.parametrize("key, value", [("t_hat", 0), ("kappa_hat", -4)])
    def test_bound_below_one_exits_2(self, tmp_path, key, value):
        good = {"family": "book", "params": {"k": 20}, "config": {"epsilon": 0.2}}
        bad = {"family": "book", "params": {"k": 20}, "config": {"epsilon": 0.2, key: value}}
        mf = tmp_path / "bad.json"
        mf.write_text(json.dumps([good, bad]))
        res = run_cli("bench", str(mf))
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == f"triad: config error: manifest row 1: bad config.{key} value {value}\n"

    def test_t_hat_out_of_float_range_exits_2(self, tmp_path):
        good = {"family": "book", "params": {"k": 20}, "config": {"epsilon": 0.2}}
        bad = {"family": "book", "params": {"k": 20},
               "config": {"epsilon": 0.2, "t_hat": 10**400, "kappa_hat": 2}}
        mf = tmp_path / "bad.json"
        mf.write_text(json.dumps([good, bad]))
        res = run_cli("bench", str(mf))
        assert (res.returncode, res.stdout) == (2, "")
        assert res.stderr == ("triad: config error: manifest row 1: r is out of float range "
                              f"for epsilon 0.2, t_hat {10**400}, kappa_hat 2\n")

    def test_size_out_of_float_range_is_a_row_error_at_parse_time(self):
        # refused before row 0's instance is generated
        good = {"family": "book", "params": {"k": 20}, "config": {"epsilon": 0.2}}
        bad = {"family": "book", "params": {"k": 20},
               "config": {"epsilon": 0.2, "t_hat": 10**400, "kappa_hat": 2}}
        with pytest.raises(ConfigError) as exc:
            cli.parse_manifest([good, bad])
        assert str(exc.value) == ("manifest row 1: r is out of float range for "
                                  f"epsilon 0.2, t_hat {10**400}, kappa_hat 2")

    def test_row_defaults_match_the_config_defaults(self):
        # config keys a row leaves out take EstimatorConfig's defaults
        [row] = cli.parse_manifest([{"family": "book", "params": {"k": 20},
                                     "config": {"epsilon": 0.2, "t_hat": 20, "kappa_hat": 2}}])
        assert row.config == EstimatorConfig(epsilon=0.2, t_hat=20, kappa_hat=2)

    @pytest.mark.parametrize("args, env, fixed", [
        ((), {"TRIAD_FIXED_CLOCK": "0"}, False),
        (("--fixed-clock",), {"TRIAD_FIXED_CLOCK": "0"}, True),
        ((), {"TRIAD_FIXED_CLOCK": "1"}, True),
    ], ids=["timed", "flag", "env"])
    def test_wall_time_is_zero_only_on_a_fixed_clock(self, tmp_path, args, env, fixed):
        mf = tmp_path / "m.json"
        mf.write_text(json.dumps([{"family": "book", "params": {"k": 20},
                                   "config": {"epsilon": 0.2, "scale": 0.004}}]))
        res = run_cli("bench", str(mf), *args, env_extra=env)
        assert res.returncode == 0, res.stderr
        [row] = res.stdout.splitlines()[1:]
        wall_time_ms = row.split(",")[-1]
        assert (wall_time_ms == "0.0") if fixed else (float(wall_time_ms) > 0)

    def test_exact_bound_of_a_triangle_free_row_runs_at_one(self, tmp_path):
        row = {"family": "lb", "params": {"p": 3, "q": 2, "N": 9, "kind": "yes"},
               "config": {"epsilon": 0.2, "t_hat": "exact", "kappa_hat": "exact"}, "seed": 3}
        mf = tmp_path / "m.json"
        mf.write_text(json.dumps([row]))
        res = run_cli("bench", str(mf), "--fixed-clock")
        assert res.returncode == 0, res.stderr
        [fields] = [line.split(",") for line in res.stdout.splitlines()[1:]]
        # T_exact 0, and the run's t_hat is 1; the one-sided estimate stays 0
        assert (fields[3], fields[6], fields[8]) == ("0", "1", "0.0")

    def test_unparsable_manifest_exits_3(self, tmp_path):
        mf = tmp_path / "junk.json"
        mf.write_text("{nope")
        assert run_cli("bench", str(mf)).returncode == 3

    def test_non_utf8_manifest_exits_3(self, tmp_path):
        mf = tmp_path / "latin1.json"
        mf.write_bytes('[{"family": "book", "caf\u00e9": 1}]'.encode("latin-1"))
        res = run_cli("bench", str(mf))
        assert res.returncode == 3
        assert res.stderr.startswith("triad: parse error: manifest is not valid JSON: ")
        assert "Traceback" not in res.stderr

    def test_integer_past_the_conversion_limit_exits_3(self, tmp_path):
        # Python refuses to read an int of more than 4,300 digits from text
        mf = tmp_path / "long.json"
        mf.write_text('[{"family": "book", "params": {"k": 20}, '
                      '"config": {"epsilon": 0.2, "t_hat": 1' + "0" * 5000 + '}}]')
        res = run_cli("bench", str(mf))
        assert (res.returncode, res.stdout) == (3, "")
        [line] = res.stderr.splitlines()
        assert line.startswith("triad: parse error: manifest is not valid JSON: ")

    def test_byte_identical_reruns(self, tmp_path):
        mf = tmp_path / "m.json"
        mf.write_text(json.dumps(MANIFEST))
        a = run_cli("bench", str(mf), "--fixed-clock").stdout
        b = run_cli("bench", str(mf), "--fixed-clock").stdout
        assert a == b


class TestDeterminism:
    def test_gen_outputs_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.el", "b.el"):
            out = tmp_path / name
            run_cli("gen", "lb", "--p", "3", "--q", "2", "--N", "9",
                    "--kind", "no", "--seed", "5", "--out", str(out))
            outs.append(out.read_bytes() + (tmp_path / f"{name}.json").read_bytes())
        # sidecars embed the out-path-free payload, so compare edge bytes
        assert outs[0].split(b"}")[0] is not None
        assert (tmp_path / "a.el").read_bytes() == (tmp_path / "b.el").read_bytes()
        assert (tmp_path / "a.el.json").read_bytes() == (tmp_path / "b.el.json").read_bytes()

    def test_estimate_stdout_byte_identical(self, tmp_path):
        path, truth = write_book_file(tmp_path, 300)
        args = ("estimate", "--mode", "main", "--epsilon", "0.2",
                "--t-hat", str(truth.triangles), "--kappa-hat", "2",
                "--seed", "3", "--scale", "0.004", "--order-seed", "1", str(path))
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_exact_stdout_byte_identical(self, tmp_path):
        path, _ = write_book_file(tmp_path, 50)
        assert run_cli("exact", str(path)).stdout == run_cli("exact", str(path)).stdout
