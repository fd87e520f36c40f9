"""Static hygiene of the library: no unused imports, every export resolves,
one observer protocol (pass observers take blocks of edges), one pass
driver (only `sampling.run_pass` and its reader `_blocks` drive a stream's
passes), one pass schedule (outside `sampling.py`, only `estimator._drive`
and ideal mode's sizing pass in `ideal_estimate` call `run_pass`, once
each), one edge-list parser (only `edgelist.py` reads files as bytes
or calls `parse_line`), one weighted sampler (no module calls a
generator's `choice`: weighted draws are positions on an integer axis that
`EdgePicker` collects), hashed membership in every pass observer (no
`observe_block` body calls `searchsorted`: a block's ids are looked up in
a `_HashIndex` built once per pass), one vertex layer (no class in
`sampling.py` constructs more than one `_HashIndex`: the query vertices'
index is `DegreeCounter`'s, which the other observers extend), no
binary search between passes (`estimator.py` and `ideal.py` call no
`searchsorted`: a degree counted in a pass is read through its
`DegreeCounter`'s hash index), one owner per report (`cli.py` constructs
no `RunReport` or `IdealReport`: each mode builds its report and the report
serializes itself), one memo (no module but `assignment.py` constructs an
`AssignmentTable`: the estimator keeps each repetition's memo as its
triangle array and charged columns; the table stays as the tests'
reference rule), and one trial runner (no script in `scripts/`
constructs an `EdgeStream` or an `EstimatorConfig` or calls `estimate`:
each runs manifest rows through `cli.run_row`, as `triad bench` does),
and every degradation flag documented (each flag string a library module
appends to a `flags` list is named in README's flag list).
`EdgeStream`'s public surface is the pass protocol, its stats and its two
openers, and nothing else. The package loads each public name's module on
first use, so the exact oracles import only `graph` and what it needs, and
main mode imports `graph` only when a run falls back to exact counting."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import triad
from triad.stream import EdgeStream

MODULES = sorted(Path(triad.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; `__all__` entries count as read."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in read]


def per_edge_observers(source: str) -> list[str]:
    """Classes that define a per-edge `observe` method."""
    tree = ast.parse(source)
    return [f"{node.name}.observe (line {item.lineno})"
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name == "observe"]


PASS_PROTOCOL = {"begin_pass", "next_edge", "next_block", "end_pass", "abort_pass", "edges"}
PASS_DRIVERS = {("sampling.py", "run_pass"), ("sampling.py", "_blocks")}
# every estimator pass runs through `_drive`; ideal mode's sizing pass, kept
# outside the 3-pass budget, is the one pass run beside it
RUN_PASS_SITES = {("estimator.py", "_drive"), ("ideal.py", "ideal_estimate")}


def calls_by_function(source: str, name_of) -> list[tuple[str, str]]:
    """(enclosing function, call) for each call whose callee `name_of` names."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            name = name_of(child.func) if isinstance(child, ast.Call) else None
            if name is not None:
                found.append((function, f"{name} (line {child.lineno})"))
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def pass_protocol_calls(source: str) -> list[tuple[str, str]]:
    """(enclosing function, call) for each pass-protocol call on `stream`."""
    def name_of(func):
        if (isinstance(func, ast.Attribute) and func.attr in PASS_PROTOCOL
                and isinstance(func.value, ast.Name) and func.value.id == "stream"):
            return f"stream.{func.attr}"
        return None

    return calls_by_function(source, name_of)


def run_pass_calls(source: str) -> list[tuple[str, str]]:
    """(enclosing function, call) for each call of `run_pass`, bare or as an
    attribute such as `sampling.run_pass`."""
    def name_of(func):
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return name if name == "run_pass" else None

    return calls_by_function(source, name_of)


def test_modules_are_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "estimator.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_caught():
    source = "import dataclasses\nfrom typing import Optional\nx: Optional[int] = 1\n"
    assert unused_imports(source) == ["dataclasses (line 1)"]


def test_all_names_resolve():
    missing = [name for name in triad.__all__ if not hasattr(triad, name)]
    assert missing == []
    assert len(set(triad.__all__)) == len(triad.__all__)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_per_edge_observers(path):
    assert per_edge_observers(path.read_text(encoding="utf-8")) == []


def test_per_edge_observer_is_caught():
    source = "class Sink:\n    def observe_block(self, u, v):\n        pass\n\n" \
             "    def observe(self, u, v):\n        pass\n"
    assert per_edge_observers(source) == ["Sink.observe (line 5)"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "stream.py"],
                         ids=lambda p: p.name)
def test_only_run_pass_drives_passes(path):
    calls = pass_protocol_calls(path.read_text(encoding="utf-8"))
    assert [call for function, call in calls if (path.name, function) not in PASS_DRIVERS] == []


def test_pass_protocol_call_is_caught():
    source = "def size(stream):\n    return sum(1 for _ in stream.edges())\n\n" \
             "def run_pass(stream):\n    stream.begin_pass()\n"
    assert pass_protocol_calls(source) == [("size", "stream.edges (line 2)"),
                                           ("run_pass", "stream.begin_pass (line 5)")]


def stray_run_pass_calls(name: str, source: str) -> list[str]:
    """Calls of `run_pass` outside the allowed sites, or repeated in one."""
    calls = run_pass_calls(source)
    functions = [function for function, _ in calls]
    return [call for function, call in calls
            if (name, function) not in RUN_PASS_SITES or functions.count(function) > 1]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "sampling.py"],
                         ids=lambda p: p.name)
def test_one_pass_schedule(path):
    assert stray_run_pass_calls(path.name, path.read_text(encoding="utf-8")) == []


def test_stray_run_pass_is_caught():
    source = "from triad import sampling\nfrom triad.sampling import run_pass\n\n" \
             "def ideal_estimate(stream, sizing, picker):\n" \
             "    run_pass(stream, [sizing])\n    sampling.run_pass(stream, [picker])\n\n" \
             "def sample(stream, picker):\n    run_pass(stream, [picker])\n"
    assert stray_run_pass_calls("ideal.py", source) == [
        "run_pass (line 5)", "run_pass (line 6)", "run_pass (line 9)"]
    assert stray_run_pass_calls("estimator.py", "def _drive(stream, obs):\n"
                                "    run_pass(stream, obs)\n") == []


def edge_list_readers(source: str) -> list[str]:
    """Calls to `parse_line`, and `open` calls with a binary read mode."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        modes = [arg.value for arg in node.args + [k.value for k in node.keywords]
                 if isinstance(arg, ast.Constant) and isinstance(arg.value, str)]
        if name == "parse_line" or (name == "open" and any(
                set(mode) <= set("rwxab+t") and {"r", "b"} <= set(mode) for mode in modes)):
            found.append(f"{name} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "edgelist.py"],
                         ids=lambda p: p.name)
def test_one_edge_list_parser(path):
    assert edge_list_readers(path.read_text(encoding="utf-8")) == []


def test_second_parser_is_caught():
    source = "from triad.edgelist import parse_line\n\n" \
             "def load(path):\n    with open(path, 'rb') as fh:\n" \
             "        return [parse_line(raw, i) for i, raw in enumerate(fh)]\n\n" \
             "def text(path):\n    return open(path, 'r').read() + path.open(mode='br').read()\n"
    assert edge_list_readers(source) == ["open (line 4)", "parse_line (line 5)",
                                         "open (line 8)"]


def choice_calls(source: str) -> list[str]:
    """Calls of a `choice` method, such as `rng.choice(k, p=weights)`."""
    return [f"choice (line {node.lineno})" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "choice"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_weighted_sampler(path):
    assert choice_calls(path.read_text(encoding="utf-8")) == []


def test_second_weighted_sampler_is_caught():
    source = "import numpy as np\n\n" \
             "def pick(w, k, rng):\n    return rng.choice(len(w), size=k, p=w / w.sum())\n\n" \
             "def one(xs):\n    return np.random.default_rng(0).choice(xs)\n"
    assert choice_calls(source) == ["choice (line 4)", "choice (line 7)"]


def searchsorted_name(node) -> bool:
    """Whether a node calls `searchsorted`, bare or as a method."""
    func = node.func if isinstance(node, ast.Call) else None
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return name == "searchsorted"


def observer_binary_searches(source: str) -> list[str]:
    """`searchsorted` calls, bare or as a method, inside an `observe_block`
    body, nested functions included."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if not (isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and method.name == "observe_block"):
                continue
            for node in ast.walk(method):
                if searchsorted_name(node):
                    found.append(f"{cls.name}.observe_block: searchsorted (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_observers_look_up_blocks_by_hash(path):
    assert observer_binary_searches(path.read_text(encoding="utf-8")) == []


def test_observer_binary_search_is_caught():
    source = "import numpy as np\nfrom numpy import searchsorted\n\n" \
             "class Counter:\n    def __init__(self, keys):\n" \
             "        self.keys = np.sort(keys)\n" \
             "        self.at = np.searchsorted(self.keys, 0)\n\n" \
             "    def observe_block(self, u, v):\n        i = np.searchsorted(self.keys, u)\n" \
             "        j = self.keys.searchsorted(v)\n\n        def rank(x):\n" \
             "            return searchsorted(self.keys, x)\n\n        return i, j, rank\n"
    assert observer_binary_searches(source) == [
        "Counter.observe_block: searchsorted (line 10)",
        "Counter.observe_block: searchsorted (line 11)",
        "Counter.observe_block: searchsorted (line 14)"]


def hash_index_builds(source: str) -> list[str]:
    """Classes whose body constructs more than one `_HashIndex`, bare or as
    an attribute such as `graph._HashIndex`, with the line of each."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        lines = [str(node.lineno) for node in ast.walk(cls) if isinstance(node, ast.Call)
                 and getattr(node.func, "attr", getattr(node.func, "id", None)) == "_HashIndex"]
        if len(lines) > 1:
            found.append(f"{cls.name}: _HashIndex (lines {', '.join(lines)})")
    return found


def test_one_vertex_layer():
    path = Path(triad.__file__).parent / "sampling.py"
    assert hash_index_builds(path.read_text(encoding="utf-8")) == []


def test_second_vertex_index_is_caught():
    source = "from triad import graph\nfrom triad.graph import _HashIndex\n\n" \
             "class Counter:\n    def __init__(self, vertices):\n" \
             "        self._index = _HashIndex(vertices)\n\n" \
             "class Picker(Counter):\n    def __init__(self, anchors, keys):\n" \
             "        super().__init__(anchors)\n" \
             "        self._anchor_index = graph._HashIndex(anchors)\n" \
             "        self._key_index = _HashIndex(keys)\n"
    assert hash_index_builds(source) == ["Picker: _HashIndex (lines 11, 12)"]


def binary_searches(source: str) -> list[str]:
    """Every `searchsorted` call in a module, bare or as a method."""
    return [f"searchsorted (line {node.lineno})" for node in ast.walk(ast.parse(source))
            if searchsorted_name(node)]


@pytest.mark.parametrize("name", ["estimator.py", "ideal.py"])
def test_degrees_between_passes_come_from_the_counters(name):
    path = Path(triad.__file__).parent / name
    assert binary_searches(path.read_text(encoding="utf-8")) == []


def test_binary_search_between_passes_is_caught():
    source = "import numpy as np\nfrom numpy import searchsorted\n\n" \
             "class Run:\n    def _degrees(self, vertices):\n" \
             "        return self.counts[np.searchsorted(self.vertices, vertices)]\n\n" \
             "    def _rank(self, x):\n        return self.vertices.searchsorted(x), " \
             "searchsorted(self.vertices, x)\n"
    assert binary_searches(source) == ["searchsorted (line 6)", "searchsorted (line 9)",
                                       "searchsorted (line 9)"]


REPORT_TYPES = {"RunReport", "IdealReport"}


def constructions(source: str, types: set[str]) -> list[str]:
    """Calls that construct one of `types`, bare or as an attribute such
    as `estimator.RunReport`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        func = node.func if isinstance(node, ast.Call) else None
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in types:
            found.append(f"{name} (line {node.lineno})")
    return found


def test_cli_builds_no_report():
    path = Path(triad.__file__).parent / "cli.py"
    assert constructions(path.read_text(encoding="utf-8"), REPORT_TYPES) == []


def test_report_construction_is_caught():
    source = "from triad import estimator\nfrom triad.ideal import IdealReport\n\n" \
             "def _run_ideal_mode(args, ideal):\n" \
             "    report = estimator.RunReport(estimate=ideal.estimate, r=ideal.instances)\n" \
             "    return report, IdealReport(**vars(ideal))\n\n" \
             "def _annotated(report: estimator.RunReport) -> IdealReport:\n    return report\n"
    assert constructions(source, REPORT_TYPES) == ["RunReport (line 5)",
                                                   "IdealReport (line 6)"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "assignment.py"],
                         ids=lambda p: p.name)
def test_memo_is_arrays_outside_the_reference_rule(path):
    assert constructions(path.read_text(encoding="utf-8"), {"AssignmentTable"}) == []


def test_assignment_table_construction_is_caught():
    source = "from triad import assignment\nfrom triad.assignment import AssignmentTable\n\n" \
             "class Run:\n    def __init__(self):\n        self.table = AssignmentTable()\n\n" \
             "    def tables(self, reps):\n" \
             "        return [assignment.AssignmentTable() for _ in reps]\n\n" \
             "def _annotated(table: AssignmentTable) -> int:\n    return len(table)\n"
    assert constructions(source, {"AssignmentTable"}) == ["AssignmentTable (line 6)",
                                                          "AssignmentTable (line 9)"]


SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))
TRIAL_PARTS = {"EdgeStream", "EstimatorConfig", "estimate"}


def trial_parts(source: str) -> list[str]:
    """Calls that open a stream, build a config or run the estimator, bare
    or through an attribute such as `EdgeStream.from_file`."""
    return [f"{ast.unparse(node.func)} (line {node.lineno})"
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)
            and TRIAL_PARTS & set(ast.unparse(node.func).split("."))]


def test_scripts_are_found():
    assert {p.name for p in SCRIPTS} >= {"accuracy_trials.py", "space_scaling.py"}


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_scripts_run_trials_through_the_row_runner(path):
    assert trial_parts(path.read_text(encoding="utf-8")) == []


def test_script_trial_loop_is_caught():
    source = "from triad import estimator\nfrom triad.stream import EdgeStream\n\n" \
             "def trial(edges, cfg):\n    stream = EdgeStream.from_edges(edges)\n" \
             "    config = estimator.EstimatorConfig(**cfg)\n" \
             "    return estimator.estimate(EdgeStream(edges), config), run_row(cfg)\n"
    assert trial_parts(source) == [
        "EdgeStream.from_edges (line 5)", "estimator.EstimatorConfig (line 6)",
        "estimator.estimate (line 7)", "EdgeStream (line 7)"]


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_flags(text: str) -> set[str]:
    """The flags README's list after "degradation flags:" names: the
    backticked names before each bullet's colon."""
    section = text.split("degradation flags:", 1)[1].strip().split("\n\n", 1)[0]
    return {name for line in section.splitlines() if line.startswith("- ")
            for name in re.findall(r"`([^`]+)`", line.split(":", 1)[0])}


def undocumented_flags(source: str, documented: set[str]) -> list[str]:
    """String constants appended to a list named `flags`, bare or as an
    attribute such as `self.flags`, that `documented` does not name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "append" and node.args):
            continue
        owner, arg = node.func.value, node.args[0]
        name = owner.attr if isinstance(owner, ast.Attribute) else getattr(owner, "id", None)
        if (name == "flags" and isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                and arg.value not in documented):
            found.append(f"{arg.value} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_flag_is_documented(path):
    documented = readme_flags(README.read_text(encoding="utf-8"))
    assert undocumented_flags(path.read_text(encoding="utf-8"), documented) == []


def test_undocumented_flag_is_caught():
    readme = "Notes on flags:\n\n- `a`: one\n\nand any degradation flags:\n\n" \
             "- `exact-fallback`: stored the graph; see `m`\n" \
             "- `epsilon-above-analysis`, `scaled-constants`: outside\n  the regime\n\n" \
             "- `later`: not in the list\n"
    documented = readme_flags(readme)
    assert documented == {"exact-fallback", "epsilon-above-analysis", "scaled-constants"}
    source = "def validate(self):\n    flags = []\n    flags.append('scaled-constants')\n" \
             "    flags.append('tiny-' + 'epsilon')\n    return flags\n\n" \
             "class Run:\n    def _end_1(self):\n        self.flags.append('sparse-sample')\n" \
             "        self.notes.append('exact-fallback-ish')\n" \
             "        report.flags.append('shared-passes')\n"
    assert undocumented_flags(source, documented) == ["sparse-sample (line 9)",
                                                     "shared-passes (line 11)"]


STREAM_SURFACE = {"begin_pass", "next_block", "next_edge", "end_pass", "abort_pass",
                  "stats", "pass_counter", "from_file", "from_edges"}


def public_names(cls) -> set[str]:
    return {name for name in dir(cls) if not name.startswith("_")}


def test_stream_offers_only_the_pass_protocol():
    assert public_names(EdgeStream) == STREAM_SURFACE


def test_extra_stream_method_is_caught():
    class Iterable(EdgeStream):
        def edges(self):
            yield from ()

    assert public_names(Iterable) - STREAM_SURFACE == {"edges"}


def test_exact_oracles_import_only_their_modules():
    code = ("import sys\n"
            "from triad import Graph, triangles_exact_cn, degeneracy, sum_edge_degrees\n"
            "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'triad'))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(triad.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == [
        "triad", "triad.edgelist", "triad.errors", "triad.graph", "triad.idset"]


def test_exact_oracles_load_no_dataclasses():
    # the records the oracles define are named tuples, so no process that
    # only counts pays for dataclass code generation
    code = ("import sys\n"
            "from triad import Graph, triangles_exact_cn, degeneracy, sum_edge_degrees\n"
            "print('dataclasses' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(triad.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"


def run_fresh(code: str) -> list[str]:
    """The lines `code` prints, run in a fresh interpreter on this package."""
    env = dict(os.environ, PYTHONPATH=str(Path(triad.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    return res.stdout.splitlines()


# book(k) as an EdgeStream's (m, 2) array: the spine (0, 1) and pages 2 .. k + 1
# joined to both ends, so T = k and kappa = 2; built with numpy alone, so
# making it loads no triad module
BOOK = ("import sys\n"
        "import numpy as np\n"
        "from triad import EdgeStream, EstimatorConfig, estimate\n"
        "k = {k}\n"
        "pages = np.arange(2, k + 2)\n"
        "edges = np.concatenate(([[0, 1]], np.column_stack((0 * pages, pages)),\n"
        "                        np.column_stack((0 * pages + 1, pages))))\n")
SAMPLED = ("_, report = estimate(EdgeStream(edges, order_seed=1), EstimatorConfig(\n"
           "    epsilon=0.2, t_hat=k, kappa_hat=2, seed=7, scale=0.004))\n"
           "print(report.passes, 'exact-fallback' in report.flags)\n")


def test_main_mode_imports_no_graph_oracles():
    # a run that does not fall back holds samples and id sets, never a Graph
    out = run_fresh(BOOK.format(k=400) + SAMPLED + (
        "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'triad'))\n"))
    assert out[0] == "6 False"
    assert out[1].split() == [
        "triad", "triad.assignment", "triad.edgelist", "triad.errors", "triad.estimator",
        "triad.idset", "triad.sampling", "triad.stream"]


def test_exact_fallback_loads_the_graph_oracles_when_it_runs():
    # t_hat = 1 drives r to m: the run collects the graph and counts it
    out = run_fresh(BOOK.format(k=60) + (
        "stream = EdgeStream(edges)\n"
        "print('triad.graph' in sys.modules)\n"
        "value, report = estimate(stream, EstimatorConfig(epsilon=0.2, t_hat=1, kappa_hat=2))\n"
        "print('triad.graph' in sys.modules, 'exact-fallback' in report.flags)\n"
        "from triad.graph import Graph, triangles_exact_cn\n"
        "print(value, triangles_exact_cn(Graph.from_checked_edges(edges)))\n"))
    assert out[0] == "False"
    assert out[1] == "True True"
    assert out[2] == "60.0 60"


def test_tables_and_saturated_estimates_load_the_oracles_lazily():
    out = run_fresh(BOOK.format(k=400) + SAMPLED + (
        "from triad.assignment import saturated_estimates\n"
        "from triad.idset import triangle_edges\n"
        "[table] = report.tables\n"
        "print(len(table) > 0, all(e is None or e in triangle_edges(tri)\n"
        "                          for tri, e in table.items()))\n"
        "print('triad.graph' in sys.modules)\n"
        "from triad.graph import Graph\n"
        "k4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])\n"
        "print(sorted({(e.d_e, e.y) for e in saturated_estimates(k4, 0.2, 4, 3).values()}))\n"))
    assert out[0] == "6 False"
    assert out[1] == "True True"
    assert out[2] == "False"
    # in K4 every edge has degree 3 and lies in 2 triangles
    assert out[3] == "[(3, 2.0)]"


def test_star_import_and_dir_list_every_public_name():
    namespace: dict = {}
    exec("from triad import *", namespace)
    assert set(triad.__all__) <= set(namespace)
    assert dir(triad) == sorted(triad.__all__)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'Graphs'"):
        triad.Graphs
