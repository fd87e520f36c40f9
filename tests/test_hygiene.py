"""Static hygiene of the library: no unused imports, every export resolves,
and one observer protocol: pass observers take blocks of edges."""

import ast
from pathlib import Path

import pytest

import triad

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
