"""Shared edge-list text format.

One edge per line: two vertex ids in [0, 2**63), each written as plain
ASCII digits, separated by whitespace. Lines starting with '#' are
comments; blank lines are skipped. Self-loops and repeated edges (in either
orientation) are rejected with the offending line number.
"""

from __future__ import annotations

import os
from typing import Iterable, Optional

from .errors import EdgeListError

Edge = tuple[int, int]

# vertex ids must fit a signed 64-bit integer, the graph arrays' dtype
ID_LIMIT = 1 << 63


def parse_line(line: bytes, lineno: int) -> Optional[Edge]:
    """Parse one raw line into a canonical (u, v) with u < v, or None to skip.

    Fields split on ASCII whitespace and each id is a run of ASCII digits,
    so a non-ASCII byte is harmless in a comment and an error in an edge
    line, and one id has one spelling (no sign, underscore or other digit
    script).
    """
    parts = line.split()
    if not parts or parts[0].startswith(b"#"):
        return None
    if len(parts) != 2:
        raise EdgeListError(f"expected two vertex ids, got {len(parts)} fields", lineno)
    if not (parts[0].isdigit() and parts[1].isdigit()):
        fields = [p.decode("ascii", "replace") for p in parts]
        signed = all(p.removeprefix(b"-").isdigit() for p in parts)
        raise EdgeListError(
            f"{'negative' if signed else 'non-integer'} vertex id in {fields!r}", lineno)
    u, v = int(parts[0]), int(parts[1])
    if u >= ID_LIMIT or v >= ID_LIMIT:
        raise EdgeListError(f"vertex id in {[u, v]!r} is not below 2**63", lineno)
    if u == v:
        raise EdgeListError(f"self-loop at vertex {u}", lineno)
    return (u, v) if u < v else (v, u)


def read_edges(path: str | os.PathLike) -> list[Edge]:
    """Load and fully validate an edge-list file.

    Lines end at b"\n"; duplicates are rejected with their line number.
    """
    out: list[Edge] = []
    seen: set[Edge] = set()
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            edge = parse_line(raw, lineno)
            if edge is not None:
                if edge in seen:
                    raise EdgeListError(f"duplicate edge {edge[0]} {edge[1]}", lineno)
                seen.add(edge)
                out.append(edge)
    return out


def validate_edges(edges: Iterable[tuple[int, int]]) -> list[Edge]:
    """Canonicalize an in-memory edge sequence, rejecting loops and repeats."""
    out: list[Edge] = []
    seen: set[Edge] = set()
    for idx, (u, v) in enumerate(edges, start=1):
        if u < 0 or v < 0:
            raise EdgeListError(f"negative vertex id ({u}, {v})", idx)
        if u >= ID_LIMIT or v >= ID_LIMIT:
            raise EdgeListError(f"vertex id in ({u}, {v}) is not below 2**63", idx)
        if u == v:
            raise EdgeListError(f"self-loop at vertex {u}", idx)
        edge = (u, v) if u < v else (v, u)
        if edge in seen:
            raise EdgeListError(f"duplicate edge {edge[0]} {edge[1]}", idx)
        seen.add(edge)
        out.append(edge)
    return out


def write_edges(path: str | os.PathLike, edges: Iterable[Edge], comment: str | None = None) -> None:
    with open(path, "w", encoding="ascii") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        for u, v in edges:
            fh.write(f"{u} {v}\n")
