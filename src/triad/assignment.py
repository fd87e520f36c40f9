"""Rule deciding which edge, if any, a discovered triangle is charged to.

Every edge of the triangle gets an estimated incident-triangle count: the
fraction of wedge samples from its anchor that closed, scaled by the edge
degree, or infinity outright when the edge degree exceeds the cheapness
cutoff m * kappa^2 / (eps^2 * T). The edge with the smallest estimate wins
(ties by canonical edge order) unless even that estimate exceeds the load
cutoff kappa / (2 * eps), in which case the triangle stays unassigned.

`assign_rows` is the rule over a (k, 3) array of estimates, and
`assign_triangle` applies it to one row. A write-once memo table pins the
first decision per triangle, so repeated queries are consistent and each
triangle is charged to at most one of its own edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Mapping, Optional, Sequence

import numpy as np

from .errors import ConfigError, InputError, SchedulingError
from .idset import Edge, Triangle, triangle_edges

if TYPE_CHECKING:
    from .graph import Graph

INFINITY = math.inf


def degree_cutoff(m: int, epsilon: float, t_hat: int, kappa_hat: int) -> float:
    """Edges with d_e above this are never estimated, only skipped."""
    return m * kappa_hat * kappa_hat / (epsilon * epsilon * t_hat)


def load_cutoff(epsilon: float, kappa_hat: int) -> float:
    """Largest estimated count an edge may have and still accept a triangle."""
    return kappa_hat / (2.0 * epsilon)


def _log2n(n: int) -> float:
    """log2(n), read as 1 below n = 2, as every sample size uses it."""
    return math.log2(n) if n >= 2 else 1.0


def compute_s(n: int, m: int, epsilon: float, t_hat: int, kappa_hat: int,
              c_s: float = 61.0, scale: float = 1.0) -> int:
    """Wedge samples per estimated edge.

    ceil(scale * c_s * log2(n) / eps^2 * m * kappa_hat / t_hat); per-edge
    saturation (sampling the whole neighborhood once s >= d_e) is handled
    at request time.
    """
    if t_hat < 1:
        raise ConfigError(f"t_hat must be >= 1, got {t_hat}")
    if epsilon <= 0:
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    raw = c_s * _log2n(n) / (epsilon * epsilon) * m * kappa_hat / t_hat
    return max(1, math.ceil(scale * raw))


@dataclass(frozen=True)
class EdgeEstimate:
    """Estimated incident-triangle count for one edge of a triangle."""

    edge: Edge
    d_e: int
    y: float  # INFINITY when the degree cutoff tripped


class _Missing:
    pass


_MISSING = _Missing()


class AssignmentTable:
    """Write-once memo of triangle -> assigned edge (or None).

    Scoped to a single estimator repetition; sharing it across repetitions
    would correlate them.
    """

    def __init__(self):
        self._entries: dict[Triangle, Optional[Edge]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, tri: Triangle):
        return self._entries.get(tri, _MISSING)

    def record(self, tri: Triangle, result: Optional[Edge]) -> None:
        if result is not None and result not in triangle_edges(tri):
            raise InputError(f"edge {result} is not part of triangle {tri}")
        prior = self._entries.get(tri, _MISSING)
        if prior is not _MISSING and prior != result:
            raise SchedulingError(f"conflicting assignment recorded for {tri}")
        self._entries[tri] = result

    def items(self) -> Iterator[tuple[Triangle, Optional[Edge]]]:
        return iter(self._entries.items())


def assign_rows(y, epsilon: float, kappa_hat: int) -> np.ndarray:
    """The assignment rule over rows of estimates, one row per triangle.

    Row i holds the estimates of triangle i's edges in canonical order, the
    order of `triangle_edges`. Per row: the column of the edge with the
    smallest estimate, ties to the canonical-first edge, or -1 when even
    that estimate exceeds the load cutoff.
    """
    y = np.asarray(y, dtype=np.float64).reshape(-1, 3)
    best = y.argmin(axis=1)  # the first column holding the minimum
    return np.where(y[np.arange(len(y)), best] > load_cutoff(epsilon, kappa_hat), -1, best)


def assign_triangle(tri: Sequence[int], estimates: Mapping[Edge, EdgeEstimate],
                    epsilon: float, kappa_hat: int,
                    table: AssignmentTable) -> Optional[Edge]:
    """Memoized choice of the edge a triangle is charged to, or None.

    `estimates` must cover all three edges; a finite-degree edge without an
    estimate indicates a pass-scheduling bug upstream.
    """
    key: Triangle = tuple(sorted(tri))
    cached = table.lookup(key)
    if cached is not _MISSING:
        return cached
    edges = triangle_edges(key)
    for f in edges:
        if f not in estimates:
            raise SchedulingError(f"no wedge estimate for edge {f} of triangle {key}")
    [column] = assign_rows([estimates[f].y for f in edges], epsilon, kappa_hat).tolist()
    result = edges[column] if column >= 0 else None
    table.record(key, result)
    return result


def saturated_estimates(g: Graph, epsilon: float, t_hat: int,
                        kappa_hat: int) -> dict[Edge, EdgeEstimate]:
    """Exact estimates for every edge: y = true t_e, or infinity past the
    degree cutoff. This is what wedge sampling converges to once the sample
    count covers each neighborhood, and what the deterministic saturation
    tests feed the rule."""
    from .graph import per_edge_triangles

    cut = degree_cutoff(g.m, epsilon, t_hat, kappa_hat)
    out: dict[Edge, EdgeEstimate] = {}
    for p in per_edge_triangles(g):
        y = INFINITY if p.d_e > cut else float(p.t_e)
        out[p.edge] = EdgeEstimate(p.edge, p.d_e, y)
    return out
