"""Degree-oracle triangle estimator: three passes, degree-biased sampling.

One instance samples an edge with probability d_e / d_E, then draws a
uniform neighbor of the edge's anchor, then closure-checks the wedge. The
instance's value is d_E when the wedge closed into a triangle that the
fixed rule charges to the sampled edge, else 0: unbiased for the triangle
count, with second moment at most d_E * T. Triangles are charged to their
lowest-degree edge, canonical order breaking ties, so every triangle is
charged exactly once.

Every pass is a columnar block observer. The oracle gives each edge's
d_e = min(d_u, d_v), and the edges in stream order lay out a running
integer axis on which edge e spans d_e consecutive positions. The sizing
pass measures the axis length d_E. Pass 1 then collects, for each
instance, the edge at a position drawn uniformly from [0, d_E) up front:
edge e owns d_e of the d_E positions, so it is picked with probability
exactly d_e / d_E.

Pass 2: the pick carries its anchor's oracle degree d_a, so each instance
draws j uniform in [0, d_a) up front and the pass collects the anchor's
j-th incident edge. Pass 3 checks every live wedge's closing pair. Both
passes are shared with the main estimator.

Any number of instances ride the same three physical passes; the final
estimate is a median of group means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError
from .graph import Graph, canonical_edge
from .sampling import (
    ROLE_NEIGHBOR,
    ROLE_WEIGHTED_SAMPLE,
    ClosureChecker,
    EdgePicker,
    IncidentPicker,
    run_pass,
    substream,
)


class DegreeOracle:
    """Exact degree lookups backed by an in-memory graph; each vertex looked
    up counts as one query."""

    def __init__(self, graph: Graph):
        self._degrees = np.diff(graph.indptr)
        self.queries = 0

    def __call__(self, vertices: np.ndarray) -> np.ndarray:
        """The degree of each vertex, as an int64 array."""
        vertices = np.asarray(vertices, dtype=np.int64)
        n = len(self._degrees)
        out = (vertices < 0) | (vertices >= n)
        if out.any():
            raise InputError(f"vertex {int(vertices[out][0])} out of range [0, {n})")
        self.queries += len(vertices)
        return self._degrees[vertices]


class _OracleWeights:
    """Feeds the picker each edge as the row (u, v, d_u, d_v), weighted by
    d_e = min(d_u, d_v)."""

    def __init__(self, picker: EdgePicker, oracle):
        self._picker = picker
        self._oracle = oracle

    def observe_block(self, u: np.ndarray, v: np.ndarray) -> None:
        d_u = self._oracle(u)
        d_v = self._oracle(v)
        self._picker.observe_rows((u, v, d_u, d_v), np.minimum(d_u, d_v))


@dataclass(frozen=True)
class IdealReport:
    estimate: float
    passes: int
    instances: int
    groups: int
    group_size: int
    d_e_total: int
    oracle_queries: int
    closure_hits: int
    seed: int


def ideal_sample(stream, oracle, count: int, seed: int,
                 d_e_total: int) -> tuple[np.ndarray, int, int]:
    """`count` independent instance values over three shared passes, given
    the stream's total edge degree d_E.

    Returns (values, d_E, closure hits). Each value is 0 or d_E.
    """
    if count < 1:
        raise InputError(f"instance count must be >= 1, got {count}")
    if d_e_total < 1:
        raise InputError("cannot sample from a stream with no edges")

    # pass 1: the edge at a uniform position of the d_e axis, per instance
    positions = substream(seed, ROLE_WEIGHTED_SAMPLE).integers(d_e_total, size=count)
    picker = EdgePicker(positions)
    run_pass(stream, [_OracleWeights(picker, oracle)])
    if picker.total != d_e_total:
        raise InputError(f"the stream's total edge degree is {picker.total}, not {d_e_total}")
    picks = picker.samples()

    # pass 2: one uniform neighbor of each instance's anchor, the lower-degree
    # end (the larger id on ties, as pick_anchor has it), whose degree the
    # pick already carries
    u, v, d_u, d_v = picks.T
    anchors = np.where(d_u < d_v, u, v)
    rng = substream(seed, ROLE_NEIGHBOR)
    neighbors = IncidentPicker(anchors, rng.integers(np.minimum(d_u, d_v)))
    run_pass(stream, [neighbors])
    sampled = neighbors.results()

    # pass 3: closure checks for every live wedge; a neighbor equal to the
    # edge's other end makes a degenerate wedge, which cannot close
    others = np.where(anchors == u, v, u)
    live = np.flatnonzero(sampled != others)
    closure = ClosureChecker(others[live], sampled[live])
    run_pass(stream, [closure])

    xs = np.zeros(count, dtype=np.float64)
    closed = live[closure.present()]
    third = sampled[closed]
    for i, c, d_c in zip(closed.tolist(), third.tolist(), oracle(third).tolist()):
        a, b, d_a, d_b = picks[i].tolist()
        tri_edges = (
            (min(d_a, d_b), canonical_edge(a, b)),
            (min(d_a, d_c), canonical_edge(a, c)),
            (min(d_b, d_c), canonical_edge(b, c)),
        )
        charged = min(tri_edges)[1]
        if charged == canonical_edge(a, b):
            xs[i] = d_e_total
    hits = len(closed)
    return xs, d_e_total, hits


def ideal_estimate(stream, oracle, epsilon: float, t_hat: int, seed: int,
                   c: float = 4.0, groups: int = 7) -> tuple[float, IdealReport]:
    """Median of group means over ceil(c * d_E / (eps^2 * t_hat)) instances
    per group.

    d_E comes from a sizing pass through the oracle; it sets the instance
    count and the axis pass 1 draws its positions on. The estimator itself
    still takes exactly three passes.
    """
    if not 0 < epsilon < 1:
        raise ConfigError(f"epsilon must lie in (0, 1), got {epsilon}")
    if t_hat < 1:
        raise ConfigError(f"t_hat must be >= 1, got {t_hat}")
    if groups < 1 or groups % 2 == 0:
        raise ConfigError(f"groups must be odd and positive, got {groups}")

    # sizing pass, not charged to the 3-pass budget: the d_e axis's length
    sizing = EdgePicker(())
    run_pass(stream, [_OracleWeights(sizing, oracle)])
    d_e_total = sizing.total
    if d_e_total == 0:
        raise InputError("cannot estimate on a stream with no edges")

    group_size = max(1, math.ceil(c * d_e_total / (epsilon * epsilon * t_hat)))
    count = groups * group_size
    xs, _, hits = ideal_sample(stream, oracle, count, seed, d_e_total)
    means = xs.reshape(groups, group_size).mean(axis=1)
    estimate = float(np.median(means))
    report = IdealReport(
        estimate=estimate,
        passes=3,
        instances=count,
        groups=groups,
        group_size=group_size,
        d_e_total=d_e_total,
        oracle_queries=oracle.queries,
        closure_hits=hits,
        seed=seed,
    )
    return estimate, report
