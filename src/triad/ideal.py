"""Degree-oracle triangle estimator: three passes, degree-biased sampling.

One instance samples an edge with probability d_e / d_E from a one-slot
weighted reservoir (weights come from the oracle as edges arrive), then
draws a uniform neighbor of the edge's anchor, then closure-checks the
wedge. The instance's value is d_E when the wedge closed into a triangle
that the fixed rule charges to the sampled edge, else 0: unbiased for the
triangle count, with second moment at most d_E * T. Triangles are charged
to their lowest-degree edge, canonical order breaking ties, so every
triangle is charged exactly once.

Pass 1: all instances' edge picks share one `SlotBank`, whose running
weight is d_E: a slot refreshed at running weight W keeps its edge through
running weight x with probability W/x, so it jumps to its next refresh at
W/U, U ~ Uniform(0, 1]. An edge costs O(1) plus O(log k) per slot it
refreshes, and a slot expects at most 1 + ln(d_E / d_first) refreshes,
d_first being the first edge's d_e.

Pass 2: the pick carries its anchor's oracle degree d_a, so each instance
draws j uniform in [0, d_a) up front and the pass collects the anchor's
j-th incident edge. Pass 3 checks every live wedge's closing pair. Both
passes are columnar block observers shared with the main estimator.

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
    IncidentPicker,
    SlotBank,
    run_pass,
    substream,
)


class DegreeOracle:
    """Exact degree lookups backed by an in-memory graph; calls are counted."""

    def __init__(self, graph: Graph):
        self._graph = graph
        self.queries = 0

    def __call__(self, v: int) -> int:
        self.queries += 1
        return self._graph.degree(v)


class _OracleWeights:
    """Offers each edge to the bank as (u, v, d_u, d_v) with weight d_e."""

    def __init__(self, bank: SlotBank, oracle):
        self._bank = bank
        self._oracle = oracle

    def observe_block(self, u: np.ndarray, v: np.ndarray) -> None:
        oracle = self._oracle
        offer = self._bank.offer
        for a, b in zip(u.tolist(), v.tolist()):
            d_a = oracle(a)
            d_b = oracle(b)
            offer((a, b, d_a, d_b), d_a if d_a < d_b else d_b)


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


def ideal_sample(stream, oracle, count: int, seed: int) -> tuple[np.ndarray, int, int]:
    """`count` independent instance values over three shared passes.

    Returns (values, d_E, closure hits). Each value is 0 or d_E.
    """
    if count < 1:
        raise InputError(f"instance count must be >= 1, got {count}")

    # pass 1: weighted edge pick per instance; every edge has d_e >= 1, so
    # samples() raises only on an empty stream
    bank = SlotBank(count, substream(seed, ROLE_WEIGHTED_SAMPLE))
    run_pass(stream, [_OracleWeights(bank, oracle)])
    picks = bank.samples()
    d_e_total = bank.total

    # pass 2: one uniform neighbor of each instance's anchor, the lower-degree
    # end (the larger id on ties, as pick_anchor has it), whose degree the
    # pick already carries
    u, v, d_u, d_v = np.array(picks, dtype=np.int64).T
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
    for i, c in zip(closed.tolist(), sampled[closed].tolist()):
        a, b, d_a, d_b = picks[i]
        d_c = oracle(c)
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

    d_E is harvested from the stats pass using the oracle, so sizing the
    instance bank costs nothing extra; the estimator itself still takes
    exactly three passes.
    """
    if not 0 < epsilon < 1:
        raise ConfigError(f"epsilon must lie in (0, 1), got {epsilon}")
    if t_hat < 1:
        raise ConfigError(f"t_hat must be >= 1, got {t_hat}")
    if groups < 1 or groups % 2 == 0:
        raise ConfigError(f"groups must be odd and positive, got {groups}")

    # sizing pass, not charged to the 3-pass budget
    d_e_total = 0
    m = 0
    for u, v in stream.edges():
        d_e_total += min(oracle(u), oracle(v))
        m += 1
    if m == 0:
        raise InputError("cannot estimate on a stream with no edges")

    group_size = max(1, math.ceil(c * d_e_total / (epsilon * epsilon * t_hat)))
    count = groups * group_size
    xs, d_e_check, hits = ideal_sample(stream, oracle, count, seed)
    assert d_e_check == d_e_total
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
