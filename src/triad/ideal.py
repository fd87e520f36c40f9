"""Degree-oracle triangle estimator: three passes, degree-biased sampling.

One instance samples an edge with probability d_e / d_E, then draws a
uniform neighbor of the edge's anchor, then closure-checks the wedge. The
instance's value is d_E when the wedge closed into a triangle that the
fixed rule charges to the sampled edge, else 0: unbiased for the triangle
count, with second moment at most d_E * T. Triangles are charged to their
lowest-degree edge, canonical order breaking ties, so every triangle is
charged exactly once.

This is the main estimator's stage machine with the oracle in place of the
sample R: stage 1 collects each instance's edge at a uniform position of
the stream's d_e axis (edge e spans d_e = min(d_u, d_v) positions, so it
is picked with probability exactly d_e / d_E), stages 2 and 3 are the
shared neighbor and closure passes, and every closed instance is scored
in columns. A sizing pass outside the 3-pass budget measures d_E first.
All instances ride the same passes; the estimate is a median of group
means. The stored peak counts each distinct drawn edge once, and per
instance one item, its reference to that edge and then its neighbor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .assignment import _ceil_size
from .errors import ConfigError, InputError
from .estimator import _EDGE_HI, _EDGE_LO, _REPORT_KEYS, _StageMachine, _drive
from .sampling import ROLE_WEIGHTED_SAMPLE, EdgePicker, run_pass

if TYPE_CHECKING:
    from .graph import Graph


class DegreeOracle:
    """Exact degree lookups from an int64 table that holds vertex v's degree
    at index v, over dense ids; each vertex looked up counts as one query."""

    def __init__(self, graph: Graph):
        self._degrees = np.diff(graph.indptr)
        self.queries = 0

    @classmethod
    def from_degrees(cls, degrees: np.ndarray) -> "DegreeOracle":
        oracle = cls.__new__(cls)
        oracle._degrees, oracle.queries = np.asarray(degrees, dtype=np.int64), 0
        return oracle

    def __call__(self, vertices: np.ndarray) -> np.ndarray:
        """The degree of each vertex, as an int64 array."""
        vertices = np.asarray(vertices, dtype=np.int64)
        n = len(self._degrees)
        out = (vertices < 0) | (vertices >= n)
        if out.any():
            raise InputError(f"vertex {int(vertices[out][0])} out of range [0, {n})")
        self.queries += len(vertices)
        return self._degrees[vertices]


class _OracleWeights(EdgePicker):
    """An `EdgePicker` over each edge as the row (u, v, d_u, d_v), weighted
    by d_e = min(d_u, d_v)."""

    def __init__(self, positions, oracle):
        super().__init__(positions)
        self._oracle = oracle

    def observe_block(self, u: np.ndarray, v: np.ndarray) -> None:
        d_u = self._oracle(u)
        d_v = self._oracle(v)
        self.observe_rows((u, v, d_u, d_v), np.minimum(d_u, d_v))


@dataclass(frozen=True)
class IdealReport:
    """An ideal run's outcome. It prints in the main estimator's frozen keys:
    `r` is the instance count, `assignment_calls` the closure hits, `ell`, `s`
    and `memo_size` are 0, and `config` holds mode, epsilon, t_hat, groups and
    group_size. `oracle_queries` follows them."""

    estimate: float
    passes: int
    stored_edges_peak: int
    instances: int
    groups: int
    group_size: int
    d_e_total: int
    oracle_queries: int
    closure_hits: int
    seed: int
    epsilon: float
    t_hat: int

    def to_json_dict(self) -> dict:
        """The frozen report keys, then `oracle_queries`."""
        fields = dict(vars(self), r=self.instances, ell=0, s=0,
                      assignment_calls=self.closure_hits, memo_size=0,
                      config={"mode": "ideal", "epsilon": self.epsilon, "t_hat": self.t_hat,
                              "groups": self.groups, "group_size": self.group_size})
        return {k: fields[k] for k in _REPORT_KEYS + ("oracle_queries",)}


class _IdealRun(_StageMachine):
    """`count` instances on stages 1 to 3 of the main estimator's stage
    machine, the oracle in place of R; `x` holds their values once settled."""

    def __init__(self, oracle, count: int, seed: int, d_e_total: int):
        if count < 1:
            raise InputError(f"instance count must be >= 1, got {count}")
        if d_e_total < 1:
            raise InputError("cannot sample from a stream with no edges")
        super().__init__(seed, ())
        self.oracle = oracle
        self.count = count
        self.d_e_total = d_e_total

    def _begin_1(self) -> list:
        # the edge at a uniform position of the d_e axis, per instance
        positions = self._rng(ROLE_WEIGHTED_SAMPLE).integers(self.d_e_total, size=self.count)
        return [_OracleWeights(positions, self.oracle)]

    def _end_1(self) -> None:
        [picker] = self._observers
        if picker.total != self.d_e_total:
            raise InputError(f"the stream's total edge degree is {picker.total}, "
                             f"not {self.d_e_total}")
        rows = picker.samples()  # (u, v, d_u, d_v)
        self._draw(rows[:, :2], rows[:, 2:], np.arange(self.count))

    def _end_3(self) -> None:
        [closure] = self._observers
        # only the third vertex's degree is a new oracle query
        closed, _, edge, degrees = self._closed_wedges(closure, self.oracle)
        # the charged cell has the least d_e, the canonical-first on ties
        charged = np.minimum(degrees[:, _EDGE_LO], degrees[:, _EDGE_HI]).argmin(axis=1)
        self.hits = len(closed)
        self.x = np.zeros(self.count, dtype=np.float64)
        self.x[closed[charged == edge]] = self.d_e_total


def _run(stream, oracle, count: int, seed: int, d_e_total: int) -> _IdealRun:
    """`count` instances, settled over three shared passes."""
    run = _IdealRun(oracle, count, seed, d_e_total)
    _drive(stream, [[run]], range(1, 4))
    return run


def ideal_sample(stream, oracle, count: int, seed: int,
                 d_e_total: int) -> tuple[np.ndarray, int, int]:
    """`count` independent instance values over three shared passes, given
    the stream's total edge degree d_E.

    Returns (values, d_E, closure hits). Each value is 0 or d_E.
    """
    run = _run(stream, oracle, count, seed, d_e_total)
    return run.x, d_e_total, run.hits


def _group_size(epsilon: float, t_hat: int, d_e_total: int) -> int:
    """ceil(4 * d_E / (eps^2 * t_hat)) instances per group, at least 1."""
    return _ceil_size("the instance count", lambda: 4 * d_e_total / (epsilon * epsilon * t_hat),
                      epsilon=epsilon, t_hat=t_hat)


def ideal_estimate(stream, oracle, epsilon: float, t_hat: int,
                   seed: int) -> tuple[float, IdealReport]:
    """Median of 7 group means over ceil(4 * d_E / (eps^2 * t_hat)) instances
    per group.

    d_E comes from a sizing pass through the oracle; it sets the instance
    count and the axis pass 1 draws its positions on. The estimator itself
    still takes exactly three passes.
    """
    if not 0 < epsilon < 1:
        raise ConfigError(f"epsilon must lie in (0, 1), got {epsilon}")
    if t_hat < 1:
        raise ConfigError(f"t_hat must be >= 1, got {t_hat}")

    # d_E >= 1 on any stream with an edge: a count out of float range here
    # is out of range on every stream, and is refused before the sizing pass
    _group_size(epsilon, t_hat, 1)

    # sizing pass, not charged to the 3-pass budget: the d_e axis's length
    sizing = _OracleWeights((), oracle)
    run_pass(stream, [sizing])
    d_e_total = sizing.total
    if d_e_total == 0:
        raise InputError("cannot estimate on a stream with no edges")

    groups = 7
    group_size = _group_size(epsilon, t_hat, d_e_total)
    # numpy draws at most 2**63 - 1 positions at once
    if groups * group_size >= 2**63:
        raise ConfigError(f"epsilon {epsilon} and t_hat {t_hat} ask for "
                          f"{groups * group_size} instances, more than one run can draw")
    run = _run(stream, oracle, groups * group_size, seed, d_e_total)
    # the median of an odd count; np.median imports numpy.ma on its first call
    estimate = float(np.sort(run.x.reshape(groups, group_size).mean(axis=1))[groups // 2])
    report = IdealReport(
        estimate=estimate,
        passes=run.passes,
        stored_edges_peak=run.peak_items,
        instances=run.count,
        groups=groups,
        group_size=group_size,
        d_e_total=d_e_total,
        oracle_queries=oracle.queries,
        closure_hits=run.hits,
        seed=seed,
        epsilon=epsilon,
        t_hat=t_hat,
    )
    return estimate, report
