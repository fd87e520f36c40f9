"""Six-pass streaming triangle estimator.

Schedule per repetition (one stats pass fixing n and m runs beforehand and
is reported separately from the budget):

  pass 1  uniform edge sample R: r one-slot reservoirs in one SlotBank
  pass 2  exact degrees of R's endpoints -> d_e per sampled slot, d_R;
          then, consuming no pass, draw ell slots from R proportional to d_e
  pass 3  one uniform neighbor of the drawn edge's anchor, per slot
  pass 4  closure checks for the drawn wedges plus exact degrees of the
          third vertices -> discovered triangles with all three edge degrees
  pass 5  wedge sampling for every (triangle, edge) pair whose edge degree
          is under the cheapness cutoff: s uniform neighbors of the edge's
          anchor, or the full neighborhood once s covers it
  pass 6  closure checks for the wedge samples -> per-edge estimates ->
          memoized assignment decisions

A slot scores 1 when its wedge closed into a triangle that the assignment
rule charges to the slot's own edge. The estimate is
(m / r) * d_R * mean(scores).

Degenerate regimes stay honest rather than failing: when r reaches m, the
run stores the whole edge set on its first pass, once however many
repetitions were asked for, and reports the exact count, flagged
"exact-fallback". When ell or the total wedge-sample budget reaches m, the
repetition does the same on its next pass.
A repetition whose live storage exceeds abort_multiplier * (r + ell + s)
aborts with estimate 0 and a "space-abort" flag. Each sampler draws from one
generator keyed by (seed, role, repetition), so a fixed (source, order
seed, config) is bit-reproducible, and multiplexing repetitions onto shared
passes does not change any repetition's outcome.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Optional, Sequence

from .assignment import (
    AssignmentTable,
    EdgeEstimate,
    INFINITY,
    compute_s,
    degree_cutoff,
    is_assigned,
)
from .errors import ConfigError, InputError
from .graph import Edge, Graph, Triangle, canonical_edge, pick_anchor, triangle_edges, triangles_exact_cn
from .sampling import (
    ROLE_EDGE_SAMPLE,
    ROLE_NEIGHBOR,
    ROLE_PICK,
    ROLE_WEDGE,
    ClosureBank,
    NeighborRequest,
    NeighborSampleBank,
    SlotBank,
    run_pass,
    substream,
    weighted_pick,
)
from .stream import StreamStats

PASSES_PER_REPETITION = 6

_REPORT_KEYS = (
    "estimate", "passes", "stored_edges_peak", "r", "ell", "s",
    "assignment_calls", "memo_size", "seed", "config",
)


@dataclass
class EstimatorConfig:
    """Inputs and constants for one estimation run.

    t_hat is an a-priori lower bound on the triangle count, kappa_hat an
    upper bound on the degeneracy. The c_* constants must stay above their
    analysis floors (6, 20, 60); `scale` shrinks all three uniformly for
    desk-scale experiments and flags the run as sub-theoretical.
    """

    epsilon: float
    t_hat: int
    kappa_hat: int
    c_r: float = 7.0
    c_ell: float = 21.0
    c_s: float = 61.0
    repetitions: int = 1
    seed: int = 0
    scale: float = 1.0
    share_passes: bool = False
    abort_multiplier: float = 10.0
    exact_fallback: bool = True

    def validate(self) -> list[str]:
        """Raise ConfigError on hard violations; return advisory flags."""
        if not 0 < self.epsilon < 0.5:
            raise ConfigError(f"epsilon must lie in (0, 0.5), got {self.epsilon}")
        if self.t_hat < 1:
            raise ConfigError(f"t_hat must be >= 1, got {self.t_hat}")
        if self.kappa_hat < 1:
            raise ConfigError(f"kappa_hat must be >= 1, got {self.kappa_hat}")
        if self.c_r <= 6:
            raise ConfigError(f"c_r must exceed 6, got {self.c_r}")
        if self.c_ell <= 20:
            raise ConfigError(f"c_ell must exceed 20, got {self.c_ell}")
        if self.c_s <= 60:
            raise ConfigError(f"c_s must exceed 60, got {self.c_s}")
        if self.repetitions < 1 or self.repetitions % 2 == 0:
            raise ConfigError(f"repetitions must be odd and positive, got {self.repetitions}")
        if not 0 < self.scale <= 1:
            raise ConfigError(f"scale must lie in (0, 1], got {self.scale}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.abort_multiplier <= 1:
            raise ConfigError(f"abort_multiplier must exceed 1, got {self.abort_multiplier}")
        flags = []
        if self.epsilon >= 1 / 6:
            flags.append("epsilon-above-analysis")
        if self.scale < 1:
            flags.append("scaled-constants")
        return flags

    def as_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "t_hat": self.t_hat,
            "kappa_hat": self.kappa_hat,
            "c_r": self.c_r,
            "c_ell": self.c_ell,
            "c_s": self.c_s,
            "repetitions": self.repetitions,
            "seed": self.seed,
            "scale": self.scale,
            "share_passes": self.share_passes,
            "abort_multiplier": self.abort_multiplier,
            "exact_fallback": self.exact_fallback,
        }


def _log2n(n: int) -> float:
    return math.log2(n) if n >= 2 else 1.0


def compute_r(n: int, m: int, epsilon: float, t_hat: int, kappa_hat: int,
              c_r: float = 7.0, scale: float = 1.0, cap: bool = True) -> int:
    """Uniform sample size.

    ceil(scale * c_r * log2(n) / eps^2 * m * (kappa_hat / eps)
         / ((1 - 2 eps) * t_hat)), capped at m. The kappa_hat / eps factor
    bounds the largest per-edge assigned count, and (1 - 2 eps) bounds the
    assigned fraction of triangles, so only the declared inputs appear.
    Reaching the cap means sampling cannot beat storing the graph, and the
    run degrades to exact counting.
    """
    if t_hat < 1:
        raise ConfigError(f"t_hat must be >= 1, got {t_hat}")
    if not 0 < epsilon < 0.5:
        raise ConfigError(f"epsilon must lie in (0, 0.5), got {epsilon}")
    raw = (c_r * _log2n(n) / (epsilon * epsilon)
           * (m * (kappa_hat / epsilon)) / ((1 - 2 * epsilon) * t_hat))
    r = max(1, math.ceil(scale * raw))
    return min(r, m) if cap else r


def compute_ell(n: int, m: int, epsilon: float, t_hat: int, r: int, d_r: int,
                c_ell: float = 21.0, scale: float = 1.0) -> int:
    """Number of degree-proportional draws from the sampled set.

    ceil(scale * c_ell * log2(n) / eps^2 * m * d_R / (r * (1 - 2 eps) *
    t_hat)). The run-level cap at m (with exact fallback) is enforced by the
    caller, not here.
    """
    if d_r <= 0:
        raise InputError(f"d_R must be positive, got {d_r}")
    if not 0 < epsilon < 0.5:
        raise ConfigError(f"epsilon must lie in (0, 0.5), got {epsilon}")
    raw = (c_ell * _log2n(n) / (epsilon * epsilon)
           * (m * d_r) / (r * (1 - 2 * epsilon) * t_hat))
    return max(1, math.ceil(scale * raw))


@dataclass
class RunReport:
    """Outcome and accounting for an estimation run.

    `flags` and the raw pass counter live on the object only; the JSON
    serialization carries exactly the ten stable keys.
    """

    estimate: float
    passes: int
    stored_edges_peak: int
    r: int
    ell: int
    s: int
    assignment_calls: int
    memo_size: int
    seed: int
    config: dict
    flags: tuple[str, ...] = ()
    tables: tuple[AssignmentTable, ...] = ()

    def to_json_dict(self) -> dict:
        return {k: getattr(self, k) for k in _REPORT_KEYS}


class _GraphCollector:
    """Stores the whole stream; only used on the exact-fallback path."""

    def __init__(self):
        self.edges: list[Edge] = []

    def observe(self, u: int, v: int) -> None:
        self.edges.append((u, v))


class _Repetition:
    """State machine for one repetition; each stage is fed one stream pass.

    stage_begin(k) returns the observer for the k-th pass (or None when the
    stage needs no pass), stage_end(k) folds the pass results in. A settled
    repetition has its value in `x` and returns no more observers.
    `forced_sample` is a test hook that injects R directly, skipping pass 1
    and the r >= m exact-fallback shortcut.
    """

    def __init__(self, stats: StreamStats, config: EstimatorConfig, rep: int,
                 base_flags: Sequence[str] = (), forced_sample=None):
        self.cfg = config
        self.rep = rep
        self.n = stats.n
        self.m = stats.m
        self.flags: list[str] = list(base_flags)
        self.x: Optional[float] = None
        self.passes = 0
        self.peak_items = 0
        self.assignment_calls = 0
        self.table = AssignmentTable()
        self.forced = forced_sample

        self.r = compute_r(self.n, self.m, config.epsilon, config.t_hat,
                           config.kappa_hat, config.c_r, config.scale)
        self.s = compute_s(self.n, self.m, config.epsilon, config.t_hat,
                           config.kappa_hat, config.c_s, config.scale)
        self.ell = 0
        self.d_r = 0

        self.sample: list[Edge] = []
        self.slot_degrees: list[int] = []
        self.deg: dict[int, int] = {}
        self.draws = None
        self.draw_edges: list[Edge] = []
        self.draw_anchors: list[int] = []
        self.neighbors: list[Optional[int]] = []
        # each discovered triangle's three edges with their exact degrees
        self.tri_degrees: dict[Triangle, tuple[tuple[Edge, int], ...]] = {}
        self.slot_triangle: list[Optional[Triangle]] = []
        self.wedge_reqs: list[tuple[Triangle, Edge, int, Optional[int]]] = []
        self.wedge_samples: list[list[int]] = []
        self.wedge_slots = 0
        self.estimates: dict[Triangle, dict[Edge, EdgeEstimate]] = {}

        self._bank = None
        self._collector: Optional[_GraphCollector] = None
        self._fallback_next = (config.exact_fallback and self.r >= self.m
                               and forced_sample is None)

    # -- driver interface ---------------------------------------------------

    @property
    def settled(self) -> bool:
        return self.x is not None

    def stage_begin(self, stage: int):
        if self.settled:
            return None
        if self._fallback_next:
            self._fallback_next = False
            self._collector = _GraphCollector()
            self.passes += 1
            return self._collector
        obs = getattr(self, f"_begin_{stage}")()
        self._bank = obs
        if obs is not None:
            self.passes += 1
        return obs

    def stage_end(self, stage: int) -> None:
        if self.settled:
            return
        if self._collector is not None:
            self._finish_fallback()
        else:
            getattr(self, f"_end_{stage}")()
        self._note_storage()

    # -- storage accounting ---------------------------------------------------

    def _live_items(self) -> int:
        total = len(self.sample) + len(self.deg)
        if self.draws is not None:
            total += len(self.draws)
        total += len(self.neighbors)
        total += 3 * len(self.tri_degrees)
        total += self.wedge_slots
        total += len(self.table)
        if self._collector is not None:
            total += len(self._collector.edges)
        return total

    def _note_storage(self) -> None:
        live = self._live_items()
        if live > self.peak_items:
            self.peak_items = live

    def _settle(self, value: float) -> None:
        self.x = float(value)

    def _abort_budget(self) -> int:
        return math.ceil(self.cfg.abort_multiplier * (self.r + self.ell + self.s))

    # -- exact fallback -------------------------------------------------------

    def _finish_fallback(self) -> None:
        # the stream validated every edge when it was opened
        g = Graph.from_checked_edges(self._collector.edges)
        self.flags.append("exact-fallback")
        self._settle(triangles_exact_cn(g))

    # -- stage 0: uniform edge sample ----------------------------------------

    def _begin_0(self):
        if self.forced is not None:
            return None
        return SlotBank(self.r, substream(self.cfg.seed, ROLE_EDGE_SAMPLE, self.rep))

    def _end_0(self) -> None:
        if self.forced is not None:
            self.sample = [canonical_edge(u, v) for u, v in self.forced]
            self.r = len(self.sample)
        else:
            self.sample = self._bank.samples()
            self._bank = None

    # -- stage 1: exact degrees of R, then the degree-proportional draws ------

    def _begin_1(self):
        endpoints = {u for e in self.sample for u in e}
        return ClosureBank(degree_vertices=endpoints)

    def _end_1(self) -> None:
        self.deg.update(self._bank.degrees)
        self._bank = None
        deg = self.deg
        self.slot_degrees = [min(deg[u], deg[v]) for u, v in self.sample]
        self.d_r = sum(self.slot_degrees)
        if self.d_r <= 0:
            self.flags.append("sparse-sample")
            self._settle(0.0)
            return
        cfg = self.cfg
        self.ell = compute_ell(self.n, self.m, cfg.epsilon, cfg.t_hat,
                               self.r, self.d_r, cfg.c_ell, cfg.scale)
        if cfg.exact_fallback and self.ell > self.m:
            self._fallback_next = True
            return
        rng = substream(cfg.seed, ROLE_PICK, self.rep)
        self.draws = weighted_pick(self.slot_degrees, self.ell, rng)
        deg = self.deg
        for idx in self.draws:
            u, v = self.sample[int(idx)]
            self.draw_edges.append((u, v))
            self.draw_anchors.append(pick_anchor(u, v, deg[u], deg[v]))

    # -- stage 2: uniform neighbor per draw ------------------------------------

    def _begin_2(self):
        requests = [
            NeighborRequest(e, a, 1)
            for e, a in zip(self.draw_edges, self.draw_anchors)
        ]
        return NeighborSampleBank(requests, substream(self.cfg.seed, ROLE_NEIGHBOR, self.rep))

    def _end_2(self) -> None:
        results = self._bank.results()
        self._bank = None
        self.neighbors = [res[0] if res else None for res in results]

    # -- stage 3: wedge closure + third-vertex degrees -------------------------

    def _begin_3(self):
        pairs = set()
        degree_queries = set()
        for (u, v), a, w in zip(self.draw_edges, self.draw_anchors, self.neighbors):
            if w is None:
                continue
            other = v if a == u else u
            if w == other:
                continue
            pairs.add(canonical_edge(other, w))
            degree_queries.add(w)
        return ClosureBank(pairs=pairs, degree_vertices=degree_queries)

    def _end_3(self) -> None:
        present = self._bank.present
        self.deg.update(self._bank.degrees)
        self._bank = None
        deg = self.deg
        self.slot_triangle = [None] * self.ell
        for i, ((u, v), a, w) in enumerate(
                zip(self.draw_edges, self.draw_anchors, self.neighbors)):
            if w is None:
                continue
            other = v if a == u else u
            if w == other or not present[canonical_edge(other, w)]:
                continue
            tri: Triangle = tuple(sorted((u, v, w)))
            self.slot_triangle[i] = tri
            if tri not in self.tri_degrees:
                self.tri_degrees[tri] = tuple(
                    (f, min(deg[f[0]], deg[f[1]])) for f in triangle_edges(tri)
                )

        cut = degree_cutoff(self.m, self.cfg.epsilon, self.cfg.t_hat, self.cfg.kappa_hat)
        for tri, edge_degrees in self.tri_degrees.items():
            per_edge: dict[Edge, EdgeEstimate] = {}
            for f, d_f in edge_degrees:
                if d_f > cut:
                    per_edge[f] = EdgeEstimate(f, d_f, INFINITY)
                    continue
                anchor = pick_anchor(f[0], f[1], deg[f[0]], deg[f[1]])
                want = None if self.s >= d_f else self.s
                self.wedge_reqs.append((tri, f, anchor, want))
                self.wedge_slots += d_f if want is None else want
            self.estimates[tri] = per_edge

        if self.cfg.exact_fallback and self.wedge_slots > self.m:
            self._fallback_next = True
            return
        self._note_storage()
        if self._live_items() > self._abort_budget():
            self.flags.append("space-abort")
            self._settle(0.0)

    # -- stage 4: wedge sampling ------------------------------------------------

    def _begin_4(self):
        requests = [
            NeighborRequest(f, anchor, want)
            for (_, f, anchor, want) in self.wedge_reqs
        ]
        return NeighborSampleBank(requests, substream(self.cfg.seed, ROLE_WEDGE, self.rep))

    def _end_4(self) -> None:
        self.wedge_samples = self._bank.results()
        self._bank = None

    # -- stage 5: wedge closure, estimates, assignment, estimate ----------------

    def _begin_5(self):
        pairs = set()
        for (tri, f, anchor, _), samples in zip(self.wedge_reqs, self.wedge_samples):
            other = f[1] if anchor == f[0] else f[0]
            for w in samples:
                if w != other:
                    pairs.add(canonical_edge(other, w))
        return ClosureBank(pairs=pairs)

    def _end_5(self) -> None:
        present = self._bank.present
        self._bank = None
        deg = self.deg
        for (tri, f, anchor, want), samples in zip(self.wedge_reqs, self.wedge_samples):
            other = f[1] if anchor == f[0] else f[0]
            hits = sum(
                1 for w in samples
                if w != other and present[canonical_edge(other, w)]
            )
            d_f = min(deg[f[0]], deg[f[1]])
            s_eff = len(samples) if want is None else want
            y = d_f * hits / s_eff if s_eff else 0.0
            self.estimates[tri][f] = EdgeEstimate(f, d_f, y)

        cfg = self.cfg
        score = 0
        for i, tri in enumerate(self.slot_triangle):
            if tri is None:
                continue
            self.assignment_calls += 1
            if is_assigned(tri, self.draw_edges[i], self.estimates[tri],
                           cfg.epsilon, cfg.kappa_hat, self.table):
                score += 1
        y_mean = score / self.ell
        self._settle((self.m / self.r) * self.d_r * y_mean)


def _drive(stream, groups: list[list[_Repetition]]) -> None:
    """Run each group's repetitions to the end, one shared pass per stage.

    Sequential mode uses groups of one repetition, share_passes one group
    holding them all; each repetition's outcome is the same either way.
    """
    for reps in groups:
        for stage in range(PASSES_PER_REPETITION):
            begun = [(rep, rep.stage_begin(stage)) for rep in reps if not rep.settled]
            observers = [obs for _, obs in begun if obs is not None]
            if observers:
                run_pass(stream, observers)
            for rep, _ in begun:
                rep.stage_end(stage)
            if all(rep.settled for rep in reps):
                break


def estimate(stream, config: EstimatorConfig) -> tuple[float, RunReport]:
    """Median over `repetitions` independent six-pass runs.

    With share_passes the repetitions are multiplexed onto six shared
    physical passes; each repetition's value is identical either way because
    randomness is keyed per repetition. The aggregate report echoes the
    shared r and s, the largest ell (it varies with each repetition's d_R),
    the peak storage across repetitions, and totals for assignment calls and
    memo entries; tables are never shared between repetitions. When r
    reaches m the run is one repetition, whatever `repetitions` says: one
    pass stores the whole graph and its exact count is the estimate.
    """
    base_flags = config.validate()
    stats = stream.stats()
    if stats.m == 0:
        raise InputError("cannot estimate on a stream with no edges")
    first = _Repetition(stats, config, rep=0, base_flags=base_flags)
    # r >= m: every repetition would store and count the same whole graph
    count = 1 if first._fallback_next else config.repetitions
    reps = [first] + [
        _Repetition(stats, config, rep=i, base_flags=base_flags)
        for i in range(1, count)
    ]
    _drive(stream, [reps] if config.share_passes else [[rep] for rep in reps])
    xs = [rep.x for rep in reps]
    final = float(statistics.median(xs))
    flags: list[str] = []
    for rep in reps:
        for fl in rep.flags:
            if fl not in flags:
                flags.append(fl)
    if config.share_passes:
        flags.append("shared-passes")
    report = RunReport(
        estimate=final,
        passes=max(rep.passes for rep in reps),
        stored_edges_peak=max(rep.peak_items for rep in reps),
        r=reps[0].r,
        ell=max(rep.ell for rep in reps),
        s=reps[0].s,
        assignment_calls=sum(rep.assignment_calls for rep in reps),
        memo_size=sum(len(rep.table) for rep in reps),
        seed=config.seed,
        config=config.as_dict(),
        flags=tuple(flags),
        tables=tuple(rep.table for rep in reps),
    )
    return final, report
