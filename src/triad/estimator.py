"""Six-pass streaming triangle estimator.

Schedule per repetition (one stats pass fixing n and m runs beforehand and
is reported separately from the budget). Every sample whose total is known
before its pass has its positions drawn up front, so each pass only
collects them, block by block (see `triad.sampling`):

  pass 1  uniform edge sample R: r iid uniform positions in [0, m), and the
          pass collects the edges at those positions
  pass 2  exact degrees of R's endpoints -> d_e per sampled slot, d_R;
          then, consuming no pass, ell slots of law d_e / d_R: R's slots
          lay out an integer axis on which slot i spans d_e(i) positions,
          and the slots at ell uniform positions in [0, d_R) are collected
          by the same `EdgePicker` as ideal mode's pass 1
  pass 3  one uniform neighbor of each drawn edge's anchor: j uniform in
          [0, d_a), the anchor's degree from pass 2, and the pass collects
          the anchor's j-th incident edge
  pass 4  closure checks for the drawn wedges, whose checker also counts
          the exact degrees of the third vertices pass 2 did not count ->
          discovered triangles with all three edge degrees
  pass 5  wedge sampling for every (triangle, edge) pair whose edge degree
          is under the cheapness cutoff: s uniform positions among the
          anchor's incident edges, or all of them once s covers the degree
  pass 6  closure checks for the wedge samples -> per-edge estimates ->
          one assignment decision per triangle, its charged column

Pass 3 and pass 4's closure checks live on `_StageMachine`, which ideal
mode's three-pass run shares with its own pass 1 in place of passes 1-2.
Between passes the state is arrays. Pass 2's counter is released before
the draws are made, and R once they are: each distinct drawn edge is held
once, with both ends' degrees, its anchor and its other end, and a draw is
an index into those rows, with its neighbor beside it after pass 3. Pass
4's end folds the draws into the discovered triangles, a (k, 3) array in
first-closed-draw order with each edge's degree and closed-draw count, and
drops them; then one wedge request per cheap (triangle, edge) cell. A draw scores 1 when its wedge closed into a
triangle that the assignment rule charges to the draw's own edge. The
estimate is (m / r) * d_R * mean(scores).

Degenerate regimes stay honest rather than failing: when r reaches m, the
run stores the whole edge set on its first pass, once however many
repetitions were asked for, and reports the exact count, flagged
"exact-fallback". When ell or the projected wedge-sample budget exceeds m,
the repetition drops what it has sampled and does the same on its next
pass, so it never holds a sample and the graph at once; the planned wedge
slots are then never counted as stored. The space budget abort_multiplier *
(r + ell + s) is checked once, at the end of pass 4 (`_end_3`), against
the discovered triangles, three items each, and the planned wedge slots;
a repetition over it aborts with estimate 0 and a "space-abort" flag. R,
pass 2's degree counter and the draws are never checked against it. Stored
items count a draw as one item, its reference or, with its neighbor w, the
edge (a, w), and each drawn edge once. A sampled repetition whose peak
storage exceeds m, what storing the graph costs, is flagged
"no-space-advantage"; its value stands. A settled
repetition keeps only its value, flags, counters and memo. Each sampler
draws from one generator keyed by (seed, role, repetition), so a fixed
(source, order seed, config) is bit-reproducible, and multiplexing
repetitions onto shared passes does not change any repetition's outcome.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .assignment import INFINITY, _log2n, assign_rows, compute_s, degree_cutoff
from .errors import ConfigError, InputError
from .idset import _distinct, triangle_edges
from .sampling import (
    ROLE_EDGE_SAMPLE,
    ROLE_NEIGHBOR,
    ROLE_PICK,
    ROLE_WEDGE,
    ClosureChecker,
    DegreeCounter,
    EdgePicker,
    IncidentPicker,
    neighbor_picker,
    run_pass,
    substream,
)
from .stream import StreamStats

# the exact oracles load only on the exact-fallback path
if TYPE_CHECKING:
    from .graph import Graph

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
        for name, floor in (("c_r", 6), ("c_ell", 20), ("c_s", 60)):
            _check_above(name, getattr(self, name), floor)
        if self.repetitions < 1 or self.repetitions % 2 == 0:
            raise ConfigError(f"repetitions must be odd and positive, got {self.repetitions}")
        if not 0 < self.scale <= 1:
            raise ConfigError(f"scale must lie in (0, 1], got {self.scale}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        _check_above("abort_multiplier", self.abort_multiplier, 1)
        flags = []
        if self.epsilon >= 1 / 6:
            flags.append("epsilon-above-analysis")
        if self.scale < 1:
            flags.append("scaled-constants")
        return flags

    def as_dict(self) -> dict:
        return asdict(self)


def _check_above(name: str, value: float, floor: float) -> None:
    """A constant must be a finite number above its floor; NaN compares
    false with everything, and an infinite one makes no sample size."""
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")
    if value <= floor:
        raise ConfigError(f"{name} must exceed {floor}, got {value}")


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

    `flags` and `memos`, each repetition's (memo, charged) arrays, live
    on the object only; the JSON serialization carries exactly the ten
    stable keys. `tables` reads each memo as a dict.
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
    memos: tuple[tuple[np.ndarray, np.ndarray], ...] = ()

    @property
    def tables(self) -> tuple[dict, ...]:
        """Per repetition, triangle tuple -> charged edge tuple or None, in
        first-discovery order; built on each access."""
        return tuple({tuple(tri): triangle_edges(tri)[column] if column >= 0 else None
                      for tri, column in zip(memo.tolist(), charged.tolist())}
                     for memo, charged in self.memos)

    def to_json_dict(self) -> dict:
        return {k: getattr(self, k) for k in _REPORT_KEYS}


_NO_IDS = np.empty(0, dtype=np.int64)
_NO_EDGES = np.empty((0, 2), dtype=np.int64)
_NO_TRIANGLES = np.empty((0, 3), dtype=np.int64)

# cell 3 * i + j is edge j of triangle i = (a, b, c) in the canonical order
# of `triangle_edges`, ab, ac, bc; these are each edge's two corners
_EDGE_LO, _EDGE_HI = zip(*triangle_edges((0, 1, 2)))


def _anchor_ends(lo: np.ndarray, hi: np.ndarray, d_lo: np.ndarray, d_hi: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Each canonical edge's (lo < hi) anchor and other end, given its ends'
    degrees: `pick_anchor`'s rule, the lower degree, the larger id on ties."""
    low = d_lo < d_hi
    return np.where(low, lo, hi), np.where(low, hi, lo)


def _first_seen_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each distinct row first occurs, in order of first occurrence,
    and the index of each row among the distinct rows."""
    _, first, which = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[which.ravel()]


class _GraphCollector:
    """Stores the whole stream; only used on the exact-fallback path."""

    def __init__(self):
        self._blocks: list[np.ndarray] = []
        self.size = 0

    def observe_block(self, u: np.ndarray, v: np.ndarray) -> None:
        self._blocks.append(np.column_stack((u, v)))
        self.size += len(u)

    def graph(self) -> Graph:
        from .graph import Graph

        # hand the blocks over, so they are not held while the graph is built
        edges, self._blocks = np.concatenate(self._blocks or [_NO_EDGES]), []
        # the stream validated every edge when it was opened
        return Graph.from_checked_edges(edges)


class _StageMachine:
    """One estimator run, in either mode; `_drive` feeds each stage a pass.

    stage_begin(k) returns the observers for the k-th pass (an empty list
    when the stage needs no pass), stage_end(k) folds the pass results in.
    A settled run has its outcome in `x` and returns no more observers.
    Both modes hold each distinct drawn edge once, with both ends' degrees,
    its anchor and its other end, and per draw the index of its row; stage
    2 finds one uniform neighbor of each draw's anchor and holds it beside
    the draw, and the wedge half of stage 3 reads each draw's row for its
    corner degrees. Generators are keyed (seed, role, *key).
    """

    def __init__(self, seed: int, key: tuple[int, ...]):
        self.seed = seed
        self.key = key
        self.x = None
        self.passes = 0
        self.peak_items = 0
        self._drop_samples()

    def _drop_samples(self) -> None:
        """Empty the sampled state; the outcome and the counters stay."""
        self._drop_draws()
        self._observers: list = []

    def _drop_draws(self) -> None:
        # per drawn row, held once however often it is drawn: its edge, its
        # ends' degrees, its anchor and its other end
        self.drawn_edges = _NO_EDGES
        self.drawn_ends = _NO_EDGES
        self.drawn_anchors = _NO_IDS
        self.drawn_others = _NO_IDS
        # per draw: its row among the drawn rows and its neighbor; and the
        # draws whose wedge is open
        self.draw_rows = _NO_IDS
        self.neighbors = _NO_IDS
        self._open = _NO_IDS

    def _rng(self, role: int) -> np.random.Generator:
        return substream(self.seed, role, *self.key)

    # -- driver interface ---------------------------------------------------

    @property
    def settled(self) -> bool:
        return self.x is not None

    def stage_begin(self, stage: int) -> list:
        if self.settled:
            return []
        self._observers = self._begin(stage)
        if self._observers:
            self.passes += 1
        return self._observers

    def _begin(self, stage: int) -> list:
        return getattr(self, f"_begin_{stage}")()

    def stage_end(self, stage: int) -> None:
        if self.settled:
            return
        self._end(stage)
        self._observers = []
        self._note_storage()
        if self.settled:
            self._drop_samples()

    def _end(self, stage: int) -> None:
        getattr(self, f"_end_{stage}")()

    # -- storage accounting ---------------------------------------------------

    def _live_items(self) -> int:
        # a draw is one item, its reference or, once its neighbor w is
        # found, the edge (a, w); the row it references is counted once
        return len(self.drawn_edges) + len(self.draw_rows)

    def _note_storage(self, held: int = 0) -> None:
        """Raise the peak to the live items plus `held` ones a stage drops."""
        live = self._live_items() + held
        if live > self.peak_items:
            self.peak_items = live

    # -- the draws, and the stages both modes share ---------------------------

    def _draw(self, edges: np.ndarray, ends: np.ndarray, draws: np.ndarray) -> None:
        """Hold each distinct canonical edge among the rows `draws` index,
        with its ends' degrees, once, and per draw the index of its row."""
        # draws of one slot, then slots holding one edge, share a row; an
        # edge's key is built from its ends' ranks, as `ClosureChecker` does
        slots, slot_of = np.unique(draws, return_inverse=True)
        ids, ranks = np.unique(edges[slots], return_inverse=True)
        ranks = ranks.reshape(-1, 2)
        _, first, row_of = np.unique(ranks[:, 0] * len(ids) + ranks[:, 1],
                                     return_index=True, return_inverse=True)
        kept = slots[first]
        self.draw_rows = row_of[slot_of]
        self.drawn_edges = edges[kept]
        self.drawn_ends = ends[kept]
        self.drawn_anchors, self.drawn_others = _anchor_ends(
            *self.drawn_edges.T, *self.drawn_ends.T)

    def _begin_2(self) -> list:
        # j uniform in [0, d_a), the lesser end degree: the anchor's j-th edge
        degrees = self.drawn_ends.min(axis=1)[self.draw_rows]
        positions = self._rng(ROLE_NEIGHBOR).integers(degrees)
        return [IncidentPicker(self.drawn_anchors[self.draw_rows], positions)]

    def _end_2(self) -> None:
        [picker] = self._observers
        self.neighbors = picker.results()

    def _begin_3(self) -> list:
        # a neighbor equal to the edge's other end makes no wedge
        others = self.drawn_others[self.draw_rows]
        self._open = np.flatnonzero(self.neighbors != others)
        return [ClosureChecker(others[self._open], self.neighbors[self._open])]

    def _closed_wedges(self, closure: ClosureChecker, degree_of) -> tuple[np.ndarray, ...]:
        """The draws whose wedge closed; each one's triangle sorted, the
        drawn edge's cell in it (the edge without the neighbor w: bc, ac or
        ab), and its corners' degrees in the same order, w's from `degree_of`."""
        closed = self._open[closure.present()]
        rows = self.draw_rows[closed]
        corners = np.column_stack((self.drawn_edges[rows], self.neighbors[closed]))
        degrees = np.column_stack((self.drawn_ends[rows], degree_of(corners[:, 2])))
        order = np.argsort(corners, axis=1)
        return (closed, np.take_along_axis(corners, order, axis=1),
                2 - (order == 2).argmax(axis=1), np.take_along_axis(degrees, order, axis=1))


class _Repetition(_StageMachine):
    """One repetition of the six-pass estimator. Stage 3's end counts the
    draws' closed wedges per triangle edge and drops the draws. A settled
    one keeps only its value, flags, counters and memo: its (k, 3)
    triangles in first-closed-draw order, each one's charged column or -1."""

    def __init__(self, stats: StreamStats, config: EstimatorConfig, rep: int,
                 base_flags: Sequence[str] = ()):
        super().__init__(config.seed, (rep,))
        self.cfg = config
        self.flags: list[str] = list(base_flags)
        self.n = stats.n
        self.m = stats.m
        self.assignment_calls = 0
        self.memo, self.charged = _NO_TRIANGLES, _NO_IDS

        self.r = compute_r(self.n, self.m, config.epsilon, config.t_hat,
                           config.kappa_hat, config.c_r, config.scale)
        self.s = compute_s(self.n, self.m, config.epsilon, config.t_hat,
                           config.kappa_hat, config.c_s, config.scale)
        self.ell = 0
        self.d_r = 0
        self._fallback_next = config.exact_fallback and self.r >= self.m

    def _drop_samples(self) -> None:
        super()._drop_samples()
        self.sample = _NO_EDGES  # R, one canonical edge per slot, until the draws
        # discovered triangles in first-closed-draw order; per cell (triangle
        # edge): its degree, and how many drawn wedges on it closed
        self.triangles = _NO_TRIANGLES
        self.edge_degrees = _NO_IDS
        self.closed_counts = _NO_IDS
        # one wedge request per cheap cell, in cell order
        self.wedge_cells = _NO_IDS
        self.wedge_anchors = _NO_IDS
        self.wedge_others = _NO_IDS
        self.wedge_samples = _NO_IDS
        self.wedge_bounds = np.zeros(1, dtype=np.int64)
        self.wedge_slots = 0
        self._collector: Optional[_GraphCollector] = None

    def _live_items(self) -> int:
        total = super()._live_items() + len(self.sample)
        total += 3 * len(self.triangles)
        total += self.wedge_slots
        total += len(self.memo)
        if self._collector is not None:
            total += self._collector.size
        return total

    def _settle(self, value: float) -> None:
        self.x = float(value)
        self._note_storage()
        if self.peak_items > self.m and "exact-fallback" not in self.flags:
            self.flags.append("no-space-advantage")

    def _abort_budget(self) -> int:
        return math.ceil(self.cfg.abort_multiplier * (self.r + self.ell + self.s))

    # -- exact fallback: a pass that collects the graph in place of a stage --

    def _begin(self, stage: int) -> list:
        if not self._fallback_next:
            return super()._begin(stage)
        # what the repetition held when it decided is already noted
        self._drop_samples()
        self._fallback_next = False
        self._collector = _GraphCollector()
        return [self._collector]

    def _end(self, stage: int) -> None:
        if self._collector is None:
            super()._end(stage)
            return
        from .graph import triangles_exact_cn

        self.flags.append("exact-fallback")
        self._settle(triangles_exact_cn(self._collector.graph()))

    # -- stage 0: uniform edge sample ----------------------------------------

    def _begin_0(self) -> list:
        # r iid uniform positions in [0, m): a with-replacement uniform edge sample
        return [EdgePicker(self._rng(ROLE_EDGE_SAMPLE).integers(self.m, size=self.r))]

    def _end_0(self) -> None:
        [picker] = self._observers
        self.sample = picker.samples()

    # -- stage 1: exact degrees of R, then the degree-proportional draws ------

    def _begin_1(self) -> list:
        return [DegreeCounter(self.sample.ravel())]

    def _end_1(self) -> None:
        [counter] = self._observers
        ends = counter.degrees(self.sample)
        # R and its endpoints' counted degrees are held here; then the counter goes
        self._note_storage(len(counter.vertices))
        self._observers = []
        del counter
        slot_degrees = ends.min(axis=1)
        # every sampled edge's ends have degree >= 1, so d_R >= r >= 1
        self.d_r = int(slot_degrees.sum())
        cfg = self.cfg
        self.ell = compute_ell(self.n, self.m, cfg.epsilon, cfg.t_hat,
                               self.r, self.d_r, cfg.c_ell, cfg.scale)
        if cfg.exact_fallback and self.ell > self.m:
            self._fallback_next = True
        else:
            # ell uniform positions on R's d_e axis, on which slot i spans
            # d_e(i) positions: ell independent slots of law d_e / d_R
            picker = EdgePicker(self._rng(ROLE_PICK).integers(self.d_r, size=self.ell))
            picker.observe_rows((np.arange(self.r),), slot_degrees)
            draws = picker.samples()[:, 0]
            # R and one slot id per draw are held here; then only the drawn edges
            self._note_storage(len(draws))
            self._draw(self.sample, ends, draws)
        self.sample = _NO_EDGES

    # -- stage 3: wedge closure + third-vertex degrees -------------------------

    def _end_3(self) -> None:
        [closure] = self._observers
        _, tri, edge, corners = self._closed_wedges(closure, closure.degrees)
        # the draws and the third vertices' counted degrees are held until here
        self._note_storage(len(_distinct(self.neighbors[self._open])))
        self._drop_draws()
        first, which = _first_seen_rows(tri)
        self.triangles, corners = tri[first], corners[first]
        self.closed_counts = np.bincount(3 * which + edge, minlength=self.triangles.size)
        lo, hi = self.triangles[:, _EDGE_LO].ravel(), self.triangles[:, _EDGE_HI].ravel()
        d_lo, d_hi = corners[:, _EDGE_LO].ravel(), corners[:, _EDGE_HI].ravel()
        self.edge_degrees = np.minimum(d_lo, d_hi)

        # every edge at most the cheapness cutoff asks for wedge samples
        cut = degree_cutoff(self.m, self.cfg.epsilon, self.cfg.t_hat, self.cfg.kappa_hat)
        cells = np.flatnonzero(self.edge_degrees <= cut)
        wedge_slots = int(np.minimum(self.edge_degrees[cells], self.s).sum())
        # decide on the projected wedge budget before holding any of it
        if self.cfg.exact_fallback and wedge_slots > self.m:
            self._fallback_next = True
            return
        self.wedge_cells = cells
        self.wedge_anchors, self.wedge_others = _anchor_ends(
            lo[cells], hi[cells], d_lo[cells], d_hi[cells])
        self.wedge_slots = wedge_slots
        self._note_storage()
        if self._live_items() > self._abort_budget():
            self.flags.append("space-abort")
            self._settle(0.0)

    # -- stage 4: wedge sampling ------------------------------------------------

    def _begin_4(self) -> list:
        # the anchor is the lower-degree end, so its degree is the edge's d_e
        degrees = self.edge_degrees[self.wedge_cells]
        picker, self.wedge_bounds = neighbor_picker(self.wedge_anchors, degrees, self.s,
                                                    self._rng(ROLE_WEDGE))
        return [picker]

    def _end_4(self) -> None:
        [picker] = self._observers
        self.wedge_samples = picker.results()

    # -- stage 5: wedge closure, estimates, assignment, estimate ----------------

    def _begin_5(self) -> list:
        other = np.repeat(self.wedge_others, np.diff(self.wedge_bounds))
        self._open = np.flatnonzero(self.wedge_samples != other)
        return [ClosureChecker(other[self._open], self.wedge_samples[self._open])]

    def _end_5(self) -> None:
        [closure] = self._observers
        counts = np.diff(self.wedge_bounds)
        owner = np.repeat(np.arange(len(counts)), counts)
        hits = np.bincount(owner[self._open[closure.present()]], minlength=len(counts))
        # a request holds d_e slots, or s once s falls below d_e
        y = np.full(len(self.edge_degrees), INFINITY)
        y[self.wedge_cells] = self.edge_degrees[self.wedge_cells] * hits / counts

        cfg = self.cfg
        # each triangle is decided once and kept as the memo; every closed
        # draw on it scores against that one decision
        self.memo = self.triangles
        self.charged = charged = assign_rows(y, cfg.epsilon, cfg.kappa_hat)
        self.assignment_calls += int(self.closed_counts.sum())
        rows = np.flatnonzero(charged >= 0)
        score = int(self.closed_counts[3 * rows + charged[rows]].sum())
        y_mean = score / self.ell
        self._settle((self.m / self.r) * self.d_r * y_mean)


def _drive(stream, groups: list[list[_StageMachine]],
           stages: range = range(PASSES_PER_REPETITION)) -> None:
    """Run each group's runs through `stages`, one shared pass per stage.

    Sequential mode uses groups of one repetition, share_passes one group
    holding them all; each repetition's outcome is the same either way.
    """
    for reps in groups:
        for stage in stages:
            live = [rep for rep in reps if not rep.settled]
            observers = [ob for rep in live for ob in rep.stage_begin(stage)]
            if observers:
                run_pass(stream, observers)
            # each run reads its observers at its stage end and drops them;
            # with this list gone too, no stage's observers and their hash
            # indexes are held while the next stage builds its own
            del observers
            for rep in live:
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
    memo entries, with each repetition's own memo arrays. When r
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
    # the median of an odd count; `statistics` would import fractions and decimal
    final = float(sorted(xs)[len(xs) // 2])
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
        memo_size=sum(len(rep.memo) for rep in reps),
        seed=config.seed,
        config=config.as_dict(),
        flags=tuple(flags),
        memos=tuple((rep.memo, rep.charged) for rep in reps),
    )
    return final, report
