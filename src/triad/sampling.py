"""Seeded samplers batched onto shared stream passes.

All pseudo-randomness flows through `substream`, which derives an
independent generator from (seed, role, key...) using SeedSequence spawn
keys. Each bank takes one generator, keyed by (seed, role, repetition), so a
fixed (seed, stream order) reproduces every output bit for bit.

Every streaming sample is a `SlotBank`: k independent one-slot reservoirs
over a stream of (item, weight) offers. A slot refreshed when the running
weight was W keeps its item through running weight x with probability W/x,
so rather than flipping a coin per offer it jumps straight to its next
refresh at W/U, U ~ Uniform(0, 1] (the skip-ahead of Vitter 1985 and Li
1994, in weighted one-slot form). A min-heap of thresholds makes an offer
that crosses none cost O(1); a refresh costs O(log k), and a slot expects
at most 1 + ln(W / w_first) refreshes over a stream of total weight W whose
first positive offer weighs w_first.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import InputError
from .graph import canonical_edge

Edge = tuple[int, int]

# Role tags keep substreams for different duties disjoint under one seed.
ROLE_SHUFFLE = 0
ROLE_EDGE_SAMPLE = 1
ROLE_WEIGHTED_SAMPLE = 2
ROLE_PICK = 3
ROLE_NEIGHBOR = 4
ROLE_WEDGE = 5
ROLE_GENERATE = 6


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (seed, key...); same inputs, same stream."""
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def run_pass(stream, observers: Sequence) -> None:
    """Drive one full pass, feeding every edge to every observer."""
    stream.begin_pass()
    try:
        while True:
            e = stream.next_edge()
            if e is None:
                break
            u, v = e
            for ob in observers:
                ob.observe(u, v)
    except BaseException:
        stream.abort_pass()
        raise
    stream.end_pass()


class SlotBank:
    """k independent one-slot weighted reservoirs over one stream of offers.

    After offers of total weight W, each slot holds item e with probability
    w_e / W, independently of the other slots. Thresholds start at 0, so the
    first positive-weight offer fills every slot; a zero-weight offer never
    fires. `total` is the running weight W. As a pass observer the bank
    offers each edge with weight 1, making the slots a with-replacement
    uniform edge sample.
    """

    def __init__(self, k: int, rng: np.random.Generator):
        if k < 1:
            raise InputError(f"slot count must be >= 1, got {k}")
        self.total = 0
        self._items: list = [None] * k
        self._rng = rng
        # (running weight past which the slot refreshes, slot index)
        self._heap = [(0.0, i) for i in range(k)]

    def offer(self, item, weight=1) -> None:
        if weight < 0:
            raise InputError(f"negative weight {weight}")
        total = self.total + weight
        self.total = total
        heap = self._heap
        if heap[0][0] >= total:
            return
        fired = []
        while heap and heap[0][0] < total:
            fired.append(heapq.heappop(heap)[1])
        # U in (0, 1]; the slot keeps `item` through running weight x
        # with probability total / x
        thresholds = (total / (1.0 - self._rng.random(len(fired)))).tolist()
        items = self._items
        for i, threshold in zip(fired, thresholds):
            items[i] = item
            heapq.heappush(heap, (threshold, i))

    def observe(self, u: int, v: int) -> None:
        self.offer((u, v))

    def samples(self) -> list:
        """The item in each slot, in slot order."""
        if self.total <= 0:
            raise InputError("no positive-weight items were offered")
        return list(self._items)


def weighted_pick(weights: Sequence[float], count: int, rng: np.random.Generator) -> np.ndarray:
    """`count` independent indices drawn proportionally to `weights`.

    Consumes no pass; the weights are already in memory.
    """
    w = np.asarray(weights, dtype=float)
    if w.size == 0:
        raise InputError("empty weight vector")
    if (w < 0).any():
        raise InputError("negative weight")
    total = w.sum()
    if total <= 0:
        raise InputError("weights sum to zero")
    return rng.choice(w.size, size=count, replace=True, p=w / total)


@dataclass(frozen=True)
class NeighborRequest:
    """Ask for uniform neighbors of `anchor`, an endpoint of `edge`.

    want=N draws N independent uniform samples from N(anchor); want=None
    collects the whole neighborhood instead (used when a requested sample
    count would cover every neighbor, making downstream estimates exact).
    """

    edge: Edge
    anchor: int
    want: Optional[int]

    def __post_init__(self):
        if self.anchor not in self.edge:
            raise InputError(f"anchor {self.anchor} is not an endpoint of {self.edge}")
        if self.want is not None and self.want < 1:
            raise InputError(f"want must be >= 1 or None, got {self.want}")


class NeighborSampleBank:
    """Service many neighbor requests simultaneously in one pass.

    Sampled requests anchored at the same vertex share one `SlotBank`, which
    is offered every neighbor of the anchor with weight 1, so each slot is a
    uniform reservoir over N(anchor) and a request owns a contiguous run of
    slots. By the threshold-jump law an incident edge costs O(1) plus
    O(log k) per slot it refreshes, and a slot expects at most 1 + ln(d)
    refreshes at an anchor of degree d. All anchors draw from the one
    generator `rng`; full-scan collections are shared per anchor.
    """

    def __init__(self, requests: Iterable[NeighborRequest], rng: np.random.Generator):
        self._slots_of: list = []  # per request: (anchor, start, want); want None = full
        slot_counts: dict[int, int] = {}
        self._full: dict[int, list[int]] = {}
        for req in requests:
            if req.want is None:
                self._full.setdefault(req.anchor, [])
                self._slots_of.append((req.anchor, 0, None))
            else:
                start = slot_counts.get(req.anchor, 0)
                slot_counts[req.anchor] = start + req.want
                self._slots_of.append((req.anchor, start, req.want))
        self._banks = {anchor: SlotBank(k, rng) for anchor, k in slot_counts.items()}

    def observe(self, u: int, v: int) -> None:
        banks = self._banks
        full = self._full
        if u in banks or u in full:
            self._feed(u, v)
        if v in banks or v in full:
            self._feed(v, u)

    def _feed(self, anchor: int, nbr: int) -> None:
        bank = self._banks.get(anchor)
        if bank is not None:
            bank.offer(nbr)
        bucket = self._full.get(anchor)
        if bucket is not None:
            bucket.append(nbr)

    def results(self) -> list[list[int]]:
        """Per request: the sampled neighbors, in slot order.

        A request whose anchor saw no incident edge yields an empty list.
        """
        sampled = {anchor: bank.samples() if bank.total else []
                   for anchor, bank in self._banks.items()}
        return [list(self._full[anchor]) if want is None
                else sampled[anchor][start:start + want]
                for anchor, start, want in self._slots_of]


class ClosureBank:
    """Answer pair-membership and degree queries exactly in one pass."""

    def __init__(self, pairs: Iterable[tuple[int, int]] = (),
                 degree_vertices: Iterable[int] = ()):
        self.present: dict[Edge, bool] = {canonical_edge(*p): False for p in pairs}
        self.degrees: dict[int, int] = {v: 0 for v in degree_vertices}

    def observe(self, u: int, v: int) -> None:
        deg = self.degrees
        if u in deg:
            deg[u] += 1
        if v in deg:
            deg[v] += 1
        pres = self.present
        e = (u, v) if u < v else (v, u)
        if e in pres:
            pres[e] = True
