"""Id-set primitives shared by the streaming samplers and the exact oracles.

`_HashSet` is the package's one membership primitive: Fibonacci hashing
with linear probing into int64 slots that each hold their own key (8 bytes
a slot, at most 2**b + k slots for k keys, 2k <= 2**b < 4k), so a probe
reads one array. Every key the package hashes (a vertex id, a pair key)
is non-negative, so an empty slot holds -1. `_HashIndex` adds an int32
rank per slot (12 bytes a slot) for callers that read each hit's index
among the keys. `_DenseIndex` answers the same questions from an int32
rank table over [0, largest key] plus one trailing -1 slot (4 bytes an
id): a lookup is one gather, where a probe walks the slots. `_rank_index`
builds the dense table when its bytes are no more than the hash's home
slots would take, 4 (top + 2) <= 12 * 2**b, and the hash otherwise; the
rule reads only the key set. Both answer `ranks`, each needle's int32
rank or -1 on a miss. The triangle kernel uses the set; the pass
observers in `sampling` use the indexes.

`_distinct` sorts and dedupes ids, `_presence` marks dense ids,
`_dense_ids` and `_relabel` map ids to dense [0, n) in their order, and
`triangle_edges` names a triangle's three canonical edges. This module
needs only numpy, so a sampled run reaches these without loading the exact
oracles in `triad.graph`.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InputError

Edge = tuple[int, int]
Triangle = tuple[int, int, int]


def triangle_edges(tri: Sequence[int]) -> tuple[Edge, Edge, Edge]:
    a, b, c = sorted(tri)
    if a == b or b == c:
        raise InputError(f"degenerate triangle {tri!r}")
    return (a, b), (a, c), (b, c)


def _distinct(values) -> np.ndarray:
    """The distinct values, sorted. Plain `np.unique` takes a hash-table
    path that is several times slower on int64 ids and imports numpy.ma on
    its first call."""
    ids = np.sort(np.asarray(values, dtype=np.int64))
    return ids[np.concatenate(([True], ids[1:] != ids[:-1]))] if len(ids) else ids


def _presence(columns: Sequence[np.ndarray]) -> Optional[np.ndarray]:
    """A bool mark over [0, max id] of every id in the columns, or None when
    the ids are sparse: when the largest is at least twice the number of
    entries, the mark would outweigh a quarter of the columns' own bytes.
    The ids must be non-negative."""
    entries = sum(c.size for c in columns)
    top = max((int(c.max()) for c in columns if c.size), default=-1)
    if top >= 2 * entries:
        return None
    seen = np.zeros(top + 1, dtype=bool)
    for c in columns:
        seen[c.astype(np.int64, copy=False)] = True
    return seen


def _dense_ids(blocks: Sequence[np.ndarray]) -> tuple[np.ndarray, Callable]:
    """The distinct ids of arrays of non-negative ids, sorted, and a map of
    any of the arrays to the indices of its ids among them: int32 through a
    presence mark's running count when it fits, else int64 by binary search."""
    seen = _presence(blocks)
    if seen is None:
        ids = _distinct(np.concatenate([b.ravel() for b in blocks], dtype=np.int64))
        return ids, lambda b: np.searchsorted(ids, b)
    dense = np.cumsum(seen, dtype=np.int32 if len(seen) <= 2**31 else np.int64)
    dense -= 1
    return np.flatnonzero(seen), dense.take


def _relabel(ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`np.unique(ends, return_inverse=True)` in `ends`' shape, int64 indices."""
    ids, dense = _dense_ids((ends,))
    return ids, dense(ends).astype(np.int64, copy=False)


_FIB = np.uint64(0x9E3779B97F4A7C15)  # 2**64 over the golden ratio, made odd


def _home_bits(k: int) -> int:
    """b for k keys: a hash holds 2**b home slots, 2k <= 2**b < 4k."""
    return max(1, (2 * k - 1).bit_length())


class _HashSet:
    """Membership of int64 needles in a set of distinct non-negative int64
    keys, by Fibonacci hashing (top b bits of x * _FIB) with linear probing.

    Each slot holds its own key, so a probe reads one array: 2**b home
    slots, 2k <= 2**b < 4k, then slots up to the empty one after the last
    filled slot, which no probe runs past: at most 2**b + k int64 slots,
    and seldom more than one past the home slots. The keys are
    non-negative, so an empty slot holds -1, and a needle may be any int64
    value: -1 misses whatever it reads. Each key lands in its first free
    slot from its home on. A round reads one slot per unresolved needle,
    which stops at its key or an empty slot: rounds never exceed the
    longest run of filled slots.
    """

    def __init__(self, keys):
        self._build(np.asarray(keys, dtype=np.int64))

    def _build(self, keys: np.ndarray) -> np.ndarray:
        """Fill the slots; return the slot each key lands in."""
        k = len(keys)
        if k and keys.min() < 0:
            raise ValueError(f"hash set keys must be non-negative, got {keys.min()}")
        bits = _home_bits(k)
        self._shift = np.uint64(64 - bits)
        home = self._home(keys)
        order = np.argsort(home)
        home = home[order]
        # in home order, key i lands at i + max_{j<=i}(home_j - j); the
        # slots go back to key order in the arange's buffer
        at = np.arange(k)
        home -= at
        slot = np.maximum.accumulate(home, out=home)
        slot += at
        at[order] = slot
        size = max(1 << bits, int(slot[-1]) + 2 if k else 0)
        del order, home, slot
        self._slots = np.full(size, -1, dtype=np.int64)
        self._slots[at] = keys
        return at

    def _home(self, values: np.ndarray) -> np.ndarray:
        home = values.view(np.uint64) * _FIB
        home >>= self._shift
        return home.view(np.int64)

    def _probe(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per needle: the slot its probe stopped at, and whether that slot
        holds it."""
        slot = self._home(values)
        held = self._slots[slot]
        filled = held >= 0
        # a needle of -1 equals an empty slot, and never hits
        hit = held == values
        hit &= filled
        del held
        # the needles left: at a filled slot that is not theirs
        at = np.flatnonzero(filled ^ hit)
        needles = values[at]
        while len(at):
            slot[at] += 1
            held = self._slots[slot[at]]
            filled = held >= 0
            same = held == needles
            same &= filled
            hit[at] = same
            walk = filled ^ same
            at, needles = at[walk], needles[walk]
        return slot, hit

    def contains(self, values) -> np.ndarray:
        """Per needle: whether it is one of the keys."""
        return self._probe(np.asarray(values, dtype=np.int64))[1]


class _HashIndex(_HashSet):
    """A `_HashSet` that also answers each hit with the key's index: a
    second table, `_table`, holds per slot the int32 index of its key, or
    -1 in an empty slot. 2**31 keys would take 48 GiB of slots, so int32
    holds every index."""

    def __init__(self, keys):
        at = self._build(np.asarray(keys, dtype=np.int64))
        self._table = np.full(len(self._slots), -1, dtype=np.int32)
        self._table[at] = np.arange(len(at), dtype=np.int32)

    def ranks(self, values) -> np.ndarray:
        """Per needle: its index in the keys, or -1 on a miss. A miss stops
        at an empty slot, whose index is -1."""
        return self._table[self._probe(np.asarray(values, dtype=np.int64))[0]]


class _DenseIndex:
    """The index of each of a set of distinct non-negative int64 keys, read
    from `_table`, an int32 table over [0, top], top the largest key, that
    holds -1 at every other id and in one trailing slot. Every needle past
    top, and every negative one, which as uint64 lies past top, reads the
    trailing slot."""

    def __init__(self, keys):
        keys = np.asarray(keys, dtype=np.int64)
        self._table = np.full(int(keys.max(initial=-1)) + 2, -1, dtype=np.int32)
        self._table[keys] = np.arange(len(keys), dtype=np.int32)

    def ranks(self, values) -> np.ndarray:
        """Per needle: its index in the keys, or -1 on a miss."""
        at = np.minimum(np.asarray(values, dtype=np.int64).view(np.uint64), len(self._table) - 1)
        return self._table.take(at.view(np.int64), mode="clip")


def _rank_index(keys: np.ndarray) -> _HashIndex | _DenseIndex:
    """An index over an int64 array of distinct non-negative keys: the dense
    table when its 4 (top + 2) bytes are no more than 12 bytes per home slot
    of the hash, else the hash. Negative keys go to the hash, which refuses
    them."""
    dense = keys.min(initial=0) >= 0 and \
        4 * (int(keys.max(initial=-1)) + 2) <= 12 << _home_bits(len(keys))
    return (_DenseIndex if dense else _HashIndex)(keys)
