"""Shared edge-list text format.

One edge per line: two vertex ids in [0, 2**63), each written as plain
ASCII digits, separated by ASCII whitespace. Lines end at b"\n"; a line
whose first field starts with '#' is a comment, and blank lines are
skipped. Self-loops and repeated edges (in either orientation) are
rejected with the offending line number.

`EdgeScan` reads a file once, in bounded chunks of whole lines, into one
block of canonical edges a chunk, int32 when its ids are below 2**31. A
chunk whose fields are at most 9 digits wide is read in uint32 and comes
out int32 as it is; a wider one is read in uint64, viewed as int64, and
narrowed afterwards when its ids allow. A chunk takes one of two paths:

- a plain chunk, whose lines after any leading comment lines are each two
  digit fields split by one b" " or b"\t", is read in one pass: a
  `bytes.translate` admits it, the bytes below b"0" are its separators,
  and line i is edge i, so it keeps no line numbers. A plain chunk with a
  self-loop or an id of 2**63 or more takes the other path;
- any other chunk takes `_parse_chunk`, a few numpy passes over its bytes
  and fields, which keeps each edge's line offset within the chunk.

The scan does not look for repeats; `EdgeScan.raise_first_fault` sorts
for them with `_first_repeat`. `read_edges` calls it on every file, and
`Graph.from_file`, which sees repeats in the CSR's own sort, only on a
file with a bad line or a repeat, to name the first fault. `parse_line` is
the specification of one line: the first bad line in file order is
re-parsed by it, so its message and line number are the ones reported. A
repeated edge is reported at its second occurrence, and a repeat before
the first bad line is reported in its place.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from functools import cached_property
from itertools import chain
from typing import BinaryIO, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import EdgeListError
from .idset import Edge

# the types an in-memory vertex id may have; bool is an int
_INTEGER = (int, np.integer)

# vertex ids must fit a signed 64-bit integer, the dtype of a graph's labels
ID_LIMIT = 1 << 63

# bytes read per chunk; a chunk is cut after its last b"\n". A chunk's
# scratch is a few arrays of its length in bytes and in fields, so at
# 128 KiB it stays within a core's L2 cache, as the triangle kernel's steps
# do. On the lb NO gadget's 1.2 MB file, on a shared Xeon with 2 MiB of L2
# per core, `EdgeScan` takes 5.6 to 6.6 ms a file at 32 to 256 KiB and
# 9.9 ms at 1 MiB (medians of 31 interleaved reads, IQRs 0.8 to 1.3 ms;
# measured October 2026, with the uint32 digit read), and the tracemalloc
# peak of `read_edges` is 4.5 MiB against 12.2 MiB.
CHUNK_BYTES = 1 << 17

# a quoted id or field longer than this shows only its head and its length
QUOTE_CHARS = 40

# 19 digits fit uint64 exactly (10**19 - 1 < 2**64); longer fields are rare
# (only leading zeros keep them below 2**63) and are read one at a time
_UINT64_DIGITS = 19

# 9 digits fit int32 (10**9 - 1 < 2**31): a run of fields no wider is read
# in uint32
_INT32_DIGITS = 9

# the bytes of a plain chunk: digits, the two field separators, and b"\n"
_PLAIN_BYTES = b"0123456789 \t\n"


def quote(token: object) -> str:
    """An id or a field for a message: itself (bytes, an integer, or any
    other value by its repr) when it is at most QUOTE_CHARS characters long,
    else its first QUOTE_CHARS and its length, so that a message stays short
    however long the input is."""
    if isinstance(token, bytes):
        text, size = token[:QUOTE_CHARS].decode("ascii", "replace"), len(token)
    elif not isinstance(token, _INTEGER):
        text = repr(token)
        text, size = text[:QUOTE_CHARS], len(text)
    elif -10 ** QUOTE_CHARS < token < 10 ** QUOTE_CHARS:
        return str(token)
    else:
        # str() refuses an int of more than 4,300 digits; the bit length
        # gives the digit count to within one
        magnitude = abs(token)
        digits = int((magnitude.bit_length() - 1) * math.log10(2)) + 1
        digits += magnitude >= 10 ** digits
        text = "-" * (token < 0) + str(magnitude // 10 ** (digits - QUOTE_CHARS))
        size = digits + (token < 0)
    return text if size <= QUOTE_CHARS else f"{text}... ({size} characters)"


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
        fields = [quote(p) for p in parts]
        signed = all(p.removeprefix(b"-").isdigit() for p in parts)
        raise EdgeListError(
            f"{'negative' if signed else 'non-integer'} vertex id in {fields!r}", lineno)
    # leading zeros do not count, and past 19 significant digits an id is at
    # least 10**19 > 2**63; int() would refuse a string of 4,301 digits
    digits = [p.lstrip(b"0") or b"0" for p in parts]
    if any(len(d) > _UINT64_DIGITS or int(d) >= ID_LIMIT for d in digits):
        raise EdgeListError(
            f"vertex id in [{', '.join(quote(d) for d in digits)}] is not below 2**63", lineno)
    u, v = int(digits[0]), int(digits[1])
    if u == v:
        raise EdgeListError(f"self-loop at vertex {u}", lineno)
    return (u, v) if u < v else (v, u)


def read_edges(path: str | os.PathLike) -> np.ndarray:
    """Load and fully validate an edge-list file.

    Returns the canonical edges (u < v) in file order as an (m, 2) int64
    array. Raises EdgeListError for the first bad line in file order.
    """
    scan = EdgeScan(path)
    scan.raise_first_fault()
    return scan.edges


class EdgeScan:
    """One read of an edge-list file, in chunks of whole lines.

    `blocks` holds the canonical edges in file order up to the first bad
    line, one (k, 2) array a chunk, int32 where its ids allow, and `edges`
    joins them as one (m, 2) int64 array; every other check of `parse_line`
    is done. The scan does not look for repeated edges: `raise_first_fault`
    finds the first repeat, if any, and reports it or the bad line,
    whichever comes first in the file.
    """

    def __init__(self, path: str | os.PathLike):
        self.blocks: list[np.ndarray] = []
        # per chunk: its first row; and a line number with each row's offset
        # from it, or None when row i is at offset i. A plain chunk needs no
        # array, and offsets become line numbers only when one is reported
        self._first_rows: list[int] = []
        self._offsets: list[tuple[int, Optional[np.ndarray]]] = []
        self.bad: Optional[tuple[int, bytes]] = None
        rows, first = 0, 1
        with open(path, "rb") as fh:
            for text in _whole_lines(fh):
                plain = _parse_plain(text)
                if plain is not None:
                    ends, skipped = plain
                    self._offsets.append((first + skipped, None))
                    first += skipped + len(ends)
                else:
                    ends, lines, bad = _parse_chunk(text)
                    self._offsets.append((first, lines))
                    if bad is not None:
                        self.bad = (bad[0] + first, bad[1])
                    first += text.count(b"\n")
                self._first_rows.append(rows)
                rows += len(ends)
                # v is the larger id
                if ends.dtype != np.int32 and len(ends) and ends[:, 1].max() < 2**31:
                    ends = ends.astype(np.int32)
                self.blocks.append(ends)
                if self.bad is not None:
                    break

    @cached_property
    def edges(self) -> np.ndarray:
        """The blocks joined, as one (m, 2) int64 array."""
        return np.concatenate([np.empty((0, 2), dtype=np.int64), *self.blocks], dtype=np.int64)

    def _line(self, row: int) -> int:
        """The 1-based line number of an edge row."""
        chunk = bisect_right(self._first_rows, row) - 1
        first, offsets = self._offsets[chunk]
        row -= self._first_rows[chunk]
        return first + (row if offsets is None else int(offsets[row]))

    def raise_first_fault(self) -> None:
        """Raise EdgeListError for the file's first fault, a repeated edge
        or a bad line; return if the file has no fault."""
        # every row precedes the first bad line, so a repeat among them comes first
        repeat = _first_repeat(self.edges)
        if repeat is not None:
            u, v = self.edges[repeat].tolist()
            raise EdgeListError(f"duplicate edge {u} {v}", self._line(repeat))
        if self.bad is not None:
            lineno, line = self.bad
            parse_line(line, lineno)
            raise AssertionError(f"line {lineno} failed the columnar checks only")


def _whole_lines(fh: BinaryIO) -> Iterator[bytes]:
    """The file's bytes as runs of whole lines of about CHUNK_BYTES each;
    the last run may lack its final b"\n"."""
    # pieces of the unfinished line, joined once its b"\n" or the end arrives
    tail: list[bytes | memoryview] = []
    while data := fh.read(CHUNK_BYTES):
        cut = data.rfind(b"\n") + 1
        if not cut:
            tail.append(data)
            continue
        tail.append(memoryview(data)[:cut])
        text, tail = b"".join(tail), [data[cut:]]
        del data
        yield text
    if text := b"".join(tail):
        yield text


def _parse_plain(text: bytes) -> Optional[tuple[np.ndarray, int]]:
    """The canonical edges of a run of whole lines, and the count of the
    comment lines before them, when after those comments every line is two
    digit fields split by one b" " or b"\t", with no self-loop and both ids
    below 2**63: line i after the comments is edge i. None otherwise."""
    # leading comment lines, such as the header `triad gen` writes
    start = skipped = 0
    while text.startswith(b"#", start):
        start = text.find(b"\n", start) + 1 or len(text)
        skipped += 1
    if start:
        text = text[start:]
    if text.translate(None, _PLAIN_BYTES):
        return None
    if not text.endswith(b"\n"):
        text += b"\n"
    buf = np.frombuffer(text, dtype=np.uint8)
    # the separators are the bytes below b"0": the field split at even
    # places and b"\n" at odd ones, with a field of digits before each
    seps = np.flatnonzero(buf < ord("0"))
    kinds = buf[seps] == ord("\n")
    if (len(seps) % 2 or seps[0] == 0 or kinds[0::2].any() or not kinds[1::2].all()
            or (np.diff(seps) == 1).any()):
        return None
    del kinds
    starts = np.empty_like(seps)
    starts[0] = 0
    np.add(seps[:-1], 1, out=starts[1:])
    ids, over = _ids(text, buf, starts, seps)
    del starts, seps
    ends = ids.reshape(-1, 2)
    u, v = ends[:, 0], ends[:, 1]
    if over.any() or (u == v).any():
        return None
    lo = np.minimum(u, v)
    np.maximum(u, v, out=v)
    u[:] = lo
    return ends, skipped


def _parse_chunk(text: bytes) -> tuple[np.ndarray, np.ndarray, Optional[tuple[int, bytes]]]:
    """Edges, their 0-based line indices, and the first bad line of a run
    of whole lines, with every check of `parse_line` done on arrays."""
    buf = np.frombuffer(text, dtype=np.uint8)
    line_starts = np.flatnonzero(buf == ord("\n")) + 1
    line_starts = np.concatenate(([0], line_starts[:-1] if text.endswith(b"\n") else line_starts))
    # ASCII whitespace is b" " and b"\t" through b"\r", the set bytes.split()
    # uses; uint8 differences wrap, so one comparison tests a byte range
    word = (buf != ord(" ")) & ((buf - 9) > 4)
    # a line with a byte that is neither a digit nor a space is no edge;
    # such bytes are few, so the lines are marked from their positions
    junk = np.zeros(len(line_starts), dtype=bool)
    odd = np.flatnonzero(word & ((buf - ord("0")) > 9))
    junk[np.searchsorted(line_starts, odd, side="right") - 1] = True
    del odd
    # fields are the maximal runs of non-space bytes
    before = np.zeros_like(word)
    before[1:] = word[:-1]
    starts = np.flatnonzero(word > before)
    before[:-1] = word[1:]
    before[-1] = False
    stops = np.flatnonzero(word > before) + 1
    del word, before
    # each line's first field and field count; blank and comment lines drop out
    first = np.searchsorted(starts, line_starts)
    counts = np.diff(first, append=len(starts))
    lines = np.flatnonzero(counts)
    lines = lines[buf[starts[first[lines]]] != ord("#")]
    bad = (counts[lines] != 2) | junk[lines]
    pair = first[lines[~bad]]
    del first, counts, junk
    u_ends, v_ends = (starts[pair], stops[pair]), (starts[pair + 1], stops[pair + 1])
    del starts, stops, pair
    u, u_over = _ids(text, buf, *u_ends)
    v, v_over = _ids(text, buf, *v_ends)
    del u_ends, v_ends
    wrong = u_over | v_over | (u == v)
    bad[~bad] = wrong
    # every edge line before the first bad one is an edge
    cut = int(np.argmax(bad)) if bad.any() else len(bad)
    u = u[~wrong][:cut]
    v = v[~wrong][:cut]
    ends = np.column_stack((np.minimum(u, v), np.maximum(u, v)))
    if cut == len(bad):
        return ends, lines, None
    line = int(lines[cut])
    end = line_starts[line + 1] if line + 1 < len(line_starts) else len(text)
    return ends, lines[:cut], (line, text[line_starts[line]:end])


def _ids(text: bytes, buf: np.ndarray, starts: np.ndarray, stops: np.ndarray
         ) -> tuple[np.ndarray, np.ndarray]:
    """Values of digit-only fields, and which are not below 2**63: int32
    when no field is wider than 9 digits, else int64, where a value not
    below 2**63 is meaningless."""
    width = stops - starts
    digits = min(int(width.max(initial=0)), _UINT64_DIGITS)
    narrow = digits <= _INT32_DIGITS
    values = np.zeros(len(starts), dtype=np.uint32 if narrow else np.uint64)
    # the mask compares one byte a field; a width past 255 wraps, but such a
    # field is over 19 digits and is read again below
    width8 = width.astype(np.uint8)
    pos = stops - digits
    for back in range(digits, 0, -1):
        # a field narrower than `back` has a 0 there; `clip` keeps pos >= 0.
        # A uint8 product masks the digit: np.where is several times slower
        digit = buf.take(pos, mode="clip")
        digit -= ord("0")
        digit *= width8 >= back
        values *= 10
        values += digit
        pos += 1
    if narrow:
        # below 10**9 < 2**31, so their int32 bits are the same
        return values.view(np.int32), np.zeros(len(values), dtype=bool)
    over = values >= ID_LIMIT
    for i in np.flatnonzero(width > _UINT64_DIGITS).tolist():
        digits = text[starts[i]:stops[i]].lstrip(b"0") or b"0"  # as parse_line
        over[i] = len(digits) > _UINT64_DIGITS or int(digits) >= ID_LIMIT
        values[i] = 0 if over[i] else int(digits)
    # the ids below 2**63 have the same int64 bits
    return values.view(np.int64), over


def _first_repeat(edges: np.ndarray) -> Optional[int]:
    """Row of the first edge in file order that repeats an earlier row.

    Ids are non-negative. When u * (max v + 1) + v fits in int64, one sort
    of that key, int32 when it fits, tells whether any row repeats; the
    stable lexsort below, the specification, runs only to name the first
    repeat, or when the ids are too large for the key.
    """
    if len(edges) < 2:
        return None
    width = int(edges[:, 1].max()) + 1
    top = int(edges[:, 0].max()) * width + width
    if top < ID_LIMIT:
        keys = np.empty(len(edges), dtype=np.int32 if top < 2**31 else np.int64)
        np.multiply(edges[:, 0], width, out=keys, casting="unsafe")
        np.add(keys, edges[:, 1], out=keys, casting="unsafe")
        keys.sort()
        if not (keys[1:] == keys[:-1]).any():
            return None
        del keys
    order = np.lexsort((edges[:, 1], edges[:, 0]))  # stable: ties keep file order
    column = edges[order, 0]
    same = column[1:] == column[:-1]
    column = edges[order, 1]
    same &= column[1:] == column[:-1]
    del column
    return int(order[1:][same].min()) if same.any() else None


def validate_edges(edges: Iterable[tuple[int, int]]) -> np.ndarray:
    """Canonicalize an in-memory edge sequence, rejecting loops and repeats.

    Each pair holds two integer ids (Python or numpy integers). Returns the
    canonical edges (u < v) in input order as an (m, 2) int64 array.
    Raises EdgeListError for the first bad pair, at its 1-based index.

    Pairs of two plain ints are checked on arrays. `_validate_pairs` is the
    specification: it runs on any other input and on any input a columnar
    check rejects, so its message and index are the ones reported.
    """
    pairs = edges if isinstance(edges, (list, tuple)) else list(edges)
    ends = _plain_int_pairs(pairs)
    return _validate_pairs(pairs) if ends is None else ends


def _plain_int_pairs(pairs: Sequence) -> Optional[np.ndarray]:
    """The canonical edges when every pair is two ints of exact type `int`
    that pass every check, else None."""
    try:
        # the type gate comes first: fromiter would turn 2.5 into 2, '7'
        # into 7 and True into 1
        if not (set(map(len, pairs)) <= {2}
                and set(map(type, chain.from_iterable(pairs))) <= {int}):
            return None
        flat = np.fromiter(chain.from_iterable(pairs), dtype=np.int64, count=2 * len(pairs))
    except (TypeError, OverflowError):  # a pair with no length, an id of 2**63 or more
        return None
    # canonicalize in place: u becomes the lower id, v the higher
    u, v = flat[0::2], flat[1::2]
    lo = np.minimum(u, v)
    np.maximum(u, v, out=v)
    u[:] = lo
    if lo.min(initial=0) < 0 or (lo == v).any():
        return None
    ends = flat.reshape(-1, 2)
    return ends if _first_repeat(ends) is None else None


def _validate_pairs(pairs: Iterable) -> np.ndarray:
    """`validate_edges` one pair at a time: the first bad pair raises."""
    out: list[Edge] = []
    seen: set[Edge] = set()
    for idx, pair in enumerate(pairs, start=1):
        try:
            size = len(pair)
        except TypeError:
            raise EdgeListError(
                f"expected two vertex ids, got {type(pair).__name__!r} with no length", idx
            ) from None
        if size != 2:
            raise EdgeListError(f"expected two vertex ids, got {size} fields", idx)
        u, v = pair
        if not (isinstance(u, _INTEGER) and isinstance(v, _INTEGER)):
            raise EdgeListError(f"non-integer vertex id in ({quote(u)}, {quote(v)})", idx)
        if u < 0 or v < 0:
            raise EdgeListError(f"negative vertex id ({quote(u)}, {quote(v)})", idx)
        if u >= ID_LIMIT or v >= ID_LIMIT:
            raise EdgeListError(f"vertex id in ({quote(u)}, {quote(v)}) is not below 2**63", idx)
        if u == v:
            raise EdgeListError(f"self-loop at vertex {u}", idx)
        edge = (u, v) if u < v else (v, u)
        if edge in seen:
            raise EdgeListError(f"duplicate edge {edge[0]} {edge[1]}", idx)
        seen.add(edge)
        out.append(edge)
    flat = np.fromiter(chain.from_iterable(out), dtype=np.int64, count=2 * len(out))
    return flat.reshape(-1, 2)


def edge_lines(edges: Iterable[Edge], comment: str) -> Iterator[str]:
    """The lines of an edge-list file: `# comment`, then one line per edge."""
    yield f"# {comment}\n"
    for u, v in edges:
        yield f"{u} {v}\n"
