"""Proper edge colorings of the complete graph on an even number of vertices.

K_{2m} admits proper edge colorings with 2m-1 colors, and in every such
coloring each color appears at every vertex exactly once, so each color class
is a perfect matching. Equivalently, each row of the n x n color table (with
-1 on the diagonal) is a permutation of -1..n-2; that one row check is what
every EdgeColoring passes. The table is one flat typed ``array`` of n*n
cells, row u at [u*n:(u+1)*n], 2 bytes per cell while n <= 32768, so the
garbage collector never walks it. A row's inverse is the vertex's color ->
partner row the tree construction looks up; it is a typed row too, built
when first asked for, since a build reads the partners of only a few
vertices (the verifier reads none).
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import re
from array import array
from collections import deque
from itertools import chain, islice, repeat
from operator import add, lt, mul, setitem
from typing import Iterator, Mapping

from .errors import (
    AdjacentClash,
    ColorOutOfRange,
    InputError,
    InternalInvariantError,
    MissingPair,
    NotAPermutation,
    SchemaError,
    SelfLoop,
)

Vertex = int
Color = int


def canonical_json_bytes(obj) -> bytes:
    """Stable byte encoding used for every JSON artifact this package writes."""
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def _text(data, where: str) -> str:
    """Text as given, or UTF-8 bytes decoded; other bytes raise SchemaError,
    whose message starts with ``where``."""
    if isinstance(data, (bytes, bytearray)):
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{where} is not UTF-8: {exc}") from exc
    return data


def read_json(data, where: str):
    """Parse one JSON document from text or UTF-8 bytes.

    Bytes that are not UTF-8, malformed JSON, nesting too deep for the
    parser and integer literals too long to convert raise SchemaError, whose
    message starts with ``where``.
    """
    try:
        return json.loads(_text(data, where))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{where}: malformed JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError(f"{where}: JSON nests too deeply") from exc
    except ValueError as exc:  # an integer literal past sys.get_int_max_str_digits()
        raise SchemaError(f"{where}: integer literal too long: {exc}") from exc


class EdgeColoring:
    """A validated proper (2m-1)-edge-coloring of K_{2m}.

    Holds the n x n color table (-1 on the diagonal) as one flat typed array,
    cell (u, v) at u*n + v, and, per vertex, the inverse of its row (color ->
    partner), computed from the row the first time it is asked for and kept.
    Instances are immutable after validation. Filling in a partner row,
    stored only once complete, or the digest is an idempotent write of a
    value the table fixes: two threads racing on it store equal values, so
    instances stay safe to share across threads. Obtain them from
    :func:`validate_proper`, :func:`round_robin`, :func:`permuted_round_robin`,
    or :func:`parse_coloring` rather than calling the constructor directly.
    """

    __slots__ = ("m", "n", "n_colors", "_color", "_partner", "_digest")

    def __init__(self, m: int, color: array):
        self.m = m
        self.n = 2 * m
        self.n_colors = 2 * m - 1
        self._color = color
        self._partner: list[array | None] = [None] * self.n
        self._digest = None

    def color_of(self, u: Vertex, v: Vertex) -> Color:
        """Color of edge {u, v}; symmetric in its arguments."""
        if u == v:
            raise SelfLoop(f"no edge joins vertex {u} to itself")
        return self._color[u * self.n + v]

    def color_row(self, v: Vertex) -> array:
        """A copy of v's color row: entry u is color_of(v, u), -1 at v."""
        return self._color[v * self.n:(v + 1) * self.n]

    def partner(self, c: Color, v: Vertex) -> Vertex:
        """The unique vertex joined to v by the edge of color c at v."""
        row = self._partner[v]
        if row is None:
            row = self._invert(v)
        return row[c]

    def partner_row(self, v: Vertex) -> list[Vertex]:
        """A copy of v's partners by color: entry c is partner(c, v)."""
        row = self._partner[v]
        if row is None:
            row = self._invert(v)
        return row.tolist()

    def _invert(self, v: Vertex) -> array:
        """v's partner row, the inverse of its color row, stored once complete."""
        n = self.n
        inverse = array(self._color.typecode, [0]) * n
        _drain(map(setitem, repeat(inverse), self.color_row(v), range(n)))
        inverse.pop()  # the slot of -1, the diagonal
        self._partner[v] = inverse
        return inverse

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """All colored edges as (u, v, color) with u < v, in lexicographic order."""
        n = self.n
        for u in range(n):
            row = self._color[u * n:(u + 1) * n]
            for v in range(u + 1, n):
                yield u, v, row[v]

    def digest(self) -> str:
        """Content hash of the canonical serialization, hashed a row at a time
        on first use; parse_coloring sets it from canonical bytes it read."""
        if self._digest is None:
            digest = hashlib.sha256()
            _drain(map(digest.update, coloring_chunks(self)))
            self._digest = digest.hexdigest()
        return self._digest

    def __eq__(self, other):
        return (
            isinstance(other, EdgeColoring)
            and self.m == other.m
            and self._color == other._color
        )

    def __repr__(self):
        return f"EdgeColoring(m={self.m}, n={self.n})"


# runs an iterator of side effects (a C-speed scatter through setitem); it
# keeps nothing, so one is shared
_drain = deque(maxlen=0).extend


# validate_proper's markers for a pair with no color or two different ones
_MISSING = object()
_CONFLICT = object()


def _typecode(n: int) -> str:
    """The signed array typecode holding -1..n-1, the cells of the color table
    and of the partner rows."""
    return "h" if n <= 32768 else "i"


def _rows(color: array, n: int) -> Iterator[array]:
    """The n rows of a flat n x n table, each a slice of it."""
    return map(color.__getitem__, map(slice, range(0, n * n, n), range(n, n * n + 1, n)))


def _checked(m: int, color: array) -> EdgeColoring:
    """The row check every EdgeColoring passes.

    ``color`` is a flat typed n x n table whose diagonal holds -1 and every
    cell right of it a color in [0, n-2]; every path that builds a coloring
    fills those cells having checked their colors. The parsers and
    validate_proper fill only those; round_robin, permuted_round_robin and
    permute_coloring fill the whole table symmetric, so the cells left of
    the diagonal are overwritten with equal colors. One strided slice per
    vertex copies its column above the diagonal into its row left of it,
    making the table symmetric. The coloring is proper iff every row is then
    a permutation of -1..n-2: one set comparison per row.
    Only when it fails are the rows scanned, per vertex, in order, for the
    first color met twice (AdjacentClash). If none repeats, some cell is
    outside [0, n-2], which breaks the precondition: InternalInvariantError
    names the first such cell off the diagonal.
    """
    n = 2 * m
    for v in range(1, n):
        color[v * n:v * n + v] = color[v:v * n:n]
    row_set = set(range(-1, n - 1))
    if not all(map(row_set.__eq__, map(set, _rows(color, n)))):
        for v, row in enumerate(_rows(color, n)):
            seen = set()
            for u, c in enumerate(row):
                if u != v:
                    if c in seen:
                        raise AdjacentClash(v, c)
                    seen.add(c)
        # the diagonal cells sit at the multiples of n+1
        cell = next(i for i, c in enumerate(color) if i % (n + 1) and not 0 <= c < n - 1)
        u, v = divmod(cell, n)
        raise InternalInvariantError(
            f"cell ({u},{v}) of the color table holds {color[cell]}, outside [0, {n - 2}]"
        )
    return EdgeColoring(m, color)


def _raise_first_pair_fault(n: int, color_of) -> None:
    """Raise at the first pair u < v, in (u, v) order, whose color_of(u, v)
    marks two different colors or none, or is not a color in [0, n-2]."""
    for u in range(n):
        for v in range(u + 1, n):
            c = color_of(u, v)
            if c is _CONFLICT:
                raise SchemaError(f"pair ({u},{v}) is assigned two different colors")
            if c is _MISSING:
                raise MissingPair(f"pair ({u},{v}) has no color")
            if not isinstance(c, int) or isinstance(c, bool) or not 0 <= c < n - 1:
                raise ColorOutOfRange(f"color {c!r} on pair ({u},{v}) is outside [0, {n - 2}]")


def validate_proper(raw_table: Mapping[tuple[int, int], int], m: int) -> EdgeColoring:
    """Check a pair -> color mapping and index it into an EdgeColoring.

    ``raw_table`` must assign a color in [0, 2m-2] to every unordered pair of
    vertices in [0, 2m-1]; either orientation of a pair may be used as key.
    Raises SchemaError (two colors for one pair), MissingPair,
    ColorOutOfRange, or AdjacentClash on the first violation found. A
    mapping with fewer keys than pairs lacks a pair, so its first fault is
    found without the n x n table. The colors are read in (u, v) order and
    screened at C speed as ints in [0, 2m-2] before they fill the table
    right of its diagonal; only when the screen fails are they checked pair
    by pair, to name the fault.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    n = 2 * m
    get = raw_table.get

    def lookup(u: int, v: int):
        c, other = get((u, v), _MISSING), get((v, u), _MISSING)
        if c is _MISSING:
            return other
        return _CONFLICT if other is not _MISSING and other != c else c

    if len(raw_table) < n * (n - 1) // 2:
        _raise_first_pair_fault(n, lookup)
    colors = [lookup(u, v) for u in range(n) for v in range(u + 1, n)]
    # a color may be any object: a non-int, or a bool or float equal to a
    # color, is a fault, and an int subclass (IntEnum) reads as its int
    if not (set(map(type, colors)) <= {int} and min(colors) >= 0 and max(colors) <= n - 2):
        _raise_first_pair_fault(n, lookup)
    typecode = _typecode(n)
    color = array(typecode, [-1]) * (n * n)
    cells = iter(colors)
    for u in range(n - 1):
        color[u * n + u + 1:(u + 1) * n] = array(typecode, islice(cells, n - 1 - u))
    return _checked(m, color)


def round_robin(m: int) -> EdgeColoring:
    """Standard 1-factorization of K_{2m}.

    Vertices 0..2m-2 sit on a cycle with vertex 2m-1 as the hub; color c
    consists of the spoke {2m-1, c} plus the cycle pairs {c+i, c-i} mod 2m-1
    for i = 1..m-1. So a cycle pair {u, v} has color (u+v)*m mod 2m-1, m
    being the inverse of 2, and row u is row 0 rotated by u.
    """
    return _checked(m, _round_robin_table(m))


def _round_robin_table(m: int, cp=None) -> array:
    """round_robin's flat typed color table, whole and symmetric, with color c
    renamed cp[c] when cp is given; not yet validated.

    Cell (u, v) of two cycle vertices is row 0's cell (u + v) mod 2m-1, so
    row u's cycle cells are row 0 rotated by u; its diagonal cell, whose
    rotation reads the color of the spoke at u, then turns -1. The colors
    are renamed in row 0 and the hub's column alone, before they are copied.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    n, cyc = 2 * m, 2 * m - 1
    typecode = _typecode(n)
    if cp is None:
        cp = range(cyc)
    row0 = array(typecode, [cp[v * m % cyc] for v in range(cyc)]) * 2
    hub = array(typecode, cp) + array(typecode, [-1])  # the hub's row and column
    color = array(typecode, [-1]) * (n * n)
    for u in range(cyc):
        color[u * n:u * n + cyc] = row0[u:u + cyc]  # row 0 rotated by u
    color[cyc:n * n:n] = hub
    color[cyc * n:] = hub
    color[::n + 1] = array(typecode, [-1]) * n
    return color


def _renamed(color: array, vp: list[int]) -> array:
    """A symmetric flat n x n table with vertex x renamed vp[x]: cell
    (vp[x], vp[y]) takes cell (x, y). ``color`` is the caller's to give up,
    and is overwritten with the result and returned.

    Row x moves to row vp[x] of a second table; that table's column y then
    moves to row vp[y] of ``color``, one strided slice each. So cell
    (vp[y], vp[x]) gets cell (x, y), which is cell (y, x) by symmetry: n
    row moves and one transpose, all at C speed.
    """
    n = len(vp)
    moved = array(color.typecode, [-1]) * (n * n)
    for x, a in enumerate(vp):
        moved[a * n:(a + 1) * n] = color[x * n:(x + 1) * n]
    for y, a in enumerate(vp):
        color[a * n:(a + 1) * n] = moved[y::n]
    return color


def permute_coloring(coloring: EdgeColoring, vertex_perm, color_perm) -> EdgeColoring:
    """Relabel vertices and colors; the result is proper again and re-validated.

    The vertices are renamed in a color-renamed copy of the table, so the
    input is never written."""
    n, n_colors = coloring.n, coloring.n_colors
    vp = list(vertex_perm)
    cp = list(color_perm)
    if sorted(vp) != list(range(n)):
        raise NotAPermutation(f"vertex_perm is not a permutation of 0..{n - 1}")
    if sorted(cp) != list(range(n_colors)):
        raise NotAPermutation(f"color_perm is not a permutation of 0..{n_colors - 1}")
    # the diagonal's -1 reads the appended -1, the last entry
    recolored = array(coloring._color.typecode, map((cp + [-1]).__getitem__, coloring._color))
    return _checked(coloring.m, _renamed(recolored, vp))


def permuted_round_robin(m: int, seed: int) -> EdgeColoring:
    """Round-robin instance scrambled by seed-determined vertex and color permutations."""
    rng = random.Random(seed)
    vp = list(range(2 * m))
    rng.shuffle(vp)
    cp = list(range(2 * m - 1))
    rng.shuffle(cp)
    return _checked(m, _renamed(_round_robin_table(m, cp), vp))


def coloring_chunks(coloring: EdgeColoring) -> Iterator[bytes]:
    """serialize_coloring's bytes, one row of entries at a time: row u is the
    entries [u,v,c] for v = u+1..n-1."""
    n, color = coloring.n, coloring._color
    text = [str(x) for x in range(n)]
    cell_end = [f",{x}]" for x in text].__getitem__  # color c closes "[u,v" with ",c]"
    for u in range(n - 1):
        yield b"," if u else _CANONICAL_HEAD  # what comes before row u
        colors = color[u * n + u + 1:(u + 1) * n]
        yield ",".join(
            map("".join, zip(repeat(f"[{u},"), text[u + 1:], map(cell_end, colors)))
        ).encode()
    yield b'],"n":%d}\n' % n


def serialize_coloring(coloring: EdgeColoring) -> bytes:
    """Canonical document {"n": 2m, "edges": [[u, v, c], ...]} sorted by (u, v),
    the bytes canonical_json_bytes gives it: :func:`coloring_chunks` joined."""
    return b"".join(coloring_chunks(coloring))


def _raise_first_entry_fault(edges: list, n: int) -> None:
    """Raise SchemaError for the first edge entry that is not an integer
    triple [u, v, c] with 0 <= u < v < n or repeats a pair; else raise the
    first pair fault, if any, of the colors the entries give."""
    given = {}
    for entry in edges:
        if (
            not isinstance(entry, list)
            or len(entry) != 3
            or any(not isinstance(x, int) or isinstance(x, bool) for x in entry)
        ):
            raise SchemaError(f"edge entry {entry!r} is not an integer triple [u, v, c]")
        u, v, c = entry
        if not 0 <= u < v < n:
            raise SchemaError(f"edge ({u},{v}) must satisfy 0 <= u < v < n")
        if (u, v) in given:
            raise SchemaError(f"pair ({u},{v}) appears more than once")
        given[u, v] = c
    _raise_first_pair_fault(n, lambda u, v: given.get((u, v), _MISSING))


def parse_coloring(data) -> EdgeColoring:
    """Read a coloring document and validate it.

    ``data`` is the document as text or bytes, or an open binary file that
    holds it from its position on. Unreadable JSON and structural problems
    raise SchemaError; coloring problems raise MissingPair, ColorOutOfRange
    or AdjacentClash. The edge count is checked before the n x n table is
    allocated.

    A document that is exactly the bytes serialize_coloring writes is read on
    a fast path, a chunk at a time, and its digest is its sha256. Every other
    input, and every input the fast path refuses, is read whole by the json
    path, so results and errors do not depend on the path taken. A file that
    cannot seek, such as a pipe, is read whole first.
    """
    if isinstance(data, bytes):
        data = io.BytesIO(data)  # shares the bytes, copying none
    elif not hasattr(data, "read"):
        return _parse_json(data)
    elif not data.seekable():
        data = io.BytesIO(data.read())
    start = data.tell()
    coloring = _parse_canonical(data)
    if coloring is not None:
        return coloring
    data.seek(start)
    return _parse_json(data.read())


# the frame of serialize_coloring's document
_CANONICAL_HEAD = b'{"edges":['
_CANONICAL_TAIL = re.compile(rb'\],"n":([0-9]{1,9})\}\n\Z')
# the bytes the fast path reads at a time, unless a row runs longer
_CHUNK = 1 << 16


def _parse_canonical(stream) -> EdgeColoring | None:
    """The valid coloring whose canonical document the seekable binary file
    ``stream`` holds from its position on, else None.

    n is read from the frame's tail, at the end of the stream, and the
    document is read from the head on in chunks, row by row: row u is the run
    of entries [u,v,c] for v = u+1..n-1, which ends where the entry
    [u+1,u+2,... starts, and the last row, one entry, ends at the tail. Only
    the current chunk and row are held beside the table; a row longer than
    the chunks read so far makes the next read at least as long as the part
    of it held, so even a row without an end costs linear time.
    The row's bytes are split once on ",", into tokens "[u", "v" and "c]" per
    entry, and the row stands only if each token is the one
    serialize_coloring writes: every head is "[u" (one count), the columns
    are u+1..n-1 in order (one list comparison) and every color maps through
    the dict of the spellings of 0..n-2, so a leading zero or a color out of
    range refuses it. The tokens joined by "," are the row's bytes, so these
    are exactly the row the writer spells for the colors read. One slice
    assignment puts them right of the diagonal of the flat table, which
    :func:`_checked` mirrors and checks once every row stands. Rows that tile
    the document between its head and its tail, each exact, make it the
    canonical document of the coloring read, so the json path reads the same
    coloring from it, and the sha256 of the chunks read is its digest. Every
    entry takes at least 8 bytes, so a document too short to hold n(n-1)/2
    of them is refused before the n x n table is allocated, and the table's
    size is bounded by the input's. Never raises on what the stream holds:
    an invalid coloring gives None, and the json path reports it.
    """
    start = stream.tell()
    size = stream.seek(0, io.SEEK_END) - start
    stream.seek(max(start, start + size - 20))
    tail = _CANONICAL_TAIL.search(stream.read())
    stream.seek(start)
    if tail is None:
        return None
    n = int(tail[1])
    if n < 2 or n % 2 or tail[1] != b"%d" % n or size < 8 * (n * (n - 1) // 2):
        return None
    digest = hashlib.sha256()

    def read(size: int = _CHUNK) -> bytes:
        chunk = stream.read(size)
        digest.update(chunk)
        return chunk

    buf = read()
    if not buf.startswith(_CANONICAL_HEAD):
        return None
    column = [b"%d" % v for v in range(n)]
    # each color by its spelling, closed by the "]" of its entry
    spelled = {b"%d]" % c: c for c in range(n - 1)}.__getitem__
    typecode = _typecode(n)
    color = array(typecode, [-1]) * (n * n)
    pos = len(_CANONICAL_HEAD)
    for u in range(n - 1):
        if u < n - 2:
            row_end = b",[%d,%d," % (u + 1, u + 2)
            end = buf.find(row_end, pos)
            while end < 0:  # the row runs past the bytes read
                chunk = read(max(_CHUNK, len(buf) - pos))
                if not chunk:
                    return None
                buf, pos = buf[pos:] + chunk, 0
                end = buf.find(row_end)
        else:
            buf, pos = buf[pos:] + b"".join(iter(read, b"")), 0
            if not buf.endswith(tail[0]):  # the file changed since its tail was read
                return None
            end = len(buf) - len(tail[0])
        tokens = buf[pos:end].split(b",")
        k = n - 1 - u
        if (
            len(tokens) != 3 * k
            or tokens[0::3].count(b"[%d" % u) != k
            or tokens[1::3] != column[u + 1:]
        ):
            return None
        try:
            colors = list(map(spelled, tokens[2::3]))
        except KeyError:  # a color out of range or with a leading zero
            return None
        color[u * n + u + 1:(u + 1) * n] = array(typecode, colors)
        pos = end + 1
    try:
        coloring = _checked(n // 2, color)
    except InputError:
        return None
    coloring._digest = digest.hexdigest()
    return coloring


def _parse_json(data) -> EdgeColoring:
    """parse_coloring for any spelling of the document: json.loads, then
    C-speed screens, with the per-entry checks run only to name a fault."""
    doc = read_json(data, "coloring")
    if not isinstance(doc, dict):
        raise SchemaError("document root must be an object")
    n = doc.get("n")
    edges = doc.get("edges")
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise SchemaError('"n" must be an integer >= 2')
    if n % 2:
        raise SchemaError(f'"n" must be even, got {n}')
    if not isinstance(edges, list):
        raise SchemaError('"edges" must be a list')
    # C-speed screens, so that only ints in [0, n-2] fill the table; the
    # entries are checked one by one only to name the fault when one fails
    # (more entries than pairs repeat one)
    if (
        len(edges) != n * (n - 1) // 2
        or not set(map(type, edges)) <= {list}
        or not set(map(len, edges)) <= {3}
    ):
        _raise_first_entry_fault(edges, n)
    flat = list(chain.from_iterable(edges))
    us, vs, cs = flat[0::3], flat[1::3], flat[2::3]
    if (
        not set(map(type, flat)) <= {int}
        or min(us) < 0
        or max(vs) >= n
        or not all(map(lt, us, vs))
        or min(cs) < 0
        or max(cs) > n - 2
    ):
        _raise_first_entry_fault(edges, n)
    color = array(_typecode(n), [-1]) * (n * n)
    _drain(map(setitem, repeat(color), map(add, map(mul, us, repeat(n)), vs), cs))
    # the lower triangle and the diagonal hold n(n+1)/2 cells of -1; a
    # repeated pair leaves another pair at -1 too, and is a schema error
    if color.count(-1) > n * (n + 1) // 2:
        _raise_first_entry_fault(edges, n)
    return _checked(n // 2, color)
