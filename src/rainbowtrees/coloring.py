"""Proper edge colorings of the complete graph on an even number of vertices.

K_{2m} admits proper edge colorings with 2m-1 colors, and in every such
coloring each color appears at every vertex exactly once, so each color class
is a perfect matching. That matching structure is what the rest of the
package leans on: the (color, vertex) -> partner table is precomputed at
validation time because the tree construction performs many partner lookups.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Iterator, Mapping

from .errors import (
    AdjacentClash,
    ColorOutOfRange,
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


class EdgeColoring:
    """A validated proper (2m-1)-edge-coloring of K_{2m}.

    Instances are immutable after validation and safe to share across
    threads. Obtain them from :func:`validate_proper`, :func:`round_robin`,
    :func:`permuted_round_robin`, or :func:`parse_coloring` rather than
    calling the constructor directly.
    """

    __slots__ = ("m", "n", "n_colors", "_color", "_partner")

    def __init__(self, m: int, color_table, partner_table):
        self.m = m
        self.n = 2 * m
        self.n_colors = 2 * m - 1
        self._color = color_table
        self._partner = partner_table

    def color_of(self, u: Vertex, v: Vertex) -> Color:
        """Color of edge {u, v}; symmetric in its arguments."""
        if u == v:
            raise SelfLoop(f"no edge joins vertex {u} to itself")
        return self._color[u][v]

    def partner(self, c: Color, v: Vertex) -> Vertex:
        """The unique vertex joined to v by the edge of color c at v."""
        return self._partner[c][v]

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """All colored edges as (u, v, color) with u < v, in lexicographic order."""
        for u in range(self.n):
            row = self._color[u]
            for v in range(u + 1, self.n):
                yield u, v, row[v]

    def digest(self) -> str:
        """Content hash of the canonical serialization."""
        return hashlib.sha256(serialize_coloring(self)).hexdigest()

    def __eq__(self, other):
        return (
            isinstance(other, EdgeColoring)
            and self.m == other.m
            and self._color == other._color
        )

    def __repr__(self):
        return f"EdgeColoring(m={self.m}, n={self.n})"


def validate_proper(raw_table: Mapping[tuple[int, int], int], m: int) -> EdgeColoring:
    """Check a pair -> color mapping and index it into an EdgeColoring.

    ``raw_table`` must assign a color in [0, 2m-2] to every unordered pair of
    vertices in [0, 2m-1]; either orientation of a pair may be used as key.
    Raises MissingPair, ColorOutOfRange, or AdjacentClash on the first
    violation found.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    n = 2 * m
    n_colors = n - 1
    color = [[-1] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) in raw_table:
                c = raw_table[(u, v)]
                if (v, u) in raw_table and raw_table[(v, u)] != c:
                    raise SchemaError(f"pair ({u},{v}) is assigned two different colors")
            elif (v, u) in raw_table:
                c = raw_table[(v, u)]
            else:
                raise MissingPair(f"pair ({u},{v}) has no color")
            if not isinstance(c, int) or isinstance(c, bool) or not 0 <= c < n_colors:
                raise ColorOutOfRange(
                    f"color {c!r} on pair ({u},{v}) is outside [0, {n_colors - 1}]"
                )
            color[u][v] = color[v][u] = c
    partner = [[-1] * n for _ in range(n_colors)]
    for v in range(n):
        for u in range(n):
            if u == v:
                continue
            c = color[v][u]
            if partner[c][v] != -1:
                raise AdjacentClash(v, c)
            partner[c][v] = u
    # n-1 incident edges, n-1 colors, no clash: every (color, vertex) slot is filled
    return EdgeColoring(m, color, partner)


def round_robin(m: int) -> EdgeColoring:
    """Standard 1-factorization of K_{2m}.

    Vertices 0..2m-2 sit on a cycle with vertex 2m-1 as the hub; color c
    consists of the spoke {2m-1, c} plus the cycle pairs {c+i, c-i} mod 2m-1
    for i = 1..m-1.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    n = 2 * m
    cyc = n - 1
    table: dict[tuple[int, int], int] = {}
    for c in range(cyc):
        table[(c, n - 1)] = c
        for i in range(1, m):
            u = (c + i) % cyc
            v = (c - i) % cyc
            table[(u, v) if u < v else (v, u)] = c
    return validate_proper(table, m)


def permute_coloring(coloring: EdgeColoring, vertex_perm, color_perm) -> EdgeColoring:
    """Relabel vertices and colors; the result is proper again and re-validated."""
    n, n_colors = coloring.n, coloring.n_colors
    vp = list(vertex_perm)
    cp = list(color_perm)
    if sorted(vp) != list(range(n)):
        raise NotAPermutation(f"vertex_perm is not a permutation of 0..{n - 1}")
    if sorted(cp) != list(range(n_colors)):
        raise NotAPermutation(f"color_perm is not a permutation of 0..{n_colors - 1}")
    table: dict[tuple[int, int], int] = {}
    for u, v, c in coloring.edges():
        a, b = vp[u], vp[v]
        table[(a, b) if a < b else (b, a)] = cp[c]
    return validate_proper(table, coloring.m)


def permuted_round_robin(m: int, seed: int) -> EdgeColoring:
    """Round-robin instance scrambled by seed-determined vertex and color permutations."""
    rng = random.Random(seed)
    vp = list(range(2 * m))
    rng.shuffle(vp)
    cp = list(range(2 * m - 1))
    rng.shuffle(cp)
    return permute_coloring(round_robin(m), vp, cp)


def serialize_coloring(coloring: EdgeColoring) -> bytes:
    """Canonical document {"n": 2m, "edges": [[u, v, c], ...]} sorted by (u, v)."""
    doc = {"n": coloring.n, "edges": [[u, v, c] for u, v, c in coloring.edges()]}
    return canonical_json_bytes(doc)


def parse_coloring(data) -> EdgeColoring:
    """Read a coloring document and validate it.

    Malformed JSON propagates json.JSONDecodeError; structural problems raise
    SchemaError; coloring problems raise the validate_proper errors.
    """
    if isinstance(data, (bytes, bytearray)):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError(f"coloring is not UTF-8: {exc}") from exc
    doc = json.loads(data)
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
    table: dict[tuple[int, int], int] = {}
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
        if (u, v) in table:
            raise SchemaError(f"pair ({u},{v}) appears more than once")
        table[(u, v)] = c
    return validate_proper(table, n // 2)
