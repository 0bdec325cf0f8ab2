"""Rooted spanning trees of an edge-colored complete graph and the leaf
exchange that rewires two root edges at a time, plus the packed-forest
container and its file formats."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .coloring import EdgeColoring, canonical_json_bytes
from .errors import (
    ColorClash,
    CycleDetected,
    DegenerateSwap,
    InternalInvariantError,
    NotPendant,
    SchemaError,
)


def _pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class RainbowTree:
    """A rooted spanning tree together with its edge colors.

    ``from_edges`` builds the derived indexes without judging validity, so
    claimed trees read back from files (possibly corrupt) can be represented
    and handed to the verifier. Trees produced by :func:`base_star` and
    :func:`apply_swap` are always genuine rainbow spanning trees. Instances
    are treated as immutable snapshots; surgery returns new values.
    """

    __slots__ = ("root", "n", "edges", "adjacency", "color_edge", "root_leaves", "coloring")

    def __init__(self, root, n, edges, adjacency, color_edge, root_leaves, coloring=None):
        self.root = root
        self.n = n
        self.edges = edges
        self.adjacency = adjacency
        self.color_edge = color_edge
        self.root_leaves = root_leaves
        self.coloring = coloring

    @classmethod
    def from_edges(cls, root: int, edges, n: int, coloring: EdgeColoring | None = None):
        canon = tuple(sorted((*_pair(u, v), c) for u, v, c in edges))
        adjacency: dict[int, set[int]] = {v: set() for v in range(n)}
        color_edge: dict[int, tuple[int, int]] = {}
        for u, v, c in canon:
            adjacency[u].add(v)
            adjacency[v].add(u)
            color_edge[c] = (u, v)
        root_leaves = frozenset(x for x in adjacency[root] if len(adjacency[x]) == 1)
        return cls(root, n, canon, adjacency, color_edge, root_leaves, coloring)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset((u, v) for u, v, _ in self.edges)

    def __eq__(self, other):
        return (
            isinstance(other, RainbowTree)
            and self.root == other.root
            and self.n == other.n
            and self.edges == other.edges
        )

    def __repr__(self):
        return f"RainbowTree(root={self.root}, n={self.n}, edges={len(self.edges)})"


def base_star(coloring: EdgeColoring, r: int) -> RainbowTree:
    """Spanning star at r; rainbow because the colors at any vertex are all distinct."""
    edges = [(r, x, coloring.color_of(r, x)) for x in range(coloring.n) if x != r]
    return RainbowTree.from_edges(r, edges, coloring.n, coloring)


def tree_edge_of_color(tree: RainbowTree, c: int) -> tuple[int, int, int]:
    """The unique tree edge of color c, as (u, v, c)."""
    u, v = tree.color_edge[c]
    return (u, v, c)


def root_leaf_set(tree: RainbowTree) -> frozenset[int]:
    """Vertices x with degree 1 whose single edge goes to the root."""
    return tree.root_leaves


def spans(tree: RainbowTree) -> bool:
    """True when every vertex is reachable from the root."""
    seen = {tree.root}
    stack = [tree.root]
    while stack:
        x = stack.pop()
        for y in tree.adjacency[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == tree.n


def apply_swap(tree: RainbowTree, r: int, y: int, v: int, w: int, v_prime: int) -> RainbowTree:
    """Return tree - ry - rv + yw + vv'.

    y and v must be distinct root-adjacent leaves, so detaching them cannot
    disconnect anything else and the result is again a spanning tree. The
    result is rainbow exactly when the two new edges reuse the two freed
    colors, which the construction arranges by choosing w and v' as the
    matching partners; any other combination raises ColorClash. The root
    degree drops by exactly two and the root-adjacent leaf set loses at most
    the four vertices y, v, w, v'.
    """
    col = tree.coloring
    if col is None:
        raise ValueError("tree carries no coloring; a leaf exchange needs edge colors")
    if r != tree.root:
        raise NotPendant(f"swap pivot {r} is not the root {tree.root}")
    if y == v:
        raise NotPendant("the two detached leaves must be distinct")
    for leaf in (y, v):
        if leaf not in tree.root_leaves:
            raise NotPendant(f"vertex {leaf} is not a leaf adjacent to the root")
    if w in (r, y):
        raise DegenerateSwap(f"replacement endpoint w={w} collides with the detached edge")
    if v_prime in (r, v):
        raise DegenerateSwap(f"replacement endpoint v'={v_prime} collides with the detached edge")
    removed = {_pair(r, y), _pair(r, v)}
    e_yw = _pair(y, w)
    e_vv = _pair(v, v_prime)
    if e_yw == e_vv:
        raise DegenerateSwap("both replacement edges coincide")
    kept_pairs = tree.pairs() - removed
    if e_yw in kept_pairs or e_vv in kept_pairs:
        raise DegenerateSwap("a replacement edge already exists in the tree")
    removed_colors = {col.color_of(r, y), col.color_of(r, v)}
    added_colors = {col.color_of(y, w), col.color_of(v, v_prime)}
    if added_colors != removed_colors:
        raise ColorClash(
            f"replacement colors {sorted(added_colors)} do not match freed colors {sorted(removed_colors)}"
        )
    new_edges = [(u, x, c) for u, x, c in tree.edges if _pair(u, x) not in removed]
    new_edges.append((*e_yw, col.color_of(y, w)))
    new_edges.append((*e_vv, col.color_of(v, v_prime)))
    out = RainbowTree.from_edges(r, new_edges, tree.n, col)
    if not spans(out):
        raise CycleDetected("leaf exchange produced a disconnected graph")
    expected_leaves = set(tree.root_leaves) - {y, v, w, v_prime}
    if set(out.root_leaves) != expected_leaves:
        raise InternalInvariantError(
            "incremental root-leaf bookkeeping diverged from recomputation"
        )
    return out


@dataclass(frozen=True)
class Forest:
    """An ordered family of rainbow spanning trees claimed to be pairwise
    edge-disjoint, plus the content hash of the coloring it was built from."""

    m: int
    trees: tuple[RainbowTree, ...]
    coloring_digest: str | None = None

    @property
    def roots(self) -> tuple[int, ...]:
        return tuple(t.root for t in self.trees)


def forest_to_json(forest: Forest) -> bytes:
    """Canonical document {"m": ..., "trees": [{"root": r, "edges": [[u,v,c], ...]}, ...]}."""
    doc = {
        "m": forest.m,
        "trees": [
            {"root": t.root, "edges": [[u, v, c] for u, v, c in t.edges]}
            for t in forest.trees
        ],
    }
    if forest.coloring_digest is not None:
        doc["coloring_digest"] = forest.coloring_digest
    return canonical_json_bytes(doc)


def parse_forest(data) -> Forest:
    """Read a forest document.

    Only the document shape is enforced here; validity of the trees is the
    verifier's job, so corrupt forests stay representable.
    """
    if isinstance(data, (bytes, bytearray)):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError(f"forest is not UTF-8: {exc}") from exc
    doc = json.loads(data)
    if not isinstance(doc, dict):
        raise SchemaError("document root must be an object")
    m = doc.get("m")
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise SchemaError('"m" must be a positive integer')
    raw_trees = doc.get("trees")
    if not isinstance(raw_trees, list):
        raise SchemaError('"trees" must be a list')
    digest = doc.get("coloring_digest")
    if digest is not None and not isinstance(digest, str):
        raise SchemaError('"coloring_digest" must be a string when present')
    n = 2 * m
    trees = []
    for idx, entry in enumerate(raw_trees):
        if not isinstance(entry, dict):
            raise SchemaError(f"tree {idx} is not an object")
        root = entry.get("root")
        edges = entry.get("edges")
        if not isinstance(root, int) or isinstance(root, bool) or not 0 <= root < n:
            raise SchemaError(f"tree {idx} root must be a vertex in [0, {n - 1}]")
        if not isinstance(edges, list):
            raise SchemaError(f'tree {idx} "edges" must be a list')
        triples = []
        for e in edges:
            if (
                not isinstance(e, list)
                or len(e) != 3
                or any(not isinstance(x, int) or isinstance(x, bool) for x in e)
            ):
                raise SchemaError(f"tree {idx} edge {e!r} is not an integer triple")
            u, v, c = e
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise SchemaError(f"tree {idx} edge ({u},{v}) is not a vertex pair")
            triples.append((u, v, c))
        trees.append(RainbowTree.from_edges(root, triples, n))
    return Forest(m=m, trees=tuple(trees), coloring_digest=digest)


def forest_to_dot(forest: Forest) -> str:
    """Graphviz text with one graph block per tree; edge labels are color indexes."""
    blocks = []
    for idx, t in enumerate(forest.trees):
        lines = [f"graph tree_{idx} {{", f'  label="tree {idx} root {t.root}";']
        for u, v, c in t.edges:
            lines.append(f'  {u} -- {v} [label="{c}"];')
        lines.append("}")
        blocks.append("\n".join(lines))
    return "\n".join(blocks) + "\n"
