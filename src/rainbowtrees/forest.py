"""Edge-colored spanning trees of K_{2m} in two forms, the leaf exchange
that rewires two root edges at a time, and the packed-forest container with
its file formats.

:class:`RainbowTree` is a plain value: what a :class:`Forest` holds, what
:func:`parse_forest` and the oracle return and what the verifier checks.
:class:`WorkingTree` is the constructor's tree, a parent array with the
indexes the construction reads; :func:`apply_swap` patches it in place,
re-hanging two root leaves, each by the color the other one frees.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, repeat
from operator import ne

from .coloring import EdgeColoring, canonical_json_bytes, read_json
from .errors import NotPendant, SchemaError


def _pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True, slots=True)
class RainbowTree:
    """A rooted tree claimed to be a rainbow spanning tree: its root and its
    edges as sorted (u, v, color) triples with u < v. Nothing is derived or
    judged on the way in, so corrupt trees read back from files are
    representable; the verifier decides."""

    root: int
    edges: tuple[tuple[int, int, int], ...]

    @classmethod
    def from_edges(cls, root: int, edges) -> RainbowTree:
        """The value with each pair ordered u < v and the triples sorted."""
        edges = [(u, v, c) if u < v else (v, u, c) for u, v, c in edges]
        edges.sort()
        return cls(root, tuple(edges))

    def pairs(self) -> frozenset[tuple[int, int]]:
        """The vertex pairs, each ordered u < v however its edge is written."""
        return frozenset((u, v) if u < v else (v, u) for u, v, _ in self.edges)


def root_leaves(parent: list[int], root: int) -> frozenset[int]:
    """The root's children that have none, read from a parent array alone."""
    root_children = compress(range(len(parent)), map(root.__eq__, parent))
    return frozenset(root_children) - set(parent)


@dataclass(slots=True)
class WorkingTree:
    """A rainbow spanning tree under construction, rooted at ``root``.

    ``parent[x]`` is x's neighbor towards the root (-1 at the root),
    ``children[x]`` counts the vertices whose parent is x,
    ``child_of_color[c]`` is the vertex whose edge to its parent has color c
    and ``leaves`` counts the root's children that have none. Each instance
    is a genuine rainbow spanning tree; the leaf exchange patches it in
    place, the child counts and the leaf count included.
    """

    coloring: EdgeColoring
    root: int
    parent: list[int]
    children: list[int]
    child_of_color: list[int]
    leaves: int

    @property
    def root_degree(self) -> int:
        """The number of the root's children."""
        return self.children[self.root]

    def is_root_leaf(self, x: int) -> bool:
        """Whether x is a root-adjacent leaf, read in O(1) from the arrays."""
        return self.parent[x] == self.root and not self.children[x]

    def value(self) -> RainbowTree:
        """This tree as a plain RainbowTree, with no full sort. The star at
        the root, read in one pass from the root's color row, is already
        its n - 1 sorted triples, vertex x's at index x below the root and
        x - 1 above it. The re-hung vertices, at most 2W in a forest of W
        trees, lose their star triples, and their real edges are insorted."""
        r, parent = self.root, self.parent
        n = len(parent)
        row = self.coloring.color_row(r)
        edges = list(zip(range(r), repeat(r), row))
        edges += zip(repeat(r), range(r + 1, n), row[r + 1:])
        rehung = list(compress(range(n), map(r.__ne__, parent)))
        rehung.remove(r)
        for x in reversed(rehung):
            del edges[x if x < r else x - 1]
        color_of = self.coloring.color_of
        for x in rehung:
            p = parent[x]
            insort(edges, (*_pair(x, p), color_of(x, p)))
        return RainbowTree(r, tuple(edges))


def base_star(coloring: EdgeColoring, r: int) -> WorkingTree:
    """Spanning star at r; rainbow because the colors at any vertex are all
    distinct, so its color index is r's partner row."""
    n = coloring.n
    parent = [r] * n
    parent[r] = -1
    children = [0] * n
    children[r] = n - 1
    return WorkingTree(coloring, r, parent, children, coloring.partner_row(r), n - 1)


def tree_edge_of_color(tree: WorkingTree, c: int) -> tuple[int, int, int]:
    """The unique tree edge of color c, as (u, v, c) with u < v."""
    x = tree.child_of_color[c]
    return (*_pair(x, tree.parent[x]), c)


def spans(parent: list[int], root: int, rehung) -> bool:
    """True when the n - 1 edges (x, parent[x]), x != root, form a spanning
    tree, for a parent array that gives every vertex outside ``rehung``
    other than the root the parent ``root`` (and the root -1). O(|rehung|).

    The edges form a spanning tree exactly when every vertex's parent chain
    reaches the root. A vertex outside ``rehung`` reaches it in one step, so
    only chains from re-hung vertices need walking. Such a chain that never
    reaches the root cannot pass through a vertex outside ``rehung`` (whose
    next step is the root) nor through -1, so it stays among the finitely
    many re-hung vertices and repeats one: a cycle. The walk therefore
    returns False when a chain meets -1 or a vertex already on it, and
    marks every vertex of a chain that reached the root, so a later walk
    stops there; each re-hung vertex is walked once.
    """
    reached = {root}
    for x in rehung:
        walk = set()
        while x not in reached:
            if x < 0 or x in walk:
                return False
            walk.add(x)
            x = parent[x]
        reached |= walk
    return True


def apply_swap(tree: WorkingTree, y: int, v: int) -> WorkingTree:
    """Detach the root-adjacent leaves y and v and re-hang each by the edge
    of the color the other one freed: with r the root, turn tree into
    tree - ry - rv + yw + vv' for w = partner(color(r, v), y) and
    v' = partner(color(r, y), v), in place at O(1) entries, and return it.
    NotPendant, raised before the first write, is the only error: y and v
    must be distinct root-adjacent leaves.

    The result is always a rainbow spanning tree. w is none of r, y, v:
    w = r would give color(r, y) = color(r, v), so y = v; w = y is not an
    edge; w = v would give color(y, v) = color(r, v), so y = r. The same
    holds for v'. So y and v both re-hang onto the spanning tree that
    tree - ry - rv leaves on the other n - 2 vertices, and the two new edges
    carry exactly the two freed colors. No other (w, v') makes
    tree - ry - rv + yw + vv' a rainbow spanning tree other than the input:
    its new edges must carry the two freed colors, and the other assignment,
    color(y, w) = color(r, y), forces w = r and then v' = r.

    The root loses the children y and v, w and v' gain one each and no
    vertex becomes a root child: four child counts change, and the
    root-adjacent leaves are the old ones minus {y, v, w, v'}. As
    {w, v'} and {y, v} are disjoint, the leaf count falls by 2 plus the
    number of root-adjacent leaves in {w, v'}, which may be one vertex.
    """
    if y == v:
        raise NotPendant("the two detached leaves must be distinct")
    for leaf in (y, v):
        if not tree.is_root_leaf(leaf):
            raise NotPendant(f"vertex {leaf} is not a leaf adjacent to the root")
    col, r = tree.coloring, tree.root
    c_y, c_v = col.color_of(r, y), col.color_of(r, v)
    w, v_prime = col.partner(c_v, y), col.partner(c_y, v)
    tree.leaves -= 2 + sum(map(tree.is_root_leaf, {w, v_prime}))
    tree.parent[y], tree.parent[v] = w, v_prime
    tree.child_of_color[c_v], tree.child_of_color[c_y] = y, v
    children = tree.children
    children[r] -= 2
    children[w] += 1
    children[v_prime] += 1
    return tree


@dataclass(frozen=True)
class Forest:
    """An ordered family of rainbow spanning trees claimed to be pairwise
    edge-disjoint, plus the content hash of the coloring it was built from."""

    m: int
    trees: tuple[RainbowTree, ...]
    coloring_digest: str | None = None

    @cached_property
    def _pairs(self) -> list[frozenset[tuple[int, int]] | None]:
        return [None] * len(self.trees)

    def pairs_of(self, idx: int) -> frozenset[tuple[int, int]]:
        """Tree idx's :meth:`RainbowTree.pairs`, derived once per forest, on
        first use, for the checks that compare trees by their pairs."""
        pairs = self._pairs[idx]
        if pairs is None:
            pairs = self._pairs[idx] = self.trees[idx].pairs()
        return pairs

    @property
    def tree_pairs(self) -> tuple[frozenset[tuple[int, int]], ...]:
        """Every tree's :meth:`pairs_of`, in tree order."""
        return tuple(map(self.pairs_of, range(len(self.trees))))


def forest_to_json(forest: Forest) -> bytes:
    """Canonical document {"m": ..., "trees": [{"root": r, "edges": [[u,v,c], ...]}, ...]},
    the bytes canonical_json_bytes gives it, encoded one tree at a time so
    that json never holds the whole document in pieces."""
    frame = {"m": forest.m, "trees": []}
    if forest.coloring_digest is not None:
        frame["coloring_digest"] = forest.coloring_digest
    # "trees" sorts last, so the frame's bytes end in its empty list: b"[]}\n"
    head = canonical_json_bytes(frame)[:-3]
    # json writes each edge tuple as the array [u,v,c], with no list made for it
    trees = (canonical_json_bytes({"root": t.root, "edges": t.edges})[:-1] for t in forest.trees)
    return b"".join((head, b",".join(trees), b"]}\n"))


def parse_forest(data) -> Forest:
    """Read a forest document.

    Only the document shape is enforced here; validity of the trees is the
    verifier's job, so corrupt forests stay representable. Each tree's edges
    are screened at C speed; :func:`_first_bad_edge` names the first fault
    of a tree whose screen fails.
    """
    doc = read_json(data, "forest")
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
        if not set(map(type, edges)) <= {list} or not set(map(len, edges)) <= {3}:
            _first_bad_edge(idx, edges, n)
        flat = list(chain.from_iterable(edges))
        us, vs = flat[0::3], flat[1::3]
        ends = us + vs
        # json.loads makes exact ints, so a type screen of {int} leaves bools out
        if (
            not set(map(type, flat)) <= {int}
            or min(ends, default=0) < 0
            or max(ends, default=0) >= n
            or not all(map(ne, us, vs))
        ):
            _first_bad_edge(idx, edges, n)
        trees.append(RainbowTree.from_edges(root, edges))
    return Forest(m=m, trees=tuple(trees), coloring_digest=digest)


def _first_bad_edge(idx: int, edges: list, n: int) -> None:
    """Raise SchemaError for the first edge of tree idx that is not an
    integer triple [u, v, c] of a vertex pair u != v in [0, n-1]."""
    for e in edges:
        if (
            not isinstance(e, list)
            or len(e) != 3
            or any(not isinstance(x, int) or isinstance(x, bool) for x in e)
        ):
            raise SchemaError(f"tree {idx} edge {e!r} is not an integer triple")
        u, v, _ = e
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise SchemaError(f"tree {idx} edge ({u},{v}) is not a vertex pair")


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
