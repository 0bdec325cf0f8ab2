"""Exhaustive ground truth on tiny instances.

A proper coloring of K_n has n-1 colors and a spanning tree has n-1 edges,
so a rainbow spanning tree takes exactly one edge of every color class. The
enumeration backtracks over the colors in order, trying each edge of the
class that joins two components of the edges chosen so far (components are
vertex bitmasks); the packing runs an exact branch-and-bound over bitsets
of the enumerated trees. Both recurse through module-level functions with
explicit arguments, so a call leaves no reference cycle behind. Caps are
configuration, not promises of speed; exceeding one is an explicit error.
"""

from __future__ import annotations

from .coloring import EdgeColoring
from .errors import InstanceTooLarge
from .forest import RainbowTree

DEFAULT_ENUMERATION_CAP = 10  # vertices
DEFAULT_PACKING_CAP = 8


def _grow(classes, c: int, comp: list[int], chosen: list, out: list) -> None:
    """Append to ``out`` every extension of ``chosen``, one edge of each
    color below c, by one edge of each color from c on; ``comp[x]`` is the
    bitmask of x's component in the edges chosen so far."""
    if c == len(classes) - 1:
        # the last color closes the tree: no components are needed after it
        for edge in classes[c]:
            u, v, _ = edge
            if not comp[u] >> v & 1:
                out.append(tuple(sorted([*chosen, edge])))
        return
    for edge in classes[c]:
        u, v, _ = edge
        cu = comp[u]
        if cu >> v & 1:
            continue
        merged = cu | comp[v]
        chosen.append(edge)
        _grow(classes, c + 1, [merged if k & merged else k for k in comp], chosen, out)
        chosen.pop()


def _rainbow_tree_edge_sets(coloring: EdgeColoring) -> list[tuple[tuple[int, int, int], ...]]:
    """All rainbow spanning trees as sorted edge-triple tuples, in
    lexicographic order."""
    n, partner = coloring.n, coloring.partner
    classes = [
        [(v, w, c) for v in range(n) for w in (partner(c, v),) if v < w]
        for c in range(coloring.n_colors)
    ]
    out: list[tuple[tuple[int, int, int], ...]] = []
    _grow(classes, 0, [1 << x for x in range(n)], [], out)
    out.sort()
    return out


def _check_cap(coloring: EdgeColoring, max_vertices: int, search: str) -> None:
    if coloring.n > max_vertices:
        raise InstanceTooLarge(f"{search} needs n = {coloring.n} <= {max_vertices} vertices")


def enumerate_rainbow_spanning_trees(
    coloring: EdgeColoring, max_vertices: int = DEFAULT_ENUMERATION_CAP
) -> list[RainbowTree]:
    """Every spanning tree whose edge colors are pairwise distinct.

    Trees come back in a deterministic canonical order, rooted at vertex 0
    (the root is arbitrary for enumeration purposes).
    """
    _check_cap(coloring, max_vertices, "enumeration")
    # the triples are already ordered u < v and sorted, as from_edges makes them
    return [RainbowTree(0, edges) for edges in _rainbow_tree_edge_sets(coloring)]


def _pack(cand: int, free: int, depth: int, best: int, index) -> int:
    """The larger of ``best`` and the largest packing that adds trees of
    ``cand`` (bit t: tree t) to the ``depth`` trees packed so far, using
    only edges of ``free`` (bit e: edge e)."""
    trees_with, tree_edges, class_masks, cap = index
    if depth > best:
        best = depth
    if best >= cap:
        return best
    # an edge no candidate holds can take no further tree; when no free edge
    # is held, branch stays -1 and the bound below returns
    branch, fewest, rest = -1, 0, free
    while rest:
        low = rest & -rest
        rest ^= low
        e = low.bit_length() - 1
        held = (cand & trees_with[e]).bit_count()
        if not held:
            free ^= low
        elif branch < 0 or held < fewest:
            branch, fewest = e, held
    if depth + min((free & mask).bit_count() for mask in class_masks) <= best:
        return best
    hold = cand & trees_with[branch]
    while hold:
        low = hold & -hold
        hold ^= low
        conflict = used = 0
        for e in tree_edges[low.bit_length() - 1]:
            conflict |= trees_with[e]
            used |= 1 << e
        best = _pack(cand & ~conflict, free & ~used, depth + 1, best, index)
        if best >= cap:
            return best
    return _pack(cand & ~trees_with[branch], free & ~(1 << branch), depth, best, index)


def _packing_index(coloring: EdgeColoring, trees):
    """What :func:`_pack` reads: the bitset of the trees holding each edge,
    each tree's edge ids (tree t is the t-th of ``trees``, the edge triples
    of each tree; edge e is the e-th of ``coloring.edges()``), the bitset of
    the edges of each color and the packing's ceiling m."""
    edge_id = {}
    class_masks = [0] * coloring.n_colors
    for u, v, c in coloring.edges():
        class_masks[c] |= 1 << len(edge_id)
        edge_id[(u, v)] = len(edge_id)
    trees_with = [0] * len(edge_id)
    tree_edges = []
    for t, edges in enumerate(trees):
        ids = [edge_id[(u, v)] for u, v, _ in edges]
        for e in ids:
            trees_with[e] |= 1 << t
        tree_edges.append(ids)
    return trees_with, tree_edges, class_masks, coloring.m


def max_disjoint_rainbow_trees(
    coloring: EdgeColoring, max_vertices: int = DEFAULT_PACKING_CAP
) -> int:
    """Largest pairwise edge-disjoint subfamily of the full enumeration,
    found by an exact branch-and-bound over tree bitsets.

    A search node holds the trees packed so far, the candidate trees (those
    disjoint from every packed tree and avoiding every excluded edge) and
    the free edges (in no packed tree and not excluded). It branches on the
    free edge e that the fewest candidates hold: first once for each
    candidate t holding e, packing t, then once more with e excluded. In a
    packing that extends the node, at most one tree holds e, because its
    trees are disjoint; so each such packing extends exactly one child, and
    the search misses none. A free edge no candidate holds is dropped, which
    loses no packing either. Each tree takes one edge of every color, so k
    more disjoint trees need k free edges of each color c: a node whose
    depth plus the fewest free edges of any color is at most the best
    packing found cannot beat it, and is pruned. m(2m-1) edges host at most
    m trees of 2m-1 edges, so the search stops once it packs m.
    """
    return count_and_pack(coloring, max_vertices)[1]


def count_and_pack(
    coloring: EdgeColoring, max_vertices: int = DEFAULT_PACKING_CAP
) -> tuple[int, int]:
    """The number of rainbow spanning trees and the size of their largest
    disjoint packing (see :func:`max_disjoint_rainbow_trees`), from one
    enumeration. The packing runs on the whole enumeration, so its cap is
    the one checked, before any search runs."""
    _check_cap(coloring, max_vertices, "packing")
    trees = _rainbow_tree_edge_sets(coloring)
    index = _packing_index(coloring, trees)
    trees_with, tree_edges, _, _ = index
    return len(trees), _pack((1 << len(tree_edges)) - 1, (1 << len(trees_with)) - 1, 0, 0, index)
