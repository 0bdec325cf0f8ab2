"""Exhaustive ground truth on tiny instances.

A proper coloring of K_n has n-1 colors and a spanning tree has n-1 edges,
so a rainbow spanning tree takes exactly one edge of every color class. The
search backtracks over the colors in order, trying each edge of the class
that joins two components of the edges chosen so far (components are vertex
bitmasks), and closes the last two classes inline. It yields each tree as
one int edge bitmask: of the E edges of ``coloring.edges()``, edge e sits at
bit E-1-e, so the larger of two masks is the lexicographically smaller tree
and a descending int sort is the canonical order. The packing runs an exact
branch-and-bound over bitsets of trees and of edges, reading each tree's
edges from its mask. Both recurse through module-level functions with
explicit arguments, so a call leaves no reference cycle behind. Caps are
configuration, not promises of speed; exceeding one is an explicit error.
"""

from __future__ import annotations

from itertools import compress, cycle, repeat

from .coloring import EdgeColoring
from .errors import InstanceTooLarge
from .forest import RainbowTree

DEFAULT_ENUMERATION_CAP = 10  # vertices
DEFAULT_PACKING_CAP = 8

# binary digits as the byte values compress() selects by
_DIGIT_VALUES = bytes.maketrans(b"01", b"\0\1")
_DECODE_CHUNK = 4096  # trees


def _grow(classes, c: int, comp: list[int], tree: int, out: list[int]) -> None:
    """Append to ``out`` the mask of every extension of ``tree``, one edge of
    each color below c, by one edge of each color from c on; ``comp[x]`` is
    the bitmask of x's component in ``tree``. An edge of the second last
    color joins two of the three components left, and an edge of the last
    then closes the tree iff exactly one of its ends is in the joined one."""
    if c == len(classes) - 2:
        last = classes[c + 1]
        for u, v, bit in classes[c]:
            cu = comp[u]
            if not cu >> v & 1:
                joined = cu | comp[v]
                tree_bit = tree | bit
                for x, y, last_bit in last:
                    if (joined >> x ^ joined >> y) & 1:
                        out.append(tree_bit | last_bit)
        return
    for u, v, bit in classes[c]:
        cu = comp[u]
        if cu >> v & 1:
            continue
        merged = cu | comp[v]
        _grow(classes, c + 1, [merged if k & merged else k for k in comp], tree | bit, out)


def _tree_masks(coloring: EdgeColoring) -> tuple[list[tuple[int, int, int]], list[int], list[int]]:
    """The edges of ``coloring.edges()``, the mask of each color's edges and
    the mask of every rainbow spanning tree, in search order."""
    edges = list(coloring.edges())
    classes: list[list[tuple[int, int, int]]] = [[] for _ in range(coloring.n_colors)]
    for e, (u, v, c) in enumerate(edges):
        classes[c].append((u, v, 1 << len(edges) - 1 - e))
    class_masks = [sum(bit for _, _, bit in edges_of_c) for edges_of_c in classes]
    masks: list[int] = []
    if len(classes) == 1:
        masks.append(class_masks[0])  # n = 2: the one edge is the one tree
    else:
        _grow(classes, 0, [1 << x for x in range(coloring.n)], 0, masks)
    return edges, class_masks, masks


def _bit_rows(masks, width: int) -> str:
    """The masks as rows of ``width`` binary digits, most significant first,
    in one string: digit k of a row is edge k of its tree."""
    return "".join(map(format, masks, repeat(f"0{width}b")))


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
    edges, _, masks = _tree_masks(coloring)
    masks.sort(reverse=True)
    trees: list[RainbowTree] = []
    # the edges under the 1 digits, row by row, are each tree's n-1 triples,
    # ordered u < v and sorted, as from_edges makes them; the rows are made
    # a chunk of trees at a time, so they stay small next to the trees
    for start in range(0, len(masks), _DECODE_CHUNK):
        rows = _bit_rows(masks[start:start + _DECODE_CHUNK], len(edges))
        picked = compress(cycle(edges), rows.encode().translate(_DIGIT_VALUES))
        trees += map(RainbowTree, repeat(0), zip(*[picked] * (coloring.n - 1)))
    return trees


def _pack(cand: int, free: int, depth: int, best: int, index) -> int:
    """The larger of ``best`` and the largest packing that adds trees of
    ``cand`` (bit t: tree t) to the ``depth`` trees packed so far, using
    only edges of ``free`` (bit b: edge E-1-b). ``index`` holds the bitset
    of the trees holding each edge bit, each tree's edge mask, each color's
    edge mask and the ceiling m; a tree conflicts with the holders of its
    bits."""
    trees_with, tree_masks, class_masks, cap = index
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
        b = low.bit_length() - 1
        held = (cand & trees_with[b]).bit_count()
        if not held:
            free ^= low
        elif branch < 0 or held < fewest:
            branch, fewest = b, held
    if depth + min((free & mask).bit_count() for mask in class_masks) <= best:
        return best
    hold = cand & trees_with[branch]
    while hold:
        low = hold & -hold
        hold ^= low
        used = rest = tree_masks[low.bit_length() - 1]
        conflict = 0
        while rest:
            bit = rest & -rest
            rest ^= bit
            conflict |= trees_with[bit.bit_length() - 1]
        best = _pack(cand & ~conflict, free & ~used, depth + 1, best, index)
        if best >= cap:
            return best
    return _pack(cand & ~trees_with[branch], free & ~(1 << branch), depth, best, index)


def _packing_index(masks: list[int], width: int, class_masks: list[int], cap: int):
    """What :func:`_pack` reads for the trees ``masks`` over ``width`` edges.
    The holders of edge bit b are digit width-1-b of the masks' rows: that
    column, rows in reverse order, is a binary number with bit t for tree
    ``masks[t]``."""
    rows = _bit_rows(reversed(masks), width)
    trees_with = [int(rows[width - 1 - b::width], 2) for b in range(width)]
    return trees_with, masks, class_masks, cap


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
    edges, class_masks, masks = _tree_masks(coloring)
    index = _packing_index(masks, len(edges), class_masks, coloring.m)
    return len(masks), _pack((1 << len(masks)) - 1, (1 << len(edges)) - 1, 0, 0, index)
