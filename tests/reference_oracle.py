"""The oracle's searches as they were before they became searches over
color classes and tree bitsets, kept unchanged as a reference for
differential tests.

The enumeration backtracks over the sorted edge list, pruning branches that
close a cycle or repeat a color; the packing backtracks over the enumerated
trees in order with edge-conflict pruning. ``tests/test_oracle_differential.py``
checks the oracle against both.
"""

from __future__ import annotations

from rainbowtrees.coloring import EdgeColoring
from rainbowtrees.errors import InstanceTooLarge
from rainbowtrees.forest import RainbowTree

DEFAULT_ENUMERATION_CAP = 10  # vertices
DEFAULT_PACKING_CAP = 8


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _rainbow_tree_edge_sets(coloring: EdgeColoring) -> list[tuple[tuple[int, int, int], ...]]:
    """All rainbow spanning trees as edge-triple tuples, in the lexicographic
    order induced by the sorted edge list."""
    n = coloring.n
    edges = [(u, v, c) for u, v, c in coloring.edges()]
    need = n - 1
    out: list[tuple[tuple[int, int, int], ...]] = []
    chosen: list[tuple[int, int, int]] = []

    def grow(start: int, parent: list[int], used_colors: int) -> None:
        if len(chosen) == need:
            out.append(tuple(chosen))
            return
        # leave enough edges to finish
        for idx in range(start, len(edges) - (need - len(chosen)) + 1):
            u, v, c = edges[idx]
            if used_colors >> c & 1:
                continue
            ru, rv = _find(parent, u), _find(parent, v)
            if ru == rv:
                continue
            branch = parent.copy()
            branch[ru] = rv
            chosen.append(edges[idx])
            grow(idx + 1, branch, used_colors | (1 << c))
            chosen.pop()

    grow(0, list(range(n)), 0)
    return out


def enumerate_rainbow_spanning_trees(
    coloring: EdgeColoring, max_vertices: int = DEFAULT_ENUMERATION_CAP
) -> list[RainbowTree]:
    """Every spanning tree whose edge colors are pairwise distinct.

    Trees come back in a deterministic canonical order, rooted at vertex 0
    (the root is arbitrary for enumeration purposes).
    """
    if coloring.n > max_vertices:
        raise InstanceTooLarge(
            f"enumeration needs n = {coloring.n} <= {max_vertices} vertices"
        )
    return [
        RainbowTree.from_edges(0, edges)
        for edges in _rainbow_tree_edge_sets(coloring)
    ]


def max_disjoint_rainbow_trees(
    coloring: EdgeColoring, max_vertices: int = DEFAULT_PACKING_CAP
) -> int:
    """Largest pairwise edge-disjoint subfamily of the full enumeration,
    found by backtracking with edge-conflict pruning."""
    n = coloring.n
    if n > max_vertices:
        raise InstanceTooLarge(f"packing needs n = {n} <= {max_vertices} vertices")
    edge_id = {}
    for u, v, _ in coloring.edges():
        edge_id[(u, v)] = len(edge_id)
    masks = []
    for edges in _rainbow_tree_edge_sets(coloring):
        mask = 0
        for u, v, _ in edges:
            mask |= 1 << edge_id[(u, v)]
        masks.append(mask)
    cap = coloring.m  # m(2m-1) edges can host at most m trees of 2m-1 edges
    best = 0

    def search(start: int, used: int, depth: int) -> None:
        nonlocal best
        if depth > best:
            best = depth
        if best >= cap:
            return
        if depth + (len(masks) - start) <= best:
            return
        for idx in range(start, len(masks)):
            if masks[idx] & used:
                continue
            search(idx + 1, used | masks[idx], depth + 1)
            if best >= cap:
                return

    search(0, 0, 0)
    return best
