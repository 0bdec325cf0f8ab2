"""The per-cell vertex and color renaming that permuted_round_robin and
permute_coloring ran before they renamed vertices by slice copies, kept as a
reference for differential tests.

``_relabel`` builds each renamed row right of the diagonal with two lookups
per cell: one through the inverse vertex permutation into the old row, one
through the color permutation. It reads only the cells right of the
diagonal, so a validated (symmetric) table stands in for the raw
round-robin table it was given. ``tests/test_permute_differential.py``
checks both library functions against it.
"""

from __future__ import annotations

import random
from array import array

from rainbowtrees.coloring import EdgeColoring, _checked, round_robin


def _relabel(color: array, vp: list[int], cp: list[int]) -> array:
    """The flat color table with vertex x renamed vp[x] and color c renamed
    cp[c], both read and written right of the diagonal only."""
    n = len(vp)
    inv = sorted(range(n), key=vp.__getitem__)  # inv[vp[x]] = x
    relabelled = array(color.typecode, [-1]) * (n * n)
    for a, u in enumerate(inv):
        row = color[u:u * n:n] + color[u * n + u:(u + 1) * n]  # u's column, then its row
        relabelled[a * n + a + 1:(a + 1) * n] = array(
            color.typecode, map(cp.__getitem__, map(row.__getitem__, inv[a + 1:]))
        )
    return relabelled


def permute_coloring(coloring: EdgeColoring, vertex_perm, color_perm) -> EdgeColoring:
    """The coloring with vertex x renamed vertex_perm[x] and color c renamed
    color_perm[c], both taken as permutations."""
    return _checked(coloring.m, _relabel(coloring._color, list(vertex_perm), list(color_perm)))


def permuted_round_robin(m: int, seed: int) -> EdgeColoring:
    """round_robin(m) under the vertex and then the color shuffle of
    random.Random(seed)."""
    rng = random.Random(seed)
    vp = list(range(2 * m))
    rng.shuffle(vp)
    cp = list(range(2 * m - 1))
    rng.shuffle(cp)
    return _checked(m, _relabel(round_robin(m)._color, vp, cp))
