"""The oracle's color-class enumeration and bitset packing against the
backtracking searches they replaced (``reference_oracle.py``).

On permuted round-robins, and on colorings reached by alternating-cycle
(Kempe) switches from ``round_robin`` and from the K_8 coloring by vertex
XOR, the two enumerations must give the same trees in the same order and
the two packings the same value. Every enumerated tree must already be in
the canonical form ``from_edges`` gives. Every whole coloring here packs m
trees, so the packing search also runs on subfamilies of the trees, where
it must find what plain backtracking finds.
"""

import pytest
from conftest import assert_partner_rows_invert
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_oracle import enumerate_rainbow_spanning_trees as reference_enumeration
from reference_oracle import max_disjoint_rainbow_trees as reference_packing

from rainbowtrees import (
    RainbowTree,
    enumerate_rainbow_spanning_trees,
    max_disjoint_rainbow_trees,
    permuted_round_robin,
    round_robin,
    validate_proper,
)
from rainbowtrees.oracle import _pack, _packing_index, _tree_masks, count_and_pack


def kempe_switch(coloring, a, b, v):
    """Swap colors a and b along the a/b-alternating cycle through v.

    In a proper coloring that cycle has at most n edges; the walk stops
    there, so an improper coloring fails the test instead of hanging it.
    """
    table = {(u, w): c for u, w, c in coloring.edges()}
    x, c = v, a
    for _ in range(coloring.n):
        y = coloring.partner(c, x)
        other = b if c == a else a
        table[(min(x, y), max(x, y))] = other
        x, c = y, other
        if x == v and c == a:
            return validate_proper(table, coloring.m)
    raise AssertionError(f"the {a}/{b}-alternating walk from {v} is no cycle of at most n edges")


def assert_oracles_agree(coloring):
    trees = enumerate_rainbow_spanning_trees(coloring)
    assert trees == reference_enumeration(coloring)
    assert all(t == RainbowTree.from_edges(0, t.edges) for t in trees)
    assert max_disjoint_rainbow_trees(coloring) == reference_packing(coloring)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_oracles_agree_on_permuted_round_robins(m, seed):
    assert_oracles_agree(permuted_round_robin(m, seed))


# every two color classes of round_robin(3) and round_robin(4) form a
# Hamiltonian cycle, so a switch there only swaps two colors; the classes of
# the K_8 coloring by vertex XOR form 4-cycles, and switches on those reach
# other isomorphism classes
STARTS = {
    "rr3": lambda: round_robin(3),
    "rr4": lambda: round_robin(4),
    "xor8": lambda: validate_proper(
        {(u, v): (u ^ v) - 1 for u in range(8) for v in range(u + 1, 8)}, 4
    ),
}
# from xor8 to a coloring with 2312 rainbow spanning trees
THIRD_CLASS = [(0, 6, 4), (2, 5, 2), (3, 4, 4)]
# one coloring of each K_8 class the switches reach: 2318, 2304 and 2312 trees
K8_CLASSES = [("rr4", [(0, 1, 0)]), ("xor8", []), ("xor8", THIRD_CLASS)]
K8_IDS = ["rr4-switched", "xor8", "third-class"]


def switched(start, switches):
    coloring = STARTS[start]()
    for a, b, v in switches:
        a, b = a % coloring.n_colors, b % coloring.n_colors
        if a != b:
            coloring = kempe_switch(coloring, a, b, v % coloring.n)
    return coloring


@settings(max_examples=60, deadline=None)
@given(
    start=st.sampled_from(sorted(STARTS)),
    switches=st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 7)), max_size=6
    ),
)
@example(start="xor8", switches=THIRD_CLASS)
def test_oracles_agree_on_kempe_switched_colorings(start, switches):
    assert_oracles_agree(switched(start, switches))


def test_kempe_switches_reach_three_isomorphism_classes_of_k8():
    counts = [
        len(enumerate_rainbow_spanning_trees(switched(start, switches)))
        for start, switches in K8_CLASSES
    ]
    assert counts == [2318, 2304, 2312]


@pytest.mark.parametrize(
    "make",
    [lambda: round_robin(1), lambda: round_robin(2), lambda: round_robin(3)]
    + [lambda start=start, switches=switches: switched(start, switches) for start, switches in K8_CLASSES],
    ids=["rr1", "rr2", "rr3"] + K8_IDS,
)
def test_one_search_counts_and_packs_as_the_references_do(make):
    # the search closes the last two colors inline; round_robin(1) has one
    # color, so there is no last two to close
    coloring = make()
    count, packing = count_and_pack(coloring)
    assert count == len(enumerate_rainbow_spanning_trees(coloring))
    assert packing == reference_packing(coloring)


@pytest.mark.parametrize("start, switches", K8_CLASSES, ids=K8_IDS)
def test_partner_rows_invert_kempe_switched_colorings(start, switches):
    # validate_proper makes these, from a mapping rather than a generator
    assert_partner_rows_invert(lambda: switched(start, switches))


def brute_packing(tree_edges):
    """The most pairwise disjoint edge sets among ``tree_edges``."""
    best = 0

    def grow(start, used, depth):
        nonlocal best
        best = max(best, depth)
        for t in range(start, len(tree_edges)):
            if not used & tree_edges[t]:
                grow(t + 1, used | tree_edges[t], depth + 1)

    grow(0, frozenset(), 0)
    return best


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    picks=st.sets(st.integers(0, 10**6), max_size=40),
)
def test_packing_is_exact_on_every_subfamily(m, seed, picks):
    # every whole coloring here packs m trees; a subfamily of its trees can
    # pack fewer, which needs the branch that leaves an edge uncovered
    coloring = permuted_round_robin(m, seed)
    edges, class_masks, masks = _tree_masks(coloring)
    masks.sort(reverse=True)  # mask t is then the t-th enumerated tree
    trees = enumerate_rainbow_spanning_trees(coloring)
    index = _packing_index(masks, len(edges), class_masks, coloring.m)
    chosen = sorted({p % len(trees) for p in picks})
    cand = sum(1 << t for t in chosen)
    want = brute_packing([frozenset(trees[t].edges) for t in chosen])
    assert _pack(cand, (1 << len(edges)) - 1, 0, 0, index) == want
