import gc
from itertools import combinations
from operator import lt

import pytest

from rainbowtrees import (
    InstanceTooLarge,
    RainbowTree,
    build_forest,
    enumerate_rainbow_spanning_trees,
    max_disjoint_rainbow_trees,
    permute_coloring,
    permuted_round_robin,
    round_robin,
    verify_rainbow_spanning_tree,
)
from rainbowtrees.oracle import DEFAULT_ENUMERATION_CAP


def brute_rainbow_trees(coloring):
    """Ground truth by raw subset enumeration: every (n-1)-edge subset that is
    connected, spanning, and color-distinct."""
    n = coloring.n
    edges = list(coloring.edges())
    found = []
    for subset in combinations(edges, n - 1):
        colors = {c for _, _, c in subset}
        if len(colors) != n - 1:
            continue
        adj = {v: [] for v in range(n)}
        for u, v, _ in subset:
            adj[u].append(v)
            adj[v].append(u)
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) == n:
            found.append(frozenset((u, v) for u, v, _ in subset))
    return found


def test_k4_has_exactly_the_four_stars():
    c = round_robin(2)
    trees = enumerate_rainbow_spanning_trees(c)
    assert len(trees) == 4
    for t in trees:
        degrees = sorted(sum(v in p for p in t.pairs()) for v in range(4))
        assert degrees == [1, 1, 1, 3]
    # raw subset enumeration agrees
    assert {t.pairs() for t in trees} == set(brute_rainbow_trees(c))


def test_k2_has_one_tree():
    assert len(enumerate_rainbow_spanning_trees(round_robin(1))) == 1


def test_k6_count_golden_and_brute_agreement():
    c = round_robin(3)
    trees = enumerate_rainbow_spanning_trees(c)
    assert len(trees) == 66  # frozen from the raw subset enumeration below
    assert {t.pairs() for t in trees} == set(brute_rainbow_trees(c))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_enumerated_trees_pass_the_verifier(m):
    c = round_robin(m)
    for t in enumerate_rainbow_spanning_trees(c):
        assert verify_rainbow_spanning_tree(c, t).passed


def test_enumeration_at_its_cap():
    c = permuted_round_robin(5, 3)
    assert c.n == DEFAULT_ENUMERATION_CAP
    trees = enumerate_rainbow_spanning_trees(c)
    assert isinstance(trees, list) and len(trees) == 138_898
    edge_lists = [t.edges for t in trees]
    assert all(map(lt, edge_lists, edge_lists[1:]))  # sorted, each tree once
    assert all(t == RainbowTree.from_edges(0, t.edges) for t in trees)
    assert all(verify_rainbow_spanning_tree(c, t).passed for t in trees[::1009])


def test_enumeration_is_deterministic():
    c = round_robin(3)
    a = enumerate_rainbow_spanning_trees(c)
    b = enumerate_rainbow_spanning_trees(c)
    assert [t.edges for t in a] == [t.edges for t in b]


def test_k4_packing_is_one():
    # any two of the four stars share an edge
    assert max_disjoint_rainbow_trees(round_robin(2)) == 1


def test_k2_packing_is_one():
    assert max_disjoint_rainbow_trees(round_robin(1)) == 1


def test_k6_packing_golden():
    c = round_robin(3)
    packing = max_disjoint_rainbow_trees(c)
    assert packing == 3  # frozen; in particular >= 2
    forest, _ = build_forest(c)
    assert packing >= len(forest.trees)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_build_count_never_exceeds_packing(m):
    c = round_robin(m)
    forest, _ = build_forest(c)
    assert len(forest.trees) <= max_disjoint_rainbow_trees(c)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_count_invariant_under_color_permutations(seed):
    import random

    c = round_robin(3)
    rng = random.Random(seed)
    cp = list(range(5))
    rng.shuffle(cp)
    recolored = permute_coloring(c, range(6), cp)
    assert len(enumerate_rainbow_spanning_trees(recolored)) == 66


@pytest.mark.parametrize("seed", [4, 5])
def test_count_equivariant_under_vertex_permutations(seed):
    import random

    c = round_robin(3)
    rng = random.Random(seed)
    vp = list(range(6))
    rng.shuffle(vp)
    relabeled = permute_coloring(c, vp, range(5))
    originals = {frozenset(frozenset((vp[u], vp[v])) for u, v in t.pairs())
                 for t in enumerate_rainbow_spanning_trees(c)}
    mapped = {frozenset(frozenset(p) for p in t.pairs())
              for t in enumerate_rainbow_spanning_trees(relabeled)}
    assert originals == mapped


def test_permuted_instances_also_pack_at_least_two():
    for seed in (11, 12):
        c = permuted_round_robin(3, seed)
        assert max_disjoint_rainbow_trees(c) >= 2


def test_caps_are_enforced():
    with pytest.raises(InstanceTooLarge):
        enumerate_rainbow_spanning_trees(round_robin(6))  # n = 12 > 10
    with pytest.raises(InstanceTooLarge):
        max_disjoint_rainbow_trees(round_robin(5))  # n = 10 > 8
    # raising the cap is allowed, it is configuration
    assert len(enumerate_rainbow_spanning_trees(round_robin(2), max_vertices=4)) == 4
    with pytest.raises(InstanceTooLarge):
        enumerate_rainbow_spanning_trees(round_robin(2), max_vertices=2)


def test_searches_leave_no_cyclic_garbage():
    # a search that calls itself through a closure leaves the closure, its
    # cells and what they hold as cyclic garbage after every call
    c = permuted_round_robin(4, 16)
    gc.collect()
    gc.disable()
    try:
        max_disjoint_rainbow_trees(c)
        assert gc.collect() == 0
        enumerate_rainbow_spanning_trees(c)
        assert gc.collect() == 0
    finally:
        gc.enable()
