import dataclasses
import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rainbowtrees.constructor as ctor
from rainbowtrees import (
    MAX_INDEX,
    MIN_INDEX,
    Forest,
    NotPendant,
    RainbowTree,
    WorkingTree,
    apply_swap,
    base_star,
    forest_to_dot,
    forest_to_json,
    omega,
    parse_forest,
    permuted_round_robin,
    random_policy,
    round_robin,
    tree_edge_of_color,
    verify_rainbow_spanning_tree,
)
from rainbowtrees.forest import spans


def star_m2():
    return base_star(round_robin(2), 3)


def test_base_star_m2_edges():
    assert star_m2().value().edges == ((0, 3, 0), (1, 3, 1), (2, 3, 2))


@pytest.mark.parametrize("m", [1, 2, 5])
def test_base_star_shape(m):
    c = round_robin(m)
    for r in (0, 2 * m - 1):
        t = base_star(c, r)
        assert len(t.value().edges) == 2 * m - 1
        assert t.root_leaves == frozenset(x for x in range(2 * m) if x != r)
        # all 2m-1 colors appear once, so the color index is a bijection
        assert sorted(c for _, _, c in t.value().edges) == list(range(2 * m - 1))
        assert sorted(t.child_of_color) == [x for x in range(2 * m) if x != r]


def test_apply_swap_m2_example():
    # detach 0 and 1 from the star at 3, which reattaches both at 2:
    # the result is the star at 2, still rooted (as data) at 3
    out = apply_swap(star_m2(), 0, 1)
    assert (out.parent[0], out.parent[1]) == (2, 2)
    assert out.value().edges == ((0, 2, 1), (1, 2, 0), (2, 3, 2))
    assert out.root == 3
    assert verify_rainbow_spanning_tree(round_robin(2), out.value()).passed
    # root degree drops by exactly 2
    assert out.root_degree == star_m2().root_degree - 2
    # by the defining formula no root-adjacent leaf remains: vertex 2 now has degree 3
    assert out.root_leaves == frozenset()


def test_apply_swap_rejects_non_pendant():
    out = apply_swap(star_m2(), 0, 1)
    with pytest.raises(NotPendant):
        apply_swap(out, 0, 1)  # 0 is no longer a root-adjacent leaf
    with pytest.raises(NotPendant):
        apply_swap(star_m2(), 0, 0)  # leaves must be distinct


def test_tree_edge_of_color():
    t = star_m2()
    assert tree_edge_of_color(t, 1) == (1, 3, 1)
    for c in range(3):
        assert tree_edge_of_color(t, c)[2] == c
    swapped = apply_swap(t, 0, 1)
    assert tree_edge_of_color(swapped, 0) == (1, 2, 0)


def random_swap(tree, rng):
    """One exchange of two root-adjacent leaves drawn at random."""
    return apply_swap(tree, *rng.sample(sorted(tree.root_leaves), 2))


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=3, max_value=6),
    root=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_partner_matched_swaps_preserve_everything(m, root, seed):
    c = round_robin(m)
    tree = base_star(c, root % (2 * m))
    rng = random.Random(seed)
    for _ in range(3):
        if len(tree.root_leaves) < 2:
            break
        before_deg = tree.root_degree
        before_colors = sorted(col for _, _, col in tree.value().edges)
        tree = random_swap(tree, rng)
        assert verify_rainbow_spanning_tree(c, tree.value()).passed
        assert tree.root_degree == before_deg - 2
        # the exchange replaces colors one for one
        assert sorted(col for _, _, col in tree.value().edges) == before_colors
        # incremental leaf bookkeeping equals recomputation from the edges
        recomputed, _ = _root_profile(tree.root, {(a, b) for a, b, _ in tree.value().edges})
        assert set(tree.root_leaves) == recomputed


def test_from_edges_tolerates_corrupt_input():
    # duplicate colors and a cycle: representable, judged only by the verifier
    t = RainbowTree.from_edges(0, [(0, 1, 2), (1, 2, 2), (0, 2, 0)])
    assert len(t.edges) == 3
    assert not verify_rainbow_spanning_tree(round_robin(2), t).passed


def test_forest_json_roundtrip():
    c = round_robin(2)
    forest = Forest(m=2, trees=(base_star(c, 0).value(),), coloring_digest=c.digest())
    data = forest_to_json(forest)
    back = parse_forest(data)
    assert back.m == forest.m
    assert back.coloring_digest == forest.coloring_digest
    assert back.trees[0].root == 0
    assert back.trees[0].edges == forest.trees[0].edges
    assert forest_to_json(back) == data


def test_forest_json_digest_optional():
    doc = json.loads(forest_to_json(Forest(m=1, trees=(base_star(round_robin(1), 0).value(),))))
    assert "coloring_digest" not in doc
    assert parse_forest(json.dumps(doc)).coloring_digest is None


def test_dot_export_mentions_every_edge():
    c = round_robin(2)
    forest = Forest(m=2, trees=(base_star(c, 3).value(),))
    dot = forest_to_dot(forest)
    assert "graph tree_0 {" in dot
    for u, v, col in forest.trees[0].edges:
        assert f'{u} -- {v} [label="{col}"];' in dot


def _connected(n, pairs):
    adj = {x: [] for x in range(n)}
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    seen, stack = {0}, [0]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == n


def _root_profile(root, pairs):
    """(root-adjacent leaves, root degree), recomputed from the edge pairs."""
    deg = Counter(x for p in pairs for x in p)
    leaves = {x for p in pairs if root in p for x in p if x != root and deg[x] == 1}
    return leaves, deg[root]


def _surgery(tree, r, y, v, w, v_prime):
    """The exchange from scratch, for any five vertices: the edges of
    tree - ry - rv + yw + vv' when r is the root, y and v are distinct
    root-adjacent leaves and the result is a rainbow spanning tree other
    than tree, else None."""
    n, col = tree.coloring.n, tree.coloring
    pairs = {(a, b) for a, b, _ in tree.value().edges}
    leaves, _ = _root_profile(tree.root, pairs)
    if r != tree.root or y == v or y not in leaves or v not in leaves:
        return None
    if w == y or v_prime == v:
        return None  # a self-loop
    new = (pairs - {(min(r, y), max(r, y)), (min(r, v), max(r, v))}) | {
        (min(y, w), max(y, w)),
        (min(v, v_prime), max(v, v_prime)),
    }
    if new == pairs or len(new) != n - 1 or not _connected(n, new):
        return None
    edges = tuple(sorted((a, b, col.color_of(a, b)) for a, b in new))
    if len({c for _, _, c in edges}) != n - 1:
        return None
    return edges


def _copy(tree):
    """A tree equal to ``tree`` that shares no container with it."""
    return dataclasses.replace(
        tree,
        parent=tree.parent.copy(),
        child_of_color=tree.child_of_color.copy(),
        root_leaves=set(tree.root_leaves),
    )


def _cases(m):
    """(tree, number of exchanges it allows): the star at 2m - 1 of a
    permuted K_{2m}, and that star after the exchange of its two lowest root
    leaves, when it has two. At m <= 3 the swapped tree keeps at most one
    root leaf, so it allows none."""
    star = base_star(permuted_round_robin(m, 7), 2 * m - 1)
    cases = [(star, {1: 0, 2: 6, 3: 20}[m])]
    if m > 1:
        cases.append((apply_swap(_copy(star), *sorted(star.root_leaves)[:2]), 0))
    return cases


@pytest.mark.parametrize("m", [1, 2, 3])
def test_surgery_yields_a_tree_exactly_at_the_partner_pair(m):
    # every (r, y, v, w, v'): the reference yields a tree exactly when r is
    # the root, y and v are distinct root-adjacent leaves and yw, vv' carry
    # the colors of rv, ry, so apply_swap(tree, y, v), which derives w and v'
    # from those colors, makes every exchange that the five vertices allow
    n = 2 * m
    for tree, want_valid in _cases(m):
        col, root = tree.coloring, tree.root
        leaves, _ = _root_profile(root, {(a, b) for a, b, _ in tree.value().edges})
        valid = 0
        for r, y, v, w, v_prime in itertools.product(range(n), repeat=5):
            partners = (
                r == root
                and y != v
                and {y, v} <= leaves
                and y != w != r
                and v != v_prime != r
                and col.color_of(y, w) == col.color_of(r, v)
                and col.color_of(v, v_prime) == col.color_of(r, y)
            )
            assert (_surgery(tree, r, y, v, w, v_prime) is not None) == partners
            valid += partners
        assert valid == want_valid


@pytest.mark.parametrize("m", [1, 2, 3])
def test_apply_swap_is_exact_on_every_argument_tuple(m):
    # every (y, v) on a star and on a swapped tree; a swap patches its tree
    # in place, so each valid pair gets a fresh copy, and the pairs that raise
    # must leave the tree as it was
    n = 2 * m
    for tree, want_valid in _cases(m):
        r = tree.root
        snapshot = (tree.value().edges, set(tree.root_leaves), tree.root_degree)
        leaves, _ = _root_profile(r, {(a, b) for a, b, _ in tree.value().edges})
        valid = 0
        for y, v in itertools.product(range(n), repeat=2):
            if y == v or not {y, v} <= leaves:
                with pytest.raises(NotPendant):
                    apply_swap(tree, y, v)
                continue
            valid += 1
            # the one (w, v') at which the reference yields a tree
            ((w, v_prime, want),) = [
                (w, v_prime, edges)
                for w, v_prime in itertools.product(range(n), repeat=2)
                if (edges := _surgery(tree, r, y, v, w, v_prime)) is not None
            ]
            fresh = _copy(tree)
            out = apply_swap(fresh, y, v)
            assert out is fresh
            assert (out.root, out.value().edges) == (r, want)
            assert (out.parent[y], out.parent[v]) == (w, v_prime)
            out_leaves, root_degree = _root_profile(r, {(a, b) for a, b, _ in want})
            assert set(out.root_leaves) == out_leaves
            assert out.root_degree == root_degree
        assert (tree.value().edges, set(tree.root_leaves), tree.root_degree) == snapshot
        assert valid == want_valid


def spans_by_search(parent, root):
    """The O(n) spanning check that the chain walk replaced, kept as its
    reference: a breadth-first search down the children lists from the root."""
    children = [[] for _ in parent]
    for x, p in enumerate(parent):
        if p >= 0 and x != root:
            children[p].append(x)
    reached = [root]
    for x in reached:
        reached.extend(children[x])
    return len(reached) == len(parent)


def test_spans_agrees_with_the_search_on_rehung_stars():
    # stars with k re-hung vertices, whose new parents are drawn mostly among
    # the re-hung ones, so that chains run through several and cycles, self
    # loops included, are common
    rng = random.Random(5)
    verdicts = Counter()
    for _ in range(3000):
        n = rng.randrange(2, 30)
        root = rng.randrange(n)
        others = [x for x in range(n) if x != root]
        rehung = rng.sample(others, rng.randrange(1, len(others) + 1))
        parent = [root] * n
        parent[root] = -1
        for x in rehung:
            parent[x] = rng.choice(rehung) if rng.random() < 0.7 else rng.randrange(n)
        verdict = spans(parent, root, rehung)
        assert verdict == spans_by_search(parent, root)
        verdicts[verdict] += 1
    assert min(verdicts.values()) > 300


def value_by_sorting(tree):
    """WorkingTree.value as it was: every edge from the color index, sorted."""
    child = tree.child_of_color
    edges = zip(child, map(tree.parent.__getitem__, child), itertools.count())
    return RainbowTree.from_edges(tree.root, edges)


@pytest.mark.parametrize(
    "policy",
    [MIN_INDEX, MAX_INDEX, random_policy(1), random_policy(2)],
    ids=["min", "max", "random1", "random2"],
)
@pytest.mark.parametrize("m", [5, 12, 40, 100])
def test_value_merges_into_the_sorted_edges(m, policy):
    # after every round of a build, each working tree's value is its sorted edges
    state = ctor.start_construction(permuted_round_robin(m, m), policy)
    checked = 0
    while True:
        for tree in state.trees:
            assert tree.value() == value_by_sorting(tree)
            checked += 1
        if len(state.trees) == omega(m):
            break
        ctor.step(state)
    assert checked == omega(m) * (omega(m) + 1) // 2


def test_value_of_vertices_rehung_on_both_sides_of_the_root():
    # root 4 of K_8: 1 under 2 and 3 under 5 (below the root, under parents
    # below and above it), 6 under 0 and 7 under 5 (above it, under parents
    # below and above it); the seven edges have seven colors
    coloring = permuted_round_robin(4, 7)
    parent = [4, 2, 4, 5, -1, 4, 0, 5]
    child_of_color = [0] * 7
    for x, p in enumerate(parent):
        if p >= 0:
            child_of_color[coloring.color_of(x, p)] = x
    assert sorted(child_of_color) == [0, 1, 2, 3, 5, 6, 7]
    tree = WorkingTree(coloring, 4, parent, 3, child_of_color, set())
    value = tree.value()
    pairs = [(u, v) for u, v, _ in value.edges]
    assert pairs == [(0, 4), (0, 6), (1, 2), (2, 4), (3, 5), (4, 5), (5, 7)]
    assert value == value_by_sorting(tree)
    assert verify_rainbow_spanning_tree(coloring, value).passed
