"""Shared helpers for the test suite."""

import rainbowtrees.constructor as ctor
from rainbowtrees import Forest, RainbowTree, build_forest


def assert_partner_rows_invert(make):
    """Check on colorings from ``make`` that partner(c, v) inverts v's color
    row for every (c, v) and that partner_row(v) lists those partners.

    A partner row is built on first use, by either method, so each order
    runs on a fresh coloring: every partner asked for first, then every row,
    and the other way round. A build reads the rows and must leave them as
    they were.
    """
    for partner_first in (True, False):
        coloring = make()
        n, colors = coloring.n, range(coloring.n_colors)

        def partners():
            return [[coloring.partner(c, v) for c in colors] for v in range(n)]

        def rows():
            return [coloring.partner_row(v) for v in range(n)]

        if partner_first:
            got, want = partners(), rows()
        else:
            want, got = rows(), partners()
        assert got == want
        assert {type(row) for row in want} == {list}
        assert {type(w) for row in want for w in row} == {int}
        for v, row in enumerate(want):
            assert [coloring.color_of(v, w) for w in row] == list(colors)
        build_forest(coloring, policy=ctor.MIN_INDEX)
        assert rows() == want


def mutate_forest(forest, coloring, rng):
    """One random single-field corruption of a forest.

    Kinds: replace an edge pair (either recomputing the stored color so it
    stays consistent with the coloring, or keeping the old stored color),
    change one stored color, or change one root. Always produces an object
    different from the input.
    """
    trees = list(forest.trees)
    t_idx = rng.randrange(len(trees))
    tree = trees[t_idx]
    kind = rng.choice(("edge_consistent", "edge_keep_color", "color", "root"))
    n = 2 * forest.m
    edges = list(tree.edges)
    if kind == "root":
        new_root = rng.choice([x for x in range(n) if x != tree.root])
        trees[t_idx] = RainbowTree.from_edges(new_root, edges)
    elif kind == "color":
        e_idx = rng.randrange(len(edges))
        u, v, c = edges[e_idx]
        edges[e_idx] = (u, v, rng.choice([x for x in range(n - 1) if x != c]))
        trees[t_idx] = RainbowTree.from_edges(tree.root, edges)
    else:
        e_idx = rng.randrange(len(edges))
        u, v, c = edges[e_idx]
        present = {(min(a, b), max(a, b)) for a, b, _ in edges}
        choices = [
            (a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in present
        ]
        a, b = rng.choice(choices)
        stored = coloring.color_of(a, b) if kind == "edge_consistent" else c
        edges[e_idx] = (a, b, stored)
        trees[t_idx] = RainbowTree.from_edges(tree.root, edges)
    mutant = Forest(m=forest.m, trees=tuple(trees), coloring_digest=forest.coloring_digest)
    return mutant, kind


def common_root_leaves(n, trees):
    """The vertices that are root-adjacent leaves in every tree, counted
    from plain edge lists; ``trees`` holds (root, [(u, v, c), ...]) pairs."""
    pools = []
    for root, edges in trees:
        degree = [0] * n
        for u, v, _ in edges:
            degree[u] += 1
            degree[v] += 1
        neighbors = {v if u == root else u for u, v, _ in edges if root in (u, v)}
        pools.append({x for x in neighbors if degree[x] == 1})
    return set.intersection(*pools)


def entry_pools(coloring, policy=ctor.MIN_INDEX):
    """The common leaf pool each round of a run enters with, counted from
    the edge lists of the trees the previous round left."""
    state = ctor.start_construction(coloring, policy)
    pools = []
    while len(state.trees) < ctor.omega(coloring.m):
        trees = [(t.root, t.value().edges) for t in state.trees]
        pools.append(common_root_leaves(coloring.n, trees))
        ctor.step(state)
    return pools


def corrupt_assembly_step(monkeypatch, k, i, pick_w_i):
    """Make the assembly step (k, i) re-hang a vertex of our choosing.

    ``pick_w_i(round)`` names the vertex recorded as w_i just before the
    assembly trades its star edge, so the star-assembly checks see a w_i the
    leaf exchange did not produce.
    """
    original = ctor.extend_kth_partial

    def corrupted(state, step_i):
        if state.k == k and step_i == i:
            state.round.steps[i - 1].w_i = pick_w_i(state.round)
        return original(state, step_i)

    monkeypatch.setattr(ctor, "extend_kth_partial", corrupted)


def starve_leaf_pool(monkeypatch, k, keep):
    """Shrink the common leaf pool to its ``keep`` smallest vertices just
    before round k opens."""
    original = ctor.begin_round

    def starved(state):
        if state.k == k:
            state.common_leaves = set(sorted(state.common_leaves)[:keep])
        return original(state)

    monkeypatch.setattr(ctor, "begin_round", starved)


def duplicate_root(monkeypatch, k):
    """Record the first tree's root as the root of tree k once it is built."""
    original = ctor.finalize_kth

    def duplicated(state):
        tree = original(state)
        if state.k == k:
            tree.root = state.trees[0].root
        return tree

    monkeypatch.setattr(ctor, "finalize_kth", duplicated)


def misreport_root_leaves(monkeypatch, k):
    """Once tree 1 is rewired in round k, count its root among its own
    root-adjacent leaves."""
    original = ctor.revise_tree

    def misreported(state, i, v_i):
        tree = original(state, i, v_i)
        if state.k == k and i == 1:
            tree.root_leaves = tree.root_leaves | {tree.root}
        return tree

    monkeypatch.setattr(ctor, "revise_tree", misreported)


def drop_untouched_root_leaf(monkeypatch, k):
    """Once tree k is built, drop from tree 1's root-adjacent leaves the
    smallest one that tree 1's exchange did not touch and that is no
    root-adjacent leaf of tree k, so the round close's leaf checks, which
    look at touched vertices and at the common leaves, cannot see it."""
    original = ctor.finalize_kth

    def dropped(state):
        tree = original(state)
        if state.k == k:
            rnd, first, st = state.round, state.trees[0], state.round.steps[0]
            touched = {first.root, rnd.r_k, st.chosen, st.w_i, st.v_prime}
            first.root_leaves.discard(min(first.root_leaves - touched - tree.root_leaves))
        return tree

    monkeypatch.setattr(ctor, "finalize_kth", dropped)


def forget_common_leaf(monkeypatch, k):
    """Once tree k is built, drop from the incrementally kept pool the
    smallest vertex that is still a root-adjacent leaf of every tree."""
    original = ctor.finalize_kth

    def forgetful(state):
        tree = original(state)
        if state.k == k:
            kept = set.intersection(*(set(t.root_leaves) for t in state.trees))
            state.common_leaves.discard(min(kept))
        return tree

    monkeypatch.setattr(ctor, "finalize_kth", forgetful)


def misreport_untouched_vertex(monkeypatch, k):
    """Once tree k is built, count among tree 1's root-adjacent leaves the
    smallest vertex that is none, that no exchange of round k touched and
    that some other tree does not count either, so the pool stays exact."""
    original = ctor.finalize_kth

    def misreported(state):
        tree = original(state)
        if state.k == k:
            rnd, (first, *rest) = state.round, state.trees
            touched = {first.root, rnd.r_k, rnd.w_k, rnd.w_k_prime}.union(
                *((st.chosen, st.w_i, st.v_prime, st.w_prime) for st in rnd.steps)
            )
            elsewhere = set.intersection(*(set(t.root_leaves) for t in rest))
            unseen = set(range(state.coloring.n)) - first.root_leaves - touched - elsewhere
            first.root_leaves |= {min(unseen)}
        return tree

    monkeypatch.setattr(ctor, "finalize_kth", misreported)


def empty_candidate_pool(monkeypatch, k):
    """Leave round k no pool vertex to choose v_i from."""
    original = ctor.begin_round

    def emptied(state):
        original(state)
        if state.k == k:
            state.lstar = frozenset()

    monkeypatch.setattr(ctor, "begin_round", emptied)


def corrupt_hangers(monkeypatch, k, corrupt):
    """Just before tree k is assembled from the round record, let
    ``corrupt(round)`` rewrite the recorded w_i and w'_i."""
    original = ctor.finalize_kth

    def corrupted(state):
        if state.k == k:
            corrupt(state.round)
        return original(state)

    monkeypatch.setattr(ctor, "finalize_kth", corrupted)


def miscount_root_children(monkeypatch, k):
    """Once tree k is built, add one to its root degree."""
    original = ctor.finalize_kth

    def miscounted(state):
        tree = original(state)
        if state.k == k:
            tree.root_degree += 1
        return tree

    monkeypatch.setattr(ctor, "finalize_kth", miscounted)
