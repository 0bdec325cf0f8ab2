import copy
import random
import tracemalloc

import pytest

import rainbowtrees.constructor as ctor
from rainbowtrees import (
    MAX_INDEX,
    ConstructionTrace,
    Forest,
    RainbowTree,
    base_star,
    build_forest,
    parse_coloring,
    permuted_round_robin,
    round_robin,
    serialize_coloring,
    trace_from_jsonl,
    trace_to_jsonl,
    verify_all,
    verify_edge_disjoint,
    verify_rainbow_spanning_tree,
    verify_structure_f,
    verify_trace_bounds,
)
from rainbowtrees.errors import InternalInvariantError, SwapError


@pytest.mark.parametrize("m", [1, 2, 5])
def test_star_is_a_rainbow_spanning_tree(m):
    c = round_robin(m)
    assert verify_rainbow_spanning_tree(c, base_star(c, 0).value()).passed


def test_recolored_edge_fails():
    c = round_robin(2)
    t = RainbowTree.from_edges(3, [(3, 0, 1), (3, 1, 1), (3, 2, 2)])
    res = verify_rainbow_spanning_tree(c, t)
    assert not res.passed
    assert any("color" in f for f in res.failures)


def test_path_in_k4_repeats_a_color():
    # colors along 0-1-2-3 are 2, 0, 2
    c = round_robin(2)
    t = RainbowTree.from_edges(
        0, [(0, 1, c.color_of(0, 1)), (1, 2, c.color_of(1, 2)), (2, 3, c.color_of(2, 3))]
    )
    res = verify_rainbow_spanning_tree(c, t)
    assert not res.passed
    assert any("more than once" in f for f in res.failures)


def test_disconnected_and_cyclic_graphs_fail():
    c = round_robin(2)
    cyclic = RainbowTree.from_edges(
        0, [(0, 1, c.color_of(0, 1)), (1, 2, c.color_of(1, 2)), (0, 2, c.color_of(0, 2))]
    )
    res = verify_rainbow_spanning_tree(c, cyclic)
    assert not res.passed
    assert any("components" in f for f in res.failures)
    assert any("cycle" in f for f in res.failures)


def test_a_vertex_just_past_the_last_is_a_failure_not_an_index_error():
    # vertex n = 4 is the first outside K_4; color_of(4, 1) would index past the
    # table, so the edge is kept as written, u > v, rather than ordered by from_edges
    c = round_robin(2)
    tree = RainbowTree(0, ((0, 1, c.color_of(0, 1)), (0, 2, c.color_of(0, 2)), (4, 1, 0)))
    assert verify_rainbow_spanning_tree(c, tree).failures == [
        "edge (4,1) is not a valid vertex pair",
        "graph splits into 2 components instead of spanning",
    ]


def test_color_n_minus_one_is_out_of_range():
    # K_4 has colors 0..2; color 3 is named as out of range, not compared with the table
    c = round_robin(2)
    tree = RainbowTree.from_edges(0, [(0, 1, 3), (0, 2, c.color_of(0, 2)), (0, 3, c.color_of(0, 3))])
    assert verify_rainbow_spanning_tree(c, tree).failures == ["edge (0, 1) carries out-of-range color 3"]


def test_two_stars_share_an_edge():
    c = round_robin(2)
    forest = Forest(m=2, trees=(base_star(c, 0).value(), base_star(c, 1).value()))
    res = verify_edge_disjoint(forest)
    assert not res.passed
    assert any("(0, 1)" in f for f in res.failures)


def test_single_tree_forest_is_disjoint():
    c = round_robin(2)
    assert verify_edge_disjoint(Forest(m=2, trees=(base_star(c, 0).value(),))).passed


@pytest.mark.parametrize("m", list(range(5, 41, 7)))
def test_built_forests_are_disjoint(m):
    c = round_robin(m)
    forest, _ = build_forest(c)
    assert verify_edge_disjoint(forest).passed


def test_structure_single_star():
    c = round_robin(4)
    forest = Forest(m=4, trees=(base_star(c, 0).value(),))
    assert verify_structure_f(forest).passed


def test_first_two_trees_share_their_profile():
    # at psi=2 both roots must have degree (2m-1) - 2
    c = round_robin(5)
    forest, _ = build_forest(c)
    assert verify_structure_f(forest).passed
    for t in forest.trees:
        assert sum(t.root in p for p in t.pairs()) == 7


def test_swapped_tree_order_m5_still_satisfies_structure():
    # both trees of an m=5 run have root degree 7 and enough leaves, so the
    # positional re-evaluation passes either way
    c = round_robin(5)
    forest, _ = build_forest(c)
    swapped = Forest(m=5, trees=forest.trees[::-1], coloring_digest=forest.coloring_digest)
    assert verify_structure_f(swapped).passed


def test_swapped_tree_order_m12_fails_structure():
    # at m=12 tree 3 has root degree 20 while position 1 demands 19
    c = round_robin(12)
    forest, _ = build_forest(c)
    reordered = Forest(
        m=12,
        trees=(forest.trees[2], forest.trees[1], forest.trees[0]),
        coloring_digest=forest.coloring_digest,
    )
    res = verify_structure_f(reordered)
    assert not res.passed


def test_trace_bounds_m5_pass_and_arithmetic():
    c = round_robin(5)
    forest, trace = build_forest(c)
    assert verify_trace_bounds(c, trace, forest).passed
    (rt,) = trace.rounds
    # the k=2 floor: 2m - 3k^2 + 6k - 1 = 10 - 12 + 12 - 1 = 9
    assert rt.pool == 9 >= 9


@pytest.mark.parametrize("m", list(range(5, 41, 5)))
def test_trace_bounds_across_sizes(m):
    c = round_robin(m)
    forest, trace = build_forest(c)
    assert verify_trace_bounds(c, trace, forest).passed


def test_corrupted_trace_with_empty_candidate_claim_fails():
    c = round_robin(5)
    forest, trace = build_forest(c)
    bad = copy.deepcopy(trace)
    rnd = bad.rounds[0]
    # claim the whole pool, the star's leaves minus the anchors, was knocked out
    rnd.steps[0].eliminated["R5"] = sorted(set(range(c.n)) - {rnd.roots[0], rnd.r_k, rnd.w_k})
    res = verify_trace_bounds(c, bad, forest)
    assert not res.passed
    assert any("empty" in f for f in res.failures)


@pytest.mark.parametrize("delta", [-1, 1])
def test_corrupted_pool_size_fails(delta):
    c = round_robin(12)
    forest, trace = build_forest(c)
    bad = copy.deepcopy(trace)
    bad.rounds[-1].pool += delta
    res = verify_trace_bounds(c, bad, forest)
    assert res.failures == ["round 3: entry leaf pool differs from the replayed common leaves"]
    assert not verify_all(c, forest, bad).verdict


def test_corrupted_trace_edge_collision_fails():
    c = round_robin(12)
    forest, trace = build_forest(c)
    bad = copy.deepcopy(trace)
    # claim step 2 hands the star edge of step 1 over again: the fresh edge
    # (r_k, w_1) already sits in the rewired tree 1 and left the assembly
    last_round = bad.rounds[-1]
    last_round.steps[1].w_i = last_round.steps[0].w_i
    res = verify_trace_bounds(c, bad, forest)
    assert not res.passed


def test_corrupted_trace_definition_break_needs_the_coloring():
    # claiming w_i = r_1 stays consistent as pure set arithmetic but violates
    # the defining color equation, which the replay checks with the coloring
    c = round_robin(12)
    forest, trace = build_forest(c)
    bad = copy.deepcopy(trace)
    bad.rounds[-1].steps[1].w_i = bad.rounds[-1].roots[0]
    res = verify_trace_bounds(c, bad, forest)
    assert not res.passed
    assert any("w_i does not satisfy" in f for f in res.failures)
    assert verify_all(c, forest, bad).trace_bounds == res


def _w_1_is_r_k(rnd):
    rnd.steps[0].w_i = rnd.r_k


def _v_prime_1_is_v_1(rnd):
    rnd.steps[0].v_prime = rnd.steps[0].chosen


def _w_prime_1_is_w_1(rnd):
    rnd.steps[0].w_prime = rnd.steps[0].w_i


def _w_prime_k_is_w_k(rnd):
    rnd.w_k_prime = rnd.w_k


@pytest.mark.parametrize(
    "edit, failures",
    [
        (
            _w_1_is_r_k,
            [
                "(k=3, i=1): w_i does not satisfy color(r_k, w_i) = color(r_i, v_i)",
                "(k=3, i=1): assembly detached a missing star edge",
            ],
        ),
        (
            _v_prime_1_is_v_1,
            [
                "(k=3, i=1): v'_i does not satisfy color(v_i, v'_i) = color(r_i, r_k)",
                "tree 1: the replay ends at a different root or edge set",
            ],
        ),
        (
            _w_prime_1_is_w_1,
            [
                "(k=3, i=1): w'_i does not carry the handed-off color",
                "(k=3, i=1): assembly stage contains a cycle",
                "(k=3, i=2): assembly stage contains a cycle",
                "round 3 finish: new tree contains a cycle",
                "tree 3: the replay ends at a different root or edge set",
            ],
        ),
        (
            _w_prime_k_is_w_k,
            [
                "round 3: w'_k does not carry the final handed-off color",
                "round 3 finish: new tree contains a cycle",
                "tree 3: the replay ends at a different root or edge set",
            ],
        ),
    ],
    ids=["w_i=r_k", "v'_1=v_1", "w'_1=w_1", "w'_k=w_k"],
)
def test_an_exchange_vertex_named_as_its_own_partner_fails_its_equation(edit, failures):
    # each equation reads color_of(x, y) for the vertex y it defines; a trace
    # naming y = x fails it, where color_of would raise SelfLoop
    c = round_robin(12)
    forest, trace = build_forest(c)
    edit(trace.rounds[-1])
    assert verify_trace_bounds(c, trace, forest).failures == failures


def test_verify_reads_no_partner_rows():
    # the replay evaluates its color equations on the table, so a coloring
    # just read from a file has no row inverted by a verify
    forest, trace = build_forest(round_robin(12))
    c = parse_coloring(serialize_coloring(round_robin(12)))
    assert verify_all(c, forest, trace).verdict
    assert c._partner == [None] * c.n


def _tree_1_rehangs_its_own_leaf(rounds):
    # round 2 step 1 attaches (r_k, v_1) and (v_1, r_k): one edge, not two
    rnd = rounds[0]
    rnd.steps[0].w_i, rnd.steps[0].v_prime = rnd.steps[0].chosen, rnd.r_k


def _assembly_swaps_its_hangers(rounds):
    # round 3 re-hangs w_1 under w_2 and w_2 under w_1: one edge, not two
    first, second = rounds[1].steps
    first.w_prime, second.w_prime = second.w_i, first.w_i


def _finish_repeats_a_hanging_edge(rounds):
    # round 3 re-hangs w_2 under w_k and closes with (w_k, w_2) again
    rnd = rounds[1]
    rnd.steps[1].w_prime, rnd.w_k_prime = rnd.w_k, rnd.steps[1].w_i


@pytest.mark.parametrize(
    "edit, failure",
    [
        (_tree_1_rehangs_its_own_leaf, "(k=2, i=1): rewired tree 1 does not keep 45 edges"),
        (_assembly_swaps_its_hangers, "(k=3, i=2): assembly stage does not keep 45 edges"),
        (_finish_repeats_a_hanging_edge, "round 3 finish: new tree does not keep 45 edges"),
    ],
    ids=["rewired", "assembly", "finish"],
)
def test_replay_counts_the_edges_of_every_stage(edit, failure):
    c = permuted_round_robin(23, 1)
    forest, trace = build_forest(c)
    edit(trace.rounds)
    assert failure in verify_trace_bounds(c, trace, forest).failures


def test_malformed_trace_fails_cleanly():
    # nonsense step numbering must produce a failure result, not a crash
    c = round_robin(12)
    forest, trace = build_forest(c)
    bad = copy.deepcopy(trace)
    bad.rounds[-1].steps[0].i = 9
    res = verify_trace_bounds(c, bad, forest)
    assert not res.passed
    assert any("wrong number" in f for f in res.failures)
    assert not verify_all(c, forest, bad).verdict


def _other_runs_trace(forest, trace):
    # the max-policy trace of the same coloring: it replays another forest
    return build_forest(permuted_round_robin(30, 1), policy=MAX_INDEX)[1]


def _round_2_deleted(forest, trace):
    bad = copy.deepcopy(trace)
    del bad.rounds[0]
    return bad


def _no_rounds(forest, trace):
    return ConstructionTrace(m=trace.m)


@pytest.mark.parametrize(
    "mismatch",
    [_other_runs_trace, _round_2_deleted, _no_rounds],
    ids=lambda f: f.__name__.lstrip("_"),
)
def test_trace_must_replay_to_the_forest_it_accompanies(mismatch):
    # each of these traces re-derives cleanly on its own; only the replay
    # from the star at the forest's first root ties it to this 4-tree forest
    c = permuted_round_robin(30, 1)
    forest, trace = build_forest(c)
    assert len(forest.trees) == 4
    report = verify_all(c, forest, mismatch(forest, trace))
    assert report.as_dict()["verdict"] == "fail"
    assert not report.trace_bounds.passed


def test_trace_cannot_replay_an_empty_forest_or_another_m():
    c = round_robin(5)
    forest, trace = build_forest(c)
    assert not verify_trace_bounds(c, trace, Forest(m=5, trees=())).passed
    assert not verify_trace_bounds(c, ConstructionTrace(m=6), forest).passed
    (failure,) = verify_trace_bounds(round_robin(6), trace, forest).failures
    assert failure.endswith("under a coloring for m=6")


def test_a_long_trace_that_fails_early_allocates_little():
    # 2,000 copies of the one round record: round 2 replays, round 3 is
    # recorded as round 2 again; the replay allocates only for what it reaches
    c = round_robin(5)
    forest, trace = build_forest(c)
    header, record = trace_to_jsonl(trace).splitlines(keepends=True)
    long_trace = trace_from_jsonl(header + record * 2000)
    tracemalloc.start()
    try:
        res = verify_trace_bounds(c, long_trace, forest)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.failures[-1].startswith("round 3: recorded as round 2")
    assert peak < 1 << 20


def test_the_replay_keeps_each_pair_once():
    # which tree holds a pair is read from the trees' own pair sets, with no
    # second map from every pair to its trees; the forest's pairs are derived
    # before the measured replay
    c = permuted_round_robin(400, 1)
    forest, trace = build_forest(c, policy=ctor.MIN_INDEX)
    assert len(forest.tree_pairs) == 16
    tracemalloc.start()
    try:
        res = verify_trace_bounds(c, trace, forest)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.passed
    assert peak < 1.9 * (1 << 20)


def _written_v_u(tree):
    # the same tree with every edge written (v, u, c); from_edges would order it
    return RainbowTree(tree.root, tuple((v, u, c) for u, v, c in tree.edges))


def test_a_tree_written_v_u_holds_the_pairs_it_shares():
    c = round_robin(6)
    first = build_forest(c)[0].trees[0]
    twins = Forest(m=6, trees=(first, _written_v_u(first)))
    assert twins.tree_pairs[0] == twins.tree_pairs[1]
    failures = verify_edge_disjoint(twins).failures
    assert len(failures) == 11 and all(f.endswith("appears in 2 trees") for f in failures)
    assert verify_all(c, twins).shared_edges == [[11, 11], [11, 11]]


def test_a_forest_written_v_u_verifies_as_it_does_written_u_v():
    c = round_robin(12)
    forest, trace = build_forest(c)
    trees = list(forest.trees)
    trees[1] = _written_v_u(trees[1])
    flipped = Forest(m=12, trees=tuple(trees), coloring_digest=forest.coloring_digest)
    report = verify_all(c, flipped, trace)
    assert report.verdict
    assert report.to_json() == verify_all(c, forest, trace).to_json()


def test_structure_check_reports_an_out_of_range_edge():
    # vertex 9 is outside K_4, so no degree is counted: failures, not a raise
    forest = Forest(m=2, trees=(RainbowTree.from_edges(3, [(3, 9, 0)]),))
    assert verify_structure_f(forest).failures == [
        "tree 1: root degree -1, expected exactly 3",
        "tree 1: 0 root-adjacent leaves, floor is 3",
    ]


def test_structure_check_reports_a_vertex_just_past_the_last():
    # the star at 0 over 1, 2 and 4 has the right shape, but 4 is not a vertex of K_4
    forest = Forest(m=2, trees=(RainbowTree.from_edges(0, [(0, 1, 0), (0, 2, 1), (0, 4, 2)]),))
    assert verify_structure_f(forest).failures == [
        "tree 1: root degree -1, expected exactly 3",
        "tree 1: 0 root-adjacent leaves, floor is 3",
    ]


@pytest.mark.parametrize(
    "m, trees, failure",
    [
        # the chord (1,2) keeps the root's degree at 3 but leaves only 3 a leaf
        (2, [(0, [(0, 1), (0, 2), (0, 3), (1, 2)])], "tree 1: 1 root-adjacent leaves, floor is 3"),
        # 4 and 5 have degree 1 but are not the root's neighbors
        (
            3,
            [
                (0, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (4, 5)]),
                (5, [(2, 5), (3, 5), (4, 5), (1, 4), (0, 1)]),
            ],
            "tree 1: 0 root-adjacent leaves, floor is 1",
        ),
    ],
)
def test_structure_check_counts_only_root_neighbors_of_degree_one(m, trees, failure):
    trees = tuple(RainbowTree.from_edges(r, [(u, v, 0) for u, v in pairs]) for r, pairs in trees)
    assert verify_structure_f(Forest(m=m, trees=trees)).failures == [failure]


def test_empty_forest_fails_verification():
    # without a trace nothing else counts the trees
    empty = Forest(m=5, trees=())
    assert not verify_structure_f(empty).passed
    report = verify_all(round_robin(5), empty)
    assert not report.structure.passed
    assert report.as_dict()["verdict"] == "fail"


def test_verify_all_pipeline_and_deleted_edge():
    c = round_robin(5)
    forest, trace = build_forest(c)
    assert verify_all(c, forest, trace).verdict
    dropped = RainbowTree.from_edges(forest.trees[0].root, forest.trees[0].edges[1:])
    broken = Forest(m=5, trees=(dropped, forest.trees[1]), coloring_digest=forest.coloring_digest)
    report = verify_all(c, broken, trace)
    assert not report.verdict
    assert not report.tree_checks[0].passed


def test_verify_all_detects_digest_mismatch():
    c = round_robin(5)
    forest, trace = build_forest(c)
    relabeled = Forest(m=5, trees=forest.trees, coloring_digest="0" * 64)
    report = verify_all(c, relabeled, trace)
    assert report.digest_match is False
    assert not report.verdict


def test_report_shared_edges_matrix():
    c = round_robin(12)
    forest, trace = build_forest(c)
    report = verify_all(c, forest, trace)
    for i, row in enumerate(report.shared_edges):
        for j, count in enumerate(row):
            assert count == (23 if i == j else 0)


def test_report_json_is_canonical():
    c = round_robin(5)
    forest, trace = build_forest(c)
    r1 = verify_all(c, forest, trace).to_json()
    r2 = verify_all(c, forest, trace).to_json()
    assert r1 == r2
    assert r1.endswith(b"\n")


# ------------------------------------------------------------- mutations


def test_mutation_fuzz_small():
    from conftest import mutate_forest
    c = round_robin(5)
    forest, _ = build_forest(c)
    rng = random.Random(20250810)
    assert verify_all(c, forest).verdict
    for _ in range(100):
        mutant, kind = mutate_forest(forest, c, rng)
        assert not verify_all(c, mutant).verdict, kind


@pytest.mark.parametrize("m", [10**5, 10**9])
def test_structure_cost_is_bounded_by_the_edges_not_the_claimed_m(m):
    # one 3-edge star claiming a huge m: the structure check counts degrees
    # from the forest's pairs and allocates nothing per claimed vertex
    c = round_robin(2)
    forest = Forest(m=m, trees=(base_star(c, 0).value(),))
    tracemalloc.start()
    try:
        report = verify_all(c, forest)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.structure.failures == [
        f"tree 1: root degree 3, expected exactly {2 * m - 1}",
        f"tree 1: 3 root-adjacent leaves, floor is {2 * m - 1}",
    ]
    assert report.tree_count == 1 and not report.verdict
    assert peak < 64 << 10


def _past_omega(coloring, policy):
    """Step the engine until a round fails; the forest and trace of the rounds
    that closed. A failing round has already rewired some trees, so its
    state is dropped."""
    state = ctor.start_construction(coloring, policy)
    closed = [t.value() for t in state.trees]
    with pytest.raises((SwapError, InternalInvariantError)):
        while True:
            ctor.step(state)
            closed = [t.value() for t in state.trees]
    trace = ConstructionTrace(m=coloring.m, rounds=state.trace.rounds[: len(closed) - 1])
    return Forest(m=coloring.m, trees=tuple(closed), coloring_digest=coloring.digest()), trace


@pytest.mark.parametrize(
    "m, policy, reach, first_short_round",
    [(24, ctor.MIN_INDEX, 6, 5), (40, MAX_INDEX, 10, 7)],
    ids=["m24-min", "m40-max"],
)
def test_past_omega_only_the_elimination_cap_fails(m, policy, reach, first_short_round):
    # the engine itself runs past omega(m) here; the rounds beyond it replay
    # exactly, and only the paper's 6k-7 bound on the pool fails
    c = permuted_round_robin(m, 1)
    forest, trace = _past_omega(c, policy)
    assert len(forest.trees) == reach > ctor.omega(m)
    report = verify_all(c, forest, trace)
    assert all(report.tree_checks) and report.disjointness and report.structure
    assert report.digest_match is True
    failures = report.trace_bounds.failures
    assert failures and all("pool minus anchors" in f for f in failures)
    assert failures[0].startswith(f"round {first_short_round}: ")
    assert not report.verdict


def test_a_pool_of_exactly_6k_minus_7_fails_the_elimination_cap():
    # round 2 at m = 4 is past omega(4) = 1: its pool minus the anchors has
    # 7 - 2 = 5 = 6k - 7 vertices, and the paper's bound asks for more
    c = round_robin(4)
    state = ctor.start_construction(c)
    ctor.step(state)
    forest = Forest(m=4, trees=tuple(t.value() for t in state.trees), coloring_digest=c.digest())
    assert verify_trace_bounds(c, state.trace, forest).failures == [
        "round 2: pool minus anchors has 5 <= 5 vertices"
    ]
