import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    common_root_leaves,
    corrupt_assembly_step,
    corrupt_hangers,
    duplicate_root,
    empty_candidate_pool,
    entry_pools,
    forget_common_leaf,
    miscount_root_children,
    pool_a_non_leaf,
    shift_leaf_count,
    starve_leaf_pool,
)

from rainbowtrees import (
    MAX_INDEX,
    MIN_INDEX,
    SelectionPolicy,
    build_forest,
    forest_to_json,
    omega,
    permuted_round_robin,
    random_policy,
    round_robin,
    slack,
    trace_from_jsonl,
    trace_to_jsonl,
    verify_all,
)
import rainbowtrees.constructor as ctor
from rainbowtrees.constructor import (
    admissible_candidates,
    begin_round,
    select_anchors,
    start_construction,
)
from rainbowtrees.forest import root_leaves
from rainbowtrees.errors import (
    ColorClash,
    CycleDetected,
    EmptyCandidateSet,
    FValidationFailed,
    InternalInvariantError,
    LeafSetExhausted,
    SchemaError,
)


# ---------------------------------------------------------------- omega


def test_omega_small_values():
    assert [omega(m) for m in range(1, 5)] == [1, 1, 1, 1]
    assert omega(5) == 2
    assert omega(11) == 2
    assert omega(12) == 3
    assert omega(22) == 3
    assert omega(23) == 4
    assert omega(35) == 4
    assert omega(36) == 5


def test_omega_rejects_nonpositive():
    with pytest.raises(ValueError):
        omega(0)


@settings(max_examples=200, deadline=None)
@given(m=st.integers(min_value=1, max_value=10**9))
def test_omega_is_exact_integer_floor(m):
    w = omega(m)
    # w = floor(sqrt(6m+9)/3) means (3w)^2 <= 6m+9 < (3(w+1))^2
    assert (3 * w) ** 2 <= 6 * m + 9 < (3 * (w + 1)) ** 2


# ------------------------------------------------- anchors and candidates


def test_anchor_selection_after_base_step_m5():
    state = start_construction(round_robin(5))
    assert [t.root for t in state.trees] == [0]
    assert sorted(state.common_leaves) == list(range(1, 10))
    assert select_anchors(state) == (1, 2)


def test_anchors_are_common_leaves():
    state = start_construction(round_robin(7))
    r_k, w_k = select_anchors(state)
    assert r_k != w_k
    for tree in state.trees:
        assert {r_k, w_k} <= root_leaves(tree.parent, tree.root)


def test_admissible_candidates_m5_k2_golden():
    # frozen via the literal rule-by-rule filter below (and hand arithmetic
    # on the round-robin tables): pool {3..9} minus eliminations {3, 4, 8}
    state = start_construction(round_robin(5))
    begin_round(state)
    assert sorted(admissible_candidates(state, 1)) == [5, 6, 7, 9]
    elim = state.round.steps[0].eliminated
    assert elim["R5"] == [3]
    assert elim["R8"] == [4]
    assert elim["R10"] == [8]
    for vacuous in ("R2", "R3", "R4", "R6", "R7", "R11"):
        assert elim[vacuous] == []


def test_admissible_candidates_needs_the_previous_step_finished():
    # step 2 reads v_1, w_1 and w'_1 from the round record; before revise_tree
    # has fixed them they hold -1, which must not be used as a vertex
    from rainbowtrees.constructor import step

    state = start_construction(round_robin(12))
    step(state)
    begin_round(state)
    admissible_candidates(state, 1)
    with pytest.raises(ValueError):
        admissible_candidates(state, 2)


# -------------------------------------------- literal filter as an oracle


def brute_admissible(coloring, roots, trees, r_k, w_k, leaves, history, i):
    """Re-check rules R1-R11 for every vertex of the graph, the slow way.

    Scans whole edge lists instead of using the partner index, so it shares
    no shortcut with the production filter. ``trees`` holds the colored edge
    lists current at this step: entries below i-1 already rewired this round,
    the rest untouched. ``history`` is (vs, ws, w_primes) from earlier steps.
    """
    n = coloring.n
    k = len(roots) + 1
    vs, ws, w_primes = history
    colof = coloring.color_of

    def edge_of_color(edge_list, color):
        hits = [(u, v) for u, v, c in edge_list if c == color]
        assert len(hits) == 1
        return hits[0]

    def matched(vertex, color):
        # the neighbor of `vertex` along its unique edge of `color`
        hits = [x for x in range(n) if x != vertex and colof(vertex, x) == color]
        assert len(hits) == 1
        return hits[0]

    ri = roots[i - 1]
    pool = set(leaves) - {r_k, w_k}
    out = set()
    for v in range(n):
        if v not in pool:  # R1
            continue
        if any(colof(v, roots[c - 1]) == colof(ri, r_k) for c in range(1, k) if c != i):
            continue  # R2
        cv = colof(v, ri)
        if any(cv == colof(roots[a - 1], vs[a - 1]) for a in range(1, i)):
            continue  # R3
        if any(cv == colof(r_k, roots[b - 1]) for b in range(i + 1, k)):
            continue  # R4
        if cv == colof(r_k, w_k):
            continue  # R5
        if any(cv == colof(r_k, w_primes[a - 1]) for a in range(1, i)):
            continue  # R6
        if i >= 2:
            alpha = matched(w_k, colof(r_k, ws[i - 2]))
            if alpha != r_k and cv == colof(r_k, alpha):
                continue  # R7
        blocked = False
        target = colof(r_k, w_k) if i == 1 else colof(r_k, ws[i - 2])
        for edge_list in trees:
            x, y = edge_of_color(edge_list, target)
            for alpha in (x, y):
                if alpha != r_k and cv == colof(r_k, alpha):
                    blocked = True
        if blocked:
            continue  # R8 (i = 1) / R9 (i >= 2)
        if colof(v, w_k) == colof(ri, r_k):
            continue  # R10
        if i == k - 1 and any(cv == colof(w_k, roots[d - 1]) for d in range(1, k - 1)):
            continue  # R11
        out.add(v)
    return out


def _star_edges(coloring, r, detached=()):
    leaves = [x for x in range(coloring.n) if x != r and x not in detached]
    return [(r, x, coloring.color_of(r, x)) for x in leaves]


def replay_filter_against_brute(coloring, trace):
    """Replay a recorded construction from the star at the first root and
    re-derive every leaf pool and candidate set."""
    checked = 0
    trees = [_star_edges(coloring, trace.rounds[0].roots[0])] if trace.rounds else []
    for rt in trace.rounds:
        leaves = common_root_leaves(coloring.n, zip(rt.roots, trees))
        assert len(leaves) == rt.pool, rt.k
        vs, ws, w_primes = [], [], []
        for st_rec in rt.steps:
            got = brute_admissible(
                coloring,
                rt.roots,
                trees,
                rt.r_k,
                rt.w_k,
                leaves,
                (vs, ws, w_primes),
                st_rec.i,
            )
            eliminated = set().union(*(set(x) for x in st_rec.eliminated.values()))
            expected = leaves - {rt.r_k, rt.w_k} - eliminated
            assert got == expected, (rt.k, st_rec.i)
            checked += 1
            # rewire tree i by the defining edge replacement
            ri = rt.roots[st_rec.i - 1]
            removed = {frozenset((ri, rt.r_k)), frozenset((ri, st_rec.chosen))}
            kept = [e for e in trees[st_rec.i - 1] if frozenset(e[:2]) not in removed]
            kept.append((rt.r_k, st_rec.w_i, coloring.color_of(rt.r_k, st_rec.w_i)))
            kept.append(
                (st_rec.chosen, st_rec.v_prime, coloring.color_of(st_rec.chosen, st_rec.v_prime))
            )
            trees[st_rec.i - 1] = kept
            vs.append(st_rec.chosen)
            ws.append(st_rec.w_i)
            w_primes.append(st_rec.w_prime)
        # tree k: the star at r_k with each w_i and w_k re-hung under its partner
        hung = list(zip(ws, w_primes)) + [(rt.w_k, rt.w_k_prime)]
        trees.append(
            _star_edges(coloring, rt.r_k, detached=ws + [rt.w_k])
            + [(a, b, coloring.color_of(a, b)) for a, b in hung]
        )
    return checked


@pytest.mark.parametrize("m", [5, 12, 23, 36])
def test_every_candidate_set_matches_literal_filter(m):
    coloring = round_robin(m)
    _, trace = build_forest(coloring)
    checked = replay_filter_against_brute(coloring, trace)
    assert checked == sum(k - 1 for k in range(2, omega(m) + 1))


@pytest.mark.parametrize("seed", [101, 202])
@pytest.mark.parametrize("m", [9, 23])
def test_candidate_filter_on_permuted_instances(m, seed):
    coloring = permuted_round_robin(m, seed)
    _, trace = build_forest(coloring)
    assert replay_filter_against_brute(coloring, trace) > 0


@pytest.mark.parametrize(
    "policy",
    [MAX_INDEX, random_policy(3)],
    ids=["max", "rand3"],
)
def test_candidate_filter_under_other_policies(policy):
    # the filter must agree with the literal rules no matter which admissible
    # vertices earlier steps happened to pick
    coloring = round_robin(36)
    _, trace = build_forest(coloring, policy=policy)
    assert replay_filter_against_brute(coloring, trace) == 10


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_build_verifies_on_arbitrary_permuted_instances(seed):
    coloring = permuted_round_robin(12, seed)
    forest, trace = build_forest(coloring)
    assert len(forest.trees) == 3
    assert verify_all(coloring, forest, trace).verdict


# ------------------------------------------------------- whole-run checks


def test_build_m2_is_star_at_zero():
    c = round_robin(2)
    forest, trace = build_forest(c)
    assert len(forest.trees) == 1
    assert forest.trees[0].root == 0
    assert forest.trees[0].edges == tuple(
        (min(0, x), max(0, x), c.color_of(0, x)) for x in range(1, 4)
    )
    assert trace.rounds == []


@pytest.mark.parametrize("m", [5, 12, 23])
def test_build_counts_and_full_verification(m):
    c = round_robin(m)
    forest, trace = build_forest(c)
    assert len(forest.trees) == omega(m)
    assert verify_all(c, forest, trace).verdict


@pytest.mark.parametrize("m", [5, 12])
def test_root_degrees_after_every_round(m):
    c = round_robin(m)
    state = start_construction(c)
    from rainbowtrees.constructor import step

    n = 2 * m
    for k in range(2, omega(m) + 1):
        step(state)
        assert state.trees[0].root_degree == (n - 1) - 2 * (k - 1)
        for i in range(2, k + 1):
            tree = state.trees[i - 1]
            assert tree.root_degree == (n - 1) - i - 2 * (k - i)


def test_new_edges_per_revision_are_exactly_the_replacements():
    c = round_robin(5)
    forest, trace = build_forest(c)
    (rt,) = trace.rounds
    # round 2 rewires the star at the first root
    before = {frozenset((rt.roots[0], x)) for x in range(c.n) if x != rt.roots[0]}
    after = {frozenset((u, v)) for u, v, _ in forest.trees[0].edges}
    st_rec = rt.steps[0]
    assert after - before == {
        frozenset((rt.r_k, st_rec.w_i)),
        frozenset((st_rec.chosen, st_rec.v_prime)),
    }
    assert before - after == {
        frozenset((rt.roots[0], rt.r_k)),
        frozenset((rt.roots[0], st_rec.chosen)),
    }


def test_leaf_pool_continuity_between_rounds():
    # each round must enter with exactly the pool the previous round left,
    # here counted from the edge lists of that round's trees
    c = round_robin(23)
    _, trace = build_forest(c)
    assert [rt.pool for rt in trace.rounds] == [len(pool) for pool in entry_pools(c)]


def test_leaf_pool_floor_every_round():
    for m in (5, 12, 23, 36):
        _, trace = build_forest(round_robin(m))
        for rt in trace.rounds:
            assert rt.pool >= 2 * m - 3 * rt.k**2 + 6 * rt.k - 1
            assert rt.pool - 2 > 6 * rt.k - 7


def test_trace_off_returns_none():
    forest, trace = build_forest(round_robin(6), trace_on=False)
    assert trace is None
    assert len(forest.trees) == omega(6)


def test_trace_jsonl_roundtrip():
    for m in range(1, 41):
        for policy in (MIN_INDEX, MAX_INDEX, random_policy(m)):
            _, trace = build_forest(permuted_round_robin(m, m), policy=policy)
            data = trace_to_jsonl(trace)
            back = trace_from_jsonl(data)
            assert back == trace, (m, policy)
            assert trace_to_jsonl(back) == data
            # the header, then one line per round
            assert data.count(b"\n") == 1 + len(trace.rounds)


def test_trace_jsonl_header_only():
    _, trace = build_forest(round_robin(2))
    data = trace_to_jsonl(trace)
    assert data == b'{"m":2,"trace_version":3}\n'
    assert trace_from_jsonl(data) == trace
    assert trace_from_jsonl(data, m=2) == trace
    with pytest.raises(SchemaError, match="m=2, expected m=3"):
        trace_from_jsonl(data, m=3)


# ------------------------------------------------------------- policies


@pytest.mark.parametrize(
    "policy",
    [MIN_INDEX, MAX_INDEX, random_policy(7), random_policy(11), random_policy(13)],
    ids=["min", "max", "rand7", "rand11", "rand13"],
)
@pytest.mark.parametrize("m", [5, 9, 14])
def test_guarantees_hold_under_every_policy(policy, m):
    c = round_robin(m)
    forest, trace = build_forest(c, policy=policy)
    assert len(forest.trees) == omega(m)
    assert verify_all(c, forest, trace).verdict


def test_random_policy_is_seed_deterministic():
    c = round_robin(9)
    a, _ = build_forest(c, policy=random_policy(5))
    b, _ = build_forest(c, policy=random_policy(5))
    assert a.trees == b.trees


@pytest.mark.parametrize(
    "policy", [MIN_INDEX, MAX_INDEX, random_policy(3)], ids=["min", "max", "random"]
)
def test_builds_leave_their_coloring_as_it_was(policy):
    # the working trees are patched in place; a star's color index must be a
    # copy of its root's partner row, so a build writes nothing into the
    # coloring and a second build on it gives the same bytes
    c = permuted_round_robin(40, 2)
    partners = [c.partner_row(v) for v in range(c.n)]
    colors = [[c.color_of(u, v) for v in range(c.n) if v != u] for u in range(c.n)]
    runs = []
    for _ in range(2):
        forest, trace = build_forest(c, policy=policy)
        runs.append((forest_to_json(forest), trace_to_jsonl(trace)))
    assert runs[0] == runs[1]
    assert [c.partner_row(v) for v in range(c.n)] == partners
    assert [[c.color_of(u, v) for v in range(c.n) if v != u] for u in range(c.n)] == colors


def test_max_policy_roots():
    forest, _ = build_forest(round_robin(5), policy=MAX_INDEX)
    assert forest.trees[0].root == 9


def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        build_forest(round_robin(5), policy=SelectionPolicy("best"))


def test_policy_is_checked_when_made():
    with pytest.raises(ValueError, match="unknown selection policy 'best'"):
        SelectionPolicy("best")


@pytest.mark.parametrize("seed", [None, True, 2.0, "3"], ids=["none", "bool", "float", "str"])
def test_random_policy_needs_an_int_seed(seed):
    # an unseeded random policy would build a different forest on every run
    with pytest.raises(ValueError, match="random policy needs an int seed"):
        SelectionPolicy("random", seed)


@pytest.mark.parametrize("kind", ["min", "max"])
def test_min_and_max_policies_take_no_seed(kind):
    with pytest.raises(ValueError, match=f"policy '{kind}' takes no seed"):
        SelectionPolicy(kind, 3)


def test_admissible_candidates_needs_an_open_round_and_a_tree_index():
    state = start_construction(round_robin(12))
    with pytest.raises(ValueError, match="no round in progress"):
        admissible_candidates(state, 1)
    begin_round(state)
    for i in (0, state.k):
        with pytest.raises(ValueError, match=f"tree index {i} out of range for round 2"):
            admissible_candidates(state, i)


def test_never_builds_beyond_omega():
    # plenty of common leaves remain at m=40 after omega rounds; the engine
    # must stop at the guaranteed count anyway
    m = 40
    forest, trace = build_forest(round_robin(m))
    assert len(forest.trees) == omega(m)
    assert len(trace.rounds) == omega(m) - 1
    assert len(common_root_leaves(2 * m, [(t.root, t.edges) for t in forest.trees])) > 2


def test_eliminations_at_last_step_respect_cap():
    for m in (12, 23, 36):
        _, trace = build_forest(round_robin(m))
        for rt in trace.rounds:
            last = rt.steps[-1]
            knocked = set().union(*(set(v) for v in last.eliminated.values()))
            assert len(knocked) <= 6 * rt.k - 7


@pytest.mark.parametrize(
    "policy", [MIN_INDEX, MAX_INDEX, random_policy(3)], ids=["min", "max", "random"]
)
def test_every_step_eliminates_at_most_the_cap(policy):
    # the constructor checks the cap 6k-7 at i = k-1 only; it bounds every step
    for m in range(1, 41):
        _, trace = build_forest(permuted_round_robin(m, m), policy=policy)
        for rt in trace.rounds:
            for step in rt.steps:
                knocked = set().union(*step.eliminated.values())
                assert len(knocked) <= 6 * rt.k - 7, (m, rt.k, step.i)


def test_isqrt_matches_omega_thresholds():
    # the first m at which each count appears
    firsts = {}
    for m in range(1, 40):
        firsts.setdefault(omega(m), m)
    assert firsts == {1: 1, 2: 5, 3: 12, 4: 23, 5: 36}
    assert math.isqrt(6 * 12 + 9) ** 2 == 6 * 12 + 9  # thresholds sit on perfect squares
    assert math.isqrt(6 * 36 + 9) ** 2 == 6 * 36 + 9


# ------------------------------------------------------------------ slack


@pytest.mark.parametrize(
    "m, policy",
    [(4, MIN_INDEX), (5, MIN_INDEX), (12, MAX_INDEX), (23, random_policy(5)), (36, MIN_INDEX)],
)
def test_slack_agrees_with_recomputation(m, policy):
    coloring = permuted_round_robin(m, 9)
    _, trace = build_forest(coloring, policy=policy)
    cands = []
    gaps = []
    for rt, pool in zip(trace.rounds, entry_pools(coloring, policy), strict=True):
        gaps.append(len(pool) - (2 * m - 3 * rt.k**2 + 6 * rt.k - 1))
        for st_rec in rt.steps:
            eliminated = set().union(*(set(v) for v in st_rec.eliminated.values()))
            cands.append(len(pool - {rt.r_k, rt.w_k} - eliminated))
    expected = (min(cands), tuple(gaps)) if cands else None
    assert slack(trace) == expected
    assert (expected is None) == (m <= 4)
    if expected is not None:
        # one gap per round k = 2, 3, ...; round 2 enters with exactly its floor 2m - 1
        assert len(expected[1]) == omega(m) - 1 and expected[1][0] == 0


# ------------------------------------------------------ fault injection


FAULTS = {
    # w_1 := w_k makes w'_1 = partner(color(r_k, w_k), w_k) = r_k itself
    "rehang-under-root": (5, 2, 1, lambda rnd: rnd.w_k, "would not keep a tree"),
    # w_2 := w_1 names a vertex the first step already detached from r_k
    "non-pendant-leaf": (12, 3, 2, lambda rnd: rnd.steps[0].w_i, "not a pendant neighbor"),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_assembly_fault_raises_cycle_detected_with_trace(monkeypatch, fault):
    m, k, i, pick, message = FAULTS[fault]
    pool = entry_pools(round_robin(m))[k - 2]  # the rounds before k run as without the fault
    corrupt_assembly_step(monkeypatch, k, i, pick)
    with pytest.raises(CycleDetected, match=message) as info:
        build_forest(round_robin(m))
    trace = info.value.trace
    assert trace is not None and trace.m == m
    last = trace.rounds[-1]
    assert last.k == k and last.pool == len(pool) and last.w_k_prime == -1
    in_flight = last.steps[-1]
    assert in_flight.i == i
    assert in_flight.chosen in pool - {last.r_k, last.w_k}
    assert in_flight.w_prime == -1


def test_starved_leaf_pool_raises_leaf_set_exhausted_with_trace(monkeypatch):
    # round 3 of m=12 finds a single common leaf: no two anchors to pick
    starve_leaf_pool(monkeypatch, 3, keep=1)
    with pytest.raises(LeafSetExhausted) as info:
        build_forest(round_robin(12))
    trace = info.value.trace
    assert [rt.k for rt in trace.rounds] == [2, 3]
    in_flight = trace.rounds[-1]
    assert in_flight.pool == 1
    assert (in_flight.r_k, in_flight.w_k, in_flight.steps) == (-1, -1, [])


def test_round_without_steps_survives_the_jsonl_roundtrip(monkeypatch):
    starve_leaf_pool(monkeypatch, 3, keep=1)
    with pytest.raises(LeafSetExhausted) as info:
        build_forest(round_robin(12))
    trace = info.value.trace
    data = trace_to_jsonl(trace)
    last = json.loads(data.splitlines()[-1])
    assert (last["k"], last["pool"], last["r_k"], last["steps"]) == (3, 1, -1, [])
    assert trace_from_jsonl(data) == trace
    # moved before round 2 it still parses; the replay is what rejects it
    header, *records = data.splitlines()
    misplaced = b"\n".join([header, records[-1], *records[:-1]]) + b"\n"
    assert [rt.k for rt in trace_from_jsonl(misplaced).rounds] == [3, 2]


def test_duplicated_root_raises_f_validation_failed_with_trace(monkeypatch):
    # tree 3 of m=12 reports the first tree's root: the roots are no longer distinct
    duplicate_root(monkeypatch, 3)
    with pytest.raises(FValidationFailed, match="distinct") as info:
        build_forest(round_robin(12))
    trace = info.value.trace
    assert [rt.k for rt in trace.rounds] == [2, 3]
    in_flight = trace.rounds[-1]
    assert [st.i for st in in_flight.steps] == [1, 2]
    assert in_flight.w_k_prime >= 0


@pytest.mark.parametrize(
    "fault, k",
    [(forget_common_leaf, 2), (pool_a_non_leaf, 3)],
    ids=["common-leaf-update", "non-leaf-in-pool"],
)
def test_bookkeeping_faults_raise_at_the_round_close(monkeypatch, fault, k):
    # the pool forgets a vertex that the parent arrays still make a common
    # leaf, or keeps one that round 2 made a non-leaf and round 3 did not
    # touch: the recount of the vertices counted 0 sees either when round k
    # of m=12 closes, before any exchange can pick the wrong vertex
    fault(monkeypatch, k)
    message = f"^round {k}: incremental common-leaf update diverged from recomputation"
    with pytest.raises(InternalInvariantError, match=message) as info:
        build_forest(round_robin(12))
    assert type(info.value) is InternalInvariantError
    rounds = info.value.trace.rounds
    assert [rnd.k for rnd in rounds] == list(range(2, k + 1))
    assert rounds[-1].w_k_prime >= 0


def test_a_leaf_count_fault_is_caught_after_the_last_round(monkeypatch):
    # one leaf too many clears every floor, and no round close reads the
    # count otherwise: the full recount after round 3, the last of m=12,
    # sees it
    _, clean = build_forest(round_robin(12))
    shift_leaf_count(monkeypatch, 3, 1, +1)
    message = "after round 3: root-leaf bookkeeping of tree 1 diverged from recomputation"
    with pytest.raises(InternalInvariantError, match=message) as info:
        build_forest(round_robin(12))
    assert type(info.value) is InternalInvariantError
    trace = info.value.trace
    # every round is in the trace, complete
    assert trace == clean
    assert [rnd.k for rnd in trace.rounds] == [2, 3]


def _miscount_root_children_of_tree_1(state):
    tree = state.trees[0]
    tree.children[tree.root] += 1


def _forget_the_smallest_common_leaf(state):
    state.common_leaves.discard(min(state.common_leaves))


@pytest.mark.parametrize(
    "fault, message",
    [
        (_miscount_root_children_of_tree_1, "after round 3: root degree of tree 1 diverged"),
        (_forget_the_smallest_common_leaf, "after round 3: incremental common-leaf update diverged"),
    ],
    ids=["root-degree", "common-leaves"],
)
def test_the_recount_after_the_last_round_checks_root_degrees_and_the_pool(
    monkeypatch, fault, message
):
    # faults made once the last round of m=12 has closed, so that only the
    # recount after it can see them
    original = ctor._close_round

    def faulty(state):
        original(state)
        if len(state.trees) == omega(12):
            fault(state)

    monkeypatch.setattr(ctor, "_close_round", faulty)
    with pytest.raises(InternalInvariantError, match=message) as info:
        build_forest(round_robin(12))
    assert type(info.value) is InternalInvariantError
    assert [rnd.k for rnd in info.value.trace.rounds] == [2, 3]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_root_leaves_are_recounted_once_per_tree(monkeypatch, seed):
    # the round closes check the touched vertices only; one full recount per
    # tree runs after the last round
    calls = []

    def counted(parent, root):
        calls.append(root)
        return root_leaves(parent, root)

    monkeypatch.setattr(ctor, "root_leaves", counted)
    forest, _ = build_forest(permuted_round_robin(40, seed))
    assert len(calls) == len(forest.trees) == omega(40)


def _hang_in_a_cycle(rnd):
    # w_1 and w_2 hung under each other
    rnd.steps[0].w_prime, rnd.steps[1].w_prime = rnd.steps[1].w_i, rnd.steps[0].w_i


def _hang_back_at_root(rnd):
    # w_1 keeps its star edge, so its color appears twice
    rnd.steps[0].w_prime = rnd.r_k


def _hang_twice(rnd):
    # step 2 repeats step 1: a rainbow spanning tree that detached one leaf too few
    rnd.steps[1].w_i, rnd.steps[1].w_prime = rnd.steps[0].w_i, rnd.steps[0].w_prime


def _touch_spare_vertices(monkeypatch):
    # before w_k is re-hung in round 3, the assembly counts eight more
    # vertices as touched, so tree 3 is built with fewer leaves than its floor
    original = ctor.finalize_kth

    def crowded(state):
        if state.k == 3:
            spare = set(range(state.coloring.n)) - state.assembly_touched - {state.round.w_k}
            state.assembly_touched.update(sorted(spare)[:8])
        return original(state)

    monkeypatch.setattr(ctor, "finalize_kth", crowded)


@pytest.mark.parametrize(
    "fault, error, message",
    [
        (lambda mp: starve_leaf_pool(mp, 3, keep=5), InternalInvariantError, "below the floor"),
        (lambda mp: empty_candidate_pool(mp, 3), EmptyCandidateSet, "left no candidate"),
        (lambda mp: corrupt_hangers(mp, 3, _hang_in_a_cycle), CycleDetected, "not spanning"),
        (lambda mp: corrupt_hangers(mp, 3, _hang_back_at_root), ColorClash, "repeats a color"),
        (lambda mp: corrupt_hangers(mp, 3, _hang_twice), InternalInvariantError, "new root degree"),
        (lambda mp: miscount_root_children(mp, 3), FValidationFailed, "tree 3: root degree 21"),
        (_touch_spare_vertices, InternalInvariantError, "new root has .* below the floor 17"),
    ],
    ids=[
        "pool-floor",
        "empty-candidates",
        "cycle",
        "color-clash",
        "root-degree",
        "structure",
        "new-root-leaves",
    ],
)
def test_guarantee_checks_fire_under_fault_injection(monkeypatch, fault, error, message):
    # m = 12 has three rounds' worth of trees; each fault hits round 3
    fault(monkeypatch)
    with pytest.raises(error, match=message) as info:
        build_forest(round_robin(12))
    assert type(info.value) is error
    assert info.value.trace.rounds[-1].k == 3


def test_leaf_floor_check_fires_under_fault_injection(monkeypatch):
    # round 2 at m = 12 leaves tree 1 exactly at its floor of 19 root-adjacent
    # leaves, so one leaf fewer is below it
    shift_leaf_count(monkeypatch, 2, 1, -1)
    with pytest.raises(FValidationFailed) as info:
        build_forest(round_robin(12))
    assert str(info.value) == "tree 1: 18 root-adjacent leaves, below the floor 19"
    assert [rnd.k for rnd in info.value.trace.rounds] == [2]
