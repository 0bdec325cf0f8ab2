"""The constructor's filter against its reference, and the round close's
bookkeeping against full recounts, on a grid of builds.

At every step, ``admissible_candidates`` and the forbid_at form kept in
``tests/reference_filter.py`` must eliminate the same vertices under every
rule and allow the same set. After every round close, each tree's child
counts must be a count of its parent array, its leaf count the number of
root-adjacent leaves in that array, and each vertex's count of the trees it
is no root-adjacent leaf of a recount over every tree's parent array.
"""

from collections import Counter

import pytest
from reference_filter import admissible_candidates as reference_admissible_candidates

import rainbowtrees.constructor as ctor
from rainbowtrees import (
    MAX_INDEX,
    MIN_INDEX,
    build_forest,
    forest_to_json,
    omega,
    permuted_round_robin,
    random_policy,
    trace_to_jsonl,
)
from rainbowtrees.forest import root_leaves

POLICIES = [MIN_INDEX, MAX_INDEX, random_policy(1), random_policy(2), random_policy(3)]
POLICY_IDS = ["min", "max", "random1", "random2", "random3"]
GRID = [(m, seed) for m in (5, 12, 24, 40) for seed in (1, 2, 3)]


def _build(coloring, policy):
    forest, trace = build_forest(coloring, policy)
    return forest_to_json(forest), trace_to_jsonl(trace)


@pytest.mark.parametrize("policy", POLICIES, ids=POLICY_IDS)
@pytest.mark.parametrize("m, seed", GRID)
def test_the_filter_matches_its_reference_at_every_step(monkeypatch, m, seed, policy):
    coloring = permuted_round_robin(m, seed)
    clean = _build(coloring, policy)
    original, fired = ctor.admissible_candidates, Counter()

    def both(state, i):
        want = reference_admissible_candidates(state, i)
        want_elim = list(state.round.steps[i - 1].eliminated.items())
        got = original(state, i)
        assert list(state.round.steps[i - 1].eliminated.items()) == want_elim
        assert got == want
        fired.update(rule for rule, vs in want_elim if vs)
        fired["steps"] += 1
        return got

    monkeypatch.setattr(ctor, "admissible_candidates", both)
    # the checked build chooses what the plain one chose
    assert _build(coloring, policy) == clean
    w = omega(m)
    assert fired["steps"] == (w - 1) * w // 2
    if m == 40:
        # every rule has eliminated some pool vertex, so each was compared on one
        assert set(fired) == {"steps", *(f"R{j}" for j in range(2, 12))}


@pytest.mark.parametrize("policy", POLICIES, ids=POLICY_IDS)
@pytest.mark.parametrize("m, seed", GRID)
def test_round_close_bookkeeping_matches_a_recount(monkeypatch, m, seed, policy):
    coloring = permuted_round_robin(m, seed)
    n, original, closes = coloring.n, ctor._close_round, []

    def recounted(state):
        original(state)
        for tree in state.trees:
            counts = Counter(tree.parent)
            assert tree.children == [counts[x] for x in range(n)]
        recounted = [root_leaves(tree.parent, tree.root) for tree in state.trees]
        assert [tree.leaves for tree in state.trees] == list(map(len, recounted))
        assert state.outside == [sum(x not in leaves for leaves in recounted) for x in range(n)]
        closes.append(len(state.trees))

    monkeypatch.setattr(ctor, "_close_round", recounted)
    build_forest(coloring, policy)
    assert closes == list(range(2, omega(m) + 1))
