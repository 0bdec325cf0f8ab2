"""The verifier's one replay against the full-recompute reference replay
and the separate definitions pass it replaced.

On every mutated trace and forest the replay's own failures must equal the
reference replay's, in the same order. Its color-equation failures must be
a subsequence of the definitions pass's (the replay stops where the
structure breaks, the pass walked on), equal to them whenever the reference
replay passes, and the verdict must be the one the two passes gave together.
Half the inputs then swap the forest for the trees the mutated trace leads
to, so that some traces replay cleanly and only their color equations
fail. On an intact pair everything passes.
"""

import copy
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_replay import verify_trace_bounds as reference_replay
from reference_replay import verify_trace_definitions

import rainbowtrees.verifier as verifier
from rainbowtrees import (
    MAX_INDEX,
    MIN_INDEX,
    Forest,
    RainbowTree,
    build_forest,
    permuted_round_robin,
    random_policy,
    verify_trace_bounds,
)

POLICIES = {"min": MIN_INDEX, "max": MAX_INDEX, "random": random_policy(7)}
STEP_FIELDS = ("chosen", "w_i", "v_prime", "w_prime")
ROUND_FIELDS = ("r_k", "w_k", "w_k_prime")
MUTATIONS = (
    "delete_round",
    "duplicate_round",
    *STEP_FIELDS,
    *ROUND_FIELDS,
    "pool",
    "eliminated",
    "swap_trees",
    "replace_edge",
)
# the failure texts of the color-equation checks
EQUATIONS = (
    "w_i does not satisfy",
    "v'_i does not satisfy",
    "w'_i does not carry",
    "w'_k does not carry",
)


def _split(failures):
    """The replay's own failures, then its color-equation failures."""
    own, equations = [], []
    for f in failures:
        (equations if any(e in f for e in EQUATIONS) else own).append(f)
    return own, equations


@functools.lru_cache(maxsize=None)
def _instance(m, policy, seed):
    coloring = permuted_round_robin(m, seed)
    forest, trace = build_forest(coloring, policy=POLICIES[policy])
    return coloring, forest, trace


def _pair(u, v):
    return (u, v) if u < v else (v, u)


def _refit(forest, trace):
    """The forest the trace's exchanges lead to from the star at the first
    root, by plain set arithmetic, so that only the color equations can tell
    a mutated exchange vertex; the forest itself when a step names a tree
    not yet built. Edge colors are left at 0: the replay compares pairs."""
    n = 2 * forest.m

    def star(r):
        return {_pair(r, x) for x in range(n) if x != r}

    roots = [forest.trees[0].root]
    trees = [star(roots[0])]
    for rnd in trace.rounds:
        assembly = star(rnd.r_k)
        for s in rnd.steps:
            if not 1 <= s.i <= len(trees):
                return forest
            a = s.i - 1
            ri = roots[a]
            trees[a] -= {_pair(ri, rnd.r_k), _pair(ri, s.chosen)}
            trees[a] |= {_pair(rnd.r_k, s.w_i), _pair(s.chosen, s.v_prime)}
            assembly -= {_pair(rnd.r_k, s.w_i)}
            assembly |= {_pair(s.w_i, s.w_prime)}
        trees.append(assembly - {_pair(rnd.r_k, rnd.w_k)} | {_pair(rnd.w_k, rnd.w_k_prime)})
        roots.append(rnd.r_k)
    refitted = (
        RainbowTree.from_edges(r, [(u, v, 0) for u, v in t]) for r, t in zip(roots, trees)
    )
    return Forest(m=forest.m, trees=tuple(refitted), coloring_digest=forest.coloring_digest)


def _vertex(data, n, rnd):
    # often a vertex the round already names, so that mutations collide with
    # the round's own edges; sometimes one the range check must reject
    named = [*rnd.roots, rnd.r_k, rnd.w_k, rnd.w_k_prime]
    for s in rnd.steps:
        named += [s.chosen, s.w_i, s.v_prime, s.w_prime]
    return data.draw(st.sampled_from(named) | st.integers(0, n - 1) | st.sampled_from([-1, n]))


def _mutate(kind, coloring, forest, trace, data):
    """Apply one mutation of the given kind; returns the (new) forest."""
    n, rounds, trees = coloring.n, trace.rounds, list(forest.trees)
    if kind == "swap_trees" and len(trees) > 1:
        a, b = data.draw(st.lists(st.integers(0, len(trees) - 1), min_size=2, max_size=2,
                                  unique=True))
        trees[a], trees[b] = trees[b], trees[a]
    elif kind == "replace_edge":
        idx = data.draw(st.integers(0, len(trees) - 1))
        edges = list(trees[idx].edges)
        e = data.draw(st.integers(0, len(edges) - 1))
        u = data.draw(st.integers(0, n - 2))
        v = data.draw(st.integers(u + 1, n - 1))
        edges[e] = (u, v, coloring.color_of(u, v))
        trees[idx] = RainbowTree.from_edges(trees[idx].root, edges)
    elif not rounds:
        return forest
    elif kind == "delete_round":
        del rounds[data.draw(st.integers(0, len(rounds) - 1))]
    elif kind == "duplicate_round":
        j = data.draw(st.integers(0, len(rounds) - 1))
        rounds.insert(j, copy.deepcopy(rounds[j]))
    elif kind in ROUND_FIELDS:
        rnd = rounds[data.draw(st.integers(0, len(rounds) - 1))]
        setattr(rnd, kind, _vertex(data, n, rnd))
    elif kind == "pool":
        rounds[data.draw(st.integers(0, len(rounds) - 1))].pool += data.draw(st.integers(-2, 2))
    else:
        rnd = rounds[data.draw(st.integers(0, len(rounds) - 1))]
        step = rnd.steps[data.draw(st.integers(0, len(rnd.steps) - 1))]
        if kind == "eliminated":
            vs = step.eliminated[data.draw(st.sampled_from(sorted(step.eliminated)))]
            if vs:
                vs[data.draw(st.integers(0, len(vs) - 1))] = _vertex(data, n, rnd)
            else:
                vs.append(_vertex(data, n, rnd))
        else:
            setattr(step, kind, _vertex(data, n, rnd))
    return Forest(m=forest.m, trees=tuple(trees), coloring_digest=forest.coloring_digest)


@settings(max_examples=400, deadline=None)
@given(
    m=st.just(12) | st.integers(5, 11),  # only m = 12 reaches round 3
    policy=st.sampled_from(sorted(POLICIES)),
    seed=st.integers(0, 3),
    kinds=st.lists(st.sampled_from(MUTATIONS), max_size=3),
    refit=st.booleans(),
    data=st.data(),
)
def test_incremental_replay_matches_the_reference(m, policy, seed, kinds, refit, data):
    coloring, forest, trace = _instance(m, policy, seed)
    trace = copy.deepcopy(trace)
    for kind in kinds:
        forest = _mutate(kind, coloring, forest, trace, data)
    if refit:
        forest = _refit(forest, trace)
    want = reference_replay(trace, forest)
    old_definitions = verify_trace_definitions(coloring, trace)
    got = verify_trace_bounds(coloring, trace, forest)
    own, definitions = _split(got.failures)
    assert own == want.failures
    rest = iter(old_definitions)
    assert all(f in rest for f in definitions)  # a subsequence, in order
    if want.passed:
        assert definitions == old_definitions
    assert got.passed == (want.passed and not old_definitions)


def _count_acyclic_calls(monkeypatch):
    calls = []
    original = verifier._acyclic

    def counted(n, pairs):
        calls.append(n)
        return original(n, pairs)

    monkeypatch.setattr(verifier, "_acyclic", counted)
    return calls


def test_a_valid_trace_replays_without_a_component_count(monkeypatch):
    calls = _count_acyclic_calls(monkeypatch)
    for policy in POLICIES:
        coloring, forest, trace = _instance(40, policy, 1)
        assert verify_trace_bounds(coloring, trace, forest).passed
    assert calls == []


def _non_pendant_w_i(rnd):
    # w'_1 gained the edge (w_1, w'_1) at step 1, so the assembly still holds
    # (r_k, w'_1) but w'_1 is no longer a leaf: re-hanging it needs the search
    rnd.steps[1].w_i = rnd.steps[0].w_prime


def _root_edge_detached(rnd):
    # step 1 trades away the assembly's edge to r_2, which tree 2, still
    # awaiting its rewiring, must share with it
    rnd.steps[0].w_i = rnd.roots[1]


@pytest.mark.parametrize(
    "corrupt", [_non_pendant_w_i, _root_edge_detached], ids=lambda f: f.__name__.lstrip("_")
)
def test_targeted_corruptions_match_the_reference(monkeypatch, corrupt):
    coloring, forest, trace = _instance(12, "min", 0)
    bad = copy.deepcopy(trace)
    assert bad.rounds[-1].k == 3
    corrupt(bad.rounds[-1])
    calls = _count_acyclic_calls(monkeypatch)
    got = verify_trace_bounds(coloring, bad, forest)
    assert not got.passed
    assert _split(got.failures)[0] == reference_replay(bad, forest).failures
    assert bool(calls) == (corrupt is _non_pendant_w_i)
