"""The replay's incremental index against a recount from its pair sets.

After every new star and every exchange, the shared-pair counts, the degree
arrays and the root-adjacent-leaf counts of the replay must equal what a
recount of each slot's pairs gives: on valid traces, on the mutated traces
and forests of the replay's differential test, and on a trace that leaves a
self-loop at the vertex a later star is rooted at. A wrong count that no
failure message shows is caught here.
"""

import contextlib
import copy
from collections import Counter
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_replay_differential import MUTATIONS, POLICIES, _instance, _mutate, _pair, _refit

from rainbowtrees import build_forest, round_robin, verify_trace_bounds
from rainbowtrees.verifier import _Replay


def _assert_recounted(replay):
    slots = range(len(replay.pairs))
    for a in slots:
        for b in slots:
            want = 0 if a == b else len(replay.pairs[a] & replay.pairs[b])
            assert replay.shared[a][b] == want, (a, b)
    leaves = Counter()
    for root, pairs, deg in zip(replay.roots, replay.pairs, replay.deg):
        degree = Counter(chain.from_iterable(pairs))  # a self-loop counts twice
        assert deg == [degree[x] for x in range(replay.n)]
        leaves.update(x for x, d in degree.items() if d == 1 and _pair(root, x) in pairs)
    assert replay.leaf_count == [leaves[x] for x in range(replay.n)]


@contextlib.contextmanager
def _recounting():
    """Recount the replay's index after each add_star and exchange; yields
    the number of calls checked, per method."""
    calls = Counter()
    with pytest.MonkeyPatch.context() as mp:
        for name in ("add_star", "exchange"):

            def checked(self, *args, _name=name, _original=getattr(_Replay, name)):
                _original(self, *args)
                _assert_recounted(self)
                calls[_name] += 1

            mp.setattr(_Replay, name, checked)
        yield calls


@pytest.mark.parametrize("m", [5, 12, 23, 40])
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_a_valid_replay_keeps_its_index_exact(m, policy):
    coloring, forest, trace = _instance(m, policy, 1)
    with _recounting() as calls:
        assert verify_trace_bounds(coloring, trace, forest).passed
    assert calls["add_star"] == len(forest.trees)


@settings(max_examples=200, deadline=None)
@given(
    m=st.just(12) | st.integers(5, 11),  # only m = 12 reaches round 3
    policy=st.sampled_from(sorted(POLICIES)),
    seed=st.integers(0, 3),
    kinds=st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3),
    refit=st.booleans(),
    data=st.data(),
)
def test_a_mutated_replay_keeps_its_index_exact(m, policy, seed, kinds, refit, data):
    coloring, forest, trace = _instance(m, policy, seed)
    trace = copy.deepcopy(trace)
    for kind in kinds:
        forest = _mutate(kind, coloring, forest, trace, data)
    if refit:
        forest = _refit(forest, trace)
    with _recounting() as calls:
        verify_trace_bounds(coloring, trace, forest)
    assert calls["add_star"] >= 1


def test_a_self_loop_at_a_later_root_is_not_shared_with_its_star():
    # round 2 re-hangs v_1 under itself, so tree 1 holds the pair (v_1, v_1),
    # which its degree array counts twice; round 3 then roots its star at v_1
    c = round_robin(12)
    forest, trace = build_forest(c)
    bad = copy.deepcopy(trace)
    second, third = bad.rounds
    looped = second.steps[0].chosen
    second.steps[0].v_prime = looped
    third.r_k = looped
    with _recounting() as calls:
        res = verify_trace_bounds(c, bad, forest)
    assert calls["add_star"] == 3
    assert "round 3: anchors are not two distinct recorded leaves" in res.failures
