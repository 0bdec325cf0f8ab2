"""The verifier's forest checks against the formulas they replaced.

``verify_all`` builds its shared-edge matrix from the pairs held by more
than one tree, the disjointness check counts those pairs from set
intersections, and ``_component_count`` is a union-find. The references are
the all-pairs intersection and the one ``Counter`` over every pair below,
and the depth-first search over adjacency lists in
``tests/reference_replay.py``. On valid forests, forests with repeated trees
and mutated forests the matrices, the disjointness failures and the whole
report bytes must be equal; on random pair lists, self-loops and repeated
pairs included, the component counts must be.
"""

import dataclasses
import functools
import random
from collections import Counter
from itertools import chain

import pytest
from conftest import mutate_forest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_replay import _component_count as dfs_component_count

import rainbowtrees.verifier as verifier
from rainbowtrees import CheckResult, Forest, build_forest, permuted_round_robin, verify_all


def all_pairs_shared_edges(tree_pairs):
    """Each tree's pair count on the diagonal, the pairs two trees both hold
    off it: one set intersection per pair of trees."""
    return [
        [len(a & b) if i != j else len(a) for j, b in enumerate(tree_pairs)]
        for i, a in enumerate(tree_pairs)
    ]


def counted_disjointness(tree_pairs):
    """The disjointness check from one count of every tree's pairs."""
    counts = Counter(chain.from_iterable(tree_pairs))
    failures = [f"edge {p} appears in {k} trees" for p, k in sorted(counts.items()) if k > 1]
    return CheckResult(passed=not failures, failures=failures)


@functools.lru_cache(maxsize=None)
def _instance(m):
    coloring = permuted_round_robin(m, m)
    forest, trace = build_forest(coloring)
    return coloring, forest, trace


def _forests(m):
    """The valid forest, tree 1 and 2 appended again, the last tree held
    three times, then 40 single-field mutants."""
    coloring, forest, _ = _instance(m)
    trees, digest = forest.trees, forest.coloring_digest
    yield forest
    yield Forest(m=m, trees=trees + trees[:2], coloring_digest=digest)
    yield Forest(m=m, trees=trees + trees[-1:] * 2, coloring_digest=digest)
    rng = random.Random(m)
    for _ in range(40):
        yield mutate_forest(forest, coloring, rng)[0]


@pytest.mark.parametrize("m", [5, 12, 23])
def test_reports_match_the_all_pairs_matrix_and_the_dfs_count(m, monkeypatch):
    coloring, _, trace = _instance(m)
    for forest in _forests(m):
        for tr in (None, trace):
            report = verify_all(coloring, forest, tr)
            shared = all_pairs_shared_edges(forest.tree_pairs)
            disjointness = counted_disjointness(forest.tree_pairs)
            assert report.shared_edges == shared
            assert report.disjointness == disjointness
            with monkeypatch.context() as patch:
                patch.setattr(verifier, "_component_count", dfs_component_count)
                reference = dataclasses.replace(
                    verify_all(coloring, forest, tr),
                    shared_edges=shared,
                    disjointness=disjointness,
                )
            assert report.to_json() == reference.to_json()


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n
            ),
        )
    )
)
def test_union_find_counts_components_as_the_dfs_does(case):
    n, pairs = case
    assert verifier._component_count(n, pairs) == dfs_component_count(n, pairs)
