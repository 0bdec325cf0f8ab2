"""Vertex renaming by slice copies against the per-cell renaming it replaced.

``permuted_round_robin`` and ``permute_coloring`` rename vertices with row
moves and one transpose; ``tests/reference_relabel.py`` keeps the per-cell
``_relabel``. Both must give the same typed table, and ``permute_coloring``
must leave its input as it was: its table and the partner rows it cached.
"""

from __future__ import annotations

import pytest
from conftest import assert_passes_row_check
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_relabel import permute_coloring as reference_permute_coloring
from reference_relabel import permuted_round_robin as reference_permuted_round_robin

from rainbowtrees import permute_coloring, permuted_round_robin


def assert_same_table(got, want):
    assert got.m == want.m
    assert got._color.typecode == want._color.typecode
    assert got._color.tobytes() == want._color.tobytes()


@pytest.mark.parametrize("m", range(1, 13))
def test_permuted_round_robin_matches_per_cell_renaming(m):
    for seed in range(10):
        assert_same_table(permuted_round_robin(m, seed), reference_permuted_round_robin(m, seed))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("m", [50, 200])
def test_permuted_round_robin_matches_per_cell_renaming_large(m, seed):
    assert_same_table(permuted_round_robin(m, seed), reference_permuted_round_robin(m, seed))


@st.composite
def colorings_and_permutations(draw):
    m = draw(st.integers(min_value=1, max_value=8))
    coloring = permuted_round_robin(m, draw(st.integers(min_value=0, max_value=2**32 - 1)))
    vp = draw(st.permutations(range(2 * m)))
    cp = draw(st.permutations(range(2 * m - 1)))
    warm = draw(st.lists(st.integers(min_value=0, max_value=2 * m - 1), max_size=3))
    return coloring, vp, cp, warm


@settings(max_examples=60, deadline=None)
@given(case=colorings_and_permutations())
def test_permute_coloring_matches_per_cell_renaming_and_keeps_its_input(case):
    coloring, vp, cp, warm = case
    for v in warm:
        coloring.partner(0, v)  # caches v's partner row
    table = coloring._color.tobytes()
    partners = [None if row is None else row.tobytes() for row in coloring._partner]
    want = reference_permute_coloring(coloring, vp, cp)
    got = permute_coloring(coloring, vp, cp)
    assert_same_table(got, want)
    assert_passes_row_check(got)
    assert coloring._color.tobytes() == table
    assert [None if row is None else row.tobytes() for row in coloring._partner] == partners
