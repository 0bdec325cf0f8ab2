"""The R1-R11 filter as it was before each rule became one set
intersected with the pool, kept as a reference for differential tests.

``admissible_candidates`` calls ``forbid_at`` once per forbidden color and
looks every partner up through the coloring. ``tests/test_construction_differential.py``
checks the constructor's filter against it at every step of a grid of builds.
"""

from __future__ import annotations

from rainbowtrees.constructor import ConstructionState, Step, _handoff
from rainbowtrees.errors import EmptyCandidateSet, InternalInvariantError
from rainbowtrees.forest import tree_edge_of_color

_RULES = tuple(f"R{j}" for j in range(2, 12))


def admissible_candidates(state: ConstructionState, i: int) -> set[int]:
    """All pool vertices that may serve as v_i for tree i, per rules R1-R11.

    R1 is membership in the pool itself (the common leaves minus the two
    anchors). Every other rule forbids specific colors on one of v's edges,
    so each knocks out at most one pool vertex per forbidden color; the
    other endpoint's partner row turns each forbidden color into the
    vertex it eliminates. Trees 1..i-1 have already been rewired this round,
    trees i..k-1 have not, which is exactly the mix the lookups in R8/R9 need.
    The per-rule eliminations are written to round.steps[i-1], replacing any
    earlier attempt at this i.
    """
    col, k, rnd = state.coloring, state.k, state.round
    if rnd is None:
        raise ValueError("no round in progress")
    if not 1 <= i <= k - 1:
        raise ValueError(f"tree index {i} out of range for round {k}")
    if i > 1 and (len(rnd.steps) < i - 1 or rnd.steps[i - 2].w_prime < 0):
        raise ValueError(f"round {k}: step {i - 1} has not finished")
    rk, wk, steps, roots = rnd.r_k, rnd.w_k, rnd.steps, rnd.roots
    ri = roots[i - 1]
    lstar = state.lstar
    elim: dict[str, set[int]] = {rule: set() for rule in _RULES}
    c_anchor = col.color_of(ri, rk)  # color freed at the root by detaching r_k

    def forbid_at(rule: str, color: int, apex: int) -> None:
        # the single pool vertex whose edge to `apex` carries `color`
        u = col.partner(color, apex)
        if u in lstar:
            elim[rule].add(u)

    for c in range(1, k):  # R2: v's edge to another root must not reuse color(r_i, r_k)
        if c != i:
            forbid_at("R2", c_anchor, roots[c - 1])
    for a in range(1, i):  # R3: color(v, r_i) must avoid every earlier color(r_a, v_a)
        forbid_at("R3", col.color_of(roots[a - 1], steps[a - 1].chosen), ri)
    for b in range(i + 1, k):  # R4: ... and color(r_k, r_b) of trees not yet rewired
        forbid_at("R4", col.color_of(rk, roots[b - 1]), ri)
    forbid_at("R5", col.color_of(rk, wk), ri)  # R5: ... and color(r_k, w_k)
    for a in range(1, i):  # R6: ... and color(r_k, w'_a)
        forbid_at("R6", col.color_of(rk, steps[a - 1].w_prime), ri)
    handoff = _handoff(state, i)
    if i >= 2:
        # R7: ... and color(r_k, alpha) for the alpha matching w_k through the
        # color the assembly is about to hand off
        alpha = col.partner(handoff, wk)
        if alpha != rk:
            forbid_at("R7", col.color_of(rk, alpha), ri)
    # R8 (i = 1) and R9: both endpoints of the edge carrying the hand-off
    # color, in every tree, rewired or not
    rule = "R8" if i == 1 else "R9"
    for t in state.trees:
        u, v, _ = tree_edge_of_color(t, handoff)
        for alpha in (u, v):
            if alpha != rk:
                forbid_at(rule, col.color_of(rk, alpha), ri)
    forbid_at("R10", c_anchor, wk)  # R10: v's edge to w_k must not reuse color(r_i, r_k)
    if i == k - 1:
        for d in range(1, k - 1):  # R11: last rewiring only: color(v, r_i) vs color(w_k, r_d)
            forbid_at("R11", col.color_of(wk, roots[d - 1]), ri)

    del steps[i - 1 :]
    steps.append(Step(i, {r: sorted(vs) for r, vs in elim.items()}))
    knocked_out = set().union(*elim.values())
    # never fires: at i = k-1, R2-R11 call forbid_at 4(k-2) + 2(k-1) + 3 = 6k-7 times
    if i == k - 1 and len(knocked_out) > 6 * k - 7:
        raise InternalInvariantError(
            f"round {k} step {i}: {len(knocked_out)} eliminations exceed the cap {6 * k - 7}"
        )
    allowed = lstar - knocked_out
    if not allowed:
        raise EmptyCandidateSet(f"round {k} step {i}: the filter left no candidate")
    return allowed
