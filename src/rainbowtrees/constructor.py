"""Round-by-round construction of edge-disjoint rainbow spanning trees.

Given any proper (2m-1)-edge-coloring of K_{2m} the engine produces
omega(m) = floor(sqrt(6m+9)/3) pairwise edge-disjoint rainbow spanning
trees. Round k turns k-1 trees into k:

  * two fresh anchors r_k and w_k are taken from the common leaf pool, the
    vertices that are root-adjacent leaves in every current tree;
  * every existing tree i is rewired by one leaf exchange around its root,
    detaching r_k and a chosen vertex v_i and attaching the two edges that
    reuse the freed colors (r_k picks up w_i, v_i picks up v'_i);
  * the k-th tree grows alongside, starting from the spanning star at r_k
    and trading star edge (r_k, w_i) for (w_i, w'_i) at each step, where the
    replacement edge carries the color released one step earlier. The final
    exchange detaches w_k and closes that cycle of color hand-offs, which is
    what makes the finished tree rainbow.

The vertex v_i must clear the filter rules R1-R11 implemented in
:func:`admissible_candidates`. The filter can knock out at most 6k-7 pool
vertices, while leaf-count arithmetic keeps the pool larger than that for
every k <= omega(m), so a candidate always survives. Violations of any of
these guarantees raise InternalInvariantError subclasses: they can only mean
an implementation bug, never bad input, and are never absorbed.

The trees under construction are :class:`WorkingTree` parent arrays, which
a leaf exchange patches in O(1) places; :func:`build_forest` turns them into
RainbowTree values once, at the end.

Each round is recorded once, as a :class:`Round` holding one :class:`Step`
per rewired tree; the construction reads its own history from that record,
and the trace is the list of these records. The records keep the choices
that fix a round (the roots, the anchors, the chosen v_i and the vertices
the color equations derive from them) plus the size of the entry leaf pool
and the per-rule eliminations, so a trace replays its forest from the star
at the first root, and the replay re-derives every leaf pool. :func:`slack`
summarizes how close a recorded run came to failing.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import compress
from operator import not_

from .coloring import EdgeColoring, _text, canonical_json_bytes, read_json
from .errors import (
    ColorClash,
    CycleDetected,
    EmptyCandidateSet,
    FValidationFailed,
    InternalInvariantError,
    LeafSetExhausted,
    SchemaError,
    SwapError,
)
from .forest import (
    Forest,
    WorkingTree,
    apply_swap,
    base_star,
    root_leaves,
    spans,
)


def omega(m: int) -> int:
    """floor(sqrt(6m+9)/3) via integer square root: the guaranteed tree count.

    Integer arithmetic matters because 6m+9 is a perfect square exactly at
    the threshold values of m where the count steps up.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    return math.isqrt(6 * m + 9) // 3


@dataclass(frozen=True)
class SelectionPolicy:
    """How the engine breaks ties among allowed choices.

    "min" and "max" take the smallest or largest admissible index; "random"
    draws from a generator seeded once per run, so a random policy needs an
    int seed and the others take none. Every structural guarantee holds
    under any policy; policies exist to diversify artifacts while keeping
    runs reproducible.
    """

    kind: str = "min"
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in ("min", "max", "random"):
            raise ValueError(f"unknown selection policy {self.kind!r}")
        if self.kind == "random" and type(self.seed) is not int:  # bool is not accepted
            raise ValueError(f"a random policy needs an int seed, not {self.seed!r}")
        if self.kind != "random" and self.seed is not None:
            raise ValueError(f"policy {self.kind!r} takes no seed, not {self.seed!r}")


MIN_INDEX = SelectionPolicy("min")
MAX_INDEX = SelectionPolicy("max")


def random_policy(seed: int) -> SelectionPolicy:
    return SelectionPolicy("random", seed)


class _Chooser:
    """Per-run choice maker: each choice takes the first (min), the last (max)
    or a seeded random one of the options it is offered in ascending order."""

    def __init__(self, policy: SelectionPolicy):
        self.kind = policy.kind
        self._rng = random.Random(policy.seed) if policy.kind == "random" else None

    def candidate(self, cands: list[int] | range) -> int:
        if self._rng is not None:
            return self._rng.choice(cands)
        return cands[0] if self.kind == "min" else cands[-1]

    def root(self, n: int) -> int:
        return self.candidate(range(n))

    def anchors(self, leaves: list[int]) -> tuple[int, int]:
        if self._rng is not None:
            return tuple(self._rng.sample(leaves, 2))
        r = self.candidate(leaves)
        return r, self.candidate([x for x in leaves if x != r])


@dataclass
class Step:
    """Step i of its round: the filter's per-rule eliminations from the pool
    (the round's common leaves minus its anchors), then the exchange
    vertices fixed by the choice of v_i (-1 until fixed).

    The exchange on tree i detaches r_k and v_i (``chosen``) and attaches
    (r_k, w_i) and (v_i, v'_i), where color(r_k, w_i) = color(r_i, v_i) and
    color(v_i, v'_i) = color(r_i, r_k). The assembly then re-hangs w_i under
    w'_i with color(w_i, w'_i) = color(r_k, w_k) for i = 1 and
    color(r_k, w_{i-1}) afterwards.
    """

    i: int
    eliminated: dict[str, list[int]]
    chosen: int = -1
    w_i: int = -1
    v_prime: int = -1
    w_prime: int = -1


@dataclass
class Round:
    """One round of the induction: everything needed to re-derive it from
    the trees the previous round left (-1 until fixed), plus ``pool``, the
    size of the common leaf pool the round enters with.

    The final exchange re-hangs w_k under w'_k with
    color(w_k, w'_k) = color(r_k, w_{k-1}).
    """

    k: int
    roots: list[int]
    pool: int
    r_k: int = -1
    w_k: int = -1
    steps: list[Step] = field(default_factory=list)
    w_k_prime: int = -1


@dataclass
class ConstructionTrace:
    m: int
    rounds: list[Round] = field(default_factory=list)


def slack(trace: ConstructionTrace) -> tuple[int, tuple[int, ...]] | None:
    """How close a run came to failing: (fewest surviving candidates at any
    step, the gap between each round's leaf pool and its floor
    2m - 3k^2 + 6k - 1 for k = 2, 3, ...), or None when no step ran (m <= 4).
    Round 2's gap is always 0: it enters with the 2m - 1 leaves of the star.
    The anchors and every eliminated vertex lie in the pool, so a step's
    candidates are the pool minus their union."""
    m = trace.m
    cands = [
        rnd.pool - len({rnd.r_k, rnd.w_k}.union(*st.eliminated.values()))
        for rnd in trace.rounds
        for st in rnd.steps
    ]
    if not cands:
        return None
    gaps = tuple(rnd.pool - (2 * m - 3 * rnd.k**2 + 6 * rnd.k - 1) for rnd in trace.rounds)
    return min(cands), gaps


@dataclass(slots=True)
class ConstructionState:
    """Mutable working state of one construction run; confined to that run.

    Tree k under assembly is not materialized until ``finalize_kth``: the
    state keeps only the vertices the assembly has touched, r_k, the
    re-hung vertices and those they hang under. Every other vertex is still
    a root-adjacent leaf of the star at r_k, which is all the O(1)
    acyclicity checks of the assembly need. ``partners[j]`` is the partner
    row of tree j+1's root, read by the filter; ``outside[x]`` counts the
    trees x is no root-adjacent leaf of, so the common leaves are the
    vertices it counts 0 at.
    """

    coloring: EdgeColoring
    trees: list[WorkingTree]
    common_leaves: set[int]
    chooser: _Chooser
    partners: list[list[int]]
    outside: list[int]
    trace: ConstructionTrace
    k: int = 2
    round: Round | None = None
    assembly_touched: set[int] = field(default_factory=set)
    lstar: set[int] = field(default_factory=set)


def start_construction(
    coloring: EdgeColoring, policy: SelectionPolicy = MIN_INDEX
) -> ConstructionState:
    """Base step: one spanning star rooted per policy; state is ready for round 2."""
    chooser = _Chooser(policy)
    star, trace = base_star(coloring, chooser.root(coloring.n)), ConstructionTrace(m=coloring.m)
    partners, outside = [coloring.partner_row(star.root)], [0] * coloring.n
    outside[star.root] = 1
    common = set(range(coloring.n)) - {star.root}
    return ConstructionState(coloring, [star], common, chooser, partners, outside, trace)


def select_anchors(state: ConstructionState) -> tuple[int, int]:
    """Pick the two distinct round anchors r_k, w_k from the common leaf pool."""
    if len(state.common_leaves) < 2:
        raise LeafSetExhausted(
            f"round {state.k} needs two common leaves, found {len(state.common_leaves)}"
        )
    return state.chooser.anchors(sorted(state.common_leaves))


def begin_round(state: ConstructionState) -> None:
    """Open the round's record and append it to the trace, then fix the
    anchors; tree k starts as the spanning star at r_k."""
    k, m = state.k, state.coloring.m
    rnd = state.round = Round(k, [t.root for t in state.trees], len(state.common_leaves))
    state.trace.rounds.append(rnd)
    rnd.r_k, rnd.w_k = select_anchors(state)
    # the structural floors of the previous round guarantee this much pool
    pool_floor = 2 * m - 3 * k * k + 6 * k - 1
    if rnd.pool < pool_floor:
        raise InternalInvariantError(
            f"round {k}: common leaf pool has {rnd.pool} vertices,"
            f" below the floor {pool_floor}"
        )
    state.lstar = state.common_leaves - {rnd.r_k, rnd.w_k}
    state.assembly_touched = {rnd.r_k}


def admissible_candidates(state: ConstructionState, i: int) -> set[int]:
    """All pool vertices that may serve as v_i for tree i, per rules R1-R11.

    R1 is membership in the pool itself (the common leaves minus the two
    anchors). Every other rule forbids specific colors on one of v's edges,
    so each knocks out at most one pool vertex per forbidden color; the
    other endpoint's partner row turns each forbidden color into the
    vertex it eliminates. Most rules forbid colors at r_i, so they read r_i's
    partner row, kept in ``state.partners``, and colors at r_k, read from
    r_k's color row; each rule is one set of vertices intersected with the
    pool. Trees 1..i-1 have already been rewired this round, trees i..k-1
    have not, which is exactly the mix the lookups in R8/R9 need. The
    per-rule eliminations are written to round.steps[i-1], replacing any
    earlier attempt at this i.
    """
    col, k, rnd = state.coloring, state.k, state.round
    if rnd is None:
        raise ValueError("no round in progress")
    if not 1 <= i <= k - 1:
        raise ValueError(f"tree index {i} out of range for round {k}")
    if i > 1 and (len(rnd.steps) < i - 1 or rnd.steps[i - 2].w_prime < 0):
        raise ValueError(f"round {k}: step {i - 1} has not finished")
    rk, wk, steps, roots, partners = rnd.r_k, rnd.w_k, rnd.steps, rnd.roots, state.partners
    ri, at_ri, rk_row, lstar = roots[i - 1], partners[i - 1], col.color_row(rk), state.lstar
    earlier = steps[: i - 1]
    c_anchor = rk_row[ri]  # color freed at the root by detaching r_k
    handoff = _handoff(state, i)
    # the lookups of R8 (i = 1) and R9: both endpoints of the edge carrying
    # the hand-off color, in every tree, rewired or not
    ends = [(x, t.parent[x]) for t in state.trees for x in (t.child_of_color[handoff],)]
    handoff_ends = {at_ri[rk_row[alpha]] for edge in ends for alpha in edge if alpha != rk}
    alpha = col.partner(handoff, wk)  # R7's alpha, matching w_k through the hand-off color
    forbidden = {
        # R2: v's edge to another root must not reuse color(r_i, r_k)
        "R2": {partners[c][c_anchor] for c in range(k - 1) if c != i - 1},
        # R3: color(v, r_i) must avoid every earlier color(r_a, v_a)
        "R3": {at_ri[col.color_of(roots[a], st.chosen)] for a, st in enumerate(earlier)},
        # R4: ... and color(r_k, r_b) of trees not yet rewired
        "R4": {at_ri[rk_row[rb]] for rb in roots[i : k - 1]},
        "R5": {at_ri[rk_row[wk]]},  # R5: ... and color(r_k, w_k)
        "R6": {at_ri[rk_row[st.w_prime]] for st in earlier},  # R6: ... and color(r_k, w'_a)
        # R7: ... and color(r_k, alpha), once the assembly has handed a color off
        "R7": {at_ri[rk_row[alpha]]} if i >= 2 and alpha != rk else set(),
        "R8": handoff_ends if i == 1 else set(),
        "R9": handoff_ends if i >= 2 else set(),
        "R10": {col.partner(c_anchor, wk)},  # R10: v's edge to w_k must not reuse color(r_i, r_k)
        # R11: last rewiring only: color(v, r_i) vs color(w_k, r_d)
        "R11": {at_ri[col.color_of(wk, rd)] for rd in roots[: k - 2]} if i == k - 1 else set(),
    }
    elim = {rule: lstar.intersection(vs) for rule, vs in forbidden.items()}

    del steps[i - 1 :]
    steps.append(Step(i, {r: sorted(vs) for r, vs in elim.items()}))
    knocked_out = set().union(*elim.values())
    # never fires: at i = k-1, R2-R11 name 4(k-2) + 2(k-1) + 3 = 6k-7 vertices at most
    if i == k - 1 and len(knocked_out) > 6 * k - 7:
        raise InternalInvariantError(
            f"round {k} step {i}: {len(knocked_out)} eliminations exceed the cap {6 * k - 7}"
        )
    allowed = lstar - knocked_out
    if not allowed:
        raise EmptyCandidateSet(f"round {k} step {i}: the filter left no candidate")
    return allowed


def revise_tree(state: ConstructionState, i: int, v_i: int) -> WorkingTree:
    """Rewire tree i in place by the leaf exchange of r_k and v_i, record
    the vertices it re-hung them under as w_i and v'_i, then trade the
    matching star edge of the tree under assembly."""
    rnd = state.round
    tree = apply_swap(state.trees[i - 1], rnd.r_k, v_i)
    st = rnd.steps[i - 1]
    st.chosen, st.w_i, st.v_prime = v_i, tree.parent[rnd.r_k], tree.parent[v_i]
    extend_kth_partial(state, i)
    return tree


def _handoff(state: ConstructionState, i: int) -> int:
    """The color the assembly takes over at step i: color(r_k, w_k) at step
    1 and color(r_k, w_{i-1}) after it; the final exchange is step k."""
    rnd = state.round
    return state.coloring.color_of(rnd.r_k, rnd.w_k if i == 1 else rnd.steps[i - 2].w_i)


def _rehang(state: ConstructionState, i: int, leaf: int) -> int:
    """Trade the assembly's pendant edge (r_k, leaf) for (leaf, w') at step
    i, where (leaf, w') carries the hand-off color; returns w'.

    Detaching a pendant leaf leaves a spanning tree on the other n-1
    vertices, so re-hanging it under any vertex other than itself and r_k
    gives a spanning tree again: these two O(1) checks are exact.
    """
    rk, touched = state.round.r_k, state.assembly_touched
    w_prime = state.coloring.partner(_handoff(state, i), leaf)
    if leaf in touched:
        raise CycleDetected(f"vertex {leaf} is not a pendant neighbor of the new root {rk}")
    if w_prime in (leaf, rk):
        raise CycleDetected(f"re-hanging {leaf} under {w_prime} would not keep a tree")
    touched.update((leaf, w_prime))
    return w_prime


def extend_kth_partial(state: ConstructionState, i: int) -> None:
    """Swap star edge (r_k, w_i) for (w_i, w'_i) in the assembly and record w'_i.

    The replacement edge carries the hand-off color; the temporary color
    imbalance resolves at finalize.
    """
    st = state.round.steps[i - 1]
    st.w_prime = _rehang(state, i, st.w_i)


def finalize_kth(state: ConstructionState) -> WorkingTree:
    """Detach w_k from the assembly, close the chain with edge (w_k, w'_k)
    and build tree k: the star at r_k with its k detached leaves re-hung,
    patched at those k vertices.

    The result must be spanning (checked by :func:`spans` from the re-hung
    vertices), repeat no color and have root degree exactly (2m-1) - k with
    at least (2m-1) - 2k root-adjacent leaves: the vertices the assembly
    did not touch.
    """
    col, rnd, k = state.coloring, state.round, state.k
    rk, wk, n = rnd.r_k, rnd.w_k, col.n
    rnd.w_k_prime = _rehang(state, k, wk)
    hung = {st.w_i: st.w_prime for st in rnd.steps}
    hung[wk] = rnd.w_k_prime
    parent, children = [rk] * n, [0] * n
    parent[rk] = -1
    children[rk] = (n - 1) - len(hung)
    for x, p in hung.items():
        parent[x] = p
        children[p] += 1
    if not spans(parent, rk, hung):
        raise CycleDetected("assembled tree is not spanning-connected")
    # the star's color index, r_k's partner row, loses the colors of the
    # detached edges and gains those of the new ones; a color left at -1 is
    # one the new edges did not reuse, so two edges of the tree share a color
    partners = col.partner_row(rk)
    index = partners.copy()
    for x in hung:
        index[col.color_of(rk, x)] = -1
    for x, p in hung.items():
        index[col.color_of(x, p)] = x
    if -1 in index:
        raise ColorClash("assembled tree repeats a color")
    tree = WorkingTree(col, rk, parent, children, index, n - len(state.assembly_touched))
    if tree.root_degree != (n - 1) - k:
        raise InternalInvariantError(
            f"new root degree {tree.root_degree} differs from the guaranteed {(n - 1) - k}"
        )
    # never fires: k star leaves are re-hung, each under one vertex, so at most 2k are lost
    if tree.leaves < (n - 1) - 2 * k:
        raise InternalInvariantError(
            f"new root has {tree.leaves} adjacent leaves,"
            f" below the floor {(n - 1) - 2 * k}"
        )
    state.trees.append(tree)
    state.partners.append(partners)
    return tree


def _check_structure(state: ConstructionState) -> None:
    """Exact root degrees and leaf floors that every round must restore."""
    n = state.coloring.n
    psi = len(state.trees)
    if len({t.root for t in state.trees}) != psi:
        raise FValidationFailed("roots are not pairwise distinct")
    for idx, tree in enumerate(state.trees, start=1):
        # the root edges tree idx gave up: idx when it was assembled (none for
        # the first star), then two per later round; each costs at most two leaves
        lost = (idx if idx > 1 else 0) + 2 * (psi - idx)
        want_deg, leaf_floor = (n - 1) - lost, max((n - 1) - 2 * lost, 0)
        deg = tree.root_degree
        if deg != want_deg:
            raise FValidationFailed(f"tree {idx}: root degree {deg}, expected {want_deg}")
        if tree.leaves < leaf_floor:
            raise FValidationFailed(
                f"tree {idx}: {tree.leaves} root-adjacent leaves,"
                f" below the floor {leaf_floor}"
            )


def _close_round(state: ConstructionState) -> None:
    """Recount the common leaves where the round changed the trees, then
    check the structure, in O(n + k^2): nothing here reads a whole tree.

    A leaf exchange changes the parent or the children of r_i, r_k, v_i,
    w_i and v'_i only, and tree k differs from the star at r_k only at the
    vertices the assembly touched. Each touched vertex has its count of
    trees it is no root-adjacent leaf of taken again from the parent arrays
    and the child counts; an untouched one keeps its count, since tree k
    has it among its leaves. The common leaves lose the touched vertices (no
    touched vertex is a leaf of the tree that touched it) and are checked
    against the vertices counted 0. The trees' leaf counts meet their
    floors here, and :func:`build_forest` recounts them in full once, after
    the last round.
    """
    rnd, trees = state.round, state.trees
    touched = state.assembly_touched.union(
        *((t.root, st.chosen, st.w_i, st.v_prime) for t, st in zip(trees, rnd.steps))
    )
    outside = state.outside
    for x in touched:
        outside[x] = sum(not t.is_root_leaf(x) for t in trees)
    incremental = state.common_leaves - touched
    if incremental != set(compress(range(len(outside)), map(not_, outside))):
        raise InternalInvariantError(
            f"round {state.k}: incremental common-leaf update diverged from recomputation"
        )
    state.common_leaves = incremental
    _check_structure(state)
    state.round = None
    state.lstar = set()


def step(state: ConstructionState) -> ConstructionState:
    """Run one full round: k-1 leaf exchanges plus assembly of the k-th tree."""
    begin_round(state)
    for i in range(1, state.k):
        cands = admissible_candidates(state, i)
        revise_tree(state, i, state.chooser.candidate(sorted(cands)))
    finalize_kth(state)
    _close_round(state)
    state.k += 1
    return state


def build_forest(
    coloring: EdgeColoring,
    policy: SelectionPolicy = MIN_INDEX,
    trace_on: bool = True,
) -> tuple[Forest, ConstructionTrace | None]:
    """Construct exactly omega(m) pairwise edge-disjoint rainbow spanning trees.

    For m <= 4 the single spanning star already meets the target. The engine
    never attempts rounds beyond omega(m) even when candidates remain; the
    guarantees only cover k <= omega(m). Returns (forest, trace): one Round
    per round k = 2, 3, ..., holding its choices and the size of its entry
    leaf pool; the rounds are always recorded, and trace_on=False only
    returns None in place of the record. Guarantee violations surface as
    InternalInvariantError or SwapError with the partial trace attached; it
    ends with the round and step in flight, whose unfixed fields hold -1.
    The round closes check the bookkeeping where the round changed it.
    After the last round, once, every tree's root-adjacent leaves and root
    degree are recounted from its parent array and the common leaves from
    the k-way intersection of those leaf sets; a mismatch raises with every
    round in the trace.
    """
    state = start_construction(coloring, policy)
    target = omega(coloring.m)
    try:
        while len(state.trees) < target:
            step(state)
        # the round closes checked the bookkeeping where it changed; once, check it whole
        last, recounted = state.k - 1, []
        for idx, t in enumerate(state.trees, start=1):
            recounted.append(root_leaves(t.parent, t.root))
            if len(recounted[-1]) != t.leaves:
                raise InternalInvariantError(
                    f"after round {last}: root-leaf bookkeeping of tree {idx}"
                    " diverged from recomputation"
                )
            if t.parent.count(t.root) != t.root_degree:
                raise InternalInvariantError(
                    f"after round {last}: root degree of tree {idx} diverged from recomputation"
                )
        first, *rest = sorted(recounted, key=len)
        if state.common_leaves != first.intersection(*rest):
            raise InternalInvariantError(
                f"after round {last}: incremental common-leaf update diverged from recomputation"
            )
    except (SwapError, InternalInvariantError) as exc:
        exc.trace = state.trace
        raise
    forest = Forest(
        m=coloring.m, trees=tuple(t.value() for t in state.trees), coloring_digest=coloring.digest()
    )
    return forest, state.trace if trace_on else None


TRACE_VERSION = 3


def trace_to_jsonl(trace: ConstructionTrace) -> bytes:
    """The header {"m": m, "trace_version": 3}, then one JSON line per
    round: the Round fields, with "steps" the list of its Step records. The
    last round of an exit-3 dump may hold fewer steps than k - 1."""
    header = canonical_json_bytes({"m": trace.m, "trace_version": TRACE_VERSION})
    rounds = (
        canonical_json_bytes({**vars(rnd), "steps": [vars(st) for st in rnd.steps]})
        for rnd in trace.rounds
    )
    return header + b"".join(rounds)


_ROUND_INTS = ("k", "pool", "r_k", "w_k", "w_k_prime")
_STEP_INTS = ("i", "chosen", "w_i", "v_prime", "w_prime")


def _int(obj: dict, key: str, where: str) -> int:
    value = obj.get(key)
    if type(value) is not int:  # bool is not accepted
        raise SchemaError(f"{where}: {key!r} is missing or not an integer")
    return value


def _ints(value, what: str) -> list[int]:
    # type(x) is int at C speed; traces hold thousands of integers
    if not isinstance(value, list) or not set(map(type, value)) <= {int}:
        raise SchemaError(f"{what} is not a list of integers")
    return value


def _step(obj, where: str) -> Step:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where} is not an object")
    elim = obj.get("eliminated")
    if not isinstance(elim, dict):
        raise SchemaError(f"{where}: 'eliminated' is missing or not an object")
    return Step(
        **{f: _int(obj, f, where) for f in _STEP_INTS},
        eliminated={r: _ints(vs, f"{where}: eliminated {r!r}") for r, vs in elim.items()},
    )


def trace_from_jsonl(data, m: int | None = None) -> ConstructionTrace:
    """Rebuild a ConstructionTrace from its JSONL form.

    The first line must be the version-3 header; m, when given, must match
    it. Every type and shape is checked here and violations raise
    SchemaError; what the values mean is left to the verifier.
    """
    # a line ends at \n, \r\n or \r only: str.splitlines also breaks at
    # U+0085, U+2028 and U+2029, which a JSON string may hold raw
    text = _text(data, "trace")
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n") if text else []
    header = read_json(lines[0], "trace line 1") if lines else None
    if not isinstance(header, dict) or header.get("trace_version") != TRACE_VERSION:
        raise SchemaError(
            f'trace line 1 is not the header {{"m": m, "trace_version": {TRACE_VERSION}}}'
        )
    trace_m = _int(header, "m", "trace line 1")
    if m is not None and m != trace_m:
        raise SchemaError(f"trace is for m={trace_m}, expected m={m}")
    rounds: list[Round] = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        where = f"trace line {line_no}"
        rec = read_json(line, where)
        if not isinstance(rec, dict):
            raise SchemaError(f"{where} is not an object")
        steps = rec.get("steps")
        if not isinstance(steps, list):
            raise SchemaError(f"{where}: 'steps' is missing or not a list")
        rounds.append(
            Round(
                **{f: _int(rec, f, where) for f in _ROUND_INTS},
                roots=_ints(rec.get("roots"), f"{where}: 'roots'"),
                steps=[_step(st, f"{where}: step {j}") for j, st in enumerate(steps, start=1)],
            )
        )
    return ConstructionTrace(m=trace_m, rounds=rounds)
