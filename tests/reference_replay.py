"""The full-recompute trace replay and the separate definitions pass, kept
as references for differential tests.

``verify_trace_bounds`` is the verifier's replay as it was before it became
incremental and took the coloring, with the helpers it uses: every step
copies the rewired tree's edge set, intersects it with every other tree and
runs a component count over the whole assembly, and every round close
recomputes each tree's root-adjacent leaves. ``verify_trace_definitions`` is
the second walk over the trace that checked the exchange vertices' color
equations before the replay checked them itself.
``tests/test_replay_differential.py`` checks the verifier's one replay
against both.
"""

from __future__ import annotations

from rainbowtrees.coloring import EdgeColoring
from rainbowtrees.constructor import ConstructionTrace
from rainbowtrees.errors import SelfLoop
from rainbowtrees.forest import Forest
from rainbowtrees.verifier import CheckResult


def _pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _result(failures: list[str]) -> CheckResult:
    return CheckResult(passed=not failures, failures=failures)


def _component_count(n: int, pairs) -> int:
    adjacency: dict[int, list[int]] = {x: [] for x in range(n)}
    for u, v in pairs:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen = [False] * n
    comps = 0
    for start in range(n):
        if seen[start]:
            continue
        comps += 1
        seen[start] = True
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adjacency[x]:
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
    return comps


def _acyclic(n: int, pairs) -> bool:
    # for a simple graph: forest iff #components == n - #edges
    return _component_count(n, pairs) == n - len(pairs)


def _degrees(n: int, pairs) -> list[int]:
    deg = [0] * n
    for u, v in pairs:
        deg[u] += 1
        deg[v] += 1
    return deg


def _root_adjacent_leaves(n: int, pairs, root: int) -> set[int]:
    deg = _degrees(n, pairs)
    out = set()
    for u, v in pairs:
        if u == root and deg[v] == 1:
            out.add(v)
        elif v == root and deg[u] == 1:
            out.add(u)
    return out


def verify_trace_bounds(trace: ConstructionTrace, forest: Forest) -> CheckResult:
    """Replay the recorded rounds by plain set arithmetic, from the star at
    the forest's first root to exactly the forest's trees.

    Checks, per round k (k = 2, 3, ... in order, with the replayed roots):
    the common leaf pool of the replayed trees meets its floor
    2m - 3k^2 + 6k - 1, holds both anchors, exceeds 6k - 7 after removing
    them and has the recorded size; every candidate set is nonempty and
    contains the chosen vertex; no fresh edge of any rewired tree occurs in
    any other tree of the round (the disjointness suite P1-P11); and every
    assembly stage is acyclic (P12, P13). The replay must end at the
    forest's roots and edge pairs, tree by tree.
    """
    failures: list[str] = []
    m, n = forest.m, 2 * forest.m
    if trace.m != m or not forest.trees:
        return _result(
            [f"trace for m={trace.m} cannot replay a forest of {len(forest.trees)} trees for m={m}"]
        )
    roots = [forest.trees[0].root]
    trees = [{_pair(roots[0], x) for x in range(n) if x != roots[0]}]
    entry_pool = set(range(n)) - {roots[0]}
    for rt in trace.rounds:
        k = len(roots) + 1
        tag = f"round {k}"
        if rt.k != k or rt.roots != roots:
            failures.append(
                f"{tag}: recorded as round {rt.k} with roots {rt.roots}, expected {roots}"
            )
            break
        if [st.i for st in rt.steps] != list(range(1, k)):
            failures.append(f"{tag}: record holds the wrong number of steps")
            break
        mentioned = [rt.r_k, rt.w_k, rt.w_k_prime]
        for st in rt.steps:
            mentioned += [st.chosen, st.w_i, st.v_prime, st.w_prime]
        if any(not isinstance(x, int) or not 0 <= x < n for x in mentioned):
            failures.append(f"{tag}: record mentions a vertex outside [0, {n - 1}]")
            break
        pool_floor = 2 * m - 3 * k * k + 6 * k - 1
        if len(entry_pool) < pool_floor:
            failures.append(f"{tag}: leaf pool {len(entry_pool)} below floor {pool_floor}")
        if rt.r_k not in entry_pool or rt.w_k not in entry_pool or rt.r_k == rt.w_k:
            failures.append(f"{tag}: anchors are not two distinct recorded leaves")
        lstar = entry_pool - {rt.r_k, rt.w_k}
        if not len(lstar) > 6 * k - 7:
            failures.append(f"{tag}: pool minus anchors has {len(lstar)} <= {6 * k - 7} vertices")
        if rt.pool != len(entry_pool):
            failures.append(f"{tag}: entry leaf pool differs from the replayed common leaves")
        e_before, e_curr = trees, list(trees)  # rewiring replaces sets, never mutates them
        partial = {_pair(rt.r_k, x) for x in range(n) if x != rt.r_k}
        ok_so_far = True
        for st in rt.steps:
            i = st.i
            step_tag = f"(k={k}, i={i})"
            eliminated = set().union(*(set(vs) for vs in st.eliminated.values()))
            allowed = lstar - eliminated
            if not allowed:
                failures.append(f"{step_tag}: candidate set is empty")
                ok_so_far = False
                break
            if st.chosen not in allowed:
                failures.append(f"{step_tag}: chosen vertex {st.chosen} was eliminated")
            ri = rt.roots[i - 1]
            removed = {_pair(ri, rt.r_k), _pair(ri, st.chosen)}
            fresh = {_pair(rt.r_k, st.w_i), _pair(st.chosen, st.v_prime)}
            if not removed <= e_curr[i - 1]:
                failures.append(f"{step_tag}: a detached edge was not present in tree {i}")
                ok_so_far = False
                break
            e_old = e_curr[i - 1] - removed
            for a in range(i - 1):  # trees already rewired this round
                if fresh & e_curr[a]:
                    failures.append(f"{step_tag}: fresh edge reappears in rewired tree {a + 1}")
                if e_old & e_curr[a]:
                    failures.append(f"{step_tag}: retained edges collide with rewired tree {a + 1}")
            for b0 in range(i, k - 1):  # trees still awaiting their rewiring
                if fresh & e_before[b0]:
                    failures.append(f"{step_tag}: fresh edge already sits in tree {b0 + 1}")
                if e_old & e_before[b0]:
                    failures.append(f"{step_tag}: retained edges collide with tree {b0 + 1}")
            e_curr[i - 1] = e_old | fresh
            if len(e_curr[i - 1]) != n - 1:
                failures.append(f"{step_tag}: rewired tree {i} does not keep {n - 1} edges")
            star_edge = _pair(rt.r_k, st.w_i)
            if star_edge not in partial:
                failures.append(f"{step_tag}: assembly detached a missing star edge")
                ok_so_far = False
                break
            partial = (partial - {star_edge}) | {_pair(st.w_i, st.w_prime)}
            if len(partial) != n - 1:
                failures.append(f"{step_tag}: assembly stage does not keep {n - 1} edges")
            for a in range(i):
                if partial & e_curr[a]:
                    failures.append(
                        f"{step_tag}: assembly stage shares an edge with rewired tree {a + 1}"
                    )
            for b0 in range(i, k - 1):
                shared = partial & e_before[b0]
                if shared != {_pair(rt.r_k, rt.roots[b0])}:
                    failures.append(
                        f"{step_tag}: assembly stage shares {sorted(shared)} with tree {b0 + 1},"
                        f" expected only the root-to-root edge"
                    )
            if not _acyclic(n, partial):
                failures.append(f"{step_tag}: assembly stage contains a cycle")
        if not ok_so_far:
            break
        final_tag = f"round {k} finish"
        anchor_edge = _pair(rt.r_k, rt.w_k)
        if anchor_edge not in partial:
            failures.append(f"{final_tag}: edge to w_k was already gone from the assembly")
            break
        closing = _pair(rt.w_k, rt.w_k_prime)
        tkk = (partial - {anchor_edge}) | {closing}
        if len(tkk) != n - 1:
            failures.append(f"{final_tag}: new tree does not keep {n - 1} edges")
        for a in range(k - 1):
            if closing in e_curr[a]:
                failures.append(f"{final_tag}: closing edge sits in tree {a + 1}")
            if tkk & e_curr[a]:
                failures.append(f"{final_tag}: new tree shares an edge with tree {a + 1}")
        if not _acyclic(n, tkk):
            failures.append(f"{final_tag}: new tree contains a cycle")
        pool = None
        for pairs, root in zip(e_curr + [tkk], list(rt.roots) + [rt.r_k]):
            leaves = _root_adjacent_leaves(n, pairs, root)
            pool = leaves if pool is None else pool & leaves
        trees, roots, entry_pool = e_curr + [tkk], roots + [rt.r_k], pool
    else:  # the replay ran to its end
        replayed = list(zip(roots, trees))
        claimed = [(t.root, {_pair(u, v) for u, v, _ in t.edges}) for t in forest.trees]
        if len(replayed) != len(claimed):
            failures.append(f"trace replays {len(replayed)} trees, the forest holds {len(claimed)}")
        for idx, (got, want) in enumerate(zip(replayed, claimed), start=1):
            if got != want:
                failures.append(f"tree {idx}: the replay ends at a different root or edge set")
    return _result(failures)


def verify_trace_definitions(coloring: EdgeColoring, trace: ConstructionTrace) -> list[str]:
    """Confirm the recorded exchange vertices satisfy their defining color
    equations under this coloring."""
    failures: list[str] = []
    if trace.m != coloring.m:
        failures.append(f"trace is for m={trace.m}, coloring has m={coloring.m}")
        return failures
    for rt in trace.rounds:
        k = rt.k
        if len(rt.roots) != k - 1 or [st.i for st in rt.steps] != list(range(1, k)):
            continue  # already reported by the structural pass
        ws: list[int] = []
        try:
            for st in rt.steps:
                i = st.i
                tag = f"(k={k}, i={i})"
                ri = rt.roots[i - 1]
                if coloring.partner(coloring.color_of(ri, st.chosen), rt.r_k) != st.w_i:
                    failures.append(
                        f"{tag}: w_i does not satisfy color(r_k, w_i) = color(r_i, v_i)"
                    )
                if coloring.partner(coloring.color_of(ri, rt.r_k), st.chosen) != st.v_prime:
                    failures.append(
                        f"{tag}: v'_i does not satisfy color(v_i, v'_i) = color(r_i, r_k)"
                    )
                handoff = (
                    coloring.color_of(rt.r_k, rt.w_k)
                    if i == 1
                    else coloring.color_of(rt.r_k, ws[-1])
                )
                if coloring.partner(handoff, st.w_i) != st.w_prime:
                    failures.append(f"{tag}: w'_i does not carry the handed-off color")
                ws.append(st.w_i)
            if ws:
                handoff = coloring.color_of(rt.r_k, ws[-1])
                if coloring.partner(handoff, rt.w_k) != rt.w_k_prime:
                    failures.append(f"round {k}: w'_k does not carry the final handed-off color")
        except (SelfLoop, IndexError):
            failures.append(f"round {k}: recorded vertices do not form valid edge lookups")
    return failures
