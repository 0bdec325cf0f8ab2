"""From-scratch certificate checks for packed rainbow spanning trees.

The checks read plain RainbowTree values (a root and sorted edge triples)
and recompute everything else from the edges and coloring lookups. Nothing
is taken from the construction's working trees (parent arrays, root
degrees, color indexes, leaf sets), so these checks referee the engine as
well as hand-edited files. Failures are results, not exceptions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field
from itertools import chain, permutations, repeat

from .coloring import EdgeColoring, canonical_json_bytes
from .constructor import ConstructionTrace
from .forest import Forest, RainbowTree, _pair


@dataclass
class CheckResult:
    """Outcome of one verification aspect; empty failure list means pass."""

    passed: bool
    failures: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.passed


def _result(failures: list[str]) -> CheckResult:
    return CheckResult(passed=not failures, failures=failures)


def _component_count(n: int, pairs) -> int:
    # union-find with path halving; a self-loop or a repeated pair merges nothing
    parent, comps = list(range(n)), n
    for u, v in pairs:
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            comps -= 1
    return comps


def _acyclic(n: int, pairs) -> bool:
    # for a simple graph: forest iff #components == n - #edges
    return _component_count(n, pairs) == n - len(pairs)


def _repeated_pairs(tree_pairs) -> dict[tuple[int, int], int]:
    """The pairs held by more than one tree, with the number of trees holding each."""
    seen, again = set(), Counter()  # per pair, the trees that find it already seen
    for pairs in tree_pairs:
        again.update(pairs & seen)
        seen |= pairs
    return {p: k + 1 for p, k in again.items()}


def verify_rainbow_spanning_tree(coloring: EdgeColoring, tree: RainbowTree) -> CheckResult:
    """Pass iff the claimed tree has 2m-1 edges, spans all vertices, is
    connected and acyclic, repeats no color, and every stored color matches
    the coloring."""
    failures: list[str] = []
    n = coloring.n
    edges = list(tree.edges)
    if len(edges) != n - 1:
        failures.append(f"edge count {len(edges)} differs from {n - 1}")
    pairs: set[tuple[int, int]] = set()
    colors: list[int] = []
    for u, v, c in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            failures.append(f"edge ({u},{v}) is not a valid vertex pair")
            continue
        p = _pair(u, v)
        if p in pairs:
            failures.append(f"edge {p} appears twice")
        pairs.add(p)
        if not 0 <= c < n - 1:
            failures.append(f"edge {p} carries out-of-range color {c}")
        elif coloring.color_of(u, v) != c:
            failures.append(
                f"edge {p} stores color {c} but the coloring says {coloring.color_of(u, v)}"
            )
        colors.append(c)
    dup_colors = sorted(c for c, k in Counter(colors).items() if k > 1)
    if dup_colors:
        failures.append(f"colors {dup_colors} are used more than once")
    comps = _component_count(n, pairs)
    if comps != 1:
        failures.append(f"graph splits into {comps} components instead of spanning")
    if comps != n - len(pairs):
        failures.append("graph contains a cycle")
    return _result(failures)


def _disjointness(repeated: dict[tuple[int, int], int]) -> CheckResult:
    """The disjointness verdict on a forest's :func:`_repeated_pairs`."""
    return _result([f"edge {p} appears in {k} trees" for p, k in sorted(repeated.items())])


def verify_edge_disjoint(forest: Forest) -> CheckResult:
    """Pass iff no unordered vertex pair occurs in two different trees."""
    return _disjointness(_repeated_pairs(forest.tree_pairs))


def verify_structure_f(forest: Forest) -> CheckResult:
    """Exact root degrees and root-adjacent-leaf floors of the psi trees of
    a forest for m, on its 2m vertices.

    Tree 1 must have root degree (2m-1) - 2(psi-1) with at least
    (2m-1) - 4(psi-1) root-adjacent leaves; tree i (i >= 2) must have root
    degree (2m-1) - i - 2(psi-i) with at least (2m-1) - 2i - 4(psi-i).
    Degrees are equalities, leaf counts are floors clamped at zero, and the
    checks are positional in the forest's tree order. A forest with no trees
    fails: the construction always yields at least the base star. Degrees
    are counted from each tree's pairs, so work and memory are bounded by
    the forest's edges, whatever m it claims.
    """
    failures: list[str] = []
    psi, n = len(forest.trees), 2 * forest.m
    if not forest.trees:
        return _result(["forest has no trees"])
    roots = [t.root for t in forest.trees]
    if len(set(roots)) != psi:
        failures.append(f"roots {roots} are not pairwise distinct")
    for idx, (tree, pairs) in enumerate(zip(forest.trees, forest.tree_pairs), start=1):
        degrees = Counter(chain.from_iterable(pairs))
        if not all(0 <= x < n for x in degrees):
            degrees = None
        deg = -1 if degrees is None else degrees[tree.root]
        # the root edges tree idx gave up: idx when it was assembled (none for
        # the first star), then two per later round; each costs at most two leaves
        lost = (idx if idx > 1 else 0) + 2 * (psi - idx)
        want_deg, leaf_floor = (n - 1) - lost, max((n - 1) - 2 * lost, 0)
        if deg != want_deg:
            failures.append(f"tree {idx}: root degree {deg}, expected exactly {want_deg}")
        # a root-adjacent leaf: degree 1, and its one pair is the one with the root
        leaves = 0
        if degrees is not None:
            leaves = sum(d == 1 and _pair(tree.root, x) in pairs for x, d in degrees.items())
        if leaves < leaf_floor:
            failures.append(f"tree {idx}: {leaves} root-adjacent leaves, floor is {leaf_floor}")
    return _result(failures)


class _Replay:
    """The trees of a replay, indexed for O(k) work per changed edge.

    Slot a holds tree a + 1 and, while a round runs, its last slot holds the
    assembly of the new tree. Per slot: the root, the vertex pairs and the
    degree array, from which a vertex x is a root-adjacent leaf when
    deg[x] = 1 and (root, x) is held. ``shared[a][b]`` counts the pairs slots
    a and b both hold (0 on the diagonal) and ``leaf_count[x]`` the slots in
    which x is a root-adjacent leaf. Each new slot adds one row and one
    column to ``shared``, so a trace that fails early allocates nothing for
    the rounds it never reaches.
    """

    def __init__(self, n: int):
        self.n = n
        self.roots: list[int] = []
        self.pairs: list[set[tuple[int, int]]] = []
        self.deg: list[list[int]] = []
        self.leaf_count = [0] * n
        self.shared: list[list[int]] = []

    def add_star(self, root: int) -> None:
        """A new last slot holding the spanning star at root."""
        n = self.n
        # the star shares with slot a the pairs a holds at root: deg[root] of
        # them, less a self-loop (root, root) of a corrupt trace, counted twice
        row = [d[root] - 2 * ((root, root) in held) for d, held in zip(self.deg, self.pairs)]
        for counts, c in zip(self.shared, row):
            counts.append(c)
        self.shared.append(row + [0])
        pairs = set(zip(range(root), repeat(root))) | set(zip(repeat(root), range(root + 1, n)))
        deg = [1] * n
        deg[root] = n - 1
        self.roots.append(root)
        self.pairs.append(pairs)
        self.deg.append(deg)
        self.leaf_count = [c + 1 for c in self.leaf_count]
        self.leaf_count[root] -= 1

    def exchange(self, s: int, removed, fresh) -> None:
        """Slot s's pairs become (pairs - removed) | fresh; removed must be held."""
        for p in removed:
            self._toggle(s, p, -1)
        for p in fresh:
            if p not in self.pairs[s]:
                self._toggle(s, p, 1)

    def _toggle(self, s: int, p: tuple[int, int], delta: int) -> None:
        """Add (delta = 1) or remove (delta = -1) pair p in slot s and patch every index."""
        shared = self.shared
        for a, held in enumerate(self.pairs):
            if p in held and a != s:
                shared[s][a] += delta
                shared[a][s] += delta
        pairs, deg, root, count = self.pairs[s], self.deg[s], self.roots[s], self.leaf_count
        u, v = p  # u = v in a corrupt trace: a set of endpoints counts it once
        for x in {u, v}:  # only u and v change degree or root adjacency
            count[x] -= deg[x] == 1 and _pair(root, x) in pairs
        if delta > 0:
            pairs.add(p)
        else:
            pairs.remove(p)
        deg[u] += delta
        deg[v] += delta
        for x in {u, v}:
            count[x] += deg[x] == 1 and _pair(root, x) in pairs

    def common_leaves(self) -> set[int]:
        """The vertices that are root-adjacent leaves in every slot."""
        slots = len(self.pairs)
        return {x for x, c in enumerate(self.leaf_count) if c == slots}


def verify_trace_bounds(
    coloring: EdgeColoring, trace: ConstructionTrace, forest: Forest
) -> CheckResult:
    """Replay the recorded rounds under the coloring, from the star at the
    forest's first root to exactly the forest's trees.

    Checks, per round k (k = 2, 3, ... in order, with the replayed roots):
    the common leaf pool of the replayed trees meets its floor
    2m - 3k^2 + 6k - 1, holds both anchors, exceeds 6k - 7 after removing
    them and has the recorded size; every candidate set is nonempty and
    contains the chosen vertex; every exchange vertex satisfies its color
    equation (stated in the Step and Round docstrings); no fresh edge of any
    rewired tree occurs in any other tree of the round (the disjointness
    suite P1-P11); and every assembly stage is acyclic (P12, P13). The
    replay must end at the forest's roots and edge pairs, tree by tree.

    Each equation is evaluated on the color table, as color_of(x, y) == c
    for the exchange vertex y it defines, and a y equal to x (a self-loop a
    corrupt trace can name) fails it, as no vertex is its own partner. It is
    checked where the replay has shown that the edges its color c is read
    from are held: w_i and v'_i once (r_i, r_k) and (r_i, v_i) are found in
    tree i, w'_i once (r_k, w_i) is found in the assembly, w'_k once
    (r_k, w_k) is. No tree ever holds a pair (r, r) for its own root r, so
    none of these lookups names a self-loop. A round whose anchors coincide
    has no color for step 1 to take over; it fails its anchor check, and its
    equations go unchecked. The coloring is read only through color_of.

    The replay is incremental (see :class:`_Replay`): a step changes at most
    four pairs of the rewired tree and two of the assembly, each patched in
    O(k), and every check reads the trees' pair sets, the shared-pair
    counts, the degree arrays or the leaf counts those changes patch. A
    round costs O(n + k^2), so a trace of W trees replays in O(W*n + W^3).

    Acyclicity needs no search while the assembly is a spanning tree and the
    step re-hangs a pendant leaf: if w is a leaf whose only neighbor is r_k
    and x is neither w nor r_k, then T - (r_k, w) is a spanning tree on the
    other n - 1 vertices plus the isolated w, and adding (w, x) joins w to
    it, so the result is again a spanning tree. Every stage of a valid trace
    is such a step (w_i at step i, w_k at the round's finish). Any other
    stage falls back to a component count over the assembly, so the check
    stays exact on every input.
    """
    failures: list[str] = []
    m, n = forest.m, 2 * forest.m
    if not trace.m == coloring.m == m or not forest.trees:
        return _result(
            [
                f"trace for m={trace.m} cannot replay a forest of {len(forest.trees)} trees"
                f" for m={m} under a coloring for m={coloring.m}"
            ]
        )
    color_of = coloring.color_of

    def colored(u: int, v: int, c: int) -> bool:
        """Whether u and v are distinct and joined by an edge of color c."""
        return u != v and color_of(u, v) == c

    replay = _Replay(n)
    replay.add_star(forest.trees[0].root)
    roots, trees, shared = replay.roots, replay.pairs, replay.shared
    for rt in trace.rounds:
        k, entry_pool = len(roots) + 1, replay.common_leaves()
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
        ints = all(map(isinstance, mentioned, repeat(int)))
        if not (ints and 0 <= min(mentioned) and max(mentioned) < n):
            failures.append(f"{tag}: record mentions a vertex outside [0, {n - 1}]")
            break
        pool_floor = 2 * m - 3 * k * k + 6 * k - 1
        # never fires: round 2 enters at its floor n - 1, and round j removes from the pool only
        # r_j, w_j, w'_j and four vertices per step, 4j - 1 at most, while the floor falls 6j - 3
        if len(entry_pool) < pool_floor:
            failures.append(f"{tag}: leaf pool {len(entry_pool)} below floor {pool_floor}")
        if rt.r_k not in entry_pool or rt.w_k not in entry_pool or rt.r_k == rt.w_k:
            failures.append(f"{tag}: anchors are not two distinct recorded leaves")
        lstar = entry_pool - {rt.r_k, rt.w_k}
        if not len(lstar) > 6 * k - 7:
            failures.append(f"{tag}: pool minus anchors has {len(lstar)} <= {6 * k - 7} vertices")
        if rt.pool != len(entry_pool):
            failures.append(f"{tag}: entry leaf pool differs from the replayed common leaves")
        asm = k - 1  # the assembly's slot, tree k's once the round closes
        replay.add_star(rt.r_k)
        partial, asm_deg = trees[asm], replay.deg[asm]
        spanning = True  # the assembly is a spanning tree
        # the color the next step takes over: color(r_k, w_k) for step 1,
        # color(r_k, w_i) after step i
        handoff = color_of(rt.r_k, rt.w_k) if rt.r_k != rt.w_k else None
        ok_so_far = True
        for st in rt.steps:
            i = st.i
            step_tag = f"(k={k}, i={i})"
            eliminated = set().union(*(set(vs) for vs in st.eliminated.values()))
            if lstar <= eliminated:
                failures.append(f"{step_tag}: candidate set is empty")
                ok_so_far = False
                break
            if st.chosen not in lstar or st.chosen in eliminated:
                failures.append(f"{step_tag}: chosen vertex {st.chosen} was eliminated")
            ri = rt.roots[i - 1]
            removed = {_pair(ri, rt.r_k), _pair(ri, st.chosen)}
            fresh = {_pair(rt.r_k, st.w_i), _pair(st.chosen, st.v_prime)}
            if not removed <= trees[i - 1]:
                failures.append(f"{step_tag}: a detached edge was not present in tree {i}")
                ok_so_far = False
                break
            if handoff is not None:
                if not colored(rt.r_k, st.w_i, color_of(ri, st.chosen)):
                    failures.append(
                        f"{step_tag}: w_i does not satisfy color(r_k, w_i) = color(r_i, v_i)"
                    )
                if not colored(st.chosen, st.v_prime, color_of(ri, rt.r_k)):
                    failures.append(
                        f"{step_tag}: v'_i does not satisfy color(v_i, v'_i) = color(r_i, r_k)"
                    )
            row = shared[i - 1]
            for a in range(k - 1):  # trees 1..i-1 are rewired, i+1..k-1 await it
                if a == i - 1:
                    continue
                if not fresh.isdisjoint(trees[a]):
                    where = "reappears in rewired" if a < i - 1 else "already sits in"
                    failures.append(f"{step_tag}: fresh edge {where} tree {a + 1}")
                # removed <= tree i, so the retained edges meet tree a in row[a]
                # pairs minus the removed ones tree a holds
                if row[a] > len(removed & trees[a]):
                    where = "rewired tree" if a < i - 1 else "tree"
                    failures.append(f"{step_tag}: retained edges collide with {where} {a + 1}")
            replay.exchange(i - 1, removed, fresh)
            if len(trees[i - 1]) != n - 1:
                failures.append(f"{step_tag}: rewired tree {i} does not keep {n - 1} edges")
            star_edge = _pair(rt.r_k, st.w_i)
            if star_edge not in partial:
                failures.append(f"{step_tag}: assembly detached a missing star edge")
                ok_so_far = False
                break
            if handoff is not None:
                if not colored(st.w_i, st.w_prime, handoff):
                    failures.append(f"{step_tag}: w'_i does not carry the handed-off color")
                handoff = color_of(rt.r_k, st.w_i)
            pendant = spanning and asm_deg[st.w_i] == 1 and st.w_prime not in (st.w_i, rt.r_k)
            replay.exchange(asm, (star_edge,), (_pair(st.w_i, st.w_prime),))
            if len(partial) != n - 1:
                failures.append(f"{step_tag}: assembly stage does not keep {n - 1} edges")
            for a in range(i):
                if shared[asm][a]:
                    failures.append(
                        f"{step_tag}: assembly stage shares an edge with rewired tree {a + 1}"
                    )
            for b0 in range(i, k - 1):
                root_edge = _pair(rt.r_k, rt.roots[b0])
                if not (shared[asm][b0] == 1 and root_edge in partial and root_edge in trees[b0]):
                    failures.append(
                        f"{step_tag}: assembly stage shares {sorted(partial & trees[b0])} with"
                        f" tree {b0 + 1}, expected only the root-to-root edge"
                    )
            acyclic = pendant or _acyclic(n, partial)
            if not acyclic:
                failures.append(f"{step_tag}: assembly stage contains a cycle")
            spanning = acyclic and len(partial) == n - 1
        if not ok_so_far:
            break
        final_tag = f"round {k} finish"
        anchor_edge = _pair(rt.r_k, rt.w_k)
        if anchor_edge not in partial:
            failures.append(f"{final_tag}: edge to w_k was already gone from the assembly")
            break
        # (r_k, w_k) is held, so r_k != w_k and handoff is set
        if not colored(rt.w_k, rt.w_k_prime, handoff):
            failures.append(f"round {k}: w'_k does not carry the final handed-off color")
        closing = _pair(rt.w_k, rt.w_k_prime)
        pendant = spanning and asm_deg[rt.w_k] == 1 and rt.w_k_prime not in (rt.w_k, rt.r_k)
        replay.exchange(asm, (anchor_edge,), (closing,))
        if len(partial) != n - 1:
            failures.append(f"{final_tag}: new tree does not keep {n - 1} edges")
        for a in range(k - 1):
            if closing in trees[a]:
                failures.append(f"{final_tag}: closing edge sits in tree {a + 1}")
            if shared[asm][a]:
                failures.append(f"{final_tag}: new tree shares an edge with tree {a + 1}")
        if not (pendant or _acyclic(n, partial)):
            failures.append(f"{final_tag}: new tree contains a cycle")
    else:  # the replay ran to its end
        if len(trees) != len(forest.trees):
            failures.append(
                f"trace replays {len(trees)} trees, the forest holds {len(forest.trees)}"
            )
        # each replayed slot is emptied once compared, before the next tree's
        # pairs are derived, so the replay's sets and the forest's (kept for
        # the forest-wide checks) are never all alive at once
        for idx, (root, got, tree) in enumerate(zip(roots, trees, forest.trees)):
            if root != tree.root or got != forest.pairs_of(idx):
                failures.append(f"tree {idx + 1}: the replay ends at a different root or edge set")
            got.clear()
    return _result(failures)


@dataclass
class VerificationReport:
    """Aggregated verdict over every check the package knows how to make."""

    m: int
    tree_checks: list[CheckResult]
    disjointness: CheckResult
    structure: CheckResult
    trace_bounds: CheckResult | None
    digest_match: bool | None
    shared_edges: list[list[int]]

    @property
    def tree_count(self) -> int:
        return len(self.tree_checks)

    @property
    def verdict(self) -> bool:
        if not all(c.passed for c in self.tree_checks):
            return False
        if not self.disjointness.passed or not self.structure.passed:
            return False
        if self.trace_bounds is not None and not self.trace_bounds.passed:
            return False
        if self.digest_match is False:
            return False
        return True

    def as_dict(self) -> dict:
        """Every field, with the tree checks under "trees", plus tree_count
        and the verdict."""
        doc = asdict(self)
        doc["trees"] = doc.pop("tree_checks")
        return {**doc, "tree_count": self.tree_count, "verdict": "pass" if self.verdict else "fail"}

    def to_json(self) -> bytes:
        return canonical_json_bytes(self.as_dict())


def verify_all(
    coloring: EdgeColoring,
    forest: Forest,
    trace: ConstructionTrace | None = None,
) -> VerificationReport:
    """Run every check against a coloring, a claimed forest, and optionally a
    construction trace; the verdict passes only if every part passes.

    The trace replay runs first: it derives each tree's pairs as it drops
    its own copy of that tree, and the forest-wide checks then share them."""
    trace_check = None if trace is None else verify_trace_bounds(coloring, trace, forest)
    tree_checks = [verify_rainbow_spanning_tree(coloring, t) for t in forest.trees]
    tree_pairs = forest.tree_pairs
    repeated = _repeated_pairs(tree_pairs)
    disjoint = _disjointness(repeated)
    structure = verify_structure_f(forest)
    digest_match: bool | None = None
    if forest.coloring_digest is not None:
        digest_match = forest.coloring_digest == coloring.digest()
    # each tree's size on the diagonal; off it, only the pairs held more than
    # once count, one for each ordered pair of trees holding them
    holders: dict[tuple[int, int], list[int]] = {p: [] for p in repeated}
    shared = [[0] * len(tree_pairs) for _ in tree_pairs]
    for i, pairs in enumerate(tree_pairs):
        shared[i][i] = len(pairs)
        for p in holders.keys() & pairs:
            holders[p].append(i)
    for trees in holders.values():
        for i, j in permutations(trees, 2):
            shared[i][j] += 1
    return VerificationReport(
        m=forest.m,
        tree_checks=tree_checks,
        disjointness=disjoint,
        structure=structure,
        trace_bounds=trace_check,
        digest_match=digest_match,
        shared_edges=shared,
    )
