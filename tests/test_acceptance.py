"""Acceptance suite: one test per criterion, each printing its own pass/fail
line (run with -s to see the lines as they happen)."""

import random
import time
from collections import Counter

import pytest

from conftest import entry_pools, mutate_forest
from rainbowtrees import (
    MAX_INDEX,
    MIN_INDEX,
    build_forest,
    enumerate_rainbow_spanning_trees,
    max_disjoint_rainbow_trees,
    omega,
    permuted_round_robin,
    random_policy,
    round_robin,
    serialize_coloring,
    trace_to_jsonl,
    verify_all,
)
from rainbowtrees.cli import main as cli_main
from rainbowtrees.forest import forest_to_json

M_RANGE = range(1, 41)
PERMUTE_SEEDS = (101, 202, 303)
POLICIES = {
    "min": MIN_INDEX,
    "max": MAX_INDEX,
    "rand7": random_policy(7),
    "rand11": random_policy(11),
    "rand99": random_policy(99),
}


def announce(number, name, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed"


@pytest.fixture(scope="module")
def sweeps():
    """Every (m, seed) instance built and verified under every policy.

    Returns (runs, min_policy_elapsed_seconds); runs maps policy name to a
    list of dicts with the instance, its forest, trace, and report.
    """
    runs = {}
    min_elapsed = None
    for name, policy in POLICIES.items():
        t0 = time.perf_counter()
        rows = []
        for m in M_RANGE:
            for seed in PERMUTE_SEEDS:
                coloring = permuted_round_robin(m, seed)
                forest, trace = build_forest(coloring, policy=policy)
                report = verify_all(coloring, forest, trace)
                rows.append(
                    {
                        "m": m,
                        "seed": seed,
                        "coloring": coloring,
                        "forest": forest,
                        "trace": trace,
                        "report": report,
                    }
                )
        elapsed = time.perf_counter() - t0
        if name == "min":
            min_elapsed = elapsed
        runs[name] = rows
    return runs, min_elapsed


def test_criterion_1_bound_reproduction(sweeps):
    runs, elapsed = sweeps
    ok = True
    for row in runs["min"]:
        if len(row["forest"].trees) != omega(row["m"]) or not row["report"].verdict:
            ok = False
            break
    ok = ok and elapsed < 10.0
    announce(
        1,
        "bound reproduction m=1..40, 3 permuted instances each",
        ok,
        f"{len(runs['min'])} runs in {elapsed:.2f}s",
    )


def test_criterion_2_threshold_exactness():
    firsts = {}
    for m in range(1, 60):
        firsts.setdefault(omega(m), m)
    ok = all(firsts[v] == m0 for v, m0 in ((1, 1), (2, 5), (3, 12), (4, 23), (5, 36)))
    announce(2, "omega thresholds at m = 1, 5, 12, 23, 36", ok)


def test_criterion_3_structural_equalities(sweeps):
    runs, _ = sweeps
    ok = True
    for row in runs["min"]:
        m, forest = row["m"], row["forest"]
        n, psi = 2 * m, len(forest.trees)
        if not row["report"].structure.passed:
            ok = False
        for idx, tree in enumerate(forest.trees, start=1):
            degree = Counter(x for p in tree.pairs() for x in p)
            deg = degree[tree.root]
            root_edges = [p for p in tree.pairs() if tree.root in p]
            root_leaves = {x for p in root_edges for x in p if x != tree.root and degree[x] == 1}
            want = (n - 1) - 2 * (psi - 1) if idx == 1 else (n - 1) - idx - 2 * (psi - idx)
            floor = (n - 1) - 4 * (psi - 1) if idx == 1 else (n - 1) - 2 * idx - 4 * (psi - idx)
            if deg != want or len(root_leaves) < max(floor, 0):
                ok = False
    announce(3, "exact root degrees and leaf floors at omega", ok)


def test_criterion_4_trace_bounds(sweeps):
    runs, _ = sweeps
    ok = True
    for row in runs["min"]:
        m = row["m"]
        if row["report"].trace_bounds is None or not row["report"].trace_bounds.passed:
            ok = False
        pools = entry_pools(row["coloring"])
        for rt, pool in zip(row["trace"].rounds, pools, strict=True):
            k = rt.k
            if rt.pool != len(pool) or len(pool) < 2 * m - 3 * k * k + 6 * k - 1:
                ok = False
            for st in rt.steps:
                eliminated = set().union(*(set(v) for v in st.eliminated.values()))
                if not pool - {rt.r_k, rt.w_k} - eliminated:
                    ok = False
    announce(4, "leaf-pool floors and nonempty candidate sets", ok)


def test_criterion_5_oracle_agreement():
    t0 = time.perf_counter()
    c2 = round_robin(2)
    trees2 = enumerate_rainbow_spanning_trees(c2)
    pack2 = max_disjoint_rainbow_trees(c2)
    c3 = round_robin(3)
    pack3 = max_disjoint_rainbow_trees(c3)
    built3, _ = build_forest(c3)
    elapsed = time.perf_counter() - t0
    ok = (
        len(trees2) == 4
        and pack2 == 1
        and pack3 >= 2
        and pack3 >= len(built3.trees)
        and elapsed < 60.0
    )
    announce(5, "desk-scale oracle agreement", ok, f"{elapsed:.2f}s")


def test_criterion_6_disjointness_accounting(sweeps):
    runs, _ = sweeps
    ok = True
    for row in runs["min"]:
        m, forest = row["m"], row["forest"]
        union = set()
        total = 0
        for tree in forest.trees:
            pairs = {(min(u, v), max(u, v)) for u, v, _ in tree.edges}
            total += len(pairs)
            union |= pairs
        if not (len(union) == total == omega(m) * (2 * m - 1)):
            ok = False
    announce(6, "edge-union cardinality is exactly omega*(2m-1)", ok)


def test_criterion_7_mutation_detection():
    t0 = time.perf_counter()
    coloring = round_robin(5)
    forest, _ = build_forest(coloring)
    rng = random.Random(424242)
    missed = 0
    kinds = {}
    for _ in range(1000):
        mutant, kind = mutate_forest(forest, coloring, rng)
        kinds[kind] = kinds.get(kind, 0) + 1
        if verify_all(coloring, mutant).verdict:
            missed += 1
    elapsed = time.perf_counter() - t0
    ok = missed == 0 and elapsed < 30.0 and len(kinds) == 4
    announce(
        7,
        "1000-mutation fuzz at m=5 all detected",
        ok,
        f"missed={missed}, {elapsed:.2f}s",
    )


def test_criterion_8_determinism(tmp_path):
    # library level: same seeds, byte-identical artifacts
    lib_pairs = []
    for _ in range(2):
        coloring = permuted_round_robin(9, 17)
        forest, trace = build_forest(coloring, policy=random_policy(23))
        lib_pairs.append(
            (serialize_coloring(coloring), forest_to_json(forest), trace_to_jsonl(trace))
        )
    ok = lib_pairs[0] == lib_pairs[1]
    # CLI level: identical arguments, identical files
    blobs = []
    for tag in ("a", "b"):
        col = tmp_path / f"c{tag}.json"
        fj = tmp_path / f"f{tag}.json"
        tj = tmp_path / f"t{tag}.jsonl"
        assert cli_main(["gen", "--m", "9", "--permute-seed", "17", "-o", str(col)]) == 0
        assert (
            cli_main(
                [
                    "build",
                    "-i",
                    str(col),
                    "-o",
                    str(fj),
                    "--policy",
                    "random",
                    "--seed",
                    "23",
                    "--trace",
                    str(tj),
                ]
            )
            == 0
        )
        blobs.append((col.read_bytes(), fj.read_bytes(), tj.read_bytes()))
    ok = ok and blobs[0] == blobs[1] and blobs[0][0] == lib_pairs[0][0]
    announce(8, "identical seeds give byte-identical files", ok)


def test_criterion_9_policy_robustness(sweeps):
    runs, _ = sweeps
    ok = True
    for name in ("max", "rand7", "rand11", "rand99"):
        for row in runs[name]:
            m, forest, report = row["m"], row["forest"], row["report"]
            if len(forest.trees) != omega(m) or not report.verdict:
                ok = False
            if not report.structure.passed:
                ok = False
            if report.trace_bounds is None or not report.trace_bounds.passed:
                ok = False
            union = set()
            total = 0
            for tree in forest.trees:
                pairs = {(min(u, v), max(u, v)) for u, v, _ in tree.edges}
                total += len(pairs)
                union |= pairs
            if not (len(union) == total == omega(m) * (2 * m - 1)):
                ok = False
    announce(9, "criteria 1, 3, 4, 6 hold under every policy", ok)
