#!/usr/bin/env python3
"""Measure how much headroom the candidate filter actually leaves.

For each m and policy the guarantee only promises one surviving candidate
per step; this sweep reports the observed minimum candidate count and, for
each round k = 2, 3, ..., the worst gap between the leaf pool and its floor
2m - 3k^2 + 6k - 1 (both from ``rainbowtrees.slack``), over permuted
round-robin instances. Round 2's gap is always 0. The filter
only ever eliminates pool vertices, so the pool-versus-eliminations margin
always equals the minimum candidate count and is not reported separately.

Usage: python scripts/sweep_slack.py [--m-from 5] [--m-to 40] [--seeds 3]
"""

from rainbowtrees import (
    MAX_INDEX,
    MIN_INDEX,
    build_forest,
    omega,
    permuted_round_robin,
    random_policy,
    slack,
    verify_all,
)
from rainbowtrees.cli import _Parser, _positive_int

POLICIES = [("min", MIN_INDEX), ("max", MAX_INDEX), ("rand", random_policy(2718))]


def run(m_from: int, m_to: int, seeds: int) -> None:
    print(f"{'m':>3} {'omega':>5} {'policy':>6} {'min_cands':>9} {'verified':>8} pool_gaps")
    for m in range(m_from, m_to + 1):
        for name, policy in POLICIES:
            worst = None
            verified = True
            for seed in range(seeds):
                coloring = permuted_round_robin(m, seed)
                forest, trace = build_forest(coloring, policy=policy)
                verified &= verify_all(coloring, forest, trace).verdict
                run_slack = slack(trace)
                if run_slack is not None:
                    cands, gaps = run_slack
                    if worst is not None:
                        cands, gaps = min(cands, worst[0]), tuple(map(min, gaps, worst[1]))
                    worst = cands, gaps
            min_cands, gaps = worst if worst is not None else ("-", ())
            pool_gaps = ",".join(map(str, gaps)) or "-"
            print(f"{m:>3} {omega(m):>5} {name:>6} {min_cands!s:>9} {str(verified):>8} {pool_gaps}")


def main() -> None:
    # a bad value is one line on stderr and exit 2, as in the CLI
    parser = _Parser(description=__doc__.splitlines()[0])
    parser.add_argument("--m-from", type=_positive_int, default=5)
    parser.add_argument("--m-to", type=_positive_int, default=40)
    parser.add_argument("--seeds", type=_positive_int, default=3)
    args = parser.parse_args()
    if args.m_to < args.m_from:
        parser.error("--m-to must be at least --m-from")
    run(args.m_from, args.m_to, args.seeds)


if __name__ == "__main__":
    main()
