"""Command-line front end.

Subcommands: gen (emit a coloring), build (pack trees from a coloring),
verify (referee a coloring/forest/trace triple), oracle (exhaustive counts on
tiny instances), bench (timing sweep), dot (render a forest as Graphviz DOT).
Exit status: 0 success or pass, 1 verification failure (verify, or any bench
row), 2 usage or input error or out of memory, 3 internal-invariant violation
(a bug; the partial trace is dumped and its path printed).
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time

from .coloring import (
    EdgeColoring,
    canonical_json_bytes,
    coloring_chunks,
    parse_coloring,
    permuted_round_robin,
    round_robin,
)
from .constructor import (
    MIN_INDEX,
    SelectionPolicy,
    build_forest,
    omega,
    slack,
    trace_from_jsonl,
    trace_to_jsonl,
)
from .errors import InputError, InternalInvariantError, SwapError
from .forest import forest_to_dot, forest_to_json, parse_forest
from .oracle import DEFAULT_PACKING_CAP, count_and_pack
from .verifier import verify_all

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} must be a positive integer")
    return value


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one line on stderr, without the
    usage block; subparsers are made of this class too."""

    def error(self, message):
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _write(path: str | None, chunks) -> None:
    """Write the byte strings in ``chunks`` to path, or to stdout when it is None."""
    if path is None:
        sys.stdout.buffer.writelines(chunks)
        sys.stdout.buffer.flush()
    else:
        with open(path, "wb") as handle:
            handle.writelines(chunks)


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _read_coloring(path: str) -> EdgeColoring:
    """The coloring the file at path holds; a canonical document is read a
    chunk at a time, never held whole beside the table."""
    with open(path, "rb") as handle:
        return parse_coloring(handle)


def cmd_gen(args) -> int:
    if args.permute_seed is None:
        coloring = round_robin(args.m)
    else:
        coloring = permuted_round_robin(args.m, args.permute_seed)
    _write(args.output, coloring_chunks(coloring))
    return EXIT_OK


def cmd_build(args) -> int:
    try:
        # --seed belongs to --policy random, and that policy needs one
        policy = SelectionPolicy(args.policy, args.seed)
    except ValueError as exc:
        args.usage_error(str(exc))
    coloring = _read_coloring(args.input)
    try:
        forest, trace = build_forest(coloring, policy=policy, trace_on=True)
    except (SwapError, InternalInvariantError) as exc:
        # build_forest attaches the partial trace of the rounds it recorded
        dump_path = args.trace
        if dump_path is None:
            with tempfile.NamedTemporaryFile(
                mode="wb", suffix=".trace.jsonl", delete=False
            ) as handle:
                dump_path = handle.name
        _write(dump_path, [trace_to_jsonl(exc.trace)])
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        print(f"trace dumped to {dump_path}", file=sys.stderr)
        return EXIT_INTERNAL
    _write(args.output, [forest_to_json(forest)])
    if args.trace is not None:
        _write(args.trace, [trace_to_jsonl(trace)])
    return EXIT_OK


def cmd_verify(args) -> int:
    coloring = _read_coloring(args.input)
    forest = parse_forest(_read(args.forest))
    trace = None
    if args.trace is not None:
        trace = trace_from_jsonl(_read(args.trace), m=coloring.m)
    report = verify_all(coloring, forest, trace)
    _write(None, [report.to_json()])
    return EXIT_OK if report.verdict else EXIT_VERIFY_FAIL


def cmd_oracle(args) -> int:
    coloring = _read_coloring(args.input)
    count, packing = count_and_pack(coloring, args.cap)
    _write(None, [canonical_json_bytes({"count": count, "max_disjoint": packing})])
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.m_to < args.m_from:
        args.usage_error("--m-to must be at least --m-from")
    rows = ["m,omega,trees_built,build_micros,verify_pass,min_candidate_slack"]
    all_pass = True
    for m in range(args.m_from, args.m_to + 1):
        coloring = round_robin(m)
        best_micros = None
        forest = trace = None
        for _ in range(args.reps):
            t0 = time.perf_counter()
            forest, trace = build_forest(coloring, policy=MIN_INDEX, trace_on=True)
            micros = int((time.perf_counter() - t0) * 1e6)
            if best_micros is None or micros < best_micros:
                best_micros = micros
        report = verify_all(coloring, forest, trace)
        all_pass &= report.verdict
        run_slack = slack(trace)
        min_slack = "" if run_slack is None else str(run_slack[0] - 1)
        rows.append(
            f"{m},{omega(m)},{len(forest.trees)},{best_micros},"
            f"{'true' if report.verdict else 'false'},{min_slack}"
        )
    _write(args.csv, [("\n".join(rows) + "\n").encode("utf-8")])
    return EXIT_OK if all_pass else EXIT_VERIFY_FAIL


def cmd_dot(args) -> int:
    _write(args.output, [forest_to_dot(parse_forest(_read(args.forest))).encode()])
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rainbowtrees",
        description="Pack edge-disjoint rainbow spanning trees out of properly "
        "edge-colored complete graphs, and verify the result exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="emit a proper coloring document")
    p_gen.add_argument("--m", type=_positive_int, required=True, help="half the vertex count")
    p_gen.add_argument(
        "--scheme",
        choices=["round-robin"],
        default="round-robin",
        help="generation scheme (round-robin is the only one)",
    )
    p_gen.add_argument(
        "--permute-seed",
        type=int,
        default=None,
        help="scramble vertices and colors with this seed",
    )
    p_gen.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    p_gen.set_defaults(func=cmd_gen)

    p_build = sub.add_parser("build", help="construct the packed forest")
    p_build.add_argument("-i", "--input", required=True, help="coloring document")
    p_build.add_argument("-o", "--output", default=None, help="forest output path")
    p_build.add_argument(
        "--policy", choices=["min", "max", "random"], default="min", help="selection policy"
    )
    p_build.add_argument("--seed", type=int, default=None, help="seed for --policy random")
    p_build.add_argument("--trace", default=None, help="also write the trace (JSON lines)")
    p_build.set_defaults(func=cmd_build, usage_error=p_build.error)

    p_verify = sub.add_parser("verify", help="referee a coloring/forest/trace triple")
    p_verify.add_argument("-i", "--input", required=True, help="coloring document")
    p_verify.add_argument("-f", "--forest", required=True, help="forest document")
    p_verify.add_argument("-t", "--trace", default=None, help="trace file (optional)")
    p_verify.set_defaults(func=cmd_verify)

    p_oracle = sub.add_parser("oracle", help="exhaustive counts on a tiny instance")
    p_oracle.add_argument("-i", "--input", required=True, help="coloring document")
    p_oracle.add_argument(
        "--cap",
        type=_positive_int,
        default=DEFAULT_PACKING_CAP,
        help=f"vertex cap for the searches (default {DEFAULT_PACKING_CAP})",
    )
    p_oracle.set_defaults(func=cmd_oracle)

    p_bench = sub.add_parser("bench", help="timing sweep over round-robin instances")
    p_bench.add_argument("--m-from", type=_positive_int, required=True)
    p_bench.add_argument("--m-to", type=_positive_int, required=True)
    p_bench.add_argument("--reps", type=_positive_int, default=1)
    p_bench.add_argument("--csv", default=None, help="CSV output path (default stdout)")
    p_bench.set_defaults(func=cmd_bench, usage_error=p_bench.error)

    p_dot = sub.add_parser("dot", help="render a forest as Graphviz DOT, one graph per tree")
    p_dot.add_argument("-f", "--forest", required=True, help="forest document")
    p_dot.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    p_dot.set_defaults(func=cmd_dot)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
