"""Benchmark for rainbowtrees: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout; needs only the standard library and the
package sources under ``src/``:

    python3 benchmark/run.py --workload api-sweep --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --all --seed 1 --seconds 30     # every workload, both modes
    python3 benchmark/run.py --smoke                          # tiny sizes, checks metric names

A single run starts worker.py as a child process with ``src`` on
PYTHONPATH, so the child's peak memory (and that of the CLI processes it
waits for) is the workload's own. It prints a line with the details
(environment, percentiles, failures, overhead) and, as its last line, the
result: ``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("cli-large", "api-sweep", "oracle-desk")
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def environment(seed: int) -> dict:
    revision = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        revision = proc.stdout.strip() or None
    src_lines = sum(
        len(path.read_bytes().splitlines()) for path in sorted(SRC.rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "git_revision": revision,
        "seed": seed,
        "src_lines": src_lines,
    }


def _argv(script: Path, workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> list[str]:
    argv = [sys.executable, str(script), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    return argv + (["--smoke"] if smoke else [])


def run_worker(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """Run one workload in a child process; adds its peak memory when untraced."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    argv = _argv(BENCH_DIR / "worker.py", workload, seed, seconds, trace, smoke)
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} did not finish within {WORKER_TIMEOUT_S} s")
    # the largest process this parent waited for, CLI grandchildren included
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    lines = out.decode("utf-8").strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} worker printed no result")
    result = json.loads(lines[-1])
    if not trace:
        result["metrics"]["peak_rss_mb"] = {"value": peak_kb / 1024, "unit": "MB"}
    return result


def single(args) -> int:
    result = run_worker(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    detail = dict(result.pop("detail"), workload=args.workload, trace=args.trace)
    detail["environment"] = environment(args.seed)
    print(json.dumps({"detail": detail}))
    result["correct"] = result["failed"] == 0
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_self(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> tuple[dict, dict]:
    """One single run in its own process, so peak memory covers that run alone."""
    argv = _argv(Path(__file__).resolve(), workload, seed, seconds, trace, smoke)
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, timeout=WORKER_TIMEOUT_S + 10)
    if proc.returncode != 0:
        raise BenchError(f"{workload} trace={trace} failed: {proc.stderr.decode(errors='replace')}")
    lines = proc.stdout.decode("utf-8").strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def run_all(args) -> int:
    """Every workload untraced and traced; prints and optionally saves the lot."""
    doc = {"environment": environment(args.seed), "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        entry = {"attempted": 0, "failed": 0}
        for trace in (0, 1):
            detail, result = run_self(workload, args.seed, args.seconds, trace, args.smoke)
            detail.pop("environment", None)
            entry["per_layer" if trace else "end_to_end"] = result["metrics"]
            entry["detail_traced" if trace else "detail"] = detail
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            ok = ok and result["correct"]
        doc["workloads"][workload] = entry
    # where the time goes, named by the workload each share is about
    doc["shares"] = {
        workload: {
            name: doc["workloads"][workload]["per_layer"].get(name, {}).get("value")
            for name in ("coloring.digest_share", "coloring.parse_share", "python.gc_share")
        }
        for workload in WORKLOADS
    }
    if args.smoke:
        ok = smoke_check(doc) and ok
    text = json.dumps(doc, indent=1, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0 if ok else 1


# per-layer calls that must be nonzero on a workload: the layers it exercises
EXERCISED = {
    "cli-large": ("coloring.parse_coloring", "constructor.trace_to_jsonl", "constructor.trace_from_jsonl", "forest.parse_forest", "verifier.verify_all"),
    "api-sweep": ("constructor.build_forest", "forest.apply_swap", "verifier.verify_trace_bounds"),
    "oracle-desk": ("oracle.enumerate_rainbow_spanning_trees", "oracle.max_disjoint_rainbow_trees"),
}


def smoke_check(doc: dict) -> bool:
    """Every metric named in BENCHMARK.json is emitted, with its unit, on every
    workload; each workload exercises the layers it exists for."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload, entry in doc["workloads"].items():
        for kind in ("end_to_end", "per_layer"):
            got = entry[kind]
            for metric in spec[kind]:
                name = metric["name"]
                if name not in got:
                    problems.append(f"{workload}: {kind} metric {name} missing")
                elif got[name]["unit"] != metric["unit"]:
                    problems.append(f"{workload}: {name} unit {got[name]['unit']} != {metric['unit']}")
            for name in set(got) - {m["name"] for m in spec[kind]}:
                problems.append(f"{workload}: {kind} metric {name} not in BENCHMARK.json")
        for name in spec["end_to_end"]:
            value = entry["end_to_end"].get(name["name"], {}).get("value")
            if not value:
                problems.append(f"{workload}: end-to-end metric {name['name']} is {value}")
        for label in EXERCISED[workload]:
            if not entry["per_layer"].get(f"{label}.calls", {}).get("value"):
                problems.append(f"{workload}: {label} was never called")
        if entry["detail_traced"]["span_root_sum_error_s"] > 1e-6:
            problems.append(f"{workload}: self times do not sum to their root spans")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    return not problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes and one pass; without --workload, runs all and checks metric names")
    parser.add_argument("--out", help="with --all or --smoke: also write the collected JSON here")
    args = parser.parse_args(argv)
    if not (SRC / "rainbowtrees" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC}; run from a rainbowtrees checkout", file=sys.stderr)
        return 2
    if args.smoke:
        args.seconds = 0
    try:
        if args.workload is not None:
            return single(args)
        if args.all or args.smoke:
            return run_all(args)
        parser.error("give --workload, --all or --smoke")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
