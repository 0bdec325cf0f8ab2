"""Runs one benchmark workload in this process and prints its result as JSON.

Started by run.py with the checkout's ``src`` on PYTHONPATH, so that the
peak memory of the process tree is the workload's own. Every workload is a
closed loop with one client and no threads: an operation starts only when
the previous one has finished. It runs whole passes over its operations
until ``--seconds`` have gone by (always at least one pass).

With ``--trace 0`` it times set-up and operations. With ``--trace 1`` it
times untraced passes for half of ``--seconds``, then traces one set-up and
one pass with the wrappers from tracing.py, and reports per-layer totals of
that pass plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

# an instance at n = 8 has 2318 rainbow spanning trees and packs 4 disjoint
# ones, whatever the proper coloring (all are relabelled round-robins)
ORACLE_TREES_N8 = 2318
ORACLE_PACKING_N8 = 4


def omega(m: int) -> int:
    """The promised tree count, recomputed here rather than taken from the package."""
    return math.isqrt(6 * m + 9) // 3


def check_verdict(verdict: str, tree_count: int, m: int) -> str | None:
    if verdict != "pass":
        return f"verdict {verdict!r}"
    if tree_count != omega(m):
        return f"{tree_count} trees, expected omega({m}) = {omega(m)}"
    return None


class Workload:
    """Set-up and operations of one workload.

    ``setup()`` produces and loads the inputs; ``ops(state)`` lists the
    operations of one pass as ``(key, fn)``. ``fn()`` returns
    ``(build_s, verify_s, forest_bytes, problem)``: ``forest_bytes`` must
    match those of the first pass with the same key, and ``problem`` is None
    or the reason the operation failed. The traced run uses
    ``replay_setup``/``replay_ops``, which run in this process.
    """

    name = ""

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir

    def setup(self):
        raise NotImplementedError

    def ops(self, state):
        raise NotImplementedError

    def replay_setup(self, tracer):
        return self.setup()

    def replay_ops(self, state, tracer):
        return self.ops(state)

    def layer_extras(self) -> dict:
        """Per-layer values the wrappers cannot see, such as CLI start-up."""
        return {"cli.startup_s": 0.0, "cli.bytes_read": 0, "cli.bytes_written": 0}

    def detail(self) -> dict:
        return {}


def _api_op(rt, coloring, policy):
    def op():
        t0 = time.perf_counter()
        forest, trace = rt.build_forest(coloring, policy=policy, trace_on=True)
        t1 = time.perf_counter()
        report = rt.verify_all(coloring, forest, trace)
        t2 = time.perf_counter()
        verdict = "pass" if report.verdict else "fail"
        problem = check_verdict(verdict, len(forest.trees), coloring.m)
        # serialized outside the timed region; a traced run counts it under forest
        return t1 - t0, t2 - t1, rt.forest_to_json(forest), problem

    return op


class CliLarge(Workload):
    """Why: the only workload that crosses the file formats, trace
    (de)serialization and interpreter start-up; it is dominated by Theta(n^2)
    input work (JSON parsing, validate_proper, the digest computed twice).

    One instance at m = 400 (n = 800, 16 trees). Set-up is ``gen``; each
    operation runs ``build --trace`` and then ``verify -t`` as subprocesses
    on temporary files. m = 800 costs about 30 s per operation, too long for
    a run.
    """

    name = "cli-large"

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.m = 6 if smoke else 400
        self.coloring_path = workdir / "c.json"
        self.forest_path = workdir / "f.json"
        self.trace_path = workdir / "t.jsonl"
        self.child_rss_kb = {"gen": 0, "build": 0, "verify": 0}
        self.trace_bytes = 0
        self.cli_bytes = {"read": 0, "written": 0}

    def _cli(self, *argv):
        """Run one CLI command; returns (seconds, exit code, stdout bytes)."""
        out_path = self.workdir / "stdout"
        err_path = self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "rainbowtrees", *argv],
                stdout=out,
                stderr=err,
                cwd=self.workdir,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        cmd = argv[0]
        self.child_rss_kb[cmd] = max(self.child_rss_kb[cmd], usage.ru_maxrss)
        return elapsed, proc.returncode, out_path.read_bytes()

    def _gen_argv(self):
        return ["gen", "--m", str(self.m), "--permute-seed", str(self.seed), "-o", str(self.coloring_path)]

    def _build_argv(self):
        c, f, t = self.coloring_path, self.forest_path, self.trace_path
        return ["build", "-i", str(c), "-o", str(f), "--trace", str(t)]

    def _verify_argv(self):
        c, f, t = self.coloring_path, self.forest_path, self.trace_path
        return ["verify", "-i", str(c), "-f", str(f), "-t", str(t)]

    def setup(self):
        _, code, _ = self._cli(*self._gen_argv())
        if code != 0:
            raise RuntimeError(f"gen exited with {code}")

    def _finish(self, build_code, verify_code, report_bytes):
        if build_code != 0:
            return f"build exited with {build_code}"
        if verify_code != 0:
            return f"verify exited with {verify_code}"
        try:
            report = json.loads(report_bytes)
            return check_verdict(report["verdict"], report["tree_count"], self.m)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable verify report: {exc}"

    def ops(self, state):
        def op():
            build_s, build_code, _ = self._cli(*self._build_argv())
            verify_s, verify_code, report = self._cli(*self._verify_argv())
            problem = self._finish(build_code, verify_code, report)
            forest = self.forest_path.read_bytes() if self.forest_path.exists() else b""
            if self.trace_path.exists():
                self.trace_bytes = self.trace_path.stat().st_size
            return build_s, verify_s, forest, problem

        return [("pipeline", op)]

    def _replay(self, tracer, argv):
        """Run one command through the CLI's main() in this process."""
        from rainbowtrees import cli

        captured = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        rec = tracer.open(f"cli.{argv[0]}") if tracer else None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                code = cli.main(argv)
                captured.flush()
        finally:
            if rec is not None:
                tracer.close(rec)
        return time.perf_counter() - t0, code, captured.buffer.getvalue()

    def replay_setup(self, tracer):
        _, code, _ = self._replay(tracer, self._gen_argv())
        if code != 0:
            raise RuntimeError(f"gen exited with {code}")
        if tracer:
            self.cli_bytes["written"] += self.coloring_path.stat().st_size
        return None

    def replay_ops(self, state, tracer):
        def op():
            build_s, build_code, _ = self._replay(tracer, self._build_argv())
            verify_s, verify_code, report = self._replay(tracer, self._verify_argv())
            problem = self._finish(build_code, verify_code, report)
            if tracer:
                c, f, t = (p.stat().st_size for p in (self.coloring_path, self.forest_path, self.trace_path))
                self.cli_bytes["read"] += c + (c + f + t)  # build reads c; verify reads c, f, t
                self.cli_bytes["written"] += f + t + len(report)
            return build_s, verify_s, self.forest_path.read_bytes(), problem

        return [("pipeline", op)]

    def layer_extras(self):
        runs = []
        for _ in range(1 if self.smoke else 5):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import rainbowtrees"], check=True, cwd=self.workdir)
            runs.append(time.perf_counter() - t0)
        return {
            "cli.startup_s": statistics.median(runs),
            "cli.bytes_read": self.cli_bytes["read"],
            "cli.bytes_written": self.cli_bytes["written"],
        }

    def detail(self):
        return {
            "m": self.m,
            "trace_file_bytes": self.trace_bytes,
            "child_peak_rss_mb": {k: v / 1024 for k, v in self.child_rss_kb.items()},
        }


class ApiSweep(Workload):
    """Why: with parsing out of the loop, the constructor, the forest swap
    primitives and the verifier's trace re-derivation carry the work, next
    to the digest recomputed on every call; digest caching and an O(1) leaf
    exchange show here.

    One instance at m = 300, produced and parsed once as set-up; a pass runs
    build_forest(trace_on=True) then verify_all under the policies min, max
    and random(seed + j) for j = 0..3.
    """

    name = "api-sweep"

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.m = 12 if smoke else 300

    def setup(self):
        import rainbowtrees as rt

        document = rt.serialize_coloring(rt.permuted_round_robin(self.m, self.seed))
        return rt.parse_coloring(document)

    def ops(self, coloring):
        import rainbowtrees as rt

        policies = [("min", rt.MIN_INDEX), ("max", rt.MAX_INDEX)]
        policies += [(f"random{j}", rt.random_policy(self.seed + j)) for j in range(4)]
        return [(key, _api_op(rt, coloring, policy)) for key, policy in policies]


class OracleDesk(Workload):
    """Why: the oracle layer does all of the work here and none anywhere
    else; without this workload it would go unmeasured.

    16 seeded instances at n = 8. Each operation runs the packing search
    (reported as its build) and then the enumeration (reported as its
    verify), and checks 4 disjoint trees and 2318 trees. n = 10 is left out:
    one enumeration there takes 12 s.
    """

    name = "oracle-desk"

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.count = 1 if smoke else 16

    def setup(self):
        import rainbowtrees as rt

        return [rt.permuted_round_robin(4, self.seed * 16 + j) for j in range(self.count)]

    def ops(self, colorings):
        import rainbowtrees as rt

        def make(coloring):
            def op():
                t0 = time.perf_counter()
                packing = rt.max_disjoint_rainbow_trees(coloring)
                t1 = time.perf_counter()
                trees = rt.enumerate_rainbow_spanning_trees(coloring)
                t2 = time.perf_counter()
                problem = None
                if packing != ORACLE_PACKING_N8:
                    problem = f"packing {packing}, expected {ORACLE_PACKING_N8}"
                elif len(trees) != ORACLE_TREES_N8:
                    problem = f"{len(trees)} trees, expected {ORACLE_TREES_N8}"
                return t1 - t0, t2 - t1, None, problem

            return op

        return [(j, make(c)) for j, c in enumerate(colorings)]


WORKLOADS = {cls.name: cls for cls in (CliLarge, ApiSweep, OracleDesk)}


class Samples:
    """Timings and outcomes of the operations of one run."""

    def __init__(self):
        self.build: list[float] = []
        self.verify: list[float] = []
        self.pipeline: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self._first_sha: dict = {}

    def run_pass(self, ops) -> float:
        """Run every operation once; returns the summed build+verify time."""
        total = 0.0
        for key, fn in ops:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                build_s, verify_s, forest, problem = fn()
            except Exception as exc:  # a failed operation is counted, never fatal
                elapsed = time.perf_counter() - t0
                self.pipeline.append(elapsed)
                total += elapsed
                self.failures.append(f"{key}: {type(exc).__name__}: {exc}")
                continue
            self.build.append(build_s)
            self.verify.append(verify_s)
            self.pipeline.append(build_s + verify_s)
            total += build_s + verify_s
            if forest is not None and problem is None:
                sha = hashlib.sha256(forest).hexdigest()
                if self._first_sha.setdefault(key, sha) != sha:
                    problem = "forest bytes differ from the first pass"
            if problem is not None:
                self.failures.append(f"{key}: {problem}")
        return total

    def run_passes(self, ops, seconds: float) -> list[float]:
        """Whole passes until ``seconds`` have gone by; at least one."""
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(self.run_pass(ops))
            if time.perf_counter() - start >= seconds:
                return passes


def summary(values: list[float]) -> dict:
    """Median plus the highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered) if ordered else None, "samples": n, "p": None, "value": None}
    for p in (99.9, 99, 95, 90, 75, 50):
        idx = max(math.ceil(p / 100 * n) - 1, 0)
        if n - (idx + 1) >= 10:
            out["p"], out["value"] = p, ordered[idx]
            break
    return out


def measure(wl: Workload, seconds: float) -> dict:
    # set up at least three times and for at least five seconds, so that the
    # median spans more than a moment of a shared machine; report the median
    setup_s = []
    state = None
    while True:
        state = None  # free the previous inputs outside the timed region
        t0 = time.perf_counter()
        state = wl.setup()
        setup_s.append(time.perf_counter() - t0)
        enough = len(setup_s) >= 3 and sum(setup_s) >= 5.0
        if wl.smoke or enough or len(setup_s) >= 5000:
            break
    samples = Samples()
    passes = samples.run_passes(wl.ops(state), seconds)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "pipeline_s": (statistics.median(samples.pipeline), "s"),
        # an operation that raised has no build/verify split
        "build_s": (statistics.median(samples.build) if samples.build else 0.0, "s"),
        "verify_s": (statistics.median(samples.verify) if samples.verify else 0.0, "s"),
        "instances_per_s": (len(samples.pipeline) / sum(samples.pipeline), "1/s"),
    }
    detail = {
        "passes": len(passes),
        "setup_repeats": len(setup_s),
        "timings": {
            "setup_s": summary(setup_s),
            "pipeline_s": summary(samples.pipeline),
            "build_s": summary(samples.build),
            "verify_s": summary(samples.verify),
        },
        **wl.detail(),
    }
    return _result(samples, metrics, detail)


def profile(wl: Workload, seconds: float, package) -> dict:
    samples = Samples()
    state = wl.replay_setup(None)
    untraced = samples.run_passes(wl.replay_ops(state, None), seconds / 2)
    state = None
    tracer = tracing.Tracer()
    tracer.install(package)
    try:
        state = wl.replay_setup(tracer)
        traced_total = 0.0
        for op_id, (key, fn) in enumerate(wl.replay_ops(state, tracer), start=1):
            tracer.op = op_id
            traced_total += samples.run_pass([(key, fn)])
    finally:
        tracer.uninstall()
    untraced_total = statistics.median(untraced)
    metrics = tracer.layer_metrics(traced_total)
    metrics["trace.overhead_s"] = (traced_total - untraced_total, "s")
    metrics["trace.overhead_frac"] = (
        (traced_total - untraced_total) / untraced_total if untraced_total else 0.0,
        "ratio",
    )
    units = {"cli.startup_s": "s", "cli.bytes_read": "B", "cli.bytes_written": "B"}
    for name, value in wl.layer_extras().items():
        metrics[name] = (value, units[name])
    spans_path = OUT_DIR / f"spans-{wl.name}-seed{wl.seed}.jsonl"
    tracer.write_spans(spans_path)
    detail = {
        "untraced_passes": len(untraced),
        "untraced_pass_s": untraced_total,
        "traced_pass_s": traced_total,
        "span_root_sum_error_s": tracer.root_sum_error(),
        "missing_metrics": tracer.missing,
        "hook_errors": tracer.hook_errors,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return _result(samples, metrics, detail)


def _result(samples: Samples, metrics: dict, detail: dict) -> dict:
    detail["failed_frac"] = len(samples.failures) / samples.attempted
    detail["failures"] = samples.failures[:20]
    return {
        "attempted": samples.attempted,
        "failed": len(samples.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "detail": detail,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    import rainbowtrees

    src = (ROOT / "src").resolve()
    if src not in Path(rainbowtrees.__file__).resolve().parents:
        print(f"error: imported rainbowtrees from {rainbowtrees.__file__}, not {src}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        wl = WORKLOADS[args.workload](args.seed, args.smoke, Path(tmp))
        if args.trace:
            result = profile(wl, args.seconds, rainbowtrees)
        else:
            result = measure(wl, args.seconds)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
