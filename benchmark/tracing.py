"""Spans and counters around the public functions of each rainbowtrees layer.

The wrappers live in the benchmark, not in the package. ``Tracer.install``
replaces each listed function in every rainbowtrees module namespace that
bound it (the constructor, for instance, imports ``apply_swap`` from
``forest``), and ``Tracer.uninstall`` puts the originals back. A listed
function that no longer exists is recorded as missing, and its metrics are
left out instead of failing the run.

A span is ``[name, start, end, parent, op]``: the parent is the index of the
enclosing span (-1 for a root) and ``op`` numbers the operation that caused
it (0 is the workload's set-up). Spans stay in memory until ``write_spans``.
A span's self time is its duration minus the durations of its direct
children; spans nest strictly, so the self times of a tree sum to its root.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from collections import Counter

LAYERS = ("coloring", "constructor", "forest", "verifier", "oracle", "cli")

# module -> public functions wrapped in that module (and wherever it is re-bound)
TARGETS = {
    "coloring": (
        "round_robin",
        "permute_coloring",
        "validate_proper",
        "serialize_coloring",
        "parse_coloring",
        "EdgeColoring.digest",
    ),
    "constructor": (
        "build_forest",
        "begin_round",
        "admissible_candidates",
        "revise_tree",
        "extend_kth_partial",
        "finalize_kth",
        "trace_to_jsonl",
        "trace_from_jsonl",
    ),
    "forest": (
        "base_star",
        "apply_swap",
        "RainbowTree.from_edges",
        "spans",
        "forest_to_json",
        "parse_forest",
    ),
    "verifier": (
        "verify_all",
        "verify_rainbow_spanning_tree",
        "verify_edge_disjoint",
        "verify_structure_f",
        "verify_trace_bounds",
    ),
    "oracle": ("enumerate_rainbow_spanning_trees", "max_disjoint_rainbow_trees"),
}

CLI_COMMANDS = ("gen", "build", "verify")


def _count_filter(tracer, args, result):
    # survivors of the R1-R11 filter against the pool it started from
    tracer.counts["filter_survivors"] += len(result)
    tracer.counts["filter_pool"] += len(args[0].lstar)


def _count_from_edges(tracer, args, result):
    edges = len(args[2])  # (cls, root, edges, n, ...)
    tracer.counts["from_edges_edges"] += edges
    parent = tracer.current_parent()
    if parent is not None and parent[0] == "forest.apply_swap":
        tracer.counts["swap_rebuilt_edges"] += edges


def _count_enumerated(tracer, args, result):
    tracer.counts["trees_enumerated"] += len(result)


def _count_trace_bytes(tracer, args, result):
    tracer.counts["trace_bytes"] += len(result)


HOOKS = {
    "constructor.admissible_candidates": _count_filter,
    "forest.RainbowTree.from_edges": _count_from_edges,
    "oracle.enumerate_rainbow_spanning_trees": _count_enumerated,
    "constructor.trace_to_jsonl": _count_trace_bytes,
}


class Tracer:
    """Records spans, counters and garbage-collector pauses for one run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.gc_events: list[tuple[str, int, float]] = []  # (layer, op, seconds)
        self.missing: list[str] = []
        self.hook_errors: list[str] = []
        self.op = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._gc_started = 0.0

    # -- spans -----------------------------------------------------------

    def current_parent(self):
        """The span enclosing the innermost open one, or None."""
        if len(self._stack) < 2:
            return None
        return self.spans[self._stack[-2]]

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            rec = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    try:
                        hook(tracer, args, result)
                    except (AttributeError, IndexError, TypeError) as exc:
                        tracer.hook_errors.append(f"{name}: {exc}")
                return result
            finally:
                tracer.close(rec)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- install / uninstall ---------------------------------------------

    def install(self, package) -> None:
        prefix = package.__name__
        modules = [
            mod
            for mod_name, mod in list(sys.modules.items())
            if mod is not None and (mod_name == prefix or mod_name.startswith(prefix + "."))
        ]
        for layer, names in TARGETS.items():
            mod = sys.modules.get(f"{prefix}.{layer}")
            for qual in names:
                label = f"{layer}.{qual}"
                if "." in qual:
                    self._install_method(mod, qual, label)
                else:
                    self._install_function(mod, modules, qual, label)
        gc.callbacks.append(self._on_gc)

    def _install_function(self, mod, modules, qual, label) -> None:
        orig = getattr(mod, qual, None)
        if not callable(orig):
            self.missing.append(label)
            return
        wrapped = self._wrap(label, orig)
        for other in modules:
            for key, value in list(vars(other).items()):
                if value is orig:
                    setattr(other, key, wrapped)
                    self._restore.append((other, key, orig))

    def _install_method(self, mod, qual, label) -> None:
        cls_name, attr = qual.split(".")
        cls = getattr(mod, cls_name, None)
        raw = vars(cls).get(attr) if isinstance(cls, type) else None
        if raw is None:
            self.missing.append(label)
            return
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(label, raw.__func__))
        elif callable(raw):
            new = self._wrap(label, raw)
        else:
            self.missing.append(label)
            return
        setattr(cls, attr, new)
        self._restore.append((cls, attr, raw))

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        elapsed = time.perf_counter() - self._gc_started
        layer = self.spans[self._stack[-1]][0].split(".")[0] if self._stack else "none"
        self.gc_events.append((layer, self.op, elapsed))

    # -- summaries -------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def root_sum_error(self) -> float:
        """Largest gap between a root span and the summed self times of its tree."""
        own = self.self_times()
        root_of = []
        totals: dict[int, float] = {}
        for idx, (_, _, _, parent, _) in enumerate(self.spans):
            root = idx if parent < 0 else root_of[parent]
            root_of.append(root)
            totals[root] = totals.get(root, 0.0) + own[idx]
        return max(
            (abs(total - (self.spans[r][2] - self.spans[r][1])) for r, total in totals.items()),
            default=0.0,
        )

    def layer_metrics(self, op_wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of everything traced; ``op_wall_s`` is the time
        the traced operations took, the base of every share."""
        own = self.self_times()
        self_s: Counter = Counter()
        calls: Counter = Counter()
        total_s: Counter = Counter()
        outer_op_total: Counter = Counter()  # outermost spans of a name, operations only
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            self_s[name] += own[idx]
            calls[name] += 1
            total_s[name] += end - start
            if op > 0 and not self._has_ancestor(idx, name):
                outer_op_total[name] += end - start

        out: dict[str, tuple[float, str]] = {}
        for layer, names in TARGETS.items():
            for qual in names:
                label = f"{layer}.{qual}"
                if label in self.missing:
                    continue
                out[f"{label}.self_s"] = (self_s[label], "s")
                out[f"{label}.calls"] = (calls[label], "count")
        c = self.counts
        if "constructor.begin_round" not in self.missing:
            out["constructor.rounds"] = (calls["constructor.begin_round"], "count")
        if "constructor.admissible_candidates" not in self.missing:
            out["constructor.steps"] = (calls["constructor.admissible_candidates"], "count")
            out["constructor.filter_pool"] = (c["filter_pool"], "count")
            out["constructor.filter_survival"] = (
                _ratio(c["filter_survivors"], c["filter_pool"]),
                "ratio",
            )
        if "constructor.trace_to_jsonl" not in self.missing:
            out["constructor.trace_bytes"] = (c["trace_bytes"], "B")
        for label in ("constructor.build_forest", "verifier.verify_all"):
            if label not in self.missing:
                out[f"{label}.self_frac"] = (
                    _ratio(self_s[label], total_s[label]),
                    "ratio",
                )
        if "forest.RainbowTree.from_edges" not in self.missing:
            out["forest.from_edges.edges"] = (c["from_edges_edges"], "count")
            if "forest.apply_swap" not in self.missing:
                out["forest.edges_rebuilt_per_swap"] = (
                    _ratio(c["swap_rebuilt_edges"], calls["forest.apply_swap"]),
                    "count",
                )
        if "oracle.enumerate_rainbow_spanning_trees" not in self.missing:
            out["oracle.trees_enumerated"] = (c["trees_enumerated"], "count")
        for cmd in CLI_COMMANDS:
            out[f"cli.{cmd}.self_s"] = (self_s[f"cli.{cmd}"], "s")
        if "coloring.EdgeColoring.digest" not in self.missing:
            out["coloring.digest_share"] = (
                _ratio(outer_op_total["coloring.EdgeColoring.digest"], op_wall_s),
                "ratio",
            )
        if "coloring.parse_coloring" not in self.missing:
            out["coloring.parse_share"] = (
                _ratio(outer_op_total["coloring.parse_coloring"], op_wall_s),
                "ratio",
            )
        gc_s: Counter = Counter()
        gc_n: Counter = Counter()
        gc_op_s = 0.0
        for layer, op, elapsed in self.gc_events:
            gc_s[layer] += elapsed
            gc_n[layer] += 1
            if op > 0:
                gc_op_s += elapsed
        out["python.gc_s"] = (sum(gc_s.values()), "s")
        out["python.gc_collections"] = (sum(gc_n.values()), "count")
        out["python.gc_share"] = (_ratio(gc_op_s, op_wall_s), "ratio")
        for layer in LAYERS:
            out[f"python.gc_s.{layer}"] = (gc_s[layer], "s")
            out[f"python.gc_collections.{layer}"] = (gc_n[layer], "count")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def _has_ancestor(self, idx: int, name: str) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write_spans(self, path) -> None:
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start - base,
                            "end": end - base,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
