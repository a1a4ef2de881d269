"""Spans around urntest's public functions, recorded from outside the package.

Tracer.install replaces each traced function under every name a urntest
module binds it to (urntest.sensitivity.fnch_tail, urntest.report.solve_omega,
...), so every call goes through exactly one wrapper and records exactly
one span. Spans stay in memory until the run ends. A span's parent is the
innermost traced call open when it started, so a layer's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict

# Layer functions, by defining module. Each becomes a span named after it.
TRACED = (
    "cli.main",
    "ledger.parse_ledger",
    "report.render",
    "report.summarize_urn",
    "urn.build_plus_one_urn",
    "urn.p_upper",
    "urn.null_distribution",
    "sensitivity.solve_omega",
    "sensitivity.sweep_curve",
    "sensitivity.weight_omega_grid",
    "biased.fnch_tail",
    "biased.fnch_pmf",
    "oracle.monte_carlo",
)
# Spans that also record their tracemalloc peak (numpy reports its buffers).
ALLOC_TRACED = ("oracle.monte_carlo",)
# Urn-size band split for fnch_tail cost: a property of the input, not a
# probe of the package's own evaluation-path constant.
SMALL_URN_ITEMS = 300


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self):
        modules = [m for name, m in list(sys.modules.items()) if name == "urntest" or name.startswith("urntest.")]
        for qualname in TRACED:
            module_name, _, attr = qualname.rpartition(".")
            original = getattr(importlib.import_module(f"urntest.{module_name}"), attr)
            wrapper = self._wrap(qualname, original)
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    setattr(module, key, wrapper)
                    self._patched.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        measure_alloc = name in ALLOC_TRACED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "op": self.op, "parent": self._stack[-1] if self._stack else None}
            total = getattr(args[0], "total", None) if args else None
            if isinstance(total, int):
                span["urn_items"] = total
            self._stack.append(len(self.spans))
            self.spans.append(span)
            if measure_alloc:
                tracemalloc.start()
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                if measure_alloc:
                    span["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                self._stack.pop()

        return traced


def merge(span_lists):
    """Concatenate per-process span lists, re-indexing parent links."""
    merged = []
    for spans in span_lists:
        base = len(merged)
        for span in spans:
            merged.append(dict(span, parent=None if span["parent"] is None else span["parent"] + base))
    return merged


def layer_metrics(spans, op_seconds, import_ms, plain_seconds) -> dict:
    """Per-layer metrics of one traced slice; None where the layer never ran.

    op_seconds are the slice's per-operation wall times, plain_seconds the
    same operations untraced. import_ms is the package import time, given
    only when each operation is a fresh process.
    """
    by_name = defaultdict(list)
    child_s = defaultdict(float)
    for i, span in enumerate(spans):
        span["index"] = i
        by_name[span["name"]].append(span)
        if span["parent"] is not None:
            child_s[span["parent"]] += span["end"] - span["start"]

    def dur(span):
        return span["end"] - span["start"]

    def mean(values, scale):
        return statistics.fmean(values) * scale if values else None

    def total_ms(name):
        return mean([dur(s) for s in by_name[name]], 1e3)

    def self_ms(name):
        return mean([dur(s) - child_s[s["index"]] for s in by_name[name]], 1e3)

    def calls(name):
        return len(by_name[name]) or None

    solves = by_name["sensitivity.solve_omega"]
    solve_ids = {s["index"] for s in solves}
    tails = by_name["biased.fnch_tail"]
    small = [dur(s) for s in tails if s.get("urn_items", 0) <= SMALL_URN_ITEMS]
    large = [dur(s) for s in tails if s.get("urn_items", 0) > SMALL_URN_ITEMS]
    allocs = [s["peak_alloc_mb"] for s in by_name["oracle.monte_carlo"]]
    busy_s = sum(op_seconds)
    return {
        "import.share_pct": (
            None if import_ms is None else 100 * import_ms / (1e3 * statistics.median(plain_seconds))
        ),
        "cli.main_ms": total_ms("cli.main"),
        "cli.self_ms": self_ms("cli.main"),
        "ledger.parse_ledger_ms": total_ms("ledger.parse_ledger"),
        "report.render_ms": total_ms("report.render"),
        "urn.null_distribution_ms": total_ms("urn.null_distribution"),
        "report.summarize_urn.self_ms": self_ms("report.summarize_urn"),
        "urn.p_upper_ms": total_ms("urn.p_upper"),
        "urn.build_plus_one_urn_ms": total_ms("urn.build_plus_one_urn"),
        "sensitivity.solve_omega.calls": calls("sensitivity.solve_omega"),
        "sensitivity.solve_omega_ms": total_ms("sensitivity.solve_omega"),
        "sensitivity.solve_omega.tail_evals_per_call": (
            sum(1 for s in tails if s["parent"] in solve_ids) / len(solves) if solves else None
        ),
        "sensitivity.solve_omega.share_pct": (
            100 * sum(dur(s) for s in solves) / busy_s if solves else None
        ),
        "sensitivity.sweep_curve_ms": total_ms("sensitivity.sweep_curve"),
        "sensitivity.weight_omega_grid_ms": total_ms("sensitivity.weight_omega_grid"),
        "biased.fnch_tail.calls": calls("biased.fnch_tail"),
        "biased.fnch_tail.small_us_per_call": mean(small, 1e6),
        "biased.fnch_tail.large_us_per_call": mean(large, 1e6),
        "biased.fnch_pmf.calls": calls("biased.fnch_pmf"),
        "biased.fnch_pmf.us_per_call": mean([dur(s) for s in by_name["biased.fnch_pmf"]], 1e6),
        "oracle.monte_carlo_ms": total_ms("oracle.monte_carlo"),
        "oracle.monte_carlo.peak_alloc_mb": max(allocs) if allocs else None,
    }
