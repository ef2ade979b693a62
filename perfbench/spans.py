"""Per-layer spans for the traced run, installed from outside the package.

The layers are the modules of ``graphheat``. Every module-level public
function (no leading underscore, defined in that module) is wrapped, and
the wrapper is bound in every ``graphheat`` namespace that binds the
function, so calls through ``from .x import f`` aliases are seen too. A
function that a later version deletes simply stops reporting.

A span is (name, start, end, parent span, operation id). A span's self
time is its duration minus the durations of its direct children; a
layer's self time is the sum over its spans. Each operation has a root
span named ``op`` whose self time is the harness's own share.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

LAYERS = (
    "families",
    "graph",
    "covering",
    "spectral",
    "quadrature",
    "observability",
    "control",
    "stochastic",
    "scenarios",
    "cli",
)
ROOT = "op"
VERIFY_MULTI = "observability.verify_weak_obs_multi"

# Function-level metrics named in BENCHMARK.json: the ones an optimisation
# of the ROADMAP hot spots is expected to move.
FUNCTION_METRICS = (
    "graph.build_graph.self_s",
    "graph.covering_radius.self_s",
    "graph.inradius.self_s",
    "graph.max_ball_volume.self_s",
    "graph.max_ball_volume.calls",
    "spectral.eigendecompose.self_s",
    "spectral.eigendecompose.calls",
    "spectral.time_lr_norm.self_s",
    "spectral.time_lr_norm.calls",
    "quadrature.adaptive_simpson.self_s",
    "quadrature.adaptive_simpson.calls",
    "quadrature.golden_max.self_s",
    "quadrature.golden_max.calls",
    "observability.weak_obs_constants.self_s",
    "observability.verify_weak_obs_multi.self_s",
    "observability.up_paper_bound.self_s",
    "observability.up_paper_bound.calls",
    "control.gramian.self_s",
    "control.synth_control.self_s",
    "control.verify_control.self_s",
    "stochastic.sample_ctmc_path.self_s",
    "stochastic.sample_ctmc_path.calls",
    "stochastic.fk_estimate.self_s",
    "stochastic.necessity_bounds_check.self_s",
    "scenarios.run_scenario.self_s",
    "scenarios.emit_report.self_s",
)
# Counters that the hooks below accumulate, reported as they are.
COUNTERS = (
    "quadrature.nodes",
    "observability.inputs",
    "stochastic.paths",
    "stochastic.jumps",
    "stochastic.fk_samples",
    "scenarios.bytes_written",
    "scenarios.files_written",
)
# Ratios and totals that pass_metrics derives from the spans and counters.
DERIVED_METRICS = (
    "observability.recheck_share",
    "stochastic.us_per_path",
    "trace.spans",
    "trace.unattributed_share",
    "trace.op_s",
)


def _is_wrapper(obj) -> bool:
    return hasattr(obj, "__perfbench_original__")


class Tracer:
    """Collects spans and counts while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap the public functions of each layer module in ``modules``."""
        namespaces = [m for name, m in sys.modules.items() if name.split(".")[0] == "graphheat"]
        for layer in LAYERS:
            module = modules[layer]
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, attr, wrapper)
                            self._patches.append((ns, attr, fn))

    def restore(self) -> list[str]:
        """Undo every patch; returns the bindings that are still wrapped."""
        for ns, attr, fn in reversed(self._patches):
            setattr(ns, attr, fn)
        self._patches.clear()
        return [
            f"{name}.{attr}"
            for name, ns in list(sys.modules.items())
            if name.split(".")[0] == "graphheat"
            for attr, value in vars(ns).items()
            if _is_wrapper(value)
        ]

    # -- spans --------------------------------------------------------

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Root span of one operation."""
        self.op_id = op_id
        span = self._open(ROOT)
        try:
            yield
        finally:
            self._close(span)

    def _open(self, name: str) -> list:
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, self.op_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._active[name] += 1
        span[1] = perf_counter_ns()
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter_ns()
        self._stack.pop()
        self._active[span[0]] -= 1

    def _wrap(self, name: str, fn):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(tracer, args, kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if after is not None:
                after(tracer, result)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def take(self) -> tuple[list[list], dict[str, int]]:
        """Hand over the spans and counts collected so far and start afresh."""
        spans, counts = self.spans, dict(self.counts)
        self.spans = []
        self.counts = defaultdict(int)
        return spans, counts


# -- counting hooks ------------------------------------------------------


def _count_nodes(tracer, args, kwargs):
    """Count integrand points by wrapping the callable given to the integrator."""
    counts = tracer.counts

    def counted(fn):
        def integrand(ts):
            counts["quadrature.nodes"] += len(ts)
            return fn(ts)

        return integrand

    if args:
        args = (counted(args[0]),) + tuple(args[1:])
    elif "fn" in kwargs:
        kwargs = dict(kwargs, fn=counted(kwargs["fn"]))
    return args, kwargs


def _count_recheck(tracer, args, kwargs):
    if tracer._active[VERIFY_MULTI]:
        tracer.counts["observability.rechecks"] += 1
    return args, kwargs


def _after_verify(tracer, result):
    tracer.counts["observability.inputs"] += sum(v.n_inputs for v in result)


def _after_path(tracer, path):
    tracer.counts["stochastic.paths"] += 1
    tracer.counts["stochastic.jumps"] += path.jump_count()


def _after_fk(tracer, estimate):
    tracer.counts["stochastic.fk_samples"] += estimate.n_samples


def _after_emit(tracer, paths):
    tracer.counts["scenarios.files_written"] += len(paths)
    tracer.counts["scenarios.bytes_written"] += sum(Path(p).stat().st_size for p in paths)


_BEFORE = {
    "quadrature.adaptive_simpson": _count_nodes,
    "spectral.time_lr_norm": _count_recheck,
}
_AFTER = {
    VERIFY_MULTI: _after_verify,
    "stochastic.sample_ctmc_path": _after_path,
    "stochastic.fk_estimate": _after_fk,
    "scenarios.emit_report": _after_emit,
}


# -- aggregation ---------------------------------------------------------


def self_times(spans: list[list]) -> dict[str, list[int]]:
    """name -> [self time in ns, calls]."""
    child = [0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for i, (name, start, end, _parent, _op) in enumerate(spans):
        entry = out[name]
        entry[0] += end - start - child[i]
        entry[1] += 1
    return out


def pass_metrics(spans: list[list], counts: dict[str, int]) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and the full per-function table."""
    table = self_times(spans)
    op_ns = sum(end - start for name, start, end, _p, _o in spans if name == ROOT)
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        ns = sum(v[0] for k, v in table.items() if k.split(".")[0] == layer)
        metrics[f"{layer}.self_s"] = ns / 1e9
        metrics[f"{layer}.share"] = ns / op_ns if op_ns else 0.0
        metrics[f"{layer}.calls"] = sum(v[1] for k, v in table.items() if k.split(".")[0] == layer)
    for name in FUNCTION_METRICS:
        func, kind = name.rsplit(".", 1)
        ns, calls = table.get(func, (0, 0))
        metrics[name] = ns / 1e9 if kind == "self_s" else calls
    for name in COUNTERS:
        metrics[name] = counts.get(name, 0)
    inputs = counts.get("observability.inputs", 0)
    metrics["observability.recheck_share"] = (
        counts.get("observability.rechecks", 0) / inputs if inputs else 0.0
    )
    paths = counts.get("stochastic.paths", 0)
    path_ns = table.get("stochastic.sample_ctmc_path", (0, 0))[0]
    metrics["stochastic.us_per_path"] = path_ns / 1e3 / paths if paths else 0.0
    metrics["trace.spans"] = len(spans)
    metrics["trace.unattributed_share"] = table[ROOT][0] / op_ns if op_ns else 0.0
    metrics["trace.op_s"] = op_ns / 1e9
    functions = {
        name: {"self_s": ns / 1e9, "calls": calls}
        for name, (ns, calls) in sorted(table.items())
    }
    return metrics, functions


def unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    if last == "self_s" or name == "trace.op_s":
        return "s"
    if last.endswith("share"):
        return "1"
    return {"stochastic.us_per_path": "us", "scenarios.bytes_written": "bytes"}.get(name, "count")


def median_metrics(per_pass: list[dict]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
