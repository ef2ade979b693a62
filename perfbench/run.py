"""graphheat benchmark: one closed-loop caller per workload, end-to-end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs every operation twice, untraced and traced in
alternating order, checks that both give the same outputs, and reports
the per-layer metrics of the traced copies plus the tracing overhead.

The work of a run is fixed by the workload and ``--seconds``: a run makes
round(seconds / nominal pass time) passes over the seed's inputs (at least
one, and at least 11 operations untraced), where the nominal pass time was
measured at the commit that defined the benchmark. A faster program
therefore finishes sooner but does the same work, so counts, percentiles
and memory stay comparable. End-to-end times are calibrated against a
fixed kernel timed around each operation (see ``CALIBRATION_S``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Human-readable
lines, the environment record and (traced runs) the per-layer table come
before it; ``.perfbench_out/`` keeps a JSON copy of each result and the
spans of the first traced pass.
"""

from __future__ import annotations

import os

# Fixed before numpy is imported, and the same on every commit.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import gc
import hashlib
import importlib
import json
import platform
import resource
import shutil
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns
from types import SimpleNamespace

import numpy as np
import scipy
import scipy.linalg  # imported by graphheat; loaded here so set-up times graphheat alone
from scipy.stats.mstats import hdquantiles

import reference
import spans
from workloads import WORKLOADS, write_scenarios

SETUP_REPEATS = 5
OUT_DIR = ".perfbench_out"
WORK_DIR = ".perfbench_work"


# ---------------------------------------------------------------------------
# set-up


def import_graphheat(src: Path):
    """Import a fresh copy of graphheat from ``src`` (no state kept from an
    earlier import, so every set-up starts with empty library caches)."""
    for name in [m for m in sys.modules if m.split(".")[0] == "graphheat"]:
        del sys.modules[name]
    package = importlib.import_module("graphheat")
    if Path(package.__file__).resolve().parent != (src / "graphheat").resolve():
        raise ImportError(f"graphheat imported from {package.__file__}, not from {src}")
    return SimpleNamespace(
        errors=importlib.import_module("graphheat.errors"),
        **{layer: importlib.import_module(f"graphheat.{layer}") for layer in spans.LAYERS},
    )


class Harness:
    """Runs one workload's operations and checks each against the reference."""

    def __init__(self, workload, seed: int, src: Path, workdir: Path, refs: dict):
        self.workload = workload
        self.seed = seed
        self.src = src
        self.workdir = workdir
        self.refs = refs
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {}  # raw durations, kept in the result file
        self.gh = None
        self.inputs: list = []

    def set_up(self) -> float:
        t0 = perf_counter_ns()
        self.gh = import_graphheat(self.src)
        self.inputs = self.workload.inputs(self.seed)
        warm_up = self.workload.warm_up_input()
        if self.workload.prepare is not None:
            write_scenarios([warm_up] + self.inputs, self.workdir)
        self.run_op(warm_up)  # discarded
        return (perf_counter_ns() - t0) / 1e9

    def run_op(self, inp, tracer=None, op_id: int = -1):
        """Time one operation; returns (seconds, record or None on failure)."""
        w = self.workload
        if w.prepare is not None:
            w.prepare(inp, self.workdir)
        t0 = perf_counter_ns()
        try:
            if tracer is None:
                out = w.op(self.gh, inp, self.workdir)
            else:
                with tracer.op(op_id):
                    out = w.op(self.gh, inp, self.workdir)
        except Exception:  # an operation that raises is a failed operation
            dt = (perf_counter_ns() - t0) / 1e9
            self.fail(inp, traceback.format_exc())
            return dt, None
        dt = (perf_counter_ns() - t0) / 1e9
        try:
            rec = w.record(inp, self.workdir, out)
        except Exception:
            self.fail(inp, traceback.format_exc())
            return dt, None
        diffs = reference.compare(self.refs.get(inp.key, {}), rec)
        if diffs:
            self.fail(inp, "output differs from reference: " + "; ".join(diffs[:5]))
            return dt, None
        return dt, rec

    def fail(self, inp, message: str) -> None:
        self.failures.append(inp.key)
        print(f"FAILED {self.workload.name} {inp.key}: {message.strip()}", file=sys.stderr)


# ---------------------------------------------------------------------------
# measurement


# Quantiles are Harrell-Davis estimates, weighted means of all order
# statistics: a single sample next to the quantile moves them far less
# than it moves the plain order statistic.
def quantile(values: list[float], prob: float) -> float:
    return float(hdquantiles(np.asarray(values), prob=[prob])[0])


def p50(times: list[float], n_inputs: int) -> float:
    """Median over the inputs of each input's median time.

    The inputs of a pass differ in cost by orders of magnitude, so the
    median of all samples can fall in the gap between two inputs and jump
    with noise; each input's own median is steady."""
    per_input = [statistics.median(times[i::n_inputs]) for i in range(n_inputs)]
    return quantile(per_input, 0.5)


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with ten samples beyond it (needs at least 11):
    (value, percentile, number of samples beyond)."""
    prob = (len(times) - 10) / len(times)
    return quantile(times, prob), 100.0 * prob, 10


# Times are reported in calibrated seconds: each is scaled by CALIBRATION_S
# over the median duration of a fixed calibration kernel timed around it
# (the four runs of the kernel before and the four after). The CPUs of a
# shared machine change speed by tens of percent over seconds; the scaling
# cancels most of that, so the figures compare across runs and commits.
# The kernel's typical duration on a 2-core x86-64 machine, one BLAS thread:
CALIBRATION_S = 0.014
CALIBRATION_WINDOW = 4
_CAL_MATRIX = np.random.default_rng(0).standard_normal((40, 40))


def calibration_s() -> float:
    """Time a fixed mix of interpreter, Fraction and small-numpy work (~15 ms).

    The cyclic garbage collector is paused, so the program's heap size
    cannot change the kernel's duration."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter_ns()
        s = 0
        for i in range(60000):
            s += i * i % 7
        x = Fraction(0)
        for i in range(1, 1500):
            x += Fraction(1, i)
        for _ in range(60):
            b = _CAL_MATRIX @ _CAL_MATRIX
            np.exp(-b / 100.0)
            np.linalg.norm(b)
        return (perf_counter_ns() - t0) / 1e9
    finally:
        if was_enabled:
            gc.enable()


def calibrated(times: list[float], cals: list[float]) -> list[float]:
    """Scale times[i], measured between cals[i] and cals[i + 1]."""
    out = []
    for i, t in enumerate(times):
        lo, hi = max(0, i + 1 - CALIBRATION_WINDOW), i + 1 + CALIBRATION_WINDOW
        out.append(t * CALIBRATION_S / statistics.median(cals[lo:hi]))
    return out


def timed_calls(calls) -> tuple[list[float], list[float]]:
    """Run each call, which returns its own duration, between calibrations:
    (durations, calibration times)."""
    cals = [calibration_s()]
    raw = []
    for call in calls:
        raw.append(call())
        cals.append(calibration_s())
    return raw, cals


def measure(h: Harness, passes: int) -> tuple[dict, int]:
    raw, cals = timed_calls(
        (lambda inp=inp: h.run_op(inp)[0]) for _ in range(passes) for inp in h.inputs
    )
    times = calibrated(raw, cals)
    h.samples.update(op_s=raw, op_calibration_s=cals)
    value, pct, beyond = tail(times)
    print(
        f"{h.workload.name}: {len(times)} ops in {passes} passes; "
        f"op_tail_ms = p{pct:.1f} with {beyond} samples beyond; uncalibrated: "
        f"p50 {statistics.median(raw) * 1e3:.1f} ms, {len(raw) / sum(raw):.4f} ops/s"
    )
    return {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (p50(times, len(h.inputs)) * 1e3, "ms"),
        "op_tail_ms": (value * 1e3, "ms"),
        "ok_share": ((len(times) - len(h.failures)) / len(times), "1"),
    }, len(times)


def measure_traced(h: Harness, passes: int, spans_path: Path) -> tuple[dict, int, dict]:
    """Pairs of untraced and traced calls of each operation."""
    tracer = spans.Tracer()
    per_pass = []
    functions = {}
    overheads = []
    attempted = 0
    for p in range(passes):
        for i, inp in enumerate(h.inputs):
            traced_first = (p * len(h.inputs) + i) % 2 == 1
            runs = {}
            for traced in (traced_first, not traced_first):
                if traced:
                    tracer.install(vars(h.gh))
                    runs[traced] = h.run_op(inp, tracer, op_id=i)
                    leftover = tracer.restore()
                    if leftover:
                        h.fail(inp, f"wrappers left installed: {leftover[:5]}")
                else:
                    runs[traced] = h.run_op(inp)
                attempted += 1
            (t_plain, rec_plain), (t_traced, rec_traced) = runs[False], runs[True]
            overheads.append((t_traced - t_plain) / t_plain)
            if rec_plain is not None and json.dumps(rec_plain, sort_keys=True) != json.dumps(
                rec_traced, sort_keys=True
            ):
                h.fail(inp, "traced outputs differ from untraced outputs")
        pass_spans, counts = tracer.take()
        if p == 0:
            write_spans(spans_path, pass_spans)
        metrics, table = spans.pass_metrics(pass_spans, counts)
        per_pass.append(metrics)
        functions = functions or table
    metrics = spans.median_metrics(per_pass)
    metrics["trace.overhead_share"] = statistics.median(overheads)
    print_layer_table(h.workload.name, metrics, functions)
    out = {name: (value, spans.unit(name)) for name, value in metrics.items()}
    return out, attempted, functions


def write_spans(path: Path, pass_spans: list[list]) -> None:
    with path.open("w") as fh:
        for i, (name, start, end, parent, op_id) in enumerate(pass_spans):
            fh.write(
                json.dumps(
                    {"id": i, "name": name, "start_ns": start, "end_ns": end,
                     "parent": parent, "op": op_id}
                )
                + "\n"
            )


def print_layer_table(workload: str, metrics: dict, functions: dict) -> None:
    op_s = metrics["trace.op_s"]
    print(f"{workload}: per-layer self time of one traced pass ({op_s:.3f} s of operations)")
    print(f"  {'layer':<14}{'self_s':>10}{'share':>8}{'calls':>10}")
    for layer in spans.LAYERS:
        print(
            f"  {layer:<14}{metrics[layer + '.self_s']:>10.4f}"
            f"{metrics[layer + '.share']:>8.1%}{metrics[layer + '.calls']:>10.0f}"
        )
    print(f"  {'(harness)':<14}{metrics['trace.unattributed_share'] * op_s:>10.4f}"
          f"{metrics['trace.unattributed_share']:>8.1%}")
    print(f"  tracing overhead (median of paired calls): {metrics['trace.overhead_share']:.1%}")
    for name, entry in sorted(functions.items(), key=lambda kv: -kv[1]["self_s"]):
        if name != spans.ROOT:
            print(f"  {name:<46}{entry['self_s']:>10.4f} s{entry['calls']:>9} calls")


# ---------------------------------------------------------------------------
# environment


def environment(root: Path, seed: int, workload: str) -> dict:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": git_commit(root),
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(BLAS_THREADS),
    }


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


# ---------------------------------------------------------------------------


def run(args, root: Path, refs: dict) -> dict:
    workload = WORKLOADS[args.workload]
    src = root / "src"
    workdir = root / WORK_DIR / f"{workload.name}-{os.getpid()}"
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    env = environment(root, args.seed, workload.name)
    print("environment: " + json.dumps(env, sort_keys=True))
    h = Harness(workload, args.seed, src, workdir, refs)
    try:
        raw_setups, setup_cals = timed_calls([h.set_up] * SETUP_REPEATS)
        setups = calibrated(raw_setups, setup_cals)
        h.samples.update(setup_s=raw_setups, setup_calibration_s=setup_cals)
        print(f"{workload.name}: set-up times " + ", ".join(f"{s:.3f}" for s in raw_setups)
              + " s (calibrated " + ", ".join(f"{s:.3f}" for s in setups) + ")")
        warm_up_failures = len(h.failures)
        h.failures.clear()
        if args.trace:
            spans_path = out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl"
            n_pass = max(1, round(args.seconds / (2 * workload.nominal_pass_s)))
            metrics, attempted, functions = measure_traced(h, n_pass, spans_path)
        else:
            # at least 11 samples, so that the tail has ten beyond it
            n_pass = max(-(-11 // len(h.inputs)), round(args.seconds / workload.nominal_pass_s))
            metrics, attempted = measure(h, n_pass)
            metrics["setup_s"] = (statistics.median(setups), "s")
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            )
            functions = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass
    failed = len(h.failures)
    result = {
        "correct": failed == 0 and warm_up_failures == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, environment=env, failures=h.failures, functions=functions,
                  samples=h.samples)
    name = f"result-{workload.name}-seed{args.seed}-trace{int(args.trace)}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "graphheat" / "__init__.py").is_file():
        print("perfbench: no src/graphheat here; run from the root of a graphheat checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    try:
        refs = reference.load(args.workload)
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read reference outputs: {exc}", file=sys.stderr)
        return 2
    result = run(args, root, refs)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
