"""Self-test of the benchmark harness.

Run from the root of a checkout (takes about a minute):

    python3 perfbench/selftest.py

It checks that

1. the output check catches a deliberately wrong reference value: a float
   moved by 1e-8 relative, a flipped verdict, a missing key, both in the
   comparison itself and in a whole benchmark run;
2. a traced run gives every operation the same outputs as the untraced run
   (the harness compares each pair) and leaves no wrapper installed;
3. call counts repeat exactly between two traced passes over the same
   inputs, and the layer self times plus the harness's own share add up to
   the traced operation time;
4. the runs print exactly the metrics that BENCHMARK.json names, with its
   units.

Exit code 0 means every check held.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

import run  # first: fixes the BLAS thread count before numpy is imported
import reference
import spans
from workloads import WORKLOADS, write_scenarios

REPEATED_COUNTS = (
    "graph.max_ball_volume.calls",
    "quadrature.nodes",
    "spectral.time_lr_norm.calls",
    "observability.inputs",
    "stochastic.paths",
    "stochastic.jumps",
    "trace.spans",
)


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok: {message}")


def check_compare() -> None:
    want = {"x": 1.5, "flag": True, "n": 3, "xs": [1.0, 2.0], "s": "a"}
    expect(reference.compare(want, copy.deepcopy(want)) == [], "identical records match")
    expect(reference.compare(want, dict(want, x=1.5 * (1 + 1e-12))) == [],
           "a float within 1e-10 relative matches")
    expect(len(reference.compare(want, dict(want, x=1.5 * (1 + 1e-8)))) == 1,
           "a float off by 1e-8 relative is caught")
    expect(len(reference.compare(want, dict(want, flag=False))) == 1, "a flipped verdict is caught")
    expect(len(reference.compare(want, dict(want, flag=1))) == 1, "a verdict turned number is caught")
    expect(len(reference.compare(want, {k: v for k, v in want.items() if k != "n"})) == 1,
           "a missing key is caught")
    expect(len(reference.compare(want, dict(want, xs=[1.0, 2.001]))) == 1,
           "a wrong list element is caught")


def check_wrong_reference(root: Path) -> dict:
    """A whole run against a reference with one wrong float must fail exactly
    the operations of that input."""
    args = SimpleNamespace(workload="walk", seed=3, seconds=1, trace=0)
    refs = reference.load("walk")
    inputs = WORKLOADS["walk"].inputs(args.seed)
    key = inputs[0].key
    bad = copy.deepcopy(refs)
    bad[key]["exact_value"] *= 1 + 1e-8
    result = run.run(args, root, bad)
    runs_of_key = result["attempted"] // len(inputs)
    expect(not result["correct"] and result["failed"] == runs_of_key,
           f"a run against a wrong reference value fails the {runs_of_key} operations "
           f"of that input ({key}) and no other")
    result = run.run(args, root, refs)
    expect(result["correct"] and result["failed"] == 0, "the same run against the true reference passes")
    return {k: v["unit"] for k, v in result["metrics"].items()}


def traced_pass(root: Path, workload: str, seed: int, n_inputs: int) -> dict:
    w = WORKLOADS[workload]
    workdir = root / run.WORK_DIR / f"selftest-{workload}"
    h = run.Harness(w, seed, root / "src", workdir, reference.load(workload))
    out_dir = root / run.OUT_DIR
    out_dir.mkdir(exist_ok=True)
    try:
        h.set_up()
        h.inputs = h.inputs[:n_inputs]
        if w.prepare is not None:
            write_scenarios(h.inputs, workdir)
        metrics, _attempted, _functions = run.measure_traced(h, 1, out_dir / "spans-selftest.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    expect(not h.failures, f"{workload}: traced outputs equal untraced outputs and the reference")
    leftover = [
        f"{name}.{attr}"
        for name, module in sys.modules.items()
        if name.split(".")[0] == "graphheat"
        for attr, value in vars(module).items()
        if hasattr(value, "__perfbench_original__")
    ]
    expect(not leftover, f"{workload}: no wrapper is left installed after the traced run")
    return metrics


def check_traced(root: Path) -> dict:
    for workload, n_inputs in (("corpus", 3), ("walk", 8)):
        runs = [traced_pass(root, workload, 5, n_inputs) for _ in range(2)]
        units = {k: unit for k, (_v, unit) in runs[0].items()}
        first, second = ({k: v for k, (v, _unit) in m.items()} for m in runs)
        for name in REPEATED_COUNTS:
            expect(first[name] == second[name], f"{workload}: {name} repeats ({first[name]})")
        layers = sum(first[f"{layer}.self_s"] for layer in spans.LAYERS)
        own = first["trace.unattributed_share"] * first["trace.op_s"]
        expect(abs(layers + own - first["trace.op_s"]) <= 1e-6 * first["trace.op_s"],
               f"{workload}: layer self times {layers:.4f} s + harness {own:.4f} s "
               f"= traced op time {first['trace.op_s']:.4f} s")
    return units


def check_names(root: Path, untraced: dict, traced: dict) -> None:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    for kind, got in (("end_to_end", untraced), ("per_layer", traced)):
        want = {m["name"]: m["unit"] for m in spec[kind]}
        expect(want == got, f"runs print exactly the {kind} metrics of BENCHMARK.json, with their units")


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    check_compare()
    untraced = check_wrong_reference(root)
    traced = check_traced(root)
    check_names(root, untraced, traced)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
