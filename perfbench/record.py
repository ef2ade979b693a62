"""Record the reference outputs of every input a workload can draw.

Run from the root of a checkout, at the commit whose behaviour is the
reference, and commit the files it writes under ``perfbench/reference/``:

    python3 perfbench/record.py [workload ...]

An input whose scenario fails (exit code other than 0) or raises stops
the recording. False verdicts of the corpus workload are recorded as they
are, and listed, so that the reference shows them instead of hiding them.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path
from time import perf_counter

import run  # first: fixes the BLAS thread count before numpy is imported
import reference
from workloads import WORKLOADS, write_scenarios


def record_workload(name: str, root: Path) -> None:
    workload = WORKLOADS[name]
    workdir = root / run.WORK_DIR / f"record-{name}"
    gh = run.import_graphheat(root / "src")
    inputs = workload.universe()
    records = {}
    try:
        if workload.prepare is not None:
            write_scenarios(inputs, workdir)
        for inp in inputs:
            if workload.prepare is not None:
                workload.prepare(inp, workdir)
            t0 = perf_counter()
            out = workload.op(gh, inp, workdir)
            dt = perf_counter() - t0
            rec = workload.record(inp, workdir, out)
            failed = [k for k, v in rec.items() if v is False and not k.endswith(".unreachable")]
            if failed:
                print(f"{name} {inp.key}: false verdicts {failed}")
            records[inp.key] = rec
            print(f"{name} {inp.key}: {dt:.3f} s", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    reference.save(name, records)


def main(argv: list[str]) -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    for name in argv or sorted(WORKLOADS):
        record_workload(name, root)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
