"""Replay every input of the benchmark universe and compare with the reference.

Each input a benchmark seed can draw (``WORKLOADS[w].universe()``) runs
through the benchmark's own operation and record functions, and its record
is compared with ``perfbench/reference/<workload>.json`` by
``reference.compare`` (floats within 1e-10 relative, everything else
exact). Nothing is re-recorded and nothing under ``perfbench/`` is written.

    python3 tools/check_reference.py [workload ...]

Exit code 0 means every record matched; 1 lists the inputs that differ or
raise. After the summary, one line per workload gives a SHA-256 digest of
its replayed records (keys sorted, every float as ``float.hex``), so two
checkouts replayed on the same machine can be shown bit-identical. The
digest says nothing across machines: BLAS builds and thread counts round
differently, within the tolerance the comparison allows. All three
workloads take about 8 s on two cores.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import run  # first: fixes the BLAS thread count before numpy is imported
import reference
from workloads import WORKLOADS, write_scenarios


def _hexed(value):
    """A record value with every float written exactly, as ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, list):
        return [_hexed(v) for v in value]
    return value


def check_workload(name: str) -> tuple[list[str], str]:
    """Differences of every input of one workload, as printable lines, and
    the digest of its replayed records."""
    workload = WORKLOADS[name]
    refs = reference.load(name)
    workdir = ROOT / run.WORK_DIR / f"check-{name}"
    gh = run.import_graphheat(ROOT / "src")
    inputs = workload.universe()
    problems, records = [], {}
    t0 = perf_counter()
    try:
        if workload.prepare is not None:
            write_scenarios(inputs, workdir)
        for inp in inputs:
            if workload.prepare is not None:
                workload.prepare(inp, workdir)
            try:
                rec = workload.record(inp, workdir, workload.op(gh, inp, workdir))
            except Exception:
                problems.append(f"{name} {inp.key}: raised\n{traceback.format_exc()}")
                continue
            records[inp.key] = _hexed(rec)
            diffs = reference.compare(refs.get(inp.key, {}), rec)
            problems += [f"{name} {inp.key}: {d}" for d in diffs]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{name}: {len(inputs)} inputs in {perf_counter() - t0:.1f} s", flush=True)
    text = json.dumps(records, sort_keys=True, allow_nan=False)
    return problems, hashlib.sha256(text.encode()).hexdigest()


def main(argv: list[str]) -> int:
    problems, digests = [], {}
    for name in argv or sorted(WORKLOADS):
        found, digests[name] = check_workload(name)
        problems += found
    for line in problems:
        print(line, file=sys.stderr)
    print("reference check: " + (f"{len(problems)} differences" if problems else "all inputs match"))
    for name, digest in digests.items():
        print(f"{name} records sha256: {digest}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
