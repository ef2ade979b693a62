"""Replay every input of the benchmark universe and compare with the reference.

Each input a benchmark seed can draw (``WORKLOADS[w].universe()``) runs
through the benchmark's own operation and record functions, and its record
is compared with ``perfbench/reference/<workload>.json`` by
``reference.compare`` (floats within 1e-10 relative, everything else
exact). Nothing is re-recorded and nothing under ``perfbench/`` is written.

    python3 tools/check_reference.py [workload ...]

Exit code 0 means every record matched; 1 lists the inputs that differ or
raise. After the summary, one line per workload gives a SHA-256 digest of
its replayed records (keys sorted, every float as ``float.hex``), and one
more per workload that writes reports (``families``, ``walk``) a SHA-256
over every report file's path, relative to the work directory, and bytes.
Two checkouts replayed on the same machine are shown bit-identical, in
records and in report files, by equal digests. The digests compare
checkouts on one machine only: BLAS builds and thread counts round
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
from workloads import WORKLOADS, _out_dir, write_scenarios


def _hexed(value):
    """A record value with every float written exactly, as ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, list):
        return [_hexed(v) for v in value]
    return value


def _reports_digest(inputs, workdir: Path) -> str:
    """SHA-256 over each report file's path relative to ``workdir`` and its
    bytes, the files in path order."""
    digest = hashlib.sha256()
    files = sorted(f for inp in inputs for f in _out_dir(workdir, inp).rglob("*") if f.is_file())
    for f in files:
        data = f.read_bytes()
        digest.update(f"{f.relative_to(workdir).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def replay(workload, inputs, gh, workdir: Path) -> tuple[dict, list[str]]:
    """Run ``inputs`` of a workload through the benchmark's operation and
    record functions with the package ``gh``, report files under
    ``workdir``: the records by input key, and a line with the traceback
    of each input that raised."""
    records, raised = {}, []
    if workload.prepare is not None:
        write_scenarios(inputs, workdir)
    for inp in inputs:
        if workload.prepare is not None:
            workload.prepare(inp, workdir)
        try:
            records[inp.key] = workload.record(inp, workdir, workload.op(gh, inp, workdir))
        except Exception:
            raised.append(f"{workload.name} {inp.key}: raised\n{traceback.format_exc()}")
    return records, raised


def check_workload(name: str) -> tuple[list[str], dict[str, str]]:
    """Differences of every input of one workload, as printable lines, and
    the digests of its replayed records and, if it writes any, reports."""
    workload = WORKLOADS[name]
    refs = reference.load(name)
    workdir = ROOT / run.WORK_DIR / f"check-{name}"
    gh = run.import_graphheat(ROOT / "src")
    inputs = workload.universe()
    digests = {}
    t0 = perf_counter()
    try:
        records, problems = replay(workload, inputs, gh, workdir)
        for key, rec in records.items():
            problems += [f"{name} {key}: {d}" for d in reference.compare(refs.get(key, {}), rec)]
        if workload.prepare is not None:
            digests["reports"] = _reports_digest(inputs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{name}: {len(inputs)} inputs in {perf_counter() - t0:.1f} s", flush=True)
    text = json.dumps({k: _hexed(rec) for k, rec in records.items()}, sort_keys=True, allow_nan=False)
    return problems, {"records": hashlib.sha256(text.encode()).hexdigest(), **digests}


def main(argv: list[str]) -> int:
    problems, digests = [], {}
    for name in argv or sorted(WORKLOADS):
        found, digests[name] = check_workload(name)
        problems += found
    for line in problems:
        print(line, file=sys.stderr)
    print("reference check: " + (f"{len(problems)} differences" if problems else "all inputs match"))
    for name, kinds in digests.items():
        for kind, digest in kinds.items():
            print(f"{name} {kind} sha256: {digest}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
