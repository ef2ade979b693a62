"""List the record fields a change moves: replay the benchmark universe with
a base checkout's package and with this checkout's, and compare the records.

    python3 tools/replay_diff.py BASE_CHECKOUT [workload ...]

Every input a benchmark seed can draw (``WORKLOADS[w].universe()``) runs
through the benchmark's own operation and record functions
(``check_reference.replay``), first with the graphheat under
``BASE_CHECKOUT/src``, then with this checkout's, in one process:
``run.import_graphheat`` imports the package afresh from each. Per workload
it prints how many float fields moved (any change of bits), the largest
relative moves with their input key and field, and every field of another
type that differs. Report files go to a temporary directory; nothing
under ``perfbench/`` is written. Exit code 0 means every input ran on both
sides, whatever moved; 1 lists the inputs that raised; 2 means no
BASE_CHECKOUT was given.
"""

from __future__ import annotations

import math
import sys
import tempfile
from pathlib import Path

# first: puts perfbench on the path and fixes the BLAS thread count
from check_reference import ROOT, replay, run
from workloads import WORKLOADS

SHOWN = 8  # largest float moves listed per workload


def _leaves(record: dict):
    """(field, value) for every scalar of a record, a list's entries as
    field[i]."""
    for field, value in record.items():
        if isinstance(value, list):
            yield from ((f"{field}[{i}]", v) for i, v in enumerate(value))
        else:
            yield field, value


def _relative(x: float, y: float) -> float:
    """|y - x| / max(|x|, |y|); inf where either is inf or nan."""
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    top = max(abs(x), abs(y))
    return abs(y - x) / top if top else 0.0


def _replay_all(src: Path, names: list[str]) -> dict[str, tuple[dict, list[str]]]:
    """Each workload's records and raised inputs, with the graphheat under
    ``src``."""
    sys.path.insert(0, str(src))
    try:
        gh = run.import_graphheat(src)
        out = {}
        for name in names:
            workload = WORKLOADS[name]
            with tempfile.TemporaryDirectory() as workdir:
                out[name] = replay(workload, workload.universe(), gh, Path(workdir))
        return out
    finally:
        sys.path.remove(str(src))


def diff_records(base: dict, head: dict) -> tuple[int, list[tuple], list[tuple]]:
    """The float fields compared, the moved ones as (relative move, key,
    field, base value, head value), largest first, and the fields of any
    other type that differ as (key, field, base value, head value)."""
    compared, moved, other = 0, [], []
    for key in sorted(base.keys() | head.keys()):
        was, now = dict(_leaves(base.get(key, {}))), dict(_leaves(head.get(key, {})))
        for field in sorted(was.keys() | now.keys()):
            x, y = was.get(field), now.get(field)
            if isinstance(x, float) and isinstance(y, float):
                compared += 1
                if x.hex() != y.hex():
                    moved.append((_relative(x, y), key, field, x, y))
            elif type(x) is not type(y) or x != y:
                other.append((key, field, x, y))
    moved.sort(key=lambda m: m[0], reverse=True)
    return compared, moved, other


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    names = argv[1:] or sorted(WORKLOADS)
    base = _replay_all(Path(argv[0]).resolve() / "src", names)
    head = _replay_all(ROOT / "src", names)
    raised = []
    for name in names:
        (was, was_raised), (now, now_raised) = base[name], head[name]
        raised += [f"base {line}" for line in was_raised] + [f"head {line}" for line in now_raised]
        compared, moved, other = diff_records(was, now)
        largest = f", largest {moved[0][0]:.3g} relative" if moved else ""
        print(f"{name}: {len(moved)} of {compared} float fields moved{largest}; "
              f"{len(other)} other fields differ")
        for rel, key, field, x, y in moved[:SHOWN]:
            print(f"  {rel:.3g}  {key}  {field}  {x!r} -> {y!r}")
        for key, field, x, y in other:
            print(f"  {key}  {field}  {x!r} -> {y!r}")
    for line in raised:
        print(line, file=sys.stderr)
    return 1 if raised else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
