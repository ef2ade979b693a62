"""Reference outputs: one flat record per input of a workload's universe.

Records map names to numbers, strings, booleans or lists of them. Floats
must agree within ``REL_TOL`` relative (the behaviour snapshot of the
ROADMAP), with an absolute floor ``ABS_TOL`` for values that sit at zero;
everything else must agree exactly. Stored floats keep 13 significant
digits, well inside the tolerance.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REL_TOL = 1e-10
ABS_TOL = 1e-12
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def load(workload: str, directory: Path = REFERENCE_DIR) -> dict:
    return json.loads((directory / f"{workload}.json").read_text())


def save(workload: str, records: dict, directory: Path = REFERENCE_DIR) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    lines = [
        f"{json.dumps(key)}: {json.dumps(_rounded(rec), sort_keys=True, separators=(',', ':'))}"
        for key, rec in sorted(records.items())
    ]
    (directory / f"{workload}.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")


def _rounded(value):
    if isinstance(value, float) and math.isfinite(value):
        return float(f"{value:.12e}")
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return value


def _equal(want, got) -> bool:
    if isinstance(want, bool) or isinstance(got, bool):
        return isinstance(want, bool) and isinstance(got, bool) and want == got
    if isinstance(want, (int, float)) and isinstance(got, (int, float)):
        if isinstance(want, int) and isinstance(got, int):
            return want == got
        if math.isinf(want) or math.isinf(got):
            return want == got
        return math.isclose(want, got, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    if isinstance(want, list) and isinstance(got, list):
        return len(want) == len(got) and all(_equal(w, g) for w, g in zip(want, got))
    return type(want) is type(got) and want == got


def compare(want: dict, got: dict) -> list[str]:
    """Differences between a reference record and a fresh one."""
    diffs = [f"{k}: missing" for k in sorted(want.keys() - got.keys())]
    diffs += [f"{k}: unexpected" for k in sorted(got.keys() - want.keys())]
    for k in sorted(want.keys() & got.keys()):
        if not _equal(want[k], got[k]):
            diffs.append(f"{k}: want {want[k]!r}, got {got[k]!r}")
    return diffs
