"""Canonical graph families used by scenarios and fixtures."""

from __future__ import annotations

from dataclasses import dataclass

from .covering import CoveringMap, build_cyclic_cover
from .errors import InvalidParams
from .graph import (
    WeightedGraph, _fields, _integer, _number, _object, _path, _text, build_graph,
    load_graph_json,
)


@dataclass(frozen=True)
class FamilyResult:
    graph: WeightedGraph
    covering: CoveringMap | None = None


def _positive(value, name: str) -> float:
    x = _number(value, name)
    if x <= 0:
        raise InvalidParams("uniform overrides m and b must be positive")
    return x


_SIZE = (_integer, 0)
_UNIFORM = {"m": (_positive, 1.0), "b": (_positive, 1.0)}
# The keys of each family's spec besides 'family'; any other key is rejected.
_FAMILY_KEYS = {
    "path": {"n": _SIZE, **_UNIFORM},
    "cycle": {"n": _SIZE, **_UNIFORM},
    "torus": {"p": _SIZE, "q": _SIZE, **_UNIFORM},
    "cyclic-cover": {"base": (_object, None), "k": _SIZE},
    "file": {"path": (_path, None)},
}


def build_family(name: str, params: dict) -> FamilyResult:
    """Build a named family: path n, cycle n, torus p x q, cyclic-cover, file.

    Vertices get canonical string ids ('0'..'n-1', or 'i,j' on the torus)
    with uniform m = 1 and b = 1 unless path, cycle or torus override them
    in ``params``.  ``params`` may repeat the family name under 'family';
    a key the family does not take raises ``ParseError``.
    """
    if name not in _FAMILY_KEYS:
        raise InvalidParams(f"unknown graph family {name!r}")
    spec = _fields(params, "graph", {"family": (_text, name), **_FAMILY_KEYS[name]})
    if name in ("path", "cycle"):
        n, closed = spec["n"], name == "cycle"
        if n < (3 if closed else 1):
            raise InvalidParams(f"{name} needs n >= {3 if closed else 1}")
        # the cycle's last edge (n - 1, 0) closes the path
        edges = [(str(i), str((i + 1) % n), spec["b"]) for i in range(n if closed else n - 1)]
        return FamilyResult(build_graph([(str(i), spec["m"]) for i in range(n)], edges))
    if name == "torus":
        p, q, b = spec["p"], spec["q"], spec["b"]
        if p < 3 or q < 3:
            raise InvalidParams("torus needs p, q >= 3 (smaller wraps collapse edges)")
        ids = [f"{i},{j}" for i in range(p) for j in range(q)]
        edges = []
        for i in range(p):
            for j in range(q):
                edges.append((f"{i},{j}", f"{(i + 1) % p},{j}", b))
                edges.append((f"{i},{j}", f"{i},{(j + 1) % q}", b))
        return FamilyResult(build_graph([(v, spec["m"]) for v in ids], edges))
    if name == "file":
        if spec["path"] is None:
            raise InvalidParams("file family needs a 'path'")
        return FamilyResult(load_graph_json(spec["path"]))
    base = spec["base"]
    if base is None or "family" not in base:
        raise InvalidParams("cyclic-cover needs a 'base' family spec")
    cover = build_cyclic_cover(build_family(str(base["family"]), base).graph, spec["k"])
    return FamilyResult(cover.cover, cover)


def parity_subset(g: WeightedGraph, parity: str) -> tuple[str, ...]:
    """Vertices of even or odd parity.

    Integer ids use their own parity; torus ids 'i,j' the parity of i + j;
    other ids fall back to the parity of their position in vertex order.
    """
    if parity not in ("even", "odd"):
        raise InvalidParams(f"parity must be 'even' or 'odd', got {parity!r}")
    want = 0 if parity == "even" else 1

    def value(pos: int, vid: str) -> int:
        try:
            if "," in vid:
                return sum(int(part) for part in vid.split(","))
            return int(vid)
        except ValueError:
            return pos

    return tuple(
        vid for pos, vid in enumerate(g.vertex_ids) if value(pos, vid) % 2 == want
    )
