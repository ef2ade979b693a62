"""Canonical graph families used by scenarios and fixtures."""

from __future__ import annotations

from dataclasses import dataclass

from .covering import CoveringMap, build_cyclic_cover
from .errors import InvalidParams
from .graph import WeightedGraph, _number, build_graph, load_graph_json


@dataclass(frozen=True)
class FamilyResult:
    graph: WeightedGraph
    covering: CoveringMap | None = None


def _uniform(params: dict) -> tuple[float, float]:
    m = _number(params.get("m", 1.0), "m")
    b = _number(params.get("b", 1.0), "b")
    if m <= 0 or b <= 0:
        raise InvalidParams("uniform overrides m and b must be positive")
    return m, b


def build_family(name: str, params: dict) -> FamilyResult:
    """Build a named family: path n, cycle n, torus p x q, cyclic-cover, file.

    Vertices get canonical string ids ('0'..'n-1', or 'i,j' on the torus)
    with uniform m = 1 and b = 1 unless overridden in ``params``.
    """
    if name == "path":
        n = _number(params.get("n", 0), "n", integer=True)
        if n < 1:
            raise InvalidParams("path needs n >= 1")
        m, b = _uniform(params)
        return FamilyResult(
            build_graph(
                [(str(i), m) for i in range(n)],
                [(str(i), str(i + 1), b) for i in range(n - 1)],
            )
        )
    if name == "cycle":
        n = _number(params.get("n", 0), "n", integer=True)
        if n < 3:
            raise InvalidParams("cycle needs n >= 3")
        m, b = _uniform(params)
        return FamilyResult(
            build_graph(
                [(str(i), m) for i in range(n)],
                [(str(i), str((i + 1) % n), b) for i in range(n)],
            )
        )
    if name == "torus":
        p = _number(params.get("p", 0), "p", integer=True)
        q = _number(params.get("q", 0), "q", integer=True)
        if p < 3 or q < 3:
            raise InvalidParams("torus needs p, q >= 3 (smaller wraps collapse edges)")
        m, b = _uniform(params)
        ids = [f"{i},{j}" for i in range(p) for j in range(q)]
        edges = []
        for i in range(p):
            for j in range(q):
                edges.append((f"{i},{j}", f"{(i + 1) % p},{j}", b))
                edges.append((f"{i},{j}", f"{i},{(j + 1) % q}", b))
        return FamilyResult(build_graph([(v, m) for v in ids], edges))
    if name in ("cyclic-cover", "cyclic_cover"):
        base_spec = params.get("base")
        if not isinstance(base_spec, dict) or "family" not in base_spec:
            raise InvalidParams("cyclic-cover needs a 'base' family spec")
        k = _number(params.get("k", 0), "k", integer=True)
        base = build_family(base_spec["family"], base_spec).graph
        cover = build_cyclic_cover(base, k)
        return FamilyResult(cover.cover, cover)
    if name == "file":
        if "path" not in params:
            raise InvalidParams("file family needs a 'path'")
        return FamilyResult(load_graph_json(params["path"]))
    raise InvalidParams(f"unknown graph family {name!r}")


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
