"""Weighted-graph data model, standing assumptions, and graph geometry.

A weighted graph is a triple (X, b, m): a finite ordered vertex set X, a
symmetric nonnegative edge weight b with zero diagonal, and a positive
vertex measure m.  Vectors over the graph are numpy arrays ordered like
``vertex_ids``.

Each graph computes its all-pairs distance tables once, on first use, and
caches them on itself: hop counts from ``scipy.sparse.csgraph`` and exact
length distances (1/b edge costs).  Every float is an exact dyadic rational,
so every edge length 1/b is an integer multiple of 1/L, where L is the lcm
of the denominators of the 1/b; the length table holds each distance times
L as a Python int.  With many distinct weights L grows by about 50 bits per
weight, so above ``_MAX_SCALE_BITS`` bits the same Dijkstra runs on
``Fraction`` lengths, whose sums carry only the denominators met along each
path.  Either way ball-membership comparisons at tied radii never flip due
to rounding.  Every radius, ball and hop query reads these tables, and only
the query boundary turns a table entry into a rational or float.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from heapq import heappop, heappush
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import shortest_path

from .errors import (
    DuplicateEdge,
    DuplicateVertex,
    EmptySubset,
    InvalidWeight,
    NonPositiveMeasure,
    NonSymmetricWeight,
    ParseError,
    SelfLoop,
    UnknownVertex,
    ValidationError,
)


# An integer length table costs about L.bit_length() / 8 bytes per entry, and
# L grows by about 50 bits per distinct non-dyadic weight: n = 200 with 2000
# random weights has an 85412-bit L, a 549 MB table built more slowly than
# the Fraction one.  Up to this limit a table stays near 50 MB at n = 300.
_MAX_SCALE_BITS = 4096


class MetricKind(Enum):
    """Which graph metric to use: hop counting or 1/b edge lengths."""

    COMBINATORIAL = "combinatorial"
    LENGTH = "length"


class FullSetInradiusWarning(UserWarning):
    """The inradius of the full vertex set is unbounded on a finite graph."""


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Immutable weighted graph (X, b, m).

    Attributes:
        vertex_ids: ordered vertex identifiers.
        m: positive vertex measures, ordered like ``vertex_ids``.
        weights: dense symmetric edge-weight matrix b with zero diagonal.
    """

    vertex_ids: tuple[str, ...]
    m: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        self.m.setflags(write=False)
        self.weights.setflags(write=False)
        object.__setattr__(
            self, "_index", {v: i for i, v in enumerate(self.vertex_ids)}
        )

    @property
    def n(self) -> int:
        return len(self.vertex_ids)

    def index_of(self, vertex_id: str) -> int:
        try:
            return self._index[vertex_id]  # type: ignore[attr-defined]
        except KeyError:
            raise UnknownVertex(f"unknown vertex id {vertex_id!r}") from None

    def subset_indices(self, ids: Sequence[str]) -> np.ndarray:
        """Map vertex ids to positions, rejecting duplicates."""
        idx = [self.index_of(v) for v in ids]
        if len(set(idx)) != len(idx):
            raise ValidationError("duplicate vertex id in subset")
        return np.asarray(idx, dtype=int)

    def degrees(self) -> np.ndarray:
        """Weighted degree Deg(x) = (1/m(x)) * sum_y b(x,y)."""
        return self.weights.sum(axis=1) / self.m

    def neighbors(self, i: int) -> np.ndarray:
        return np.nonzero(self.weights[i] > 0.0)[0]

    @cached_property
    def hop_table(self) -> np.ndarray:
        """All-pairs hop counts (float64, exact small integers); inf marks
        an unreachable pair."""
        # sparse input: on a dense matrix scipy drops edges with b <= 1e-8
        table = shortest_path(csr_array(self.weights), unweighted=True, directed=False)
        table.setflags(write=False)
        return table

    @cached_property
    def _length_scale(self) -> int | None:
        """L, the lcm of the denominators of 1/b over the distinct positive
        edge weights b, so every edge length 1/b is an integer multiple of
        1/L; None when L has more than ``_MAX_SCALE_BITS`` bits."""
        scale = 1
        for b in np.unique(self.weights[self.weights > 0.0]):
            scale = math.lcm(scale, (1 / Fraction(b)).denominator)
            if scale.bit_length() > _MAX_SCALE_BITS:
                return None
        return scale

    @cached_property
    def _length_table(self) -> np.ndarray:
        """All-pairs length distances, exact, in a read-only object array:
        each distance times ``_length_scale`` as a Python int, or as a
        Fraction when there is no length scale; ``math.inf`` marks an
        unreachable pair."""
        n, scale = self.n, self._length_scale
        lengths: list[list[tuple[int, int | Fraction]]] = [[] for _ in range(n)]
        for i in range(n):
            for j in self.neighbors(i):
                w = 1 / Fraction(self.weights[i, j])
                if scale is not None:
                    w = w.numerator * (scale // w.denominator)
                lengths[i].append((int(j), w))
        table = np.empty((n, n), dtype=object)
        for src in range(n):
            dist: list = [math.inf] * n
            dist[src] = 0
            heap: list = [(0, src)]
            while heap:
                d, i = heappop(heap)
                if d > dist[i]:
                    continue
                for j, w in lengths[i]:
                    nd = d + w
                    if nd < dist[j]:
                        dist[j] = nd
                        heappush(heap, (nd, j))
            table[src, :] = dist
        table.setflags(write=False)
        return table


@dataclass(frozen=True)
class AssumptionReport:
    """Standing assumptions: connectivity plus the boundedness constants."""

    connected: bool
    d_max: float
    sup_m: float
    inf_m: float
    inf_positive_b: float


def build_graph(
    vertices: Sequence[tuple[str, float]],
    edges: Sequence[tuple[str, str, float]],
) -> WeightedGraph:
    """Build a validated graph from vertex and edge lists.

    Each undirected edge is stored once.  Input is rejected rather than
    repaired: giving an edge in both orientations with different weights
    raises ``NonSymmetricWeight``; giving the same edge twice (same or
    reversed orientation, equal weight) raises ``DuplicateEdge``.
    """
    ids = [str(v) for v, _ in vertices]
    if len(set(ids)) != len(ids):
        raise DuplicateVertex("vertex ids must be unique")
    n = len(ids)
    index = {v: i for i, v in enumerate(ids)}

    m = np.zeros(n)
    for (v, mv) in vertices:
        mv = float(mv)
        if not math.isfinite(mv) or mv <= 0.0:
            raise NonPositiveMeasure(f"m({v!r}) = {mv} is not a positive real")
        m[index[str(v)]] = mv

    b = np.zeros((n, n))
    seen: dict[tuple[int, int], float] = {}
    for (u, v, w) in edges:
        u, v = str(u), str(v)
        if u not in index or v not in index:
            raise UnknownVertex(f"edge ({u!r}, {v!r}) references an unknown vertex")
        w = float(w)
        if not math.isfinite(w) or w < 0.0:
            raise InvalidWeight(f"b({u!r},{v!r}) = {w} is not a finite nonnegative real")
        i, j = index[u], index[v]
        if i == j:
            raise SelfLoop(f"self-loop at {u!r}")
        key = (min(i, j), max(i, j))
        if key in seen:
            if seen[key] != w:
                raise NonSymmetricWeight(
                    f"edge ({u!r},{v!r}) given twice with weights {seen[key]} and {w}"
                )
            raise DuplicateEdge(f"edge ({u!r},{v!r}) appears more than once")
        seen[key] = w
        b[i, j] = w
        b[j, i] = w

    return WeightedGraph(tuple(ids), m, b)


def validate_assumptions(g: WeightedGraph) -> AssumptionReport:
    """Check connectivity and compute the boundedness constants."""
    deg = g.degrees()
    positive = g.weights[g.weights > 0.0]
    return AssumptionReport(
        connected=bool(np.isfinite(g.hop_table[0]).all()),
        d_max=float(deg.max()) if g.n else 0.0,
        sup_m=float(g.m.max()),
        inf_m=float(g.m.min()),
        inf_positive_b=float(positive.min()) if positive.size else math.inf,
    )


# ---------------------------------------------------------------------------
# metrics


def _table(g: WeightedGraph, kind: MetricKind) -> np.ndarray:
    return g.hop_table if kind is MetricKind.COMBINATORIAL else g._length_table


def _as_result(g: WeightedGraph, kind: MetricKind, d, exact: bool):
    """A table entry as reported: int (hops) or Fraction (length) when
    exact, the correctly rounded float otherwise; ``math.inf`` when
    unreachable either way."""
    if d == math.inf:
        return math.inf
    if kind is MetricKind.COMBINATORIAL:
        return int(d) if exact else float(d)
    d = Fraction(d, g._length_scale or 1)
    return d if exact else _as_float(d)


def _as_float(q: Fraction) -> float:
    """The correctly rounded float of q >= 0: +inf beyond the float range,
    where ``float(q)`` raises ``OverflowError``."""
    try:
        return float(q)
    except OverflowError:
        return math.inf


def distance(
    g: WeightedGraph, kind: MetricKind, x: str, y: str, *, exact: bool = False
):
    """Graph distance between two vertices; +inf when disconnected."""
    return _as_result(g, kind, _table(g, kind)[g.index_of(x), g.index_of(y)], exact)


def covering_radius(
    g: WeightedGraph, kind: MetricKind, D: Sequence[str], *, exact: bool = False
):
    """Smallest R such that closed R-balls around D cover the graph.

    On a finite graph this is the largest attained distance to D; it is
    +inf exactly when some vertex is unreachable from D.
    """
    if len(D) == 0:
        raise EmptySubset("covering radius needs a nonempty subset")
    to_d = _table(g, kind)[:, g.subset_indices(D)].min(axis=1)
    return _as_result(g, kind, to_d.max(), exact)


def inradius(
    g: WeightedGraph, kind: MetricKind, omega: Sequence[str], *, exact: bool = False
):
    """Largest radius of an open ball contained in ``omega``.

    The supremum over radii is attained at the largest distance value
    d* = max_{x in omega} dist(x, complement); open balls U_r(x) stay in
    omega exactly for r <= d*.  Returns 0 for the empty set.  For
    omega = X there is no complement to hit, the value is unbounded:
    +inf is returned and ``FullSetInradiusWarning`` is emitted.
    """
    if len(omega) == 0:
        return 0.0
    inside = np.zeros(g.n, dtype=bool)
    inside[g.subset_indices(omega)] = True
    if inside.all():
        warnings.warn(
            "inradius of the full vertex set is unbounded",
            FullSetInradiusWarning,
            stacklevel=2,
        )
        return math.inf
    to_comp = _table(g, kind)[np.ix_(inside, ~inside)].min(axis=1)
    return _as_result(g, kind, to_comp.max(), exact)


def max_ball_volume(g: WeightedGraph, kind: MetricKind, r) -> float:
    """max_x m(B_r(x)) over closed balls of radius r.

    ``r`` may be a float, int, or Fraction; comparisons against the exact
    distances are exact (floats convert exactly).  Each ball volume is
    summed in vertex order.
    """
    if isinstance(r, float) and math.isinf(r):
        return float(g.m.sum())
    r = Fraction(r)
    if r < 0:
        raise ValidationError("ball radius must be nonnegative")
    # integer entries d satisfy d <= r * scale exactly when d <= floor(r * scale);
    # Fraction entries (no length scale) compare with r itself
    scale = 1 if kind is MetricKind.COMBINATORIAL else g._length_scale
    inside = _table(g, kind) <= (r if scale is None else math.floor(r * scale))
    # a running sum adds left to right, like a loop over the vertices
    volumes = np.cumsum(np.where(inside, g.m, 0.0), axis=1)[:, -1]
    return float(volumes.max())


# ---------------------------------------------------------------------------
# Folner diagnostics


def folner_ratio(g: WeightedGraph, Y: Sequence[str]) -> Fraction:
    """Boundary-to-volume ratio b(Y, Y^c) / m(Y), as an exact rational."""
    if len(Y) == 0:
        raise EmptySubset("Folner ratio needs a nonempty subset")
    yidx = set(int(i) for i in g.subset_indices(Y))
    boundary = Fraction(0)
    for i in yidx:
        for j in g.neighbors(i):
            if int(j) not in yidx:
                boundary += Fraction(g.weights[i, j])
    mass = sum((Fraction(g.m[i]) for i in yidx), Fraction(0))
    return boundary / mass


# ---------------------------------------------------------------------------
# JSON interchange

_GRAPH_KEYS = {"vertices", "edges"}


def graph_to_json(g: WeightedGraph) -> dict:
    """Dump a graph to the JSON interchange form (each edge stored once)."""
    edges = []
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if g.weights[i, j] > 0.0:
                edges.append(
                    {"u": g.vertex_ids[i], "v": g.vertex_ids[j], "b": float(g.weights[i, j])}
                )
    return {
        "vertices": [
            {"id": v, "m": float(g.m[i])} for i, v in enumerate(g.vertex_ids)
        ],
        "edges": edges,
    }


def graph_from_json(data: dict) -> WeightedGraph:
    """Parse the JSON interchange form; NaN/inf, self-loops and duplicate
    edges are rejected."""
    if not isinstance(data, dict) or not _GRAPH_KEYS <= set(data):
        raise ParseError("graph JSON needs 'vertices' and 'edges' lists")
    try:
        vertices = [(str(v["id"]), float(v["m"])) for v in data["vertices"]]
        edges = [(str(e["u"]), str(e["v"]), float(e["b"])) for e in data["edges"]]
    except (TypeError, KeyError, ValueError) as exc:
        raise ParseError(f"malformed graph JSON: {exc}") from exc
    return build_graph(vertices, edges)


def read_json(path: str | Path):
    """Parse a JSON file; a missing or unreadable file and invalid JSON
    raise ``ParseError``."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc


def load_graph_json(path: str | Path) -> WeightedGraph:
    return graph_from_json(read_json(path))


def subset_from_json(data: dict) -> tuple[str, ...]:
    if not isinstance(data, dict) or "ids" not in data or not isinstance(data["ids"], list):
        raise ParseError("subset JSON needs an 'ids' list")
    return tuple(str(v) for v in data["ids"])


def load_subset_json(path: str | Path) -> tuple[str, ...]:
    return subset_from_json(read_json(path))
