"""Weighted-graph data model, standing assumptions, and graph geometry.

A weighted graph is a triple (X, b, m): a finite ordered vertex set X, a
symmetric nonnegative edge weight b with zero diagonal, and a positive
vertex measure m.  Vectors over the graph are numpy arrays ordered like
``vertex_ids``.

Each graph computes its all-pairs distance tables once, on first use, and
caches them on itself: hop counts from ``scipy.sparse.csgraph`` and exact
length distances (1/b edge costs).  Every float is an exact dyadic rational,
so every edge length 1/b is an integer multiple of a unit, the gcd of the
lengths, and the length table holds each distance in units, in one of three
tiers picked from the graph:

- When n times the longest edge is below 2**53 units, every sum Dijkstra
  forms is an integer that a float holds exactly, so the table is scipy's
  float64 Dijkstra, like the hop table.  Every graph with one distinct
  weight is here, since its edges are 1 unit long.
- Otherwise, a heap Dijkstra over Python ints.
- The unit's denominator, the lcm of the denominators of the 1/b, grows by
  about 50 bits per distinct weight.  Above ``_MAX_SCALE_BITS`` bits the
  same Dijkstra runs on ``Fraction`` lengths, whose sums carry only the
  denominators met along each path.

Either way ball-membership comparisons at tied radii never flip due to
rounding.  Every radius, ball and hop query reads these tables, and only
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
from scipy.sparse.csgraph import connected_components, shortest_path

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
from .quadrature import _BLOCK_ELEMENTS, _blocks


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


@dataclass(frozen=True)
class TransitionTable:
    """Jump law of the random walk, one row per vertex, padded to the
    largest neighbour count.

    Row j lists the neighbours of j in ``targets``, with the running sums
    ``np.cumsum(w)`` of their edge weights w in ``cumulative`` and its last
    entry in ``totals[j]``.  Padding entries are +inf, so counting the
    entries <= u picks a neighbour as ``searchsorted(row, u, side="right")``
    does; padding targets repeat the last neighbour (j itself on an empty
    row).  ``cumulative`` is column-major, so each neighbour slot is one
    contiguous column.
    """

    targets: np.ndarray
    cumulative: np.ndarray
    totals: np.ndarray

    def jump(self, at: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Where walks at ``at`` jump for uniforms ``u`` in [0, 1): to the
        neighbour whose running sum first exceeds u totals[at].

        The entries <= u totals[at] are counted one slot at a time, on top
        of each row's start in the flattened ``targets``.  The last slot is
        never counted: u < 1 puts u totals below the total, except where a
        subnormal total rounds the product up to itself, and then the walk
        takes the last neighbour, where every padding slot points too.
        """
        u = u * self.totals.take(at)
        width = self.targets.shape[1]
        flat = at * width
        for k in range(width - 1):
            flat += self.cumulative[:, k].take(at) <= u
        return self.targets.ravel().take(flat)


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
        """Weighted degree Deg(x) = (1/m(x)) * sum_y b(x,y); +inf where
        it is beyond the float range."""
        with np.errstate(over="ignore"):
            return self.weights.sum(axis=1) / self.m

    def neighbors(self, i: int) -> np.ndarray:
        return np.nonzero(self.weights[i] > 0.0)[0]

    @cached_property
    def _edges(self) -> csr_array:
        """b as a csr array, built once for every sparse graph query: on a
        dense matrix scipy drops edges with b <= 1e-8."""
        return csr_array(self.weights)

    @cached_property
    def hop_table(self) -> np.ndarray:
        """All-pairs hop counts (float64, exact small integers); inf marks
        an unreachable pair."""
        table = shortest_path(self._edges, unweighted=True, directed=False)
        table.setflags(write=False)
        return table

    @cached_property
    def transition_table(self) -> TransitionTable:
        """The random walk's jump law, shared by every sampler on this graph."""
        nbrs = [self.neighbors(j) for j in range(self.n)]
        width = max((len(nb) for nb in nbrs), default=0)
        targets = np.zeros((self.n, width), dtype=int)
        cumulative = np.full((self.n, width), math.inf, order="F")
        totals = np.zeros(self.n)
        for j, nb in enumerate(nbrs):
            targets[j] = nb[-1] if len(nb) else j
            if len(nb) == 0:
                continue
            running = np.cumsum(self.weights[j, nb])
            targets[j, : len(nb)] = nb
            cumulative[j, : len(nb)] = running
            totals[j] = running[-1]
        table = TransitionTable(targets, cumulative, totals)
        for a in (targets, cumulative, totals):
            a.setflags(write=False)
        return table

    @cached_property
    def _omega_geometries(self) -> dict:
        """Length-metric geometry of Omega = X \\ D per observation sequence
        D, filled by ``observability._omega_geometry``."""
        return {}

    @cached_property
    def _edge_lengths(self) -> tuple[Fraction | None, csr_array, np.ndarray]:
        """(scale, edges, lengths): ``edges`` is b as a csr array, and
        ``lengths[k]`` the exact length 1/b of its k-th stored entry, in an
        object array.

        The length unit is the gcd of the edge lengths (the gcd of their
        numerators over the lcm of their denominators) and ``scale`` its
        inverse, so each length is stored as the int length * scale.  When
        the lcm has more than ``_MAX_SCALE_BITS`` bits, scale is None and
        each length stays a Fraction.  ``1/Fraction(b)`` runs once per
        distinct weight.
        """
        edges = self._edges
        distinct, which = np.unique(edges.data, return_inverse=True)
        lengths = [1 / Fraction(b) for b in distinct.tolist()]
        den, num = 1, 0
        for w in lengths:
            den = math.lcm(den, w.denominator)
            if den.bit_length() > _MAX_SCALE_BITS:
                scale = None
                break
            num = math.gcd(num, w.numerator)
        else:
            scale = Fraction(den, num or 1)
            lengths = [(w.numerator // num) * (den // w.denominator) for w in lengths]
        return scale, edges, np.array(lengths, dtype=object)[which]

    @property
    def _length_scale(self) -> Fraction | None:
        return self._edge_lengths[0]

    @cached_property
    def _length_table(self) -> np.ndarray:
        """All-pairs length distances, exact and read-only, each distance
        times ``_length_scale``; inf marks an unreachable pair.

        When every edge is one unit long, a distance in units is a hop
        count, and the table is ``hop_table`` itself.  Otherwise every
        Dijkstra sum is an int of at most n * (largest edge length), so when
        that is below 2**53 the table is scipy's float64 Dijkstra, exact
        like ``hop_table``.  Otherwise it is an object array from a heap
        Dijkstra over Python ints, or over Fractions when there is no length
        scale.
        """
        n = self.n
        scale, edges, lengths = self._edge_lengths
        if scale is not None and set(lengths.tolist()) <= {1}:
            return self.hop_table
        if scale is not None and n * lengths.max(initial=0) < 2**53:
            # sparse input: on a dense matrix scipy drops small entries
            in_units = csr_array((lengths.astype(float), edges.indices, edges.indptr), shape=(n, n))
            table = shortest_path(in_units, method="D", directed=False)
            table.setflags(write=False)
            return table
        ptr, cols, lengths = edges.indptr.tolist(), edges.indices.tolist(), lengths.tolist()
        adjacent = [list(zip(cols[lo:hi], lengths[lo:hi])) for lo, hi in zip(ptr, ptr[1:])]
        table = np.empty((n, n), dtype=object)
        for src in range(n):
            dist: list = [math.inf] * n
            dist[src] = 0
            heap: list = [(0, src)]
            while heap:
                d, i = heappop(heap)
                if d > dist[i]:
                    continue
                for j, w in adjacent[i]:
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
        # on the sparse b that ``hop_table`` reads, without building the table
        connected=bool(connected_components(g._edges, directed=False)[0] == 1),
        d_max=float(deg.max()) if g.n else 0.0,
        sup_m=float(g.m.max()),
        inf_m=float(g.m.min()),
        inf_positive_b=float(positive.min()) if positive.size else math.inf,
    )


# ---------------------------------------------------------------------------
# metrics


def _table(g: WeightedGraph, kind: MetricKind) -> np.ndarray:
    return g.hop_table if kind is MetricKind.COMBINATORIAL else g._length_table


def _nearest(table: np.ndarray, cols: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """min over ``cols`` of each row of ``table``, or of each row in ``rows``,
    gathered a block of rows at a time, so no copy of the whole rows x cols
    block is made."""
    out = np.empty(len(table) if rows is None else len(rows), dtype=table.dtype)
    for rb in _blocks(len(out), _BLOCK_ELEMENTS // max(1, len(cols))):
        block = table[rb][:, cols] if rows is None else table[np.ix_(rows[rb], cols)]
        out[rb] = block.min(axis=1)
    return out


def _as_result(g: WeightedGraph, kind: MetricKind, d, exact: bool):
    """A table entry as reported: int (hops) or Fraction (length) when
    exact, the correctly rounded float otherwise; ``math.inf`` when
    unreachable either way."""
    if d == math.inf:
        return math.inf
    if kind is MetricKind.COMBINATORIAL:
        return int(d) if exact else float(d)
    if isinstance(d, float):  # a float table holds exact integers
        d = int(d)
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
    to_d = _nearest(_table(g, kind), g.subset_indices(D))
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
    to_comp = _nearest(_table(g, kind), np.flatnonzero(~inside), np.flatnonzero(inside))
    return _as_result(g, kind, to_comp.max(), exact)


def max_ball_volume(g: WeightedGraph, kind: MetricKind, r) -> float:
    """max_x m(B_r(x)) over closed balls of radius r.

    ``r`` may be a float, int, or Fraction; comparisons against the exact
    distances are exact (floats convert exactly).  Each ball volume is
    summed in vertex order, a block of rows at a time.
    """
    if isinstance(r, float) and math.isinf(r):
        return float(g.m.sum())
    r = Fraction(r)
    if r < 0:
        raise ValidationError("ball radius must be nonnegative")
    # integer entries d satisfy d <= r * scale exactly when d <= floor(r * scale);
    # Fraction entries (no length scale) compare with r itself
    scale = 1 if kind is MetricKind.COMBINATORIAL else g._length_scale
    table = _table(g, kind)
    bound = r if scale is None else math.floor(r * scale)
    if table.dtype != object:
        # every finite entry of a float table is below 2**53, and a larger
        # int may have no float
        bound = min(bound, 2**53)
    volumes = np.empty(g.n)
    for rb in _blocks(g.n, _BLOCK_ELEMENTS // (2 * g.n)):
        # a running sum adds left to right, like a loop over the vertices
        volumes[rb] = np.cumsum(np.where(table[rb] <= bound, g.m, 0.0), axis=1)[:, -1]
    return float(volumes.max())


# ---------------------------------------------------------------------------
# Folner diagnostics


def _boundary_weight(g: WeightedGraph, Y: Sequence[str]) -> Fraction:
    """b(Y, Y^c), the total weight of the edges leaving Y, exactly."""
    yidx = set(int(i) for i in g.subset_indices(Y))
    return sum(
        (Fraction(g.weights[i, j]) for i in yidx for j in g.neighbors(i) if int(j) not in yidx),
        Fraction(0),
    )


def folner_ratio(g: WeightedGraph, Y: Sequence[str]) -> Fraction:
    """Boundary-to-volume ratio b(Y, Y^c) / m(Y), as an exact rational."""
    if len(Y) == 0:
        raise EmptySubset("Folner ratio needs a nonempty subset")
    mass = sum((Fraction(g.m[i]) for i in g.subset_indices(Y)), Fraction(0))
    return _boundary_weight(g, Y) / mass


# ---------------------------------------------------------------------------
# JSON interchange


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


def _real(value, name: str) -> float:
    """Any JSON number as a float, NaN and +-Infinity included; an integer
    beyond the float range reads as +-inf.  Anything else (a boolean or a
    string included) raises ``ParseError``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{name!r} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _number(value, name: str) -> float:
    """A numeric scenario or family parameter: any finite JSON number;
    anything else (NaN and +-Infinity included) raises ``ParseError``."""
    number = _real(value, name)
    if not math.isfinite(number):
        raise ParseError(f"{name!r} must be a finite number, got {value!r}")
    return number


def _integer(value, name: str) -> int:
    """A count, seed or size: a nonnegative JSON integer."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{name!r} must be a nonnegative integer, got {value!r}")
    if value < 0:
        raise ParseError(f"{name!r} must be nonnegative, got {value}")
    return value


def _text(value, name: str) -> str:
    """A vertex id, parity, task or family name: only a JSON string."""
    if not isinstance(value, str):
        raise ParseError(f"{name!r} must be a string, got {value!r}")
    return value


def _list(value, name: str) -> list:
    """A list-valued scenario parameter; anything else raises ``ParseError``."""
    if not isinstance(value, (list, tuple)):
        raise ParseError(f"{name!r} must be a list, got {value!r}")
    return value


def _numbers(value, name: str) -> list[float]:
    return [_number(v, name) for v in _list(value, name)]


def _names(value, name: str) -> list[str]:
    return [_text(v, name) for v in _list(value, name)]


def _path(value, name: str) -> str | Path:
    """A file path; anything but a string raises ``ParseError``."""
    if not isinstance(value, (str, Path)):
        raise ParseError(f"{name!r} must be a file path string, got {value!r}")
    return value


def _object(value, name: str) -> dict:
    """A JSON object; anything else raises ``ParseError``."""
    if not isinstance(value, dict):
        raise ParseError(f"{name!r} must be an object, got {value!r}")
    return value


def _fields(value, name: str, table: dict, *, one_of: bool = False) -> dict:
    """Read a JSON object through ``table``, which maps each accepted key to
    ``(parser, default)``: a present key is read as ``parser(v, "name.key")``,
    an absent one takes its default as given, and any other key raises
    ``ParseError``.  With ``one_of`` exactly one key must be present, and
    the result holds only that one."""
    value = _object(value, name)
    unknown = sorted(set(value) - set(table), key=str)
    if unknown:
        raise ParseError(f"{name!r} takes only {list(table)}, not {unknown}")
    if one_of and len(value) != 1:
        raise ParseError(f"{name!r} takes exactly one of {list(table)}, got {list(value)}")
    return {
        key: parse(value[key], f"{name}.{key}") if key in value else default
        for key, (parse, default) in table.items()
        if key in value or not one_of
    }


# Every key of these tables is required.
_GRAPH_KEYS = {"vertices": (_list, None), "edges": (_list, None)}
_VERTEX_KEYS = {"id": (_text, None), "m": (_real, None)}
_EDGE_KEYS = {"u": (_text, None), "v": (_text, None), "b": (_real, None)}


def _record(value, name: str, table: dict) -> tuple:
    """The values of a graph JSON object in ``table`` order, read through
    ``_fields``; a missing key raises ``ParseError``."""
    fields = _fields(value, name, table)
    missing = [key for key, v in fields.items() if v is None]
    if missing:
        raise ParseError(f"{name!r} needs {missing}")
    return tuple(fields.values())


def graph_from_json(data: dict) -> WeightedGraph:
    """Parse the JSON interchange form.  The top level, each vertex and each
    edge take exactly the keys of their tables; ids read as text, m and b
    as JSON numbers.  ``build_graph`` rejects NaN/inf values, self-loops
    and duplicate edges."""
    vertices, edges = _record(data, "graph JSON", _GRAPH_KEYS)
    return build_graph(
        [_record(v, f"vertices[{i}]", _VERTEX_KEYS) for i, v in enumerate(vertices)],
        [_record(e, f"edges[{i}]", _EDGE_KEYS) for i, e in enumerate(edges)],
    )


def read_json(path: str | Path):
    """Parse a JSON file; a missing or unreadable file and invalid JSON
    raise ``ParseError``."""
    path = _path(path, "file path")
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc


def load_graph_json(path: str | Path) -> WeightedGraph:
    return graph_from_json(read_json(path))


def load_subset_json(path: str | Path) -> tuple[str, ...]:
    ids = _fields(read_json(path), "subset JSON", {"ids": (_names, None)})["ids"]
    if ids is None:
        raise ParseError("subset JSON needs an 'ids' list")
    return tuple(ids)
