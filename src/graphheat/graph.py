"""Weighted-graph data model, standing assumptions, and graph geometry.

A weighted graph is a triple (X, b, m): a finite ordered vertex set X, a
symmetric nonnegative edge weight b with zero diagonal, and a positive
vertex measure m.  Vectors over the graph are numpy arrays ordered like
``vertex_ids``.

Every metric query is a search from the sources it names, never an
all-pairs table: a distance to a set (covering radius, inradius) is one
Dijkstra seeded with the whole set, kept on the graph per (metric, set); a
ball volume is one search per centre, cut off at the radius; a distance
between two vertices is one single-source search.  Every float is an exact
dyadic rational, so every edge length 1/b is an integer multiple of a
unit, the gcd of the lengths, and each search runs on lengths in units, in
one of two tiers picked from the graph:

- When n times the longest edge is below 2**53 units, every sum Dijkstra
  forms is an integer that a float holds exactly, so the search is scipy's
  float64 Dijkstra.  Hop counts are always here, and so is every graph
  with one distinct weight, since its edges are 1 unit long.
- Otherwise, a heap Dijkstra over Python ints.

Either way ball-membership comparisons at tied radii never flip due to
rounding, and only the query boundary turns a distance in units into a
rational or float.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components, dijkstra

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
        it is beyond the float range.  Formed once per graph, read-only."""
        return self._degrees

    @cached_property
    def _degrees(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            deg = self.weights.sum(axis=1) / self.m
        deg.setflags(write=False)
        return deg

    def neighbors(self, i: int) -> np.ndarray:
        return np.nonzero(self.weights[i] > 0.0)[0]

    @cached_property
    def _edge_positions(self) -> np.ndarray:
        """The flat positions i n + j of the edges b(i, j) != 0, ascending:
        the one scan of b that ``_edges`` and ``transition_table`` share (a
        flat scan of the mask costs a tenth of np.nonzero's (row, column)
        scan)."""
        return np.flatnonzero(self.weights != 0)

    @cached_property
    def _edges(self) -> csr_array:
        """b as a csr array, built once for every sparse graph query: on a
        dense matrix scipy drops edges with b <= 1e-8.  It is assembled from
        ``_edge_positions`` with the parts and the int32 indices that
        ``csr_array(weights)`` makes, without a scan of its own."""
        flat = self._edge_positions
        rows, cols = np.divmod(flat, self.n)
        indptr = np.zeros(self.n + 1, dtype=np.int32)  # n and nnz of a dense b fit int32
        np.cumsum(np.bincount(rows, minlength=self.n), out=indptr[1:])
        data = self.weights.ravel().take(flat)
        return csr_array((data, cols.astype(np.int32), indptr), shape=(self.n, self.n))

    @cached_property
    def transition_table(self) -> TransitionTable:
        """The random walk's jump law, shared by every sampler on this graph."""
        rows, nbrs = np.divmod(self._edge_positions, self.n)  # each row's neighbours, ascending
        count = np.bincount(rows, minlength=self.n)
        ends = np.cumsum(count)
        width = int(count.max(initial=0))
        slot = np.arange(len(rows)) - (ends - count)[rows]
        last = np.arange(self.n)  # padding targets: the last neighbour, or j itself
        last[count > 0] = nbrs[ends[count > 0] - 1]
        targets = np.repeat(last[:, None], width, axis=1)
        targets[rows, slot] = nbrs
        # zero padding keeps each row's running sum, added one slot at a time
        # (cumsum runs in order, like np.cumsum of the row alone), as its total
        cumulative = np.zeros((self.n, width), order="F")
        cumulative[rows, slot] = self.weights[rows, nbrs]
        np.cumsum(cumulative, axis=1, out=cumulative)
        totals = cumulative[:, -1].copy() if width else np.zeros(self.n)
        cumulative[np.arange(width) >= count[:, None]] = math.inf
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
    def _set_distances(self) -> dict:
        """Distances in units to each searched vertex set, per (metric,
        set), filled by ``_dist_to_set``."""
        return {}

    @cached_property
    def _edge_lengths(self) -> tuple[Fraction, csr_array | list]:
        """(scale, edges): each edge length 1/b as an integer number of
        units, the unit being the gcd of the lengths (the gcd of their
        numerators over the lcm of their denominators) and ``scale`` its
        inverse.  ``edges`` is a float64 csr array of those integers when n
        times the longest is below 2**53, so every Dijkstra sum is an
        integer a float holds exactly, and otherwise one list of
        (neighbour, int length) pairs per vertex.  ``1/Fraction(b)`` runs
        once per distinct weight.
        """
        edges = self._edges
        distinct, which = np.unique(edges.data, return_inverse=True)
        lengths = [1 / Fraction(b) for b in distinct.tolist()]
        den = math.lcm(*(w.denominator for w in lengths))
        num = math.gcd(*(w.numerator for w in lengths)) or 1
        scale = Fraction(den, num)
        units = [(w.numerator // num) * (den // w.denominator) for w in lengths]
        if self.n * max(units, default=0) < 2**53:
            # sparse input: on a dense matrix scipy drops small entries
            data = np.array(units, dtype=float)[which]
            return scale, csr_array((data, edges.indices, edges.indptr), shape=edges.shape)
        ptr, cols = edges.indptr.tolist(), edges.indices.tolist()
        units = [units[k] for k in which.tolist()]
        return scale, [list(zip(cols[lo:hi], units[lo:hi])) for lo, hi in zip(ptr, ptr[1:])]


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

    seen: dict[int, float] = {}  # weight per edge key i n + j, i < j
    for (u, v, w) in edges:
        u, v = str(u), str(v)
        i, j = index.get(u), index.get(v)
        if i is None or j is None:
            raise UnknownVertex(f"edge ({u!r}, {v!r}) references an unknown vertex")
        w = float(w)
        if not math.isfinite(w) or w < 0.0:
            raise InvalidWeight(f"b({u!r},{v!r}) = {w} is not a finite nonnegative real")
        if i == j:
            raise SelfLoop(f"self-loop at {u!r}")
        key = i * n + j if i < j else j * n + i
        old = seen.get(key)
        if old is not None:
            if old != w:
                raise NonSymmetricWeight(
                    f"edge ({u!r},{v!r}) given twice with weights {old} and {w}"
                )
            raise DuplicateEdge(f"edge ({u!r},{v!r}) appears more than once")
        seen[key] = w
    b = np.zeros((n, n))
    lo, hi = np.divmod(np.fromiter(seen, dtype=np.int64, count=len(seen)), n)
    b[lo, hi] = b[hi, lo] = np.fromiter(seen.values(), dtype=float, count=len(seen))

    return WeightedGraph(tuple(ids), m, b)


def validate_assumptions(g: WeightedGraph) -> AssumptionReport:
    """Check connectivity and compute the boundedness constants."""
    deg = g.degrees()
    positive = g.weights[g.weights > 0.0]
    return AssumptionReport(
        # on the sparse b that every hop search reads
        connected=bool(connected_components(g._edges, directed=False)[0] == 1),
        d_max=float(deg.max()) if g.n else 0.0,
        sup_m=float(g.m.max()),
        inf_m=float(g.m.min()),
        inf_positive_b=float(positive.min()) if positive.size else math.inf,
    )


# ---------------------------------------------------------------------------
# metrics


def _unit_edges(g: WeightedGraph, kind: MetricKind) -> csr_array | list:
    """The edges with their lengths in units: a csr array for scipy's
    float64 Dijkstra (``unweighted`` for hops), or one list of (neighbour,
    int length) pairs per vertex for the heap Dijkstra.  b is symmetric, so
    scipy's default directed search needs no transpose."""
    return g._edges if kind is MetricKind.COMBINATORIAL else g._edge_lengths[1]


def _search(g: WeightedGraph, kind: MetricKind, sources: np.ndarray) -> np.ndarray:
    """Distances in units from every vertex to the nearest of ``sources``:
    one search seeded with all of them; inf out of reach."""
    edges = _unit_edges(g, kind)
    if isinstance(edges, list):
        return np.array(_heap_dijkstra(edges, sources.tolist(), math.inf), dtype=object)
    hops = kind is MetricKind.COMBINATORIAL
    return dijkstra(edges, indices=sources, min_only=True, unweighted=hops)


def _balls(g: WeightedGraph, kind: MetricKind, centres: np.ndarray, limit: int) -> np.ndarray:
    """Which vertices lie within ``limit`` units of each of ``centres``, one
    row each: one search per centre, cut off at the limit.  A heap search
    keeps only the membership of its row, not the distances."""
    edges = _unit_edges(g, kind)
    if isinstance(edges, list):
        return np.array(
            [[d < math.inf for d in _heap_dijkstra(edges, [c], limit)] for c in centres.tolist()],
            dtype=bool,
        )
    # every finite distance here is below 2**53, and a larger int may have no float
    limit, hops = min(limit, 2**53), kind is MetricKind.COMBINATORIAL
    return dijkstra(edges, indices=centres, limit=limit, unweighted=hops) < math.inf


def _heap_dijkstra(adjacent: list, seeds: list, limit) -> list:
    """Dijkstra over int lengths from all of ``seeds`` at once, reaching no
    vertex beyond ``limit``; inf marks a vertex not reached."""
    dist: list = [math.inf] * len(adjacent)
    for s in seeds:
        dist[s] = 0
    heap = [(0, s) for s in seeds]
    heapify(heap)
    while heap:
        d, i = heappop(heap)
        if d > dist[i]:
            continue
        for j, w in adjacent[i]:
            nd = d + w
            if nd < dist[j] and nd <= limit:
                dist[j] = nd
                heappush(heap, (nd, j))
    return dist


def _dist_to_set(g: WeightedGraph, kind: MetricKind, idx: np.ndarray) -> np.ndarray:
    """Read-only distances in units from every vertex to the nearest of
    ``idx``: one search seeded with all of it, kept on the graph per
    (metric, set)."""
    key = (kind, frozenset(idx.tolist()))
    dist = g._set_distances.get(key)
    if dist is None:
        dist = g._set_distances[key] = _search(g, kind, idx)
        dist.setflags(write=False)
    return dist


def _as_result(g: WeightedGraph, kind: MetricKind, d, exact: bool):
    """A distance in units as reported: int (hops) or Fraction (length)
    when exact, the correctly rounded float otherwise; ``math.inf`` when
    unreachable either way."""
    if d == math.inf:
        return math.inf
    if kind is MetricKind.COMBINATORIAL:
        return int(d) if exact else float(d)
    d = Fraction(int(d), g._edge_lengths[0])  # a float search gives exact integers
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
    d = _search(g, kind, np.array([g.index_of(x)]))[g.index_of(y)]
    return _as_result(g, kind, d, exact)


def covering_radius(
    g: WeightedGraph, kind: MetricKind, D: Sequence[str], *, exact: bool = False
):
    """Smallest R such that closed R-balls around D cover the graph.

    On a finite graph this is the largest attained distance to D; it is
    +inf exactly when some vertex is unreachable from D.
    """
    if len(D) == 0:
        raise EmptySubset("covering radius needs a nonempty subset")
    to_d = _dist_to_set(g, kind, g.subset_indices(D))
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
    to_comp = _dist_to_set(g, kind, np.flatnonzero(~inside))[inside]
    return _as_result(g, kind, to_comp.max(), exact)


def max_ball_volume(g: WeightedGraph, kind: MetricKind, r) -> float:
    """max_x m(B_r(x)) over closed balls of radius r.

    ``r`` may be a float, int, or Fraction; comparisons against the exact
    distances are exact (floats convert exactly).  Each ball is one
    search from its centre cut off at r, the centres a block at a time, and
    its volume is summed in vertex order.
    """
    if isinstance(r, float) and math.isinf(r):
        return float(g.m.sum())
    r = Fraction(r)
    if r < 0:
        raise ValidationError("ball radius must be nonnegative")
    # an integer distance d is <= r * scale exactly when d <= floor(r * scale)
    scale = 1 if kind is MetricKind.COMBINATORIAL else g._edge_lengths[0]
    limit = math.floor(r * scale)
    centres = np.arange(g.n)
    volumes = np.empty(g.n)
    # each cell of a block: its distance, and a member's row, column and measure
    for rb in _blocks(g.n, _BLOCK_ELEMENTS // (4 * g.n)):
        rows, cols = np.divmod(np.flatnonzero(_balls(g, kind, centres[rb], limit)), g.n)
        # bincount adds each ball's measures in vertex order, left to right
        volumes[rb] = np.bincount(rows, weights=g.m[cols], minlength=rb.stop - rb.start)
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
