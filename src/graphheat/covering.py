"""Covering graphs: cyclic covers of cycles, axiom validation, lifts.

A covering map p between weighted graphs preserves measures, preserves
edge weights, and restricts to a bijection between neighbor sets.  The
weight axiom is checked on neighbor pairs (edges of the cover), which is
the local-isomorphism content of the definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    EmptyFiberIntersection,
    EmptySubset,
    InvalidFold,
    NotACycle,
    UnknownVertex,
)
from .graph import WeightedGraph, _boundary_weight, build_graph, validate_assumptions


@dataclass(frozen=True, eq=False)
class CoveringMap:
    """A surjection p from a cover graph onto a base graph."""

    base: WeightedGraph
    cover: WeightedGraph
    p: Mapping[str, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", MappingProxyType(dict(self.p)))

    def fiber(self, base_id: str) -> tuple[str, ...]:
        """All cover vertices mapping onto ``base_id``."""
        self.base.index_of(base_id)
        return tuple(v for v in self.cover.vertex_ids if self.p.get(v) == base_id)


@dataclass(frozen=True)
class CoveringValidation:
    valid: bool
    violation: str | None = None


def validate_covering(c: CoveringMap) -> CoveringValidation:
    """Check the covering axioms and connectivity; report the first failure.

    The map is checked vertex by vertex; then measures, edge weights and
    neighbour images are compared as arrays, and the failure reported is
    the one the vertex-order scan would meet first: a measure mismatch at
    any vertex, then, at the first vertex with a fault among its edges, an
    edge-weight mismatch before a neighbour set that is not in bijection.
    """
    base, cover, p = c.base, c.cover, c.p

    for v in cover.vertex_ids:
        if v not in p:
            return CoveringValidation(False, f"map undefined at cover vertex {v!r}")
        if p[v] not in base._index:  # type: ignore[attr-defined]
            return CoveringValidation(False, f"p({v!r}) = {p[v]!r} is not a base vertex")
    hit = {p[v] for v in cover.vertex_ids}
    if hit != set(base.vertex_ids):
        missing = sorted(set(base.vertex_ids) - hit)
        return CoveringValidation(False, f"map is not surjective (misses {missing})")

    image = np.array([base.index_of(p[v]) for v in cover.vertex_ids], dtype=int)
    (bad,) = np.nonzero(cover.m != base.m[image])
    if len(bad):
        i = bad[0]
        return CoveringValidation(
            False,
            f"measure mismatch at {cover.vertex_ids[i]!r}: {cover.m[i]} != {base.m[image[i]]}",
        )

    # the cover's edges (i, j), in row order with j ascending in each row
    rows, cols = np.nonzero(cover.weights > 0.0)
    weight_bad = cover.weights[rows, cols] != base.weights[image[rows], image[cols]]
    # N(i) maps onto N(p(i)) one to one when the degrees agree and no two
    # neighbours share an image: an image that is no base neighbour has base
    # weight 0, a weight mismatch, which its vertex reports first
    base_degree = np.count_nonzero(base.weights > 0.0, axis=1)
    faulty = np.bincount(rows, minlength=cover.n) != base_degree[image]
    pairs, count = np.unique(rows * base.n + image[cols], return_counts=True)
    faulty[pairs[count > 1] // base.n] = True
    faulty[rows[weight_bad]] = True
    if faulty.any():
        i = int(np.argmax(faulty))
        v = cover.vertex_ids[i]
        (at_i,) = np.nonzero(weight_bad & (rows == i))
        if len(at_i):
            return CoveringValidation(
                False, f"edge-weight mismatch on ({v!r}, {cover.vertex_ids[cols[at_i[0]]]!r})"
            )
        return CoveringValidation(
            False, f"neighbor sets of {v!r} and {p[v]!r} are not in bijection"
        )

    if not validate_assumptions(cover).connected:
        return CoveringValidation(False, "cover graph is not connected")
    return CoveringValidation(True, None)


def _cycle_order(g: WeightedGraph) -> list[int]:
    """Vertex indices of a cycle in traversal order; NotACycle otherwise."""
    n = g.n
    if n < 3:
        raise NotACycle("a cycle needs at least 3 vertices")
    for i in range(n):
        if len(g.neighbors(i)) != 2:
            raise NotACycle(f"vertex {g.vertex_ids[i]!r} does not have exactly 2 neighbors")
    order = [0]
    prev = None
    while True:
        nbrs = [int(j) for j in g.neighbors(order[-1])]
        nxt = nbrs[0] if nbrs[0] != prev else nbrs[1]
        if nxt == 0:
            break
        prev = order[-1]
        order.append(nxt)
    if len(order) != n:
        raise NotACycle("graph is 2-regular but not a single cycle")
    return order


def build_cyclic_cover(base: WeightedGraph, k: int) -> CoveringMap:
    """k-fold cyclic cover of a cycle, with p(x) = x mod n along the cycle."""
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 1:
        raise InvalidFold(f"fold count must be a positive integer, got {k!r}")
    order = _cycle_order(base)
    n = len(order)
    if k == 1:
        cmap = CoveringMap(base, base, {v: v for v in base.vertex_ids})
    else:
        ids = [str(j) for j in range(k * n)]
        vertices = [(ids[j], float(base.m[order[j % n]])) for j in range(k * n)]
        edges = []
        for j in range(k * n):
            a, b = order[j % n], order[(j + 1) % n]
            edges.append((ids[j], ids[(j + 1) % (k * n)], float(base.weights[a, b])))
        cover = build_graph(vertices, edges)
        p = {ids[j]: base.vertex_ids[order[j % n]] for j in range(k * n)}
        cmap = CoveringMap(base, cover, p)
    check = validate_covering(cmap)
    if not check.valid:
        raise NotACycle(f"constructed cover violates the axioms: {check.violation}")
    return cmap


def lift_function(c: CoveringMap, phi: Sequence[float]) -> np.ndarray:
    """Pull back a base-vertex function along p: returns phi o p."""
    phi = np.asarray(phi)
    if phi.shape[0] != c.base.n:
        raise UnknownVertex("function length does not match the base vertex count")
    rows = [c.base.index_of(c.p[v]) for v in c.cover.vertex_ids]
    return phi[rows]


def ball_around_set(g: WeightedGraph, Y: Sequence[str], d: int) -> tuple[str, ...]:
    """Closed combinatorial d-ball around a vertex set, in vertex order."""
    to_y = g.hop_table[:, g.subset_indices(Y)].min(axis=1, initial=np.inf)
    return tuple(g.vertex_ids[i] for i in np.nonzero(to_y <= d)[0])


def lemma_sets(
    c: CoveringMap, x1: str, Y: Sequence[str], d: int
) -> tuple[tuple[str, ...], Fraction]:
    """Inflate Y to Z = B_d(Y) in the cover and form the boundary-to-fiber
    ratio b(Z, Z^c) / m(Z intersect p^{-1}(x1)), exactly."""
    if len(Y) == 0:
        raise EmptySubset("lemma_sets needs a nonempty subset of the cover")
    Z = ball_around_set(c.cover, Y, d)
    fiber = set(c.fiber(x1))
    meet = [v for v in Z if v in fiber]
    if not meet:
        raise EmptyFiberIntersection(f"B_{d}(Y) misses the fiber over {x1!r}")
    mass = sum(
        (Fraction(c.cover.m[c.cover.index_of(v)]) for v in meet), Fraction(0)
    )
    return Z, _boundary_weight(c.cover, Z) / mass
