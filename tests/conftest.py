import math

import numpy as np
import pytest
from hypothesis import settings

from graphheat.covering import build_cyclic_cover
from graphheat.families import build_family
from graphheat.graph import MetricKind, WeightedGraph, _dist_to_set, build_graph, covering_radius
from graphheat.spectral import eigendecompose

# Every run draws the same examples, so two checkouts are tested on one set
# of inputs and a failing draw shows on every run, not only on some.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


def cycle(n, m=1.0, b=1.0):
    return build_family("cycle", {"n": n, "m": m, "b": b}).graph


def path(n, m=1.0, b=1.0):
    return build_family("path", {"n": n, "m": m, "b": b}).graph


@pytest.fixture(scope="session")
def k2():
    return build_graph([("0", 1.0), ("1", 1.0)], [("0", "1", 1.0)])


@pytest.fixture(scope="session")
def c4():
    return cycle(4)


@pytest.fixture(scope="session")
def c8():
    return cycle(8)


@pytest.fixture(scope="session")
def c8_cover(c4):
    return build_cyclic_cover(c4, 2)


@pytest.fixture(scope="session")
def p101():
    return path(101)


def random_connected_graph(rng, n, b_range=(0.5, 2.0), m_range=(0.5, 2.0), extra=0.5):
    """Random spanning tree plus a few extra edges; weights on a 1e-3 grid."""
    def draw(lo, hi):
        return round(float(rng.uniform(lo, hi)), 3)

    vertices = [(str(i), draw(*m_range)) for i in range(n)]
    edges = {}
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges[(j, i)] = draw(*b_range)
    n_extra = int(rng.poisson(extra * n))
    for _ in range(n_extra):
        i, j = sorted(int(v) for v in rng.integers(0, n, size=2))
        if i != j and (i, j) not in edges:
            edges[(i, j)] = draw(*b_range)
    return build_graph(
        vertices, [(str(i), str(j), w) for (i, j), w in edges.items()]
    )


def grow_dense_subset(g: WeightedGraph, rng, max_covr=2.0):
    """Grow D greedily until its length-metric covering radius is <= max_covr."""
    D = [g.vertex_ids[int(rng.integers(0, g.n))]]
    while True:
        covr = covering_radius(g, MetricKind.LENGTH, D, exact=True)
        if covr <= max_covr:
            return tuple(D)
        to_d = _dist_to_set(g, MetricKind.LENGTH, g.subset_indices(D))  # ordered like distances
        worst = max(range(g.n), key=lambda i: to_d[i])  # first farthest vertex
        D.append(g.vertex_ids[worst])


def corpus_recipe(n, seed):
    """A graph of the acceptance-corpus recipe with n vertices and its D,
    drawn from ``seed`` until D is a proper subset."""
    rng = np.random.default_rng(seed)
    while True:
        g = random_connected_graph(rng, n)
        D = grow_dense_subset(g, rng)
        if len(D) < g.n:
            return g, D


class CorpusItem:
    def __init__(self, graph, D, sd):
        self.graph = graph
        self.D = D
        self.sd = sd


@pytest.fixture(scope="session")
def corpus():
    """100 random connected graphs (n <= 40, b, m in [0.5, 2]) with D grown
    to length-metric covering radius <= 2; shared by the acceptance tests."""
    rng = np.random.default_rng(20250810)
    items = []
    while len(items) < 100:
        n = int(rng.integers(4, 41))
        g = random_connected_graph(rng, n)
        D = grow_dense_subset(g, rng)
        if len(D) >= g.n:  # keep D a proper subset
            continue
        items.append(CorpusItem(g, D, eigendecompose(g)))
    return items


def m_norm(g, f):
    return math.sqrt(float(np.sum(np.abs(np.asarray(f)) ** 2 * g.m)))
