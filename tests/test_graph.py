import gc
import math
import weakref
from collections import deque
from fractions import Fraction
from heapq import heappop, heappush

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphheat.covering import ball_around_set
from graphheat.errors import (
    DuplicateEdge,
    EmptySubset,
    NonPositiveMeasure,
    NonSymmetricWeight,
    ParseError,
    SelfLoop,
    UnknownVertex,
)
from graphheat.graph import (
    FullSetInradiusWarning,
    MetricKind,
    build_graph,
    covering_radius,
    distance,
    folner_ratio,
    graph_from_json,
    graph_to_json,
    inradius,
    max_ball_volume,
    validate_assumptions,
)

from conftest import cycle, path, random_connected_graph

COMB = MetricKind.COMBINATORIAL
LEN = MetricKind.LENGTH


# ---------------------------------------------------------------------------
# build_graph


def test_build_k2_degrees(k2):
    np.testing.assert_allclose(k2.degrees(), [1.0, 1.0])


def test_build_c4_degrees(c4):
    np.testing.assert_allclose(c4.degrees(), [2.0, 2.0, 2.0, 2.0])


def test_asymmetric_weight_rejected():
    with pytest.raises(NonSymmetricWeight):
        build_graph([("0", 1), ("1", 1)], [("0", "1", 1.0), ("1", "0", 2.0)])


def test_reversed_duplicate_with_equal_weight_is_duplicate():
    with pytest.raises(DuplicateEdge):
        build_graph([("0", 1), ("1", 1)], [("0", "1", 1.0), ("1", "0", 1.0)])


def test_self_loop_rejected():
    with pytest.raises(SelfLoop):
        build_graph([("0", 1)], [("0", "0", 1.0)])


def test_nonpositive_measure_rejected():
    with pytest.raises(NonPositiveMeasure):
        build_graph([("0", 0.0)], [])


def test_unknown_edge_endpoint():
    with pytest.raises(UnknownVertex):
        build_graph([("0", 1)], [("0", "9", 1.0)])


# ---------------------------------------------------------------------------
# validate_assumptions


def test_assumptions_c4(c4):
    rep = validate_assumptions(c4)
    assert rep.connected
    assert rep.d_max == 2.0
    assert rep.sup_m == 1.0


def test_assumptions_disconnected():
    g = build_graph(
        [("a", 1), ("b", 1), ("c", 1), ("d", 1)],
        [("a", "b", 1.0), ("c", "d", 1.0)],
    )
    assert not validate_assumptions(g).connected


def test_assumptions_p3_weighted_measure():
    # Deg at the middle vertex is (1+1)/2 = 1 and 1/1 = 1 at the ends
    g = build_graph(
        [("0", 1.0), ("1", 2.0), ("2", 1.0)],
        [("0", "1", 1.0), ("1", "2", 1.0)],
    )
    assert validate_assumptions(g).d_max == 1.0


# ---------------------------------------------------------------------------
# distance


def test_distance_k2_both_kinds(k2):
    assert distance(k2, COMB, "0", "1") == 1.0
    assert distance(k2, LEN, "0", "1") == 1.0


def test_distance_c4_opposite(c4):
    assert distance(c4, COMB, "0", "2") == 2.0


def test_distance_length_halved_edges():
    g = path(3, b=2.0)
    assert distance(g, LEN, "0", "2") == 1.0  # 1/2 + 1/2
    assert distance(g, LEN, "0", "2", exact=True) == Fraction(1)


def test_distance_unknown_vertex(c4):
    with pytest.raises(UnknownVertex):
        distance(c4, COMB, "0", "zz")


def test_distance_disconnected_inf():
    g = build_graph([("0", 1), ("1", 1)], [])
    assert distance(g, COMB, "0", "1") == math.inf
    assert distance(g, LEN, "0", "1") == math.inf


# ---------------------------------------------------------------------------
# covering radius / inradius / ball volume


def test_covering_radius_c4(c4):
    assert covering_radius(c4, COMB, ["0", "2"]) == 1.0


def test_covering_radius_full_set(c4):
    assert covering_radius(c4, COMB, list(c4.vertex_ids)) == 0.0


def test_covering_radius_unreachable_inf():
    g = build_graph(
        [("0", 1), ("1", 1), ("2", 1)], [("0", "1", 1.0)]
    )
    assert covering_radius(g, COMB, ["0"]) == math.inf


def test_covering_radius_empty():
    with pytest.raises(EmptySubset):
        covering_radius(cycle(4), COMB, [])


def test_inradius_c4(c4):
    assert inradius(c4, COMB, ["1", "3"]) == 1.0


def test_inradius_empty(c4):
    assert inradius(c4, COMB, []) == 0.0


def test_inradius_full_set_flagged(c4):
    with pytest.warns(FullSetInradiusWarning):
        assert inradius(c4, COMB, list(c4.vertex_ids)) == math.inf


def test_max_ball_volume_c4(c4):
    assert max_ball_volume(c4, COMB, 1) == 3.0


def test_max_ball_volume_r0():
    g = build_graph([("0", 1.5), ("1", 0.5)], [("0", "1", 1.0)])
    assert max_ball_volume(g, COMB, 0) == 1.5


def test_max_ball_volume_saturates(k2):
    assert max_ball_volume(k2, COMB, 5) == 2.0


# ---------------------------------------------------------------------------
# metric properties


@pytest.mark.parametrize("kind", [COMB, LEN])
def test_symmetry_and_triangle_exhaustive(kind):
    rng = np.random.default_rng(5)
    g = random_connected_graph(rng, 12)
    ids = g.vertex_ids
    d = {(x, y): distance(g, kind, x, y) for x in ids for y in ids}
    for x in ids:
        for y in ids:
            assert d[x, y] == d[y, x]
            for z in ids:
                assert d[x, z] <= d[x, y] + d[y, z] + 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(3, 9))
def test_metric_comparison(seed, n):
    g = random_connected_graph(np.random.default_rng(seed), n)
    positive = g.weights[g.weights > 0.0]
    sup_b, inf_b = float(positive.max()), float(positive.min())
    for x in g.vertex_ids:
        for y in g.vertex_ids:
            dc = distance(g, COMB, x, y)
            dl = distance(g, LEN, x, y)
            assert dc <= sup_b * dl + 1e-9
            assert dl <= dc / inf_b + 1e-9


# ---------------------------------------------------------------------------
# distance tables against per-pair reference algorithms


def ref_hops(g):
    """BFS hop counts from every source; None marks an unreachable pair."""
    rows = []
    for src in range(g.n):
        dist = [None] * g.n
        dist[src] = 0
        queue = deque([src])
        while queue:
            i = queue.popleft()
            for j in g.neighbors(i):
                if dist[j] is None:
                    dist[j] = dist[i] + 1
                    queue.append(j)
        rows.append(dist)
    return rows


def ref_lengths(g):
    """Fraction Dijkstra from every source; None marks an unreachable pair."""
    rows = []
    for src in range(g.n):
        dist = [None] * g.n
        dist[src] = Fraction(0)
        heap = [(Fraction(0), src)]
        while heap:
            d, i = heappop(heap)
            if d > dist[i]:
                continue
            for j in g.neighbors(i):
                nd = d + 1 / Fraction(g.weights[i, j])
                if dist[j] is None or nd < dist[j]:
                    dist[j] = nd
                    heappush(heap, (nd, int(j)))
        rows.append(dist)
    return rows


def ref_dist_to_set(rows, i, targets):
    reachable = [rows[i][j] for j in targets if rows[i][j] is not None]
    return min(reachable) if reachable else None


def ref_covering_radius(rows, targets, zero):
    worst = zero
    for i in range(len(rows)):
        d = ref_dist_to_set(rows, i, targets)
        if d is None:
            return math.inf
        worst = max(worst, d)
    return worst


def ref_inradius(rows, inside):
    outside = [j for j in range(len(rows)) if j not in inside]
    best = None
    for i in inside:
        d = ref_dist_to_set(rows, i, outside)
        if d is None:
            return math.inf
        if best is None or d > best:
            best = d
    return best


def ref_max_ball_volume(g, rows, r):
    best = 0.0
    for i in range(g.n):
        vol = 0.0
        for j in range(g.n):
            if rows[i][j] is not None and rows[i][j] <= r:
                vol += g.m[j]
        best = max(best, vol)
    return best


@st.composite
def table_cases(draw):
    """One or two components with random or uniform weights (uniform
    weights tie many radii), plus a nonempty subset D."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=2))
    uniform = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    b_range = (2.0, 2.0) if uniform else (0.5, 2.0)
    vertices, edges = [], []
    for size in sizes:
        part = graph_to_json(random_connected_graph(rng, size, b_range=b_range))
        offset = len(vertices)
        vertices += [(str(int(v["id"]) + offset), v["m"]) for v in part["vertices"]]
        edges += [
            (str(int(e["u"]) + offset), str(int(e["v"]) + offset), e["b"])
            for e in part["edges"]
        ]
    g = build_graph(vertices, edges)
    D = draw(st.lists(st.sampled_from(g.vertex_ids), min_size=1, unique=True))
    return g, D


@settings(max_examples=60, deadline=None)
@given(table_cases())
def test_distance_tables_match_reference(case):
    g, D = case
    d_idx = [g.index_of(v) for v in D]
    omega = [v for v in g.vertex_ids if v not in D]
    for kind, rows, exact_type in ((COMB, ref_hops(g), int), (LEN, ref_lengths(g), Fraction)):

        def expect(d, exact):
            if d is None or d == math.inf:
                return math.inf
            return d if exact else float(d)

        def check(got, want, exact):
            assert got == expect(want, exact)
            if want is None or want == math.inf:
                assert type(got) is float
            else:
                assert type(got) is (exact_type if exact else float)

        for exact in (False, True):
            for i, x in enumerate(g.vertex_ids):
                for j, y in enumerate(g.vertex_ids):
                    check(distance(g, kind, x, y, exact=exact), rows[i][j], exact)
            zero = exact_type(0)
            check(
                covering_radius(g, kind, D, exact=exact),
                ref_covering_radius(rows, d_idx, zero),
                exact,
            )
            for inside in (D, omega):
                if 0 < len(inside) < g.n:
                    idx = [g.index_of(v) for v in inside]
                    check(inradius(g, kind, inside, exact=exact), ref_inradius(rows, idx), exact)

        radii = {d for row in rows for d in row if d is not None}
        radii |= {float(d) for d in radii} | {Fraction(1, 3), 0.75}
        for r in radii:
            assert max_ball_volume(g, kind, r) == ref_max_ball_volume(g, rows, r)
        assert max_ball_volume(g, kind, math.inf) == float(g.m.sum())

    hops = ref_hops(g)
    to_d = [ref_dist_to_set(hops, i, d_idx) for i in range(g.n)]
    for d in range(4):
        want = tuple(v for v, h in zip(g.vertex_ids, to_d) if h is not None and h <= d)
        assert ball_around_set(g, D, d) == want


def test_distance_tables_computed_once_and_read_only(c4):
    for name in ("hop_table", "length_table"):
        table = getattr(c4, name)
        assert getattr(c4, name) is table
        assert not table.flags.writeable


def test_graph_freed_after_distance_queries():
    g = build_graph([("0", 1.0), ("1", 1.0), ("2", 1.0)], [("0", "1", 1.0), ("1", "2", 2.0)])
    for kind in (COMB, LEN):
        covering_radius(g, kind, ["0"])
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


# ---------------------------------------------------------------------------
# Folner ratios


@pytest.mark.parametrize("n_half", [1, 2, 3, 4])
def test_folner_segment_exact(n_half):
    g = cycle(20)  # C_{4k} with k = 5
    ids = [str(i % 20) for i in range(-n_half, n_half + 1)]
    assert folner_ratio(g, ids) == Fraction(2, 2 * n_half + 1)


def test_folner_full_set_zero(c4):
    assert folner_ratio(c4, list(c4.vertex_ids)) == 0


def test_folner_single_vertex_c4(c4):
    assert folner_ratio(c4, ["0"]) == 2


def test_folner_empty(c4):
    with pytest.raises(EmptySubset):
        folner_ratio(c4, [])


# ---------------------------------------------------------------------------
# JSON round trip


def test_graph_json_roundtrip(c4):
    data = graph_to_json(c4)
    g2 = graph_from_json(data)
    assert g2.vertex_ids == c4.vertex_ids
    np.testing.assert_array_equal(g2.weights, c4.weights)
    np.testing.assert_array_equal(g2.m, c4.m)


def test_graph_json_rejects_nan():
    from graphheat.errors import InvalidWeight

    data = {
        "vertices": [{"id": "0", "m": 1.0}, {"id": "1", "m": 1.0}],
        "edges": [{"u": "0", "v": "1", "b": math.nan}],
    }
    with pytest.raises(InvalidWeight):
        graph_from_json(data)
    data["edges"][0]["b"] = math.inf
    with pytest.raises(InvalidWeight):
        graph_from_json(data)


def test_graph_json_malformed():
    with pytest.raises(ParseError):
        graph_from_json({"vertices": [{"id": "0", "m": 1.0}]})
