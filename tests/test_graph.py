import gc
import math
import weakref
from collections import deque
from fractions import Fraction
from heapq import heappop, heappush
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphheat import graph as graph_module
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


def test_distance_tiny_weight_edge_counts():
    g = build_graph([("0", 1.0), ("1", 1.0)], [("0", "1", 1e-9)])
    assert validate_assumptions(g).connected
    assert distance(g, COMB, "0", "1") == 1.0
    assert distance(g, LEN, "0", "1", exact=True) == 1 / Fraction(1e-9)


def test_length_scale_common_denominator():
    g = build_graph(
        [("0", 1.0), ("1", 1.0), ("2", 1.0)], [("0", "1", 3.0), ("1", "2", 0.5)]
    )
    assert g._length_scale == 3
    assert g._length_table[0, 2] == 7  # 1/3 + 2 = 7/3
    assert distance(g, LEN, "0", "2", exact=True) == Fraction(7, 3)
    assert path(3)._length_scale == 1


def test_many_distinct_weights_use_fraction_table():
    # 120 random weights: the lcm of the denominators of the 1/b would have
    # about 6000 bits, so the table holds exact Fractions instead
    rng = np.random.default_rng(5)
    n = 120
    g = build_graph(
        [(str(i), 1.0) for i in range(n)],
        [(str(i), str((i + 1) % n), float(rng.uniform(0.5, 2.0))) for i in range(n)],
    )
    assert g._length_scale is None
    want = ref_lengths(g)
    assert g._length_table.tolist() == want
    assert distance(g, LEN, "0", "60", exact=True) == want[0][60]
    assert covering_radius(g, LEN, ["0"], exact=True) == max(want[0])
    r = want[0][60]
    assert max_ball_volume(g, LEN, r) == ref_max_ball_volume(g, want, r)


def test_uniform_non_dyadic_weight_takes_the_float_table():
    # 1/0.3 = 2**54/5404319552844595: the length unit is that one length, so
    # every edge is 1 unit long and scipy's float Dijkstra builds the table
    g = cycle(300, b=0.3)
    assert g._length_scale == Fraction(5404319552844595, 2**54)
    assert g._length_table.dtype == np.float64
    assert g._length_table[0, 150] == 150.0
    want = ref_covering_radius(ref_lengths(g), [0], Fraction(0))
    assert want == 150 / Fraction(0.3)
    got = covering_radius(g, LEN, ["0"], exact=True)
    assert type(got) is Fraction and got == want


def test_float_distance_beyond_float_range_is_inf():
    # 1/5e-324 = 2**1074 and 1e308 + 1e308 have no float: the correctly
    # rounded value is +inf, while exact=True keeps the finite distance
    g = build_graph(
        [(str(i), 1.0) for i in range(4)],
        [("0", "1", 5e-324), ("1", "2", 1e-308), ("2", "3", 1e-308)],
    )
    assert distance(g, LEN, "0", "1", exact=True) == 2**1074
    assert distance(g, LEN, "1", "3", exact=True) == 2 / Fraction(1e-308)
    for x, y in (("0", "1"), ("1", "3")):
        assert distance(g, LEN, x, y) == math.inf
    assert covering_radius(g, LEN, ["1"]) == math.inf
    assert covering_radius(g, LEN, ["1"], exact=True) == 2**1074
    assert inradius(g, LEN, ["0", "1"]) == math.inf
    assert inradius(g, LEN, ["2"], exact=True) == 1 / Fraction(1e-308)
    assert max_ball_volume(g, LEN, 1 / Fraction(1e-308)) == 3.0  # around 2


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


# 1/b is not dyadic for most of these, so the length scale exceeds 1 and
# radii tie at values like 2/3; the last two make the scaled lengths huge
RATIONAL_WEIGHTS = (1.0, 3.0, 0.3, 7.0, 10.0, 1e-300, 1e300)


@st.composite
def table_cases(draw):
    """One or two components with random, uniform or rational weights
    (uniform and rational weights tie many radii), plus a nonempty subset D."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=2))
    regime = draw(st.sampled_from(["random", "uniform", "rational"]))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    b_range = (2.0, 2.0) if regime == "uniform" else (0.5, 2.0)
    vertices, edges = [], []
    for size in sizes:
        part = graph_to_json(random_connected_graph(rng, size, b_range=b_range))
        offset = len(vertices)
        vertices += [(str(int(v["id"]) + offset), v["m"]) for v in part["vertices"]]
        edges += [
            (
                str(int(e["u"]) + offset),
                str(int(e["v"]) + offset),
                draw(st.sampled_from(RATIONAL_WEIGHTS)) if regime == "rational" else e["b"],
            )
            for e in part["edges"]
        ]
    g = build_graph(vertices, edges)
    if draw(st.booleans()):
        # the Fraction table that a length scale beyond _MAX_SCALE_BITS selects
        with patch.object(graph_module, "_MAX_SCALE_BITS", 0):
            g._length_table
    D = draw(st.lists(st.sampled_from(g.vertex_ids), min_size=1, unique=True))
    return g, D


@settings(max_examples=60, deadline=None)
@given(table_cases())
@example((  # a length scale of 3·5404319552844595·2**k and a distance of about 1e300
    build_graph(
        [(str(i), 1.0) for i in range(4)],
        [("0", "1", 3.0), ("1", "2", 0.3), ("2", "3", 1e-300), ("0", "2", 0.3)],
    ),
    ["0"],
))
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
                    got = inradius(g, kind, inside, exact=exact)
                    check(got, ref_inradius(rows, idx), exact)

        radii = {d for row in rows for d in row if d is not None}
        radii |= {float(d) for d in radii}
        radii |= {Fraction(1, 3), Fraction(2, 3), 0.75}
        for r in radii:
            assert max_ball_volume(g, kind, r) == ref_max_ball_volume(g, rows, r)
        assert max_ball_volume(g, kind, math.inf) == float(g.m.sum())

    hops = ref_hops(g)
    to_d = [ref_dist_to_set(hops, i, d_idx) for i in range(g.n)]
    for d in range(4):
        want = tuple(v for v, h in zip(g.vertex_ids, to_d) if h is not None and h <= d)
        assert ball_around_set(g, D, d) == want


@st.composite
def dyadic_cases(draw):
    """A path plus random chords with dyadic weights b = 2**-k, so the
    length unit is 2**min(k) and the longest edge 2**(max(k) - min(k))
    units; that spread is drawn around 53 - log2(n), on both sides of
    n * w_max = 2**53.  Sometimes a second component makes inf entries."""
    n = draw(st.integers(2, 8))
    split = draw(st.integers(1, n))  # a second component from vertex split on
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    pairs = [(i, i + 1) for i in range(n - 1) if i + 1 != split]
    pairs += [(i, j) for i, j in chords if j > i + 1 and (j < split or i >= split)]
    pairs = list(dict.fromkeys(pairs))
    k0 = draw(st.integers(-60, 60))
    top = 53 - (n - 1).bit_length()
    spread = draw(st.sampled_from([0, 1, top - 1, top, top + 1, top + 2]))
    ks = [draw(st.integers(k0, k0 + spread)) for _ in pairs]
    if len(ks) >= 2:
        ks[0], ks[-1] = k0, k0 + spread  # the spread is attained
    return build_graph(
        [(str(i), 1.0 + i) for i in range(n)],
        [(str(i), str(j), 2.0**-k) for (i, j), k in zip(pairs, ks)],
    )


@settings(max_examples=80, deadline=None)
@given(dyadic_cases())
def test_float_table_matches_reference_on_both_sides_of_2_53(g):
    """The float table is picked exactly when n * w_max < 2**53 and equals the
    reference Dijkstra; exact queries return int or Fraction, never float,
    on either table, and ball volumes at radii beyond 2**53 units are those
    of the reference."""
    scale, _edges, lengths = g._edge_lengths
    w_max = lengths.max(initial=0)
    fits = g.n * w_max < 2**53
    assert (g._length_table.dtype == np.float64) == fits
    rows = ref_lengths(g)
    hops = ref_hops(g)
    for i, x in enumerate(g.vertex_ids):
        for j, y in enumerate(g.vertex_ids):
            d = g._length_table[i, j]
            if rows[i][j] is None:
                assert d == math.inf
                continue
            assert Fraction(int(d)) / scale == rows[i][j]
            got = distance(g, LEN, x, y, exact=True)
            assert type(got) is Fraction and got == rows[i][j]
            assert type(distance(g, COMB, x, y, exact=True)) is int
    for D in (["0"], list(g.vertex_ids[:-1])):
        d_idx = [g.index_of(v) for v in D]
        covr = covering_radius(g, LEN, D, exact=True)
        assert covr == ref_covering_radius(rows, d_idx, Fraction(0))
        assert covr == math.inf or type(covr) is Fraction
        inr = inradius(g, LEN, D, exact=True)
        assert inr == ref_inradius(rows, d_idx)
        assert inr == math.inf or type(inr) is Fraction
    beyond = [Fraction(2**53, scale), Fraction(2**53 + 1, scale), Fraction(2**60, scale), 1e300]
    for r in beyond + [Fraction(w_max, scale), float(Fraction(w_max, scale))]:
        assert max_ball_volume(g, LEN, r) == ref_max_ball_volume(g, rows, r)
    for r in (2**53, 2**53 + 1, 1e300):
        assert max_ball_volume(g, COMB, r) == ref_max_ball_volume(g, hops, r)


def test_distance_tables_computed_once_and_read_only(c4):
    for name in ("hop_table", "_length_table"):
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
    # the top level, each vertex and each edge take exactly their keys, all
    # required, with m and b as JSON numbers
    for vertex, edge, extra in [
        ({"id": "1", "m": True}, {}, {}),
        ({"id": "1", "m": "2.5"}, {}, {}),
        ({"id": "1"}, {}, {}),
        ({"id": "1", "m": 1.0}, {"b": "1e0"}, {}),
        ({"id": "1", "m": 1.0}, {"note": "x"}, {}),
        ({"id": "1", "m": 1.0}, {}, {"extra": 1}),
        # ids are strings, not a str() of another JSON value
        ({"id": None, "m": 1.0}, {"v": None}, {}),
        ({"id": "1", "m": 1.0}, {"u": 0}, {}),
    ]:
        data = {
            "vertices": [{"id": "0", "m": 1.0}, vertex],
            "edges": [{"u": "0", "v": "1", "b": 1.0, **edge}],
            **extra,
        }
        with pytest.raises(ParseError):
            graph_from_json(data)
    with pytest.raises(ParseError):
        graph_from_json({"vertices": [{"id": "0", "m": 1.0}], "edges": [{"u": "0", "b": 1.0}]})
