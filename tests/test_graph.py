import gc
import math
import tracemalloc
import weakref
from collections import deque
from fractions import Fraction
from heapq import heappop, heappush

import numpy as np
import pytest
from hypothesis import example, given, settings
from scipy.sparse import csr_array
from scipy.sparse.csgraph import shortest_path
from hypothesis import strategies as st

from graphheat.covering import ball_around_set
from graphheat.errors import (
    DuplicateEdge,
    EmptySubset,
    InvalidWeight,
    NonPositiveMeasure,
    NonSymmetricWeight,
    ParseError,
    SelfLoop,
    UnknownVertex,
)
from graphheat.families import build_family, parity_subset
from graphheat.graph import (
    FullSetInradiusWarning,
    MetricKind,
    _dist_to_set,
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
from graphheat.observability import _omega_geometry

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


# One faulty edge list per check of build_graph, on distinct vertex pairs,
# with the error it raises; the last two are faulty at their second edge.
_EDGE_FAULTS = {
    "unknown vertex": (
        [("a", "zz", 1.0)], UnknownVertex, "edge ('a', 'zz') references an unknown vertex"
    ),
    "invalid weight": (
        [("b", "c", -1.0)], InvalidWeight, "b('b','c') = -1.0 is not a finite nonnegative real"
    ),
    "self-loop": ([("d", "d", 1.0)], SelfLoop, "self-loop at 'd'"),
    "non-symmetric weight": (
        [("c", "d", 1.0), ("d", "c", 2.0)],
        NonSymmetricWeight,
        "edge ('d','c') given twice with weights 1.0 and 2.0",
    ),
    "duplicate edge": (
        [("a", "c", 0.5), ("c", "a", 0.5)], DuplicateEdge, "edge ('c','a') appears more than once"
    ),
}


@pytest.mark.parametrize(
    "first, second", [(f, s) for f in _EDGE_FAULTS for s in _EDGE_FAULTS if f != s]
)
def test_first_faulty_edge_raises_its_error(first, second):
    """With faults in two different edges, the first faulty edge raises its
    own error type and message, whichever of the two comes first."""
    vertices = [(v, 1.0) for v in "abcd"]
    edges, error, message = _EDGE_FAULTS[first]
    with pytest.raises(error) as raised:
        build_graph(vertices, [("a", "b", 2.0)] + edges + _EDGE_FAULTS[second][0])
    assert type(raised.value) is error and str(raised.value) == message


def _edge_test_graphs():
    tiny = build_graph([("0", 1.0), ("1", 1.0), ("2", 1.0)], [("0", "1", 1e-300), ("1", "2", 2.0)])
    lone = build_graph([("0", 1.0), ("lone", 1.0), ("1", 1.0)], [("0", "1", 3.0)])
    one = build_graph([("0", 1.0)], [])
    return [tiny, lone, one, build_family("torus", {"p": 32, "q": 32}).graph]


@pytest.mark.parametrize("g", _edge_test_graphs(), ids=["1e-300", "isolated", "n=1", "torus-32x32"])
def test_edges_match_scipys_csr_of_the_weights(g):
    """``_edges`` is built from the graph's one scan of b, field for field
    and dtype for dtype what ``csr_array(weights)`` builds."""
    want = csr_array(g.weights)
    got = g._edges
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b)
    assert got.has_canonical_format


@pytest.mark.parametrize("g", _edge_test_graphs(), ids=["1e-300", "isolated", "n=1", "torus-32x32"])
def test_degrees_are_formed_once_read_only_with_the_row_sum_bits(g):
    deg = g.degrees()
    assert deg is g.degrees() and not deg.flags.writeable
    assert deg.tobytes() == (g.weights.sum(axis=1) / g.m).tobytes()


def test_degree_beyond_the_float_range_reads_inf_without_a_warning():
    huge = build_graph([("0", 1e-300), ("1", 1.0)], [("0", "1", 1e300)])
    with np.errstate(over="raise"):
        assert huge.degrees().tolist() == [math.inf, 1e300]


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
    assert g._edge_lengths[0] == 3  # lengths 1/3 and 2 are 1 and 6 units
    assert isinstance(g._edge_lengths[1], csr_array)
    assert distance(g, LEN, "0", "2", exact=True) == Fraction(7, 3)
    assert covering_radius(g, LEN, ["0"], exact=True) == Fraction(7, 3)
    assert inradius(g, LEN, ["1", "2"], exact=True) == Fraction(7, 3)
    assert max_ball_volume(g, LEN, 2) == 3.0  # around 1
    assert max_ball_volume(g, LEN, Fraction(7, 4)) == 2.0
    assert path(3)._edge_lengths[0] == 1


def test_many_distinct_weights_search_on_python_ints():
    # 120 random weights: the lcm of the denominators of the 1/b has about
    # 6000 bits, so the length searches run the heap Dijkstra on Python ints
    rng = np.random.default_rng(5)
    n = 120
    g = build_graph(
        [(str(i), 1.0) for i in range(n)],
        [(str(i), str((i + 1) % n), float(rng.uniform(0.5, 2.0))) for i in range(n)],
    )
    scale, edges = g._edge_lengths
    assert scale.numerator.bit_length() > 4096 and isinstance(edges, list)
    want = ref_lengths(g)
    for y in ("1", "60", "119"):
        assert distance(g, LEN, "0", y, exact=True) == want[0][g.index_of(y)]
    assert covering_radius(g, LEN, ["0"], exact=True) == max(want[0])
    inside = list(g.vertex_ids[1:40])
    assert inradius(g, LEN, inside, exact=True) == ref_inradius(want, range(1, 40))
    r = want[0][60]
    assert max_ball_volume(g, LEN, r) == ref_max_ball_volume(g, want, r)


def test_uniform_non_dyadic_weight_takes_the_float_table():
    # 1/0.3 = 2**54/5404319552844595: the length unit is that one length, so
    # every edge is 1 unit long and scipy's float Dijkstra runs the searches
    g = cycle(300, b=0.3)
    assert g._edge_lengths[0] == Fraction(5404319552844595, 2**54)
    assert isinstance(g._edge_lengths[1], csr_array)
    unit = 1 / Fraction(0.3)
    assert distance(g, LEN, "0", "150", exact=True) == 150 * unit
    want = ref_covering_radius(ref_lengths(g), [0], Fraction(0))
    assert want == 150 * unit
    got = covering_radius(g, LEN, ["0"], exact=True)
    assert type(got) is Fraction and got == want
    assert inradius(g, LEN, [str(i) for i in range(1, 300)], exact=True) == 150 * unit
    assert max_ball_volume(g, LEN, 150 * unit) == 300.0
    assert max_ball_volume(g, LEN, 150 * unit - Fraction(1, 10**20)) == 299.0


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
# metric queries against reference algorithms


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
    """The float search is picked exactly when n * w_max < 2**53 and agrees
    with the reference Dijkstra; exact queries return int or Fraction, never
    float, on either tier, and ball volumes at radii beyond 2**53 units are
    those of the reference."""
    scale, edges = g._edge_lengths
    w_max = max((scale / Fraction(b) for b in g.weights[g.weights > 0.0].tolist()), default=0)
    assert isinstance(edges, csr_array) == (g.n * w_max < 2**53)
    rows = ref_lengths(g)
    hops = ref_hops(g)
    for i, x in enumerate(g.vertex_ids):
        for j, y in enumerate(g.vertex_ids):
            got = distance(g, LEN, x, y, exact=True)
            if rows[i][j] is None:
                assert got == math.inf
                continue
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


def floyd_warshall(g, kind):
    """All-pairs distances by Floyd-Warshall on exact Fractions, unit edges
    for hops; math.inf marks an unreachable pair."""
    d = [[Fraction(0) if i == j else math.inf for j in range(g.n)] for i in range(g.n)]
    for i, j in zip(*np.nonzero(g.weights)):
        d[i][j] = Fraction(1) if kind is COMB else 1 / Fraction(g.weights[i, j])
    for k in range(g.n):
        for i in range(g.n):
            if d[i][k] == math.inf:
                continue
            d[i] = [min(dij, d[i][k] + dkj) for dij, dkj in zip(d[i], d[k])]
    return d


@st.composite
def metric_cases(draw):
    """A graph and a nonempty D: a random graph with weights on a 1e-3
    grid, one with a single grid weight (the float tier), a complete graph
    on 16 vertices with 120 random grid weights (a unit beyond 4096 bits),
    or a random graph with weights of magnitude 1e-300 to 1e300."""
    regime = draw(st.sampled_from(["grid", "uniform", "many", "magnitude"]))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    if regime == "many":
        n = 16
        vertices = [(str(i), round(float(rng.uniform(0.5, 2.0)), 3)) for i in range(n)]
        edges = [
            (str(i), str(j), round(float(rng.uniform(0.5, 2.0)), 3))
            for i in range(n) for j in range(i + 1, n)
        ]
        g = build_graph(vertices, edges)
        assert g._edge_lengths[0].numerator.bit_length() > 4096
    else:
        b = round(float(rng.uniform(0.5, 2.0)), 3)
        data = graph_to_json(random_connected_graph(rng, draw(st.integers(1, 10))))
        if draw(st.booleans()):  # a second component
            data["vertices"].append({"id": "x", "m": 1.0})
        for e in data["edges"]:
            if regime == "uniform":
                e["b"] = b
            elif regime == "magnitude":
                e["b"] = float(10.0 ** rng.uniform(-300, 300))
        g = graph_from_json(data)
    D = draw(st.lists(st.sampled_from(g.vertex_ids), min_size=1, unique=True))
    return g, D


def as_float(q):
    """The correctly rounded float of an exact distance; +inf beyond range."""
    try:
        return float(q)
    except OverflowError:
        return math.inf


@settings(max_examples=40, deadline=None)
@given(metric_cases())
def test_metric_queries_match_floyd_warshall(case):
    """distance, covering_radius, inradius and max_ball_volume on both
    metrics equal a brute-force Fraction Floyd-Warshall, exactly with
    ``exact=True`` and correctly rounded without."""
    g, D = case
    d_idx = [g.index_of(v) for v in D]
    omega = [v for v in g.vertex_ids if v not in D]
    for kind in (COMB, LEN):
        rows = floyd_warshall(g, kind)
        covr = max(min(rows[i][j] for j in d_idx) for i in range(g.n))
        inradii = {}
        for inside in (D, omega):
            if 0 < len(inside) < g.n:
                idx = {g.index_of(v) for v in inside}
                out = [j for j in range(g.n) if j not in idx]
                inradii[tuple(inside)] = max(min(rows[i][j] for j in out) for i in idx)
        for exact in (False, True):
            want = (lambda d: d) if exact else as_float
            for i, x in enumerate(g.vertex_ids):
                for j, y in enumerate(g.vertex_ids):
                    assert distance(g, kind, x, y, exact=exact) == want(rows[i][j])
            assert covering_radius(g, kind, D, exact=exact) == want(covr)
            for inside, inr in inradii.items():
                assert inradius(g, kind, inside, exact=exact) == want(inr)
        radii = sorted({d for row in rows for d in row if d != math.inf})
        radii = radii[:: max(1, len(radii) // 6)] + [Fraction(1, 3)]
        for r in radii + [as_float(r) for r in radii]:
            assert max_ball_volume(g, kind, r) == ref_max_ball_volume(g, rows, r)


@pytest.mark.parametrize(
    "family, spec",
    [
        ("cycle", {"n": 30}),
        ("cycle", {"n": 12, "b": 0.3}),
        ("torus", {"p": 6, "q": 5}),
        ("cyclic-cover", {"base": {"family": "cycle", "n": 4}, "k": 8}),
        ("path", {"n": 9, "b": 2.0, "m": 3.0}),
    ],
)
def test_unit_length_graphs_measure_length_in_hops(family, spec):
    """When every edge is one length unit, a length in units is a hop count:
    every query in the length metric is the hop query times the unit, and
    agrees with a Dijkstra over unit lengths; a graph with two edge lengths
    measures each in its own units."""
    g = build_family(family, spec).graph
    edges = csr_array(g.weights)
    unit_edges = csr_array((np.ones(edges.nnz), edges.indices, edges.indptr), shape=edges.shape)
    want = shortest_path(unit_edges, method="D", directed=False)
    scale, length_edges = g._edge_lengths
    assert isinstance(length_edges, csr_array) and set(length_edges.data.tolist()) == {1.0}
    unit = 1 / scale
    x = g.vertex_ids[0]
    for j, y in enumerate(g.vertex_ids):
        assert distance(g, LEN, x, y, exact=True) == int(want[0, j]) * unit
        assert distance(g, COMB, x, y, exact=True) == want[0, j]
    D = list(g.vertex_ids[::3])
    omega = [v for v in g.vertex_ids if v not in D]
    covr = covering_radius(g, COMB, D, exact=True)
    assert covering_radius(g, LEN, D, exact=True) == covr * unit
    assert covr == want[:, g.subset_indices(D)].min(axis=1).max()
    assert inradius(g, LEN, omega, exact=True) == inradius(g, COMB, omega, exact=True) * unit
    for r in range(4):
        assert max_ball_volume(g, LEN, r * unit) == max_ball_volume(g, COMB, r)
    mixed = build_graph([("0", 1.0), ("1", 1.0), ("2", 1.0)], [("0", "1", 1.0), ("1", "2", 2.0)])
    assert mixed._edge_lengths[0] == 2  # lengths 1 and 1/2 are 2 and 1 units
    got = [[distance(mixed, LEN, x, y, exact=True) for y in "012"] for x in "012"]
    assert got == [[0, 1, Fraction(3, 2)], [1, 0, Fraction(1, 2)], [Fraction(3, 2), Fraction(1, 2), 0]]


def test_distance_tables_computed_once_and_read_only():
    """Each distance to a set is one search, kept on the graph per (metric,
    set) and read-only, and a query on the same set, in any order, reads
    it again."""
    c4 = cycle(4)
    heap = build_graph(  # lengths 1/1e-300 and 1: the heap tier
        [("0", 1.0), ("1", 1.0), ("2", 1.0)], [("0", "1", 1e-300), ("1", "2", 1.0)]
    )
    assert isinstance(heap._edge_lengths[1], list)
    for g in (c4, heap):
        for kind in (COMB, LEN):
            dist = _dist_to_set(g, kind, np.array([0, 2]))
            assert _dist_to_set(g, kind, np.array([2, 0])) is dist
            assert not dist.flags.writeable
            covering_radius(g, kind, ["2", "0"])
            inradius(g, kind, [v for i, v in enumerate(g.vertex_ids) if i not in (0, 2)])
            assert g._set_distances[kind, frozenset({0, 2})] is dist
        assert len(g._set_distances) == 2


def test_graph_freed_after_distance_queries():
    g = build_graph([("0", 1.0), ("1", 1.0), ("2", 1.0)], [("0", "1", 1.0), ("1", "2", 2.0)])
    for kind in (COMB, LEN):
        covering_radius(g, kind, ["0"])
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("p, random_weights", [(32, False), (16, True)])
def test_omega_geometry_peaks_below_4_mb(p, random_weights):
    """The length geometry of Omega (covering radius of D, inradius, one
    ball volume) builds no all-pairs table: on torus-32x32 and on
    torus-16x16 with 512 random weights (a unit of about 23000 bits) it
    peaks below 4 MB, where the tables took 12 MB and 15 MB."""
    data = graph_to_json(build_family("torus", {"p": p, "q": p}).graph)
    if random_weights:
        rng = np.random.default_rng(1)
        for e in data["edges"]:
            e["b"] = float(rng.uniform(0.5, 2.0))
    g = graph_from_json(data)
    D = parity_subset(g, "even")
    tracemalloc.start()
    try:
        _omega_geometry(g, D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


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
