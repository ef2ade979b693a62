from fractions import Fraction

import numpy as np
import pytest

from graphheat.covering import (
    CoveringMap,
    CoveringValidation,
    build_cyclic_cover,
    lemma_sets,
    lift_function,
    validate_covering,
)
from graphheat.errors import EmptyFiberIntersection, InvalidFold, NotACycle
from graphheat.graph import WeightedGraph, build_graph

from conftest import path


def test_cyclic_cover_c8(c4, c8_cover):
    assert c8_cover.cover.n == 8
    assert validate_covering(c8_cover).valid
    assert c8_cover.p["5"] == "1"
    assert c8_cover.fiber("0") == ("0", "4")


def test_identity_cover(c4):
    cm = build_cyclic_cover(c4, 1)
    assert cm.cover is c4
    assert all(cm.p[v] == v for v in c4.vertex_ids)
    assert validate_covering(cm).valid


def test_cover_rejects_path():
    with pytest.raises(NotACycle):
        build_cyclic_cover(path(3), 2)


def test_cover_rejects_bad_fold(c4):
    with pytest.raises(InvalidFold):
        build_cyclic_cover(c4, 0)


def test_cover_preserves_degrees(c8_cover):
    cover_deg = c8_cover.cover.degrees()
    base_deg = c8_cover.base.degrees()
    for v in c8_cover.cover.vertex_ids:
        i = c8_cover.cover.index_of(v)
        j = c8_cover.base.index_of(c8_cover.p[v])
        assert cover_deg[i] == base_deg[j]


def test_weighted_cover_axioms():
    base = build_graph(
        [("0", 1.0), ("1", 2.0), ("2", 0.5)],
        [("0", "1", 1.5), ("1", "2", 0.25), ("2", "0", 3.0)],
    )
    cm = build_cyclic_cover(base, 3)
    assert cm.cover.n == 9
    assert validate_covering(cm).valid


def test_validate_covering_detects_collapse(c4):
    # map collapsing two adjacent vertices breaks the neighbor bijection
    p = {"0": "0", "1": "1", "2": "1", "3": "3"}
    bad = CoveringMap(c4, c4, p)
    res = validate_covering(bad)
    assert not res.valid


def test_validate_covering_detects_measure_mismatch(c4):
    cover = build_graph(
        [("0", 1.0), ("1", 1.0), ("2", 1.0), ("3", 2.0)],
        [("0", "1", 1.0), ("1", "2", 1.0), ("2", "3", 1.0), ("3", "0", 1.0)],
    )
    res = validate_covering(CoveringMap(c4, cover, {v: v for v in c4.vertex_ids}))
    assert not res.valid
    assert "measure" in res.violation


def _with_weights(g, weights):
    return WeightedGraph(g.vertex_ids, g.m.copy(), weights)


def test_validate_covering_detects_weight_mismatch(c4, c8_cover):
    b = c8_cover.cover.weights.copy()
    b[5, 6] = b[6, 5] = 2.0
    res = validate_covering(CoveringMap(c4, _with_weights(c8_cover.cover, b), c8_cover.p))
    assert res == CoveringValidation(False, "edge-weight mismatch on ('5', '6')")


def test_validate_covering_detects_non_bijective_neighbours(c4):
    """A 6-cycle over C4 whose vertex 0 has both neighbours over '1': each
    edge lies over a base edge of the same weight, so only the bijection
    fails."""
    cover = build_graph(
        [(str(i), 1.0) for i in range(6)], [(str(i), str((i + 1) % 6), 1.0) for i in range(6)]
    )
    p = {"0": "0", "1": "1", "2": "2", "3": "3", "4": "2", "5": "1"}
    res = validate_covering(CoveringMap(c4, cover, p))
    assert res == CoveringValidation(False, "neighbor sets of '0' and '0' are not in bijection")


def test_validate_covering_detects_a_disconnected_cover(c4):
    """Two disjoint copies of C4 satisfy every local axiom over C4."""
    ids = [str(i) for i in range(8)]
    cover = build_graph(
        [(v, 1.0) for v in ids],
        [(ids[k * 4 + i], ids[k * 4 + (i + 1) % 4], 1.0) for k in range(2) for i in range(4)],
    )
    p = {v: str(i % 4) for i, v in enumerate(ids)}
    res = validate_covering(CoveringMap(c4, cover, p))
    assert res == CoveringValidation(False, "cover graph is not connected")


def _scanned_violation(c):
    """The first violation met by a scan of the cover vertex by vertex: a
    reference for ``validate_covering``'s array comparisons, given a map that
    is defined everywhere and surjective."""
    base, cover, p = c.base, c.cover, c.p
    image = [base.index_of(p[v]) for v in cover.vertex_ids]
    for i, v in enumerate(cover.vertex_ids):
        if cover.m[i] != base.m[image[i]]:
            return f"measure mismatch at {v!r}: {cover.m[i]} != {base.m[image[i]]}"
    for i, v in enumerate(cover.vertex_ids):
        nb = cover.neighbors(i)
        images = [image[j] for j in nb]
        for j, img in zip(nb, images):
            if cover.weights[i, j] != base.weights[image[i], img]:
                return f"edge-weight mismatch on ({v!r}, {cover.vertex_ids[j]!r})"
        if len(set(images)) != len(images) or set(images) != set(base.neighbors(image[i]).tolist()):
            return f"neighbor sets of {v!r} and {p[v]!r} are not in bijection"
    return None


@pytest.mark.parametrize("seed", range(40))
def test_validate_covering_reports_the_first_fault_of_a_vertex_scan(seed):
    """Covers of a 5-cycle, uniform or weighted, with a few measures,
    weights, edges and map values changed at random: the array comparisons
    report what the vertex-by-vertex scan meets first."""
    rng = np.random.default_rng(seed)
    weights = [1.0] if seed % 2 else [1.0, 0.5, 2.0]
    base = build_graph(
        [(str(i), 1.0) for i in range(5)],
        [(str(i), str((i + 1) % 5), weights[i % len(weights)]) for i in range(5)],
    )
    c = build_cyclic_cover(base, 3)
    m, b, p = c.cover.m.copy(), c.cover.weights.copy(), dict(c.p)
    n = c.cover.n
    for _ in range(int(rng.integers(1, 4))):
        kind = rng.choice(4, p=[0.1, 0.3, 0.3, 0.3])
        i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
        if kind == 0:
            m[i] = 2.0
        elif kind == 1:
            b[i, j] = b[j, i] = [0.0, 0.5, 1.0, 2.0][rng.integers(0, 4)]
        elif kind == 2:
            p[str(i)] = str(int(rng.integers(0, 5)))
        else:
            p[str(i)], p[str(j)] = p[str(j)], p[str(i)]
    cm = CoveringMap(base, WeightedGraph(c.cover.vertex_ids, m, b), p)
    if set(p.values()) != set(base.vertex_ids):
        return
    want = _scanned_violation(cm)
    got = validate_covering(cm)
    if want is None:
        assert got.violation in (None, "cover graph is not connected")
    else:
        assert got == CoveringValidation(False, want)


def test_lift_eigen_pattern(c8_cover):
    lifted = lift_function(c8_cover, np.array([0.0, 1.0, 0.0, -1.0]))
    np.testing.assert_array_equal(lifted, [0, 1, 0, -1, 0, 1, 0, -1])


def test_lift_constant(c8_cover):
    np.testing.assert_array_equal(
        lift_function(c8_cover, np.full(4, 2.5)), np.full(8, 2.5)
    )


def test_lift_identity_cover(c4):
    cm = build_cyclic_cover(c4, 1)
    phi = np.array([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(lift_function(cm, phi), phi)


def test_lemma_sets_c8(c8_cover):
    Z, ratio = lemma_sets(c8_cover, "0", ["0"], 2)
    assert set(Z) == {"6", "7", "0", "1", "2"}
    assert ratio == Fraction(2, 1)


def test_lemma_sets_whole_cover(c8_cover):
    _, ratio = lemma_sets(c8_cover, "0", list(c8_cover.cover.vertex_ids), 1)
    assert ratio == 0


def test_lemma_sets_zero_radius(c8_cover):
    Z, _ = lemma_sets(c8_cover, "0", ["0", "1"], 0)
    assert set(Z) == {"0", "1"}


def test_lemma_sets_empty_fiber(c8_cover):
    with pytest.raises(EmptyFiberIntersection):
        lemma_sets(c8_cover, "2", ["0"], 0)
