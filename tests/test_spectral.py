import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphheat.covering import lift_function
from graphheat.errors import EmptySubset, NegativeTime, QuadratureNonConvergence
from graphheat.graph import build_graph
from graphheat.spectral import (
    _LR_REL_TOL,
    RestrictedEvolution,
    apply_laplacian,
    eigendecompose,
    op_norm_H_plus_1,
    semigroup_apply,
    time_lr_norm,
)

from conftest import cycle, m_norm, path, random_connected_graph


def small_sd(seed, n_max=8):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, int(rng.integers(2, n_max + 1)))
    return eigendecompose(g)


# ---------------------------------------------------------------------------
# Laplacian


def test_laplacian_constant_is_zero(c4):
    np.testing.assert_allclose(apply_laplacian(c4, np.ones(4)), 0.0, atol=1e-14)


def test_laplacian_k2_delta(k2):
    np.testing.assert_allclose(apply_laplacian(k2, np.array([1.0, 0.0])), [1.0, -1.0])


def test_laplacian_c4_alternating(c4):
    phi = np.array([0.0, 1.0, 0.0, -1.0])
    np.testing.assert_allclose(apply_laplacian(c4, phi), 2.0 * phi)
    # an (n, k) batch maps column by column, also with nonuniform m and b
    g = build_graph([("0", 1.0), ("1", 2.0), ("2", 0.5)], [("0", "1", 1.5), ("1", "2", 3.0)])
    batch = np.array([[1.0, 0.5], [-2.0, 0.0], [0.25, 3.0]])
    out = apply_laplacian(g, batch)
    assert out.shape == (3, 2)
    for j in range(2):
        np.testing.assert_allclose(out[:, j], apply_laplacian(g, batch[:, j]), rtol=1e-15)


# ---------------------------------------------------------------------------
# eigendecomposition


def test_eigs_k2(k2):
    sd = eigendecompose(k2)
    np.testing.assert_allclose(sd.eigenvalues, [0.0, 2.0], atol=1e-12)


def test_eigs_c4_circulant_oracle(c4):
    sd = eigendecompose(c4)
    oracle = sorted(2.0 - 2.0 * math.cos(2 * math.pi * k / 4) for k in range(4))
    np.testing.assert_allclose(sd.eigenvalues, oracle, atol=1e-12)


def test_eigs_c8_contains_lifted_spectrum(c4, c8, c8_cover):
    sd4, sd8 = eigendecompose(c4), eigendecompose(c8)
    for i in range(4):
        lam = sd4.eigenvalues[i]
        lifted = lift_function(c8_cover, sd4.eigenvectors[:, i])
        resid = apply_laplacian(c8, lifted) - lam * lifted
        assert m_norm(c8, resid) <= 1e-10
        assert np.min(np.abs(sd8.eigenvalues - lam)) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_decomposition_invariants(seed):
    sd = small_sd(seed)
    g, lam, V = sd.graph, sd.eigenvalues, sd.eigenvectors
    tol = 1e-10 * (lam[-1] + 1.0)
    for i in range(sd.n):
        resid = apply_laplacian(g, V[:, i]) - lam[i] * V[:, i]
        assert m_norm(g, resid) <= tol
    gram = V.T @ (g.m[:, None] * V)
    assert np.abs(gram - np.eye(sd.n)).max() <= 1e-10
    # connected graphs: lambda_1 = 0 with constant eigenvector
    assert lam[0] <= 1e-12
    v0 = V[:, 0]
    assert np.abs(v0 - v0[0]).max() <= 1e-8 * abs(v0[0])


@pytest.mark.parametrize("m", [1e-300, 1e-10, 1.0, 1e10, 1e300])
def test_eigenvalue_groups_do_not_depend_on_the_size_of_m(m):
    """Scaling m scales the spectrum by 1/m: cycle-8 keeps its 5 groups,
    {0}, three pairs and {4}, on every scale of m."""
    groups = eigendecompose(cycle(8, m=m)).eigenvalue_groups()
    assert [idx.tolist() for _, idx in groups] == [[0], [1, 2], [3, 4], [5, 6], [7]]
    assert [lam * m for lam, _ in groups] == pytest.approx([0.0, 2 - math.sqrt(2), 2.0, 2 + math.sqrt(2), 4.0])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_eigen_residuals_are_relative_and_stay_in_range(seed):
    """``_eigen_residuals`` is ||H v - lam v|| / lam_max, so on the measure
    s m, where H is H / s, the state v / sqrt(s) and the value lam / s give
    the same number, for s near either end of the float range where H v
    itself overflows or the residual underflows."""
    from graphheat.spectral import _eigen_residuals

    sd = small_sd(seed)
    g = sd.graph
    rng = np.random.default_rng(seed + 5)
    V = rng.standard_normal((g.n, 3))
    lam = rng.uniform(0.0, 2.0, size=3) * sd.eigenvalues[-1]
    R = apply_laplacian(g, V) - V * lam
    want = [m_norm(g, R[:, j]) / sd.eigenvalues[-1] for j in range(3)]
    np.testing.assert_allclose(_eigen_residuals(sd, lam, V), want, rtol=1e-12)
    for s in (1e-300, 1e300):
        ids = g.vertex_ids
        edges = [(ids[i], ids[j], float(g.weights[i, j])) for i, j in zip(*np.nonzero(np.triu(g.weights)))]
        scaled = build_graph([(x, s * float(mx)) for x, mx in zip(ids, g.m)], edges)
        got = _eigen_residuals(eigendecompose(scaled), lam / s, V / math.sqrt(s))
        np.testing.assert_allclose(got, want, rtol=1e-12)


def test_op_norm(k2, c4):
    assert op_norm_H_plus_1(eigendecompose(k2)) == pytest.approx(3.0, abs=1e-12)
    assert op_norm_H_plus_1(eigendecompose(c4)) == pytest.approx(5.0, abs=1e-12)
    single = build_graph([("0", 1.0)], [])
    assert op_norm_H_plus_1(eigendecompose(single)) == 1.0


def test_coefficients_of_a_batch_match_columns():
    # a square batch has the measure's shape along both axes, so weighting
    # the wrong axis would broadcast without an error
    g = build_graph(
        [("0", 0.5), ("1", 1.0), ("2", 2.0)], [("0", "1", 1.0), ("1", "2", 3.0)]
    )
    sd = eigendecompose(g)
    rng = np.random.default_rng(3)
    for k in (3, 5):
        batch = rng.standard_normal((3, k))
        got = sd.coefficients(batch)
        assert got.shape == (3, k)
        for j in range(k):
            np.testing.assert_allclose(got[:, j], sd.coefficients(batch[:, j]), rtol=1e-14)


# ---------------------------------------------------------------------------
# semigroup


def test_semigroup_t0_identity(c4):
    sd = eigendecompose(c4)
    f = np.array([1.0, -2.0, 0.5, 0.0])
    np.testing.assert_allclose(semigroup_apply(sd, 0.0, f), f, atol=1e-12)


def test_semigroup_k2_closed_form(k2):
    sd = eigendecompose(k2)
    for t in [0.1, 0.7, 2.0]:
        out = semigroup_apply(sd, t, np.array([1.0, 0.0]))
        expect = [(1 + math.exp(-2 * t)) / 2, (1 - math.exp(-2 * t)) / 2]
        np.testing.assert_allclose(out, expect, atol=1e-13)


def test_semigroup_long_time_mean(c4):
    sd = eigendecompose(c4)
    f = np.array([3.0, -1.0, 2.0, 0.0])
    mean = float(np.sum(f * c4.m) / c4.m.sum())
    np.testing.assert_allclose(semigroup_apply(sd, 60.0, f), mean, atol=1e-10)


def test_semigroup_negative_time(k2):
    with pytest.raises(NegativeTime):
        semigroup_apply(eigendecompose(k2), -0.1, np.zeros(2))


def test_semigroup_complex_states(c4):
    # complex scalars propagate linearly through the spectral machinery
    sd = eigendecompose(c4)
    f = np.array([1.0 + 2.0j, -1.0j, 0.5, 0.0])
    out = semigroup_apply(sd, 0.7, f)
    re_part = semigroup_apply(sd, 0.7, f.real)
    im_part = semigroup_apply(sd, 0.7, f.imag)
    np.testing.assert_allclose(out, re_part + 1j * im_part, atol=1e-13)
    assert time_lr_norm(sd, f, ["0", "2"], (0.1, 1.0), 2) > 0.0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.01, 3.0), st.floats(0.01, 3.0))
def test_semigroup_properties(seed, t, s):
    sd = small_sd(seed)
    g = sd.graph
    rng = np.random.default_rng(seed + 1)
    f = rng.standard_normal(sd.n)
    h = rng.standard_normal(sd.n)
    # contraction
    assert m_norm(g, semigroup_apply(sd, t, f)) <= m_norm(g, f) * (1 + 1e-12)
    # semigroup law
    ab = semigroup_apply(sd, t, semigroup_apply(sd, s, f))
    both = semigroup_apply(sd, t + s, f)
    assert m_norm(g, ab - both) <= 1e-10 * max(m_norm(g, both), 1.0)
    # self-adjointness
    lhs = sd.inner(semigroup_apply(sd, t, f), h)
    rhs = sd.inner(f, semigroup_apply(sd, t, h))
    assert abs(lhs - rhs) <= 1e-10 * (m_norm(g, f) * m_norm(g, h) + 1.0)
    # positivity preservation
    pos = np.abs(f)
    assert semigroup_apply(sd, t, pos).min() >= -1e-12
    # mass conservation
    assert abs(
        float(np.sum(semigroup_apply(sd, t, f) * g.m)) - float(np.sum(f * g.m))
    ) <= 1e-10 * (1.0 + abs(float(np.sum(f * g.m))))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.01, 5.0), st.floats(0.0, 6.0))
def test_dissipation_above_threshold(seed, tau, lam_cut):
    # the high-energy part decays at least like e^{-tau lam}
    sd = small_sd(seed)
    rng = np.random.default_rng(seed + 2)
    psi = rng.standard_normal(sd.n)
    c = sd.coefficients(psi)
    high = sd.eigenvalues > lam_cut
    tail = sd.synthesize(np.where(high, c, 0.0))
    evolved = semigroup_apply(sd, tau, tail)
    assert m_norm(sd.graph, evolved) <= math.exp(-tau * lam_cut) * m_norm(
        sd.graph, tail
    ) * (1 + 1e-10) + 1e-12


# ---------------------------------------------------------------------------
# time L_r norms


def test_time_norm_zero_state(c4):
    sd = eigendecompose(c4)
    assert time_lr_norm(sd, np.zeros(4), ["0"], (0.0, 1.0), 2) == 0.0


@pytest.mark.parametrize("i", [1, 2, 3])
def test_time_norm_eigenvector_closed_forms(c4, i):
    sd = eigendecompose(c4)
    v = sd.eigenvectors[:, i]
    lam = float(sd.eigenvalues[i])
    a, b = 0.3, 1.7
    D = list(c4.vertex_ids)
    got2 = time_lr_norm(sd, v, D, (a, b), 2)
    exp2 = math.exp(-lam * a) * math.sqrt((1 - math.exp(-2 * lam * (b - a))) / (2 * lam))
    assert got2 == pytest.approx(exp2, rel=1e-9)
    got1 = time_lr_norm(sd, v, D, (a, b), 1)
    exp1 = (math.exp(-lam * a) - math.exp(-lam * b)) / lam
    assert got1 == pytest.approx(exp1, rel=1e-9)
    got_inf = time_lr_norm(sd, v, D, (a, b), math.inf)
    assert got_inf == pytest.approx(math.exp(-lam * a), rel=1e-11)


def test_time_norm_interior_maximum():
    # P3 mode mix whose value at vertex 0 is e^{-t} - 2 e^{-3t}: the sup on
    # (0.4, 3) sits at the interior stationary point t* = ln(6)/2 with value
    # (2/3)/sqrt(6), which the bisection must find between grid nodes
    g = path(3)
    sd = eigendecompose(g)
    c = np.zeros(3)
    c[np.argmin(np.abs(sd.eigenvalues - 1.0))] = math.sqrt(2.0)
    c[np.argmin(np.abs(sd.eigenvalues - 3.0))] = -2.0 * math.sqrt(6.0)
    signs = np.sign(sd.eigenvectors[0, :])
    f0 = sd.synthesize(c * np.where(signs == 0, 1.0, signs))
    got = time_lr_norm(sd, f0, ["0"], (0.4, 3.0), math.inf)
    assert got == pytest.approx((2.0 / 3.0) / math.sqrt(6.0), rel=1e-10)


def test_time_norm_sup_of_a_stiff_tree():
    """lam_max is about 5.6e4 and the sup, 7.19431593698e-3 by
    scipy.linalg.expm, sits at t = 4.89e-5, inside the first cell of a
    uniform 1025-point grid; that grid plus a golden-section search in the
    bracket of its argmax found 8.13e-5."""
    g = build_graph(
        [(str(i), m) for i, m in enumerate((0.001, 0.01, 1.0, 10.0, 0.01))],
        [("1", "0", 50.0), ("2", "1", 1.0), ("3", "1", 50.0), ("4", "2", 0.1)],
    )
    f = np.array([1.0, 0.0, 0.0, 0.0, -1.0])
    got = time_lr_norm(eigendecompose(g), f, ["1"], (0.0, 5.0), math.inf)
    assert got == pytest.approx(7.19431593698e-3, rel=0.0, abs=2e-11)


def test_time_norm_sup_of_a_state_d_cannot_see(c4):
    """(0, 1, 0, -1) is an eigenvector that vanishes on the even vertices:
    its restricted norm is round-off, and the bisection stops on it."""
    f = np.array([0.0, 1.0, 0.0, -1.0])
    got = time_lr_norm(eigendecompose(c4), f, ["0", "2"], (0.0, 5.0), math.inf)
    assert 0.0 <= got <= 1e-10 * m_norm(c4, f)


def test_time_norm_sup_of_a_bump_inside_the_first_cell():
    """On path-4 with D = {3}, f = delta_0 - delta_1 starts with (S_t f)|_D
    and its derivative both 0, and its bump peaks at t = 1.25.  Over the
    window (0, 1e40) the first graded cell is about 5 wide and holds the
    whole bump, so only the Taylor remainder of the cell bound keeps it."""
    g = path(4)
    sd = eigendecompose(g)
    f = np.array([1.0, -1.0, 0.0, 0.0])
    got = time_lr_norm(sd, f, ["3"], (0.0, 1e40), math.inf)
    ts = np.linspace(1.2, 1.3, 20_001)
    coefs = np.exp(-np.outer(sd.eigenvalues, ts)) * sd.coefficients(f)[:, None]
    dense = float(np.abs(sd.eigenvectors[3, :] @ coefs).max())
    assert dense == pytest.approx(0.0826697966, rel=1e-9)
    assert dense - _LR_REL_TOL * m_norm(g, f) <= got <= m_norm(g, f)


def test_time_norm_sup_of_a_stiff_spectrum_over_a_long_window():
    """On cycle-8 with m = 1e-300 (lam_max = 4e300) only the constant mode
    is left on (5e30, 1e31), and h lam overflows on every cell: a mode
    that has decayed to 0 must not turn its bound into inf * 0, which
    would bisect without end."""
    g = cycle(8, m=1e-300)
    sd = eigendecompose(g)
    f = np.random.default_rng(3).standard_normal(8)
    with np.errstate(over="ignore"):  # lam t overflows in exp(-lam t) as well
        got = time_lr_norm(sd, f, ["0", "2", "4", "6"], (5e30, 1e31), math.inf)
    assert got == pytest.approx(abs(sd.coefficients(f)[0]) / math.sqrt(2.0), rel=1e-12)


_TREE_M = (1e-3, 1e-2, 0.1, 1.0, 10.0)
_TREE_B = (1e-3, 0.1, 1.0, 50.0)


@st.composite
def _stiff_tree_cases(draw):
    n = draw(st.integers(2, 8))
    g = build_graph(
        [(str(i), draw(st.sampled_from(_TREE_M))) for i in range(n)],
        [
            (str(draw(st.integers(0, i - 1))), str(i), draw(st.sampled_from(_TREE_B)))
            for i in range(1, n)
        ],
    )
    D = draw(st.lists(st.sampled_from(g.vertex_ids), min_size=1, max_size=n, unique=True))
    # a delta or a difference of two spreads from where it starts, so its
    # sup on D can come late or between grid nodes
    f = np.zeros(n)
    plus, minus = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    kind = draw(st.sampled_from(["normal", "delta", "deltas"]))
    if kind == "normal":
        f = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(n)
    else:
        f[plus] = 1.0
        f[minus] = -1.0 if kind == "deltas" else 0.0
    a = draw(st.sampled_from([0.0, 1e-3, 0.5]))
    return g, sorted(D), f, (a, a + draw(st.sampled_from([0.01, 1.0, 5.0])))


@settings(max_examples=100, deadline=None)
@given(_stiff_tree_cases())
@example((  # the 1025-point grid and golden-section refine found 0.10270 of 0.10460
    build_graph([("0", 0.01), ("1", 0.001), ("2", 1.0)], [("0", "1", 0.1), ("1", "2", 50.0)]),
    ["0", "1"],
    np.array([1.0, 0.0, -1.0]),
    (0.0, 5.0),
))
def test_time_norm_sup_is_certified_on_stiff_trees(case):
    """The r = inf norm is a sampled value, so at most ||S_a f||, and it is
    within _LR_REL_TOL ||S_a f|| of the maximum over 20 000 geometric and
    20 001 uniform times, evaluated here from the eigenpairs."""
    g, D, f, (a, b) = case
    sd = eigendecompose(g)
    got = time_lr_norm(sd, f, D, (a, b), math.inf)
    ts = np.concatenate([a + np.geomspace(1e-12, b - a, 20_000), np.linspace(a, b, 20_001)])
    d_idx = g.subset_indices(D)
    coefs = np.exp(-np.outer(sd.eigenvalues, ts)) * sd.coefficients(f)[:, None]
    on_d = np.sqrt(g.m[d_idx])[:, None] * (sd.eigenvectors[d_idx, :] @ coefs)
    dense = float(np.linalg.norm(on_d, axis=0).max())
    scale = m_norm(g, semigroup_apply(sd, a, f))
    assert got >= dense - _LR_REL_TOL * scale
    assert got <= scale * (1.0 + 1e-12)


def test_time_norm_validations(c4):
    sd = eigendecompose(c4)
    with pytest.raises(EmptySubset):
        time_lr_norm(sd, np.ones(4), [], (0.0, 1.0), 2)
    with pytest.raises(ValueError):
        time_lr_norm(sd, np.ones(4), ["0"], (1.0, 0.5), 2)
    with pytest.raises(ValueError):
        time_lr_norm(sd, np.ones(4), ["0"], (0.0, 1.0), 0.5)


def test_quadrature_depth_exhaustion_raises():
    from graphheat.quadrature import adaptive_simpson

    with pytest.raises(QuadratureNonConvergence):
        # noise integrand never meets the refinement criterion
        rng = np.random.default_rng(0)
        adaptive_simpson(
            lambda ts: rng.standard_normal(len(ts)), 0.0, 1.0, rel_tol=1e-12, max_depth=3
        )
    # regular integrands converge fine at depth 40
    sd = eigendecompose(cycle(6))
    assert time_lr_norm(sd, np.ones(6), ["0"], (0.0, 1.0), 2) >= 0.0


def test_quadrature_depth_exhaustion_names_the_column_panel():
    """With one window per column, the refusal names the panel of the column
    that does not converge, here the noisy second one."""
    from graphheat.quadrature import adaptive_simpson

    rng = np.random.default_rng(0)

    def fn(ts):
        return np.where(np.arange(2) == 1, rng.standard_normal(ts.shape), ts)

    with pytest.raises(QuadratureNonConvergence, match=r"depth 3 on \[2, 2\.5\] \(column 1\)"):
        adaptive_simpson(
            fn, np.array([0.0, 2.0]), np.array([1.0, 6.0]), rel_tol=1e-12, max_depth=3,
            norm=np.abs,
        )


def test_simpson_wave_budget_refuses_a_state_that_d_does_not_see():
    """On cycle-8's even-D obstruction eigenfunction, (S_t phi)|_D is rounding
    noise, so Simpson's panels double at every level without converging: the
    wave budget refuses it in well under a second, long before the panels
    would exhaust memory."""
    from graphheat.control import hautus_obstruction
    from graphheat.families import parity_subset

    g = cycle(8)
    D = parity_subset(g, "even")
    sd = eigendecompose(g)
    _lam, basis = hautus_obstruction(sd, D)[0]
    phi = basis[:, 0] / m_norm(g, basis[:, 0])
    with pytest.raises(QuadratureNonConvergence, match=r"entries in one wave, over the budget"):
        time_lr_norm(sd, phi, D, (0.0, 1.0), 1)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
@example(572)  # a zero of the trajectory puts a corner in |.|^r
@example(1427)  # Simpson's refinement check agreed by accident on a wide panel
def test_lr_bounds_contain_certified_norm(seed):
    """The closed-form and the grid bounds of the weak-observability pruning
    each contain the certified batch L_r norm, for r in {1, 1.5, 2, 3, inf}."""
    from graphheat.observability import _closed_form_bounds, _grid_bounds, _window_terms

    sd = small_sd(seed, n_max=7)
    g = sd.graph
    rng = np.random.default_rng(seed + 4)
    d_size = int(rng.integers(1, g.n))
    d_idx = rng.choice(g.n, size=d_size, replace=False)
    D = [g.vertex_ids[i] for i in d_idx]
    batch = rng.standard_normal((g.n, 5))
    coefs = sd.eigenvectors.T @ (g.m[:, None] * batch)
    re = RestrictedEvolution(sd, np.sort(d_idx), coefs)
    for a, b in [(0.2, 1.3), (0.0, 1.0)]:
        for r in [1.0, 1.5, 2.0, 3.0, math.inf]:
            # certified to 1e-10 of each integral, so compare with 1e-9 room
            certified = time_lr_norm(sd, batch, D, (a, b), r)
            for name, (lo, hi) in (
                ("closed form", _closed_form_bounds(_window_terms(re, a, b), r)),
                ("grid", _grid_bounds(re, a, b, r)),
            ):
                assert np.all(lo <= certified * (1.0 + 1e-9)), (name, r, lo, certified)
                assert np.all(certified <= hi * (1.0 + 1e-9)), (name, r, hi, certified)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_batched_time_norm_matches_columns(seed):
    """One batched call certifies every column as a one-column call does,
    including a zero column and a column scaled by 1e-8."""
    sd = small_sd(seed, n_max=7)
    g = sd.graph
    rng = np.random.default_rng(seed + 9)
    d_idx = rng.choice(g.n, size=int(rng.integers(1, g.n + 1)), replace=False)
    D = [g.vertex_ids[i] for i in d_idx]
    batch = rng.standard_normal((g.n, 5))
    zero, tiny = rng.choice(5, size=2, replace=False)
    batch[:, zero] = 0.0
    batch[:, tiny] *= 1e-8
    a = float(rng.uniform(0.0, 1.0))
    b = a + float(rng.uniform(0.1, 2.0))
    for r in [1.0, 3.0, math.inf]:
        got = time_lr_norm(sd, batch, D, (a, b), r)
        assert got.shape == (5,) and got[zero] == 0.0
        for j in range(5):
            one = time_lr_norm(sd, batch[:, j], D, (a, b), r)
            assert got[j] == pytest.approx(one, rel=1e-10, abs=0.0)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_time_norms_on_mixed_windows_match_one_column_calls(seed):
    """One call with a window and an exponent per column certifies every
    column as its own one-column call does."""
    sd = small_sd(seed, n_max=7)
    g = sd.graph
    rng = np.random.default_rng(seed + 11)
    d_idx = np.sort(rng.choice(g.n, size=int(rng.integers(1, g.n + 1)), replace=False))
    C = sd.coefficients(rng.standard_normal((g.n, 24)))
    a = rng.choice([0.0, 0.25, 0.5], size=24)
    b = a + rng.choice([0.5, 1.0, 5.0], size=24)
    r = rng.choice([1.0, 2.0, 3.0, math.inf], size=24)
    got = RestrictedEvolution(sd, d_idx, C).lr_norms(a, b, r)
    for j in range(24):
        one = RestrictedEvolution(sd, d_idx, C[:, [j]]).lr_norms(a[j], b[j], r[j])[0]
        assert got[j] == pytest.approx(one, rel=1e-13, abs=0.0), (j, a[j], b[j], r[j])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.booleans(), st.sampled_from([1, 300, 2_000_000]))
def test_shared_time_norms_match_a_per_time_reference(seed, complex_coefs, chunk_elements):
    """On shared times, ``norms`` scales the batch per time when the batch is
    at most |D| wide and the rows of W when it is wider; both orientations,
    chunked into one or several time chunks, give ||W (e^{-lam t} c)|| per
    time and column, and what ``_entry_norms`` gives on the same times,
    including t = 0 and t = 1e308, where lam t overflows a float for every
    lam above 1.8.  They agree to 1e-13 of the size of the terms summed,
    ||abs(W) (e^{-lam t} abs(c))||, which bounds the norm and its rounding
    where the terms cancel."""
    import graphheat.spectral as spectral

    sd = small_sd(seed, n_max=7)
    g = sd.graph
    rng = np.random.default_rng(seed + 13)
    d_idx = np.sort(rng.choice(g.n, size=int(rng.integers(1, g.n + 1)), replace=False))
    d = len(d_idx)
    ts = np.r_[0.0, np.sort(rng.uniform(0.0, 3.0, size=6)), 1e308]
    for width in (int(rng.integers(1, d + 1)), d + int(rng.integers(1, 6))):
        C = rng.standard_normal((g.n, width))
        if complex_coefs:
            C = C + 1j * rng.standard_normal((g.n, width))
        re = RestrictedEvolution(sd, d_idx, C)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "_CHUNK_ELEMENTS", chunk_elements)
            got = re.norms(ts)
            per_entry = re.norms(np.repeat(ts[:, None], width, axis=1))
        with np.errstate(over="ignore"):  # an overflowing lam t gives e^{-inf} = 0
            decays = [np.exp(-sd.eigenvalues * t)[:, None] for t in ts]
        want = np.array([np.linalg.norm(re.W @ (e * C), axis=0) for e in decays])
        size = np.array([np.linalg.norm(np.abs(re.W) @ (e * np.abs(C)), axis=0) for e in decays])
        assert got.shape == (len(ts), width)
        assert np.all(np.abs(got - want) <= 1e-13 * size), np.abs(got - want) / size
        assert np.all(np.abs(got - per_entry) <= 1e-13 * size), np.abs(got - per_entry) / size
