import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphheat.covering import lift_function
from graphheat.errors import EmptySubset, NegativeTime, QuadratureNonConvergence
from graphheat.graph import build_graph
from graphheat.spectral import (
    RestrictedEvolution,
    apply_laplacian,
    eigendecompose,
    op_norm_H_plus_1,
    semigroup_apply,
    time_lr_norm,
)

from conftest import cycle, m_norm, random_connected_graph


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
    # (2/3)/sqrt(6), which the golden refinement must find between grid nodes
    from conftest import path

    g = path(3)
    sd = eigendecompose(g)
    c = np.zeros(3)
    c[np.argmin(np.abs(sd.eigenvalues - 1.0))] = math.sqrt(2.0)
    c[np.argmin(np.abs(sd.eigenvalues - 3.0))] = -2.0 * math.sqrt(6.0)
    signs = np.sign(sd.eigenvectors[0, :])
    f0 = sd.synthesize(c * np.where(signs == 0, 1.0, signs))
    got = time_lr_norm(sd, f0, ["0"], (0.4, 3.0), math.inf)
    assert got == pytest.approx((2.0 / 3.0) / math.sqrt(6.0), rel=1e-10)


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


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
@example(572)  # a zero of the trajectory puts a corner in |.|^r
@example(1427)  # Simpson's refinement check agreed by accident on a wide panel
def test_lr_bounds_contain_certified_norm(seed):
    """The closed-form and the grid bounds of the weak-observability pruning
    each contain the certified batch L_r norm, for r in {1, 1.5, 2, 3, inf}."""
    from graphheat.observability import _closed_form_bounds, _grid_bounds

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
            for bounds in (_closed_form_bounds, _grid_bounds):
                lo, hi = bounds(re, a, b, r)
                assert np.all(lo <= certified * (1.0 + 1e-9)), (bounds.__name__, r, lo, certified)
                assert np.all(certified <= hi * (1.0 + 1e-9)), (bounds.__name__, r, hi, certified)


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
