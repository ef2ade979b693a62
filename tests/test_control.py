import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graphheat.control
from graphheat.control import (
    ControlSignal,
    _segment_weights,
    controlled_trajectory,
    gramian,
    hautus_obstruction,
    mode_invariance_check,
    stabilize,
    synth_control,
    verify_control,
)
from graphheat.covering import lift_function
from graphheat.errors import EmptySubset, TargetUnreachable, ValidationError
from graphheat.families import build_family
from graphheat.graph import build_graph
from graphheat.quadrature import adaptive_simpson
from graphheat.spectral import eigendecompose, semigroup_apply

from conftest import m_norm, random_connected_graph


def even_ids(g):
    return [v for v in g.vertex_ids if int(v) % 2 == 0]


# ---------------------------------------------------------------------------
# Gramian


def test_gramian_diagonal_on_full_set(k2):
    sd = eigendecompose(k2)
    T = 1.3
    Q = gramian(sd, list(k2.vertex_ids), T)
    lam = sd.eigenvalues
    expect = np.diag(
        [(1 - math.exp(-2 * l * T)) / (2 * l) if l > 0 else T for l in lam]
    )
    np.testing.assert_allclose(Q.matrix, expect, atol=1e-14)


def test_gramian_single_vertex_scalar():
    g = build_graph([("0", 1.0)], [])
    sd = eigendecompose(g)
    Q = gramian(sd, ["0"], 2.5)
    np.testing.assert_allclose(Q.matrix, [[2.5]])


def test_gramian_kills_obstruction_mode(c4):
    sd = eigendecompose(c4)
    Q = gramian(sd, ["0", "2"], 1.0)
    phi = np.array([0.0, 1.0, 0.0, -1.0])
    assert m_norm(c4, sd.synthesize(Q.matrix @ sd.coefficients(phi))) <= 1e-12


def test_gramian_symmetric_psd_random():
    rng = np.random.default_rng(3)
    for _ in range(5):
        g = random_connected_graph(rng, int(rng.integers(2, 9)))
        sd = eigendecompose(g)
        size = int(rng.integers(1, g.n + 1))
        D = [g.vertex_ids[i] for i in rng.choice(g.n, size=size, replace=False)]
        Q = gramian(sd, D, float(rng.uniform(0.2, 3.0)))
        f = rng.standard_normal(g.n)
        h = rng.standard_normal(g.n)
        cf, ch = sd.coefficients(f), sd.coefficients(h)
        sym = sd.inner(sd.synthesize(Q.matrix @ cf), h) - sd.inner(f, sd.synthesize(Q.matrix @ ch))
        assert abs(sym) <= 1e-10 * (m_norm(g, f) * m_norm(g, h) + 1.0)
        assert float(cf @ (Q.matrix @ cf)) >= -1e-12


def _old_gramian_matrix(sd, D, T):
    """The Gramian as it was written before the shared kernel: C * phi(S, T),
    symmetrized."""
    d_idx = sd.graph.subset_indices(D)
    lam = sd.eigenvalues
    W = np.sqrt(sd.graph.m[d_idx])[:, None] * sd.eigenvectors[d_idx, :]
    S = lam[:, None] + lam[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = -np.expm1(-S * T) / S
    phi[S == 0.0] = T
    mat = (W.T @ W) * phi
    return 0.5 * (mat + mat.T)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_gramian_matches_old_closed_form_exactly(seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, int(rng.integers(1, 11)))
    sd = eigendecompose(g)
    size = int(rng.integers(1, g.n + 1))
    D = [g.vertex_ids[i] for i in np.sort(rng.choice(g.n, size=size, replace=False))]
    for T in (0.5, 1.0, float(rng.uniform(0.01, 10.0))):
        assert np.array_equal(gramian(sd, D, T).matrix, _old_gramian_matrix(sd, D, T))


def test_gramian_matches_direct_quadrature():
    rng = np.random.default_rng(17)
    for _ in range(4):
        g = random_connected_graph(rng, int(rng.integers(2, 11)))
        sd = eigendecompose(g)
        size = int(rng.integers(1, g.n + 1))
        d_idx = np.sort(rng.choice(g.n, size=size, replace=False))
        D = [g.vertex_ids[i] for i in d_idx]
        T = float(rng.uniform(0.3, 2.0))
        Q = gramian(sd, D, T)

        indicator = np.zeros(g.n)
        indicator[d_idx] = 1.0

        def integrand(ts):
            out = np.empty((len(ts), sd.n * sd.n))
            for k, s in enumerate(ts):
                E = sd.eigenvectors * np.exp(-sd.eigenvalues * s)[None, :]
                half = E.T @ (g.m[:, None] * (indicator[:, None] * E))
                out[k] = half.ravel()
            return out

        direct = adaptive_simpson(integrand, 0.0, T, rel_tol=1e-12).reshape(
            sd.n, sd.n
        )
        assert np.abs(direct - Q.matrix).max() <= 1e-9


# ---------------------------------------------------------------------------
# synthesis


def test_synth_free_decay_suffices(k2):
    sd = eigendecompose(k2)
    f0 = np.array([1.0, 0.0])
    sig, res = synth_control(sd, ["0"], 1.0, f0, alpha_target=0.99)
    assert res.nu == 0.0
    assert np.all(sig.values_at(sd, np.linspace(0.0, 1.0, 9)) == 0.0)
    free = semigroup_apply(sd, 1.0, f0)
    np.testing.assert_allclose(res.final_state, free, atol=1e-12)
    assert res.costs[2.0] == 0.0


def test_synth_k2_hits_target(k2):
    sd = eigendecompose(k2)
    sig, res = synth_control(sd, ["0"], 1.0, np.array([1.0, 0.0]), 0.1)
    assert res.achieved_alpha == pytest.approx(0.1, abs=1e-8)
    assert res.achieved_alpha <= 0.1 * (1 + 1e-9)
    assert all(math.isfinite(c) for c in res.costs.values())
    assert res.energy > 0.0
    # L2 cost re-quadrature against the Gramian-algebra energy
    assert res.costs[2.0] == pytest.approx(math.sqrt(res.energy), rel=1e-8)


def test_synth_exact_null_when_nonsingular(k2):
    sd = eigendecompose(k2)
    sig, res = synth_control(sd, ["0"], 1.0, np.array([1.0, 0.5]), 0.0)
    assert res.achieved_alpha == 0.0
    assert m_norm(k2, res.final_state) == 0.0
    sim = verify_control(sd, ["0"], np.array([1.0, 0.5]), sig, 1.0)
    assert m_norm(k2, sim.final_state) <= 1e-8


def test_synth_null_refused_when_singular(c4):
    sd = eigendecompose(c4)
    with pytest.raises(TargetUnreachable):
        synth_control(sd, ["0", "2"], 1.0, np.ones(4), 0.0)


def test_synth_below_mode_floor_unreachable(c4):
    sd = eigendecompose(c4)
    phi = np.array([0.0, 1.0, 0.0, -1.0])
    T = 1.0
    with pytest.raises(TargetUnreachable):
        synth_control(sd, ["0", "2"], T, phi, 0.5 * math.exp(-2.0 * T))


def test_synth_multiplier_monotonicity(k2):
    sd = eigendecompose(k2)
    Q = gramian(sd, ["0"], 1.0)
    f0 = np.array([1.0, 0.0])
    sT = np.exp(-sd.eigenvalues) * sd.coefficients(f0)
    beta = Q.eigenvectors.T @ sT
    hs = [
        float(np.linalg.norm(beta / (1.0 + nu * Q.eigenvalues)))
        for nu in np.logspace(-3, 6, 40)
    ]
    assert all(a >= b - 1e-15 for a, b in zip(hs, hs[1:]))


def test_synth_validations(k2):
    sd = eigendecompose(k2)
    with pytest.raises(ValidationError):
        synth_control(sd, ["0"], 1.0, np.zeros(2), 0.5)
    with pytest.raises(EmptySubset):
        synth_control(sd, [], 1.0, np.ones(2), 0.5)


def test_synth_rejects_complex_state(k2):
    sd = eigendecompose(k2)
    with pytest.raises(ValidationError, match="real"):
        synth_control(sd, ["0"], 1.0, np.array([1.0 + 1.0j, 0.5]), 0.5)


# ---------------------------------------------------------------------------
# Duhamel verification


def test_verify_zero_control_is_free_evolution(c4):
    sd = eigendecompose(c4)
    f0 = np.array([1.0, -1.0, 0.5, 0.0])
    u = ControlSignal(("0",), 1.0, np.array([0.0, 1.0]), np.zeros((2, 1)))
    res = verify_control(sd, ["0"], f0, u, 1.0)
    np.testing.assert_allclose(
        res.final_state, semigroup_apply(sd, 1.0, f0), atol=1e-12
    )


def test_verify_reproduces_synth_prediction(c8):
    sd = eigendecompose(c8)
    rng = np.random.default_rng(5)
    f0 = rng.standard_normal(8)
    sig, res = synth_control(sd, even_ids(c8), 2.0, f0, 0.2)
    sim = verify_control(sd, even_ids(c8), f0, sig, 2.0)
    rel = m_norm(c8, res.final_state - sim.final_state) / m_norm(c8, res.final_state)
    assert rel <= 1e-8


def test_verify_constant_control_scalar_graph():
    g = build_graph([("0", 1.0)], [])
    sd = eigendecompose(g)
    f0 = np.array([2.0])
    u = ControlSignal(("0",), 1.0, np.array([0.0, 1.0]), np.full((2, 1), 3.0))
    res = verify_control(sd, ["0"], f0, u, 1.0)
    np.testing.assert_allclose(res.final_state, [5.0], atol=1e-12)


def test_verify_rejects_complex_state_and_values(c4):
    sd = eigendecompose(c4)
    f0 = np.array([1.0, -1.0, 0.5, 0.0])
    u = ControlSignal(("0",), 1.0, np.array([0.0, 1.0]), np.zeros((2, 1)))
    with pytest.raises(ValidationError, match="real"):
        verify_control(sd, ["0"], f0 + 1.0j, u, 1.0)
    complex_u = ControlSignal(("0",), 1.0, u.times, np.full((2, 1), 1.0j))
    with pytest.raises(ValidationError, match="real"):
        verify_control(sd, ["0"], f0, complex_u, 1.0)


def test_signal_grid_reproduces_closed_form(k2):
    """On the control task's 512-point export grid, ``values_at`` is
    u(tau) = (S_{T-tau} eta)|_D, evaluated here through ``semigroup_apply``."""
    sd = eigendecompose(k2)
    sig, _ = synth_control(sd, ["0"], 1.0, np.array([1.0, 0.0]), 0.1)
    assert sig.closed_form and sig.times is None and sig.values is None
    taus = np.linspace(0.0, 1.0, 512)[[0, 100, 317, 511]]
    direct = [semigroup_apply(sd, 1.0 - tau, sig.eta)[:1] for tau in taus]
    np.testing.assert_allclose(sig.values_at(sd, taus), direct, atol=1e-12)


def test_verify_rejects_signal_without_grid_or_eta(k2):
    sd = eigendecompose(k2)
    f0 = np.array([1.0, 0.0])
    for u in [
        ControlSignal(("0",), 1.0),
        ControlSignal(("0",), 1.0, times=np.array([0.0, 1.0])),
        ControlSignal(("0",), 1.0, values=np.zeros((2, 1))),
    ]:
        with pytest.raises(ValidationError, match="needs eta"):
            verify_control(sd, ["0"], f0, u, 1.0)


def test_grid_signal_has_no_values_at(k2):
    """Only closed-form signals are evaluated pointwise; a grid signal is
    read by ``verify_control`` segment by segment."""
    sd = eigendecompose(k2)
    u = ControlSignal(
        ("0",), 1.0, np.array([0.0, 0.5, 1.0]), np.array([[0.0], [2.0], [1.0]])
    )
    with pytest.raises(ValidationError, match="closed-form"):
        u.values_at(sd, np.array([0.0, 0.25, 0.5]))


def test_verify_rejects_signal_for_another_set():
    g = build_family("cycle", {"n": 6}).graph
    sd = eigendecompose(g)
    f0 = np.random.default_rng(2).standard_normal(6)
    sig, _ = synth_control(sd, ["0", "2"], 1.0, f0, 0.1)
    with pytest.raises(ValidationError, match="another set"):
        verify_control(sd, ["1", "3"], f0, sig, 1.0)
    wide = ControlSignal(("0", "2"), 1.0, np.array([0.0, 1.0]), np.ones((2, 3)))
    with pytest.raises(ValidationError, match="value row per knot"):
        verify_control(sd, ["0", "2"], f0, wide, 1.0)


@pytest.mark.parametrize(
    "times", [[0.0], [0.0, 0.5], [0.1, 1.0], [0.0, 0.5, 0.5, 1.0], [0.0, 0.7, 0.3, 1.0]]
)
def test_verify_rejects_knots_not_rising_from_0_to_T(k2, times):
    sd = eigendecompose(k2)
    u = ControlSignal(("0",), 1.0, np.array(times), np.ones((len(times), 1)))
    with pytest.raises(ValidationError, match="knots rising from 0 to T"):
        verify_control(sd, ["0"], np.array([1.0, 0.0]), u, 1.0)


def _duhamel_per_knot(sd, D, f0, u, T):
    """Duhamel's formula with one Simpson call per knot segment of a grid
    signal: an independent route to the same final state."""
    d_idx = sd.graph.subset_indices(D)
    mD = sd.graph.m[d_idx]
    VD = sd.eigenvectors[d_idx, :]
    lam = sd.eigenvalues
    forced = np.zeros(sd.n)
    for k in range(len(u.times) - 1):
        t0, t1 = float(u.times[k]), float(u.times[k + 1])
        v0, v1 = u.values[k], u.values[k + 1]

        def integrand(taus):
            w = (taus - t0) / (t1 - t0)
            u_vals = v0[None, :] + w[:, None] * (v1 - v0)[None, :]
            embedded = VD.T @ (mD[None, :] * u_vals).T
            return (np.exp(-np.outer(lam, T - taus)) * embedded).T

        forced = forced + adaptive_simpson(integrand, t0, t1, rel_tol=1e-10)
    return sd.synthesize(np.exp(-lam * T) * sd.coefficients(f0) + forced)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 12))
@example(9999, 11)  # knots 1.7e-3 apart on one vertex
def test_verify_grid_signal_matches_per_knot_simpson(seed, n_knots):
    """The exact per-segment integral of a piecewise-linear control at
    unaligned knot times agrees with one Simpson call per segment."""
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, int(rng.integers(1, 9)))
    sd = eigendecompose(g)
    size = int(rng.integers(1, g.n + 1))
    D = tuple(g.vertex_ids[i] for i in np.sort(rng.choice(g.n, size=size, replace=False)))
    T = float(rng.uniform(0.1, 5.0))
    knots = np.concatenate([[0.0], np.sort(rng.uniform(0.0, T, n_knots)), [T]])
    u = ControlSignal(D, T, knots, rng.standard_normal((len(knots), len(D))))
    f0 = rng.standard_normal(g.n)
    want = _duhamel_per_knot(sd, D, f0, u, T)
    got = verify_control(sd, D, f0, u, T).final_state
    assert m_norm(g, got - want) <= 1e-10 * m_norm(g, want)


def _stiff_tree():
    """A weighted tree with lambda_max = 5.55e4: m from 1e-3 to 10, b from
    0.1 to 50."""
    return build_graph(
        [(str(i), m) for i, m in enumerate((0.001, 0.01, 1.0, 10.0, 0.01))],
        [("1", "0", 50.0), ("2", "1", 1.0), ("3", "1", 50.0), ("4", "2", 0.1)],
    )


@pytest.mark.parametrize("case", ["stiff_tree", "short_horizon"])
def test_verify_grid_signal_is_exact_without_quadrature(monkeypatch, case):
    """A grid signal takes the per-segment closed form and no Simpson call.
    It matches per-knot Simpson on a stiff tree with knot gaps down to
    1e-9 T, and at T = 1e-6, where every lambda h (lambda = 0 included)
    takes the series branch.  f0 = 0, so the free decay cannot hide an
    error in the forced term."""
    if case == "stiff_tree":
        g, D, T = _stiff_tree(), ("1", "3"), 2.0
        knots = T * np.array([0.0, 1e-9, 2e-9, 1e-6, 1e-3, 0.5, 1.0 - 1e-9, 1.0])
    else:
        g, D, T = build_family("cycle", {"n": 6}).graph, ("0", "2"), 1e-6
        knots = np.linspace(0.0, T, 7)
    sd = eigendecompose(g)
    rng = np.random.default_rng(0)
    u = ControlSignal(D, T, knots, rng.standard_normal((len(knots), len(D))))
    f0 = np.zeros(g.n)
    want = _duhamel_per_knot(sd, D, f0, u, T)

    def no_quadrature(*args, **kwargs):
        raise AssertionError("a grid signal needs no quadrature")

    monkeypatch.setattr(graphheat.control, "adaptive_simpson", no_quadrature)
    got = verify_control(sd, D, f0, u, T).final_state
    assert m_norm(g, got - want) <= 1e-10 * m_norm(g, want)


def test_segment_weights_match_high_precision():
    """phi_1 and psi on both sides of the series cut, at 0 and at large x,
    against 40-digit decimal evaluations of their closed forms."""
    xs = [0.0, 1e-12, 1e-6, 1e-3, 0.0999, 0.1, 0.1001, 0.5, 3.0, 40.0, 1e4]
    phi1, psi = _segment_weights(np.array(xs))
    assert (phi1[0], psi[0]) == (1.0, 0.5)
    with localcontext() as ctx:
        ctx.prec = 40
        for x, p1, ps in zip(xs[1:], phi1[1:], psi[1:]):
            d = Decimal(x)
            em1 = (-d).exp() - 1
            assert p1 == pytest.approx(float(-em1 / d), rel=1e-15, abs=0.0)
            assert ps == pytest.approx(float((d + em1) / (d * d)), rel=1e-14, abs=0.0)


# ---------------------------------------------------------------------------
# Hautus obstructions and mode invariance


def test_hautus_c4(c4):
    sd = eigendecompose(c4)
    found = hautus_obstruction(sd, ["0", "2"])
    assert len(found) == 1
    lam, basis = found[0]
    assert lam == pytest.approx(2.0, abs=1e-10)
    assert basis.shape == (4, 1)
    phi = basis[:, 0]
    target = np.array([0.0, 1.0, 0.0, -1.0]) / math.sqrt(2.0)
    assert min(m_norm(c4, phi - target), m_norm(c4, phi + target)) <= 1e-10


def test_hautus_c8_lifted(c8, c8_cover):
    sd = eigendecompose(c8)
    found = [f for f in hautus_obstruction(sd, even_ids(c8)) if abs(f[0] - 2.0) < 1e-8]
    assert found
    lam, basis = found[0]
    lifted = lift_function(c8_cover, np.array([0.0, 1.0, 0.0, -1.0]))
    lifted = lifted / m_norm(c8, lifted)
    # the lift lies in the span of the returned basis
    coefs = basis.T @ (c8.m * lifted)
    assert m_norm(c8, basis @ coefs - lifted) <= 1e-10


def test_hautus_full_set_empty(c4):
    sd = eigendecompose(c4)
    assert hautus_obstruction(sd, list(c4.vertex_ids)) == []


def test_mode_invariance_zero_control(c4):
    sd = eigendecompose(c4)
    lam, basis = hautus_obstruction(sd, ["0", "2"])[0]
    phi = basis[:, 0]
    f0 = np.array([1.0, 0.3, -0.2, 0.9])
    u = ControlSignal(("0", "2"), 1.0, np.array([0.0, 1.0]), np.zeros((2, 2)))
    assert mode_invariance_check(sd, ["0", "2"], phi, lam, f0, u, 1.0) <= 1e-12


def test_mode_invariance_random_controls(c8):
    sd = eigendecompose(c8)
    D = even_ids(c8)
    lam, basis = [f for f in hautus_obstruction(sd, D) if abs(f[0] - 2.0) < 1e-8][0]
    phi = basis[:, 0]
    rng = np.random.default_rng(9)
    knots = np.linspace(0.0, 1.0, 9)
    for _ in range(10):
        f0 = rng.standard_normal(8)
        u = ControlSignal(tuple(D), 1.0, knots, rng.standard_normal((9, 4)))
        assert mode_invariance_check(sd, D, phi, lam, f0, u, 1.0) <= 1e-9


def test_mode_invariance_orthogonal_component(c4):
    sd = eigendecompose(c4)
    lam, basis = hautus_obstruction(sd, ["0", "2"])[0]
    phi = basis[:, 0]
    f0 = np.ones(4)  # orthogonal to phi
    u = ControlSignal(("0", "2"), 1.0, np.array([0.0, 1.0]), np.zeros((2, 2)))
    res = verify_control(sd, ["0", "2"], f0, u, 1.0)
    assert abs(sd.inner(res.final_state, phi)) <= 1e-12
    assert abs(sd.inner(f0, phi)) <= 1e-12


# ---------------------------------------------------------------------------
# stabilization


def test_stabilize_single_period_matches_synth(k2):
    sd = eigendecompose(k2)
    f0 = np.array([1.0, 0.0])
    rep = stabilize(sd, ["0"], 1.0, 0.5, 1, f0)
    _, single = synth_control(sd, ["0"], 1.0, f0, 0.5)
    np.testing.assert_allclose(rep.final_state, single.final_state, atol=1e-12)
    assert rep.period_norms[1] == pytest.approx(0.5, abs=1e-10)


def test_stabilize_k2_ten_periods(k2):
    sd = eigendecompose(k2)
    f0 = np.array([1.0, 0.0])
    rep = stabilize(sd, ["0"], 1.0, 0.5, 10, f0)
    for k, nrm in enumerate(rep.period_norms):
        assert nrm <= 0.5**k * rep.period_norms[0] + 1e-8
    assert rep.omega == pytest.approx(math.log(0.5), abs=1e-12)
    assert rep.M >= 1.0


def test_stabilize_zero_state(k2):
    sd = eigendecompose(k2)
    rep = stabilize(sd, ["0"], 1.0, 0.5, 3, np.zeros(2))
    assert rep.period_norms == [0.0, 0.0, 0.0, 0.0]
    assert all(c == 0.0 for c in rep.total_costs.values())


def test_stabilize_rejects_complex_state(k2):
    sd = eigendecompose(k2)
    with pytest.raises(ValidationError, match="real"):
        stabilize(sd, ["0"], 1.0, 0.5, 2, np.array([1.0, 1.0j]))


def test_controlled_trajectory_endpoints(k2):
    sd = eigendecompose(k2)
    f0 = np.array([1.0, 0.0])
    sig, res = synth_control(sd, ["0"], 1.0, f0, 0.1)
    traj = controlled_trajectory(sd, ["0"], f0, sig, 2)
    np.testing.assert_allclose(traj[0], f0, atol=1e-12)
    np.testing.assert_allclose(traj[1], res.final_state, atol=1e-10)


def test_controlled_trajectory_rejects_complex_state(k2):
    sd = eigendecompose(k2)
    sig, _ = synth_control(sd, ["0"], 1.0, np.array([1.0, 0.0]), 0.1)
    with pytest.raises(ValidationError, match="real"):
        controlled_trajectory(sd, ["0"], np.array([1.0j, 0.0]), sig, 2)


def test_controlled_trajectory_needs_two_samples(k2):
    sd = eigendecompose(k2)
    sig, _ = synth_control(sd, ["0"], 1.0, np.array([1.0, 0.0]), 0.1)
    with pytest.raises(ValidationError, match="at least 2 samples"):
        controlled_trajectory(sd, ["0"], np.array([1.0, 0.0]), sig, 1)


def _trajectory_per_time(sd, D, f0, signal, ts):
    """The controlled states at each time on its own, as they were computed
    before the Gramian recurrence: S_t f0 plus the Duhamel closed form
    C * e^{-l_j (T - t)} (1 - e^{-(l_i+l_j) t}) / (l_i+l_j) applied to eta."""
    d_idx = sd.graph.subset_indices(D)
    lam = sd.eigenvalues
    W = np.sqrt(sd.graph.m[d_idx])[:, None] * sd.eigenvectors[d_idx, :]
    C = W.T @ W
    S = lam[:, None] + lam[None, :]
    c0, eta = sd.coefficients(f0), sd.coefficients(signal.eta)
    rows = []
    for t in ts:
        factor = np.zeros_like(S)
        if t > 0:
            with np.errstate(divide="ignore", invalid="ignore"):
                phi = -np.expm1(-S * t) / S
            phi[S == 0.0] = t
            factor = np.exp(-lam[None, :] * (signal.T - t)) * phi
        rows.append(np.exp(-lam * t) * c0 + (C * factor) @ eta)
    return np.array(rows) @ sd.eigenvectors.T


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 65))
def test_controlled_trajectory_matches_per_time_closed_form(seed, samples):
    """The one-step-per-sample recurrence reproduces the per-time closed
    form at every sample, and its last row is the Duhamel final state.

    Errors are relative to ||f0|| + T ||eta||, the size of the terms each
    route sums: near-singular Gramians give large multipliers eta whose
    contributions cancel to a small state, and no route to that state is
    accurate relative to its own size (seed 1894 with 3 samples: ||eta|| is
    1.9e6, and both routes miss a 50-digit reference by about 1e-11)."""
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, int(rng.integers(1, 11)))
    sd = eigendecompose(g)
    size = int(rng.integers(1, g.n + 1))
    D = tuple(g.vertex_ids[i] for i in np.sort(rng.choice(g.n, size=size, replace=False)))
    T = float(rng.uniform(0.1, 5.0))
    f0 = rng.standard_normal(g.n)
    try:
        sig, _ = synth_control(sd, D, T, f0, float(rng.uniform(0.05, 0.95)))
    except TargetUnreachable:  # a mode invisible on D blocks the target
        return
    traj = controlled_trajectory(sd, D, f0, sig, samples)
    want = _trajectory_per_time(sd, D, f0, sig, np.linspace(0.0, T, samples))
    scale = m_norm(g, f0) + T * m_norm(g, sig.eta)
    for got_row, want_row in zip(traj, want):
        assert m_norm(g, got_row - want_row) <= 1e-12 * scale
    final = verify_control(sd, D, f0, sig, T).final_state
    assert m_norm(g, traj[-1] - final) <= 1e-10 * scale
