import math

import numpy as np
import pytest

from graphheat.control import (
    ControlSignal,
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
    assert m_norm(c4, Q.apply(phi)) <= 1e-12


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
        sym = sd.inner(Q.apply(f), h) - sd.inner(f, Q.apply(h))
        assert abs(sym) <= 1e-10 * (m_norm(g, f) * m_norm(g, h) + 1.0)
        assert Q.quadratic_form(f) >= -1e-12


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
    assert np.all(sig.values == 0.0)
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
    for r in (1.0, 2.0, math.inf):
        assert sim.costs[r] == pytest.approx(res.costs[r], rel=1e-8, abs=1e-12)


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
    sd = eigendecompose(k2)
    sig, _ = synth_control(sd, ["0"], 1.0, np.array([1.0, 0.0]), 0.1)
    assert sig.closed_form
    for k in [0, 100, 317, 511]:
        regenerated = sig.value_at(sd, float(sig.times[k]))
        np.testing.assert_allclose(regenerated, sig.values[k], atol=1e-12)


def test_grid_signal_value_interpolates(k2):
    sd = eigendecompose(k2)
    u = ControlSignal(
        ("0",), 1.0, np.array([0.0, 0.5, 1.0]), np.array([[0.0], [2.0], [1.0]])
    )
    np.testing.assert_allclose(u.value_at(sd, 0.25), [1.0])
    np.testing.assert_allclose(u.value_at(sd, 0.75), [1.5])


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
    traj = controlled_trajectory(sd, ["0"], f0, sig, np.array([0.0, 1.0]))
    np.testing.assert_allclose(traj[0], f0, atol=1e-12)
    np.testing.assert_allclose(traj[1], res.final_state, atol=1e-10)


def test_controlled_trajectory_rejects_complex_state(k2):
    sd = eigendecompose(k2)
    sig, _ = synth_control(sd, ["0"], 1.0, np.array([1.0, 0.0]), 0.1)
    with pytest.raises(ValidationError, match="real"):
        controlled_trajectory(sd, ["0"], np.array([1.0j, 0.0]), sig, np.array([0.0, 1.0]))
