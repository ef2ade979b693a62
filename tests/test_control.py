import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graphheat.control
import graphheat.spectral
from graphheat.control import (
    ControlSignal,
    _HAUTUS_REL,
    _controlled_trajectory,
    _grid_forced,
    _phi1_weight,
    gramian,
    hautus_obstruction,
    mode_invariance_trials,
    stabilize,
    synth_control,
    verify_control,
)
from graphheat.covering import lift_function
from graphheat.errors import (
    BisectionNonConvergence,
    EmptySubset,
    TargetUnreachable,
    ValidationError,
)
from graphheat.families import build_family, parity_subset
from graphheat.graph import build_graph
from graphheat.observability import exact_obs_constant
from graphheat.quadrature import adaptive_simpson, vector_norms
from graphheat.spectral import RestrictedEvolution, eigendecompose, semigroup_apply

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


def test_synth_free_decay_builds_no_gramian(k2, monkeypatch):
    """Where ||S_T f0|| already meets alpha ||f0|| the control is zero, with
    nu = 0, energy 0 and zero costs, and no Gramian is built.  T and D are
    validated as the Gramian validates them."""
    sd = eigendecompose(k2)
    f0 = np.array([1.0, 0.0])
    built = []
    real = graphheat.control.gramian
    monkeypatch.setattr(graphheat.control, "gramian", lambda *a: built.append(a) or real(*a))
    sig, res = synth_control(sd, ["0"], 1.0, f0, alpha_target=601.0)
    assert (res.nu, res.energy, res.costs) == (0.0, 0.0, {1.0: 0.0, 2.0: 0.0, math.inf: 0.0})
    np.testing.assert_array_equal(sig.eta, np.zeros(2))
    free = semigroup_apply(sd, 1.0, f0)
    np.testing.assert_allclose(res.final_state, free, rtol=1e-15, atol=0.0)
    assert res.achieved_alpha == pytest.approx(m_norm(k2, free), rel=1e-15)
    with pytest.raises(ValidationError, match="horizon must be positive"):
        synth_control(sd, ["0"], 0.0, f0, 601.0)
    with pytest.raises(EmptySubset):
        synth_control(sd, [], 1.0, f0, 601.0)
    assert built == []


def test_each_decomposition_synthesizes_with_its_own_gramian():
    """A Gramian acts on the coefficients of the decomposition it was built
    on.  One of cycle-8 with b = 1, read on cycle-8 with b = 5 (even D,
    T = 1, f0 = 1), once led the synthesis to nu = 820 instead of 425 with no
    error; each decomposition now keeps its own, so a Gramian built on the
    other one first changes nothing."""
    g1 = build_family("cycle", {"n": 8}).graph
    g5 = build_family("cycle", {"n": 8, "b": 5.0}).graph
    sd1, sd5 = eigendecompose(g1), eigendecompose(g5)
    D = even_ids(g5)
    gramian(sd1, D, 1.0)
    _, res = synth_control(sd5, D, 1.0, np.ones(8), 0.01)
    assert res.nu == pytest.approx(425.4166802763939, rel=1e-9)
    assert res.nu == synth_control(eigendecompose(g5), D, 1.0, np.ones(8), 0.01)[1].nu
    nu_1 = synth_control(sd1, D, 1.0, np.ones(8), 0.01)[1].nu
    assert nu_1 == pytest.approx(819.581297814846, rel=1e-9)


def test_one_gramian_serves_every_call_of_one_decomposition_and_horizon(monkeypatch):
    """``gramian`` keeps the Gramian it built last on the decomposition:
    two syntheses of one (D, T) build one, and so do an exact observability
    constant and a synthesis, which read the bits of a fresh build.  A
    sweep over 50 horizons keeps only the last one, with read-only arrays."""
    g = random_connected_graph(np.random.default_rng(4), 12)
    sd = eigendecompose(g)
    D, f0 = list(g.vertex_ids[:5]), np.random.default_rng(1).standard_normal(12)
    fresh = exact_obs_constant(eigendecompose(g), D, 0.7)
    built, real = [], graphheat.control.Gramian  # the (D, T) of each Gramian built
    monkeypatch.setattr(graphheat.control, "Gramian", lambda *a: built.append(a[:2]) or real(*a))
    first = synth_control(sd, D, 1.0, f0, 0.01)[1]
    second = synth_control(sd, D, 1.0, f0, 0.01)[1]
    assert len(built) == 1 and first.nu == second.nu
    c_exact = exact_obs_constant(sd, D, 0.7)
    synth_control(sd, D, 0.7, f0, 0.01)
    assert built == [(tuple(D), 1.0), (tuple(D), 0.7)]
    assert c_exact == fresh
    for T in np.linspace(0.1, 5.0, 50):
        synth_control(sd, D, T, f0, 0.01, cost_exponents=())
    Q = gramian(sd, D, 5.0)
    assert len(built) == 52 and sd._gramian is Q and Q.T == 5.0
    for a in (Q.matrix, Q.eigenvalues, Q.eigenvectors):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_a_decomposition_with_a_gramian_is_freed_without_the_cyclic_collector():
    """The decomposition's Gramian refers to no decomposition, so keeping
    it forms no reference cycle: with the cyclic collector off, the
    decomposition goes with its last reference."""
    sd = eigendecompose(random_connected_graph(np.random.default_rng(2), 10))
    synth_control(sd, ["0", "3"], 1.0, np.ones(10), 0.01)
    assert sd._gramian is not None
    gone = weakref.ref(sd)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del sd
        assert gone() is None
    finally:
        if enabled:
            gc.enable()


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


def _plain_multiplier_search(beta, mu, target, norm_f0):
    """The multiplier search with h(nu) = ||beta / (1 + nu mu)|| taken
    afresh, by ``np.linalg.norm``, at every test: the reference that
    ``synth_control``'s search must follow bit for bit."""

    def h(nu):
        with np.errstate(over="ignore"):
            return float(np.linalg.norm(beta / (1.0 + nu * mu)))

    floor = float(np.linalg.norm(beta[mu == 0.0]))
    nu_hi = 1.0
    while h(nu_hi) > target and nu_hi < 1e18:
        nu_hi *= 2.0
    if h(nu_hi) > target:
        raise TargetUnreachable(
            f"target norm {target:.6g} is below the invariant floor "
            f"{floor:.6g} enforced by modes vanishing on D"
        )
    nu_lo = 0.0 if nu_hi == 1.0 else nu_hi / 2.0
    for _ in range(200):
        mid = 0.5 * (nu_lo + nu_hi)
        if h(mid) > target:
            nu_lo = mid
        else:
            nu_hi = mid
        if abs(h(nu_hi) - target) <= 1e-12 * norm_f0:
            break
        if (nu_hi - nu_lo) <= 1e-15 * nu_hi:
            break
    if not (h(nu_hi) <= target * (1.0 + 1e-9) + 1e-300):
        raise BisectionNonConvergence(
            f"multiplier search stalled at nu={nu_hi:.6g}, ||f(T)||={h(nu_hi):.6g}"
        )
    return nu_hi


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_synth_control_follows_the_plain_multiplier_search_bit_for_bit(seed):
    """On random graphs and targets below the free decay, ``nu``,
    ``achieved_alpha`` and ``energy`` equal, by hex, what the plain search
    and the closed forms give; an unreachable target raises the same text."""
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, int(rng.integers(2, 13)))
    sd = eigendecompose(g)
    size = int(rng.integers(1, g.n + 1))
    D = [g.vertex_ids[i] for i in sorted(rng.choice(g.n, size=size, replace=False))]
    T = float(rng.choice([0.1, 1.0, 5.0]))
    f0 = rng.standard_normal(g.n)
    Q = gramian(sd, D, T)
    mu, P = Q.eigenvalues, Q.eigenvectors
    sT = graphheat.spectral.decay(sd.eigenvalues, T) * sd.coefficients(f0)
    norm_f0 = sd.norm(f0)
    alpha = float(rng.uniform(1e-3, 0.99)) * float(np.linalg.norm(sT)) / norm_f0
    beta = P.T @ sT
    target = alpha * norm_f0
    try:
        nu = _plain_multiplier_search(beta, mu, target, norm_f0)
    except TargetUnreachable as exc:
        with pytest.raises(TargetUnreachable) as got:
            synth_control(sd, D, T, f0, alpha, cost_exponents=())
        assert str(got.value) == str(exc)
        return
    _signal, res = synth_control(sd, D, T, f0, alpha, cost_exponents=())
    scale = beta / (1.0 + nu * mu)
    eta_hat, fT_hat = P @ (-nu * scale), P @ scale
    assert res.nu.hex() == nu.hex()
    assert res.achieved_alpha.hex() == (float(np.sqrt(np.add.reduce(fT_hat * fT_hat))) / norm_f0).hex()
    assert res.energy.hex() == float(np.sum(mu * (P.T @ eta_hat) ** 2)).hex()


def test_synth_control_refusal_texts_match_the_plain_search(c4, monkeypatch):
    """Below the floor of the modes that vanish on D the target is
    unreachable; a Gramian whose eigenvalues are nan makes every h(nu) nan,
    so the search runs out and stalls.  Both refusals keep their texts."""
    sd = eigendecompose(c4)
    D = ["0", "2"]
    phi = np.array([0.0, 1.0, 0.0, -1.0])
    Q = gramian(sd, D, 1.0)
    beta = Q.eigenvectors.T @ (graphheat.spectral.decay(sd.eigenvalues, 1.0) * sd.coefficients(phi))
    alpha = 0.5 * math.exp(-2.0)
    with pytest.raises(TargetUnreachable) as want:
        _plain_multiplier_search(beta, Q.eigenvalues, alpha * sd.norm(phi), sd.norm(phi))
    with pytest.raises(TargetUnreachable) as got:
        synth_control(sd, D, 1.0, phi, alpha)
    assert str(got.value) == str(want.value)

    nan_gram = dataclasses.replace(Q, eigenvalues=np.full(4, math.nan))
    f0 = np.array([1.0, 0.5, -0.25, 2.0])
    beta = Q.eigenvectors.T @ (graphheat.spectral.decay(sd.eigenvalues, 1.0) * sd.coefficients(f0))
    with pytest.raises(BisectionNonConvergence) as want:
        _plain_multiplier_search(beta, nan_gram.eigenvalues, 0.01 * sd.norm(f0), sd.norm(f0))
    monkeypatch.setattr(graphheat.control, "gramian", lambda *a: nan_gram)
    with pytest.raises(BisectionNonConvergence) as got:
        synth_control(sd, D, 1.0, f0, 0.01)
    assert str(got.value) == str(want.value)
    assert "||f(T)||=nan" in str(got.value)


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
    u = ControlSignal(("0",), 1.0, np.zeros(4))
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
    """On one vertex S_t = I, so eta = 3 is the constant control u = 3."""
    g = build_graph([("0", 1.0)], [])
    sd = eigendecompose(g)
    f0 = np.array([2.0])
    u = ControlSignal(("0",), 1.0, np.array([3.0]))
    res = verify_control(sd, ["0"], f0, u, 1.0)
    np.testing.assert_allclose(res.final_state, [5.0], atol=1e-12)


def test_verify_rejects_complex_state_and_values(c4):
    sd = eigendecompose(c4)
    f0 = np.array([1.0, -1.0, 0.5, 0.0])
    u = ControlSignal(("0",), 1.0, np.zeros(4))
    with pytest.raises(ValidationError, match="real"):
        verify_control(sd, ["0"], f0 + 1.0j, u, 1.0)
    complex_u = ControlSignal(("0",), 1.0, np.full(4, 1.0j))
    with pytest.raises(ValidationError, match="real"):
        verify_control(sd, ["0"], f0, complex_u, 1.0)


def test_signal_grid_reproduces_closed_form(k2):
    """On the control task's 512-point export grid, ``values_at`` is
    u(tau) = (S_{T-tau} eta)|_D, evaluated here through ``semigroup_apply``.
    A signal is its eta: it has no other field."""
    sd = eigendecompose(k2)
    sig, _ = synth_control(sd, ["0"], 1.0, np.array([1.0, 0.0]), 0.1)
    assert [f.name for f in dataclasses.fields(sig)] == ["D", "T", "eta"]
    taus = np.linspace(0.0, 1.0, 512)[[0, 100, 317, 511]]
    direct = [semigroup_apply(sd, 1.0 - tau, sig.eta)[:1] for tau in taus]
    np.testing.assert_allclose(sig.values_at(sd, taus), direct, atol=1e-12)


def test_verify_rejects_signal_for_another_set():
    g = build_family("cycle", {"n": 6}).graph
    sd = eigendecompose(g)
    f0 = np.random.default_rng(2).standard_normal(6)
    sig, _ = synth_control(sd, ["0", "2"], 1.0, f0, 0.1)
    with pytest.raises(ValidationError, match="another set"):
        verify_control(sd, ["1", "3"], f0, sig, 1.0)


def _duhamel_per_segment(sd, D, f0, values, T):
    """Duhamel's formula for a control constant on equal segments of [0, T]
    (values[k] on the k-th), with one Simpson call per segment: an
    independent route to the final state that ``_grid_forced``'s forced
    part gives."""
    d_idx = sd.graph.subset_indices(D)
    VD = sd.eigenvectors[d_idx, :]
    lam = sd.eigenvalues
    ends = np.linspace(0.0, T, len(values) + 1)
    forced = np.zeros(sd.n)
    for k, value in enumerate(values):
        embedded = VD.T @ (sd.graph.m[d_idx] * value)  # coefs of 1_D u on the segment

        def integrand(taus):
            return (np.exp(-np.outer(lam, T - taus)) * embedded[:, None]).T

        forced = forced + adaptive_simpson(integrand, ends[k], ends[k + 1], rel_tol=1e-10)
    return sd.synthesize(np.exp(-lam * T) * sd.coefficients(f0) + forced)


def _duhamel_exact(sd, D, f0, values, T):
    """The final state with ``_grid_forced``'s forced part, which needs no
    power-of-two shift here."""
    forced, shift = _grid_forced(sd, sd.graph.subset_indices(D), values[None], T)
    assert shift.tolist() == [[0]]
    forced = forced[0]
    return sd.synthesize(np.exp(-sd.eigenvalues * T) * sd.coefficients(f0) + forced)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 12))
@example(9999, 11)  # 12 segments on one vertex
def test_verify_grid_signal_matches_per_knot_simpson(seed, n_knots):
    """The exact per-segment integral of a control constant on the
    n_knots + 1 equal segments between knots agrees with one Simpson call
    per segment."""
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, int(rng.integers(1, 9)))
    sd = eigendecompose(g)
    size = int(rng.integers(1, g.n + 1))
    D = tuple(g.vertex_ids[i] for i in np.sort(rng.choice(g.n, size=size, replace=False)))
    T = float(rng.uniform(0.1, 5.0))
    values = rng.standard_normal((n_knots + 1, len(D)))
    f0 = rng.standard_normal(g.n)
    want = _duhamel_per_segment(sd, D, f0, values, T)
    got = _duhamel_exact(sd, D, f0, values, T)
    assert m_norm(g, got - want) <= 1e-10 * m_norm(g, want)


def _stiff_tree():
    """A weighted tree with lambda_max = 5.55e4: m from 1e-3 to 10, b from
    0.1 to 50."""
    return build_graph(
        [(str(i), m) for i, m in enumerate((0.001, 0.01, 1.0, 10.0, 0.01))],
        [("1", "0", 50.0), ("2", "1", 1.0), ("3", "1", 50.0), ("4", "2", 0.1)],
    )


@pytest.mark.parametrize("case", ["stiff_tree", "short_horizon"])
def test_verify_grid_signal_is_exact_without_quadrature(case):
    """The per-segment closed form of a control constant on equal segments,
    with no quadrature, matches per-segment Simpson on a stiff tree, where
    lambda h reaches 1.4e4, and at T = 1e-6, where every positive lambda h
    is below 1e-6 and lambda = 0 takes the weight h.  f0 = 0, so the free
    decay cannot hide an error in the forced term."""
    if case == "stiff_tree":
        g, D, T, segments = _stiff_tree(), ("1", "3"), 2.0, 8
    else:
        g, D, T, segments = build_family("cycle", {"n": 6}).graph, ("0", "2"), 1e-6, 6
    sd = eigendecompose(g)
    values = np.random.default_rng(0).standard_normal((segments, len(D)))
    f0 = np.zeros(g.n)
    want = _duhamel_per_segment(sd, D, f0, values, T)
    got = _duhamel_exact(sd, D, f0, values, T)
    assert m_norm(g, got - want) <= 1e-10 * m_norm(g, want)


def test_segment_weights_match_high_precision():
    """The segment weight h phi_1(lam h) = (1 - e^{-lam h})/lam (h at
    lam = 0) is within 4 ulps of a 50-digit value at the float lam and h,
    for lam h from 0 through the subnormals to past the float range.  The
    bare -expm1(-lam h)/lam is not where lam h is subnormal: the product
    has lost digits there."""
    import mpmath

    xs = (0.0, 5e-324, 1e-310, 1e-8, 0.1, 1.0, 700.0, 1e300)
    cases = [(x / h, h) for x in xs for h in (1 / 9, 1e-10)] + [(1e300, 1e10)]  # lam h = inf
    got = [float(_phi1_weight(np.array([lam]), h)[0]) for lam, h in cases]
    with mpmath.workdps(50):
        want = [
            float(-mpmath.expm1(-mpmath.mpf(lam) * h) / lam if lam else mpmath.mpf(h))
            for lam, h in cases
        ]
    for (lam, h), x, y in zip(cases, got, want):
        assert abs(x - y) <= 4 * np.spacing(y), (lam, h, x, y)
    lam, h = 9e-310, 1 / 9  # lam h = 1e-310
    assert abs(-math.expm1(-lam * h) / lam - h) > 4 * np.spacing(h)


@pytest.mark.filterwarnings("error")
def test_segment_weights_stay_finite_where_lam_h_overflows():
    """Where x = lam h is past the float range, or so large that e^{-x} is
    0, the weight h phi_1(x) is its limit 1/lam, with no warning."""
    lam = np.array([1e300, 1e290])  # lam h = inf and 1e300
    assert _phi1_weight(lam, 1e10).tolist() == (1.0 / lam).tolist()


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
    f0s = np.array([[1.0, 0.3, -0.2, 0.9]])
    values = np.zeros((1, 1, 2))
    assert mode_invariance_trials(sd, ["0", "2"], phi, lam, f0s, values, 1.0)[0][0] <= 1e-12


def test_mode_invariance_random_controls(c8):
    sd = eigendecompose(c8)
    D = even_ids(c8)
    lam, basis = [f for f in hautus_obstruction(sd, D) if abs(f[0] - 2.0) < 1e-8][0]
    phi = basis[:, 0]
    rng = np.random.default_rng(9)
    for _ in range(10):
        f0s = rng.standard_normal((1, 8))
        values = rng.standard_normal((1, 9, 4))
        assert mode_invariance_trials(sd, D, phi, lam, f0s, values, 1.0)[0][0] <= 1e-9


@pytest.mark.filterwarnings("error")
def test_mode_invariance_check_at_a_far_horizon_takes_a_finite_norm(c8):
    """At T = 1e200 on cycle-8 with even D the forced part F of f(T) is
    about 1e199, whose squares overflow: the scale takes ||F|| on F over its
    largest entry, with no warning, and the drift stays rounding noise on
    it.  A norm in range keeps the plain formula's bits, and one whose
    squares underflow is taken on the scaled row too."""
    sd = eigendecompose(c8)
    D = even_ids(c8)
    lam, basis = [f for f in hautus_obstruction(sd, D) if abs(f[0] - 2.0) < 1e-8][0]
    rng = np.random.default_rng(0)
    T = 1e200
    f0s = rng.standard_normal((1, 8))
    values = rng.standard_normal((1, 9, 4))
    forced, shift = _grid_forced(sd, c8.subset_indices(D), values, T)
    forced = forced[0]
    top = np.abs(forced).max()
    assert shift.tolist() == [[0]]
    assert top > 1e190
    drift, scale = mode_invariance_trials(sd, D, basis[:, 0], lam, f0s, values, T)
    assert scale[0] == pytest.approx(top * np.linalg.norm(forced / top), rel=1e-12)
    assert math.isfinite(scale[0]) and 0.0 <= drift[0] <= 1e-9 * scale[0]
    for size in (1e-300, 1.0, 1e150, 1e200):
        x = size * rng.standard_normal((3, 40))
        got = vector_norms(x)
        if size in (1.0, 1e150):
            np.testing.assert_array_equal(got, np.sqrt(np.add.reduce(x * x, axis=-1)))
        want = [np.linalg.norm(row / size) * size for row in x]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def _hautus_per_group(sd, D):
    """One full SVD per eigenvalue group: the reference for the stacked SVDs
    of ``hautus_obstruction``."""
    d_idx = sd.graph.subset_indices(D)
    out = []
    for lam, idx in sd.eigenvalue_groups:
        _u, sigma, vt = np.linalg.svd(sd.eigenvectors[np.ix_(d_idx, idx)], full_matrices=True)
        sigma = np.concatenate([sigma, np.zeros(len(idx) - len(sigma))])
        null = sigma <= _HAUTUS_REL * sigma[0]
        if null.any():
            out.append((lam, sd.eigenvectors[:, idx] @ vt[null].T))
    return out


@pytest.mark.parametrize(
    "spec, D",
    [
        ({"family": "cycle", "n": 8}, "even"),
        ({"family": "cycle", "n": 32}, "even"),
        ({"family": "torus", "p": 6, "q": 6}, "even"),
        ({"family": "torus", "p": 4, "q": 6}, "even"),
        ({"family": "cyclic-cover", "base": {"family": "cycle", "n": 4}, "k": 16}, "even"),
        ({"family": "cycle", "n": 4}, ["0", "2"]),
        ({"family": "cycle", "n": 8}, ["0"]),  # groups of 2, wider than D
        ({"family": "torus", "p": 6, "q": 6}, ["0,0"]),  # groups of up to 4
    ],
)
def test_hautus_stacked_svds_match_one_full_svd_per_group(spec, D):
    """The stacked SVDs find the obstructions one full SVD per group finds:
    the same eigenvalues and dimensions, with m-orthonormal bases that vanish
    on D and span the same eigenspace intersections."""
    g = build_family(spec["family"], spec).graph
    D = parity_subset(g, D) if isinstance(D, str) else D
    sd = eigendecompose(g)
    got, want = hautus_obstruction(sd, D), _hautus_per_group(sd, D)
    assert got and [lam for lam, _ in got] == [lam for lam, _ in want]
    assert [b.shape for _, b in got] == [b.shape for _, b in want]
    d_idx = g.subset_indices(D)
    for (_, basis), (_, ref) in zip(got, want):
        np.testing.assert_allclose(
            basis.T @ (g.m[:, None] * basis), np.eye(basis.shape[1]), rtol=0.0, atol=1e-10
        )
        assert np.abs(basis[d_idx]).max() <= 1e-10
        np.testing.assert_allclose(
            basis @ (basis.T @ (g.m[:, None] * ref)), ref, rtol=0.0, atol=1e-10
        )
    if len(D) == 1:
        assert any(len(idx) > len(D) for _, idx in sd.eigenvalue_groups)


@pytest.mark.parametrize(
    "spec",
    [
        {"family": "cycle", "n": 8},
        {"family": "cycle", "n": 300},
        {"family": "torus", "p": 16, "q": 16},
        {"family": "cyclic-cover", "base": {"family": "cycle", "n": 4}, "k": 64},
    ],
)
def test_mode_invariance_trials_match_one_check_per_trial(spec):
    """One Duhamel pass over a batch of trials gives each trial the drift and
    scale that a batch of one gives it alone, on the draws of one
    generator taken as the ``non-null`` task takes them: f0, then the
    values on the 9 segments, trial by trial."""
    g = build_family(spec["family"], spec).graph
    D = parity_subset(g, "even")
    sd = eigendecompose(g)
    lam, basis = hautus_obstruction(sd, D)[0]
    phi = basis[:, 0]
    T = 1.0
    rng = np.random.default_rng(3)
    f0s, values = [], []
    for _ in range(12):
        f0 = rng.standard_normal(g.n)
        f0s.append(f0 / sd.norm(f0))
        values.append(rng.standard_normal((9, len(D))))
    drift, scale = mode_invariance_trials(sd, D, phi, lam, np.array(f0s), np.array(values), T)
    for j in range(12):
        one_drift, one_scale = mode_invariance_trials(
            sd, D, phi, lam, f0s[j][None], values[j][None], T
        )
        assert scale[j] == pytest.approx(one_scale[0], rel=1e-12, abs=0.0)
        assert abs(drift[j] - one_drift[0]) <= 1e-14 * one_scale[0]
        assert drift[j] <= 1e-12 * scale[j]


def test_mode_invariance_orthogonal_component(c4):
    sd = eigendecompose(c4)
    lam, basis = hautus_obstruction(sd, ["0", "2"])[0]
    phi = basis[:, 0]
    f0 = np.ones(4)  # orthogonal to phi
    u = ControlSignal(("0", "2"), 1.0, np.zeros(4))
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


def _vertex_trajectory(sd, D, T, f0, eta, samples):
    """One period's controlled states from ``_controlled_trajectory``,
    synthesized at the vertices, one row per sample."""
    return _controlled_trajectory(sd, D, T, f0[:, None], eta[:, None], samples)[:, :, 0] @ (
        sd.eigenvectors.T
    )


def _stabilize_period_by_period(sd, D, T, alpha, num_periods, f0):
    """Each period's costs and excursion peak over its start, from one
    ``synth_control`` with costs and one single-period trajectory each."""
    costs, ratios, f = [], [], f0
    for _ in range(num_periods):
        sig, res = synth_control(sd, D, T, f, alpha)
        traj = _vertex_trajectory(sd, D, T, f, sig.eta, 65)
        ratios.append(max(m_norm(sd.graph, row) for row in traj) / m_norm(sd.graph, f))
        costs.append([res.costs[r] for r in (1.0, 2.0, math.inf)])
        f = res.final_state
    return np.array(costs), max(ratios)


def test_stabilize_costs_and_envelope_match_per_period_synthesis(monkeypatch):
    """The batched periods report what one synthesis with costs per period
    reports: each period's L_1, L_2 and L_inf cost, their totals and M."""
    g = random_connected_graph(np.random.default_rng(5), 12)
    sd = eigendecompose(g)
    D, T, alpha, N = g.vertex_ids[:4], 1.0, 0.5, 6
    f0 = np.random.default_rng(1).standard_normal(g.n)
    batched = []
    real = RestrictedEvolution.lr_norms

    def kept(self, a, b, r):
        batched.append(real(self, a, b, r))
        return batched[-1]

    with monkeypatch.context() as mp:
        mp.setattr(RestrictedEvolution, "lr_norms", kept)
        rep = stabilize(sd, D, T, alpha, N, f0)
    want, ratio = _stabilize_period_by_period(sd, D, T, alpha, N, f0)
    np.testing.assert_allclose(batched[0].T, want, rtol=1e-13, atol=0.0)
    totals = [np.sum(want[:, 0]), np.sqrt(np.sum(want[:, 1] ** 2)), np.max(want[:, 2])]
    np.testing.assert_allclose(list(rep.total_costs.values()), totals, rtol=1e-13, atol=0.0)
    assert list(rep.total_costs) == [1.0, 2.0, math.inf]
    assert rep.M == pytest.approx(ratio / alpha, rel=1e-13, abs=0.0)


def test_stabilize_builds_two_kernels_and_certifies_once(monkeypatch):
    """Ten periods take one Gramian kernel for the synthesis, one for every
    trajectory step and one certified call for every period's costs."""
    g = random_connected_graph(np.random.default_rng(5), 12)
    sd = eigendecompose(g)
    kernels, certified = [], []
    real_kernel, real_norms = graphheat.spectral._gramian_kernel, RestrictedEvolution.lr_norms

    def kernel(*args):
        kernels.append(args)
        return real_kernel(*args)

    def lr_norms(self, a, b, r):
        certified.append(self.C.shape[1])
        return real_norms(self, a, b, r)

    monkeypatch.setattr(graphheat.control, "_gramian_kernel", kernel)
    monkeypatch.setattr(graphheat.spectral, "_gramian_kernel", kernel)
    monkeypatch.setattr(RestrictedEvolution, "lr_norms", lr_norms)
    stabilize(sd, g.vertex_ids[:4], 1.0, 0.5, 10, np.ones(g.n))
    assert len(kernels) == 2
    assert certified == [10]


def test_each_control_profile_is_evaluated_once_for_all_its_exponents(monkeypatch):
    """``norms`` receives one column per control, however many exponents its
    costs take: one for a synthesis and one per period for ``stabilize``,
    whose L_1 and L_2 costs raise one profile to both powers."""
    g = random_connected_graph(np.random.default_rng(5), 12)
    sd = eigendecompose(g)
    D = g.vertex_ids[:4]
    widths = []
    real = RestrictedEvolution.norms

    def norms(self, ts):
        widths.append(self.C.shape[1])
        return real(self, ts)

    monkeypatch.setattr(RestrictedEvolution, "norms", norms)
    _, res = synth_control(sd, D, 1.0, np.ones(g.n), 0.5)
    assert list(res.costs) == [1.0, 2.0, math.inf]
    assert widths and set(widths) == {1}
    widths.clear()
    stabilize(sd, D, 1.0, 0.5, 10, np.ones(g.n))
    assert widths and set(widths) == {10}


@pytest.mark.parametrize("budget", [1, 700])
def test_controlled_trajectory_by_blocks_of_steps_keeps_its_bits(monkeypatch, budget):
    """The drives are formed a block of steps at a time, within the
    evaluation budget (2 or 8 steps of 4 periods on 10 vertices here); each
    column is the same product with the kernel, so the trajectory keeps the
    bits of one block."""
    g = random_connected_graph(np.random.default_rng(3), 10)
    sd = eigendecompose(g)
    rng = np.random.default_rng(4)
    f0, eta = rng.standard_normal((g.n, 4)), rng.standard_normal((g.n, 4))
    monkeypatch.setattr(graphheat.control, "_BLOCK_ELEMENTS", 2**40)
    whole = _controlled_trajectory(sd, g.vertex_ids[:3], 1.0, f0, eta, 65)
    monkeypatch.setattr(graphheat.control, "_BLOCK_ELEMENTS", budget)
    blocked = _controlled_trajectory(sd, g.vertex_ids[:3], 1.0, f0, eta, 65)
    np.testing.assert_array_equal(blocked, whole)


def test_synth_control_without_cost_exponents_has_no_costs(k2):
    _, res = synth_control(eigendecompose(k2), ["0"], 1.0, np.array([1.0, 0.0]), 0.5,
                           cost_exponents=())
    assert res.costs == {}


def test_stabilize_rejects_complex_state(k2):
    sd = eigendecompose(k2)
    with pytest.raises(ValidationError, match="real"):
        stabilize(sd, ["0"], 1.0, 0.5, 2, np.array([1.0, 1.0j]))


@pytest.mark.filterwarnings("error")
def test_stabilize_envelope_beyond_the_float_range_is_finite():
    """On cycle-4 with b = 1e8 and m = 1e300 at T = 1e300 the squared m-norm
    of the intra-period excursion overflows: its peak, about 1.6e198 in the
    second period, which starts at norm 0.06, is taken on each state over
    its largest entry, so M is finite, 5.4e199."""
    g = build_family("cycle", {"n": 4, "b": 1e8, "m": 1e300}).graph
    sd = eigendecompose(g)
    f0 = np.random.default_rng(1).standard_normal(4)  # the CLI's {"random": 1}
    rep = stabilize(sd, even_ids(g), 1e300, 0.5, 2, f0 / sd.norm(f0))
    assert rep.period_norms[1] == pytest.approx(0.0603, rel=1e-3)
    assert 1e199 < rep.M < 1e200


@pytest.mark.filterwarnings("error")
def test_stabilize_of_a_large_state_on_a_large_measure_scales_its_unit_state():
    """On cycle-4 with b = 1e8 and m = 1e300 at T = 1e300, N = 2, the state
    [1, 0.5, -0.3, 0.2] has m-norm 1.17e150, so its profile g is about
    1e150 over a window 1e300 long, where Simpson's panel sums were
    inf - inf.  Its norms and costs are 2^e times those of the same state
    over 2^e, ||f0|| in [2^(e-1), 2^e), and M is the same, with no warning;
    the L_1 total, about 2.7e348, reads inf."""
    g = build_family("cycle", {"n": 4, "b": 1e8, "m": 1e300}).graph
    sd = eigendecompose(g)
    f0 = np.array([1.0, 0.5, -0.3, 0.2])
    e = math.frexp(sd.norm(f0))[1]
    got = stabilize(sd, even_ids(g), 1e300, 0.5, 2, f0)
    unit = stabilize(sd, even_ids(g), 1e300, 0.5, 2, np.ldexp(f0, -e))
    assert got.M == pytest.approx(unit.M, rel=1e-12) and got.omega == unit.omega
    assert got.period_norms == pytest.approx(np.ldexp(unit.period_norms, e).tolist(), rel=1e-12)
    with np.errstate(over="ignore"):
        want = {r: float(np.ldexp(v, e)) for r, v in unit.total_costs.items()}
    assert got.total_costs == pytest.approx(want, rel=1e-12)
    assert got.total_costs[1.0] == math.inf
    assert all(math.isfinite(got.total_costs[r]) for r in (2.0, math.inf))


@pytest.mark.filterwarnings("error")
@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(-900, 900), st.booleans())
@example(0, 900, False)
@example(0, -900, False)
@example(1, 900, True)
@example(1, -900, True)
def test_control_and_stabilize_answer_the_same_at_every_scale_of_f0(seed, k, decimal):
    """On a small random weighted graph, f0 times c = 2^k, k in [-900, 900],
    or c = 10^(k // 4): control (synthesis and Duhamel re-simulation) and
    stabilize reach the same verdicts, nu, achieved_alpha and M agree within
    1e-12, and costs and norms are c times those at f0 (the energy c^2
    times, where that is in range), with no warning."""
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, int(rng.integers(2, 7)))
    sd = eigendecompose(g)
    size = int(rng.integers(1, g.n + 1))
    D = [g.vertex_ids[i] for i in sorted(rng.choice(g.n, size=size, replace=False))]
    f0 = rng.standard_normal(g.n)
    c = 10.0 ** (k // 4) if decimal else math.ldexp(1.0, k)
    alpha = 0.5 * sd.norm(semigroup_apply(sd, 1.0, f0)) / sd.norm(f0)

    def run(f):
        try:
            signal, res = synth_control(sd, D, 1.0, f, alpha)
            sim = verify_control(sd, D, f, signal, 1.0)
            rep = stabilize(sd, D, 1.0, 0.5, 3, f)
        except TargetUnreachable as exc:
            return str(exc).split(" ")[:2]  # the refusal's kind, not its numbers
        return res, sim, rep

    base, scaled = run(f0), run(c * f0)
    if isinstance(base, list):
        assert scaled == base
        return
    (res, sim, rep), (res_c, sim_c, rep_c) = base, scaled
    assert res_c.nu == pytest.approx(res.nu, rel=1e-12)
    assert res_c.achieved_alpha == pytest.approx(res.achieved_alpha, rel=1e-12)
    assert sim_c.achieved_alpha == pytest.approx(sim.achieved_alpha, rel=1e-12)
    assert res_c.costs == pytest.approx({r: c * v for r, v in res.costs.items()}, rel=1e-12)
    energy = c * c * res.energy
    if 1e-300 < energy < 1e300:
        assert res_c.energy == pytest.approx(energy, rel=1e-12)
    np.testing.assert_allclose(
        res_c.final_state, c * res.final_state, rtol=1e-12, atol=1e-12 * c * sd.norm(f0)
    )
    assert rep_c.M == pytest.approx(rep.M, rel=1e-12) and rep_c.omega == rep.omega
    assert rep_c.period_norms == pytest.approx([c * v for v in rep.period_norms], rel=1e-12)
    assert rep_c.total_costs == pytest.approx(
        {r: c * v for r, v in rep.total_costs.items()}, rel=1e-12
    )


@pytest.mark.parametrize(
    "spec",
    [
        {"family": "cycle", "n": 300},
        {"family": "torus", "p": 16, "q": 16},
        {"family": "cyclic-cover", "base": {"family": "cycle", "n": 4}, "k": 64},
    ],
)
def test_stabilize_envelope_in_range_keeps_the_plain_norms_bits(spec, monkeypatch):
    """On the graphs of the benchmark's stabilize scenarios (T = 1,
    alpha = 0.5, 10 periods), every excursion norm is in range, and M is
    the one that the plain sqrt(sum x^2 m) gives, bit for bit."""
    g = build_family(spec["family"], spec).graph
    sd = eigendecompose(g)
    D = parity_subset(g, "even")
    f0 = np.random.default_rng(4).standard_normal(g.n)
    got = stabilize(sd, D, 1.0, 0.5, 10, f0)
    monkeypatch.setattr(
        graphheat.control,
        "vector_norms",
        lambda x, axis=-1, w=1.0: np.sqrt(np.add.reduce(x * x * w, axis=axis)),
    )
    want = stabilize(sd, D, 1.0, 0.5, 10, f0)
    assert got.M == want.M and got.period_norms == want.period_norms


def test_controlled_trajectory_endpoints(k2):
    sd = eigendecompose(k2)
    f0 = np.array([1.0, 0.0])
    sig, res = synth_control(sd, ["0"], 1.0, f0, 0.1)
    traj = _vertex_trajectory(sd, ["0"], 1.0, f0, sig.eta, 2)
    np.testing.assert_allclose(traj[0], f0, atol=1e-12)
    np.testing.assert_allclose(traj[1], res.final_state, atol=1e-10)


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
    traj = _vertex_trajectory(sd, D, T, f0, sig.eta, samples)
    want = _trajectory_per_time(sd, D, f0, sig, np.linspace(0.0, T, samples))
    scale = m_norm(g, f0) + T * m_norm(g, sig.eta)
    for got_row, want_row in zip(traj, want):
        assert m_norm(g, got_row - want_row) <= 1e-12 * scale
    final = verify_control(sd, D, f0, sig, T).final_state
    assert m_norm(g, traj[-1] - final) <= 1e-10 * scale
