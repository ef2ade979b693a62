import math

import numpy as np
import pytest
import scipy.integrate

from graphheat.control import hautus_obstruction
from graphheat.errors import EmptySubset, FullSubset, NotRelativelyDense
from graphheat.graph import build_graph
from graphheat.observability import (
    exact_obs_constant,
    up_paper_bound,
    up_sharp_constant,
    up_sweep,
    verify_weak_obs,
    weak_obs_constants,
)
from graphheat.spectral import EnergyInterval, eigendecompose

from conftest import cycle, random_connected_graph


# ---------------------------------------------------------------------------
# sharp uncertainty constant


def test_sharp_constants_c4(c4):
    sd = eigendecompose(c4)
    assert up_sharp_constant(sd, ["0", "2"], EnergyInterval(hi=0.1)) == pytest.approx(
        2.0, abs=1e-10
    )
    assert up_sharp_constant(
        sd, list(c4.vertex_ids), EnergyInterval(hi=10.0)
    ) == pytest.approx(1.0, abs=1e-10)
    assert math.isinf(
        up_sharp_constant(sd, ["0", "2"], EnergyInterval(hi=2.0, lo=2.0))
    )


def test_sharp_empty_projection(c4):
    sd = eigendecompose(c4)
    assert up_sharp_constant(sd, ["0"], EnergyInterval(hi=1.5, lo=1.2)) == 0.0


def test_sharp_monotone_in_D_exhaustive():
    # enlarging D cannot increase the sharp constant
    rng = np.random.default_rng(11)
    for _ in range(6):
        g = random_connected_graph(rng, int(rng.integers(3, 9)))
        sd = eigendecompose(g)
        cut = float(rng.uniform(0.0, sd.eigenvalues[-1]))
        interval = EnergyInterval(hi=cut)
        size = int(rng.integers(1, g.n))
        base = list(rng.choice(g.n, size=size, replace=False))
        extra = [i for i in range(g.n) if i not in base]
        small = up_sharp_constant(sd, [g.vertex_ids[i] for i in base], interval)
        for add in extra:
            big = up_sharp_constant(
                sd, [g.vertex_ids[i] for i in base + [add]], interval
            )
            assert big <= small * (1 + 1e-9) or math.isinf(small)


# ---------------------------------------------------------------------------
# a-priori bounds


def test_paper_bound_c4_values(c4):
    sd = eigendecompose(c4)
    rep = up_paper_bound(c4, sd, ["0", "2"], EnergyInterval(hi=0.1))
    assert rep.threshold == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert rep.applicable
    assert rep.paper_bound == pytest.approx(10000.0 / (7.0 / 30.0) ** 2, rel=1e-12)
    assert rep.sharp_constant == pytest.approx(2.0, abs=1e-10)
    assert rep.sharp_constant <= rep.paper_bound


def test_paper_bound_not_applicable(c4):
    sd = eigendecompose(c4)
    rep = up_paper_bound(c4, sd, ["0", "2"], EnergyInterval(hi=0.5))
    assert not rep.applicable
    assert rep.paper_bound is None


def test_both_bounds_low_energy(c4):
    sd = eigendecompose(c4)
    rep = up_paper_bound(c4, sd, ["0", "2"], EnergyInterval(hi=0.002))
    assert rep.applicable and rep.remark_applicable
    assert rep.remark_bound == pytest.approx(42.0 * 3.0, rel=1e-12)
    assert rep.sharp_constant <= rep.paper_bound
    assert rep.sharp_constant <= rep.remark_bound


def test_paper_bound_validations(c4):
    sd = eigendecompose(c4)
    with pytest.raises(EmptySubset):
        up_paper_bound(c4, sd, [], EnergyInterval(hi=0.1))
    with pytest.raises(FullSubset):
        up_paper_bound(c4, sd, list(c4.vertex_ids), EnergyInterval(hi=0.1))


def test_sweep_grid_structure(c4):
    sd = eigendecompose(c4)
    rows = up_sweep(c4, sd, ["0", "2"])
    # distinct eigenvalues 0, 2, 4 -> grid 0, 1, 2, 3, 4
    assert [r.interval.sup for r in rows] == pytest.approx([0.0, 1.0, 2.0, 3.0, 4.0])
    for r in rows:
        if r.applicable and math.isfinite(r.sharp_constant):
            assert r.sharp_constant <= r.paper_bound * (1 + 1e-9)


# ---------------------------------------------------------------------------
# weak observability constants


def test_constants_c4(c4):
    sd = eigendecompose(c4)
    c = weak_obs_constants(c4, sd, ["0", "2"], T=6.0, delta=0.5, r=1.0)
    assert c.lam == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert c.kappa == pytest.approx(600.0, abs=1e-9)
    assert c.K == pytest.approx(200.0, abs=1e-9)
    assert c.alpha == pytest.approx(601.0 * math.exp(-0.5), rel=1e-12)


def test_constants_delta_zero(c4):
    sd = eigendecompose(c4)
    c = weak_obs_constants(c4, sd, ["0", "2"], T=2.0, delta=0.0, r=2.0)
    assert c.alpha == pytest.approx(c.kappa + 1.0, rel=1e-12)


def test_constants_full_set_branch(c4):
    sd = eigendecompose(c4)
    c = weak_obs_constants(c4, sd, list(c4.vertex_ids), T=2.0, delta=0.5, r=2.0)
    assert c.alpha == 0.0
    assert c.K == pytest.approx(1.0, rel=1e-12)
    assert c.kappa == 0.0
    ver = verify_weak_obs(sd, list(c4.vertex_ids), c, samples=50, seed=0)
    assert ver.min_slack >= -1e-9 * (c.K + 1.0)


def test_constants_not_relatively_dense():
    g = build_graph(
        [("0", 1), ("1", 1), ("2", 1)], [("0", "1", 1.0)]
    )
    sd = eigendecompose(g)
    with pytest.raises(NotRelativelyDense):
        weak_obs_constants(g, sd, ["0"], T=1.0, delta=0.0, r=2.0)


def test_covering_radius_beyond_float_range():
    # the edge of weight 5e-324 has length 2**1074, which no float holds
    g = build_graph(
        [("0", 1), ("1", 1), ("2", 1)], [("0", "1", 1.0), ("1", "2", 5e-324)]
    )
    sd = eigendecompose(g)
    with pytest.raises(NotRelativelyDense, match="beyond the float range"):
        weak_obs_constants(g, sd, ["0"], T=1.0, delta=0.0, r=2.0)
    rep = up_paper_bound(g, sd, ["0"], EnergyInterval(hi=0.5))
    assert rep.inradius == math.inf and not rep.applicable


def test_constants_validations(c4):
    sd = eigendecompose(c4)
    with pytest.raises(EmptySubset):
        weak_obs_constants(c4, sd, [], 1.0, 0.0, 2.0)


# ---------------------------------------------------------------------------
# weak observability verification


@pytest.mark.parametrize("r", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("delta", [0.0, 0.5])
def test_verify_weak_obs_c4(c4, r, delta):
    sd = eigendecompose(c4)
    c = weak_obs_constants(c4, sd, ["0", "2"], T=6.0, delta=delta, r=r)
    ver = verify_weak_obs(sd, ["0", "2"], c, samples=1000, seed=42)
    assert ver.min_slack >= -1e-9 * (c.K + c.alpha + 1.0)
    assert ver.n_inputs == 4 + 4 + 1000


def test_verify_alpha_ge_one_regime(k2):
    # tiny T puts alpha above 1: the estimate holds by contraction alone
    sd = eigendecompose(k2)
    c = weak_obs_constants(k2, sd, ["0"], T=0.01, delta=0.5, r=2.0)
    assert c.alpha >= 1.0
    ver = verify_weak_obs(sd, ["0"], c, samples=100, seed=0)
    assert ver.min_slack >= c.alpha - 1.0 - 1e-9


# ---------------------------------------------------------------------------
# exact observability constant


def test_exact_obs_single_vertex_scalar():
    g = build_graph([("0", 2.0)], [])
    sd = eigendecompose(g)
    for T in [0.5, 1.0, 4.0]:
        assert exact_obs_constant(sd, ["0"], T) == pytest.approx(
            math.sqrt(1.0 / T), rel=1e-12
        )


def test_exact_obs_infinite_on_even_cycles(c4, c8):
    for g in (c4, c8):
        sd = eigendecompose(g)
        D = [v for v in g.vertex_ids if int(v) % 2 == 0]
        assert math.isinf(exact_obs_constant(sd, D, 1.0))


def test_exact_obs_k2_generalized_eig_oracle(k2):
    # independent oracle: assemble the 2x2 Gramian by scipy quadrature on the
    # explicit kernel, then solve the generalized eigenproblem directly
    sd = eigendecompose(k2)
    T = 1.0
    got = exact_obs_constant(sd, ["0"], T)

    V, lam = sd.eigenvectors, sd.eigenvalues

    def gram_entry(i, j):
        def f(s):
            vi = math.exp(-lam[i] * s) * V[0, i]
            vj = math.exp(-lam[j] * s) * V[0, j]
            return vi * vj  # m(0) = 1

        return scipy.integrate.quad(f, 0.0, T, epsabs=1e-14, epsrel=1e-14)[0]

    G = np.array([[gram_entry(i, j) for j in range(2)] for i in range(2)])
    A = np.diag(np.exp(-2.0 * lam * T))
    w = np.linalg.eigvals(np.linalg.solve(G, A))
    assert got == pytest.approx(math.sqrt(float(np.max(w.real))), rel=1e-8)
    assert got > 0.0


def test_exact_obs_full_set_monotone_in_T(c4):
    sd = eigendecompose(c4)
    vals = [exact_obs_constant(sd, list(c4.vertex_ids), T) for T in [0.5, 1.0, 2.0, 5.0]]
    assert all(math.isfinite(v) for v in vals)
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_exact_obs_iff_hautus_cross_module():
    # the iff is exact in exact arithmetic; numerically the Gramian rank
    # decision is ambiguous below ~1e-10 relative, so instances without an
    # exact obstruction but with a near-degenerate Gramian are skipped
    # (deep Kalman chains from a single observed vertex land there)
    from graphheat.control import gramian

    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(2, 11)))
        sd = eigendecompose(g)
        size = int(rng.integers(1, g.n + 1))
        D = [g.vertex_ids[i] for i in rng.choice(g.n, size=size, replace=False)]
        obstructed = bool(hautus_obstruction(sd, D))
        mu = gramian(sd, D, 1.0).eigenvalues
        if not obstructed and mu[0] < 1e-10 * mu[-1]:
            continue
        assert math.isinf(exact_obs_constant(sd, D, 1.0)) == obstructed
        checked += 1
    assert checked >= 10
    # the even cycles give guaranteed positives
    for n in (4, 8):
        g = cycle(n)
        sd = eigendecompose(g)
        D = [v for v in g.vertex_ids if int(v) % 2 == 0]
        assert math.isinf(exact_obs_constant(sd, D, 1.0))
        assert hautus_obstruction(sd, D)


# ---------------------------------------------------------------------------
# randomized UP corpus (small-scale smoke; the full corpus runs in acceptance)


def test_up_bounds_random_graphs():
    rng = np.random.default_rng(23)
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(4, 12)))
        sd = eigendecompose(g)
        size = int(rng.integers(1, g.n))
        D = [g.vertex_ids[i] for i in rng.choice(g.n, size=size, replace=False)]
        for rep in up_sweep(g, sd, D):
            if math.isfinite(rep.sharp_constant):
                assert rep.sharp_constant >= 1.0 - 1e-9  # P_I 1_D P_I <= P_I
            if rep.applicable and math.isfinite(rep.sharp_constant):
                assert rep.sharp_constant <= rep.paper_bound * (1 + 1e-9)
            if rep.remark_applicable and math.isfinite(rep.sharp_constant):
                assert rep.sharp_constant <= rep.remark_bound * (1 + 1e-9)


def test_constants_identities_random_graph():
    rng = np.random.default_rng(31)
    g = random_connected_graph(rng, 12)
    sd = eigendecompose(g)
    D = [g.vertex_ids[i] for i in (0, 3, 7)]
    c = weak_obs_constants(g, sd, D, T=1.7, delta=0.3, r=3.0)
    assert 2.0 * c.lam * c.inradius * c.ball_volume == pytest.approx(1.0, rel=1e-12)
    from graphheat.spectral import op_norm_H_plus_1

    assert c.kappa == pytest.approx(
        8.0 * op_norm_H_plus_1(sd) ** 2 * c.inradius * c.ball_volume, rel=1e-12
    )
    assert c.K == pytest.approx(c.kappa / ((1 - 0.3) * 1.7) ** (1 / 3.0), rel=1e-12)
    assert c.alpha == pytest.approx(
        (c.kappa + 1.0) * math.exp(-0.3 * c.lam * 1.7), rel=1e-12
    )
