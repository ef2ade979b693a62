"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Criteria 1-3 share the session-scoped random corpus from conftest (100
connected graphs, n <= 40, b and m in [0.5, 2], D grown to length-metric
covering radius <= 2).
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from graphheat.control import (
    ControlSignal,
    gramian,
    hautus_obstruction,
    mode_invariance_check,
    stabilize,
    synth_control,
    verify_control,
)
from graphheat.covering import build_cyclic_cover, lemma_sets, lift_function
from graphheat.errors import TargetUnreachable
from graphheat.graph import folner_ratio
from graphheat.observability import (
    exact_obs_constant,
    up_paper_bound,
    up_sweep,
    verify_weak_obs_multi,
    weak_obs_constants,
)
from graphheat.spectral import EnergyInterval, apply_laplacian, eigendecompose
from graphheat.stochastic import erlang_tail, fk_estimate, sample_ctmc_paths

from conftest import cycle, m_norm

DELTAS = (0.0, 0.5)
RS = (1.0, 2.0, math.inf)
TS = (0.5, 1.0, 5.0)


def report(criterion, passed, detail=""):
    marker = "PASS" if passed else "FAIL"
    print(f"[{marker}] acceptance criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def corpus_constants(corpus):
    table = {}
    for idx, item in enumerate(corpus):
        for delta in DELTAS:
            for r in RS:
                for T in TS:
                    table[(idx, delta, r, T)] = weak_obs_constants(
                        item.graph, item.sd, item.D, T, delta, r
                    )
    return table


def test_criterion_1_weak_observability(corpus, corpus_constants):
    t0 = time.time()
    worst = math.inf
    for idx, item in enumerate(corpus):
        combos = [
            corpus_constants[(idx, delta, r, T)]
            for delta in DELTAS
            for r in RS
            for T in TS
        ]
        reports = verify_weak_obs_multi(item.sd, item.D, combos, samples=1000, seed=idx)
        for ver in reports:
            c = ver.constants
            tol = 1e-9 * (c.K + c.alpha + 1.0)
            worst = min(worst, ver.min_slack / (c.K + c.alpha + 1.0))
            assert ver.min_slack >= -tol, (
                f"instance {idx} (n={item.graph.n}, |D|={len(item.D)}), "
                f"delta={c.delta}, r={c.r}, T={c.T}: slack {ver.min_slack:.3e}"
            )
    elapsed = time.time() - t0
    report(
        1,
        elapsed < 120.0,
        f"min slack/(K+alpha+1) = {worst:.3e} over 100 graphs x 18 combos, "
        f"{elapsed:.1f}s (< 120s)",
    )


def test_criterion_2_uncertainty_principle(corpus, c4):
    checked = 0
    for item in corpus:
        for rep in up_sweep(item.graph, item.sd, item.D):
            if rep.applicable and math.isfinite(rep.sharp_constant):
                assert rep.sharp_constant <= rep.paper_bound * (1 + 1e-9), (
                    f"sharp {rep.sharp_constant} > bound {rep.paper_bound} "
                    f"at sup I = {rep.interval.sup}"
                )
                checked += 1
            if rep.remark_applicable and math.isfinite(rep.sharp_constant):
                assert rep.sharp_constant <= rep.remark_bound * (1 + 1e-9)

    sd4 = eigendecompose(c4)
    pinned = up_paper_bound(c4, sd4, ["0", "2"], EnergyInterval(hi=0.1))
    sharp_ok = abs(pinned.sharp_constant - 2.0) <= 1e-10
    bound_ok = abs(pinned.paper_bound - 10000.0 / (7.0 / 30.0) ** 2) <= 1e-6 * (
        10000.0 / (7.0 / 30.0) ** 2
    )
    report(
        2,
        sharp_ok and bound_ok and checked > 0,
        f"{checked} applicable grid points all below the a-priori bound; "
        f"C4 sharp = {pinned.sharp_constant:.12g}, bound = {pinned.paper_bound:.10g}",
    )


def test_criterion_3_duality_controllability(corpus, corpus_constants):
    t0 = time.time()
    rng = np.random.default_rng(1234)
    worst_cost_ratio = 0.0
    worst_resim = 0.0
    min_alpha = math.inf
    active = 0
    gram_cache = {}
    for idx, item in enumerate(corpus):
        sd, D = item.sd, item.D
        norm = lambda f: m_norm(item.graph, f)
        for delta in DELTAS:
            for r_obs in RS:
                for T in TS:
                    const = corpus_constants[(idx, delta, r_obs, T)]
                    min_alpha = min(min_alpha, const.alpha)
                    r_ctl = (
                        1.0
                        if math.isinf(r_obs)
                        else (math.inf if r_obs == 1.0 else 2.0)
                    )
                    key = (idx, T)
                    if key not in gram_cache:
                        gram_cache[key] = gramian(sd, D, T)
                    f0 = rng.standard_normal(sd.n)
                    f0 /= norm(f0)
                    signal, res = synth_control(
                        sd,
                        D,
                        T,
                        f0,
                        const.alpha,
                        gram=gram_cache[key],
                        cost_exponents=(r_ctl,),
                    )
                    active += res.nu > 0
                    assert res.achieved_alpha <= const.alpha * (1 + 1e-9)
                    ratio = res.costs[r_ctl] / const.K  # ||f0|| = 1
                    worst_cost_ratio = max(worst_cost_ratio, ratio)
                    assert ratio <= 1 + 1e-6, (
                        f"instance {idx}, delta={delta}, r_obs={r_obs}, T={T}: "
                        f"cost {res.costs[r_ctl]:.6g} > K {const.K:.6g}"
                    )
                    sim = verify_control(sd, D, f0, signal, T)
                    ref = max(norm(res.final_state), 1e-30)
                    resim = norm(res.final_state - sim.final_state) / ref
                    worst_resim = max(worst_resim, resim)
                    assert resim <= 1e-8, f"instance {idx}: resimulation {resim:.3e}"
    report(
        3,
        True,
        f"1800 syntheses: worst cost/K = {worst_cost_ratio:.3e}, worst Duhamel "
        f"re-simulation error = {worst_resim:.3e}; {active} needed nonzero "
        f"control (corpus min alpha = {min_alpha:.3f}: contraction already meets "
        f"targets above 1), {time.time()-t0:.1f}s",
    )


def test_criterion_3_supplement_forced_synthesis(corpus):
    """Beyond the criterion: force alpha below the free-decay ratio so the
    Gramian synthesis, bisection, cost accounting, and independent Duhamel
    re-simulation are exercised for real on corpus instances."""
    rng = np.random.default_rng(4321)
    worst_resim = 0.0
    worst_overshoot = 0.0
    for item in corpus[::4]:
        sd, D = item.sd, item.D
        norm = lambda f: m_norm(item.graph, f)
        T = 1.0
        f0 = rng.standard_normal(sd.n)
        f0 /= norm(f0)
        free_ratio = norm(
            sd.synthesize(np.exp(-sd.eigenvalues * T) * sd.coefficients(f0))
        )
        target = 0.5 * free_ratio
        signal, res = synth_control(sd, D, T, f0, target)
        assert res.nu > 0
        worst_overshoot = max(worst_overshoot, res.achieved_alpha / target - 1.0)
        assert res.achieved_alpha <= target * (1 + 1e-9)
        sim = verify_control(sd, D, f0, signal, T)
        resim = norm(res.final_state - sim.final_state) / max(
            norm(res.final_state), 1e-30
        )
        worst_resim = max(worst_resim, resim)
        assert resim <= 1e-8
        assert all(math.isfinite(c) and c > 0 for c in res.costs.values())
    report(
        "3s",
        True,
        f"25 forced syntheses at half the free-decay ratio: worst re-simulation "
        f"error {worst_resim:.3e}, worst target overshoot {worst_overshoot:.1e}",
    )


def test_criterion_4_non_null_controllability(c4):
    rng = np.random.default_rng(77)
    T = 1.0
    for k in (1, 2, 5):
        cover = build_cyclic_cover(c4, k)
        g = cover.cover
        sd = eigendecompose(g)
        D = [v for i, v in enumerate(g.vertex_ids) if i % 2 == 0]
        phi_lift = lift_function(cover, np.array([0.0, 1.0, 0.0, -1.0]))
        phi_lift = phi_lift / m_norm(g, phi_lift)

        groups = [f for f in hautus_obstruction(sd, D) if abs(f[0] - 2.0) < 1e-8]
        assert groups, f"k={k}: no obstruction at eigenvalue 2"
        lam, basis = groups[0]
        resid_eig = max(
            m_norm(g, apply_laplacian(g, basis[:, j]) - lam * basis[:, j])
            for j in range(basis.shape[1])
        )
        assert resid_eig <= 1e-10, f"k={k}: eigen-residual {resid_eig:.3e}"
        coefs = basis.T @ (g.m * phi_lift)
        lift_resid = m_norm(g, basis @ coefs - phi_lift)
        assert lift_resid <= 1e-10, f"k={k}: lift not in returned span {lift_resid:.3e}"

        assert math.isinf(exact_obs_constant(sd, D, T)), f"k={k}: constant finite"

        phi = basis[:, 0]
        knots = np.linspace(0.0, T, 9)
        worst_resid = 0.0
        for _ in range(50):
            f0 = rng.standard_normal(g.n)
            f0 /= m_norm(g, f0)
            u = ControlSignal(tuple(D), T, knots, rng.standard_normal((9, len(D))))
            worst_resid = max(
                worst_resid, mode_invariance_check(sd, D, phi, lam, f0, u, T)
            )
        assert worst_resid <= 1e-9, f"k={k}: mode invariance {worst_resid:.3e}"

        f0 = rng.standard_normal(g.n)
        f0 /= m_norm(g, f0)
        floor = math.exp(-2.0 * T) * abs(sd.inner(f0, phi))
        with pytest.raises(TargetUnreachable):
            synth_control(sd, D, T, f0, 0.5 * floor)
    report(4, True, "C4, C8, C20 with even D: obstruction, +inf constant, "
                    "mode invariance <= 1e-9, below-floor targets refused")


def test_criterion_5_necessity_bounds(p101):
    from graphheat.stochastic import necessity_bounds_check

    sd = eigendecompose(p101)
    worst_lower = math.inf
    worst_upper = math.inf
    for x in ("5", "20", "50"):
        rep = necessity_bounds_check(sd, p101, ["0"], x, [0.1, 1.0, 5.0, 10.0])
        assert rep.d_max == 2.0 and rep.n_comb == int(x)
        for row in rep.rows:
            worst_lower = min(worst_lower, row.lower_margin)
            worst_upper = min(worst_upper, row.upper_margin)
        assert rep.passed
    tail_err = abs(erlang_tail(2.0, 1.0, 3) - (1.0 - 5.0 * math.exp(-2.0)))
    assert tail_err <= 1e-14
    report(
        5,
        worst_lower >= -1e-12 and worst_upper >= -1e-12,
        f"P101 margins: lower >= {worst_lower:.3e}, upper >= {worst_upper:.3e}; "
        f"erlang_tail(2,1,3) error {tail_err:.1e}",
    )


def test_criterion_6_feynman_kac(k2, c8):
    t0 = time.time()
    results = {}
    for name, g, x, t in (("K2", k2, "0", 1.0), ("C8", c8, "0", 1.0)):
        sd = eigendecompose(g)
        f = np.zeros(g.n)
        f[g.index_of(x)] = 1.0
        exact = float(
            sd.synthesize(np.exp(-sd.eigenvalues * t) * sd.coefficients(f))[
                g.index_of(x)
            ]
        )
        hits = 0
        for rep in range(100):
            est = fk_estimate(g, f, t, x, 20_000, seed=1000 + rep)
            hits += abs(est.mean - exact) <= 4.0 * est.stderr
        results[name] = hits
        assert hits >= 99, f"{name}: only {hits}/100 within 4 stderr"

        # first-jump law against the transition probabilities
        x_idx = g.index_of(x)
        deg = float(g.degrees()[x_idx])
        batch = sample_ctmc_paths(g, x, 3.0 / deg, 55, range(100_000))
        first = batch.states[batch.step == 1]  # the k = 1 states of the paths that jumped
        counts = np.bincount(first, minlength=g.n)
        jumped = len(first)
        nb = g.neighbors(x_idx)
        total_w = float(g.weights[x_idx, nb].sum())
        for j in nb:
            p_true = float(g.weights[x_idx, j]) / total_w
            p_hat = counts[j] / jumped
            se = math.sqrt(p_true * (1 - p_true) / jumped)
            assert abs(p_hat - p_true) <= 4.0 * se + 1e-12, (
                f"{name}: first-jump law to {g.vertex_ids[j]}: "
                f"{p_hat:.4f} vs {p_true:.4f}"
            )
    elapsed = time.time() - t0
    report(
        6,
        elapsed < 60.0,
        f"K2 {results['K2']}/100, C8 {results['C8']}/100 within 4 stderr; "
        f"first-jump laws within 4 binomial stderr; {elapsed:.1f}s (< 60s)",
    )


def test_criterion_7_folner_diagnostics(c4):
    g20 = cycle(20)
    for n in (1, 2, 3, 4):
        ids = [str(i % 20) for i in range(-n, n + 1)]
        ratio = folner_ratio(g20, ids)
        assert ratio == Fraction(2, 2 * n + 1), f"segment n={n}: {ratio}"
    cover = build_cyclic_cover(c4, 2)
    _, ratio = lemma_sets(cover, "0", ["0"], 2)
    assert ratio == Fraction(2, 1)
    report(7, True, "segment ratios exactly 2/(2n+1); lemma ratio exactly 2/1")


def test_criterion_8_stabilization(k2):
    sd = eigendecompose(k2)
    f0 = np.array([1.0, 0.0])
    rep = stabilize(sd, ["0"], 1.0, 0.5, 10, f0)
    norm0 = rep.period_norms[0]
    envelope_ok = all(
        nrm <= 0.5**k * norm0 + 1e-8 for k, nrm in enumerate(rep.period_norms)
    )
    omega_ok = abs(rep.omega - math.log(0.5)) <= 1e-6
    report(
        8,
        envelope_ok and omega_ok,
        f"norms {['%.4g' % v for v in rep.period_norms]}; omega = {rep.omega:.9f}",
    )
