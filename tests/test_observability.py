import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphheat.control import hautus_obstruction, synth_control
from graphheat.errors import (
    EmptySubset,
    FullSubset,
    NotRelativelyDense,
    TargetUnreachable,
    UnknownVertex,
    ValidationError,
)
from graphheat.families import build_family, parity_subset
from graphheat.graph import build_graph
from graphheat.observability import (
    _RECHECK_MARGIN_REL,
    _closed_form_bounds,
    _grid_bounds,
    _mode_lr_norms,
    _phi_batch,
    _window_terms,
    exact_obs_constant,
    up_paper_bound,
    up_sharp_constant,
    up_sweep,
    verify_weak_obs,
    verify_weak_obs_multi,
    weak_obs_constants,
)
from graphheat.spectral import _LR_REL_TOL, RestrictedEvolution, _graded_grid, decay, eigendecompose

from conftest import corpus_recipe, cycle, grow_dense_subset, random_connected_graph


# ---------------------------------------------------------------------------
# sharp uncertainty constant


def test_sharp_constants_c4(c4):
    sd = eigendecompose(c4)
    assert up_sharp_constant(sd, ["0", "2"], 0.1) == pytest.approx(2.0, abs=1e-10)
    assert up_sharp_constant(sd, list(c4.vertex_ids), 10.0) == pytest.approx(1.0, abs=1e-10)
    # the eigenvalue-2 mode (0, 1, 0, -1) vanishes on D
    assert math.isinf(up_sharp_constant(sd, ["0", "2"], 2.0))


def test_sharp_empty_projection(c4):
    sd = eigendecompose(c4)
    assert up_sharp_constant(sd, ["0"], -1.0) == 0.0


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-0.1, 1.1))
def test_sharp_constant_matches_principal_angle_oracle(seed, where):
    """1/c is mu = cos^2 of the largest principal angle between sqrt(m) V_I
    and span{e_x : x in D} (0 when dim V_I > |D|), from scipy's
    subspace_angles; c is +inf exactly when mu <= 1e-12 and 0 when I holds
    no eigenvalue."""
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, int(rng.integers(2, 11)))
    sd = eigendecompose(g)
    lam = sd.eigenvalues
    # a random cutoff, or one that sits exactly on an eigenvalue
    sup_I = float(lam[rng.integers(g.n)]) if rng.random() < 0.5 else where * float(lam[-1])
    size = int(rng.integers(1, g.n + 1))
    d_idx = np.sort(rng.choice(g.n, size=size, replace=False))
    c = up_sharp_constant(sd, [g.vertex_ids[i] for i in d_idx], sup_I)
    V = np.sqrt(g.m)[:, None] * sd.eigenvectors[:, lam <= sup_I]
    if V.shape[1] == 0:
        assert c == 0.0
        return
    if V.shape[1] > size:
        mu = 0.0
    else:
        mu = math.cos(float(scipy.linalg.subspace_angles(V, np.eye(g.n)[:, d_idx])[0])) ** 2
    assert math.isinf(c) == (mu <= 1e-12), (c, mu)
    if not math.isinf(c):
        assert abs(1.0 / c - mu) <= 1e-13


def test_sharp_monotone_in_D_exhaustive():
    # enlarging D cannot increase the sharp constant
    rng = np.random.default_rng(11)
    for _ in range(6):
        g = random_connected_graph(rng, int(rng.integers(3, 9)))
        sd = eigendecompose(g)
        cut = float(rng.uniform(0.0, sd.eigenvalues[-1]))
        size = int(rng.integers(1, g.n))
        base = list(rng.choice(g.n, size=size, replace=False))
        extra = [i for i in range(g.n) if i not in base]
        small = up_sharp_constant(sd, [g.vertex_ids[i] for i in base], cut)
        for add in extra:
            big = up_sharp_constant(sd, [g.vertex_ids[i] for i in base + [add]], cut)
            assert big <= small * (1 + 1e-9) or math.isinf(small)


# ---------------------------------------------------------------------------
# a-priori bounds


def test_paper_bound_c4_values(c4):
    sd = eigendecompose(c4)
    rep = up_paper_bound(c4, sd, ["0", "2"], 0.1)
    assert rep.threshold == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert rep.applicable
    assert rep.paper_bound == pytest.approx(10000.0 / (7.0 / 30.0) ** 2, rel=1e-12)
    assert rep.sharp_constant == pytest.approx(2.0, abs=1e-10)
    assert rep.sharp_constant <= rep.paper_bound


def test_paper_bound_not_applicable(c4):
    sd = eigendecompose(c4)
    rep = up_paper_bound(c4, sd, ["0", "2"], 0.5)
    assert not rep.applicable
    assert rep.paper_bound is None


def test_both_bounds_low_energy(c4):
    sd = eigendecompose(c4)
    rep = up_paper_bound(c4, sd, ["0", "2"], 0.002)
    assert rep.applicable and rep.remark_applicable
    assert rep.remark_bound == pytest.approx(42.0 * 3.0, rel=1e-12)
    assert rep.sharp_constant <= rep.paper_bound
    assert rep.sharp_constant <= rep.remark_bound


def test_paper_bound_validations(c4):
    sd = eigendecompose(c4)
    with pytest.raises(EmptySubset):
        up_paper_bound(c4, sd, [], 0.1)
    with pytest.raises(FullSubset):
        up_paper_bound(c4, sd, list(c4.vertex_ids), 0.1)


def test_sweep_grid_structure(c4):
    sd = eigendecompose(c4)
    rows = up_sweep(c4, sd, ["0", "2"])
    # distinct eigenvalues 0, 2, 4 -> grid 0, 1, 2, 3, 4
    assert [r.sup_I for r in rows] == pytest.approx([0.0, 1.0, 2.0, 3.0, 4.0])
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
    rep = up_paper_bound(g, sd, ["0"], 0.5)
    assert rep.inradius == math.inf and not rep.applicable


def test_constants_validations(c4):
    sd = eigendecompose(c4)
    with pytest.raises(EmptySubset):
        weak_obs_constants(c4, sd, [], 1.0, 0.0, 2.0)
    for T in (0.0, math.inf, math.nan):  # 0 * inf would reach the verifier as a NaN window
        with pytest.raises(ValidationError):
            weak_obs_constants(c4, sd, ["0"], T, 0.0, 2.0)
    # windows so short that K = kappa / ((1 - delta) T)^{1/r} is not a float
    for D, T in ((["0"], 1e-307), (["0"], 5e-324), (list(c4.vertex_ids), 5e-324)):
        with pytest.raises(ValidationError):
            weak_obs_constants(c4, sd, D, T, 0.5, 1.0)


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


def _eigvec_time_norms(sd, D, a, b, r):
    """||(S_t v_k)|_D||_{L_r(a, b)} = c_k ||e^{-lam_k t}||_{L_r(a, b)} for every
    eigenvector v_k, c_k = ||(v_k)|_D||, from the integral of e^{-r lam t}:
    e^{-r lam a} (1 - e^{-r lam w}) / (r lam), and w at lam = 0."""
    d_idx = sd.graph.subset_indices(D)
    c = np.linalg.norm(np.sqrt(sd.graph.m[d_idx])[:, None] * sd.eigenvectors[d_idx], axis=0)
    lam = sd.eigenvalues
    if math.isinf(r):
        return c * np.exp(-lam * a)
    rate = np.where(lam > 0.0, r * lam, 1.0)
    integral = np.where(lam > 0.0, np.exp(-rate * a) * -np.expm1(-rate * (b - a)) / rate, b - a)
    return c * integral ** (1.0 / r)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10_000))
def test_verify_reports_certified_minimum_over_all_states(seed):
    """The pruned verification reports what evaluating every state of the
    battery reports: the same minimum slack, held by the same state (or by
    one tied with it).  An eigenvector's time norm is its closed form; every
    other state's is the engine's."""
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, int(rng.integers(3, 13)))
    sd = eigendecompose(g)
    size = int(rng.integers(1, g.n))
    D = [g.vertex_ids[i] for i in sorted(rng.choice(g.n, size=size, replace=False))]
    consts = [
        weak_obs_constants(g, sd, D, T, delta, r)
        for T in (0.5, 3.0)
        for delta in (0.0, 0.5)
        for r in (1.0, 1.5, 2.0, 3.0, math.inf)
    ]
    reports = verify_weak_obs_multi(sd, D, consts, samples=40, seed=seed)
    C, labels = _phi_batch(sd, 40, seed)
    C = np.hstack((np.eye(g.n), C))  # the eigenvectors' unit coefficients lead, as the labels do
    re = RestrictedEvolution(sd, g.subset_indices(D), C)
    for c, ver in zip(consts, reports):
        a, b = c.delta * c.T, c.T
        norms = re.lr_norms(a, b, c.r)
        norms[: g.n] = _eigvec_time_norms(sd, D, a, b, c.r)
        brute = c.K * norms + c.alpha - re.final_norms(c.T)
        tol = 1e-12 * (c.K + c.alpha + 1.0)
        assert ver.min_slack == pytest.approx(float(brute.min()), rel=0.0, abs=tol)
        assert brute[labels.index(ver.worst_label)] <= brute.min() + tol


def test_verify_multi_matches_one_set_per_call():
    """The 18 constant sets of an acceptance-corpus graph, certified in one
    engine run, report what 18 separate verifications report."""
    rng = np.random.default_rng(3)
    g = random_connected_graph(rng, 20)
    D = grow_dense_subset(g, rng)
    sd = eigendecompose(g)
    consts = [
        weak_obs_constants(g, sd, D, T, delta, r)
        for delta in (0.0, 0.5)
        for r in (1.0, 2.0, math.inf)
        for T in (0.5, 1.0, 5.0)
    ]
    reports = verify_weak_obs_multi(sd, D, consts, samples=1000, seed=7)
    for c, ver in zip(consts, reports):
        one = verify_weak_obs(sd, D, c, samples=1000, seed=7)
        assert ver.min_slack == pytest.approx(one.min_slack, rel=1e-12, abs=0.0)
        assert ver.worst_label == one.worst_label


def _corpus_graph_constants():
    """An acceptance-corpus graph with its 18 constant sets: 6 windows
    (delta T, T), each under the exponents 1, 2 and inf."""
    rng = np.random.default_rng(3)
    g = random_connected_graph(rng, 20)
    D = grow_dense_subset(g, rng)
    sd = eigendecompose(g)
    consts = [
        weak_obs_constants(g, sd, D, T, delta, r)
        for delta in (0.0, 0.5)
        for r in (1.0, 2.0, math.inf)
        for T in (0.5, 1.0, 5.0)
    ]
    return sd, D, consts


def _numerics_digest(sd, D):
    """SHA-256 over the bits the verification builds on: the eigenpairs,
    a battery, g on a graded grid and closed-form mode norms (exp, expm1
    and pow)."""
    C, _ = _phi_batch(sd, 40, 7)
    re = RestrictedEvolution(sd, sd.graph.subset_indices(D), C)
    lam = sd.eigenvalues
    parts = [
        lam,
        sd.eigenvectors,
        C,
        re.norms(_graded_grid(0.0, 1.0, float(lam[-1]))),
        _mode_lr_norms(lam, 0.25, 1.0, 1.0),
        _mode_lr_norms(lam, 0.25, 1.0, 3.0),
    ]
    return hashlib.sha256(b"".join(np.ascontiguousarray(p).tobytes() for p in parts)).hexdigest()


@pytest.mark.parametrize("n, seed", [(7, 1), (22, 2), (40, 3)])
def test_verify_multi_reports_are_pinned(n, seed):
    """On a corpus-recipe graph of each size class (n = 7, 22 and 40), the
    18 corpus constant sets under batteries of 0, 40 and 1000 random
    states report the pinned worst_label and n_inputs, and the pinned
    min_slack: bit for bit where this machine rounds the verification's
    building blocks as the machine that recorded the pins did (equal
    ``_numerics_digest``), and within 1e-10 relative, the reference
    replay's tolerance, elsewhere."""
    pins = json.loads((Path(__file__).parent / "data" / "verify_weak_obs_pins.json").read_text())
    g, D = corpus_recipe(n, seed)
    sd = eigendecompose(g)
    consts = _corpus_constants(g, sd, D)
    same_bits = _numerics_digest(sd, D) == pins["numerics"][str(n)]
    for samples in (0, 40, 1000):
        want = pins[f"{n} {samples}"]
        got = verify_weak_obs_multi(sd, D, consts, samples=samples, seed=7)
        assert [(v.worst_label, v.n_inputs) for v in got] == [(w[1], w[2]) for w in want]
        if same_bits:
            assert [v.min_slack.hex() for v in got] == [w[0] for w in want]
        else:
            np.testing.assert_allclose(
                [v.min_slack for v in got], [float.fromhex(w[0]) for w in want], rtol=1e-10
            )


def test_verify_multi_computes_window_terms_once_per_window(monkeypatch):
    """The 18 sets share 6 windows: the closed-form L_2 integral runs once
    per window, not once per set."""
    sd, D, consts = _corpus_graph_constants()
    calls = []
    real = RestrictedEvolution.l2_time_integral

    def counted(self, a, b):
        calls.append((a, b))
        return real(self, a, b)

    monkeypatch.setattr(RestrictedEvolution, "l2_time_integral", counted)
    verify_weak_obs_multi(sd, D, consts, samples=1000, seed=7)
    assert len(calls) == len(set(calls)) == 6


def test_verify_multi_evaluates_each_window_end_once(monkeypatch):
    """The 18 sets' 6 windows have 6 distinct ends: g at all of them over
    the battery is one ``norms`` call, and ||S_t phi|| over the battery is
    taken once per distinct t, whether t starts a window or is a T."""
    sd, D, consts = _corpus_graph_constants()
    width = sd.n + 1000  # the deltas and the random states
    ends, finals = [], []
    real_norms, real_final = RestrictedEvolution.norms, RestrictedEvolution.final_norms

    def norms(self, ts):
        if self.C.shape[1] == width and np.ndim(ts) == 1:
            ends.append(np.asarray(ts).tolist())
        return real_norms(self, ts)

    def final_norms(self, T):
        if self.C.shape[1] == width:
            finals.append(float(T))
        return real_final(self, T)

    monkeypatch.setattr(RestrictedEvolution, "norms", norms)
    monkeypatch.setattr(RestrictedEvolution, "final_norms", final_norms)
    verify_weak_obs_multi(sd, D, consts, samples=1000, seed=7)
    assert ends == [[0.0, 0.25, 0.5, 1.0, 2.5, 5.0]]
    assert sorted(finals) == [0.0, 0.25, 0.5, 1.0, 2.5, 5.0]


def test_verify_multi_with_repeated_and_interleaved_windows():
    """A constant list that repeats sets and interleaves windows reports,
    for each set, what one verification of that set alone reports."""
    sd, D, consts = _corpus_graph_constants()
    order = [4, 13, 1, 4, 16, 7, 13, 0, 10, 4]
    picked = [consts[i] for i in order]
    reports = verify_weak_obs_multi(sd, D, picked, samples=1000, seed=7)
    for c, ver in zip(picked, reports):
        one = verify_weak_obs(sd, D, c, samples=1000, seed=7)
        assert ver.constants == c
        assert ver.min_slack == pytest.approx(one.min_slack, rel=1e-12, abs=0.0)
        assert ver.worst_label == one.worst_label


def test_verify_keeps_a_state_whose_bound_is_nan(c4, monkeypatch):
    """Only a definite comparison prunes: a nan grid bound keeps its state
    (and, through the nan minimum, every state), so the certified minimum
    is the one without the nan."""
    import graphheat.observability as obs

    sd = eigendecompose(c4)
    const = weak_obs_constants(c4, sd, ["0"], 2.0, 0.5, 2.0)
    want = verify_weak_obs(sd, ["0"], const, samples=20)
    real = obs._grid_bounds

    def nan_in_first(re, a, b, exponents):
        lo, hi = real(re, a, b, exponents)
        hi[:, 0] = math.nan
        return lo, hi

    monkeypatch.setattr(obs, "_grid_bounds", nan_in_first)
    got = verify_weak_obs(sd, ["0"], const, samples=20)
    assert got.worst_label == want.worst_label
    assert got.min_slack == pytest.approx(want.min_slack, rel=1e-12)


def test_a_decomposition_of_another_graph_is_refused():
    """The constants read the graph's geometry and the decomposition's
    spectrum, so both must be of one graph: cycle-8 with b = 1 beside the
    decomposition of cycle-8 with b = 5 (even D, T = 1, delta = 0, r = 2)
    gave K = 10584, which neither matched pair gives, and a sweep of 9
    rows.  Each of the three refuses such a pair."""
    g1, g5 = cycle(8), cycle(8, b=5.0)
    sd1, sd5 = eigendecompose(g1), eigendecompose(g5)
    D = ["0", "2", "4", "6"]
    assert weak_obs_constants(g1, sd1, D, 1.0, 0.0, 2.0).K == pytest.approx(600.0, rel=1e-12)
    assert weak_obs_constants(g5, sd5, D, 1.0, 0.0, 2.0).K == pytest.approx(2116.8, rel=1e-12)
    for call in (
        lambda: weak_obs_constants(g1, sd5, D, 1.0, 0.0, 2.0),
        lambda: up_paper_bound(g1, sd5, D, 1.0),
        lambda: up_sweep(g1, sd5, D),
    ):
        with pytest.raises(ValidationError, match="does not belong to the given graph"):
            call()


def test_verify_reports_a_nan_eigenvector_slack(monkeypatch):
    """A nan exact eigenvector slack is the reported minimum, at its own
    label, as a nan slack of any other state is; it is not passed over for
    the smallest of the others (1918.6 at random:4 here)."""
    import graphheat.observability as obs

    g = cycle(7)
    sd = eigendecompose(g)
    const = weak_obs_constants(g, sd, ["0", "3"], 1.0, 0.5, 2.0)
    real = obs._mode_lr_norms

    def nan_in_first(lam, a, b, r):
        out = real(lam, a, b, r)
        out[0] = math.nan
        return out

    monkeypatch.setattr(obs, "_mode_lr_norms", nan_in_first)
    got = verify_weak_obs(sd, ["0", "3"], const, samples=20, seed=1)
    assert got.worst_label == "eigvec:0"
    assert math.isnan(got.min_slack)


def _survivors_gridding_every_state(sd, D, c, samples, seed):
    """The closed-form survivors among the states that are not eigenvectors,
    and the certified batch when all of them are gridded and pruned at once,
    with the smallest exact eigenvector slack as one more upper bound: the
    reference that the prune must match."""
    C, _ = _phi_batch(sd, samples, seed)
    re = RestrictedEvolution(sd, sd.graph.subset_indices(D), C)
    a, b = c.delta * c.T, c.T
    final = re.final_norms(c.T)
    seen = np.linalg.norm(re.W, axis=0)
    exact = c.K * (seen * _mode_lr_norms(sd.eigenvalues, a, b, c.r))
    best = float(np.min(exact + (c.alpha - decay(sd.eigenvalues, c.T))))
    lo, hi = _closed_form_bounds(_window_terms(re, [(a, b)], re.final_norms)[0], c.r)
    margin = _RECHECK_MARGIN_REL * (c.K + c.alpha + 1.0) + 2.0 * _LR_REL_TOL * c.K * hi.max()

    def prune(cols, lo, hi):
        base = c.alpha - final[cols]
        keep = ~(c.K * lo + base > np.min(c.K * hi + base, initial=best) + margin)
        return cols[keep], lo[keep], hi[keep]

    survivors, lo, hi = prune(np.arange(C.shape[1]), lo, hi)
    cols = survivors
    if len(survivors):
        glo, ghi = _grid_bounds(
            RestrictedEvolution(sd, re.d_indices, C[:, survivors]), a, b, np.array([c.r])
        )
        cols, _, _ = prune(survivors, np.maximum(lo, glo[0]), np.minimum(hi, ghi[0]))
    return len(survivors), C[:, cols]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10_000),
    st.sampled_from([1.0, 2.0, math.inf]),
    st.sampled_from([0.0, 0.5]),
    st.sampled_from([0.5, 3.0]),
)
def test_prune_keeps_the_survivors_of_gridding_every_state(seed, r, delta, T):
    """The verifier certifies exactly the states that gridding every
    closed-form survivor leaves, and no eigenvector: those the exact
    eigenvector slack prunes all are certified by no engine call."""
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, int(rng.integers(3, 16)))
    sd = eigendecompose(g)
    size = int(rng.integers(1, g.n))
    D = [g.vertex_ids[i] for i in sorted(rng.choice(g.n, size=size, replace=False))]
    c = weak_obs_constants(g, sd, D, T, delta, r)
    certified = []
    real = RestrictedEvolution.lr_norms

    def kept(self, a, b, r):
        certified.append(self.C)
        return real(self, a, b, r)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RestrictedEvolution, "lr_norms", kept)
        verify_weak_obs(sd, D, c, samples=60, seed=seed)
    _, want = _survivors_gridding_every_state(sd, D, c, 60, seed)
    assert len(certified) == (1 if want.shape[1] else 0)
    np.testing.assert_array_equal(certified[0] if certified else want, want)


def test_prune_grids_no_state_on_cycle_300(monkeypatch):
    """On cycle-300 with the even vertices observed, T = 1, delta = 0 and
    r = inf, the closed forms alone left about 1450 of the 1600 states.
    With the eigenvectors' exact slacks as an upper bound, the closed forms
    leave none, so no state is gridded."""
    import graphheat.observability as obs

    g = cycle(300)
    sd = eigendecompose(g)
    D = g.vertex_ids[::2]
    c = weak_obs_constants(g, sd, D, 1.0, 0.0, math.inf)
    gridded = []
    real = obs._grid_bounds

    def counted(re, a, b, exponents):
        gridded.append(re.C.shape[1])
        return real(re, a, b, exponents)

    monkeypatch.setattr(obs, "_grid_bounds", counted)
    verify_weak_obs(sd, D, c, samples=1000)
    assert sum(gridded) == 0


def test_prune_grids_the_closed_form_survivors_once_on_torus_16x16(monkeypatch):
    """On torus-16x16 with the even vertices observed, T = 1, delta = 0,
    r = 1 and battery seed 1, the closed forms leave 451 states (459 with
    one BLAS thread, whose rounding moves a few symmetric ties across the
    margin): one grid bounds all of them.  The certified survivors are those
    of gridding every state at once."""
    import graphheat.observability as obs

    g = build_family("torus", {"p": 16, "q": 16}).graph
    sd = eigendecompose(g)
    D = parity_subset(g, "even")
    c = weak_obs_constants(g, sd, D, 1.0, 0.0, 1.0)
    gridded, certified = [], []
    real_grid, real_norms = obs._grid_bounds, RestrictedEvolution.lr_norms

    def counted(re, a, b, exponents):
        gridded.append(re.C.shape[1])
        return real_grid(re, a, b, exponents)

    def kept(self, a, b, r):
        certified.append(self.C)
        return real_norms(self, a, b, r)

    monkeypatch.setattr(obs, "_grid_bounds", counted)
    monkeypatch.setattr(RestrictedEvolution, "lr_norms", kept)
    verify_weak_obs(sd, D, c, samples=1000, seed=1)
    survivors, want = _survivors_gridding_every_state(sd, D, c, 1000, 1)
    assert gridded == [survivors] and survivors in (451, 459), gridded
    np.testing.assert_array_equal(certified[0] if certified else np.zeros((g.n, 0)), want)


def _corpus_constants(g, sd, D):
    return [
        weak_obs_constants(g, sd, D, T, delta, r)
        for delta in (0.0, 0.5)
        for r in (1.0, 2.0, math.inf)
        for T in (0.5, 1.0, 5.0)
    ]


def test_omega_geometry_runs_once_per_graph_and_observation_sequence(monkeypatch):
    """The 18 corpus constant sets and the sweep of one (graph, D) compute
    the inradius and the largest ball volume once.  Another D on the same
    graph computes its own, and gets what a fresh graph gets; a D with a
    duplicate or unknown id caches nothing and raises on every call."""
    import graphheat.observability as obs

    calls = {"inradius": 0, "max_ball_volume": 0}
    for name in calls:

        def counted(*args, _real=getattr(obs, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(obs, name, counted)
    rng = np.random.default_rng(3)
    g = random_connected_graph(rng, 20)
    D = list(grow_dense_subset(g, rng))
    sd = eigendecompose(g)
    consts = _corpus_constants(g, sd, D)
    up_sweep(g, sd, D)
    assert calls == {"inradius": 1, "max_ball_volume": 1}

    D2 = [v for v in g.vertex_ids if v not in D][:1] + D
    assert len(D2) < g.n
    got = _corpus_constants(g, sd, D2)
    assert calls == {"inradius": 2, "max_ball_volume": 2}
    fresh = build_graph(
        [(v, float(m)) for v, m in zip(g.vertex_ids, g.m)],
        [
            (g.vertex_ids[i], g.vertex_ids[j], float(g.weights[i, j]))
            for i, j in zip(*np.nonzero(np.triu(g.weights)))
        ],
    )
    assert got == _corpus_constants(fresh, eigendecompose(fresh), D2)
    assert consts == _corpus_constants(g, sd, D)  # hits give what the misses gave

    for bad, error in ((D + D[:1], ValidationError), (D + ["no such vertex"], UnknownVertex)):
        for _ in range(2):
            with pytest.raises(error):
                weak_obs_constants(g, sd, bad, 1.0, 0.5, 2.0)
            with pytest.raises(error):
                up_sweep(g, sd, bad)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_verify_multi_matches_one_set_per_call_on_random_graphs(seed):
    """Gridding the sets of a window together, on one grid, reports
    for each of the 18 corpus constant sets what verifying that set alone
    reports, on small random weighted graphs."""
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, int(rng.integers(3, 13)))
    sd = eigendecompose(g)
    size = int(rng.integers(1, g.n))
    D = [g.vertex_ids[i] for i in sorted(rng.choice(g.n, size=size, replace=False))]
    consts = _corpus_constants(g, sd, D)
    reports = verify_weak_obs_multi(sd, D, consts, samples=30, seed=seed)
    for c, ver in zip(consts, reports):
        one = verify_weak_obs(sd, D, c, samples=30, seed=seed)
        assert ver.constants == c
        assert ver.min_slack == pytest.approx(one.min_slack, rel=1e-12, abs=0.0)


def test_grid_bounds_for_several_exponents_match_one_call_each():
    """An array of exponents gives one row of grid bounds per exponent, each
    the bounds of a call with that exponent alone."""
    sd, D, _ = _corpus_graph_constants()
    C, _ = _phi_batch(sd, 50, 1)
    re = RestrictedEvolution(sd, sd.graph.subset_indices(D), C)
    rs = np.array([1.0, 2.0, math.inf])
    lo, hi = _grid_bounds(re, 0.25, 1.0, rs)
    assert lo.shape == hi.shape == (3, C.shape[1])
    for row in range(len(rs)):
        one_lo, one_hi = _grid_bounds(re, 0.25, 1.0, rs[row : row + 1])
        np.testing.assert_array_equal(lo[row], one_lo[0])
        np.testing.assert_array_equal(hi[row], one_hi[0])


def test_verify_multi_grids_each_window_once(monkeypatch):
    """The 18 corpus sets share 6 windows: each window grids the union of its
    sets' closed-form survivors in at most one call, each state of a call
    once, however many of the window's exponents kept it.  Only
    states that are not eigenvectors are gridded; a window whose states the
    closed forms prune all grids nothing, and an eigenvector holds each of
    its minima."""
    import graphheat.observability as obs

    sd, D, consts = _corpus_graph_constants()
    grids = []
    real = obs._grid_bounds

    def counted(re, a, b, exponents):
        grids.append((a, b, re.C))
        return real(re, a, b, exponents)

    monkeypatch.setattr(obs, "_grid_bounds", counted)
    reports = verify_weak_obs_multi(sd, D, consts, samples=1000, seed=7)
    windows = [(a, b) for a, b, _ in grids]
    assert set(windows) <= {(c.delta * c.T, c.T) for c in consts}
    assert len(windows) == len(set(windows)), windows
    screened = _phi_batch(sd, 1000, 7)[0]
    for _, _, C in grids:
        assert len(np.unique(C, axis=1).T) == C.shape[1]
        assert (C[:, :, None] == screened[:, None, :]).all(axis=0).any(axis=1).all()
    for c, ver in zip(consts, reports):
        if (c.delta * c.T, c.T) not in windows:
            assert ver.worst_label.startswith("eigvec:")


def _battery_by_concatenation(sd, samples, seed):
    """The screened states of the test battery as two blocks joined: the
    deltas and the normalized random draws."""
    blocks = [(np.sqrt(sd.graph.m)[:, None] * sd.eigenvectors).T]
    if samples > 0:
        z = np.random.default_rng(seed).standard_normal((sd.n, samples))
        blocks.append(z / np.linalg.norm(z, axis=0))
    return np.concatenate(blocks, axis=1)


@pytest.mark.parametrize("seed", [1, 3, 100, 2**40])
@pytest.mark.parametrize("samples", [0, 1, 2, 7, 300])
def test_battery_is_filled_in_place_with_the_bits_of_its_blocks(samples, seed):
    """``_phi_batch`` normalizes the random block into one array; with any
    battery seed it has the bits of its two screened blocks joined, and its
    labels in their order, the eigenvectors' first."""
    rng = np.random.default_rng(samples)
    sd = eigendecompose(random_connected_graph(rng, 17))
    C, labels = _phi_batch(sd, samples, seed)
    assert np.array_equal(C, _battery_by_concatenation(sd, samples, seed))
    assert labels[0] == "eigvec:0" and labels[sd.n] == f"delta:{sd.graph.vertex_ids[0]}"
    assert len(labels) == sd.n + C.shape[1] == 2 * sd.n + samples


def test_verify_on_torus_16x16_at_r_1_holds_the_battery_and_a_few_blocks():
    """The torus-16x16 verification at r = 1 (battery seed 1, 1000 random
    states, n = 256) holds at most the screened battery (the deltas and the
    random states), one copy of its columns and two evaluation blocks at
    once, 9.3 MB; it holds 5.9 MB, and held 6.4 MB with the eigenvectors'
    identity block in the battery and 19.8 MB before the blocks."""
    from graphheat.quadrature import _BLOCK_ELEMENTS

    g = build_family("torus", {"p": 16, "q": 16}).graph
    sd = eigendecompose(g)
    D = parity_subset(g, "even")
    const = weak_obs_constants(g, sd, D, T=1.0, delta=0.0, r=1.0)
    battery = 8 * g.n * (g.n + 1000)
    tracemalloc.start()
    try:
        verify_weak_obs_multi(sd, D, [const], samples=1000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * battery + 2 * 8 * _BLOCK_ELEMENTS, peak


def test_certified_norm_of_a_fast_decaying_mode_keeps_its_digits():
    """The verifier certifies a state from its spectral coefficients.  A
    round trip through the vertex basis left about 5e-16 of round-off in
    this mode, whose time norm is about 3.1e-20."""
    rng = np.random.default_rng(5)
    g = random_connected_graph(rng, 40)
    D = grow_dense_subset(g, rng)
    sd = eigendecompose(g)
    d_idx = g.subset_indices(D)
    C = np.eye(g.n)[:, [39]]  # the spectral coefficients of eigvec:39
    got = RestrictedEvolution(sd, d_idx, C).lr_norms(2.5, 5.0, 1.0)[0]
    lam = float(sd.eigenvalues[39])
    on_d = float(np.linalg.norm(np.sqrt(g.m[d_idx]) * sd.eigenvectors[d_idx, 39]))
    want, _ = scipy.integrate.quad(
        lambda t: math.exp(-lam * t) * on_d, 2.5, 5.0, epsabs=0.0, epsrel=1e-13
    )
    assert want == pytest.approx(3.10e-20, rel=1e-2)
    assert got == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------------
# closed-form time norms of the eigenvectors


def _eigenvector_evolution(seed):
    """A random weighted graph, its spectrum and the restricted evolution of
    its eigenvectors on a random proper D, with c_k = ||(v_k)|_D||, drawn as
    ``test_verify_reports_certified_minimum_over_all_states`` draws them."""
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, int(rng.integers(3, 13)))
    sd = eigendecompose(g)
    size = int(rng.integers(1, g.n))
    d_idx = np.sort(rng.choice(g.n, size=size, replace=False))
    re = RestrictedEvolution(sd, d_idx, np.eye(g.n))
    return sd, re, np.linalg.norm(re.W, axis=0)


_MODE_WINDOWS = [(0.0, 0.5), (0.25, 0.5), (0.0, 3.0), (1.5, 3.0)]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
@example(1581)
@example(8813)
def test_mode_norms_match_the_engine_on_random_graphs(seed):
    """c_k ||e^{-lam_k t}||_{L_r} is the engine's time norm of eigenvector k:
    within 1e-9 of its Simpson estimate for finite r, and inside its
    certified bracket [s, s + _LR_REL_TOL ||S_a v_k||] for r = inf (less the
    rounding of s, the norm of a rounded product).

    Simpson's error estimate is not a bound.  Over seeds 0 to 10000 its
    norm is more than 1e-10 off the closed form on 135 graphs, the worst on
    the window (0, 3) for a fast mode: 1.1e-10 at seed 1581 (r = 2) and
    5.6e-10 at seed 8813 (r = 3, lam = 17.5, where the integral of g^3 is
    1.7e-9 off).  The mpmath test pins the closed form itself to 1e-14."""
    sd, re, seen = _eigenvector_evolution(seed)
    for a, b in _MODE_WINDOWS:
        for r in (1.0, 1.5, 2.0, 3.0):
            got = seen * _mode_lr_norms(sd.eigenvalues, a, b, r)
            np.testing.assert_allclose(got, re.lr_norms(a, b, r), rtol=1e-9, atol=0.0)
        got = seen * _mode_lr_norms(sd.eigenvalues, a, b, math.inf)
        sampled = re.lr_norms(a, b, math.inf)
        assert np.all(sampled * (1.0 - 4e-16) <= got)
        assert np.all(got <= sampled + _LR_REL_TOL * re.final_norms(a))


@pytest.mark.parametrize("seed", [2041, 7, 101])
def test_mode_norms_match_an_mpmath_reference(seed):
    """The closed form agrees with 30-digit quadrature within 1e-14.  On
    seed 2041, one of the certified-minimum test's graphs, Simpson's
    estimate of an eigenvector's norm is off by about 1e-11."""
    import mpmath

    sd, re, seen = _eigenvector_evolution(seed)
    with mpmath.workdps(30):
        for T in (0.5, 3.0):
            for delta in (0.0, 0.5):
                a, b = delta * T, T
                for r in (1.0, 1.5, 2.0, 3.0, math.inf):
                    got = seen * _mode_lr_norms(sd.eigenvalues, a, b, r)
                    for k, lam in enumerate(sd.eigenvalues.tolist()):
                        c, lam = mpmath.mpf(float(seen[k])), mpmath.mpf(lam)
                        head = c * mpmath.exp(-lam * a)
                        if math.isinf(r):
                            want = head
                        else:  # quad's tolerance is absolute: it integrates a shape of size 1
                            shape = mpmath.quad(lambda s: mpmath.exp(-r * lam * s), [0, b - a])
                            want = head * shape ** (1 / mpmath.mpf(r))
                        assert abs(got[k] - want) <= 1e-14 * want, (k, a, b, r)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m", [1.0, 1e-300])
def test_mode_norms_of_stiff_rates_and_long_windows_are_finite(m):
    """On cycle-8 with m = 1e-300 (lam_max = 4e300), and on windows as long
    as 1e15, r lam w overflows a float or e^{-lam a} underflows: each norm
    is finite, with no warning, and so is each verified minimum slack.
    The zero mode keeps w^{1/r}; on a window from 0 each other mode keeps
    its integral, (1 / (r lam))^{1/r} where r lam w overflows, and on a
    window from a > 0 a stiff mode has decayed to 0."""
    g = cycle(8, m=m)
    sd = eigendecompose(g)
    lam = sd.eigenvalues
    assert lam[0] == 0.0
    for a, b in ((0.0, 1.0), (0.5, 1.0), (0.0, 1e15), (5e14, 1e15)):
        for r in (1.0, 1.5, 2.0, 3.0, math.inf):
            got = _mode_lr_norms(lam, a, b, r)
            assert np.all(np.isfinite(got)) and np.all(got >= 0.0)
            assert got[0] == (1.0 if math.isinf(r) else (b - a) ** (1.0 / r))
            if a > 0.0 and float(lam[1]) * a > 800.0:
                assert np.all(got[1:] == 0.0)
            if a == 0.0 and not math.isinf(r) and r * float(lam[1]) * b > 50.0:
                np.testing.assert_allclose(got[1:], (1.0 / (r * lam[1:])) ** (1.0 / r), rtol=1e-15)
    D = g.vertex_ids[::2]
    consts = [
        weak_obs_constants(g, sd, D, T, delta, r)
        for T in (1.0, 1e15)
        for delta in (0.0, 0.5)
        for r in (1.0, 2.0, math.inf)
    ]
    for ver in verify_weak_obs_multi(sd, D, consts, samples=10, seed=1):
        assert math.isfinite(ver.min_slack)


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


@pytest.mark.parametrize("eps", [1e-9, 1e-7, 1e-5, 1e-4, 3e-4, 1e-3])
def test_exact_obs_infinite_iff_null_control_refused(eps):
    """C4 with D = {0, 2}, T = 1 and b(0, 1) = 1 + eps: the exact constant is
    infinite exactly when synth_control refuses alpha = 0, one rank decision
    for both, including eps = 1e-4 where the Gramian's mu_min / mu_max is
    about 5e-11."""
    g = build_graph(
        [(str(i), 1.0) for i in range(4)],
        [("0", "1", 1.0 + eps), ("1", "2", 1.0), ("2", "3", 1.0), ("3", "0", 1.0)],
    )
    sd = eigendecompose(g)
    try:
        synth_control(sd, ["0", "2"], 1.0, np.ones(4), 0.0)
        refused = False
    except TargetUnreachable:
        refused = True
    assert math.isinf(exact_obs_constant(sd, ["0", "2"], 1.0)) == refused


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


def _sharp_per_group(sd, D):
    """The sweep's sharp constants with one eigensolve per eigenvalue group,
    at the cutoff of the group's top, on both rows of the group."""
    groups = sd.eigenvalue_groups
    out = []
    for k, (_, idx) in enumerate(groups):
        sharp = up_sharp_constant(sd, D, float(sd.eigenvalues[idx[-1]]))
        out += [sharp] if k + 1 == len(groups) else [sharp, sharp]
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["random", "pendant", 1e-9, 1e-6, 1e-4]))
@example(0, "pendant")
@example(0, 1e-9)
def test_up_sweep_skips_only_eigensolves_whose_constant_is_infinite(seed, kind):
    """``up_sweep`` returns +inf without an eigensolve once the cutoff keeps
    more modes than D has vertices, and on every row after the first +inf;
    its constants equal one ``up_sharp_constant`` per group on
    - random weighted graphs;
    - a weighted path, all observed, with two unobserved leaves on one
      vertex: their difference is a low mode that D does not see, so +inf
      comes while the cutoff still keeps fewer modes than |D|;
    - C4 with D = {0, 2} and b(0, 1) = 1 + eps, where the Hautus test and
      the Gramian disagree."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        g = random_connected_graph(rng, int(rng.integers(3, 13)))
        size = int(rng.integers(1, g.n))
        D = [g.vertex_ids[i] for i in sorted(rng.choice(g.n, size=size, replace=False))]
    elif kind == "pendant":
        k = int(rng.integers(3, 10))
        at, w = str(int(rng.integers(0, k + 1))), round(float(rng.uniform(0.001, 0.1)), 3)
        g = build_graph(
            [(str(i), 1.0) for i in range(k + 3)],
            [(str(i), str(i + 1), round(float(rng.uniform(0.5, 2.0)), 3)) for i in range(k)]
            + [(at, str(k + 1), w), (at, str(k + 2), w)],
        )
        D = [str(i) for i in range(k + 1)]
    else:
        g = build_graph(
            [(str(i), 1.0) for i in range(4)],
            [("0", "1", 1.0 + kind), ("1", "2", 1.0), ("2", "3", 1.0), ("3", "0", 1.0)],
        )
        D = ["0", "2"]
    sd = eigendecompose(g)
    rows = up_sweep(g, sd, D)
    assert [r.sharp_constant for r in rows] == _sharp_per_group(sd, D)
    if kind == "pendant":  # +inf on a row whose cutoff keeps at most |D| modes
        first = next(i for i, r in enumerate(rows) if math.isinf(r.sharp_constant))
        assert np.count_nonzero(sd.eigenvalues <= rows[first].sup_I) <= len(D)


def test_up_sweep_on_cycle_400_solves_only_the_finite_rows(monkeypatch):
    """On cycle-400 with even D the cutoff keeps more than 200 modes from
    the 101st eigenvalue group on: those 201 rows take no eigensolve."""
    import graphheat.observability as obs

    g = cycle(400)
    sd = eigendecompose(g)
    D = parity_subset(g, "even")
    cutoffs = []
    real = obs.up_sharp_constant
    monkeypatch.setattr(
        obs, "up_sharp_constant", lambda sd, D, s: cutoffs.append(s) or real(sd, D, s)
    )
    rows = up_sweep(g, sd, D)
    assert len(rows) == 401 and sum(math.isinf(r.sharp_constant) for r in rows) == 201
    assert len(cutoffs) == 100


@pytest.mark.parametrize("n", [8, 100])
def test_up_sweep_eigenvalue_row_equals_midpoint_row(n):
    """On an even cycle with even D most eigenvalues are double; the row at
    an eigenvalue and the midpoint row after it project onto the same whole
    eigenspaces, so their sharp constants agree, and equal the constant of
    the window closed at the group's largest eigenvalue."""
    g = cycle(n)
    sd = eigendecompose(g)
    D = [v for v in g.vertex_ids if int(v) % 2 == 0]
    rows = up_sweep(g, sd, D)
    groups = sd.eigenvalue_groups
    assert len(rows) == 2 * len(groups) - 1
    assert any(len(idx) > 1 for _, idx in groups)
    for k, (_, idx) in enumerate(groups):
        top = float(sd.eigenvalues[idx[-1]])
        assert rows[2 * k].sharp_constant == up_sharp_constant(sd, D, top)
        if k + 1 < len(groups):
            assert rows[2 * k + 1].sharp_constant == rows[2 * k].sharp_constant


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


# ---------------------------------------------------------------------------
# r = inf tie groups


def _certify_every_survivor(sd, D, c, samples, seed):
    """The verification with no tie group settled: every state the screens
    leave goes through the batched certification."""
    import graphheat.observability as obs

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(obs, "_settle_tie_groups", lambda *args: None)
        return verify_weak_obs(sd, D, c, samples=samples, seed=seed)


def test_tie_group_on_torus_16x16_is_certified_once(monkeypatch):
    """On torus-16x16 with the even vertices observed, T = 1, delta = 0 and
    r = inf, the screens leave the 128 odd-vertex deltas, tied by symmetry.
    The likeliest is certified alone, the other 127 are sampled at its best
    time in one ``_norms_at`` call and all settled, so no batched
    certification runs.  The minimum lies within 2 K tol below that of
    certifying all 128, and within K tol above it."""
    g = build_family("torus", {"p": 16, "q": 16}).graph
    sd = eigendecompose(g)
    D = parity_subset(g, "even")
    c = weak_obs_constants(g, sd, D, 1.0, 0.0, math.inf)
    every = _certify_every_survivor(sd, D, c, 1000, 5)
    sups, sampled, certified = [], [], []
    real_sup, real_norms_at, real_lr = (
        RestrictedEvolution._sup_norms, RestrictedEvolution._norms_at, RestrictedEvolution.lr_norms
    )

    def sup(self, a, b):
        sups.append(self.C.shape[1])
        return real_sup(self, a, b)

    def norms_at(self, t):
        if self.C.shape[1] > 1:  # not the representative's first sample
            sampled.append(self.C.shape[1])
        return real_norms_at(self, t)

    def lr(self, a, b, r):
        certified.append(self.C.shape[1])
        return real_lr(self, a, b, r)

    monkeypatch.setattr(RestrictedEvolution, "_sup_norms", sup)
    monkeypatch.setattr(RestrictedEvolution, "_norms_at", norms_at)
    monkeypatch.setattr(RestrictedEvolution, "lr_norms", lr)
    ver = verify_weak_obs(sd, D, c, samples=1000, seed=5)
    assert (sups, sampled, certified) == ([1], [127], [])
    assert ver.worst_label.startswith("delta:")
    tol = _LR_REL_TOL  # every delta is a unit state and a = 0
    assert every.min_slack - 2.0 * c.K * tol <= ver.min_slack <= every.min_slack + c.K * tol


def _tie_case(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "random":
        g = random_connected_graph(rng, int(rng.integers(3, 13)))
        size = int(rng.integers(1, g.n))
        D = [g.vertex_ids[i] for i in sorted(rng.choice(g.n, size=size, replace=False))]
        return g, D
    if kind == "cycle":
        g = cycle(int(rng.integers(4, 25)))
    else:
        g = build_family("torus", {"p": int(rng.integers(3, 9)), "q": int(rng.integers(3, 9))}).graph
    return g, parity_subset(g, "even")


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["random", "cycle", "torus"]),
    st.integers(0, 10_000),
    st.sampled_from([0.0, 0.5]),
    st.sampled_from([0.5, 1.0, 3.0]),
)
def test_tie_groups_keep_the_reported_minimum_a_certified_lower_bound(kind, seed, delta, T):
    """At r = inf, on small random weighted graphs and on cycles and tori
    with parity D, the reported minimum is at most every state's certified
    slack upper bound (the eigenvectors' exact slack, and K (s + tol) +
    alpha - ||S_T phi|| for every other state of the battery), and at least
    the minimum of certifying every survivor, less 2 K tol, with
    tol = _LR_REL_TOL max ||S_a phi||."""
    g, D = _tie_case(kind, seed)
    sd = eigendecompose(g)
    c = weak_obs_constants(g, sd, D, T, delta, math.inf)
    ver = verify_weak_obs(sd, D, c, samples=40, seed=seed)
    every = _certify_every_survivor(sd, D, c, 40, seed)
    C, _ = _phi_batch(sd, 40, seed)
    d_idx = g.subset_indices(D)
    re = RestrictedEvolution(sd, d_idx, C)
    a, lam = delta * T, sd.eigenvalues
    tol = _LR_REL_TOL * re.final_norms(a)
    upper = c.K * (re.lr_norms(a, T, math.inf) + tol) + c.alpha - re.final_norms(T)
    seen = np.linalg.norm(np.sqrt(g.m[d_idx])[:, None] * sd.eigenvectors[d_idx], axis=0)
    exact = c.K * seen * _mode_lr_norms(lam, a, T, math.inf) + c.alpha - decay(lam, T)
    noise = 1e-12 * (c.K + c.alpha + 1.0)
    assert ver.min_slack <= min(upper.min(), exact.min()) + noise
    assert ver.min_slack >= every.min_slack - 2.0 * c.K * tol.max() - noise


def test_corpus_recipe_forms_no_tie_group(corpus, monkeypatch):
    """The acceptance corpus (random weighted graphs, n <= 40) has no
    symmetry for a tie group to come from: at r = inf, under every window of
    criterion 1, no row of the screen table forms one."""
    import graphheat.observability as obs

    groups = []
    real = obs._ScreenTable.tie_groups

    def recorded(self):
        tied = real(self)
        groups.extend(len(cols) for _, cols in tied)
        return tied

    monkeypatch.setattr(obs._ScreenTable, "tie_groups", recorded)
    calls = 0
    for idx, item in enumerate(corpus):
        consts = [
            weak_obs_constants(item.graph, item.sd, item.D, T, delta, math.inf)
            for delta in (0.0, 0.5)
            for T in (0.5, 1.0, 5.0)
        ]
        verify_weak_obs_multi(item.sd, item.D, consts, samples=1000, seed=idx)
        calls += 1
    assert calls == 100 and groups == []
