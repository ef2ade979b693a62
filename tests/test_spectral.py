import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphheat.covering import lift_function
from graphheat.errors import (
    EmptySubset,
    NegativeTime,
    QuadratureNonConvergence,
    ValidationError,
)
from graphheat.families import build_family, parity_subset
from graphheat.graph import MetricKind, build_graph, covering_radius, inradius, max_ball_volume
from graphheat.observability import _phi_batch
from graphheat.quadrature import _BLOCK_ELEMENTS, _blocks
from graphheat.spectral import (
    _LR_REL_TOL,
    RestrictedEvolution,
    _cell_chunk,
    _gramian_kernel,
    _graded_grid,
    apply_laplacian,
    decay,
    eigendecompose,
    op_norm_H_plus_1,
    semigroup_apply,
    time_lr_norm,
)

from conftest import cycle, grow_dense_subset, m_norm, path, random_connected_graph


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


def _dense_heat(g, t):
    """e^{-tH} from scipy's dense matrix exponential of H = M^{-1} (Deg - b),
    built from the weights and the measure with no eigendecomposition."""
    H = (np.diag(g.weights.sum(axis=1)) - g.weights) / g.m[:, None]
    return scipy.linalg.expm(-t * H)


def test_semigroup_matches_a_dense_matrix_exponential(corpus):
    """On the acceptance corpus the eigenbasis semigroup agrees with a
    Pade matrix exponential, an independent computation of e^{-tH} (Moler &
    Van Loan, SIAM Review 45, 2003), within 1e-10 max |f|."""
    rng = np.random.default_rng(7)
    for item in corpus:
        f = rng.standard_normal(item.graph.n)
        for t in (0.5, 1.0, 5.0):
            err = np.abs(semigroup_apply(item.sd, t, f) - _dense_heat(item.graph, t) @ f).max()
            assert err <= 1e-10 * np.abs(f).max(), (item.graph.n, t, err)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "m, t",
    [
        (1e-300, 1e-296),
        (1e-300, 1e10),  # lam_max t = 4e310
        (1.0, 1e4),
        (1.0, 1e308),  # lam_max t = 4e308
        (1e300, 1e304),
        pytest.param(1e300, 1e308, marks=pytest.mark.xfail(strict=True, reason=(
            "eigh returns the zero eigenvalue as 5.1e-316, and at t = 1e308 "
            "the mean decays by 5e-8 relative"
        ))),
    ],
)
def test_semigroup_decays_to_the_mean_past_the_float_range(m, t):
    """On cycle-8 the slowest nonzero mode decays like e^{-0.59 t/m}: at
    lam_max t of 4e4 and more, including products lam t beyond the float
    range, S_t f is the m-weighted mean of f, without a warning."""
    g = cycle(8, m=m)
    sd = eigendecompose(g)
    f = np.random.default_rng(5).standard_normal(g.n)
    mean = np.sum(f * g.m) / np.sum(g.m)
    assert float(sd.eigenvalues[-1]) * t >= 4e3
    err = np.abs(semigroup_apply(sd, t, f) - mean).max()
    assert err <= 1e-10 * np.abs(f).max(), err


def test_complex_states_are_rejected(c4):
    # states are real: an imaginary part is refused, not dropped
    sd = eigendecompose(c4)
    f = np.array([1.0 + 2.0j, -1.0j, 0.5, 0.0])
    with pytest.raises(ValidationError, match="must be real"):
        semigroup_apply(sd, 0.7, f)
    with pytest.raises(ValidationError, match="must be real"):
        time_lr_norm(sd, f, ["0", "2"], (0.1, 1.0), 2)


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


def _bisected_sup(re, a, b, waves=None):
    """The supremum search that splits each live cell in two per wave: a
    reference for ``_sup_norms``, which splits up to 8 ways.  ``waves``,
    if given, collects the number of cells of each wave."""
    windows, window_of = np.unique(np.stack([a, b], axis=1), axis=0, return_inverse=True)
    grids = np.array([_graded_grid(wa, wb, float(re.lam[-1])) for wa, wb in windows.tolist()])
    ts = grids[window_of.ravel()]
    best = re.norms(b[None, :])[0]
    tol = _LR_REL_TOL * re.final_norms(a)
    lo, hi = ts[:, :-1].ravel(), ts[:, 1:].ravel()
    cols = np.repeat(np.arange(re.C.shape[1]), ts.shape[1] - 1)
    while len(lo):
        if waves is not None:
            waves.append(len(lo))
        g0, ub = re._cell_bounds(lo, hi - lo, cols)
        np.maximum.at(best, cols, g0)
        mid = 0.5 * (lo + hi)
        split = ~(ub <= best[cols] + tol[cols]) & (lo < mid) & (mid < hi)
        lo, mid, hi, cols = lo[split], mid[split], hi[split], cols[split]
        lo, hi, cols = np.concatenate((lo, mid)), np.concatenate((mid, hi)), np.tile(cols, 2)
    return best


def _counting_waves(monkeypatch):
    """Record the number of cells of every ``_cell_bounds`` call."""
    waves = []
    real = RestrictedEvolution._cell_bounds

    def counted(self, lo, h, cols):
        waves.append(len(lo))
        return real(self, lo, h, cols)

    monkeypatch.setattr(RestrictedEvolution, "_cell_bounds", counted)
    return waves


def _sampled_max(sd, d_idx, C, times):
    """Max of g over ``times(j)`` for each column j, from the eigenpairs."""
    W = np.sqrt(sd.graph.m[d_idx])[:, None] * sd.eigenvectors[d_idx]
    return np.array([
        np.linalg.norm(W @ (decay(sd.eigenvalues, times(j)) * C[:, [j]]), axis=0).max()
        for j in range(C.shape[1])
    ])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10_000),
    st.sampled_from([(0.5, 2.0), (1e-3, 1.0), (1.0, 50.0)]),
    st.sampled_from([(0.5, 2.0), (1e-3, 1e-2), (1.0, 10.0)]),
)
def test_sup_search_lies_in_its_bracket_and_agrees_with_bisection(seed, b_range, m_range):
    """On random weighted graphs, with a window per column, the r = inf norm
    is a sampled value no larger than ||S_a f||, at least the densely
    sampled maximum less _LR_REL_TOL ||S_a f||, and within _LR_REL_TOL
    ||S_a f|| of what splitting every live cell in two finds: both lie in
    [sup g - tol, sup g]."""
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, int(rng.integers(2, 13)), b_range=b_range, m_range=m_range)
    sd = eigendecompose(g)
    d_idx = np.sort(rng.choice(g.n, size=int(rng.integers(1, g.n + 1)), replace=False))
    F = rng.standard_normal((g.n, 6))
    F[:, :3] = 0.0  # deltas and a difference of two spread from where they start
    F[rng.integers(g.n), 0] = 1.0
    F[rng.integers(g.n), 1] = 1.0
    F[rng.integers(g.n), 2] += 1.0
    F[rng.integers(g.n), 2] -= 1.0
    C = sd.coefficients(F)
    a = rng.choice([0.0, 1e-3, 0.5, 2.0], size=6)
    b = a + rng.choice([0.01, 1.0, 5.0, 50.0], size=6)
    re = RestrictedEvolution(sd, d_idx, C)
    got = re.lr_norms(a, b, math.inf)
    tol = _LR_REL_TOL * re.final_norms(a)
    assert np.all(got <= re.final_norms(a) * (1.0 + 1e-12))
    dense = _sampled_max(  # 4001 uniform and 4000 geometric times per window
        sd, d_idx, C,
        lambda j: a[j] + np.concatenate([
            np.linspace(0.0, b[j] - a[j], 4001), np.geomspace(1e-12, b[j] - a[j], 4000)
        ]),
    )
    assert np.all(got >= dense - tol)
    assert np.all(np.abs(got - _bisected_sup(re, a, b)) <= tol)


@pytest.mark.parametrize("weight", [1.0, 1e285])
def test_sup_search_on_a_far_window_with_sparse_floats(weight):
    """Floats near 1e15 are 1/8 apart, so the window (1e15, 1e15 + 1) holds
    nine of them: its graded grid starts with cells of zero width, and the
    split stops at cells with no float inside.  With m = 1e300 the rates are
    tiny (b = 1) or about 1e-15 (b = 1e285).  The search ends in its
    bracket, with no warning (RuntimeWarning is an error in this suite)."""
    g = cycle(8, m=1e300, b=weight)
    sd = eigendecompose(g)
    d_idx = g.subset_indices(["0", "2", "4", "6"])
    C = sd.coefficients(np.random.default_rng(8).standard_normal((8, 3)))
    re = RestrictedEvolution(sd, d_idx, C)
    a, b = np.full(3, 1e15), np.full(3, 1e15 + 1.0)
    got = re.lr_norms(a, b, math.inf)
    sampled = _sampled_max(sd, d_idx, C, lambda j: 1e15 + 0.125 * np.arange(9))  # every float
    tol = _LR_REL_TOL * re.final_norms(a)
    assert np.all(got <= sampled * (1.0 + 1e-12))
    assert np.all(got >= sampled - tol)
    assert np.all(np.abs(got - _bisected_sup(re, a, b)) <= tol)


def test_sup_search_on_a_corpus_size_graph_takes_at_most_six_waves(monkeypatch):
    """On a 40-vertex graph drawn like the acceptance corpus's, the deltas
    on the unobserved vertices reach D late, so their sup sits inside the
    window.  Each column, alone or in one batch, is certified in at most 6
    waves of ``_cell_bounds``; splitting in two per wave takes 11 or more."""
    rng = np.random.default_rng(3)
    g = random_connected_graph(rng, 40)
    D = grow_dense_subset(g, rng)
    sd = eigendecompose(g)
    d_idx = g.subset_indices(D)
    omega = np.setdiff1d(np.arange(g.n), d_idx)
    F = np.zeros((g.n, len(omega)))
    F[omega, np.arange(len(omega))] = 1.0
    C = sd.coefficients(F)
    waves = _counting_waves(monkeypatch)
    for wa, wb in [(0.0, 0.5), (0.25, 0.5), (0.0, 1.0), (0.5, 1.0), (0.0, 5.0), (2.5, 5.0)]:
        a, b = np.full(C.shape[1], wa), np.full(C.shape[1], wb)
        for j in range(C.shape[1]):
            waves.clear()
            RestrictedEvolution(sd, d_idx, C[:, [j]])._sup_norms(a[:1], b[:1])
            assert len(waves) <= 6, (wa, wb, j, waves)
        re = RestrictedEvolution(sd, d_idx, C)
        waves.clear()
        re._sup_norms(a, b)
        assert len(waves) <= 6, (wa, wb, waves)
        bisected = []
        _bisected_sup(re, a, b, bisected)
        assert len(bisected) >= 11, (wa, wb, bisected)


def _forward_cell_bounds(re, lo, h, cols):
    """The one-sided cell bound, a reference for ``_cell_bounds``: the
    Taylor expansion from each cell's left end alone, max(g(lo),
    ||u_lo - h u1_lo|| + rem(h)), with both remainders formed at lo."""
    lam = re.lam[:, None]
    X = decay(re.lam, lo) * re.C[:, cols]
    u0 = re.W @ X
    hLX = h * (lam * X)
    end = np.linalg.norm(u0 - re.W @ hLX, axis=0)
    rem = 0.5 * np.linalg.norm(h * (lam * hLX), axis=0)
    by_group = 0.0
    for idx, R, top, spread in re._groups:
        Xg, top = X[idx], top[:, None]
        seen = np.linalg.norm(R @ Xg, axis=1)
        by_group += 0.5 * np.sum(h * (top * (h * (top * seen))), axis=0)
        by_group += h * (spread @ np.linalg.norm(Xg, axis=1))
    return np.maximum(np.linalg.norm(u0, axis=0), end + np.fmin(rem, by_group))


@st.composite
def _cell_cases(draw):
    """An evolution of three states and cells on a window per state: the 32
    cells of its graded grid, some split 8 ways, in order (each right end
    is the next left end, and the second window starts where the first
    ends, in another column), then random cells that share no end."""
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    kind = draw(st.sampled_from(["random", "stiff", "unseen", "far"]))
    if kind == "unseen":  # an eigenfunction that vanishes on D, a state off D, a blend
        g = cycle(8)
        d_idx = np.array([0, 2, 4, 6])
        F = np.zeros((8, 3))
        F[:, 0] = np.sin(0.5 * np.pi * np.arange(8))
        F[:, 1] = np.sin(0.25 * np.pi * np.arange(8)) * (np.arange(8) % 2)
        F[:, 2] = F[:, 0] + 1e-9 * rng.standard_normal(8)
    else:
        m_range = (1e-3, 1e-2) if kind == "stiff" else (0.5, 2.0)
        b_range = (1.0, 50.0) if kind == "stiff" else (0.5, 2.0)
        g = random_connected_graph(rng, int(rng.integers(2, 11)), b_range=b_range, m_range=m_range)
        d_idx = np.sort(rng.choice(g.n, size=int(rng.integers(1, g.n + 1)), replace=False))
        F = rng.standard_normal((g.n, 3))
        F[:, 0] = 0.0
        F[rng.integers(g.n), 0] = 1.0  # a delta, which spreads from where it starts
    sd = eigendecompose(g)
    a = draw(st.sampled_from([50.0, 1e4] if kind == "far" else [0.0, 1e-3, 0.5]))
    b = a + draw(st.sampled_from([0.01, 1.0, 5.0]))
    lo, hi, cols = [], [], []
    for j, (wa, wb) in enumerate([(a, b), (b, 2.0 * b - a), (a, b)]):
        grid = _graded_grid(wa, wb, float(sd.eigenvalues[-1]))
        for left, right in zip(grid[:-1], grid[1:]):
            ends = np.linspace(left, right, 9) if rng.uniform() < 0.25 else np.array([left, right])
            ends[-1] = right
            lo.extend(ends[:-1])
            hi.extend(ends[1:])
            cols.extend([j] * (len(ends) - 1))
    lo, hi, cols = np.array(lo), np.array(hi), np.array(cols)
    loose = rng.uniform(a, b, size=12)
    lo = np.concatenate([lo, loose])
    hi = np.concatenate([hi, np.minimum(loose + rng.uniform(0.0, 0.3, size=12) * (b - a), b)])
    cols = np.concatenate([cols, rng.integers(0, 3, size=12)])
    return RestrictedEvolution(sd, d_idx, sd.coefficients(F)), lo, hi, cols


@settings(max_examples=60, deadline=None)
@given(_cell_cases())
def test_two_sided_cell_bound_holds_and_is_at_most_the_one_sided_bound(case):
    """On random and stiff weighted graphs, for states D does not see and on
    far windows, the bound of each cell is at least g at 65 times spread
    over the cell, ends included, and at most the Taylor bound from the
    left end alone (both to rounding), and g(lo) is g at lo."""
    re, lo, hi, cols = case
    h = hi - lo
    g0, ub = re._cell_bounds(lo, h, cols)
    forward = _forward_cell_bounds(re, lo, h, cols)
    size = RestrictedEvolution(re.sd, re.d_indices, re.C[:, cols]).final_norms(lo)  # ||S_lo f||
    slack = 1e-12 * ub + 1e-14 * size
    for frac in np.linspace(0.0, 1.0, 65):
        t = np.where(frac == 1.0, hi, lo + frac * h)
        got = np.linalg.norm(re.W @ (decay(re.lam, t) * re.C[:, cols]), axis=0)
        assert np.all(got <= ub + slack), (frac, got - ub)
    assert np.all((ub <= forward + slack) | np.isnan(forward)), ub - forward
    want = np.linalg.norm(re.W @ (decay(re.lam, lo) * re.C[:, cols]), axis=0)
    np.testing.assert_allclose(g0, want, rtol=1e-13, atol=1e-15 * size.max())


@pytest.mark.parametrize("observed", [6, 7])
def test_sup_search_certifies_a_peak_at_the_right_end_in_two_waves(monkeypatch, observed):
    """On cycle-8 with D = {0, ..., observed - 1}, heat from the delta at
    vertex ``observed`` keeps flowing into D over (0, 1), so g peaks at
    b = 1.  The expansion from b certifies the last cells, so the search
    takes at most 2 waves of ``_cell_bounds``; from the left ends alone it
    took 5."""
    g = cycle(8)
    sd = eigendecompose(g)
    f = np.zeros(8)
    f[observed] = 1.0
    re = RestrictedEvolution(sd, np.arange(observed), sd.coefficients(f))
    waves = _counting_waves(monkeypatch)
    best, at = re._sup_norms(np.zeros(1), np.ones(1))
    assert len(waves) <= 2, waves
    assert at[0] == 1.0
    assert best[0] == re.norms([1.0])[0, 0]


def _torus_odd_deltas():
    """torus-16x16 with the even vertices observed, and the coefficients of
    the deltas at its 128 odd vertices: the states the verifier's screen
    leaves at T = 1, delta = 0, r = inf."""
    g = build_family("torus", {"p": 16, "q": 16}).graph
    sd = eigendecompose(g)
    d_idx = g.subset_indices(parity_subset(g, "even"))
    odd = np.setdiff1d(np.arange(g.n), d_idx)
    F = np.zeros((g.n, len(odd)))
    F[odd, np.arange(len(odd))] = 1.0
    return sd, d_idx, sd.coefficients(F)


def test_sup_search_on_torus_16x16_forms_no_wave_over_one_chunk(monkeypatch):
    """The sup search over the 128 odd-vertex deltas of torus-16x16 on
    (0, 1), at n = 256, runs in waves of about 1000 cells: there a wider
    split would only add cells, so every wave formed by splitting fits one
    chunk of ``_cell_bounds`` (the first wave is the 32-cell grids of all
    columns), and the search takes no more waves than splitting in two
    does."""
    sd, d_idx, C = _torus_odd_deltas()
    re = RestrictedEvolution(sd, d_idx, C)
    a, b = np.zeros(128), np.ones(128)
    bisected = []
    _bisected_sup(re, a, b, bisected)
    waves = _counting_waves(monkeypatch)
    re._sup_norms(a, b)
    assert waves[0] == 32 * 128
    assert max(waves[1:]) <= _cell_chunk(256), waves
    assert len(waves) <= len(bisected)


@pytest.mark.parametrize("window", [(0.0, 1.0), (0.0, 0.01), (0.5, 1.0)])
def test_sup_search_returns_the_time_of_its_best_sample(monkeypatch, window):
    """Each column's time lies in its window, and g was sampled there at the
    returned value, bit for bit: at b by the first evaluation, or at the
    left end of a cell.  The columns are the torus deltas, whose sup lies
    inside (0, 1) and at the right end of (0, 0.01), and random states."""
    sd, d_idx, C = _torus_odd_deltas()
    C = np.concatenate([C[:, :8], np.random.default_rng(2).standard_normal((256, 4))], axis=1)
    re = RestrictedEvolution(sd, d_idx, C)
    a, b = np.full(12, window[0]), np.full(12, window[1])
    samples = []
    real_bounds, real_norms = RestrictedEvolution._cell_bounds, RestrictedEvolution.norms

    def bounds(self, lo, h, cols):
        g0, ub = real_bounds(self, lo, h, cols)
        samples.extend(zip(cols.tolist(), lo.tolist(), g0.tolist()))
        return g0, ub

    def norms(self, ts):
        out = real_norms(self, ts)
        samples.extend((j, t, v) for j, (t, v) in enumerate(zip(ts[0].tolist(), out[0].tolist())))
        return out

    monkeypatch.setattr(RestrictedEvolution, "_cell_bounds", bounds)
    monkeypatch.setattr(RestrictedEvolution, "norms", norms)
    best, at = re._sup_norms(a, b)
    assert np.all((a <= at) & (at <= b))
    for j in range(12):
        mine = [(t, v) for col, t, v in samples if col == j]
        assert best[j] == max(v for _, v in mine)
        assert (at[j], best[j]) in mine
    if window == (0.0, 0.01):
        assert np.all(at[:8] == b[:8])


def test_sup_search_drops_the_subcells_rounding_collapses(monkeypatch):
    """On a window of 101 floats the 32 grid cells span 3 or 4 floats.  With
    every bound overflowed (+inf exceeds any tolerance), each cell that has
    a float inside splits 8 ways by rounds of midpoints, and the subcells
    that rounding collapses to zero width are dropped: the next wave tiles
    the split cells with cells of positive width only.  The search ends
    when no cell has a float inside, and has then sampled every float."""
    sd = eigendecompose(cycle(8))
    d_idx = np.array([0, 2, 4, 6])
    C = sd.coefficients(np.random.default_rng(4).standard_normal((8, 2)))
    re = RestrictedEvolution(sd, d_idx, C)
    a = np.full(2, 1.0)
    b = a + 100 * np.spacing(1.0)
    waves = []
    real = RestrictedEvolution._cell_bounds

    def overflowed(self, lo, h, cols):
        waves.append((lo.copy(), lo + h, cols.copy()))
        g0, _ub = real(self, lo, h, cols)
        return g0, np.full(len(lo), np.inf)

    monkeypatch.setattr(RestrictedEvolution, "_cell_bounds", overflowed)
    got, _at = re._sup_norms(a, b)
    dropped = 0
    for (lo, hi, cols), (nlo, nhi, ncols) in zip(waves, waves[1:]):
        mid = 0.5 * (lo + hi)
        split = (lo < mid) & (mid < hi)
        assert np.all(nlo < nhi)
        for j in range(2):
            parent = np.sort(np.concatenate([lo[split & (cols == j)], hi[split & (cols == j)]]))
            child = np.sort(np.concatenate([nlo[ncols == j], nhi[ncols == j]]))
            # each split cell is tiled: its ends and the inner ends, each twice
            assert np.all(np.isin(parent, child))
            assert np.sum(nhi[ncols == j] - nlo[ncols == j]) == np.sum(
                hi[split & (cols == j)] - lo[split & (cols == j)]
            )
        dropped += 8 * int(split.sum()) - len(nlo)
    # 2 x 32 cells of 3 or 4 floats split into 512 subcells: 200 hold a float step
    assert [len(lo) for lo, _, _ in waves] == [64, 200] and dropped == 312
    lo, hi, _ = waves[-1]
    assert np.all((lo == hi) | (np.nextafter(lo, np.inf) == hi))
    every_float = lambda j: 1.0 + np.spacing(1.0) * np.arange(101)  # noqa: E731
    np.testing.assert_array_equal(got, _sampled_max(sd, d_idx, C, every_float))


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


def _vector_integrand(ts):
    return np.stack([1.0 / (1.0 + ts * ts), ts * ts * ts - 2.0 * ts, np.sqrt(ts + 0.01)], axis=1)


def _step_at_a_third(ts):
    return (ts > 1e6 + 1.0 / 3.0) * 1.0


def _narrow_step_and_wide_bump(ts):
    """Column 0 steps at a third of [1e6, 1e6 + 1e-6], column 1 is
    1 / (1 + t^2) on [0, 1e3]."""
    return np.where([True, False], (ts > 1e6 + 1e-6 / 3.0) * 1.0, 1.0 / (1.0 + ts * ts))


def test_simpson_totals_are_pinned_bit_for_bit():
    """Adaptive Simpson totals on fixed integrands built from +, *, / and
    sqrt alone, which IEEE arithmetic rounds the same everywhere: a shared
    window with a vector integrand, tested as a whole and per column; one
    window per column, where accepted entries reach the integrand as nan;
    and a step that refines until its panel is too narrow to split, alone
    and in a column beside a window 1e9 times wider, so the narrow column
    is tested as its own window sets, not as the widest one would."""
    from graphheat.quadrature import adaptive_simpson

    nan_seen = []

    def per_column(ts):
        nan_seen.append(bool(np.isnan(ts).any()))
        return 1.0 / (1.0 + np.array([1.0, 4.0, 9.0]) * ts * ts) + np.sqrt(ts + 0.01)

    got = {
        "vector": adaptive_simpson(_vector_integrand, 0.0, 2.0),
        "vector, per column": adaptive_simpson(_vector_integrand, 0.0, 2.0, norm=np.abs),
        "windows": adaptive_simpson(
            per_column, np.array([0.0, 0.25, 1.0]), np.array([1.0, 2.0, 1.5]), norm=np.abs
        ),
        "too narrow": adaptive_simpson(_step_at_a_third, 1e6, 1e6 + 1.0),
        "too narrow, per column": adaptive_simpson(
            _narrow_step_and_wide_bump, np.array([1e6, 0.0]), np.array([1e6 + 1e-6, 1e3]),
            norm=np.abs,
        ),
    }
    want = {
        "vector": ["0x1.1b6e192ebbd3fp+0", "0x0.0p+0", "0x1.e62c271043ce4p+0"],
        "vector, per column": ["0x1.1b6e192ebbd2bp+0", "0x0.0p+0", "0x1.e62c271043c97p+0"],
        "windows": ["0x1.761fd3621e9b7p+0", "0x1.1f0994dd34a25p+1", "0x1.307a1c02b91dcp-1"],
        "too narrow": ["0x1.5555554888889p-1"],
        "too narrow, per column": ["0x1.651eeeeeeeeefp-21", "0x1.91de2c0eb7191p+0"],
    }
    assert {k: [float(x).hex() for x in np.atleast_1d(v)] for k, v in got.items()} == want
    assert any(nan_seen)
    # the step's panel is accepted as too narrow at depth 26, not before
    with pytest.raises(QuadratureNonConvergence) as depth:
        adaptive_simpson(_step_at_a_third, 1e6, 1e6 + 1.0, max_depth=25)
    assert str(depth.value) == "Simpson refinement exceeded depth 25 on [1e+06, 1e+06]"


def test_simpson_refusals_keep_their_messages():
    from graphheat.quadrature import adaptive_simpson

    with pytest.raises(QuadratureNonConvergence) as depth:
        adaptive_simpson(
            _step_at_a_third, np.array([1e6, 0.0]), np.array([1e6 + 1.0, 1.0]),
            max_depth=20, norm=np.abs,
        )
    assert str(depth.value) == "Simpson refinement exceeded depth 20 on [1e+06, 1e+06] (column 0)"
    rng = np.random.default_rng(0)
    with pytest.raises(QuadratureNonConvergence) as budget:
        adaptive_simpson(
            lambda ts: rng.standard_normal((len(ts), 100_000)), 0.0, 1.0, norm=np.abs
        )
    assert str(budget.value) == (
        "Simpson refinement at depth 4 would evaluate 3200000 entries in one wave, "
        "over the budget of 2000000"
    )


@pytest.mark.parametrize(
    "left, right",
    [
        (np.arange(5.0), -np.arange(5.0)),
        (np.arange(12.0).reshape(4, 3), np.ones((4, 3))),
        (np.array([True, False, True]), np.array([False, False, True])),
        (np.arange(4, dtype=np.int32), np.arange(4, dtype=np.int32)),
    ],
)
def test_pairs_interleaves_like_stacking(left, right):
    """The Simpson waves interleave per-panel arrays into a preallocated
    array; it equals the ``np.stack`` interleave, dtype included."""
    from graphheat.quadrature import _pairs

    want = np.stack([left, right], axis=1).reshape((-1,) + left.shape[1:])
    got = _pairs(left, right)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def test_restricted_evolutions_share_group_factors_per_subset():
    """The eigen-group QR factors depend on the spectrum and D alone: two
    evolutions on one (spectrum, D) share one copy, another D gets its own,
    and the shared copy equals what a fresh decomposition computes."""
    g = random_connected_graph(np.random.default_rng(4), 12)
    sd = eigendecompose(g)
    d_idx, other = g.subset_indices(["0", "3", "7"]), g.subset_indices(["0", "3"])
    rng = np.random.default_rng(5)
    first = RestrictedEvolution(sd, d_idx, rng.standard_normal((g.n, 4)))
    second = RestrictedEvolution(sd, d_idx.copy(), rng.standard_normal(g.n))
    assert first._groups is second._groups
    assert RestrictedEvolution(sd, other, first.C)._groups is not first._groups
    fresh = RestrictedEvolution(eigendecompose(g), d_idx, first.C)._groups
    for got, want in zip(first._groups, fresh, strict=True):
        for x, y in zip(got, want, strict=True):
            np.testing.assert_array_equal(x, y)


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
            terms = _window_terms(re, [(a, b)], re.final_norms)[0]
            grid_lo, grid_hi = _grid_bounds(re, a, b, np.array([r]))
            for name, (lo, hi) in (
                ("closed form", _closed_form_bounds(terms, r)),
                ("grid", (grid_lo[0], grid_hi[0])),
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
@given(st.integers(0, 10_000), st.sampled_from([1, 120, 300, 2**18, 2_000_000]))
def test_shared_time_norms_match_a_per_time_reference(seed, block_elements):
    """On shared times, ``norms`` scales the batch per time when the batch is
    at most |D| wide and the rows of W when it is wider (and one time's copy
    of W fits half the block budget); both orientations, in one or several
    blocks of times and columns, give ||W (e^{-lam t} c)|| per
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
        re = RestrictedEvolution(sd, d_idx, C)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "_BLOCK_ELEMENTS", block_elements)
            got = re.norms(ts)
            per_entry = re.norms(np.repeat(ts[:, None], width, axis=1))
        with np.errstate(over="ignore"):  # an overflowing lam t gives e^{-inf} = 0
            decays = [np.exp(-sd.eigenvalues * t)[:, None] for t in ts]
        want = np.array([np.linalg.norm(re.W @ (e * C), axis=0) for e in decays])
        size = np.array([np.linalg.norm(np.abs(re.W) @ (e * np.abs(C)), axis=0) for e in decays])
        assert got.shape == (len(ts), width)
        assert np.all(np.abs(got - want) <= 1e-13 * size), np.abs(got - want) / size
        assert np.all(np.abs(got - per_entry) <= 1e-13 * size), np.abs(got - per_entry) / size


# ---------------------------------------------------------------------------
# evaluation blocks


def _with_budget(mp, elements):
    """Set the evaluation budget in every module that reads it."""
    import graphheat.graph as graph
    import graphheat.spectral as spectral

    for module in (graph, spectral):
        mp.setattr(module, "_BLOCK_ELEMENTS", elements)


@pytest.mark.parametrize(
    "total, width", [(0, 5), (1, 5), (2, 1), (3, 2), (7, 2), (7, 3), (9, 4), (5, 10)]
)
def test_blocks_cover_the_range_and_leave_no_index_alone(total, width):
    blocks = _blocks(total, width)
    assert [i for b in blocks for i in range(total)[b]] == list(range(total))
    assert all(b.stop - b.start <= max(2, width) + 1 for b in blocks)
    assert total == 1 or all(b.stop - b.start >= 2 for b in blocks)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([1, 13, 40]))
def test_blocked_sums_and_minima_give_the_bits_of_one_block(seed, block_elements):
    """``final_norms`` sums each column over the modes, and ``max_ball_volume``
    each ball over the vertices, a block of columns or rows at a time; the
    radii take their minima by blocks of rows.  With any budget each gives
    the bits of one block, for one column (summed pairwise by numpy) and for
    many, one T or one per column, and a one-column batch at several T."""
    sd = small_sd(seed, n_max=12)
    g = sd.graph
    rng = np.random.default_rng(seed + 5)
    d_idx = np.sort(rng.choice(g.n, size=int(rng.integers(1, g.n)), replace=False))
    D = [g.vertex_ids[i] for i in d_idx]
    omega = [v for v in g.vertex_ids if v not in set(D)]

    def evaluate():
        out = []
        for width in (1, 2, 3, 11):
            C = np.random.default_rng(width).standard_normal((g.n, width))
            re = RestrictedEvolution(sd, d_idx, C)
            out += [re.final_norms(0.5), re.final_norms(np.linspace(0.0, 2.0, width))]
            if width == 1:
                out.append(re.final_norms(np.linspace(0.0, 2.0, 5)))
        for kind in MetricKind:
            out.append(covering_radius(g, kind, D, exact=True))
            out.append(inradius(g, kind, omega, exact=True))
            out += [max_ball_volume(g, kind, r) for r in (0, 1, 1.5, 2.75, Fraction(7, 3))]
        return out

    with pytest.MonkeyPatch.context() as mp:
        _with_budget(mp, 2**40)
        whole = evaluate()
        _with_budget(mp, block_elements)
        blocked = evaluate()
    for want, got in zip(whole, blocked):
        assert np.array_equal(want, got), (want, got)


def _kernel_by_formula(sd, d_idx, a, w):
    """The restricted Gramian kernel formed as one n x n expression."""
    lam = sd.eigenvalues
    W = np.sqrt(sd.graph.m[d_idx])[:, None] * sd.eigenvectors[d_idx, :]
    S = lam[:, None] + lam[None, :]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        F = decay(S, a) * (-np.expm1(-S * w)) / S
    F[S == 0.0] = w
    return (W.T @ W) * F


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([1, 13, 2**40]))
def test_gramian_kernel_by_row_blocks_has_the_bits_of_the_formula(seed, block_elements):
    sd = small_sd(seed, n_max=12)
    rng = np.random.default_rng(seed + 9)
    d_idx = np.sort(rng.choice(sd.n, size=int(rng.integers(1, sd.n + 1)), replace=False))
    with pytest.MonkeyPatch.context() as mp:
        _with_budget(mp, block_elements)
        for a, w in [(0.0, 1.0), (0.25, 1.5), (1e300, 1e300), (0.0, 1e-300)]:
            assert np.array_equal(
                _gramian_kernel(sd, d_idx, a, w), _kernel_by_formula(sd, d_idx, a, w)
            ), (a, w)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("m", [1.0, 1e-300, 1e300])
def test_eigendecompose_hands_eigh_the_bits_of_the_formula(seed, m):
    """The symmetrized Laplacian is built in place, and ``eigh`` receives
    the bits, signs of zero included, of 0.5 (S + S^T) with
    S = m^{-1/2} (diag(b 1) - b) m^{-1/2}; the eigenvectors are scaled back
    in place to the bits of m^{-1/2} times ``eigh``'s."""
    rng = np.random.default_rng(seed)
    base = random_connected_graph(rng, int(rng.integers(2, 14)))
    # a zero weight on a listed edge, and a stiff measure
    vertices = [(v, m * float(x)) for v, x in zip(base.vertex_ids, base.m)]
    edges = [
        (base.vertex_ids[i], base.vertex_ids[j], float(base.weights[i, j]))
        for i in range(base.n) for j in range(i + 1, base.n) if base.weights[i, j] > 0.0
    ]
    if seed % 2 and base.n > 2:
        edges.append((base.vertex_ids[0], base.vertex_ids[-1], 0.0))
    g = build_graph(vertices, edges)
    inv = 1.0 / np.sqrt(g.m)
    with np.errstate(over="ignore"):
        lap = np.diag(g.weights.sum(axis=1)) - g.weights
        sym = inv[:, None] * lap * inv[None, :]
        sym = 0.5 * (sym + sym.T)
    seen = []
    real_eigh = np.linalg.eigh
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigh", lambda a: seen.append(a.copy()) or real_eigh(a))
        sd = eigendecompose(g)
    assert np.array_equal(seen[0], sym) and np.array_equal(np.signbit(seen[0]), np.signbit(sym))
    assert np.array_equal(sd.eigenvectors, inv[:, None] * real_eigh(sym)[1])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([1, 50]))
def test_blocked_products_match_one_block_to_rounding(seed, block_elements):
    """``rate_norms``, ``l2_time_integral``, ``_entry_norms`` and
    ``_cell_bounds`` multiply matrices a block at a time, whose products
    may round differently: against one block they agree to 1e-13 of the
    size of the terms summed."""
    sd = small_sd(seed, n_max=10)
    g = sd.graph
    rng = np.random.default_rng(seed + 21)
    d_idx = np.sort(rng.choice(g.n, size=int(rng.integers(1, g.n + 1)), replace=False))
    ts = np.r_[0.0, np.sort(rng.uniform(0.0, 3.0, size=5))]
    for width in (1, 3, 12):
        C = rng.standard_normal((g.n, width))
        re = RestrictedEvolution(sd, d_idx, C)
        entry_ts = np.where(rng.uniform(size=(len(ts), width)) < 0.2, np.nan, ts[:, None])
        lo = rng.uniform(0.0, 2.0, size=4 * width)
        h = rng.uniform(0.0, 0.5, size=4 * width)
        cols = np.repeat(np.arange(width), 4)

        def evaluate():
            return (
                re.rate_norms(ts),
                re.l2_time_integral(0.25, 1.5),
                re.norms(entry_ts),
                *re._cell_bounds(lo, h, cols),
            )

        with pytest.MonkeyPatch.context() as mp:
            _with_budget(mp, 2**40)
            whole = evaluate()
            _with_budget(mp, block_elements)
            blocked = evaluate()
        aW = np.abs(re.W)
        M = np.abs(_gramian_kernel(sd, d_idx, 0.25, 1.25))
        entry_size = np.full(entry_ts.shape, np.nan)
        for (i, j), t in np.ndenumerate(entry_ts):
            if not np.isnan(t):
                entry_size[i, j] = np.linalg.norm(aW @ (decay(sd.eigenvalues, t) * np.abs(C[:, j])))
        X = np.abs(decay(sd.eigenvalues, lo) * C[:, cols])
        cell_size = np.linalg.norm(aW @ X, axis=0)
        sizes = (
            whole[0],
            np.sum(np.abs(C) * (M @ np.abs(C)), axis=0),
            entry_size,
            cell_size,
            cell_size + whole[4],
        )
        for want, got, size in zip(whole, blocked, sizes):
            assert np.array_equal(np.isnan(want), np.isnan(got))
            ok = ~np.isnan(want)
            assert np.all(np.abs(got - want)[ok] <= 1e-13 * size[ok]), np.abs(got - want)[ok]


def test_norms_on_a_479_column_grid_hold_one_block_of_temporaries():
    """torus-16x16's verifier grids 479 states on the 33 times of the graded
    grid at r = 1 (n = 256, |D| = 128).  ``norms`` holds one block of
    temporaries (2 MB) beside its output; one chunk of 21 times held a
    5.5 MB scaled factor and a 10.3 MB product before the blocks."""
    g = build_family("torus", {"p": 16, "q": 16}).graph
    sd = eigendecompose(g)
    d_idx = g.subset_indices(parity_subset(g, "even"))
    C = np.ascontiguousarray(_phi_batch(sd, 1000, 1)[0][:, g.n : g.n + 479])
    re = RestrictedEvolution(sd, d_idx, C)
    ts = _graded_grid(0.0, 1.0, float(sd.eigenvalues[-1]))
    tracemalloc.start()
    try:
        out = re.norms(ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (33, 479)
    assert peak <= 8 * _BLOCK_ELEMENTS + 2 * out.nbytes, peak
