"""Uncertainty-principle bounds, weak observability, and exact constants.

Geometric quantities (inradius, ball volume, covering radius) are taken in
the length metric, where the weak observability estimate and the low-energy
uncertainty principle hold.  ``verify_weak_obs`` screens large input
batches with a vectorized norm evaluator and then re-computes every
suspicious or extremal slack with the certified time norm
``time_lr_norm``, one batched call per constant set, so reported minima
always come from the certified path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .control import gramian
from .errors import EmptySubset, FullSubset, NotRelativelyDense, ValidationError
from .graph import (
    MetricKind,
    WeightedGraph,
    _as_float,
    covering_radius,
    inradius,
    max_ball_volume,
)
from .quadrature import _legendre_lobatto, _leggauss, graded_edges, graded_gauss_nodes
from .spectral import (
    EnergyInterval,
    RestrictedEvolution,
    SpectralDecomposition,
    op_norm_H_plus_1,
    time_lr_norm,
)

_SHARP_SINGULAR_CUTOFF = 1e-12
_OBS_SINGULAR_REL = 1e-12
# Certified recheck of a screened constant set: every slack below this
# margin (relative to K + alpha + 1), plus the lowest few, is recomputed.
_RECHECK_MARGIN_REL = 1e-7
_RECHECK_BOTTOM = 4


def _omega_geometry(g: WeightedGraph, D: Sequence[str]) -> tuple[float, float]:
    """(Inr(Omega), vol(Inr(Omega))) in the length metric, Omega = X \\ D."""
    dset = set(D)
    omega = [v for v in g.vertex_ids if v not in dset]
    inr_exact = inradius(g, MetricKind.LENGTH, omega, exact=True)
    vol = max_ball_volume(g, MetricKind.LENGTH, inr_exact)
    return _as_float(inr_exact), vol


@dataclass(frozen=True)
class UPReport:
    """Sharp versus a-priori constants of the low-energy uncertainty principle."""

    interval: EnergyInterval
    threshold: float
    applicable: bool
    paper_bound: float | None
    remark_threshold: float
    remark_applicable: bool
    remark_bound: float | None
    sharp_constant: float
    inradius: float
    ball_volume: float


def up_sharp_constant(
    sd: SpectralDecomposition, D: Sequence[str], interval: EnergyInterval
) -> float:
    """Smallest c with P_I <= c P_I 1_D P_I as quadratic forms.

    Equals 1/mu_min for the compression of multiplication by 1_D to the
    range of P_I; +inf when some P_I-function vanishes on D (mu_min below
    the singularity cutoff), 0 by convention when P_I = 0.
    """
    d_idx = sd.graph.subset_indices(D)
    if len(d_idx) == 0:
        raise EmptySubset("sharp constant needs a nonempty subset")
    sel = np.array([interval.contains(float(lv)) for lv in sd.eigenvalues])
    if not sel.any():
        return 0.0
    mD = sd.graph.m[d_idx]
    block = np.sqrt(mD)[:, None] * sd.eigenvectors[np.ix_(d_idx, np.nonzero(sel)[0])]
    mu = np.linalg.eigvalsh(block.T @ block)
    if mu[0] <= _SHARP_SINGULAR_CUTOFF:
        return math.inf
    return 1.0 / float(mu[0])


def up_paper_bound(
    g: WeightedGraph,
    sd: SpectralDecomposition,
    D: Sequence[str],
    interval: EnergyInterval,
) -> UPReport:
    """A-priori low-energy bounds next to the sharp constant.

    The primary bound 16 ||H+1||^4 / (threshold - sup I)^2 needs
    sup I < threshold = (Inr(Omega) vol(Inr(Omega)))^{-1}; the alternative
    bound 42 vol(Inr(Omega)) / inf m needs the stricter energy condition
    sup I <= inf m / (42 Inr(Omega) vol(Inr(Omega))^2).
    """
    return _up_report(g, sd, D, interval, _up_geometry(g, D))


def _up_geometry(g: WeightedGraph, D: Sequence[str]) -> tuple[float, float]:
    if len(D) == 0:
        raise EmptySubset("uncertainty bounds need a nonempty subset")
    if set(D) >= set(g.vertex_ids):
        raise FullSubset("uncertainty bounds need a proper subset")
    return _omega_geometry(g, D)


def _up_report(
    g: WeightedGraph,
    sd: SpectralDecomposition,
    D: Sequence[str],
    interval: EnergyInterval,
    geometry: tuple[float, float],
) -> UPReport:
    inr, vol = geometry
    threshold = 1.0 / (inr * vol)
    sup_i = interval.sup
    applicable = sup_i < threshold
    paper = (
        16.0 * op_norm_H_plus_1(sd) ** 4 / (threshold - sup_i) ** 2
        if applicable
        else None
    )
    inf_m = float(g.m.min())
    remark_threshold = inf_m / (42.0 * inr * vol**2)
    remark_applicable = sup_i <= remark_threshold
    remark = 42.0 * vol / inf_m if remark_applicable else None
    return UPReport(
        interval=interval,
        threshold=threshold,
        applicable=applicable,
        paper_bound=paper,
        remark_threshold=remark_threshold,
        remark_applicable=remark_applicable,
        remark_bound=remark,
        sharp_constant=up_sharp_constant(sd, D, interval),
        inradius=inr,
        ball_volume=vol,
    )


def up_sweep(
    g: WeightedGraph, sd: SpectralDecomposition, D: Sequence[str]
) -> list[UPReport]:
    """Reports for sup I at every eigenvalue and every midpoint between
    consecutive distinct eigenvalues (P_I is piecewise constant in sup I).
    The Omega-geometry does not depend on I and is computed once."""
    geometry = _up_geometry(g, D)
    reps = [lam for lam, _ in sd.eigenvalue_groups()]
    sups = []
    for k, lam in enumerate(reps):
        sups.append(lam)
        if k + 1 < len(reps):
            sups.append(0.5 * (lam + reps[k + 1]))
    return [_up_report(g, sd, D, EnergyInterval(hi=s), geometry) for s in sups]


@dataclass(frozen=True)
class WeakObsConstants:
    """Constants of the weak observability estimate on (delta T, T)."""

    lam: float
    kappa: float
    K: float
    alpha: float
    T: float
    delta: float
    r: float
    inradius: float
    ball_volume: float


def weak_obs_constants(
    g: WeightedGraph,
    sd: SpectralDecomposition,
    D: Sequence[str],
    T: float,
    delta: float,
    r: float,
) -> WeakObsConstants:
    """Observability constants from the Omega-geometry.

    2 lam = (Inr(Omega) vol(Inr(Omega)))^{-1}, kappa = 8 ||H+1||^2 / (2 lam),
    K = kappa / ((1-delta) T)^{1/r}, alpha = (kappa+1) e^{-delta lam T}.
    For D = X the estimate degenerates to K = 1/((1-delta) T)^{1/r} and
    alpha = 0 (pure contraction), with lam = inf and kappa = 0 by convention.
    """
    if len(D) == 0:
        raise EmptySubset("observability needs a nonempty observation set")
    if T <= 0:
        raise ValidationError(f"final time must be positive, got {T}")
    if not (0.0 <= delta < 1.0):
        raise ValidationError(f"delta must lie in [0, 1), got {delta}")
    if not (r >= 1.0):
        raise ValidationError(f"norm index must lie in [1, inf], got {r}")
    window_factor = 1.0 if math.isinf(r) else ((1.0 - delta) * T) ** (1.0 / r)

    if set(D) >= set(g.vertex_ids):
        return WeakObsConstants(
            lam=math.inf,
            kappa=0.0,
            K=1.0 / window_factor,
            alpha=0.0,
            T=float(T),
            delta=float(delta),
            r=float(r),
            inradius=0.0,
            ball_volume=0.0,
        )

    if math.isinf(covering_radius(g, MetricKind.LENGTH, D)):
        raise NotRelativelyDense(
            "observation set has a length-metric covering radius that is infinite"
            " or beyond the float range"
        )
    inr, vol = _omega_geometry(g, D)
    lam = 1.0 / (2.0 * inr * vol)
    kappa = 8.0 * op_norm_H_plus_1(sd) ** 2 * inr * vol
    return WeakObsConstants(
        lam=lam,
        kappa=kappa,
        K=kappa / window_factor,
        alpha=(kappa + 1.0) * math.exp(-delta * lam * T),
        T=float(T),
        delta=float(delta),
        r=float(r),
        inradius=inr,
        ball_volume=vol,
    )


@dataclass(frozen=True)
class WeakObsVerification:
    """Minimum slack of the estimate over a batch of unit initial states."""

    constants: WeakObsConstants
    min_slack: float
    worst_label: str
    worst_phi0: np.ndarray
    n_inputs: int


def _phi_batch(
    sd: SpectralDecomposition, samples: int, seed: int
) -> tuple[np.ndarray, list[str]]:
    """Spectral coefficients of the test battery: all eigenvectors, all
    Dirac deltas, and seeded random unit vectors (unit m-norm each)."""
    n = sd.n
    eig = np.eye(n)
    deltas = (np.sqrt(sd.graph.m)[:, None] * sd.eigenvectors).T
    labels = [f"eigvec:{i}" for i in range(n)]
    labels += [f"delta:{v}" for v in sd.graph.vertex_ids]
    blocks = [eig, deltas]
    if samples > 0:
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((n, samples))
        blocks.append(z / np.linalg.norm(z, axis=0))
        labels += [f"random:{j}" for j in range(samples)]
    return np.concatenate(blocks, axis=1), labels


def _embedded_pair(
    re: RestrictedEvolution, cols: np.ndarray | None, lo: float, hi: float, r: float
) -> tuple[np.ndarray, np.ndarray]:
    """(Lobatto-9, GL-16) estimates of int g^r over [lo, hi], per column.

    Both are exact to degree 15.  The Lobatto nodes include the panel ends,
    so a corner between an end and the first Gauss node, which two Gauss
    rules would miss alike, still makes the pair disagree.
    """
    x9, w9 = _legendre_lobatto(9)
    x16, w16 = _leggauss(16)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes = np.concatenate([mid + half * x9, mid + half * x16])
    powers = re.norms_sq_cols(nodes, cols) ** (0.5 * r)
    return half * (w9 @ powers[:9]), half * (w16 @ powers[9:])


def _batch_lr_norms(
    re: RestrictedEvolution, a: float, b: float, r: float
) -> np.ndarray:
    """Fast-path L_r time norms for the whole batch.

    r = 2 is closed form; r = inf is a node-grid maximum with golden
    refinement; other finite r integrate g^r on graded panels with an
    embedded Lobatto-9/GL-16 pair, bisecting any (panel, column) where the pair
    disagrees (zero crossings of the trajectory put |.|^r corners between
    fixed nodes, which the embedded check catches).
    """
    if math.isinf(r):
        nodes_g, _ = graded_gauss_nodes(a, b, 2.0 * re.max_rate, order=8)
        ts = np.unique(np.concatenate([np.linspace(a, b, 65), nodes_g]))
        vals = re.norms(ts)
        return re.refine_sup(ts, vals)
    if r == 2.0:
        return np.sqrt(re.l2_time_integral(a, b))

    panels = graded_edges(a, b, 2.0 * re.max_rate * r, growth=1.4)
    n_cols = re.C.shape[1]
    total = np.zeros(n_cols)
    pending: list[tuple[float, float, np.ndarray, np.ndarray, np.ndarray]] = []
    coarse_all = []
    for lo, hi in panels:
        coarse, fine = _embedded_pair(re, None, lo, hi, r)
        coarse_all.append(np.abs(fine))
        pending.append((lo, hi, coarse, fine, np.arange(n_cols)))
    scale = np.maximum(np.sum(coarse_all, axis=0), 1e-300)
    tol = 1e-11 * scale

    depth = 0
    while pending and depth <= 45:
        nxt = []
        for lo, hi, coarse, fine, cols in pending:
            bad = np.abs(coarse - fine) > tol[cols]
            if (hi - lo) <= 1e-14 * (abs(lo) + abs(hi) + 1.0):
                bad[:] = False
            total[cols[~bad]] += fine[~bad]
            if bad.any():
                sub = cols[bad]
                mid = 0.5 * (lo + hi)
                for s_lo, s_hi in ((lo, mid), (mid, hi)):
                    c2, f2 = _embedded_pair(re, sub, s_lo, s_hi, r)
                    nxt.append((s_lo, s_hi, c2, f2, sub))
        pending = nxt
        depth += 1
    for _lo, _hi, _coarse, fine, cols in pending:  # depth exhausted: keep best
        total[cols] += fine
    return np.maximum(total, 0.0) ** (1.0 / r)


def verify_weak_obs_multi(
    sd: SpectralDecomposition,
    D: Sequence[str],
    constants_list: Sequence[WeakObsConstants],
    samples: int = 1000,
    seed: int = 0,
) -> list[WeakObsVerification]:
    """Verify several constant sets against one shared input battery.

    The batch pass shares all eigen-machinery and node evaluations across
    the parameter combinations; the bottom ``_RECHECK_BOTTOM`` slacks per
    combination (plus anything below the recheck margin) are then
    recomputed by one batched ``time_lr_norm`` call so the reported minima
    are certified.
    """
    d_idx = sd.graph.subset_indices(D)
    if len(d_idx) == 0:
        raise EmptySubset("verification needs a nonempty observation set")
    C, labels = _phi_batch(sd, samples, seed)
    re = RestrictedEvolution(sd, d_idx, C)

    lr_cache: dict[tuple[float, float, float], np.ndarray] = {}
    st_cache: dict[float, np.ndarray] = {}
    out = []
    for const in constants_list:
        a, b = const.delta * const.T, const.T
        key = (a, b, const.r)
        if key not in lr_cache:
            lr_cache[key] = _batch_lr_norms(re, a, b, const.r)
        if const.T not in st_cache:
            st_cache[const.T] = re.final_norms(const.T)
        slack = const.K * lr_cache[key] + const.alpha - st_cache[const.T]

        margin = _RECHECK_MARGIN_REL * (const.K + const.alpha + 1.0)
        recheck = np.union1d(np.argsort(slack)[:_RECHECK_BOTTOM], np.nonzero(slack < margin)[0])
        lr_exact = time_lr_norm(sd, sd.synthesize(C[:, recheck]), D, (a, b), const.r)
        slack[recheck] = const.K * lr_exact + const.alpha - st_cache[const.T][recheck]
        worst = int(np.argmin(slack))
        out.append(
            WeakObsVerification(
                constants=const,
                min_slack=float(slack[worst]),
                worst_label=labels[worst],
                worst_phi0=sd.synthesize(C[:, worst]),
                n_inputs=C.shape[1],
            )
        )
    return out


def verify_weak_obs(
    sd: SpectralDecomposition,
    D: Sequence[str],
    constants: WeakObsConstants,
    samples: int = 1000,
    seed: int = 0,
) -> WeakObsVerification:
    """Minimum slack of ||S_T phi|| <= K ||(S_. phi)|_D||_{L_r(dT,T)} + alpha."""
    return verify_weak_obs_multi(sd, D, [constants], samples, seed)[0]


def exact_obs_constant(
    sd: SpectralDecomposition, D: Sequence[str], T: float
) -> float:
    """Smallest C with ||S_T phi||^2 <= C^2 int_0^T ||(S_t phi)|_D||^2 dt.

    Square root of the largest generalized eigenvalue of (S_T^* S_T, G)
    where G is the observability Gramian; +inf when G is numerically
    singular (S_T is injective on a finite graph, so any null direction of
    G defeats every finite constant).
    """
    if T <= 0:
        raise ValidationError(f"final time must be positive, got {T}")
    Q = gramian(sd, D, T)
    mu = Q.eigenvalues
    if mu[0] <= _OBS_SINGULAR_REL * float(mu[-1]):
        return math.inf
    A = np.diag(np.exp(-2.0 * sd.eigenvalues * T))
    w = scipy.linalg.eigh(A, Q.matrix, eigvals_only=True)
    return math.sqrt(max(float(w[-1]), 0.0))
