"""Gramian-based control synthesis, Duhamel verification, and obstructions.

The synthesized minimal-energy control has the closed form
u(tau) = 1_D^* S_{T-tau} eta, so the controlled final state is
f(T) = S_T f0 + Q_T eta with Q_T the controllability Gramian.  The target
norm is met exactly through the one-parameter family
f(T) = (I + nu Q_T)^{-1} S_T f0 with the multiplier nu found by monotone
bisection.  Verification evaluates Duhamel's formula apart from the Gramian
algebra, exactly per segment for a control linear between knots and by
adaptive Simpson for a closed-form one; it returns the final state, and
cost norms come from the synthesis alone.
The Gramian, and the controlled trajectory that stabilization samples for
its envelope, both use the restricted Gramian kernel of ``spectral``: the
trajectory takes one Gramian step over [0, h] per sample.  Initial states
and control values are real: complex input raises ``ValidationError``
instead of losing its imaginary part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    BisectionNonConvergence,
    EmptySubset,
    TargetUnreachable,
    ValidationError,
)
from .quadrature import adaptive_simpson
from .spectral import SpectralDecomposition, _gramian_kernel, time_lr_norm

_INTRA_SAMPLES = 65
_NULL_CLAMP_REL = 1e-13
_NONSINGULAR_REL = 1e-10
_HAUTUS_REL = 1e-10
_NU_MAX = 1e18
_SERIES_BELOW = 0.1  # psi's closed form loses ~2e-16/x relative; its series does not

COST_EXPONENTS = (1.0, 2.0, math.inf)


def _real(x, what: str) -> np.ndarray:
    """``x`` as a float array; complex input is rejected, not truncated."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        raise ValidationError(f"{what} must be real, got complex values")
    return np.asarray(x, dtype=float)


@dataclass(frozen=True, eq=False)
class Gramian:
    """Controllability Gramian Q_T = int_0^T S_s 1_D 1_D^* S_s ds.

    ``matrix`` is the representation in the m-orthonormal eigenbasis, so it
    is an ordinary symmetric PSD matrix acting on spectral coefficients.
    Eigenvalues below the null clamp are stored as exact zeros; they span
    the numerically unreachable subspace.
    """

    sd: SpectralDecomposition
    D: tuple[str, ...]
    T: float
    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def nonsingular(self) -> bool:
        mu = self.eigenvalues
        return bool(mu[0] > _NONSINGULAR_REL * mu[-1])


def gramian(sd: SpectralDecomposition, D: Sequence[str], T: float) -> Gramian:
    """Closed-form Gramian in the eigenbasis: the restricted Gramian kernel
    over [0, T], symmetrized, with its eigenvalues below the null clamp set
    to zero."""
    if T <= 0:
        raise ValidationError(f"Gramian horizon must be positive, got {T}")
    d_idx = sd.graph.subset_indices(D)
    if len(d_idx) == 0:
        raise EmptySubset("Gramian needs a nonempty control set")
    mat = _gramian_kernel(sd, d_idx, 0.0, T)
    mat = 0.5 * (mat + mat.T)
    mu, P = np.linalg.eigh(mat)
    mu = np.where(mu <= _NULL_CLAMP_REL * max(float(mu[-1]), 0.0), 0.0, mu)
    return Gramian(sd, tuple(D), float(T), mat, mu, P)


@dataclass(frozen=True, eq=False)
class ControlSignal:
    """A control supported on D: either a sampled grid or a closed form.

    A grid signal holds ``times`` and ``values``: ``values[k]`` holds the
    function values of u(times[k]) on the vertices of D (in the order of
    ``D``), and u is linear between the knots.  A closed-form signal holds
    only ``eta``: u(tau) = 1_D^* S_{T-tau} eta.
    """

    D: tuple[str, ...]
    T: float
    times: np.ndarray | None = None
    values: np.ndarray | None = None
    eta: np.ndarray | None = None

    @property
    def closed_form(self) -> bool:
        return self.eta is not None

    def values_at(self, sd: SpectralDecomposition, taus: np.ndarray) -> np.ndarray:
        """Values of a closed-form control on D at each of ``taus``, one row
        per time; a grid signal raises ``ValidationError``."""
        if not self.closed_form:
            raise ValidationError("values_at needs a closed-form signal")
        d_idx = sd.graph.subset_indices(self.D)
        E = np.exp(-np.outer(sd.eigenvalues, self.T - np.asarray(taus, dtype=float)))
        return (sd.eigenvectors[d_idx, :] @ (E * sd.coefficients(self.eta)[:, None])).T


@dataclass(frozen=True)
class ControlResult:
    """Outcome of a synthesis or verification run."""

    final_state: np.ndarray
    achieved_alpha: float
    costs: dict[float, float] = field(default_factory=dict)
    nu: float | None = None
    energy: float | None = None


def _signal_costs(
    sd: SpectralDecomposition,
    D: Sequence[str],
    T: float,
    eta_vertex: np.ndarray,
    rs: Sequence[float],
) -> dict[float, float]:
    """L_r norms of t -> ||u(t)||_{l2(D,m)} for the closed-form control.

    u(tau) = (S_{T-tau} eta)|_D, so the time profile is the reflection of
    s -> ||(S_s eta)|_D||, and reflection preserves every L_r norm.  Each
    distinct exponent is evaluated once.
    """
    return {r: time_lr_norm(sd, eta_vertex, D, (0.0, T), r) for r in dict.fromkeys(rs)}


def synth_control(
    sd: SpectralDecomposition,
    D: Sequence[str],
    T: float,
    f0,
    alpha_target: float,
    *,
    gram: Gramian | None = None,
    cost_exponents: Sequence[float] = COST_EXPONENTS,
) -> tuple[ControlSignal, ControlResult]:
    """Minimal-energy control driving ||f(T)|| to min(alpha ||f0||, ||S_T f0||).

    Raises ``TargetUnreachable`` when the target norm lies below the
    invariant floor spanned by Gramian null modes (or, for alpha_target = 0,
    when the Gramian is numerically singular).
    """
    if alpha_target < 0:
        raise ValidationError("alpha_target must be nonnegative")
    f0 = _real(f0, "initial state")
    norm_f0 = sd.norm(f0)
    if norm_f0 == 0.0:
        raise ValidationError("synthesis needs a nonzero initial state")
    Q = gram if gram is not None else gramian(sd, D, T)
    if gram is not None and (Q.D != tuple(D) or Q.T != float(T)):
        raise ValidationError("supplied Gramian does not match (D, T)")

    c0 = sd.coefficients(f0)
    sT = np.exp(-sd.eigenvalues * T) * c0
    norm_sT = float(np.linalg.norm(sT))
    target = alpha_target * norm_f0

    mu, P = Q.eigenvalues, Q.eigenvectors
    beta = P.T @ sT

    def h(nu: float) -> float:
        return float(np.linalg.norm(beta / (1.0 + nu * mu)))

    if alpha_target == 0.0:
        if not Q.nonsingular:
            raise TargetUnreachable(
                "exact null control refused: the Gramian is numerically singular "
                "(an eigenfunction invisible on D blocks it)"
            )
        eta_hat = P @ (-(beta / mu))
        fT_hat = np.zeros_like(beta)
        nu = math.inf
    elif norm_sT <= target:
        eta_hat = np.zeros_like(beta)
        fT_hat = sT
        nu = 0.0
    else:
        floor = float(np.linalg.norm(beta[mu == 0.0]))
        nu_hi = 1.0
        while h(nu_hi) > target and nu_hi < _NU_MAX:
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
        nu = nu_hi  # upper endpoint keeps ||f(T)|| <= target
        if not (h(nu) <= target * (1.0 + 1e-9) + 1e-300):
            raise BisectionNonConvergence(
                f"multiplier search stalled at nu={nu:.6g}, ||f(T)||={h(nu):.6g}"
            )
        scale = beta / (1.0 + nu * mu)
        eta_hat = P @ (-nu * scale)
        fT_hat = P @ scale

    eta_vertex = sd.synthesize(eta_hat)
    result = ControlResult(
        final_state=sd.synthesize(fT_hat),
        achieved_alpha=float(np.linalg.norm(fT_hat)) / norm_f0,
        costs=_signal_costs(sd, D, T, eta_vertex, cost_exponents),
        nu=nu,
        energy=float(np.sum(mu * (P.T @ eta_hat) ** 2)),
    )
    return ControlSignal(tuple(D), float(T), eta=eta_vertex), result


def controlled_trajectory(
    sd: SpectralDecomposition,
    D: Sequence[str],
    f0,
    signal: ControlSignal,
    samples: int,
) -> np.ndarray:
    """Controlled states f(t_k) at ``samples`` equally spaced times on [0, T].

    One Gramian step per sample: with h = T/(samples - 1),
    f(t_{k+1}) = S_h f(t_k) + Q_h S_{T - t_{k+1}} eta, where Q_h is the
    Gramian over [0, h].  Only available for closed-form signals; used for
    intra-period bounds.
    """
    if not signal.closed_form:
        raise ValidationError("trajectory shortcut needs a closed-form signal")
    if samples < 2:
        raise ValidationError(f"trajectory needs at least 2 samples, got {samples}")
    lam = sd.eigenvalues
    T = signal.T
    h = T / (samples - 1)
    ts = np.linspace(0.0, T, samples)
    K = _gramian_kernel(sd, sd.graph.subset_indices(D), 0.0, h)
    drive = K @ (np.exp(-np.outer(lam, T - ts[1:])) * sd.coefficients(signal.eta)[:, None])
    decay = np.exp(-lam * h)
    out = np.empty((samples, sd.n))
    out[0] = sd.coefficients(_real(f0, "initial state"))
    for k in range(samples - 1):
        out[k + 1] = decay * out[k] + drive[:, k]
    return out @ sd.eigenvectors.T


def _segment_weights(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi_1(x) = (1 - e^{-x})/x and psi(x) = (x - 1 + e^{-x})/x^2 for x >= 0:
    over a segment of length h with x = lam h, the integrals of e^{-lam (h-s)}
    and of e^{-lam (h-s)} s/h are h phi_1(x) and h psi(x).  Below
    ``_SERIES_BELOW``, psi = sum_k (-x)^k/(k+2)! in nested form and
    phi_1 = 1 - x psi, so x = 0 gives phi_1 = 1 and psi = 1/2."""
    small = x < _SERIES_BELOW
    xd = np.where(small, 1.0, x)
    phi1 = -np.expm1(-xd) / xd
    psi = (1.0 - phi1) / xd
    xs, series = x[small], 1.0
    for k in range(12, 2, -1):  # 11 terms, to x^10/12!
        series = 1.0 - xs / k * series
    psi[small] = 0.5 * series
    phi1[small] = 1.0 - xs * psi[small]
    return phi1, psi


def verify_control(
    sd: SpectralDecomposition,
    D: Sequence[str],
    f0,
    u: ControlSignal,
    T: float,
) -> ControlResult:
    """Re-simulate Duhamel's formula f(T) = S_T f0 + int S_{T-tau} 1_D u(tau) dtau.

    A grid signal is exact per segment: with h = t_{k+1} - t_k, x = lam h
    and U_k the coefficients of 1_D u(t_k), segment k adds
    e^{-lam (T - t_{k+1})} h (phi_1(x) U_k + psi(x) (U_{k+1} - U_k)).  A
    closed-form signal takes one adaptive Simpson call over [0, T], a check
    of Q_T eta that shares nothing with the Gramian algebra.  A signal needs
    ``eta`` or a grid of one value row per knot, knots rising strictly from
    0 to T.
    """
    if u.T != float(T):
        raise ValidationError("signal horizon does not match T")
    if u.D != tuple(D):
        raise ValidationError("signal is supported on another set than D")
    knots = u.times
    if not u.closed_form and not (
        knots is not None
        and u.values is not None
        and u.values.shape == (len(knots), len(u.D))
        and len(knots) >= 2
        and knots[0] == 0.0
        and knots[-1] == u.T
        and np.all(np.diff(knots) > 0.0)
    ):
        raise ValidationError(
            "a signal needs eta, or a value row per knot with knots rising from 0 to T"
        )
    f0 = _real(f0, "initial state")
    _real(u.eta if u.closed_form else u.values, "control values")
    d_idx = sd.graph.subset_indices(D)
    mD = sd.graph.m[d_idx]
    VD = sd.eigenvectors[d_idx, :]
    lam = sd.eigenvalues

    if u.closed_form:
        def integrand(taus: np.ndarray) -> np.ndarray:
            embedded = VD.T @ (mD[None, :] * u.values_at(sd, taus)).T  # coefs of 1_D u(tau)
            return (np.exp(-np.outer(lam, T - taus)) * embedded).T

        forced = adaptive_simpson(integrand, 0.0, T, rel_tol=1e-10)
    else:
        U = VD.T @ (mD[:, None] * u.values.T)  # column k: coefs of 1_D u(t_k)
        h = np.diff(knots)
        phi1, psi = _segment_weights(np.outer(lam, h))
        decay = np.exp(-np.outer(lam, T - knots[1:])) * h
        forced = np.sum(decay * (phi1 * U[:, :-1] + psi * np.diff(U, axis=1)), axis=1)
    fT_hat = np.exp(-lam * T) * sd.coefficients(f0) + forced
    norm_f0 = sd.norm(f0)
    return ControlResult(
        final_state=sd.synthesize(fT_hat),
        achieved_alpha=float(np.linalg.norm(fT_hat)) / norm_f0 if norm_f0 else 0.0,
    )


def hautus_obstruction(
    sd: SpectralDecomposition, D: Sequence[str]
) -> list[tuple[float, np.ndarray]]:
    """Eigenspace intersections with {f : f|_D = 0}, per eigenvalue group.

    For each group, the vanishing subspace is extracted by singular-value
    thresholding at ``_HAUTUS_REL`` * sigma_max of the D-restricted eigenvector block.
    An empty list means no obstruction: every eigenfunction sees D.
    """
    d_idx = sd.graph.subset_indices(D)
    out: list[tuple[float, np.ndarray]] = []
    for lam, idx in sd.eigenvalue_groups():
        block = sd.eigenvectors[np.ix_(d_idx, idx)]
        _u, sigma, vt = np.linalg.svd(block, full_matrices=True)
        sigma = np.concatenate([sigma, np.zeros(len(idx) - len(sigma))])
        null_mask = sigma <= _HAUTUS_REL * (sigma[0] if len(sigma) else 0.0)
        if null_mask.any():
            basis = sd.eigenvectors[:, idx] @ vt[null_mask].T
            out.append((lam, basis))
    return out


def mode_invariance_check(
    sd: SpectralDecomposition,
    D: Sequence[str],
    phi,
    lam: float,
    f0,
    u: ControlSignal,
    T: float,
) -> float:
    """|<f(T), phi> - e^{-lam T} <f0, phi>| for an obstruction eigenfunction.

    Controls supported on D cannot move the phi-component, so the residual
    is pure numerical noise for genuine obstructions.
    """
    result = verify_control(sd, D, f0, u, T)
    drift = sd.inner(result.final_state, phi) - math.exp(-lam * T) * sd.inner(f0, phi)
    return abs(drift)


@dataclass(frozen=True)
class StabilizationReport:
    """Per-period norms and the fitted exponential envelope."""

    period_norms: list[float]
    omega: float
    M: float
    total_costs: dict[float, float]
    final_state: np.ndarray


def stabilize(
    sd: SpectralDecomposition,
    D: Sequence[str],
    T: float,
    alpha: float,
    num_periods: int,
    f0,
) -> StabilizationReport:
    """Open-loop stabilization by concatenating per-period contractions.

    Each period re-runs the synthesis from the achieved state, so
    ||f(kT)|| <= alpha^k ||f0|| and the envelope constants are
    omega = ln(alpha)/T with M covering the intra-period excursions,
    sampled at ``_INTRA_SAMPLES`` equally spaced times per period by
    ``controlled_trajectory`` (one Gramian step per sample).
    """
    if not (0.0 < alpha < 1.0):
        raise ValidationError("stabilization needs alpha in (0, 1)")
    if num_periods < 1:
        raise ValidationError("need at least one period")
    f = _real(f0, "initial state")
    norms = [sd.norm(f)]
    costs: list[dict[float, float]] = []
    gram_cache = gramian(sd, D, T)
    intra_ratio = 1.0
    for _ in range(num_periods):
        if norms[-1] == 0.0:
            costs.append(dict.fromkeys(COST_EXPONENTS, 0.0))
            norms.append(0.0)
            f = np.zeros(sd.n)
            continue
        signal, res = synth_control(sd, D, T, f, alpha, gram=gram_cache)
        traj = controlled_trajectory(sd, D, f, signal, _INTRA_SAMPLES)
        peak = max(sd.norm(row) for row in traj)
        intra_ratio = max(intra_ratio, peak / norms[-1])
        f = res.final_state
        costs.append(res.costs)
        norms.append(sd.norm(f))
    omega = math.log(alpha) / T
    total: dict[float, float] = {}
    for r in COST_EXPONENTS:
        parts = [c[r] for c in costs]
        if math.isinf(r):
            total[r] = max(parts)
        else:
            total[r] = float(sum(p**r for p in parts)) ** (1.0 / r)
    return StabilizationReport(
        period_norms=norms,
        omega=omega,
        M=intra_ratio / alpha,
        total_costs=total,
        final_state=f,
    )
