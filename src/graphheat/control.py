"""Gramian-based control synthesis, Duhamel verification, and obstructions.

The synthesized minimal-energy control has the closed form
u(tau) = 1_D^* S_{T-tau} eta, so the controlled final state is
f(T) = S_T f0 + Q_T eta with Q_T the controllability Gramian.  The target
norm is met exactly through the one-parameter family
f(T) = (I + nu Q_T)^{-1} S_T f0 with the multiplier nu found by monotone
bisection.  Verification re-simulates Duhamel's formula by adaptive
Simpson, independently of the Gramian algebra.  Initial states and control
values are real: complex input raises ``ValidationError`` instead of losing
its imaginary part.
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
from .spectral import SpectralDecomposition, time_lr_norm

_EXPORT_GRID_POINTS = 512
_NULL_CLAMP_REL = 1e-13
_NONSINGULAR_REL = 1e-10
_NU_MAX = 1e18

COST_EXPONENTS = (1.0, 2.0, math.inf)


def _phi_factor(S: np.ndarray, T: float) -> np.ndarray:
    """(1 - exp(-S T)) / S elementwise, with the limit T at S = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -np.expm1(-S * T) / S
    out = np.asarray(out)
    out[S == 0.0] = T
    return out


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

    def apply(self, f) -> np.ndarray:
        """Q_T applied to a vertex-basis state vector."""
        return self.sd.synthesize(self.matrix @ self.sd.coefficients(f))

    def quadratic_form(self, f) -> float:
        c = self.sd.coefficients(f)
        return float((np.conj(c) @ (self.matrix @ c)).real)

    @property
    def nonsingular(self) -> bool:
        mu = self.eigenvalues
        return bool(mu[0] > _NONSINGULAR_REL * mu[-1])


def gramian(sd: SpectralDecomposition, D: Sequence[str], T: float) -> Gramian:
    """Closed-form Gramian in the eigenbasis.

    Entries are <1_D v_i, v_j>_m weighted by (1 - e^{-(l_i+l_j)T})/(l_i+l_j),
    with the limit T when l_i + l_j = 0.
    """
    if T <= 0:
        raise ValidationError(f"Gramian horizon must be positive, got {T}")
    d_idx = sd.graph.subset_indices(D)
    if len(d_idx) == 0:
        raise EmptySubset("Gramian needs a nonempty control set")
    lam = sd.eigenvalues
    mD = sd.graph.m[d_idx]
    W = np.sqrt(mD)[:, None] * sd.eigenvectors[d_idx, :]
    C = W.T @ W
    S = lam[:, None] + lam[None, :]
    mat = C * _phi_factor(S, T)
    mat = 0.5 * (mat + mat.T)
    mu, P = np.linalg.eigh(mat)
    mu = np.where(mu <= _NULL_CLAMP_REL * max(float(mu[-1]), 0.0), 0.0, mu)
    return Gramian(sd, tuple(D), float(T), mat, mu, P)


@dataclass(frozen=True, eq=False)
class ControlSignal:
    """A control supported on D, as closed form and/or a sampled grid.

    ``values[k]`` holds the function values of u(times[k]) on the vertices
    of D (in the order of ``D``).  When ``eta`` is set the signal is the
    closed form u(tau) = 1_D^* S_{T-tau} eta and the grid reproduces it.
    """

    D: tuple[str, ...]
    T: float
    times: np.ndarray
    values: np.ndarray
    eta: np.ndarray | None = None

    @property
    def closed_form(self) -> bool:
        return self.eta is not None

    def value_at(self, sd: SpectralDecomposition, tau: float) -> np.ndarray:
        """Control values on D at one time (closed form or linear interp)."""
        if self.closed_form:
            d_idx = sd.graph.subset_indices(self.D)
            damp = np.exp(-sd.eigenvalues * (self.T - tau))
            return sd.eigenvectors[d_idx, :] @ (damp * sd.coefficients(self.eta))
        out = np.empty(self.values.shape[1], dtype=self.values.dtype)
        for col in range(self.values.shape[1]):
            out[col] = np.interp(tau, self.times, self.values[:, col])
        return out


@dataclass(frozen=True)
class ControlResult:
    """Outcome of a synthesis or verification run."""

    final_state: np.ndarray
    achieved_alpha: float
    costs: dict[float, float]
    nu: float | None = None
    energy: float | None = None
    duality_K: float | None = None
    extras: dict = field(default_factory=dict)


def _closed_form_signal(
    sd: SpectralDecomposition, D: Sequence[str], T: float, eta_coefs: np.ndarray
) -> ControlSignal:
    d_idx = sd.graph.subset_indices(D)
    times = np.linspace(0.0, T, _EXPORT_GRID_POINTS)
    E = np.exp(-np.outer(sd.eigenvalues, T - times))
    values = (sd.eigenvectors[d_idx, :] @ (E * eta_coefs[:, None])).T
    return ControlSignal(tuple(D), float(T), times, values, sd.synthesize(eta_coefs))


def _signal_costs(
    sd: SpectralDecomposition,
    D: Sequence[str],
    T: float,
    eta_vertex: np.ndarray,
    rs: Sequence[float],
) -> dict[float, float]:
    """L_r norms of t -> ||u(t)||_{l2(D,m)} for the closed-form control.

    u(tau) = (S_{T-tau} eta)|_D, so the time profile is the reflection of
    s -> ||(S_s eta)|_D||, and reflection preserves every L_r norm.
    """
    return {r: time_lr_norm(sd, eta_vertex, D, (0.0, T), r) for r in rs}


def synth_control(
    sd: SpectralDecomposition,
    D: Sequence[str],
    T: float,
    f0,
    alpha_target: float,
    *,
    gram: Gramian | None = None,
    duality_K: float | None = None,
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
    signal = _closed_form_signal(sd, D, T, eta_hat)
    energy = float(np.sum(mu * (P.T @ eta_hat) ** 2))
    result = ControlResult(
        final_state=sd.synthesize(fT_hat),
        achieved_alpha=float(np.linalg.norm(fT_hat)) / norm_f0,
        costs=_signal_costs(sd, D, T, eta_vertex, cost_exponents),
        nu=nu,
        energy=energy,
        duality_K=duality_K,
    )
    return signal, result


def _duhamel_closed_form(
    sd: SpectralDecomposition,
    d_idx: np.ndarray,
    eta_coefs: np.ndarray,
    T: float,
    ts: np.ndarray,
) -> np.ndarray:
    """Coefficients of int_0^t S_{t-tau} 1_D (S_{T-tau} eta)|_D dtau per t."""
    lam = sd.eigenvalues
    mD = sd.graph.m[d_idx]
    W = np.sqrt(mD)[:, None] * sd.eigenvectors[d_idx, :]
    C = W.T @ W
    S = lam[:, None] + lam[None, :]
    out = np.empty((len(ts), len(lam)))
    for k, t in enumerate(ts):
        factor = np.exp(-lam[None, :] * (T - t)) * _phi_factor(S, float(t)) if t > 0 else np.zeros_like(S)
        out[k] = (C * factor) @ eta_coefs
    return out


def controlled_trajectory(
    sd: SpectralDecomposition,
    D: Sequence[str],
    f0,
    signal: ControlSignal,
    ts: np.ndarray,
) -> np.ndarray:
    """Closed-form controlled states f(t) at the requested times.

    Only available for closed-form signals; used for intra-period bounds.
    """
    if not signal.closed_form:
        raise ValidationError("trajectory shortcut needs a closed-form signal")
    d_idx = sd.graph.subset_indices(D)
    c0 = sd.coefficients(_real(f0, "initial state"))
    eta_c = sd.coefficients(signal.eta)
    free = np.exp(-np.outer(np.asarray(ts, float), sd.eigenvalues)) * c0[None, :]
    forced = _duhamel_closed_form(sd, d_idx, eta_c, signal.T, np.asarray(ts, float))
    return (free + forced) @ sd.eigenvectors.T


def _grid_cost(
    sd: SpectralDecomposition, u: ControlSignal, r: float
) -> float:
    """L_r cost of a grid signal; norms use the m-weights on D."""
    d_idx = sd.graph.subset_indices(u.D)
    mD = sd.graph.m[d_idx]

    def seg_norm(vals: np.ndarray) -> np.ndarray:
        return np.sqrt(np.abs(vals) ** 2 @ mD)

    if math.isinf(r):
        # the norm of a vector-linear segment is convex: knots suffice
        return float(seg_norm(u.values).max())
    total = 0.0
    for k in range(len(u.times) - 1):
        t0, t1 = float(u.times[k]), float(u.times[k + 1])
        if t1 <= t0:
            continue
        v0, v1 = u.values[k], u.values[k + 1]

        def integrand(ts: np.ndarray) -> np.ndarray:
            w = (ts - t0) / (t1 - t0)
            vals = v0[None, :] + w[:, None] * (v1 - v0)[None, :]
            return seg_norm(vals) ** r

        total += float(adaptive_simpson(integrand, t0, t1, rel_tol=1e-10, max_depth=40))
    return total ** (1.0 / r)


def verify_control(
    sd: SpectralDecomposition,
    D: Sequence[str],
    f0,
    u: ControlSignal,
    T: float,
    *,
    rel_tol: float = 1e-10,
    cost_exponents: Sequence[float] = COST_EXPONENTS,
) -> ControlResult:
    """Re-simulate Duhamel's formula f(T) = S_T f0 + int S_{T-tau} 1_D u(tau) dtau.

    The time integral is evaluated by adaptive Simpson; closed-form signals
    are sampled exactly at the quadrature nodes, grid signals by linear
    interpolation with panels aligned to the knots.
    """
    if u.T != float(T):
        raise ValidationError("signal horizon does not match T")
    f0 = _real(f0, "initial state")
    _real(u.values, "control values")
    d_idx = sd.graph.subset_indices(D)
    mD = sd.graph.m[d_idx]
    VD = sd.eigenvectors[d_idx, :]
    lam = sd.eigenvalues
    c0 = sd.coefficients(f0)
    free = np.exp(-lam * T) * c0

    if u.closed_form:
        eta_c = sd.coefficients(u.eta)

        def integrand(taus: np.ndarray) -> np.ndarray:
            u_vals = (VD @ (np.exp(-np.outer(lam, T - taus)) * eta_c[:, None])).T
            embedded = VD.T @ (mD[None, :] * u_vals).T  # coefs of 1_D u(tau)
            return (np.exp(-np.outer(lam, T - taus)) * embedded).T

        forced = adaptive_simpson(integrand, 0.0, T, rel_tol=rel_tol, max_depth=40)
    else:
        forced = np.zeros_like(free)
        for k in range(len(u.times) - 1):
            t0, t1 = float(u.times[k]), float(u.times[k + 1])
            if t1 <= t0:
                continue
            v0, v1 = u.values[k], u.values[k + 1]

            def integrand(taus: np.ndarray) -> np.ndarray:
                w = (taus - t0) / (t1 - t0)
                u_vals = v0[None, :] + w[:, None] * (v1 - v0)[None, :]
                embedded = VD.T @ (mD[None, :] * u_vals).T
                return (np.exp(-np.outer(lam, T - taus)) * embedded).T

            forced = forced + adaptive_simpson(
                integrand, t0, t1, rel_tol=rel_tol, max_depth=40
            )

    fT_hat = free + forced
    costs = (
        _signal_costs(sd, D, T, u.eta, cost_exponents)
        if u.closed_form
        else {r: _grid_cost(sd, u, r) for r in cost_exponents}
    )
    norm_f0 = sd.norm(f0)
    return ControlResult(
        final_state=sd.synthesize(fT_hat),
        achieved_alpha=float(np.linalg.norm(fT_hat)) / norm_f0 if norm_f0 else 0.0,
        costs=costs,
    )


def hautus_obstruction(
    sd: SpectralDecomposition, D: Sequence[str], tol: float = 1e-10
) -> list[tuple[float, np.ndarray]]:
    """Eigenspace intersections with {f : f|_D = 0}, per eigenvalue group.

    For each group, the vanishing subspace is extracted by singular-value
    thresholding at tol * sigma_max of the D-restricted eigenvector block.
    An empty list means no obstruction: every eigenfunction sees D.
    """
    d_idx = sd.graph.subset_indices(D)
    out: list[tuple[float, np.ndarray]] = []
    for lam, idx in sd.eigenvalue_groups():
        block = sd.eigenvectors[np.ix_(d_idx, idx)]
        _u, sigma, vt = np.linalg.svd(block, full_matrices=True)
        sigma = np.concatenate([sigma, np.zeros(len(idx) - len(sigma))])
        null_mask = sigma <= tol * (sigma[0] if len(sigma) else 0.0)
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
    period_results: list[ControlResult]
    total_costs: dict[float, float]
    final_state: np.ndarray


def stabilize(
    sd: SpectralDecomposition,
    D: Sequence[str],
    T: float,
    alpha: float,
    num_periods: int,
    f0,
    *,
    intra_samples: int = 65,
    cost_exponents: Sequence[float] = COST_EXPONENTS,
) -> StabilizationReport:
    """Open-loop stabilization by concatenating per-period contractions.

    Each period re-runs the synthesis from the achieved state, so
    ||f(kT)|| <= alpha^k ||f0|| and the envelope constants are
    omega = ln(alpha)/T with M covering the intra-period excursions.
    """
    if not (0.0 < alpha < 1.0):
        raise ValidationError("stabilization needs alpha in (0, 1)")
    if num_periods < 1:
        raise ValidationError("need at least one period")
    f = _real(f0, "initial state")
    norms = [sd.norm(f)]
    results: list[ControlResult] = []
    gram_cache = gramian(sd, D, T)
    intra_ratio = 1.0
    ts = np.linspace(0.0, T, intra_samples)
    for _ in range(num_periods):
        if norms[-1] == 0.0:
            results.append(
                ControlResult(
                    final_state=np.zeros(sd.n),
                    achieved_alpha=0.0,
                    costs={r: 0.0 for r in cost_exponents},
                    nu=0.0,
                    energy=0.0,
                )
            )
            norms.append(0.0)
            f = np.zeros(sd.n)
            continue
        signal, res = synth_control(
            sd, D, T, f, alpha, gram=gram_cache, cost_exponents=cost_exponents
        )
        traj = controlled_trajectory(sd, D, f, signal, ts)
        peak = max(sd.norm(traj[k]) for k in range(len(ts)))
        intra_ratio = max(intra_ratio, peak / norms[-1])
        f = res.final_state
        results.append(res)
        norms.append(sd.norm(f))
    omega = math.log(alpha) / T
    total: dict[float, float] = {}
    for r in cost_exponents:
        parts = [res.costs[r] for res in results]
        if math.isinf(r):
            total[r] = max(parts)
        else:
            total[r] = float(sum(p**r for p in parts)) ** (1.0 / r)
    return StabilizationReport(
        period_norms=norms,
        omega=omega,
        M=intra_ratio / alpha,
        period_results=results,
        total_costs=total,
        final_state=f,
    )
