"""Gramian-based control synthesis, Duhamel verification, and obstructions.

The synthesized minimal-energy control has the closed form
u(tau) = 1_D^* S_{T-tau} eta, and a ``ControlSignal`` holds just that eta:
the controlled final state is f(T) = S_T f0 + Q_T eta with Q_T the
controllability Gramian.  The target norm is met exactly through the
one-parameter family f(T) = (I + nu Q_T)^{-1} S_T f0 with the multiplier nu
found by monotone bisection.  Verification evaluates Duhamel's formula
apart from the Gramian algebra, by adaptive Simpson; it returns the final
state only.  The mode-invariance check of an obstruction drives random
controls constant on equal segments instead, whose Duhamel integral is
exact per segment.
Cost norms are certified time norms of the closed-form control: one
engine call per synthesis, or one for all the periods of a stabilization.
The Gramian, and the controlled trajectory that stabilization samples for
its envelope, both use the restricted Gramian kernel of ``spectral``: the
trajectory takes one Gramian step over [0, h] per sample, for all periods
at once.  Initial states and control values are real: complex input raises
``ValidationError`` instead of losing its imaginary part.  Decay factors
over the spectrum come from ``spectral.decay``, and every norm from
``quadrature.vector_norms``.  Answers scale with f0: the multiplier search,
the energy, Duhamel's re-simulation and the stabilization envelope each
work on f0 over a power of two near its norm, so nu, achieved_alpha and M
are the same for c f0 as for f0 and costs, norms and states are c times
theirs, up to rounding, until a value leaves the float range (it then reads
inf; an f0 whose own m-norm is past the range is refused).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import BisectionNonConvergence, EmptySubset, TargetUnreachable, ValidationError
from .quadrature import _BLOCK_ELEMENTS, _blocks, adaptive_simpson, vector_norms
from .spectral import (
    RestrictedEvolution,
    SpectralDecomposition,
    _gramian_kernel,
    _real,
    decay,
)

_INTRA_SAMPLES = 65
_NULL_CLAMP_REL = 1e-13
_NONSINGULAR_REL = 1e-10
_HAUTUS_REL = 1e-10
_NU_MAX = 1e18

COST_EXPONENTS = (1.0, 2.0, math.inf)


@dataclass(frozen=True, eq=False)
class Gramian:
    """Controllability Gramian Q_T = int_0^T S_s 1_D 1_D^* S_s ds.

    ``matrix`` is the representation in the m-orthonormal eigenbasis, so it
    is an ordinary symmetric PSD matrix acting on spectral coefficients.
    Eigenvalues below the null clamp are stored as exact zeros; they span
    the numerically unreachable subspace.  Its arrays are read-only: the
    decomposition keeps it, and every caller of one (D, T) reads them.
    """

    D: tuple[str, ...]
    T: float
    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        for a in (self.matrix, self.eigenvalues, self.eigenvectors):
            a.setflags(write=False)

    @property
    def nonsingular(self) -> bool:
        mu = self.eigenvalues
        return bool(mu[0] > _NONSINGULAR_REL * mu[-1])


def gramian(sd: SpectralDecomposition, D: Sequence[str], T: float) -> Gramian:
    """Closed-form Gramian in the eigenbasis: the restricted Gramian kernel
    over [0, T], symmetrized, with its eigenvalues below the null clamp set
    to zero.  ``sd`` keeps the one it built last, so the syntheses and
    observability constants of one (D, T) share one Gramian; a call with
    another (D, T) builds its own and replaces it."""
    Q = sd._gramian
    if Q is None or Q.D != tuple(D) or Q.T != float(T):
        mat = _gramian_kernel(sd, _control_indices(sd, D, T), 0.0, T)
        mat = 0.5 * (mat + mat.T)
        mu, P = np.linalg.eigh(mat)
        mu = np.where(mu <= _NULL_CLAMP_REL * max(float(mu[-1]), 0.0), 0.0, mu)
        Q = Gramian(tuple(D), float(T), mat, mu, P)
        object.__setattr__(sd, "_gramian", Q)  # sd is frozen; the slot is its cache
    return Q


def _control_indices(sd: SpectralDecomposition, D: Sequence[str], T: float) -> np.ndarray:
    """The indices of a control set D over the horizon T: T must be
    positive and D nonempty."""
    if T <= 0:
        raise ValidationError(f"Gramian horizon must be positive, got {T}")
    d_idx = sd.graph.subset_indices(D)
    if len(d_idx) == 0:
        raise EmptySubset("Gramian needs a nonempty control set")
    return d_idx


@dataclass(frozen=True, eq=False)
class ControlSignal:
    """The control u(tau) = 1_D^* S_{T-tau} eta on D over [0, T], held as
    its eta: the closed form of every control ``synth_control`` returns."""

    D: tuple[str, ...]
    T: float
    eta: np.ndarray

    def values_at(self, sd: SpectralDecomposition, taus: np.ndarray) -> np.ndarray:
        """Values of the control on D (in the order of ``D``) at each of
        ``taus``, one row per time."""
        d_idx = sd.graph.subset_indices(self.D)
        E = decay(sd.eigenvalues, self.T - np.asarray(taus, dtype=float))
        return (sd.eigenvectors[d_idx, :] @ (E * sd.coefficients(self.eta)[:, None])).T


@dataclass(frozen=True)
class ControlResult:
    """Outcome of a synthesis or verification run.

    ``energy`` is the Gramian form sum mu (P^T eta_hat)^2 of the spectral
    coefficients eta_hat, formed before ``synthesize`` takes them to the
    vertex basis; it is not the cost of the emitted signal.  Near a singular
    Gramian the L_2 cost to trust is ``costs[2.0]``, the certified time norm
    of the emitted control: on a near-singular acceptance-corpus synthesis
    at T = 0.5, sqrt(energy) is 9.8e-6 off a 50-digit value of that cost,
    and ``costs[2.0]`` 5.0e-14.
    """

    final_state: np.ndarray
    achieved_alpha: float
    costs: dict[float, float] = field(default_factory=dict)
    nu: float | None = None
    energy: float | None = None


def _signal_costs(
    sd: SpectralDecomposition,
    d_idx: np.ndarray,
    T: float,
    eta_vertex: np.ndarray,
    rs: Sequence[float],
) -> dict[float, float]:
    """L_r norms of t -> ||u(t)||_{l2(D,m)} for the closed-form control.

    u(tau) = (S_{T-tau} eta)|_D, so the time profile is the reflection of
    s -> ||(S_s eta)|_D||, and reflection preserves every L_r norm.  One
    call gives eta every distinct exponent, from one profile; no exponent
    makes no call.
    """
    rs = list(dict.fromkeys(rs))
    if not all(r >= 1.0 for r in rs):
        raise ValidationError(f"cost exponents must lie in [1, inf], got {rs}")
    if not rs:
        return {}
    re = RestrictedEvolution(sd, d_idx, sd.coefficients(eta_vertex))
    return dict(zip(rs, re.lr_norms(0.0, T, np.array(rs)[:, None])[:, 0].tolist()))


def synth_control(
    sd: SpectralDecomposition,
    D: Sequence[str],
    T: float,
    f0,
    alpha_target: float,
    *,
    cost_exponents: Sequence[float] = COST_EXPONENTS,
) -> tuple[ControlSignal, ControlResult]:
    """Minimal-energy control driving ||f(T)|| to min(alpha ||f0||, ||S_T f0||).

    Where alpha_target > 0 and ||S_T f0|| already meets the target, the
    control is zero (nu = 0, energy 0) and no Gramian is built; otherwise
    it reads the Gramian of (D, T) that ``gramian`` keeps on ``sd``.  Raises
    ``TargetUnreachable`` when the target norm lies below the invariant
    floor spanned by Gramian null modes (or, for alpha_target = 0, when the
    Gramian is numerically singular).
    """
    if alpha_target < 0:
        raise ValidationError("alpha_target must be nonnegative")
    f0 = _real(f0, "initial state")
    norm_f0 = sd.norm(f0)
    if norm_f0 == 0.0:
        raise ValidationError("synthesis needs a nonzero initial state")
    if norm_f0 == math.inf:
        raise ValidationError("the initial state's m-norm is beyond the float range")
    d_idx = _control_indices(sd, D, T)  # what ``gramian`` would refuse

    c0 = sd.coefficients(f0)
    sT = decay(sd.eigenvalues, T) * c0
    norm_sT = float(vector_norms(sT))
    target = alpha_target * norm_f0
    if alpha_target > 0.0 and norm_sT <= target:
        result = ControlResult(
            final_state=sd.synthesize(sT),
            achieved_alpha=norm_sT / norm_f0,
            costs=_signal_costs(sd, d_idx, T, np.zeros(sd.n), cost_exponents),
            nu=0.0,
            energy=0.0,
        )
        return ControlSignal(tuple(D), float(T), eta=np.zeros(sd.n)), result

    Q = gramian(sd, D, T)
    mu, P = Q.eigenvalues, Q.eigenvectors
    beta = P.T @ sT
    # The search runs on beta and the target over 2^e, ||f0|| in
    # [2^(e-1), 2^e): the scaling is exact, so nu is the same for f0 at
    # every scale, and h squares values of order one.
    e = math.frexp(norm_f0)[1]
    unit = np.ldexp(beta, -e)

    def h(nu: float) -> float:
        """||f(T)|| / 2^e under the multiplier nu.  unit / (1 + nu mu) is 0
        where nu mu overflows a float, which the search lets pass without a
        warning.  It is summed as a dot product, not by ``vector_norms``: it
        runs at every step of every search, on terms of order one."""
        s = unit / (1.0 + nu * mu)
        return float(np.sqrt(s.dot(s)))

    if alpha_target == 0.0:
        if not Q.nonsingular:
            raise TargetUnreachable(
                "exact null control refused: the Gramian is numerically singular "
                "(an eigenfunction invisible on D blocks it)"
            )
        with np.errstate(over="ignore", invalid="ignore"):  # eta is checked below
            eta_hat = P @ (-(beta / mu))
        fT_hat = np.zeros_like(beta)
        nu = math.inf
    else:
        floor = float(vector_norms(beta[mu == 0.0]))
        goal = math.ldexp(target, -e)
        with np.errstate(over="ignore"):  # nu mu may overflow (see h)
            nu_hi = 1.0
            h_hi = h(nu_hi)
            while h_hi > goal and nu_hi < _NU_MAX:
                nu_hi *= 2.0
                h_hi = h(nu_hi)
            if h_hi > goal:
                raise TargetUnreachable(
                    f"target norm {target:.6g} is below the invariant floor "
                    f"{floor:.6g} enforced by modes vanishing on D"
                )
            nu_lo = 0.0 if nu_hi == 1.0 else nu_hi / 2.0
            for _ in range(200):
                mid = 0.5 * (nu_lo + nu_hi)
                h_mid = h(mid)
                if h_mid > goal:
                    nu_lo = mid
                else:
                    nu_hi, h_hi = mid, h_mid
                if abs(h_hi - goal) <= 1e-12 * math.ldexp(norm_f0, -e):
                    break
                if (nu_hi - nu_lo) <= 1e-15 * nu_hi:
                    break
            nu = nu_hi  # upper endpoint keeps ||f(T)|| <= target
            if not (h_hi <= goal * (1.0 + 1e-9) + 1e-300):
                raise BisectionNonConvergence(
                    f"multiplier search stalled at nu={nu:.6g}, "
                    f"||f(T)||={math.ldexp(h_hi, e):.6g}"
                )
            scale = beta / (1.0 + nu * mu)
        with np.errstate(over="ignore", invalid="ignore"):  # eta is checked below
            eta_hat = P @ (-nu * scale)
        fT_hat = P @ scale

    with np.errstate(over="ignore", invalid="ignore"):
        eta_vertex = sd.synthesize(eta_hat)
    if not np.isfinite(eta_vertex).all():
        raise ValidationError(f"the control's eta is beyond the float range (nu = {nu:.6g})")
    with np.errstate(over="ignore"):  # over 2^2e; an energy past the float range reads inf
        energy = float(np.ldexp(np.sum(mu * np.ldexp(P.T @ eta_hat, -e) ** 2), 2 * e))
    result = ControlResult(
        final_state=sd.synthesize(fT_hat),
        achieved_alpha=float(vector_norms(fT_hat)) / norm_f0,
        costs=_signal_costs(sd, d_idx, T, eta_vertex, cost_exponents),
        nu=nu,
        energy=energy,
    )
    return ControlSignal(tuple(D), float(T), eta=eta_vertex), result


def _controlled_trajectory(
    sd: SpectralDecomposition,
    D: Sequence[str],
    T: float,
    f0: np.ndarray,
    eta: np.ndarray,
    samples: int,
) -> np.ndarray:
    """Controlled states at ``samples`` >= 2 equally spaced times on [0, T]
    for a batch of ``stabilize``'s periods, in the eigenbasis: column j of
    the (n, N) arrays ``f0`` and ``eta`` holds period j's real initial
    state and the eta of its closed-form control.  Entry [k, :, j] of the
    (samples, n, N) result holds the spectral coefficients of period j's
    state at t_k, whose Euclidean norm is the state's m-norm.

    One Gramian step per sample: with h = T/(samples - 1),
    f(t_{k+1}) = S_h f(t_k) + Q_h S_{T - t_{k+1}} eta, where Q_h is the
    Gramian over [0, h].  One kernel serves every period, one matrix
    product per block of steps forms their drives for every period, and
    the steps advance all periods together.  A block's drives and their
    factor, two (n, steps, N) arrays, share ``_BLOCK_ELEMENTS``.
    """
    h = T / (samples - 1)
    ts = np.linspace(0.0, T, samples)
    K = _gramian_kernel(sd, sd.graph.subset_indices(D), 0.0, h)
    c_eta = sd.coefficients(eta)
    E = decay(sd.eigenvalues, T - ts[1:])
    step = decay(sd.eigenvalues, h)[:, None]
    out = np.empty((samples,) + c_eta.shape)
    out[0] = sd.coefficients(f0)
    for steps in _blocks(samples - 1, _BLOCK_ELEMENTS // (2 * c_eta.size)):
        factor = (E[:, steps, None] * c_eta[:, None, :]).reshape(sd.n, -1)
        drive = (K @ factor).reshape(sd.n, -1, c_eta.shape[1])
        del factor
        for k in range(steps.start, steps.stop):
            out[k + 1] = step * out[k] + drive[:, k - steps.start]
        del drive
    return out


def _phi1_weight(lam: np.ndarray, h: float) -> np.ndarray:
    """h phi_1(lam h) = (1 - e^{-lam h})/lam for lam >= 0, the integral of
    e^{-lam (h - s)} over [0, h]: h where lam h is below the normal range
    (lam = 0 included; the product has lost digits there, and h phi_1
    rounds to h), and 1/lam where lam h is past the float range."""
    with np.errstate(over="ignore"):
        x = lam * h
    return np.divide(-np.expm1(-x), lam, out=np.full(x.shape, h), where=x >= np.finfo(float).tiny)


def _grid_forced(
    sd: SpectralDecomposition, d_idx: np.ndarray, values: np.ndarray, T: float
) -> tuple[np.ndarray, np.ndarray]:
    """The forced part int_0^T S_{T-tau} 1_D u(tau) dtau, in the eigenbasis,
    of each of a batch of controls constant on equal segments of [0, T]:
    values[j, k] holds control j's values on D over the k-th segment.

    It is exact: with U_k the coefficients of 1_D u on segment k, which
    ends at t_{k+1}, segment k adds e^{-lam (T - t_{k+1})} h phi_1(lam h) U_k
    for the segments' length h.  One GEMM embeds every value of every
    control.  The sum is bounded by T max |U|; a control whose bound may
    leave the float range has its U divided by a power of two 2^s first.
    Returns row j's forced part over 2^s_j and the column of shifts s, 0
    for every control in range.
    """
    n_batch, n_segments, d = values.shape
    mD = sd.graph.m[d_idx]
    embed = mD[:, None] * values.transpose(2, 0, 1).reshape(d, -1)
    # U[j, :, k]: coefs of 1_D u_j on segment k
    U = (sd.eigenvectors[d_idx, :].T @ embed).reshape(-1, n_batch, n_segments).transpose(1, 0, 2)
    shift = np.frexp(np.abs(U).max(axis=(1, 2), initial=0.0))[1] + math.frexp(T)[1]
    shift = np.maximum(shift - 1020, 0)[:, None]
    U = np.ldexp(U, -shift[:, :, None])
    lam = sd.eigenvalues
    ends = np.linspace(0.0, T, n_segments + 1)[1:]
    steps = decay(lam, T - ends) * _phi1_weight(lam, T / n_segments)[:, None] * U
    return np.sum(steps, axis=-1), shift


def verify_control(
    sd: SpectralDecomposition,
    D: Sequence[str],
    f0,
    u: ControlSignal,
    T: float,
) -> ControlResult:
    """Re-simulate Duhamel's formula f(T) = S_T f0 + int S_{T-tau} 1_D u(tau) dtau.

    The forced part takes one adaptive Simpson call over [0, T], a check of
    Q_T eta that shares nothing with the Gramian algebra.  Only the final
    state and its ratio to ||f0|| are returned.
    """
    if u.T != float(T):
        raise ValidationError("signal horizon does not match T")
    if u.D != tuple(D):
        raise ValidationError("signal is supported on another set than D")
    f0 = _real(f0, "initial state")
    # Duhamel's formula is linear in (f0, eta): both are taken over 2^e,
    # ||f0|| in [2^(e-1), 2^e), so that m u stays in range at every scale
    norm_f0 = sd.norm(f0)
    e = math.frexp(norm_f0)[1]
    c_eta = sd.coefficients(np.ldexp(_real(u.eta, "control values"), -e))[:, None]
    d_idx = sd.graph.subset_indices(D)
    mD = sd.graph.m[d_idx]
    VD = sd.eigenvectors[d_idx, :]
    lam = sd.eigenvalues

    def integrand(taus: np.ndarray) -> np.ndarray:
        E = decay(lam, T - taus)  # u(tau) = 1_D^* S_{T-tau} eta, as in ``values_at``
        embedded = VD.T @ (mD[:, None] * (VD @ (E * c_eta)))  # coefs of 1_D u(tau)
        return (E * embedded).T

    forced = adaptive_simpson(integrand, 0.0, T, rel_tol=1e-10)
    fT_hat = decay(lam, T) * sd.coefficients(np.ldexp(f0, -e)) + forced
    with np.errstate(over="ignore"):  # a state past the float range reads inf
        final_state = np.ldexp(sd.synthesize(fT_hat), e)
    return ControlResult(
        final_state=final_state,
        achieved_alpha=float(vector_norms(fT_hat)) / math.ldexp(norm_f0, -e) if norm_f0 else 0.0,
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
    found: dict[int, np.ndarray] = {}
    for which, idx in sd.eigenvalue_stacks:
        k = idx.shape[1]
        blocks = sd.eigenvectors[d_idx[:, None], idx[:, None, :]]  # (groups, |D|, k)
        # a group wider than D keeps its whole right basis: its last k - |D|
        # right singular vectors have singular value 0
        _u, sigma, vt = np.linalg.svd(blocks, full_matrices=k > len(d_idx))
        sigma = np.concatenate([sigma, np.zeros((len(which), k - sigma.shape[1]))], axis=1)
        null = sigma <= _HAUTUS_REL * sigma[:, :1]
        for i, group_idx, mask, v in zip(which, idx, null, vt):
            if mask.any():
                found[i] = sd.eigenvectors[:, group_idx] @ v[mask].T
    return [(sd.eigenvalue_groups[i][0], found[i]) for i in sorted(found)]


def mode_invariance_trials(
    sd: SpectralDecomposition,
    D: Sequence[str],
    phi,
    lam: float,
    f0s: np.ndarray,
    values: np.ndarray,
    T: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The drift |<f(T), phi> - e^{-lam T} <f0, phi>| of an obstruction
    eigenfunction phi under each of a batch of controls constant on equal
    segments of [0, T] (row j of ``f0s`` is trial j's initial state,
    values[j, k] its control's values on D over the k-th segment), and the
    size of the terms it compares, e^{-lam T} |<f0, phi>| + ||F|| with
    F = f(T) - S_T f0.  Controls on D cannot move the phi-component, so
    for a genuine obstruction the drift, <F, phi> from F's coefficients on
    phi's own eigen-group, is rounding noise on that scale.  A trial whose
    F may leave the float range has both divided by ``_grid_forced``'s
    power of two, so their ratio, the residual, stays finite.
    """
    forced, shift = _grid_forced(sd, sd.graph.subset_indices(D), values, T)
    _, group = min(sd.eigenvalue_groups, key=lambda g: abs(g[0] - lam))
    phi = np.asarray(phi)
    drift = np.abs(forced[:, group] @ sd.coefficients(phi)[group])
    free = float(decay(lam, T)) * np.sum(f0s * (phi * sd.graph.m), axis=1)
    return drift, np.abs(np.ldexp(free, -shift[:, 0])) + vector_norms(forced)


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

    Each period re-runs the synthesis from the achieved state, without cost
    norms, so ||f(kT)|| <= alpha^k ||f0||; a period that starts at zero
    stays there with zero control.  Then every period is handled at once:
    its L_1, L_2 and L_inf costs come from one ``lr_norms`` call with a
    column per period, whose profile is evaluated once per time and raised
    to each exponent, and
    its intra-period excursion is sampled at ``_INTRA_SAMPLES`` equally
    spaced times by ``_controlled_trajectory`` (one Gramian step per
    sample) and measured on the states' spectral coefficients, whose
    Euclidean norm is the m-norm.  The envelope constants are
    omega = ln(alpha)/T and M, which covers the largest excursion relative
    to its period's start.
    """
    if not (0.0 < alpha < 1.0):
        raise ValidationError("stabilization needs alpha in (0, 1)")
    if num_periods < 1:
        raise ValidationError("need at least one period")
    f = _real(f0, "initial state")
    norms = [sd.norm(f)]
    d_idx = _control_indices(sd, D, T)  # refused as the syntheses would, also for f0 = 0
    starts, etas = [], []
    while len(starts) < num_periods and norms[-1] > 0.0:
        signal, res = synth_control(sd, D, T, f, alpha, cost_exponents=())
        starts.append(f)
        etas.append(signal.eta)
        f = res.final_state
        norms.append(sd.norm(f))
    live = len(starts)
    if live < num_periods:
        norms += [0.0] * (num_periods - live)
        f = np.zeros(sd.n)
    costs = np.zeros((num_periods, len(COST_EXPONENTS)))
    intra_ratio = 1.0
    if live:
        eta = np.stack(etas, axis=1)
        re = RestrictedEvolution(sd, d_idx, sd.coefficients(eta))
        costs[:live] = re.lr_norms(0.0, T, np.array(COST_EXPONENTS)[:, None]).T
        # each period's trajectory over 2^e, its starting norm in
        # [2^(e-1), 2^e): exact, and of order one however large f0 is
        shift = np.frexp(norms[:live])[1]
        starts = np.ldexp(np.stack(starts, axis=1), -shift)
        traj = _controlled_trajectory(sd, D, T, starts, np.ldexp(eta, -shift), _INTRA_SAMPLES)
        peaks = vector_norms(traj, axis=1).max(axis=0)  # m-norms, from the coefficients
        intra_ratio = max(intra_ratio, float(np.max(peaks / np.ldexp(norms[:live], -shift))))
    total: dict[float, float] = {}
    for r, parts in zip(COST_EXPONENTS, costs.T.tolist()):
        if math.isinf(r):
            total[r] = max(parts)
            continue
        # where a part's r-th power could leave the float range, the parts
        # are summed over 2^e, the largest in [2^(e-1), 2^e)
        e = math.frexp(max(parts))[1]
        e = e if abs(r * e) > 1000 else 0
        with np.errstate(over="ignore"):  # a total past the float range reads inf
            total[r] = float(np.ldexp(sum(math.ldexp(p, -e) ** r for p in parts) ** (1.0 / r), e))
    return StabilizationReport(
        period_norms=norms,
        omega=math.log(alpha) / T,
        M=intra_ratio / alpha,
        total_costs=total,
        final_state=f,
    )
