"""Uncertainty-principle bounds, weak observability, and exact constants.

Geometric quantities (inradius, ball volume, covering radius) are taken in
the length metric, where the weak observability estimate and the low-energy
uncertainty principle hold; they are computed once per (graph, D) and kept
on the graph, so every constant set and sweep row of that pair reads the
same values.  ``verify_weak_obs`` checks the estimate on a battery of unit
states.  An eigenvector is a single mode, so its slack is exact, in closed
form.  The other states go through bound, prune and evaluate, on one table
of constant sets by states: closed-form and then grid bounds on each
state's time norm exclude every state that cannot hold the minimum slack,
and only the rest go through the time-norm engine, in one batched call;
at r = inf, states that tie by symmetry are certified once for the whole
tie group.  Each constant set keeps one slack row over the battery, in
label order: the eigenvectors' exact slacks, then the settled or
certified slack of every other state (estimated to 1e-10 for finite r, a
proven lower bound for r = inf), +inf where a state was pruned.  The
reported minimum is the row's smallest entry, a nan one included.  The
constant sets of one window share one grid, of the union of their states.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

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
from .quadrature import vector_norms
from .spectral import (
    RestrictedEvolution,
    SpectralDecomposition,
    _LR_REL_TOL,
    _graded_grid,
    decay,
    op_norm_H_plus_1,
)

_SHARP_SINGULAR_CUTOFF = 1e-12
# Pruning margin, relative to K + alpha + 1: a state is evaluated unless its
# slack lower bound exceeds the smallest slack upper bound by more than this.
# The engine's relative tolerance is added on top (times K and the largest
# norm bound), so neither rounding in the bounds nor the engine's error can
# prune the state that holds the minimum.
_RECHECK_MARGIN_REL = 1e-7


def _omega_geometry(g: WeightedGraph, D: Sequence[str]) -> tuple[float, float, float]:
    """(covering radius of D, Inr(Omega), vol(Inr(Omega))) in the length
    metric, Omega = X \\ D, for a proper subset D.

    Computed once per graph and sequence D, and kept on the graph under the
    sequence itself, not its set: a new key runs every check again
    (``covering_radius`` rejects duplicate and unknown ids), so a hit is the
    very input that passed them.
    """
    key = tuple(D)
    geometry = g._omega_geometries.get(key)
    if geometry is None:
        covr = covering_radius(g, MetricKind.LENGTH, key)
        dset = set(key)
        omega = [v for v in g.vertex_ids if v not in dset]
        inr_exact = inradius(g, MetricKind.LENGTH, omega, exact=True)
        vol = max_ball_volume(g, MetricKind.LENGTH, inr_exact)
        geometry = g._omega_geometries[key] = (covr, _as_float(inr_exact), vol)
    return geometry


@dataclass(frozen=True)
class UPReport:
    """Sharp versus a-priori constants of the low-energy uncertainty principle."""

    sup_I: float  # the energy cutoff: P_I projects onto the eigenvalues <= sup_I
    threshold: float
    applicable: bool
    paper_bound: float | None
    remark_threshold: float
    remark_applicable: bool
    remark_bound: float | None
    sharp_constant: float
    inradius: float
    ball_volume: float


def up_sharp_constant(sd: SpectralDecomposition, D: Sequence[str], sup_I: float) -> float:
    """Smallest c with P_I <= c P_I 1_D P_I as quadratic forms, where P_I
    projects onto the eigenvalues at or below the cutoff ``sup_I``.

    Equals 1/mu_min for the compression of multiplication by 1_D to the
    range of P_I; +inf when some P_I-function vanishes on D (mu_min below
    the singularity cutoff), 0 by convention when P_I = 0.
    """
    d_idx = sd.graph.subset_indices(D)
    if len(d_idx) == 0:
        raise EmptySubset("sharp constant needs a nonempty subset")
    sel = np.flatnonzero(sd.eigenvalues <= sup_I)
    if not len(sel):
        return 0.0
    mD = sd.graph.m[d_idx]
    block = np.sqrt(mD)[:, None] * sd.eigenvectors[np.ix_(d_idx, sel)]
    mu = np.linalg.eigvalsh(block.T @ block)
    if mu[0] <= _SHARP_SINGULAR_CUTOFF:
        return math.inf
    return 1.0 / float(mu[0])


def up_paper_bound(
    g: WeightedGraph,
    sd: SpectralDecomposition,
    D: Sequence[str],
    sup_I: float,
) -> UPReport:
    """A-priori low-energy bounds next to the sharp constant.

    The primary bound 16 ||H+1||^4 / (threshold - sup I)^2 needs
    sup I < threshold = (Inr(Omega) vol(Inr(Omega)))^{-1}; the alternative
    bound 42 vol(Inr(Omega)) / inf m needs the stricter energy condition
    sup I <= inf m / (42 Inr(Omega) vol(Inr(Omega))^2).
    """
    return _up_report(g, sd, sup_I, _up_geometry(g, sd, D), up_sharp_constant(sd, D, sup_I))


def _up_geometry(
    g: WeightedGraph, sd: SpectralDecomposition, D: Sequence[str]
) -> tuple[float, float]:
    if g is not sd.graph:
        raise ValidationError("decomposition does not belong to the given graph")
    if len(D) == 0:
        raise EmptySubset("uncertainty bounds need a nonempty subset")
    if set(D) >= set(g.vertex_ids):
        raise FullSubset("uncertainty bounds need a proper subset")
    return _omega_geometry(g, D)[1:]


def _up_report(
    g: WeightedGraph,
    sd: SpectralDecomposition,
    sup_I: float,
    geometry: tuple[float, float],
    sharp: float,
) -> UPReport:
    inr, vol = geometry
    threshold = 1.0 / (inr * vol)
    applicable = sup_I < threshold
    if applicable:  # products, not powers: a stiff spectrum gives +inf, not OverflowError
        op = op_norm_H_plus_1(sd)
        ratio = op * (op / (threshold - sup_I))
        paper = 16.0 * ratio * ratio
    else:
        paper = None
    inf_m = float(g.m.min())
    remark_threshold = inf_m / vol / (42.0 * inr * vol)  # vol ** 2 can underflow to 0
    remark_applicable = sup_I <= remark_threshold
    remark = 42.0 * vol / inf_m if remark_applicable else None
    return UPReport(
        sup_I=sup_I,
        threshold=threshold,
        applicable=applicable,
        paper_bound=paper,
        remark_threshold=remark_threshold,
        remark_applicable=remark_applicable,
        remark_bound=remark,
        sharp_constant=sharp,
        inradius=inr,
        ball_volume=vol,
    )


def up_sweep(
    g: WeightedGraph, sd: SpectralDecomposition, D: Sequence[str]
) -> list[UPReport]:
    """Reports for sup I at every eigenvalue and every midpoint between
    consecutive distinct eigenvalues.  P_I is piecewise constant in sup I:
    both rows of a group project onto the whole group and every lower one,
    so they share one sharp constant, that of the cutoff at the group's
    top.  The Omega-geometry does not depend on I and is computed once.

    The constant is +inf without an eigensolve once the cutoff keeps more
    modes than D has vertices (the D-block has rank <= |D|, so mu_min = 0),
    and on every row after the first +inf: by Cauchy interlacing mu_min
    does not rise as the cutoff keeps more modes."""
    geometry = _up_geometry(g, sd, D)
    n_d = len(g.subset_indices(D))
    groups = sd.eigenvalue_groups
    reports = []
    sharp = 0.0
    for k, (lam, idx) in enumerate(groups):
        if not math.isinf(sharp):
            top = int(idx[-1])  # the cutoff keeps modes 0 .. top
            if top + 1 > n_d:
                sharp = math.inf
            else:
                sharp = up_sharp_constant(sd, D, float(sd.eigenvalues[top]))
        sups = [lam] if k + 1 == len(groups) else [lam, 0.5 * (lam + groups[k + 1][0])]
        reports += [_up_report(g, sd, s, geometry, sharp) for s in sups]
    return reports


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
    if g is not sd.graph:
        raise ValidationError("decomposition does not belong to the given graph")
    if len(D) == 0:
        raise EmptySubset("observability needs a nonempty observation set")
    if not 0.0 < T < math.inf:
        raise ValidationError(f"final time must be positive and finite, got {T}")
    if not (0.0 <= delta < 1.0):
        raise ValidationError(f"delta must lie in [0, 1), got {delta}")
    if not (r >= 1.0):
        raise ValidationError(f"norm index must lie in [1, inf], got {r}")
    full = set(D) >= set(g.vertex_ids)
    if full:
        lam, kappa, alpha, inr, vol = math.inf, 0.0, 0.0, 0.0, 0.0
    else:
        covr, inr, vol = _omega_geometry(g, D)
        if math.isinf(covr):
            raise NotRelativelyDense(
                "observation set has a length-metric covering radius that is infinite"
                " or beyond the float range"
            )
        lam = 1.0 / (2.0 * inr * vol)
        op = op_norm_H_plus_1(sd)
        kappa = 8.0 * op * (op * inr * vol)  # finite when only op ** 2 would overflow
        alpha = (kappa + 1.0) * math.exp(-delta * lam * T)
    window = (1.0 - delta) * T
    window_factor = 1.0 if math.isinf(r) else window ** (1.0 / r)
    K = (1.0 if full else kappa) / window_factor if window_factor > 0.0 else math.inf
    if math.isinf(K):
        raise ValidationError(f"the window (1 - delta) T = {window} is too short: K overflows")
    return WeakObsConstants(
        lam=lam,
        kappa=kappa,
        K=K,
        alpha=alpha,
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
    n_inputs: int


def _phi_batch(
    sd: SpectralDecomposition, samples: int, seed: int
) -> tuple[np.ndarray, list[str]]:
    """The test battery: its labels (all eigenvectors, all Dirac deltas,
    then seeded random unit vectors, unit m-norm each) and the spectral
    coefficients of the states it screens, the deltas and the random
    vectors, in one (n, n + samples) array.  An eigenvector's coefficients
    are a unit column, and its slack has a closed form, so none is stored:
    column j holds the state of label n + j."""
    n = sd.n
    labels = [f"eigvec:{i}" for i in range(n)]
    labels += [f"delta:{v}" for v in sd.graph.vertex_ids]
    samples = max(samples, 0)
    out = np.empty((n, n + samples))
    np.multiply(np.sqrt(sd.graph.m)[None, :], sd.eigenvectors.T, out=out[:, :n])
    if samples > 0:
        z = out[:, n:]
        z[...] = np.random.default_rng(seed).standard_normal((n, samples))
        z /= vector_norms(z, axis=0)
        labels += _random_labels(samples)
    return out, labels


@functools.lru_cache(maxsize=4)
def _random_labels(samples: int) -> tuple[str, ...]:
    """The labels of the battery's random states, formed once per count."""
    return tuple(f"random:{j}" for j in range(samples))


def _window_terms(
    re: RestrictedEvolution,
    windows: Sequence[tuple[float, float]],
    final_norms: Callable,
    sup: Sequence[bool] | None = None,
) -> list[tuple[float, np.ndarray, np.ndarray, np.ndarray | None]]:
    """The exponent-free terms of ``_closed_form_bounds`` on each window
    (a, b): its width w = b - a and, per column, L2 = ||g||_{L_2(a, b)}
    (closed form), G = ||S_a phi|| (from ``final_norms``, which may cache
    it) and max(g(a), g(b)).  Only r = inf reads g at the ends, so it is
    formed only for the windows that ``sup`` marks (all by default), from
    one ``norms`` call on their distinct ends, and is None elsewhere."""
    sup = [True] * len(windows) if sup is None else sup
    ends = np.unique([t for window, s in zip(windows, sup) if s for t in window])
    g = re.norms(ends) if len(ends) else None
    out = []
    for (a, b), s in zip(windows, sup):
        at_ends = np.maximum(*g[np.searchsorted(ends, [a, b])]) if s else None
        l2 = np.sqrt(re.l2_time_integral(a, b))
        out.append((b - a, l2, final_norms(a), at_ends))
    return out


def _mode_lr_norms(lam: np.ndarray, a, b, r: float) -> np.ndarray:
    """||e^{-lam t}||_{L_r(a, b)} for each rate in ``lam``, in closed form,
    shaped lam.shape + a.shape for windows (a, b) given as arrays.

    With w = b - a it is e^{-lam a} ((1 - e^{-r lam w}) / (r lam))^{1/r},
    w^{1/r} at lam = 0, and e^{-lam a} for r = inf.  The bracket is formed as
    w (1 - e^{-x}) / x with x = r lam w: it is w where x is 0 (or underflows
    to 0) and 1 / (r lam) where x overflows, so a stiff rate or a long window
    gives a finite value or 0.
    """
    head = decay(lam, a)
    if math.isinf(r):
        return head
    w = np.subtract(b, a)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        rate = (r * lam).reshape(np.shape(lam) + (1,) * w.ndim)
        x = rate * w
        bracket = np.where(
            np.isinf(x), 1.0 / rate, w * np.where(x > 0.0, -np.expm1(-x) / x, 1.0)
        )
    return head * bracket ** (1.0 / r)


def _closed_form_bounds(
    terms: tuple[float, np.ndarray, np.ndarray, np.ndarray | None], r: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-column bounds lo <= ||g||_{L_r(a, b)} <= hi, g(t) = ||(S_t phi)|_D||,
    from the window's ``_window_terms``.

    With w = b - a, L2 = ||g||_2 and G = ||S_a phi|| >= sup g:
    - r = 2: both bounds are L2;
    - 1 <= r < 2: (L2^2 / G^{2-r})^{1/r} <= ||g||_r <= w^{1/r - 1/2} L2;
    - r > 2: the same two expressions with their roles swapped;
    - r = inf: max(g(a), g(b), L2 / sqrt(w)) <= sup g <= G.
    """
    w, l2, G, ends = terms
    if math.isinf(r):
        return np.maximum(ends, l2 / math.sqrt(w)), G
    mean = w ** (1.0 / r - 0.5) * l2
    with np.errstate(divide="ignore", invalid="ignore"):
        power = np.where(G > 0.0, l2 ** (2.0 / r) * G ** (1.0 - 2.0 / r), 0.0)
    return np.minimum(mean, power), np.maximum(mean, power)


def _grid_bounds(
    re: RestrictedEvolution, a: float, b: float, exponents: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-column bounds on ||g||_{L_r(a, b)} from g on the graded grid, one
    row of them per exponent r in ``exponents``.

    On the cell [t_k, t_k + h] of ``spectral._graded_grid`` the rate norm
    L_k = ||H S_{t_k} phi|| bounds |g'|, so g stays between
    max(0, (g_k + g_{k+1} - h L_k)/2) and (g_k + g_{k+1} + h L_k)/2 there;
    the grid values themselves bound sup g from below.  Neither g nor the
    reach h L_k depends on r, so every exponent reads one evaluation of the
    batch.
    """
    ts = _graded_grid(a, b, float(re.lam[-1]))
    g = re.norms(ts)
    h = np.diff(ts)[:, None]
    reach = h * re.rate_norms(ts[:-1])
    lo = np.maximum(0.5 * (g[:-1] + g[1:] - reach), 0.0)
    hi = 0.5 * (g[:-1] + g[1:] + reach)

    def bounds(r: float) -> tuple[np.ndarray, np.ndarray]:
        if math.isinf(r):
            return g.max(axis=0), hi.max(axis=0)
        with np.errstate(over="ignore"):  # a bound past the float range reads inf
            return np.sum(h * lo**r, axis=0) ** (1.0 / r), np.sum(h * hi**r, axis=0) ** (1.0 / r)

    los, his = zip(*(bounds(float(r)) for r in exponents))
    return np.array(los), np.array(his)


def _kept(K, lo, hi, base, live, best, margin) -> np.ndarray:
    """``live`` less the states that cannot hold their row's minimum: a
    state goes when its slack lower bound K lo + base (base = alpha -
    ||S_T phi||) exceeds the row's smallest slack upper bound, over its live
    states and ``best``, by more than ``margin``.  Only a definite
    comparison prunes, so a nan bound keeps its state (and, through the nan
    minimum, every state of its row)."""
    ceiling = np.min(K * hi + base, axis=1, initial=np.inf, where=live)
    ceiling = np.minimum(ceiling, best)[:, None]
    return live & ~(K * lo + base > ceiling + margin)


class _ScreenTable:
    """Bound-and-prune state of the constant sets (rows, with their K,
    alpha, window (a, b), r and ||S_T phi|| per column, ``final``) over the
    states that are not eigenvectors (columns): bounds
    lo <= ||g||_{L_r} <= hi per entry and ``live`` marking the states still
    standing.  The smallest exact eigenvector slack of a row, ``best``, is
    an upper bound on its minimum from the start.  Only lo is tightened in
    place: hi is not read after the last prune, and from then on holds each
    state's slack, +inf until the state is settled or certified."""

    def __init__(self, K, alpha, a, b, r, final, exact, lo, hi) -> None:
        self.K, self.alpha, self.a, self.b, self.r = K[:, None], alpha[:, None], a, b, r
        self.final, self.base, self.lo, self.hi = final, self.alpha - final, lo, hi
        self.best = exact.min(axis=1)
        self.margin = (
            _RECHECK_MARGIN_REL * (K + alpha + 1.0) + 2.0 * _LR_REL_TOL * K * hi.max(axis=1)
        )[:, None]
        every = np.ones(lo.shape, dtype=bool)
        self.live = _kept(self.K, lo, hi, self.base, every, self.best, self.margin)

    def tighten(self, rows: np.ndarray, cols: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
        """Tighten the bounds of ``rows`` x ``cols``, which hold every live
        state of ``rows``, with a second pair (rows x cols), and prune those
        rows again."""
        at = np.ix_(rows, cols)
        lo, hi = np.maximum(self.lo[at], lo), np.minimum(self.hi[at], hi)
        self.lo[at] = lo
        K, base, best, margin = self.K[rows], self.base[at], self.best[rows], self.margin[rows]
        self.live[at] = _kept(K, lo, hi, base, self.live[at], best, margin)

    def tie_groups(self) -> list[tuple[int, np.ndarray]]:
        """Each r = inf row's tie group: the columns of the live states whose
        slack lower bound lies within the margin of the smallest one, the
        likeliest first; a row joins only with at least two of them (a nan
        bound joins no group)."""
        rows = np.flatnonzero(np.isinf(self.r))
        lower = self.K[rows] * self.lo[rows] + self.alpha[rows] - self.final[rows]
        live = self.live[rows]
        floor = np.min(lower, axis=1, initial=np.inf, where=live)[:, None]
        tied = live & (lower <= floor + self.margin[rows])
        groups = []
        for i in np.flatnonzero(np.count_nonzero(tied, axis=1) >= 2):
            cols = np.flatnonzero(tied[i])
            first = np.argmin(lower[i, cols])
            groups.append((int(rows[i]), np.concatenate((cols[[first]], np.delete(cols, first)))))
        return groups


def _settle_tie_groups(
    sd: SpectralDecomposition, d_idx: np.ndarray, C: np.ndarray, table: _ScreenTable
) -> None:
    """Settle the tie groups of ``table``'s r = inf rows with one
    certification each (see ``verify_weak_obs_multi``).

    The likeliest member of every group is certified by ``_sup_norms``, all
    of them in one call, which also gives the time t of each one's best
    sample.  g(t) <= sup g, so K g(t) + alpha - ||S_T phi|| bounds each other
    member's slack from below; one ``_norms_at`` call samples them all.  A
    member whose sampled slack is within K ``_LR_REL_TOL`` ||S_a phi|| of
    the representative's certified slack, or above it, is settled with its
    sampled slack, and so is the representative, each slack written to its
    entry of ``table.hi``; the rest stay screened.
    """
    groups = table.tie_groups()
    if not groups:
        return
    rows = [row for row, _ in groups]
    a, b = table.a[rows], table.b[rows]
    reps = np.array([tied[0] for _, tied in groups])
    sup, at = RestrictedEvolution(sd, d_idx, C[:, reps])._sup_norms(a, b)
    sizes = [len(tied) - 1 for _, tied in groups]
    others = RestrictedEvolution(sd, d_idx, C[:, np.concatenate([tied[1:] for _, tied in groups])])
    ends = np.cumsum(sizes)[:-1]
    sampled = np.split(others._norms_at(np.repeat(at, sizes)), ends)
    reach = np.split(_LR_REL_TOL * others.final_norms(np.repeat(a, sizes)), ends)
    for (row, tied), g_rep, g, tol in zip(groups, sup, sampled, reach):
        K, alpha, final = table.K[row, 0], table.alpha[row, 0], table.final[row]
        rep_slack = K * g_rep + alpha - final[tied[0]]
        slack = K * g + alpha - final[tied[1:]]
        drop = slack >= rep_slack - K * tol
        settled = np.concatenate(([tied[0]], tied[1:][drop]))
        table.live[row, settled] = False
        table.hi[row, settled] = np.append(rep_slack, slack[drop])


def verify_weak_obs_multi(
    sd: SpectralDecomposition,
    D: Sequence[str],
    constants_list: Sequence[WeakObsConstants],
    samples: int = 1000,
    seed: int = 0,
) -> list[WeakObsVerification]:
    """Verify several constant sets against one shared input battery.

    An eigenvector e_k of the battery is a single mode: g(t) = c_k e^{-l_k t}
    with c_k = ||(v_k)|_D||, so its slack K c_k ||e^{-l_k t}||_{L_r} + alpha
    - e^{-l_k T} is exact, in closed form (``_mode_lr_norms``, one call per
    distinct r for all its windows).  The smallest of these slacks bounds the
    minimum from above before any other state is looked at.  The Dirac
    deltas and the random states run bound, prune and evaluate on one table
    (``_ScreenTable``) of constant sets by states, each step a few array
    operations over the whole table:
    - bound every state's time norm in closed form (``_closed_form_bounds``);
      the terms that depend on the window (delta T, T) alone, namely the L_2
      integral, ||S_{delta T} phi|| and g at both ends (``_window_terms``),
      are computed once per distinct window and shared by its exponents, g
      once per distinct end of a window with an r = inf set, and
      ||S_t phi|| once per distinct t, whether t is an end delta T or a T;
    - drop the states whose slack lower bound exceeds the smallest slack
      upper bound of their set, the exact eigenvector slack included, by
      more than the margin (``_RECHECK_MARGIN_REL``);
    - bound the states still standing again on a graded grid
      (``_grid_bounds``) and prune once more with the tightened bounds.
      g and its reach on a window's grid do not depend on r, so one call
      grids the union of the states that the window's sets still hold, and
      every set reads its own states' bounds, at its own exponent, from it;
    - at r = inf, settle the set's tie group (``_settle_tie_groups``): the
      survivors whose slack lower bound K lo + alpha - ||S_T phi|| lies
      within the margin of the smallest, when there are at least two.  The
      likeliest member is certified alone (the representatives of every set
      in one ``_sup_norms`` call), and each other member is sampled once,
      at the time of the representative's best sample, in one
      ``_norms_at`` call.  A sample bounds the sup from below, so a member
      whose sampled slack is at least the representative's certified slack
      less K ``_LR_REL_TOL`` ||S_{delta T} phi|| is settled with it,
      unsearched;
    - evaluate the survivors of every set together in one batched
      ``RestrictedEvolution.lr_norms`` call on their spectral coefficients,
      each column on its own set's window and exponent: estimated to
      ``_LR_REL_TOL`` for finite r, by one Simpson run per distinct window
      on the times its columns share, and certified for r = inf.
    Each set's slacks form one row in battery-label order: the exact
    eigenvector slacks, then each other state's certified or settled slack,
    +inf where it was pruned (the row shares its storage with the exact
    slacks and hi).  No pruned state can hold the minimum, so the reported
    minimum slack is the row's smallest entry, a nan one included, and its
    label the first state in battery order that holds it.  For r = inf
    each entry is a lower bound on its state's slack, so the minimum is a
    lower bound on the battery's; it lies within K tol of it
    where no tie group forms and within 2 K tol where one does,
    tol = ``_LR_REL_TOL`` max ||S_{delta T} phi|| (a settled member's
    sampled slack is within K tol of the representative's certified one,
    which is within K tol of the representative's slack).  A sample does
    not bound an L_r norm from below, so finite r has no tie rule.
    """
    d_idx = sd.graph.subset_indices(D)
    if len(d_idx) == 0:
        raise EmptySubset("verification needs a nonempty observation set")
    if not constants_list:
        return []
    C, labels = _phi_batch(sd, samples, seed)
    n, lam = sd.n, sd.eigenvalues
    re = RestrictedEvolution(sd, d_idx, C)
    seen = vector_norms(re.W, axis=0)  # c_k = ||(v_k)|_D||
    final_norms = functools.cache(re.final_norms)

    K, alpha, a, b, r = np.array([(c.K, c.alpha, c.delta * c.T, c.T, c.r) for c in constants_list]).T
    windows: dict[tuple[float, float], int] = {}
    window = np.array([windows.setdefault(w, len(windows)) for w in zip(a.tolist(), b.tolist())])
    sup = np.zeros(len(windows), dtype=bool)
    sup[window[np.isinf(r)]] = True
    terms = _window_terms(re, list(windows), final_norms, sup.tolist())
    slacks = np.empty((len(r), n + C.shape[1]))  # each set's slack row, by label
    exact, hi = slacks[:, :n], slacks[:, n:]
    lo = np.empty_like(hi)
    for i, (w, r_i) in enumerate(zip(window.tolist(), r.tolist())):
        lo[i], hi[i] = _closed_form_bounds(terms[w], r_i)
    for r_i in dict.fromkeys(r.tolist()):  # a scalar exponent, as each set's own would be
        rows = r == r_i
        exact[rows] = seen * _mode_lr_norms(lam, a[rows], b[rows], r_i).T
    exact *= K[:, None]
    exact += alpha[:, None] - decay(lam, b).T
    final = np.array([final_norms(T) for T in b.tolist()])
    table = _ScreenTable(K, alpha, a, b, r, final, exact, lo, hi)

    # the closed forms are loose where g moves fast, as at a = 0: one grid
    # of the union of a window's survivors tightens them for every set
    standing = table.live.any(axis=1)
    for w, (wa, wb) in enumerate(windows):
        rows = np.flatnonzero((window == w) & standing)
        if len(rows):
            union = np.flatnonzero(table.live[rows].any(axis=0))
            exponents = np.unique(r[rows])
            glo, ghi = _grid_bounds(RestrictedEvolution(sd, d_idx, C[:, union]), wa, wb, exponents)
            at = np.searchsorted(exponents, r[rows])
            table.tighten(rows, union, glo[at], ghi[at])
    hi.fill(np.inf)  # the last prune is done: hi takes the slacks found from here on
    _settle_tie_groups(sd, d_idx, C, table)

    # one certification for the survivors of every set, each on its own window
    rows, cols = np.nonzero(table.live)
    if len(rows):
        certified = RestrictedEvolution(sd, d_idx, C[:, cols]).lr_norms(a[rows], b[rows], r[rows])
        hi[rows, cols] = K[rows] * certified + alpha[rows] - final[rows, cols]
    worst = np.argmin(slacks, axis=1)  # the first nan, where a row has one
    low = slacks[np.arange(len(slacks)), worst]
    return [
        WeakObsVerification(constants=c, min_slack=m, worst_label=labels[w], n_inputs=len(labels))
        for c, m, w in zip(constants_list, low.tolist(), worst.tolist())
    ]


def verify_weak_obs(
    sd: SpectralDecomposition,
    D: Sequence[str],
    constants: WeakObsConstants,
    samples: int = 1000,
    seed: int = 0,
) -> WeakObsVerification:
    """Minimum slack of ||S_T phi|| <= K ||(S_. phi)|_D||_{L_r(dT,T)} + alpha."""
    return verify_weak_obs_multi(sd, D, [constants], samples, seed)[0]


def exact_obs_constant(sd: SpectralDecomposition, D: Sequence[str], T: float) -> float:
    """Smallest C with ||S_T phi||^2 <= C^2 int_0^T ||(S_t phi)|_D||^2 dt.

    Square root of the largest generalized eigenvalue of (S_T^* S_T, G)
    where G is the observability Gramian, the one ``gramian`` keeps on
    ``sd`` for ``synth_control`` too; +inf exactly when G is not
    ``Gramian.nonsingular``, the rank decision ``synth_control`` uses to
    refuse null control (S_T is injective on a finite graph, so any null
    direction of G defeats every finite constant).
    """
    if T <= 0:
        raise ValidationError(f"final time must be positive, got {T}")
    Q = gramian(sd, D, T)
    if not Q.nonsingular:
        return math.inf
    A = np.diag(decay(2.0 * sd.eigenvalues, T))
    w = scipy.linalg.eigh(A, Q.matrix, eigvals_only=True)
    return math.sqrt(max(float(w[-1]), 0.0))
