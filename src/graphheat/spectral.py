"""Weighted Laplacian, eigendecomposition, heat semigroup, and time norms.

All state vectors are numpy arrays ordered like the graph's vertex list;
complex scalars are supported throughout this module (the control layer
takes real states only).  The Laplacian is symmetrized by
conjugation with the square-root measure scaling, solved with a dense
symmetric eigensolver, and scaled back, so the returned eigenvectors are
orthonormal in the m-weighted inner product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import EigensolveFailure, EmptySubset, NegativeTime
from .graph import WeightedGraph
from .quadrature import _CHUNK_ELEMENTS, adaptive_simpson

# Relative tolerance of each column's estimated integral of g^r, and of each
# column's certified supremum, relative to ||S_a f||.
_LR_REL_TOL = 1e-10
# Cells of the graded grid that starts the grid bounds and the supremum search.
_GRID_CELLS = 32


def apply_laplacian(g: WeightedGraph, f: Sequence[complex]) -> np.ndarray:
    """Pointwise Laplacian Hf(x) = (1/m(x)) sum_y b(x,y) (f(x) - f(y)) of a
    state, or of each column of an (n, k) batch of states."""
    f = np.asarray(f)
    rowsum, m = g.weights.sum(axis=1), g.m
    if f.ndim != 1:
        rowsum, m = rowsum[:, None], m[:, None]
    return (rowsum * f - g.weights @ f) / m


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Ascending eigenvalues and m-orthonormal eigenvectors of the Laplacian."""

    graph: WeightedGraph
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns, ordered like eigenvalues

    def __post_init__(self) -> None:
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)

    @property
    def n(self) -> int:
        return self.graph.n

    def inner(self, f, g) -> complex:
        """m-weighted inner product <f, g> = sum f(x) conj(g(x)) m(x)."""
        return complex(np.sum(np.asarray(f) * np.conj(np.asarray(g)) * self.graph.m))

    def norm(self, f) -> float:
        return math.sqrt(float(np.sum(np.abs(np.asarray(f)) ** 2 * self.graph.m)))

    def coefficients(self, f) -> np.ndarray:
        """Spectral coefficients <f, v_i> of a state, or of each column of
        an (n, k) batch of states."""
        f = np.asarray(f)
        m = self.graph.m if f.ndim == 1 else self.graph.m[:, None]
        return self.eigenvectors.T @ (m * f)

    def synthesize(self, coefs) -> np.ndarray:
        return self.eigenvectors @ np.asarray(coefs)

    @cached_property
    def scale(self) -> float:
        """The size of the spectrum: lam_max, or 1 where it is {0}."""
        top = float(self.eigenvalues[-1])
        return top if top > 0.0 else 1.0

    def eigenvalue_groups(self) -> list[tuple[float, np.ndarray]]:
        """Indices grouped by numerically repeated eigenvalues (within
        1e-8 ``scale`` of the group's smallest, so the grouping does not
        depend on the size of m)."""
        lam = self.eigenvalues
        tol = 1e-8 * self.scale
        groups: list[tuple[float, np.ndarray]] = []
        start = 0
        for i in range(1, len(lam) + 1):
            if i == len(lam) or lam[i] - lam[start] > tol:
                idx = np.arange(start, i)
                groups.append((float(lam[idx].mean()), idx))
                start = i
        return groups


def eigendecompose(g: WeightedGraph) -> SpectralDecomposition:
    """Full eigendecomposition of the weighted Laplacian."""
    rowsum = g.weights.sum(axis=1)
    lap = np.diag(rowsum) - g.weights
    inv_sqrt_m = 1.0 / np.sqrt(g.m)
    sym = inv_sqrt_m[:, None] * lap * inv_sqrt_m[None, :]
    sym = 0.5 * (sym + sym.T)
    try:
        lam, vecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise EigensolveFailure(str(exc)) from exc
    tol = 1e-12 * (max(float(lam[-1]), 0.0) + 1.0)
    if lam[0] < -tol:
        raise EigensolveFailure(f"negative eigenvalue {lam[0]} beyond tolerance")
    lam = np.where(lam < 0.0, 0.0, lam)
    return SpectralDecomposition(g, lam, inv_sqrt_m[:, None] * vecs)


def op_norm_H_plus_1(sd: SpectralDecomposition) -> float:
    """Operator norm of H + 1 (H is self-adjoint and nonnegative)."""
    return float(sd.eigenvalues[-1]) + 1.0


def _eigen_residuals(sd: SpectralDecomposition, lam, vectors) -> np.ndarray:
    """||H v - lam v|| / ``sd.scale`` for each column v of ``vectors`` (n, k),
    with one lam per column or one for all.

    H is linear, so it is applied through ``apply_laplacian`` to
    w = v / (||v||_inf scale), whose image is of unit size, and the m-norm of
    H w - lam w is taken with the factor ||v||_inf put back per entry: a
    measure near either end of the float range, where H v itself would
    overflow or its residual underflow, leaves the value in range.
    """
    V = np.asarray(vectors)
    top = np.abs(V).max(axis=0)
    top = np.where(top > 0.0, top, 1.0)
    w = V / top / sd.scale
    R = apply_laplacian(sd.graph, w) - w * lam
    return np.linalg.norm(np.sqrt(sd.graph.m)[:, None] * top * R, axis=0)


def semigroup_apply(sd: SpectralDecomposition, t: float, f) -> np.ndarray:
    """Heat semigroup e^{-tH} applied to a state vector."""
    if t < 0:
        raise NegativeTime(f"semigroup time must be nonnegative, got {t}")
    c = sd.coefficients(f)
    with np.errstate(over="ignore"):  # lam t beyond the float range decays to 0
        damp = np.exp(-sd.eigenvalues * t)
    return sd.synthesize(damp * c)


def _graded_grid(a: float, b: float, lam_max: float) -> np.ndarray:
    """``_GRID_CELLS`` + 1 ascending nodes from a to b, graded toward a.

    The cells grow geometrically from about log(1 + w lam_max) / (32 lam_max),
    w = b - a, so the first ones resolve the fastest mode.  The grade stops
    at 700, where e^grade still fits a float.
    """
    x = np.linspace(0.0, 1.0, _GRID_CELLS + 1)
    grade = min(math.log1p((b - a) * lam_max), 700.0)
    ts = a + (b - a) * (np.expm1(grade * x) / math.expm1(grade) if grade > 0.0 else x)
    ts[-1] = b
    return ts


def _gramian_kernel(
    sd: SpectralDecomposition, d_idx: np.ndarray, a: float, w: float
) -> np.ndarray:
    """Restricted Gramian int_a^{a+w} S_t 1_D 1_D^* S_t dt in the eigenbasis.

    Entry (i, j) is C_ij e^{-s a} (1 - e^{-s w}) / s with s = l_i + l_j,
    and C_ij w where s = 0; C = W^T W for the sqrt(m)-weighted D-rows W of
    the eigenvectors.
    """
    lam = sd.eigenvalues
    W = np.sqrt(sd.graph.m[d_idx])[:, None] * sd.eigenvectors[d_idx, :]
    S = lam[:, None] + lam[None, :]
    # S a or S w beyond the float range gives e^{-inf} = 0, the decayed value
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        F = np.exp(-S * a) * (-np.expm1(-S * w)) / S
    F[S == 0.0] = w
    return (W.T @ W) * F


class RestrictedEvolution:
    """Vectorized evaluation of t -> ||(S_t f)|_D|| for a batch of states.

    Holds the D-restricted, sqrt(m)-scaled eigenvector rows W (|D| x n) and
    the spectral coefficients C (n x batch) of the batch; every evaluation
    on shared times is one matrix product per chunk of times, in which
    e^{-lam t} scales the smaller of W and C.
    """

    def __init__(self, sd: SpectralDecomposition, d_indices: np.ndarray, coefs: np.ndarray):
        if len(d_indices) == 0:
            raise EmptySubset("restricted evolution needs a nonempty subset")
        self.sd = sd
        self.d_indices = d_indices
        self.lam = sd.eigenvalues
        mD = sd.graph.m[d_indices]
        self.W = np.sqrt(mD)[:, None] * sd.eigenvectors[d_indices, :]
        coefs = np.asarray(coefs)
        self.C = coefs[:, None] if coefs.ndim == 1 else coefs

    def norms(self, ts) -> np.ndarray:
        """Restricted norms g(t) = ||(S_t f)|_D||, one row per row of times.

        ``ts`` is a 1-D array of times shared by the batch, giving shape
        (len(ts), batch), or a (rows, batch) array with one time per entry
        (``_entry_norms``), where a nan entry is not evaluated and gives nan.

        On shared times the exponentials scale whichever factor is smaller:
        the rows of W, stacked over the chunk's times into one
        (times |D|) x n matrix times C, when the batch is wider than |D|,
        and otherwise the columns of C, stacked into one n x (times batch)
        matrix that W multiplies.  The products are the same; the
        temporaries are not.  Each chunk of times keeps the scaled factor
        and the product together within ``_CHUNK_ELEMENTS`` entries (one
        time per chunk when a single time needs more).
        """
        ts = np.asarray(ts, dtype=float)
        if ts.ndim == 2:
            return self._entry_norms(ts)
        ts = np.atleast_1d(ts)
        n, n_batch = self.C.shape
        d = self.W.shape[0]
        wide = n_batch > d
        out = np.empty((len(ts), n_batch))
        # per time, the scaled factor has n min(d, batch) entries and U has d batch
        chunk = max(1, _CHUNK_ELEMENTS // max(1, n * min(d, n_batch) + d * n_batch))
        for k0 in range(0, len(ts), chunk):
            tc = ts[k0 : k0 + chunk]
            with np.errstate(over="ignore"):  # lam t beyond the float range decays to 0
                E = np.exp(-np.outer(tc, self.lam))  # (tc, n)
            if wide:  # scale the d x n rows of W per time: one GEMM with C
                U = (E[:, None, :] * self.W[None]).reshape(-1, n) @ self.C
                shape, axis = (len(tc), d, n_batch), 1
            else:  # scale the batch per time, then one GEMM with W
                U = self.W @ (E.T[:, :, None] * self.C[:, None, :]).reshape(n, -1)
                shape, axis = (d, len(tc), n_batch), 0
            U = np.abs(U) if np.iscomplexobj(U) else U
            out[k0 : k0 + len(tc)] = np.sum(np.square(U, out=U).reshape(shape), axis=axis)
            del U  # no chunk's arrays outlive it: the peak is one scaled factor and one U
        return np.sqrt(out)

    def _entry_norms(self, ts: np.ndarray) -> np.ndarray:
        """g at time ts[i, j] for column j, nan where ts[i, j] is nan.

        The entries are taken in time order, so each chunk needs one
        exponential per distinct time in it.  At most four arrays of n values
        per entry of a chunk are alive at once (the exponentials, the two
        gathered factors and their product), and they share
        ``_CHUNK_ELEMENTS``.
        """
        out = np.full(ts.shape, np.nan)
        rows, cols = np.nonzero(~np.isnan(ts))
        times, which = np.unique(ts[rows, cols], return_inverse=True)
        order = np.argsort(which, kind="stable")
        rows, cols, which = rows[order], cols[order], which[order]
        n = len(self.lam)
        chunk = max(1, _CHUNK_ELEMENTS // (4 * n))
        for k0 in range(0, len(which), chunk):
            sl = slice(k0, k0 + chunk)
            first = which[k0]
            with np.errstate(over="ignore"):  # lam t beyond the float range decays to 0
                E = np.exp(-np.outer(self.lam, times[first : which[sl][-1] + 1]))
            U = self.W @ (E[:, which[sl] - first] * self.C[:, cols[sl]])
            U = np.abs(U) if np.iscomplexobj(U) else U
            out[rows[sl], cols[sl]] = np.sum(np.square(U, out=U), axis=0)
            del E, U  # freed before the next chunk allocates its own
        return np.sqrt(out)

    def final_norms(self, T) -> np.ndarray:
        """Unrestricted norms ||S_T f|| for the batch; T is one time for all
        columns or one per column."""
        with np.errstate(over="ignore"):  # lam T beyond the float range decays to 0
            damp = np.exp(np.multiply.outer(-2.0 * self.lam, T))
        damp = damp.reshape(len(self.lam), -1)  # (n, 1) or (n, batch)
        return np.sqrt(np.sum(np.abs(self.C) ** 2 * damp, axis=0))

    def rate_norms(self, ts) -> np.ndarray:
        """||H S_t f|| for each time (rows) and column.

        It decreases in t and bounds |d/ds ||(S_s f)|_D|| for every s >= t,
        so it is a Lipschitz constant of the restricted norm on [t, oo).
        The rates are scaled by ``sd.scale``, so a stiff spectrum, whose lam^2
        overflows, gives +inf or a finite value and never inf * 0.
        """
        scale = self.sd.scale
        with np.errstate(over="ignore"):  # lam t beyond the float range decays to 0
            decay = np.exp(-np.outer(np.atleast_1d(ts), self.lam))
        damp = np.square(self.lam / scale * decay)
        return scale * np.sqrt(damp @ np.abs(self.C) ** 2)

    def l2_time_integral(self, a: float, b: float) -> np.ndarray:
        """Closed form of int_a^b ||(S_t f)|_D||^2 dt for the batch."""
        M = _gramian_kernel(self.sd, self.d_indices, a, b - a)
        vals = np.sum(np.conj(self.C) * (M @ self.C), axis=0).real
        return np.maximum(vals, 0.0)

    @cached_property
    def _groups(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """The eigenvalue groups, stacked by size k: indices (g, k), a factor
        R (g, min(d, k), k) with ||R_J x|| = ||W_J x|| on each group J, and
        each group's largest eigenvalue and spread."""
        by_size: dict[int, list[np.ndarray]] = {}
        for _lam, idx in self.sd.eigenvalue_groups():
            by_size.setdefault(len(idx), []).append(idx)
        out = []
        for groups in by_size.values():
            idx = np.array(groups)
            R = np.linalg.qr(self.W[:, idx].transpose(1, 0, 2), mode="r")
            top = self.lam[idx[:, -1]]
            out.append((idx, R, top, top - self.lam[idx[:, 0]]))
        return out

    def _cell_bounds(
        self, lo: np.ndarray, h: np.ndarray, cols: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """g(lo) and an upper bound on g over [lo, lo + h] for each cell,
        g(t) = ||(S_t f)|_D|| of column ``cols`` of the batch.

        With u0 = (S_lo f)|_D and u1 = (H S_lo f)|_D, g(lo + s) <=
        ||u0 - s u1|| + rem(s), where rem(s) bounds the Taylor remainder by
        the smaller of
        - (s^2 / 2) ||H^2 S_lo f||, and
        - the sum over eigenvalue groups J of (s^2 / 2) l_{J,max}^2
          ||(P_J S_lo f)|_D|| + s (l_{J,max} - l_{J,min}) ||P_J S_lo f||,
          which stays small for a state that D does not see.
        With either remainder, ||u0 - s u1|| + rem(s) is convex in s and is
        ||u0|| at s = 0, so its maximum on [0, h] sits at an end:
        g <= max(||u0||, ||u0 - h u1|| + rem(h)).
        """
        lam = self.lam[:, None]
        g0, ub = np.empty(len(lo)), np.empty(len(lo))
        # X and the arrays alive with it (about three more) share the budget
        chunk = max(1, _CHUNK_ELEMENTS // (4 * len(self.lam)))
        for k0 in range(0, len(lo), chunk):
            cells = slice(k0, k0 + chunk)
            hc = h[cells]
            # h and lam scale the data one at a time, never each other: on a
            # stiff spectrum a product may overflow to inf, but a mode that
            # has decayed to 0 stays 0 instead of giving inf * 0
            with np.errstate(over="ignore", invalid="ignore"):
                X = np.exp(-lam * lo[cells]) * self.C[:, cols[cells]]
                u0 = self.W @ X
                g0[cells] = np.linalg.norm(u0, axis=0)
                hLX = hc * (lam * X)
                end = np.linalg.norm(u0 - self.W @ hLX, axis=0)
                rem = 0.5 * np.linalg.norm(hc * (lam * hLX), axis=0)
                by_group = 0.0
                for idx, R, top, spread in self._groups:
                    Xg, top = X[idx], top[:, None]
                    seen = np.linalg.norm(R @ Xg, axis=1)
                    by_group += 0.5 * np.sum(hc * (top * (hc * (top * seen))), axis=0)
                    by_group += hc * (spread @ np.linalg.norm(Xg, axis=1))
                ub[cells] = np.maximum(g0[cells], end + np.fmin(rem, by_group))
        return g0, ub

    def _columns(self, keep: np.ndarray) -> RestrictedEvolution:
        """The same evolution on the columns ``keep`` of the batch."""
        if keep.all():
            return self
        return RestrictedEvolution(self.sd, self.d_indices, self.C[:, keep])

    def _sup_norms(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Certified sup of g over [a[j], b[j]] for each column j, by bound
        and bisect.

        The cells of each column's graded grid are bisected while their upper
        bound (``_cell_bounds``) exceeds the column's best sampled value s by
        more than ``_LR_REL_TOL`` ||S_a f||; s is returned, so s <= sup g <=
        s + _LR_REL_TOL ||S_a f||.  A cell with no float between its ends
        holds no time that is not sampled, so it is not bisected.  A bound
        that overflows (+inf, or nan from inf - inf) counts as exceeding.
        """
        n_batch = self.C.shape[1]
        windows, window_of = np.unique(np.stack([a, b], axis=1), axis=0, return_inverse=True)
        lam_max = float(self.lam[-1])
        grids = np.array([_graded_grid(wa, wb, lam_max) for wa, wb in windows.tolist()])
        ts = grids[window_of.ravel()]  # (batch, _GRID_CELLS + 1)
        best = self.norms(b[None, :])[0]
        tol = _LR_REL_TOL * self.final_norms(a)
        lo = ts[:, :-1].ravel()
        hi = ts[:, 1:].ravel()
        cols = np.repeat(np.arange(n_batch), _GRID_CELLS)
        while len(lo):
            g0, ub = self._cell_bounds(lo, hi - lo, cols)
            np.maximum.at(best, cols, g0)
            mid = 0.5 * (lo + hi)
            split = ~(ub <= best[cols] + tol[cols]) & (lo < mid) & (mid < hi)
            lo, mid, hi, cols = lo[split], mid[split], hi[split], cols[split]
            lo, hi, cols = np.r_[lo, mid], np.r_[mid, hi], np.r_[cols, cols]
        return best

    def lr_norms(self, a, b, r) -> np.ndarray:
        """L_r norms in time, one per column over its window (a, b).

        Each of a, b and r is one value for the batch or one per column.
        The finite-r columns integrate the r-th power in one adaptive
        Simpson call, each column estimated to relative tolerance
        ``_LR_REL_TOL`` of its own integral (Simpson's error estimate, not a
        bound), on times shared by the batch when the window is.  The r = inf
        columns are certified: they bisect their graded grids in one run
        until each sampled maximum is within ``_LR_REL_TOL`` ||S_a f|| of
        its supremum, a proven bracket (``_sup_norms``).
        """
        n_batch = self.C.shape[1]
        a, b, r = (np.broadcast_to(np.asarray(v, dtype=float), (n_batch,)) for v in (a, b, r))
        out = np.empty(n_batch)
        sup = np.isinf(r)
        if sup.any():
            out[sup] = self._columns(sup)._sup_norms(a[sup], b[sup])
        fin = ~sup
        if fin.any():
            part, a, b, r = self._columns(fin), a[fin], b[fin], r[fin]
            if np.all(a == a[0]) and np.all(b == b[0]):
                a, b = a[0], b[0]  # one window: the batch shares its times
            if np.all(r == r[0]):
                r = float(r[0])  # numpy's scalar-exponent paths: x ** 2 is x * x, x ** 0.5 sqrt
            integrals = adaptive_simpson(
                lambda ts: part.norms(ts) ** r, a, b, rel_tol=_LR_REL_TOL, norm=np.abs
            )
            out[fin] = integrals ** (1.0 / r)
        return out


def time_lr_norm(
    sd: SpectralDecomposition,
    f0,
    D: Sequence[str],
    window: tuple[float, float],
    r: float,
) -> float | np.ndarray:
    """L_r norm in time of t -> ||(S_t f0)|_D|| over the window (a, b).

    ``f0`` is one state (a float is returned) or an (n, k) batch (one norm
    per column), from ``RestrictedEvolution.lr_norms``: for finite r
    estimated to relative tolerance ``_LR_REL_TOL`` of the integral, and for
    r = inf certified from below, within ``_LR_REL_TOL`` ||S_a f0|| of the
    supremum.
    """
    a, b = float(window[0]), float(window[1])
    if not (0.0 <= a < b):
        raise ValueError(f"window must satisfy 0 <= a < b, got ({a}, {b})")
    if not (r >= 1.0):
        raise ValueError(f"norm index must lie in [1, inf], got {r}")
    d_idx = sd.graph.subset_indices(D)
    if len(d_idx) == 0:
        raise EmptySubset("time norm needs a nonempty observation set")
    f0 = np.asarray(f0)
    norms = RestrictedEvolution(sd, d_idx, sd.coefficients(f0)).lr_norms(a, b, r)
    return float(norms[0]) if f0.ndim == 1 else norms
