"""Weighted Laplacian, eigendecomposition, heat semigroup, and time norms.

All state vectors are real numpy arrays ordered like the graph's vertex
list; complex input raises ``ValidationError``.  The Laplacian is
symmetrized by conjugation with the square-root measure scaling, solved
with a dense symmetric eigensolver, and scaled back, so the returned
eigenvectors are orthonormal in the m-weighted inner product.  Every
e^{-lam t} comes from ``decay``: lam t beyond the float range decays to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import EigensolveFailure, EmptySubset, NegativeTime, ValidationError
from .graph import WeightedGraph
from .quadrature import _BLOCK_ELEMENTS, _CHUNK_ELEMENTS, _blocks, adaptive_simpson

# Relative tolerance of each column's estimated integral of g^r, and of each
# column's certified supremum, relative to ||S_a f||.
_LR_REL_TOL = 1e-10
# Cells of the graded grid that starts the grid bounds and the supremum search.
_GRID_CELLS = 32
# Most subcells a cell of the supremum search splits into per wave.
_MAX_SPLIT = 8


def _real(x, what: str) -> np.ndarray:
    """``x`` as a float array; complex input is rejected, not truncated."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        raise ValidationError(f"{what} must be real, got complex values")
    return np.asarray(x, dtype=float)


def decay(lam, t) -> np.ndarray:
    """e^{-lam t} for every pair of an entry of ``lam`` and an entry of
    ``t``, shaped lam.shape + t.shape; a product lam t beyond the float
    range gives e^{-inf} = 0, the decayed value."""
    with np.errstate(over="ignore"):
        return np.exp(-np.multiply.outer(lam, t))


def apply_laplacian(g: WeightedGraph, f: Sequence[float]) -> np.ndarray:
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

    def inner(self, f, g) -> float:
        """m-weighted inner product <f, g> = sum f(x) g(x) m(x)."""
        return float(np.sum(np.asarray(f) * np.asarray(g) * self.graph.m))

    def norm(self, f) -> float:
        return math.sqrt(self.inner(f, f))

    def coefficients(self, f) -> np.ndarray:
        """Spectral coefficients <f, v_i> of a state, or of each column of
        an (n, k) batch of states."""
        f = np.asarray(f)
        m = self.graph.m if f.ndim == 1 else self.graph.m[:, None]
        return self.eigenvectors.T @ (m * f)

    def synthesize(self, coefs) -> np.ndarray:
        return self.eigenvectors @ np.asarray(coefs)

    @cached_property
    def _group_factors(self) -> dict:
        """``RestrictedEvolution._groups`` per observation set, keyed by its
        vertex indices."""
        return {}

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
    """Full eigendecomposition of the weighted Laplacian.

    The symmetrized Laplacian 0.5 (S + S^T), S = m^{-1/2} (diag(b 1) - b)
    m^{-1/2}, is built in one n x n array, by the same operations in the
    same order as the formula, so it holds the formula's bits: an
    off-diagonal entry is 0 - b(x, y), a +0 where b is 0 as in the formula
    (a -0 could turn the sign of a Householder reflector in ``eigh``)."""
    inv_sqrt_m = 1.0 / np.sqrt(g.m)
    with np.errstate(over="ignore"):
        sym = np.subtract(0.0, g.weights)
        sym.flat[:: g.n + 1] = g.weights.sum(axis=1) - np.diagonal(g.weights)
        sym *= inv_sqrt_m[:, None]
        sym *= inv_sqrt_m[None, :]
        sym += sym.T  # numpy reads the transposed operand from a copy
        sym *= 0.5
    if not np.isfinite(sym).all():
        raise EigensolveFailure(
            "the symmetrized Laplacian m^{-1/2} L m^{-1/2} has entries beyond the float range"
        )
    try:
        lam, vecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise EigensolveFailure(str(exc)) from exc
    tol = 1e-12 * (max(float(lam[-1]), 0.0) + 1.0)
    if lam[0] < -tol:
        raise EigensolveFailure(f"negative eigenvalue {lam[0]} beyond tolerance")
    lam = np.where(lam < 0.0, 0.0, lam)
    vecs *= inv_sqrt_m[:, None]
    return SpectralDecomposition(g, lam, vecs)


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
    return sd.synthesize(decay(sd.eigenvalues, t) * sd.coefficients(_real(f, "state")))


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
    the eigenvectors.  C is scaled in place a block of rows at a time, by
    the operations of e^{-s a} (-expm1(-s w)) / s in their order, so no
    n x n factor is formed.
    """
    lam = sd.eigenvalues
    W = np.sqrt(sd.graph.m[d_idx])[:, None] * sd.eigenvectors[d_idx, :]
    out = W.T @ W
    for rows in _blocks(len(lam), _BLOCK_ELEMENTS // (3 * len(lam))):
        S = lam[rows, None] + lam[None, :]
        # S w beyond the float range gives expm1(-inf) = -1, and S = 0 gives 0 / 0
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            F = np.multiply(S, -w)
            np.negative(np.expm1(F, out=F), out=F)
            E = np.multiply(S, a)  # decay(S, a), in place
            np.exp(np.negative(E, out=E), out=E)
            np.divide(np.multiply(E, F, out=F), S, out=F)
        F[S == 0.0] = w
        out[rows] *= F
    return out


def _norms(x: np.ndarray, axis: int) -> np.ndarray:
    """``np.linalg.norm(x, axis=axis)`` of a real array, by its own
    operations (the root of the sum of squares) without its dispatch."""
    return np.sqrt(np.add.reduce(x * x, axis=axis))


def _cell_chunk(n: int) -> int:
    """The cells of a wave of the supremum search on n modes up to which a
    cell splits more than two ways (``RestrictedEvolution._sup_norms``):
    four arrays of n values per cell fill the wave budget
    ``_CHUNK_ELEMENTS``.  It shapes the waves, not their memory:
    ``_cell_bounds`` evaluates a wave in blocks of ``_BLOCK_ELEMENTS``."""
    return max(1, _CHUNK_ELEMENTS // (4 * n))


class RestrictedEvolution:
    """Vectorized evaluation of t -> ||(S_t f)|_D|| for a batch of states.

    Holds the D-restricted, sqrt(m)-scaled eigenvector rows W (|D| x n) and
    the spectral coefficients C (n x batch) of the batch; every evaluation
    on shared times is one matrix product per block of times and columns,
    in which e^{-lam t} scales the smaller of W and C.
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
        the rows of W, stacked over the block's times into one
        (times |D|) x n matrix times C, when the batch is wider than |D|,
        and otherwise the columns of C, stacked into one n x (times batch)
        matrix that W multiplies.  The products are the same; the
        temporaries are not.  The rows of W are scaled only when one time's
        copy of W fills at most half of ``_BLOCK_ELEMENTS``, so the product
        gets the other half.  Each block of times and columns keeps the
        scaled factor and the product together within ``_BLOCK_ELEMENTS``
        entries (one time per block when a single time needs more).
        """
        ts = np.asarray(ts, dtype=float)
        if ts.ndim == 2:
            return self._entry_norms(ts)
        ts = np.atleast_1d(ts)
        n, n_batch = self.C.shape
        d = self.W.shape[0]
        wide = n_batch > d and 2 * d * n <= _BLOCK_ELEMENTS
        out = np.empty((len(ts), n_batch))
        # per time, the scaled factor has d n entries (wide) or n per column,
        # and U has d per column
        if wide:
            width = min(n_batch, (_BLOCK_ELEMENTS - d * n) // d)
            per_time = d * (n + width)
        else:
            width = min(n_batch, _BLOCK_ELEMENTS // (n + d))
            per_time = (n + d) * max(1, width)
        chunk = max(1, _BLOCK_ELEMENTS // per_time)
        columns = _blocks(n_batch, width)
        for k0 in range(0, len(ts), chunk):
            tc = ts[k0 : k0 + chunk]
            E = decay(self.lam, tc)  # (n, tc)
            if wide:  # scale the d x n rows of W per time: one GEMM per block of C
                scaled = (E.T[:, None, :] * self.W[None]).reshape(-1, n)
            for cb in columns:
                C = self.C[:, cb]
                if wide:
                    U = scaled @ C
                    shape, axis = (len(tc), d, C.shape[1]), 1
                else:  # scale the block per time, then one GEMM with W
                    U = self.W @ (E[:, :, None] * C[:, None, :]).reshape(n, -1)
                    shape, axis = (d, len(tc), C.shape[1]), 0
                out[k0 : k0 + len(tc), cb] = np.add.reduce(np.square(U, out=U).reshape(shape), axis=axis)
                del U  # no block's arrays outlive it
        return np.sqrt(out)

    def _entry_norms(self, ts: np.ndarray) -> np.ndarray:
        """g at time ts[i, j] for column j, nan where ts[i, j] is nan.

        The entries are taken in time order, so each chunk needs one
        exponential per distinct time in it.  At most four arrays of n values
        per entry of a chunk are alive at once (the exponentials, the two
        gathered factors and their product), and they share
        ``_BLOCK_ELEMENTS``.
        """
        out = np.full(ts.shape, np.nan)
        rows, cols = np.nonzero(~np.isnan(ts))
        t = ts[rows, cols]
        order = np.argsort(t, kind="stable")
        rows, cols, t = rows[order], cols[order], t[order]
        new = np.ones(len(t), dtype=bool)  # the first entry of each distinct time
        new[1:] = t[1:] != t[:-1]
        times, which = t[new], np.cumsum(new) - 1
        n = len(self.lam)
        chunk = max(1, _BLOCK_ELEMENTS // (4 * n))
        for k0 in range(0, len(which), chunk):
            sl = slice(k0, k0 + chunk)
            first = which[k0]
            E = decay(self.lam, times[first : which[sl][-1] + 1])
            U = self.W @ (E[:, which[sl] - first] * self.C[:, cols[sl]])
            out[rows[sl], cols[sl]] = np.add.reduce(np.square(U, out=U), axis=0)
            del E, U  # freed before the next chunk allocates its own
        return np.sqrt(out)

    def final_norms(self, T) -> np.ndarray:
        """Unrestricted norms ||S_T f|| for the batch; T is one time for all
        columns or one per column, or, for a one-column batch, any number
        of times.  Blocks of columns hold two n x block arrays, and each
        column's sum runs over the modes in order, as one sum over the
        whole batch does."""
        C, damp = np.broadcast_arrays(self.C, decay(2.0 * self.lam, T).reshape(len(self.lam), -1))
        n, width = C.shape
        out = np.empty(width)
        for cb in _blocks(width, _BLOCK_ELEMENTS // (2 * n)):
            out[cb] = np.add.reduce(np.square(C[:, cb]) * damp[:, cb], axis=0)
        return np.sqrt(out)

    def rate_norms(self, ts) -> np.ndarray:
        """||H S_t f|| for each time (rows) and column.

        It decreases in t and bounds |d/ds ||(S_s f)|_D|| for every s >= t,
        so it is a Lipschitz constant of the restricted norm on [t, oo).
        The rates are scaled by ``sd.scale``, so a stiff spectrum, whose lam^2
        overflows, gives +inf or a finite value and never inf * 0.
        """
        scale = self.sd.scale
        damp = np.square(self.lam / scale * decay(self.lam, np.atleast_1d(ts)).T)
        n, n_batch = self.C.shape
        out = np.empty((len(damp), n_batch))
        for cb in _blocks(n_batch, _BLOCK_ELEMENTS // (n + len(damp))):
            out[:, cb] = damp @ np.square(self.C[:, cb])
        return scale * np.sqrt(out)

    def l2_time_integral(self, a: float, b: float) -> np.ndarray:
        """Closed form of int_a^b ||(S_t f)|_D||^2 dt for the batch: c^T M c
        per column c, with M the restricted Gramian kernel, taken in blocks
        of columns that hold two n x block arrays."""
        M = _gramian_kernel(self.sd, self.d_indices, a, b - a)
        n, n_batch = self.C.shape
        vals = np.empty(n_batch)
        for cb in _blocks(n_batch, _BLOCK_ELEMENTS // (2 * n)):
            C = self.C[:, cb]
            vals[cb] = np.add.reduce(C * (M @ C), axis=0)
        return np.maximum(vals, 0.0)

    @property
    def _groups(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """The eigenvalue groups, stacked by size k: indices (g, k), a factor
        R (g, min(d, k), k) with ||R_J x|| = ||W_J x|| on each group J, and
        each group's largest eigenvalue and spread.  They depend on the
        spectrum and D alone, so every evolution on the same pair shares
        one copy, kept on the decomposition."""
        key = tuple(self.d_indices.tolist())
        out = self.sd._group_factors.get(key)
        if out is None:
            by_size: dict[int, list[np.ndarray]] = {}
            for _lam, idx in self.sd.eigenvalue_groups():
                by_size.setdefault(len(idx), []).append(idx)
            out = []
            for groups in by_size.values():
                idx = np.array(groups)
                R = np.linalg.qr(self.W[:, idx].transpose(1, 0, 2), mode="r")
                top = self.lam[idx[:, -1]]
                out.append((idx, R, top, top - self.lam[idx[:, 0]]))
            self.sd._group_factors[key] = out
        return out

    def _cell_bounds(
        self, lo: np.ndarray, h: np.ndarray, cols: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """g(lo) and an upper bound on g over [lo, hi], hi = lo + h, for each
        cell, g(t) = ||(S_t f)|_D|| of column ``cols`` of the batch.

        With u = (S_t f)|_D and u1 = (H S_t f)|_D at an end t of the cell, a
        Taylor expansion from either end bounds g, and the smaller of the two
        bounds is returned:
        - from lo, S_{lo+s} f = S_lo f - s H S_lo f + int_0^s (s - v)
          H^2 S_{lo+v} f dv, so g(lo + s) <= ||u_lo - s u1_lo|| + rem(s);
        - from hi, S_{hi-s} f = S_hi f + s H S_hi f + int_0^s (s - v)
          H^2 S_{hi-v} f dv, so g(hi - s) <= ||u_hi + s u1_hi|| + rem(s).
        rem(s) bounds either remainder by the smaller of
        - (s^2 / 2) ||H^2 S_lo f||, and
        - the sum over eigenvalue groups J of (s^2 / 2) l_{J,max}^2
          ||(P_J S_lo f)|_D|| + s (l_{J,max} - l_{J,min}) ||P_J S_lo f||,
          which stays small for a state that D does not see.
        Both are formed at lo, and both hold from hi as well: every time
        hi - v in the backward remainder is >= lo, where ||H^2 S_t f|| is
        largest, and per mode the remainder is S_lo f's coefficient times
        e^{-s l} - 1 + s l (forward) or (e^{s l} - 1 - s l) e^{-h l}
        (backward), each in [0, s^2 l^2 / 2] with a derivative in l of at
        most s in size.  With either remainder each expansion is convex in s
        and is g at its end for s = 0, so its maximum on [0, h] sits at an
        end: g <= max(g(lo), ||u_lo - h u1_lo|| + rem(h)) and
        g <= max(g(hi), ||u_hi + h u1_hi|| + rem(h)).  A bound that is nan
        (inf - inf) yields to the other one.

        u and u1 are formed once per distinct end of a block of cells:
        where a cell's right end is the next cell's left end in the same
        column, as when cells tile a window in order (the supremum search's
        waves), the two share it, so k subcells of a cell cost k + 1 ends,
        not 2 k.
        """
        lam = self.lam[:, None]
        hi = lo + h
        g0, ub = np.empty(len(lo)), np.empty(len(lo))
        # X at up to two ends per cell, then each cell's products (about
        # four arrays of n values per cell) share the budget with u and u1
        chunk = max(1, _BLOCK_ELEMENTS // (4 * len(self.lam)))
        for k0 in range(0, len(lo), chunk):
            cells = slice(k0, k0 + chunk)
            hc, col = h[cells], cols[cells]
            # the ends are the cells' left ends, then the right ends that are
            # not the next cell's left end in the same column
            c = len(hc)
            own = np.ones(c, dtype=bool)
            own[:-1] = (hi[cells][:-1] != lo[cells][1:]) | (col[:-1] != col[1:])
            extra = np.flatnonzero(own)
            right = np.arange(1, c + 1)
            right[extra] = np.arange(c, c + len(extra))
            ts = np.concatenate((lo[cells], hi[cells][extra]))
            # h and lam scale the data one at a time, never each other: on a
            # stiff spectrum a product may overflow to inf, but a mode that
            # has decayed to 0 stays 0 instead of giving inf * 0
            with np.errstate(over="ignore", invalid="ignore"):
                X = decay(self.lam, ts) * self.C[:, np.concatenate((col, col[extra]))]
                u = self.W @ X
                by_group = 0.0  # from S_lo f, where both remainders are formed
                for idx, R, top, spread in self._groups:
                    Xg, top = X[:, :c][idx], top[:, None]
                    seen = _norms(R @ Xg, 1)
                    by_group += 0.5 * np.add.reduce(hc * (top * (hc * (top * seen))), axis=0)
                    by_group += hc * (spread @ _norms(Xg, 1))
                LX = np.multiply(X, lam, out=X)
                u1 = self.W @ LX
                rem = 0.5 * _norms(hc * (lam * (hc * LX[:, :c])), 0)
                rem = np.fmin(rem, by_group)
                del X, LX
                g = _norms(u, 0)
                g0[cells] = g[:c]
                forward = _norms(u[:, :c] - hc * u1[:, :c], 0)
                backward = _norms(u[:, right] + hc * u1[:, right], 0)
                ub[cells] = np.fmin(
                    np.maximum(g[:c], forward + rem), np.maximum(g[right], backward + rem)
                )
        return g0, ub

    def _columns(self, cols: np.ndarray) -> RestrictedEvolution:
        """The same evolution on the columns ``cols`` (indices) of the batch."""
        if np.array_equal(cols, np.arange(self.C.shape[1])):
            return self
        return RestrictedEvolution(self.sd, self.d_indices, self.C[:, cols])

    def _sup_norms(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Certified sup of g over [a[j], b[j]] for each column j, by bound
        and split, and the time of the sample that gives it.

        g is first sampled at b[j].  Each wave bounds g on its cells
        (``_cell_bounds``, from both ends of each cell, so a maximum at b[j]
        is certified without zooming in on it), samples g at their left
        ends, and splits every cell whose bound exceeds the column's best
        sampled value s by more than ``_LR_REL_TOL`` ||S_a f|| into k equal
        subcells, which cover it: s is returned, so
        s <= sup g <= s + _LR_REL_TOL ||S_a f||.  The cells of a wave are
        kept in order by column and time, so neighbours share their
        evaluated ends.  k is the largest power of two up to ``_MAX_SPLIT``
        whose next wave still has at most ``_cell_chunk`` cells, so a small
        wave goes 8 ways and a wave of many cells keeps bisecting.  The subcell ends are rounds
        of midpoints; a cell with no float between its ends holds no time
        that is not sampled, so it is not split, and a subcell of zero width
        is dropped.  A bound that overflows (+inf, or nan from inf - inf)
        counts as exceeding.  The second array holds, per column, a time in
        [a[j], b[j]] where g was sampled at the returned value: b[j], or
        the left end of a cell whose sample equals it.
        """
        n_batch = self.C.shape[1]
        windows: dict[tuple[float, float], int] = {}  # each distinct window's grid row
        window_of = [windows.setdefault(w, len(windows)) for w in zip(a.tolist(), b.tolist())]
        lam_max = float(self.lam[-1])
        grids = np.array([_graded_grid(wa, wb, lam_max) for wa, wb in windows])
        ts = grids[window_of]  # (batch, _GRID_CELLS + 1)
        best = self.norms(b[None, :])[0]
        at = np.array(b, dtype=float)
        tol = _LR_REL_TOL * self.final_norms(a)
        lo = ts[:, :-1].ravel()
        hi = ts[:, 1:].ravel()
        cols = np.repeat(np.arange(n_batch), _GRID_CELLS)
        chunk = _cell_chunk(len(self.lam))
        while len(lo):
            g0, ub = self._cell_bounds(lo, hi - lo, cols)
            np.maximum.at(best, cols, g0)
            hit = g0 == best[cols]
            at[cols[hit]] = lo[hit]
            mid = 0.5 * (lo + hi)
            split = ~(ub <= best[cols] + tol[cols]) & (lo < mid) & (mid < hi)
            cols = cols[split]
            k = 2
            while k < _MAX_SPLIT and 2 * k * len(cols) <= chunk:
                k *= 2
            edges = np.stack((lo[split], mid[split], hi[split]), axis=1)
            while edges.shape[1] <= k:  # k + 1 ends per cell, by rounds of midpoints
                finer = np.empty((len(edges), 2 * edges.shape[1] - 1))
                finer[:, 0::2] = edges
                finer[:, 1::2] = 0.5 * (edges[:, :-1] + edges[:, 1:])
                edges = finer
            lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
            cols = np.repeat(cols, k)
            wide = lo < hi
            if not wide.all():
                lo, hi, cols = lo[wide], hi[wide], cols[wide]
        return best, at

    def lr_norms(self, a, b, r) -> np.ndarray:
        """L_r norms in time over windows (a, b), one per entry of a, b and r
        broadcast against the batch's columns (the last axis).

        A scalar is one value for the batch and a 1-D array one per column;
        an (exponents, 1) r gives each column every exponent, one row each.
        The finite-r entries integrate the r-th power in one adaptive
        Simpson call, each entry estimated to relative tolerance
        ``_LR_REL_TOL`` of its own integral (Simpson's error estimate, not a
        bound).  Where they share one window, the batch shares its times
        and each column's g is evaluated once and raised to each of its
        exponents; on separate windows each entry is evaluated on its own.
        The r = inf entries are certified: they split the cells of their
        graded grids, up to ``_MAX_SPLIT`` ways per wave, in one run until
        each sampled maximum is within ``_LR_REL_TOL`` ||S_a f|| of its
        supremum, a proven bracket (``_sup_norms``).
        """
        n_batch = self.C.shape[1]
        shape = np.broadcast_shapes(np.shape(a), np.shape(b), np.shape(r), (n_batch,))
        a, b, r = (np.broadcast_to(np.asarray(v, dtype=float), shape).ravel() for v in (a, b, r))
        col = np.broadcast_to(np.arange(n_batch), shape).ravel()
        out = np.empty(len(col))
        sup = np.isinf(r)
        if sup.any():
            out[sup] = self._columns(col[sup])._sup_norms(a[sup], b[sup])[0]
        fin = ~sup
        if fin.any():
            col, a, b, r = col[fin], a[fin], b[fin], r[fin]
            if np.all(a == a[0]) and np.all(b == b[0]):
                a, b = a[0], b[0]  # one window: the batch shares its times
                states, col = np.unique(col, return_inverse=True)
            else:
                states, col = col, np.arange(len(col))
            part = self._columns(states)
            if np.all(r == r[0]):
                r = float(r[0])  # numpy's scalar-exponent paths: x ** 2 is x * x, x ** 0.5 sqrt

            def powers(ts: np.ndarray) -> np.ndarray:
                return part.norms(ts)[..., col] ** r

            integrals = adaptive_simpson(powers, a, b, rel_tol=_LR_REL_TOL, norm=np.abs)
            out[fin] = integrals ** (1.0 / r)
        return out.reshape(shape)


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
    r = inf certified from below, by a search that splits grid cells on a
    proven bound, within ``_LR_REL_TOL`` ||S_a f0|| of the supremum.
    """
    a, b = float(window[0]), float(window[1])
    if not (0.0 <= a < b):
        raise ValueError(f"window must satisfy 0 <= a < b, got ({a}, {b})")
    if not (r >= 1.0):
        raise ValueError(f"norm index must lie in [1, inf], got {r}")
    d_idx = sd.graph.subset_indices(D)
    if len(d_idx) == 0:
        raise EmptySubset("time norm needs a nonempty observation set")
    f0 = _real(f0, "initial state")
    norms = RestrictedEvolution(sd, d_idx, sd.coefficients(f0)).lr_norms(a, b, r)
    return float(norms[0]) if f0.ndim == 1 else norms
