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

from .errors import EigensolveFailure, EmptySubset, NegativeTime, ParseError
from .graph import WeightedGraph
from .quadrature import adaptive_simpson

_SUP_GRID_POINTS = 1025


@dataclass(frozen=True)
class EnergyInterval:
    """Energy window (-inf, hi] (lo is None) or [lo, hi]."""

    hi: float
    lo: float | None = None

    def __post_init__(self) -> None:
        if self.lo is not None and self.lo > self.hi:
            raise ValueError("interval needs lo <= hi")

    @property
    def sup(self) -> float:
        return self.hi

    def contains(self, value: float) -> bool:
        # closed endpoints, compared exactly
        if value > self.hi:
            return False
        return self.lo is None or value >= self.lo

    def to_json(self) -> dict:
        if self.lo is None:
            return {"sup": self.hi}
        return {"lo": self.lo, "hi": self.hi}

    @classmethod
    def from_json(cls, data: dict) -> "EnergyInterval":
        if not isinstance(data, dict):
            raise ParseError("interval JSON must be an object")
        if set(data) == {"sup"}:
            return cls(hi=float(data["sup"]))
        if set(data) == {"lo", "hi"}:
            return cls(hi=float(data["hi"]), lo=float(data["lo"]))
        raise ParseError("interval JSON must be {'sup': x} or {'lo': a, 'hi': b}")


def apply_laplacian(g: WeightedGraph, f: Sequence[complex]) -> np.ndarray:
    """Pointwise Laplacian Hf(x) = (1/m(x)) sum_y b(x,y) (f(x) - f(y))."""
    f = np.asarray(f)
    rowsum = g.weights.sum(axis=1)
    return (rowsum * f - g.weights @ f) / g.m


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

    @cached_property
    def _m(self) -> np.ndarray:
        return self.graph.m

    def inner(self, f, g) -> complex:
        """m-weighted inner product <f, g> = sum f(x) conj(g(x)) m(x)."""
        return complex(np.sum(np.asarray(f) * np.conj(np.asarray(g)) * self._m))

    def norm(self, f) -> float:
        return math.sqrt(float(np.sum(np.abs(np.asarray(f)) ** 2 * self._m)))

    def coefficients(self, f) -> np.ndarray:
        """Spectral coefficients <f, v_i> of a state, or of each column of
        an (n, k) batch of states."""
        f = np.asarray(f)
        m = self._m if f.ndim == 1 else self._m[:, None]
        return self.eigenvectors.T @ (m * f)

    def synthesize(self, coefs) -> np.ndarray:
        return self.eigenvectors @ np.asarray(coefs)

    def eigenvalue_groups(self, tol: float | None = None) -> list[tuple[float, np.ndarray]]:
        """Indices grouped by numerically repeated eigenvalues."""
        lam = self.eigenvalues
        if tol is None:
            tol = 1e-8 * (float(lam[-1]) + 1.0)
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


def semigroup_apply(sd: SpectralDecomposition, t: float, f) -> np.ndarray:
    """Heat semigroup e^{-tH} applied to a state vector."""
    if t < 0:
        raise NegativeTime(f"semigroup time must be nonnegative, got {t}")
    c = sd.coefficients(f)
    return sd.synthesize(np.exp(-sd.eigenvalues * t) * c)


def spectral_projection(sd: SpectralDecomposition, interval: EnergyInterval, f) -> np.ndarray:
    """Projection onto the eigenspaces with eigenvalue in the interval."""
    mask = np.array([interval.contains(float(lv)) for lv in sd.eigenvalues])
    c = sd.coefficients(f)
    return sd.synthesize(np.where(mask, c, 0.0))


class RestrictedEvolution:
    """Vectorized evaluation of t -> ||(S_t f)|_D|| for a batch of states.

    Holds the D-restricted, sqrt(m)-scaled eigenvector rows and the spectral
    coefficients of the batch; all time evaluations reduce to one matrix
    product per chunk of times.
    """

    def __init__(self, sd: SpectralDecomposition, d_indices: np.ndarray, coefs: np.ndarray):
        if len(d_indices) == 0:
            raise EmptySubset("restricted evolution needs a nonempty subset")
        self.sd = sd
        self.lam = sd.eigenvalues
        mD = sd.graph.m[d_indices]
        self.W = np.sqrt(mD)[:, None] * sd.eigenvectors[d_indices, :]
        coefs = np.asarray(coefs)
        self.C = coefs[:, None] if coefs.ndim == 1 else coefs

    @property
    def max_rate(self) -> float:
        return float(self.lam[-1])

    def norms(self, ts) -> np.ndarray:
        """Restricted norms, shape (len(ts), batch)."""
        return np.sqrt(self.norms_sq_cols(ts, None))

    def norms_at_times(self, ts_per_column: np.ndarray) -> np.ndarray:
        """Restricted norm of column j at its own time ts_per_column[j]."""
        E = np.exp(-np.outer(self.lam, ts_per_column))
        U = self.W @ (E * self.C)
        return np.sqrt(np.sum(np.abs(U) ** 2, axis=0))

    def norms_sq_cols(self, ts, cols: np.ndarray | None) -> np.ndarray:
        """Squared restricted norms of selected columns along a time array."""
        C = self.C if cols is None else self.C[:, cols]
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        n, n_batch = C.shape
        d = self.W.shape[0]
        out = np.empty((len(ts), n_batch))
        chunk = max(1, int(2_000_000 // max(1, n * n_batch)))
        for k0 in range(0, len(ts), chunk):
            tc = ts[k0 : k0 + chunk]
            E = np.exp(-np.outer(self.lam, tc))  # (n, tc)
            scaled = (E[:, :, None] * C[:, None, :]).reshape(n, -1)
            U = (self.W @ scaled).reshape(d, len(tc), n_batch)
            out[k0 : k0 + len(tc)] = np.sum(np.abs(U) ** 2, axis=0)
        return out

    def final_norms(self, T: float) -> np.ndarray:
        """Unrestricted norms ||S_T f|| for the batch."""
        damp = np.exp(-2.0 * self.lam * T)
        return np.sqrt(np.sum(np.abs(self.C) ** 2 * damp[:, None], axis=0))

    def l2_time_integral(self, a: float, b: float) -> np.ndarray:
        """Closed form of int_a^b ||(S_t f)|_D||^2 dt for the batch."""
        S = self.lam[:, None] + self.lam[None, :]
        width = b - a
        with np.errstate(divide="ignore", invalid="ignore"):
            F = np.exp(-S * a) * (-np.expm1(-S * width)) / S
        F[S == 0.0] = width
        M = (self.W.T @ self.W) * F
        vals = np.einsum("ij,in,jn->n", M, np.conj(self.C), self.C, optimize=True).real
        return np.maximum(vals, 0.0)

    def refine_sup(self, ts: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """Golden-section refinement of per-column maxima over node values.

        ``ts`` must be ascending and ``vals`` its (len(ts), batch) norms;
        each column is refined inside the bracket around its argmax.
        """
        imax = np.argmax(vals, axis=0)
        best = vals[imax, np.arange(vals.shape[1])]
        span = float(ts[-1] - ts[0])
        lo = ts[np.maximum(imax - 1, 0)]
        hi = ts[np.minimum(imax + 1, len(ts) - 1)]
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        c = hi - invphi * (hi - lo)
        d = lo + invphi * (hi - lo)
        fc = self.norms_at_times(c)
        fd = self.norms_at_times(d)
        for _ in range(60):
            if np.all((hi - lo) <= 1e-13 * (span + 1.0)):
                break
            take_c = fc > fd
            hi = np.where(take_c, d, hi)
            lo = np.where(take_c, lo, c)
            c = hi - invphi * (hi - lo)
            d = lo + invphi * (hi - lo)
            fc = self.norms_at_times(c)
            fd = self.norms_at_times(d)
        return np.maximum(best, np.maximum(fc, fd))


def time_lr_norm(
    sd: SpectralDecomposition,
    f0,
    D: Sequence[str],
    window: tuple[float, float],
    r: float,
) -> float | np.ndarray:
    """L_r norm in time of t -> ||(S_t f0)|_D|| over the window (a, b).

    ``f0`` is one state (a float is returned) or an (n, k) batch (one norm
    per column).  Finite r integrates the r-th power by adaptive Simpson,
    each column to relative tolerance 1e-10 of its own integral; r = inf
    refines each column's 1025-point grid maximum by golden-section search.
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
    re = RestrictedEvolution(sd, d_idx, sd.coefficients(f0))

    if math.isinf(r):
        ts = np.linspace(a, b, _SUP_GRID_POINTS)
        norms = re.refine_sup(ts, re.norms(ts))
    else:
        integrals = adaptive_simpson(
            lambda ts: re.norms(ts) ** r, a, b, rel_tol=1e-10, max_depth=40, norm=np.abs
        )
        norms = integrals ** (1.0 / r)
    return float(norms[0]) if f0.ndim == 1 else norms
