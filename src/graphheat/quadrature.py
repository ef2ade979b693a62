"""Adaptive Simpson quadrature and supporting node generators.

The Simpson routine works on batched integrands: the callable receives an
array of times and returns one value (scalar or array) per time.  Each
refinement wave is held as arrays, evaluated in one integrand call and
tested in one vectorized step, which keeps Python off the hot path.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import QuadratureNonConvergence


# Refinement starts from 8 equal panels (depth 3): on a single wide panel
# the Simpson/Richardson difference can vanish by accident and accept an
# integral that is wrong in the 8th digit.
_INITIAL_PANELS = 8
_INITIAL_DEPTH = 3


def _panel_norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each panel's value (panels on the first axis)."""
    v = np.asarray(v)
    return np.linalg.norm(v.reshape(len(v), -1), axis=1)


def _spread(x: np.ndarray, ndim: int) -> np.ndarray:
    """Append unit axes to x so that it broadcasts against ndim-d values."""
    return x.reshape(x.shape + (1,) * (ndim - x.ndim))


def _pairs(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Interleave two per-panel arrays: left[0], right[0], left[1], ..."""
    return np.stack([left, right], axis=1).reshape((-1,) + left.shape[1:])


def adaptive_simpson(
    fn: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    rel_tol: float = 1e-10,
    max_depth: int = 40,
    norm: Callable[[np.ndarray], np.ndarray] | None = None,
):
    """Integrate fn over [a, b] by adaptive Simpson with interval bisection.

    ``fn`` maps an array of times to an array of values with the time axis
    first.  ``norm`` maps per-panel values (panel axis first) to what the
    Simpson/Richardson test compares: by default one Euclidean norm per
    panel, so a vector is accepted as a whole; ``np.abs`` on (times, k)
    values certifies each column to ``rel_tol`` of its own integral.
    Exceeding ``max_depth`` raises ``QuadratureNonConvergence``.
    """
    if norm is None:
        norm = _panel_norm
    a, b = float(a), float(b)
    if b <= a:
        raise ValueError("integration window must satisfy a < b")

    k = _INITIAL_PANELS
    x = np.linspace(a, b, 2 * k + 1)
    vals = np.asarray(fn(x))
    ends = vals[[0, k, 2 * k]]
    whole = (b - a) / 6.0 * (ends[0] + 4.0 * ends[1] + ends[2])
    node_scale = (b - a) * norm(ends).max(axis=0)
    tol0 = rel_tol * np.maximum(norm(whole[None])[0], 1e-3 * node_scale)

    nd = vals.ndim
    lo, hi = x[0:-1:2], x[2::2]
    flo, fmid, fhi = vals[0:-1:2], vals[1::2], vals[2::2]
    S = _spread((hi - lo) / 6.0, nd) * (flo + 4.0 * fmid + fhi)
    open_ = np.ones((k,) + tol0.shape, dtype=bool)  # entries not yet accepted
    total = 0.0 * whole
    depth = _INITIAL_DEPTH
    while len(lo):
        tol = tol0 * 0.5**depth  # tol0 / k on the initial panels, halved per bisection
        mid = 0.5 * (lo + hi)
        mvals = np.asarray(fn(_pairs(0.5 * (lo + mid), 0.5 * (mid + hi))))
        flm, frm = mvals[0::2], mvals[1::2]
        Sl = _spread((mid - lo) / 6.0, nd) * (flo + 4.0 * flm + fmid)
        Sr = _spread((hi - mid) / 6.0, nd) * (fmid + 4.0 * frm + fhi)
        delta = Sl + Sr - S
        too_narrow = (hi - lo) <= 1e-14 * (np.abs(lo) + np.abs(hi) + 1.0)
        ok = (norm(delta) <= 15.0 * tol) | _spread(too_narrow, open_.ndim)
        accept = _spread(open_ & ok, nd)
        total = total + np.sum(np.where(accept, Sl + Sr + delta / 15.0, 0.0), axis=0)
        open_ = open_ & ~ok
        split = open_.reshape(len(lo), -1).any(axis=1)
        if split.any() and depth + 1 > max_depth:
            i = int(np.argmax(split))
            raise QuadratureNonConvergence(
                f"Simpson refinement exceeded depth {max_depth} on "
                f"[{lo[i]:.6g}, {hi[i]:.6g}]"
            )
        lo, mid, hi, flo, flm, fmid, frm, fhi, Sl, Sr, open_ = (
            v[split] for v in (lo, mid, hi, flo, flm, fmid, frm, fhi, Sl, Sr, open_)
        )
        lo, hi, S, open_ = _pairs(lo, mid), _pairs(mid, hi), _pairs(Sl, Sr), _pairs(open_, open_)
        flo, fmid, fhi = _pairs(flo, fmid), _pairs(flm, frm), _pairs(fmid, fhi)
        depth += 1
    return total


@lru_cache(maxsize=16)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


@lru_cache(maxsize=16)
def _legendre_lobatto(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Lobatto nodes on [-1, 1] (both endpoints included) and weights."""
    p = np.polynomial.legendre.Legendre.basis(points - 1)
    x = np.concatenate([[-1.0], np.sort(p.deriv().roots().real), [1.0]])
    return x, 2.0 / (points * (points - 1) * p(x) ** 2)


def graded_edges(
    a: float, b: float, rate: float, *, growth: float = 1.5, lead: float = 4.0
) -> list[tuple[float, float]]:
    """Panel edges graded toward the left endpoint.

    Suitable for integrands that are sums of decaying exponentials with
    rates up to ``rate``: the first panel spans ~lead/rate and panel widths
    grow geometrically, so each panel resolves whatever modes are still
    active on it.
    """
    a, b = float(a), float(b)
    if b <= a:
        raise ValueError("integration window must satisfy a < b")
    width = b - a
    h = width if rate <= 0.0 else min(width, lead / rate)
    edges = [a]
    while edges[-1] + h < b:
        edges.append(edges[-1] + h)
        h *= growth
    edges.append(b)
    return list(zip(edges[:-1], edges[1:]))


def graded_gauss_nodes(
    a: float,
    b: float,
    rate: float,
    *,
    order: int = 16,
    growth: float = 1.5,
    lead: float = 4.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on graded panels, flattened."""
    x, w = _leggauss(order)
    nodes, weights = [], []
    for lo, hi in graded_edges(a, b, rate, growth=growth, lead=lead):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        nodes.append(mid + half * x)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)
