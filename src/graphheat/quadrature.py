"""Adaptive Simpson quadrature and supporting node generators.

The Simpson routine works on batched integrands: the callable receives an
array of times and returns one value (scalar or vector) per time.  Pending
subintervals from a refinement wave are evaluated in a single call, which
keeps Python overhead off the hot path.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import QuadratureNonConvergence


# Refinement starts from 8 equal panels (depth 3): on a single wide panel
# the Simpson/Richardson difference can vanish by accident and accept an
# integral that is wrong in the 8th digit.
_INITIAL_PANELS = 8
_INITIAL_DEPTH = 3


def _default_norm(v) -> float:
    return float(np.linalg.norm(np.asarray(v).ravel()))


def adaptive_simpson(
    fn: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    rel_tol: float = 1e-10,
    max_depth: int = 40,
    norm: Callable[[object], float] | None = None,
):
    """Integrate fn over [a, b] by adaptive Simpson with interval bisection.

    ``fn`` maps an array of times to an array of values with the time axis
    first.  Convergence is certified by successive-refinement agreement;
    exceeding ``max_depth`` raises ``QuadratureNonConvergence``.
    """
    if norm is None:
        norm = _default_norm
    a, b = float(a), float(b)
    if b <= a:
        raise ValueError("integration window must satisfy a < b")

    k = _INITIAL_PANELS
    x = np.linspace(a, b, 2 * k + 1)
    vals = np.asarray(fn(x))
    fa, fm, fb = vals[0], vals[k], vals[2 * k]
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    node_scale = (b - a) * max(norm(fa), norm(fm), norm(fb))
    tol0 = rel_tol * max(norm(whole), 1e-3 * node_scale)

    total = 0.0 * whole
    work = []
    for q in range(k):
        lo, hi = x[2 * q], x[2 * q + 2]
        flo, fmid, fhi = vals[2 * q], vals[2 * q + 1], vals[2 * q + 2]
        S = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)
        work.append((lo, hi, flo, fmid, fhi, S, tol0 / k, _INITIAL_DEPTH))
    while work:
        mids = np.empty(2 * len(work))
        for q, (lo, hi, *_rest) in enumerate(work):
            mid = 0.5 * (lo + hi)
            mids[2 * q] = 0.5 * (lo + mid)
            mids[2 * q + 1] = 0.5 * (mid + hi)
        mvals = np.asarray(fn(mids))

        nxt = []
        for q, (lo, hi, flo, fmid, fhi, S, tol, depth) in enumerate(work):
            mid = 0.5 * (lo + hi)
            flm, frm = mvals[2 * q], mvals[2 * q + 1]
            Sl = (mid - lo) / 6.0 * (flo + 4.0 * flm + fmid)
            Sr = (hi - mid) / 6.0 * (fmid + 4.0 * frm + fhi)
            delta = Sl + Sr - S
            too_narrow = (hi - lo) <= 1e-14 * (abs(lo) + abs(hi) + 1.0)
            if norm(delta) <= 15.0 * tol or too_narrow:
                total = total + Sl + Sr + delta / 15.0
            elif depth + 1 > max_depth:
                raise QuadratureNonConvergence(
                    f"Simpson refinement exceeded depth {max_depth} on "
                    f"[{lo:.6g}, {hi:.6g}]"
                )
            else:
                half = 0.5 * tol
                nxt.append((lo, mid, flo, flm, fmid, Sl, half, depth + 1))
                nxt.append((mid, hi, fmid, frm, fhi, Sr, half, depth + 1))
        work = nxt
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


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(
    fn: Callable[[float], float], lo: float, hi: float, *, tol: float = 1e-13
) -> float:
    """Maximum value of a scalar function on [lo, hi] by golden-section."""
    best = max(fn(lo), fn(hi))
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc, fd = fn(c), fn(d)
    while (hi - lo) > tol * (abs(lo) + abs(hi) + 1.0):
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = fn(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = fn(d)
    return max(best, fc, fd)
