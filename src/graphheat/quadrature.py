"""Adaptive Simpson quadrature on batched integrands.

The Simpson routine works on batched integrands: the callable receives an
array of times and returns one value (scalar or array) per time.  Each
refinement wave is held as arrays, evaluated in one integrand call and
tested in one vectorized step, which keeps Python off the hot path.

One call integrates one window, shared by every column of the values:
the integrand receives one array of times per wave.  Acceptance rests on
the Simpson/Richardson difference, an error estimate and not a bound.  An
integrand that never converges is refused at a depth limit or, before its
panels exhaust memory, at a budget of entries per wave.

``vector_norms`` is the package's one norm (Euclidean, or m-weighted):
the plain root of the sum of squares wherever that sum is a normal float,
and a scaled one only where it is not, so every norm scales with its input.
It lives here, the lowest numeric module, because Simpson's default panel
test takes it.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import QuadratureNonConvergence


# Refinement starts from 8 equal panels (depth 3): on a single wide panel
# the Simpson/Richardson difference can vanish by accident and accept an
# integral that is wrong in the 8th digit.
_INITIAL_PANELS = 8
_INITIAL_DEPTH = 3
# The wave budget: (time, column) entries one Simpson wave may evaluate,
# and cells one wave of the supremum search may bound; a wave over it is
# refused (a Simpson wave holds about 100 bytes per entry).  It bounds how
# much work one wave forms, not the memory of its evaluation, which
# ``_BLOCK_ELEMENTS`` does.
_CHUNK_ELEMENTS = 2_000_000
# The evaluation budget: elements of all the temporaries one block of a
# batched evaluation holds at once (a chunk of times, cells, entries, rows
# or columns).  2**18 float64 values are 2 MB, one core's L2 cache, so a
# block's arrays stay in cache and are freed before the next block; a
# single time or row that needs more takes a block to itself.
_BLOCK_ELEMENTS = 2**18
_NORMAL = np.finfo(float).tiny  # a sum of squares below it has lost digits


def _blocks(total: int, width: int) -> list[slice]:
    """Consecutive slices that cover range(total), each of at most
    ``width`` indices (rows or columns), and never of one index unless
    ``total`` is 1: numpy sums one column along axis 0 pairwise and two or
    more row by row, so a sum over the rows of each block gives every
    column the bits of one sum over the whole array."""
    width = max(2, width)
    starts = list(range(0, total, width))
    if len(starts) > 1 and total - starts[-1] == 1:
        starts.pop()  # the last block takes the single index left over
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [total])]


def vector_norms(x, axis: int = -1, w=None) -> np.ndarray:
    """sqrt(sum w x^2) along ``axis``, the package's one norm, for normal
    weights w > 0 that broadcast against x (1 by default).  It has the bits
    of sqrt(add.reduce(x * x * w, axis)) wherever the sums are at least the
    smallest normal float times the largest weight above 1 (a square that
    underflows errs by up to 2^-1075, times its weight), and divides only a
    slice whose sum is not by its largest entry (Blue's scaling): 2^k x has
    2^k times the norm of x, and a norm past the float range reads inf,
    with no warning."""
    x = np.asarray(x, dtype=float)
    floor = _NORMAL if w is None else _NORMAL * max(1.0, float(np.max(w)))
    with np.errstate(over="ignore"):
        sums = np.add.reduce(x * x if w is None else x * x * w, axis=axis)
        norms = np.sqrt(sums)
        low = np.minimum.reduce(sums, axis=None, initial=math.inf)
        if low >= floor and np.maximum.reduce(sums, axis=None, initial=0.0) < math.inf:
            return norms  # a nan sum fails the check, and stays nan
        redo = ~((sums >= floor) & (sums < math.inf))
        rows = np.moveaxis(x, axis, -1)[redo]
        top = np.abs(rows).max(axis=-1, initial=0.0)
        top[~((top > 0.0) & (top < math.inf))] = 1.0  # a zero or infinite slice is exact
        unit = rows / top[:, None]
        weights = 1.0 if w is None else np.moveaxis(np.broadcast_to(w, x.shape), axis, -1)[redo]
        norms = np.array(norms)  # writable, also where it is one value
        norms[redo] = top * np.sqrt(np.add.reduce(unit * unit * weights, axis=-1))
    return norms


def _spread(x: np.ndarray, ndim: int) -> np.ndarray:
    """Append unit axes to x so that it broadcasts against ndim-d values."""
    return x.reshape(x.shape + (1,) * (ndim - x.ndim))


def _pairs(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Interleave two per-panel arrays: left[0], right[0], left[1], ..."""
    out = np.empty((2 * len(left),) + left.shape[1:], dtype=np.result_type(left, right))
    out[0::2] = left
    out[1::2] = right
    return out


def adaptive_simpson(
    fn: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    rel_tol: float = 1e-10,
    max_depth: int = 40,
    norm: Callable[[np.ndarray], np.ndarray] | None = None,
):
    """Integrate fn over the window [a, b] by adaptive Simpson with interval
    bisection.

    ``fn`` maps a 1-D array of times to an array of values with the time
    axis first.  ``norm`` maps per-panel values (panel axis first) to what
    the Simpson/Richardson test compares: by default one Euclidean norm per
    panel, so a vector is accepted as a whole; ``np.abs`` on (times, k)
    values estimates each column to ``rel_tol`` of its own integral.
    Exceeding ``max_depth``, or a wave of more than ``_CHUNK_ELEMENTS``
    (time, column) entries, raises ``QuadratureNonConvergence``.
    """
    if norm is None:
        norm = lambda v: vector_norms(v.reshape(len(v), -1))  # one norm per panel
    a, b = float(a), float(b)
    if not b > a:
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
    # A panel is too narrow to split when hi - lo <= 1e-14 (|lo| + |hi| + 1).
    # A panel at depth d is (b - a) 2^-d wide to within a few ulps of
    # max(|a|, |b|), far below that threshold, so none can be too narrow while
    # half the window's nominal width exceeds 1e-14 (2 max(|a|, |b|) + 1);
    # the rule is tested only from then on.
    narrow = 1e-14 * (2.0 * max(abs(a), abs(b)) + 1.0)
    while True:
        tol = tol0 * 0.5**depth  # tol0 / k on the initial panels, halved per bisection
        # each panel's two children, interleaved: left[0], right[0], left[1], ...
        mid = 0.5 * (lo + hi)
        clo, chi = _pairs(lo, mid), _pairs(mid, hi)
        cfl, cfm, cfh = _pairs(flo, fmid), np.asarray(fn(0.5 * (clo + chi))), _pairs(fmid, fhi)
        cS = _spread((chi - clo) / 6.0, nd) * (cfl + 4.0 * cfm + cfh)
        two = cS[0::2] + cS[1::2]
        delta = two - S
        ok = norm(delta) <= 15.0 * tol
        if (b - a) * 0.5 ** (depth + 1) <= narrow:
            too_narrow = (hi - lo) <= 1e-14 * (np.abs(lo) + np.abs(hi) + 1.0)
            ok |= _spread(too_narrow, open_.ndim)
        accept = _spread(open_ & ok, nd)
        total = total + np.add.reduce(np.where(accept, two + delta / 15.0, 0.0), axis=0)
        open_ = open_ & ~ok
        split = open_.reshape(len(lo), -1).any(axis=1)
        splits = int(np.count_nonzero(split))
        if not splits:
            return total
        if depth + 1 > max_depth:
            at = np.flatnonzero(split)[0]  # the first panel with an open entry
            raise QuadratureNonConvergence(
                f"Simpson refinement exceeded depth {max_depth} on [{lo[at]:.6g}, {hi[at]:.6g}]"
            )
        # the next wave evaluates fn twice on each of its panels' entries
        entries = 4 * splits * flo[0].size
        if entries > _CHUNK_ELEMENTS:
            raise QuadratureNonConvergence(
                f"Simpson refinement at depth {depth + 1} would evaluate {entries} "
                f"entries in one wave, over the budget of {_CHUNK_ELEMENTS}"
            )
        lo, hi, flo, fmid, fhi, S, open_ = clo, chi, cfl, cfm, cfh, cS, np.repeat(open_, 2, axis=0)
        if splits < len(split):  # the children of the panels that split, by one index
            keep = np.flatnonzero(np.repeat(split, 2))
            lo, hi, flo, fmid, fhi, S, open_ = (
                v.take(keep, axis=0) for v in (lo, hi, flo, fmid, fhi, S, open_)
            )
        depth += 1
