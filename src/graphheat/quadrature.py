"""Adaptive Simpson quadrature on batched integrands.

The Simpson routine works on batched integrands: the callable receives an
array of times and returns one value (scalar or array) per time.  Each
refinement wave is held as arrays, evaluated in one integrand call and
tested in one vectorized step, which keeps Python off the hot path.

The window is shared by every column, or given per column: then each
column's panels are exactly those of its own one-column call, the
integrand receives one time per (panel node, column) entry, and an entry
whose column is already accepted on that panel is nan and need not be
evaluated.  So one call integrates many windows at once.  Acceptance rests
on the Simpson/Richardson difference, an error estimate and not a bound.
An integrand that never converges is refused at a depth limit or, before
its panels exhaust memory, at a budget of entries per wave.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import QuadratureNonConvergence


# Refinement starts from 8 equal panels (depth 3): on a single wide panel
# the Simpson/Richardson difference can vanish by accident and accept an
# integral that is wrong in the 8th digit.
_INITIAL_PANELS = 8
_INITIAL_DEPTH = 3
# The wave budget: (time, column) entries one Simpson wave may evaluate,
# and the cells up to which the supremum search splits a cell more than two
# ways (``spectral._cell_chunk``).  A Simpson wave over it is refused: a
# wave holds about 100 bytes per entry.  It bounds how much work one wave
# forms, not the memory of its evaluation, which ``_BLOCK_ELEMENTS`` does.
_CHUNK_ELEMENTS = 2_000_000
# The evaluation budget: elements of all the temporaries one block of a
# batched evaluation holds at once (a chunk of times, cells, entries, rows
# or columns).  2**18 float64 values are 2 MB, one core's L2 cache, so a
# block's arrays stay in cache and are freed before the next block; a
# single time or row that needs more takes a block to itself.
_BLOCK_ELEMENTS = 2**18


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


def _panel_norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each panel's value (panels on the first axis)."""
    v = np.asarray(v)
    return np.linalg.norm(v.reshape(len(v), -1), axis=1)


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
    a: float | np.ndarray,
    b: float | np.ndarray,
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
    values estimates each column to ``rel_tol`` of its own integral.

    With arrays ``a`` and ``b`` of length k, column j is integrated over
    [a[j], b[j]]: ``fn`` receives (times, k) arrays of per-entry times, nan
    where the column is already accepted on that panel, and ``norm`` must
    keep the column axis, as ``np.abs`` does.
    Exceeding ``max_depth``, or a wave of more than ``_CHUNK_ELEMENTS``
    (time, column) entries, raises ``QuadratureNonConvergence``.
    """
    if norm is None:
        norm = _panel_norm
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if not np.all(b > a):
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
    # half the smallest window's nominal width exceeds 1e-14 (2 max(|a|, |b|)
    # + 1); the rule is tested only from then on.  The smallest window sets
    # that depth because its panels narrow first: the widest would set it
    # too late and let a too-narrow panel of a small window split on.
    narrow = 1e-14 * (2.0 * max(np.abs(a).max(), np.abs(b).max()) + 1.0)
    smallest = float((b - a).min())
    while len(lo):
        tol = tol0 * 0.5**depth  # tol0 / k on the initial panels, halved per bisection
        # each panel's two children, interleaved: left[0], right[0], left[1], ...
        mid = 0.5 * (lo + hi)
        clo, chi = _pairs(lo, mid), _pairs(mid, hi)
        ts = 0.5 * (clo + chi)
        if ts.ndim > 1:  # per-column windows: only the open entries need values
            ts = np.where(np.repeat(open_, 2, axis=0), ts, np.nan)
        cfl, cfm, cfh = _pairs(flo, fmid), np.asarray(fn(ts)), _pairs(fmid, fhi)
        cS = _spread((chi - clo) / 6.0, nd) * (cfl + 4.0 * cfm + cfh)
        two = cS[0::2] + cS[1::2]
        delta = two - S
        ok = norm(delta) <= 15.0 * tol
        if smallest * 0.5 ** (depth + 1) <= narrow:
            too_narrow = (hi - lo) <= 1e-14 * (np.abs(lo) + np.abs(hi) + 1.0)
            ok |= _spread(too_narrow, open_.ndim)
        accept = _spread(open_ & ok, nd)
        total = total + np.add.reduce(np.where(accept, two + delta / 15.0, 0.0), axis=0)
        open_ = open_ & ~ok
        split = open_.reshape(len(lo), -1).any(axis=1)
        splits = int(np.count_nonzero(split))
        if splits and depth + 1 > max_depth:
            # the first open entry; with per-column windows, its column's panel
            at = tuple(np.argwhere(open_)[0][: lo.ndim])
            raise QuadratureNonConvergence(
                f"Simpson refinement exceeded depth {max_depth} on "
                f"[{lo[at]:.6g}, {hi[at]:.6g}]"
                + (f" (column {at[1]})" if lo.ndim > 1 else "")
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
    return total

