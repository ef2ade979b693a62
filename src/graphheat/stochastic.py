"""Continuous-time random walk, Feynman-Kac estimates, necessity bounds.

The walk associated with the heat semigroup holds at a vertex for an
exponential time with rate Deg and then jumps with probability
proportional to the edge weight.  Randomness comes from counter-based
Philox streams keyed by (seed, stream), so results are bit-reproducible
for a fixed seed regardless of how work is scheduled.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptySubset, ValidationError
from .graph import WeightedGraph
from .spectral import SpectralDecomposition

_ESTIMATOR_STREAM = 2**64 - 1  # reserved stream index for batched estimators


def _stream(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed % 2**64, stream % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _positive_uniform(rng: np.random.Generator) -> float:
    u = rng.random()
    while u == 0.0:
        u = rng.random()
    return u


@dataclass(frozen=True)
class CTMCPath:
    """One trajectory of the walk up to the horizon.

    ``jump_times[k]`` is when ``states[k]`` was entered (J_0 = 0); the walk
    sits at ``states[k]`` on [J_k, J_{k+1}).  ``isolated`` flags a start
    vertex with Deg = 0, where the path is constant forever.
    """

    jump_times: np.ndarray
    states: tuple[str, ...]
    horizon: float
    isolated: bool = False

    def jump_count(self) -> int:
        return len(self.states) - 1

    def state_at(self, t: float) -> str:
        if not (0.0 <= t <= self.horizon):
            raise ValidationError(f"time {t} outside [0, {self.horizon}]")
        return self.states[bisect_right(self.jump_times, t) - 1]


def sample_ctmc_path(
    g: WeightedGraph, x0: str, t_max: float, seed: int, *, path_index: int = 0
) -> CTMCPath:
    """Sample one path started at x0, truncated at the horizon.

    The path is fully determined by (g, x0, t_max, seed, path_index);
    distinct path indices give independent streams under the same seed.
    Holding times use inverse-CDF sampling on the open unit interval, so
    they are strictly positive.
    """
    if t_max < 0:
        raise ValidationError("horizon must be nonnegative")
    i = g.index_of(x0)
    deg = g.degrees()
    rng = _stream(seed, path_index)

    if deg[i] <= 0.0:
        return CTMCPath(np.array([0.0]), (x0,), float(t_max), isolated=True)

    nbrs = [g.neighbors(j) for j in range(g.n)]
    cumw = [np.cumsum(g.weights[j, nbrs[j]]) for j in range(g.n)]
    states = [i]
    times = [0.0]
    t = 0.0
    while True:
        xi = -math.log(_positive_uniform(rng))
        t += xi / deg[states[-1]]
        if t > t_max:
            break
        row_nbrs, row_cum = nbrs[states[-1]], cumw[states[-1]]
        u = rng.random() * row_cum[-1]
        states.append(int(row_nbrs[np.searchsorted(row_cum, u, side="right")]))
        times.append(t)
    return CTMCPath(
        np.asarray(times), tuple(g.vertex_ids[j] for j in states), float(t_max)
    )


def path_rows(p: CTMCPath) -> list[tuple[float, str]]:
    """(J_k, Y_k) pairs, the CSV export form of a sampled path."""
    return [(float(t), s) for t, s in zip(p.jump_times, p.states)]


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo mean with its standard error and replay token."""

    mean: float
    stderr: float
    n_samples: int
    seed: int


def fk_estimate(
    g: WeightedGraph, f: Sequence[float], t: float, x: str, n_samples: int, seed: int
) -> MCEstimate:
    """Monte Carlo estimate of (S_t f)(x) = E_x[f(Z_t)].

    All paths evolve in lock-step on one reserved Philox stream, which
    keeps the estimate deterministic in the seed while staying vectorized;
    per-path replay is available through ``sample_ctmc_path``.
    """
    if t < 0:
        raise ValidationError("time must be nonnegative")
    if n_samples < 1:
        raise ValidationError("need at least one sample")
    f = np.asarray(f, dtype=float)
    x_idx = g.index_of(x)
    deg = g.degrees()

    if t == 0.0 or deg[x_idx] <= 0.0:
        return MCEstimate(float(f[x_idx]), 0.0, n_samples, seed)

    # padded transition tables: row j holds cumulative probabilities over
    # the neighbors of j, padded with 1.0 so searchsorted stays in range
    max_deg = max(len(g.neighbors(j)) for j in range(g.n))
    cum = np.ones((g.n, max_deg))
    targets = np.zeros((g.n, max_deg), dtype=int)
    for j in range(g.n):
        nb = g.neighbors(j)
        w = g.weights[j, nb]
        cum[j, : len(nb)] = np.cumsum(w) / w.sum()
        cum[j, len(nb) - 1] = 1.0
        targets[j, : len(nb)] = nb
        targets[j, len(nb) :] = nb[-1] if len(nb) else j

    rng = _stream(seed, _ESTIMATOR_STREAM)
    states = np.full(n_samples, x_idx, dtype=int)
    clock = np.zeros(n_samples)
    active = np.ones(n_samples, dtype=bool)
    while active.any():
        u = rng.random(n_samples)
        u[u == 0.0] = 0.5
        clock = clock + np.where(active, -np.log(u) / deg[states], 0.0)
        jumped = active & (clock <= t)
        v = rng.random(n_samples)
        rows = states[jumped]
        choice = np.sum(v[jumped, None] >= cum[rows], axis=1)
        states[jumped] = targets[rows, choice]
        active = jumped

    values = f[states]
    mean = math.fsum(values) / n_samples
    if n_samples > 1:
        var = math.fsum((v - mean) ** 2 for v in values) / (n_samples - 1)
        stderr = math.sqrt(var / n_samples)
    else:
        stderr = 0.0
    return MCEstimate(mean, stderr, n_samples, seed)


def erlang_tail(d_max: float, t: float, n: int) -> float:
    """P(sum of n unit-rate exponentials <= d_max * t), the Poisson upper tail
    e^{-mu} sum_{i>=n} mu^i / i! at mu = d_max * t.

    Uses the tail series directly when n > mu and one minus the head series
    otherwise; both sums run their stable direction with terms anchored at
    the peak and a relative cutoff of 1e-18.
    """
    if d_max <= 0:
        raise ValidationError("d_max must be positive")
    if t < 0:
        raise ValidationError("t must be nonnegative")
    if n < 0:
        raise ValidationError("n must be nonnegative")
    if n == 0:
        return 1.0
    mu = d_max * t
    if mu == 0.0:
        return 0.0

    def series(start: int, stop: int | None) -> float:
        # sum of e^{-mu} mu^i / i! for start <= i < stop, expanding outward
        # from the largest term
        peak = min(max(start, int(mu)), (stop - 1) if stop is not None else 10**18)
        log_peak = peak * math.log(mu) - mu - math.lgamma(peak + 1)
        t_peak = math.exp(log_peak)
        total = t_peak
        term = t_peak
        i = peak
        while stop is None or i + 1 < stop:
            i += 1
            term *= mu / i
            total += term
            if term <= 1e-18 * total:
                break
        term = t_peak
        i = peak
        while i > start:
            term *= i / mu
            i -= 1
            total += term
            if term <= 1e-18 * total:
                break
        return total

    if n > mu:
        return min(1.0, series(n, None))
    return min(1.0, max(0.0, 1.0 - series(0, n)))


@dataclass(frozen=True)
class FarVertexReport:
    """Witness vertices at growing combinatorial distance from D."""

    entries: tuple[tuple[int, str], ...]
    max_distance: float
    stopped_at: int | None


def far_vertex_sequence(
    g: WeightedGraph, D: Sequence[str], n_max: int
) -> FarVertexReport:
    """For each n <= n_max, the first vertex with d_comb(x, D) >= n.

    Stops at the first n the finite graph cannot witness and reports the
    maximum attained distance, the finite-scale proxy for relative
    denseness of D.
    """
    if len(D) == 0:
        raise EmptySubset("far-vertex search needs a nonempty subset")
    dist = g.hop_table[:, g.subset_indices(D)].min(axis=1)
    entries = []
    stopped = None
    for n in range(1, n_max + 1):
        hits = np.nonzero(dist >= n)[0]
        if len(hits) == 0:
            stopped = n
            break
        entries.append((n, g.vertex_ids[int(hits[0])]))
    finite = dist[np.isfinite(dist)]
    max_dist = float(finite.max()) if len(finite) else math.inf
    if np.isinf(dist).any():
        max_dist = math.inf
    return FarVertexReport(tuple(entries), max_dist, stopped)


@dataclass(frozen=True)
class NecessityRow:
    t: float
    full_norm: float
    lower_bound: float
    lower_margin: float
    restricted_sq: float
    erlang_bound: float
    upper_margin: float


@dataclass(frozen=True)
class NecessityReport:
    """Two-sided necessity bounds along a time grid.

    The full norm of the evolved delta is bounded below by e^{-Deg(x) t};
    the squared D-restricted norm is bounded above by the Erlang tail at
    n = d_comb(x, D), since reaching D needs at least n jumps.
    """

    x: str
    deg_x: float
    d_max: float
    n_comb: int
    rows: tuple[NecessityRow, ...]
    passed: bool


def necessity_bounds_check(
    sd: SpectralDecomposition,
    g: WeightedGraph,
    D: Sequence[str],
    x: str,
    t_grid: Sequence[float],
    *,
    slack: float = 1e-12,
) -> NecessityReport:
    """Exact spectral norms against both necessity bounds on a time grid."""
    if g is not sd.graph:
        raise ValidationError("decomposition does not belong to the given graph")
    if len(D) == 0:
        raise EmptySubset("necessity check needs a nonempty subset")
    d_idx = g.subset_indices(D)
    x_idx = g.index_of(x)
    deg_x = float(g.degrees()[x_idx])
    d_max = float(g.degrees().max())

    hops = g.hop_table[x_idx, d_idx].min()
    if hops == math.inf:
        raise ValidationError("x cannot reach D; the restricted norm is identically 0")
    n_comb = int(hops)

    delta = np.zeros(g.n)
    delta[x_idx] = 1.0 / math.sqrt(g.m[x_idx])
    coefs = sd.coefficients(delta)
    lam = sd.eigenvalues
    VD = sd.eigenvectors[d_idx, :]
    mD = g.m[d_idx]

    rows = []
    passed = True
    for t in t_grid:
        t = float(t)
        damp = np.exp(-lam * t)
        full = math.sqrt(float(np.sum((damp * coefs) ** 2)))
        lower = math.exp(-deg_x * t)
        vals = VD @ (damp * coefs)
        restricted_sq = float(np.sum(np.abs(vals) ** 2 * mD))
        bound = erlang_tail(d_max, t, n_comb)
        row = NecessityRow(
            t=t,
            full_norm=full,
            lower_bound=lower,
            lower_margin=full - lower,
            restricted_sq=restricted_sq,
            erlang_bound=bound,
            upper_margin=bound - restricted_sq,
        )
        passed = passed and row.lower_margin >= -slack and row.upper_margin >= -slack
        rows.append(row)
    return NecessityReport(
        x=x,
        deg_x=deg_x,
        d_max=d_max,
        n_comb=n_comb,
        rows=tuple(rows),
        passed=passed,
    )
