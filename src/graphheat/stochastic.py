"""Continuous-time random walk, Feynman-Kac estimates, necessity bounds.

The walk associated with the heat semigroup holds at a vertex for an
exponential time with rate Deg and then jumps with probability
proportional to the edge weight.  Randomness comes from counter-based
Philox4x64-10 streams keyed by (seed, stream) (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC 2011), so results are
bit-reproducible for a fixed seed regardless of how work is scheduled.

``sample_ctmc_paths`` moves many paths in lock-step, path i reading the
stream keyed (seed, i) through a vectorized Philox, and returns their jump
table; each path is bit-identical whichever other indices share the batch.
The vectorized Philox fetches blocks ahead, twice as many at each refill
up to a fixed budget of values, so a walk of many steps refills its
streams a few times rather than once every two steps.
``fk_estimate`` moves its samples in lock-step on one reserved stream,
drawing only for the samples still live, and sums its mean and variance
exactly from the samples' per-vertex counts (Shewchuk's exact summation,
as ``math.fsum``) on f scaled by a power of two.  Both samplers jump by
``jump`` of the graph's cached ``transition_table``.  The
necessity bounds take their norms from ``RestrictedEvolution`` and their
Erlang tail from scipy's regularized incomplete gamma function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np
import scipy.special

from .errors import EmptySubset, ValidationError
from .graph import MetricKind, WeightedGraph, _dist_to_set, covering_radius
from .quadrature import _BLOCK_ELEMENTS
from .spectral import RestrictedEvolution, SpectralDecomposition

_ESTIMATOR_STREAM = 2**64 - 1  # reserved stream index for batched estimators
# How far below 0 a necessity margin may round and still pass.
_MARGIN_SLACK = 1e-12

# Philox4x64-10 multipliers, one per row, and Weyl key increments (Random123)
_PHILOX_MUL = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_BUMP = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)


def _stream(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed % 2**64, stream % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _mulhilo(a: tuple[np.ndarray, ...], b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products a * b, a passed as
    (a, a_lo, a_hi) with its 32-bit halves formed once by the caller.  The
    high word is assembled from 32-bit halves so that no partial sum
    overflows (Hacker's Delight's mulhu)."""
    a, a_lo, a_hi = a
    b_lo, b_hi = b & _LOW32, b >> _SHIFT32
    t = a_lo * b_lo
    u = a_hi * b_lo + (t >> _SHIFT32)
    v = a_lo * b_hi + (u & _LOW32)
    return a_hi * b_hi + (u >> _SHIFT32) + (v >> _SHIFT32), a * b


class _PhiloxStreams:
    """The streams ``_stream(seed, i)`` of many path indices i, vectorized.

    Stream i yields its k-th uniform from word k % 4 of counter block
    k // 4 + 1 as ``(word >> 11) * 2**-53``, exactly as
    ``_stream(seed, i).random()`` does.  Each stream keeps its own count of
    uniforms drawn and holds its uniforms ``start`` up to ``stop`` in its
    row of ``buffer``, so streams advance independently.  A stream that has
    drawn all it holds is refilled with consecutive blocks fetched ahead:
    one at the first refill, twice as many at each next one, at most as
    many as keep the buffer of all the streams within ``_BLOCK_ELEMENTS``
    values (one block each when there are more streams than that allows).
    Which blocks are fetched together never changes a uniform.
    """

    def __init__(self, seed: int, path_indices: Iterable[int]) -> None:
        seed %= 2**64
        keys = np.array([int(i) % 2**64 for i in path_indices], dtype=np.uint64)
        bumps = [r * _PHILOX_BUMP[0] + seed for r in range(_PHILOX_ROUNDS)]
        self._key0 = np.array([k % 2**64 for k in bumps], dtype=np.uint64)
        self._key1 = np.stack(
            [keys + np.uint64(r * _PHILOX_BUMP[1] % 2**64) for r in range(_PHILOX_ROUNDS)]
        )
        self.drawn = np.zeros(len(keys), dtype=np.int64)
        self.start = np.zeros(len(keys), dtype=np.int64)  # uniform held in column 0
        self.stop = np.zeros(len(keys), dtype=np.int64)  # one past the last held
        self.buffer = np.zeros((len(keys), 4))
        self._ahead = 1  # blocks the next refill fetches
        self._most = max(1, _BLOCK_ELEMENTS // (4 * max(len(keys), 1)))

    def _blocks(self, rows: np.ndarray, counters: np.ndarray) -> np.ndarray:
        """The four uniforms of block ``counters[j]`` of stream ``rows[j]``.

        Words 0 and 2 of each block's state are the rows of x, words 1 and 3
        those of y, so one ``_mulhilo`` call multiplies row j of x by
        multiplier j, giving (hi_j, lo_j), and a round is
        x, y = (hi_1 ^ y_0 ^ key0, hi_0 ^ y_1 ^ key1), (lo_1, lo_0).  The
        multipliers are repeated to full rows: numpy multiplies by a
        broadcast column at about half the speed.
        """
        mul = np.repeat(_PHILOX_MUL, len(rows), axis=1)
        mul = (mul, mul & _LOW32, mul >> _SHIFT32)
        keys = np.empty((_PHILOX_ROUNDS, 2, len(rows)), dtype=np.uint64)
        keys[:, 0] = self._key0[:, None]
        keys[:, 1] = self._key1[:, rows]
        x = np.zeros((2, len(rows)), dtype=np.uint64)
        x[0] = counters
        y = np.zeros_like(x)
        for key in keys:
            hi, lo = _mulhilo(mul, x)
            x, y = hi[::-1] ^ y ^ key, lo[::-1]
        words = np.stack((x, y), axis=1).reshape(4, -1).T  # words 0, 1, 2, 3 of each block
        return (words >> _SHIFT11).astype(np.float64) * 2.0**-53

    def _refill(self, rows: np.ndarray, k: np.ndarray) -> None:
        """Hold the next ``_ahead`` blocks of each stream in ``rows`` from
        the block of its uniform k on.  They are computed in parts whose
        largest array, the round keys of 2 words per round and block, holds
        at most ``_BLOCK_ELEMENTS`` values."""
        ahead, self._ahead = self._ahead, min(2 * self._ahead, self._most)
        if 4 * ahead > self.buffer.shape[1]:  # widen, keeping what the other rows hold
            self.buffer = np.pad(self.buffer, ((0, 0), (0, 4 * ahead - self.buffer.shape[1])))
        first = k // 4 + 1
        streams = np.repeat(rows, ahead)
        counters = (first[:, None] + np.arange(ahead)).ravel()
        uniforms = np.empty((len(streams), 4))
        part = _BLOCK_ELEMENTS // (2 * _PHILOX_ROUNDS)
        for lo in range(0, len(streams), part):
            uniforms[lo : lo + part] = self._blocks(streams[lo : lo + part], counters[lo : lo + part])
        self.buffer[rows, : 4 * ahead] = uniforms.reshape(len(rows), 4 * ahead)
        self.start[rows] = 4 * (first - 1)
        self.stop[rows] = 4 * (first - 1 + ahead)

    def draw(self, rows: np.ndarray) -> np.ndarray:
        """The next uniform of each stream in ``rows`` (distinct positions)."""
        k = self.drawn[rows]
        stale = k >= self.stop[rows]
        if stale.any():
            self._refill(rows[stale], k[stale])
        self.drawn[rows] = k + 1
        return self.buffer[rows, k - self.start[rows]]

    def draw_positive(self, rows: np.ndarray) -> np.ndarray:
        """Like ``draw``, but a stream that yields 0.0 draws again, so only
        that stream's counter advances further."""
        u = self.draw(rows)
        zero = np.flatnonzero(u == 0.0)
        while len(zero):
            u[zero] = self.draw(rows[zero])
            zero = zero[u[zero] == 0.0]
        return u


@dataclass(frozen=True)
class PathBatch:
    """The jump table of a batch of sampled paths, in path order.

    Entry e says that path ``path[e]`` (its position in ``path_indices``)
    entered vertex ``states[e]`` (an index into ``vertex_ids``) at its
    ``step[e]``-th jump, at time ``times[e]``; step 0 is the start, at time
    0.  The walk sits at ``states[e]`` until the path's next entry, or the
    horizon when there is none.  An isolated start (Deg = 0) gives each
    path its step-0 entry only.
    """

    path: np.ndarray
    step: np.ndarray
    times: np.ndarray
    states: np.ndarray


def _walk_steps(
    g: WeightedGraph, x0: str, t_max: float, seed: int, path_indices: Iterable[int]
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The lock-step walk of ``sample_ctmc_paths``, one step at a time.

    Step k yields (path, J_k, Y_k) for the paths whose k-th jump comes by
    t_max; step 0 is every path's start.  A step's uniforms are drawn only
    when the step is asked for, so a caller that stops after step k samples
    no later jump, and may set t_max = inf.  A holding time past the float
    range (a subnormal Deg) reads inf: that path never jumps by a finite
    t_max.
    """
    i = g.index_of(x0)
    deg = g.degrees()
    streams = _PhiloxStreams(seed, path_indices)
    n_paths = len(streams.drawn)
    state = np.full(n_paths, i)
    clock = np.zeros(n_paths)
    active = np.arange(n_paths)
    yield active, clock.copy(), state.copy()
    while len(active) and deg[i] > 0.0:  # an isolated start never jumps
        u = streams.draw_positive(active)
        with np.errstate(over="ignore"):
            t = clock[active] + -np.log(u) / deg[state[active]]
        moved = t <= t_max
        active, t = active[moved], t[moved]
        state[active] = g.transition_table.jump(state[active], streams.draw(active))
        clock[active] = t
        yield active, t, state[active]


def sample_ctmc_paths(
    g: WeightedGraph, x0: str, t_max: float, seed: int, path_indices: Iterable[int]
) -> PathBatch:
    """Sample one path started at x0 per path index, truncated at the
    horizon, and return their jump table.

    All paths move in lock-step.  Path i reads the Philox stream keyed
    (seed, i): per step a holding-time uniform, redrawn while it is 0.0 so
    holding times are strictly positive, then a jump-choice uniform.  Path
    i is therefore fully determined by (g, x0, t_max, seed, i) and is
    bit-identical whichever other indices share the batch; distinct indices
    give independent streams under the same seed.
    """
    if not 0.0 <= t_max < math.inf:
        raise ValidationError("horizon must be finite and nonnegative")
    steps = list(_walk_steps(g, x0, t_max, seed, path_indices))
    path, times, states = (np.concatenate(column) for column in zip(*steps))
    step = np.repeat(np.arange(len(steps)), [len(s[0]) for s in steps])
    order = np.argsort(path, kind="stable")
    return PathBatch(path[order], step[order], times[order], states[order])


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

    All samples evolve in lock-step on one reserved Philox stream, which
    keeps the estimate deterministic in the seed while staying vectorized:
    each step draws the holding uniforms of the live samples, retires those
    whose clock passes t, then draws the jump uniforms of the rest.
    Per-path replay, where path i has its own stream keyed (seed, i), is
    available through ``sample_ctmc_paths``.

    The sums run on f * 2**-e, e the exponent of max |f|, and the mean and
    stderr are scaled back by 2**e: exactly, in the normal range, so
    scaling f by a power of two scales the estimate by it bit for bit.
    Both are at most max |f|, up to rounding; one past the float range
    reads inf.  A non-finite f raises ``ValidationError``.
    """
    if not 0.0 <= t < math.inf:
        raise ValidationError("time must be finite and nonnegative")
    if n_samples < 1:
        raise ValidationError("need at least one sample")
    f = np.asarray(f, dtype=float)
    if not np.isfinite(f).all():
        raise ValidationError("f must be finite")
    x_idx = g.index_of(x)
    deg = g.degrees()

    if t == 0.0 or deg[x_idx] <= 0.0:
        return MCEstimate(float(f[x_idx]), 0.0, n_samples, seed)

    rng = _stream(seed, _ESTIMATOR_STREAM)
    states = np.full(n_samples, x_idx, dtype=int)
    clock = np.zeros(n_samples)
    live = np.arange(n_samples)  # samples whose clock has not passed t
    with np.errstate(over="ignore"):  # a subnormal Deg holds for ever: the clock reads inf
        while len(live):
            u = rng.random(len(live))
            u[u == 0.0] = 0.5
            clock[live] += -np.log(u) / deg[states[live]]
            live = live[clock[live] <= t]
            states[live] = g.transition_table.jump(states[live], rng.random(len(live)))

    # f scaled by 2**-e lies in (-1, 1), so no term or partial sum overflows
    e = math.frexp(float(np.abs(f).max()))[1]
    scaled = np.ldexp(f, -e)
    counts = np.bincount(states, minlength=g.n)
    mean = _count_sum(scaled, counts) / n_samples
    stderr = 0.0
    if n_samples > 1:
        deviations = scaled - mean
        var = _count_sum(deviations * deviations, counts) / (n_samples - 1)
        stderr = math.sqrt(var / n_samples)
    with np.errstate(over="ignore"):  # a scale-back past the float range reads inf
        mean, stderr = np.ldexp([mean, stderr], e).tolist()
    return MCEstimate(mean, stderr, n_samples, seed)


def _count_sum(values: np.ndarray, counts: np.ndarray) -> float:
    """``math.fsum`` of the multiset holding ``values[v]`` ``counts[v]``
    times, for |values| < 1.

    fsum returns the correctly rounded exact sum, so every multiset of
    terms with the same exact sum gives the same float.  Vertex v's
    counts[v] copies become the exact terms values[v] * 2**b, one per set
    bit b of counts[v]; with |values| < 1 none of them overflows.
    """
    bits = range(int(counts.max()).bit_length())
    terms = [np.ldexp(values[(counts >> b) & 1 == 1], b) for b in bits]
    return math.fsum(np.concatenate(terms).tolist())


def erlang_tail(d_max: float, t: float, n: int) -> float:
    """P(sum of n unit-rate exponentials <= d_max * t), the Poisson upper tail
    e^{-mu} sum_{i>=n} mu^i / i! at mu = d_max * t: the regularized lower
    incomplete gamma function P(n, mu), from ``scipy.special.gammainc``."""
    if d_max <= 0:
        raise ValidationError("d_max must be positive")
    if t < 0:
        raise ValidationError("t must be nonnegative")
    if n < 0:
        raise ValidationError("n must be nonnegative")
    if n == 0:
        return 1.0
    return float(scipy.special.gammainc(n, d_max * t))


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
    maximum attained distance, the combinatorial covering radius of D and
    the finite-scale proxy for its relative denseness.
    """
    if len(D) == 0:
        raise EmptySubset("far-vertex search needs a nonempty subset")
    dist = _dist_to_set(g, MetricKind.COMBINATORIAL, g.subset_indices(D))
    entries = []
    stopped = None
    for n in range(1, n_max + 1):
        hits = np.nonzero(dist >= n)[0]
        if len(hits) == 0:
            stopped = n
            break
        entries.append((n, g.vertex_ids[int(hits[0])]))
    max_dist = covering_radius(g, MetricKind.COMBINATORIAL, D)
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
) -> NecessityReport:
    """Exact spectral norms against both necessity bounds on a time grid.

    ||S_t delta_x|| comes from ``RestrictedEvolution.final_norms`` and
    ||(S_t delta_x)|_D||^2 from ``RestrictedEvolution.norms``, for the unit
    delta at x; the Erlang bound is ``erlang_tail(Deg_max, t, n)``.
    """
    if g is not sd.graph:
        raise ValidationError("decomposition does not belong to the given graph")
    if len(D) == 0:
        raise EmptySubset("necessity check needs a nonempty subset")
    d_idx = g.subset_indices(D)
    x_idx = g.index_of(x)
    deg_x = float(g.degrees()[x_idx])
    d_max = float(g.degrees().max())

    hops = _dist_to_set(g, MetricKind.COMBINATORIAL, d_idx)[x_idx]
    if hops == math.inf:
        raise ValidationError("x cannot reach D; the restricted norm is identically 0")
    n_comb = int(hops)

    delta = np.zeros(g.n)
    delta[x_idx] = 1.0 / math.sqrt(g.m[x_idx])
    evolution = RestrictedEvolution(sd, d_idx, sd.coefficients(delta))
    ts = np.asarray(t_grid, dtype=float)
    fulls = evolution.final_norms(ts).tolist()
    restricted = (evolution.norms(ts)[:, 0] ** 2).tolist()

    rows = []
    passed = True
    for t, full, restricted_sq in zip(ts.tolist(), fulls, restricted):
        lower = math.exp(-deg_x * t)
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
        ok = row.lower_margin >= -_MARGIN_SLACK and row.upper_margin >= -_MARGIN_SLACK
        passed = passed and ok
        rows.append(row)
    return NecessityReport(
        x=x,
        d_max=d_max,
        n_comb=n_comb,
        rows=tuple(rows),
        passed=passed,
    )
