import math
from dataclasses import astuple
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphheat.errors import EmptySubset, ValidationError
from graphheat.families import build_family
from graphheat.graph import build_graph
from graphheat.spectral import eigendecompose, semigroup_apply
from graphheat.stochastic import (
    erlang_tail,
    far_vertex_sequence,
    fk_estimate,
    necessity_bounds_check,
    sample_ctmc_paths,
)
from graphheat import stochastic as sto
from graphheat.stochastic import _PhiloxStreams

# A hub of degree 10 whose weights make numpy's pairwise w.sum() differ from
# the sequential cumsum(w)[-1], plus two rim edges.
HUB_WEIGHTS = (1.924, 2.789, 1.377, 2.868, 1.55, 1.333, 1.899, 2.986, 2.852, 1.434)


def hub_graph():
    vertices = [("0", 2.0)] + [(str(j), 0.5 + 0.125 * j) for j in range(1, 11)]
    edges = [("0", str(j), b) for j, b in enumerate(HUB_WEIGHTS, start=1)]
    return build_graph(vertices, edges + [("1", "2", 0.5), ("5", "6", 2.25)])


def weighted_p3():
    # b(0,1)=1, b(1,2)=3: from the middle the walk jumps 1/4 vs 3/4
    return build_graph(
        [("0", 1.0), ("1", 1.0), ("2", 1.0)],
        [("0", "1", 1.0), ("1", "2", 3.0)],
    )


def numpy_stream(seed, i):
    """numpy's own Philox4x64-10 keyed (seed, i), each taken mod 2**64."""
    key = np.array([seed % 2**64, i % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def reference_path(g, x0, t_max, seed, path_index):
    """The one-path sampler as a plain loop on numpy's own Philox stream,
    with the neighbour rows built directly: what ``sample_ctmc_paths``
    must replay bit for bit."""
    i = g.index_of(x0)
    deg = g.degrees()
    rng = numpy_stream(seed, path_index)
    if deg[i] <= 0.0:
        return np.array([0.0]), (x0,)
    states, times, t = [i], [0.0], 0.0
    while True:
        u = rng.random()
        while u == 0.0:
            u = rng.random()
        t += -np.log(u) / deg[states[-1]]
        if t > t_max:
            break
        nb = g.neighbors(states[-1])
        row = np.cumsum(g.weights[states[-1], nb])
        states.append(int(nb[np.searchsorted(row, rng.random() * row[-1], side="right")]))
        times.append(t)
    return np.asarray(times), tuple(g.vertex_ids[j] for j in states)


def split_paths(g, batch, n_paths):
    """The (J_k, Y_k) arrays and state names of each path of a batch, after
    checking that the table is in path order with steps 0, 1, ... per path."""
    assert np.all(np.diff(batch.path) >= 0)
    ends = np.searchsorted(batch.path, np.arange(n_paths + 1))
    assert ends[-1] == len(batch.path) == len(batch.step) == len(batch.times) == len(batch.states)
    out = []
    for a, b in zip(ends[:-1], ends[1:]):
        np.testing.assert_array_equal(batch.step[a:b], np.arange(b - a))
        out.append((batch.times[a:b], tuple(g.vertex_ids[j] for j in batch.states[a:b])))
    return out


def poisson_tail(mu, n):
    """P(Poisson(mu) >= n) = 1 - e^{-mu} sum_{i<n} mu^i / i!, in 50-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 50
        mu = Decimal(mu)
        term, head = Decimal(1), Decimal(0)
        for i in range(n):
            head += term
            term = term * mu / (i + 1)
        return float(1 - (-mu).exp() * head)


def reference_fk(g, f, t, x, n_samples, seed):
    """``fk_estimate`` with its transition rows built directly and its sums
    taken over the list of samples, as a plain reference: f is scaled by
    2**-e, e the exponent of max |f|, and the mean and stderr of the scaled
    samples are scaled back, reading inf past the float range."""
    f = np.asarray(f, dtype=float)
    deg = g.degrees()
    width = max(len(g.neighbors(j)) for j in range(g.n))
    cum = np.ones((g.n, width))
    targets = np.zeros((g.n, width), dtype=int)
    for j in range(g.n):
        nb = g.neighbors(j)
        w = g.weights[j, nb]
        cum[j, : len(nb)] = np.cumsum(w) / w.sum()
        cum[j, len(nb) - 1] = 1.0
        targets[j, : len(nb)] = nb
        targets[j, len(nb) :] = nb[-1]
    rng = numpy_stream(seed, 2**64 - 1)
    states = np.full(n_samples, g.index_of(x), dtype=int)
    clock = np.zeros(n_samples)
    active = np.ones(n_samples, dtype=bool)
    while active.any():
        u = rng.random(int(active.sum()))
        u[u == 0.0] = 0.5
        clock[active] += -np.log(u) / deg[states[active]]
        active &= clock <= t
        v = rng.random(int(active.sum()))
        rows = states[active]
        states[active] = targets[rows, np.sum(v[:, None] >= cum[rows], axis=1)]
    e = math.frexp(max(abs(v) for v in f.tolist()))[1]
    values = [math.ldexp(v, -e) for v in f[states].tolist()]
    mean = math.fsum(values) / n_samples
    var = math.fsum((v - mean) * (v - mean) for v in values) / (n_samples - 1)
    scaled_back = []
    for v in (mean, math.sqrt(var / n_samples)):
        try:
            scaled_back.append(math.ldexp(v, e))
        except OverflowError:
            scaled_back.append(math.copysign(math.inf, v))
    return tuple(scaled_back)


# ---------------------------------------------------------------------------
# path sampling


def test_path_replay_is_deterministic(k2):
    (t1, s1), = split_paths(k2, sample_ctmc_paths(k2, "0", 10.0, 123, [0]), 1)
    (t2, s2), = split_paths(k2, sample_ctmc_paths(k2, "0", 10.0, 123, [0]), 1)
    assert s1 == s2
    np.testing.assert_array_equal(t1, t2)
    (t3, s3), = split_paths(k2, sample_ctmc_paths(k2, "0", 10.0, 123, [1]), 1)
    assert s3 != s1 or not np.array_equal(t3, t1)


def test_path_structure(c8):
    (times, states), = split_paths(c8, sample_ctmc_paths(c8, "3", 5.0, 0, [0]), 1)
    assert states[0] == "3"
    assert times[0] == 0.0
    assert np.all(np.diff(times) > 0.0)
    for a, b in zip(states, states[1:]):
        assert c8.weights[c8.index_of(a), c8.index_of(b)] > 0.0


def test_isolated_vertex_flagged():
    g = build_graph([("0", 1.0)], [])
    batch = sample_ctmc_paths(g, "0", 3.0, 1, [0])
    assert batch.path.tolist() == batch.step.tolist() == [0]  # the start entry only
    assert split_paths(g, batch, 1)[0][1] == ("0",)


def test_k2_jump_counts_poisson(k2):
    # Deg = 1 everywhere, so jumps by time t are Poisson(t)
    t, n = 2.0, 100_000
    counts = np.bincount(sample_ctmc_paths(k2, "0", t, 99, range(n)).path, minlength=n) - 1
    mean = float(np.mean(counts))
    stderr = float(np.std(counts, ddof=1)) / math.sqrt(n)
    assert abs(mean - t) <= 4 * stderr


def test_first_jump_law_weighted():
    # P3 with b(0,1)=1, b(1,2)=3, started at the middle: jumps 1/4 vs 3/4
    g = weighted_p3()
    n = 100_000
    batch = sample_ctmc_paths(g, "1", 5.0, 31, range(n))
    first = batch.states[batch.step == 1]  # the k = 1 states of the paths that jumped
    jumped = len(first)
    hits0 = int(np.sum(first == g.index_of("0")))
    p_hat = hits0 / jumped
    se = math.sqrt(0.25 * 0.75 / jumped)
    assert abs(p_hat - 0.25) <= 4 * se


@pytest.mark.parametrize("seed", [0, -1, 2**63 + 5])
def test_vectorized_philox_matches_numpy(seed):
    indices = [0, 7, 2**40 + 3, 2**64 - 1]
    streams = _PhiloxStreams(seed, indices)
    rows = np.arange(len(indices))
    drawn = np.array([streams.draw(rows) for _ in range(40)])
    for j, i in enumerate(indices):
        rng = numpy_stream(seed, i)
        assert drawn[:, j].tolist() == [rng.random() for _ in range(40)]


def test_zero_draw_advances_only_that_stream():
    streams = _PhiloxStreams(3, [0, 1, 2])
    streams.buffer[:] = [
        [0.5, 0.6, 0.7, 0.8],
        [0.0, 0.0, 0.25, 0.4],
        [0.1, 0.2, 0.3, 0.0],
    ]
    streams.stop[:] = 4  # each stream holds block 1: its uniforms 0 to 3
    streams.drawn[2] = 3  # stream 2 sits on the last word of its block
    u = streams.draw_positive(np.arange(3))
    rng = numpy_stream(3, 2)
    fifth = [rng.random() for _ in range(5)][-1]
    assert u.tolist() == [0.5, 0.25, fifth]
    assert streams.drawn.tolist() == [1, 3, 5]


def test_prefetched_streams_replay_numpy_through_refills(monkeypatch):
    """On cycle-4 with b = 1000 (about 2 000 steps a path) every path reads
    exactly the uniforms of its stream ``_stream(seed, i)`` in order, through
    more than 20 refills.  The block budget is cut so the refills reach
    their cap, and zeros are planted in a few blocks, in the stream and in
    its reference alike: each zero holding draw is drawn again on its own
    stream, which then refills out of step with the others (once while the
    buffer widens)."""
    g = build_family("cycle", {"n": 4, "b": 1000}).graph
    indices = [0, 5, 2**40 + 3, 2**64 - 1] + list(range(10, 30))
    planted = {1: [(3, 2), (3, 3)], 7: [(105, 2), (105, 3)], 20: [(400, 3)]}  # row: (block, word)
    drawn = [[] for _ in indices]
    refills = []
    blocks, draw, refill = (
        getattr(_PhiloxStreams, f) for f in ("_blocks", "draw", "_refill")
    )

    def planted_blocks(self, rows, counters):
        out = blocks(self, rows, counters)
        for row, spots in planted.items():
            for block, word in spots:
                out[(rows == row) & (counters == block), word] = 0.0
        return out

    def recorded_draw(self, rows):
        u = draw(self, rows)
        for r, v in zip(rows.tolist(), u.tolist()):
            drawn[r].append(v)
        return u

    def counted_refill(self, rows, k):
        refills.append(len(rows))
        refill(self, rows, k)

    monkeypatch.setattr(sto, "_BLOCK_ELEMENTS", 2**12)  # at most 42 blocks a refill, in parts
    monkeypatch.setattr(_PhiloxStreams, "_blocks", planted_blocks)
    monkeypatch.setattr(_PhiloxStreams, "draw", recorded_draw)
    monkeypatch.setattr(_PhiloxStreams, "_refill", counted_refill)
    sample_ctmc_paths(g, "0", 1.0, 11, indices)
    assert len(refills) > 20 and 1 in refills
    assert min(len(d) for d in drawn) > 3000
    for row, i in enumerate(indices):
        want = numpy_stream(11, i).random(len(drawn[row]))
        for block, word in planted.get(row, []):
            want[4 * (block - 1) + word] = 0.0
        assert drawn[row] == want.tolist(), row
    zeros = [row for row, d in enumerate(drawn) if 0.0 in d]
    assert zeros == sorted(planted)


def test_paths_of_a_range_equal_its_halves_on_a_long_walk():
    """A batch fetches blocks ahead by its size, so the halves of a range
    refill on other schedules; on cycle-4 with b = 1000 each half still
    samples the bits of its paths in the whole range."""
    g = build_family("cycle", {"n": 4, "b": 1000}).graph
    whole = sample_ctmc_paths(g, "0", 1.0, 3, range(60))
    low = sample_ctmc_paths(g, "0", 1.0, 3, range(30))
    high = sample_ctmc_paths(g, "0", 1.0, 3, range(30, 60))
    assert len(whole.path) > 60 * 1900
    np.testing.assert_array_equal(whole.path, np.concatenate([low.path, high.path + 30]))
    for name in ("step", "times", "states"):
        got, want = getattr(whole, name), np.concatenate([getattr(low, name), getattr(high, name)])
        assert got.tobytes() == want.tobytes(), name


def test_transition_table_matches_direct_build(c8):
    g = hub_graph()
    hub = g.weights[0, g.neighbors(0)]
    # totals is the sequential sum, which differs from the pairwise hub.sum() here
    assert np.cumsum(hub)[-1] != hub.sum()
    isolated = build_graph(
        [("0", 1.0), ("1", 1.0), ("lone", 1.0), ("2", 1.0)],
        [("0", "1", 1.0), ("1", "2", 3.0)],
    )
    for graph in (g, c8, weighted_p3(), isolated):
        table = graph.transition_table
        width = max(len(graph.neighbors(j)) for j in range(graph.n))
        assert table.cumulative.shape == (graph.n, width)
        for j in range(graph.n):
            nb = graph.neighbors(j)
            if len(nb) == 0:  # a row with no jump: target j, total 0
                assert np.all(table.targets[j] == j) and table.totals[j] == 0.0
                assert np.all(table.cumulative[j] == np.inf)
                continue
            w = graph.weights[j, nb]
            running = np.cumsum(w)
            np.testing.assert_array_equal(table.cumulative[j, : len(nb)], running)
            assert table.totals[j] == running[-1]
            np.testing.assert_array_equal(table.targets[j, : len(nb)], nb)
            assert np.all(table.targets[j, len(nb) :] == nb[-1])
            assert np.all(table.cumulative[j, len(nb) :] == np.inf)
    assert g.transition_table is g.transition_table


def test_jump_matches_searchsorted():
    """``jump`` picks ``searchsorted(row, u * total, side="right")`` of the
    row's running sums, also at u = 0, at the largest uniform below 1 and
    where u * total lands exactly on a running sum."""
    torus = build_family("torus", {"p": 16, "q": 16}).graph
    rng = np.random.default_rng(12)
    for g in (hub_graph(), torus, weighted_p3()):
        table = g.transition_table
        at, u, expected, on_a_sum = [], [], [], 0
        for j in range(g.n):
            nb = g.neighbors(j)
            row = np.cumsum(g.weights[j, nb])
            draws = [0.0, 1.0 - 2.0**-53] + rng.random(20).tolist()
            for c in row[:-1]:
                near = [c / row[-1], np.nextafter(c / row[-1], 0), np.nextafter(c / row[-1], 1)]
                hits = [v for v in near if v * row[-1] == c]
                draws += hits[:1]
                on_a_sum += bool(hits)
            at += [j] * len(draws)
            u += draws
            expected += [nb[np.searchsorted(row, v * row[-1], side="right")] for v in draws]
        assert on_a_sum > 0
        np.testing.assert_array_equal(table.jump(np.array(at), np.array(u)), expected)


def test_jump_where_a_subnormal_total_rounds_up():
    """With subnormal weights u * total rounds up to the total for u > 5/6
    here; such a draw takes the row's last neighbour, and both samplers run."""
    tiny = 5e-324
    g = build_graph(
        [("0", tiny), ("1", tiny), ("2", tiny)], [("0", "1", tiny), ("1", "2", 2 * tiny)]
    )
    table = g.transition_table
    assert 0.9 * table.totals[1] == table.totals[1]
    assert table.jump(np.array([1, 1, 1]), np.array([0.0, 0.4, 0.9])).tolist() == [0, 2, 2]
    est = fk_estimate(g, np.array([0.0, 1.0, 2.0]), 1.0, "1", 2_000, seed=1)
    assert 0.0 <= est.mean <= 2.0
    batch = sample_ctmc_paths(g, "1", 1.0, 1, range(200))
    assert set(batch.states.tolist()) <= {0, 1, 2}


def test_np_log_of_a_scalar_has_the_bits_of_every_batch_entry():
    """Holding times are -log(u): a path alone takes np.log of its uniform,
    a batch takes it on an array of uniforms.  np.log works entry by entry,
    so every slice (lengths 1 to 33, from offsets 0 to 8, as views and as
    copies) gives each uniform the bits of its scalar np.log, whatever the
    vector width and the tail: a path keeps its bits whichever indices
    share its batch."""
    u = np.random.default_rng(5).random(2000)
    u[:4] = [2.0**-53, 0.5, 1.0 - 2.0**-53, 1e-300]  # the extremes of the draws, and beyond
    alone = np.array([np.log(x) for x in u.tolist()])
    for offset in range(9):
        for length in range(1, 34):
            for start in range(offset, len(u) - length + 1, 97):
                part = u[start : start + length]
                want = alone[start : start + length]
                np.testing.assert_array_equal(np.log(part), want)
                np.testing.assert_array_equal(np.log(part.copy()), want)


@pytest.mark.parametrize("name", ["K2", "C8", "P3", "torus", "hub"])
def test_batched_paths_equal_looped_and_reference(name, k2, c8):
    g, x0 = {
        "K2": (k2, "0"),
        "C8": (c8, "3"),
        "P3": (weighted_p3(), "1"),
        "torus": (build_family("torus", {"p": 16, "q": 16}).graph, "3,4"),
        "hub": (hub_graph(), "0"),
    }[name]
    # non-contiguous and large indices first, then enough paths that a
    # last-bit slip in any holding time or jump choice would show
    indices = [4, 0, 9, 2**40 + 3, 2**64 - 1, 31, 2] + list(range(100, 400))
    for t_max in (0.0, 3.0):
        batch = sample_ctmc_paths(g, x0, t_max, 17, indices)
        paths = split_paths(g, batch, len(indices))
        for k, ((times, states), i) in enumerate(zip(paths, indices)):
            ref_times, ref_states = reference_path(g, x0, t_max, 17, i)
            assert states == ref_states
            np.testing.assert_array_equal(times, ref_times)
            assert times[-1] <= t_max and len(states) >= 1
            if k < 7 or k % 50 == 0:
                (one_times, one_states), = split_paths(
                    g, sample_ctmc_paths(g, x0, t_max, 17, [i]), 1
                )
                assert one_states == states
                np.testing.assert_array_equal(one_times, times)
    assert split_paths(g, sample_ctmc_paths(g, x0, 3.0, 17, []), 0) == []
    with pytest.raises(ValidationError):
        sample_ctmc_paths(g, x0, -1e-9, 17, indices)


def test_batched_paths_isolated_start():
    g = build_graph([("0", 1.0), ("1", 1.0), ("2", 1.0)], [("0", "1", 1.0)])
    batch = sample_ctmc_paths(g, "2", 3.0, 5, [1, 0, 2**64 - 1])
    assert batch.path.tolist() == [0, 1, 2] and batch.step.tolist() == [0, 0, 0]
    for (times, states), i in zip(split_paths(g, batch, 3), [1, 0, 2**64 - 1]):
        (one_times, one_states), = split_paths(g, sample_ctmc_paths(g, "2", 3.0, 5, [i]), 1)
        assert states == one_states == ("2",)
        np.testing.assert_array_equal(times, one_times)


# ---------------------------------------------------------------------------
# Feynman-Kac


def test_fk_t0_exact(k2):
    est = fk_estimate(k2, np.array([3.0, -1.0]), 0.0, "0", 500, seed=2)
    assert est.mean == 3.0 and est.stderr == 0.0


def test_fk_k2_matches_spectral(k2):
    exact = (1 + math.exp(-2.0)) / 2
    est = fk_estimate(k2, np.array([1.0, 0.0]), 1.0, "0", 20_000, seed=11)
    assert abs(est.mean - exact) <= 4 * est.stderr


def test_fk_constant_function_conserved(c8):
    est = fk_estimate(c8, np.ones(8), 1.5, "0", 5_000, seed=4)
    assert est.mean == 1.0 and est.stderr == 0.0


def test_fk_deterministic_in_seed(c8):
    f = np.arange(8.0)
    a = fk_estimate(c8, f, 1.0, "2", 1_000, seed=5)
    b = fk_estimate(c8, f, 1.0, "2", 1_000, seed=5)
    assert a.mean == b.mean and a.stderr == b.stderr
    c = fk_estimate(c8, f, 1.0, "2", 1_000, seed=6)
    assert c.mean != a.mean


@pytest.mark.filterwarnings("error")
def test_fk_matches_reference_exactly(k2, c8):
    rng = np.random.default_rng(8)
    torus = build_family("torus", {"p": 16, "q": 16}).graph
    for g, x in ((c8, "2"), (hub_graph(), "0"), (hub_graph(), "7"), (torus, "3,4")):
        for seed, t in ((5, 0.5), (6, 1.0), (7, 3.0)):
            f = rng.normal(size=g.n)
            est = fk_estimate(g, f, t, x, 3_000, seed)
            assert (est.mean, est.stderr) == reference_fk(g, f, t, x, 3_000, seed)
    # One sample of three ends at "1".  The squared deviation of this value
    # rounds differently as an array square (x * x) than as pow(x, 2), and
    # here the difference reaches the stderr.
    f = np.array([0.0, 1.9179378905536235])
    est = fk_estimate(k2, f, 1.0, "0", 3, seed=3)
    assert est.mean == f[1] / 3
    assert (est.mean, est.stderr) == reference_fk(k2, f, 1.0, "0", 3, 3)
    # f is summed scaled by 2**-e, so a huge f keeps a finite stderr
    f = np.array([1e200, 0.0])
    est = fk_estimate(k2, f, 1.0, "0", 3, seed=3)
    assert (est.mean, est.stderr) == reference_fk(k2, f, 1.0, "0", 3, 3)
    assert 0.0 < est.stderr <= 1e200


def _hex(floats):
    """Floats as hex strings: nan and the sign of 0 included."""
    return [float(v).hex() for v in floats]


_PARITY_VALUES = {
    "huge": [1e308, -1e308],
    "huge one side": [1e308, 0.5],
    "large": [2.0**500, -(2.0**499) / 3],
    "near the bound": [2.0**1005, -(2.0**1004)],
    "infinite": [math.inf, -math.inf],
    "inf": [math.inf, 1.0],
    "nan": [math.nan, 1.0],
    "zeros": [0.0, -0.0],
    "negative zeros": [-0.0, -0.0],
    "subnormal": [5e-324, -1.5e-320],
    "tiny normal": [2.2250738585072014e-308, -3e-310],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", sorted(_PARITY_VALUES))
@pytest.mark.parametrize("n_samples", [2, 3, 2**17 + 5])
def test_fk_sums_match_the_sample_list(c8, kind, n_samples):
    """``fk_estimate`` sums per-vertex counts exactly; it returns what the
    list ``fsum`` of the reference returns on extreme values and with counts
    that have high bits set, and refuses a non-finite f."""
    f = np.resize(np.array(_PARITY_VALUES[kind]), c8.n)
    if not np.isfinite(f).all():
        with pytest.raises(ValidationError):
            fk_estimate(c8, f, 2.0, "0", n_samples, 9)
        return
    ours = astuple(fk_estimate(c8, f, 2.0, "0", n_samples, 9))[:2]
    assert _hex(ours) == _hex(reference_fk(c8, f, 2.0, "0", n_samples, 9))


def test_sample_sum_matches_fsum_of_the_samples():
    """The per-vertex count sum is the fsum of the sample list on random
    multisets of values below 1 in magnitude, subnormals included."""
    rng = np.random.default_rng(30)
    for _ in range(300):
        n = int(rng.integers(1, 10))
        values = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(-1080, 1, n))
        states = rng.integers(0, n, int(rng.choice([1, 7, 20_000, 2**17 + 5])))
        counts = np.bincount(states, minlength=n)
        assert _hex([sto._count_sum(values, counts)]) == _hex(
            [math.fsum(values[states].tolist())]
        )


@pytest.mark.filterwarnings("error")
def test_fk_scales_exactly_with_f(c8):
    """Scaling f by 2**k scales the estimate by 2**k bit for bit, for every
    k that keeps 2**k f in the normal range."""
    f = np.random.default_rng(21).normal(size=c8.n)
    low = math.frexp(float(np.abs(f).min()))[1]
    high = math.frexp(float(np.abs(f).max()))[1]
    base = fk_estimate(c8, f, 1.0, "0", 64, seed=4)
    for k in range(-1021 - low, 1025 - high):
        est = fk_estimate(c8, np.ldexp(f, k), 1.0, "0", 64, seed=4)
        assert (est.mean, est.stderr) == (math.ldexp(base.mean, k), math.ldexp(base.stderr, k))


def test_fk_validations(k2):
    for t in (-1.0, math.inf, math.nan):
        with pytest.raises(ValidationError):
            fk_estimate(k2, np.zeros(2), t, "0", 10, seed=0)
        with pytest.raises(ValidationError):
            sample_ctmc_paths(k2, "0", t, 0, [0])
    with pytest.raises(ValidationError):
        fk_estimate(k2, np.zeros(2), 1.0, "0", 0, seed=0)
    for bad in (math.nan, math.inf, -math.inf):
        for t in (0.0, 1.0):
            with pytest.raises(ValidationError):
                fk_estimate(k2, np.array([0.0, bad]), t, "0", 10, seed=0)


# ---------------------------------------------------------------------------
# Erlang tails


def test_erlang_known_value():
    assert abs(erlang_tail(2.0, 1.0, 3) - (1.0 - 5.0 * math.exp(-2.0))) <= 1e-14


def test_erlang_edge_cases():
    assert erlang_tail(2.0, 1.0, 0) == 1.0
    assert erlang_tail(2.0, 0.0, 1) == 0.0
    assert erlang_tail(2.0, 0.0, 5) == 0.0


def test_erlang_complement_identity():
    # direct tail plus head must give 1
    for (d, t, n) in [(2.0, 1.0, 3), (1.5, 2.0, 1), (3.0, 4.0, 10), (2.0, 10.0, 50)]:
        mu = d * t
        head = math.fsum(
            math.exp(-mu + i * math.log(mu) - math.lgamma(i + 1)) for i in range(n)
        )
        assert abs(erlang_tail(d, t, n) + head - 1.0) <= 1e-14


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.1, 10.0),
    st.floats(0.0, 20.0),
    st.integers(0, 80),
)
def test_erlang_matches_regularized_gamma(d_max, t, n):
    mine = erlang_tail(d_max, t, n)
    ref = poisson_tail(d_max * t, n)
    assert mine == pytest.approx(ref, rel=1e-12, abs=1e-15)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.1, 5.0), st.floats(0.01, 10.0), st.integers(0, 40))
def test_erlang_monotonicity(d_max, t, n):
    assert erlang_tail(d_max, t, n + 1) <= erlang_tail(d_max, t, n) + 1e-15
    assert erlang_tail(d_max, t, n) <= erlang_tail(d_max, t * 1.5, n) + 1e-15


def test_erlang_validations():
    with pytest.raises(ValidationError):
        erlang_tail(0.0, 1.0, 1)
    with pytest.raises(ValidationError):
        erlang_tail(1.0, -1.0, 1)
    with pytest.raises(ValidationError):
        erlang_tail(1.0, 1.0, -1)


# ---------------------------------------------------------------------------
# far vertices and necessity bounds


def test_far_vertices_p101(p101):
    rep = far_vertex_sequence(p101, ["0"], 100)
    assert rep.stopped_at is None
    assert rep.max_distance == 100
    assert rep.entries[0] == (1, "1")
    assert rep.entries[-1] == (100, "100")


def test_far_vertices_dense_set_stops(c8):
    rep = far_vertex_sequence(c8, ["0", "2", "4", "6"], 5)
    assert rep.max_distance == 1
    assert rep.stopped_at == 2
    assert [n for n, _ in rep.entries] == [1]


def test_far_vertices_empty(c8):
    with pytest.raises(EmptySubset):
        far_vertex_sequence(c8, [], 3)


def test_necessity_k2_closed_form(k2):
    sd = eigendecompose(k2)
    rep = necessity_bounds_check(sd, k2, ["1"], "0", [0.1, 1.0, 10.0])
    for row in rep.rows:
        expect = math.sqrt((1 + math.exp(-4 * row.t)) / 2)
        assert row.full_norm == pytest.approx(expect, rel=1e-12)
        assert row.lower_bound == pytest.approx(math.exp(-row.t), rel=1e-15)
        assert row.lower_margin >= -1e-12
    assert rep.passed


def test_necessity_t0_off_D(k2):
    sd = eigendecompose(k2)
    rep = necessity_bounds_check(sd, k2, ["1"], "0", [0.0])
    row = rep.rows[0]
    assert row.full_norm == pytest.approx(1.0, abs=1e-12)
    assert row.restricted_sq == pytest.approx(0.0, abs=1e-25)
    assert row.erlang_bound == 0.0
    assert rep.passed


def test_necessity_p101(p101):
    sd = eigendecompose(p101)
    rep = necessity_bounds_check(sd, p101, ["0"], "20", [0.1, 1.0, 5.0, 10.0])
    assert rep.n_comb == 20 and rep.d_max == 2.0
    assert rep.passed


def test_fk_exact_value_via_semigroup(c8):
    # spectral oracle for the FK mean on C8
    sd = eigendecompose(c8)
    f = np.zeros(8)
    f[0] = 1.0
    exact = float(semigroup_apply(sd, 1.0, f)[c8.index_of("2")])
    est = fk_estimate(c8, f, 1.0, "2", 20_000, seed=21)
    assert abs(est.mean - exact) <= 4 * est.stderr
