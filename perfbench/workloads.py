"""Workloads of the graphheat benchmark: input universes, operations, records.

A workload is a list of slots. Each slot has ``VARIANTS`` variants, and
variant v of slot s is one fixed input, so the reference outputs in
``reference/<workload>.json`` cover every input a run can draw. The
workload seed picks ``draws`` distinct variants of each slot; a pass runs
each picked input once, with a single caller that waits for each result
(closed loop).

Every operation builds its graph (or lets the CLI build it) from the spec
inside the timed call. The library's distance caches are keyed by graph
identity, so reusing graph objects would time cache hits that a
``graphheat run`` user never gets.

Nothing here imports ``graphheat``: operations receive the imported layer
modules as ``gh`` and call their public names through them, so that the
wrappers the traced run installs in those namespaces see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from pathlib import Path
from typing import Callable

import numpy as np

VARIANTS = 8

# ---------------------------------------------------------------------------
# corpus: the acceptance-corpus recipe of tests/conftest.py, reimplemented
#
# Graph cost depends mostly on n, so n is stratified: slot s has n fixed
# on a grid over [4, 40] and its variants differ in edges, weights and D.
# Drawing n per graph would let the seed, not the code, decide much of a
# run's time.

CORPUS_MASTER_SEED = 20250810
CORPUS_SIZES = tuple(range(4, 41, 3))
DELTAS = (0.0, 0.5)
RS = (1.0, 2.0, math.inf)
TS = (0.5, 1.0, 5.0)
CONTROL_TS = (0.5, 1.0, 5.0)
VERIFY_SAMPLES = 1000


@dataclass(frozen=True)
class CorpusInput:
    key: str
    vertices: tuple[tuple[str, float], ...]
    edges: tuple[tuple[str, str, float], ...]
    D: tuple[str, ...]
    m: np.ndarray
    verify_seed: int
    f0s: tuple[np.ndarray, ...]


def _draw(rng, lo=0.5, hi=2.0) -> float:
    return round(float(rng.uniform(lo, hi)), 3)


def _random_connected_graph(rng, n: int):
    """Random spanning tree plus Poisson(n/2) extra edges, weights on a 1e-3 grid."""
    vertices = [(str(i), _draw(rng)) for i in range(n)]
    edges: dict[tuple[int, int], float] = {}
    for i in range(1, n):
        edges[(int(rng.integers(0, i)), i)] = _draw(rng)
    for _ in range(int(rng.poisson(0.5 * n))):
        i, j = sorted(int(v) for v in rng.integers(0, n, size=2))
        if i != j and (i, j) not in edges:
            edges[(i, j)] = _draw(rng)
    return vertices, edges


def _length_dist_to_set(n: int, edges: dict, sources: list[int]) -> list[Fraction]:
    """Exact length-metric (1/b) distance of every vertex to a vertex set."""
    adj: list[list[tuple[int, Fraction]]] = [[] for _ in range(n)]
    for (i, j), b in edges.items():
        w = 1 / Fraction(b)
        adj[i].append((j, w))
        adj[j].append((i, w))
    dist: list[Fraction | None] = [None] * n
    heap = []
    for s in sources:
        dist[s] = Fraction(0)
        heappush(heap, (Fraction(0), s))
    while heap:
        d, i = heappop(heap)
        if d > dist[i]:
            continue
        for j, w in adj[i]:
            nd = d + w
            if dist[j] is None or nd < dist[j]:
                dist[j] = nd
                heappush(heap, (nd, j))
    return dist  # the spanning tree makes every vertex reachable


def _grow_dense_subset(n: int, edges: dict, rng, max_covr: int = 2) -> list[int]:
    """Grow D by the farthest vertex until the length covering radius is <= max_covr."""
    D = [int(rng.integers(0, n))]
    while True:
        dist = _length_dist_to_set(n, edges, D)
        worst = max(dist)
        if worst <= max_covr:
            return D
        D.append(dist.index(worst))


def corpus_input(slot: int, variant: int) -> CorpusInput:
    n = CORPUS_SIZES[slot]
    rng = np.random.default_rng([CORPUS_MASTER_SEED, slot, variant])
    while True:
        vertices, edges = _random_connected_graph(rng, n)
        D = _grow_dense_subset(n, edges, rng)
        if len(D) < n:  # keep D a proper subset
            break
    m = np.array([mv for _, mv in vertices])
    f0s = []
    for _ in CONTROL_TS:
        f0 = rng.standard_normal(n)
        f0s.append(f0 / math.sqrt(float(np.sum(f0**2 * m))))
    return CorpusInput(
        key=f"{slot}/{variant}",
        vertices=tuple(vertices),
        edges=tuple((str(i), str(j), b) for (i, j), b in edges.items()),
        D=tuple(str(i) for i in D),
        m=m,
        verify_seed=int(rng.integers(0, 2**31)),
        f0s=tuple(f0s),
    )


def corpus_op(gh, inp: CorpusInput, _workdir: Path):
    """One acceptance-corpus graph: criteria 1 and 2 plus forced control."""
    g = gh.graph.build_graph(inp.vertices, inp.edges)
    sd = gh.spectral.eigendecompose(g)
    consts = [
        gh.observability.weak_obs_constants(g, sd, inp.D, T, delta, r)
        for delta in DELTAS
        for r in RS
        for T in TS
    ]
    vers = gh.observability.verify_weak_obs_multi(
        sd, inp.D, consts, samples=VERIFY_SAMPLES, seed=inp.verify_seed
    )
    sweep = gh.observability.up_sweep(g, sd, inp.D)
    controls = []
    for T, f0 in zip(CONTROL_TS, inp.f0s):
        free = gh.spectral.semigroup_apply(sd, T, f0)
        target = 0.5 * math.sqrt(float(np.sum(free**2 * inp.m)))
        try:
            signal, res = gh.control.synth_control(sd, inp.D, T, f0, target)
        except gh.errors.TargetUnreachable:  # a mode invisible on D blocks it
            controls.append((T, target, None, None))
            continue
        sim = gh.control.verify_control(sd, inp.D, f0, signal, T)
        controls.append((T, target, res, sim))
    return vers, sweep, controls


def corpus_record(inp: CorpusInput, out) -> dict:
    vers, sweep, controls = out
    c0 = vers[0].constants
    rec: dict = {
        "lambda": c0.lam,
        "kappa": c0.kappa,
        "inradius": c0.inradius,
        "ball_volume": c0.ball_volume,
        "inputs": sum(ver.n_inputs for ver in vers),
    }
    weak_ok = True
    for ver in vers:
        c = ver.constants
        scale = c.K + c.alpha + 1.0
        rec[f"slack[d={c.delta},r={c.r},T={c.T}]"] = ver.min_slack / scale
        weak_ok = weak_ok and bool(ver.min_slack >= -1e-9 * scale)
    rec["verdict.weak_obs"] = weak_ok

    up_ok = True
    finite = [r.sharp_constant for r in sweep if math.isfinite(r.sharp_constant)]
    for r in sweep:
        if r.applicable and math.isfinite(r.sharp_constant):
            up_ok = up_ok and bool(r.sharp_constant <= r.paper_bound * (1 + 1e-9))
        if r.remark_applicable and math.isfinite(r.sharp_constant):
            up_ok = up_ok and bool(r.sharp_constant <= r.remark_bound * (1 + 1e-9))
    rec["up.rows"] = len(sweep)
    rec["up.threshold"] = sweep[0].threshold
    rec["up.remark_threshold"] = sweep[0].remark_threshold
    rec["up.applicable"] = sum(bool(r.applicable) for r in sweep)
    rec["up.remark_applicable"] = sum(bool(r.remark_applicable) for r in sweep)
    rec["up.finite_sharp"] = len(finite)
    rec["up.max_finite_sharp"] = max(finite, default=0.0)
    rec["verdict.up_sweep"] = up_ok

    for T, target, res, sim in controls:
        tag = f"ctl[T={T}]"
        rec[tag + ".target"] = target
        rec[tag + ".unreachable"] = res is None
        if res is None:
            continue
        rec[tag + ".achieved_alpha"] = res.achieved_alpha
        rec[tag + ".nu"] = res.nu
        rec[tag + ".energy"] = res.energy
        for r, cost in sorted(res.costs.items()):
            rec[f"{tag}.cost[r={r}]"] = cost
        diff = sim.final_state - res.final_state
        resim = math.sqrt(float(np.sum(diff**2 * inp.m))) / max(
            math.sqrt(float(np.sum(res.final_state**2 * inp.m))), 1e-30
        )
        rec[tag + ".target_met"] = bool(res.nu > 0 and res.achieved_alpha <= target * (1 + 1e-9))
        rec[tag + ".resim_ok"] = bool(resim <= 1e-8)
    return {k: v.item() if isinstance(v, np.generic) else v for k, v in rec.items()}


# ---------------------------------------------------------------------------
# CLI scenarios (families and walk)


@dataclass(frozen=True)
class ScenarioInput:
    key: str
    scenario: dict

    @property
    def task(self) -> str:
        return self.scenario["task"]


# Summary fields that sit at rounding level (residuals, re-simulation
# errors): a relative comparison of them is meaningless, and each is already
# bounded by one of the task's own assertions, whose verdict is compared.
ROUNDING_LEVEL_FIELDS = frozenset(
    {
        "max_residual",
        "max_orthonormality_error",
        "resimulation_rel_error",
        "obstruction_eigen_residual",
        "max_mode_invariance_residual",
    }
)
# Which vertex attains a minimum is decided by rounding on symmetric graphs.
TIE_DEPENDENT_FIELDS = frozenset({"worst_input"})

# Where each parameter the benchmark sets must reappear in the summary.
# A parameter that is not echoed there is checked through the tables.
ECHO_KEYS = {"N": "periods", "r": ("r", "r_observability")}


def _scenario_path(workdir: Path, inp: ScenarioInput) -> Path:
    return workdir / "scenarios" / (inp.key.replace("/", "_") + ".json")


def _out_dir(workdir: Path, inp: ScenarioInput) -> Path:
    return workdir / "reports" / inp.key.replace("/", "_")


def write_scenarios(inputs, workdir: Path) -> None:
    """Scenario files are part of the generated inputs."""
    for inp in inputs:
        path = _scenario_path(workdir, inp)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(inp.scenario, sort_keys=True))


def prepare_cli_op(inp: ScenarioInput, workdir: Path) -> None:
    """Untimed: remove the previous pass's reports of this slot."""
    shutil.rmtree(_out_dir(workdir, inp), ignore_errors=True)


def cli_op(gh, inp: ScenarioInput, workdir: Path):
    """One ``graphheat run <scenario> --out <dir>`` call, in process."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = gh.cli.main(
            ["run", str(_scenario_path(workdir, inp)), "--out", str(_out_dir(workdir, inp))]
        )
    return code, sink.getvalue()


def _flatten(prefix: str, value, rec: dict) -> None:
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], rec)
    elif isinstance(value, list) and value and all(isinstance(v, str) for v in value) and len(value) > 8:
        rec[prefix + ".len"] = len(value)  # long id lists (D) are input echoes
    else:
        rec[prefix] = value


def cli_record(inp: ScenarioInput, workdir: Path, out) -> dict:
    code, log = out
    if code != 0:
        raise RuntimeError(f"CLI exited {code}: {log.strip()[-300:]}")
    out_dir = _out_dir(workdir, inp)
    summary = json.loads((out_dir / f"{inp.task}_summary.json").read_text())
    rec: dict = {}
    for a in summary.pop("assertions"):
        rec[f"assert.{a['name']}"] = a["passed"]
    for key in ROUNDING_LEVEL_FIELDS | TIE_DEPENDENT_FIELDS:
        summary.pop(key, None)
    _flatten("", summary, rec)
    tables = {}
    for csv_path in sorted(out_dir.glob(f"{inp.task}_*.csv")):
        with csv_path.open() as fh:
            tables[csv_path.stem[len(inp.task) + 1 :]] = sum(1 for _ in fh) - 1
    for name, rows in tables.items():
        rec[f"rows.{name}"] = rows
    _check_echo(inp, summary, out_dir)
    return rec


def _same(a, b) -> bool:
    """Equality of a summary value and a parameter; summaries write inf as "inf"."""
    a, b = (math.inf if v == "inf" else v for v in (a, b))
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return float(a) == float(b)
    return a == b


def _check_echo(inp: ScenarioInput, summary: dict, out_dir: Path) -> None:
    """Every parameter the benchmark set must be visible in the outputs, so a
    misspelt or ignored key cannot shrink the workload unnoticed."""
    params = dict(inp.scenario.get("params", {}))
    params["seed"] = inp.scenario["seed"]
    for name, want in params.items():
        if name == "sample_paths":
            path = out_dir / f"{inp.task}_paths.csv"
            with path.open() as fh:
                next(fh)
                seen = {line.split(",", 1)[0] for line in fh}
            if len(seen) != want:
                raise RuntimeError(f"sample_paths={want} but {len(seen)} paths exported")
            continue
        keys = ECHO_KEYS.get(name, name)
        keys = (keys,) if isinstance(keys, str) else keys
        if not any(k in summary and _same(summary[k], want) for k in keys):
            got = {k: summary.get(k) for k in keys}
            raise RuntimeError(f"parameter {name}={want!r} not echoed: summary has {got}")


# ---------------------------------------------------------------------------
# families: few large graphs with uniform, tie-heavy lengths, through the CLI

FAMILY_GRAPHS = (
    ("cycle300", {"family": "cycle", "n": 300}),
    ("torus16", {"family": "torus", "p": 16, "q": 16}),
    ("cover64", {"family": "cyclic-cover", "base": {"family": "cycle", "n": 4}, "k": 64}),
)
FAMILY_TASKS = (
    ("spectrum", {}),
    ("weak-obs", {"T": 1.0, "r": 1, "samples": 1000}),
    ("weak-obs", {"T": 1.0, "r": "inf", "samples": 1000}),
    ("control", {"T": 1.0}),
    ("non-null", {"T": 1.0}),
    ("necessity", {"t_grid": [0.1, 1.0, 5.0, 10.0]}),
    ("stabilize", {"T": 1.0, "alpha": 0.5, "N": 10}),
)
# up-sweep recomputes the exact geometry at every sweep point (about 40 s
# per call at n = 300), so it runs on smaller members of the families.
UP_SWEEP_GRAPHS = (
    ("cycle100", {"family": "cycle", "n": 100}),
    ("torus8", {"family": "torus", "p": 8, "q": 8}),
)
FAMILY_SLOTS = tuple(
    (gname, gspec, task, params)
    for gname, gspec in FAMILY_GRAPHS
    for task, params in FAMILY_TASKS
) + tuple((gname, gspec, "up-sweep", {}) for gname, gspec in UP_SWEEP_GRAPHS)


def _vertex_ids(gspec: dict) -> list[str]:
    if gspec["family"] == "torus":
        return [f"{i},{j}" for i in range(gspec["p"]) for j in range(gspec["q"])]
    if gspec["family"] == "cyclic-cover":
        return [str(j) for j in range(gspec["base"]["n"] * gspec["k"])]
    return [str(j) for j in range(gspec["n"])]


def _scenario(slot_tag: str, slot: int, variant: int, gspec, task, params, salt: int) -> ScenarioInput:
    rng = np.random.default_rng([salt, slot, variant])
    params = dict(params)
    ids = _vertex_ids(gspec)
    if task == "necessity":
        params["x"] = [ids[int(k)] for k in rng.choice(len(ids), size=2, replace=False)]
    if task == "stochastic":
        params["x"] = ids[int(rng.integers(0, len(ids)))]
    scenario = {
        "graph": gspec,
        "subset": {"parity": "even"},
        "task": task,
        "params": params,
        "seed": int(rng.integers(0, 2**31)),
    }
    if task == "stochastic":
        del scenario["subset"]
    return ScenarioInput(key=f"{slot}/{variant}:{slot_tag}", scenario=scenario)


def families_input(slot: int, variant: int) -> ScenarioInput:
    gname, gspec, task, params = FAMILY_SLOTS[slot]
    tag = f"{gname}.{task}" + (f".r={params['r']}" if "r" in params else "")
    return _scenario(tag, slot, variant, gspec, task, params, salt=31)


# ---------------------------------------------------------------------------
# walk: the random walk, lock-step Feynman-Kac plus per-path replay

WALK_GRAPHS = (
    ("path2", {"family": "path", "n": 2}, 2000, 200),
    ("cycle8", {"family": "cycle", "n": 8}, 2000, 200),
    ("cycle300", {"family": "cycle", "n": 300}, 200, 20),
    ("torus16", {"family": "torus", "p": 16, "q": 16}, 200, 20),
)
WALK_FK = {"t": 1.0, "n_samples": 20000, "repeats": 4}
WALK_SLOTS = tuple(
    (gname, gspec, "stochastic", dict(WALK_FK, first_jump_samples=jumps, sample_paths=paths))
    for gname, gspec, jumps, paths in WALK_GRAPHS
) + tuple(
    (gname, gspec, "necessity", {"t_grid": [0.1, 1.0, 5.0, 10.0]})
    for gname, gspec, _jumps, _paths in WALK_GRAPHS
)


def walk_input(slot: int, variant: int) -> ScenarioInput:
    gname, gspec, task, params = WALK_SLOTS[slot]
    return _scenario(f"{gname}.{task}", slot, variant, gspec, task, params, salt=47)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    n_slots: int
    make_input: Callable
    op: Callable
    record: Callable  # (input, workdir, op output) -> flat record
    prepare: Callable | None
    draws: int  # distinct variants of each slot in one pass
    nominal_pass_s: float  # pass time at the commit that defined the benchmark

    def inputs(self, seed: int) -> list:
        rng = np.random.default_rng(seed)
        picks = [rng.choice(VARIANTS, size=self.draws, replace=False) for _ in range(self.n_slots)]
        return [
            self.make_input(s, int(picks[s][d])) for d in range(self.draws) for s in range(self.n_slots)
        ]

    def warm_up_input(self):
        """The same input whatever the seed, so set-up time does not depend on it."""
        return self.make_input(0, 0)

    def universe(self) -> list:
        return [self.make_input(s, v) for s in range(self.n_slots) for v in range(VARIANTS)]


WORKLOADS = {
    # 3 of the 8 graphs of each size, so the seed's choice of graphs moves
    # a run's time by a few percent at most.
    "corpus": Workload(
        "corpus",
        len(CORPUS_SIZES),
        corpus_input,
        corpus_op,
        lambda inp, _workdir, out: corpus_record(inp, out),
        None,
        draws=3,
        nominal_pass_s=24.0,
    ),
    "families": Workload(
        "families", len(FAMILY_SLOTS), families_input, cli_op, cli_record, prepare_cli_op,
        draws=1, nominal_pass_s=19.5,
    ),
    "walk": Workload(
        "walk", len(WALK_SLOTS), walk_input, cli_op, cli_record, prepare_cli_op,
        draws=1, nominal_pass_s=3.3,
    ),
}
