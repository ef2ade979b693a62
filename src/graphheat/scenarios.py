"""Scenario-driven experiment runner with deterministic reports.

A scenario JSON names a graph source, an optional vertex subset D, a task,
and task parameters.  Tasks compose the library operations, check their
asserted inequalities, and emit one JSON summary plus CSV detail tables
with a stable field order, so replaying a scenario with the same seed
produces byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import astuple, dataclass, field, fields
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import observability as obs
from . import stochastic as sto
from .control import (
    gramian,
    hautus_obstruction,
    mode_invariance_trials,
    stabilize,
    synth_control,
    verify_control,
)
from .errors import ParseError, TargetUnreachable, ValidationError
from .families import build_family, parity_subset
from .graph import (
    MetricKind,
    WeightedGraph,
    _fields,
    _integer,
    _names,
    _number,
    _numbers,
    _object,
    _path,
    _text,
    covering_radius,
    inradius,
    load_subset_json,
    max_ball_volume,
    read_json,
    validate_assumptions,
)
from .quadrature import _BLOCK_ELEMENTS
from .spectral import _eigen_residuals, eigendecompose, semigroup_apply

# ---------------------------------------------------------------------------
# deterministic serialization


def _json_types(obj):
    """``obj`` in JSON's own types: non-finite floats become "nan", "inf"
    and "-inf", Fractions strings, and numpy values Python values."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [_json_types(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _json_types(v) for k, v in obj.items()}
    return obj


def dumps_deterministic(obj) -> str:
    """JSON with sorted keys, shortest round-trip floats, and string-coded
    non-finite values, so equal results serialize to equal bytes."""
    return json.dumps(_json_types(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _cell(value) -> str:
    if type(value) is int or type(value) is str:  # most cells, and cheaper than the ABCs below
        return str(value)
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")  # nan, inf and -inf included
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return str(value)


# ---------------------------------------------------------------------------
# report plumbing


@dataclass
class AssertionRecord:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class TaskReport:
    task: str
    summary: dict
    tables: dict[str, tuple[list[str], list[list] | np.ndarray]] = field(default_factory=dict)
    assertions: list[AssertionRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def check(self, name: str, condition: bool, detail: str = "") -> None:
        self.assertions.append(AssertionRecord(name, bool(condition), detail))


def emit_report(report: TaskReport, out_dir: str | Path) -> list[Path]:
    """Write the JSON summary and CSV tables; returns the created paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    payload = dict(report.summary)
    payload["task"] = report.task
    payload["passed"] = report.passed
    payload["assertions"] = [
        {"name": a.name, "passed": a.passed, "detail": a.detail}
        for a in report.assertions
    ]
    summary_path = out / f"{report.task}_summary.json"
    summary_path.write_text(dumps_deterministic(payload))
    paths.append(summary_path)
    for name in sorted(report.tables):
        columns, rows = report.tables[name]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        if isinstance(rows, np.ndarray) and rows.dtype == np.float64:
            # '%.17g' % x writes the bytes of _cell(x) for every float x
            line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
            buf.writelines(line % tuple(row) for row in rows.tolist())
        else:
            for row in rows:
                writer.writerow([_cell(v) for v in row])
        table_path = out / f"{report.task}_{name}.csv"
        table_path.write_text(buf.getvalue())
        paths.append(table_path)
    return paths


# ---------------------------------------------------------------------------
# scenario model


@dataclass(frozen=True)
class Scenario:
    graph: dict
    task: str
    subset: dict | None = None
    params: dict = field(default_factory=dict)
    seed: int = 0


# The nested objects are read through their own tables when the scenario runs.
_SCENARIO_KEYS = {
    "graph": (_object, None),
    "task": (_text, None),
    "subset": (_object, None),
    "params": (_object, {}),
    "seed": (_integer, 0),
}


def scenario_from_dict(data: dict) -> Scenario:
    fields = _fields(data, "scenario", _SCENARIO_KEYS)
    if fields["graph"] is None or fields["task"] is None:
        raise ParseError("scenario needs 'graph' and 'task' fields")
    if "family" not in fields["graph"]:
        raise ParseError("scenario 'graph' needs a 'family' field")
    if fields["task"] not in _TASKS:
        raise ValidationError(f"unknown task {fields['task']!r}; expected one of {tuple(_TASKS)}")
    return Scenario(**fields)


def load_scenario(path: str | Path) -> Scenario:
    return scenario_from_dict(read_json(path))


_SUBSET_KEYS = {"ids": (_names, None), "parity": (_text, None), "file": (_path, None)}


def _resolve_subset(g: WeightedGraph, spec: dict) -> tuple[str, ...]:
    ((kind, value),) = _fields(spec, "subset", _SUBSET_KEYS, one_of=True).items()
    if kind == "parity":
        return parity_subset(g, value)
    if kind == "file":
        return load_subset_json(value)
    return tuple(value)


def _parse_r(value, name: str) -> float:
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity"):
            return math.inf
        raise ValidationError(f"bad norm index {value!r}")
    if isinstance(value, float) and value == math.inf:
        return math.inf
    r = _number(value, name)
    if not r >= 1.0:
        raise ValidationError(f"norm index must lie in [1, inf], got {r}")
    return r


def _conjugate(r: float) -> float:
    if math.isinf(r):
        return 1.0
    if r == 1.0:
        return math.inf
    return r / (r - 1.0)


_F0_KEYS = {"random": (_integer, None), "delta": (_text, None), "values": (_numbers, None)}


def _resolve_f0(sd, spec: dict | None, default_seed: int) -> np.ndarray:
    spec = {"random": default_seed} if spec is None else spec
    ((kind, value),) = _fields(spec, "params.f0", _F0_KEYS, one_of=True).items()
    if kind == "random":
        f0 = np.random.default_rng(value).standard_normal(sd.n)
        return f0 / sd.norm(f0)
    if kind == "delta":
        i = sd.graph.index_of(value)
        f0 = np.zeros(sd.n)
        f0[i] = 1.0 / math.sqrt(sd.graph.m[i])
        return f0
    if len(value) != sd.n:
        raise ValidationError("f0 'values' length does not match the graph")
    return np.asarray(value)


# ---------------------------------------------------------------------------
# tasks

# The control task exports its signal at this many equally spaced times.
_EXPORT_GRID_POINTS = 512


def _task_validate(g, D, seed) -> TaskReport:
    rep = validate_assumptions(g)
    report = TaskReport(
        "validate",
        {
            "connected": rep.connected,
            "d_max": rep.d_max,
            "sup_m": rep.sup_m,
            "inf_m": rep.inf_m,
            "inf_positive_b": rep.inf_positive_b,
        },
    )
    report.check("connected", rep.connected)
    return report


def _task_spectrum(g, D, seed) -> TaskReport:
    sd = eigendecompose(g)
    lam = sd.eigenvalues
    V = sd.eigenvectors
    residual = float(np.max(_eigen_residuals(sd, lam, V)))
    gram = V.T @ (g.m[:, None] * V)
    ortho = float(np.abs(gram - np.eye(sd.n)).max())
    report = TaskReport(
        "spectrum",
        {
            "eigenvalue_min": float(lam[0]),
            "eigenvalue_max": float(lam[-1]),
            "max_residual": residual,
            "max_orthonormality_error": ortho,
        },
        tables={"eigenvalues": (["index", "eigenvalue"], [[i, float(v)] for i, v in enumerate(lam)])},
    )
    report.check("eigen_residual", residual <= 1e-10, f"{residual:.3e} <= 1e-10")
    report.check("orthonormality", ortho <= 1e-10, f"{ortho:.3e}")
    return report


def _task_up_sweep(g, D, seed) -> TaskReport:
    sd = eigendecompose(g)
    rows = obs.up_sweep(g, sd, D)
    table = []
    ok_paper = True
    ok_remark = True
    for r in rows:
        table.append(
            [
                r.sup_I,
                r.sharp_constant,
                r.paper_bound if r.paper_bound is not None else math.nan,
                r.remark_bound if r.remark_bound is not None else math.nan,
                r.applicable,
                r.remark_applicable,
            ]
        )
        if r.applicable and math.isfinite(r.sharp_constant):
            ok_paper = ok_paper and r.sharp_constant <= r.paper_bound * (1 + 1e-9)
        if r.remark_applicable and math.isfinite(r.sharp_constant):
            ok_remark = ok_remark and r.sharp_constant <= r.remark_bound * (1 + 1e-9)
    dset = set(D)
    omega = [v for v in g.vertex_ids if v not in dset]
    report = TaskReport(
        "up-sweep",
        {
            "D": list(D),
            "threshold": rows[0].threshold,
            "inradius_length": rows[0].inradius,
            "ball_volume_length": rows[0].ball_volume,
            "inradius_comb": inradius(g, MetricKind.COMBINATORIAL, omega),
            "covering_radius_comb": covering_radius(g, MetricKind.COMBINATORIAL, D),
            "grid_size": len(rows),
        },
        tables={
            "grid": (
                ["sup_I", "sharp", "paper_bound", "remark_bound", "applicable", "remark_applicable"],
                table,
            )
        },
    )
    report.check("sharp_le_paper_bound", ok_paper)
    report.check("sharp_le_remark_bound", ok_remark)
    return report


def _task_weak_obs(g, D, seed, *, T, delta, r, samples) -> TaskReport:
    sd = eigendecompose(g)
    const = obs.weak_obs_constants(g, sd, D, T, delta, r)
    ver = obs.verify_weak_obs(sd, D, const, samples=samples, seed=seed)
    tol = 1e-9 * (const.K + const.alpha + 1.0)
    dset = set(D)
    omega = [v for v in g.vertex_ids if v not in dset]
    comb_inr = inradius(g, MetricKind.COMBINATORIAL, omega) if omega else 0.0
    report = TaskReport(
        "weak-obs",
        {
            "D": list(D),
            "T": T,
            "delta": delta,
            "r": r,
            "lambda": const.lam,
            "kappa": const.kappa,
            "K": const.K,
            "alpha": const.alpha,
            "inradius_length": const.inradius,
            "ball_volume_length": const.ball_volume,
            "inradius_comb": comb_inr,
            "ball_volume_comb": max_ball_volume(g, MetricKind.COMBINATORIAL, comb_inr),
            "covering_radius_comb": covering_radius(g, MetricKind.COMBINATORIAL, D),
            "covering_radius_length": covering_radius(g, MetricKind.LENGTH, D),
            "min_slack": ver.min_slack,
            "worst_input": ver.worst_label,
            "n_inputs": ver.n_inputs,
            "samples": samples,
        },
    )
    report.check(
        "min_slack", ver.min_slack >= -tol, f"{ver.min_slack:.6e} >= {-tol:.6e}"
    )
    return report


def _task_control(g, D, seed, *, T, delta, r, f0, alpha_target) -> TaskReport:
    sd = eigendecompose(g)
    r_ctl = _conjugate(r)
    f0 = _resolve_f0(sd, f0, seed)
    const = obs.weak_obs_constants(g, sd, D, T, delta, r)
    from_duality = alpha_target is None
    if from_duality:
        alpha_target = const.alpha

    signal, res = synth_control(sd, D, T, f0, alpha_target, cost_exponents=(r_ctl,))
    sim = verify_control(sd, D, f0, signal, T)
    # on the size of the terms that make f(T), which may cancel to near 0
    free = semigroup_apply(sd, T, f0)
    ref = max(sd.norm(free) + sd.norm(res.final_state - free), 1e-30)
    resim_err = sd.norm(res.final_state - sim.final_state) / ref

    d_idx = g.subset_indices(D)
    times = np.linspace(0.0, T, _EXPORT_GRID_POINTS)
    table = np.column_stack([times, signal.values_at(sd, times)])
    report = TaskReport(
        "control",
        {
            "D": list(D),
            "T": T,
            "delta": delta,
            "r_observability": r,
            "r_control": r_ctl,
            "alpha_target": alpha_target,
            "achieved_alpha": res.achieved_alpha,
            "nu": res.nu,
            "energy": res.energy,
            "cost_r_control": res.costs[r_ctl],
            "duality_K": const.K if from_duality else math.nan,
            "resimulation_rel_error": resim_err,
        },
        tables={
            "signal": (
                ["t"] + [f"u_{g.vertex_ids[i]}" for i in d_idx],
                table,
            )
        },
    )
    report.check(
        "achieved_alpha",
        res.achieved_alpha <= alpha_target * (1 + 1e-9) + 1e-15,
        f"{res.achieved_alpha:.12g} <= {alpha_target:.12g}",
    )
    if from_duality:
        report.check(
            "cost_le_duality_K",
            res.costs[r_ctl] <= const.K * sd.norm(f0) * (1 + 1e-6),
            f"{res.costs[r_ctl]:.6g} <= {const.K:.6g}",
        )
    report.check("duhamel_resimulation", resim_err <= 1e-8, f"{resim_err:.3e}")
    return report


def _task_non_null(g, D, seed, *, T, n_random) -> TaskReport:
    if n_random == 0:  # the mode-invariance check would compare no trial
        raise ValidationError("'n_random' must be at least 1, got 0")
    sd = eigendecompose(g)
    obstructions = hautus_obstruction(sd, D)
    # one Gramian for the constant and the synthesis; a T <= 0 is refused
    # by exact_obs_constant, in its own words, before any Gramian is built
    gram = gramian(sd, D, T) if T > 0 else None
    c_exact = obs.exact_obs_constant(sd, D, T, gram=gram)
    report = TaskReport(
        "non-null",
        {
            "D": list(D),
            "T": T,
            "obstruction_eigenvalues": [lam for lam, _ in obstructions],
            "obstruction_dimensions": [int(b.shape[1]) for _, b in obstructions],
            "exact_obs_constant": c_exact,
            "n_random": n_random,
        },
    )
    report.check("obstruction_found", bool(obstructions))
    report.check("exact_obs_infinite", math.isinf(c_exact), f"{c_exact}")
    if not obstructions:
        return report

    lam0, basis = obstructions[0]
    phi = basis[:, 0]
    resid_eig = float(_eigen_residuals(sd, lam0, phi[:, None])[0])
    report.summary["obstruction_eigen_residual"] = resid_eig
    report.check("obstruction_residual", resid_eig <= 1e-10, f"{resid_eig:.3e}")

    # Each trial draws its f0 and then its knot values: one draw per chunk of
    # trials takes them in that order.  A chunk's arrays hold about
    # _BLOCK_ELEMENTS entries, so the trial count does not bound the memory.
    rng = np.random.default_rng(seed)
    knots = np.linspace(0.0, T, 9)
    width = sd.n + len(knots) * len(D)
    chunk = max(1, _BLOCK_ELEMENTS // (len(knots) * width))
    resid = []
    for lo in range(0, n_random, chunk):
        draws = rng.standard_normal((min(chunk, n_random - lo), width))
        f0s = draws[:, : sd.n] / np.sqrt(np.sum(draws[:, : sd.n] ** 2 * g.m, axis=1))[:, None]
        values = draws[:, sd.n :].reshape(len(draws), len(knots), len(D))
        drift, scale = mode_invariance_trials(sd, D, phi, lam0, f0s, knots, values, T)
        resid += np.divide(drift, scale, out=drift.copy(), where=scale > 0.0).tolist()
    rows = [[trial, r] for trial, r in enumerate(resid)]
    worst = float(np.max(resid, initial=0.0))  # a nan residual fails
    report.summary["max_mode_invariance_residual"] = worst
    report.tables["mode_invariance"] = (["trial", "residual"], rows)
    report.check("mode_invariance", worst <= 1e-9, f"{worst:.3e} <= 1e-9")

    f0 = rng.standard_normal(sd.n)
    f0 /= sd.norm(f0)
    floor = math.exp(-lam0 * T) * abs(sd.inner(f0, phi))
    target = 0.5 * floor
    try:
        synth_control(sd, D, T, f0, target, gram=gram)
        unreachable = False
    except TargetUnreachable:
        unreachable = True
    report.summary["unreachable_alpha_target"] = target
    report.check("below_floor_unreachable", unreachable)
    return report


def _task_necessity(g, D, seed, *, x, t_grid, n_max) -> TaskReport:
    sd = eigendecompose(g)
    if not x:
        raise ValidationError("necessity task needs a nonempty 'x' list")
    far = sto.far_vertex_sequence(g, D, n_max)
    rows = []
    all_pass = True
    worst_lower = math.inf
    worst_upper = math.inf
    for vertex in x:
        rep = sto.necessity_bounds_check(sd, g, D, vertex, t_grid)
        all_pass = all_pass and rep.passed
        for row in rep.rows:
            worst_lower = min(worst_lower, row.lower_margin)
            worst_upper = min(worst_upper, row.upper_margin)
            rows.append([vertex, rep.n_comb, *astuple(row)])
    report = TaskReport(
        "necessity",
        {
            "D": list(D),
            "x": x,
            "t_grid": t_grid,
            "max_distance": far.max_distance,
            "far_sequence_stopped_at": far.stopped_at,
            "worst_lower_margin": worst_lower,
            "worst_upper_margin": worst_upper,
        },
        tables={
            "bounds": (["x", "n_comb"] + [f.name for f in fields(sto.NecessityRow)], rows)
        },
    )
    report.check("bounds_hold", all_pass, "margins >= -1e-12")
    return report


def _task_stabilize(g, D, seed, *, T, alpha, N, f0) -> TaskReport:
    sd = eigendecompose(g)
    f0 = _resolve_f0(sd, f0, seed)
    rep = stabilize(sd, D, T, alpha, N, f0)
    norm0 = rep.period_norms[0]
    rows = []
    envelope_ok = True
    for k, nrm in enumerate(rep.period_norms):
        bound = alpha**k * norm0 + 1e-8
        envelope_ok = envelope_ok and nrm <= bound
        rows.append([k, nrm, alpha**k * norm0])
    report = TaskReport(
        "stabilize",
        {
            "D": list(D),
            "T": T,
            "alpha": alpha,
            "periods": N,
            "omega": rep.omega,
            "M": rep.M,
            "total_costs": {str(k): v for k, v in rep.total_costs.items()},
        },
        tables={"norms": (["period", "norm", "envelope"], rows)},
    )
    report.check("norm_envelope", envelope_ok)
    report.check(
        "omega_fitted",
        abs(rep.omega - math.log(alpha) / T) <= 1e-6,
        f"{rep.omega} vs {math.log(alpha) / T}",
    )
    return report


# Expected walk jumps a `stochastic` task may take, where each Feynman-Kac
# sample of each repeat counts one step more for its first draw.  On cycle-8
# with b = 1000 (two x86-64 cores) the lock-step samplers move about 4.9e7
# (fk_estimate) and 4.3e6 (sample_ctmc_paths) jumps per second.
_JUMP_BUDGET = 2e7
# Budget jumps per lock-step step, however few walks it moves: one walk on
# cycle-4 with b = 1e8 (two AMD EPYC cores) took 7-12 us per step in
# fk_estimate (about 400 of its wide-batch jumps) and 95-105 us in
# sample_ctmc_paths (about 420 of its jumps).  Both constants were set when
# a wide batch moved half as many jumps per second and a step cost what it
# costs now; they stay, so a run at the budget ends sooner if wide and as
# soon as before if step-bound, and every input admitted before still is.
_STEP_JUMPS = 300
# Expected rows of the exported `paths` table.  A row costs far more than a
# jump: on the same machine 1e6 rows took 3.4 s and 280 MB of peak RSS.
_ROW_BUDGET = 1e6
# First-jump paths sampled at once: about 350 bytes each while they are alive.
_PATH_CHUNK = 100_000
# Feynman-Kac samples of one repeat, all alive at once: about 80 bytes each
# (on cycle-8, 2e6 samples raised the peak RSS by 140-160 MB).
_SAMPLE_BUDGET = 2e6
# ln(2 / delta) at delta = P(|N(0, 1)| > 4), the 4-stderr rule's failure rate
_HOEFFDING_LOG = math.log(2.0 / math.erfc(4.0 / math.sqrt(2.0)))


def _task_stochastic(
    g, D, seed, *, x, t, n_samples, repeats, f, first_jump_samples, sample_paths
) -> TaskReport:
    if x is None:
        x = g.vertex_ids[0]
    x_idx = g.index_of(x)
    deg = g.degrees()
    deg_max, deg_x = float(deg.max()), float(deg[x_idx])
    if not n_samples <= _SAMPLE_BUDGET:
        raise ValidationError(
            f"the estimate would hold {n_samples} samples at once, "
            f"over the limit of {_SAMPLE_BUDGET:.0e}"
        )
    if deg_max == math.inf:  # the budget below would read 0 * inf jumps as nan
        raise ValidationError("the largest jump rate Deg_max is beyond the float range")
    # every walk runs to t, and each estimate's sample draws once even when
    # it never jumps; a first-jump path stops at its first jump.  A repeat and
    # a path batch each take about one lock-step step per draw of a walk.
    try:
        walk = 1.0 + deg_max * t  # a walk's draws: its start and expected jumps
        jumps = (
            n_samples * repeats * walk
            + sample_paths * deg_max * t
            + first_jump_samples
            + _STEP_JUMPS * (repeats + (sample_paths > 0)) * walk
        )
        rows = sample_paths * walk  # each exported path's start and jumps
    except OverflowError:  # a count beyond the float range
        jumps = rows = math.inf
    if not jumps <= _JUMP_BUDGET:
        raise ValidationError(
            f"the walks would take about {jumps:.3g} jumps, over the budget of {_JUMP_BUDGET:.0e}"
        )
    if not rows <= _ROW_BUDGET:
        raise ValidationError(
            f"the paths table would have about {rows:.3g} rows, over the limit of {_ROW_BUDGET:.0e}"
        )
    sd = eigendecompose(g)
    if f is None:
        f = np.zeros(g.n)
        f[x_idx] = 1.0
    else:
        if len(f) != g.n:
            raise ValidationError("f length does not match the graph")
        f = np.asarray(f)
    # S_t f = f + V (expm1(-lam t) c) keeps f(x) where every e^{-lam t} rounds to 1
    drift = np.expm1(-sd.eigenvalues * t) * sd.coefficients(f)
    exact = float(f[x_idx] + sd.eigenvectors[x_idx] @ drift)
    # an estimate with no observed variance at f(x) may have missed every
    # jump; those move the exact value by at most P(jump by t) (max f - min f),
    # and its rounding by a few ulps of max |f|.  These bounds are formed on
    # f scaled by 2**-e, as ``fk_estimate`` sums it, so a spread of f beyond
    # the float range stays finite.
    e = math.frexp(float(np.abs(f).max()))[1]
    scaled = np.ldexp(f, -e)
    spread = float(scaled.max() - scaled.min())
    missed = -math.expm1(-deg_x * t) * spread
    missed += 4.0 * np.finfo(float).eps * float(np.abs(scaled).max())
    rows = []
    hits = 0
    for rep_i in range(repeats):
        est = sto.fk_estimate(g, f, t, x, n_samples, seed + rep_i)
        gap = abs(math.ldexp(est.mean, -e) - math.ldexp(exact, -e))
        if est.stderr == 0.0 and est.mean == f[x_idx]:
            ok = gap <= missed
        elif est.stderr == 0.0:  # one other value: Hoeffding's bound holds for every n
            ok = gap <= spread * math.sqrt(_HOEFFDING_LOG / (2.0 * n_samples))
        else:
            ok = abs(est.mean - exact) <= 4.0 * est.stderr
        hits += ok
        rows.append([rep_i, seed + rep_i, est.mean, est.stderr, exact, ok])
    allowed_misses = 1 if repeats >= 100 else 0
    report = TaskReport(
        "stochastic",
        {
            "x": x,
            "t": t,
            "n_samples": n_samples,
            "repeats": repeats,
            "exact_value": exact,
            "within_4_stderr": hits,
        },
        tables={
            "estimates": (
                ["repeat", "seed", "mean", "stderr", "exact", "within_4_stderr"],
                rows,
            )
        },
    )
    report.check(
        "fk_within_4_stderr",
        hits >= repeats - allowed_misses,
        f"{hits}/{repeats}",
    )

    if first_jump_samples > 0:
        horizon = 20.0 / deg_x if deg_x > 0.0 else 0.0  # P(no jump by the horizon) = e^-20
        counts = np.zeros(g.n, dtype=np.int64)
        # a path does not depend on its batch, so chunks of paths bound the memory
        for lo in range(0, first_jump_samples, _PATH_CHUNK):
            hi = min(lo + _PATH_CHUNK, first_jump_samples)
            steps = sto._walk_steps(g, x, horizon, seed, range(lo, hi))
            next(steps)  # step 0: every path at x
            _, _, targets = next(steps, (None, None, np.empty(0, dtype=int)))  # the k = 1 states
            counts += np.bincount(targets, minlength=g.n)
        jumped = int(counts.sum())
        counts = counts.tolist()
        nb = g.neighbors(x_idx)
        total_w = float(g.weights[x_idx, nb].sum())
        law_rows = []
        # neighbours but no sampled jump: there is no law to compare, so the check fails
        law_ok = jumped > 0 or len(nb) == 0
        for j in nb if jumped else ():
            p_true = float(g.weights[x_idx, j]) / total_w
            p_hat = counts[j] / jumped
            se = math.sqrt(p_true * (1 - p_true) / jumped)
            ok = abs(p_hat - p_true) <= 4.0 * se + 1e-12
            law_ok = law_ok and ok
            law_rows.append([g.vertex_ids[j], p_true, p_hat, se, ok])
        report.tables["first_jump_law"] = (
            ["target", "p_true", "p_hat", "stderr", "within_4_stderr"],
            law_rows,
        )
        report.summary["first_jump_samples"] = first_jump_samples
        report.check("first_jump_law", law_ok)

    if sample_paths > 0:
        batch = sto.sample_ctmc_paths(g, x, t, seed, range(sample_paths))
        names = [g.vertex_ids[y] for y in batch.states.tolist()]
        entries = zip(batch.path.tolist(), batch.step.tolist(), batch.times.tolist(), names)
        report.tables["paths"] = (["path_index", "k", "J_k", "Y_k"], [list(e) for e in entries])
    return report


# Tasks that run without a subset D; every other task needs one.
_SUBSET_FREE = ("validate", "spectrum", "stochastic")
_T, _R, _F0 = (_number, 1.0), (_parse_r, 2.0), (_object, None)
# Each task's runner and the key table of its 'params'; the runner takes the
# parsed values as keyword arguments.
_TASKS = {
    "validate": (_task_validate, {}),
    "spectrum": (_task_spectrum, {}),
    "up-sweep": (_task_up_sweep, {}),
    "weak-obs": (_task_weak_obs, {
        "T": _T, "delta": (_number, 0.0), "r": _R, "samples": (_integer, 1000),
    }),
    "control": (_task_control, {
        "T": _T, "delta": (_number, 0.5), "r": _R, "f0": _F0, "alpha_target": (_number, None),
    }),
    "non-null": (_task_non_null, {"T": _T, "n_random": (_integer, 50)}),
    "necessity": (_task_necessity, {
        "x": (_names, ()), "t_grid": (_numbers, (0.1, 1.0, 5.0, 10.0)), "n_max": (_integer, 10),
    }),
    "stabilize": (_task_stabilize, {
        "T": _T, "alpha": (_number, 0.5), "N": (_integer, 10), "f0": _F0,
    }),
    "stochastic": (_task_stochastic, {
        "x": (_text, None), "t": (_number, 1.0), "n_samples": (_integer, 20000),
        "repeats": (_integer, 1), "f": (_numbers, None),
        "first_jump_samples": (_integer, 0), "sample_paths": (_integer, 0),
    }),
}


@dataclass(frozen=True)
class ScenarioOutcome:
    exit_code: int
    report: TaskReport
    files: list[Path]


def run_scenario(
    scenario: str | Path | Scenario,
    out_dir: str | Path,
    *,
    seed_override: int | None = None,
    verbose: bool = False,
) -> ScenarioOutcome:
    """Execute one scenario and write its reports; exit code 0 iff every
    asserted inequality held."""
    if not isinstance(scenario, Scenario):
        scenario = load_scenario(scenario)
    seed = scenario.seed if seed_override is None else _integer(seed_override, "seed")
    runner, keys = _TASKS[scenario.task]
    params = _fields(scenario.params, "params", keys)
    family = build_family(str(scenario.graph["family"]), scenario.graph)
    g = family.graph
    D = None if scenario.subset is None else _resolve_subset(g, scenario.subset)
    if D is None and scenario.task not in _SUBSET_FREE:
        raise ValidationError("this task needs a 'subset' entry")
    report = runner(g, D, seed, **params)
    graph = {"n": g.n, "total_mass": float(g.m.sum())}
    if family.covering is not None:
        graph["cover_of"] = family.covering.base.n
    report.summary.update(graph=graph, seed=seed)
    files = emit_report(report, out_dir)
    if verbose:
        for a in report.assertions:
            print(f"[{'PASS' if a.passed else 'FAIL'}] {report.task}:{a.name} {a.detail}")
    return ScenarioOutcome(0 if report.passed else 1, report, files)
