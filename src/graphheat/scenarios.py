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
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import observability as obs
from . import stochastic as sto
from .control import (
    ControlSignal,
    hautus_obstruction,
    mode_invariance_check,
    stabilize,
    synth_control,
    verify_control,
)
from .covering import CoveringMap
from .errors import ParseError, TargetUnreachable, ValidationError
from .families import build_family, parity_subset
from .graph import (
    MetricKind,
    WeightedGraph,
    covering_radius,
    inradius,
    load_subset_json,
    max_ball_volume,
    read_json,
    validate_assumptions,
)
from .spectral import apply_laplacian, eigendecompose

# ---------------------------------------------------------------------------
# deterministic serialization


def _float_repr(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(float(x), ".17g")


def _json_fragment(obj, indent: int) -> str:
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _float_repr(float(obj))
    if isinstance(obj, Fraction):
        return json.dumps(str(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(pad + "  " + _json_fragment(v, indent + 2) for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            pad + "  " + json.dumps(str(k)) + ": " + _json_fragment(obj[k], indent + 2)
            for k in sorted(obj, key=str)
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_deterministic(obj) -> str:
    """JSON with sorted keys, 17-significant-digit floats, and string-coded
    non-finite values, so equal results serialize to equal bytes."""
    return _json_fragment(obj, 0) + "\n"


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        x = float(value)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return format(x, ".17g")
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
    tables: dict[str, tuple[list[str], list[list]]] = field(default_factory=dict)
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


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ParseError("scenario must be a JSON object")
    if "graph" not in data or "task" not in data:
        raise ParseError("scenario needs 'graph' and 'task' fields")
    task = str(data["task"])
    if task not in _TASKS:
        raise ValidationError(f"unknown task {task!r}; expected one of {tuple(_TASKS)}")
    if not isinstance(data["graph"], dict) or "family" not in data["graph"]:
        raise ParseError("scenario 'graph' needs a 'family' field")
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ParseError("scenario 'params' must be an object")
    subset = data.get("subset")
    if subset is not None and not isinstance(subset, dict):
        raise ParseError("scenario 'subset' must be an object")
    seed = _number(data.get("seed", 0), "seed", integer=True)
    return Scenario(
        graph=data["graph"],
        task=task,
        subset=subset,
        params=params,
        seed=seed,
    )


def load_scenario(path: str | Path) -> Scenario:
    return scenario_from_dict(read_json(path))


def _resolve_subset(
    g: WeightedGraph, spec: dict | None
) -> tuple[str, ...] | None:
    if spec is None:
        return None
    if "ids" in spec:
        return tuple(str(v) for v in spec["ids"])
    if "parity" in spec:
        return parity_subset(g, str(spec["parity"]))
    if "file" in spec:
        return load_subset_json(spec["file"])
    raise ValidationError("subset spec needs 'ids', 'parity', or 'file'")


def _require_subset(g: WeightedGraph, spec: dict | None) -> tuple[str, ...]:
    subset = _resolve_subset(g, spec)
    if subset is None:
        raise ValidationError("this task needs a 'subset' entry")
    return subset


def _number(value, name: str, *, integer: bool = False):
    """A numeric scenario value: any JSON number, or a nonnegative integer
    when ``integer`` is set; anything else raises ``ParseError``."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        kind = "a nonnegative integer" if integer else "a number"
        raise ParseError(f"{name!r} must be {kind}, got {value!r}")
    if integer and value < 0:
        raise ParseError(f"{name!r} must be nonnegative, got {value}")
    return value if integer else float(value)


def _parse_r(value) -> float:
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity"):
            return math.inf
        raise ValidationError(f"bad norm index {value!r}")
    r = _number(value, "r")
    if not r >= 1.0:
        raise ValidationError(f"norm index must lie in [1, inf], got {r}")
    return r


def _conjugate(r: float) -> float:
    if math.isinf(r):
        return 1.0
    if r == 1.0:
        return math.inf
    return r / (r - 1.0)


def _resolve_f0(sd, spec, default_seed: int) -> np.ndarray:
    n = sd.n
    if spec is None:
        spec = {"random": default_seed}
    if not isinstance(spec, dict):
        raise ParseError(f"f0 spec must be an object, got {spec!r}")
    if "random" in spec:
        rng = np.random.default_rng(_number(spec["random"], "f0.random", integer=True))
        f0 = rng.standard_normal(n)
        return f0 / sd.norm(f0)
    if "delta" in spec:
        i = sd.graph.index_of(str(spec["delta"]))
        f0 = np.zeros(n)
        f0[i] = 1.0 / math.sqrt(sd.graph.m[i])
        return f0
    if "values" in spec:
        f0 = np.asarray([_number(v, "f0.values") for v in spec["values"]])
        if f0.shape[0] != n:
            raise ValidationError("f0 'values' length does not match the graph")
        return f0
    raise ValidationError("f0 spec needs 'random', 'delta', or 'values'")


# ---------------------------------------------------------------------------
# tasks


def _graph_summary(g: WeightedGraph, cover: CoveringMap | None) -> dict:
    info = {"n": g.n, "total_mass": float(g.m.sum())}
    if cover is not None:
        info["cover_of"] = cover.base.n
    return info


def _task_validate(g, cover, subset, params, seed) -> TaskReport:
    rep = validate_assumptions(g)
    report = TaskReport(
        "validate",
        {
            "graph": _graph_summary(g, cover),
            "connected": rep.connected,
            "d_max": rep.d_max,
            "sup_m": rep.sup_m,
            "inf_m": rep.inf_m,
            "inf_positive_b": rep.inf_positive_b,
        },
    )
    report.check("connected", rep.connected)
    return report


def _task_spectrum(g, cover, subset, params, seed) -> TaskReport:
    sd = eigendecompose(g)
    lam = sd.eigenvalues
    tol = 1e-10 * (float(lam[-1]) + 1.0)
    residual = 0.0
    for i in range(sd.n):
        r = apply_laplacian(g, sd.eigenvectors[:, i]) - lam[i] * sd.eigenvectors[:, i]
        residual = max(residual, sd.norm(r))
    gram = sd.eigenvectors.T @ (g.m[:, None] * sd.eigenvectors)
    ortho = float(np.abs(gram - np.eye(sd.n)).max())
    report = TaskReport(
        "spectrum",
        {
            "graph": _graph_summary(g, cover),
            "eigenvalue_min": float(lam[0]),
            "eigenvalue_max": float(lam[-1]),
            "max_residual": residual,
            "max_orthonormality_error": ortho,
        },
        tables={"eigenvalues": (["index", "eigenvalue"], [[i, float(v)] for i, v in enumerate(lam)])},
    )
    report.check("eigen_residual", residual <= tol, f"{residual:.3e} <= {tol:.3e}")
    report.check("orthonormality", ortho <= 1e-10, f"{ortho:.3e}")
    return report


def _task_up_sweep(g, cover, subset, params, seed) -> TaskReport:
    D = _require_subset(g, subset)
    sd = eigendecompose(g)
    rows = obs.up_sweep(g, sd, D)
    table = []
    ok_paper = True
    ok_remark = True
    for r in rows:
        table.append(
            [
                r.interval.sup,
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
            "graph": _graph_summary(g, cover),
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


def _task_weak_obs(g, cover, subset, params, seed) -> TaskReport:
    D = _require_subset(g, subset)
    sd = eigendecompose(g)
    T = _number(params.get("T", 1.0), "T")
    delta = _number(params.get("delta", 0.0), "delta")
    r = _parse_r(params.get("r", 2))
    samples = _number(params.get("samples", 1000), "samples", integer=True)
    const = obs.weak_obs_constants(g, sd, D, T, delta, r)
    ver = obs.verify_weak_obs(sd, D, const, samples=samples, seed=seed)
    tol = 1e-9 * (const.K + const.alpha + 1.0)
    dset = set(D)
    omega = [v for v in g.vertex_ids if v not in dset]
    comb_inr = inradius(g, MetricKind.COMBINATORIAL, omega) if omega else 0.0
    report = TaskReport(
        "weak-obs",
        {
            "graph": _graph_summary(g, cover),
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
            "seed": seed,
        },
    )
    report.check(
        "min_slack", ver.min_slack >= -tol, f"{ver.min_slack:.6e} >= {-tol:.6e}"
    )
    return report


def _task_control(g, cover, subset, params, seed) -> TaskReport:
    D = _require_subset(g, subset)
    sd = eigendecompose(g)
    T = _number(params.get("T", 1.0), "T")
    delta = _number(params.get("delta", 0.5), "delta")
    r_obs = _parse_r(params.get("r", 2))
    r_ctl = _conjugate(r_obs)
    f0 = _resolve_f0(sd, params.get("f0"), seed)
    const = obs.weak_obs_constants(g, sd, D, T, delta, r_obs)
    alpha_target = _number(params.get("alpha_target", const.alpha), "alpha_target")
    from_duality = "alpha_target" not in params

    signal, res = synth_control(
        sd, D, T, f0, alpha_target,
        duality_K=const.K if from_duality else None,
        cost_exponents=(1.0, 2.0, math.inf, r_ctl),
    )
    sim = verify_control(sd, D, f0, signal, T)
    ref = max(sd.norm(res.final_state), 1e-30)
    resim_err = sd.norm(res.final_state - sim.final_state) / ref

    d_idx = g.subset_indices(D)
    table = [
        [float(t)] + [float(v) for v in signal.values[k]]
        for k, t in enumerate(signal.times)
    ]
    report = TaskReport(
        "control",
        {
            "graph": _graph_summary(g, cover),
            "D": list(D),
            "T": T,
            "delta": delta,
            "r_observability": r_obs,
            "r_control": r_ctl,
            "alpha_target": alpha_target,
            "achieved_alpha": res.achieved_alpha,
            "nu": res.nu,
            "energy": res.energy,
            "cost_r_control": res.costs[r_ctl],
            "duality_K": const.K if from_duality else math.nan,
            "resimulation_rel_error": resim_err,
            "seed": seed,
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


def _task_non_null(g, cover, subset, params, seed) -> TaskReport:
    D = _require_subset(g, subset)
    sd = eigendecompose(g)
    T = _number(params.get("T", 1.0), "T")
    n_random = _number(params.get("n_random", 50), "n_random", integer=True)
    obstructions = hautus_obstruction(sd, D)
    c_exact = obs.exact_obs_constant(sd, D, T)
    report = TaskReport(
        "non-null",
        {
            "graph": _graph_summary(g, cover),
            "D": list(D),
            "T": T,
            "obstruction_eigenvalues": [lam for lam, _ in obstructions],
            "obstruction_dimensions": [int(b.shape[1]) for _, b in obstructions],
            "exact_obs_constant": c_exact,
            "n_random": n_random,
            "seed": seed,
        },
    )
    report.check("obstruction_found", bool(obstructions))
    report.check("exact_obs_infinite", math.isinf(c_exact), f"{c_exact}")
    if not obstructions:
        return report

    lam0, basis = obstructions[0]
    phi = basis[:, 0]
    resid_eig = sd.norm(apply_laplacian(g, phi) - lam0 * phi)
    report.summary["obstruction_eigen_residual"] = resid_eig
    report.check("obstruction_residual", resid_eig <= 1e-10, f"{resid_eig:.3e}")

    rng = np.random.default_rng(seed)
    d_idx = g.subset_indices(D)
    rows = []
    worst = 0.0
    knots = np.linspace(0.0, T, 9)
    for trial in range(n_random):
        f0 = rng.standard_normal(sd.n)
        f0 /= sd.norm(f0)
        values = rng.standard_normal((len(knots), len(d_idx)))
        u = ControlSignal(tuple(D), T, knots, values)
        resid = mode_invariance_check(sd, D, phi, lam0, f0, u, T)
        rows.append([trial, resid])
        worst = max(worst, resid)
    report.summary["max_mode_invariance_residual"] = worst
    report.tables["mode_invariance"] = (["trial", "residual"], rows)
    report.check("mode_invariance", worst <= 1e-9, f"{worst:.3e} <= 1e-9")

    f0 = rng.standard_normal(sd.n)
    f0 /= sd.norm(f0)
    floor = math.exp(-lam0 * T) * abs(sd.inner(f0, phi))
    target = 0.5 * floor
    try:
        synth_control(sd, D, T, f0, target)
        unreachable = False
    except TargetUnreachable:
        unreachable = True
    report.summary["unreachable_alpha_target"] = target
    report.check("below_floor_unreachable", unreachable)
    return report


def _task_necessity(g, cover, subset, params, seed) -> TaskReport:
    D = _require_subset(g, subset)
    sd = eigendecompose(g)
    xs = [str(v) for v in params.get("x", [])]
    if not xs:
        raise ValidationError("necessity task needs a nonempty 'x' list")
    t_grid = [_number(t, "t_grid") for t in params.get("t_grid", [0.1, 1.0, 5.0, 10.0])]
    n_max = _number(params.get("n_max", 10), "n_max", integer=True)
    far = sto.far_vertex_sequence(g, D, n_max)
    rows = []
    all_pass = True
    worst_lower = math.inf
    worst_upper = math.inf
    for x in xs:
        rep = sto.necessity_bounds_check(sd, g, D, x, t_grid)
        all_pass = all_pass and rep.passed
        for row in rep.rows:
            worst_lower = min(worst_lower, row.lower_margin)
            worst_upper = min(worst_upper, row.upper_margin)
            rows.append(
                [
                    x,
                    rep.n_comb,
                    row.t,
                    row.full_norm,
                    row.lower_bound,
                    row.lower_margin,
                    row.restricted_sq,
                    row.erlang_bound,
                    row.upper_margin,
                ]
            )
    report = TaskReport(
        "necessity",
        {
            "graph": _graph_summary(g, cover),
            "D": list(D),
            "x": xs,
            "t_grid": t_grid,
            "max_distance": far.max_distance,
            "far_sequence_stopped_at": far.stopped_at,
            "worst_lower_margin": worst_lower,
            "worst_upper_margin": worst_upper,
        },
        tables={
            "bounds": (
                [
                    "x",
                    "n_comb",
                    "t",
                    "full_norm",
                    "lower_bound",
                    "lower_margin",
                    "restricted_sq",
                    "erlang_bound",
                    "upper_margin",
                ],
                rows,
            )
        },
    )
    report.check("bounds_hold", all_pass, "margins >= -1e-12")
    return report


def _task_stabilize(g, cover, subset, params, seed) -> TaskReport:
    D = _require_subset(g, subset)
    sd = eigendecompose(g)
    T = _number(params.get("T", 1.0), "T")
    alpha = _number(params.get("alpha", 0.5), "alpha")
    periods = _number(params.get("N", 10), "N", integer=True)
    f0 = _resolve_f0(sd, params.get("f0"), seed)
    rep = stabilize(sd, D, T, alpha, periods, f0)
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
            "graph": _graph_summary(g, cover),
            "D": list(D),
            "T": T,
            "alpha": alpha,
            "periods": periods,
            "omega": rep.omega,
            "M": rep.M,
            "total_costs": {str(k): v for k, v in rep.total_costs.items()},
            "seed": seed,
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


def _task_stochastic(g, cover, subset, params, seed) -> TaskReport:
    sd = eigendecompose(g)
    x = str(params.get("x", g.vertex_ids[0]))
    t = _number(params.get("t", 1.0), "t")
    n_samples = _number(params.get("n_samples", 20000), "n_samples", integer=True)
    repeats = _number(params.get("repeats", 1), "repeats", integer=True)
    f_spec = params.get("f")
    if f_spec is None:
        f = np.zeros(g.n)
        f[g.index_of(x)] = 1.0
    else:
        f = np.asarray([_number(v, "f") for v in f_spec])
    x_idx = g.index_of(x)
    exact = float(
        (sd.eigenvectors @ (np.exp(-sd.eigenvalues * t) * sd.coefficients(f)))[x_idx].real
    )
    rows = []
    hits = 0
    for rep_i in range(repeats):
        est = sto.fk_estimate(g, f, t, x, n_samples, seed + rep_i)
        ok = abs(est.mean - exact) <= 4.0 * est.stderr
        hits += ok
        rows.append([rep_i, seed + rep_i, est.mean, est.stderr, exact, ok])
    allowed_misses = 1 if repeats >= 100 else 0
    report = TaskReport(
        "stochastic",
        {
            "graph": _graph_summary(g, cover),
            "x": x,
            "t": t,
            "n_samples": n_samples,
            "repeats": repeats,
            "exact_value": exact,
            "within_4_stderr": hits,
            "seed": seed,
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

    jump_samples = _number(params.get("first_jump_samples", 0), "first_jump_samples", integer=True)
    if jump_samples > 0:
        counts: dict[str, int] = {}
        jumped = 0
        horizon = 20.0 / max(float(g.degrees()[x_idx]), 1e-9)
        for i in range(jump_samples):
            path = sto.sample_ctmc_path(g, x, horizon, seed, path_index=i)
            if path.jump_count() >= 1:
                jumped += 1
                counts[path.states[1]] = counts.get(path.states[1], 0) + 1
        nb = g.neighbors(x_idx)
        total_w = float(g.weights[x_idx, nb].sum())
        law_rows = []
        law_ok = True
        for j in nb:
            p_true = float(g.weights[x_idx, j]) / total_w
            p_hat = counts.get(g.vertex_ids[j], 0) / jumped
            se = math.sqrt(p_true * (1 - p_true) / jumped)
            ok = abs(p_hat - p_true) <= 4.0 * se + 1e-12
            law_ok = law_ok and ok
            law_rows.append([g.vertex_ids[j], p_true, p_hat, se, ok])
        report.tables["first_jump_law"] = (
            ["target", "p_true", "p_hat", "stderr", "within_4_stderr"],
            law_rows,
        )
        report.summary["first_jump_samples"] = jump_samples
        report.check("first_jump_law", law_ok)

    n_paths = _number(params.get("sample_paths", 0), "sample_paths", integer=True)
    if n_paths > 0:
        path_table = []
        for i in range(n_paths):
            p = sto.sample_ctmc_path(g, x, t, seed, path_index=i)
            for k, (jt, state) in enumerate(sto.path_rows(p)):
                path_table.append([i, k, jt, state])
        report.tables["paths"] = (["path_index", "k", "J_k", "Y_k"], path_table)
    return report


# Each task's runner and the parameters it reads; any other key is
# rejected, so a misspelt option cannot silently run with its default.
_TASKS = {
    "validate": (_task_validate, ()),
    "spectrum": (_task_spectrum, ()),
    "up-sweep": (_task_up_sweep, ()),
    "weak-obs": (_task_weak_obs, ("T", "delta", "r", "samples")),
    "control": (_task_control, ("T", "delta", "r", "f0", "alpha_target")),
    "non-null": (_task_non_null, ("T", "n_random")),
    "necessity": (_task_necessity, ("x", "t_grid", "n_max")),
    "stabilize": (_task_stabilize, ("T", "alpha", "N", "f0")),
    "stochastic": (
        _task_stochastic,
        ("x", "t", "n_samples", "repeats", "f", "first_jump_samples", "sample_paths"),
    ),
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
    seed = scenario.seed if seed_override is None else int(seed_override)
    if seed < 0:
        raise ParseError(f"seed must be nonnegative, got {seed}")
    runner, accepted = _TASKS[scenario.task]
    unknown = sorted(set(scenario.params) - set(accepted))
    if unknown:
        raise ParseError(f"task {scenario.task!r} takes only {list(accepted)}, not {unknown}")
    family = build_family(str(scenario.graph["family"]), scenario.graph)
    report = runner(
        family.graph, family.covering, scenario.subset, scenario.params, seed
    )
    report.summary.setdefault("seed", seed)
    files = emit_report(report, out_dir)
    if verbose:
        for a in report.assertions:
            print(f"[{'PASS' if a.passed else 'FAIL'}] {report.task}:{a.name} {a.detail}")
    return ScenarioOutcome(0 if report.passed else 1, report, files)
