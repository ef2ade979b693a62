import contextlib
import copy
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graphheat
from graphheat import stochastic as sto
from graphheat.cli import main as cli_main
from graphheat.control import hautus_obstruction, mode_invariance_trials, synth_control
from graphheat.errors import InvalidParams, ParseError
from graphheat.families import build_family, parity_subset
from graphheat.graph import graph_to_json, validate_assumptions
from graphheat.scenarios import (
    Scenario,
    TaskReport,
    dumps_deterministic,
    emit_report,
    load_scenario,
    run_scenario,
    scenario_from_dict,
)
from graphheat.spectral import eigendecompose


def write_scenario(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


# ---------------------------------------------------------------------------
# families


def test_family_cycle_and_path():
    c = build_family("cycle", {"n": 4}).graph
    assert c.n == 4 and validate_assumptions(c).d_max == 2.0
    p = build_family("path", {"n": 101}).graph
    assert p.n == 101 and validate_assumptions(p).connected


def test_family_torus():
    t = build_family("torus", {"p": 3, "q": 4}).graph
    assert t.n == 12
    np.testing.assert_allclose(t.degrees(), 4.0)


def test_family_cyclic_cover():
    res = build_family("cyclic-cover", {"base": {"family": "cycle", "n": 4}, "k": 2})
    assert res.graph.n == 8
    assert res.covering is not None
    assert res.covering.base.n == 4


def test_family_file(tmp_path, c4):
    p = tmp_path / "g.json"
    p.write_text(json.dumps(graph_to_json(c4)))
    g = build_family("file", {"path": str(p)}).graph
    assert g.vertex_ids == c4.vertex_ids


def test_family_invalid_params():
    with pytest.raises(InvalidParams):
        build_family("cycle", {"n": 2})
    with pytest.raises(InvalidParams):
        build_family("torus", {"p": 2, "q": 5})
    with pytest.raises(InvalidParams):
        build_family("nope", {})


def test_family_spec_keys():
    """A spec may repeat its own family name; any key the family does not
    take is refused, in the cover's base spec too."""
    assert build_family("cycle", {"family": "cycle", "n": 4, "m": 2.0}).graph.m.sum() == 8.0
    for name, spec in [
        ("cycle", {"n": 4, "mm": 2.0}),
        ("torus", {"p": 3, "q": 3, "n": 9}),
        ("cyclic-cover", {"base": {"family": "cycle", "n": 4}, "k": 2, "m": 5.0}),
        ("cyclic-cover", {"base": {"family": "cycle", "n": 4, "k": 2}, "k": 2}),
        ("file", {"path": "g.json", "b": 2.0}),
    ]:
        with pytest.raises(ParseError):
            build_family(name, spec)


def test_parity_subsets(c4):
    assert parity_subset(c4, "even") == ("0", "2")
    assert parity_subset(c4, "odd") == ("1", "3")
    torus = build_family("torus", {"p": 3, "q": 3}).graph
    evens = parity_subset(torus, "even")
    assert "0,0" in evens and "0,1" not in evens


# ---------------------------------------------------------------------------
# scenario parsing


def test_scenario_parse_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(ParseError):
        load_scenario(bad)
    with pytest.raises(ParseError):
        scenario_from_dict({"task": "validate"})
    with pytest.raises(Exception):
        scenario_from_dict({"graph": {"family": "cycle", "n": 4}, "task": "nope"})


def test_deterministic_json_formats_floats():
    text = dumps_deterministic({"a": 1 / 6, "b": math.inf, "c": [1.0, 2]})
    assert "0.16666666666666666" in text
    assert '"inf"' in text
    parsed_lines = [ln for ln in text.splitlines() if '"a"' in ln]
    assert parsed_lines


def test_csv_cells_pin_non_finite_and_extreme_floats(tmp_path):
    values = [math.nan, math.inf, -math.inf, -0.0, 5e-324]
    report = TaskReport(
        "t", {}, tables={"x": (["py", "np"], [[v, np.float64(v)] for v in values])}
    )
    emit_report(report, tmp_path)
    assert (tmp_path / "t_x.csv").read_bytes() == (
        b"py,np\nnan,nan\ninf,inf\n-inf,-inf\n-0,-0\n"
        b"4.9406564584124654e-324,4.9406564584124654e-324\n"
    )


def test_list_table_pins_quoted_cells_mixed_columns_and_ragged_rows(tmp_path):
    """A list table is written row by row through the csv module: ids such
    as the torus's "0,1" and embedded quotes are quoted, bools read
    true/false, ints and floats keep their text, numpy scalars included,
    and a short or long row is written as it stands."""
    rows = [
        ["0,1", 3, 0.25, True],
        ["1,0", np.int64(-2), np.float64(1 / 3), np.bool_(False)],
        ['say "hi"', 0, -0.0, False],
        ["2,3", 7],
        ("3,3", 1, 1e-310, True, "extra"),
    ]
    report = TaskReport("t", {}, tables={"law": (["target", "n", "p", "ok"], rows)})
    emit_report(report, tmp_path)
    assert (tmp_path / "t_law.csv").read_bytes() == (
        b'target,n,p,ok\n"0,1",3,0.25,true\n"1,0",-2,0.33333333333333331,false\n'
        b'"say ""hi""",0,-0,false\n"2,3",7\n"3,3",1,9.9999999999999694e-311,true,extra\n'
    )


def test_float_array_table_writes_the_bytes_of_its_cells(tmp_path):
    """A float ndarray table is written as '%.17g' % x per cell; that is
    the text of format(x, ".17g"), which every other table's cells use."""
    rng = np.random.default_rng(20)
    special = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.5e-320,
               2.2250738585072009e-308, 1.7976931348623157e308, 1 / 3]
    bits = rng.integers(0, 2**63, 3000, dtype=np.uint64).view(np.float64)  # subnormals to nans
    scaled = rng.normal(size=1000) * 10.0 ** rng.integers(-300, 300, 1000)
    values = np.concatenate([special, bits, scaled])
    assert all("%.17g" % x == format(x, ".17g") for x in values.tolist())
    table = values[:4014].reshape(-1, 3)
    report = TaskReport("t", {}, tables={
        "array": (["a", "b", "c"], table),
        "rows": (["a", "b", "c"], table.tolist()),
    })
    emit_report(report, tmp_path)
    assert (tmp_path / "t_array.csv").read_bytes() == (tmp_path / "t_rows.csv").read_bytes()


# ---------------------------------------------------------------------------
# tasks through run_scenario


def test_weak_obs_scenario_echoes_constants(tmp_path):
    sc = Scenario(
        graph={"family": "cycle", "n": 4},
        task="weak-obs",
        subset={"parity": "even"},
        params={"T": 6.0, "delta": 0.5, "r": 1, "samples": 200},
        seed=3,
    )
    out = run_scenario(sc, tmp_path / "out")
    assert out.exit_code == 0
    data = json.loads((tmp_path / "out" / "weak-obs_summary.json").read_text())
    assert data["lambda"] == pytest.approx(1 / 6)
    assert data["kappa"] == 600.0
    assert data["K"] == 200.0
    assert data["min_slack"] >= -1e-9 * (data["K"] + data["alpha"] + 1)
    # 17-significant-digit float echo round-trips exactly
    raw = (tmp_path / "out" / "weak-obs_summary.json").read_text()
    assert "0.16666666666666666" in raw


@pytest.mark.parametrize(
    "graph, T",
    [
        ({"family": "cycle", "n": 300}, 200.0),
        ({"family": "cycle", "n": 300}, 400.0),
        ({"family": "torus", "p": 16, "q": 16}, 175.5),
    ],
    ids=["cycle-300-T200", "cycle-300-T400", "torus-16x16-T175.5"],
)
def test_cli_weak_obs_holds_at_long_horizons(tmp_path, graph, T):
    """Long horizons with the even vertices observed, r = 1, delta = 0.5 and
    1000 samples: the time-norm engine once refused eigenvector columns
    whose norms had decayed below its tolerance, and these runs exited 2.
    Each holds, to the verifier's tolerance."""
    scenario = write_scenario(tmp_path, "long.json", {
        "graph": graph, "subset": {"parity": "even"}, "task": "weak-obs",
        "params": {"T": T, "delta": 0.5, "r": 1, "samples": 1000},
    })
    assert cli_main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 0
    data = json.loads((tmp_path / "out" / "weak-obs_summary.json").read_text())
    assert data["min_slack"] >= -1e-9 * (data["K"] + data["alpha"] + 1)


def test_non_null_scenario(tmp_path):
    sc = Scenario(
        graph={"family": "cycle", "n": 4},
        task="non-null",
        subset={"parity": "even"},
        params={"T": 1.0, "n_random": 5},
        seed=1,
    )
    out = run_scenario(sc, tmp_path / "out")
    assert out.exit_code == 0
    data = json.loads((tmp_path / "out" / "non-null_summary.json").read_text())
    assert data["obstruction_eigenvalues"][0] == pytest.approx(2.0, abs=1e-10)
    assert data["exact_obs_constant"] == "inf"
    assert data["max_mode_invariance_residual"] <= 1e-9


def test_non_null_builds_one_gramian(tmp_path, monkeypatch):
    """The exact constant and the below-floor synthesis of ``non-null`` read
    one Gramian, built once."""
    import graphheat.control

    built = []
    real = graphheat.control.Gramian

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(graphheat.control, "Gramian", counted)
    sc = Scenario(
        graph={"family": "cycle", "n": 8},
        task="non-null",
        subset={"parity": "even"},
        params={"T": 1.0, "n_random": 2},
        seed=1,
    )
    assert run_scenario(sc, tmp_path / "out").exit_code == 0
    assert len(built) == 1


def test_up_sweep_scenario_grid(tmp_path):
    sc = Scenario(
        graph={"family": "cycle", "n": 4},
        task="up-sweep",
        subset={"ids": ["0", "2"]},
    )
    out = run_scenario(sc, tmp_path / "out")
    assert out.exit_code == 0
    rows = (tmp_path / "out" / "up-sweep_grid.csv").read_text().strip().splitlines()
    # header + grid rows at {0,1,2,3,4}: eigenvalues {0,2,4} plus midpoints
    assert len(rows) == 1 + 5


def test_control_scenario(tmp_path):
    sc = Scenario(
        graph={"family": "cycle", "n": 8},
        task="control",
        subset={"parity": "even"},
        params={"T": 2.0, "delta": 0.5, "r": 2, "alpha_target": 0.2},
        seed=5,
    )
    out = run_scenario(sc, tmp_path / "out")
    assert out.exit_code == 0
    data = json.loads((tmp_path / "out" / "control_summary.json").read_text())
    assert data["achieved_alpha"] <= 0.2 * (1 + 1e-9)
    assert data["resimulation_rel_error"] <= 1e-8
    signal = (tmp_path / "out" / "control_signal.csv").read_text().splitlines()
    assert signal[0] == "t,u_0,u_2,u_4,u_6"
    assert len(signal) == 1 + 512
    # the exported rows are the synthesized closed form on the grid, bit for bit
    sd = eigendecompose(build_family("cycle", {"n": 8}).graph)
    f0 = np.random.default_rng(5).standard_normal(8)
    sig, _ = synth_control(sd, ["0", "2", "4", "6"], 2.0, f0 / sd.norm(f0), 0.2)
    rows = np.array([[float(x) for x in line.split(",")] for line in signal[1:]])
    times = np.linspace(0.0, 2.0, 512)
    np.testing.assert_array_equal(rows[:, 0], times)
    np.testing.assert_array_equal(rows[:, 1:], sig.values_at(sd, times))


def test_necessity_scenario(tmp_path):
    sc = Scenario(
        graph={"family": "path", "n": 30},
        task="necessity",
        subset={"ids": ["0"]},
        params={"x": ["5", "12"], "t_grid": [0.1, 1.0, 5.0]},
    )
    out = run_scenario(sc, tmp_path / "out")
    assert out.exit_code == 0
    data = json.loads((tmp_path / "out" / "necessity_summary.json").read_text())
    assert data["worst_lower_margin"] >= -1e-12
    assert data["worst_upper_margin"] >= -1e-12


def test_stabilize_scenario(tmp_path):
    sc = Scenario(
        graph={"family": "cycle", "n": 4},
        task="stabilize",
        subset={"ids": ["0", "1"]},
        params={"T": 1.0, "alpha": 0.5, "N": 5},
        seed=2,
    )
    out = run_scenario(sc, tmp_path / "out")
    assert out.exit_code == 0
    data = json.loads((tmp_path / "out" / "stabilize_summary.json").read_text())
    assert data["omega"] == pytest.approx(math.log(0.5), abs=1e-9)


def test_stochastic_scenario_with_first_jumps(tmp_path):
    sc = Scenario(
        graph={"family": "cycle", "n": 8},
        task="stochastic",
        params={"x": "0", "t": 1.0, "n_samples": 5000, "first_jump_samples": 4000},
        seed=9,
    )
    out = run_scenario(sc, tmp_path / "out")
    assert out.exit_code == 0
    data = json.loads((tmp_path / "out" / "stochastic_summary.json").read_text())
    assert data["within_4_stderr"] == 1
    assert data["seed"] == 9


def _run_cli(tmp_path, payload):
    """Exit code, stderr and written summary of one CLI run."""
    scenario = write_scenario(tmp_path, "sc.json", payload)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli_main(["run", str(scenario), "--out", str(tmp_path / "out")])
    summary = tmp_path / "out" / f"{payload['task']}_summary.json"
    return code, err.getvalue(), json.loads(summary.read_text()) if summary.exists() else None


def test_cli_first_jump_law_with_huge_holding_times(tmp_path):
    """m = 1e300 makes holding times about 5e299: the first-jump draw has
    no horizon, and the run ends in a verdict, not a ZeroDivisionError.
    No sample jumps by t = 1, so the estimate is f(x) = 1 with stderr 0, and
    the exact value keeps f(x) = 1 instead of rounding it in the eigenbasis."""
    code, err, summary = _run_cli(
        tmp_path,
        {
            "graph": {"family": "cycle", "n": 8, "m": 1e300},
            "task": "stochastic",
            "params": {"x": "0", "n_samples": 100, "first_jump_samples": 5},
        },
    )
    assert code == 0, err
    assert summary["exact_value"] == 1.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("b", [1e-8, 1e-9])
def test_cli_first_jump_law_with_a_subnormal_degree(tmp_path, b):
    """With m = 1e300, b = 1e-8 or 1e-9 gives Deg = 2e-308 or 2e-309, a
    subnormal: a holding time past the float range is an infinite clock,
    which never passes t, with no warning.  The first-jump draw has no
    horizon, so every path jumps; at b = 1e-9 most of their holding times
    overflow."""
    code, err, summary = _run_cli(tmp_path, {
        "graph": {"family": "cycle", "n": 4, "b": b, "m": 1e300},
        "task": "stochastic",
        "params": {"t": 1e-300, "first_jump_samples": 5},
        "seed": 1,
    })
    assert code == 0, err
    assert summary["within_4_stderr"] == 1
    text = (tmp_path / "out" / "stochastic_first_jump_law.csv").read_text()
    rows = list(csv.reader(text.splitlines()))[1:]
    assert sum(round(float(p_hat) * 5) for _, _, p_hat, _, _ in rows) == 5


@pytest.mark.parametrize(
    "graph, params",
    [
        ({"family": "cycle", "n": 8, "b": 1e6}, {}),
        ({"family": "cycle", "n": 8, "m": 1e-300}, {"n_samples": 10}),
        ({"family": "cycle", "n": 4, "b": 1e8}, {"t": 0.09, "n_samples": 1}),
        ({"family": "cycle", "n": 4, "b": 1e8}, {"t": 0.0049, "n_samples": 1, "sample_paths": 1}),
    ],
)
def test_cli_stochastic_over_the_jump_budget_exit_2(tmp_path, graph, params):
    """Jump rates of 2e6 and 2e300 would keep the samplers stepping for
    about half an hour (4e10 jumps) and forever.  At 2e8 one walk makes only
    1.8e7 or 1e6 jumps, but the lock-step samplers pay per step whatever
    their width, and about 1.8e7 or 1e6 steps would take minutes.  Each is
    refused before sampling."""
    t0 = time.perf_counter()
    code, err, summary = _run_cli(tmp_path, {"graph": graph, "task": "stochastic", "params": params})
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and summary is None
    assert "jumps, over the budget of 2e+07" in err, err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("task, code", [("validate", 0), ("stochastic", 2), ("spectrum", 2)])
def test_cli_jump_rate_beyond_the_float_range(tmp_path, task, code):
    """b/m = 1e310 on cycle-8: Deg is +inf without a warning, ``validate``
    reports it, and the walk and the eigensolver refuse it by name."""
    got, err, summary = _run_cli(tmp_path, {
        "graph": {"family": "cycle", "n": 8, "m": 1e-300, "b": 1e10},
        "task": task,
    })
    assert got == code and "Warning" not in err and err.count("\n") <= 1, err
    if task == "validate":
        assert err == "" and summary["d_max"] == "inf"
    elif task == "stochastic":
        assert "jump rate Deg_max is beyond the float range" in err, err
    else:
        assert "EigensolveFailure" in err and "beyond the float range" in err, err


@pytest.mark.filterwarnings("error")
def test_cli_huge_f_keeps_a_finite_stderr(tmp_path):
    """f = [1e200, 0, ...] on cycle-8: the estimate is summed on f scaled by
    a power of two, so the squared deviations do not overflow and the
    4-stderr check compares against a finite stderr, with no warning."""
    code, err, summary = _run_cli(tmp_path, {
        "graph": {"family": "cycle", "n": 8},
        "task": "stochastic",
        "params": {"f": [1e200] + [0] * 7, "n_samples": 1000},
        "seed": 7,
    })
    assert code == 0 and err == "", err
    (row,) = csv.DictReader(io.StringIO((tmp_path / "out" / "stochastic_estimates.csv").read_text()))
    mean, stderr, exact = (float(row[k]) for k in ("mean", "stderr", "exact"))
    assert 0.0 < stderr < math.inf
    assert abs(mean - exact) <= 4.0 * stderr


@pytest.mark.filterwarnings("error")
def test_cli_f_spanning_the_float_range_runs_clean(tmp_path):
    """f = [1e308, -1e308, 1e308, -1e308, 0, ...] on cycle-8: max f - min f
    is beyond the float range, so the no-variance bounds are formed on f
    scaled by a power of two, and the run ends in a verdict with no
    warning."""
    code, err, summary = _run_cli(tmp_path, {
        "graph": {"family": "cycle", "n": 8},
        "task": "stochastic",
        "params": {"f": [1e308, -1e308, 1e308, -1e308, 0, 0, 0, 0], "n_samples": 1000},
        "seed": 7,
    })
    assert code == 0 and err == "", err
    (row,) = csv.DictReader(io.StringIO((tmp_path / "out" / "stochastic_estimates.csv").read_text()))
    mean, stderr, exact = (float(row[k]) for k in ("mean", "stderr", "exact"))
    assert all(math.isfinite(v) for v in (mean, stderr, exact))
    assert summary["within_4_stderr"] == 1


def _cycle4_at_scale(tmp_path, task, c, **params):
    """Exit code, stderr and summary of ``task`` on cycle-4 with even D,
    T = 1 and f0 = c [1, 0.5, -0.3, 0.2], run in a directory of its own."""
    where = tmp_path / f"{task}-{c!r}"
    where.mkdir()
    return _run_cli(where, {
        "graph": {"family": "cycle", "n": 4},
        "subset": {"parity": "even"},
        "task": task,
        "params": {"T": 1.0, "f0": _scaled_f0(4, c), **params},
        "seed": 1,
    })


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c", [1e200, 1e-200])
def test_cli_control_answers_the_same_at_any_scale_of_f0(tmp_path, c):
    """With r = 2 and alpha_target 0.1 the parent read achieved_alpha nan
    at c = 1e200 (exit 1) and refused the state as zero at c = 1e-200
    (exit 2).  Both exit 0 with the c = 1 run's nu and achieved_alpha
    within 1e-12, c times its cost and c^2 times its energy, which is past
    the float range at 1e200 (inf) and below it at 1e-200 (0)."""
    runs = {}
    for scale in (1.0, c):
        code, err, runs[scale] = _cycle4_at_scale(tmp_path, "control", scale, r=2, alpha_target=0.1)
        assert code == 0 and err == "", err
    one, other = runs[1.0], runs[c]
    assert one["nu"] == pytest.approx(24.414006725419313, rel=1e-12)
    assert one["achieved_alpha"] == pytest.approx(0.0999999999995514, rel=1e-12)
    assert one["cost_r_control"] == pytest.approx(0.9882009009795403, rel=1e-12)
    for key in ("nu", "achieved_alpha"):
        assert other[key] == pytest.approx(one[key], rel=1e-12)
    assert other["cost_r_control"] == pytest.approx(c * one["cost_r_control"], rel=1e-12)
    assert other["energy"] == ("inf" if c > 1.0 else 0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c", [1e200, 1e-200])
def test_cli_stabilize_answers_the_same_at_any_scale_of_f0(tmp_path, c):
    """With N = 3 the parent reported every period norm inf (c = 1e200) or
    0 (c = 1e-200) and every cost 0, and passed.  The norms and costs are c
    times those of c = 1 within 1e-12, and M and omega are the same."""
    runs, norms = {}, {}
    for scale in (1.0, c):
        code, err, runs[scale] = _cycle4_at_scale(tmp_path, "stabilize", scale, N=3)
        assert code == 0 and err == "", err
        table = tmp_path / f"stabilize-{scale!r}" / "out" / "stabilize_norms.csv"
        norms[scale] = [float(row["norm"]) for row in csv.DictReader(io.StringIO(table.read_text()))]
    one, other = runs[1.0], runs[c]
    assert norms[1.0][:2] == pytest.approx([1.1747340124470731, 0.5873670062225378], rel=1e-12)
    assert [one["total_costs"][r] for r in ("1.0", "2.0", "inf")] == pytest.approx(
        [0.78977, 0.49090, 0.43216], abs=1e-5
    )
    assert norms[c] == pytest.approx([c * v for v in norms[1.0]], rel=1e-12)
    assert other["total_costs"] == pytest.approx(
        {r: c * v for r, v in one["total_costs"].items()}, rel=1e-12
    )
    assert other["M"] == pytest.approx(one["M"], rel=1e-12) and other["omega"] == one["omega"]


@pytest.mark.filterwarnings("error")
def test_cli_stabilize_of_a_large_state_on_a_large_measure_runs_clean(tmp_path):
    """cycle-4 with b = 1e8, m = 1e300, T = 1e300, N = 2 and f0
    [1, 0.5, -0.3, 0.2] (m-norm 1.17e150): the parent ran Simpson's panel
    sums into inf - inf and exited 2 at the wave budget, after overflow
    warnings.  It exits 0 with no warning, finite period norms and finite
    L_2 and L_inf costs; the L_1 cost, about 2.7e348, reads inf."""
    code, err, summary = _run_cli(tmp_path, {
        "graph": {"family": "cycle", "n": 4, "b": 1e8, "m": 1e300},
        "subset": {"parity": "even"},
        "task": "stabilize",
        "params": {"T": 1e300, "N": 2, "f0": _scaled_f0(4, 1.0)},
        "seed": 1,
    })
    assert code == 0 and err == "", err
    costs = summary["total_costs"]
    assert costs["1.0"] == "inf" and all(math.isfinite(costs[r]) for r in ("2.0", "inf"))
    table = (tmp_path / "out" / "stabilize_norms.csv").read_text()
    norms = [float(row["norm"]) for row in csv.DictReader(io.StringIO(table))]
    assert norms[0] == pytest.approx(1.1747340124470731e150, rel=1e-12)
    assert all(0.0 < v < math.inf for v in norms)


@pytest.mark.filterwarnings("error")
def test_cli_control_resimulation_at_a_long_horizon(tmp_path):
    """On cycle-300 at T = 400 (alpha = 2.0e-12) the free and forced parts of
    f(T) nearly cancel; the re-simulation error is measured on their sizes,
    not on the remainder ||f(T)||, and the run passes."""
    code, err, summary = _run_cli(tmp_path, {
        "graph": {"family": "cycle", "n": 300},
        "subset": {"parity": "even"},
        "task": "control",
        "params": {"T": 400},
        "seed": 3,
    })
    assert code == 0 and err == "", err
    assert summary["resimulation_rel_error"] <= 1e-12


_STIFF_CONTROL = {"T": 1.0, "delta": 0.5, "r": 2, "f0": {"random": 3}}
_STIFF_CASES = [
    ("weak-obs", {"T": 1.0, "delta": delta, "r": r, "samples": 10}, 0)
    for r in (1, 2, "inf")
    for delta in (0.0, 0.5)
] + [
    ("control", _STIFF_CONTROL, 2),
    ("control", dict(_STIFF_CONTROL, alpha_target=0.5), 0),
    ("up-sweep", {}, 0),
] + [  # long windows: lam t overflows a float, and the mode has decayed to 0
    ("weak-obs", {"T": T, "delta": delta, "r": r, "samples": 10}, 0)
    for T in (1e10, 1e15)
    for r in (1, 2, "inf")
    for delta in (0.0, 0.5)
] + [
    ("control", dict(_STIFF_CONTROL, T=1e10, alpha_target=0.5), 0),
    ("stabilize", {"T": 1e10}, 0),
]


def _l2_min_slack(payload):
    """The r = 2 minimum slack of a weak-obs scenario with every time norm
    from the closed form of its squared integral, ``l2_time_integral``."""
    from graphheat.observability import _phi_batch, weak_obs_constants
    from graphheat.spectral import RestrictedEvolution

    g = build_family("cycle", {k: v for k, v in payload["graph"].items() if k != "family"}).graph
    D = parity_subset(g, payload["subset"]["parity"])
    sd = eigendecompose(g)
    p = payload["params"]
    c = weak_obs_constants(g, sd, D, p["T"], p["delta"], 2.0)
    C, _ = _phi_batch(sd, p["samples"], payload["seed"])
    C = np.hstack((np.eye(g.n), C))  # the eigenvectors' unit coefficients
    re = RestrictedEvolution(sd, g.subset_indices(D), C)
    norms = np.sqrt(re.l2_time_integral(c.delta * c.T, c.T))
    return float(np.min(c.K * norms + c.alpha - re.final_norms(c.T)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("task, params, code", _STIFF_CASES)
def test_cli_stiff_measure_ends_in_a_verdict_or_a_refusal(tmp_path, task, params, code):
    """m = 1e-300 on cycle-8 puts lam_max at 4e300, so lam^2 and ||H+1||^2
    overflow a float.  Each case exits 0 or 2, never with a traceback or a
    warning.  Every weak-obs case ends in a verdict: the eigenvectors, whose
    modes decay in 1e-300, take their slacks in closed form, and no other
    state comes near the minimum; at r = 2 the slack is the one from the
    closed-form L_2 integral.  Duality asks for exact null control of a
    singular Gramian and is refused."""
    payload = {
        "graph": {"family": "cycle", "n": 8, "m": 1e-300},
        "subset": {"parity": "even"},
        "task": task,
        "params": params,
        "seed": 1,
    }
    got, err, summary = _run_cli(tmp_path, payload)
    assert got == code and "Traceback" not in err, err
    if task == "weak-obs" and params["r"] == 2:
        assert summary["min_slack"] == pytest.approx(_l2_min_slack(payload), rel=1e-8)


@pytest.mark.filterwarnings("error")
def test_cli_control_refusal_with_a_multiplier_beyond_the_float_range(tmp_path):
    """On cycle-8 with b = 1e-300 and T = 1e300 the Gramian's eigenvalues
    are so large that nu mu overflows during the multiplier search, where
    beta / (1 + nu mu) is 0.  The run ends in the refusal of a target below
    the invariant floor, with no warning."""
    code, err, _ = _run_cli(tmp_path, {
        "graph": {"family": "cycle", "n": 8, "b": 1e-300},
        "subset": {"parity": "even"},
        "task": "control",
        "params": {"T": 1e300, "alpha_target": 0.001},
        "seed": 1,
    })
    assert code == 2 and "TargetUnreachable" in err and "Traceback" not in err, err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m, T", [(1e-300, 1e30), (1e-200, 1e300), (1e30, 1e300)])
def test_cli_non_null_residual_beyond_the_float_range_is_finite(tmp_path, m, T):
    """On cycle-4 with even D, extreme m and T push lam h, the states'
    inner products or the forced part past the float range.  The segment
    weights stay finite as h phi_1 = (1 - e^{-lam h})/lam, the drift comes
    from the forced coefficients of phi's own eigen-group, and a forced part
    that may overflow is summed over a power of two that divides the drift
    and the scale alike: the genuine obstruction passes, with a finite
    residual and no warning."""
    code, err, summary = _run_cli(tmp_path, {
        "graph": {"family": "cycle", "n": 4, "m": m},
        "subset": {"parity": "even"},
        "task": "non-null",
        "params": {"T": T},
        "seed": 1,
    })
    assert code == 0 and "Traceback" not in err, err
    residual = summary["max_mode_invariance_residual"]
    assert isinstance(residual, float) and 0.0 <= residual <= 1e-9


@pytest.mark.filterwarnings("error")
def test_cli_non_null_at_a_far_horizon_compares_a_finite_scale(tmp_path):
    """On cycle-8 with even D at T = 1e200 the forced part of f(T) is about
    1e199, whose squares overflow: the scale of the mode-invariance check is
    taken on the forced part divided by its largest entry, so it is finite
    and the drift is compared with it, with no warning."""
    code, err, summary = _run_cli(tmp_path, {
        "graph": {"family": "cycle", "n": 8},
        "subset": {"parity": "even"},
        "task": "non-null",
        "params": {"T": 1e200},
        "seed": 1,
    })
    assert code == 0 and "Traceback" not in err, err
    residual = summary["max_mode_invariance_residual"]
    assert isinstance(residual, float) and 0.0 < residual <= 1e-9


def test_cli_non_null_refuses_zero_trials(tmp_path):
    """With "n_random": 0 the mode-invariance check would compare no trial
    and pass; the count is refused as bad input (exit 2), before any report
    is written."""
    code, err, summary = _run_cli(tmp_path, {
        "graph": {"family": "cycle", "n": 8},
        "subset": {"parity": "even"},
        "task": "non-null",
        "params": {"T": 1.0, "n_random": 0},
    })
    assert code == 2 and "n_random" in err and "Traceback" not in err, err
    assert summary is None


def test_non_null_trials_draw_f0_then_the_segment_values(tmp_path):
    """The batched trials take each trial's f0 and then its control's values
    on the 9 segments from the scenario's generator, as one trial at a time
    did: the task's residuals are those of the same batch on draws taken
    trial by trial."""
    scenario = Scenario(
        graph={"family": "cycle", "n": 32},
        subset={"parity": "even"},
        task="non-null",
        params={"T": 2.0, "n_random": 7},
        seed=11,
    )
    outcome = run_scenario(scenario, tmp_path)
    assert outcome.exit_code == 0
    rows = list(csv.reader((tmp_path / "non-null_mode_invariance.csv").open()))[1:]
    g = build_family("cycle", {"n": 32}).graph
    sd = eigendecompose(g)
    D = parity_subset(g, "even")
    lam, basis = hautus_obstruction(sd, D)[0]
    rng = np.random.default_rng(11)
    f0s, values = [], []
    for _ in range(7):
        f0 = rng.standard_normal(g.n)
        f0 /= sd.norm(f0)
        f0s.append(f0)
        values.append(rng.standard_normal((9, len(D))))
    drift, scale = mode_invariance_trials(
        sd, D, basis[:, 0], lam, np.array(f0s), np.array(values), 2.0
    )
    assert [float(r) for _, r in rows] == (drift / scale).tolist()


_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize(
    "graph, task, params",
    [
        ({"family": "torus", "p": 16, "q": 16}, "weak-obs", {"T": 1.0, "r": "inf", "samples": 1000}),
        ({"family": "torus", "p": 16, "q": 16}, "weak-obs", {"T": 1.0, "r": 1, "samples": 1000}),
        ({"family": "cycle", "n": 300}, "control", {"T": 1.0}),
    ],
    ids=["torus16-weak-obs-r-inf", "torus16-weak-obs-r-1", "cycle300-control"],
)
def test_a_cli_run_writes_the_bytes_of_one_blas_thread_by_default(tmp_path, graph, task, params):
    """A console run with the BLAS thread variables unset writes the files
    it writes with them at 1, byte for byte: BLAS rounds a product by how
    it splits the work across threads (torus-16x16 weak-obs at r = inf gave
    K = 3240.0 on one thread and 3240.0000000000014 on two), so the package
    pins one thread where the environment sets none."""
    scenario = write_scenario(tmp_path, "sc.json", {
        "graph": graph, "subset": {"parity": "even"}, "task": task, "params": params, "seed": 1,
    })
    src = str(Path(graphheat.__file__).resolve().parent.parent)
    written = []
    for threads in (None, "1"):
        env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREADS}
        env.update(dict.fromkeys(_BLAS_THREADS, threads) if threads else {})
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"out-{threads}"
        subprocess.run(
            [sys.executable, "-m", "graphheat.cli", "run", str(scenario), "--out", str(out)],
            env=env, check=True, capture_output=True,
        )
        written.append({f.relative_to(out): f.read_bytes() for f in out.rglob("*") if f.is_file()})
    assert written[0] and written[0] == written[1]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("task", ["non-null", "spectrum"])
@pytest.mark.parametrize("m", [1e10, 1e300, 1e-300])
def test_cli_eigen_and_invariance_checks_are_relative(tmp_path, task, m):
    """The eigen-residual is taken relative to lam_max and the
    mode-invariance drift relative to the terms it compares, so an extreme
    measure on cycle-8, whose even D has a genuine obstruction, keeps every
    assertion (with m = 1e-300, H applied to an m-unit state overflows).
    The obstruction is the eigenfunction sin(pi x / 2) of eigenvalue 2 / m
    on its own, at every m: the eigenvalue grouping scales with lam_max."""
    code, err, summary = _run_cli(tmp_path, {
        "graph": {"family": "cycle", "n": 8, "m": m},
        "subset": {"parity": "even"},
        "task": task,
        "params": {"T": 1.0} if task == "non-null" else {},
        "seed": 1,
    })
    assert code == 0 and "Traceback" not in err, err
    assert all(a["passed"] for a in summary["assertions"]), summary["assertions"]
    if task == "non-null":
        assert summary["obstruction_dimensions"] == [1]
        assert summary["obstruction_eigenvalues"][0] == pytest.approx(2.0 / m, rel=1e-12)


@pytest.mark.parametrize("family", [{"family": "cycle", "n": 8}, {"family": "path", "n": 2}])
def test_first_jump_paths_stop_at_their_first_jump(tmp_path, monkeypatch, family):
    """The first-jump law reads only the k = 1 states, so each path draws one
    holding time and samples at most one jump; its table equals the one
    taken from the step-1 states of full-horizon paths."""
    n, seed = 2000, 5
    holding_draws = []
    real = sto._PhiloxStreams.draw_positive

    def counted(streams, rows):
        holding_draws.extend(rows.tolist())
        return real(streams, rows)

    monkeypatch.setattr(sto._PhiloxStreams, "draw_positive", counted)
    sc = Scenario(
        graph=family,
        task="stochastic",
        params={"x": "0", "n_samples": 100, "first_jump_samples": n},
        seed=seed,
    )
    out = run_scenario(sc, tmp_path / "out")
    assert out.exit_code == 0
    assert sorted(holding_draws) == list(range(n))

    g = build_family(family["family"], family).graph
    batch = sto.sample_ctmc_paths(g, "0", 20.0 / g.degrees()[0], seed, range(n))
    targets = batch.states[batch.step == 1]
    _columns, rows = out.report.tables["first_jump_law"]
    assert [row[0] for row in rows] == [g.vertex_ids[j] for j in g.neighbors(0)]
    assert [row[2] for row in rows] == [
        np.count_nonzero(targets == j) / len(targets) for j in g.neighbors(0)
    ]


def test_cli_stochastic_paths_export_over_the_row_limit_exit_2(tmp_path):
    """5000 exported paths at jump rate 2000 make about 1e7 jumps, within
    the jump budget, but also about 1e7 rows of the paths table, which would
    take minutes and gigabytes to write: the export is refused before
    sampling."""
    code, err, summary = _run_cli(tmp_path, {
        "graph": {"family": "cycle", "n": 8, "b": 1000},
        "task": "stochastic",
        "params": {"x": "0", "t": 1.0, "n_samples": 1, "sample_paths": 5000},
    })
    assert code == 2 and summary is None
    assert "about 1e+07 rows, over the limit of 1e+06" in err, err


def test_cli_stochastic_over_the_sample_budget_exit_2(tmp_path):
    """At t = 1e-8 a billion samples make about 20 jumps, but the estimate
    would hold a billion samples at once, arrays of 7.45 GiB each: the
    sample count is checked first and refused before anything is sampled."""
    t0 = time.perf_counter()
    code, err, summary = _run_cli(tmp_path, {
        "graph": {"family": "cycle", "n": 8},
        "task": "stochastic",
        "params": {"x": "0", "t": 1e-8, "n_samples": 1_000_000_000},
    })
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and summary is None
    assert "1000000000 samples at once, over the limit of 2e+06" in err, err


def test_cli_stochastic_over_the_budget_through_repeats_exit_2(tmp_path):
    """At t = 1e-8 the 2e6 samples of a repeat make under one jump, but each
    sample still draws once per repeat: a million repeats count as 2e12 steps
    and are refused before anything is sampled."""
    t0 = time.perf_counter()
    code, err, summary = _run_cli(tmp_path, {
        "graph": {"family": "cycle", "n": 8},
        "task": "stochastic",
        "params": {"x": "0", "t": 1e-8, "n_samples": 2_000_000, "repeats": 1_000_000},
    })
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and summary is None
    assert "about 2e+12 jumps, over the budget of 2e+07" in err, err


@pytest.mark.parametrize("n_samples", [1, 2, 5])
def test_cli_estimate_on_one_value_away_from_f_x_passes(tmp_path, n_samples):
    """With a few samples that all land on one value other than f(x), the
    sample stderr is 0: such an estimate is judged by Hoeffding's bound at
    the 4-stderr rule's false-failure rate, not failed outright."""
    code, err, summary = _run_cli(tmp_path, {
        "graph": {"family": "cycle", "n": 8},
        "task": "stochastic",
        "params": {"x": "0", "t": 1, "repeats": 3, "n_samples": n_samples},
        "seed": 3,
    })
    assert code == 0, err
    assert summary["within_4_stderr"] == 3


@pytest.mark.parametrize("t", [1e-4, 1e-10])
def test_cli_estimate_without_a_sampled_jump_passes(tmp_path, t):
    """On cycle-8 at t = 1e-4 the 1000 samples expect 0.2 jumps and seed 3
    draws none: the estimate is f(x) = 1 with stderr 0.  The exact value
    lies below it by less than P(jump by t) = 1 - e^{-2t}, which the missed
    jumps can move it by, so the estimate is accepted.  At t = 1e-10 the
    exact value's rounding near 1 is larger than the room the bound leaves,
    and the check's allowance of a few ulps covers it."""
    code, err, summary = _run_cli(tmp_path, {
        "graph": {"family": "cycle", "n": 8},
        "task": "stochastic",
        "params": {"x": "0", "t": t, "n_samples": 1000},
        "seed": 3,
    })
    assert code == 0, err
    assert summary["within_4_stderr"] == 1
    assert summary["exact_value"] < 1.0


def test_first_jump_law_fails_when_no_path_jumps(tmp_path, monkeypatch):
    """Without a sampled jump there is no law to compare: the check fails."""
    real = sto._walk_steps
    monkeypatch.setattr(
        sto, "_walk_steps", lambda g, x0, t_max, seed, idx: real(g, x0, 0.0, seed, idx)
    )
    sc = Scenario(
        graph={"family": "cycle", "n": 8},
        task="stochastic",
        params={"x": "0", "n_samples": 100, "first_jump_samples": 5},
        seed=1,
    )
    out = run_scenario(sc, tmp_path / "out")
    assert out.exit_code == 1
    assert [a.name for a in out.report.assertions if not a.passed] == ["first_jump_law"]


def test_cli_stochastic_at_time_zero_is_exact(tmp_path):
    """S_0 = I, so the exact value at t = 0 is f(x) itself and matches the
    estimate, whose stderr is 0."""
    code, err, summary = _run_cli(
        tmp_path,
        {
            "graph": {"family": "cycle", "n": 8},
            "task": "stochastic",
            "params": {"x": "0", "t": 0, "n_samples": 100},
        },
    )
    assert code == 0, err
    assert summary["exact_value"] == 1.0


def test_stochastic_scenario_exports_paths(tmp_path):
    sc = Scenario(
        graph={"family": "cycle", "n": 8},
        task="stochastic",
        params={"x": "0", "t": 2.0, "n_samples": 500, "sample_paths": 3},
        seed=4,
    )
    out = run_scenario(sc, tmp_path / "out")
    assert out.exit_code == 0
    rows = (tmp_path / "out" / "stochastic_paths.csv").read_text().splitlines()
    assert rows[0] == "path_index,k,J_k,Y_k"
    assert rows[1].startswith("0,0,0,")  # J_0 = 0 at the start vertex


def test_validate_and_spectrum_tasks(tmp_path):
    for task in ("validate", "spectrum"):
        sc = Scenario(graph={"family": "cycle", "n": 6}, task=task)
        out = run_scenario(sc, tmp_path / task)
        assert out.exit_code == 0


# ---------------------------------------------------------------------------
# CLI surface


def test_cli_replay_byte_identical(tmp_path):
    payload = {
        "graph": {"family": "cycle", "n": 4},
        "subset": {"parity": "even"},
        "task": "weak-obs",
        "params": {"T": 6.0, "delta": 0.5, "r": 1, "samples": 100},
        "seed": 11,
    }
    scenario = write_scenario(tmp_path, "sc.json", payload)
    assert cli_main(["run", str(scenario), "--out", str(tmp_path / "a")]) == 0
    assert cli_main(["run", str(scenario), "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "weak-obs_summary.json").read_bytes()
    b = (tmp_path / "b" / "weak-obs_summary.json").read_bytes()
    assert a == b


def test_cli_seed_override_changes_output(tmp_path):
    payload = {
        "graph": {"family": "cycle", "n": 8},
        "task": "stochastic",
        "params": {"x": "0", "t": 1.0, "n_samples": 2000},
        "seed": 1,
    }
    scenario = write_scenario(tmp_path, "sc.json", payload)
    assert cli_main(["run", str(scenario), "--out", str(tmp_path / "a")]) == 0
    assert cli_main(["run", str(scenario), "--out", str(tmp_path / "b"), "--seed", "2"]) == 0
    a = json.loads((tmp_path / "a" / "stochastic_summary.json").read_text())
    b = json.loads((tmp_path / "b" / "stochastic_summary.json").read_text())
    assert a["seed"] == 1 and b["seed"] == 2


def test_cli_malformed_scenario_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{{{{")
    cycle4 = {"family": "cycle", "n": 4}
    graph_file = tmp_path / "c4.json"
    graph_file.write_text(json.dumps(graph_to_json(build_family("cycle", cycle4).graph)))
    # graph files read like scenarios: no boolean or string numbers, no
    # unknown keys, and no m beyond the float range
    (tmp_path / "loose_graph.json").write_text(
        '{"vertices": [{"id": "0", "m": true}, {"id": "1", "m": "2.5"}],'
        ' "edges": [{"u": "0", "v": "1", "b": "1e0", "note": "x"}], "extra": 1}'
    )
    (tmp_path / "huge_m_graph.json").write_text(
        '{"vertices": [{"id": "0", "m": 1' + "0" * 400 + '}], "edges": []}'
    )
    scenarios = [
        *(
            write_scenario(tmp_path, f"{name}.json", {
                "graph": {"family": "file", "path": str(tmp_path / f"{name}_graph.json")},
                "task": "validate",
            })
            for name in ("loose", "huge_m")
        ),
        bad,
        tmp_path / "missing.json",
        write_scenario(tmp_path, "no_subset_file.json", {
            "graph": cycle4, "subset": {"file": str(tmp_path / "nope.json")},
            "task": "weak-obs",
        }),
        write_scenario(tmp_path, "no_graph_file.json", {
            "graph": {"family": "file", "path": str(tmp_path / "nope.json")},
            "task": "validate",
        }),
        write_scenario(tmp_path, "bad_seed.json", {"graph": cycle4, "task": "validate", "seed": "x"}),
        write_scenario(tmp_path, "negative_seed.json", {
            "graph": cycle4, "subset": {"ids": ["0"]}, "task": "weak-obs", "seed": -1,
        }),
        write_scenario(tmp_path, "negative_f0_seed.json", {
            "graph": cycle4, "subset": {"ids": ["0"]}, "task": "control",
            "params": {"f0": {"random": -1}},
        }),
        write_scenario(tmp_path, "fractional_f0_seed.json", {
            "graph": cycle4, "subset": {"ids": ["0"]}, "task": "control",
            "params": {"f0": {"random": 1.5}},
        }),
        write_scenario(tmp_path, "non_numeric_T.json", {
            "graph": cycle4, "subset": {"ids": ["0"]}, "task": "weak-obs",
            "params": {"T": "abc"},
        }),
        write_scenario(tmp_path, "unknown_key.json", {
            "graph": cycle4, "subset": {"ids": ["0"]}, "task": "weak-obs",
            "params": {"sampels": 5},
        }),
        write_scenario(tmp_path, "scalar_t_grid.json", {
            "graph": cycle4, "subset": {"ids": ["0"]}, "task": "necessity",
            "params": {"x": ["1"], "t_grid": 5},
        }),
        write_scenario(tmp_path, "scalar_x.json", {
            "graph": cycle4, "subset": {"ids": ["0"]}, "task": "necessity",
            "params": {"x": 3},
        }),
        write_scenario(tmp_path, "scalar_f0_values.json", {
            "graph": cycle4, "subset": {"ids": ["0"]}, "task": "control",
            "params": {"f0": {"values": 1}},
        }),
        write_scenario(tmp_path, "scalar_subset_ids.json", {
            "graph": cycle4, "subset": {"ids": 0}, "task": "weak-obs",
        }),
        write_scenario(tmp_path, "scalar_f.json", {
            "graph": cycle4, "task": "stochastic", "params": {"f": 2},
        }),
        write_scenario(tmp_path, "short_f.json", {
            "graph": cycle4, "task": "stochastic", "params": {"f": [1.0, 0.0]},
        }),
        write_scenario(tmp_path, "infinite_t.json", {
            "graph": cycle4, "task": "stochastic", "params": {"t": math.inf},
        }),
        write_scenario(tmp_path, "infinite_weak_obs_T.json", {
            "graph": cycle4, "subset": {"ids": ["0"]}, "task": "weak-obs",
            "params": {"T": math.inf},
        }),
        write_scenario(tmp_path, "infinite_non_null_T.json", {
            "graph": cycle4, "subset": {"ids": ["0"]}, "task": "non-null",
            "params": {"T": math.inf},
        }),
        write_scenario(tmp_path, "nan_control_T.json", {
            "graph": cycle4, "subset": {"ids": ["0"]}, "task": "control",
            "params": {"T": math.nan},
        }),
        write_scenario(tmp_path, "negative_infinite_stabilize_T.json", {
            "graph": cycle4, "subset": {"ids": ["0"]}, "task": "stabilize",
            "params": {"T": -math.inf},
        }),
        write_scenario(tmp_path, "nan_r.json", {
            "graph": cycle4, "subset": {"ids": ["0"]}, "task": "weak-obs",
            "params": {"r": math.nan},
        }),
        write_scenario(tmp_path, "window_too_short_for_K.json", {
            "graph": cycle4, "subset": {"ids": ["0"]}, "task": "weak-obs",
            "params": {"T": 1e-307, "r": 1, "samples": 10},
        }),
        write_scenario(tmp_path, "integer_T_beyond_float_range.json", {
            "graph": cycle4, "subset": {"ids": ["0"]}, "task": "weak-obs",
            "params": {"T": 10**400},
        }),
        write_scenario(tmp_path, "infinite_m.json", {
            "graph": {"family": "path", "n": 3, "m": math.inf}, "task": "validate",
        }),
        write_scenario(tmp_path, "numeric_graph_path.json", {
            "graph": {"family": "file", "path": 5}, "task": "validate",
        }),
        write_scenario(tmp_path, "numeric_subset_file.json", {
            "graph": cycle4, "subset": {"file": 5}, "task": "weak-obs",
        }),
        write_scenario(tmp_path, "non_numeric_n.json", {
            "graph": {"family": "cycle", "n": "abc"}, "task": "validate",
        }),
        write_scenario(tmp_path, "fractional_p.json", {
            "graph": {"family": "torus", "p": 3.5, "q": 4}, "task": "validate",
        }),
        write_scenario(tmp_path, "non_numeric_k.json", {
            "graph": {"family": "cyclic-cover", "base": cycle4, "k": "two"},
            "task": "validate",
        }),
        write_scenario(tmp_path, "non_numeric_m.json", {
            "graph": {"family": "path", "n": 3, "m": "heavy"}, "task": "validate",
        }),
        write_scenario(tmp_path, "non_numeric_b.json", {
            "graph": {"family": "cycle", "n": 4, "b": [1.0]}, "task": "validate",
        }),
        write_scenario(tmp_path, "unknown_top_level_key.json", {
            "graph": cycle4, "task": "validate", "sede": 3,
        }),
        write_scenario(tmp_path, "unknown_graph_key.json", {
            "graph": {"family": "cycle", "n": 8, "mm": 2.0}, "task": "validate",
        }),
        write_scenario(tmp_path, "unknown_base_key.json", {
            "graph": {"family": "cyclic-cover", "base": {"family": "cycle", "n": 4, "mm": 2.0},
                      "k": 2},
            "task": "validate",
        }),
        write_scenario(tmp_path, "m_on_cyclic_cover.json", {
            "graph": {"family": "cyclic-cover", "base": cycle4, "k": 2, "m": 5.0},
            "task": "validate",
        }),
        write_scenario(tmp_path, "m_on_file.json", {
            "graph": {"family": "file", "path": str(graph_file), "m": 5.0}, "task": "validate",
        }),
        write_scenario(tmp_path, "unknown_subset_key.json", {
            "graph": cycle4, "subset": {"parity": "even", "idz": ["1"]}, "task": "weak-obs",
        }),
        write_scenario(tmp_path, "two_subset_alternatives.json", {
            "graph": cycle4, "subset": {"parity": "even", "ids": ["1"]}, "task": "weak-obs",
        }),
        write_scenario(tmp_path, "two_f0_alternatives.json", {
            "graph": cycle4, "subset": {"ids": ["0"]}, "task": "control",
            "params": {"f0": {"random": 3, "delta": "0"}},
        }),
    ]
    weak_obs = write_scenario(tmp_path, "weak_obs.json", {
        "graph": cycle4, "subset": {"ids": ["0"]}, "task": "weak-obs",
    })
    runs = [[str(scenario)] for scenario in scenarios] + [[str(weak_obs), "--seed", "-1"]]
    for args in runs:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main(["run", *args, "--out", str(tmp_path / "out")]) == 2, args
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], args
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err, err


_NON_STRING_IDS = [{"x": 1}, [1], True, None]


def test_cli_non_string_ids_exit_2(tmp_path):
    """Vertex ids are JSON strings wherever they appear: in a graph file's
    vertices and edges, subset ``ids``, ``x`` and ``f0.delta``.  The graph
    whose string ids spell each bad value's str() shows that an object,
    list, boolean or null is no longer read as that spelling."""
    spelled = [str(v) for v in _NON_STRING_IDS]
    spelled_file = tmp_path / "spelled.json"
    spelled_file.write_text(json.dumps({
        "vertices": [{"id": s, "m": 1.0} for s in spelled],
        "edges": [{"u": a, "v": b, "b": 1.0} for a, b in zip(spelled, spelled[1:])],
    }))
    spelled_graph = {"family": "file", "path": str(spelled_file)}
    for bad in _NON_STRING_IDS:
        bad_vertex, bad_edge = tmp_path / "bad_vertex.json", tmp_path / "bad_edge.json"
        bad_vertex.write_text(json.dumps({
            "vertices": [{"id": "a", "m": 1.0}, {"id": bad, "m": 1.0}],
            "edges": [{"u": "a", "v": bad, "b": 1.0}],
        }))
        bad_edge.write_text(json.dumps({
            "vertices": [{"id": s, "m": 1.0} for s in spelled],
            "edges": [{"u": spelled[0], "v": bad, "b": 1.0}],
        }))
        for payload in [
            {"graph": {"family": "file", "path": str(bad_vertex)}, "task": "validate"},
            {"graph": {"family": "file", "path": str(bad_edge)}, "task": "validate"},
            {"graph": spelled_graph, "subset": {"ids": [bad]}, "task": "validate"},
            {"graph": spelled_graph, "task": "stochastic", "params": {"x": bad}},
            {
                "graph": spelled_graph, "subset": {"ids": [spelled[0]]}, "task": "control",
                "params": {"f0": {"delta": bad}},
            },
        ]:
            code, err, _ = _run_cli(tmp_path, payload)
            assert code == 2 and "must be a string" in err, (payload, err)
            assert "Traceback" not in err


def test_cli_numeric_infinite_r_is_the_sup_norm(tmp_path):
    """JSON's Infinity is a norm index like the string "inf"."""
    for name, r in (("numeric.json", math.inf), ("string.json", "inf")):
        scenario = write_scenario(tmp_path, name, {
            "graph": {"family": "cycle", "n": 4}, "subset": {"ids": ["0"]},
            "task": "weak-obs", "params": {"r": r, "samples": 10},
        })
        assert cli_main(["run", str(scenario), "--out", str(tmp_path / f"out-{name}")]) == 0
    numeric, string = (
        json.loads((tmp_path / f"out-{name}" / "weak-obs_summary.json").read_text())
        for name in ("numeric.json", "string.json")
    )
    assert numeric["r"] == "inf" and numeric == string



# Small, valid scenarios on cycle-4 or cycle-8, one per task; the fuzz test
# below mutates them.  Sizes and times stay small so every run is quick.
_FUZZ_PARAMS = {
    "validate": {},
    "spectrum": {},
    "up-sweep": {},
    "weak-obs": {"T": 1.0, "delta": 0.0, "r": 1, "samples": 10},
    "control": {"T": 1.0, "delta": 0.5, "r": 2, "f0": {"random": 3}, "alpha_target": 0.5},
    "non-null": {"T": 1.0, "n_random": 3},
    "necessity": {"x": ["1"], "t_grid": [0.1, 1.0], "n_max": 3},
    "stabilize": {"T": 1.0, "alpha": 0.5, "N": 2, "f0": {"random": 1}},
    "stochastic": {
        "x": "0", "t": 0.5, "n_samples": 100, "first_jump_samples": 5, "sample_paths": 2,
    },
}
_FUZZ_KEYS = {
    "scenario": ["graph", "task", "subset", "params", "seed", "unknown"],
    "graph": ["family", "n", "m", "b", "unknown"],
    "subset": ["ids", "parity", "file", "unknown"],
}
# Wrong types, non-finite and edge numbers.  Magnitudes stay within
# [1e-3, 3], so a mutated size, time, mass or weight cannot make a long job
# (a jump rate b/m of 1e300 makes a random walk that never ends).
_FUZZ_VALUES = st.sampled_from([
    None, True, "x", "inf", "even", -1, 0, 1, 2, 3, -0.5, 0.0, 1e-3, 0.5, 2.5,
    math.inf, -math.inf, math.nan, [], [1.0], ["0", "1"], ["0", "0"], {},
    {"random": 2}, {"values": [1.0, 0.0, 0.0, 0.0]}, {"parity": "odd"},
])


@st.composite
def _mutated_scenarios(draw):
    task = draw(st.sampled_from(sorted(_FUZZ_PARAMS)))
    scenario = {
        "graph": {"family": "cycle", "n": draw(st.sampled_from([4, 8]))},
        "task": task,
        "subset": {"parity": "even"},
        "params": copy.deepcopy(_FUZZ_PARAMS[task]),
        "seed": 1,
    }
    for _ in range(draw(st.integers(1, 2))):
        where = draw(st.sampled_from(["params", "params", "scenario", "graph", "subset"]))
        target = scenario if where == "scenario" else scenario.get(where)
        if not isinstance(target, dict):
            continue
        keys = list(_FUZZ_PARAMS[task]) + ["unknown"] if where == "params" else _FUZZ_KEYS[where]
        key = draw(st.sampled_from(keys))
        if draw(st.integers(0, 4)) == 0:
            target.pop(key, None)
        else:
            target[key] = copy.deepcopy(draw(_FUZZ_VALUES))
    return scenario


def _assert_cli_contract(scenario):
    """Exit 0, 1 or 2 without a traceback or a RuntimeWarning, and exit 1
    only when the written summary records a failed assertion."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(scenario))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli_main(["run", str(path), "--out", str(Path(tmp) / "out")])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        if code == 1:
            summary_path = Path(tmp) / "out" / f"{scenario['task']}_summary.json"
            summary = json.loads(summary_path.read_text())
            assert not all(a["passed"] for a in summary["assertions"]), summary
            assert err.getvalue().startswith("FAILED assertions:")


@settings(max_examples=300, deadline=None)
@given(_mutated_scenarios())
def test_cli_contract_on_mutated_scenarios(scenario):
    """Exit 0, 1 or 2 without a traceback or a RuntimeWarning on any mutated
    scenario, and exit 1 only when the written summary records a failed
    assertion."""
    _assert_cli_contract(scenario)


# The magnitudes the extreme fuzz below draws from: 10^k for k in
# [-300, 300].  A long job cannot come of them: the walk budgets refuse jump
# rates that would keep a sampler stepping, with exit 2.
_MAGNITUDES = st.integers(-300, 300).map(lambda k: 10.0**k)
_MAGNITUDE_KEYS = ("T", "t", "alpha", "alpha_target")


@st.composite
def _extreme_scenarios(draw):
    """A small valid scenario whose m and b, and whichever of T, t, alpha
    and alpha_target its task takes, may each be set to a magnitude, and
    whose f0, where its task takes one, may be a fixed state times one."""
    task = draw(st.sampled_from(sorted(_FUZZ_PARAMS)))
    graph = {"family": "cycle", "n": draw(st.sampled_from([4, 8]))}
    params = copy.deepcopy(_FUZZ_PARAMS[task])
    for target, key in [(graph, "m"), (graph, "b")] + [
        (params, k) for k in _MAGNITUDE_KEYS if k in params
    ]:
        if draw(st.booleans()):
            target[key] = draw(_MAGNITUDES)
    if "f0" in params and draw(st.booleans()):
        params["f0"] = _scaled_f0(graph["n"], draw(_MAGNITUDES))
    return {"graph": graph, "task": task, "subset": {"parity": "even"}, "params": params, "seed": 1}


def _scaled_f0(n, c):
    """The state c [1, 0.5, -0.3, 0.2, ...] on n vertices, as a scenario's f0."""
    return {"values": [c * v for v in [1.0, 0.5, -0.3, 0.2] * (n // 4)]}


def _extreme(task, graph, **params):
    """One pinned example of ``_extreme_scenarios``."""
    merged = {**copy.deepcopy(_FUZZ_PARAMS[task]), **params}
    return {"graph": {"family": "cycle", **graph}, "task": task,
            "subset": {"parity": "even"}, "params": merged, "seed": 1}


@settings(max_examples=300, deadline=None)
@given(_extreme_scenarios())
# lam h overflows in the exact per-segment Duhamel weights
@example(_extreme("non-null", {"n": 4, "m": 1e-300}, T=1e30))
# the mode-invariance drift and its scale overflowed to nan
@example(_extreme("non-null", {"n": 4, "m": 1e-200}, T=1e300))
@example(_extreme("non-null", {"n": 4, "m": 1e30}, T=1e300))
# the forced part of phi's own eigen-group is past the float range
@example(_extreme("non-null", {"n": 4, "m": 1e208}, T=1e208))
# the squared m-norm of the stabilization envelope overflowed to M = inf
@example(_extreme("stabilize", {"n": 4, "b": 1e8, "m": 1e300}, T=1e300))
# f0 at the ends of the float range: h(nu), the squared m-norm, the time
# norms' Simpson sums or the energy overflowed or underflowed
@example(_extreme("control", {"n": 4}, r=2, alpha_target=0.1, f0=_scaled_f0(4, 1e200)))
@example(_extreme("control", {"n": 4}, r=2, alpha_target=0.1, f0=_scaled_f0(4, 1e-200)))
@example(_extreme("stabilize", {"n": 4}, N=3, f0=_scaled_f0(4, 1e200)))
@example(_extreme("stabilize", {"n": 4}, N=3, f0=_scaled_f0(4, 1e-200)))
@example(_extreme("stabilize", {"n": 4, "b": 1e8, "m": 1e300}, T=1e300, f0=_scaled_f0(4, 1.0)))
# m f overflowed the spectral coefficients; an m-norm past the float range
@example(_extreme("control", {"n": 4, "m": 1e108}, f0=_scaled_f0(4, 1e201)))
@example(_extreme("control", {"n": 4, "m": 1e205}, f0=_scaled_f0(4, 1e206)))
# a grid bound on an L_1 norm past the float range
@example(_extreme("weak-obs", {"n": 4, "m": 1e-300}, T=1e299))
# lam_max X overflowed every cell bound of the sup search, which split
# without end (25 million cells, gigabytes, at the parent)
@example(_extreme("stabilize", {"n": 8, "b": 1e273}, f0=_scaled_f0(8, 1e78)))
# the control of a state at 1e300 over T = 1e-9 is past the float range
@example(_extreme("control", {"n": 4}, T=1e-9, f0=_scaled_f0(4, 1e300)))
# a subnormal Deg: the holding times overflow and the first-jump horizon is inf
@example(_extreme("stochastic", {"n": 4, "b": 1e-8, "m": 1e300}, t=1e-300))
# a subnormal lam_max: the eigen-residual's 1 / lam_max overflows
@example(_extreme("spectrum", {"n": 4, "m": 1e100, "b": 1e-210}))
def test_cli_contract_at_extreme_magnitudes(scenario):
    """The CLI contract of ``test_cli_contract_on_mutated_scenarios`` where
    m, b and the task's times and ratios range over 1e-300 to 1e300."""
    _assert_cli_contract(scenario)


def test_cli_env_out_dir(tmp_path, monkeypatch):
    payload = {"graph": {"family": "cycle", "n": 4}, "task": "validate"}
    scenario = write_scenario(tmp_path, "sc.json", payload)
    monkeypatch.setenv("GHC_OUT_DIR", str(tmp_path / "envout"))
    assert cli_main(["run", str(scenario)]) == 0
    assert (tmp_path / "envout" / "validate_summary.json").exists()
