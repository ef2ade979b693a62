import contextlib
import copy
import io
import json
import math
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphheat import stochastic as sto
from graphheat.cli import main as cli_main
from graphheat.control import synth_control
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
    """m = 1e300 makes holding times about 5e299: the first-jump horizon
    follows them, and the run ends in a verdict, not a ZeroDivisionError.
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


@pytest.mark.parametrize(
    "graph, params",
    [
        ({"family": "cycle", "n": 8, "b": 1e6}, {}),
        ({"family": "cycle", "n": 8, "m": 1e-300}, {"n_samples": 10}),
    ],
)
def test_cli_stochastic_over_the_jump_budget_exit_2(tmp_path, graph, params):
    """Jump rates of 2e6 and 2e300 would keep the samplers stepping for
    about half an hour (4e10 jumps) and forever: the expected jump count is
    refused before sampling."""
    code, err, summary = _run_cli(tmp_path, {"graph": graph, "task": "stochastic", "params": params})
    assert code == 2 and summary is None
    assert "jumps, over the budget of 2e+07" in err, err


_STIFF_CONTROL = {"T": 1.0, "delta": 0.5, "r": 2, "f0": {"random": 3}}
_STIFF_CASES = [
    ("weak-obs", {"T": 1.0, "delta": delta, "r": r, "samples": 10}, code)
    for r, codes in ((1, (2, 0)), (2, (2, 0)), ("inf", (0, 0)))
    for delta, code in zip((0.0, 0.5), codes)
] + [
    ("control", _STIFF_CONTROL, 2),
    ("control", dict(_STIFF_CONTROL, alpha_target=0.5), 0),
    ("up-sweep", {}, 0),
] + [  # long windows: lam t overflows a float, and the mode has decayed to 0
    ("weak-obs", {"T": T, "delta": delta, "r": r, "samples": 10}, code)
    for T in (1e10, 1e15)
    for r, codes in ((1, (2, 0)), (2, (2, 0)), ("inf", (0, 0)))
    for delta, code in zip((0.0, 0.5), codes)
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("task, params, code", _STIFF_CASES)
def test_cli_stiff_measure_ends_in_a_verdict_or_a_refusal(tmp_path, task, params, code):
    """m = 1e-300 on cycle-8 puts lam_max at 4e300, so lam^2 and ||H+1||^2
    overflow a float.  Each case exits 0 or 2, never with a traceback or a
    warning: at delta = 0 and finite r the Simpson integral of a mode that
    decays in 1e-300 exceeds its depth, and duality asks for exact null
    control of a singular Gramian."""
    got, err, _ = _run_cli(tmp_path, {
        "graph": {"family": "cycle", "n": 8, "m": 1e-300},
        "subset": {"parity": "even"},
        "task": task,
        "params": params,
        "seed": 1,
    })
    assert got == code and "Traceback" not in err, err


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
    """At t = 1e-8 a billion samples make about 20 jumps, within the jump
    budget, but the estimate would hold a billion samples at once, arrays of
    7.45 GiB each: the sample count is refused before anything is sampled."""
    t0 = time.perf_counter()
    code, err, summary = _run_cli(tmp_path, {
        "graph": {"family": "cycle", "n": 8},
        "task": "stochastic",
        "params": {"x": "0", "t": 1e-8, "n_samples": 1_000_000_000},
    })
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and summary is None
    assert "1000000000 samples at once, over the limit of 2e+06" in err, err


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


@settings(max_examples=300, deadline=None)
@given(_mutated_scenarios())
def test_cli_contract_on_mutated_scenarios(scenario):
    """Exit 0, 1 or 2 without a traceback or a RuntimeWarning on any mutated
    scenario, and exit 1 only when the written summary records a failed
    assertion."""
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


def test_cli_env_out_dir(tmp_path, monkeypatch):
    payload = {"graph": {"family": "cycle", "n": 4}, "task": "validate"}
    scenario = write_scenario(tmp_path, "sc.json", payload)
    monkeypatch.setenv("GHC_OUT_DIR", str(tmp_path / "envout"))
    assert cli_main(["run", str(scenario)]) == 0
    assert (tmp_path / "envout" / "validate_summary.json").exists()
