import json
import math

import numpy as np
import pytest

from graphheat.cli import main as cli_main
from graphheat.errors import InvalidParams, ParseError
from graphheat.families import build_family, parity_subset
from graphheat.graph import validate_assumptions
from graphheat.scenarios import (
    Scenario,
    dumps_deterministic,
    load_scenario,
    run_scenario,
    scenario_from_dict,
)


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
    from graphheat.graph import graph_to_json

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
    scenarios = [
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
    ]
    weak_obs = write_scenario(tmp_path, "weak_obs.json", {
        "graph": cycle4, "subset": {"ids": ["0"]}, "task": "weak-obs",
    })
    runs = [[str(scenario)] for scenario in scenarios] + [[str(weak_obs), "--seed", "-1"]]
    for args in runs:
        assert cli_main(["run", *args, "--out", str(tmp_path / "out")]) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err, err


def test_cli_env_out_dir(tmp_path, monkeypatch):
    payload = {"graph": {"family": "cycle", "n": 4}, "task": "validate"}
    scenario = write_scenario(tmp_path, "sc.json", payload)
    monkeypatch.setenv("GHC_OUT_DIR", str(tmp_path / "envout"))
    assert cli_main(["run", str(scenario)]) == 0
    assert (tmp_path / "envout" / "validate_summary.json").exists()
