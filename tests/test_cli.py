import csv
import json
import math

import pytest

from free_stein.cli import main

SEMI1 = {"type": "semicircular", "n": 1}
SEMI2 = {"type": "semicircular", "n": 2}
TWOPOINT = {"type": "measure", "atoms": [[-1.0, 0.5], [1.0, 0.5]]}
CCMAT = {"type": "matrix", "blocks": [[1, 0.5], [1, 0.5]],
         "generators": [[[[[1.0, 0.0]]], [[[-1.0, 0.0]]]]]}


@pytest.fixture
def specs(tmp_path):
    paths = {}
    for name, spec in [("semicircular1", SEMI1), ("semicircular2", SEMI2),
                       ("twopoint", TWOPOINT), ("ccmat", CCMAT)]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(spec))
        paths[name] = str(p)
    return paths


def run(args):
    return main(args)


def test_irregularity_semicircular2(specs, tmp_path):
    out = tmp_path / "irr.json"
    code = run(["irregularity", "--model", specs["semicircular2"],
                "--dxi", "2", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["schema"] == "free-stein/1"
    assert abs(data["sigma"] - 2) < 1e-6


def test_closed_form_one_var(specs, capsys):
    code = run(["closed-form", "one-var", "--model", specs["twopoint"]])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["sigma"] == 0.5


def test_sweep_radius_hits_zero_at_one(specs, tmp_path):
    out = tmp_path / "sweep.json"
    csv_path = tmp_path / "sweep.csv"
    code = run(["sweep-radius", "--model", specs["semicircular1"],
                "--dxi", "2", "--radii", "0.25,0.5,1,2",
                "--out", str(out), "--csv", str(csv_path)])
    assert code == 0
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["parameter", "value", "diagnostics"]
    values = {float(r): v for r, v, _ in rows[1:]}
    assert float(values[1.0]) < 1e-8
    assert float(values[2.0]) < 1e-8
    assert float(values[0.5]) > 0.05


def test_sweep_radius_is_bounded(specs, tmp_path):
    outputs = []
    for command in ("bounded", "sweep-radius"):
        out = tmp_path / f"{command}.json"
        csv_path = tmp_path / f"{command}.csv"
        code = run([command, "--model", specs["semicircular1"], "--dxi", "2",
                    "--radii", "0.25,0.5,1,2", "--out", str(out),
                    "--csv", str(csv_path)])
        assert code == 0
        outputs.append((out.read_bytes(), csv_path.read_bytes()))
    assert outputs[0] == outputs[1]


def test_discrepancy_and_conjugate(specs, tmp_path):
    out = tmp_path / "disc.json"
    code = run(["discrepancy", "--model", specs["semicircular1"],
                "--xi", "(t1)", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["value"] < 1e-8
    assert data["trail"]
    out2 = tmp_path / "conj.json"
    code = run(["conjugate-check", "--model", specs["semicircular2"],
                "--xi", "(t1, t2)", "--out", str(out2)])
    assert code == 0
    data2 = json.loads(out2.read_text())
    assert data2["residual"] < 1e-10
    assert abs(data2["fisher_info"] - 2) < 1e-12


def test_sigma_exact_cli(specs, capsys):
    code = run(["sigma-exact", "--model", specs["ccmat"], "--d", "2"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["sigma"] - 0.5) < 1e-10
    assert data["mode"] == "exact_fd"


def test_sweep_degree(specs, tmp_path):
    out = tmp_path / "deg.json"
    csv_path = tmp_path / "deg.csv"
    code = run(["sweep-degree", "--model", specs["twopoint"],
                "--dxi-max", "2", "--out", str(out), "--csv", str(csv_path)])
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["points"]) == 2
    sigmas = [p["sigma"] for p in data["points"]]
    assert abs(sigmas[-1] - 0.5) < 1e-6


def test_alpha_cli(specs, capsys):
    code = run(["alpha", "--model", specs["semicircular1"], "--dxi", "2",
                "--radii", "0.5,1,1.5,2"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["alpha"] == "-inf"


def test_closed_form_misc(tmp_path, capsys):
    code = run(["closed-form", "fd", "--blocks", "2:2/3,1:1/3"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["sigma_exact"] == "7/9"

    code = run(["closed-form", "finite-group", "--order", "3"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0 and data["sigma_exact"] == "2/3"

    code = run(["closed-form", "compressed", "--pairs", "1/2:1/2:eq"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0 and data["t_exact"] == "5/4"

    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"weights": {"a": "1/2", "b": "1/2"},
                                 "edges": [["a", "b", 1]]}))
    code = run(["closed-form", "graph", "--graph", str(graph)])
    data = json.loads(capsys.readouterr().out)
    assert code == 0 and data["t_exact"] == "1"

    code = run(["closed-form", "staircase", "--levels", "6"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0 and data["trail"][-1][1] < -1e6


def test_log_energy_and_eps_cli(specs, tmp_path, capsys):
    uniform = tmp_path / "uniform.json"
    uniform.write_text(json.dumps(
        {"type": "measure", "atoms": [],
         "density": {"kind": "uniform", "a": 0.0, "b": 1.0}}))
    code = run(["closed-form", "log-energy", "--model", str(uniform)])
    data = json.loads(capsys.readouterr().out)
    assert code == 0 and abs(data["value"] + 1.5) < 1e-6

    code = run(["closed-form", "log-energy", "--model", specs["twopoint"]])
    data = json.loads(capsys.readouterr().out)
    assert code == 0 and data["value"] == "-inf" and not data["finite"]

    code = run(["closed-form", "eps-kernel", "--model", specs["twopoint"],
                "--eps", "0.001"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0 and abs(data["bound"] - 0.5) < 1e-3

    code = run(["closed-form", "eps-kernel", "--model", str(uniform),
                "--eps", "0.1"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0 and abs(data["bound"] - 0.1 * math.atan(10.0)) < 1e-10


def test_validation_exit_codes(specs, tmp_path, capsys):
    # unknown generator in xi text
    code = run(["discrepancy", "--model", specs["twopoint"], "--xi", "(t3)"])
    assert code == 2
    # missing model file
    code = run(["irregularity", "--model", str(tmp_path / "nope.json"),
                "--dxi", "1"])
    assert code == 2
    # malformed model spec names the problem
    bad = tmp_path / "bad.json"
    bad.write_text("{\"type\": \"measure\", \"atoms\": [[0.0, 0.25]]}")
    code = run(["closed-form", "one-var", "--model", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "mass" in err
    # unknown subcommand exits 2 via argparse
    code = run(["frobnicate"])
    assert code == 2
    # wrong model kind for sigma-exact
    code = run(["sigma-exact", "--model", specs["semicircular1"]])
    assert code == 2


def test_diagnostic_exit_code(specs, tmp_path):
    out = tmp_path / "diag.json"
    code = run(["irregularity", "--model", specs["twopoint"], "--dxi", "2",
                "--cond-limit", "1.0", "--out", str(out)])
    assert code == 3
    # partial output still written
    data = json.loads(out.read_text())
    assert abs(data["sigma"] - 0.5) < 1e-6


def test_env_cap_override(specs, tmp_path, monkeypatch):
    monkeypatch.setenv("FREE_STEIN_CAP", "6")
    out = tmp_path / "cap.json"
    # d_proj = 4 needs trace words of degree 8; the lowered cap rejects it
    code = run(["irregularity", "--model", specs["twopoint"], "--dxi", "2",
                "--out", str(out)])
    assert code == 2
    code = run(["irregularity", "--model", specs["twopoint"], "--dxi", "1",
                "--dproj", "2", "--out", str(out)])
    assert code == 0


def test_design_degree_beyond_cap(specs, tmp_path, capsys):
    # d_proj = 1 passes the Gram guard (degree 4 <= 6), but the design
    # pairs degree-5 candidates with the basis in words of degree 7
    out = tmp_path / "design.json"
    code = run(["irregularity", "--model", specs["semicircular1"], "--dxi", "5",
                "--dproj", "1", "--cap", "6", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "d_proj + d_xi + 1 = 7, beyond the cap 6" in err
    assert not out.exists()
    code = run(["irregularity", "--model", specs["semicircular1"], "--dxi", "5",
                "--dproj", "1", "--cap", "7", "--out", str(out)])
    assert code == 0


def test_candidate_gram_degree_beyond_cap(specs, tmp_path, capsys):
    # the design needs degree 7 <= 7, but the candidate Gram pairs two
    # degree-5 candidates in words of degree 10
    out = tmp_path / "bounded.json"
    args = ["bounded", "--model", specs["semicircular1"], "--dxi", "5",
            "--dproj", "1", "--radii", "1", "--out", str(out)]
    code = run(args + ["--cap", "7"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == ("error: d_xi=5 needs candidate Gram words of degree "
                   "2*d_xi = 10, beyond the cap 7\n")
    assert not out.exists()
    code = run(args + ["--cap", "10"])
    assert code == 0
    assert json.loads(out.read_text())["points"][0]["radius"] == 1.0


def test_matrix_entry_must_be_a_pair(tmp_path, capsys):
    spec = tmp_path / "plain.json"
    spec.write_text(json.dumps({
        "type": "matrix", "blocks": [[2, 1.0]],
        "generators": [[[[1.0, 0.0], [0.0, -1.0]]]]}))
    code = run(["sigma-exact", "--model", str(spec)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: matrix entries must be [re, im] pairs, got 1.0\n"
    spec.write_text(json.dumps({"type": "matrix", "blocks": [[2, 1.0]],
                                "generators": [[[1.0, -1.0]]]}))
    code = run(["sigma-exact", "--model", str(spec)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == ("error: matrices must be lists of rows of [re, im] pairs, "
                   "got [1.0, -1.0]\n")


def test_determinism_across_runs_and_threads(specs, tmp_path):
    outs = []
    for tag in ("a", "b", "c"):
        out = tmp_path / f"det_{tag}.json"
        code = run(["irregularity", "--model", specs["semicircular2"],
                    "--dxi", "2", "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]
