import argparse
import csv
import json
import math
from fractions import Fraction

import pytest

from free_stein.cli import build_parser, main

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


def test_a_tiny_radius_gives_the_radius_zero_value(specs, capsys):
    # the multiplier of R = 1e-300 is near 1e300, and of R = 1e-40 near
    # 1e40: valid radii, solved
    assert run(["bounded", "--model", specs["semicircular1"], "--dxi", "2",
                "--radii", "0,1e-300,1e-40"]) == 0
    zero, *tiny = json.loads(capsys.readouterr().out)["points"]
    for point in tiny:
        assert point["diagnostics"]["boundary"] is True
        assert math.isfinite(point["diagnostics"]["multiplier"])
        assert abs(point["value"] - zero["value"]) <= 1e-12


@pytest.mark.parametrize("radius", ["5e-324", "1e-320"])
def test_a_subnormal_radius_overflows_the_multiplier(specs, capsys, radius):
    # the multiplier is about 1/R, beyond the largest float
    assert run(["bounded", "--model", specs["semicircular1"],
                "--radii", f"0,{radius}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"error: the KKT multiplier overflows at the radius {radius}: "
            "it exceeds the largest float") in captured.err


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


@pytest.mark.parametrize("betti, want", [
    (["--beta0", "0", "--beta1", "1"], "2"),  # the free group F_2
    ([], "1"),  # Z
    # a group of order 3, as finite-group --order 3 gives it
    (["--beta0", "1/3"], "2/3"),
])
def test_closed_form_group(capsys, betti, want):
    assert run(["closed-form", "group", *betti]) == 0
    assert json.loads(capsys.readouterr().out)["sigma_exact"] == want


@pytest.mark.parametrize("betti, named", [
    (["--beta0", "2"], "beta0 = 2, beta1 = 0"),
    (["--beta0", "-1"], "beta0 = -1, beta1 = 0"),
    (["--beta1", "-1"], "beta0 = 0, beta1 = -1"),
])
def test_closed_form_group_rejects_impossible_betti_numbers(capsys, betti,
                                                            named):
    assert run(["closed-form", "group", *betti]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


def test_a_value_beyond_a_float_is_a_validation_error(tmp_path, capsys):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"weights": {"a": "1/2", "b": "1/2"},
                                 "edges": [["a", "b", 10 ** 400]]}))
    for argv in (["staircase", "--levels", "300"],
                 ["group", "--beta1", "1e400"],
                 ["graph", "--graph", str(graph)]):
        assert run(["closed-form", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: integer division result too large "
                                "for a float\n")


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


def test_sweeps_honour_cond_limit(specs, tmp_path):
    # the two-point Gram conditions are about 58: every sweep exits 3 at a
    # limit of 1 and still writes its report (and CSV)
    out = tmp_path / "deg.json"
    csv_path = tmp_path / "deg.csv"
    code = run(["sweep-degree", "--model", specs["twopoint"], "--dxi-max", "2",
                "--cond-limit", "1.0", "--out", str(out),
                "--csv", str(csv_path)])
    assert code == 3
    points = json.loads(out.read_text())["points"]
    assert all(50 < p["gram_condition"] < 70 for p in points)
    assert abs(points[-1]["sigma"] - 0.5) < 1e-6
    assert len(csv_path.read_text().splitlines()) == 3
    out = tmp_path / "alpha.json"
    code = run(["alpha", "--model", specs["twopoint"], "--dxi", "2",
                "--radii", "0.5,1,1.5,2", "--cond-limit", "1.0",
                "--out", str(out)])
    assert code == 3
    assert len(json.loads(out.read_text())["sweep"]) == 4


def test_parser_is_shared_across_calls(specs, tmp_path, capsys):
    assert build_parser() is build_parser()
    # a usage error and --help leave the shared parser usable
    assert run(["irregularity"]) == 2
    assert "--model" in capsys.readouterr().err
    assert run(["--help"]) == 0
    assert "sweep-radius" in capsys.readouterr().out
    # no option value leaks into the next parse
    out = tmp_path / "irr.json"
    base = ["irregularity", "--model", specs["twopoint"], "--out", str(out)]
    assert run(base + ["--dxi", "3"]) == 0
    assert json.loads(out.read_text())["scheme"]["d_xi"] == 3
    assert run(base) == 0
    assert json.loads(out.read_text())["scheme"] == {"d_proj": 4, "d_xi": 2}
    # a lowered cap does not outlive its call
    assert run(base + ["--cap", "6"]) == 2
    assert "beyond the cap 6" in capsys.readouterr().err
    assert run(base) == 0


def test_cap_option_override(specs, tmp_path, capsys):
    out = tmp_path / "cap.json"
    # d_proj = 4 needs trace words of degree 8; the lowered cap rejects it
    code = run(["irregularity", "--model", specs["twopoint"], "--dxi", "2",
                "--cap", "6", "--out", str(out)])
    assert code == 2
    assert "beyond the cap 6" in capsys.readouterr().err
    code = run(["irregularity", "--model", specs["twopoint"], "--dxi", "1",
                "--dproj", "2", "--cap", "6", "--out", str(out)])
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


def test_sigma_exact_degree_beyond_cap(specs, capsys):
    # relations of degree d + 1 = 7 are scanned: cap 4 rejects them before
    # any word is evaluated, cap 4 with d = 3 is just enough
    args = ["sigma-exact", "--model", specs["ccmat"], "--cap", "4"]
    code = run(args + ["--d", "6"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: d=6 needs words of degree d + 1 = 7, "
                            "beyond the cap 4\n")
    assert captured.out == ""
    code = run(args + ["--d", "3"])
    assert code == 0
    assert abs(json.loads(capsys.readouterr().out)["sigma"] - 0.5) < 1e-10


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


def _options(parser):
    return {opt for action in parser._actions for opt in action.option_strings
            if opt != "-h" and opt != "--help"}


def _subparsers(parser):
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_each_command_takes_only_the_options_it_reads():
    model = {"--model", "--out", "--cap"}
    gram = model | {"--cond-limit"}
    degrees = gram | {"--dxi", "--dproj"}
    commands = _subparsers(build_parser())
    assert {name: _options(p) for name, p in commands.items()
            if name != "closed-form"} == {
        "discrepancy": degrees | {"--xi", "--xi-file"},
        "irregularity": degrees,
        "bounded": degrees | {"--radii", "--csv"},
        "sweep-radius": degrees | {"--radii", "--csv"},
        "sigma-exact": model | {"--d"},
        "conjugate-check": model | {"--xi", "--xi-file", "--d"},
        "sweep-degree": gram | {"--dxi-max", "--dproj-offset", "--csv"},
        "alpha": degrees | {"--radii"},
    }
    assert _options(commands["closed-form"]) == set()
    forms = {name: _options(p)
             for name, p in _subparsers(commands["closed-form"]).items()}
    assert forms == {
        "one-var": model,
        "fd": model | {"--blocks"},
        "group": {"--out", "--beta0", "--beta1"},
        "finite-group": {"--out", "--order"},
        "compressed": {"--out", "--pairs"},
        "graph": {"--out", "--graph"},
        "eps-kernel": model | {"--eps", "--grid"},
        "log-energy": model,
        "staircase": {"--out", "--levels"},
    }
    assert sum(len(opts) for opts in forms.values()) == 26


@pytest.mark.parametrize("argv", [
    # an option of another form or command
    ["closed-form", "group", "--eps", "0.5"],
    ["closed-form", "one-var", "--model", "{twopoint}", "--levels", "3"],
    ["closed-form", "staircase", "--cap", "3"],
    # the log energy refines to a fixed depth, so it takes no --level
    ["closed-form", "log-energy", "--model", "{twopoint}", "--level", "10"],
    # an option before the form name
    ["closed-form", "--model", "{twopoint}", "one-var"],
    # a form without its required input
    ["closed-form"],
    ["closed-form", "one-var"],
    ["closed-form", "fd"],
    ["closed-form", "fd", "--blocks", "2:2/3,1:1/3", "--model", "{ccmat}"],
    ["closed-form", "graph"],
    ["closed-form", "eps-kernel"],
    ["closed-form", "log-energy"],
    # --cond-limit belongs to the commands that report a Gram condition
    ["sigma-exact", "--model", "{ccmat}", "--cond-limit", "1e-300"],
    ["conjugate-check", "--model", "{semicircular2}", "--xi", "(t1, t2)",
     "--cond-limit", "1e-300"],
    # nan passes no comparison, so it would slip past a guard written as
    # one: a nan radius, eps or condition limit
    ["bounded", "--model", "{semicircular1}", "--radii", "0.5,nan"],
    ["closed-form", "eps-kernel", "--model", "{twopoint}", "--eps", "nan"],
    ["closed-form", "eps-kernel", "--model", "{twopoint}", "--eps", "inf"],
    ["irregularity", "--model", "{semicircular1}", "--cond-limit", "nan"],
    # a sweep of no points, and a check of no test word
    ["sweep-degree", "--model", "{semicircular1}", "--dxi-max", "0"],
    ["sweep-degree", "--model", "{semicircular1}", "--dxi-max", "-1"],
    ["conjugate-check", "--model", "{semicircular2}", "--xi", "(t1, t2)",
     "--d", "-1"],
])
def test_usage_errors_exit_2(specs, capsys, argv):
    argv = [a.format(**specs) for a in argv]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("argv, spec, message", [
    (["irregularity"], {"type": "semicircular"},
     "error: semicircular model spec needs the field 'n'\n"),
    (["sigma-exact"], {"type": "matrix", "blocks": [[2, 1.0]]},
     "error: matrix model spec needs the field 'generators'\n"),
    (["irregularity"], [{"type": "semicircular", "n": 1}],
     "error: a model spec must be a JSON object, got list\n"),
    (["irregularity"], {"type": "free_product"},
     "error: free_product model spec needs the field 'factors'\n"),
    (["closed-form", "graph"], {"edges": [["a", "b", 1]]},
     "error: graph spec {path} needs the fields 'weights' and 'edges'\n"),
    (["closed-form", "graph"], [],
     "error: graph spec {path} needs the fields 'weights' and 'edges'\n"),
    # fields that are present but of the wrong type
    (["irregularity"], {"type": "semicircular", "n": None},
     "error: semicircular model spec has a malformed field 'n': null\n"),
    (["irregularity"], {"type": "semicircular", "n": 2.5},
     "error: semicircular model spec has a malformed field 'n': 2.5\n"),
    (["sigma-exact"], {"type": "matrix", "blocks": [[2, 1.0]],
                       "generators": 5},
     "error: matrix model spec has a malformed field 'generators': 5\n"),
    (["irregularity"], {"type": "free_product", "factors": 3},
     "error: free_product model spec has a malformed field 'factors': 3\n"),
    (["irregularity"], {"type": "measure", "atoms": [[0.0, 0.5]],
                        "density": 3},
     "error: measure model spec has a malformed field 'density': 3\n"),
    (["irregularity"], {"type": "measure", "atoms": [[0.0, 0.5]],
                        "density": {"kind": "uniform", "b": 1.0}},
     "error: uniform density needs the field 'a'\n"),
    (["closed-form", "one-var"], {"type": "measure", "atoms": [[0.0, 0.5]],
                                  "density": {"kind": "table"}},
     "error: table density needs the field 'points'\n"),
    (["closed-form", "graph"], {"weights": {"a": 1}, "edges": [5]},
     "error: graph spec {path} has a malformed field 'edges': [5]\n"),
    # an edge multiplicity is a whole number, never read by truncation
    (["closed-form", "graph"], {"weights": {"a": 0.5, "b": 0.5},
                                "edges": [["a", "b", "x"]]},
     "error: graph spec {path} has a malformed field 'edges': "
     "[[\"a\", \"b\", \"x\"]]\n"),
    (["closed-form", "graph"], {"weights": {"a": 0.5, "b": 0.5},
                                "edges": [["a", "b", 2.5]]},
     "error: graph spec {path} has a malformed field 'edges': "
     "[[\"a\", \"b\", 2.5]]\n"),
])
def test_malformed_spec_names_the_field(tmp_path, capsys, argv, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    flag = "--graph" if argv[-1] == "graph" else "--model"
    assert run(argv + [flag, str(path)]) == 2
    assert capsys.readouterr().err == message.format(path=path)


def test_malformed_tokens_name_the_expected_form(capsys):
    assert run(["closed-form", "fd", "--blocks", "2:2/3,1"]) == 2
    assert capsys.readouterr().err == ("error: bad token '1': expected "
                                       "size:weight\n")
    assert run(["closed-form", "compressed", "--pairs", "1/2:1/2"]) == 2
    assert capsys.readouterr().err == ("error: bad token '1/2:1/2': expected "
                                       "tau_e:tau_f:eq|orth\n")
    assert run(["closed-form", "compressed", "--pairs",
                "1/2:1/2:eq,1/2:1/3:same"]) == 2
    assert capsys.readouterr().err == ("error: bad token '1/2:1/3:same': "
                                       "expected tau_e:tau_f:eq|orth\n")
    # surrounding blanks and empty tokens are accepted, as for --radii
    assert run(["closed-form", "compressed", "--pairs",
                "1/2:1/3: orth ,, 1/4:1/4:eq"]) == 0
    assert json.loads(capsys.readouterr().out)["tuple_length"] == 3


def test_closed_form_fd_reads_a_matrix_model(specs, capsys):
    assert run(["closed-form", "fd", "--model", specs["ccmat"]]) == 0
    assert json.loads(capsys.readouterr().out)["sigma_exact"] == "1/2"
    assert run(["closed-form", "fd", "--model", specs["twopoint"]]) == 2
    assert capsys.readouterr().err == "error: fd needs a matrix model\n"


@pytest.mark.parametrize("blocks, want", [
    ([(2, 2 / 3), (1, 1 / 3)], "7/9"),
    ([(1, 0.3), (1, 0.7)], "21/50"),
    ([(2, 0.25), (1, 0.75)], "27/64"),
])
def test_closed_form_fd_reads_float_model_weights(tmp_path, capsys, blocks,
                                                 want):
    # the weights of a spec are binary floats whose exact sum is not 1; each
    # is read as the nearest small fraction, as --blocks would give it
    gens = [[[[[float(i) if i == j else 0.0, 0.0] for j in range(k)]
              for i in range(k)] for k, _ in blocks]]
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"type": "matrix", "blocks": blocks,
                                "generators": gens}))
    assert run(["closed-form", "fd", "--model", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["sigma_exact"] == want
    spec = ",".join(f"{k}:{Fraction(lam).limit_denominator(100)}"
                    for k, lam in blocks)
    assert run(["closed-form", "fd", "--blocks", spec]) == 0
    assert json.loads(capsys.readouterr().out)["sigma_exact"] == want


def test_closed_form_fd_names_a_weight_that_rounds_to_zero(tmp_path, capsys):
    # a positive weight below the 1e-6 resolution of --model weights reads
    # as 0: the error names that block, not the model's validity
    path = tmp_path / "model.json"
    path.write_text(json.dumps(
        {"type": "matrix", "blocks": [[1, 1e-7], [1, 1 - 1e-7]],
         "generators": [[[[[0.0, 0.0]]], [[[1.0, 0.0]]]]]}))
    assert run(["closed-form", "fd", "--model", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: block 0 (size 1) has weight 1e-07, which rounds to 0 at the "
        "1e-6 resolution of --model weights; give the exact weights with "
        "--blocks\n")
    assert run(["closed-form", "fd", "--blocks",
                "1:1/10000000,1:9999999/10000000"]) == 0
    assert json.loads(capsys.readouterr().out)["sigma_exact"] == \
        str(1 - Fraction(1, 10 ** 14) - Fraction(9999999, 10 ** 7) ** 2)


def test_closed_form_fd_keeps_the_exact_weight_sum(tmp_path, capsys):
    # the float weights sum to 1 and the model loads, but their nearest small
    # fractions sum to 1 - 1.4e-12: fd_sigma still rejects them
    weights = [0.1234567, 0.2345678, 0.6419755]
    assert sum(weights) == 1.0
    path = tmp_path / "model.json"
    path.write_text(json.dumps(
        {"type": "matrix", "blocks": [[1, w] for w in weights],
         "generators": [[[[[1.0, 0.0]]], [[[0.0, 0.0]]], [[[-1.0, 0.0]]]]]}))
    assert run(["closed-form", "fd", "--model", str(path)]) == 2
    assert capsys.readouterr().err == "error: block weights must sum to 1\n"


def test_empty_sweep_and_negative_check_degree_name_the_bound(specs,
                                                              capsys):
    for dxi_max in ("0", "-3"):
        assert run(["sweep-degree", "--model", specs["twopoint"],
                    "--dxi-max", dxi_max]) == 2
        assert capsys.readouterr().err == "error: d_xi must be at least 1\n"
    assert run(["conjugate-check", "--model", specs["semicircular2"],
                "--xi", "(t1, t2)", "--d", "-1"]) == 2
    assert capsys.readouterr().err == "error: d must be at least 0\n"
    assert run(["conjugate-check", "--model", specs["semicircular2"],
                "--xi", "(t1, t2)", "--d", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["residual"] == 0.0


def _point_by_point_sweep(argv):
    """Oracle only: the exit code and stderr of ``sweep-degree`` as it ran
    before one Gram system served the sweep, one estimate per point in
    order, stopping at the first error."""
    from free_stein.errors import FreeSteinError
    from free_stein.stein import DegreeScheme, irregularity_estimate
    from free_stein.trace import load_model

    args = build_parser().parse_args(argv)
    try:
        model = load_model(args.model, cap=args.cap)
        for dxi in range(1, args.dxi_max + 1):
            irregularity_estimate(
                model, DegreeScheme(dxi, dxi + args.dproj_offset))
    except FreeSteinError as exc:
        return 2, f"error: {exc}\n"
    return None


@pytest.mark.parametrize("options", [
    ["--dxi-max", "4"],
    ["--dxi-max", "6"],
    ["--dxi-max", "3", "--cap", "8"],
    ["--dxi-max", "2", "--dproj-offset", "0", "--cap", "4"],
    ["--dxi-max", "3", "--dproj-offset", "-1"],
    ["--dxi-max", "1", "--dproj-offset", "-4"],
    ["--dxi-max", "5", "--dproj-offset", "3", "--cap", "14"],
])
@pytest.mark.parametrize("name", ["semicircular1", "semicircular2",
                                  "twopoint", "ccmat"])
def test_failing_degree_sweeps_keep_their_error(specs, tmp_path, capsys,
                                                name, options):
    out, csv_path = tmp_path / "deg.json", tmp_path / "deg.csv"
    argv = ["sweep-degree", "--model", specs[name], *options]
    expected = _point_by_point_sweep(argv)
    assert expected is not None
    code = run(argv + ["--out", str(out), "--csv", str(csv_path)])
    captured = capsys.readouterr()
    assert (code, captured.err) == expected
    assert captured.out == ""
    assert not out.exists() and not csv_path.exists()


def test_sweep_warnings_name_each_point(specs, tmp_path, capsys):
    code = run(["sweep-degree", "--model", specs["twopoint"], "--dxi-max", "1",
                "--cond-limit", "1"])
    assert code == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out)["kind"] == "degree-sweep"
    assert captured.err == ("warning: Gram condition 5.828e+01 at d_xi=1 "
                            "exceeds limit 1.0e+00\n")
    out = tmp_path / "bounded.json"
    code = run(["bounded", "--model", specs["twopoint"], "--dxi", "2",
                "--radii", "0.5,1,2.5", "--cond-limit", "1",
                "--out", str(out)])
    assert code == 3
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(" at ")[1].split()[0] for line in lines] == [
        "radius=0.5", "radius=1", "radius=2.5"]
    assert all(line.startswith("warning: Gram condition ") and
               line.endswith(" exceeds limit 1.0e+00") for line in lines)
    assert len(json.loads(out.read_text())["points"]) == 3
    # no warning at the default limit
    assert run(["bounded", "--model", specs["twopoint"], "--dxi", "2",
                "--radii", "0.5,1", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""


def test_eps_whose_fourth_power_underflows_exits_2(specs, capsys):
    code = run(["closed-form", "eps-kernel", "--model", specs["twopoint"],
                "--eps", "1e-170"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "underflows" in captured.err and "Traceback" not in captured.err


def _strict_loads(text):
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_infinite_radius_is_written_as_strict_json(specs, capsys):
    assert run(["bounded", "--model", specs["semicircular1"],
                "--radii", "0.5,inf"]) == 0
    points = _strict_loads(capsys.readouterr().out)["points"]
    assert [p["radius"] for p in points] == [0.5, "inf"]
    assert points[1]["diagnostics"]["radius"] == "inf"


def test_report_writer_spells_infinities_and_refuses_nan(capsys):
    from free_stein.cli import _write_json
    args = argparse.Namespace(out=None)
    payload = {"gram_condition": math.inf, "trail": [[1, -math.inf], [2, 0.5]]}
    assert _write_json(args, payload) == 0
    assert _strict_loads(capsys.readouterr().out) == {
        "gram_condition": "inf", "trail": [[1, "-inf"], [2, 0.5]]}
    with pytest.raises(ValueError, match="not JSON compliant"):
        _write_json(args, {"value": math.nan})


def _exits_2_without_a_report(tmp_path, capsys, argv, message):
    """``argv`` with ``{out}`` set to a report path exits 2, prints exactly
    ``error: <message>``, and writes no report."""
    out = tmp_path / "report.json"
    assert run([a.format(out=out) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == "" and not out.exists()


# JSON reads Infinity and NaN; the model constructors reject them
NON_FINITE = [
    (["closed-form", "log-energy"],
     '{"type": "measure", "density": {"kind": "semicircle", '
     '"center": Infinity}}', "semicircle center must be finite"),
    (["closed-form", "one-var"],
     '{"type": "measure", "atoms": [[Infinity, 1.0]]}',
     "atom locations must be finite"),
    (["irregularity", "--dxi", "1"],
     '{"type": "measure", "atoms": [[-1.0, 0.5], [1.0, NaN]]}',
     "atom masses must be finite"),
    # the atoms are checked before a density takes the rest of the mass
    (["irregularity", "--dxi", "1"],
     '{"type": "measure", "atoms": [[-1.0, 0.5], [1.0, NaN]], '
     '"density": {"kind": "semicircle"}}', "atom masses must be finite"),
    (["irregularity", "--dxi", "1"],
     '{"type": "matrix", "blocks": [[1, 0.5], [1, 0.5]], '
     '"generators": [[[[[Infinity, 0.0]]], [[[-1.0, 0.0]]]]]}',
     "generator entries must be finite"),
    (["sigma-exact"],
     '{"type": "matrix", "blocks": [[1, NaN], [1, 0.5]], '
     '"generators": [[[[[1.0, 0.0]]], [[[-1.0, 0.0]]]]]}',
     "block weights must be finite"),
    (["closed-form", "log-energy"],
     '{"type": "measure", "density": {"kind": "uniform", "a": 0, '
     '"b": Infinity}}', "uniform density b must be finite"),
    (["closed-form", "log-energy"],
     '{"type": "measure", "density": {"kind": "table", '
     '"points": [[0, 1], [Infinity, 1]]}}',
     "table density points must be finite"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, text, message", NON_FINITE,
                         ids=[m for _, _, m in NON_FINITE])
def test_non_finite_spec_numbers_name_the_field(tmp_path, capsys, argv, text,
                                                message):
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    _exits_2_without_a_report(
        tmp_path, capsys, argv + ["--model", str(spec), "--out", "{out}"],
        message)


CCMAT_TEXT = json.dumps(CCMAT)
SEMI2_TEXT = json.dumps(SEMI2)


@pytest.mark.parametrize("argv, text, message", [
    (["irregularity"], '{"type": "measure", "atoms": [[0.0, -0.5], '
     '[1.0, 1.5]]}', "atom masses must be positive"),
    (["closed-form", "one-var"], '{"type": "measure", "atoms": '
     '[[0.0, 0.5]], "density": {"kind": "weird"}}',
     "unknown density kind 'weird'"),
    (["closed-form", "one-var"], '{"type": "measure", "atoms": '
     '[[0.0, 1.0]], "density": {"kind": "semicircle"}}',
     "density mass must be positive"),
    (["closed-form", "log-energy"], '{"type": "measure", "density": '
     '{"kind": "uniform", "a": 1, "b": 0}}',
     "uniform density needs b > a and positive mass"),
    (["closed-form", "log-energy"], '{"type": "measure", "density": '
     '{"kind": "semicircle", "radius": -1}}',
     "semicircle radius and mass must be positive"),
    (["closed-form", "log-energy"], '{"type": "measure", "density": '
     '{"kind": "table", "points": [[0, 1]]}}',
     "table density needs >= 2 points with rho >= 0"),
    (["closed-form", "log-energy"], '{"type": "measure", "density": '
     '{"kind": "table", "points": [[0, 0], [1, 0]]}}',
     "table density has zero mass"),
    (["sigma-exact"], '{"type": "matrix", "blocks": [[1, 1.0]], '
     '"generators": []}', "need at least one generator"),
    (["sigma-exact"], '{"type": "matrix", "blocks": [[0, 1.0]], '
     '"generators": [[[]]]}', "blocks must be (size >= 1, weight > 0) pairs"),
    (["irregularity"], '{"type": "free_product", "factors": []}',
     "free product needs at least one factor"),
    (["irregularity"], "not json",
     "malformed model spec {spec}: Expecting value: line 1 column 1 "
     "(char 0)"),
    (["discrepancy"], SEMI2_TEXT,
     "missing xi (use --xi or --xi-file) (at position 0)"),
    (["bounded", "--radii", ","], SEMI2_TEXT, "empty radius list"),
    (["discrepancy", "--xi", "(t1, t2"], SEMI2_TEXT,
     "expected ')', found ',' (at position 3)"),
    (["discrepancy", "--xi", "t1^t2"], SEMI2_TEXT,
     "exponent must be a nonnegative integer (at position 3)"),
    (["conjugate-check", "--xi", "(t1)"], SEMI2_TEXT,
     "xi must have one entry per generator"),
    (["sigma-exact", "--d", "0"], CCMAT_TEXT, "d must be at least 1"),
], ids=["atom mass", "density kind", "density mass", "uniform bounds",
        "semicircle radius", "one-point table", "zero table",
        "no generators", "block size", "no factors", "not json", "no xi",
        "no radii", "xi bracket", "xi exponent", "xi length", "d"])
def test_each_input_guard_exits_2_without_a_report(tmp_path, capsys, argv,
                                                   text, message):
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    _exits_2_without_a_report(
        tmp_path, capsys, argv + ["--model", str(spec), "--out", "{out}"],
        message.format(spec=spec))


def test_group_order_guard_exits_2_without_a_report(tmp_path, capsys):
    _exits_2_without_a_report(
        tmp_path, capsys,
        ["closed-form", "finite-group", "--order", "0", "--out", "{out}"],
        "group order must be at least 1")


def test_xi_file_gives_the_bytes_of_xi(specs, tmp_path):
    text = "(t1 + t1*t2 - t1*t2, t2)"
    xi = tmp_path / "xi.txt"
    xi.write_text(text + "\n")
    for command in (["discrepancy"], ["conjugate-check", "--d", "4"]):
        base = command + ["--model", specs["semicircular2"]]
        from_file, from_text = tmp_path / "file.json", tmp_path / "text.json"
        assert run(base + ["--xi-file", str(xi), "--out", str(from_file)]) == 0
        assert run(base + ["--xi", text, "--out", str(from_text)]) == 0
        assert from_file.read_bytes() == from_text.read_bytes()
