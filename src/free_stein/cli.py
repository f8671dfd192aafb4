"""Command-line front end.

One subcommand per quantity, plus first-class degree/radius sweeps so the
monotone convergence trails are a single command.  Reports are JSON
(schema ``free-stein/1``), sweeps optionally CSV with a
``parameter,value,diagnostics`` header.  Exit codes: 0 success, 2 validation
error, 3 numerical diagnostics (ill-conditioned Gram), with partial output
still written.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from fractions import Fraction

from .closedform import (CompressedGeneratorSpec, GraphSpec,
                         compressed_semicircular_sigma, eps_kernel, fd_sigma,
                         finite_group_sigma, graph_sigma, group_sigma,
                         log_energy, one_var_sigma, staircase_energy_trail)
from .errors import FreeSteinError, ParseError
from .parser import parse_poly_tuple
from .stein import (DegreeScheme, alpha_estimate, conjugate_variable_check,
                    discrepancy, irregularity_estimate,
                    radius_sweep, sigma_exact_fd)
from .trace import MatrixModel, MeasureModel, load_model

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIAGNOSTIC = 3


def _write_json(args, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_csv(path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["parameter", "value", "diagnostics"])
        writer.writerows(rows)


def _scheme(args, default_dxi=2) -> DegreeScheme:
    dxi = args.dxi if args.dxi is not None else default_dxi
    return DegreeScheme(dxi, args.dproj)


def _parse_xi(args, model):
    if getattr(args, "xi_file", None):
        with open(args.xi_file, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = args.xi
    if text is None:
        raise ParseError("missing xi (use --xi or --xi-file)", 0)
    return parse_poly_tuple(text, model.system)


def _check_condition(args, report) -> int:
    cond = getattr(report, "gram_condition", float("nan"))
    if cond == cond and cond > args.cond_limit:
        print(f"warning: Gram condition {cond:.3e} exceeds limit "
              f"{args.cond_limit:.1e}", file=sys.stderr)
        return EXIT_DIAGNOSTIC
    return EXIT_OK


def _sweep_condition(args, conditions) -> int:
    """Exit code of a sweep: 3 when any point's Gram condition exceeds the limit."""
    if any(cond > args.cond_limit for cond in conditions):
        return EXIT_DIAGNOSTIC
    return EXIT_OK


def _radii(text):
    out = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    if not out:
        raise ValueError("empty radius list")
    return out


# -- subcommand handlers -------------------------------------------------------


def _cmd_discrepancy(args) -> int:
    model = load_model(args.model, cap=args.cap)
    xi = _parse_xi(args, model)
    default_dxi = max(1, max((p.degree() for p in xi), default=1))
    rep = discrepancy(model, xi, _scheme(args, default_dxi))
    _write_json(args, rep.to_json())
    return _check_condition(args, rep)


def _cmd_irregularity(args) -> int:
    model = load_model(args.model, cap=args.cap)
    rep = irregularity_estimate(model, _scheme(args))
    _write_json(args, rep.to_json())
    return _check_condition(args, rep)


def _cmd_bounded(args) -> int:
    model = load_model(args.model, cap=args.cap)
    sweep = radius_sweep(model, _scheme(args), _radii(args.radii))
    payload = {"schema": "free-stein/1", "kind": "bounded-sweep",
               "points": [{"radius": r, "value": rep.value,
                           "diagnostics": rep.diagnostics}
                          for r, rep in sweep]}
    _write_json(args, payload)
    if args.csv:
        _write_csv(args.csv, [(r, rep.value,
                               f"boundary={rep.diagnostics.get('boundary')}")
                              for r, rep in sweep])
    return _sweep_condition(args, (rep.gram_condition for _, rep in sweep))


def _cmd_sigma_exact(args) -> int:
    model = load_model(args.model, cap=args.cap)
    if not isinstance(model, MatrixModel):
        raise FreeSteinError("sigma-exact needs a matrix model")
    rep = sigma_exact_fd(model, d=args.d)
    _write_json(args, rep.to_json())
    return EXIT_OK


def _cmd_conjugate(args) -> int:
    model = load_model(args.model, cap=args.cap)
    xi = _parse_xi(args, model)
    rep = conjugate_variable_check(model, xi, d=args.d)
    _write_json(args, rep.to_json())
    return EXIT_OK


def _cmd_sweep_degree(args) -> int:
    model = load_model(args.model, cap=args.cap)
    rows = []
    points = []
    for dxi in range(1, args.dxi_max + 1):
        scheme = DegreeScheme(dxi, dxi + args.dproj_offset)
        rep = irregularity_estimate(model, scheme)
        points.append({"d_xi": dxi, "d_proj": scheme.d_proj,
                       "irregularity": rep.irregularity, "sigma": rep.sigma,
                       "gram_condition": rep.gram_condition})
        rows.append((f"dxi={dxi};dproj={scheme.d_proj}", rep.sigma,
                     f"irregularity={rep.irregularity};"
                     f"cond={rep.gram_condition:.6e}"))
    _write_json(args, {"schema": "free-stein/1", "kind": "degree-sweep",
                       "points": points})
    if args.csv:
        _write_csv(args.csv, rows)
    return _sweep_condition(args, (p["gram_condition"] for p in points))


def _cmd_alpha(args) -> int:
    model = load_model(args.model, cap=args.cap)
    sweep = radius_sweep(model, _scheme(args), _radii(args.radii))
    rep = alpha_estimate([(r, s.value) for r, s in sweep])
    payload = rep.to_json()
    payload["sweep"] = [[r, s.value] for r, s in sweep]
    _write_json(args, payload)
    return _sweep_condition(args, (s.gram_condition for _, s in sweep))


def _cmd_closed_form(args) -> int:
    which = args.which
    if which == "one-var":
        model = load_model(args.model, cap=args.cap)
        if not isinstance(model, MeasureModel):
            raise FreeSteinError("one-var needs a measure model")
        sig2, sigma = one_var_sigma(model)
        _write_json(args, {"schema": "free-stein/1", "kind": "one-var",
                           "irregularity_sq": float(sig2),
                           "sigma": float(sigma)})
        return EXIT_OK
    if which == "fd":
        if args.blocks:
            blocks = [(int(k), Fraction(lam)) for k, lam in
                      (tok.split(":") for tok in args.blocks.split(","))]
        else:
            model = load_model(args.model, cap=args.cap)
            if not isinstance(model, MatrixModel):
                raise FreeSteinError("fd needs --blocks or a matrix model")
            blocks = model.blocks
        sigma = fd_sigma(blocks)
        _write_json(args, {"schema": "free-stein/1", "kind": "fd",
                           "sigma": float(sigma), "sigma_exact": str(sigma)})
        return EXIT_OK
    if which == "group":
        sigma = group_sigma(Fraction(args.beta0), Fraction(args.beta1))
        _write_json(args, {"schema": "free-stein/1", "kind": "group",
                           "sigma": float(sigma), "sigma_exact": str(sigma)})
        return EXIT_OK
    if which == "finite-group":
        sigma = finite_group_sigma(args.order)
        _write_json(args, {"schema": "free-stein/1", "kind": "finite-group",
                           "sigma": float(sigma), "sigma_exact": str(sigma)})
        return EXIT_OK
    if which == "compressed":
        pairs = []
        for tok in args.pairs.split(","):
            if not tok.strip():
                continue
            te, tf, mode = tok.split(":")
            pairs.append((Fraction(te), Fraction(tf), mode.strip() == "eq"))
        rep = compressed_semicircular_sigma(CompressedGeneratorSpec(pairs))
        _write_json(args, rep.to_json())
        return EXIT_OK
    if which == "graph":
        with open(args.graph, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        weights = [(v, Fraction(str(w))) for v, w in data["weights"].items()] \
            if isinstance(data["weights"], dict) else \
            [(v, Fraction(str(w))) for v, w in data["weights"]]
        spec = GraphSpec(weights, data["edges"])
        _write_json(args, graph_sigma(spec).to_json())
        return EXIT_OK
    if which == "eps-kernel":
        model = load_model(args.model, cap=args.cap)
        if not isinstance(model, MeasureModel):
            raise FreeSteinError("eps-kernel needs a measure model")
        rep = eps_kernel(model, args.eps, grid_points=args.grid)
        _write_json(args, rep.to_json())
        return EXIT_OK
    if which == "log-energy":
        model = load_model(args.model, cap=args.cap)
        if not isinstance(model, MeasureModel):
            raise FreeSteinError("log-energy needs a measure model")
        val = log_energy(model, level=args.level)
        _write_json(args, {"schema": "free-stein/1", "kind": "log-energy",
                           "value": val if val == val and abs(val) != float("inf")
                           else "-inf", "finite": abs(val) != float("inf")})
        return EXIT_OK
    if which == "staircase":
        trail = staircase_energy_trail(args.levels)
        _write_json(args, {"schema": "free-stein/1", "kind": "staircase",
                           "trail": [[k, float(v)] for k, v in trail]})
        return EXIT_OK
    raise FreeSteinError(f"unknown closed form {which!r}")


# -- parser ---------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing never mutates it."""
    ap = argparse.ArgumentParser(
        prog="free-stein",
        description="Stein discrepancy, irregularity and dimension of "
                    "noncommutative tuples")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, model=True):
        if model:
            p.add_argument("--model", required=True, help="model spec JSON")
        p.add_argument("--out", help="write the JSON report here")
        p.add_argument("--cap", type=int, default=None,
                       help="degree cap override (also FREE_STEIN_CAP)")
        p.add_argument("--cond-limit", type=float, default=1e12,
                       help="Gram condition number beyond which exit code is 3")

    def degrees(p):
        p.add_argument("--dxi", type=int, default=None,
                       help="max degree of candidate conjugate tuples")
        p.add_argument("--dproj", type=int, default=None,
                       help="tensor-degree bound of the projection basis "
                            "(default dxi + 2)")

    p = sub.add_parser("discrepancy", help="Stein discrepancy for a given xi")
    common(p)
    degrees(p)
    p.add_argument("--xi", help="xi tuple, e.g. '(t1, t2)'")
    p.add_argument("--xi-file", help="file containing the xi tuple text")
    p.set_defaults(func=_cmd_discrepancy)

    p = sub.add_parser("irregularity", help="minimize the discrepancy over xi")
    common(p)
    degrees(p)
    p.set_defaults(func=_cmd_irregularity)

    p = sub.add_parser("bounded", aliases=["sweep-radius"],
                       help="irregularity under a norm constraint")
    common(p)
    degrees(p)
    p.add_argument("--radii", required=True, help="comma-separated radii")
    p.add_argument("--csv", help="write a parameter,value,diagnostics CSV")
    p.set_defaults(func=_cmd_bounded)

    p = sub.add_parser("sigma-exact", help="exact dimension of a matrix model")
    common(p)
    p.add_argument("--d", type=int, default=3,
                   help="tensor-degree bound of the relation subspace")
    p.set_defaults(func=_cmd_sigma_exact)

    p = sub.add_parser("conjugate-check",
                       help="residual of the conjugate-variable identity")
    common(p)
    p.add_argument("--xi", help="xi tuple text")
    p.add_argument("--xi-file")
    p.add_argument("--d", type=int, default=4, help="test monomial degree")
    p.set_defaults(func=_cmd_conjugate)

    p = sub.add_parser("sweep-degree", help="irregularity along growing degrees")
    common(p)
    p.add_argument("--dxi-max", type=int, required=True)
    p.add_argument("--dproj-offset", type=int, default=2)
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_sweep_degree)

    p = sub.add_parser("alpha", help="decay exponent of the bounded sweep")
    common(p)
    degrees(p)
    p.add_argument("--radii", required=True)
    p.set_defaults(func=_cmd_alpha)

    p = sub.add_parser("closed-form", help="closed-form evaluators")
    p.add_argument("which", choices=["one-var", "fd", "group", "finite-group",
                                     "compressed", "graph", "eps-kernel",
                                     "log-energy", "staircase"])
    p.add_argument("--model")
    p.add_argument("--out")
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--blocks", help="fd blocks, e.g. '2:2/3,1:1/3'")
    p.add_argument("--beta0", default="0")
    p.add_argument("--beta1", default="0")
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--pairs", default="",
                   help="compressed pairs 'tau_e:tau_f:eq|orth,...'")
    p.add_argument("--graph", help="graph spec JSON path")
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--grid", type=int, default=41)
    p.add_argument("--level", type=int, default=10)
    p.add_argument("--levels", type=int, default=6)
    p.set_defaults(func=_cmd_closed_form)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (FreeSteinError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
