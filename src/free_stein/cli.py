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
import math
import sys
from fractions import Fraction

from .closedform import (CompressedGeneratorSpec, GraphSpec,
                         compressed_semicircular_sigma, eps_kernel, fd_sigma,
                         finite_group_sigma, graph_sigma, group_sigma,
                         log_energy, one_var_sigma, staircase_energy_trail)
from .errors import FreeSteinError, ModelError, ParseError
from .parser import parse_poly_tuple
from .stein import (DegreeScheme, alpha_estimate, conjugate_variable_check,
                    degree_sweep, discrepancy, irregularity_estimate,
                    radius_sweep, sigma_exact_fd)
from .trace import MatrixModel, MeasureModel, _whole, load_model, spec_field

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIAGNOSTIC = 3


def _infinities_as_strings(obj):
    if isinstance(obj, float):
        return str(obj) if obj in (math.inf, -math.inf) else obj
    if isinstance(obj, dict):
        return {k: _infinities_as_strings(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_infinities_as_strings(v) for v in obj]
    return obj


def _write_json(args, payload) -> int:
    """Write the report as strict JSON: an infinite float is written as the
    string ``"inf"`` or ``"-inf"``, and a nan raises."""
    text = json.dumps(_infinities_as_strings(payload), indent=2,
                      sort_keys=True, default=str, allow_nan=False)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def _write_csv(path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["parameter", "value", "diagnostics"])
        writer.writerows(rows)


def _scheme(args, default_dxi=2) -> DegreeScheme:
    dxi = args.dxi if args.dxi is not None else default_dxi
    return DegreeScheme(dxi, args.dproj)


def _parse_xi(args, model):
    if args.xi_file:
        with open(args.xi_file, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = args.xi
    if text is None:
        raise ParseError("missing xi (use --xi or --xi-file)", 0)
    return parse_poly_tuple(text, model.system)


def _check_condition(args, points) -> int:
    """Exit code of a report over its ``(label, condition)`` points: 3 when
    any Gram condition exceeds ``--cond-limit``, with one warning per such
    point.  ``label`` names a sweep point (``radius=0.5``, ``d_xi=1``); the
    one point of a single report has the label ``None``."""
    code = EXIT_OK
    for label, cond in points:
        if cond > args.cond_limit:
            at = f" at {label}" if label else ""
            print(f"warning: Gram condition {cond:.3e}{at} exceeds limit "
                  f"{args.cond_limit:.1e}", file=sys.stderr)
            code = EXIT_DIAGNOSTIC
    return code


def _radii(text):
    out = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    if not out:
        raise ValueError("empty radius list")
    return out


def cond_limit(text):
    if (limit := float(text)) != limit:  # no condition would exceed it
        raise argparse.ArgumentTypeError("nan is not a condition limit")
    return limit


def _fields(text, form, last=None):
    """The nonempty comma-separated tokens of ``text``, each split at ``:``
    into as many fields as ``form`` has, the last one of the words ``last``
    when given; a ValueError names a bad token."""
    rows = [tok.split(":") for tok in text.split(",") if tok.strip()]
    for row in rows:
        if len(row) != form.count(":") + 1 or \
                (last is not None and row[-1].strip() not in last):
            raise ValueError(f"bad token {':'.join(row)!r}: expected {form}")
    return rows


def _load(args, kind=None, noun=""):
    """The model of ``--model``; with ``kind``, an instance of that class or
    an error naming the command and the ``noun`` of the model it needs."""
    model = load_model(args.model, cap=args.cap)
    if kind is not None and not isinstance(model, kind):
        name = getattr(args, "form", args.command)
        raise FreeSteinError(f"{name} needs a {noun} model")
    return model


# -- subcommand handlers -------------------------------------------------------


def _cmd_discrepancy(args) -> int:
    model = _load(args)
    xi = _parse_xi(args, model)
    default_dxi = max(1, max((p.degree() for p in xi), default=1))
    rep = discrepancy(model, xi, _scheme(args, default_dxi))
    _write_json(args, rep.to_json())
    return _check_condition(args, [(None, rep.gram_condition)])


def _cmd_irregularity(args) -> int:
    rep = irregularity_estimate(_load(args), _scheme(args))
    _write_json(args, rep.to_json())
    return _check_condition(args, [(None, rep.gram_condition)])


def _cmd_bounded(args) -> int:
    sweep = radius_sweep(_load(args), _scheme(args), _radii(args.radii))
    payload = {"schema": "free-stein/1", "kind": "bounded-sweep",
               "points": [{"radius": r, "value": rep.value,
                           "diagnostics": rep.diagnostics}
                          for r, rep in sweep]}
    _write_json(args, payload)
    if args.csv:
        _write_csv(args.csv, [(r, rep.value,
                               f"boundary={rep.diagnostics.get('boundary')}")
                              for r, rep in sweep])
    return _check_condition(args, [(f"radius={r:g}", rep.gram_condition)
                                   for r, rep in sweep])


def _cmd_sigma_exact(args) -> int:
    rep = sigma_exact_fd(_load(args, MatrixModel, "matrix"), d=args.d)
    return _write_json(args, rep.to_json())


def _cmd_conjugate(args) -> int:
    model = _load(args)
    rep = conjugate_variable_check(model, _parse_xi(args, model), d=args.d)
    return _write_json(args, rep.to_json())


def _cmd_sweep_degree(args) -> int:
    reports = degree_sweep(_load(args), args.dxi_max, args.dproj_offset)
    points = [{"d_xi": rep.scheme.d_xi, "d_proj": rep.scheme.d_proj,
               "irregularity": rep.irregularity, "sigma": rep.sigma,
               "gram_condition": rep.gram_condition} for rep in reports]
    _write_json(args, {"schema": "free-stein/1", "kind": "degree-sweep",
                       "points": points})
    if args.csv:
        _write_csv(args.csv, [(f"dxi={p['d_xi']};dproj={p['d_proj']}",
                               p["sigma"],
                               f"irregularity={p['irregularity']};"
                               f"cond={p['gram_condition']:.6e}")
                              for p in points])
    return _check_condition(args, [(f"d_xi={p['d_xi']}", p["gram_condition"])
                                   for p in points])


def _cmd_alpha(args) -> int:
    sweep = radius_sweep(_load(args), _scheme(args), _radii(args.radii))
    payload = alpha_estimate([(r, s.value) for r, s in sweep]).to_json()
    payload["sweep"] = [[r, s.value] for r, s in sweep]
    _write_json(args, payload)
    return _check_condition(args, [(f"radius={r:g}", s.gram_condition)
                                   for r, s in sweep])


# -- closed forms, one handler each --------------------------------------------


def _exact_sigma(args, sigma) -> int:
    return _write_json(args, {"schema": "free-stein/1", "kind": args.form,
                              "sigma": float(sigma), "sigma_exact": str(sigma)})


def _cf_one_var(args) -> int:
    sig2, sigma = one_var_sigma(_load(args, MeasureModel, "measure"))
    return _write_json(args, {"schema": "free-stein/1", "kind": "one-var",
                              "irregularity_sq": float(sig2),
                              "sigma": float(sigma)})


def _cf_fd(args) -> int:
    if args.model is not None:
        # a spec stores weights as binary floats (2/3 as 0.666...6); read each
        # as the nearest small fraction so that fd_sigma's exact sum holds
        blocks = []
        for b, (k, lam) in enumerate(
                _load(args, MatrixModel, "matrix").blocks):
            weight = Fraction(lam).limit_denominator(10 ** 6)
            if weight == 0:  # the model's weight is positive
                raise ModelError(
                    f"block {b} (size {k}) has weight {lam!r}, which rounds "
                    "to 0 at the 1e-6 resolution of --model weights; give "
                    "the exact weights with --blocks")
            blocks.append((k, weight))
    else:
        blocks = [(int(k), Fraction(lam))
                  for k, lam in _fields(args.blocks, "size:weight")]
    return _exact_sigma(args, fd_sigma(blocks))


def _cf_group(args) -> int:
    return _exact_sigma(args, group_sigma(Fraction(args.beta0),
                                          Fraction(args.beta1)))


def _cf_finite_group(args) -> int:
    return _exact_sigma(args, finite_group_sigma(args.order))


def _cf_compressed(args) -> int:
    pairs = [(Fraction(te), Fraction(tf), mode.strip() == "eq")
             for te, tf, mode in _fields(args.pairs, "tau_e:tau_f:eq|orth",
                                         last=("eq", "orth"))]
    rep = compressed_semicircular_sigma(CompressedGeneratorSpec(pairs))
    return _write_json(args, rep.to_json())


def _cf_graph(args) -> int:
    with open(args.graph, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelError(
                f"malformed graph spec {args.graph}: {exc}") from exc
    if not isinstance(data, dict) or not {"weights", "edges"} <= data.keys():
        raise ModelError(f"graph spec {args.graph} needs the fields "
                         "'weights' and 'edges'")
    name = f"graph spec {args.graph}"
    weights = spec_field(data, "weights", name, lambda ws: [
        (v, Fraction(str(w)))
        for v, w in (ws.items() if isinstance(ws, dict) else ws)])
    # an edge is (v, w) or (v, w, multiplicity)
    edges = spec_field(data, "edges", name, lambda es: [
        (v, w, *map(_whole, m)) for v, w, *m in es])
    return _write_json(args, graph_sigma(GraphSpec(weights, edges)).to_json())


def _cf_eps_kernel(args) -> int:
    rep = eps_kernel(_load(args, MeasureModel, "measure"), args.eps,
                     grid_points=args.grid)
    return _write_json(args, rep.to_json())


def _cf_log_energy(args) -> int:
    val = log_energy(_load(args, MeasureModel, "measure"))
    return _write_json(args, {"schema": "free-stein/1", "kind": "log-energy",
                              "value": val, "finite": abs(val) != math.inf})


def _cf_staircase(args) -> int:
    trail = staircase_energy_trail(args.levels)
    return _write_json(args, {"schema": "free-stein/1", "kind": "staircase",
                              "trail": [[k, float(v)] for k, v in trail]})


# -- parser ---------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing never mutates it.

    Each command and each closed form declares exactly the options its
    handler reads: ``--model`` and ``--cap`` where a model is loaded, and
    ``--cond-limit`` on the five commands that report a Gram condition."""
    ap = argparse.ArgumentParser(
        prog="free-stein",
        description="Stein discrepancy, irregularity and dimension of "
                    "noncommutative tuples")
    sub = ap.add_subparsers(dest="command", required=True)

    def cap(p):
        p.add_argument("--cap", type=int, default=None,
                       help="word-degree cap (default 12)")

    def command(subs, name, func, summary, model=True, gram=False,
                degrees=False, **kw):
        p = subs.add_parser(name, help=summary, **kw)
        p.set_defaults(func=func)
        if model:
            p.add_argument("--model", required=True, help="model spec JSON")
            cap(p)
        p.add_argument("--out", help="write the JSON report here")
        if gram:
            p.add_argument("--cond-limit", type=cond_limit, default=1e12,
                           help="Gram condition number beyond which exit "
                                "code is 3")
        if degrees:
            p.add_argument("--dxi", type=int, default=None,
                           help="max degree of candidate conjugate tuples")
            p.add_argument("--dproj", type=int, default=None,
                           help="tensor-degree bound of the projection basis "
                                "(default dxi + 2)")
        return p

    def xi(p):
        p.add_argument("--xi", help="xi tuple, e.g. '(t1, t2)'")
        p.add_argument("--xi-file", help="file containing the xi tuple text")

    p = command(sub, "discrepancy", _cmd_discrepancy,
                "Stein discrepancy for a given xi", gram=True, degrees=True)
    xi(p)
    command(sub, "irregularity", _cmd_irregularity,
            "minimize the discrepancy over xi", gram=True, degrees=True)
    p = command(sub, "bounded", _cmd_bounded,
                "irregularity under a norm constraint", gram=True,
                degrees=True, aliases=["sweep-radius"])
    p.add_argument("--radii", required=True, help="comma-separated radii")
    p.add_argument("--csv", help="write a parameter,value,diagnostics CSV")
    p = command(sub, "sigma-exact", _cmd_sigma_exact,
                "exact dimension of a matrix model")
    p.add_argument("--d", type=int, default=3,
                   help="tensor-degree bound of the relation subspace")
    p = command(sub, "conjugate-check", _cmd_conjugate,
                "residual of the conjugate-variable identity")
    xi(p)
    p.add_argument("--d", type=int, default=4, help="test monomial degree")
    p = command(sub, "sweep-degree", _cmd_sweep_degree,
                "irregularity along growing degrees", gram=True)
    p.add_argument("--dxi-max", type=int, required=True)
    p.add_argument("--dproj-offset", type=int, default=2)
    p.add_argument("--csv", help="write a parameter,value,diagnostics CSV")
    p = command(sub, "alpha", _cmd_alpha,
                "decay exponent of the bounded sweep", gram=True, degrees=True)
    p.add_argument("--radii", required=True, help="comma-separated radii")

    forms = sub.add_parser("closed-form", help="closed-form evaluators") \
        .add_subparsers(dest="form", required=True)
    command(forms, "one-var", _cf_one_var,
            "one variable: 1 - sum of squared atom masses")
    p = command(forms, "fd", _cf_fd,
                "multi-matrix algebra: 1 - sum lambda^2 / k^2", model=False)
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument("--blocks", help="blocks 'size:weight,...', "
                                        "e.g. '2:2/3,1:1/3'")
    given.add_argument("--model", help="matrix model spec JSON")
    cap(p)
    p = command(forms, "group", _cf_group,
                "group algebra: beta1 - beta0 + 1", model=False)
    p.add_argument("--beta0", default="0", help="L2-Betti number beta_0")
    p.add_argument("--beta1", default="0", help="L2-Betti number beta_1")
    p = command(forms, "finite-group", _cf_finite_group,
                "finite group: 1 - 1/order", model=False)
    p.add_argument("--order", type=int, default=2)
    p = command(forms, "compressed", _cf_compressed,
                "compressed semicircular generators", model=False)
    p.add_argument("--pairs", default="",
                   help="projection pairs 'tau_e:tau_f:eq|orth,...'")
    p = command(forms, "graph", _cf_graph,
                "edge generators of a weighted graph", model=False)
    p.add_argument("--graph", required=True, help="graph spec JSON path")
    p = command(forms, "eps-kernel", _cf_eps_kernel,
                "smoothed difference-quotient kernel bound of a measure")
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--grid", type=int, default=41)
    command(forms, "log-energy", _cf_log_energy,
            "logarithmic energy of a measure")
    p = command(forms, "staircase", _cf_staircase,
                "log-energy trail of the staircase measure", model=False)
    p.add_argument("--levels", type=int, default=6)

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
    except (FreeSteinError, OSError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
