"""The four benchmark workloads and their report lists.

Each workload is a fixed list of reports.  A report builds its model afresh,
computes one result through the program's public entry points and returns it
as plain data for the checks in :mod:`oracles`.  Entry points are looked up
on their module at call time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
from fractions import Fraction
from pathlib import Path

import oracles


class ReportFailed(Exception):
    """The program did not produce the report (for the CLI: exit code != 0)."""


class Report:
    def __init__(self, label: str, run, check):
        self.label = label
        self.run = run        # () -> plain data; raises when the program fails
        self.check = check    # (data) -> None; raises oracles.CheckFailed


class Workload:
    def __init__(self, name: str, reports, round_check=None):
        self.name = name
        self.reports = reports
        # (results by label) -> None, for checks that span several reports
        self.round_check = round_check


TWO_POINT_MASSES = (0.5, 0.5)
PLATEAU_ATOM = (3.0, 0.5)   # location and mass of the plateau measure's atom


# -- gram: library irregularity estimates ------------------------------------------


def _sigma_data(rep) -> dict:
    return {"sigma": rep.sigma, "irregularity": rep.irregularity,
            "trail": [[d, v] for d, v in rep.trail]}


def _gram(workdir: Path) -> Workload:
    from free_stein import stein, trace

    def estimate(make_model, d_xi):
        def run():
            return _sigma_data(stein.irregularity_estimate(
                make_model(), stein.DegreeScheme(d_xi)))
        return run

    def free_product():
        return trace.FreeProductModel([trace.two_point_measure(),
                                       trace.SemicircularModel(1)])

    return Workload("gram", [
        Report("semicircular n=3, d_xi=2",
               estimate(lambda: trace.SemicircularModel(3), 2),
               lambda r: oracles.check_semicircular_estimate(r, 3)),
        Report("semicircular n=2, d_xi=3",
               estimate(lambda: trace.SemicircularModel(2), 3),
               lambda r: oracles.check_semicircular_estimate(r, 2)),
        Report("two-point * semicircular, d_xi=3",
               estimate(free_product, 3),
               lambda r: oracles.check_free_product_estimate(
                   r, TWO_POINT_MASSES)),
    ])


# -- sweep: the CLI, in process, on JSON spec files -------------------------------


SPECS = {
    "semicircular1.json": '{"type": "semicircular", "n": 1}',
    "semicircular2.json": '{"type": "semicircular", "n": 2}',
    "twopoint.json": '{"type": "measure", '
                     '"atoms": [[-1.0, 0.5], [1.0, 0.5]], "density": null}',
}
SWEEP_RADII = [0.25 * k for k in range(1, 13)]
README_RADII = [0.25, 0.5, 1.0, 2.0]


def _cli_report(label, workdir: Path, argv, outputs, check) -> Report:
    """Run ``free-stein <argv>`` in process; ``{dir}`` in argv names the work
    directory.  Outputs are read back as bytes, and every round must give
    the same bytes as the first."""
    from free_stein import cli

    argv = [a.replace("{dir}", str(workdir)) for a in argv]
    first = {}

    def run():
        for name in outputs:
            (workdir / name).unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        if code != 0:
            raise ReportFailed(f"exit {code}: {err.getvalue().strip()}")
        files = {name: (workdir / name).read_bytes() for name in outputs}
        return {"files": files, "stdout": out.getvalue(),
                "stderr": err.getvalue()}

    def checked(data):
        check(data)
        if not first:
            first.update(data)
        oracles.same_bytes(label, first, data)

    return Report(label, run, checked)


def _sweep(workdir: Path) -> Workload:
    for name, text in SPECS.items():
        (workdir / name).write_text(text + "\n", encoding="utf-8")
    radii = ",".join(f"{r:g}" for r in SWEEP_RADII)
    both = ["report.json", "sweep.csv"]
    return Workload("sweep", [
        _cli_report("sweep-radius semicircular n=2, d_xi=3", workdir,
                    ["sweep-radius", "--model", "{dir}/semicircular2.json",
                     "--dxi", "3", "--radii", radii,
                     "--out", "{dir}/report.json", "--csv", "{dir}/sweep.csv"],
                    both,
                    lambda o: oracles.check_cli_bounded_sweep(o, 2, SWEEP_RADII)),
        _cli_report("README irregularity semicircular n=2", workdir,
                    ["irregularity", "--model", "{dir}/semicircular2.json",
                     "--dxi", "2", "--out", "{dir}/report.json"],
                    ["report.json"],
                    lambda o: oracles.check_cli_irregularity(o, 2)),
        _cli_report("README closed-form one-var two-point", workdir,
                    ["closed-form", "one-var", "--model", "{dir}/twopoint.json",
                     "--out", "{dir}/report.json"],
                    ["report.json"],
                    lambda o: oracles.check_cli_one_var(o, TWO_POINT_MASSES)),
        _cli_report("README sweep-radius semicircular n=1", workdir,
                    ["sweep-radius", "--model", "{dir}/semicircular1.json",
                     "--dxi", "2", "--radii", "0.25,0.5,1,2",
                     "--out", "{dir}/report.json", "--csv", "{dir}/sweep.csv"],
                    both,
                    lambda o: oracles.check_cli_bounded_sweep(o, 1, README_RADII)),
        _cli_report("discrepancy (t1, t2) semicircular n=2", workdir,
                    ["discrepancy", "--model", "{dir}/semicircular2.json",
                     "--xi", "(t1, t2)", "--out", "{dir}/report.json"],
                    ["report.json"],
                    oracles.check_cli_discrepancy_zero),
        # fails today: the cap guard counts degree 2*(d_proj+1), not the
        # degree max(2*d_proj, d_proj+d_xi+1) of the words actually traced
        _cli_report("sweep-degree --dxi-max 4 semicircular n=1", workdir,
                    ["sweep-degree", "--model", "{dir}/semicircular1.json",
                     "--dxi-max", "4", "--out", "{dir}/report.json"],
                    ["report.json"],
                    lambda o: oracles.check_cli_degree_sweep(o, 1)),
    ])


# -- exact-fd: relation projection of matrix models ---------------------------------


SZ = [[1.0, 0.0], [0.0, -1.0]]
SX = [[0.0, 1.0], [1.0, 0.0]]
M2_BLOCKS = [(2, 1)]
M2_PLUS_C_BLOCKS = [(2, Fraction(2, 3)), (1, Fraction(1, 3))]


def _m2_over_m2(trace, ncalg):
    """M_2 generated by the Pauli pair over the coefficient algebra B = M_2,
    with the matrix-unit basis e11, e12, e21, e22."""
    mul = {}
    for p in range(2):
        for q in range(2):
            for r in range(2):
                for s in range(2):
                    mul[(2 * p + q, 2 * r + s)] = \
                        ((2 * p + s, 1),) if q == r else ()
    star = [((2 * q + p, 1),) for p in range(2) for q in range(2)]
    b = ncalg.BAlgebra(4, mul, star=star, unit=((0, 1), (3, 1)))
    units = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]],
             [[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]
    return trace.MatrixModel([(2, 1.0)], [[SZ], [SX]], b_algebra=b,
                             b_basis=[[u] for u in units])


def _exact_fd(workdir: Path) -> Workload:
    from free_stein import ncalg, stein, trace

    def exact(make_model, d):
        def run():
            return _sigma_data(stein.sigma_exact_fd(make_model(), d=d))
        return run

    def m2_plus_c():
        return trace.MatrixModel([(2, 2 / 3), (1, 1 / 3)],
                                 [[SZ, [[1.0]]], [SX, [[0.0]]]])

    return Workload("exact-fd", [
        Report("M_2 over B = M_2, d=2",
               exact(lambda: _m2_over_m2(trace, ncalg), 2),
               lambda r: oracles.check_exact_full_coefficients(r, M2_BLOCKS)),
        Report("cyclic group of order 10, d=5",
               exact(lambda: trace.cyclic_group_model(10), 5),
               lambda r: oracles.check_exact_group(r, 10)),
        Report("M_2 + C, d=4", exact(m2_plus_c, 4),
               lambda r: oracles.check_exact_blocks(r, M2_PLUS_C_BLOCKS, 3)),
    ])


# -- quadrature: smoothed-kernel bound and logarithmic energy ---------------------


PLATEAU_EPS = (0.1, 0.01, 0.001)


def _quadrature(workdir: Path) -> Workload:
    from free_stein import closedform, trace

    def plateau():
        loc, mass = PLATEAU_ATOM
        return trace.MeasureModel([(loc, mass)],
                                  trace.SemicircleDensity(mass=1.0 - mass))

    def smoothed(eps):
        def run():
            rep = closedform.eps_kernel(plateau(), eps)
            return {"eps": rep.eps, "bound": rep.bound, "g_l2": rep.g_l2}
        return run

    def energy(make_density):
        def run():
            model = trace.MeasureModel([], make_density())
            return {"value": closedform.log_energy(model)}
        return run

    def plateau_trail(results):
        oracles.check_eps_plateau(
            {e: results[f"eps_kernel plateau eps={e:g}"] for e in PLATEAU_EPS},
            PLATEAU_ATOM[1])

    reports = [Report(f"eps_kernel plateau eps={e:g}", smoothed(e),
                      lambda r: None) for e in PLATEAU_EPS]
    reports += [
        Report("log_energy uniform [0, 1]",
               energy(lambda: trace.UniformDensity(0, 1)),
               lambda r: oracles.check_log_energy(
                   r, oracles.uniform_log_energy(0, 1))),
        Report("log_energy standard semicircle",
               energy(lambda: trace.SemicircleDensity()),
               lambda r: oracles.check_log_energy(
                   r, oracles.semicircle_log_energy(2.0))),
    ]
    return Workload("quadrature", reports, round_check=plateau_trail)


FACTORIES = {"gram": _gram, "sweep": _sweep, "exact-fd": _exact_fd,
            "quadrature": _quadrature}


def setup(name: str, workdir: Path) -> Workload:
    """Import the program and build the workload's inputs in ``workdir``."""
    import free_stein  # noqa: F401  (the import is part of set-up time)

    workdir.mkdir(parents=True, exist_ok=True)
    return FACTORIES[name](workdir)
