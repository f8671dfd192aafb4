"""Oracle values and report checks for the benchmark.

Every expected value here is computed from the mathematics, apart from the
program: a free semicircular n-tuple has dimension n and conjugate variable
X itself, atoms contribute the sum of their squared masses to the squared
irregularity, a multi-matrix block algebra has dimension
``1 - sum lambda^2 / k^2``, a finite group of order N has dimension
``1 - 1/N``, and the logarithmic energies of the uniform and semicircle laws
are known in closed form.

Checks take plain report data (numbers, lists, bytes) and raise
:class:`CheckFailed` when a value leaves its tolerance.  The tolerances are
the ones pinned in ``tests/test_acceptance.py`` and ``tests/test_stein.py``;
none is wider.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction


class CheckFailed(Exception):
    """A report disagrees with its oracle or breaks a required property."""


# -- tolerances ---------------------------------------------------------------

SIGMA_ESTIMATE_TOL = 1e-6      # criterion 3: semicircular sigma = n
ADDITIVITY_TOL = 2e-3          # criterion 7: free-product irregularity^2
EXACT_FD_TOL = 1e-9            # criterion 5, test_sigma_exact_b_relative
ESTIMATE_TRAIL_TOL = 1e-10     # test_irregularity_trail_nonincreasing_in_dxi
EXACT_TRAIL_TOL = 1e-12        # criterion 5: exact trails
BOUNDED_TOL = 1e-8             # criterion 6: bounded values and convexity
RADIUS_TRAIL_TOL = 1e-10       # test_stein: bounded sweep is nonincreasing
DISCREPANCY_TOL = 1e-8         # criterion 3: zero discrepancy
EPS_LIMIT_TOL = 1e-3           # criterion 11: plateau bound near 0.25
G_L2_REL_TOL = 0.01            # criterion 11: smoothing field settles
LOG_ENERGY_TOL = 1e-6          # criterion 12, test_log_energy_semicircle


# -- oracle values --------------------------------------------------------------


def atoms_irregularity_sq(masses) -> Fraction:
    """Squared irregularity of atoms: the sum of squared masses."""
    return sum((Fraction(m) ** 2 for m in masses), Fraction(0))


def blocks_sigma(blocks) -> Fraction:
    """Dimension of a multi-matrix algebra with (size, weight) blocks."""
    return 1 - sum((Fraction(lam) ** 2 / (k * k) for k, lam in blocks),
                   Fraction(0))


def group_sigma(order: int) -> Fraction:
    """Dimension of a finite group algebra: ``beta_1 - beta_0 + 1``."""
    return 1 - Fraction(1, order)


def bounded_value(n: int, radius: float) -> float:
    """R-bounded irregularity of a semicircular n-tuple: its conjugate
    variable is X, of L2 norm sqrt(n), so the distance to the ball of radius
    R is ``max(sqrt(n) - R, 0)``."""
    return max(math.sqrt(n) - radius, 0.0)


def uniform_log_energy(a: float, b: float) -> float:
    return math.log(b - a) - 1.5


def semicircle_log_energy(radius: float) -> float:
    return math.log(radius / 2) - 0.25


# -- generic properties -----------------------------------------------------------


def within(what: str, value, expected, tol: float) -> None:
    if not abs(float(value) - float(expected)) <= tol:
        raise CheckFailed(f"{what}: {value!r} is not within {tol:g} "
                          f"of {float(expected)!r}")


def nonincreasing(what: str, values, tol: float) -> None:
    for i in range(len(values) - 1):
        if not values[i] >= values[i + 1] - tol:
            raise CheckFailed(f"{what}: rises from {values[i]!r} to "
                              f"{values[i + 1]!r} (tolerance {tol:g})")


def convex(what: str, xs, values, tol: float) -> None:
    """Each value lies below the chord through its two neighbours."""
    for i in range(1, len(values) - 1):
        lo, hi = xs[i] - xs[i - 1], xs[i + 1] - xs[i]
        chord = (hi * values[i - 1] + lo * values[i + 1]) / (lo + hi)
        if not values[i] <= chord + tol:
            raise CheckFailed(f"{what}: not convex at {xs[i]!r}")


def same_bytes(what: str, first: dict, again: dict) -> None:
    """CLI outputs for identical inputs must be byte-identical."""
    if first != again:
        changed = sorted(k for k in set(first) | set(again)
                         if first.get(k) != again.get(k))
        raise CheckFailed(f"{what}: output differs from the first round in "
                          f"{', '.join(changed)}")


# -- library reports ----------------------------------------------------------------


def check_semicircular_estimate(rep: dict, n: int) -> None:
    within(f"sigma of semicircular n={n}", rep["sigma"], n, SIGMA_ESTIMATE_TOL)
    nonincreasing("d_xi trail", [v for _, v in rep["trail"]],
                  ESTIMATE_TRAIL_TOL)


def check_free_product_estimate(rep: dict, masses) -> None:
    """Squared irregularities add over free factors; a semicircular factor
    adds zero, so the atoms of the other factor give the whole value."""
    within("free-product irregularity^2", rep["irregularity"] ** 2,
           atoms_irregularity_sq(masses), ADDITIVITY_TOL)
    nonincreasing("d_xi trail", [v for _, v in rep["trail"]],
                  ESTIMATE_TRAIL_TOL)


def check_exact_full_coefficients(rep: dict, plain_blocks) -> None:
    """Over B = M_2 every generator is a coefficient: dimension 0, and
    enlarging B cannot enlarge the dimension of the plain model."""
    within("sigma over B = M_2", rep["sigma"], 0, EXACT_FD_TOL)
    if not rep["sigma"] <= blocks_sigma(plain_blocks) + EXACT_FD_TOL:
        raise CheckFailed("sigma over B = M_2 exceeds that of plain M_2")
    nonincreasing("d trail", [v for _, v in rep["trail"]], EXACT_TRAIL_TOL)


def check_exact_group(rep: dict, order: int) -> None:
    within(f"sigma of the cyclic group of order {order}", rep["sigma"],
           group_sigma(order), EXACT_FD_TOL)
    nonincreasing("d trail", [v for _, v in rep["trail"]], EXACT_TRAIL_TOL)


def check_exact_blocks(rep: dict, blocks, stable_from: int) -> None:
    expected = blocks_sigma(blocks)
    for d, v in rep["trail"]:
        if d >= stable_from:
            within(f"sigma at d={d}", v, expected, EXACT_FD_TOL)
    nonincreasing("d trail", [v for _, v in rep["trail"]], EXACT_TRAIL_TOL)


def check_log_energy(rep: dict, expected: float) -> None:
    within("logarithmic energy", rep["value"], expected, LOG_ENERGY_TOL)


def check_eps_plateau(by_eps: dict, atom_mass: float) -> None:
    """Across the eps reports of one round: the bound does not rise as eps
    falls, reaches the squared atom mass at the smallest eps, and the
    smoothing field's L2 norm has settled between the two smallest eps."""
    eps = sorted(by_eps, reverse=True)
    nonincreasing("bound as eps falls", [by_eps[e]["bound"] for e in eps], 0.0)
    within(f"bound at eps={eps[-1]:g}", by_eps[eps[-1]]["bound"],
           Fraction(atom_mass) ** 2, EPS_LIMIT_TOL)
    g2, g3 = by_eps[eps[-2]]["g_l2"], by_eps[eps[-1]]["g_l2"]
    if not abs(g2 - g3) / g3 < G_L2_REL_TOL:
        raise CheckFailed(f"g_l2 moves from {g2!r} to {g3!r}, not within "
                          f"{G_L2_REL_TOL:.0%}")


# -- CLI reports --------------------------------------------------------------------


def _json(out: dict, name: str) -> dict:
    try:
        return json.loads(out["files"][name])
    except (KeyError, ValueError) as exc:
        raise CheckFailed(f"{name}: missing or not JSON ({exc})") from exc


def _csv_values(out: dict, name: str) -> list:
    rows = list(csv.reader(io.StringIO(out["files"][name].decode())))
    if not rows or rows[0] != ["parameter", "value", "diagnostics"]:
        raise CheckFailed(f"{name}: wrong CSV header")
    return [(float(p), float(v)) for p, v, _ in rows[1:]]


def check_cli_bounded_sweep(out: dict, n: int, radii) -> None:
    """Bounded sweep of a semicircular n-tuple: ``max(sqrt(n) - R, 0)`` at
    every radius, nonincreasing and convex, with the CSV equal to the JSON."""
    points = _json(out, "report.json")["points"]
    got = [p["radius"] for p in points]
    if got != list(radii):
        raise CheckFailed(f"radii {got} differ from {list(radii)}")
    values = [p["value"] for p in points]
    for r, v in zip(radii, values):
        within(f"bounded value at R={r}", v, bounded_value(n, r), BOUNDED_TOL)
    nonincreasing("bounded sweep", values, RADIUS_TRAIL_TOL)
    convex("bounded sweep", got, values, BOUNDED_TOL)
    if "sweep.csv" in out["files"]:
        if _csv_values(out, "sweep.csv") != list(zip(got, values)):
            raise CheckFailed("sweep.csv disagrees with the JSON report")


def check_cli_irregularity(out: dict, n: int) -> None:
    rep = _json(out, "report.json")
    check_semicircular_estimate(rep, n)


def check_cli_one_var(out: dict, masses) -> None:
    rep = _json(out, "report.json")
    sig2 = atoms_irregularity_sq(masses)
    if rep["irregularity_sq"] != float(sig2) or rep["sigma"] != float(1 - sig2):
        raise CheckFailed(f"one-var gives {rep['sigma']!r}, not exactly "
                          f"{float(1 - sig2)!r}")


def check_cli_discrepancy_zero(out: dict) -> None:
    rep = _json(out, "report.json")
    if not rep["value"] <= DISCREPANCY_TOL:
        raise CheckFailed(f"discrepancy of X is {rep['value']!r}, "
                          f"above {DISCREPANCY_TOL:g}")


def check_cli_degree_sweep(out: dict, n: int) -> None:
    """Degree sweep of a semicircular n-tuple: sigma = n at every d_xi."""
    points = _json(out, "report.json")["points"]
    for p in points:
        within(f"sigma at d_xi={p['d_xi']}", p["sigma"], n, SIGMA_ESTIMATE_TOL)
    nonincreasing("irregularity over d_xi",
                  [p["irregularity"] for p in points], ESTIMATE_TRAIL_TOL)
