"""Truncated irregularity estimates of one-variable measures against their
exact values.

With rational atoms, masses and moments the truncated sigma is a rational
function of the moments: ``W``, the r-rows and the least-squares solve are
finite sums, so :func:`exact_one_var_sigma` computes it over ``Fraction``.
The grid pairs each model with the Gram-path estimate at the same degrees.
"""

from fractions import Fraction

import pytest

from free_stein.stein import DegreeScheme, irregularity_estimate
from free_stein.trace import (MeasureModel, SemicircleDensity, UniformDensity,
                              catalan)


def _solve(A, columns):
    """``A^-1 c`` for each right-hand side ``c``, by Gauss-Jordan elimination
    over ``Fraction``."""
    n = len(A)
    rows = [list(a) + [c[i] for c in columns] for i, a in enumerate(A)]
    for j in range(n):
        p = next(i for i in range(j, n) if rows[i][j] != 0)
        rows[j], rows[p] = rows[p], rows[j]
        pivot = rows[j]
        for i, row in enumerate(rows):
            if i != j and row[j] != 0:
                f = row[j] / pivot[j]
                rows[i] = [a - f * b for a, b in zip(row, pivot)]
    return [[rows[i][n + k] / rows[i][i] for i in range(n)]
            for k in range(len(columns))]


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def exact_one_var_sigma(m, d_xi, d_proj):
    """The truncated sigma of one self-adjoint variable with moments
    ``m(k)``, exactly: ``1 - (r1^T W^-1 r1 - b^T M^-1 b)`` over the basis
    words ``x^k``, k = 1 .. d_proj + 1, with ``R`` the r-rows of the
    candidates ``x^p``, p = 1 .. d_xi, ``b = R W^-1 r1`` and ``M = R W^-1
    R^T``."""
    ks = range(1, d_proj + 2)
    # <d x^k, d x^l> over the splits x^j (x) x^(k-1-j), x^j' (x) x^(l-1-j')
    W = [[sum(m(j + i) * m(k + l - 2 - j - i)
              for j in range(k) for i in range(l)) for l in ks] for k in ks]
    r1 = [sum(m(j) * m(k - 1 - j) for j in range(k)) for k in ks]
    # the half-commutator kernel of x^p: (x^(p+1) (x) 1 - x^p (x) x
    # - x (x) x^p + 1 (x) x^(p+1)) / 2
    R = [[sum(m(p + 1 + j) * m(k - 1 - j) - m(p + j) * m(k - j)
              - m(1 + j) * m(p + k - 1 - j) + m(j) * m(p + k - j)
              for j in range(k)) / 2 for k in ks]
         for p in range(1, d_xi + 1)]
    u, *V = _solve(W, [r1, *R])
    b = [_dot(r, u) for r in R]
    M = [[_dot(r, v) for v in V] for r in R]
    return 1 - (_dot(r1, u) - _dot(b, _solve(M, [b])[0]))


def _atom_uniform(cap):
    return MeasureModel([(3.0, 0.4)], UniformDensity(0, 1, mass=0.6), cap=cap)


def _atom_uniform_moment(k):
    return Fraction(2, 5) * 3 ** k + Fraction(3, 5) / (k + 1)


def _plateau(cap):
    return MeasureModel([(3.0, 0.5)], SemicircleDensity(mass=0.5), cap=cap)


def _plateau_moment(k):
    return Fraction(3 ** k + (0 if k % 2 else catalan(k // 2)), 2)


def _three_atoms(cap):
    return MeasureModel([(-1, 0.4), (-2, 0.2), (-3, 0.4)], cap=cap)


def _three_atoms_moment(k):
    return (Fraction(2, 5) * (-1) ** k + Fraction(1, 5) * (-2) ** k
            + Fraction(2, 5) * (-3) ** k)


MEASURES = {"atom+uniform": (_atom_uniform, _atom_uniform_moment),
            "plateau": (_plateau, _plateau_moment),
            "three atoms": (_three_atoms, _three_atoms_moment)}

_CUT = ("FOUND in CHANGES.md: at d_proj 5 the RCOND cut drops a real "
        "direction of W on 0.4*delta_3 + 0.6*U[0, 1], and irregularity exits "
        "0 with sigma off by about 2e-5")
_ITEM_3 = ("FOUND of ROADMAP item 3: the RCOND cut drops real directions of "
           "W and the report exits 0")
_ATOMS = ("FOUND in CHANGES.md: atom-only measures lose a real direction at "
          "the default scheme: on 0.4*delta_-1 + 0.2*delta_-2 + 0.4*delta_-3 "
          "the d_proj 4 W has exact rank 5, its smallest eigenvalue falls "
          "under the RCOND cut, and sigma reads 0.733 against 16/25, exit 0")


def _failing(name, d_xi, d_proj, reason):
    return pytest.param(name, d_xi, d_proj,
                        marks=pytest.mark.xfail(reason=reason, strict=True))


GRID = [
    ("atom+uniform", 1, 3), ("atom+uniform", 2, 4),
    _failing("atom+uniform", 1, 5, _CUT), _failing("atom+uniform", 2, 5, _CUT),
    *(_failing("atom+uniform", dx, dx + 2, _ITEM_3) for dx in (3, 4, 5)),
    *(("plateau", dx, dx + 2) for dx in range(1, 6)),
    *(_failing("plateau", dx, dx + 2, _ITEM_3) for dx in (6, 7)),
    ("three atoms", 1, 3), ("three atoms", 2, 3),
    _failing("three atoms", 1, 4, _ATOMS), _failing("three atoms", 2, 4, _ATOMS),
]


@pytest.mark.parametrize("name, d_xi, d_proj, tabled", [
    ("atom+uniform", 3, 5, "0.834251038476"),
    ("atom+uniform", 4, 6, "0.839278391311"),
    ("atom+uniform", 6, 8, "0.839821792050"),
    ("plateau", 7, 9, "0.749999359780"),
    ("plateau", 9, 11, "0.749999979451"),
])
def test_exact_sigma_matches_the_tabled_values(name, d_xi, d_proj, tabled):
    # twelve digits of an independent 80-digit evaluation
    exact = exact_one_var_sigma(MEASURES[name][1], d_xi, d_proj)
    assert abs(exact - Fraction(tabled)) <= Fraction(1, 2 * 10 ** 12)


@pytest.mark.parametrize("name, d_xi, d_proj", GRID)
def test_estimate_matches_exact_truncated_sigma(name, d_xi, d_proj):
    make, moment = MEASURES[name]
    model = make(max(12, 2 * (d_proj + 1)))
    got = irregularity_estimate(model, DegreeScheme(d_xi, d_proj)).sigma
    want = float(exact_one_var_sigma(moment, d_xi, d_proj))
    assert abs(got - want) <= 1e-9 * abs(want)
