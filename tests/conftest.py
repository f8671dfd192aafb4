import random

import numpy as np
import pytest

from free_stein.ncalg import GeneratorSystem, NCPoly, generator_tuple
from free_stein.scalars import QQi
from free_stein.trace import (FreeProductModel, MatrixModel, MeasureModel,
                              SemicircleDensity, SemicircularModel, TraceModel,
                              diagonal_matrix_model, real_if_exact,
                              two_point_matrix_model, two_point_measure)


def random_poly(system, rng, max_degree=4, terms=3, coeff_range=3,
                complex_coeffs=True):
    """Small random polynomial with integer complex coefficients."""
    gens = generator_tuple(system)
    acc = NCPoly.zero(system)
    for _ in range(terms):
        word = NCPoly.one(system)
        for _ in range(rng.randint(0, max_degree)):
            word = word * gens[rng.randrange(system.n)]
        im = rng.randint(-1, 1) if complex_coeffs else 0
        acc = acc + word * QQi(rng.randint(-coeff_range, coeff_range), im)
    return acc


def word_of(letters):
    """The scalar-coefficient word of a letter tuple."""
    w = [0]
    for l in letters:
        w.extend((l, 0))
    return tuple(w)


def random_word(system, rng, max_degree=8):
    w = [0]
    for _ in range(rng.randint(0, max_degree)):
        w.extend((rng.randrange(system.n), 0))
    return tuple(w)


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture(scope="session")
def semicircular1():
    return SemicircularModel(1)


@pytest.fixture(scope="session")
def semicircular2():
    return SemicircularModel(2)


@pytest.fixture(scope="session")
def twopoint_measure():
    return two_point_measure()


@pytest.fixture(scope="session")
def twopoint_matrix():
    return two_point_matrix_model()


@pytest.fixture(scope="session")
def threepoint_measure():
    return MeasureModel([(-1.0, 1 / 3), (0.0, 1 / 3), (1.0, 1 / 3)])


@pytest.fixture(scope="session")
def threepoint_matrix():
    return diagonal_matrix_model([-1.0, 0.0, 1.0], [1 / 3, 1 / 3, 1 / 3])


@pytest.fixture(scope="session")
def m2_model():
    return MatrixModel([(2, 1.0)], [[[[1, 0], [0, -1]]], [[[0, 1], [1, 0]]]])


@pytest.fixture(scope="session")
def m2_plus_c_model():
    sz = [[1, 0], [0, -1]]
    sx = [[0, 1], [1, 0]]
    return MatrixModel([(2, 2 / 3), (1, 1 / 3)],
                       [[sz, [[1.0]]], [sx, [[0.0]]]])


@pytest.fixture(scope="session")
def free_two_twopoint():
    return FreeProductModel([two_point_matrix_model(),
                             two_point_matrix_model()])


@pytest.fixture(scope="session")
def plateau_measure():
    return MeasureModel([(3.0, 0.5)], SemicircleDensity(mass=0.5))


def candidate_gram_reference(model, words):
    """Oracle only: the Gram of the candidates ``w - tau(w)`` over ``words``
    in the L2 norm, ``tau(v* w) - conj(tau(v)) tau(w)``, from its own moment
    table over the unit and the words (row 0 holds the traces)."""
    G = model.moment_table([(0,)] + words)
    return G[1:, 1:] - np.outer(G[0, 1:].conj(), G[0, 1:])


class PushForwardModel(TraceModel):
    """Test only: self-adjoint polynomials ``polys`` of a base model's
    generators as the generators of a new model, with ``tau(w) =
    tau_base(w(p))``.  Both generate the same *-algebra when the base generators are polynomials
    in ``polys``.  A table over pushed words is the base table over the base
    words they expand to: with ``C`` the expansion coefficients (pushed words
    x base words), the vectors are ``(C_x V_x, K, C_y V_y)``."""

    def __init__(self, base, polys, cap=12):
        super().__init__(GeneratorSystem(len(polys), cap=cap))
        self.base, self.polys = base, tuple(polys)

    def _expand(self, word) -> NCPoly:
        p = NCPoly.one(self.base.system)
        for letter in word[1::2]:
            p = p * self.polys[letter]
        return p

    def _trace_word_impl(self, word) -> complex:
        return self.base.trace_poly(self._expand(word))

    def _coefficients(self, words) -> tuple:
        """``(C, base words, their largest degree)``."""
        polys = [self._expand(w) for w in words]
        basis = sorted({u for p in polys for u in p.terms},
                       key=lambda u: (len(u), u))
        col = {u: k for k, u in enumerate(basis)}
        C = np.zeros((len(words), len(basis)), dtype=complex)
        for row, p in zip(C, polys):
            for u, c in p.terms.items():
                row[col[u]] = complex(c)
        return real_if_exact(C), basis, len(basis[-1]) // 2

    def _table_vectors(self, xs, ys, dx, dy) -> tuple:
        Cx, bx, ex = self._coefficients(xs)
        Cy, by, ey = (Cx, bx, ex) if ys is None else self._coefficients(ys)
        Vx, K, Vy = self.base._table_vectors(bx, None if ys is None else by,
                                             ex, ey)
        return Cx @ Vx, K, Cy @ Vy
