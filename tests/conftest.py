import random

import numpy as np
import pytest

from free_stein.ncalg import NCPoly, generator_tuple
from free_stein.scalars import QQi
from free_stein.trace import (FreeProductModel, MatrixModel, MeasureModel,
                              SemicircleDensity, SemicircularModel,
                              diagonal_matrix_model, two_point_matrix_model,
                              two_point_measure)


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
