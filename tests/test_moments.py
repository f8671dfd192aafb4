"""The moment-table Gram and design against the symbolic inner products.

The reference builds the Jacobian rows with ``gradient`` and pairs them with
the trace model's tensor inner product, entry by entry; the two-block unitary
model has non-real moments, so a missing conjugation shows there.
"""

import itertools
import random

import numpy as np
import pytest

from conftest import random_poly
from free_stein import stein
from free_stein.errors import StructureError
from free_stein.ncalg import (BAlgebra, NCPoly, TensorPoly,
                              commutator_stein_kernel, generator_tuple,
                              gradient)
from free_stein.trace import (FreeProductModel, MatrixModel, SemicircularModel,
                              cyclic_group_model, two_point_measure)

TOL = 1e-12


def _unitary_pair():
    u = (1j, np.exp(0.3j))
    return MatrixModel([(1, 1 / 3), (1, 2 / 3)],
                       [[[[z]] for z in u], [[[np.conj(z)]] for z in u]],
                       star_pairing=(1, 0))


MODELS = {
    "semicircular n=2": lambda: SemicircularModel(2),
    "two-point * semicircular": lambda: FreeProductModel(
        [two_point_measure(), SemicircularModel(1)]),
    "cyclic group of order 6": lambda: cyclic_group_model(6),
    "two-block unitary": _unitary_pair,
}


@pytest.mark.parametrize("name", MODELS)
def test_gram_and_design_match_inner_products(name):
    model = MODELS[name]()
    gs = stein.GramSystem(model, 3)
    rows = [gradient(NCPoly.from_word(model.system, w)) for w in gs.words]
    m = len(rows)
    W = np.array([[model.inner_tensor_row(rows[b], rows[a]) for b in range(m)]
                  for a in range(m)])
    assert np.max(np.abs(gs.W - W)) <= TOL

    unit = TensorPoly.unit(model.system)
    r1 = np.array([[model.inner_tensor(unit, row[i]) for row in rows]
                   for i in range(model.n)])
    assert np.max(np.abs(gs.r_of_identity() - r1)) <= TOL

    rng = random.Random(7)
    X = generator_tuple(model.system)
    for _ in range(3):
        xi = tuple(random_poly(model.system, rng, 2) for _ in range(model.n))
        A = commutator_stein_kernel(xi, X)
        rA = np.array([[model.inner_tensor_row(A.entries[i], row) for row in rows]
                       for i in range(model.n)])
        assert np.max(np.abs(gs.r_of_kernel(A) - rA)) <= TOL


@pytest.mark.parametrize("name", MODELS)
def test_candidate_gram_matches_inner_l2(name):
    model = MODELS[name]()
    labels, candidates = stein._xi_basis(model, 2)
    K = len(labels)
    Q = np.zeros((K, K), dtype=complex)
    for a, b in itertools.product(range(K), repeat=2):
        i, j = labels[a][0], labels[b][0]
        if i == j:
            Q[a, b] = model.inner_l2(candidates[b][i], candidates[a][i])
    assert np.max(np.abs(stein._candidate_gram(model, 2) - Q)) <= TOL


def test_gram_system_requires_scalar_b():
    # M_2 generated by two Pauli matrices over B = M_2 (matrix units e_pq)
    mul = {(2 * p + q, 2 * r + s): ((2 * p + s, 1),) if q == r else ()
           for p, q, r, s in itertools.product(range(2), repeat=4)}
    star = [((2 * q + p, 1),) for p in range(2) for q in range(2)]
    b = BAlgebra(4, mul, star=star, unit=((0, 1), (3, 1)))
    units = [np.eye(2)[:, [p]] @ np.eye(2)[[q]] for p in range(2)
             for q in range(2)]
    model = MatrixModel([(2, 1.0)], [[[[1, 0], [0, -1]]], [[[0, 1], [1, 0]]]],
                        b_algebra=b, b_basis=[[e] for e in units])
    with pytest.raises(StructureError, match="scalar coefficients"):
        stein.GramSystem(model, 1)
