"""The moment-table Gram and design against the symbolic inner products.

The reference builds the Jacobian rows with ``gradient`` and pairs them with
the trace model's tensor inner product, entry by entry; the two-block unitary
model has non-real moments, so a missing conjugation shows there.  The bulk
tables (Fock vectors, rotation classes of free products) are checked against
the per-word traces.
"""

import itertools
import random

import numpy as np
import pytest

from conftest import random_poly, random_word
from free_stein import stein
from free_stein.errors import DegreeCapError, StructureError
from free_stein.ncalg import (BAlgebra, NCPoly, TensorPoly,
                              commutator_stein_kernel, generator_tuple,
                              gradient)
from free_stein.trace import (FreeProductModel, MatrixModel, SemicircularModel,
                              TraceModel, cyclic_group_model,
                              two_point_measure)

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


# -- the candidate design from table columns -----------------------------------

DESIGNS = {name: (make, stein.DegreeScheme(2)) for name, make in MODELS.items()}
# d_proj < d_xi + 1: the w x_p and x_p w columns lie beyond the legs
DESIGNS["semicircular n=2, d_proj=2"] = (lambda: SemicircularModel(2),
                                         stein.DegreeScheme(3, d_proj=2))


@pytest.mark.parametrize("name", DESIGNS)
def test_candidate_rows_match_exact_kernels(name):
    make, scheme = DESIGNS[name]
    model = make()
    system = model.system
    gs = stein.GramSystem(model, scheme.d_proj)
    words = stein.monomial_words(system, 1, scheme.d_xi)
    R = gs.r_of_candidates(words)
    X = stein._kernel_partners(system)
    for w, row in zip(words, R):
        cand = model.centered(NCPoly.from_word(system, w))
        for i in range(model.n):
            xi = tuple(cand if j == i else NCPoly.zero(system)
                       for j in range(model.n))
            r = gs.r_of_kernel(commutator_stein_kernel(xi, X))
            expected = np.zeros_like(r, dtype=complex)
            expected[i] = row
            assert np.max(np.abs(r - expected)) <= TOL
    assert max(len(p) // 2 for p in gs._columns) == max(scheme.d_proj,
                                                         scheme.d_xi + 1)


def test_design_builds_no_exact_kernels(monkeypatch):
    calls = []
    exact = stein.commutator_stein_kernel

    def counted(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(stein, "commutator_stein_kernel", counted)
    *_, Z, b = stein._xi_design(SemicircularModel(2), stein.DegreeScheme(2))
    assert Z.shape[1] == 2 * 6 and not calls


@pytest.mark.parametrize("make, real", [
    (lambda: SemicircularModel(2), True),
    (two_point_measure, True),
    (MODELS["two-point * semicircular"], True),
    (_unitary_pair, False),
])
def test_gram_is_real_exactly_for_real_tables(make, real):
    gs = stein.GramSystem(make(), 2)
    assert np.isrealobj(gs.W) == real
    assert np.isrealobj(gs.r_of_identity()) == real


# -- bulk moment tables ------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fock_table_equals_per_word_table(n):
    model = SemicircularModel(n)
    per_word = SemicircularModel(n)
    xs = stein.monomial_words(model.system, 0, 3)
    table = model.moment_table(xs)
    assert np.isrealobj(table)
    assert np.array_equal(table, TraceModel.moment_table(per_word, xs))
    # ys deeper than every x, in no particular order
    rng = random.Random(n)
    xs = xs[:1 + n + n * n]
    ys = [random_word(model.system, rng, 7) for _ in range(40)]
    ys.append((0,) + (n - 1, 0) * 7)
    assert np.array_equal(model.moment_table(xs, ys),
                          TraceModel.moment_table(per_word, xs, ys))
    assert np.array_equal(model.moment_table(ys, xs),
                          TraceModel.moment_table(per_word, ys, xs))


def test_fock_table_keeps_the_cap():
    model = SemicircularModel(2, cap=6)
    xs = stein.monomial_words(model.system, 0, 3)
    with pytest.raises(DegreeCapError):
        model.moment_table(xs, [(0, 1, 0, 1, 0, 1, 0, 1, 0)])
    with pytest.raises(DegreeCapError):
        TraceModel.moment_table(model, xs, [(0, 1, 0, 1, 0, 1, 0, 1, 0)])


def test_free_product_rotation_classes_match_unrotated_recursion():
    def make():
        return FreeProductModel([two_point_measure(), SemicircularModel(1),
                                 cyclic_group_model(3)])

    model, unrotated = make(), make()
    rng = random.Random(11)
    for _ in range(200):
        w = random_word(model.system, rng, 10)
        assert abs(model.trace_word(w) - unrotated._trace_letters(w[1::2])) <= 1e-14
    assert len(model._class_cache) < len(model._word_cache)
