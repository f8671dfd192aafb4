from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import jacobian, random_poly, transform_kernel
from free_stein import ncalg
from free_stein.errors import DegreeCapError, StructureError
from free_stein.ncalg import (BAlgebra, GeneratorSystem, KernelMatrix, NCPoly,
                              TensorPoly, commutator_stein_kernel,
                              diff_quotient, generator_tuple)
from free_stein.scalars import QQi

S2 = GeneratorSystem(2)
S3 = GeneratorSystem(3)
T1, T2 = generator_tuple(S2)
ONE = NCPoly.one(S2)


def poly_strategy(system, max_degree=4):
    gens = list(range(system.n))

    def build(term_data):
        acc = NCPoly.zero(system)
        for letters, re, im in term_data:
            word = NCPoly.one(system)
            for i in letters:
                word = word * NCPoly.generator(system, i)
            acc = acc + word * QQi(re, im)
        return acc

    term = st.tuples(st.lists(st.sampled_from(gens), max_size=max_degree),
                     st.integers(-3, 3), st.integers(-2, 2))
    return st.lists(term, min_size=1, max_size=3).map(build)


# -- arithmetic ------------------------------------------------------------


def test_mul_unit_and_cancellation():
    assert (T1 * T2).degree() == 2
    assert T1 * ONE == T1
    assert ONE * T1 == T1
    assert (T1 + T2) + (-T2) == T1
    assert ((T1 + T2) - (T1 + T2)).is_zero


def test_collect_sums_in_first_appearance_order():
    a, b, c = (0, 0, 0), (0, 1, 0), (0, 1, 0, 0, 0)
    got = ncalg._collect([(a, QQi(1)), (b, QQi(2)), (a, QQi(-1)), (a, QQi(3))])
    assert got == {a: QQi(3), b: QQi(2)}
    assert list(got) == [a, b]
    # a key whose sum cancels is dropped, even when it came first
    got = ncalg._collect([(c, QQi(1, 2)), (b, QQi(1)), (c, QQi(-1, -2))])
    assert list(got.items()) == [(b, QQi(1))]
    assert ncalg._collect([]) == {}


def test_sums_keep_first_appearance_order():
    p = T2 + T1 * T2 + T1
    assert list(p.terms) == [(0, 1, 0), (0, 0, 0, 1, 0), (0, 0, 0)]
    q = p + (-T1 * T2) + T1 * T2
    assert list(q.terms) == [(0, 1, 0), (0, 0, 0), (0, 0, 0, 1, 0)]
    assert list(diff_quotient(1, p).terms) == [((0,), (0,)), ((0, 0, 0), (0,))]


def test_mul_associative_random(rng):
    for _ in range(25):
        p = random_poly(S2, rng, 3)
        q = random_poly(S2, rng, 3)
        r = random_poly(S2, rng, 3)
        assert (p * q) * r == p * (q * r)


def test_mismatched_systems_rejected():
    with pytest.raises(StructureError):
        T1 + NCPoly.generator(S3, 0)
    with pytest.raises(StructureError):
        T1 * NCPoly.generator(S3, 2)


def test_degree_cap_enforced():
    small = GeneratorSystem(1, cap=4)
    t = NCPoly.generator(small, 0)
    with pytest.raises(DegreeCapError):
        (t ** 3) * (t ** 2)


# -- adjoint ----------------------------------------------------------------


def test_adjoint_examples():
    assert (T1 * T2).adjoint() == T2 * T1
    assert (T1 * QQi(0, 1)).adjoint() == T1 * QQi(0, -1)


def test_adjoint_star_pairing():
    sysp = GeneratorSystem(2, star_pairing=(1, 0))
    u, v = generator_tuple(sysp)
    assert u.adjoint() == v
    assert (u * v).adjoint() == u * v  # (uv)* = v*u* = uv


@settings(max_examples=50)
@given(poly_strategy(S2), poly_strategy(S2))
def test_adjoint_antiautomorphism(p, q):
    assert (p * q).adjoint() == q.adjoint() * p.adjoint()
    assert p.adjoint().adjoint() == p
    assert (p * QQi(0, 1)).adjoint() == p.adjoint() * QQi(0, -1)


# -- sharp -------------------------------------------------------------------


def test_sharp_examples():
    u1, u2, u3 = generator_tuple(S3)
    assert TensorPoly.from_pair(u1, u2).sharp(u3) == u1 * u3 * u2
    p = T1 * T2 + T2 * QQi(2)
    assert TensorPoly.unit(S2).sharp(p) == p
    got = TensorPoly.from_pair(T1, ONE).sharp(TensorPoly.from_pair(ONE, T2))
    assert got == TensorPoly.from_pair(T1, T2)


@settings(max_examples=40)
@given(poly_strategy(S2, 2), poly_strategy(S2, 2), poly_strategy(S2, 2),
       poly_strategy(S2, 2))
def test_sharp_is_associative_on_polys(a, b, c, d):
    u = TensorPoly.from_pair(a, b)
    v = TensorPoly.from_pair(c, d)
    p = a + d
    assert u.sharp(v).sharp(p) == u.sharp(v.sharp(p))


@settings(max_examples=40)
@given(poly_strategy(S2, 2), poly_strategy(S2, 2), poly_strategy(S2, 2),
       poly_strategy(S2, 2))
def test_tensor_adjoint_antiautomorphism(a, b, c, d):
    u = TensorPoly.from_pair(a, b)
    v = TensorPoly.from_pair(c, d)
    assert u.sharp(v).adjoint() == v.adjoint().sharp(u.adjoint())
    assert u.adjoint().adjoint() == u


# -- free difference quotients -------------------------------------------------


def test_diff_quotient_examples():
    w = T1 * T2 * T1
    assert diff_quotient(0, w) == (TensorPoly.from_pair(ONE, T2 * T1)
                                   + TensorPoly.from_pair(T1 * T2, ONE))
    assert diff_quotient(1, w) == TensorPoly.from_pair(T1, T1)
    assert diff_quotient(0, ONE).is_zero
    for i in range(2):
        for j in range(2):
            d = diff_quotient(i, generator_tuple(S2)[j])
            assert d == (TensorPoly.unit(S2) if i == j else
                         TensorPoly.zero(S2))


def test_diff_quotient_term_degrees(rng):
    for _ in range(20):
        p = random_poly(S3, rng, 5)
        for i in range(3):
            for (a, b), _ in diff_quotient(i, p).terms.items():
                combined = len(a) // 2 + len(b) // 2
                assert any(len(w) // 2 == combined + 1 for w in p.terms)


@settings(max_examples=60)
@given(poly_strategy(S2, 3), poly_strategy(S2, 3), st.integers(0, 1))
def test_leibniz_bimodule(p, q, i):
    lhs = diff_quotient(i, p * q)
    rhs = (TensorPoly.from_pair(p, ONE).sharp(diff_quotient(i, q))
           + TensorPoly.from_pair(ONE, q).sharp(diff_quotient(i, p)))
    assert lhs == rhs


# -- jacobian and kernels ---------------------------------------------------------


def test_jacobian_of_generators_is_identity():
    assert jacobian(generator_tuple(S2)) == KernelMatrix.identity(S2)
    assert jacobian(generator_tuple(S3)) == KernelMatrix.identity(S3)


def test_jacobian_example():
    J = jacobian((T1 * T2, T2))
    assert J.entries[0][0] == TensorPoly.from_pair(ONE, T2)
    assert J.entries[0][1] == TensorPoly.from_pair(T1, ONE)
    assert J.entries[1][0].is_zero
    assert J.entries[1][1] == TensorPoly.unit(S2)
    zeros = jacobian((NCPoly.zero(S2), NCPoly.zero(S2)))
    assert all(e.is_zero for row in zeros.entries for e in row)


def test_jacobian_length_mismatch():
    with pytest.raises(StructureError):
        jacobian((T1,))


def test_commutator_kernel_one_variable():
    s1 = GeneratorSystem(1)
    (t,) = generator_tuple(s1)
    one = NCPoly.one(s1)
    half = QQi(Fraction(1, 2))
    A = commutator_stein_kernel((t,), (t,))
    expect = (TensorPoly.from_pair(t * t, one) * half
              - TensorPoly.from_pair(t, t)
              + TensorPoly.from_pair(one, t * t) * half)
    assert A.entries[0][0] == expect


def test_commutator_kernel_cross_entry():
    z = NCPoly.zero(S2)
    A = commutator_stein_kernel((T2, z), generator_tuple(S2))
    half = QQi(Fraction(1, 2))
    e11 = (TensorPoly.from_pair(T2 * T1, ONE) * half
           - TensorPoly.from_pair(T2, T1) * half
           - TensorPoly.from_pair(T1, T2) * half
           + TensorPoly.from_pair(ONE, T1 * T2) * half)
    assert A.entries[0][0] == e11
    assert all(e.is_zero for e in A.entries[1])


def test_commutator_kernel_zero_and_linear(rng):
    z = NCPoly.zero(S2)
    X = generator_tuple(S2)
    zero = commutator_stein_kernel((z, z), X)
    assert all(e.is_zero for row in zero.entries for e in row)
    for _ in range(10):
        a = random_poly(S2, rng, 2)
        b = random_poly(S2, rng, 2)
        lhs = commutator_stein_kernel((a + b, z), X)
        rhs = (commutator_stein_kernel((a, z), X)
               + commutator_stein_kernel((b, z), X))
        assert lhs == rhs
        scaled = commutator_stein_kernel((a * QQi(0, 2), z), X)
        assert scaled == commutator_stein_kernel((a, z), X) * QQi(0, 2)


def test_transform_kernel_identity_and_square():
    row = (TensorPoly.from_pair(T1, T2), TensorPoly.unit(S2))
    assert transform_kernel(row, generator_tuple(S2)) == row
    # the target tuple may have a different length than the source
    longer = transform_kernel(row, (T1, T2, T1 * T2))
    assert len(longer) == 3
    assert longer[0] == row[0] and longer[1] == row[1]
    s1 = GeneratorSystem(1)
    (t,) = generator_tuple(s1)
    one = NCPoly.one(s1)
    got = transform_kernel((TensorPoly.unit(s1),), (t * t,))
    assert got[0] == (TensorPoly.from_pair(t, one)
                      + TensorPoly.from_pair(one, t))
    zero_row = (TensorPoly.zero(s1),)
    assert transform_kernel(zero_row, (t * t * t,))[0].is_zero


def test_kernel_matrix_sharp_and_adjoint():
    I = KernelMatrix.identity(S2)
    J = jacobian((T1 * T2, T2))
    assert I.sharp(J) == J
    assert J.sharp(I) == J
    assert J.sharp(generator_tuple(S2)) == (T1 * T2 * QQi(2), T2)
    assert J.adjoint().adjoint() == J
    assert I.adjoint() == I


# -- coefficient algebra ------------------------------------------------------


@pytest.fixture(scope="module")
def diag_b_system():
    # B = C (+) C with orthogonal idempotent basis (e, f), unit e + f
    b = BAlgebra(2, {(0, 0): ((0, 1),), (0, 1): (), (1, 0): (),
                     (1, 1): ((1, 1),)}, unit=((0, 1), (1, 1)))
    return GeneratorSystem(1, b=b)


def test_b_letters_multiply_and_differentiate(diag_b_system):
    sysb = diag_b_system
    t = NCPoly.generator(sysb, 0)
    e = NCPoly.b_element(sysb, 0)
    f = NCPoly.b_element(sysb, 1)
    assert e * e == e
    assert (e * f).is_zero
    assert (e + f) * t == t
    assert diff_quotient(0, e).is_zero
    assert diff_quotient(0, e * t * f) == TensorPoly.from_pair(e, f)
    assert (e * t * f).adjoint() == f * t * e


def test_b_letters_leibniz(diag_b_system, rng):
    sysb = diag_b_system
    t = NCPoly.generator(sysb, 0)
    e = NCPoly.b_element(sysb, 0)
    f = NCPoly.b_element(sysb, 1)
    one = NCPoly.one(sysb)

    def rand_b(deg):
        acc = NCPoly.zero(sysb)
        for _ in range(3):
            w = [e, f, one][rng.randrange(3)]
            for _ in range(rng.randint(0, deg)):
                w = w * t * [e, f, one][rng.randrange(3)]
            acc = acc + w * QQi(rng.randint(-2, 2))
        return acc

    for _ in range(30):
        p, q = rand_b(3), rand_b(3)
        lhs = diff_quotient(0, p * q)
        rhs = (TensorPoly.from_pair(p, one).sharp(diff_quotient(0, q))
               + TensorPoly.from_pair(one, q).sharp(diff_quotient(0, p)))
        assert lhs == rhs


def test_invalid_b_algebra_rejected():
    with pytest.raises(StructureError, match="unit is not a right unit"):
        # E_1 E_0 = E_0, so the unit E_0 fails the right-unit law first
        BAlgebra(2, {(0, 0): ((0, 1),), (0, 1): ((1, 1),),
                     (1, 0): ((0, 1),), (1, 1): ((0, 1),)},
                 unit=((0, 1),))
    with pytest.raises(StructureError, match="not associative"):
        # (E_1 E_1) E_1 = E_2 E_1 = 0, but E_1 (E_1 E_1) = E_1 E_2 = E_0
        BAlgebra(3, {(0, k): ((k, 1),) for k in range(3)}
                 | {(k, 0): ((k, 1),) for k in range(1, 3)}
                 | {(1, 1): ((2, 1),), (1, 2): ((0, 1),)})


def test_structure_check_runs_once_per_structure():
    ncalg._check_structure.cache_clear()
    mul = {(i, j): ((i ^ j, 1),) for i in range(2) for j in range(2)}
    # the group algebra of Z/2, given twice with equal constants
    first, second = BAlgebra(2, mul), BAlgebra(2, dict(mul))
    assert first == second
    info = ncalg._check_structure.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    # a failed check is not cached: every construction raises again
    bad = {(0, 0): ((0, 1),), (0, 1): ((1, 1),),
           (1, 0): ((0, 1),), (1, 1): ((0, 1),)}
    for _ in range(2):
        with pytest.raises(StructureError) as err:
            BAlgebra(2, bad, unit=((0, 1),))
        assert str(err.value) == "unit is not a right unit of B"
    assert ncalg._check_structure.cache_info().misses == 3


def test_invalid_star_pairing():
    with pytest.raises(StructureError):
        GeneratorSystem(3, star_pairing=(1, 2, 0))


def test_scalar_b_algebra_is_built_once():
    b = BAlgebra.scalar()
    assert BAlgebra.scalar() is b
    assert b == BAlgebra(1, {(0, 0): ((0, 1),)})
    assert GeneratorSystem(2).b is b
