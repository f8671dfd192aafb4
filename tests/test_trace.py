import itertools
import random
import re

import numpy as np
import pytest

from conftest import (PushForwardModel, SymbolicPairing, _unitary_pair,
                      inner_hs, m2_over_m2, random_element, random_word,
                      word_of)
from free_stein.errors import DegreeCapError, ModelError
from free_stein.ncalg import (BAlgebra, KernelMatrix, NCPoly,
                              TensorPoly, commutator_stein_kernel,
                              generator_tuple)
from free_stein.stein import monomial_words
from free_stein.trace import (FreeProductModel, MatrixModel, MeasureModel,
                              SemicircleDensity, SemicircularModel,
                              TableDensity, UniformDensity, catalan,
                              cyclic_group_model, model_from_json,
                              two_point_matrix_model, two_point_measure)


def brute_noncrossing_pair_count(letters):
    """Independent oracle: enumerate all pairings, keep the non-crossing
    index-respecting ones."""
    n = len(letters)
    if n % 2:
        return 0

    def pairings(points):
        if not points:
            yield []
            return
        a = points[0]
        for k in range(1, len(points)):
            b = points[k]
            rest = points[1:k] + points[k + 1:]
            for rest_pairs in pairings(rest):
                yield [(a, b)] + rest_pairs

    count = 0
    for pp in pairings(list(range(n))):
        if any(letters[a] != letters[b] for a, b in pp):
            continue
        crossing = any(a < c < b < d or c < a < d < b
                       for (a, b), (c, d) in itertools.combinations(pp, 2))
        if not crossing:
            count += 1
    return count


# -- matrix models ------------------------------------------------------------


def test_two_point_matrix_moments(twopoint_matrix):
    m = twopoint_matrix
    t = NCPoly.generator(m.system, 0)
    assert abs(m.trace_poly(t * t) - 1) < 1e-14
    assert abs(m.trace_poly(t)) < 1e-14
    assert abs(m.trace_word((0,)) - 1) < 1e-14


def test_matrix_model_validation():
    with pytest.raises(ModelError):
        MatrixModel([(1, 0.5), (1, 0.6)], [[[[1.0]], [[1.0]]]])
    with pytest.raises(ModelError):
        # adjoint of the generator is not the declared star partner
        MatrixModel([(2, 1.0)], [[[[0, 1], [0, 0]]]])


def test_matrix_model_b_blocks_match_the_block_sizes():
    # B = C^2 by p -> 1, q -> 0 on two 1 x 1 blocks: a B basis element is a
    # list of blocks, checked like a generator's, never broadcast
    b = BAlgebra(2, {(0, 0): ((0, 1),), (1, 1): ((1, 1),), (0, 1): (),
                     (1, 0): ()},
                 star=[((0, 1),), ((1, 1),)], unit=((0, 1), (1, 1)))
    blocks, gens = [(1, 0.5), (1, 0.5)], [[[[1.0]], [[-1.0]]]]
    m = MatrixModel(blocks, gens, b_algebra=b,
                    b_basis=[[[[1.0]]] * 2, [[[0.0]]] * 2])
    assert m.trace_word((1, 0, 0)) == 0
    for q in ([[[[0.0]]]] * 2, [[[0.0]]], [[[0.0, 0.0], [0.0, 0.0]]] * 2):
        with pytest.raises(ModelError, match=re.escape(
                "B basis blocks do not match the block sizes")):
            MatrixModel(blocks, gens, b_algebra=b,
                        b_basis=[[[[1.0]]] * 2, q])


@pytest.mark.parametrize("make, message", [
    (lambda: MatrixModel([(1, 0.5), (1, 0.5)], [[[[np.inf]], [[-1.0]]]]),
     "generator entries must be finite"),
    (lambda: MatrixModel([(1, 1.0)], [[[[1.0]]]], b_algebra=BAlgebra.scalar(),
                         b_basis=[[[[np.nan]]]]),
     "B basis entries must be finite"),
    (lambda: MatrixModel([(1, np.nan), (1, 0.5)], [[[[1.0]], [[-1.0]]]]),
     "block weights must be finite"),
    (lambda: MeasureModel([(np.inf, 1.0)]), "atom locations must be finite"),
    (lambda: MeasureModel([(-1.0, 0.5), (1.0, np.nan)]),
     "atom masses must be finite"),
    (lambda: SemicircleDensity(center=np.inf), "semicircle center must be "
     "finite"),
    (lambda: SemicircleDensity(radius=np.nan), "semicircle radius must be "
     "finite"),
    (lambda: UniformDensity(0.0, np.inf), "uniform density b must be finite"),
    (lambda: UniformDensity(0.0, 1.0, mass=np.nan),
     "uniform density mass must be finite"),
    (lambda: TableDensity([(0.0, 1.0), (np.inf, 1.0)]),
     "table density points must be finite"),
    (lambda: TableDensity([(0.0, 1.0), (1.0, np.nan)]),
     "table density points must be finite"),
])
def test_constructors_reject_non_finite_numbers(make, message):
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        make()


def test_matrix_star_pairing_pair():
    m = cyclic_group_model(3)
    sysm = m.system
    u, ustar = generator_tuple(sysm)
    assert abs(m.trace_poly(u * ustar) - 1) < 1e-14
    assert abs(m.trace_poly(u)) < 1e-14
    assert abs(m.trace_poly(u * u * u) - 1) < 1e-14
    assert u.adjoint() == ustar


# -- semicircular families ------------------------------------------------------


def test_semicircular_catalan_vs_bruteforce(semicircular2):
    for k in range(1, 6):
        letters = tuple([0] * (2 * k))
        got = semicircular2.trace_word(word_of(letters))
        assert got == catalan(k)
        assert got == brute_noncrossing_pair_count(letters)


def test_semicircular_mixed_moments(semicircular2, rng):
    m = semicircular2
    assert m.trace_word(word_of([0, 1, 0, 1])) == 0
    assert m.trace_word(word_of([0, 1, 1, 0])) == 1
    assert m.trace_word(word_of([0] * 4)) == 2
    for _ in range(30):
        letters = tuple(rng.randrange(2) for _ in range(rng.randint(0, 8)))
        assert m.trace_word(word_of(letters)) == \
            brute_noncrossing_pair_count(letters)


def test_semicircular_odd_moments_vanish(semicircular1):
    for k in (1, 3, 5, 7):
        assert semicircular1.trace_word(word_of([0] * k)) == 0


# -- inner products ---------------------------------------------------------------


def test_inner_product_examples(semicircular1, semicircular2, twopoint_measure):
    s2 = semicircular2
    one = NCPoly.one(s2.system)
    s_1, _ = generator_tuple(s2.system)
    assert abs(s2.inner_l2(one, one) - 1) < 1e-14
    assert abs(s2.inner_l2(s_1, s_1) - 1) < 1e-14
    t = NCPoly.generator(twopoint_measure.system, 0)
    assert abs(twopoint_measure.inner_l2(t, NCPoly.one(twopoint_measure.system))) < 1e-14

    unit = TensorPoly.unit(s2.system)
    assert abs(s2.inner_tensor(unit, unit) - 1) < 1e-14
    u = TensorPoly.from_pair(s_1, one)
    v = TensorPoly.from_pair(one, s_1)
    assert abs(s2.inner_tensor(u, v)) < 1e-14
    w = TensorPoly.from_pair(s_1, s_1)
    assert abs(s2.inner_tensor(w, w) - 1) < 1e-14

    I2 = KernelMatrix.identity(s2.system)
    assert abs(inner_hs(s2, I2, I2) - 2) < 1e-14
    Z = KernelMatrix.zero(s2.system)
    assert abs(inner_hs(s2, I2, Z)) < 1e-14


def test_commutator_kernel_hs_distance(semicircular1):
    # moment oracle: expanding the half-commutator kernel of the generator
    # against tau(s^2) = 1, tau(s^4) = 2 gives squared distance 3/2
    s1 = semicircular1
    X = generator_tuple(s1.system)
    D = commutator_stein_kernel(X, X) - KernelMatrix.identity(s1.system)
    assert abs(inner_hs(s1, D, D) - 1.5) < 1e-12


def _pushed_semicircle():
    S, = generator_tuple(SemicircularModel(1, cap=24).system)
    return PushForwardModel(SemicircularModel(1, cap=24), (S, S * S))


PAIRING_FAMILIES = {
    "semicircular n=2": lambda: SemicircularModel(2),
    "two-point measure": two_point_measure,
    "cyclic_group_model(5)": lambda: cyclic_group_model(5),
    "two-block unitary": _unitary_pair,
    "M_2 over B = M_2": m2_over_m2,
    "two-point * semicircular": lambda: FreeProductModel(
        [two_point_measure(), SemicircularModel(1)]),
    "push-forward (S, S^2)": _pushed_semicircle,
}


def _random_tensor(system, rng):
    acc = TensorPoly.zero(system)
    for _ in range(rng.randint(0, 3)):
        acc = acc + TensorPoly.from_pair(random_element(system, rng, 3, 1),
                                         random_element(system, rng, 3, 2))
    return acc


@pytest.mark.parametrize("name", PAIRING_FAMILIES)
def test_inner_products_match_the_symbolic_pair_traces(name):
    # the table reads against the per-pair traces of symbolic product words
    model = PAIRING_FAMILIES[name]()
    oracle = SymbolicPairing(model)
    rng = random.Random(29)

    def close(got, want):
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    for _ in range(12):
        p, q = (random_element(model.system, rng, 3) for _ in range(2))
        close(model.inner_l2(p, q), oracle.inner_l2(p, q))
        us, vs = ([_random_tensor(model.system, rng) for _ in range(2)]
                  for _ in range(2))
        close(model.inner_tensor(us[0], vs[0]),
              oracle.inner_tensor(us[0], vs[0]))
        close(model.inner_tensor_row(us, vs),
              sum(oracle.inner_tensor(u, v) for u, v in zip(us, vs)))


@pytest.mark.parametrize("model", [
    SemicircularModel(2),
    FreeProductModel([two_point_measure(), SemicircularModel(1)]),
], ids=["semicircular", "free product"])
def test_trace_word_names_the_cap(model):
    with pytest.raises(DegreeCapError, match="^word degree 13 exceeds cap 12$"):
        model.trace_word(word_of([0] * 13))


def test_inner_tensor_checks_the_cap_on_both_legs():
    # tau(x* 1) = 0 on the left legs; the right legs need degree 3 + 2 > 4.
    # The symbolic pairing skipped the right trace of a zero left trace, the
    # tables check the cap on both legs
    model = SemicircularModel(1, cap=4)
    x, one = NCPoly.generator(model.system, 0), NCPoly.one(model.system)
    u, v = TensorPoly.from_pair(one, x ** 3), TensorPoly.from_pair(x, x * x)
    assert SymbolicPairing(model).inner_tensor(u, v) == 0
    with pytest.raises(DegreeCapError, match="^product degree 5 exceeds cap 4$"):
        model.inner_tensor(u, v)


def test_inner_l2_sesquilinear(semicircular2, rng):
    from conftest import random_poly
    m = semicircular2
    for _ in range(10):
        p = random_poly(m.system, rng, 3)
        q = random_poly(m.system, rng, 3)
        pq = m.inner_l2(p, q)
        qp = m.inner_l2(q, p)
        assert abs(pq - np.conj(qp)) < 1e-10
        assert m.inner_l2(p, p).real >= -1e-12


# -- measure models -----------------------------------------------------------------


def test_semicircle_density_moments():
    m = MeasureModel([], SemicircleDensity())
    for k in range(7):
        assert abs(m.moment(2 * k) - catalan(k)) < 1e-10
        assert abs(m.moment(2 * k + 1)) < 1e-12


def test_uniform_and_table_densities():
    m = MeasureModel([], UniformDensity(0, 1))
    for k in range(1, 8):
        assert abs(m.moment(k) - 1 / (k + 1)) < 1e-11
    flat = TableDensity([(0.0, 1.0), (0.5, 1.0), (1.0, 1.0)])
    mt = MeasureModel([], flat)
    assert abs(mt.moment(1) - 0.5) < 1e-10
    assert abs(mt.moment(2) - 1 / 3) < 1e-10


def test_atoms_plus_density_mass_validation():
    with pytest.raises(ModelError):
        MeasureModel([(3.0, 0.5)], SemicircleDensity())  # total mass 1.5
    with pytest.raises(ModelError):
        MeasureModel([(0.0, 0.4), (0.0, 0.6)])  # duplicate location
    mixed = MeasureModel([(3.0, 0.5)], SemicircleDensity(mass=0.5))
    assert abs(mixed.moment(1) - 1.5) < 1e-10
    assert abs(mixed.moment(2) - (0.5 * 9 + 0.5 * 1)) < 1e-10


# -- free products -------------------------------------------------------------------


def test_free_product_moment_examples(free_two_twopoint):
    fp = free_two_twopoint
    assert abs(fp.trace_word(word_of([0, 1]))) < 1e-14
    assert abs(fp.trace_word(word_of([0, 1, 0, 1]))) < 1e-14
    assert abs(fp.trace_word(word_of([0, 1, 1, 0])) - 1) < 1e-14
    # words inside one factor restrict to the factor trace
    assert abs(fp.trace_word(word_of([0] * 4)) - 1) < 1e-14
    assert abs(fp.trace_word(word_of([1] * 6)) - 1) < 1e-14


def test_free_product_alternating_centered_vanish(rng):
    fp = FreeProductModel([SemicircularModel(1), two_point_matrix_model()])
    # alternating products of centered elements: s x s x ... has trace 0
    for length in (2, 4, 6):
        letters = [i % 2 for i in range(length)]
        assert abs(fp.trace_word(word_of(letters))) < 1e-10
    # tau(s^2 x^2) factorizes
    assert abs(fp.trace_word(word_of([0, 0, 1, 1])) - 1) < 1e-10


def test_free_product_semicircular_matches_joint_model():
    fp = FreeProductModel([SemicircularModel(1), SemicircularModel(1)])
    joint = SemicircularModel(2)
    rng = random.Random(7)
    for _ in range(40):
        w = random_word(joint.system, rng, 8)
        assert abs(fp.trace_word(w) - joint.trace_word(w)) < 1e-12


def test_free_product_cap_above_a_factor_cap_is_rejected():
    # a product word of degree d traces factor words of degree up to d, so
    # the product's cap may not exceed a factor's
    with pytest.raises(ModelError, match=re.escape(
            "free-product cap 16 exceeds the cap 12 of factor 0 "
            "(MeasureModel)")):
        FreeProductModel([two_point_measure(), SemicircularModel(1)], cap=16)
    with pytest.raises(ModelError, match=re.escape(
            "free-product cap 14 exceeds the cap 12 of factor 1 "
            "(SemicircularModel)")):
        FreeProductModel([two_point_measure(cap=14), SemicircularModel(1)],
                         cap=14)
    # equal caps, and a product cap below its factors', are accepted
    fp = FreeProductModel([two_point_measure(cap=16),
                           SemicircularModel(1, cap=16)], cap=16)
    assert fp.system.cap == 16
    assert FreeProductModel([two_point_measure()], cap=6).system.cap == 6


# -- shared model properties -----------------------------------------------------------


def _all_models():
    return [
        two_point_matrix_model(),
        MatrixModel([(2, 1.0)], [[[[1, 0], [0, -1]]], [[[0, 1], [1, 0]]]]),
        SemicircularModel(2),
        MeasureModel([], SemicircleDensity()),
        two_point_measure(),
        FreeProductModel([two_point_matrix_model(), two_point_matrix_model()]),
    ]


@pytest.mark.parametrize("model", _all_models(),
                         ids=lambda m: type(m).__name__ + str(m.n))
def test_trace_property(model):
    rng = random.Random(11)
    for _ in range(25):
        u = random_word(model.system, rng, 4)
        v = random_word(model.system, rng, 4)
        uv = u[:-1] + v
        vu = v[:-1] + u
        assert abs(model.trace_word(uv) - model.trace_word(vu)) < 1e-10


@pytest.mark.parametrize("model", _all_models(),
                         ids=lambda m: type(m).__name__ + str(m.n))
def test_trace_star_symmetry(model):
    rng = random.Random(13)
    for _ in range(20):
        w = random_word(model.system, rng, 6)
        ((wstar, coeff),) = model.system.adjoint_word(w)
        assert coeff == 1
        assert abs(model.trace_word(w) -
                   np.conj(model.trace_word(wstar))) < 1e-10


@pytest.mark.parametrize("model", _all_models(),
                         ids=lambda m: type(m).__name__ + str(m.n))
def test_gram_positivity_degree3(model):
    words = monomial_words(model.system, 0, 3)
    polys = [NCPoly.from_word(model.system, w) for w in words]
    G = np.zeros((len(words), len(words)), dtype=complex)
    for a, pa in enumerate(polys):
        for b, pb in enumerate(polys):
            G[a, b] = model.inner_l2(pb, pa)
    evs = np.linalg.eigvalsh(G)
    assert evs[0] >= -1e-9


# -- JSON specs ---------------------------------------------------------------------


TWO_POINT_SPEC = {"type": "matrix", "blocks": [[1, 0.5], [1, 0.5]],
                  "generators": [[[[[1.0, 0.0]]], [[[-1.0, 0.0]]]]]}
JSON_SPECS = [
    (TWO_POINT_SPEC, two_point_matrix_model),
    ({"type": "matrix", "blocks": [[2, 1.0]],
      "generators": [[[[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]],
                     [[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]]]},
     lambda: MatrixModel([(2, 1.0)], [[[[1, 0], [0, -1]]],
                                      [[[0, 1], [1, 0]]]])),
    ({"type": "matrix", "blocks": [[1, 1 / 3], [1, 2 / 3]],
      "generators": [[[[[0, 1]]], [[[0.955336489125606, 0.29552020666133955]]]],
                     [[[[0, -1]]], [[[0.955336489125606, -0.29552020666133955]]]]],
      "star_pairing": [2, 1]}, _unitary_pair),
    ({"type": "semicircular", "n": 2}, lambda: SemicircularModel(2)),
    ({"type": "measure", "density": {"kind": "semicircle"}},
     lambda: MeasureModel([], SemicircleDensity())),
    ({"type": "measure", "atoms": [[1.0, 0.5], [-1.0, 0.5]]},
     two_point_measure),
    ({"type": "free_product", "factors": [TWO_POINT_SPEC, TWO_POINT_SPEC]},
     lambda: FreeProductModel([two_point_matrix_model(),
                               two_point_matrix_model()])),
]


def test_model_json_roundtrip():
    # every model type read from a literal spec traces as the model built
    # in Python
    for data, make in JSON_SPECS:
        model, again = make(), model_from_json(data)
        assert type(again) is type(model) and again.system == model.system
        rng = random.Random(3)
        for _ in range(10):
            w = random_word(model.system, rng, 5)
            assert abs(model.trace_word(w) - again.trace_word(w)) < 1e-12


def test_model_json_errors(tmp_path):
    with pytest.raises(ModelError):
        model_from_json({"type": "nonsense"})
    with pytest.raises(ModelError):
        model_from_json({"type": "measure", "atoms": [[0.0, 0.4]]})
