import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_poly
from free_stein import stein
from free_stein.closedform import fd_sigma, finite_group_sigma
from free_stein.errors import ModelError, StructureError
from free_stein.fdalg import MatrixCoordinates
from free_stein.ncalg import (KernelMatrix, NCPoly, TensorPoly,
                              commutator_stein_kernel, diff_quotient,
                              generator_tuple, gradient)
from free_stein.scalars import QQi
from free_stein.stein import (DegreeScheme, GramSystem, adjoint_action,
                              alpha_estimate, conjugate_variable_check,
                              discrepancy, irregularity_bounded,
                              irregularity_estimate, join_free_factors,
                              monomial_words, radius_sweep, sigma_exact_fd,
                              solve_adjoint_fd)
from free_stein.trace import (MatrixModel, SemicircularModel,
                              cyclic_group_model, diagonal_matrix_model,
                              two_point_matrix_model, two_point_measure)


# -- degree scheme and basis -----------------------------------------------------


def test_degree_scheme_defaults():
    s = DegreeScheme(2)
    assert s.d_proj == 4
    with pytest.raises(StructureError):
        DegreeScheme(0)


def test_jacobian_basis_counts(semicircular1, semicircular2):
    # tensor degree <= d_proj means monomials of word degree <= d_proj + 1;
    # the basis holds one kernel per slot and Gram row
    gs = GramSystem(semicircular1, 1)
    assert semicircular1.n * len(gs.words) == 2  # words t, t^2
    gs2 = GramSystem(semicircular2, 1)
    assert semicircular2.n * len(gs2.words) == 2 * (2 + 4)
    system = semicircular1.system
    rows = [gradient(NCPoly.from_word(system, w)) for w in gs.words]
    idents = [row for row in rows
              if KernelMatrix(system, [list(row)]) == KernelMatrix.identity(system)]
    assert len(idents) == 1  # the degree-one monomial contributes the identity


def test_gram_view_projects_identity_exactly(twopoint_matrix):
    gs = GramSystem(twopoint_matrix, 3)
    view = gs.view()
    r1 = gs.r_of_identity()
    # the identity kernel lies in the range, so projecting changes nothing
    assert abs(np.linalg.norm(view.z(r1)) - 1.0) < 1e-12
    assert view.cond >= 1.0


# -- discrepancy ---------------------------------------------------------------------


def test_discrepancy_semicircular_zero(semicircular1, semicircular2):
    for model in (semicircular1, semicircular2):
        X = generator_tuple(model.system)
        for d_proj in (1, 2, 3, 4):
            rep = discrepancy(model, X, DegreeScheme(1, d_proj))
            assert rep.value < 1e-8


def test_discrepancy_zero_xi_gives_sqrt_n(twopoint_measure, semicircular2):
    z = tuple(NCPoly.zero(twopoint_measure.system) for _ in range(1))
    rep = discrepancy(twopoint_measure, z, DegreeScheme(2, 2))
    assert abs(rep.value - 1.0) < 1e-10
    z2 = tuple(NCPoly.zero(semicircular2.system) for _ in range(2))
    rep2 = discrepancy(semicircular2, z2, DegreeScheme(1, 2))
    assert abs(rep2.value - math.sqrt(2)) < 1e-10


def test_discrepancy_trail_nondecreasing(twopoint_matrix, rng):
    xi = (random_poly(twopoint_matrix.system, rng, 2, complex_coeffs=False),)
    rep = discrepancy(twopoint_matrix, xi, DegreeScheme(2, 4))
    vals = [v for _, v in rep.trail]
    assert all(vals[i] <= vals[i + 1] + 1e-10 for i in range(len(vals) - 1))
    # projected distance never exceeds the full distance
    A = commutator_stein_kernel(rep.xi, generator_tuple(twopoint_matrix.system))
    D = A - KernelMatrix.identity(twopoint_matrix.system)
    full = math.sqrt(twopoint_matrix.inner_hs(D, D).real)
    assert rep.value <= full + 1e-8


def test_discrepancy_centers_xi(twopoint_matrix):
    t = NCPoly.generator(twopoint_matrix.system, 0)
    shifted = (t + NCPoly.scalar(twopoint_matrix.system, 5),)
    plain = (t,)
    r1 = discrepancy(twopoint_matrix, shifted, DegreeScheme(1, 3))
    r2 = discrepancy(twopoint_matrix, plain, DegreeScheme(1, 3))
    assert abs(r1.value - r2.value) < 1e-12


def test_kernel_difference_orthogonal_to_range(semicircular1):
    # two Stein kernels for the same xi differ orthogonally to the range
    model = semicircular1
    X = generator_tuple(model.system)
    gs = GramSystem(model, 4)
    view = gs.view()
    A = commutator_stein_kernel(X, X)
    zA = view.z(gs.r_of_kernel(A))
    z1 = view.z(gs.r_of_identity())
    assert np.linalg.norm(zA - z1) < 1e-8


# -- irregularity -----------------------------------------------------------------


def test_irregularity_semicircular(semicircular1, semicircular2):
    for model in (semicircular1, semicircular2):
        rep = irregularity_estimate(model, DegreeScheme(2, 4))
        assert abs(rep.sigma - model.n) < 1e-6
        assert rep.irregularity < 1e-6


def test_irregularity_two_point(twopoint_measure, twopoint_matrix):
    for model in (twopoint_measure, twopoint_matrix):
        rep = irregularity_estimate(model, DegreeScheme(2, 4))
        assert abs(rep.irregularity ** 2 - 0.5) < 1e-6
        assert abs(rep.sigma - 0.5) < 1e-6
        assert abs(rep.sigma - (model.n - rep.irregularity ** 2)) < 1e-12


def test_irregularity_three_point(threepoint_measure):
    rep = irregularity_estimate(threepoint_measure, DegreeScheme(2, 4))
    assert abs(rep.irregularity ** 2 - 1 / 3) < 1e-6


def test_irregularity_optimizer_discrepancy_roundtrip(twopoint_matrix):
    est = irregularity_estimate(twopoint_matrix, DegreeScheme(2, 4))
    rep = discrepancy(twopoint_matrix, est.xi, DegreeScheme(2, 4))
    assert abs(rep.value - math.sqrt(0.5)) < 1e-6
    # the reported optimizer is xi = x/2 up to the null directions
    t = NCPoly.generator(twopoint_matrix.system, 0)
    diff = est.xi[0] - t * QQi(Fraction(1, 2))
    norm = twopoint_matrix.inner_l2(diff, diff).real
    assert norm < 1e-12


def test_irregularity_projection_convergence(threepoint_measure):
    # below the resolving degree the projection misses the degree-5 relation
    # direction and the estimate sits at exactly 1/9; from d_proj = 4 on the
    # atomic value 1/3 is reached (both values computable by hand on the
    # nine-point spectral grid)
    for d_proj, expected in ((2, 1 / 9), (3, 1 / 9), (4, 1 / 3), (5, 1 / 3)):
        est = irregularity_estimate(threepoint_measure,
                                    DegreeScheme(2, d_proj))
        assert abs(est.irregularity ** 2 - expected) < 1e-9


def test_design_rank_values(semicircular2):
    cases = ((semicircular2, 2, 12), (two_point_measure(), 3, 1),
             (cyclic_group_model(6), 2, 8))
    for model, d_xi, rank in cases:
        rep = irregularity_estimate(model, DegreeScheme(d_xi))
        assert rep.diagnostics["design_rank"] == rank


def test_star_paired_cyclic_groups_match_finite_group_sigma():
    # the generators (u, u*) are star-paired, not self-adjoint
    for order, d_xis in ((3, (1, 2, 3)), (4, (2, 3))):
        exact = float(finite_group_sigma(order))
        for d_xi in d_xis:
            rep = irregularity_estimate(cyclic_group_model(order),
                                        DegreeScheme(d_xi))
            assert abs(rep.sigma - exact) <= 1e-9


def test_irregularity_trail_nonincreasing_in_dxi(threepoint_measure):
    rep = irregularity_estimate(threepoint_measure, DegreeScheme(3, 5))
    vals = [v for _, v in rep.trail]
    assert all(vals[i] >= vals[i + 1] - 1e-10 for i in range(len(vals) - 1))


def test_bound_chain(twopoint_matrix, rng):
    # the estimate is a lower bound for the discrepancy of any admissible xi
    scheme = DegreeScheme(2, 4)
    est = irregularity_estimate(twopoint_matrix, scheme)
    for _ in range(5):
        xi = (random_poly(twopoint_matrix.system, rng, 2),)
        rep = discrepancy(twopoint_matrix, xi, scheme)
        assert est.irregularity <= rep.value + 1e-10


def test_consistency_with_one_variable_closed_form(twopoint_measure,
                                                   threepoint_measure):
    # at converged knobs the estimated dimension matches the atomic formula
    for model, atoms2 in ((twopoint_measure, 0.5), (threepoint_measure, 1 / 3)):
        rep = irregularity_estimate(model, DegreeScheme(2, 4))
        assert rep.sigma <= (1 - atoms2) + 1e-6


# -- bounded irregularity -----------------------------------------------------------


def test_bounded_interior_and_boundary(semicircular1):
    scheme = DegreeScheme(2, 4)
    for radius in (1.0, 1.5, 2.0):
        rep = irregularity_bounded(semicircular1, scheme, radius)
        assert rep.value < 1e-8
    rep = irregularity_bounded(semicircular1, scheme, 0.5)
    assert rep.value > 0.05
    assert abs(rep.value - 0.5) < 1e-8
    norm = math.sqrt(semicircular1.inner_l2_tuple(rep.xi, rep.xi).real)
    assert abs(norm - 0.5) < 1e-8


def test_bounded_r_zero_matches_zero_xi(twopoint_measure):
    scheme = DegreeScheme(2, 4)
    rep = irregularity_bounded(twopoint_measure, scheme, 0.0)
    zero = discrepancy(twopoint_measure,
                       (NCPoly.zero(twopoint_measure.system),), scheme)
    assert abs(rep.value - zero.value) < 1e-12


def test_bounded_dense_sweep_oracle(semicircular1):
    # the solver value at radius 1/2 is at most every on-sphere candidate
    scheme = DegreeScheme(3, 5)
    target = irregularity_bounded(semicircular1, scheme, 0.5)
    sysm = semicircular1.system
    t = NCPoly.generator(sysm, 0)
    cands = [t, t ** 2, t ** 3]
    centered = [semicircular1.centered(p) for p in cands]
    rng = random.Random(5)
    best = float("inf")
    for _ in range(200):
        coeffs = np.array([rng.gauss(0, 1) for _ in range(3)])
        xi = NCPoly.zero(sysm)
        for c, p in zip(coeffs, centered):
            xi = xi + p * QQi.of(float(c))
        norm = math.sqrt(semicircular1.inner_l2(xi, xi).real)
        xi = xi * QQi.of(0.5 / norm)
        rep = discrepancy(semicircular1, (xi,), scheme, with_trail=False)
        best = min(best, rep.value)
    assert target.value <= best + 1e-9
    assert target.value > 0.05


def test_radius_sweep_convex(twopoint_measure):
    scheme = DegreeScheme(2, 4)
    radii = [0.25 * k for k in range(9)]
    sweep = radius_sweep(twopoint_measure, scheme, radii)
    vals = [rep.value for _, rep in sweep]
    for i in range(1, len(vals) - 1):
        assert vals[i] <= 0.5 * (vals[i - 1] + vals[i + 1]) + 1e-8
    assert all(vals[i] >= vals[i + 1] - 1e-10 for i in range(len(vals) - 1))
    with pytest.raises(StructureError):
        radius_sweep(twopoint_measure, scheme, [1.0, 0.5])


def test_radius_sweep_builds_one_design(monkeypatch):
    calls = []
    design = stein._xi_design

    def counted(*args):
        calls.append(args)
        return design(*args)

    monkeypatch.setattr(stein, "_xi_design", counted)
    radius_sweep(SemicircularModel(1), DegreeScheme(2), [0.25, 0.5, 1.0, 2.0])
    assert len(calls) == 1


def test_radius_sweep_matches_bounded():
    scheme = DegreeScheme(2)
    for make in (lambda: SemicircularModel(2), two_point_measure,
                 lambda: cyclic_group_model(6)):
        sweep = radius_sweep(make(), scheme, [0.0, 0.25, 0.5, 1.0, 3.0])
        for r, rep in sweep:
            assert rep.to_json() == irregularity_bounded(make(), scheme, r).to_json()


# -- exact finite-dimensional dimension ----------------------------------------------


def test_sigma_exact_fd_block_values(twopoint_matrix, m2_model,
                                     m2_plus_c_model):
    assert abs(sigma_exact_fd(twopoint_matrix, d=2).sigma - 0.5) < 1e-10
    assert abs(sigma_exact_fd(m2_model, d=3).sigma - 0.75) < 1e-9
    assert abs(sigma_exact_fd(m2_plus_c_model, d=3).sigma - 7 / 9) < 1e-9


def test_sigma_exact_fd_trail_nonincreasing(m2_plus_c_model):
    rep = sigma_exact_fd(m2_plus_c_model, d=4)
    vals = [v for _, v in rep.trail]
    assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(len(vals) - 1))
    assert rep.diagnostics["stabilized"]
    assert abs(rep.sigma - (m2_plus_c_model.n - rep.irregularity ** 2)) < 1e-12


def test_sigma_exact_three_point(threepoint_matrix):
    rep = sigma_exact_fd(threepoint_matrix, d=2)
    assert abs(rep.sigma - 2 / 3) < 1e-10


def test_sigma_exact_generator_invariance():
    x = [1.0, 2.0, 3.0]
    weights = [1 / 3] * 3
    m1 = diagonal_matrix_model(x, weights)
    m2 = MatrixModel([(1, w) for w in weights],
                     [[[[v]] for v in x], [[[v * v]] for v in x]])
    r1 = sigma_exact_fd(m1, d=3)
    r2 = sigma_exact_fd(m2, d=3)
    assert abs(r1.sigma - 2 / 3) < 1e-10
    assert abs(r1.sigma - r2.sigma) < 1e-10


SZ = [[1.0, 0], [0, -1.0]]
SX = [[0, 1.0], [1.0, 0]]
SY = [[0, -1j], [1j, 0]]


def m2_over_m2():
    """M_2 generated by the Pauli pair over B = M_2 with the matrix-unit
    basis e11, e12, e21, e22."""
    from free_stein.ncalg import BAlgebra

    def idx(p, q):
        return 2 * p + q
    mul = {}
    for p in range(2):
        for q in range(2):
            for r in range(2):
                for s in range(2):
                    mul[(idx(p, q), idx(r, s))] = \
                        (((idx(p, s), 1),) if q == r else ())
    star = [((idx(q, p), 1),) for p in range(2) for q in range(2)]
    b = BAlgebra(4, mul, star=star, unit=((idx(0, 0), 1), (idx(1, 1), 1)))
    basis_mats = [[[1.0, 0], [0, 0]], [[0, 1.0], [0, 0]],
                  [[0, 0], [1.0, 0]], [[0, 0], [0, 1.0]]]
    return MatrixModel([(2, 1.0)], [[SZ], [SX]], b_algebra=b,
                       b_basis=[[m] for m in basis_mats])


def test_sigma_exact_b_relative():
    # over the full algebra every generator is a coefficient: dimension 0
    rep = sigma_exact_fd(m2_over_m2(), d=2)
    assert abs(rep.sigma) < 1e-9
    # relative monotonicity: enlarging B cannot enlarge the dimension
    plain = MatrixModel([(2, 1.0)], [[SZ], [SX]])
    assert rep.sigma <= sigma_exact_fd(plain, d=2).sigma + 1e-9


def test_sigma_exact_group_cross_check():
    for order in (2, 3, 4):
        rep = sigma_exact_fd(cyclic_group_model(order), d=3)
        assert abs(rep.sigma - (1 - 1 / order)) < 1e-9


def _translates_reference(coords, row):
    """Sharp translates of one coordinate row, one contraction per row."""
    out = np.einsum("axy,jyz,bwz->abjxw", coords.left, row, coords.right)
    return out.reshape(coords.D * coords.D, row.shape[0] * coords.D * coords.D)


def _sigma_exact_fd_reference(model, d):
    """Oracle only: relation projection with an explicit null basis of the
    evaluation map, one relation row per null vector and the sharp
    translates of every row stacked before one SVD."""
    coords = MatrixCoordinates(model)
    n, D = model.n, coords.D
    words = monomial_words(model.system, 0, d + 1)
    ev = {w: coords.coords(model.eval_word(w)) for w in words}
    split = {w: np.zeros((n, D, D), dtype=complex) for w in words}
    for w in words:
        for j in range(1, len(w) // 2 + 1):
            split[w][w[2 * j - 1]] += np.outer(ev[w[:2 * j - 1]], ev[w[2 * j:]])
    unit_rows = np.zeros((n, n * D * D), dtype=complex)
    for i in range(n):
        u = np.zeros((n, D, D), dtype=complex)
        u[i] = np.outer(coords.unit, coords.unit)
        unit_rows[i] = u.reshape(-1)
    trail, relations = [], None
    for dd in range(1, d + 1):
        sub = [w for w in words if len(w) <= 2 * (dd + 1) + 1]
        E = np.stack([ev[w] for w in sub], axis=1)
        _, s, vh = np.linalg.svd(E)
        rank = int(np.sum(s > stein.RCOND * s[0]))
        null = vh[rank:].conj().T
        relations = null.shape[1]
        if relations == 0:
            trail.append((dd, float(n)))
            continue
        blocks = []
        for kvec in null.T:
            row = np.zeros((n, D, D), dtype=complex)
            for w, c in zip(sub, kvec):
                if abs(c) > 1e-14:
                    row += c * split[w]
            blocks.append(_translates_reference(coords, row))
        G = np.concatenate(blocks, axis=0)
        _, s2, vh2 = np.linalg.svd(G, full_matrices=False)
        P = vh2[s2 > stein.RCOND * s2[0]]
        sig2 = sum(np.linalg.norm(P @ unit_rows[i]) ** 2 for i in range(n))
        trail.append((dd, n - sig2))
    return trail, relations


def _m2_plus_c():
    return MatrixModel([(2, 2 / 3), (1, 1 / 3)], [[SZ, [[1.0]]], [SX, [[0.0]]]])


def _pauli_triple():
    # complex relations: sz sy = -i sx, so the relation span is not closed
    # under entrywise conjugation of the coefficients
    return MatrixModel([(2, 2 / 3), (1, 1 / 3)],
                       [[SZ, [[1.0]]], [SY, [[0.0]]], [SX, [[-1.0]]]])


def _vanishing_idempotent():
    # B = C^2 represented by p -> 1, q -> 0: every word with a q slot is a
    # relation whose Jacobian row vanishes, the only relations below degree 4
    from free_stein.ncalg import BAlgebra
    b = BAlgebra(2, {(0, 0): ((0, 1),), (1, 1): ((1, 1),), (0, 1): (),
                     (1, 0): ()},
                 star=[((0, 1),), ((1, 1),)], unit=((0, 1), (1, 1)))
    return MatrixModel([(1, 0.25)] * 4, [[[[x]] for x in (-1.0, 0.0, 1.0, 2.0)]],
                       b_algebra=b, b_basis=[[[[1.0]]] * 4, [[[[0.0]]]] * 4])


EXACT_FD_CASES = {
    "M_2 over B = M_2": (m2_over_m2, 2),
    "cyclic group of order 10": (lambda: cyclic_group_model(10), 5),
    "M_2 + C": (_m2_plus_c, 4),
    "two-point": (two_point_matrix_model, 3),
    "three-point": (lambda: diagonal_matrix_model([-1.0, 0.0, 1.0],
                                                  [1 / 3] * 3), 3),
    "M_2": (lambda: MatrixModel([(2, 1.0)], [[SZ], [SX]]), 3),
    "cyclic group of order 4": (lambda: cyclic_group_model(4), 3),
    "Pauli triple over M_2 + C": (_pauli_triple, 2),
    "vanishing B idempotent": (_vanishing_idempotent, 3),
}


@pytest.mark.parametrize("name", EXACT_FD_CASES)
def test_sigma_exact_matches_null_basis_reference(name):
    make, d = EXACT_FD_CASES[name]
    rep = sigma_exact_fd(make(), d=d)
    trail, relations = _sigma_exact_fd_reference(make(), d)
    assert [dd for dd, _ in rep.trail] == [dd for dd, _ in trail]
    for (_, got), (_, want) in zip(rep.trail, trail):
        assert abs(got - want) < 1e-12
    assert rep.diagnostics["relations"] == relations


def test_sharp_translates_batched_matches_per_row():
    coords = MatrixCoordinates(_m2_plus_c())
    gen = np.random.default_rng(7)
    D = coords.D
    rows = gen.normal(size=(3, 2, D, D)) + 1j * gen.normal(size=(3, 2, D, D))
    got = coords.sharp_translates(rows)
    want = np.concatenate([_translates_reference(coords, r) for r in rows])
    assert got.shape == (3 * D * D, 2 * D * D)
    assert np.max(np.abs(got - want)) < 1e-14


def test_sigma_exact_translates_at_most_basis_rows(monkeypatch):
    # the relation rows are reduced to an orthonormal basis of at most
    # n*D*D rows per degree before translation: 2 degrees * 32 rows * D*D
    counted = []
    raw = MatrixCoordinates.sharp_translates

    def counting(self, rows):
        out = raw(self, rows)
        counted.append(out.shape[0])
        return out

    monkeypatch.setattr(MatrixCoordinates, "sharp_translates", counting)
    rep = sigma_exact_fd(m2_over_m2(), d=2)
    n, D = 2, 4
    assert abs(rep.sigma) < 1e-9
    assert 0 < sum(counted) <= 2 * n * D * D * D * D


@st.composite
def block_models(draw):
    """A direct sum of 1-3 blocks of size <= 2 with rational weights and two
    real-symmetric generators drawn from a seeded normal distribution."""
    sizes = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    parts = draw(st.lists(st.integers(1, 6), min_size=len(sizes),
                          max_size=len(sizes)))
    weights = [Fraction(p, sum(parts)) for p in parts]
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    gens = []
    for _ in range(2):
        blocks = []
        for k in sizes:
            a = gen.normal(size=(k, k))
            blocks.append((a + a.T).tolist())
        gens.append(blocks)
    return list(zip(sizes, weights)), gens


@settings(derandomize=True, max_examples=12, deadline=None, database=None)
@given(block_models())
def test_sigma_exact_matches_fd_sigma_on_random_blocks(spec):
    blocks, gens = spec
    rep = sigma_exact_fd(MatrixModel(blocks, gens), d=3)
    assert abs(rep.sigma - float(fd_sigma(blocks))) < 1e-9
    vals = [v for _, v in rep.trail]
    assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(len(vals) - 1))


def test_sigma_exact_requires_matrix_model(semicircular1):
    with pytest.raises(ModelError):
        sigma_exact_fd(semicircular1, d=2)


def test_join_free_factors(twopoint_matrix):
    r = sigma_exact_fd(twopoint_matrix, d=2)
    joined = join_free_factors(r, r)
    assert abs(joined.irregularity ** 2 - 1.0) < 1e-12
    assert abs(joined.sigma - 1.0) < 1e-12


def test_mixed_free_factors_add(threepoint_matrix):
    # unequal factors: squared irregularities 1/2 and 1/3 add under freeness
    from free_stein.trace import FreeProductModel
    fp = FreeProductModel([two_point_matrix_model(),
                           diagonal_matrix_model([-1.0, 0.0, 1.0],
                                                 [1 / 3, 1 / 3, 1 / 3])])
    est = irregularity_estimate(fp, DegreeScheme(2, 4))
    assert abs(est.irregularity ** 2 - 5 / 6) < 2e-3
    r1 = sigma_exact_fd(two_point_matrix_model(), d=2, with_trail=False)
    r2 = sigma_exact_fd(threepoint_matrix, d=2, with_trail=False)
    joined = join_free_factors(r1, r2)
    assert abs(joined.irregularity ** 2 - 5 / 6) < 1e-10


def test_transform_preserves_divergence(twopoint_matrix):
    # pushing a domain row through y = x + x^2 keeps its divergence: the
    # transformed row satisfies the substituted defining relation exactly
    from free_stein.ncalg import transform_kernel
    m = twopoint_matrix
    t = NCPoly.generator(m.system, 0)
    xi = (t * QQi(Fraction(1, 2)),)
    A = commutator_stein_kernel(xi, generator_tuple(m.system))
    row = tuple(A.entries[0])
    eta_adj, res = solve_adjoint_fd(m, row, d=4)
    assert res < 1e-12
    f = t + t * t
    row_y = transform_kernel(row, (f,))
    worst = 0.0
    for k in range(4):
        lhs = m.inner_l2(eta_adj, f ** k)
        dq = TensorPoly.zero(m.system)
        for j in range(k):
            dq = dq + TensorPoly.from_pair(f ** j, f ** (k - 1 - j))
        rhs = m.inner_tensor_row(row_y, (dq,))
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-10


# -- conjugate variables -----------------------------------------------------------


def test_conjugate_check_semicircular(semicircular2):
    X = generator_tuple(semicircular2.system)
    rep = conjugate_variable_check(semicircular2, X, d=4)
    assert rep.residual < 1e-10
    assert abs(rep.fisher_info - 2) < 1e-12
    doubled = tuple(x * QQi(2) for x in X)
    # at P = T the defect of 2X is |<2s, s> - <1(x)1, 1(x)1>| = 1 by linearity
    at_T = abs(semicircular2.inner_l2(doubled[0], X[0])
               - semicircular2.inner_tensor(TensorPoly.unit(semicircular2.system),
                                            diff_quotient(0, X[0])))
    assert abs(at_T - 1.0) < 1e-12
    rep2 = conjugate_variable_check(semicircular2, doubled, d=4)
    assert rep2.residual >= at_T - 1e-12  # the max dominates the P = T defect


def test_conjugate_check_zero_xi(twopoint_measure):
    z = (NCPoly.zero(twopoint_measure.system),)
    rep = conjugate_variable_check(twopoint_measure, z, d=2)
    assert abs(rep.residual - 1.0) < 1e-12  # <1, ev J(t)> = 1 survives
    assert rep.fisher_info == 0.0


# -- adjoint action ------------------------------------------------------------------


def _defining_relation_residual(model, eta, candidate, d=4):
    worst = 0.0
    for w in monomial_words(model.system, 0, d):
        p = NCPoly.from_word(model.system, w)
        lhs = model.inner_l2(candidate, p)
        rhs = sum(model.inner_tensor(eta[j], diff_quotient(j, p))
                  for j in range(model.n))
        worst = max(worst, abs(lhs - rhs))
    return worst


def test_solve_adjoint_fd_on_optimal_kernel(twopoint_matrix):
    model = twopoint_matrix
    t = NCPoly.generator(model.system, 0)
    xi = (t * QQi(Fraction(1, 2)),)
    A = commutator_stein_kernel(xi, generator_tuple(model.system))
    eta = tuple(A.entries[0])
    eta_adj, residual = solve_adjoint_fd(model, eta, d=4)
    assert residual < 1e-10
    assert _defining_relation_residual(model, eta, eta_adj) < 1e-10
    diff = eta_adj - xi[0]
    assert model.inner_l2(diff, diff).real < 1e-12


def test_solve_adjoint_fd_builds_coordinates_once(monkeypatch):
    built = []

    class Counting(stein.MatrixCoordinates):
        def __init__(self, model):
            built.append(model)
            super().__init__(model)

    monkeypatch.setattr(stein, "MatrixCoordinates", Counting)
    model = two_point_matrix_model()
    eta = tuple(KernelMatrix.identity(model.system).entries[0])
    solve_adjoint_fd(model, eta, d=3)
    solve_adjoint_fd(model, eta, d=3)
    assert len(built) == 1


def test_adjoint_action_identity_and_zero(twopoint_matrix):
    model = twopoint_matrix
    one = NCPoly.one(model.system)
    t = NCPoly.generator(model.system, 0)
    xi = (t * QQi(Fraction(1, 2)),)
    A = commutator_stein_kernel(xi, generator_tuple(model.system))
    eta = tuple(A.entries[0])
    out = adjoint_action(model, eta, one, one, xi[0])
    diff = out - xi[0]
    assert model.inner_l2(diff, diff).real < 1e-20
    zeros = tuple(TensorPoly.zero(model.system) for _ in range(model.n))
    out0 = adjoint_action(model, zeros, t, t, NCPoly.zero(model.system))
    assert out0.is_zero


def test_adjoint_action_matches_direct_solve(twopoint_matrix, rng):
    model = twopoint_matrix
    t = NCPoly.generator(model.system, 0)
    xi = (t * QQi(Fraction(1, 2)),)
    A = commutator_stein_kernel(xi, generator_tuple(model.system))
    eta = tuple(A.entries[0])
    eta_adj, res0 = solve_adjoint_fd(model, eta, d=4)
    assert res0 < 1e-10
    for _ in range(8):
        p = random_poly(model.system, rng, 2, complex_coeffs=False)
        q = random_poly(model.system, rng, 2, complex_coeffs=False)
        out = adjoint_action(model, eta, p, q, eta_adj)
        translated = tuple(TensorPoly.from_pair(p, q).sharp(e) for e in eta)
        assert _defining_relation_residual(model, translated, out) < 1e-8


def test_adjoint_action_semicircular_translates():
    # with conjugate variables, eta = identity row and eta_adj = s
    model = SemicircularModel(1)
    (s,) = generator_tuple(model.system)
    one = NCPoly.one(model.system)
    eta = (TensorPoly.unit(model.system),)
    out = adjoint_action(model, eta, s, one, s)
    expected = s * s - one  # s.s - (tau (x) 1) correction
    diff = out - expected
    assert model.inner_l2(diff, diff).real < 1e-20
    out2 = adjoint_action(model, eta, s, s, s)
    expected2 = s * s * s - s * QQi(2)
    diff2 = out2 - expected2
    assert model.inner_l2(diff2, diff2).real < 1e-20


# -- decay exponent ---------------------------------------------------------------------


def test_alpha_examples():
    assert alpha_estimate([(1, 2.0), (2, 2.0), (4, 2.0)]).alpha == 0.0
    rep = alpha_estimate([(r, r ** -0.5) for r in (1, 2, 4, 8, 16)])
    assert abs(rep.alpha + 0.5) < 1e-12
    rep = alpha_estimate([(0.5, 0.4), (1.0, 0.0), (1.5, 0.0), (2.0, 0.0)])
    assert rep.alpha == float("-inf")
    with pytest.raises(StructureError):
        alpha_estimate([(1, 1.0), (2, 0.5)])
    with pytest.raises(StructureError):
        alpha_estimate([(2, 1.0), (1, 0.5), (3, 0.2)])


def test_alpha_from_semicircular_sweep(semicircular1):
    scheme = DegreeScheme(2, 4)
    sweep = radius_sweep(semicircular1, scheme, [0.5, 1.0, 1.5, 2.0])
    rep = alpha_estimate([(r, s.value) for r, s in sweep])
    assert rep.alpha == float("-inf")
    # cross-check the flag with a direct evaluation past the threshold
    assert irregularity_bounded(semicircular1, scheme, 1.5).value < 1e-8
