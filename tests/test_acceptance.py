"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import random
from fractions import Fraction

import numpy as np

from conftest import random_poly, random_word
from free_stein.closedform import (CompressedGeneratorSpec, GraphSpec,
                                   compressed_semicircular_sigma, eps_kernel,
                                   fd_sigma, graph_sigma, log_energy,
                                   one_var_sigma, staircase_energy_trail)
from free_stein.ncalg import (GeneratorSystem, KernelMatrix, NCPoly,
                              TensorPoly, commutator_stein_kernel,
                              diff_quotient, generator_tuple, jacobian)
from free_stein.stein import (DegreeScheme, conjugate_variable_check,
                              discrepancy, irregularity_bounded,
                              irregularity_estimate, join_free_factors,
                              monomial_words, radius_sweep, sigma_exact_fd)
from free_stein.trace import (MatrixModel, MeasureModel, SemicircleDensity,
                              SemicircularModel, UniformDensity, catalan,
                              cyclic_group_model, diagonal_matrix_model, two_point_matrix_model,
                              two_point_measure)

F = Fraction


class _Criterion:
    def __init__(self, number, label):
        self.number = number
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number:2d} {status}: {self.label}")
        return False


def test_criterion_01_leibniz_calculus_suite():
    with _Criterion(1, "Leibniz suite, 500 random pairs, exact"):
        rng = random.Random(101)
        systems = [GeneratorSystem(n) for n in (1, 2, 3)]
        for sysm in systems:
            one = NCPoly.one(sysm)
            for i in range(sysm.n):
                for j in range(sysm.n):
                    d = diff_quotient(i, NCPoly.generator(sysm, j))
                    assert d == (TensorPoly.unit(sysm) if i == j
                                 else TensorPoly.zero(sysm))
            assert jacobian(generator_tuple(sysm)) == KernelMatrix.identity(sysm)
        for trial in range(500):
            sysm = systems[trial % 3]
            one = NCPoly.one(sysm)
            p = random_poly(sysm, rng, max_degree=6)
            q = random_poly(sysm, rng, max_degree=6)
            i = rng.randrange(sysm.n)
            lhs = diff_quotient(i, p * q)
            rhs = (TensorPoly.from_pair(p, one).sharp(diff_quotient(i, q))
                   + TensorPoly.from_pair(one, q).sharp(diff_quotient(i, p)))
            assert lhs == rhs


def test_criterion_02_kernel_identity(semicircular2):
    with _Criterion(2, "half-commutator kernel identity, residual <= 1e-8"):
        model = semicircular2
        sysm = model.system
        gens = generator_tuple(sysm)
        rng = random.Random(202)
        words = monomial_words(sysm, 0, 4)
        unit = TensorPoly.unit(sysm)
        worst = 0.0
        for _ in range(20):
            xi = tuple(model.centered(random_poly(sysm, rng, max_degree=2))
                       for _ in range(2))
            A = commutator_stein_kernel(xi, gens)
            for w in words:
                p = NCPoly.from_word(sysm, w)
                for i in range(2):
                    lhs = model.inner_l2(xi[i], p)
                    rhs = sum(model.inner_tensor(A.entries[i][m],
                                                 diff_quotient(m, p))
                              for m in range(2))
                    worst = max(worst, abs(lhs - rhs))
            # a full monomial tuple, not just one slot
            w1, w2 = rng.choice(words), rng.choice(words)
            P = (NCPoly.from_word(sysm, w1), NCPoly.from_word(sysm, w2))
            lhs = model.inner_l2_tuple(xi, P)
            rhs = sum(model.inner_tensor(A.entries[i][m],
                                         diff_quotient(m, P[i]))
                      for i in range(2) for m in range(2))
            worst = max(worst, abs(lhs - rhs))
        assert worst <= 1e-8


def test_criterion_03_semicircular_exactness(semicircular1, semicircular2):
    with _Criterion(3, "semicircular: zero discrepancy, full dimension"):
        for model in (semicircular1, semicircular2):
            X = generator_tuple(model.system)
            for d_proj in (1, 2, 3, 4):
                rep = discrepancy(model, X, DegreeScheme(1, d_proj),
                                  with_trail=False)
                assert rep.value <= 1e-8
            est = irregularity_estimate(model, DegreeScheme(2, 4))
            assert abs(est.sigma - model.n) <= 1e-6
            conj = conjugate_variable_check(model, X, d=4)
            assert conj.residual <= 1e-10
            assert abs(conj.fisher_info - model.n) <= 1e-12


def test_criterion_04_one_variable_atoms(twopoint_matrix, threepoint_matrix,
                                         twopoint_measure, threepoint_measure):
    with _Criterion(4, "one-variable atomic values 1/2 and 1/3"):
        # (a) closed form, exact rational arithmetic
        sig2, _ = one_var_sigma([(-1, F(1, 2)), (1, F(1, 2))])
        assert sig2 == F(1, 2)
        sig2, _ = one_var_sigma([(-1, F(1, 3)), (0, F(1, 3)), (1, F(1, 3))])
        assert sig2 == F(1, 3)
        # (b) exact finite-dimensional recipe at d = 2
        rep = sigma_exact_fd(twopoint_matrix, d=2, with_trail=False)
        assert abs(rep.irregularity ** 2 - 0.5) <= 1e-10
        rep = sigma_exact_fd(threepoint_matrix, d=2, with_trail=False)
        assert abs(rep.irregularity ** 2 - 1 / 3) <= 1e-10
        # (c) truncated estimate at d_xi = 2, d_proj = 4
        est = irregularity_estimate(twopoint_measure, DegreeScheme(2, 4))
        assert abs(est.irregularity ** 2 - 0.5) <= 1e-6
        est = irregularity_estimate(threepoint_measure, DegreeScheme(2, 4))
        assert abs(est.irregularity ** 2 - 1 / 3) <= 1e-6


def test_criterion_05_finite_dimensional_formula(twopoint_matrix, m2_model,
                                                 m2_plus_c_model):
    with _Criterion(5, "block formula, stable by d = 3, trail monotone"):
        cases = [
            (twopoint_matrix, fd_sigma([(1, F(1, 2)), (1, F(1, 2))])),
            (m2_model, fd_sigma([(2, F(1))])),
            (m2_plus_c_model, fd_sigma([(2, F(2, 3)), (1, F(1, 3))])),
        ]
        for model, expected in cases:
            rep = sigma_exact_fd(model, d=4)
            vals = dict(rep.trail)
            assert abs(vals[3] - float(expected)) <= 1e-9
            assert abs(vals[4] - vals[3]) <= 1e-12  # stabilized by d = 3
            trail = [v for _, v in rep.trail]
            assert all(trail[i] >= trail[i + 1] - 1e-12
                       for i in range(len(trail) - 1))


def test_criterion_06_bounded_fisher(semicircular1):
    with _Criterion(6, "R-bounded irregularity and convex sweep"):
        scheme = DegreeScheme(2, 4)
        for radius in (1.0, 1.5, 2.0):
            rep = irregularity_bounded(semicircular1, scheme, radius)
            assert rep.value <= 1e-8
        assert irregularity_bounded(semicircular1, scheme, 0.5).value > 0.05
        radii = [0.25 * k for k in range(9)]
        sweep = radius_sweep(semicircular1, scheme, radii)
        vals = [rep.value for _, rep in sweep]
        for i in range(1, len(vals) - 1):
            assert vals[i] <= 0.5 * (vals[i - 1] + vals[i + 1]) + 1e-8


def test_criterion_07_additivity(free_two_twopoint, twopoint_matrix):
    with _Criterion(7, "free additivity of squared irregularities"):
        est = irregularity_estimate(free_two_twopoint, DegreeScheme(2, 4))
        assert abs(est.irregularity ** 2 - 1.0) <= 2e-3
        factor = sigma_exact_fd(twopoint_matrix, d=2, with_trail=False)
        joined = join_free_factors(factor, factor)
        assert abs(joined.irregularity ** 2 - 1.0) <= 1e-12


def test_criterion_08_generator_invariance():
    with _Criterion(8, "dimension invariant under (x) -> (x, x^2) and "
                           "(u, u*) -> (Re u, Im u)"):
        values = [1.0, 2.0, 3.0]
        weights = [1 / 3] * 3
        single = diagonal_matrix_model(values, weights)
        pair = MatrixModel([(1, w) for w in weights],
                           [[[[v]] for v in values],
                            [[[v * v]] for v in values]])
        r1 = sigma_exact_fd(single, d=3, with_trail=False)
        r2 = sigma_exact_fd(pair, d=3, with_trail=False)
        assert abs(r1.sigma - 2 / 3) <= 1e-10
        assert abs(r1.sigma - r2.sigma) <= 1e-10
        # the star-paired (u, u*) of Z/3 against the self-adjoint (Re u, Im u)
        u = np.exp(2j * np.pi * np.arange(3) / 3)
        starred = cyclic_group_model(3)
        real = MatrixModel([(1, 1 / 3)] * 3, [[[[v.real]] for v in u],
                                              [[[v.imag]] for v in u]])
        for d_xi in (1, 2):
            e1 = irregularity_estimate(starred, DegreeScheme(d_xi))
            e2 = irregularity_estimate(real, DegreeScheme(d_xi))
            assert abs(e1.sigma - 2 / 3) <= 1e-9
            assert abs(e1.sigma - e2.sigma) <= 1e-9


def test_criterion_09_kernel_gap(semicircular1):
    with _Criterion(9, "half-commutator kernel misses the optimum by 3/2"):
        model = semicircular1
        X = generator_tuple(model.system)
        A = commutator_stein_kernel(X, X)
        D = A - KernelMatrix.identity(model.system)
        # moment oracle: expanding term by term against tau(s^2) = 1,
        # tau(s^4) = 2 gives 1/4*2 + 1 + 1/4*2 + 1 + 2*(1/4 - 1/2 - 1/2) = 3/2
        gap = model.inner_hs(D, D).real
        assert abs(gap - 1.5) <= 1e-10
        rep = discrepancy(model, X, DegreeScheme(1, 4), with_trail=False)
        assert rep.value <= 1e-8


def test_criterion_10_appendix_closed_forms():
    with _Criterion(10, "compressed-semicircular and graph closed forms"):
        rep = compressed_semicircular_sigma(
            CompressedGeneratorSpec([(F(1, 2), F(1, 2), True)]))
        assert rep.t == F(5, 4)
        assert rep.irregularity_sq == F(3, 4)
        assert rep.sigma + 1 == rep.t
        g = graph_sigma(GraphSpec([("a", F(1, 2)), ("b", F(1, 2))],
                                  [("a", "b", 1)]))
        assert g.t == 1
        assert g.sigma_edges + g.sigma_vertices == g.t


def test_criterion_11_eps_kernel_plateau(twopoint_measure, plateau_measure):
    with _Criterion(11, "smoothed kernel bound and plateau"):
        bounds = [eps_kernel(twopoint_measure, e, with_field=False).bound
                  for e in (0.1, 0.01, 0.001)]
        assert abs(bounds[-1] - 0.5) <= 1e-3
        assert bounds[0] >= bounds[1] >= bounds[2]
        r2 = eps_kernel(plateau_measure, 1e-2)
        r3 = eps_kernel(plateau_measure, 1e-3)
        assert abs(r3.bound - 0.25) <= 1e-3
        assert r2.bound >= r3.bound
        assert abs(r2.g_l2 - r3.g_l2) / r3.g_l2 < 0.01


def test_criterion_12_log_energy(twopoint_measure):
    with _Criterion(12, "logarithmic energy fixtures"):
        uniform = MeasureModel([], UniformDensity(0, 1))
        assert abs(log_energy(uniform) + 1.5) <= 1e-6
        trail = staircase_energy_trail(6)
        vals = [float(v) for _, v in trail]
        assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))
        assert vals[-1] < -1e6
        assert log_energy(twopoint_measure) == float("-inf")


def test_criterion_13_trace_property_suite():
    with _Criterion(13, "trace models: property suite on fixed seeds"):
        rng = random.Random(1313)
        models = [two_point_matrix_model(), SemicircularModel(2),
                  MeasureModel([], SemicircleDensity()), two_point_measure()]
        from free_stein.trace import FreeProductModel
        models.append(FreeProductModel([two_point_matrix_model(),
                                        two_point_matrix_model()]))
        # traciality
        for model in models:
            for _ in range(20):
                u = random_word(model.system, rng, 4)
                v = random_word(model.system, rng, 4)
                assert abs(model.trace_word(u[:-1] + v)
                           - model.trace_word(v[:-1] + u)) <= 1e-10
        # Gram positivity on words of degree <= 3
        for model in models:
            words = monomial_words(model.system, 0, 3)
            polys = [NCPoly.from_word(model.system, w) for w in words]
            G = np.array([[model.inner_l2(pb, pa) for pb in polys]
                          for pa in polys])
            assert np.linalg.eigvalsh(G)[0] >= -1e-9
        # Catalan moments, both by pairing recursion and by quadrature
        s = SemicircularModel(1)
        mq = MeasureModel([], SemicircleDensity())
        for k in range(6):
            w = (0,) + (0, 0) * (2 * k)
            assert s.trace_word(w) == catalan(k)
        for k in range(7):
            assert abs(mq.moment(2 * k) - catalan(k)) <= 1e-10
        # freeness factorization: factor restriction and centered vanishing
        fp = models[-1]
        assert abs(fp.trace_word((0, 0, 0, 0, 0)) - 1) <= 1e-12
        for length in (2, 4, 6, 8):
            letters = [i % 2 for i in range(length)]
            w = [0]
            for l in letters:
                w.extend((l, 0))
            assert abs(fp.trace_word(tuple(w))) <= 1e-10
