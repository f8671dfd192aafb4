import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from free_stein import quadrature
from free_stein.closedform import (CompressedGeneratorSpec, GraphSpec,
                                   compressed_semicircular_sigma,
                                   eps_kernel, fd_sigma, finite_group_sigma,
                                   graph_sigma, group_sigma, log_energy,
                                   one_var_sigma, staircase_energy_trail)
from free_stein.errors import ModelError, QuadratureError
from free_stein.stein import sigma_exact_fd
from free_stein.trace import (MatrixModel, MeasureModel, SemicircleDensity,
                              UniformDensity, cyclic_group_model,
                              diagonal_matrix_model)

F = Fraction


# -- one-variable atoms ---------------------------------------------------------


def test_one_var_sigma_examples():
    sig2, sigma = one_var_sigma(MeasureModel([], SemicircleDensity()))
    assert sig2 == 0 and sigma == 1
    sig2, sigma = one_var_sigma([(-1, F(1, 2)), (1, F(1, 2))])
    assert sig2 == F(1, 2) and sigma == F(1, 2)
    sig2, _ = one_var_sigma([(j, F(1, 3)) for j in range(3)])
    assert sig2 == F(1, 3)


def test_one_var_sigma_accepts_every_measure_model():
    # the constructor accepts masses of total 1 within 1e-12, and the exact
    # sum of five binary 0.2s is just above 1
    five = MeasureModel([(k, 0.2) for k in range(5)])
    assert sum(F(m) for _, m in five.atoms) > 1
    _, sigma = one_var_sigma(five)
    assert abs(float(sigma) - 0.8) <= 1e-15
    _, sigma = one_var_sigma(MeasureModel([(-1, 0.4), (-2, 0.2), (-3, 0.4)]))
    assert abs(float(sigma) - 0.64) <= 1e-15
    # atoms given as an iterable are still checked exactly
    with pytest.raises(ModelError, match="^atom masses exceed total mass 1$"):
        one_var_sigma(five.atoms)


def test_eigenvalue_multiplicities():
    # a 3 x 3 Hermitian matrix with eigenvalue multiplicities (2, 1) has
    # atoms of mass 2/3 and 1/3 under the normalized trace, so its squared
    # irregularity is sum (m_j / N)^2, in closed form and in exact mode
    sig2, _ = one_var_sigma([(0, F(2, 3)), (1, F(1, 3))])
    assert sig2 == F(4, 9) + F(1, 9)
    q, _ = np.linalg.qr(np.array([[1.0, 2, 0], [0, 1, 3], [1, 0, 1]]))
    mat = q @ np.diag([0.0, 0.0, 1.0]) @ q.T
    rep = sigma_exact_fd(MatrixModel([(3, 1.0)], [[mat.tolist()]]), d=2)
    assert abs(rep.irregularity ** 2 - float(sig2)) < 1e-10


def test_one_var_matches_exact_fd(rng):
    # random rational atomic measures, encoded as diagonal matrix models
    for _ in range(5):
        k = rng.randint(2, 4)
        raw = [rng.randint(1, 5) for _ in range(k)]
        total = sum(raw)
        masses = [F(r, total) for r in raw]
        locs = sorted(rng.sample(range(-6, 7), k))
        sig2, sigma = one_var_sigma(list(zip(locs, masses)))
        model = diagonal_matrix_model([float(l) for l in locs],
                                      [float(m) for m in masses])
        rep = sigma_exact_fd(model, d=k)
        assert abs(rep.sigma - float(sigma)) < 1e-10


# -- finite-dimensional blocks ----------------------------------------------------


def test_fd_sigma_values():
    assert fd_sigma([(1, F(1, 2)), (1, F(1, 2))]) == F(1, 2)
    assert fd_sigma([(2, 1)]) == F(3, 4)
    assert fd_sigma([(2, F(2, 3)), (1, F(1, 3))]) == F(7, 9)
    with pytest.raises(ModelError):
        fd_sigma([(2, F(1, 2))])


# -- group algebras ----------------------------------------------------------------


def test_group_sigma_values():
    assert group_sigma(0, 0) == 1
    assert finite_group_sigma(2) == F(1, 2)
    assert finite_group_sigma(3) == F(2, 3)
    # abelian finite groups decompose into one-dimensional characters
    for order in (2, 3, 5):
        assert finite_group_sigma(order) == \
            fd_sigma([(1, F(1, order))] * order)


def test_finite_group_numerical_cross_check():
    for order in (2, 3):
        rep = sigma_exact_fd(cyclic_group_model(order), d=3)
        assert abs(rep.sigma - float(finite_group_sigma(order))) < 1e-9


# -- compressed semicircular generators -----------------------------------------------


def test_compressed_semicircular_one_pair():
    rep = compressed_semicircular_sigma(
        CompressedGeneratorSpec([(F(1, 2), F(1, 2), True)]))
    assert rep.t == F(5, 4)
    assert rep.irregularity_sq == F(3, 4)
    assert rep.sigma == F(1, 4)
    assert rep.sigma + 1 == rep.t


def test_compressed_semicircular_edge_cases():
    full = compressed_semicircular_sigma(
        CompressedGeneratorSpec([(1, 1, True), (1, 1, False)]))
    assert full.irregularity_sq == 0
    assert full.t == full.tuple_length + 1
    empty = compressed_semicircular_sigma(CompressedGeneratorSpec([]))
    assert empty.t == 1 and empty.irregularity_sq == 0 and empty.sigma == 0
    with pytest.raises(ModelError):
        CompressedGeneratorSpec([(F(3, 2), 1, False)])
    with pytest.raises(ModelError):
        CompressedGeneratorSpec([(F(1, 2), F(1, 3), True)])


# -- free graph algebras ----------------------------------------------------------------


def test_graph_two_vertices_one_edge():
    g = GraphSpec([("a", F(1, 2)), ("b", F(1, 2))], [("a", "b", 1)])
    rep = graph_sigma(g)
    assert rep.t == 1
    assert rep.irregularity_sq == F(3, 2)
    assert rep.sigma_edges == F(1, 2)
    assert rep.sigma_vertices == F(1, 2)
    assert rep.sigma_edges + rep.sigma_vertices == rep.t
    assert not rep.loops_flagged


def test_graph_loop_convention():
    rep = graph_sigma(GraphSpec([("v", 1)], [("v", "v", 1)]))
    assert rep.directed_edges == 1
    assert rep.t == 1
    assert rep.sigma_edges + rep.sigma_vertices == rep.t
    assert rep.loops_flagged


def test_graph_identity_random(rng):
    for _ in range(10):
        k = rng.randint(2, 4)
        raw = [rng.randint(1, 4) for _ in range(k)]
        total = sum(raw)
        names = [f"v{i}" for i in range(k)]
        weights = [(names[i], F(raw[i], total)) for i in range(k)]
        edges = [(names[i - 1], names[i], rng.randint(1, 2))
                 for i in range(1, k)]
        if rng.random() < 0.5:
            edges.append((names[0], names[0], 1))
        rep = graph_sigma(GraphSpec(weights, edges))
        assert rep.sigma_edges + rep.sigma_vertices == rep.t


def test_graph_validation():
    with pytest.raises(ModelError):
        GraphSpec([("a", F(1, 2)), ("b", F(1, 2))], [])
    with pytest.raises(ModelError):
        GraphSpec([("a", F(1, 3)), ("b", F(1, 3)), ("c", F(1, 3))],
                  [("a", "b", 1)])
    with pytest.raises(ModelError):
        GraphSpec([("a", 1)], [("a", "z", 1)])


@pytest.mark.parametrize("edge", [("a", "b", 2.5), ("a", "b", "x"), ("a",),
                                  ("a", "b", 1, 2), ("a", "b", None), 5])
def test_graph_malformed_edge_is_a_model_error(edge):
    with pytest.raises(ModelError, match=f"edge {re.escape(repr(edge))} is "
                                         "malformed"):
        GraphSpec({"a": F(1, 2), "b": F(1, 2)}, [edge])


# -- smoothed kernel bound -----------------------------------------------------------


def test_eps_kernel_point_mass():
    for eps in (1.0, 0.1, 0.003):
        rep = eps_kernel(MeasureModel([(0.0, 1.0)]), eps)
        assert abs(rep.bound - 1.0) < 1e-14


@pytest.mark.parametrize("eps", [0.0, -0.1, float("nan"), float("inf")])
def test_eps_kernel_rejects_eps_outside_the_positive_reals(twopoint_measure,
                                                           eps):
    with pytest.raises(ModelError, match="eps must be finite and positive"):
        eps_kernel(twopoint_measure, eps)


@pytest.mark.parametrize("eps", [1e-170, 1e-78, 5e-324])
def test_eps_kernel_rejects_eps_whose_fourth_power_underflows(
        twopoint_measure, eps):
    with pytest.raises(ModelError, match=r"eps\*\*4 underflows"):
        eps_kernel(twopoint_measure, eps)


def test_eps_kernel_accepts_a_tiny_eps_with_a_normal_fourth_power(
        twopoint_measure):
    rep = eps_kernel(twopoint_measure, 1e-76)
    # the two atoms' own terms: mass 1/2 each, the kernel 1 at distance 0
    assert rep.bound == 0.5
    assert all(np.isfinite(v) for _, v in rep.g_atoms)


def test_eps_kernel_two_point(twopoint_measure):
    bounds = [eps_kernel(twopoint_measure, e).bound
              for e in (0.3, 0.1, 0.01, 0.001)]
    assert all(bounds[i] >= bounds[i + 1] for i in range(len(bounds) - 1))
    assert abs(bounds[-1] - 0.5) < 1e-3
    assert bounds[-1] >= 0.5


def test_eps_kernel_atom_limit_matches_one_var(rng):
    # measures with atom gaps >= 1/2: the small-eps bound is the mass sum
    atoms = [(-1.0, 0.3), (0.0, 0.5), (1.5, 0.2)]
    m = MeasureModel(atoms)
    rep = eps_kernel(m, 1e-3)
    sig2, _ = one_var_sigma(atoms)
    assert abs(rep.bound - float(sig2)) < 1e-3


def test_eps_kernel_plateau(plateau_measure):
    r2 = eps_kernel(plateau_measure, 1e-2)
    r3 = eps_kernel(plateau_measure, 1e-3)
    assert abs(r3.bound - 0.25) < 1e-3
    assert r2.bound >= r3.bound
    assert abs(r2.g_l2 - r3.g_l2) / r3.g_l2 < 0.01
    assert r3.g_atoms and r3.g_grid


def test_eps_kernel_grid_of_zero_points_is_empty(plateau_measure):
    # the guard rejects negative counts only (see the CLI guard tests)
    rep = eps_kernel(plateau_measure, 1e-2, grid_points=0)
    assert rep.g_grid == [] and rep.g_atoms


@pytest.mark.xfail(raises=QuadratureError, strict=True, reason=(
    "FOUND in CHANGES.md: the g_l2 pass of eps_kernel does not converge on "
    "the uniform density for eps from 1e-8 down to 1e-20"))
def test_eps_kernel_uniform_small_eps():
    rep = eps_kernel(MeasureModel([], UniformDensity(0, 1)), 1e-8)
    assert np.isfinite(rep.bound) and np.isfinite(rep.g_l2)


def test_eps_kernel_builds_nodes_once(plateau_measure, monkeypatch):
    calls = Counter()
    leggauss = np.polynomial.legendre.leggauss

    def counting(n):
        calls[n] += 1
        return leggauss(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    quadrature._leggauss.cache_clear()
    eps_kernel(plateau_measure, 0.1)
    assert calls and max(calls.values()) == 1


def test_eps_kernel_validation(twopoint_measure):
    with pytest.raises(ModelError):
        eps_kernel(twopoint_measure, 0.0)


# -- logarithmic energy --------------------------------------------------------------


def test_log_energy_uniform():
    val = log_energy(MeasureModel([], UniformDensity(0, 1)))
    assert abs(val + 1.5) < 1e-6


def test_log_energy_atomic_is_minus_infinity(twopoint_measure):
    assert log_energy(twopoint_measure) == float("-inf")
    mixed = MeasureModel([(3.0, 0.5)], SemicircleDensity(mass=0.5))
    assert log_energy(mixed) == float("-inf")


def test_log_energy_semicircle_finite():
    val = log_energy(MeasureModel([], SemicircleDensity()))
    # semicircle on [-2, 2] has logarithmic energy -1/4
    assert abs(val + 0.25) < 1e-6


def test_staircase_trail():
    trail = staircase_energy_trail(6)
    vals = [v for _, v in trail]
    assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))
    assert vals[0] <= -F(12, 1) - F(3, 8)
    assert vals[-1] < -10 ** 6
    # dominated by the advertised partial-sum bound
    for k, v in trail:
        assert v <= -sum(F(12, 1) ** j * F(1, 4) ** j for j in range(1, k + 1))
    with pytest.raises(ModelError):
        staircase_energy_trail(0)
