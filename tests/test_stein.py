import bisect
import contextlib
import io
import itertools
import json
import math
import random
import time
from fractions import Fraction
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import conftest
from conftest import (PushForwardModel, SymbolicPairing, _unitary_pair,
                      _word_table, adjoint_action, candidate_gram_reference,
                      coords_matrix, dense_eigh_kept, dense_gram, eval_word,
                      inner_hs, inner_l2_tuple, m2_over_m2, matrix_to_poly,
                      random_element, random_poly, scattered_eigenpairs,
                      solve_adjoint_fd, transform_kernel, view_labels)
from free_stein import stein
from free_stein.closedform import fd_sigma, finite_group_sigma
from free_stein.errors import DegreeCapError, ModelError, StructureError
from free_stein.fdalg import MatrixCoordinates
from free_stein.ncalg import (KernelMatrix, NCPoly, TensorPoly,
                              commutator_stein_kernel, diff_quotient,
                              generator_tuple, gradient)
from free_stein.parser import parse_poly_tuple
from free_stein.scalars import QQi
from free_stein.stein import (DegreeScheme, GramSystem, alpha_estimate,
                              conjugate_variable_check, discrepancy,
                              irregularity_bounded, irregularity_estimate,
                              monomial_words, radius_sweep, sigma_exact_fd)
from free_stein.trace import (FreeProductModel, MatrixModel, MeasureModel,
                              SemicircularModel, cyclic_group_model,
                              diagonal_matrix_model, model_from_json,
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


# -- the split eigendecomposition ---------------------------------------------------


def _gram(make_model, d_proj):
    return lambda: GramSystem(make_model(), d_proj)


def _decomposed(A):
    """``(A, labels, vals, vecs)``: a Gram system's full view, decomposed
    from its entries, with the dense oracle of its ``W``; any other matrix
    through :func:`stein._eigh_blocks`, its components gathered out of it
    as the blocks.  The eigenpairs are scattered into the dense sorted
    layout (:func:`scattered_eigenpairs`)."""
    if isinstance(A, GramSystem):
        view = A.view()
        return (dense_gram(A), view_labels(A, view.k),
                *scattered_eigenpairs(view.parts, view.k))
    labels = stein._components(A)
    blocks = [(idx, A[idx[:, :, None], idx[:, None, :]])
              for idx in stein._size_runs(labels)]
    return A, labels, *scattered_eigenpairs(stein._eigh_blocks(blocks), len(A))


def _free_product():
    return FreeProductModel([two_point_measure(), SemicircularModel(1)])


def _random_spd():
    x = np.random.default_rng(3).normal(size=(40, 40))
    return x @ x.T


def _candidate_gram_semicircular2():
    model = SemicircularModel(2)
    words = monomial_words(model.system, 1, 3)
    return GramSystem(model, 5).candidate_gram(words)


# the Gram systems of the benchmark's library estimates and CLI reports, a
# complex Gram with one component, a candidate Gram and a dense matrix
SPLIT_MATRICES = {
    "semicircular n=3, d_proj=4": _gram(lambda: SemicircularModel(3), 4),
    "semicircular n=2, d_proj=5": _gram(lambda: SemicircularModel(2), 5),
    "semicircular n=2, d_proj=4": _gram(lambda: SemicircularModel(2), 4),
    "semicircular n=1, d_proj=5": _gram(lambda: SemicircularModel(1), 5),
    "two-point * semicircular, d_proj=5": _gram(_free_product, 5),
    "cyclic group of order 3, d_proj=4":
        _gram(lambda: cyclic_group_model(3), 4),
    "candidate Gram, semicircular n=2, d_xi=3": _candidate_gram_semicircular2,
    "random dense SPD": _random_spd,
}


def _bfs_components(A):
    """Oracle: component labels by breadth-first search over ``A != 0``,
    each the smallest row index of its component."""
    label = [-1] * len(A)
    for root in range(len(A)):
        if label[root] >= 0:
            continue
        label[root], queue = root, [root]
        while queue:
            i = queue.pop()
            for j in np.flatnonzero(A[i]):
                if label[j] < 0:
                    label[j] = root
                    queue.append(j)
    return label


@pytest.mark.parametrize("name", SPLIT_MATRICES)
def test_split_eigh_matches_full_eigh(name):
    A, labels, vals, vecs = _decomposed(SPLIT_MATRICES[name]())
    assert labels.tolist() == _bfs_components(A)
    full, full_vecs = np.linalg.eigh(A)
    keep = full > stein.RCOND * full[-1]
    full, full_vecs = full[keep], full_vecs[:, keep]
    assert len(vals) == len(full) and np.all(np.diff(vals) >= 0)
    # eigenvalues to 1e-12 of the top one: eigh resolves them to eps |A|
    assert np.max(np.abs(vals - full)) <= 1e-12 * full[-1]
    proj = vecs @ vecs.conj().T - full_vecs @ full_vecs.conj().T
    assert np.max(np.abs(proj)) <= 1e-12
    cond, full_cond = vals[-1] / vals[0], full[-1] / full[0]
    assert abs(cond / full_cond - 1) <= 1e-10


@st.composite
def hermitian_patterns(draw):
    """Hermitian ``m x m`` matrices, m from 0 to 80, real or complex, whose
    nonzero pattern is random and sparse, one randomly permuted path through
    some of the rows (the others isolated; the longest label chains), or
    fully dense; some diagonal entries are zero."""
    m = draw(st.integers(0, 80))
    kind = draw(st.sampled_from(["sparse", "path", "dense"]))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "sparse":
        mask = gen.random((m, m)) < draw(st.floats(0, 0.1))
    elif kind == "path":
        mask = np.zeros((m, m), dtype=bool)
        walk = gen.permutation(m)[:draw(st.integers(0, m))]
        mask[walk[:-1], walk[1:]] = True
    else:
        mask = np.ones((m, m), dtype=bool)
    mask |= mask.T
    mask[np.diag_indices(m)] = gen.random(m) < 0.5
    A = np.where(mask, gen.normal(size=(m, m)) + 1j * gen.normal(size=(m, m)),
                 0)
    A = np.triu(A) + np.triu(A, 1).conj().T
    np.fill_diagonal(A, A.diagonal().real)
    return A.real.copy() if draw(st.booleans()) else A


@settings(max_examples=150)
@given(hermitian_patterns())
def test_components_match_breadth_first_search(A):
    assert stein._components(A).tolist() == _bfs_components(A)


@st.composite
def edge_lists(draw):
    """``(size, u, v)``: undirected graphs on 0 to 60 nodes, each edge drawn
    one way only, with repeated edges, self-loops and nodes on no edge, and
    sometimes a randomly permuted path through some of the nodes (the
    longest label chains)."""
    size = draw(st.integers(0, 60))
    node = st.integers(0, max(size - 1, 0))
    edges = draw(st.lists(st.tuples(node, node), max_size=2 * size))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=10))
    if size > 1 and draw(st.booleans()):
        walk = draw(st.permutations(range(size)))[:draw(st.integers(2, size))]
        edges += list(zip(walk[:-1], walk[1:]))
    u, v = np.array(edges, dtype=np.intp).reshape(-1, 2).T
    return size, u, v


@settings(max_examples=150)
@given(edge_lists())
@example((0, np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)))
def test_min_labels_of_edge_lists_match_breadth_first_search(graph):
    size, u, v = graph
    A = np.zeros((size, size), dtype=bool)
    A[u, v] = A[v, u] = True
    label = stein._min_labels(u, v, size)
    assert label.dtype == np.intp
    assert label.tolist() == _bfs_components(A)


def test_components_of_an_empty_matrix():
    label = stein._components(np.zeros((0, 0)))
    assert label.shape == (0,) and label.dtype == np.intp


def test_split_components_of_structured_grams():
    gs = GramSystem(SemicircularModel(3), 4)
    labels = view_labels(gs, len(gs.words))
    sizes = np.bincount(np.unique(labels, return_inverse=True)[1])
    assert len(sizes) == 94 and sizes.max() == 35
    # odd moments vanish: no odd-degree candidate links an even-degree one
    labels = stein._components(_candidate_gram_semicircular2())
    odd = np.array([len(w) // 2 % 2 for w in
                    monomial_words(SemicircularModel(2).system, 1, 3)], bool)
    assert not set(labels[odd]) & set(labels[~odd])
    assert len(set(labels)) == 8
    # no zero pattern: one block, decomposed as the whole matrix
    for make in (_gram(lambda: cyclic_group_model(3), 4), _random_spd):
        A, labels, vals, vecs = _decomposed(make())
        assert set(labels) == {0}
        full, full_vecs = np.linalg.eigh(A)
        keep = full > stein.RCOND * full[-1]
        assert np.array_equal(vals, full[keep])
        assert np.array_equal(vecs, full_vecs[:, keep])


def test_split_eigh_cuts_globally():
    # two components, each dense: the second one's small eigenvalue is
    # under RCOND times the global top but far over its own top's cut
    rot = np.array([[0.6, 0.8], [-0.8, 0.6]])
    small = rot @ np.diag([0.5e-10, 1e-3]) @ rot.T
    A = np.zeros((4, 4))
    A[np.ix_([0, 2], [0, 2])] = rot @ np.diag([1.0, 0.5]) @ rot.T
    A[np.ix_([1, 3], [1, 3])] = small
    assert stein._components(A).tolist() == [0, 1, 0, 1]
    idx = np.array([[0, 2], [1, 3]])
    parts = stein._eigh_blocks([(idx, A[idx[:, :, None], idx[:, None, :]])])
    # the second block keeps a suffix of one pair, the first both of its own
    ((rows, _, _, keep),) = parts
    assert rows is idx and keep.tolist() == [[True, True], [False, True]]
    vals, vecs = scattered_eigenpairs(parts, 4)
    assert vecs.shape == (4, 3)
    assert np.allclose(vals, [1e-3, 0.5, 1.0], rtol=1e-12, atol=0)
    block = np.linalg.eigvalsh(small)
    assert np.sum(block > stein.RCOND * block[-1]) == 2  # a per-block cut


@pytest.mark.parametrize("make, rank", [
    (lambda: SemicircularModel(2), 14),
    (two_point_measure, 1),  # t^2 = 1: t^2 and t^3 add no direction
    (lambda: cyclic_group_model(5), 4),
], ids=["semicircular n=2", "two-point measure", "cyclic group of order 5"])
def test_candidate_gram_as_one_block_keeps_the_oracle_eigenvalues(make, rank):
    # the bounded solver's call: the candidate Gram as the one block
    model = make()
    Q = GramSystem(model, 3).candidate_gram(monomial_words(model.system, 1, 3))
    parts = stein._eigh_blocks([(np.arange(len(Q))[None], Q[None])])
    # one block: its stack is cut to exactly the kept pairs
    ((_, _, v, keep),) = parts
    assert keep.all() and v.shape == (1, len(Q), rank)
    vals, vecs = scattered_eigenpairs(parts, len(Q))
    want, want_vecs = dense_eigh_kept(Q)
    assert len(vals) == len(want) == rank
    assert np.max(np.abs(vals - want)) <= 1e-12 * want[-1]
    proj = vecs @ vecs.conj().T - want_vecs @ want_vecs.conj().T
    assert np.max(np.abs(proj)) <= 1e-12


def test_semicircular_gram_is_fock_factorization():
    # The free difference quotient of the Wick word W_u (W_u Omega = e_u)
    # is the sum of its splits into Wick words, so <d W_u, d W_v> = len(u)
    # when u = v and 0 otherwise: W = L N L^T with L the non-vacuum Fock
    # coordinates of the basis words and N the Fock lengths.
    for n, d_proj in ((1, 5), (2, 5), (3, 4)):
        model = SemicircularModel(n)
        gs = GramSystem(model, d_proj)
        depth = d_proj + 1
        L = model._fock_vectors(gs.words, depth)[:, 1:]
        lengths = [len(u) for k in range(1, depth + 1)
                   for u in itertools.product(range(n), repeat=k)]
        assert np.max(np.abs(dense_gram(gs) - (L * lengths) @ L.T)) == 0.0


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
    full = math.sqrt(inner_hs(twopoint_matrix, D, D).real)
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


# -- degree sweeps ----------------------------------------------------------------


TWO_BLOCK = {"type": "matrix", "blocks": [[1, 0.5], [1, 0.5]],
             "generators": [[[[[1.0, 0.0]]], [[[-1.0, 0.0]]]]]}
# model, largest d_xi, and whether every report equals the one-point
# estimate bit for bit
DEGREE_SWEEP_MODELS = {
    "semicircular n=1": (lambda cap: SemicircularModel(1, cap=cap), 5, True),
    "semicircular n=2": (lambda cap: SemicircularModel(2, cap=cap), 2, True),
    "two-point": (lambda cap: two_point_measure(cap=cap), 5, True),
    "two-point * semicircular": (lambda cap: FreeProductModel(
        [two_point_measure(cap=cap), SemicircularModel(1, cap=cap)], cap=cap),
        2, True),
    "two-block matrix spec": (
        lambda cap: model_from_json(TWO_BLOCK, cap=cap), 4, True),
    # the moment table of a matrix model is one BLAS product over the legs
    # of the largest point, which rounds its entries apart
    "cyclic group of order 5": (
        lambda cap: cyclic_group_model(5, cap=cap), 2, False),
}


def _close(got, want):
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("cap", [12, 14])
@pytest.mark.parametrize("offset", [0, 1, 2, 3])
@pytest.mark.parametrize("name", DEGREE_SWEEP_MODELS)
def test_degree_sweep_matches_single_estimates(name, offset, cap):
    make, top, exact = DEGREE_SWEEP_MODELS[name]
    # the largest point within the cap, at most ``top``
    dxi_max = min(top, (cap - 2) // 2 - offset, (cap - offset - 1) // 2)
    sweep = stein.degree_sweep(make(cap), dxi_max, offset)
    model = make(cap)
    singles = [irregularity_estimate(model, DegreeScheme(dx, dx + offset))
               for dx in range(1, dxi_max + 1)]
    assert [rep.scheme for rep in sweep] == [rep.scheme for rep in singles]
    for got, want in zip(sweep, singles, strict=True):
        if exact and (offset or name != "two-block matrix spec"):
            assert got.to_json() == want.to_json()
            continue
        # the two-block estimate at d_proj = d_xi is a rounding of 0, and
        # there a single estimate's one-word table batch is numpy's
        # matrix-vector product, whose rounding the sweep's larger batch
        # does not share
        assert got.diagnostics == want.diagnostics
        for field in ("sigma", "irregularity", "gram_condition"):
            assert _close(getattr(got, field), getattr(want, field))
        for (d, v), (e, w) in zip(got.trail, want.trail, strict=True):
            assert d == e and _close(v, w)


def test_degree_sweep_builds_one_gram_system(monkeypatch):
    built = []
    init = GramSystem.__init__

    def counted(self, model, d_proj):
        built.append(d_proj)
        init(self, model, d_proj)

    monkeypatch.setattr(GramSystem, "__init__", counted)
    sweep = stein.degree_sweep(SemicircularModel(1, cap=14), 4, 2)
    assert built == [6]
    assert [rep.sigma for rep in sweep] == pytest.approx([1.0] * 4, abs=1e-9)


@pytest.mark.parametrize("dxi_max, offset, cap, error, message", [
    (0, 2, 12, StructureError, "d_xi must be at least 1"),
    (-3, 2, 12, StructureError, "d_xi must be at least 1"),
    (3, -1, 12, StructureError, "d_proj must be at least 1"),
    # the first point beyond the cap names the error, as it did when each
    # point built its own system
    (4, 2, 12, DegreeCapError,
     "d_proj=6 needs trace words of degree 12, beyond the cap 12"),
    (6, 2, 12, DegreeCapError,
     "d_proj=6 needs trace words of degree 12, beyond the cap 12"),
    (3, 0, 6, DegreeCapError,
     "d_proj=3 needs trace words of degree 6, beyond the cap 6"),
])
def test_degree_sweep_fails_before_its_first_point(monkeypatch, dxi_max,
                                                   offset, cap, error,
                                                   message):
    def refuse(*args):
        raise AssertionError("no Gram system may be built")

    monkeypatch.setattr(GramSystem, "__init__", refuse)
    with pytest.raises(error) as info:
        stein.degree_sweep(SemicircularModel(1, cap=cap), dxi_max, offset)
    assert str(info.value) == message


@pytest.mark.parametrize("cap, message", [
    # the Gram guard passes (2 * (6 + 1) = 14 <= 16), the design guard not
    (16, "d_xi=10 with d_proj=6 needs design words of degree "
         "d_proj + d_xi + 1 = 17, beyond the cap 16"),
    # both fail: the Gram guard speaks first, as it always has
    (12, "d_proj=6 needs trace words of degree 12, beyond the cap 12"),
])
def test_an_estimate_beyond_the_cap_builds_no_gram_system(monkeypatch, cap,
                                                          message):
    built, init = [], GramSystem.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(GramSystem, "__init__", counted)
    with pytest.raises(DegreeCapError) as info:
        stein.irregularity_estimate(SemicircularModel(3, cap=cap),
                                    DegreeScheme(10, 6))
    assert str(info.value) == message and built == []


# -- bounded irregularity -----------------------------------------------------------


def test_bounded_interior_and_boundary(semicircular1):
    scheme = DegreeScheme(2, 4)
    for radius in (1.0, 1.5, 2.0):
        rep = irregularity_bounded(semicircular1, scheme, radius)
        assert rep.value < 1e-8
    rep = irregularity_bounded(semicircular1, scheme, 0.5)
    assert rep.value > 0.05
    assert abs(rep.value - 0.5) < 1e-8
    norm = math.sqrt(inner_l2_tuple(semicircular1, rep.xi, rep.xi).real)
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
        rep = discrepancy(semicircular1, (xi,), scheme)
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


def test_bounded_rejects_nan_and_negative_radii(semicircular1):
    scheme = DegreeScheme(2)
    for radius in (float("nan"), -0.5):
        with pytest.raises(StructureError, match="radius must be nonnegative"):
            irregularity_bounded(semicircular1, scheme, radius)
    for radii in ([0.5, float("nan")], [float("nan")], [-1.0, 0.5]):
        with pytest.raises(StructureError, match="nonnegative and increasing"):
            radius_sweep(semicircular1, scheme, radii)
    # an infinite radius is the unconstrained solve
    free = irregularity_bounded(semicircular1, scheme, float("inf"))
    assert free.diagnostics["boundary"] is False and free.value < 1e-8
    sweep = radius_sweep(semicircular1, scheme, [0.5, float("inf")])
    assert sweep[1][1].to_json() == free.to_json()


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


BOUNDED_TOL = 1e-8  # the benchmark's tolerance on bounded values


@pytest.mark.parametrize("n, d_xi", [(2, 3), (3, 2)])
def test_radius_sweep_pins_semicircular_distance_to_ball(n, d_xi):
    # the conjugate variable X has L2 norm sqrt(n), so the bounded value is
    # the distance max(sqrt(n) - R, 0) to the ball; the slots share the one
    # bound, and the optimum spreads it evenly over them
    model = SemicircularModel(n)
    radii = [0.1, 0.25, 0.5, 1.0, 1.5, 2.0]
    for r, rep in radius_sweep(model, DegreeScheme(d_xi), radii):
        assert abs(rep.value - max(math.sqrt(n) - r, 0.0)) <= BOUNDED_TOL
        share = min(r, math.sqrt(n)) / math.sqrt(n)
        for x in rep.xi:
            assert abs(math.sqrt(model.inner_l2(x, x).real) - share) <= 1e-8


def _interleaved_solves(model, scheme, radii):
    """Oracle only: the estimate trail, its rank and the bounded values on
    the design of one problem over all slots, as it was solved before the
    slots shared a design: column ``k * n + i`` is word k in slot i, the
    design is block-diagonal over the slots and the candidate Gram is
    ``kron(Qw, I_n)``, both rebuilt from the shared ones.  The multiplier
    is the solver's own :func:`stein._kkt_multiplier` over this design's
    singular values, so both sides stop at the same step of the 1e-10 norm
    tolerance; ``_kkt_bisection_reference`` checks the multiplier itself."""
    _, _, words, degrees, Z, B = stein._xi_design(model, scheme)
    n, (kept, K) = model.n, Z.shape
    Zb = np.zeros((n * kept, n * K), dtype=Z.dtype)
    for i in range(n):
        Zb[i * kept:(i + 1) * kept, i::n] = Z
    b, deg = B.T.reshape(-1), np.repeat(degrees, n)
    trail = []
    for dx in range(1, scheme.d_xi + 1):
        Zd = Zb[:, deg <= dx]
        y, _, rank, _ = np.linalg.lstsq(Zd, b, rcond=stein.RCOND)
        trail.append(float(np.linalg.norm(Zd @ y - b)))
    Q = np.kron(candidate_gram_reference(model, words), np.eye(n))
    qvals, qvecs = dense_eigh_kept(Q)
    T = qvecs / np.sqrt(qvals)
    U, sv, Vh = np.linalg.svd(Zb @ T, full_matrices=False)
    keep = sv > stein.RCOND * sv[0]
    U, sv, Vh = U[:, keep], sv[keep], Vh[keep]
    beta = U.conj().T @ b

    def u_at(lam):
        return Vh.conj().T @ (sv * beta / (sv ** 2 + lam))

    bounded = []
    for r in radii:
        lam = 0.0
        if np.linalg.norm(u_at(0.0)) > r + 1e-12:
            lam = stein._kkt_multiplier(np.abs(sv * beta) ** 2, sv ** 2, r)
        bounded.append((float(np.linalg.norm(Zb @ (T @ u_at(lam)) - b)),
                        lam > 0))
    return trail, int(rank), bounded


def _kkt_bisection_reference(num, sv2, radius):
    """Oracle only: the KKT multiplier by bisection, as the bounded solver
    found it before it took Newton steps: the norm of the shrunk numerators
    ``num / (sv2 + lam)`` halves its way to the radius, to 1e-10."""
    def shrunk(lam):
        return num / (sv2 + lam)[:, None]

    lo, hi = 0.0, max(sv2[0], 1.0)
    while np.linalg.norm(shrunk(hi)) > radius:
        hi *= 2.0
        if hi > 1e36:
            raise ModelError("failed to bracket the KKT multiplier")
    for _ in range(300):
        lam = 0.5 * (lo + hi)
        norm = float(np.linalg.norm(shrunk(lam)))
        if abs(norm - radius) <= 1e-10:
            break
        if norm > radius:
            lo = lam
        else:
            hi = lam
    return lam


def _shrunk_norm(num, sv2, lam):
    return float(np.linalg.norm(num / (sv2 + lam)[:, None]))


@st.composite
def kkt_problems(draw):
    """Squared singular values (descending, up to six decades apart), shrink
    numerators over 1 to 3 slots and a radius below the free norm: near 0,
    inside, or just below the free norm."""
    k = draw(st.integers(1, 6))
    sv2 = np.sort([10.0 ** draw(st.floats(-3, 3)) for _ in range(k)])[::-1]
    n = draw(st.integers(1, 3))
    num = np.array([[draw(st.floats(-2, 2)) for _ in range(n)]
                    for _ in range(k)])
    if _shrunk_norm(num, sv2, 0.0) < 1e-6:
        num[0, 0] = 1.0
    free = _shrunk_norm(num, sv2, 0.0)
    share = draw(st.sampled_from([1e-6, 1e-3, 0.1, 0.5, 0.9, 1 - 1e-6,
                                  1 - 1e-9]))
    return num, sv2, share * free


@settings(max_examples=200)
@given(kkt_problems())
# a free norm of 1e-4 misses the radius by 1e-13, inside the tolerance
@example((np.array([[0.1]]), np.array([1e3]), (1 - 1e-9) * 1e-4))
def test_kkt_newton_matches_bisection(problem):
    num, sv2, radius = problem
    weights = np.sum(num ** 2, axis=1)
    lam = stein._kkt_multiplier(weights, sv2, radius)
    # ||u(0)||, summed as the solver sums it
    free = math.sqrt(float(np.sum(weights / sv2 / sv2)))
    if free - radius <= max(1e-10, 4 * math.ulp(radius)):
        assert lam == 0
        return
    ref = _kkt_bisection_reference(num, sv2, radius)
    assert lam > 0
    # both meet the radius to the one tolerance, so they lie within the
    # multiplier step that moves the norm by twice that tolerance; the
    # norm's slope is smallest at the larger multiplier
    assert abs(_shrunk_norm(num, sv2, lam) - radius) <= 1e-10
    top = max(lam, ref)
    slope = np.sum(np.sum(num ** 2, axis=1) / (sv2 + top) ** 3) / (
        _shrunk_norm(num, sv2, top))
    assert abs(lam - ref) * slope <= 2e-10 * (1 + 1e-6)


def test_kkt_newton_is_exact_on_one_direction():
    # with one singular value 1/||u(lam)|| = (sv2 + lam) / sqrt(w) is
    # linear, so the first Newton step lands on lam = sqrt(w) / R - sv2;
    # bisection stops anywhere the norm is within 1e-10, here up to 1e-6
    # from the root
    for w, sv2, radius in [(1.0, 1.0, 0.01), (4.0, 0.5, 0.02),
                           (0.25, 3.0, 1e-3)]:
        lam = stein._kkt_multiplier(np.array([w]), np.array([sv2]), radius)
        root = np.sqrt(w) / radius - sv2
        assert abs(lam - root) <= 1e-13 * root


def test_kkt_newton_rises_onto_a_steep_root():
    # the tiny singular value makes 1/||u|| steep near 0 and flat beyond
    # the root; Newton from 0 never overshoots, so the norms fall onto the
    # radius from above, and the multiplier is the one bisection finds
    sv2, weights, radius = np.array([1.0, 1e-6]), np.array([1e-2, 1e-6]), 0.2
    lam, norms = _kkt_norms(weights, sv2, radius)
    assert all(a > b for a, b in zip(norms, norms[1:]))
    assert norms[-1] >= radius - 1e-10
    num = np.sqrt(weights)[:, None]
    assert abs(_shrunk_norm(num, sv2, lam) - radius) <= 1e-10
    assert abs(lam - _kkt_bisection_reference(num, sv2, radius)) <= 1e-9
    # a radius of 1e-40 puts the root near 1e39, still one finite solve
    lam = stein._kkt_multiplier(weights, sv2, 1e-40)
    assert math.isfinite(lam) and _shrunk_norm(num, sv2, lam) <= 1e-10


def _kkt_norms(weights, sv2, radius):
    """The multiplier and the norms its search evaluated, in order."""
    norms = []

    def sqrt(x):
        norms.append(math.sqrt(x))
        return norms[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stein, "math", SimpleNamespace(sqrt=sqrt, ulp=math.ulp))
        lam = stein._kkt_multiplier(weights, sv2, radius)
    return lam, norms


@settings(max_examples=200)
@given(kkt_problems())
def test_kkt_newton_takes_few_norm_evaluations(problem):
    # most draws take 2 to 5 evaluations; a staircase of weights many
    # decades apart under singular values six decades apart slows the
    # steps from 0, and a search of this space finds at most 14
    num, sv2, radius = problem
    _, norms = _kkt_norms(np.sum(num ** 2, axis=1), sv2, radius)
    assert len(norms) <= 16


def test_kkt_tolerance_scales_with_a_large_radius():
    # at R ~ 1.4e6 one ulp of R is 2.3e-10, so the norm can never come
    # within 1e-10 of R; the multiplier used to stop only after 300 steps
    # (301 norm evaluations).  From 0 two Newton steps reach the root at
    # 8.2e-7, where the norm meets R to the 4-ulp tolerance.
    sv2 = np.array([0.0019705900898110374, 1.1285173013272311e-06])
    weights = np.array([0.01268104413598684, 7.651653384304673])
    radius = 1416672.3366721354
    lam, norms = _kkt_norms(weights, sv2, radius)
    assert len(norms) <= 3
    gap = abs(_shrunk_norm(np.sqrt(weights)[:, None], sv2, lam) - radius)
    assert 1e-10 < gap <= 4 * math.ulp(radius)


def test_kkt_raises_when_the_norm_never_meets_the_radius():
    with pytest.raises(ModelError, match="did not meet the radius"):
        stein._kkt_multiplier(np.array([1.0, np.nan]), np.array([1.0, 0.5]),
                              0.1)


def _bounded_reference(model, scheme):
    """Oracle only: the bounded solve at one radius with its multiplier
    found by bisection, returning ``(value, boundary, norm of the whitened
    candidate)``."""
    gs, _, words, _, Z, B = stein._xi_design(model, scheme)
    qvals, qvecs = dense_eigh_kept(gs.candidate_gram(words))
    T = qvecs / np.sqrt(qvals)
    U, sv, Vh = np.linalg.svd(Z @ T, full_matrices=False)
    keep = sv > stein.RCOND * sv[0]
    U, sv, Vh = U[:, keep], sv[keep], Vh[keep]
    beta = U.conj().T @ B
    u_free = Vh.conj().T @ (beta / sv[:, None])
    num = sv[:, None] * beta

    def solve(radius):
        if radius == 0:
            u, boundary = np.zeros((T.shape[1], model.n)), True
        elif np.linalg.norm(u_free) <= radius + 1e-12:
            u, boundary = u_free, False
        else:
            lam = _kkt_bisection_reference(num, sv ** 2, radius)
            u, boundary = Vh.conj().T @ (num / (sv ** 2 + lam)[:, None]), True
        value = float(np.linalg.norm(Z @ (T @ u) - B))
        return value, boundary, float(np.linalg.norm(u))

    return solve


@st.composite
def atomic_measures(draw):
    """Measures of 2 to 4 atoms at distinct locations."""
    k = draw(st.integers(2, 4))
    locs = draw(st.lists(st.integers(-8, 8), min_size=k, max_size=k,
                         unique=True))
    masses = [draw(st.integers(1, 5)) for _ in range(k)]
    total = sum(masses)
    return [(loc / 4, m / total) for loc, m in zip(locs, masses)]


@settings(max_examples=25)
@given(atomic_measures(), st.sampled_from([1, 2, 3]))
def test_bounded_solve_matches_bisection_reference(atoms, d_xi):
    model, scheme = MeasureModel(atoms), DegreeScheme(d_xi)
    reference = _bounded_reference(model, scheme)
    free = reference(float("inf"))[2]
    # radius 0, on the boundary, next to the free norm and beyond it
    radii = [0.0, 0.25 * free, 0.5 * free, free * (1 - 1e-9),
             free - 1e-13, free, 2 * free]
    for radius, rep in radius_sweep(model, scheme, radii):
        value, boundary, size = reference(radius)
        assert rep.diagnostics["boundary"] == boundary
        assert rep.diagnostics["radius"] == radius
        assert abs(rep.value - value) <= 1e-9
        if boundary and radius:
            # the delivered xi meets the bound in the L2 norm
            norm = math.sqrt(sum(model.inner_l2(x, x).real for x in rep.xi))
            assert abs(norm - radius) <= 1e-10
            assert abs(size - radius) <= 1e-10


@pytest.mark.parametrize("make", [
    lambda: FreeProductModel([two_point_measure(mass_plus=0.7, loc_plus=2.0),
                              SemicircularModel(1)]),
    lambda: cyclic_group_model(5),
    lambda: MatrixModel([(2, 2 / 3), (1, 1 / 3)],
                        [[[[1, 0], [0, -1]], [[1.0]]],
                         [[[0, 1], [1, 0]], [[0.0]]]]),
], ids=["skewed free product", "cyclic group of order 5", "M_2 + C"])
def test_shared_design_matches_interleaved_design(make):
    scheme, radii = DegreeScheme(2), [0.1, 0.25, 0.5, 1.0, 2.0]
    trail, rank, bounded = _interleaved_solves(make(), scheme, radii)
    est = irregularity_estimate(make(), scheme)
    for (_, got), want in zip(est.trail, trail, strict=True):
        assert abs(got - want) <= 1e-12 * max(1.0, want)
    assert est.diagnostics["design_rank"] == rank
    sweep = radius_sweep(make(), scheme, radii)
    assert any(boundary for _, boundary in bounded)
    for (_, rep), (want, boundary) in zip(sweep, bounded, strict=True):
        assert abs(rep.value - want) <= 1e-12 * max(1.0, want)
        assert rep.diagnostics["boundary"] == boundary


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


def _multiplication_tables(coords):
    """Oracle only: the D^3 left and right multiplication tables of the
    coordinate basis, ``left[a, :, b] = coords(f_a f_b)`` and ``right[a, :, b]
    = coords(f_b f_a)``."""
    D = coords.D
    basis = coords_matrix(coords, np.eye(D))
    left = np.zeros((D, D, D), dtype=complex)
    right = np.zeros((D, D, D), dtype=complex)
    for a in range(D):
        for b in range(D):
            left[a, :, b] = coords.coords(basis[a] @ basis[b])
            right[a, :, b] = coords.coords(basis[b] @ basis[a])
    return left, right


def _translates_reference(tables, row):
    """Sharp translates ``L_a row[j] R_b^T`` of one coordinate row by every
    basis tensor ``f_a (x) f_b``."""
    left, right = tables
    D = left.shape[0]
    out = np.einsum("axy,jyz,bwz->abjxw", left, row, right)
    return out.reshape(D * D, row.shape[0] * D * D)


def _sigma_exact_fd_reference(model, d):
    """Oracle only: relation projection with an explicit null basis of the
    evaluation map, one relation row per null vector and the sharp
    translates of every row stacked before one SVD."""
    coords = MatrixCoordinates(model)
    tables = _multiplication_tables(coords)
    unit = coords.coords(np.eye(model.dim, dtype=complex))
    n, D = model.n, coords.D
    words = monomial_words(model.system, 0, d + 1)
    ev = {w: coords.coords(eval_word(model, w)) for w in words}
    split = {w: np.zeros((n, D, D), dtype=complex) for w in words}
    for w in words:
        for j in range(1, len(w) // 2 + 1):
            split[w][w[2 * j - 1]] += np.outer(ev[w[:2 * j - 1]], ev[w[2 * j:]])
    unit_rows = np.zeros((n, n * D * D), dtype=complex)
    for i in range(n):
        u = np.zeros((n, D, D), dtype=complex)
        u[i] = np.outer(unit, unit)
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
            blocks.append(_translates_reference(tables, row))
        G = np.concatenate(blocks, axis=0)
        _, s2, vh2 = np.linalg.svd(G, full_matrices=False)
        P = vh2[s2 > stein.RCOND * s2[0]]
        sig2 = sum(np.linalg.norm(P @ unit_rows[i]) ** 2 for i in range(n))
        trail.append((dd, n - sig2))
    return trail, relations


def _projected_stacks(model, d):
    """Oracle only: per degree ``dd`` up to ``d``, the projected relation
    stack ``R = S_k - V^T (conj(V) S_k)`` of the words of degree up to
    ``2 (dd + 1) + 1``, with ``S_k`` and the relation count."""
    words, E, S = _word_table(model, d + 1)
    for dd in range(1, d + 1):
        k = bisect.bisect_right(words, 2 * (dd + 1) + 1, key=len)
        _, s, vh = np.linalg.svd(E[:, :k], full_matrices=False)
        rank = int(np.sum(s > stein.RCOND * s[0]))
        V, Sk = vh[:rank], S[:k]
        yield dd, Sk - V.T @ (V.conj() @ Sk), Sk, k - rank


def _sigma_exact_fd_basis_reference(model, d):
    """Oracle only: the two-stage relation projection, an orthonormal basis
    of the row space of the projected stack (a thin SVD cut at ``RCOND`` times
    the norm of ``S_k``), then the block-pair translates of that basis cut at
    ``RCOND`` times their largest singular value."""
    coords = MatrixCoordinates(model)
    n, D = model.n, coords.D
    groups = {}
    for i, (ki, li) in enumerate(model.blocks):
        for j, (kj, lj) in enumerate(model.blocks):
            groups.setdefault((ki, kj), []).append((i, j, li * lj / (ki * kj)))
    trail = []
    for dd, R, Sk, relations in _projected_stacks(model, d):
        _, s1, vh1 = np.linalg.svd(R, full_matrices=False)
        basis = vh1[s1 > stein.RCOND * np.linalg.norm(Sk)]
        if not len(basis):
            trail.append((dd, float(n)))
            continue
        rows = basis.reshape(-1, n, D, D)
        svals = [np.linalg.svd(np.stack([coords.sharp_translates(rows, i, j)
                                         for i, j, _ in pairs]),
                               compute_uv=False)
                 for pairs in groups.values()]
        cut = stein.RCOND * max(float(s[:, 0].max()) for s in svals)
        sig2 = sum(w * int(np.sum(s > cut))
                   for pairs, sv in zip(groups.values(), svals)
                   for (_, _, w), s in zip(pairs, sv))
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
                       b_algebra=b, b_basis=[[[[1.0]]] * 4, [[[0.0]]] * 4])


def _three_two_one():
    # unequal block sizes: an axis-order slip in the block-pair multiplicity
    # matrices changes their ranks only where k_i != k_j
    a3 = [[1.0, 0.5, 0.0], [0.5, -1.0, 0.25], [0.0, 0.25, 2.0]]
    b3 = [[0.0, 1.0, -0.5], [1.0, 0.5, 0.0], [-0.5, 0.0, -1.5]]
    return MatrixModel([(3, 1 / 2), (2, 1 / 3), (1, 1 / 6)],
                       [[a3, SZ, [[0.5]]], [b3, SX, [[-2.0]]]])


def _complex_two_block():
    # a 2 x 2 block with imaginary off-diagonal entries next to a 1 x 1
    # block: a self-adjoint generator that is not real, so no real form
    return MatrixModel([(2, 0.5), (1, 0.5)],
                       [[[[1.0, 1j], [-1j, -1.0]], [[0.5]]], [SX, [[-1.0]]]])


# sigma_exact_fd runs in real arithmetic on every case but the Pauli triple
# and the complex two-block model (see stein._real_form)
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
    "M_3 + M_2 + C": (_three_two_one, 2),
    "complex two-block": (_complex_two_block, 3),
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


@pytest.mark.parametrize("name", EXACT_FD_CASES)
def test_sigma_exact_matches_basis_reference(name):
    make, d = EXACT_FD_CASES[name]
    rep = sigma_exact_fd(make(), d=d)
    got = rep.trail, rep.diagnostics["relations"]
    assert got == _sigma_exact_fd_basis_reference(make(), d)


@pytest.mark.parametrize("make, d", [
    (lambda: MatrixModel([(2, 1.0)], [[SZ], [SX]]), 4), (m2_over_m2, 2)],
    ids=["M_2", "M_2 over B = M_2"])
def test_r_factor_keeps_translate_singular_values(make, d):
    # M_ij(Q T) = (Q (x) I) M_ij(T) with Q orthonormal: the R factor of a
    # tall stack has the stack's translate singular values
    model = make()
    coords = MatrixCoordinates(model)
    n, D = model.n, coords.D
    *_, (_, R, _, _) = _projected_stacks(model, d)
    assert R.shape[0] > R.shape[1] == n * D * D
    T = np.linalg.qr(R, mode="r")
    assert T.shape == (n * D * D, n * D * D)
    for i in range(len(model.blocks)):
        for j in range(len(model.blocks)):
            want, got = (np.linalg.svd(coords.sharp_translates(
                X.reshape(-1, n, D, D), i, j), compute_uv=False)
                for X in (R, T))
            assert np.max(np.abs(got - want)) <= 1e-12 * want[0]


@pytest.mark.parametrize("make, d", [
    (_vanishing_idempotent, 2),
    (lambda: diagonal_matrix_model([-1.0, 0.0, 1.0], [1 / 3] * 3), 1)],
    ids=["vanishing B idempotent", "three-point"])
def test_sigma_exact_floor_without_relation_rows(make, d):
    # no relations, or only relations whose rows vanish: the projected stack
    # is nonzero rounding of the size of S_k, and the cut's floor
    # RCOND * c_max * |S_k| keeps all of it out of the ranks
    model = make()
    for dd, R, Sk, _ in _projected_stacks(model, d):
        assert 0 < np.abs(R).max() < 1e-12 * np.linalg.norm(Sk)
    rep = sigma_exact_fd(model, d=d)
    assert [v for _, v in rep.trail] == [float(model.n)] * d
    assert rep.irregularity == 0.0


def test_sigma_exact_near_commuting_generators():
    # two nearly commuting generators of M_2: the degree-2 relation rows have
    # sizes 6.1 down to 5.6e-5, and an orthonormal basis of them (the basis
    # reference) lifts the rounding of the smallest to 2.8e-10 of the top
    # translate singular value, above the cut: one multiplicity rank too
    # many, 0.5 at dd=2.  Ranked at their own sizes the rows leave 1.4e-14
    # there, and sigma is 3/4 at every degree
    model = MatrixModel([(2, 1.0)], [[[[4.3, 0.54], [0.54, 1.13]]],
                                     [[[0.79, -0.04], [-0.04, 1.13]]]])
    rep = sigma_exact_fd(model, d=3)
    want = float(fd_sigma(model.blocks))
    assert all(abs(v - want) < 1e-12 for _, v in rep.trail)


def test_block_pair_translates_match_full_stack():
    # the full translates are I_{k_i k_j} (x) M_ij on each block pair: their
    # singular values are those of the M_ij, each repeated k_i k_j times
    model = _three_two_one()
    coords = MatrixCoordinates(model)
    gen = np.random.default_rng(7)
    D = coords.D
    rows = gen.normal(size=(3, 2, D, D)) + 1j * gen.normal(size=(3, 2, D, D))
    tables = _multiplication_tables(coords)
    full = np.concatenate([_translates_reference(tables, r) for r in rows])
    want = np.linalg.svd(full, compute_uv=False)
    got = []
    for i, (ki, _) in enumerate(model.blocks):
        for j, (kj, _) in enumerate(model.blocks):
            M = coords.sharp_translates(rows, i, j)
            assert M.shape == (3 * ki * kj, 2 * ki * kj)
            got.extend(np.repeat(np.linalg.svd(M, compute_uv=False), ki * kj))
    got = np.sort(got)[::-1]
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-12


def test_sigma_exact_translates_at_most_basis_rows(monkeypatch):
    # a projected relation stack taller than n*D*D rows is reduced to its R
    # factor of n*D*D rows, and each of its rows gives k*k multiplicity rows
    # on the one block pair: 2 degrees * 32 rows * 2*2
    counted = []
    raw = MatrixCoordinates.sharp_translates

    def counting(self, rows, i, j):
        out = raw(self, rows, i, j)
        counted.append(out.shape[0])
        return out

    monkeypatch.setattr(MatrixCoordinates, "sharp_translates", counting)
    rep = sigma_exact_fd(m2_over_m2(), d=2)
    n, D, k = 2, 4, 2
    assert abs(rep.sigma) < 1e-9
    assert 0 < sum(counted) <= 2 * n * D * D * k * k


@pytest.mark.parametrize("make, dtype", [
    (m2_over_m2, np.float64), (_three_two_one, np.float64),
    (lambda: cyclic_group_model(5), np.complex128)],
    ids=["m2_over_m2", "_three_two_one", "cyclic_group_model(5)"])
def test_word_table_matches_per_word_evaluation(make, dtype):
    model = make()
    coords = MatrixCoordinates(model)
    words, E, S = _word_table(model, 3)
    # real generator and B matrices give a real table, complex ones a
    # complex table; the values are the per-word evaluations either way
    assert E.dtype == S.dtype == dtype
    # sorted by degree, then lexicographically, with every word once
    n, nb = model.n, model.system.b.dim
    assert words == sorted(set(words), key=lambda w: (len(w), w))
    assert len(words) == sum(nb ** (e + 1) * n ** e for e in range(4))
    want = np.stack([coords.coords(eval_word(model, w)) for w in words],
                    axis=1)
    assert np.array_equal(E, want)
    D = coords.D
    split = np.zeros((len(words), n, D, D), dtype=complex)
    for k, w in enumerate(words):
        for j in range(1, len(w) // 2 + 1):
            split[k, w[2 * j - 1]] += np.outer(
                coords.coords(eval_word(model, w[:2 * j - 1])),
                coords.coords(eval_word(model, w[2 * j:])))
    assert np.array_equal(S, split.reshape(len(words), -1))


def test_sigma_exact_degree_beyond_cap():
    with pytest.raises(DegreeCapError) as info:
        sigma_exact_fd(cyclic_group_model(3, cap=4), d=6)
    assert str(info.value) == ("d=6 needs words of degree d + 1 = 7, "
                               "beyond the cap 4")
    # d + 1 equal to the cap is allowed
    rep = sigma_exact_fd(cyclic_group_model(3, cap=4), d=3)
    assert abs(rep.sigma - 2 / 3) < 1e-9


def test_matrix_routines_degree_beyond_cap():
    model = two_point_matrix_model(cap=4)
    eta = tuple(KernelMatrix.identity(model.system).entries[0])
    for call in (lambda: solve_adjoint_fd(model, eta, d=5),
                 lambda: matrix_to_poly(model, np.eye(2), d=5)):
        with pytest.raises(DegreeCapError, match="d=5 needs words of degree "
                                                 "5, beyond the cap 4"):
            call()
    # d equal to the cap is allowed
    poly = matrix_to_poly(model, np.eye(2), d=4)
    value = sum(complex(c) * eval_word(model, w)
                for w, c in poly.terms.items())
    assert np.max(np.abs(value - np.eye(2))) < 1e-12


PAULI_PAIR = MatrixModel([(2, 1.0)], [[[[1.0, 0.0], [0.0, -1.0]]],
                                      [[[0.0, 1.0], [1.0, 0.0]]]])


@pytest.mark.parametrize("model, mat", [
    (two_point_matrix_model(), np.eye(2)),
    (two_point_matrix_model(), np.diag([3.0, -1.0])),
    (PAULI_PAIR, np.array([[1.0, 2.0j], [0.5, -1.0]])),
])
def test_matrix_to_poly_scales_with_the_matrix(model, mat):
    # the drop rule and the residual bound are relative: a matrix scaled
    # by 1e-14 or 1e14 keeps the same terms with scaled coefficients
    base = matrix_to_poly(model, mat, d=2)
    top = max(abs(complex(c)) for c in base.terms.values())
    for scale in (1e-14, 1e14):
        scaled = matrix_to_poly(model, scale * mat, d=2)
        assert scaled.terms.keys() == base.terms.keys()
        for w, c in base.terms.items():
            assert abs(complex(scaled.terms[w]) / scale - complex(c)) \
                <= 1e-12 * top
        value = sum(complex(c) * eval_word(model, w)
                    for w, c in scaled.terms.items())
        assert np.max(np.abs(value - scale * mat)) <= 1e-12 * scale
    assert matrix_to_poly(model, 0 * mat, d=2).terms == {}


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


@settings(max_examples=12)
@given(block_models())
def test_sigma_exact_matches_fd_sigma_on_random_blocks(spec):
    blocks, gens = spec
    rep = sigma_exact_fd(MatrixModel(blocks, gens), d=3)
    assert abs(rep.sigma - float(fd_sigma(blocks))) < 1e-9
    vals = [v for _, v in rep.trail]
    assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(len(vals) - 1))


@settings(max_examples=12)
@given(block_models())
def test_sigma_exact_matches_basis_reference_on_random_blocks(spec):
    model = MatrixModel(*spec)
    rep = sigma_exact_fd(model, d=3)
    got = rep.trail, rep.diagnostics["relations"]
    assert got == _sigma_exact_fd_basis_reference(model, 3)


# -- the factored relation stack against the word table -----------------------------


def _sigma_exact_fd_table_reference(model, d):
    """Oracle only: relation projection over the full word table: the
    projected stack of every degree, its R factor when it is taller than
    wide, the block-pair translates grouped by shape and one global cut with
    the floor ``RCOND * c_max * |S_k|``; ``(trail, relations,
    irregularity)``."""
    coords = MatrixCoordinates(model)
    n, D = model.n, coords.D
    c_max = max(c for _, _, c in coords.blocks) ** 2
    groups = {}
    for i, (ki, li) in enumerate(model.blocks):
        for j, (kj, lj) in enumerate(model.blocks):
            groups.setdefault((ki, kj), []).append((i, j, li * lj / (ki * kj)))
    trail = []
    for dd, R, Sk, relations in _projected_stacks(model, d):
        if R.shape[0] > R.shape[1]:
            R = np.linalg.qr(R, mode="r")
        rows = R.reshape(-1, n, D, D)
        svals = [[np.linalg.svd(coords.sharp_translates(rows, i, j),
                                compute_uv=False) for i, j, _ in pairs]
                 for pairs in groups.values()]
        top = max(float(s[0]) for sv in svals for s in sv)
        cut = stein.RCOND * max(top, c_max * np.linalg.norm(Sk))
        sig2 = sum(w * int(np.sum(s > cut))
                   for pairs, sv in zip(groups.values(), svals)
                   for (_, _, w), s in zip(pairs, sv))
        trail.append((dd, n - sig2))
    return trail, relations, math.sqrt(max(sig2, 0.0))


def _near_commuting():
    return MatrixModel([(2, 1.0)], [[[[4.3, 0.54], [0.54, 1.13]]],
                                    [[[0.79, -0.04], [-0.04, 1.13]]]])


def _check_against_word_table(model, d):
    # the factored stack gives the word table's trail, relation count and
    # irregularity, equal to the last bit
    rep = sigma_exact_fd(model, d=d)
    got = rep.trail, rep.diagnostics["relations"], rep.irregularity
    assert got == _sigma_exact_fd_table_reference(model, d)
    return got


WORD_TABLE_CASES = {
    **EXACT_FD_CASES,
    "near-commuting M_2": (_near_commuting, 3),
    "vanishing B idempotent, no relation rows": (_vanishing_idempotent, 2),
    "three-point, no relations": (
        lambda: diagonal_matrix_model([-1.0, 0.0, 1.0], [1 / 3] * 3), 1),
}


@pytest.mark.parametrize("name", WORD_TABLE_CASES)
def test_sigma_exact_matches_word_table(name):
    make, d = WORD_TABLE_CASES[name]
    _check_against_word_table(make(), d)


@st.composite
def paired_block_models(draw):
    """A direct sum of 2-3 blocks of size <= 2 with rational weights, and
    either two real-symmetric generators or a star-paired ``u``, ``u*`` with
    complex entries, drawn from a seeded normal distribution."""
    sizes = draw(st.lists(st.integers(1, 2), min_size=2, max_size=3))
    parts = draw(st.lists(st.integers(1, 6), min_size=len(sizes),
                          max_size=len(sizes)))
    weights = [Fraction(p, sum(parts)) for p in parts]
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        u = [gen.normal(size=(k, k)) + 1j * gen.normal(size=(k, k))
             for k in sizes]
        gens, pairing = [u, [a.conj().T for a in u]], (1, 0)
    else:
        gens, pairing = [], None
        for _ in range(2):
            a = [gen.normal(size=(k, k)) for k in sizes]
            gens.append([x + x.T for x in a])
    return MatrixModel(list(zip(sizes, weights)), gens, star_pairing=pairing)


@settings(max_examples=16)
@given(paired_block_models())
def test_sigma_exact_matches_word_table_on_random_blocks(model):
    got = _check_against_word_table(model, 3)
    assert got[:2] == _sigma_exact_fd_basis_reference(model, 3)


def test_sigma_exact_reads_no_word_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sigma_exact_fd built a word table")

    # the word table is a test oracle only
    assert not hasattr(stein, "_word_table")
    models = [m2_over_m2(), cyclic_group_model(4), _three_two_one()]
    monkeypatch.setattr(stein, "monomial_words", refuse)
    for model in models:
        sigma_exact_fd(model, d=2)


def test_sigma_exact_stack_never_exceeds_its_width(monkeypatch):
    # M_2 over B = M_2 at d=4: 149 796 words of degree up to 5, against a
    # factor of at most D + n*D*D = 36 rows; every stack the recursion
    # reduces holds at most |B| + n*|B|*36 rows
    model = m2_over_m2()
    n, nb, D = 2, 4, 4
    width = D + n * D * D
    shapes = []
    raw = stein._reduce

    def recording(X):
        out = raw(X)
        shapes.append((X.shape, out.shape))
        return out

    monkeypatch.setattr(stein, "_reduce", recording)
    start = time.perf_counter()
    rep = sigma_exact_fd(model, d=4)
    elapsed = time.perf_counter() - start
    words = nb * sum((n * nb) ** e for e in range(6))
    assert words == 149796
    assert abs(rep.sigma) < 1e-9
    assert rep.diagnostics["relations"] == words - D
    assert [dd for dd, _ in rep.trail] == [1, 2, 3, 4]
    stacks = [(x, y) for x, y in shapes if len(x) == 2 and x[1] == width]
    assert len(stacks) == 5
    assert all(x[0] <= nb + n * nb * width and y[0] <= width
               for x, y in stacks)
    # the 149 796-word table alone takes hundreds of milliseconds to form
    assert elapsed < 0.1


def test_pair_r_factors_keep_translate_singular_values():
    # cyclic(10) at d=5: 100 block pairs of shape (1, 1), each M_ij of the
    # 127 projected rows 127 x 2; one batched R factor keeps the singular
    # values of every pair
    model = cyclic_group_model(10)
    coords = MatrixCoordinates(model)
    n, D = model.n, coords.D
    *_, (_, R, _, _) = _projected_stacks(model, 5)
    ii, jj = np.array([(i, j) for i in range(10) for j in range(10)]).T
    M = coords.sharp_translates(R.reshape(-1, n, D, D), ii, jj)
    M = M.reshape(100, -1, n)
    assert M.shape == (100, 127, 2)
    T = stein._reduce(M)
    assert T.shape == (100, 2, 2)
    want = np.linalg.svd(M, compute_uv=False)
    got = np.linalg.svd(T, compute_uv=False)
    assert want.max() > 0
    assert np.max(np.abs(got - want)) <= 1e-12 * want.max()


# -- the scatter-free split table and the batched translates -----------------------


def _split_table_reference(model, words, E):
    """Oracle only: the split table ``S`` as one ``np.add.at`` scatter of
    ``ev(left) (x) ev(right)`` over ``stein._split_index``, split by split."""
    n, D = model.n, len(E)
    top = (len(words[-1]) - 1) // 2
    offsets = [bisect.bisect_left(words, 2 * e + 1, key=len)
               for e in range(top + 2)]
    word, letter, left, right = stein._split_index(n, offsets)
    ev = E.T
    S = np.zeros((len(words), n, D, D), dtype=complex)
    np.add.at(S, (word, letter), ev[left][:, :, None] * ev[right][:, None, :])
    return S.reshape(len(words), n * D * D)


def _pair_translates_reference(coords, rows, i, j):
    """Oracle only: ``M_ij`` of one block pair, from slices of the rows."""
    (si, ki, ci), (sj, kj, cj) = coords.blocks[i], coords.blocks[j]
    r, n = rows.shape[:2]
    t = rows[:, :, si, sj].reshape(r, n, ki, ki, kj, kj)
    t = t.transpose(0, 2, 5, 1, 3, 4)
    return (ci * cj) * t.reshape(r * ki * kj, n * ki * kj)


def _check_split_table(model, d):
    words, E, S = _word_table(model, d + 1)
    assert np.array_equal(S, _split_table_reference(model, words, E))


def _check_batched_translates(model, seed):
    # each shape group in one call is the per-pair stack, bit for bit
    coords = MatrixCoordinates(model)
    n, D = model.n, coords.D
    gen = np.random.default_rng(seed)
    rows = gen.normal(size=(3, n, D, D)) + 1j * gen.normal(size=(3, n, D, D))
    groups = {}
    for i, (ki, _) in enumerate(model.blocks):
        for j, (kj, _) in enumerate(model.blocks):
            groups.setdefault((ki, kj), []).append((i, j))
    for (ki, kj), pairs in groups.items():
        ii, jj = np.array(pairs).T
        got = coords.sharp_translates(rows, ii, jj)
        assert got.shape == (len(pairs) * 3 * ki * kj, n * ki * kj)
        for one in (coords.sharp_translates,
                    partial(_pair_translates_reference, coords)):
            want = np.concatenate([one(rows, i, j) for i, j in pairs])
            assert np.array_equal(got, want)


SPLIT_TABLE_CASES = ["M_2 over B = M_2", "cyclic group of order 10", "M_2 + C",
                     "M_3 + M_2 + C", "Pauli triple over M_2 + C",
                     "complex two-block"]


@pytest.mark.parametrize("name", SPLIT_TABLE_CASES)
def test_split_table_matches_scatter_reference(name):
    make, d = EXACT_FD_CASES[name]
    _check_split_table(make(), d)


def _m2_plus_c_unequal_scales():
    # the other cases have lambda_i proportional to k_i, so every block has
    # the same coordinate scale c_i and a slip in the per-pair scale is lost
    return MatrixModel([(2, 0.6), (1, 0.4)], [[SZ, [[1.0]]], [SX, [[0.0]]]])


@pytest.mark.parametrize(
    "make", [EXACT_FD_CASES[name][0] for name in SPLIT_TABLE_CASES]
    + [_m2_plus_c_unequal_scales],
    ids=SPLIT_TABLE_CASES + ["M_2 + C, weights 3/5 and 2/5"])
def test_batched_translates_match_per_pair_stack(make):
    _check_batched_translates(make(), 11)


@settings(max_examples=12)
@given(block_models())
def test_split_table_and_translates_on_random_blocks(spec):
    model = MatrixModel(*spec)
    _check_split_table(model, 3)
    _check_batched_translates(model, 5)


# -- *-algebra invariance on the exact path -------------------------------------------


def _rotation(angle):
    return np.array([[np.cos(angle), -np.sin(angle)],
                     [np.sin(angle), np.cos(angle)]])


@st.composite
def mixed_block_models(draw):
    """The algebra of a ``block_models`` draw under another generating tuple:
    its two generators mixed by a random invertible real matrix (singular
    values in [0.5, 2]), optionally with their anticommutator adjoined."""
    blocks, gens = draw(block_models())
    a, b = ([np.array(m) for m in g] for g in gens)
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = gen.uniform(0.5, 2.0, 2) * gen.choice([-1.0, 1.0], 2)
    mix = (_rotation(gen.uniform(0, 2 * np.pi)) @ np.diag(scale)
           @ _rotation(gen.uniform(0, 2 * np.pi)))
    tup = [[p * x + q * y for x, y in zip(a, b)] for p, q in mix]
    if draw(st.booleans()):
        tup.append([x @ y + y @ x for x, y in zip(a, b)])
    return blocks, tup


@settings(max_examples=30)
@given(mixed_block_models())
def test_sigma_exact_is_a_star_algebra_invariant(spec):
    # another generating tuple of the same algebra, even a longer one, has
    # the same free Stein dimension
    blocks, gens = spec
    rep = sigma_exact_fd(MatrixModel(blocks, gens), d=3)
    assert abs(rep.sigma - float(fd_sigma(blocks))) < 1e-9
    vals = [v for _, v in rep.trail]
    assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(len(vals) - 1))


_X, _Y = np.array(SX), np.array(SY)
PAULI_TUPLES = {"(X+Y, X-Y)": [_X + _Y, _X - _Y],
                "(X, Y, X+Y)": [_X, _Y, _X + _Y],
                "(X, Y, i[X,Y])": [_X, _Y, 1j * (_X @ _Y - _Y @ _X)]}


@pytest.mark.parametrize("name", PAULI_TUPLES)
def test_sigma_exact_of_pauli_generating_tuples(name):
    # every generating tuple of M_2 has dimension 1 - 1/4 at every degree
    model = MatrixModel([(2, 1.0)], [[g] for g in PAULI_TUPLES[name]])
    rep = sigma_exact_fd(model, d=4)
    assert rep.trail == [(d, 0.75) for d in range(1, 5)]


def _real_and_imaginary_parts(order):
    """``cyclic_group_model(order)`` with the self-adjoint generators ``(Re
    u, Im u)`` in place of ``(u, u*)``: the same algebra."""
    u = np.exp(2j * np.pi * np.arange(order) / order)
    return MatrixModel([(1, 1 / order)] * order,
                       [[[[z.real]] for z in u], [[[z.imag]] for z in u]])


# self-adjoint generators, and the (u, u*) model of the same algebra
SELF_ADJOINT_MODELS = {
    "cyclic group of order 4": (partial(_real_and_imaginary_parts, 4),
                                lambda: cyclic_group_model(4)),
    "cyclic group of order 5": (partial(_real_and_imaginary_parts, 5),
                                lambda: cyclic_group_model(5)),
    "M_2 + C": (_m2_plus_c, None),
    "Pauli pair": (lambda: PAULI_PAIR, None),
    "two-point": (two_point_matrix_model, None),
}


def _push(model, A):
    """The matrix model of the generators ``sum_j A[i, j] x_j``, block by
    block."""
    ends = np.cumsum([0] + [k for k, _ in model.blocks])
    mats = np.einsum("ij,jkl->ikl", A, np.stack(model.gen_mats))
    return MatrixModel(model.blocks, [[m[a:b, a:b] for a, b in zip(ends,
                                                                ends[1:])]
                                      for m in mats])


@st.composite
def invertible_maps(draw):
    """A model of ``SELF_ADJOINT_MODELS`` and a real ``n x n`` map with
    ``|det A| >= 0.1``."""
    name = draw(st.sampled_from(sorted(SELF_ADJOINT_MODELS)))
    n = SELF_ADJOINT_MODELS[name][0]().n
    A = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n * n,
                               max_size=n * n))).reshape(n, n)
    assume(abs(np.linalg.det(A)) >= 0.1)
    return name, A


@settings(max_examples=30)
@given(invertible_maps())
def test_sigma_exact_trail_is_invariant_under_invertible_maps(case):
    # an invertible linear change of generators keeps the algebra, and
    # sigma_exact_fd keeps every trail entry, not only the limit
    name, A = case
    make, paired = SELF_ADJOINT_MODELS[name]
    pushed = sigma_exact_fd(_push(make(), A), 4).trail
    for other in [make] + ([paired] if paired else []):
        trail = sigma_exact_fd(other(), 4).trail
        assert [d for d, _ in pushed] == [d for d, _ in trail]
        assert max(abs(v - w) for (_, v), (_, w) in zip(pushed, trail)) \
            <= 1e-9


# -- the real form of star-paired models ---------------------------------------------


@contextlib.contextmanager
def _extend_dtypes():
    """The dtypes of the rows and letter maps ``stein._extend`` sees."""
    seen = set()
    raw = stein._extend

    def recording(T, C, ev_b):
        seen.update({T.dtype, C.dtype})
        return raw(T, C, ev_b)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(stein, "_extend", recording)
        yield seen


def _check_against_complex_oracles(model, d, null_d):
    # the report of each degree up to d equals the word table's, to the last
    # bit, and the null-basis reference up to null_d within its rounding
    for dd in range(1, d + 1):
        rep = sigma_exact_fd(model, d=dd)
        got = rep.trail, rep.diagnostics["relations"], rep.irregularity
        assert got == _sigma_exact_fd_table_reference(model, dd)
        if dd == null_d:
            trail, relations = _sigma_exact_fd_reference(model, dd)
            assert [e for e, _ in rep.trail] == [e for e, _ in trail]
            assert all(abs(v - w) < 1e-12
                       for (_, v), (_, w) in zip(rep.trail, trail))
            assert rep.diagnostics["relations"] == relations


@pytest.mark.parametrize("order", range(2, 13))
def test_cyclic_groups_run_real_and_match_the_complex_oracles(order):
    # the null-basis reference stops at d = 3, where it takes about a
    # second at order 12
    model = cyclic_group_model(order)
    with _extend_dtypes() as seen:
        _check_against_complex_oracles(model, 5, 3)
    assert seen == {np.dtype(np.float64)}
    assert abs(sigma_exact_fd(model, d=5).sigma
               - float(finite_group_sigma(order))) < 1e-9


@st.composite
def symmetric_star_pairs(draw):
    """A direct sum of 1-3 blocks of size <= 2 with rational weights and a
    star pair ``(u, u*)`` of complex-symmetric blocks, so ``u* = conj(u)``,
    with a real symmetric generator between them or not."""
    sizes = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    parts = draw(st.lists(st.integers(1, 6), min_size=len(sizes),
                          max_size=len(sizes)))
    weights = [Fraction(p, sum(parts)) for p in parts]
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u = [a + a.T for a in (gen.normal(size=(k, k))
                           + 1j * gen.normal(size=(k, k)) for k in sizes)]
    gens, pairing = [u, [a.conj().T for a in u]], (1, 0)
    if draw(st.booleans()):
        s = [a + a.T for a in (gen.normal(size=(k, k)) for k in sizes)]
        gens, pairing = [u, s, gens[1]], (2, 1, 0)
    return MatrixModel(list(zip(sizes, weights)), gens, star_pairing=pairing)


@settings(max_examples=20)
@given(symmetric_star_pairs())
def test_symmetric_star_pairs_run_real_and_match_the_complex_oracles(model):
    with _extend_dtypes() as seen:
        _check_against_complex_oracles(model, 3, 2)
    assert seen == {np.dtype(np.float64)}


def _nudged_cyclic_model(order, nudge, conj=False):
    """``cyclic_group_model(order)`` with ``u*`` written ``conj(om ** j)``
    (``conj``) or ``om ** (-j)``, its entry at character 1 moved by
    ``nudge``."""
    om = np.exp(2j * np.pi / order)
    u = [om ** j for j in range(order)]
    ustar = [np.conj(z) if conj else om ** (-j) for j, z in enumerate(u)]
    ustar[1] += nudge
    return MatrixModel([(1, 1 / order)] * order,
                       [[[[z]] for z in u], [[[z]] for z in ustar]],
                       star_pairing=(1, 0))


@pytest.mark.parametrize("make, sigma", [
    (EXACT_FD_CASES["Pauli triple over M_2 + C"][0], 7 / 9),
    (_complex_two_block, 11 / 16),
    (lambda: _nudged_cyclic_model(5, 1e-12), 4 / 5)],
    ids=["Pauli triple over M_2 + C", "complex two-block",
         "cyclic group of order 5, u* nudged by 1e-12"])
def test_models_without_a_real_form_run_complex(make, sigma):
    # u* nudged by 1e-12 passes the star-partner check of MatrixModel (1e-10)
    # but not the rounding bound of the real form
    model = make()
    with _extend_dtypes() as seen:
        _check_against_complex_oracles(model, 3, 3)
    assert seen == {np.dtype(np.complex128)}
    assert abs(sigma_exact_fd(model, d=3).sigma - sigma) < 1e-9


@pytest.mark.parametrize("order", [6, 9, 10])
def test_star_partners_off_by_rounding_run_real(order):
    # om ** (-j) and conj(om ** j) differ in the last bits of some
    # characters; both run real and give the same bytes
    by_power, by_conj = (_nudged_cyclic_model(order, 0.0, conj)
                         for conj in (False, True))
    assert not np.array_equal(by_power.gen_mats[1], by_conj.gen_mats[1])
    reports = []
    for model in (by_power, by_conj):
        with _extend_dtypes() as seen:
            reports.append(json.dumps(sigma_exact_fd(model, d=4).to_json()))
        assert seen == {np.dtype(np.float64)}
    assert reports[0] == reports[1]
    assert reports[0] == json.dumps(
        sigma_exact_fd(cyclic_group_model(order), d=4).to_json())


# -- *-algebra invariance on the Gram path ------------------------------------------


def _pushed(base, square):
    """``(S, S)`` or ``(S, S^2)`` of the one generator ``S`` of ``base``."""
    S, = generator_tuple(base.system)
    return PushForwardModel(base, (S, S * S if square else S))


def test_push_forward_table_matches_word_traces():
    model = _pushed(SemicircularModel(1, cap=24), square=True)
    legs = monomial_words(model.system, 0, 3)
    # the pushed generators are self-adjoint: the adjoint of a word reverses it
    want = [[model.trace_word(a[::-1] + b[1:]) for b in legs] for a in legs]
    assert np.max(np.abs(model.moment_table(legs) - np.array(want))) < 1e-12


@pytest.mark.parametrize("base, square, sigma", [
    (lambda: SemicircularModel(1, cap=24), False, 1.0),
    (lambda: two_point_measure(cap=24), True, 0.5),
])
def test_irregularity_is_a_star_algebra_invariant(base, square, sigma):
    # (S, S) and (S, S^2) generate the algebra of S: for the semicircle and
    # the two-point measure (S^2 = 1) the estimate is exact at every degree
    model = _pushed(base(), square)
    for d_xi in (1, 2, 3):
        assert abs(irregularity_estimate(model, DegreeScheme(d_xi)).sigma
                   - sigma) < 1e-9


# invertible linear maps per generator count, as rows of A in x -> A x
_LINEAR_MAPS = {1: [[[2.0]], [[-0.5]]],
                2: [[[1.0, 1.0], [0.0, 1.0]], [[2.0, 1.0], [1.0, 1.0]],
                    [[1.0, 0.0], [1.0, 2.0]]]}


@pytest.mark.parametrize("name", sorted(SELF_ADJOINT_MODELS))
def test_irregularity_of_matrix_models_is_invariant_under_linear_maps(name):
    # an invertible linear change of generators keeps the algebra; on these
    # matrix models the estimate has settled by d_xi 2, and both degrees give
    # the unpushed value
    make = SELF_ADJOINT_MODELS[name][0]
    want = {d: irregularity_estimate(make(), DegreeScheme(d)).sigma
            for d in (2, 3)}
    for A in _LINEAR_MAPS[make().n]:
        pushed = _push(make(), np.array(A))
        for d in (2, 3):
            got = irregularity_estimate(pushed, DegreeScheme(d)).sigma
            assert abs(got - want[d]) <= 1e-9


def _pushed_free_product(A):
    """Two-point * semicircular, its generators pushed by the rows of A."""
    base = FreeProductModel([two_point_measure(), SemicircularModel(1)])
    gens = generator_tuple(base.system)
    polys = [sum((g * QQi(Fraction(a)) for a, g in zip(row, gens)),
                 NCPoly.zero(base.system)) for row in A]
    return PushForwardModel(base, polys)


# Left out of the free-product invariance test below: pushed, the n = 4
# products with a cyclic factor take about a minute each at d_xi 3, and
# plateau * cyclic(4) has not settled by d_xi 3 (1.49985), so its pushed
# value need not equal the unpushed one there.  At d_xi 1 and 2 two-point *
# semicircular pushed to (X+Y, Y) has the exact truncated sigma 2596/1767 and
# 7226141732384/4991017736045, pinned in the next test: the truncation is
# not invariant, only the limit is.
@pytest.mark.parametrize("A", _LINEAR_MAPS[2][:2],
                         ids=["(X+Y, Y)", "(2X+Y, X+Y)"])
def test_irregularity_of_a_free_product_is_invariant_under_linear_maps(A):
    got = irregularity_estimate(_pushed_free_product(A), DegreeScheme(3)).sigma
    assert abs(got - 1.5) <= 1e-9


@pytest.mark.parametrize("d_xi, sigma", [
    (1, Fraction(2596, 1767)),
    (2, Fraction(7226141732384, 4991017736045)),
])
def test_irregularity_of_a_pushed_free_product_is_its_exact_truncation(
        d_xi, sigma):
    # exact rational sigma of the truncated problem at (d_xi, d_xi + 2); the
    # estimates 1.469156762874932 and 1.4478293034702303 are 2.7e-15 and
    # 3.2e-13 off it
    got = irregularity_estimate(_pushed_free_product(_LINEAR_MAPS[2][0]),
                                DegreeScheme(d_xi)).sigma
    assert abs(got - float(sigma)) <= 1e-9 * float(sigma)


@pytest.mark.xfail(strict=True, reason=(
    "FOUND in CHANGES.md: at d_proj 4 the RCOND cut drops a real direction "
    "of W on this push-forward of M_2 + C (an eigenvalue at 8.2e-11 lambda "
    "max), and the estimate at d_xi 2 reads 0.78324 against 7/9"))
def test_irregularity_of_an_ill_conditioned_push_of_m2_plus_c():
    A = np.array([[1.854508, -0.402506], [-0.855991, 0.310473]])
    got = irregularity_estimate(_push(_m2_plus_c(), A), DegreeScheme(2)).sigma
    assert abs(got - 7 / 9) <= 1e-9


def test_irregularity_of_semicircle_and_its_square_converges_up():
    # (S, S^2) generates the algebra of the semicircular S, of dimension 1;
    # the estimate approaches it from below as d_xi grows, while the Gram
    # condition grows by about 50x per degree
    model = _pushed(SemicircularModel(1, cap=24), square=True)
    reps = [irregularity_estimate(model, DegreeScheme(d)) for d in (1, 2, 3)]
    sigmas = [r.sigma for r in reps]
    assert np.allclose(sigmas, [0.770014101783, 0.945188988534, 0.986619519157],
                       rtol=0, atol=1e-6)
    assert sigmas[0] < sigmas[1] < sigmas[2] < 1
    conds = [r.gram_condition for r in reps]
    assert all(30 < b / a < 100 for a, b in zip(conds, conds[1:]))


def test_sigma_exact_requires_matrix_model(semicircular1):
    with pytest.raises(ModelError):
        sigma_exact_fd(semicircular1, d=2)


def test_join_free_factors(twopoint_matrix):
    # two free copies meet in the block-diagonal kernel: their squared
    # irregularities add, and so do their dimensions
    r = sigma_exact_fd(twopoint_matrix, d=2)
    assert abs((r.irregularity ** 2 + r.irregularity ** 2) - 1.0) < 1e-12
    assert abs((r.sigma + r.sigma) - 1.0) < 1e-12


def test_mixed_free_factors_add(threepoint_matrix):
    # unequal factors: squared irregularities 1/2 and 1/3 add under freeness
    from free_stein.trace import FreeProductModel
    fp = FreeProductModel([two_point_matrix_model(),
                           diagonal_matrix_model([-1.0, 0.0, 1.0],
                                                 [1 / 3, 1 / 3, 1 / 3])])
    est = irregularity_estimate(fp, DegreeScheme(2, 4))
    assert abs(est.irregularity ** 2 - 5 / 6) < 2e-3
    r1 = sigma_exact_fd(two_point_matrix_model(), d=2)
    r2 = sigma_exact_fd(threepoint_matrix, d=2)
    assert abs(r1.irregularity ** 2 + r2.irregularity ** 2 - 5 / 6) < 1e-10


def test_transform_preserves_divergence(twopoint_matrix):
    # pushing a domain row through y = x + x^2 keeps its divergence: the
    # transformed row satisfies the substituted defining relation exactly
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


def test_conjugate_check_rejects_a_negative_degree(twopoint_measure):
    z = (NCPoly.zero(twopoint_measure.system),)
    for d in (-1, -4):
        with pytest.raises(StructureError, match="^d must be at least 0$"):
            conjugate_variable_check(twopoint_measure, z, d=d)
    # d = 0 tests the unit word, on which both sides vanish
    assert conjugate_variable_check(twopoint_measure, z, d=0).residual == 0.0


def test_conjugate_check_rejects_test_words_beyond_the_cap(twopoint_measure):
    # the test words of degree 13 are beyond the cap 12, whatever xi is
    for xi in ("(0)", "(1)"):
        xi = parse_poly_tuple(xi, twopoint_measure.system)
        with pytest.raises(DegreeCapError,
                           match="^product degree 13 exceeds cap 12$"):
            conjugate_variable_check(twopoint_measure, xi, d=13)


def _conjugate_check_reference(model, xi, d):
    """Oracle only: ``(residual, fisher_info)`` of the conjugate-variable
    check from symbolic pair traces, word by word, each test word paired
    with ``xi`` and its difference quotients with ``1 (x) 1``."""
    pairing = SymbolicPairing(model)
    system = model.system
    unit = TensorPoly.unit(system)
    residual = 0.0
    for w in monomial_words(system, 0, d):
        p = NCPoly.from_word(system, w)
        for i in range(model.n):
            lhs = pairing.inner_l2(xi[i], p)
            rhs = pairing.inner_tensor(unit, diff_quotient(i, p))
            residual = max(residual, abs(lhs - rhs))
    fisher = float(sum(pairing.inner_l2(x, x).real for x in xi))
    return residual, fisher


# family -> (model, largest test degree); over B = M_2 there are 4 * 8^e
# test words of degree e
CONJUGATE_FAMILIES = {
    "two-block unitary": (_unitary_pair, 6),
    "semicircular n=2": (partial(SemicircularModel, 2), 6),
    "two-point measure": (two_point_measure, 6),
    "cyclic_group_model(5)": (partial(cyclic_group_model, 5), 6),
    "M_2 over B = M_2": (m2_over_m2, 2),
    "two-point * semicircular": (lambda: FreeProductModel(
        [two_point_measure(), SemicircularModel(1)]), 6),
}


@pytest.mark.parametrize("name, d", [
    (name, d) for name, (_, d_max) in CONJUGATE_FAMILIES.items()
    for d in range(d_max + 1)])
@settings(max_examples=4)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_conjugate_check_matches_the_symbolic_reference(name, d, seed):
    model = CONJUGATE_FAMILIES[name][0]()
    rng = random.Random(seed)
    xi = tuple(random_element(model.system, rng, 2, rng.randint(0, 3))
               for _ in range(model.n))
    rep = conjugate_variable_check(model, xi, d=d)
    residual, fisher = _conjugate_check_reference(model, xi, d)
    assert abs(rep.residual - residual) <= 1e-12 * max(1.0, residual)
    assert abs(rep.fisher_info - fisher) <= 1e-12 * max(1.0, fisher)


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

    monkeypatch.setattr(conftest, "MatrixCoordinates", Counting)
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


@pytest.mark.parametrize("radius", [math.inf, math.nan])
def test_alpha_names_a_radius_that_is_not_finite(radius):
    # checked before the fit, whose least-squares solve would fail on
    # log(inf) without naming it
    with pytest.raises(StructureError, match=f"radius {radius} is not finite"):
        alpha_estimate([(1, 0.5), (2, 0.25), (radius, 0.1)])


def test_alpha_of_a_flat_sweep_is_zero():
    # M_2 + C: the bounded irregularity is constant beyond radius 1, and a
    # least-squares fit of the equal window values reads -2.47e-17
    sweep = radius_sweep(_m2_plus_c(), DegreeScheme(2), [0.5, 1, 1.5, 2, 3])
    values = [s.value for _, s in sweep]
    assert len(set(values[2:])) == 1 and values[0] != values[-1]
    rep = alpha_estimate([(r, s.value) for r, s in sweep])
    assert rep.alpha == 0.0 and math.copysign(1.0, rep.alpha) == 1.0
    assert rep.window == [1.5, 2, 3] and rep.floored == 0


def test_alpha_from_semicircular_sweep(semicircular1):
    scheme = DegreeScheme(2, 4)
    sweep = radius_sweep(semicircular1, scheme, [0.5, 1.0, 1.5, 2.0])
    rep = alpha_estimate([(r, s.value) for r, s in sweep])
    assert rep.alpha == float("-inf")
    # cross-check the flag with a direct evaluation past the threshold
    assert irregularity_bounded(semicircular1, scheme, 1.5).value < 1e-8


# -- the README's library example ------------------------------------------------


def test_readme_library_example():
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(code, scope)
    est, exact = scope["est"], scope["exact"]
    assert abs(est.sigma - 0.5) <= 1e-6
    (xi,) = est.xi
    ((word, coeff),) = xi.terms.items()
    assert word == (0, 0, 0) and abs(complex(coeff) - 0.5) <= 1e-6
    assert abs(exact.sigma - 0.5) <= 1e-9
    assert [d for d, _ in exact.trail] == [1, 2]
    assert all(abs(v - 0.5) <= 1e-9 for _, v in exact.trail)
    assert out.getvalue().splitlines() == [
        str(est.sigma), str(est.xi), f"{exact.sigma} {exact.trail}"]
