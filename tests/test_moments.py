"""The moment-table Gram and design against the symbolic inner products.

The reference builds the Jacobian rows with ``gradient`` and pairs them with
the symbolic tensor inner product (``SymbolicPairing``), entry by entry, and
the candidate Gram with its L2 inner product; the two-block unitary
model has non-real moments, so a missing conjugation shows there.  The
split-pair assembly of ``W``, as the dense matrix of its entries
(``dense_gram``), is checked against a per-split loop over the same table
and against the degree-block Kronecker sums it replaced
(``_gram_blocks_reference``), every Gram view, decomposed from the entries,
against that matrix through the dense block decomposition it replaced
(``dense_eigh_kept``), the candidate Gram read off the leg table
against its own table, the moment tables of semicircular, measure and
matrix models against the per-word traces they replaced
(``_per_word_table``), and the reduced-word vectors of free products
against the centering recursion they replaced.  The semicircular Fock
vectors are checked bit for bit against the slice loop they replaced
(``_fock_vectors_reference``), and the free-product vectors, traces and
tables against the dict-keyed builder they replaced (``DictFreeProduct``).
Discrepancies, read off the
candidate rows, are checked against the symbolic kernel summed by
``GramSystem.r_of_kernel``.  The reported candidate
tuples are checked against the symbolic candidate basis (``_symbolic_xi``),
and reports that build them on first read against reports that build them
at once.  Gram systems of one shape
share one read-only layout, and those of one shape and table pattern one
read-only list of split pairs, of which a bounded number stay cached.
"""

import itertools
import random
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (DictFreeProduct, SymbolicPairing, _unitary_pair,
                      candidate_gram_reference, dense_eigh_kept, dense_gram,
                      eval_word, m2_over_m2, random_poly, random_word,
                      word_of)
from free_stein import stein, trace
from free_stein.cli import main
from free_stein.errors import DegreeCapError, StructureError
from free_stein.ncalg import (BAlgebra, GeneratorSystem, KernelMatrix, NCPoly,
                              TensorPoly, commutator_stein_kernel,
                              generator_tuple, gradient)
from free_stein.parser import parse_poly_tuple
from free_stein.scalars import QQi
from free_stein.trace import (FreeProductModel, MatrixModel, MeasureModel,
                              SemicircleDensity, SemicircularModel,
                              UniformDensity, cyclic_group_model,
                              real_if_exact, two_point_matrix_model,
                              two_point_measure)

TOL = 1e-12


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
    symbolic = SymbolicPairing(model)

    def row_product(us, vs):
        return sum(symbolic.inner_tensor(u, v) for u, v in zip(us, vs))

    gs = stein.GramSystem(model, 3)
    rows = [gradient(NCPoly.from_word(model.system, w)) for w in gs.words]
    m = len(rows)
    W = np.array([[row_product(rows[b], rows[a]) for b in range(m)]
                  for a in range(m)])
    assert np.max(np.abs(dense_gram(gs) - W)) <= TOL

    unit = TensorPoly.unit(model.system)
    r1 = np.array([[symbolic.inner_tensor(unit, row[i]) for row in rows]
                   for i in range(model.n)])
    assert np.max(np.abs(gs.r_of_identity() - r1)) <= TOL

    rng = random.Random(7)
    X = generator_tuple(model.system)
    for _ in range(3):
        xi = tuple(random_poly(model.system, rng, 2) for _ in range(model.n))
        A = commutator_stein_kernel(xi, X)
        rA = np.array([[row_product(A.entries[i], row) for row in rows]
                       for i in range(model.n)])
        assert np.max(np.abs(gs.r_of_kernel(A) - rA)) <= TOL


def _gram_reference(gs):
    """Oracle only: ``W`` one row per basis word, from that word's splits
    against every split of the same letter, summed by owner; returns ``W``
    and the per-letter split arrays it was built from."""
    G = np.array([gs._columns[p] for p in gs._legs]).T
    leg_index = {w: k for k, w in enumerate(gs._legs)}
    splits = [[] for _ in range(gs.model.n)]
    for a, w in enumerate(gs.words):
        for j in range(1, len(w), 2):
            splits[w[j]].append((a, leg_index[w[:j]], leg_index[w[j + 1:]]))
    m = len(gs.words)
    W = np.zeros((m, m), dtype=G.dtype)
    arrays = []
    for rows in splits:
        own, pre, suf = np.array(rows).T
        starts = np.flatnonzero(np.diff(own, prepend=-1))
        owners = own[starts]
        arrays.append((owners, starts, pre, suf))
        for a, group in zip(owners, np.split(np.arange(len(pre)), starts[1:])):
            block = G[pre[group]][:, pre] * G[suf[group]][:, suf]
            W[a, owners] += np.add.reduceat(block.sum(axis=0), starts)
    return W, arrays


def _gram_blocks_reference(G, n, start):
    """Oracle only: ``W`` summed by degree blocks, as it was before the split
    pairs.  The degree-e words with letter ``i`` after a prefix of degree
    ``j`` are the slice ``[:, i, :]`` of the ``(n^j, n, n^(e-1-j))`` reshape
    of the degree-e range, so the splits after prefix degrees ``j`` (rows)
    and ``k`` (columns) add ``kron(G[L_j, L_k], G[L_(e-1-j), L_(f-1-k)])``
    on the letter diagonal of the degree block ``(e, f)`` (``L_j`` the legs
    of degree j, at ``start[j]:start[j + 1]``).  The blocks with ``f >= e``
    are summed and the others mirrored."""
    m = int(start[-1]) - 1
    W = np.zeros((m, m), dtype=G.dtype)
    top = len(start) - 2
    legs = [[G[start[j]:start[j + 1], start[k]:start[k + 1]]
             for k in range(top)] for j in range(top)]
    for e in range(1, top + 1):
        rows = slice(start[e] - 1, start[e + 1] - 1)
        for f in range(e, top + 1):
            cols = slice(start[f] - 1, start[f + 1] - 1)
            block = W[rows, cols]
            for j, k in itertools.product(range(e), range(f)):
                o = block.reshape(n ** j, n, -1, n ** k, n, n ** (f - 1 - k))
                term = (legs[j][k][:, None, :, None]
                        * legs[e - 1 - j][f - 1 - k][None, :, None, :])
                for i in range(n):
                    o[:, i, :, :, i, :] += term
            if f > e:
                W[cols, rows] = block.T.conj()
            else:
                lower = np.tri(len(block), k=-1, dtype=bool)
                np.copyto(block, block.T.conj(), where=lower)
    np.fill_diagonal(W, W.diagonal().real)
    return W


# these tables hold integers and halves, so every summation order is exact
EXACT_GRAMS = {
    "semicircular n=1, d_proj=6": (lambda: SemicircularModel(1, cap=14), 6),
    "semicircular n=2, d_proj=5": (lambda: SemicircularModel(2), 5),
    "semicircular n=3, d_proj=4": (lambda: SemicircularModel(3), 4),
    "plateau, d_proj=6": (lambda: MeasureModel(
        [(3.0, 0.5)], SemicircleDensity(mass=0.5), cap=14), 6),
    "two-point, d_proj=6": (lambda: two_point_measure(cap=14), 6),
}


@pytest.mark.parametrize("name", EXACT_GRAMS)
def test_gram_blocks_equal_per_split_reference(name):
    make, d_proj = EXACT_GRAMS[name]
    stein._layout.cache_clear()
    stein._pair_index.cache_clear()
    # the first build makes the layout and the pairs, the second reads both
    # from the cache
    for _ in range(2):
        gs = stein.GramSystem(make(), d_proj)
        W, arrays = _gram_reference(gs)
        dense = dense_gram(gs)
        assert np.array_equal(dense, W)
        start = stein._layout(gs.model.n, d_proj)[2]
        assert np.array_equal(dense, _gram_blocks_reference(gs._table,
                                                            gs.model.n, start))
        assert np.array_equal(dense, dense.conj().T)
        for got, want in zip(gs._splits, arrays, strict=True):
            assert all(np.array_equal(g, w)
                       for g, w in zip(got, want, strict=True))
        for d in range(1, d_proj + 1):
            assert gs._degree_count[d] == sum(len(w) // 2 <= d + 1
                                              for w in gs.words)


def test_gram_sums_each_entry_in_the_reference_order():
    # a real table of non-dyadic moments: the products round, so the sums
    # keep their bits only in the order of the degree-block reference
    model = FreeProductModel([two_point_measure(mass_plus=0.7, loc_plus=2.0),
                              SemicircularModel(1)])
    gs = stein.GramSystem(model, 4)
    W = _gram_blocks_reference(gs._table, 2, stein._layout(2, 4)[2])
    dense = dense_gram(gs)
    assert np.array_equal(dense, W)
    assert not np.array_equal(dense, _gram_reference(gs)[0])


def _pairs_of(gs):
    """The split-pair index ``gs`` was assembled from."""
    labels = stein._components(gs._table).tobytes()
    return stein._pair_index(gs.model.n, gs.d_proj, labels)


def test_gram_systems_of_one_shape_share_a_read_only_layout():
    # n=2 both, but a different star pairing: the layout depends on neither
    stein._pair_index.cache_clear()
    a = stein.GramSystem(SemicircularModel(2), 3)
    b = stein.GramSystem(_unitary_pair(), 3)
    assert a.words is b.words and a._legs is b._legs
    for got, want in zip(a._splits, b._splits, strict=True):
        assert all(g is w for g, w in zip(got, want, strict=True))
        for arr in got:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
    with pytest.raises(TypeError):
        a._degree_count[1] = 0
    # the model values stay per system
    assert not np.array_equal(dense_gram(a), dense_gram(b))
    assert a._columns is not b._columns
    # the split pairs follow the table's zero pattern: the unitary pair's
    # table is one component, the semicircular family's many
    assert stein._pair_index.cache_info().misses == 2
    assert _pairs_of(a) is not _pairs_of(b)
    assert len(_pairs_of(a)[0]) < len(_pairs_of(b)[0])
    # two-point * semicircular has semicircular n=2's pattern: one index
    c = stein.GramSystem(MODELS["two-point * semicircular"](), 3)
    assert stein._pair_index.cache_info().misses == 2
    assert _pairs_of(c) is _pairs_of(a)
    for arr in _pairs_of(a):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    start = stein._layout(2, 3)[2]
    for gs in (a, b, c):
        W = _gram_blocks_reference(gs._table, 2, start)
        assert np.max(np.abs(dense_gram(gs) - W)) <= 1e-15 * np.max(np.abs(W))


def test_pair_index_cache_is_bounded():
    # far more labellings than the cache holds; the index needs labels below
    # the leg count (7 for n=2 at d_proj 2), not a true component labelling
    bound = stein.PAIR_INDEX_CACHE
    assert stein._pair_index.cache_info().maxsize == bound
    stein._pair_index.cache_clear()
    rng = np.random.default_rng(0)
    labels = {rng.integers(0, 7, 7).astype(np.intp).tobytes()
              for _ in range(3 * bound)}
    keys = [(2, 2, label) for label in sorted(labels)]
    assert len(keys) > 2 * bound
    for key in keys:
        stein._pair_index(*key)
        assert stein._pair_index.cache_info().currsize <= bound
    assert stein._pair_index.cache_info().currsize == bound
    # the most recent keys stay cached; the first was evicted
    misses = stein._pair_index.cache_info().misses
    stein._pair_index(*keys[-1])
    assert stein._pair_index.cache_info().misses == misses
    stein._pair_index(*keys[0])
    assert stein._pair_index.cache_info().misses == misses + 1


IDENTITY_MODELS = {
    "semicircular n=2": lambda: SemicircularModel(2),
    "two-point": two_point_measure,
    "two-point * semicircular": MODELS["two-point * semicircular"],
    "cyclic group of order 5": lambda: cyclic_group_model(5),
    "two-block unitary": _unitary_pair,
}


@pytest.mark.parametrize("name", IDENTITY_MODELS)
def test_identity_rows_equal_the_identity_kernel_rows(name):
    model = IDENTITY_MODELS[name]()
    for d_proj in (2, 4):
        gs = stein.GramSystem(model, d_proj)
        r = gs.r_of_identity()
        want = gs.r_of_kernel(KernelMatrix.identity(model.system))
        assert r.dtype == want.dtype and np.array_equal(r, want)
    assert np.iscomplexobj(r) == (name in ("cyclic group of order 5",
                                           "two-block unitary"))


TOLERANCE_GRAMS = {
    "two-point * semicircular": (MODELS["two-point * semicircular"], 4),
    "cyclic group of order 6": (MODELS["cyclic group of order 6"], 4),
    "two-block unitary": (_unitary_pair, 4),
    "cyclic group of order 5, d_proj=5": (lambda: cyclic_group_model(5), 5),
}


@pytest.mark.parametrize("name", TOLERANCE_GRAMS)
def test_gram_blocks_match_per_split_reference(name):
    make, d_proj = TOLERANCE_GRAMS[name]
    gs = stein.GramSystem(make(), d_proj)
    W, _ = _gram_reference(gs)
    assert np.max(np.abs(dense_gram(gs) - W)) <= TOL
    start = stein._layout(gs.model.n, d_proj)[2]
    W = _gram_blocks_reference(gs._table, gs.model.n, start)
    assert np.max(np.abs(dense_gram(gs) - W)) <= 1e-15 * np.max(np.abs(W))
    W = dense_gram(gs)
    assert np.array_equal(W, W.conj().T)


def _symbolic_xi(model, words, Y):
    """Oracle only: the candidate tuple of the coefficient matrix ``Y`` over
    the design columns (word k in slot i at ``Y[k, i]``), built as the
    symbolic basis it replaced: ``model.centered`` of each word, scaled by
    its coefficient and summed, coefficients up to ``RCOND`` times the
    largest in modulus dropped."""
    system, n = model.system, model.n
    cut = stein.RCOND * np.abs(Y).max()
    xi = [NCPoly.zero(system) for _ in range(n)]
    for k, w in enumerate(words):
        cand = model.centered(NCPoly.from_word(system, w))
        for i in range(n):
            c = Y[k, i]
            if abs(c) > cut:
                xi[i] = xi[i] + cand * QQi.of(complex(c))
    return tuple(xi)


@pytest.mark.parametrize("name", MODELS)
def test_candidate_gram_matches_inner_l2(name):
    # every slot has the one candidate Gram, and two slots are orthogonal
    model = MODELS[name]()
    words = stein.monomial_words(model.system, 1, 2)
    K, n = len(words), model.n
    candidates = [_symbolic_xi(model, words, y.reshape(K, n))
                  for y in np.eye(K * n)]
    Qw = stein.GramSystem(model, 2).candidate_gram(words)
    assert Qw.shape == (K, K)
    symbolic = SymbolicPairing(model)
    for a, b in itertools.product(range(K * n), repeat=2):
        (k, i), (l, j) = divmod(a, n), divmod(b, n)
        q = symbolic.inner_l2(candidates[b][i], candidates[a][i])
        assert abs(q - (Qw[k, l] if i == j else 0)) <= TOL


@pytest.mark.parametrize("name", MODELS)
def test_candidate_gram_reads_the_leg_table(name, monkeypatch):
    model = MODELS[name]()
    gs = stein.GramSystem(model, 3)
    words = [stein.monomial_words(model.system, 1, d) for d in (1, 2, 3, 4)]
    want = [candidate_gram_reference(model, w) for w in words]
    # the words are built valid, so the table skips the word checks
    table, calls = model._moment_table, []
    monkeypatch.setattr(model, "_moment_table",
                        lambda *a: calls.append(a) or table(*a))
    got = [gs.candidate_gram(w) for w in words]
    # d_xi <= d_proj reads the leg table; the degree-4 candidates, beyond
    # d_proj, take one table call
    assert len(calls) == 1
    assert np.array_equal(got[-1], want[-1])
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype
        assert np.max(np.abs(g - w)) <= 1e-15 * np.max(np.abs(w))
        if name == "semicircular n=2":  # integer moments: exact
            assert np.array_equal(g, w)


XI_MODELS = dict(MODELS, **{"cyclic group of order 3":
                            lambda: cyclic_group_model(3)})


@pytest.mark.parametrize("name", XI_MODELS)
def test_assembled_xi_matches_symbolic_xi(name):
    model = XI_MODELS[name]()
    _, _, words, degrees, Z, B = stein._xi_design(model, stein.DegreeScheme(2))
    assert len(degrees) == Z.shape[1] == len(words)
    assert B.shape == (len(Z), model.n)
    Y, *_ = np.linalg.lstsq(Z, B, rcond=stein.RCOND)
    Ys = [Y]
    # entries at zero and on both sides of the drop rule, real and complex
    values = np.array([0.0, 0.99, 1.01, -1.01, 1e-6, 10.0, 0.7e10j, 1j,
                       0.3e10 - 2j])
    rng, shape = np.random.default_rng(5), Y.shape
    for _ in range(3):
        c = rng.choice(values, size=shape) * rng.choice([1, -1], size=shape)
        c += (rng.random(shape) < 0.3) * rng.normal(size=shape) * (1 + 1j)
        c[0, 0] = 1e10  # the largest modulus: the cut is RCOND * 1e10 = 1
        Ys.append(c)
    for Y in Ys:
        assert stein._assemble_xi(model, words, Y) == _symbolic_xi(model,
                                                                   words, Y)


def test_sweeps_build_no_xi_until_it_is_read(monkeypatch, tmp_path):
    calls, eager = [], stein._assemble_xi

    def counted(*args):
        calls.append(args)
        return eager(*args)

    monkeypatch.setattr(stein, "_assemble_xi", counted)
    sweep = stein.radius_sweep(SemicircularModel(2), stein.DegreeScheme(2),
                               [0, 0.5, 1, 2])
    spec = tmp_path / "semicircular1.json"
    spec.write_text('{"type": "semicircular", "n": 1}')
    assert main(["sweep-degree", "--model", str(spec), "--dxi-max", "2",
                 "--out", str(tmp_path / "degree.json")]) == 0
    assert calls == []
    # the first read builds xi once; later reads return the stored tuple
    rep = sweep[1][1]
    xi = rep.xi
    assert rep.xi is xi and len(calls) == 1
    assert xi == eager(*calls[0])
    assert sweep[0][1].xi == () and len(calls) == 1
    est = stein.irregularity_estimate(SemicircularModel(2),
                                      stein.DegreeScheme(2))
    assert len(calls) == 1
    assert est.xi == eager(*calls[1]) and len(calls) == 2


REPORT_MODELS = {
    "semicircular n=2": lambda: SemicircularModel(2),
    "two-point * semicircular": MODELS["two-point * semicircular"],
    "cyclic group of order 5": lambda: cyclic_group_model(5),
}


@pytest.mark.parametrize("name", REPORT_MODELS)
def test_reports_with_xi_built_on_read_equal_eager_reports(name, monkeypatch):
    make, scheme = REPORT_MODELS[name], stein.DegreeScheme(2)

    def reports():
        # radius 0, then radii from the boundary into the interior
        sweep = stein.radius_sweep(make(), scheme, [0, 0.5, 1, 10])
        return [stein.irregularity_estimate(make(), scheme),
                stein.irregularity_bounded(make(), scheme, 0.5),
                *(rep for _, rep in sweep)]

    lazy = reports()
    with monkeypatch.context() as m:
        # assemble each xi when its report is made, as before it was deferred
        m.setattr(stein, "partial", lambda fn, *args: fn(*args))
        eager = reports()
    assert [r.to_json() for r in lazy] == [r.to_json() for r in eager]
    assert lazy == eager and repr(lazy) == repr(eager)
    assert lazy[2].xi == () and all(r.xi for r in lazy[:2] + lazy[3:])


def test_assembled_xi_drop_rule_is_relative():
    # rounding of a solve is relative to Y: its terms are dropped and the
    # true terms kept at every scale of Y
    model = SemicircularModel(2)
    words = stein.monomial_words(model.system, 1, 2)
    Y = np.zeros((len(words), model.n))
    # t1 in slot 0; t2 and t2 t2 in slot 1
    Y[[0, 1, 5], [0, 1, 1]] = 1.0, -0.25, 0.5
    Y[[2, 3], [0, 1]] = 3e-16, -2e-17
    expected = [{(0, 0, 0)}, {(0, 1, 0), (0, 1, 0, 1, 0), (0,)}]
    for scale in (1e-20, 1.0, 1e20):
        xi = stein._assemble_xi(model, words, scale * Y)
        assert [set(p.terms) for p in xi] == expected


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
    X = _kernel_partners(system)
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


def _kernel_partners(system):
    """The generators the half-commutator kernel pairs ``xi_j`` with:
    ``x_{pi(j)}`` for the star pairing ``pi``."""
    X = generator_tuple(system)
    return tuple(X[j] for j in system.star_pairing)


@pytest.fixture
def exact_kernel_calls(monkeypatch):
    """Every exact kernel matrix built and every ``r_of_kernel`` call made
    while the test runs; stein has no name of its own for the kernel."""
    assert not hasattr(stein, "commutator_stein_kernel")
    calls = []
    for owner, name in [(KernelMatrix, "__init__"),
                        (stein.GramSystem, "r_of_kernel")]:
        def counted(*args, _exact=getattr(owner, name), _name=name):
            calls.append(_name)
            return _exact(*args)
        monkeypatch.setattr(owner, name, counted)
    return calls


def test_design_builds_no_exact_kernels(exact_kernel_calls):
    *_, Z, B = stein._xi_design(SemicircularModel(2), stein.DegreeScheme(2))
    assert Z.shape[1] == 6 and B.shape[1] == 2 and not exact_kernel_calls


def test_discrepancy_builds_no_exact_kernels(exact_kernel_calls):
    model = SemicircularModel(2)
    xi = parse_poly_tuple("(t1 + t1*t2, t2)", model.system)
    rep = stein.discrepancy(model, xi, stein.DegreeScheme(2, 4))
    assert len(rep.trail) == 4 and not exact_kernel_calls


# one centered xi per model: rational, complex and constant coefficients, and
# words that repeat within a slot or across the slots
DISCREPANCIES = {
    "semicircular n=2": (lambda: SemicircularModel(2),
                         "(1/3*t1*t2 + t1 - 2, t2*t2 + 1/3*t1*t2 + t1*t2 + 5)"),
    "semicircular n=1": (lambda: SemicircularModel(1), "(t1 + 1/7*t1^3)"),
    "two-point": (two_point_measure, "(t1 + 1/3*t1*t1 + 2 + t1)"),
    "two-point * semicircular": (MODELS["two-point * semicircular"],
                                 "(t1 - 1/3*t2*t1, i*t2 + t1*t1 + 1 - t2*t1)"),
    "cyclic group of order 3": (lambda: cyclic_group_model(3),
                                "(t1*t1 + 1/3*t2, 2*t2 - i*t1 + t1*t1)"),
    "cyclic group of order 5": (lambda: cyclic_group_model(5),
                                "(t1 + 1/3*t1*t1, t2 - t2*t2 + 3 + 1/3*t1*t1)"),
    "two-point matrix": (two_point_matrix_model, "(t1 + 1/7*t1*t1*t1 - 1/2)"),
    "two-block unitary": (_unitary_pair, "(t1 + i*t2*t1 + 1/3, t2 - 2*t1*t2)"),
}


@pytest.mark.parametrize("name", DISCREPANCIES)
def test_discrepancy_matches_exact_kernel(name):
    make, text = DISCREPANCIES[name]
    model = make()
    xi = parse_poly_tuple(text, model.system)
    scheme = stein.DegreeScheme(max(p.degree() for p in xi))
    rep = stein.discrepancy(model, xi, scheme)
    gs = stein.GramSystem(model, scheme.d_proj)
    centered = tuple(model.centered(p) for p in xi)
    A = commutator_stein_kernel(centered, _kernel_partners(model.system))
    rA, r1 = gs.r_of_kernel(A), gs.r_of_identity()
    want = [float(np.linalg.norm(gs.view(d).z(rA) - gs.view(d).z(r1)))
            for d in range(1, scheme.d_proj + 1)]
    got = [v for _, v in rep.trail]
    assert [d for d, _ in rep.trail] == list(range(1, scheme.d_proj + 1))
    assert np.allclose(got, want, rtol=1e-12, atol=1e-15)
    assert rep.value == got[-1] and rep.xi == centered


def test_discrepancy_rejects_foreign_and_short_xi():
    model = SemicircularModel(2)
    foreign = generator_tuple(GeneratorSystem(2, star_pairing=(1, 0)))
    with pytest.raises(StructureError, match="different generator system"):
        stein.discrepancy(model, foreign, stein.DegreeScheme(1))
    with pytest.raises(StructureError, match="one entry per generator"):
        stein.discrepancy(model, generator_tuple(model.system)[:1],
                          stein.DegreeScheme(1))


@pytest.mark.parametrize("make, real", [
    (lambda: SemicircularModel(2), True),
    (two_point_measure, True),
    (MODELS["two-point * semicircular"], True),
    (_unitary_pair, False),
])
def test_gram_is_real_exactly_for_real_tables(make, real):
    gs = stein.GramSystem(make(), 2)
    assert np.isrealobj(dense_gram(gs)) == real
    assert np.isrealobj(gs.r_of_identity()) == real


# -- bulk moment tables ------------------------------------------------------------


def _per_word_table(model, xs, ys=None):
    """Oracle only: the moment table entry by entry, ``tau`` of the product
    word ``x* y`` through the model's own word trace.  The words and the cap
    are checked as ``moment_table`` checks them; a square table is traced on
    its upper triangle and mirrored by conjugation."""
    square = ys is None
    ys = xs if square else ys
    for w in (*xs, *ys):
        model.system.check_word(w)
    degree = (max((len(w) // 2 for w in xs), default=0)
              + max((len(w) // 2 for w in ys), default=0))
    if degree > model.system.cap:
        raise DegreeCapError(
            f"product degree {degree} exceeds cap {model.system.cap}")
    cache, impl = model._word_cache, model._trace_word_impl
    G = np.empty((len(xs), len(ys)), dtype=complex)
    for a, x in enumerate(xs):
        ((xstar, _),) = model.system.adjoint_word(x)
        head = xstar[:-1]  # x* y over scalar B: the slots between merge
        for b in range(a if square else 0, len(ys)):
            w = head + ys[b]
            hit = cache.get(w)
            if hit is None:
                hit = cache[w] = complex(impl(w))
            G[a, b] = hit
    if square:
        lower = np.tril_indices(len(xs), -1)
        G[lower] = G.T[lower].conj()
    return real_if_exact(G)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fock_table_equals_per_word_table(n):
    model = SemicircularModel(n)
    per_word = SemicircularModel(n)
    xs = stein.monomial_words(model.system, 0, 3)
    table = model.moment_table(xs)
    assert np.isrealobj(table)
    assert np.array_equal(table, _per_word_table(per_word, xs))
    # ys deeper than every x, in no particular order
    rng = random.Random(n)
    xs = xs[:1 + n + n * n]
    ys = [random_word(model.system, rng, 7) for _ in range(40)]
    ys.append((0,) + (n - 1, 0) * 7)
    assert np.array_equal(model.moment_table(xs, ys),
                          _per_word_table(per_word, xs, ys))
    assert np.array_equal(model.moment_table(ys, xs),
                          _per_word_table(per_word, ys, xs))


@pytest.mark.parametrize("make", [
    lambda: SemicircularModel(2, cap=6), lambda: two_point_measure(cap=6),
    lambda: cyclic_group_model(3, cap=6),
    lambda: FreeProductModel([two_point_measure(), SemicircularModel(1)],
                             cap=6)],
    ids=["semicircular", "measure", "matrix", "free product"])
def test_moment_table_checks_every_word(make):
    # the program's own tables skip the word checks; the public table and
    # the word trace keep each check and its message, and both tables the cap
    model = make()
    n = model.n
    for bad, message in [((0, 0), f"malformed word {(0, 0)!r}"),
                         ((0, n, 0), f"letter index {n} out of range in "
                                     f"{(0, n, 0)!r}"),
                         ((0, 0, 1), f"B index 1 out of range in "
                                     f"{(0, 0, 1)!r}")]:
        for call in (lambda: model.moment_table([(0,), bad]),
                     lambda: model.moment_table([(0,)], [(0,), bad]),
                     lambda: model.moment_table([bad], [(0,)]),
                     lambda: model.trace_word(bad)):
            with pytest.raises(StructureError) as err:
                call()
            assert str(err.value) == message
    deep = word_of((0,) * 7)
    for table in (model.moment_table, model._moment_table):
        with pytest.raises(DegreeCapError,
                           match="^product degree 7 exceeds cap 6$"):
            table([(0,)], [deep])
    xs = stein.monomial_words(model.system, 0, 2)
    assert np.array_equal(model._moment_table(xs), model.moment_table(xs))


def test_fock_table_keeps_the_cap():
    model = SemicircularModel(2, cap=6)
    xs = stein.monomial_words(model.system, 0, 3)
    with pytest.raises(DegreeCapError):
        model.moment_table(xs, [(0, 1, 0, 1, 0, 1, 0, 1, 0)])
    with pytest.raises(DegreeCapError):
        _per_word_table(model, xs, [(0, 1, 0, 1, 0, 1, 0, 1, 0)])


def _fock_vectors_reference(n, words, depth):
    """Oracle only: ``SemicircularModel._fock_vectors`` as the per-level,
    per-letter slice loop it replaced.  Each level sorts its prefixes and
    applies ``d_l = r_l + r_l*`` to the parents of last letter ``l`` one
    Fock depth at a time."""
    offsets = np.cumsum([0] + [n ** k for k in range(depth + 1)])
    need = [set() for _ in range(max(map(len, words), default=0) + 1)]
    for u in words:
        for k in range(len(u) + 1):
            need[k].add(u[:k])
    prev = np.zeros((1, offsets[-1]))
    prev[0, 0] = 1.0
    index = {(): (0, 0)}  # tuple -> (level, row)
    levels = [prev]
    for e in range(1, len(need)):
        level = sorted(need[e])
        parents = prev[[index[u[:-1]][1] for u in level]]
        last = np.array([u[-1] for u in level])
        cur = np.zeros_like(parents)
        for l in range(n):
            rows = np.flatnonzero(last == l)
            src, out = parents[rows], np.zeros((len(rows), offsets[-1]))
            for k in range(depth):  # r_l: depth k -> k + 1; r_l*: back
                here = slice(offsets[k], offsets[k + 1])
                there = slice(offsets[k + 1] + l, offsets[k + 2], n)
                out[:, there] += src[:, here]
                out[:, here] += src[:, there]
            cur[rows] = out
        index.update((u, (e, r)) for r, u in enumerate(level))
        levels.append(cur)
        prev = cur
    return np.array([levels[e][r] for e, r in map(index.__getitem__, words)]
                    ).reshape(len(words), offsets[-1])


@st.composite
def fock_cases(draw):
    """``(n, depth, words)``: letter tuples up to two letters longer than
    ``depth`` (the rectangular tables' deeper side), in drawn order, with
    repeats drawn back in."""
    n, depth = draw(st.integers(1, 4)), draw(st.integers(0, 6))
    word = st.lists(st.integers(0, n - 1), max_size=depth + 2).map(tuple)
    words = draw(st.lists(word, max_size=12))
    if words:
        words += draw(st.lists(st.sampled_from(words), max_size=4))
    return n, depth, words


@settings(max_examples=80)
@given(fock_cases())
@example((2, 3, []))
@example((1, 0, [(), (0, 0)]))
@example((3, 2, [(2, 1, 0, 1), (0,), (), (2, 1, 0, 1), (1, 2)]))
def test_fock_vectors_equal_slice_loop_reference(case):
    n, depth, words = case
    V = SemicircularModel(n)._fock_vectors(words, depth)
    assert V.shape == (len(words), sum(n ** k for k in range(depth + 1)))
    assert np.array_equal(V, _fock_vectors_reference(n, words, depth))


def test_fock_successors_are_one_read_only_table_per_shape():
    trace._fock_successors.cache_clear()
    a, b = SemicircularModel(2), SemicircularModel(2)
    xs = stein.monomial_words(a.system, 0, 3)
    assert np.array_equal(a.moment_table(xs), b.moment_table(xs))
    info = trace._fock_successors.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    there = trace._fock_successors(2, 3)
    # basis tuple (1, 0), index 1 + 2 + 2, appended 1 -> (1, 0, 1), 7 + 5
    assert there.shape == (2, 7) and there[1, 5] == 12
    with pytest.raises(ValueError, match="read-only"):
        there[0, 0] = 0


def test_measure_table_is_a_hankel_gather():
    for model in (two_point_measure(), two_point_measure(0.3),
                  MeasureModel([(3.0, 0.5)], SemicircleDensity(mass=0.5)),
                  MeasureModel([], UniformDensity(-1.0, 2.0))):
        xs = stein.monomial_words(model.system, 0, 5)
        ys = [word_of((0,) * k) for k in (7, 0, 3, 6)]
        for args in ((xs,), (xs, ys), (ys, xs)):
            assert np.array_equal(model.moment_table(*args),
                                  _per_word_table(model, *args))


def test_measure_table_keeps_the_cap():
    model = two_point_measure(cap=6)
    xs = stein.monomial_words(model.system, 0, 3)
    for table in (model.moment_table, partial(_per_word_table, model)):
        with pytest.raises(DegreeCapError, match="product degree 7 exceeds cap 6"):
            table(xs, [word_of((0,) * 4)])


MATRIX_MODELS = {
    "cyclic group of order 3": lambda: cyclic_group_model(3),
    "cyclic group of order 6": lambda: cyclic_group_model(6),
    "two-block unitary": _unitary_pair,
    "two-point matrix 0.3": lambda: two_point_matrix_model(0.3),
}


@pytest.mark.parametrize("name", MATRIX_MODELS)
def test_matrix_table_matches_per_word_table(name):
    model = MATRIX_MODELS[name]()
    per_word = MATRIX_MODELS[name]()
    xs = stein.monomial_words(model.system, 0, 3)
    table = model.moment_table(xs)
    assert np.array_equal(table, table.conj().T)
    # rectangular tables over the same degrees, in no particular order
    rng = random.Random(9)
    ys = [random_word(model.system, rng, 3) for _ in range(30)]
    for args in ((xs,), (xs, ys), (ys, xs)):
        G = model.moment_table(*args)
        assert (np.max(np.abs(G - _per_word_table(per_word, *args)))
                <= 1e-15 * np.max(np.abs(G)))


def test_matrix_table_keeps_the_cap():
    model = cyclic_group_model(3, cap=6)
    xs = stein.monomial_words(model.system, 0, 3)
    for table in (model.moment_table, partial(_per_word_table, model)):
        with pytest.raises(DegreeCapError, match="product degree 7 exceeds cap 6"):
            table(xs, [word_of((0, 1, 1, 0))])


def test_matrix_table_traces_no_product_words(monkeypatch):
    calls = []
    impl = MatrixModel._trace_word_impl

    def counted(self, word):
        calls.append(word)
        return impl(self, word)

    monkeypatch.setattr(MatrixModel, "_trace_word_impl", counted)
    model = cyclic_group_model(6)
    xs = stein.monomial_words(model.system, 0, 4)
    assert model.moment_table(xs).shape == (31, 31)
    assert model.moment_table(xs, xs[:3]).shape == (31, 3) and not calls


@st.composite
def matrix_specs(draw):
    """Blocks, generators and star pairing of a direct sum of 1-3 blocks of
    size 1-2 with rational weights: one self-adjoint generator, or a
    star-paired ``u``, ``u*``, with complex entries from a seeded normal
    draw; and ten words of degree <= 4 in its letters."""
    sizes = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    parts = draw(st.lists(st.integers(1, 6), min_size=len(sizes),
                          max_size=len(sizes)))
    weights = [Fraction(p, sum(parts)) for p in parts]
    paired = draw(st.booleans())
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u = [gen.normal(size=(k, k)) + 1j * gen.normal(size=(k, k)) for k in sizes]
    if paired:
        gens, pairing = [u, [a.conj().T for a in u]], (1, 0)
    else:
        gens, pairing = [[a + a.conj().T for a in u]], None
    words = [word_of(gen.integers(len(gens), size=gen.integers(5)).tolist())
             for _ in range(10)]
    return list(zip(sizes, weights)), gens, pairing, words


@settings(max_examples=30)
@given(matrix_specs())
def test_matrix_table_matches_per_word_table_on_random_blocks(spec):
    blocks, gens, pairing, ys = spec
    model = MatrixModel(blocks, gens, star_pairing=pairing)
    per_word = MatrixModel(blocks, gens, star_pairing=pairing)
    xs = stein.monomial_words(model.system, 0, 3)
    for args in ((xs,), (xs, ys), (ys, xs)):
        G = model.moment_table(*args)
        R = _per_word_table(per_word, *args)
        assert np.max(np.abs(G - R)) <= 1e-13 * np.max(np.abs(R))
    square = model.moment_table(xs)
    assert np.array_equal(square, square.conj().T)


def _word_matrices_match_per_word_products(model, words):
    """The stacked matrices of ``words``, of the words reversed with a
    repeat, and of one word alone equal the per-word products bit for
    bit."""
    for ws in (words, [*words[::-1], words[0]], words[-1:]):
        want = np.array([eval_word(model, w) for w in ws])
        assert np.array_equal(model._word_matrices(ws), want)


@pytest.mark.parametrize("make", [m2_over_m2, _unitary_pair,
                                  lambda: cyclic_group_model(5)],
                         ids=["m2_over_m2", "unitary_pair", "cyclic5"])
def test_word_matrices_equal_per_word_products(make):
    model = make()
    _word_matrices_match_per_word_products(
        model, stein.monomial_words(model.system, 0, 3))


@settings(max_examples=30)
@given(matrix_specs())
def test_word_matrices_equal_per_word_products_on_random_blocks(spec):
    blocks, gens, pairing, ys = spec
    model = MatrixModel(blocks, gens, star_pairing=pairing)
    _word_matrices_match_per_word_products(
        model, stein.monomial_words(model.system, 0, 3) + ys)


# -- free products against the centering recursion --------------------------------


class _CenteringReference:
    """Oracle only: free-product traces by the centering recursion the
    reduced-word vectors replaced.  Each factor block ``w`` is written ``(w -
    tau(w)) + tau(w)``, and alternating products of centered blocks from
    distinct factors have trace zero.  Blocks are ``(factor, letters,
    centered)``; nested free products recurse through their own reference,
    other factors give their per-word traces."""

    def __init__(self, model):
        self.model = model
        self.factors = [_CenteringReference(f) if isinstance(f, FreeProductModel)
                        else f for f in model.factors]
        self.cache = {}

    def factor_trace(self, fi, letters):
        f = self.factors[fi]
        if isinstance(f, _CenteringReference):
            return f.trace(letters)
        return f.trace_word(word_of(letters))

    def trace(self, letters):
        blocks = []
        for g in letters:
            fi, loc = self.model._map[g]
            if blocks and blocks[-1][0] == fi:
                blocks[-1] = (fi, blocks[-1][1] + (loc,), False)
            else:
                blocks.append((fi, (loc,), False))
        return self.tau(tuple(blocks))

    def table(self, xs, ys):
        star = self.model.system.star_pairing
        return np.array([[self.trace(tuple(star[g] for g in reversed(x[1::2]))
                                     + y[1::2]) for y in ys] for x in xs])

    def tau(self, blocks):
        if not blocks:
            return complex(1)
        hit = self.cache.get(blocks)
        if hit is not None:
            return hit
        if len(blocks) == 1:
            fi, letters, centered = blocks[0]
            val = complex(0) if centered else self.factor_trace(fi, letters)
            self.cache[blocks] = val
            return val
        # merge an adjacent same-factor pair if present
        for i in range(len(blocks) - 1):
            f1, w1, c1 = blocks[i]
            f2, w2, c2 = blocks[i + 1]
            if f1 != f2:
                continue
            rest_l, rest_r = blocks[:i], blocks[i + 2:]
            t1 = self.factor_trace(f1, w1) if c1 else None
            t2 = self.factor_trace(f2, w2) if c2 else None
            val = self.tau(rest_l + ((f1, w1 + w2, False),) + rest_r)
            if c1:
                val -= t1 * self.tau(rest_l + ((f2, w2, False),) + rest_r)
            if c2:
                val -= t2 * self.tau(rest_l + ((f1, w1, False),) + rest_r)
            if c1 and c2:
                val += t1 * t2 * self.tau(rest_l + rest_r)
            self.cache[blocks] = val
            return val
        # alternating: center the first plain block
        for i, (fi, w, centered) in enumerate(blocks):
            if not centered:
                t = self.factor_trace(fi, w)
                val = self.tau(blocks[:i] + ((fi, w, True),) + blocks[i + 1:])
                val += t * self.tau(blocks[:i] + blocks[i + 1:])
                self.cache[blocks] = val
                return val
        # alternating product of centered blocks: freeness gives zero
        self.cache[blocks] = complex(0)
        return complex(0)


def _plateau():
    return MeasureModel([(3.0, 0.5)], SemicircleDensity(mass=0.5))


def _two_point_semicircular():
    return FreeProductModel([two_point_measure(), SemicircularModel(1)])


FREE_PRODUCTS = {
    "two-point * semicircular * cyclic(3)": lambda: FreeProductModel(
        [two_point_measure(), SemicircularModel(1), cyclic_group_model(3)]),
    "semicircular(2) * two-point(0.3)": lambda: FreeProductModel(
        [SemicircularModel(2), two_point_measure(0.3)]),
    "(two-point * semicircular) * cyclic(3)": lambda: FreeProductModel(
        [_two_point_semicircular(), cyclic_group_model(3)]),
    "plateau * cyclic(4)": lambda: FreeProductModel(
        [_plateau(), cyclic_group_model(4)]),
}


# models and depths whose Gram views are checked against the dense oracle
VIEW_GRAMS = {
    "semicircular n=1": (lambda: SemicircularModel(1, cap=14), 6),
    "semicircular n=2": (lambda: SemicircularModel(2), 5),
    "semicircular n=3": (lambda: SemicircularModel(3), 4),
    "atom plus uniform": (lambda: MeasureModel(
        [(3.0, 0.4)], UniformDensity(0, 1, mass=0.6), cap=14), 6),
    "plateau": (lambda: MeasureModel(
        [(3.0, 0.5)], SemicircleDensity(mass=0.5), cap=14), 6),
    **{name: (make, 4) for name, make in FREE_PRODUCTS.items()},
    "cyclic group of order 5": (lambda: cyclic_group_model(5), 5),
    "two-block unitary": (_unitary_pair, 4),
}


@pytest.mark.parametrize("name", VIEW_GRAMS)
def test_gram_views_equal_the_dense_oracle(name):
    # every prefix view decomposes from the entries exactly as the dense
    # W[:k, :k] through the dense block decomposition
    make, d_proj = VIEW_GRAMS[name]
    gs = stein.GramSystem(make(), d_proj)
    W = dense_gram(gs)
    for d in range(1, d_proj + 1):
        view = gs.view(d)
        vals, vecs = dense_eigh_kept(W[:view.k, :view.k])
        assert view.vals.dtype == vals.dtype and view.vecs.dtype == vecs.dtype
        assert np.array_equal(view.vals, vals)
        assert np.array_equal(view.vecs, vecs)
        assert np.array_equal(gs._labels(view.k),
                              stein._components(W[:view.k, :view.k]))
    assert np.iscomplexobj(W) == (name == "two-block unitary"
                                  or "cyclic" in name)


@pytest.mark.parametrize("make, d_proj, a, b, splits", [
    (lambda: SemicircularModel(1), 3, 0, 2, True),
    (lambda: SemicircularModel(2), 2, 6, 9, False),
], ids=["splitting", "inside a component"])
def test_gram_view_of_a_structural_entry_that_is_zero(make, d_proj, a, b,
                                                      splits):
    # a synthetic W: the structural entry (a, b) set to an exact zero links
    # nothing, as in the dense pattern; when it was a component's only link
    # between its ends the component splits, else its block holds the zero
    gs = stein.GramSystem(make(), d_proj)
    row, col, eid = gs._edges
    (e,) = eid[(row == a) & (col == b)]
    m = len(gs.words)
    before = len(set(gs._labels(m).tolist()))
    gs._entries = gs._entries.copy()
    gs._entries[e] = 0
    W = dense_gram(gs)
    assert W[a, b] == W[b, a] == 0
    for d in range(1, d_proj + 1):
        view = gs.view(d)
        A = W[:view.k, :view.k]
        assert np.array_equal(gs._labels(view.k), stein._components(A))
        vals, vecs = dense_eigh_kept(A)
        assert np.array_equal(view.vals, vals)
        assert np.array_equal(view.vecs, vecs)
    labels = gs._labels(m)
    assert len(set(labels.tolist())) == before + splits
    assert (labels[a] != labels[b]) == splits


def test_block_layouts_are_read_only_and_cached_per_labelling():
    stein._block_layout.cache_clear()
    assert stein._block_layout.cache_info().maxsize == stein.PAIR_INDEX_CACHE
    # semicircular n=2 and two-point * semicircular share the table pattern
    # and the labelling of every view: one layout per view
    a = stein.GramSystem(SemicircularModel(2), 4)
    b = stein.GramSystem(MODELS["two-point * semicircular"](), 4)
    for d in range(1, 5):
        a.view(d)
        b.view(d)
    assert stein._block_layout.cache_info().misses == 4
    assert stein._block_layout.cache_info().hits == 4
    labels = a._labels(len(a.words)).tobytes()
    runs, pos, src, size = stein._block_layout(*a._key, labels)
    assert size == sum(idx.size * idx.shape[1] for idx, _ in runs)
    for arr in (pos, src, *(idx for idx, _ in runs)):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


@pytest.mark.parametrize("name", FREE_PRODUCTS)
def test_free_product_traces_match_centering_recursion(name):
    model = FREE_PRODUCTS[name]()
    reference = _CenteringReference(FREE_PRODUCTS[name]())
    rng = random.Random(11)
    for _ in range(200):
        w = random_word(model.system, rng, 10)
        assert abs(model.trace_word(w) - reference.trace(w[1::2])) <= 1e-14


@pytest.mark.parametrize("name", FREE_PRODUCTS)
def test_free_product_tables_match_centering_recursion(name):
    model = FREE_PRODUCTS[name]()
    reference = _CenteringReference(FREE_PRODUCTS[name]())
    xs = stein.monomial_words(model.system, 0, 3)
    table = model.moment_table(xs)
    assert np.max(np.abs(table - reference.table(xs, xs))) <= 1e-14
    assert np.array_equal(table, table.conj().T)
    # ys deeper than every x, in no particular order
    rng = random.Random(5)
    ys = [random_word(model.system, rng, 7) for _ in range(30)]
    for args in ((xs, ys), (ys, xs)):
        assert np.max(np.abs(model.moment_table(*args)
                             - reference.table(*args))) <= 1e-14


def test_free_product_leg_table_equals_centering_recursion():
    model = _two_point_semicircular()
    legs = stein.monomial_words(model.system, 0, 5)
    expected = _CenteringReference(_two_point_semicircular()).table(legs, legs)
    assert np.array_equal(model.moment_table(legs), expected)


# The arrays form the dict builder's terms, but sum three or more terms of
# one coefficient by key number rather than in dict order, multiply complex
# numbers with numpy's fused products, and form the final products in BLAS
# order: values agree to a few units in the last place of the largest.
ORDER_TOL = 16 * np.finfo(float).eps


@pytest.mark.parametrize("name", FREE_PRODUCTS)
def test_free_product_tables_match_dict_builder(name):
    model = FREE_PRODUCTS[name]()
    oracle = DictFreeProduct(FREE_PRODUCTS[name]())
    legs = stein.monomial_words(model.system, 0, 4)
    rng = random.Random(23)
    ys = [random_word(model.system, rng, 7) for _ in range(30)]
    for args in ((legs,), (legs, ys), (ys, legs)):
        G, R = model.moment_table(*args), oracle.moment_table(*args)
        assert G.dtype == R.dtype and G.shape == R.shape
        assert np.max(np.abs(G - R)) <= ORDER_TOL * np.max(np.abs(R))
    for w in legs + ys:
        want = oracle.trace_word(w)
        assert abs(model.trace_word(w) - want) <= ORDER_TOL * max(1, abs(want))


def _block_keys(basis):
    """The dict builder's key of every key of a ``_ReducedBasis``: the tuple
    of its ``(factor, local letters)`` blocks, read through the heads."""
    keys = [()]
    for head, last in zip(basis.head[1:], basis.last[1:]):
        keys.append(keys[head] + ((basis.block_factor[last],
                                   basis.block_letters[last]),))
    return keys


@st.composite
def free_product_words(draw):
    """A FREE_PRODUCTS entry and letter tuples of up to five of its letters,
    in drawn order with repeats."""
    name = draw(st.sampled_from(sorted(FREE_PRODUCTS)))
    n = FREE_PRODUCTS[name]().n
    words = draw(st.lists(st.lists(st.integers(0, n - 1),
                                   max_size=5).map(tuple), max_size=10))
    if words:
        words += draw(st.lists(st.sampled_from(words), max_size=3))
    return name, words


@settings(max_examples=80)
@given(free_product_words())
@example(("plateau * cyclic(4)", []))
@example(("semicircular(2) * two-point(0.3)", [(), (2, 2), (0, 2, 2, 1)]))
def test_reduced_vectors_equal_dict_builder(case):
    name, words = case
    V, basis = FREE_PRODUCTS[name]()._reduced_vectors(words)
    oracle = DictFreeProduct(FREE_PRODUCTS[name]())
    keys = _block_keys(basis)
    assert V.shape == (len(words), len(basis)) and len(set(keys)) == len(keys)
    for row, u in zip(V, words):
        got = {keys[k]: row[k] for k in np.flatnonzero(row)}
        want = oracle.vector(u)
        scale = max(abs(c) for c in want.values())
        assert all(abs(got.get(b, 0) - want.get(b, 0)) <= ORDER_TOL * scale
                   for b in got.keys() | want.keys())


def test_free_product_leg_table_traces_no_product_words(monkeypatch):
    calls = []
    impl = FreeProductModel._trace_word_impl

    def counted(self, word):
        calls.append(word)
        return impl(self, word)

    monkeypatch.setattr(FreeProductModel, "_trace_word_impl", counted)
    model = _two_point_semicircular()
    table = model.moment_table(stein.monomial_words(model.system, 0, 5))
    assert table.shape == (63, 63) and not calls


def test_free_product_table_keeps_the_cap():
    model = FreeProductModel([two_point_measure(), SemicircularModel(1)], cap=6)
    xs = stein.monomial_words(model.system, 0, 3)
    for table in (model.moment_table, partial(_per_word_table, model)):
        with pytest.raises(DegreeCapError, match="product degree 7 exceeds cap 6"):
            table(xs, [word_of((0, 1, 1, 0))])
