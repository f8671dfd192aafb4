import importlib
import pkgutil
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import free_stein
from free_stein.errors import DegreeCapError, ModelError, StructureError
from free_stein.fdalg import MatrixCoordinates
from free_stein.ncalg import (BAlgebra, GeneratorSystem, KernelMatrix, NCPoly,
                              TensorPoly, _collect, _require_same,
                              diff_quotient, generator_tuple)
from free_stein.scalars import QQi
from free_stein import stein
from free_stein.stein import RCOND, monomial_words
from free_stein.trace import (FreeProductModel, MatrixModel, MeasureModel,
                              SemicircleDensity, SemicircularModel, TraceModel,
                              diagonal_matrix_model, real_if_exact,
                              two_point_matrix_model, two_point_measure)

# Every property test draws the same cases in every run and selection.
# Hypothesis adds the constants of the loaded local modules to its draws,
# harvesting them at the first draw and again whenever sys.modules grows, so
# pytest_configure loads every package and test module before any draw.
settings.register_profile("free-stein", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("free-stein")


def pytest_configure(config):
    for module in pkgutil.iter_modules(free_stein.__path__):
        importlib.import_module(f"free_stein.{module.name}")
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        try:
            importlib.import_module(path.stem)
        except Exception:
            pass  # collecting the module reports the error


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


def random_element(system, rng, max_degree=2, terms=3):
    """Sum of ``terms`` random words of degree up to ``max_degree``, with
    random B slots, times small integer complex coefficients."""
    acc = NCPoly.zero(system)
    for _ in range(terms):
        word = [rng.randrange(system.b.dim)]
        for _ in range(rng.randint(0, max_degree)):
            word.extend((rng.randrange(system.n), rng.randrange(system.b.dim)))
        acc = acc + NCPoly.from_word(system, word, QQi(rng.randint(-3, 3),
                                                       rng.randint(-1, 1)))
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


def dense_gram(gs):
    """Oracle only: the dense Gram matrix ``W`` of the Gram system ``gs``,
    as it was built before ``W`` was kept as its structural entries: each
    entry at its ``(a, b)``, its conjugate at ``(b, a)``, and zeros
    elsewhere."""
    _, _, _, row, col, eid = stein._pair_index(*gs._key)
    v = gs._entries
    W = np.zeros((len(gs.words),) * 2, dtype=v.dtype)
    W[row, col] = np.where(row <= col, v[eid], v[eid].conj())
    return W


def view_labels(gs, k):
    """The component labels of the Gram view ``W[:k, :k]`` of ``gs`` as its
    cached block layout holds them, each row labelled with the smallest row
    of its block, as ``stein._components`` labels them."""
    label = np.empty(k, dtype=np.intp)
    for idx, _ in stein._block_layout(*gs._key, k)[0]:
        label[idx] = idx[:, :1]
    return label


def dense_eigh_kept(A, label=None):
    """Oracle only: the kept eigenpairs ``(vals, vecs)`` of the Hermitian
    ``A`` as the dense block decomposition gave them before the Gram views
    decomposed from entries: the components ``label`` (by default those of
    ``A``'s nonzero pattern) gathered out of ``A`` and decomposed one
    batched ``eigh`` per size, the eigenvectors scattered into an ``m x m``
    array, one global cut at ``RCOND`` times the largest eigenvalue."""
    m = len(A)
    if label is None:
        label = stein._components(A)
    size = np.bincount(label, minlength=m)[label]
    order = np.lexsort((label, size))
    runs = np.flatnonzero(np.diff(size[order])) + 1
    vals, blocks = np.empty(m), []
    for idx in np.split(order, runs):
        idx = idx.reshape(-1, size[idx[0]])
        w, v = np.linalg.eigh(A[idx[:, :, None], idx[:, None, :]])
        vals[idx] = w
        blocks.append((idx, v))
    order = np.argsort(vals, kind="stable")
    rank = np.empty(m, dtype=int)
    rank[order] = np.arange(m)
    vecs = np.zeros((m, m), dtype=A.dtype)
    for idx, v in blocks:
        vecs[idx[:, :, None], rank[idx][:, None, :]] = v
    vals = vals[order]
    drop = m - int(np.count_nonzero(vals > RCOND * max(float(vals[-1]),
                                                        1e-300)))
    return vals[drop:], vecs[:, drop:]


def scattered_eigenpairs(parts, m):
    """Oracle only: the ``stein._eigh_blocks`` ``parts`` of an ``m x m``
    matrix in :func:`dense_eigh_kept`'s layout: eigenpair ``j`` of block
    ``c`` at the slot ``rows[c, j]`` of its untrimmed stack, the kept pairs
    sorted stably by value, so by value and then slot, and each eigenvector
    scattered into the column of its sorted place in an ``m x kept``
    array."""
    slots = np.concatenate([idx[:, idx.shape[1] - w.shape[1]:][keep]
                            for idx, w, _, keep in parts])
    vals = np.concatenate([w[keep] for _, w, _, keep in parts])
    order = np.lexsort((slots, vals))
    place = np.empty_like(order)
    place[order] = np.arange(len(order))
    vecs = np.zeros((m, len(order)), dtype=parts[0][2].dtype)
    at = 0
    for idx, _, v, keep in parts:
        c, j = np.nonzero(keep)
        vecs[idx[c].T, place[at:at + len(c)]] = v[c, :, j].T
        at += len(c)
    return vals[order], vecs


class PushForwardModel(TraceModel):
    """Test only: self-adjoint polynomials ``polys`` of a base model's
    generators as the generators of a new model, with ``tau(w) =
    tau_base(w(p))``.  Both generate the same *-algebra when the base generators are polynomials
    in ``polys``.  A table over pushed words is the base table over the base
    words they expand to: with ``C`` the expansion coefficients (pushed words
    x base words), the vectors are ``(C_x V_x, C_y V_y)``."""

    def __init__(self, base, polys, cap=12):
        super().__init__(GeneratorSystem(len(polys), cap=cap))
        self.base, self.polys = base, tuple(polys)

    def _expand(self, word) -> NCPoly:
        p = NCPoly.one(self.base.system)
        for letter in word[1::2]:
            p = p * self.polys[letter]
        return p

    def _trace_word_impl(self, word) -> complex:
        return self.base.trace_poly(self._expand(word))

    def _coefficients(self, words) -> tuple:
        """``(C, base words, their largest degree)``."""
        polys = [self._expand(w) for w in words]
        basis = sorted({u for p in polys for u in p.terms},
                       key=lambda u: (len(u), u))
        col = {u: k for k, u in enumerate(basis)}
        C = np.zeros((len(words), len(basis)), dtype=complex)
        for row, p in zip(C, polys):
            for u, c in p.terms.items():
                row[col[u]] = complex(c)
        return (real_if_exact(C), basis,
                max((len(u) // 2 for u in basis), default=0))

    def _table_vectors(self, xs, ys, dx, dy) -> tuple:
        Cx, bx, ex = self._coefficients(xs)
        Cy, by, ey = (Cx, bx, ex) if ys is None else self._coefficients(ys)
        Vx, Vy = self.base._table_vectors(bx, None if ys is None else by,
                                          ex, ey)
        return Cx @ Vx, Cy @ Vy


def _unitary_pair():
    """Two unitaries with non-real traces, so a missing conjugation shows."""
    u = (1j, np.exp(0.3j))
    return MatrixModel([(1, 1 / 3), (1, 2 / 3)],
                       [[[[z]] for z in u], [[[np.conj(z)]] for z in u]],
                       star_pairing=(1, 0))


def m2_over_m2():
    """M_2 generated by the Pauli pair over B = M_2 with the matrix-unit
    basis e11, e12, e21, e22."""
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
    return MatrixModel([(2, 1.0)], [[[[1.0, 0], [0, -1.0]]],
                                    [[[0, 1.0], [1.0, 0]]]],
                       b_algebra=b, b_basis=[[m] for m in basis_mats])


class SymbolicPairing:
    """Oracle only: the inner products of a trace model from the traces of
    symbolic product words, with ``tau(c* a)`` and ``tau(b d*)`` memoized
    per word pair; no moment table is read."""

    def __init__(self, model: TraceModel):
        self.system = model.system
        self.trace_word = model.trace_word
        self._pair_cache: dict = {}

    def _tr_star_left(self, c_word, a_word) -> complex:
        """tau(c* a) for canonical words."""
        key = (0, c_word, a_word)
        hit = self._pair_cache.get(key)
        if hit is None:
            hit = complex(0)
            for cw, cc in self.system.adjoint_word(c_word):
                for w, mc in self.system.mul_words(cw, a_word):
                    hit += complex(cc * mc) * self.trace_word(w)
            self._pair_cache[key] = hit
        return hit

    def _tr_star_right(self, b_word, d_word) -> complex:
        """tau(b d*) for canonical words."""
        key = (1, b_word, d_word)
        hit = self._pair_cache.get(key)
        if hit is None:
            hit = complex(0)
            for dw, dc in self.system.adjoint_word(d_word):
                for w, mc in self.system.mul_words(b_word, dw):
                    hit += complex(dc * mc) * self.trace_word(w)
            self._pair_cache[key] = hit
        return hit

    def inner_l2(self, p: NCPoly, q: NCPoly) -> complex:
        """GNS inner product tau(q* p), linear in ``p``."""
        acc = complex(0)
        for wq, cq in q.terms.items():
            cqc = complex(cq.conjugate())
            for wp, cp in p.terms.items():
                acc += complex(cp) * cqc * self._tr_star_left(wq, wp)
        return acc

    def inner_tensor(self, u, v) -> complex:
        """Tensor-trace inner product, sesquilinear extension of
        ``<a(x)b, c(x)d> = tau(c* a) tau(b d*)``."""
        acc = complex(0)
        for (c, d), cv in v.terms.items():
            cvc = complex(cv.conjugate())
            for (a, b), cu in u.terms.items():
                left = self._tr_star_left(c, a)
                if left == 0:
                    continue
                acc += complex(cu) * cvc * left * self._tr_star_right(b, d)
        return acc


def inner_l2_tuple(pairing, ps, qs) -> complex:
    """Sum of ``pairing.inner_l2`` over the entries of two tuples."""
    ps, qs = tuple(ps), tuple(qs)
    if len(ps) != len(qs):
        raise StructureError("tuple length mismatch")
    return sum((pairing.inner_l2(p, q) for p, q in zip(ps, qs)), complex(0))


def inner_hs(pairing, A, B) -> complex:
    """Hilbert-Schmidt inner product of two kernel matrices: the entrywise
    sum of ``pairing.inner_tensor``."""
    if A.size != B.size:
        raise StructureError("kernel matrix size mismatch")
    acc = complex(0)
    for i in range(A.size):
        for j in range(A.size):
            acc += pairing.inner_tensor(A.entries[i][j], B.entries[i][j])
    return acc


# -- free-product oracle ---------------------------------------------------------


class DictFreeProduct:
    """Oracle only: the traces and moment tables of a ``FreeProductModel``
    from dict-keyed reduced-word vectors, built key by key.

    A basis key is the tuple of its blocks, each ``(factor, local
    letters)``.  ``w Omega`` is built from the vector of ``w`` without its
    last letter ``x`` by the right action of ``x``: ``e_b`` goes to ``e_(b
    x) + tau(x) e_b`` when its last block is not in the factor ``i`` of
    ``x``, and for ``b = b' v`` with ``v`` in factor ``i`` to ``e_(b x) -
    tau(v) e_(b' x) + (tau(v x) - tau(v) tau(x)) e_(b')``.  Tables pair the
    vectors through ``K``, filled block by block with one ``np.ix_`` gather
    of the factors' centered tables per factor sequence."""

    def __init__(self, model):
        self.model = model
        self.system = model.system
        self.factors = [DictFreeProduct(f) if isinstance(f, FreeProductModel)
                        else f for f in model.factors]
        self._vectors = {(): {(): complex(1)}}

    def vector(self, letters) -> dict:
        hit = self._vectors.get(letters)
        if hit is not None:
            return hit
        prev = self.vector(letters[:-1])
        fi, l = self.model._map[letters[-1]]
        factor = self.factors[fi]
        t_x = factor.trace_word((0, l, 0))
        out: dict = {}
        for b, c in prev.items():
            if b and b[-1][0] == fi:
                head, v = b[:-1], b[-1][1]
                t_v = factor.trace_word(word_of(v))
                t_vx = factor.trace_word(word_of(v + (l,)))
                terms = ((head + ((fi, v + (l,)),), c),
                         (head + ((fi, (l,)),), -c * t_v),
                         (head, c * (t_vx - t_v * t_x)))
            else:
                terms = ((b + ((fi, (l,)),), c), (b, c * t_x))
            for key, val in terms:
                if val:
                    out[key] = out.get(key, 0) + val
        self._vectors[letters] = out
        return out

    def trace_word(self, word) -> complex:
        return self.vector(tuple(word[1::2])).get((), complex(0))

    def moment_table(self, xs, ys=None) -> np.ndarray:
        """The table ``tau(xs[a]* ys[b])`` as ``conj(V_x) (K V_y)``, mirrored
        and real on the diagonal when square, as ``TraceModel.moment_table``
        finishes it."""
        square = ys is None
        rows, Vx = _dict_coefficients([self.vector(x[1::2]) for x in xs])
        if square:
            cols, Vy = rows, Vx
        else:
            cols, Vy = _dict_coefficients([self.vector(y[1::2]) for y in ys])
        centered = self._centered_tables(rows, None if square else cols)
        K = np.zeros((Vx.shape[1], Vy.shape[1]), dtype=np.result_type(
            1.0, *(Kc for Kc, _, _ in centered.values())))
        for seq, (rkeys, rsl) in rows.items():
            if seq not in cols:
                continue
            ckeys, csl = cols[seq]
            block = K[rsl, csl]
            block[...] = 1
            for j, fi in enumerate(seq):
                Kc, rindex, cindex = centered[fi]
                block *= Kc[np.ix_([rindex[b[j][1]] for b in rkeys],
                                   [cindex[b[j][1]] for b in ckeys])]
        G = Vx.conj() @ (K @ Vy.T)
        if square:
            np.copyto(G, G.T.conj(), where=np.tri(len(xs), k=-1, dtype=bool))
            np.fill_diagonal(G, G.diagonal().real)
        return real_if_exact(G)

    def _centered_tables(self, rows, cols) -> dict:
        """Per factor: ``(Kc, row index, column index)`` over the blocks of
        the factor sequences met on both sides."""
        shared = rows.keys() if cols is None else rows.keys() & cols.keys()

        def blocks(groups):
            out = {}
            for seq, (keys, _) in groups.items():
                if seq in shared:
                    for b in keys:
                        for fi, u in b:
                            index = out.setdefault(fi, {})
                            index.setdefault(u, len(index) + 1)
            return out

        def words(index):
            return [(0,)] + [word_of(u) for u in index]

        rblocks = blocks(rows)
        cblocks = rblocks if cols is None else blocks(cols)
        tables = {}
        for fi, rindex in rblocks.items():
            cindex = cblocks[fi]
            M = self.factors[fi].moment_table(
                words(rindex), None if cols is None else words(cindex))
            tables[fi] = (M - np.outer(M[:, 0], M[0]), rindex, cindex)
        return tables


def _dict_coefficients(vectors) -> tuple:
    """The keys of dict vectors grouped by factor sequence, ``{sequence:
    (keys, column slice)}``, and their coefficient matrix."""
    groups: dict = {}
    for b in dict.fromkeys(b for v in vectors for b in v):
        groups.setdefault(tuple(fi for fi, _ in b), []).append(b)
    index, out, off = {}, {}, 0
    for seq, keys in groups.items():
        index.update(zip(keys, range(off, off + len(keys))))
        out[seq] = (keys, slice(off, off + len(keys)))
        off += len(keys)
    V = np.zeros((len(vectors), off), dtype=complex)
    for a, v in enumerate(vectors):
        V[a, [index[b] for b in v]] = list(v.values())
    return out, real_if_exact(V)


# -- adjoint-domain oracles ------------------------------------------------------


def jacobian(polys) -> KernelMatrix:
    """Oracle only: the noncommutative Jacobian, entry (i, j) the free
    difference quotient d_j of the i-th entry."""
    polys = tuple(polys)
    if not polys:
        raise StructureError("empty tuple has no Jacobian")
    sysm = polys[0].system
    if len(polys) != sysm.n:
        raise StructureError(
            f"tuple length {len(polys)} must equal the generator count {sysm.n}")
    for p in polys:
        _require_same(sysm, p.system)
    return KernelMatrix(sysm, [[diff_quotient(j, p) for j in range(sysm.n)]
                               for p in polys])


def transform_kernel(a, f) -> tuple:
    """Oracle only: a row of tensors pushed through a polynomial change of
    variables, the row ``a # J(f)^*`` with entries ``sum_i a_i # (d_i
    f_k)^*``; the identity tuple ``f`` returns the row unchanged."""
    a = tuple(a)
    f = tuple(f)
    if not a:
        raise StructureError("empty tensor row")
    sysm = a[0].system
    if len(a) != sysm.n:
        raise StructureError("tensor row length must equal the generator count")
    out = []
    for fk in f:
        _require_same(sysm, fk.system)
        out.append(sum((ai.sharp(diff_quotient(i, fk).adjoint())
                        for i, ai in enumerate(a)), TensorPoly.zero(sysm)))
    return tuple(out)


def _partial_trace(model, t: TensorPoly, keep: int) -> NCPoly:
    """Trace out one leg: ``keep=0`` gives (1 (x) tau)(a (x) b) = tau(b) a,
    ``keep=1`` gives (tau (x) 1)(a (x) b) = tau(a) b."""
    return NCPoly(t.system, _collect(
        (legs[keep], c * QQi.of(tr)) for legs, c in t.terms.items()
        if (tr := model.trace_word(legs[1 - keep])) != 0))


def adjoint_action(model, eta, p: NCPoly, q: NCPoly,
                   eta_adj: NCPoly) -> NCPoly:
    """Oracle only: the divergence of the two-sided translate ``(p (x) q) #
    eta``, the bimodule property of the adjoint domain.

    Given a row ``eta`` in the domain of the gradient adjoint with divergence
    ``eta_adj``, the translate stays in the domain and its divergence is

        (p (x) q) # eta_adj
            - sum_j (1 (x) tau)( p . [eta_j # (d_j q*)*] )
            - sum_j (tau (x) 1)( [eta_j # (d_j p*)*] . q ),

    where the dots are the one-sided bimodule actions.
    """
    eta = tuple(eta)
    system = model.system
    if len(eta) != system.n:
        raise StructureError("eta must have one entry per generator")
    one = NCPoly.one(system)
    out = TensorPoly.from_pair(p, q).sharp(eta_adj)
    p_left = TensorPoly.from_pair(p, one)
    q_right = TensorPoly.from_pair(one, q)
    qstar, pstar = q.adjoint(), p.adjoint()
    for j in range(system.n):
        dq = diff_quotient(j, qstar).adjoint()
        dp = diff_quotient(j, pstar).adjoint()
        out = out - _partial_trace(model, p_left.sharp(eta[j].sharp(dq)), 0)
        out = out - _partial_trace(model, q_right.sharp(eta[j].sharp(dp)), 1)
    return out


def eval_word(model: MatrixModel, word) -> np.ndarray:
    """Oracle only: the matrix of one canonical word, its B and generator
    matrices multiplied in word order, one product at a time."""
    m = model.b_mats[word[0]].copy()
    for j in range(1, len(word), 2):
        m = m @ model.gen_mats[word[j]]
        m = m @ model.b_mats[word[j + 1]]
    return m


def _coords(model: MatrixModel) -> MatrixCoordinates:
    """The model's matrix coordinates, built on first use."""
    if "_fd_coords" not in model.__dict__:
        model._fd_coords = MatrixCoordinates(model)
    return model._fd_coords


def coords_matrix(coords: MatrixCoordinates, c: np.ndarray) -> np.ndarray:
    """Oracle only: the matrix ``sum_a c_a f_a`` of coordinates ``c`` (...,
    D) in the basis ``f_a`` of ``MatrixModel.coords``, the matrix units of
    each block scaled by ``sqrt(k_i / lambda_i)``, ordered by block, row and
    column."""
    c = np.asarray(c)
    scale = np.concatenate([np.full(k * k, s) for _, k, s in coords.blocks])
    dim = sum(k for _, k, _ in coords.blocks)
    out = np.zeros((*c.shape[:-1], dim, dim), dtype=np.result_type(c, float))
    out[..., coords._p, coords._q] = c * scale
    return out


def _word_table(model: MatrixModel, d: int) -> tuple:
    """Oracle only: ``(words, E, S)`` over the monomial words of degree up to
    ``d``, the table that ``sigma_exact_fd`` reduces degree by degree.

    ``words`` is in ``monomial_words`` order, ``E`` (D x words) holds their
    coordinates and ``S`` (words x n*D*D) their split coordinates:
    ``S[w, letter]`` sums ``ev(left) (x) ev(right)`` over the splits ``w =
    left letter right``.  The words are evaluated level by level: the
    degree-e words are the degree-(e-1) words times a letter times a B slot,
    which is both the order of ``monomial_words`` and the product order of
    :func:`eval_word`.

    ``S`` is summed without a scatter, by degree blocks: the degree-e words
    with letter ``i`` after a prefix of degree ``j`` are the slice ``[:, i,
    :]`` of the ``(|L_j|, n, |L_(e-1-j)|)`` reshape of the degree-e range
    (``L_j`` the degree-j words), so the splits after prefix degree ``j`` add
    ``ev[L_j] (x) ev[L_(e-1-j)]`` on the letter diagonal ``[:, i, :, i]`` of
    the degree-e rows of ``S`` viewed as ``(|L_j|, n, |L_(e-1-j)|, n, D,
    D)``, in ascending ``j``.

    The table is computed in the dtype of the model's data: ``E`` and ``S``
    are real exactly when every generator and B matrix is real.
    """
    system = model.system
    if d > system.cap:
        raise DegreeCapError(
            f"d={d} needs words of degree {d}, beyond the cap {system.cap}")
    coords = _coords(model)
    n, D, dim = model.n, coords.D, model.dim
    gens = real_if_exact(np.stack(model.gen_mats))
    bs = real_if_exact(np.stack(model.b_mats))
    level = bs
    ev = [coords.coords(level)]
    for _ in range(d):
        level = ((level[:, None] @ gens[None])[:, :, None] @ bs[None, None])
        level = level.reshape(-1, dim, dim)
        ev.append(coords.coords(level))
    sizes = [len(e) for e in ev]
    offsets = np.cumsum([0] + sizes)
    S = np.zeros((offsets[-1], n, D, D), dtype=np.result_type(*ev))
    for e in range(1, d + 1):
        rows = S[offsets[e]:offsets[e + 1]]
        for j in range(e):
            o = rows.reshape(sizes[j], n, sizes[e - 1 - j], n, D, D)
            term = ev[j][:, None, :, None] * ev[e - 1 - j][None, :, None, :]
            for i in range(n):
                diag = o[:, i, :, i]
                diag += term
    words = monomial_words(system, 0, d)
    return words, np.concatenate(ev).T, S.reshape(len(S), n * D * D)


def matrix_to_poly(model: MatrixModel, mat: np.ndarray, d: int = 4) -> NCPoly:
    """Oracle only: a matrix as a polynomial in the model generators (least
    squares over monomials of degree <= d; exact when the words span the
    algebra).

    Both floors scale with the input, so a matrix scaled by ``s`` gives the
    same terms with coefficients scaled by ``s``: the residual may be up to
    1e-8 of ``||mat||``, and coefficients up to ``RCOND`` times the largest
    in modulus are dropped as rounding of the solve."""
    words, E, _ = _word_table(model, d)
    target = _coords(model).coords(mat)
    sol, *_ = np.linalg.lstsq(E, target, rcond=RCOND)
    if np.linalg.norm(E @ sol - target) > 1e-8 * np.linalg.norm(target):
        raise ModelError("matrix is not a polynomial of the given degree")
    cut = RCOND * float(np.abs(sol).max(initial=0.0))
    return NCPoly(model.system, {w: QQi.of(complex(c))
                                 for w, c in zip(words, sol) if abs(c) > cut})


def solve_adjoint_fd(model: MatrixModel, eta, d: int = 4) -> tuple:
    """Oracle only: the defining adjoint relation of a matrix model solved
    directly, ``(eta_adj, residual)`` with ``eta_adj`` the least-squares
    divergence of the row ``eta`` over test monomials of degree <= d; the
    residual certifies membership in the adjoint domain."""
    if not isinstance(model, MatrixModel):
        raise ModelError("the direct adjoint solve needs a matrix model")
    eta = tuple(eta)
    coords = _coords(model)
    _, E, S = _word_table(model, d)
    eta_coords = np.zeros((model.n, coords.D, coords.D), dtype=complex)
    for t, acc in zip(eta, eta_coords):
        for (a, b), c in t.terms.items():
            acc += complex(c) * np.outer(coords.coords(eval_word(model, a)),
                                         coords.coords(eval_word(model, b)))
    M = E.T.conj()
    # <eta_letter, split> with the Frobenius pairing, summed over the splits
    rhs = S.conj() @ eta_coords.reshape(-1)
    sol, *_ = np.linalg.lstsq(M, rhs, rcond=RCOND)
    residual = float(np.linalg.norm(M @ sol - rhs))
    return matrix_to_poly(model, coords_matrix(coords, sol), d), residual
