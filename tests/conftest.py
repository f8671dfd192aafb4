import random

import numpy as np
import pytest

from free_stein.errors import StructureError
from free_stein.ncalg import (BAlgebra, GeneratorSystem, NCPoly,
                              generator_tuple)
from free_stein.scalars import QQi
from free_stein.trace import (FreeProductModel, MatrixModel, MeasureModel,
                              SemicircleDensity, SemicircularModel, TraceModel,
                              diagonal_matrix_model, real_if_exact,
                              two_point_matrix_model, two_point_measure)


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


class PushForwardModel(TraceModel):
    """Test only: self-adjoint polynomials ``polys`` of a base model's
    generators as the generators of a new model, with ``tau(w) =
    tau_base(w(p))``.  Both generate the same *-algebra when the base generators are polynomials
    in ``polys``.  A table over pushed words is the base table over the base
    words they expand to: with ``C`` the expansion coefficients (pushed words
    x base words), the vectors are ``(C_x V_x, K, C_y V_y)``."""

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
        Vx, K, Vy = self.base._table_vectors(bx, None if ys is None else by,
                                             ex, ey)
        return Cx @ Vx, K, Cy @ Vy


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
