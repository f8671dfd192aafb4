"""Noncommutative polynomial calculus over indeterminates and a coefficient algebra.

Elements of ``B<T>`` (the unital algebra generated by indeterminates
``t_1..t_n`` and a finite-dimensional *-algebra ``B``) are stored as exact
linear combinations of canonical words.  A word alternates B-basis slots and
indeterminate letters,

    b_0 t_{i_1} b_1 t_{i_2} ... t_{i_d} b_d,

flattened to an odd-length tuple ``(b_0, i_1, b_1, ..., i_d, b_d)`` of basis
and letter indices.  Adjacent B-coefficients are multiplied out eagerly via
the structure constants, so equality of polynomials is equality of dicts.

Tensors ``p (x) q`` live in ``B<T> (x) B<T>^op``; the second leg carries the
opposite multiplication, which surfaces only through the sharp product

    (a (x) b) # (c (x) d) = (ac) (x) (db),      (a (x) b) # c = a c b.

The free difference quotient ``d_i`` sends ``t_i`` to ``1 (x) 1``, kills B and
the other letters, and satisfies the Leibniz rule
``d_i(pq) = (p (x) 1)#d_i(q) + (1 (x) q)#d_i(p)``.
"""

from __future__ import annotations

import itertools
import os
from typing import Sequence

from .errors import DegreeCapError, StructureError
from .scalars import ONE, QQi

DEFAULT_DEGREE_CAP = 12


def _env_cap() -> int:
    raw = os.environ.get("FREE_STEIN_CAP")
    if raw is None:
        return DEFAULT_DEGREE_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"FREE_STEIN_CAP must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError("FREE_STEIN_CAP must be positive")
    return cap


class BAlgebra:
    """Finite-dimensional unital *-algebra given by structure constants.

    ``mul[i, j]`` lists the expansion of ``E_i E_j`` in the basis, ``star[i]``
    the expansion of ``E_i^*`` and ``unit`` the expansion of ``1``.  The
    constructor checks associativity, the unit laws and that the involution is
    a conjugate-linear anti-automorphism squaring to the identity.
    """

    __slots__ = ("dim", "mul", "star", "unit", "_is_scalar")

    def __init__(self, dim, mul, star=None, unit=None):
        self.dim = int(dim)
        if self.dim < 1:
            raise StructureError("B must contain the unit, dim >= 1")
        norm = {}
        for (i, j), terms in mul.items():
            tt = tuple((int(k), QQi.of(c)) for k, c in terms if not QQi.of(c).is_zero)
            norm[(int(i), int(j))] = tt
        self.mul = norm
        if star is None:
            star = [((i, ONE),) for i in range(self.dim)]
        self.star = tuple(tuple((int(j), QQi.of(c)) for j, c in row) for row in star)
        if unit is None:
            unit = ((0, ONE),)
        self.unit = tuple((int(k), QQi.of(c)) for k, c in unit)
        self._is_scalar = self.dim == 1
        self._validate()

    @staticmethod
    def scalar() -> "BAlgebra":
        """The trivial coefficient algebra B = C."""
        return BAlgebra(1, {(0, 0): ((0, ONE),)})

    def _combo_mul(self, a, b):
        acc = {}
        for i, ci in a:
            for j, cj in b:
                for k, ck in self.mul.get((i, j), ()):
                    acc[k] = acc.get(k, QQi(0)) + ci * cj * ck
        return tuple((k, c) for k, c in sorted(acc.items()) if not c.is_zero)

    def _combo_star(self, a):
        acc = {}
        for i, ci in a:
            for j, cj in self.star[i]:
                acc[j] = acc.get(j, QQi(0)) + ci.conjugate() * cj
        return tuple((k, c) for k, c in sorted(acc.items()) if not c.is_zero)

    def _validate(self):
        basis = [((i, ONE),) for i in range(self.dim)]
        for i in range(self.dim):
            if self._combo_mul(self.unit, basis[i]) != basis[i]:
                raise StructureError("unit is not a left unit of B")
            if self._combo_mul(basis[i], self.unit) != basis[i]:
                raise StructureError("unit is not a right unit of B")
        for i in range(self.dim):
            for j in range(self.dim):
                ij = self.mul.get((i, j), ())
                for k in range(self.dim):
                    left = self._combo_mul(ij, basis[k])
                    right = self._combo_mul(basis[i], self.mul.get((j, k), ()))
                    if left != right:
                        raise StructureError("B structure constants are not associative")
                # (E_i E_j)^* == E_j^* E_i^*
                if self._combo_star(ij) != self._combo_mul(self.star[j], self.star[i]):
                    raise StructureError("B involution is not an anti-automorphism")
            if self._combo_star(self.star[i]) != basis[i]:
                raise StructureError("B involution does not square to the identity")

    def __eq__(self, other):
        return (isinstance(other, BAlgebra)
                and self.dim == other.dim and self.mul == other.mul
                and self.star == other.star and self.unit == other.unit)

    def __hash__(self):
        return hash((self.dim, self.unit))


class GeneratorSystem:
    """Indeterminates ``t_1..t_n`` with a star pairing and a coefficient algebra.

    ``star_pairing`` is a 0-based involution on letter indices: the adjoint of
    ``t_i`` is ``t_{star_pairing[i]}``.  The degree cap bounds the number of
    indeterminate letters any symbolic operation may produce.
    """

    __slots__ = ("n", "star_pairing", "b", "cap")

    def __init__(self, n, star_pairing=None, b=None, cap=None):
        self.n = int(n)
        if self.n < 1:
            raise StructureError("need at least one indeterminate")
        if star_pairing is None:
            star_pairing = tuple(range(self.n))
        self.star_pairing = tuple(int(i) for i in star_pairing)
        if sorted(self.star_pairing) != list(range(self.n)):
            raise StructureError("star pairing must be a permutation of the letters")
        for i, j in enumerate(self.star_pairing):
            if self.star_pairing[j] != i:
                raise StructureError("star pairing must be an involution")
        self.b = b if b is not None else BAlgebra.scalar()
        self.cap = int(cap) if cap is not None else _env_cap()

    @property
    def scalar_b(self) -> bool:
        return self.b._is_scalar

    def __eq__(self, other):
        return (isinstance(other, GeneratorSystem) and self.n == other.n
                and self.star_pairing == other.star_pairing and self.b == other.b)

    def __hash__(self):
        return hash((self.n, self.star_pairing, self.b.dim))

    # -- word utilities ------------------------------------------------------

    def unit_word_terms(self):
        """The unit of B<T> as canonical degree-0 words."""
        return tuple(((k,), c) for k, c in self.b.unit)

    def check_word(self, word):
        if len(word) % 2 != 1:
            raise StructureError(f"malformed word {word!r}")
        for pos, v in enumerate(word):
            if pos % 2 == 1:
                if not 0 <= v < self.n:
                    raise StructureError(f"letter index {v} out of range in {word!r}")
            elif not 0 <= v < self.b.dim:
                raise StructureError(f"B index {v} out of range in {word!r}")

    def word_degree(self, word) -> int:
        return len(word) // 2

    def mul_words(self, w, v):
        """Concatenate two canonical words, merging the boundary B slots."""
        if self.word_degree(w) + self.word_degree(v) > self.cap:
            raise DegreeCapError(
                f"product degree {self.word_degree(w) + self.word_degree(v)} "
                f"exceeds cap {self.cap}")
        if self.scalar_b:
            return ((w[:-1] + v, ONE),)
        merged = self.b.mul.get((w[-1], v[0]), ())
        return tuple((w[:-1] + (k,) + v[1:], c) for k, c in merged)

    def adjoint_word(self, word):
        """Star of a word: reverse, star letters via the pairing, star B slots."""
        slots = word[0::2]
        letters = word[1::2]
        new_letters = tuple(self.star_pairing[i] for i in reversed(letters))
        if self.scalar_b:
            w = [0]
            for i in new_letters:
                w.extend((i, 0))
            return ((tuple(w), ONE),)
        slot_exps = [self.b.star[b] for b in reversed(slots)]
        out = []
        for combo in itertools.product(*slot_exps):
            coeff = ONE
            w = [combo[0][0]]
            for idx, i in enumerate(new_letters):
                w.extend((i, combo[idx + 1][0]))
            for _, c in combo:
                coeff = coeff * c
            if not coeff.is_zero:
                out.append((tuple(w), coeff))
        return tuple(out)


def _require_same(sys_a: GeneratorSystem, sys_b: GeneratorSystem):
    if sys_a != sys_b:
        raise StructureError("operands belong to different generator systems")


def _prune(terms: dict):
    dead = [k for k, c in terms.items() if c.is_zero]
    for k in dead:
        del terms[k]
    return terms


class NCPoly:
    """Finite exact linear combination of canonical words in B<T>."""

    __slots__ = ("system", "terms")

    def __init__(self, system: GeneratorSystem, terms: dict):
        self.system = system
        self.terms = terms

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(system) -> "NCPoly":
        return NCPoly(system, {})

    @staticmethod
    def one(system) -> "NCPoly":
        return NCPoly(system, {w: c for w, c in system.unit_word_terms()})

    @staticmethod
    def generator(system, i) -> "NCPoly":
        if not 0 <= i < system.n:
            raise StructureError(f"generator index {i} out of range")
        terms = {}
        for (lw, lc) in system.unit_word_terms():
            for (rw, rc) in system.unit_word_terms():
                w = lw + (i,) + rw
                terms[w] = terms.get(w, QQi(0)) + lc * rc
        return NCPoly(system, _prune(terms))

    @staticmethod
    def b_element(system, k) -> "NCPoly":
        if not 0 <= k < system.b.dim:
            raise StructureError(f"B basis index {k} out of range")
        return NCPoly(system, {(k,): ONE})

    @staticmethod
    def from_word(system, word, coeff=ONE) -> "NCPoly":
        system.check_word(tuple(word))
        c = QQi.of(coeff)
        return NCPoly(system, {} if c.is_zero else {tuple(word): c})

    @staticmethod
    def scalar(system, value) -> "NCPoly":
        return NCPoly.one(system) * QQi.of(value)

    # -- structure -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Largest number of indeterminate letters in a word; 0 for the zero poly."""
        return max((len(w) // 2 for w in self.terms), default=0)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, NCPoly):
            other = NCPoly.scalar(self.system, other)
        _require_same(self.system, other.system)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, QQi(0)) + c
        return NCPoly(self.system, _prune(terms))

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, NCPoly):
            other = NCPoly.scalar(self.system, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return NCPoly(self.system, {w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, NCPoly):
            _require_same(self.system, other.system)
            terms = {}
            for w, cw in self.terms.items():
                for v, cv in other.terms.items():
                    for u, cu in self.system.mul_words(w, v):
                        terms[u] = terms.get(u, QQi(0)) + cw * cv * cu
            return NCPoly(self.system, _prune(terms))
        c = QQi.of(other)
        if c.is_zero:
            return NCPoly.zero(self.system)
        return NCPoly(self.system, {w: cw * c for w, cw in self.terms.items()})

    def __rmul__(self, other):
        # scalars commute; NCPoly * NCPoly never reaches here
        return self.__mul__(other)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative powers are not defined in B<T>")
        out = NCPoly.one(self.system)
        for _ in range(k):
            out = out * self
        return out

    def adjoint(self) -> "NCPoly":
        """Conjugate-linear anti-automorphism: reverse words, star letters and slots."""
        terms = {}
        for w, c in self.terms.items():
            for v, cv in self.system.adjoint_word(w):
                terms[v] = terms.get(v, QQi(0)) + c.conjugate() * cv
        return NCPoly(self.system, _prune(terms))

    def __eq__(self, other):
        return (isinstance(other, NCPoly) and self.system == other.system
                and self.terms == other.terms)

    def __repr__(self):
        if self.is_zero:
            return "NCPoly(0)"
        bits = []
        for w, c in self.sorted_terms()[:6]:
            bits.append(f"{c!r}*{w}")
        more = "..." if len(self.terms) > 6 else ""
        return f"NCPoly({' + '.join(bits)}{more})"


class TensorPoly:
    """Finite linear combination of elementary tensors ``p (x) q^op``.

    Keys are pairs of canonical words; the opposite structure of the second
    leg shows up in :meth:`sharp`, not in storage.
    """

    __slots__ = ("system", "terms")

    def __init__(self, system: GeneratorSystem, terms: dict):
        self.system = system
        self.terms = terms

    @staticmethod
    def zero(system) -> "TensorPoly":
        return TensorPoly(system, {})

    @staticmethod
    def from_pair(p: NCPoly, q: NCPoly) -> "TensorPoly":
        _require_same(p.system, q.system)
        terms = {}
        for w, cw in p.terms.items():
            for v, cv in q.terms.items():
                key = (w, v)
                terms[key] = terms.get(key, QQi(0)) + cw * cv
        return TensorPoly(p.system, _prune(terms))

    @staticmethod
    def unit(system) -> "TensorPoly":
        """The tensor ``1 (x) 1``."""
        return TensorPoly.from_pair(NCPoly.one(system), NCPoly.one(system))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Largest combined letter count over both legs."""
        return max((len(a) // 2 + len(b) // 2 for a, b in self.terms), default=0)

    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda kv: (len(kv[0][0]) + len(kv[0][1]), kv[0]))

    def __add__(self, other):
        if not isinstance(other, TensorPoly):
            return NotImplemented
        _require_same(self.system, other.system)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, QQi(0)) + c
        return TensorPoly(self.system, _prune(terms))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TensorPoly(self.system, {k: -c for k, c in self.terms.items()})

    def __mul__(self, scalar):
        c = QQi.of(scalar)
        if c.is_zero:
            return TensorPoly.zero(self.system)
        return TensorPoly(self.system, {k: ck * c for k, ck in self.terms.items()})

    __rmul__ = __mul__

    def sharp(self, other):
        """Sharp product: against a tensor, ``(a(x)b)#(c(x)d) = ac (x) db``;
        against a polynomial, ``(a(x)b)#c = acb``."""
        sysm = self.system
        if isinstance(other, TensorPoly):
            _require_same(sysm, other.system)
            terms = {}
            for (a, b), c1 in self.terms.items():
                for (cw, dw), c2 in other.terms.items():
                    for left, cl in sysm.mul_words(a, cw):
                        for right, cr in sysm.mul_words(dw, b):
                            key = (left, right)
                            coeff = c1 * c2 * cl * cr
                            terms[key] = terms.get(key, QQi(0)) + coeff
            return TensorPoly(sysm, _prune(terms))
        if isinstance(other, NCPoly):
            _require_same(sysm, other.system)
            terms = {}
            for (a, b), c1 in self.terms.items():
                for cw, c2 in other.terms.items():
                    for mid, cm in sysm.mul_words(a, cw):
                        for full, cf in sysm.mul_words(mid, b):
                            terms[full] = terms.get(full, QQi(0)) + c1 * c2 * cm * cf
            return NCPoly(sysm, _prune(terms))
        raise TypeError("sharp expects a TensorPoly or NCPoly")

    def adjoint(self) -> "TensorPoly":
        """Involution of B<T> (x) B<T>^op: star each leg, conjugate coefficients.

        This is the conjugation that makes ``(u # v)^* = v^* # u^*`` hold.
        """
        terms = {}
        for (a, b), c in self.terms.items():
            for aw, ca in self.system.adjoint_word(a):
                for bw, cb in self.system.adjoint_word(b):
                    key = (aw, bw)
                    terms[key] = terms.get(key, QQi(0)) + c.conjugate() * ca * cb
        return TensorPoly(self.system, _prune(terms))

    def __eq__(self, other):
        return (isinstance(other, TensorPoly) and self.system == other.system
                and self.terms == other.terms)

    def __repr__(self):
        if self.is_zero:
            return "TensorPoly(0)"
        bits = [f"{c!r}*{a}(x){b}" for (a, b), c in self.sorted_terms()[:4]]
        more = "..." if len(self.terms) > 4 else ""
        return f"TensorPoly({' + '.join(bits)}{more})"


class KernelMatrix:
    """Square matrix of tensors; holds Stein kernels and Jacobian images."""

    __slots__ = ("system", "size", "entries")

    def __init__(self, system: GeneratorSystem, entries):
        self.system = system
        rows = tuple(tuple(row) for row in entries)
        self.size = len(rows)
        for row in rows:
            if len(row) != self.size:
                raise StructureError("kernel matrix must be square")
            for e in row:
                if not isinstance(e, TensorPoly):
                    raise StructureError("kernel entries must be TensorPoly")
                _require_same(system, e.system)
        self.entries = rows

    @staticmethod
    def zero(system, size=None) -> "KernelMatrix":
        m = size if size is not None else system.n
        z = TensorPoly.zero(system)
        return KernelMatrix(system, [[z] * m for _ in range(m)])

    @staticmethod
    def identity(system, size=None) -> "KernelMatrix":
        """The identity kernel: ``1 (x) 1`` on the diagonal."""
        m = size if size is not None else system.n
        one = TensorPoly.unit(system)
        z = TensorPoly.zero(system)
        return KernelMatrix(system,
                            [[one if i == j else z for j in range(m)] for i in range(m)])

    def __add__(self, other):
        if not isinstance(other, KernelMatrix) or other.size != self.size:
            raise StructureError("kernel matrix size mismatch")
        return KernelMatrix(self.system,
                            [[self.entries[i][j] + other.entries[i][j]
                              for j in range(self.size)] for i in range(self.size)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return KernelMatrix(self.system,
                            [[-e for e in row] for row in self.entries])

    def __mul__(self, scalar):
        return KernelMatrix(self.system,
                            [[e * scalar for e in row] for row in self.entries])

    __rmul__ = __mul__

    def sharp(self, other):
        """Matrix sharp product, or the action on a tuple of polynomials."""
        if isinstance(other, KernelMatrix):
            if other.size != self.size:
                raise StructureError("kernel matrix size mismatch")
            out = []
            for i in range(self.size):
                row = []
                for j in range(self.size):
                    acc = TensorPoly.zero(self.system)
                    for k in range(self.size):
                        acc = acc + self.entries[i][k].sharp(other.entries[k][j])
                    row.append(acc)
                out.append(row)
            return KernelMatrix(self.system, out)
        other = tuple(other)
        if len(other) != self.size:
            raise StructureError("tuple length must match kernel size")
        out = []
        for i in range(self.size):
            acc = NCPoly.zero(self.system)
            for j in range(self.size):
                acc = acc + self.entries[i][j].sharp(other[j])
            out.append(acc)
        return tuple(out)

    def adjoint(self) -> "KernelMatrix":
        """Conjugate transpose with the tensor involution on entries."""
        return KernelMatrix(self.system,
                            [[self.entries[j][i].adjoint() for j in range(self.size)]
                             for i in range(self.size)])

    def __eq__(self, other):
        return (isinstance(other, KernelMatrix) and self.size == other.size
                and self.entries == other.entries)

    def __repr__(self):
        return f"KernelMatrix(size={self.size})"


# -- free difference quotients and derived maps --------------------------------


def diff_quotient(i: int, p: NCPoly) -> TensorPoly:
    """Free difference quotient d_i: split each word at every occurrence of t_i."""
    sysm = p.system
    if not 0 <= i < sysm.n:
        raise StructureError(f"derivation index {i} out of range")
    terms = {}
    for w, c in p.terms.items():
        d = len(w) // 2
        for j in range(1, d + 1):
            if w[2 * j - 1] == i:
                key = (w[:2 * j - 1], w[2 * j:])
                terms[key] = terms.get(key, QQi(0)) + c
    return TensorPoly(sysm, _prune(terms))


def gradient(p: NCPoly) -> tuple:
    """All free difference quotients of ``p`` as a row tuple."""
    return tuple(diff_quotient(i, p) for i in range(p.system.n))


def jacobian(polys: Sequence[NCPoly]) -> KernelMatrix:
    """Noncommutative Jacobian: entry (i, j) is d_j applied to the i-th entry."""
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


def generator_tuple(system: GeneratorSystem) -> tuple:
    return tuple(NCPoly.generator(system, i) for i in range(system.n))


def commutator_stein_kernel(xi: Sequence[NCPoly], x: Sequence[NCPoly]) -> KernelMatrix:
    """Stein kernel built from half-commutators:

        A[i][j] = 1/2 (xi_i (x) 1 - 1 (x) xi_i) # (x_j (x) 1 - 1 (x) x_j).

    For xi orthogonal to the scalars this is always a Stein kernel of the
    tuple ``x`` relative to ``xi`` over C, and it is linear in ``xi``.

    This assumes ``x`` is self-adjoint.  The kernel meets ``d_j`` through the
    tensor inner product, whose adjoint turns ``x_j`` into ``x_j*``; for a
    star-paired tuple pass ``x_j*`` in slot ``j``, as ``stein`` does.
    """
    xi = tuple(xi)
    x = tuple(x)
    if not xi or len(xi) != len(x):
        raise StructureError("xi and x must be tuples of equal positive length")
    sysm = xi[0].system
    one = NCPoly.one(sysm)
    half = QQi(1) / QQi(2)

    def comm(p):
        return TensorPoly.from_pair(p, one) - TensorPoly.from_pair(one, p)

    left = [comm(f) for f in xi]
    right = [comm(g) for g in x]
    return KernelMatrix(sysm, [[left[i].sharp(right[j]) * half
                                for j in range(len(x))] for i in range(len(xi))])


def transform_kernel(a: Sequence[TensorPoly], f: Sequence[NCPoly]) -> tuple:
    """Push a row of tensors through a polynomial change of variables.

    Returns the row ``a # J(f)^*`` with entries ``sum_i a_i # (d_i f_k)^*``;
    when ``f`` is the identity tuple the row is returned unchanged.
    """
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
        acc = TensorPoly.zero(sysm)
        for i in range(sysm.n):
            acc = acc + a[i].sharp(diff_quotient(i, fk).adjoint())
        out.append(acc)
    return tuple(out)
