"""Tracial-state models and the inner products they induce.

A trace model evaluates the trace of canonical words in concrete generators,
and moment tables ``G[x, y] = tau(x* y)`` over lists of words in one layer,
:meth:`TraceModel.moment_table`: it checks the words and the cap, forms the
one product ``conj(V_x) V_y^T`` of the two vector sets a model supplies, and
makes square tables exactly Hermitian.  Four families are provided, each
with its ``(V_x, V_y)``:

* :class:`MatrixModel` -- direct sums of matrix blocks with a weighted trace;
  both are the block coordinates (:meth:`MatrixModel.coords`) of the
  evaluated words, built on the prefix stack of the Fock vectors below;
* :class:`SemicircularModel` -- free standard semicircular tuples, traced by
  counting index-respecting non-crossing pairings; both are the Fock-space
  vectors ``x Omega``, built for every prefix of the words on one stack, a
  gather, a scatter and a gather-add per prefix length;
* :class:`MeasureModel` -- one self-adjoint variable with an atomic plus
  absolutely-continuous spectral distribution; ``V_x`` is the one-hot degree
  row and ``V_y`` the row of the Hankel matrix of the moments at ``deg y``;
* :class:`FreeProductModel` -- free products of the above, evaluated on
  ``w Omega`` in the reduced free-product space, whose vacuum coefficient is
  the trace, built on the same prefix stack as the Fock vectors, a gather
  and an ordered scatter per prefix length; ``V_x`` holds its coefficients
  and ``V_y`` those of ``K (y Omega)``, where ``K`` pairs basis keys of one
  factor sequence block by block through the factors' centered tables.

The inner products read these tables, ``<p, q> = tau(q* p)`` on polynomials
and ``<a(x)b, c(x)d> = tau(c* a) tau(b d*)`` on tensors, both linear in the
first argument.  Every model here is tracial, ``tau(xy) = tau(yx)``, so the
second factor is the table entry ``tau(d* b)``.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import quadrature
from .errors import DegreeCapError, ModelError, StructureError
from .ncalg import BAlgebra, GeneratorSystem, NCPoly, TensorPoly
from .scalars import QQi


def real_if_exact(a: np.ndarray) -> np.ndarray:
    """``a`` as a real array when no entry has a nonzero imaginary part."""
    if np.iscomplexobj(a) and not a.imag.any():
        return np.ascontiguousarray(a.real)
    return a


def _finite(owner: str, **values) -> None:
    """A ModelError naming the first of the ``values`` of ``owner`` that
    holds a number that is not finite."""
    for name, v in values.items():
        if not np.isfinite(v).all():
            raise ModelError(f"{owner} {name} must be finite")


def _coefficients(poly) -> tuple:
    """The keys of a polynomial's or tensor's terms, and their coefficients
    as a complex vector."""
    return list(poly.terms), np.array(
        [complex(c) for c in poly.terms.values()], dtype=complex)


class TraceModel:
    """Base class: word-trace evaluation plus derived inner products."""

    def __init__(self, system: GeneratorSystem):
        self.system = system
        self._word_cache: dict = {}

    # subclasses implement the raw word trace
    def _trace_word_impl(self, word) -> complex:
        raise NotImplementedError

    @property
    def n(self) -> int:
        return self.system.n

    def trace_word(self, word) -> complex:
        word = tuple(word)
        hit = self._word_cache.get(word)
        if hit is None:
            degree = self.system.word_degree(word)
            if degree > self.system.cap:
                raise DegreeCapError(
                    f"word degree {degree} exceeds cap {self.system.cap}")
            self.system.check_word(word)
            hit = complex(self._trace_word_impl(word))
            self._word_cache[word] = hit
        return hit

    def moment_table(self, xs, ys=None) -> np.ndarray:
        """Moment table ``G[a, b] = tau(xs[a]* ys[b])``, as ``conj(V_x)
        V_y^T`` from the model's :meth:`_table_vectors`; matrix models also
        pair words with B slots.  The words and the cap are checked once for
        the table.  Without ``ys``, the table over ``xs``: its upper triangle
        is mirrored and its diagonal made real, so it is exactly Hermitian.
        The table is real when no entry has an imaginary part."""
        for w in xs if ys is None else (*xs, *ys):
            self.system.check_word(w)
        return self._moment_table(xs, ys)

    def _moment_table(self, xs, ys=None) -> np.ndarray:
        """:meth:`moment_table` over words the program builds, valid by
        construction: only the degree of the largest product is checked
        against the cap."""
        square = ys is None
        dx = max((len(w) // 2 for w in xs), default=0)
        dy = dx if square else max((len(w) // 2 for w in ys), default=0)
        if dx + dy > self.system.cap:
            raise DegreeCapError(
                f"product degree {dx + dy} exceeds cap {self.system.cap}")
        Vx, Vy = self._table_vectors(xs, None if square else ys, dx, dy)
        G = Vx.conj() @ Vy.T
        if square:
            np.copyto(G, G.T.conj(), where=np.tri(len(xs), k=-1, dtype=bool))
            np.fill_diagonal(G, G.diagonal().real)
        return real_if_exact(G)

    def _table_vectors(self, xs, ys, dx, dy) -> tuple:
        """``(V_x, V_y)`` with ``tau(x* y) = conj(V_x[a]) . V_y[b]`` for ``x
        = xs[a]``, ``y = ys[b]``.  ``ys`` is None for the square table over
        ``xs``; ``dx`` and ``dy`` are the largest degrees of the two lists."""
        raise NotImplementedError

    def trace_poly(self, p: NCPoly) -> complex:
        if p.system != self.system:
            raise StructureError("polynomial belongs to a different generator system")
        return sum((complex(c) * self.trace_word(w) for w, c in p.terms.items()),
                   complex(0))

    # -- inner products, read off moment tables ------------------------------

    def inner_l2(self, p: NCPoly, q: NCPoly) -> complex:
        """GNS inner product tau(q* p), linear in ``p``: ``conj(c_q)^T G
        c_p`` over the table ``G`` of q's words against p's."""
        (qs, cq), (ps, cp) = _coefficients(q), _coefficients(p)
        return complex(cq.conj() @ self.moment_table(qs, ps) @ cp)

    def inner_tensor(self, u: TensorPoly, v: TensorPoly) -> complex:
        """Tensor-trace inner product, sesquilinear extension of
        ``<a(x)b, c(x)d> = tau(c* a) tau(b d*)``, from two tables over the
        terms: ``tau(c* a)`` over the first legs and, the trace being
        tracial, ``tau(b d*) = tau(d* b)`` over the second."""
        (vs, cv), (us, cu) = _coefficients(v), _coefficients(u)
        left = self.moment_table([c for c, _ in vs], [a for a, _ in us])
        right = self.moment_table([d for _, d in vs], [b for _, b in us])
        return complex(cv.conj() @ (left * right) @ cu)

    def inner_tensor_row(self, us, vs) -> complex:
        us, vs = tuple(us), tuple(vs)
        if len(us) != len(vs):
            raise StructureError("row length mismatch")
        return sum((self.inner_tensor(u, v) for u, v in zip(us, vs)), complex(0))

    def centered(self, p: NCPoly) -> NCPoly:
        """Remove the component along the scalars: p - tau(p) 1."""
        t = self.trace_poly(p)
        return p - NCPoly.scalar(p.system, QQi.of(t))


# ---------------------------------------------------------------------------
# matrix models
# ---------------------------------------------------------------------------


def _block_diag(parts, blocks, what) -> np.ndarray:
    """The block-diagonal matrix of one ``k_i x k_i`` part per block; the
    error names ``what`` the parts are."""
    parts = [np.asarray(p, dtype=complex) for p in parts]
    if len(parts) != len(blocks) or any(
            p.shape != (k, k) for p, (k, _) in zip(parts, blocks)):
        raise ModelError(f"{what} blocks do not match the block sizes")
    total = sum(k for k, _ in blocks)
    out = np.zeros((total, total), dtype=complex)
    off = 0
    for m, (k, _) in zip(parts, blocks):
        out[off:off + k, off:off + k] = m
        off += k
    _finite(what, entries=out)
    return out


class MatrixModel(TraceModel):
    """Direct sum of matrix blocks ``(M_{k_i}, lambda_i tr_{k_i})``.

    ``generators[g]`` is a list of one ``k_i x k_i`` matrix per block.  An
    optional B-subalgebra is given by an abstract :class:`BAlgebra` together
    with one such list of blocks per basis element; the representation is
    checked against the structure constants.  Every weight and entry must
    be finite.  Words are evaluated together, on one prefix stack.
    """

    def __init__(self, blocks, generators, star_pairing=None,
                 b_algebra=None, b_basis=None, cap=None):
        try:
            blocks = [(_whole(k), float(lam)) for k, lam in blocks]
        except (TypeError, ValueError, OverflowError) as exc:
            raise ModelError(f"blocks must be (whole size, weight) pairs: "
                             f"{exc}") from exc
        _finite("block", weights=[lam for _, lam in blocks])
        if not blocks or any(k < 1 or lam <= 0 for k, lam in blocks):
            raise ModelError("blocks must be (size >= 1, weight > 0) pairs")
        if abs(sum(lam for _, lam in blocks) - 1.0) > 1e-12:
            raise ModelError("block weights must sum to 1")
        self.blocks = blocks
        mats = [_block_diag(g, blocks, "generator") for g in generators]
        if not mats:
            raise ModelError("need at least one generator")
        self.gen_mats = mats
        sizes = [k for k, _ in blocks]
        self.weights = np.repeat([lam / k for k, lam in blocks], sizes)
        self.dim = int(self.weights.size)
        # the diagonal-block entries (p, q), by block, then row, then column
        block = np.repeat(np.arange(len(blocks)), sizes)
        self._entries = np.nonzero(block[:, None] == block[None, :])
        self._root = np.sqrt(self.weights)[self._entries[1]]

        n = len(mats)
        pairing = tuple(star_pairing) if star_pairing is not None else tuple(range(n))
        b = b_algebra if b_algebra is not None else BAlgebra.scalar()
        super().__init__(GeneratorSystem(n, pairing, b, cap))

        for i, j in enumerate(self.system.star_pairing):
            if np.max(np.abs(mats[i].conj().T - mats[j])) > 1e-10:
                raise ModelError(
                    f"generator {i} adjoint does not match its star partner {j}")

        if b_algebra is None:
            self.b_mats = [np.eye(self.dim, dtype=complex)]
        else:
            if b_basis is None or len(b_basis) != b.dim:
                raise ModelError("need one list of blocks per B basis element")
            self.b_mats = [_block_diag(el, blocks, "B basis")
                           for el in b_basis]
            self._check_b_representation()

    def _check_b_representation(self):
        b = self.system.b

        def combo(terms):
            acc = np.zeros((self.dim, self.dim), dtype=complex)
            for k, c in terms:
                acc += complex(c) * self.b_mats[k]
            return acc

        if np.max(np.abs(combo(b.unit) - np.eye(self.dim))) > 1e-10:
            raise ModelError("B unit does not evaluate to the identity")
        for i in range(b.dim):
            for j in range(b.dim):
                prod = self.b_mats[i] @ self.b_mats[j]
                if np.max(np.abs(prod - combo(b.mul.get((i, j), ())))) > 1e-10:
                    raise ModelError("B matrices do not satisfy the structure constants")
            star = self.b_mats[i].conj().T
            if np.max(np.abs(star - combo(b.star[i]))) > 1e-10:
                raise ModelError("B matrices do not respect the involution")

    # -- evaluation -------------------------------------------------------------

    def _word_matrices(self, words) -> np.ndarray:
        """The matrices of ``words`` on one stack of their prefixes
        (:func:`_prefix_stack`): the first level is the B slots, and each
        later one right-multiplies its parent rows by the stacked generator
        or B matrices of its letters in one batched product."""
        size, levels, at = _prefix_stack(words)
        mats = np.stack(self.b_mats), np.stack(self.gen_mats)
        M = np.zeros((size, self.dim, self.dim), dtype=complex)
        for j, (lo, hi, parents, letters) in enumerate(levels):
            step = mats[j % 2][letters]
            M[lo:hi] = M[parents] @ step if j else step
        return M[at]

    def _trace_word_impl(self, word) -> complex:
        (m,) = self._word_matrices([word])
        return complex(np.sum(self.weights * np.diag(m)))

    def coords(self, mats) -> np.ndarray:
        """Coordinates ``(..., D)``, ``D = sum k_i^2``, of a block-diagonal
        matrix or a stack of them in the orthonormal basis of block matrix
        units scaled by ``1/sqrt(w)``, ``w = lambda_i / k_i``: the entries
        ``sqrt(w_q) m[p, q]`` of the diagonal blocks, in the input's dtype."""
        p, q = self._entries
        return self._root * np.asarray(mats)[..., p, q]

    def _table_vectors(self, xs, ys, dx, dy) -> tuple:
        """``tau(x* y) = <y, x>``: each word's vector is the orthonormal
        :meth:`coords` of its matrix."""
        Vx = self.coords(self._word_matrices(xs))
        return Vx, Vx if ys is None else self.coords(self._word_matrices(ys))


def two_point_matrix_model(mass_plus=0.5, loc_plus=1.0, loc_minus=-1.0, cap=None):
    """C (+) C with one self-adjoint generator taking two values."""
    return MatrixModel([(1, mass_plus), (1, 1.0 - mass_plus)],
                       [[[[loc_plus]], [[loc_minus]]]], cap=cap)


def diagonal_matrix_model(values, weights, cap=None):
    """One diagonal self-adjoint generator with the given spectrum."""
    blocks = [(1, w) for w in weights]
    gen = [[[v]] for v in values]
    return MatrixModel(blocks, [gen], cap=cap)


def cyclic_group_model(order: int, cap=None) -> MatrixModel:
    """Regular representation of Z/order, diagonalized into characters.

    Generators are the unitary ``u`` and its adjoint ``u*`` (star-paired),
    which generate the group algebra.
    """
    if order < 2:
        raise ModelError("cyclic group order must be at least 2")
    om = np.exp(2j * np.pi / order)
    blocks = [(1, 1.0 / order)] * order
    u = [[[om ** j]] for j in range(order)]
    ustar = [[[om ** (-j)]] for j in range(order)]
    return MatrixModel(blocks, [u, ustar], star_pairing=(1, 0), cap=cap)


# ---------------------------------------------------------------------------
# semicircular models
# ---------------------------------------------------------------------------


class SemicircularModel(TraceModel):
    """A free family of standard semicircular variables (mean 0, variance 1).

    Mixed moments count non-crossing pairings whose pairs connect equal
    indices, evaluated by the interval-splitting recursion.  Moment tables
    are Gram matrices of Fock-space vectors instead (see
    :meth:`_table_vectors`).
    """

    def __init__(self, count: int, cap=None):
        super().__init__(GeneratorSystem(count, cap=cap))
        self._nc_cache = {(): 1.0}

    def _nc(self, letters) -> float:
        hit = self._nc_cache.get(letters)
        if hit is not None:
            return hit
        L = len(letters)
        if L % 2 == 1:
            val = 0.0
        else:
            val = 0.0
            first = letters[0]
            for j in range(1, L, 2):
                if letters[j] == first:
                    val += self._nc(letters[1:j]) * self._nc(letters[j + 1:])
        self._nc_cache[letters] = val
        return val

    def _trace_word_impl(self, word) -> complex:
        return complex(self._nc(word[1::2]))

    def _table_vectors(self, xs, ys, dx, dy) -> tuple:
        """``tau(x* y) = <y Omega, x Omega>`` in the full Fock space over
        ``C^n``, where ``s_l`` is left creation of ``e_l`` plus its adjoint:
        the vectors are ``x Omega``, exact on integers.

        The vectors are built prefix by prefix (:meth:`_fock_vectors`), all
        prefixes of one length at once.  The right semicircular ``d_l = r_l
        + r_l*``, with ``r_l`` right creation of ``e_l``, commutes with every
        ``s_m`` and ``d_l Omega = s_l Omega``, so ``(u s_l) Omega = d_l (u
        Omega)``.  Both lists are built on one Fock space, cut at depth
        ``(dx + dy) // 2``: after ``t`` of the ``dx + dy`` letters of ``x*
        y``, a component of depth above ``min(t, dx + dy - t)`` cannot return
        to the vacuum, so the cut drops nothing the table reads.
        """
        depth = (dx + dy) // 2
        Vx = self._fock_vectors([w[1::2] for w in xs], depth)
        Vy = Vx if ys is None else self._fock_vectors([w[1::2] for w in ys],
                                                      depth)
        return Vx, Vy

    def _fock_vectors(self, words, depth) -> np.ndarray:
        """``u Omega`` per letter tuple ``u``, over the Fock basis of letter
        tuples of length <= ``depth``, ordered by length and then
        lexicographically; creations beyond ``depth`` are dropped.

        One stack holds the vectors of every prefix of the words, by length
        and then tuple.  A level is ``d_l`` applied to its parent rows, each
        row at its own last letter ``l``: one scatter for ``r_l`` and one
        gather-add for ``r_l*``.  In this order the tuple at index ``i``
        with ``l`` appended sits at ``n i + 1 + l``."""
        n = self.n
        h = sum(n ** k for k in range(depth))  # the tuples shorter than depth
        there = n * np.arange(h) + 1
        size, levels, at = _prefix_stack(words)
        V = np.zeros((size, h + n ** depth))
        V[0, 0] = 1.0  # the vacuum, the empty prefix
        for lo, hi, parents, letters in levels:
            src, to = V[parents], there + letters[:, None]
            cur, rows = V[lo:hi], np.arange(hi - lo)[:, None]
            cur[rows, to] = src[:, :h]  # r_l: depth k -> k + 1
            cur[:, :h] += src[rows, to]  # r_l*: back
        return V[at]


def _prefix_stack(words) -> tuple:
    """Every prefix of the letter tuples ``words`` on one stack, by length
    and then tuple, the empty prefix in row 0: ``(size, levels, rows)``.
    ``levels`` holds per length from 1 ``(lo, hi, parents, letters)``: the
    stack rows ``lo:hi`` of that length, each one's parent row and its last
    letter; ``rows`` holds each word's row.  The prefixes are found from the
    longest down, one slice per prefix."""
    by_length = [{()}] + [set() for _ in range(max(map(len, words),
                                                   default=0))]
    for u in words:
        by_length[len(u)].add(u)
    found, parents = [], ()
    for k in range(len(by_length) - 1, 0, -1):
        level = sorted(by_length[k].union(parents))
        parents = [u[:-1] for u in level]
        found.append((level, parents))
    row, levels, lo = {(): 0}, [], 1
    for level, parents in reversed(found):
        hi = lo + len(level)
        levels.append((lo, hi, np.array([row[u] for u in parents]),
                       np.array([u[-1] for u in level])))
        row.update(zip(level, range(lo, hi)))
        lo = hi
    return lo, levels, np.array([row[u] for u in words], dtype=int)


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


# ---------------------------------------------------------------------------
# spectral-measure models (one self-adjoint variable)
# ---------------------------------------------------------------------------


class Density:
    """Absolutely continuous part of a spectral measure.

    Every kind carries closed forms for what the smoothed-kernel bound and
    the logarithmic energy integrate against it: its moments, its Cauchy
    transform ``G(z) = integral of rho(s) / (z - s) ds`` together with
    ``G'(z)``, and its logarithmic potential.
    """

    mass: float
    support: tuple

    def pdf(self, t):
        raise NotImplementedError

    def moment(self, k: int) -> float:
        raise NotImplementedError

    def cauchy(self, z):
        """``(G(z), G'(z))`` for complex ``z`` off the support."""
        raise NotImplementedError

    def log_potential(self, x):
        """``integral of rho(y) log|y - x| dy`` for real ``x``."""
        raise NotImplementedError


class SemicircleDensity(Density):
    """Semicircle law on ``[center - radius, center + radius]``.

    Standard parameters (center 0, radius 2) give unit variance.
    """

    def __init__(self, center=0.0, radius=2.0, mass=1.0):
        self.center = float(center)
        self.radius = float(radius)
        self.mass = float(mass)
        _finite("semicircle", center=self.center, radius=self.radius,
                mass=self.mass)
        if self.radius <= 0 or self.mass <= 0:
            raise ModelError("semicircle radius and mass must be positive")
        self.support = (self.center - self.radius, self.center + self.radius)

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        inside = np.clip(self.radius ** 2 - (t - self.center) ** 2, 0.0, None)
        return (2.0 * self.mass / (np.pi * self.radius ** 2)) * np.sqrt(inside)

    def moment(self, k: int) -> float:
        # t = center + (radius/2) v with v standard: tau(v^2i) = Catalan(i)
        c, h = self.center, self.radius / 2
        return self.mass * sum(math.comb(k, 2 * i) * c ** (k - 2 * i) * h ** (2 * i)
                               * catalan(i) for i in range(k // 2 + 1))

    def cauchy(self, z):
        w = np.asarray(z, dtype=complex) - self.center
        r = self.radius
        root = np.sqrt(w - r) * np.sqrt(w + r)  # ~ w at infinity
        # (2m/r^2)(w - root), written without the cancellation at large |w|
        g = 2.0 * self.mass / (w + root)
        return g, -g / root

    def log_potential(self, x):
        u = 2.0 * (np.asarray(x, dtype=float) - self.center) / self.radius
        a = np.maximum(np.abs(u), 2.0)
        root = np.sqrt((a - 2.0) * (a + 2.0))
        # off the support u^2/4 - 1/2 gains - |u| root/4 + log((|u| + root)/2);
        # u^2/4 - |u| root/4 is |u| / (|u| + root) there
        outside = a / (a + root) - 0.5 + np.log((a + root) / 2)
        inside = u * u / 4 - 0.5
        return self.mass * (math.log(self.radius / 2)
                            + np.where(np.abs(u) <= 2.0, inside, outside))


class _PiecewiseLinearDensity(Density):
    """Closed forms of a density linear between the knots ``xs``, where it
    takes the values ``ys``, and zero outside them."""

    xs: np.ndarray
    ys: np.ndarray

    def _pieces(self):
        """Per piece ``rho(s) = y + slope (s - p)`` on ``[p, q]``."""
        keep = self.xs[1:] > self.xs[:-1]  # a repeated knot is a jump
        p, q = self.xs[:-1][keep], self.xs[1:][keep]
        y, y_end = self.ys[:-1][keep], self.ys[1:][keep]
        return p, q, y, y_end, (y_end - y) / (q - p)

    def moment(self, k: int) -> float:
        # Gauss-Legendre with k//2 + 2 nodes is exact on each piece
        p, q, y, _, slope = self._pieces()
        x, w = quadrature._leggauss(k // 2 + 2)
        half = 0.5 * (q - p)
        s = (p + half)[:, None] + half[:, None] * x
        rho = y[:, None] + slope[:, None] * (s - p[:, None])
        return float(np.sum(half * ((rho * s ** k) @ w)))

    def cauchy(self, z):
        z = np.asarray(z, dtype=complex)
        g, dg = np.zeros_like(z), np.zeros_like(z)
        # one piece at a time, so temporaries stay the size of z for any
        # number of knots
        for p, q, y, y_end, slope in zip(*self._pieces()):
            zp, zq = z - p, z - q
            logs = np.log(zp) - np.log(zq)
            g += (y + slope * zp) * logs - slope * (q - p)
            # G' = -integral of rho / (z - s)^2, integrated by parts
            dg += y / zp - y_end / zq + slope * logs
        return g, dg

    def log_potential(self, x):
        x = np.asarray(x, dtype=float)
        val = np.zeros_like(x)
        for p, q, y, _, slope in zip(*self._pieces()):
            level = y + slope * (x - p)  # rho at y = x, continued linearly
            val += (_xlog_antiderivative(q - x, level, slope)
                    - _xlog_antiderivative(p - x, level, slope))
        return val


def _xlog_antiderivative(d, level, slope):
    """Antiderivative of ``(level + slope d) log|d|`` in ``d``."""
    ad = np.abs(d)
    log = np.log(np.where(ad > 0, ad, 1.0))
    return level * d * (log - 1.0) + slope * d * d * (log / 2 - 0.25)


class UniformDensity(_PiecewiseLinearDensity):
    def __init__(self, a, b, mass=1.0):
        self.a, self.b = float(a), float(b)
        self.mass = float(mass)
        _finite("uniform density", a=self.a, b=self.b, mass=self.mass)
        if not self.b > self.a or self.mass <= 0:
            raise ModelError("uniform density needs b > a and positive mass")
        self.support = (self.a, self.b)
        self.xs = np.array(self.support)
        self.ys = np.full(2, self.mass / (self.b - self.a))

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        return np.where((t >= self.a) & (t <= self.b),
                        self.mass / (self.b - self.a), 0.0)


class TableDensity(_PiecewiseLinearDensity):
    """Piecewise-linear density through sampled ``(x, rho)`` points,
    rescaled to the requested mass."""

    def __init__(self, points, mass=1.0):
        pts = sorted((float(x), float(y)) for x, y in points)
        _finite("table density", points=pts, mass=float(mass))
        if len(pts) < 2 or any(y < 0 for _, y in pts):
            raise ModelError("table density needs >= 2 points with rho >= 0")
        self.xs = np.array([x for x, _ in pts])
        self.ys = np.array([y for _, y in pts])
        raw = float(np.trapezoid(self.ys, self.xs))
        if raw <= 0:
            raise ModelError("table density has zero mass")
        self.ys *= mass / raw
        self.mass = float(mass)
        self.support = (self.xs[0], self.xs[-1])

    def pdf(self, t):
        return np.interp(np.asarray(t, dtype=float), self.xs, self.ys,
                         left=0.0, right=0.0)


class MeasureModel(TraceModel):
    """One self-adjoint variable with distribution ``sum of atoms + density``."""

    def __init__(self, atoms=(), density: Density | None = None, cap=None):
        self.atoms = _atoms(atoms)
        self.density = density
        total = sum(m for _, m in self.atoms) + (density.mass if density else 0.0)
        if abs(total - 1.0) > 1e-12:
            raise ModelError(f"total mass {total} is not 1")
        super().__init__(GeneratorSystem(1, cap=cap))
        self._moments = {0: 1.0}

    def moment(self, k: int) -> float:
        hit = self._moments.get(k)
        if hit is None:
            hit = sum(m * t ** k for t, m in self.atoms)
            if self.density is not None:
                hit += self.density.moment(k)
            self._moments[k] = hit
        return hit

    def _trace_word_impl(self, word) -> complex:
        return complex(self.moment(len(word) // 2))

    def _table_vectors(self, xs, ys, dx, dy) -> tuple:
        """``tau(x* y)`` is the moment of order ``deg x + deg y``: ``V_x`` is
        the one-hot degree row, and ``V_y[b, k] = m_(deg ys[b] + k)`` for
        ``k = 0..dx``, a row of the Hankel matrix of the moments."""
        ys = xs if ys is None else ys
        moments = np.array([self.moment(k) for k in range(dx + dy + 1)])
        Vx = np.eye(dx + 1)[[len(x) // 2 for x in xs]]
        Vy = moments[np.add.outer(np.array([len(y) // 2 for y in ys],
                                           dtype=int), np.arange(dx + 1))]
        return Vx, Vy


def _atoms(atoms) -> tuple:
    """``atoms`` as ``(location, mass)`` float pairs: finite, of positive
    mass and at distinct locations."""
    atoms = tuple((float(t), float(m)) for t, m in atoms)
    _finite("atom", locations=[t for t, _ in atoms],
            masses=[m for _, m in atoms])
    if any(m <= 0 for _, m in atoms):
        raise ModelError("atom masses must be positive")
    if len({t for t, _ in atoms}) != len(atoms):
        raise ModelError("atom locations must be distinct")
    return atoms


def two_point_measure(mass_plus=0.5, loc_plus=1.0, loc_minus=-1.0, cap=None):
    return MeasureModel([(loc_plus, mass_plus), (loc_minus, 1.0 - mass_plus)],
                        cap=cap)


# ---------------------------------------------------------------------------
# free products
# ---------------------------------------------------------------------------


class FreeProductModel(TraceModel):
    """Free product of trace models; generators are concatenated.

    Words act on the reduced free-product space ``C Omega (+) sum of
    H°_(i_1) (x) ... (x) H°_(i_k)`` over alternating factor sequences.  A
    basis key is a letter tuple ``b``: consecutive blocks lie in different
    factors, so its maximal same-factor runs ``u_1 ... u_k`` are its blocks,
    and its basis vector is ``e_b = u_1° Omega (x) ... (x) u_k° Omega`` with
    ``u° = u - tau(u)``; ``e_()`` is the vacuum.  The vectors ``w Omega``
    are built on one stack of every prefix of the words, one prefix length
    at a time, over the keys the words reach (:meth:`_reduced_vectors`);
    the vacuum coefficient is ``tau(w)``, and moment tables pair the vectors
    through the factors' own tables (:meth:`_table_vectors`).  Only the
    factor states enter, so no factor needs to be tracial.  A product word
    traces factor words of up to its own degree, so the product's cap may
    not exceed a factor's.
    """

    def __init__(self, factors, cap=None):
        factors = tuple(factors)
        if len(factors) < 1:
            raise ModelError("free product needs at least one factor")
        for f in factors:
            if not f.system.scalar_b:
                raise ModelError("free products are taken over scalar coefficients")
        self.factors = factors
        pairing = []
        self._map = []  # global letter -> (factor index, local letter)
        off = 0
        for fi, f in enumerate(factors):
            for j in range(f.n):
                self._map.append((fi, j))
                pairing.append(off + f.system.star_pairing[j])
            off += f.n
        super().__init__(GeneratorSystem(len(self._map), tuple(pairing), cap=cap))
        for fi, f in enumerate(factors):
            if f.system.cap < self.system.cap:
                raise ModelError(
                    f"free-product cap {self.system.cap} exceeds the cap "
                    f"{f.system.cap} of factor {fi} ({type(f).__name__})")

    def _trace_word_impl(self, word) -> complex:
        V, _ = self._reduced_vectors([word[1::2]])
        return V[0, 0]

    def _table_vectors(self, xs, ys, dx, dy) -> tuple:
        """``tau(x* y) = <y Omega, x Omega>`` over the basis keys of
        :meth:`_reduced_vectors`: ``V_x`` holds the coefficients of ``x
        Omega`` and ``V_y`` those of ``K (y Omega)``, with ``K`` the Gram
        matrix of the basis (:meth:`_basis_gram`)."""
        Vx, rows = self._reduced_vectors([x[1::2] for x in xs])
        Vy, cols = ((Vx, rows) if ys is None
                    else self._reduced_vectors([y[1::2] for y in ys]))
        return Vx, Vy @ self._basis_gram(rows, cols).T

    def _reduced_vectors(self, words) -> tuple:
        """``(V, basis)``: row ``a`` of ``V`` holds the coefficients of
        ``words[a] Omega`` over the keys of ``basis`` (a
        :class:`_ReducedBasis`), those the words reach, numbered as reached
        with the vacuum first.

        Each prefix level is the right action of its last letters on its
        parent rows, which commutes with the left action of the product.  A
        letter ``x`` sends ``e_b`` to ``e_(b x)`` with coefficient 1 and,
        when the last block ``v`` of ``b = b' v`` is in the factor of ``x``,
        to ``e_(b' x)`` with ``-tau(v)`` and to ``e_(b')`` with ``tau(v x) -
        tau(v) tau(x)``, else to ``e_b`` with ``tau(x)``, all traces in that
        factor.  A level is one gather of the parent rows and one ordered
        scatter of the three terms of their nonzero coefficients, at the
        targets and coefficients of :meth:`_ReducedBasis.successors`: a
        target sums its terms by source key, then term.  Keys that only a
        zero coefficient would reach are not numbered."""
        size, levels, at = _prefix_stack(words)
        basis = _ReducedBasis(self)
        done, prev = [np.ones((1, 1))], 0  # the vacuum row
        for lo, hi, parents, letters in levels:
            src, prev = done[-1][parents - prev], lo
            at_nz = np.flatnonzero(src != 0)
            r, b = np.divmod(at_nz, src.shape[1])
            to, coef = basis.successors((b * self.n + letters[r]).tolist())
            # column -1 takes the zero terms of absent targets
            cur = np.zeros((hi - lo, len(basis) + 1),
                           dtype=np.result_type(src, coef))
            np.add.at(cur, (r[:, None], to), src.ravel()[at_nz, None] * coef)
            done.append(cur[:, :-1])
        V = np.zeros((size, len(basis)), dtype=np.result_type(*done))
        lo = 0
        for level in done:
            V[lo:lo + len(level), :level.shape[1]] = level
            lo += len(level)
        return V[at], basis

    def _basis_gram(self, rows, cols) -> np.ndarray:
        """``K[a, c] = <e_c, e_a>`` between the keys of the bases ``rows``
        and ``cols``, one basis for a square table.  Keys of ``k`` blocks pair block by block, ``prod_j
        Kc[u_j, u'_j]`` over the stacked centered table ``Kc``
        (:meth:`_centered_table`), accumulated in block order: the pairs of
        ``k`` blocks are those of their heads times one gather of ``Kc`` at
        their last blocks.  Keys of different block counts are orthogonal,
        and so are those of different factor sequences, since ``Kc`` is zero
        across factors."""
        Kc = self._centered_table(rows, cols)
        K = np.zeros((len(rows), len(cols)), dtype=np.result_type(1.0, Kc))
        K[0, 0] = 1  # the vacuum
        groups = list(rows.by_count())
        for (rk, rh, rl), (ck, ch, cl) in zip(
                groups, groups if cols is rows else cols.by_count()):
            K[rk[:, None], ck] = K[rh[:, None], ch] * Kc[rl[:, None], cl]
        return K

    def _centered_table(self, rows, cols) -> np.ndarray:
        """``Kc[u, u'] = tau(u* u') - conj(tau(u)) tau(u')`` over the blocks
        ``u`` of ``rows`` and ``u'`` of ``cols``, zero across factors.  Each
        factor's part is read from its own table over its blocks in the two
        bases (:meth:`TraceModel._moment_table`: the blocks are built
        valid), square when the table is, so no factor traces a word beyond
        the table's degree."""
        parts, square = [], cols is rows
        for fi, factor in enumerate(self.factors):
            rids, rwords = rows.factor_blocks(fi)
            cids, cwords = (rids, rwords) if square else cols.factor_blocks(fi)
            if rids and cids:
                M = factor._moment_table(rwords, None if square else cwords)
                # M[a, 0] = tau(u_a*) = conj(tau(u_a)) and M[0, b] = tau(u_b)
                parts.append((rids, cids,
                              M[1:, 1:] - np.outer(M[1:, 0], M[0, 1:])))
        Kc = np.zeros((len(rows.block_factor), len(cols.block_factor)),
                      dtype=np.result_type(1.0, *(p for _, _, p in parts)))
        for rids, cids, part in parts:
            Kc[np.ix_(rids, cids)] = part
        return Kc


class _ReducedBasis:
    """The basis keys that one :class:`FreeProductModel` build reaches,
    numbered as reached, and their blocks.

    A key ``b x`` is numbered with its pair code ``b n + x``, the code of
    its parent key and last letter.  Per key: its head ``b'``, the key
    without its last block, its last block and its block count.  A block is
    a factor word, numbered as reached, with its factor, its local letters
    and its trace in the factor, real when the trace is."""

    def __init__(self, model):
        self.model = model
        self.head, self.last, self.count = [0], [-1], [0]
        self.block_factor, self.block_letters, self.block_trace = [], [], []
        self._blocks = {}   # (block, letter) -> block, (-1, x) for one letter
        self._pairs = {}    # pair code -> targets and coefficients

    def __len__(self) -> int:
        return len(self.head)

    def _block(self, v, x) -> int:
        """The block ``v x`` in the factor of the letter ``x``, ``v`` -1 for
        the empty block, numbered and traced if new."""
        u = self._blocks.get((v, x))
        if u is None:
            fi, l = self.model._map[x]
            letters = (self.block_letters[v] if v >= 0 else ()) + (l,)
            t = self.model.factors[fi].trace_word(_scalar_word(letters))
            u = self._blocks[(v, x)] = len(self.block_factor)
            self.block_factor.append(fi)
            self.block_letters.append(letters)
            self.block_trace.append(t if t.imag else t.real)
        return u

    def _pair(self, code) -> tuple:
        """Number the key ``b x`` of a new pair code ``b n + x``, and keep
        its targets and coefficients.  When the last block of ``b`` is in
        the factor of ``x``, the head ``b'`` of ``b`` does not end in that
        factor, so the pair of ``b' x`` needs no further pair."""
        n = self.model.n
        b, x = divmod(code, n)
        one, v = self._block(-1, x), self.last[b]
        t_x = self.block_trace[one]
        if v >= 0 and self.block_factor[v] == self.block_factor[one]:
            h, vx = self.head[b], self._block(v, x)
            hx = (self._pairs.get(h * n + x) or self._pair(h * n + x))[0][0]
            t_v = self.block_trace[v]
            hit = ((len(self.head), hx, h),
                   (1, -t_v, self.block_trace[vx] - t_v * t_x))
            self.head.append(h)
            self.last.append(vx)
            self.count.append(self.count[b])
        else:
            hit = (len(self.head), -1, b), (1, 0, t_x)
            self.head.append(b)
            self.last.append(one)
            self.count.append(self.count[b] + 1)
        self._pairs[code] = hit
        return hit

    def successors(self, codes) -> tuple:
        """Per pair code ``b n + x``: the three target keys of ``e_b`` under
        the right action of ``x``, -1 for none, and their coefficients."""
        pairs, to, coef = self._pairs, [], []
        for code in codes:
            hit = pairs.get(code) or self._pair(code)
            to += hit[0]
            coef += hit[1]
        return (np.array(to, dtype=int).reshape(-1, 3),
                np.array(coef).reshape(-1, 3))

    def by_count(self):
        """Per block count from 1: the keys of that count, their heads and
        their last blocks."""
        count = np.array(self.count)
        order = np.argsort(count, kind="stable")
        ends = np.searchsorted(count[order], np.arange(1, count.max() + 2))
        head, last = np.array(self.head), np.array(self.last)
        for lo, hi in zip(ends, ends[1:]):
            keys = order[lo:hi]
            yield keys, head[keys], last[keys]

    def factor_blocks(self, fi) -> tuple:
        """The numbers of the blocks in factor ``fi``, and the factor words
        of the unit and of those blocks."""
        ids = [u for u, f in enumerate(self.block_factor) if f == fi]
        return ids, [(0,)] + [_scalar_word(self.block_letters[u])
                              for u in ids]


def _scalar_word(letters) -> tuple:
    """The scalar-coefficient word ``(0, l_1, 0, ..., l_k, 0)``."""
    word = [0] * (2 * len(letters) + 1)
    word[1::2] = letters
    return tuple(word)


# ---------------------------------------------------------------------------
# JSON model specs
# ---------------------------------------------------------------------------


def _mat_entry(x) -> complex:
    if (not isinstance(x, list) or len(x) != 2
            or not all(isinstance(v, (int, float)) for v in x)):
        raise ModelError(f"matrix entries must be [re, im] pairs, got {x!r}")
    return complex(x[0], x[1])


def _mat_from_json(data):
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise ModelError("matrices must be lists of rows of [re, im] pairs, "
                         f"got {data!r}")
    return np.array([[_mat_entry(x) for x in row] for row in data])


_REQUIRED = object()


def spec_field(data: dict, key, spec: str, convert, default=_REQUIRED):
    """``convert(data[key])`` of the JSON spec named ``spec``, or ``default``
    when the field is absent and optional.  A missing required field, or one
    ``convert`` rejects, is a ModelError that names the field."""
    if key not in data:
        if default is _REQUIRED:
            raise ModelError(f"{spec} needs the field {key!r}")
        return default
    try:
        return convert(data[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelError(f"{spec} has a malformed field {key!r}: "
                         f"{json.dumps(data[key], default=repr)}") from exc


def _whole(x) -> int:
    """``x`` as an int; a count or index of 2.5 or "2" is malformed."""
    if x != int(x):
        raise ValueError(f"{x!r} is not a whole number")
    return int(x)


def _pairs(first, second):
    return lambda items: [(first(a), second(b)) for a, b in items]


def _density_from_json(data, mass):
    if not isinstance(data, dict):
        raise ModelError("measure model spec has a malformed field 'density': "
                         f"{json.dumps(data, default=repr)}")
    if mass <= 0:
        raise ModelError("density mass must be positive")
    kind = data.get("kind")
    spec = f"{kind} density"
    if kind == "semicircle":
        return SemicircleDensity(spec_field(data, "center", spec, float, 0.0),
                                 spec_field(data, "radius", spec, float, 2.0),
                                 mass)
    if kind == "uniform":
        return UniformDensity(spec_field(data, "a", spec, float),
                              spec_field(data, "b", spec, float), mass)
    if kind == "table":
        return TableDensity(spec_field(data, "points", spec,
                                       _pairs(float, float)), mass)
    raise ModelError(f"unknown density kind {kind!r}")


def model_from_json(data: dict, cap=None) -> TraceModel:
    if not isinstance(data, dict):
        raise ModelError("a model spec must be a JSON object, got "
                         f"{type(data).__name__}")
    kind = data.get("type")
    spec = f"{kind} model spec"

    def field(key, convert, default=_REQUIRED):
        return spec_field(data, key, spec, convert, default)

    if kind == "matrix":
        gens = field("generators",
                     lambda gs: [[_mat_from_json(p) for p in g] for g in gs])
        pairing = field("star_pairing", lambda p: None if p is None else
                        tuple(_whole(j) - 1 for j in p), None)
        return MatrixModel(field("blocks", _pairs(_whole, float)), gens,
                           star_pairing=pairing, cap=cap)
    if kind == "semicircular":
        return SemicircularModel(field("n", _whole), cap=cap)
    if kind == "measure":
        # the atoms are checked before the density takes the rest of the mass
        atoms = field("atoms", _atoms, ())
        density = data.get("density")
        if density is not None:
            density = _density_from_json(density,
                                         1.0 - sum(m for _, m in atoms))
        return MeasureModel(atoms, density, cap=cap)
    if kind == "free_product":
        return FreeProductModel(
            field("factors", lambda fs: [model_from_json(f, cap=cap)
                                         for f in fs]), cap=cap)
    raise ModelError(f"unknown model type {kind!r}")


def load_model(path, cap=None) -> TraceModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelError(f"malformed model spec {path}: {exc}") from exc
    return model_from_json(data, cap=cap)
