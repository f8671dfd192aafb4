"""Tracial-state models and the inner products they induce.

A trace model evaluates the trace of canonical words in concrete generators;
everything else (L2, tensor and Hilbert-Schmidt inner products) reduces to
word traces.  Four families are provided:

* :class:`MatrixModel` -- direct sums of matrix blocks with a weighted trace;
* :class:`SemicircularModel` -- free standard semicircular tuples, evaluated
  by counting index-respecting non-crossing pairings;
* :class:`MeasureModel` -- one self-adjoint variable with an atomic plus
  absolutely-continuous spectral distribution;
* :class:`FreeProductModel` -- free products of the above, evaluated by the
  centering recursion (alternating centered words have trace zero).

Inner product conventions: ``<p, q> = tau(q* p)`` on polynomials,
``<a(x)b, c(x)d> = tau(c* a) tau(b d*)`` on tensors, and the entrywise sum on
kernel matrices.  All are linear in the first argument.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import quadrature
from .errors import DegreeCapError, ModelError, StructureError
from .ncalg import (BAlgebra, GeneratorSystem, KernelMatrix, NCPoly,
                    TensorPoly)
from .scalars import QQi


class TraceModel:
    """Base class: word-trace evaluation plus derived inner products."""

    def __init__(self, system: GeneratorSystem):
        self.system = system
        self._word_cache: dict = {}
        self._pair_cache: dict = {}

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
            if self.system.word_degree(word) > self.system.cap:
                raise DegreeCapError(
                    f"word degree {self.system.word_degree(word)} exceeds cap")
            self.system.check_word(word)
            hit = complex(self._trace_word_impl(word))
            self._word_cache[word] = hit
        return hit

    def trace_poly(self, p: NCPoly) -> complex:
        if p.system != self.system:
            raise StructureError("polynomial belongs to a different generator system")
        return sum((complex(c) * self.trace_word(w) for w, c in p.terms.items()),
                   complex(0))

    # -- pairwise word traces, memoized --------------------------------------

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

    # -- inner products --------------------------------------------------------

    def inner_l2(self, p: NCPoly, q: NCPoly) -> complex:
        """GNS inner product tau(q* p), linear in ``p``."""
        acc = complex(0)
        for wq, cq in q.terms.items():
            cqc = complex(cq.conjugate())
            for wp, cp in p.terms.items():
                acc += complex(cp) * cqc * self._tr_star_left(wq, wp)
        return acc

    def inner_l2_tuple(self, ps, qs) -> complex:
        ps, qs = tuple(ps), tuple(qs)
        if len(ps) != len(qs):
            raise StructureError("tuple length mismatch")
        return sum((self.inner_l2(p, q) for p, q in zip(ps, qs)), complex(0))

    def inner_tensor(self, u: TensorPoly, v: TensorPoly) -> complex:
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

    def inner_tensor_row(self, us, vs) -> complex:
        us, vs = tuple(us), tuple(vs)
        if len(us) != len(vs):
            raise StructureError("row length mismatch")
        return sum((self.inner_tensor(u, v) for u, v in zip(us, vs)), complex(0))

    def inner_hs(self, A: KernelMatrix, B: KernelMatrix) -> complex:
        """Hilbert-Schmidt inner product: entrywise tensor inner products."""
        if A.size != B.size:
            raise StructureError("kernel matrix size mismatch")
        acc = complex(0)
        for i in range(A.size):
            for j in range(A.size):
                acc += self.inner_tensor(A.entries[i][j], B.entries[i][j])
        return acc

    def centered(self, p: NCPoly) -> NCPoly:
        """Remove the component along the scalars: p - tau(p) 1."""
        t = self.trace_poly(p)
        return p - NCPoly.scalar(p.system, QQi.of(t))


# ---------------------------------------------------------------------------
# matrix models
# ---------------------------------------------------------------------------


def _block_diag(mats) -> np.ndarray:
    total = sum(m.shape[0] for m in mats)
    out = np.zeros((total, total), dtype=complex)
    off = 0
    for m in mats:
        k = m.shape[0]
        out[off:off + k, off:off + k] = m
        off += k
    return out


class MatrixModel(TraceModel):
    """Direct sum of matrix blocks ``(M_{k_i}, lambda_i tr_{k_i})``.

    ``generators[g]`` is a list of one ``k_i x k_i`` matrix per block.  An
    optional B-subalgebra is given by an abstract :class:`BAlgebra` together
    with one concrete matrix per basis element; the representation is checked
    against the structure constants.
    """

    def __init__(self, blocks, generators, star_pairing=None,
                 b_algebra=None, b_basis=None, cap=None):
        blocks = [(int(k), float(lam)) for k, lam in blocks]
        if not blocks or any(k < 1 or lam <= 0 for k, lam in blocks):
            raise ModelError("blocks must be (size >= 1, weight > 0) pairs")
        if abs(sum(lam for _, lam in blocks) - 1.0) > 1e-12:
            raise ModelError("block weights must sum to 1")
        self.blocks = blocks
        mats = []
        for g in generators:
            parts = [np.asarray(p, dtype=complex) for p in g]
            if len(parts) != len(blocks) or any(
                    p.shape != (k, k) for p, (k, _) in zip(parts, blocks)):
                raise ModelError("generator blocks do not match the block sizes")
            mats.append(_block_diag(parts))
        if not mats:
            raise ModelError("need at least one generator")
        self.gen_mats = mats
        w = []
        for k, lam in blocks:
            w.extend([lam / k] * k)
        self.weights = np.array(w)
        self.dim = int(self.weights.size)
        self._mat_cache: dict = {}

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
                raise ModelError("need one matrix per B basis element")
            self.b_mats = [_block_diag([np.asarray(p, dtype=complex) for p in el])
                           if isinstance(el, (list, tuple)) else
                           np.asarray(el, dtype=complex)
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

    def eval_word(self, word) -> np.ndarray:
        word = tuple(word)
        hit = self._mat_cache.get(word)
        if hit is None:
            m = self.b_mats[word[0]].copy()
            for j in range(1, len(word), 2):
                m = m @ self.gen_mats[word[j]]
                m = m @ self.b_mats[word[j + 1]]
            self._mat_cache[word] = hit = m
        return hit

    def trace_mat(self, m: np.ndarray) -> complex:
        return complex(np.sum(self.weights * np.diag(m)))

    def _trace_word_impl(self, word) -> complex:
        return self.trace_mat(self.eval_word(word))


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
    indices, evaluated by the interval-splitting recursion.
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
        if radius <= 0 or mass <= 0:
            raise ModelError("semicircle radius and mass must be positive")
        self.center = float(center)
        self.radius = float(radius)
        self.mass = float(mass)
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
        if not b > a or mass <= 0:
            raise ModelError("uniform density needs b > a and positive mass")
        self.a, self.b = float(a), float(b)
        self.mass = float(mass)
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
        self.atoms = tuple((float(t), float(m)) for t, m in atoms)
        if any(m <= 0 for _, m in self.atoms):
            raise ModelError("atom masses must be positive")
        if len({t for t, _ in self.atoms}) != len(self.atoms):
            raise ModelError("atom locations must be distinct")
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


def two_point_measure(mass_plus=0.5, loc_plus=1.0, loc_minus=-1.0, cap=None):
    return MeasureModel([(loc_plus, mass_plus), (loc_minus, 1.0 - mass_plus)],
                        cap=cap)


# ---------------------------------------------------------------------------
# free products
# ---------------------------------------------------------------------------


class FreeProductModel(TraceModel):
    """Free product of trace models; generators are concatenated.

    Traces are computed by recursive centering: writing each factor block
    ``w`` as ``(w - tau(w)) + tau(w)`` and using that alternating products of
    centered blocks from distinct factors have trace zero.
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
        self._blocks_cache: dict = {}

    def _factor_trace(self, fi, letters) -> complex:
        word = [0]
        for l in letters:
            word.extend((l, 0))
        return self.factors[fi].trace_word(tuple(word))

    def _tau_blocks(self, blocks) -> complex:
        # blocks: tuple of (factor, letters, centered)
        if not blocks:
            return complex(1)
        hit = self._blocks_cache.get(blocks)
        if hit is not None:
            return hit
        if len(blocks) == 1:
            fi, letters, centered = blocks[0]
            val = complex(0) if centered else self._factor_trace(fi, letters)
            self._blocks_cache[blocks] = val
            return val
        # merge an adjacent same-factor pair if present
        for i in range(len(blocks) - 1):
            f1, w1, c1 = blocks[i]
            f2, w2, c2 = blocks[i + 1]
            if f1 != f2:
                continue
            rest_l, rest_r = blocks[:i], blocks[i + 2:]
            t1 = self._factor_trace(f1, w1) if c1 else None
            t2 = self._factor_trace(f2, w2) if c2 else None
            val = self._tau_blocks(rest_l + ((f1, w1 + w2, False),) + rest_r)
            if c1:
                val -= t1 * self._tau_blocks(rest_l + ((f2, w2, False),) + rest_r)
            if c2:
                val -= t2 * self._tau_blocks(rest_l + ((f1, w1, False),) + rest_r)
            if c1 and c2:
                val += t1 * t2 * self._tau_blocks(rest_l + rest_r)
            self._blocks_cache[blocks] = val
            return val
        # alternating: center the first plain block
        for i, (fi, w, centered) in enumerate(blocks):
            if not centered:
                t = self._factor_trace(fi, w)
                val = self._tau_blocks(blocks[:i] + ((fi, w, True),) + blocks[i + 1:])
                val += t * self._tau_blocks(blocks[:i] + blocks[i + 1:])
                self._blocks_cache[blocks] = val
                return val
        # alternating product of centered blocks: freeness gives zero
        self._blocks_cache[blocks] = complex(0)
        return complex(0)

    def _trace_word_impl(self, word) -> complex:
        letters = word[1::2]
        blocks = []
        for g in letters:
            fi, loc = self._map[g]
            if blocks and blocks[-1][0] == fi:
                blocks[-1] = (fi, blocks[-1][1] + (loc,), False)
            else:
                blocks.append((fi, (loc,), False))
        return self._tau_blocks(tuple(blocks))


# ---------------------------------------------------------------------------
# JSON model specs
# ---------------------------------------------------------------------------


def _mat_to_json(m: np.ndarray):
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m)]


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


def model_to_json(model: TraceModel) -> dict:
    if isinstance(model, MatrixModel):
        out = {
            "type": "matrix",
            "blocks": [[k, lam] for k, lam in model.blocks],
            "generators": [],
            "star_pairing": [j + 1 for j in model.system.star_pairing],
        }
        for g in model.gen_mats:
            parts = []
            off = 0
            for k, _ in model.blocks:
                parts.append(_mat_to_json(g[off:off + k, off:off + k]))
                off += k
            out["generators"].append(parts)
        return out
    if isinstance(model, SemicircularModel):
        return {"type": "semicircular", "n": model.n}
    if isinstance(model, MeasureModel):
        out = {"type": "measure", "atoms": [[t, m] for t, m in model.atoms]}
        d = model.density
        if isinstance(d, SemicircleDensity):
            out["density"] = {"kind": "semicircle", "center": d.center,
                              "radius": d.radius}
        elif isinstance(d, UniformDensity):
            out["density"] = {"kind": "uniform", "a": d.a, "b": d.b}
        elif isinstance(d, TableDensity):
            out["density"] = {"kind": "table",
                              "points": [[float(x), float(y)]
                                         for x, y in zip(d.xs, d.ys)]}
        return out
    if isinstance(model, FreeProductModel):
        return {"type": "free_product",
                "factors": [model_to_json(f) for f in model.factors]}
    raise ModelError(f"cannot serialize model {type(model).__name__}")


def _density_from_json(data, mass):
    kind = data.get("kind")
    if kind == "semicircle":
        return SemicircleDensity(data.get("center", 0.0), data.get("radius", 2.0),
                                 mass)
    if kind == "uniform":
        return UniformDensity(data["a"], data["b"], mass)
    if kind == "table":
        return TableDensity(data["points"], mass)
    raise ModelError(f"unknown density kind {kind!r}")


def model_from_json(data: dict, cap=None) -> TraceModel:
    kind = data.get("type")
    if kind == "matrix":
        gens = [[_mat_from_json(p) for p in g] for g in data["generators"]]
        pairing = data.get("star_pairing")
        if pairing is not None:
            pairing = tuple(int(j) - 1 for j in pairing)
        return MatrixModel(data["blocks"], gens, star_pairing=pairing, cap=cap)
    if kind == "semicircular":
        return SemicircularModel(int(data["n"]), cap=cap)
    if kind == "measure":
        atoms = [(t, m) for t, m in data.get("atoms", [])]
        density = None
        if "density" in data and data["density"] is not None:
            mass = 1.0 - sum(m for _, m in atoms)
            if mass <= 0:
                raise ModelError("density mass must be positive")
            density = _density_from_json(data["density"], mass)
        return MeasureModel(atoms, density, cap=cap)
    if kind == "free_product":
        return FreeProductModel([model_from_json(f, cap=cap)
                                 for f in data["factors"]], cap=cap)
    raise ModelError(f"unknown model type {kind!r}")


def load_model(path, cap=None) -> TraceModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelError(f"malformed model spec {path}: {exc}") from exc
    return model_from_json(data, cap=cap)
