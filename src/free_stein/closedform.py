"""Closed-form values for the quantities the numerical core approximates.

These evaluators are exact (rational arithmetic wherever the inputs are
rational) and double as oracles for the Gram-based estimates:

* one-variable: squared irregularity = sum of squared atom masses;
* finite-dimensional algebras: ``sigma = 1 - sum lambda_i^2 / k_i^2``;
* group algebras: ``sigma = beta_1 - beta_0 + 1`` from the L2-Betti numbers,
  with the finite-group specialization ``beta_0 = 1/|G|``, ``beta_1 = 0``;
* compressed semicircular generators over the algebra of an ambient
  semicircular: recovers the interpolation parameter ``t``;
* free graph algebras: recovers ``t`` from vertex weights and edge counts;
* the smoothed-kernel bound whose small-width limit is the atomic mass sum,
  and the logarithmic energy with its staircase lower-bound trail.

The bound and the energy integrate against the density in closed form: the
convolutions with the smoothing kernels are read off its Cauchy transform
``G`` at ``t + i eps``, and the energy's inner integral is its logarithmic
potential, so one adaptive pass over the support is the only quadrature.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import quadrature
from .errors import ModelError
from .scalars import _frac
from .trace import MeasureModel, _whole


def _exact(x) -> Fraction:
    try:
        return _frac(x)
    except TypeError:
        raise ModelError(f"expected a real number, got {x!r}") from None


def _num(x):
    return float(x) if isinstance(x, Fraction) else x


# ---------------------------------------------------------------------------
# atomic / finite-dimensional closed forms
# ---------------------------------------------------------------------------


def one_var_sigma(measure):
    """Squared irregularity and Stein dimension of one self-adjoint variable.

    ``measure`` is a :class:`MeasureModel` or an iterable of ``(location,
    mass)`` atoms; the continuous part contributes nothing.  With rational
    masses the result is exact.  A model's masses are the binary floats its
    constructor checked, positive and of total 1 within 1e-12, so they are
    not checked again: five atoms of 0.2 sum to just above 1.
    """
    if isinstance(measure, MeasureModel):
        masses = [Fraction(m) for _, m in measure.atoms]
    else:
        masses = [_exact(m) for _, m in measure]
        if any(m <= 0 for m in masses):
            raise ModelError("atom masses must be positive")
        if sum(masses, Fraction(0)) > 1:
            raise ModelError("atom masses exceed total mass 1")
    sig2 = sum((m * m for m in masses), Fraction(0))
    return sig2, 1 - sig2


def fd_sigma(blocks) -> Fraction:
    """Stein dimension of any generating tuple of a multi-matrix algebra:
    ``1 - sum lambda_i^2 / k_i^2``."""
    blocks = [(int(k), _exact(lam)) for k, lam in blocks]
    if not blocks or any(k < 1 or lam <= 0 for k, lam in blocks):
        raise ModelError("blocks must be (size >= 1, weight > 0) pairs")
    if sum(lam for _, lam in blocks) != 1:
        raise ModelError("block weights must sum to 1")
    return 1 - sum((lam * lam / (k * k) for k, lam in blocks), Fraction(0))


def group_sigma(beta0, beta1):
    """Stein dimension of self-adjoint generators of a group algebra from the
    first two L2-Betti numbers, ``0 <= beta_0 <= 1`` and ``beta_1 >= 0``."""
    if not (0 <= beta0 <= 1 and beta1 >= 0):
        raise ModelError(f"L2-Betti numbers need 0 <= beta0 <= 1 and "
                         f"beta1 >= 0, got beta0 = {beta0}, beta1 = {beta1}")
    return beta1 - beta0 + 1


def finite_group_sigma(order: int) -> Fraction:
    """Finite groups have ``beta_0 = 1/|G|`` and ``beta_1 = 0``."""
    order = int(order)
    if order < 1:
        raise ModelError("group order must be at least 1")
    return group_sigma(Fraction(1, order), Fraction(0))


# ---------------------------------------------------------------------------
# compressed semicircular generators (interpolated free group parameter)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompressedGeneratorSpec:
    """Projection-compressed semicircular generators ``e_j s_j f_j`` over the
    algebra of an ambient free semicircular ``s_0``.

    Each pair records the traces of the two projections and whether they are
    equal (one generator) or orthogonal (the generator and its adjoint are
    distinct, contributing two tuple entries).
    """

    pairs: tuple

    def __init__(self, pairs):
        norm = []
        for tau_e, tau_f, equal in pairs:
            te, tf = _exact(tau_e), _exact(tau_f)
            if not (0 < te <= 1 and 0 < tf <= 1):
                raise ModelError("projection traces must lie in (0, 1]")
            if equal and te != tf:
                raise ModelError("equal projections must have equal traces")
            norm.append((te, tf, bool(equal)))
        object.__setattr__(self, "pairs", tuple(norm))


@dataclass
class CompressedSigmaReport:
    t: Fraction
    irregularity_sq: Fraction
    sigma: Fraction
    tuple_length: int

    def to_json(self):
        return {"schema": "free-stein/1", "kind": "compressed-semicircular",
                "t": _num(self.t), "t_exact": str(self.t),
                "irregularity_sq": _num(self.irregularity_sq),
                "sigma": _num(self.sigma), "sigma_exact": str(self.sigma),
                "tuple_length": self.tuple_length}


def compressed_semicircular_sigma(spec: CompressedGeneratorSpec) -> CompressedSigmaReport:
    """Exact Stein data of the compressed tuple.

    The diagonal projection kernel gives ``irregularity^2 = K + 1 - t`` with
    ``t = 1 + sum k_j tau(e_j) tau(f_j)`` and ``K = sum k_j``; the dimension
    of the ambient semicircular is 1, so ``sigma + 1 = t`` exactly.
    """
    K = 0
    t = Fraction(1)
    for te, tf, equal in spec.pairs:
        k = 1 if equal else 2
        K += k
        t += k * te * tf
    sig2 = K + 1 - t
    sigma = K - sig2
    return CompressedSigmaReport(t=t, irregularity_sq=sig2, sigma=sigma,
                                 tuple_length=K)


# ---------------------------------------------------------------------------
# free graph algebras
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GraphSpec:
    """Finite weighted graph: vertex weights summing to 1 and an undirected
    edge multiset given as ``(v, w, multiplicity)`` triples (loops allowed)."""

    weights: tuple  # ((vertex, weight), ...)
    edges: tuple    # ((v, w, multiplicity), ...) with v <= w

    def __init__(self, weights, edges):
        wnorm = tuple((str(v), _exact(w)) for v, w in
                      (weights.items() if isinstance(weights, dict) else weights))
        if any(w <= 0 for _, w in wnorm):
            raise ModelError("vertex weights must be positive")
        if sum(w for _, w in wnorm) != 1:
            raise ModelError("vertex weights must sum to 1")
        names = {v for v, _ in wnorm}
        if len(names) != len(wnorm):
            raise ModelError("duplicate vertex names")
        acc = {}
        for e in edges:
            try:
                v, w, *m = e
                if len(m) > 1:
                    raise ValueError("too many fields")
                mult = _whole(m[0]) if m else 1
            except (TypeError, ValueError, OverflowError) as exc:
                raise ModelError(
                    f"edge {e!r} is malformed: an edge is (v, w) or (v, w, "
                    "multiplicity) with a whole multiplicity") from exc
            v, w = str(v), str(w)
            if mult < 1:
                raise ModelError("edge multiplicity must be positive")
            if v not in names or w not in names:
                raise ModelError(f"edge {e!r} uses an unknown vertex")
            key = (v, w) if v <= w else (w, v)
            acc[key] = acc.get(key, 0) + mult
        object.__setattr__(self, "weights", wnorm)
        object.__setattr__(self, "edges",
                           tuple((v, w, m) for (v, w), m in sorted(acc.items())))
        self._check_connected()

    def _check_connected(self):
        names = [v for v, _ in self.weights]
        if not self.edges:
            raise ModelError("graph has no edges; nothing diffuse is generated")
        parent = {v: v for v in names}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for v, w, _ in self.edges:
            parent[find(v)] = find(w)
        if len({find(v) for v in names}) != 1:
            raise ModelError("graph is not connected")

    @property
    def has_loops(self) -> bool:
        return any(v == w for v, w, _ in self.edges)

    def directed_edge_count(self) -> int:
        # a loop is its own opposite edge: it contributes one self-adjoint
        # generator, a non-loop edge contributes an adjoint pair
        return sum(m if v == w else 2 * m for v, w, m in self.edges)


@dataclass
class GraphSigmaReport:
    t: Fraction
    irregularity_sq: Fraction
    sigma_edges: Fraction
    sigma_vertices: Fraction
    directed_edges: int
    loops_flagged: bool

    def to_json(self):
        return {"schema": "free-stein/1", "kind": "graph",
                "t": _num(self.t), "t_exact": str(self.t),
                "irregularity_sq": _num(self.irregularity_sq),
                "sigma_edges": _num(self.sigma_edges),
                "sigma_vertices": _num(self.sigma_vertices),
                "directed_edges": self.directed_edges,
                "loops_flagged": self.loops_flagged}


def graph_sigma(g: GraphSpec) -> GraphSigmaReport:
    """Exact Stein data of the edge generators over the vertex algebra.

    With ``S = sum_v mu(v) sum_{w ~ v} n_{vw} mu(w)`` (loops counted once):
    ``t = 1 - sum mu^2 + S``, ``irregularity^2 = |directed edges| - S``,
    ``sigma(edges) = S`` and ``sigma(vertices) = 1 - sum mu^2``; the two
    dimensions add up to ``t`` exactly.
    """
    mu = dict(g.weights)
    sum_mu2 = sum((w * w for _, w in g.weights), Fraction(0))
    S = Fraction(0)
    for v, w, m in g.edges:
        if v == w:
            S += m * mu[v] * mu[v]
        else:
            S += 2 * m * mu[v] * mu[w]
    edir = g.directed_edge_count()
    t = 1 - sum_mu2 + S
    sig2 = edir - S
    sigma_x = edir - sig2
    sigma_y = 1 - sum_mu2
    return GraphSigmaReport(t=t, irregularity_sq=sig2, sigma_edges=sigma_x,
                            sigma_vertices=sigma_y, directed_edges=edir,
                            loops_flagged=g.has_loops)


# ---------------------------------------------------------------------------
# smoothed-kernel bound and the smoothing field
# ---------------------------------------------------------------------------


@dataclass
class EpsKernelReport:
    eps: float
    bound: float
    g_atoms: list
    g_grid: list
    g_l2: float

    def to_json(self):
        return {"schema": "free-stein/1", "kind": "eps-kernel",
                "eps": self.eps, "bound": self.bound,
                "g_atoms": self.g_atoms, "g_grid": self.g_grid,
                "g_l2": self.g_l2}


def _density_conv(dens, ts, eps: float):
    """Convolutions of the density with the field kernel
    ``(t-s)/((t-s)^2 + eps^2)`` and the bound kernel
    ``eps^4/((t-s)^2 + eps^2)^2`` at the points ``ts``: ``Re G`` and
    ``(-eps Im G + eps^2 Re G') / 2`` at ``t + i eps``."""
    G, dG = dens.cauchy(np.asarray(ts, dtype=float) + 1j * eps)
    return G.real, 0.5 * (eps * eps * dG.real - eps * G.imag)


def _smoothing_field(measure: MeasureModel, eps: float):
    """g(t) = 2 * integral of (t-s)/((t-s)^2 + eps^2) d mu(s), vectorized;
    the density contributes ``Re G(t + i eps)``."""
    atoms = measure.atoms
    dens = measure.density
    e2 = eps * eps

    def g(ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        val = np.zeros_like(ts)
        for loc, mass in atoms:
            d = ts - loc
            val += mass * d / (d * d + e2)
        if dens is not None:
            val += _density_conv(dens, ts, eps)[0]
        return 2.0 * val

    return g


def eps_kernel(measure: MeasureModel, eps: float,
               grid_points: int = 41) -> EpsKernelReport:
    """Squared distance of the smoothed difference-quotient kernel from the
    identity, ``bound = double integral of eps^4 / ((t-s)^2 + eps^2)^2``,
    together with the smoothing field ``g`` and its L2(mu) norm.

    The bound is nondecreasing in ``eps`` and converges to the sum of squared
    atom masses as ``eps -> 0``.
    """
    if not 0 < eps < math.inf:
        raise ModelError(f"eps must be finite and positive, not {eps}")
    e2 = eps * eps
    if e2 * e2 < sys.float_info.min:
        # the kernel at coinciding points would be 0/0
        raise ModelError(f"eps = {eps} is too small: eps**4 underflows "
                         f"below the least normal double")
    if e2 * e2 == math.inf:
        # the kernel at coinciding points would be inf/inf
        raise ModelError(f"eps = {eps} is too large: eps**4 overflows "
                         f"beyond the largest double")
    if grid_points < 0:
        raise ModelError(f"the grid needs a nonnegative number of points, "
                         f"not {grid_points}")
    atoms = measure.atoms
    dens = measure.density

    def kern(d):
        d = np.asarray(d, dtype=float)
        q = d * d + e2
        return e2 * e2 / (q * q)

    bound = 0.0
    for ta, ma in atoms:
        for tb, mb in atoms:
            bound += ma * mb * float(kern(ta - tb))
    if dens is not None:
        lo, hi = dens.support
        for ta, ma in atoms:
            bound += 2.0 * ma * float(_density_conv(dens, ta, eps)[1])
        bound += quadrature.adaptive(
            lambda ts: dens.pdf(ts) * _density_conv(dens, ts, eps)[1],
            lo, hi, tol=1e-9, max_depth=22)

    g = _smoothing_field(measure, eps)
    g_atoms = [(t, float(g(t)[0])) for t, _ in atoms]
    g_grid, l2 = [], sum(m * float(g(t)[0]) ** 2 for t, m in atoms)
    if dens is not None:
        lo, hi = dens.support
        grid = np.linspace(lo, hi, grid_points)
        g_grid = [(float(t), float(v)) for t, v in zip(grid, g(grid))]
        l2 += quadrature.adaptive(lambda ts: dens.pdf(ts) * g(ts) ** 2,
                                  lo, hi, tol=1e-8, max_depth=20)
    return EpsKernelReport(eps=float(eps), bound=float(bound),
                           g_atoms=g_atoms, g_grid=g_grid,
                           g_l2=float(math.sqrt(max(l2, 0.0))))


# ---------------------------------------------------------------------------
# logarithmic energy
# ---------------------------------------------------------------------------


def _log_potential(dens, xs) -> np.ndarray:
    """The energy's inner integral ``integral of rho(y) log|y - x| dy`` at
    the points ``xs``, in closed form."""
    # a module-level name, like _density_conv, so that the benchmark's traced
    # run (bench/probe.py) counts the inner integrals in the closedform layer
    return dens.log_potential(xs)


def log_energy(measure: MeasureModel) -> float:
    """Double integral of ``log|x - y|`` against the measure squared.

    Any atom puts positive mass on the diagonal and forces ``-inf``.  The
    adaptive outer pass refines at most 40 levels deep.
    """
    if measure.atoms:
        return float("-inf")
    dens = measure.density
    if dens is None:
        raise ModelError("measure has neither atoms nor a density")
    lo, hi = dens.support
    return quadrature.adaptive(
        lambda xs: dens.pdf(xs) * _log_potential(dens, xs),
        lo, hi, tol=1e-9, max_depth=40)


def staircase_energy_trail(levels: int):
    """Diagonal partial sums of the staircase measure with infinite energy.

    Level ``k`` places mass ``2^-k`` uniformly on an interval of length
    ``exp(-48^k)``; the self-energy of that block is exactly
    ``4^-k (log length - 3/2)``, every other contribution is nonpositive
    (the construction lives in [0, 1]), so the running sums are decreasing
    upper bounds of the total energy and diverge like ``-12^k``.
    """
    if levels < 1:
        raise ModelError("need at least one level")
    out = []
    total = Fraction(0)
    for k in range(1, levels + 1):
        length_log = -(Fraction(48) ** k)  # log of the interval length
        total += Fraction(1, 4 ** k) * (length_log - Fraction(3, 2))
        out.append((k, total))
    return out
