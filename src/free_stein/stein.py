"""Numerical core: degree-truncated Gram systems for Stein discrepancy,
irregularity and the free Stein dimension.

Truncation semantics
--------------------

The infima being approximated run over infinite-dimensional spaces; this
module replaces them by two degree knobs with separately monotone behavior:

* ``d_proj`` bounds the tensor degree of the Jacobian images spanning the
  projection range (monomial test polynomials of word degree up to
  ``d_proj + 1`` enter the basis).  Discrepancy values are nondecreasing in
  ``d_proj`` and converge to the untruncated value from below.
* ``d_xi`` bounds the polynomial degree of candidate conjugate-variable
  tuples.  Irregularity estimates are nonincreasing in ``d_xi`` at fixed
  ``d_proj``.

For matrix models the untruncated quantities are exact linear algebra:
a kernel matrix lies in the domain of the Jacobian adjoint iff it is
orthogonal to every relation Jacobian, so the squared irregularity is the
squared norm of the projection of the identity kernel onto the left-module
generated by those relation Jacobians (``sigma_exact_fd``); ``d`` bounds the
tensor degree of the spanning relation Jacobians, i.e. relations of word
degree up to ``d + 1`` are scanned.

Numbers enter the Gram and design path through one moment table,
``G[x, y] = tau(x* y)`` of scalar-B words.  Every trace model here is
tracial, ``tau(b d*) = tau(d* b)``, so ``<a (x) b, c (x) d> = G[c, a]
G[d, b]``: the Gram matrix, the r-vectors and the candidate Gram are sums
of products of table entries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegreeCapError, ModelError, StructureError
from .fdalg import MatrixCoordinates
from .ncalg import (KernelMatrix, NCPoly, TensorPoly, commutator_stein_kernel,
                    diff_quotient, generator_tuple)
from .scalars import QQi
from .serialize import poly_tuple_to_json
from .trace import MatrixModel, TraceModel

RCOND = 1e-10  # relative eigenvalue / singular-value cutoff for all solves


# ---------------------------------------------------------------------------
# degree scheme and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DegreeScheme:
    """Two truncation knobs; ``d_proj`` defaults to ``d_xi + 2`` so the
    projection basis covers the tensor degree ``d_xi + 1`` of the candidate
    kernels with one degree to spare."""

    d_xi: int
    d_proj: int | None = None

    def __post_init__(self):
        if self.d_xi < 1:
            raise StructureError("d_xi must be at least 1")
        if self.d_proj is None:
            object.__setattr__(self, "d_proj", self.d_xi + 2)
        if self.d_proj < 1:
            raise StructureError("d_proj must be at least 1")

    def to_json(self):
        return {"d_xi": self.d_xi, "d_proj": self.d_proj}


@dataclass
class DiscrepancyReport:
    value: float
    scheme: DegreeScheme
    gram_condition: float
    trail: list = field(default_factory=list)
    xi: tuple = ()
    diagnostics: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "schema": "free-stein/1",
            "kind": "discrepancy",
            "value": self.value,
            "scheme": self.scheme.to_json(),
            "gram_condition": self.gram_condition,
            "trail": [[d, v] for d, v in self.trail],
            "xi": poly_tuple_to_json(self.xi),
            "diagnostics": self.diagnostics,
        }


@dataclass
class SigmaReport:
    sigma: float
    irregularity: float
    mode: str  # "estimate" or "exact_fd"
    trail: list = field(default_factory=list)
    scheme: DegreeScheme | None = None
    xi: tuple = ()
    gram_condition: float = float("nan")
    diagnostics: dict = field(default_factory=dict)

    def to_json(self):
        cond = self.gram_condition
        out = {
            "schema": "free-stein/1",
            "kind": "sigma",
            "sigma": self.sigma,
            "irregularity": self.irregularity,
            "mode": self.mode,
            "trail": [[d, v] for d, v in self.trail],
            "gram_condition": cond if cond == cond else None,
            "diagnostics": self.diagnostics,
        }
        if self.scheme is not None:
            out["scheme"] = self.scheme.to_json()
        if self.xi:
            out["xi"] = poly_tuple_to_json(self.xi)
        return out


@dataclass
class ConjugateReport:
    residual: float
    fisher_info: float

    def to_json(self):
        return {"schema": "free-stein/1", "kind": "conjugate-check",
                "residual": self.residual, "fisher_info": self.fisher_info}


@dataclass
class AlphaReport:
    alpha: float
    window: list
    floored: int

    def to_json(self):
        alpha = self.alpha if math.isfinite(self.alpha) else "-inf"
        return {"schema": "free-stein/1", "kind": "alpha", "alpha": alpha,
                "window": self.window, "floored_points": self.floored}


# ---------------------------------------------------------------------------
# monomial bookkeeping
# ---------------------------------------------------------------------------


def monomial_words(system, dmin, dmax):
    """Canonical monomial words (with B-basis slots) of the given degrees."""
    words = []
    bdim = system.b.dim
    for d in range(dmin, dmax + 1):
        for letters in itertools.product(range(system.n), repeat=d):
            for slots in itertools.product(range(bdim), repeat=d + 1):
                w = [slots[0]]
                for j, l in enumerate(letters):
                    w.extend((l, slots[j + 1]))
                words.append(tuple(w))
    words.sort(key=lambda w: (len(w), w))
    return words


# ---------------------------------------------------------------------------
# Gram system over the truncated Jacobian range
# ---------------------------------------------------------------------------


def _moments(model: TraceModel, xs, ys=None) -> np.ndarray:
    """Moment table ``G[a, b] = tau(xs[a]* ys[b])`` of scalar-B words; without
    ``ys``, the Hermitian table over ``xs``, traced on its upper triangle."""
    system = model.system
    square = ys is None
    ys = xs if square else ys
    G = np.empty((len(xs), len(ys)), dtype=complex)
    for a, x in enumerate(xs):
        ((xstar, _),) = system.adjoint_word(x)
        for b in range(a if square else 0, len(ys)):
            ((w, _),) = system.mul_words(xstar, ys[b])
            G[a, b] = model.trace_word(w)
    if square:
        lower = np.tril_indices(len(xs), -1)
        G[lower] = G.T[lower].conj()
    return G


class GramSystem:
    """Hermitian Gram data of the Jacobian-range basis, nested by degree.

    Basis elements are indexed by (slot, monomial); the Gram block over
    monomials is slot-independent, so only the word block is stored.  The
    i-th gradient entry of a basis word sums its splits ``pre (x) suf`` at
    ``t_i``; ``W`` and the r-vectors sum products ``G[c, a] G[d, b]`` of the
    tracial moment table over splits, with rows on the legs (words of degree
    <= d_proj) and longer kernel legs traced on first use.  Scalar B only.
    """

    def __init__(self, model: TraceModel, d_proj: int):
        system = model.system
        if not system.scalar_b:
            raise StructureError(
                "half-commutator kernels exist over scalar coefficients only; "
                "use sigma_exact_fd for coefficient subalgebras")
        if 2 * (d_proj + 1) > system.cap:
            raise DegreeCapError(
                f"d_proj={d_proj} needs trace words of degree {2 * d_proj}, "
                f"beyond the cap {system.cap}")
        self.model = model
        self.d_proj = d_proj
        self.words = monomial_words(system, 1, d_proj + 1)
        self._legs = monomial_words(system, 0, d_proj)
        leg_index = {w: k for k, w in enumerate(self._legs)}
        G = _moments(model, self._legs)
        self._columns = dict(zip(self._legs, G.T))
        # per letter: (word, prefix, suffix) of each split, ordered by word,
        # kept as (owner word of each group, group starts, prefixes, suffixes)
        splits = [[] for _ in range(system.n)]
        for a, w in enumerate(self.words):
            for j in range(1, len(w), 2):
                splits[w[j]].append((a, leg_index[w[:j]], leg_index[w[j + 1:]]))
        self._splits = []
        for rows in splits:
            own, pre, suf = np.array(rows).T
            starts = np.flatnonzero(np.diff(own, prepend=-1))
            self._splits.append((own[starts], starts, pre, suf))
        m = len(self.words)
        W = np.zeros((m, m), dtype=complex)
        for owners, starts, pre, suf in self._splits:
            # one row of W per word: its splits against all splits
            for a, rows in zip(owners, np.split(np.arange(len(pre)), starts[1:])):
                block = G[pre[rows]][:, pre] * G[suf[rows]][:, suf]
                W[a, owners] += np.add.reduceat(block.sum(axis=0), starts)
        self.W = W
        # prefix index per tensor degree: words sorted by length
        self._degree_count = {}
        for d in range(1, d_proj + 1):
            limit = 2 * (d + 1) + 1  # tuple length of a degree d+1 word
            self._degree_count[d] = sum(1 for w in self.words if len(w) <= limit)
        self._views = {}

    def view(self, d: int | None = None) -> "_GramView":
        d = self.d_proj if d is None else d
        if d not in self._views:
            k = self._degree_count[d]
            self._views[d] = _GramView(self.W, k)
        return self._views[d]

    # r-vectors against the full basis ------------------------------------

    def _column(self, p) -> np.ndarray:
        """``G[:, p]`` over the legs."""
        col = self._columns.get(p)
        if col is None:
            col = self._columns[p] = _moments(self.model, self._legs, [p])[:, 0]
        return col

    def r_of_kernel(self, A: KernelMatrix) -> np.ndarray:
        r = np.zeros((self.model.n, len(self.words)), dtype=complex)
        for i, row in enumerate(A.entries):
            for (owners, starts, pre, suf), entry in zip(self._splits, row):
                if entry.is_zero:
                    continue
                acc = np.zeros(len(pre), dtype=complex)
                for (p, q), c in entry.terms.items():
                    acc += complex(c) * (self._column(p)[pre] * self._column(q)[suf])
                r[i, owners] += np.add.reduceat(acc, starts)
        return r

    def r_of_identity(self) -> np.ndarray:
        return self.r_of_kernel(KernelMatrix.identity(self.model.system))


class _GramView:
    """Eigendecomposed prefix of a :class:`GramSystem` with isometric
    coordinates on the truncated projection range."""

    def __init__(self, W: np.ndarray, k: int):
        self.k = k
        vals, vecs = np.linalg.eigh(W[:k, :k])
        top = float(vals[-1]) if len(vals) else 0.0
        keep = vals > RCOND * max(top, 1e-300)
        self.vals = vals[keep]
        self.vecs = vecs[:, keep]
        self.cond = float(top / self.vals[0]) if len(self.vals) else float("inf")

    def z(self, r_full: np.ndarray) -> np.ndarray:
        """Isometric coordinates of the projection, stacked over slots."""
        r = r_full[:, :self.k]
        return (self.vecs.conj().T @ r.T).T / np.sqrt(self.vals)


def _coords(model: MatrixModel) -> MatrixCoordinates:
    """The model's matrix coordinates, built on first use."""
    if "_fd_coords" not in model.__dict__:
        model._fd_coords = MatrixCoordinates(model)
    return model._fd_coords


# ---------------------------------------------------------------------------
# discrepancy and irregularity
# ---------------------------------------------------------------------------


def _kernel_partners(system) -> tuple:
    """The generators the half-commutator kernel pairs ``xi_j`` with:
    ``x_{pi(j)}`` for the star pairing ``pi``.

    The kernel meets the derivation ``d_j`` through the tensor inner
    product, whose adjoint turns ``x_j`` into ``x_j*``; on self-adjoint
    tuples ``pi`` is the identity and these are the generators.
    """
    X = generator_tuple(system)
    return tuple(X[j] for j in system.star_pairing)


def discrepancy(model: TraceModel, xi, scheme: DegreeScheme,
                with_trail: bool = True) -> DiscrepancyReport:
    """Truncated Stein discrepancy of the generators relative to ``xi``.

    Builds the half-commutator kernel of the centered ``xi``, projects its
    deviation from the identity kernel onto the truncated Jacobian range and
    reports the Hilbert-Schmidt norm.  Nondecreasing in ``d_proj``.
    """
    xi = tuple(xi)
    if len(xi) != model.n:
        raise StructureError("xi must have one entry per generator")
    xi = tuple(model.centered(x) for x in xi)
    A = commutator_stein_kernel(xi, _kernel_partners(model.system))
    gs = GramSystem(model, scheme.d_proj)
    rA = gs.r_of_kernel(A)
    r1 = gs.r_of_identity()
    trail = []
    for d in range(1, scheme.d_proj + 1) if with_trail else [scheme.d_proj]:
        view = gs.view(d)
        value = float(np.linalg.norm(view.z(rA) - view.z(r1)))
        trail.append((d, value))
    view = gs.view()
    return DiscrepancyReport(
        value=value, scheme=scheme, gram_condition=view.cond, trail=trail,
        xi=xi,
        diagnostics={"basis_size": model.n * view.k, "kept_rank": len(view.vals)})


def _xi_basis(model: TraceModel, d_xi: int):
    """Centered monomial candidates, slot by slot, sorted by degree."""
    system = model.system
    words = monomial_words(system, 1, d_xi)
    labels = []
    polys = []
    for w in words:
        p = model.centered(NCPoly.from_word(system, w))
        for i in range(system.n):
            labels.append((i, w))
            polys.append(tuple(p if j == i else NCPoly.zero(system)
                               for j in range(system.n)))
    return labels, polys


def _xi_design(model, scheme):
    """Z matrix of kernel coordinates per candidate, plus the identity target."""
    gs = GramSystem(model, scheme.d_proj)
    # kernel legs of a degree d_xi candidate meet the basis legs in words
    # of degree d_proj + d_xi + 1, which the Gram guard does not count
    need, cap = scheme.d_proj + scheme.d_xi + 1, model.system.cap
    if need > cap:
        raise DegreeCapError(
            f"d_xi={scheme.d_xi} with d_proj={scheme.d_proj} needs design "
            f"words of degree d_proj + d_xi + 1 = {need}, beyond the cap {cap}")
    view = gs.view()
    labels, candidates = _xi_basis(model, scheme.d_xi)
    X = _kernel_partners(model.system)
    Z = np.stack([view.z(gs.r_of_kernel(commutator_stein_kernel(cand, X))).reshape(-1)
                  for cand in candidates], axis=1)
    b = view.z(gs.r_of_identity()).reshape(-1)
    return gs, view, labels, candidates, Z, b


def _assemble_xi(model, labels, candidates, y):
    out = [NCPoly.zero(model.system) for _ in range(model.n)]
    for (i, _), cand, c in zip(labels, candidates, y):
        if abs(c) < 1e-14:
            continue
        out[i] = out[i] + cand[i] * QQi.of(complex(c))
    return tuple(out)


def irregularity_estimate(model: TraceModel, scheme: DegreeScheme) -> SigmaReport:
    """Minimize the truncated discrepancy over polynomial ``xi`` tuples.

    The kernel is linear in ``xi``, so this is a linear least-squares problem
    in the centered-monomial coefficients; the minimum-norm solution is
    reported.  The estimate is nonincreasing in ``d_xi`` at fixed ``d_proj``
    and converges to the free Stein irregularity as both knobs grow.
    """
    gs, view, labels, candidates, Z, b = _xi_design(model, scheme)
    trail = []
    for dx in range(1, scheme.d_xi + 1):
        mask = np.array([len(w) // 2 <= dx for _, w in labels])
        Zd = Z[:, mask]
        # the last pass takes every candidate, so its rank is that of Z
        yd, _, rank, _ = np.linalg.lstsq(Zd, b, rcond=RCOND)
        vd = float(np.linalg.norm(Zd @ yd - b))
        trail.append((dx, vd))
        if dx == scheme.d_xi:
            y = np.zeros(Z.shape[1], dtype=complex)
            y[mask] = yd
    value = trail[-1][1]
    sigma = model.n - value ** 2
    xi = _assemble_xi(model, labels, candidates, y)
    return SigmaReport(
        sigma=sigma, irregularity=value, mode="estimate", trail=trail,
        scheme=scheme, xi=xi, gram_condition=view.cond,
        diagnostics={"candidates": len(candidates), "design_rank": int(rank)})


def _candidate_gram(model: TraceModel, d_xi: int) -> np.ndarray:
    """Gram of the centered candidates of :func:`_xi_basis` in the L2 tuple
    norm: ``tau(v* w) - conj(tau(v)) tau(w)`` within a slot, zero across."""
    words = monomial_words(model.system, 1, d_xi)
    traces = np.array([model.trace_word(w) for w in words])
    Qw = _moments(model, words) - np.outer(traces.conj(), traces)
    return np.kron(Qw, np.eye(model.n))  # candidate k * n + i is in slot i


def _bounded_solver(model: TraceModel, scheme: DegreeScheme):
    """The design, candidate Gram and whitened SVD of the norm-constrained
    problem, built once; returns the solve at one radius.  Interior solutions
    reuse the unconstrained least squares; otherwise the KKT multiplier is
    found by bisection until the candidate norm matches the radius to 1e-10.
    """
    # the candidate Gram pairs two candidates of degree d_xi
    need, cap = 2 * scheme.d_xi, model.system.cap
    if need > cap:
        raise DegreeCapError(
            f"d_xi={scheme.d_xi} needs candidate Gram words of degree "
            f"2*d_xi = {need}, beyond the cap {cap}")
    gs, view, labels, candidates, Z, b = _xi_design(model, scheme)
    qvals, qvecs = np.linalg.eigh(_candidate_gram(model, scheme.d_xi))
    top = float(qvals[-1]) if len(qvals) else 0.0
    keep = qvals > RCOND * max(top, 1e-300)
    T = qvecs[:, keep] / np.sqrt(qvals[keep])  # y = T u, ||xi(y)||_2 = ||u||
    U, sv, Vh = np.linalg.svd(Z @ T, full_matrices=False)
    svkeep = sv > RCOND * (sv[0] if len(sv) else 1.0)
    U, sv, Vh = U[:, svkeep], sv[svkeep], Vh[svkeep]
    beta = U.conj().T @ b
    u_free = Vh.conj().T @ (beta / sv)

    def norm_at(lam):
        return float(np.linalg.norm(sv * beta / (sv ** 2 + lam)))

    def solve(radius: float) -> DiscrepancyReport:
        if radius == 0:
            u = np.zeros(T.shape[1])
            diagnostics = {"multiplier": None, "boundary": True}
        elif np.linalg.norm(u_free) <= radius + 1e-12:
            u = u_free
            diagnostics = {"multiplier": 0.0, "boundary": False}
        else:
            lo, hi = 0.0, max(sv[0] ** 2, 1.0)
            while norm_at(hi) > radius:
                hi *= 2.0
                if hi > 1e36:
                    raise ModelError("failed to bracket the KKT multiplier")
            for _ in range(300):
                lam = 0.5 * (lo + hi)
                if norm_at(lam) > radius:
                    lo = lam
                else:
                    hi = lam
                if abs(norm_at(lam) - radius) <= 1e-10:
                    break
            u = Vh.conj().T @ (sv * beta / (sv ** 2 + lam))
            diagnostics = {"multiplier": lam, "boundary": True,
                           "norm_gap": abs(float(np.linalg.norm(u)) - radius)}
        y = T @ u
        value = float(np.linalg.norm(Z @ y - b))
        diagnostics["radius"] = radius
        xi = _assemble_xi(model, labels, candidates, y) if radius else ()
        return DiscrepancyReport(value=value, scheme=scheme,
                                 gram_condition=view.cond,
                                 trail=[(scheme.d_proj, value)], xi=xi,
                                 diagnostics=diagnostics)

    return solve


def irregularity_bounded(model: TraceModel, scheme: DegreeScheme,
                         radius: float) -> DiscrepancyReport:
    """Truncated irregularity under the constraint ``||xi||_2 <= radius``."""
    if radius < 0:
        raise StructureError("radius must be nonnegative")
    return _bounded_solver(model, scheme)(radius)


def radius_sweep(model: TraceModel, scheme: DegreeScheme, radii) -> list:
    """R-bounded irregularity along increasing radii, on one design."""
    radii = [float(r) for r in radii]
    if any(r < 0 for r in radii) or sorted(radii) != radii:
        raise StructureError("radii must be nonnegative and increasing")
    solve = _bounded_solver(model, scheme)
    return [(r, solve(r)) for r in radii]


# ---------------------------------------------------------------------------
# exact finite-dimensional free Stein dimension
# ---------------------------------------------------------------------------


def sigma_exact_fd(model: MatrixModel, d: int = 3,
                   with_trail: bool = True) -> SigmaReport:
    """Exact free Stein dimension of a matrix model by relation projection.

    Scans the kernel of the evaluation map on (B-interleaved) monomials of
    word degree up to ``d + 1``, closes the relation Jacobian rows under left
    sharp multiplication by the evaluated tensor algebra, and projects the
    rows of the identity kernel onto that module.  The value is nonincreasing
    in ``d`` and stabilizes once the defining relations are generated.

    The relation rows are never formed one by one.  With ``E`` the
    evaluations (D x words) and ``S`` the split coordinates (words x n*D*D),
    the relation rows ``c^T S`` over ``E c = 0`` span the row space of
    ``(I - V^T conj(V)) S``, where ``V`` holds the top right singular vectors
    of ``E``.  That space has dimension at most n*D*D whatever the number of
    relations; translates are linear in the row, so the sharp translates of
    its orthonormal basis span the same module as those of every relation.
    """
    if not isinstance(model, MatrixModel):
        raise ModelError("exact mode requires a finite-dimensional matrix model")
    if d < 1:
        raise StructureError("d must be at least 1")
    coords = _coords(model)
    system = model.system
    n, D = model.n, coords.D

    # sorted by degree, so the words up to each degree are a prefix
    words = monomial_words(system, 0, d + 1)
    ev = {w: coords.coords(model.eval_word(w)) for w in words}
    E = np.stack([ev[w] for w in words], axis=1)
    # split coordinates of every derivation of every word
    S = np.zeros((len(words), n, D, D), dtype=complex)
    for k, w in enumerate(words):
        for j in range(1, len(w) // 2 + 1):
            left, right = w[:2 * j - 1], w[2 * j:]
            S[k, w[2 * j - 1]] += np.outer(ev[left], ev[right])
    S = S.reshape(len(words), n * D * D)

    unit_rows = np.zeros((n, n, D, D), dtype=complex)
    for i in range(n):
        unit_rows[i, i] = np.outer(coords.unit, coords.unit)
    unit_rows = unit_rows.reshape(n, n * D * D)

    def value_at(dd: int) -> tuple:
        k = sum(1 for w in words if len(w) <= 2 * (dd + 1) + 1)
        _, s, vh = np.linalg.svd(E[:, :k], full_matrices=False)
        rank = int(np.sum(s > RCOND * s[0]))
        V, Sk = vh[:rank], S[:k]
        R = Sk - V.T @ (V.conj() @ Sk)
        # the projection leaves rounding of the size of S, not of R: without
        # relations, or with only vanishing relation rows, R is that rounding
        _, s1, vh1 = np.linalg.svd(R, full_matrices=False)
        basis = vh1[s1 > RCOND * np.linalg.norm(Sk)]
        if not len(basis):
            return float(n), 0.0, k - rank
        G = coords.sharp_translates(basis.reshape(-1, n, D, D))
        _, s2, vh2 = np.linalg.svd(G, full_matrices=False)
        P = vh2[s2 > RCOND * s2[0]]
        sig2 = float(np.linalg.norm(P @ unit_rows.T) ** 2)
        return n - sig2, sig2, k - rank

    trail = []
    for dd in range(1, d + 1) if with_trail else [d]:
        sigma_d, sig2, nrel = value_at(dd)
        trail.append((dd, sigma_d))
    sigma = trail[-1][1]
    return SigmaReport(
        sigma=sigma, irregularity=math.sqrt(max(sig2, 0.0)), mode="exact_fd",
        trail=trail,
        diagnostics={"relations": nrel, "algebra_dim": D,
                     "stabilized": len(trail) >= 2
                     and abs(trail[-1][1] - trail[-2][1]) < 1e-12})


def join_free_factors(*reports: SigmaReport) -> SigmaReport:
    """Combine exact reports of free factors through the block-diagonal
    kernel: squared irregularities add, so the dimensions add as well."""
    if not reports:
        raise StructureError("need at least one factor report")
    sig2 = sum(r.irregularity ** 2 for r in reports)
    n = sum(r.sigma + r.irregularity ** 2 for r in reports)
    return SigmaReport(sigma=n - sig2, irregularity=math.sqrt(sig2),
                       mode="exact_fd",
                       diagnostics={"factors": len(reports),
                                    "construction": "block-diagonal"})


# ---------------------------------------------------------------------------
# conjugate variables, the adjoint action and the decay exponent
# ---------------------------------------------------------------------------


def conjugate_variable_check(model: TraceModel, xi, d: int = 4) -> ConjugateReport:
    """Residual of the conjugate-variable identity
    ``<xi, ev P> = <identity kernel, ev J P>`` over monomial test tuples,
    plus the Fisher information ``||xi||_2^2``."""
    xi = tuple(xi)
    if len(xi) != model.n:
        raise StructureError("xi must have one entry per generator")
    system = model.system
    unit = TensorPoly.unit(system)
    residual = 0.0
    for w in monomial_words(system, 0, d):
        p = NCPoly.from_word(system, w)
        for i in range(model.n):
            lhs = model.inner_l2(xi[i], p)
            rhs = model.inner_tensor(unit, diff_quotient(i, p))
            residual = max(residual, abs(lhs - rhs))
    fisher = float(sum(model.inner_l2(x, x).real for x in xi))
    return ConjugateReport(residual=residual, fisher_info=fisher)


def _partial_trace(model, t: TensorPoly, keep: int) -> NCPoly:
    """Trace out one leg: ``keep=0`` gives (1 (x) tau)(a (x) b) = tau(b) a,
    ``keep=1`` gives (tau (x) 1)(a (x) b) = tau(a) b."""
    acc = NCPoly.zero(t.system)
    for legs, c in t.terms.items():
        tr = model.trace_word(legs[1 - keep])
        if tr != 0:
            acc = acc + NCPoly.from_word(t.system, legs[keep], c * QQi.of(tr))
    return acc


def adjoint_action(model: TraceModel, eta, p: NCPoly, q: NCPoly,
                   eta_adj: NCPoly) -> NCPoly:
    """Divergence of the two-sided translate ``(p (x) q) # eta``.

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


def solve_adjoint_fd(model: MatrixModel, eta, d: int = 4):
    """Directly solve the defining adjoint relation in a matrix model.

    Returns ``(eta_adj, residual)`` where ``eta_adj`` is the least-squares
    divergence of the row ``eta`` over test monomials of degree <= d and the
    residual certifies membership in the adjoint domain.
    """
    if not isinstance(model, MatrixModel):
        raise ModelError("the direct adjoint solve needs a matrix model")
    eta = tuple(eta)
    coords = _coords(model)
    system = model.system
    eta_coords = []
    for t in eta:
        acc = np.zeros((coords.D, coords.D), dtype=complex)
        for (a, b), c in t.terms.items():
            acc += complex(c) * np.outer(coords.coords(model.eval_word(a)),
                                         coords.coords(model.eval_word(b)))
        eta_coords.append(acc)
    words = monomial_words(system, 0, d)
    rows = []
    rhs = []
    for w in words:
        rows.append(coords.coords(model.eval_word(w)).conj())
        total = complex(0)
        deg = len(w) // 2
        for j in range(1, deg + 1):
            left, right = w[:2 * j - 1], w[2 * j:]
            split = np.outer(coords.coords(model.eval_word(left)),
                             coords.coords(model.eval_word(right)))
            # <eta_letter, split> with the Frobenius pairing
            total += complex(np.vdot(split, eta_coords[w[2 * j - 1]]))
        rhs.append(total)
    M = np.stack(rows)
    rhs = np.array(rhs)
    sol, *_ = np.linalg.lstsq(M, rhs, rcond=RCOND)
    residual = float(np.linalg.norm(M @ sol - rhs))
    mat = coords.mat(sol)
    poly = matrix_to_poly(model, mat, d)
    return poly, residual


def matrix_to_poly(model: MatrixModel, mat: np.ndarray, d: int = 4) -> NCPoly:
    """Express a matrix as a polynomial in the model generators (least squares
    over monomials of degree <= d; exact when the words span the algebra)."""
    coords = _coords(model)
    words = monomial_words(model.system, 0, d)
    E = np.stack([coords.coords(model.eval_word(w)) for w in words], axis=1)
    target = coords.coords(mat)
    sol, *_ = np.linalg.lstsq(E, target, rcond=RCOND)
    if np.linalg.norm(E @ sol - target) > 1e-8 * max(np.linalg.norm(target), 1.0):
        raise ModelError("matrix is not a polynomial of the given degree")
    acc = NCPoly.zero(model.system)
    for w, c in zip(words, sol):
        if abs(c) > 1e-13:
            acc = acc + NCPoly.from_word(model.system, w, QQi.of(complex(c)))
    return acc


ALPHA_FLOOR = 1e-12


def alpha_estimate(sweep) -> AlphaReport:
    """Log-log decay slope of the R-bounded irregularity over the largest radii.

    Values at or below the floor of 1e-12 are clipped and flagged; when every
    point in the window sits at the floor the decay is reported as ``-inf``.
    The slope is clipped to the interval ``[-inf, 0]``: a positive irregularity
    limit forces slope zero.
    """
    pts = [(float(r), float(v)) for r, v in sweep if float(r) > 0]
    if len(pts) < 3:
        raise StructureError("need at least 3 positive-radius points")
    if sorted(r for r, _ in pts) != [r for r, _ in pts]:
        raise StructureError("radii must be increasing")
    window = pts[max(len(pts) - max(3, len(pts) // 2), 0):]
    floored = sum(1 for _, v in window if v <= ALPHA_FLOOR)
    if floored == len(window):
        return AlphaReport(alpha=float("-inf"),
                           window=[r for r, _ in window], floored=floored)
    xs = np.log([r for r, _ in window])
    ys = np.log([max(v, ALPHA_FLOOR) for _, v in window])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return AlphaReport(alpha=min(slope, 0.0),
                       window=[r for r, _ in window], floored=floored)
