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
``G[x, y] = tau(x* y)`` of scalar-B words (``TraceModel.moment_table``, which
forms the one product ``conj(V_x) V_y^T`` of the two vector sets each model
supplies).
Every trace model here is tracial, ``tau(b d*) = tau(d* b)``, so ``<a (x) b,
c (x) d> = G[c, a] G[d, b]``: the Gram matrix, the r-vectors and the
candidate Gram are sums of products of table entries.  ``W[a, b]`` sums
``G[p, p'] G[s, s']`` over the splits ``a = p x_i s``, ``b = p' x_i s'``,
and the table is zero between the components of its nonzero pattern, so
``W`` is kept as its structural upper entries, one gather and one bincount
over the split pairs of one letter whose prefixes, and suffixes, share a
component (:func:`_pair_index`); no dense ``W`` is formed.  The table is
real when no entry has an imaginary part, and then so are the Gram matrix,
its eigenvectors, the design and the solves.  No report builds an exact
kernel (``GramSystem.r_of_kernel`` sums one, as the test reference): the
r-row of a centered monomial candidate is read off table columns
(``GramSystem.r_of_candidates``), and the kernel is linear in ``xi``, so
:func:`discrepancy` takes a given ``xi``'s r-rows as its coefficients times
the rows of its words.  ``xi_i`` enters only row ``i`` of the kernel, and
that row does not depend on the slot, so the slots share one design with a
column per word and one candidate Gram over the words: the estimate is one
least-squares solve with a right-hand side per slot, and in the R-bounded
problem only the norm bound couples the slots.  Candidates stay a (word,
slot) coefficient matrix through the solves.  A report's ``xi`` is assembled
from it, with exact coefficients, on the first read of the field, so the
sweeps, whose reports print only values, never build it.

The index structure of a Gram system -- its basis words, the legs and the
per-letter split arrays -- depends on nothing but ``(n, d_proj)``, since B
is scalar and the star pairing does not enter.  It is built once per shape
and process (:func:`_layout`) and shared read-only, as are the split pairs
per shape and table pattern; the moment table and everything computed from
it stay with each system.  The layouts nest, so a degree sweep builds one
system at its largest ``d_proj`` and reads every point off its prefix views
(:func:`degree_sweep`).

The Gram matrix and the candidate Gram are eigendecomposed block by block
(:func:`_eigh_blocks`): the connected components of their exact nonzero
pattern apart, one batched ``eigh`` per component size, under one cut at
``RCOND`` times the largest eigenvalue over all components.  Symmetric
models, whose odd moments vanish, and free semicircular families, whose
Wick words are orthogonal, split into many components (94 for semicircular
n=3 at ``d_proj`` 4); a model without zeros is one block.  Min-label
propagation (:func:`_min_labels`, O(nnz) per pass) labels them: a view of
``W`` over the pattern's rows below it, its blocks filled by one scatter of
the entries (:func:`_block_layout`); dense tables over their nonzeros.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from types import MappingProxyType

import numpy as np

from .errors import DegreeCapError, ModelError, StructureError
from .fdalg import MatrixCoordinates
from .ncalg import GeneratorSystem, KernelMatrix, NCPoly
from .scalars import QQi
from .serialize import poly_tuple_to_json
from .trace import MatrixModel, TraceModel, real_if_exact

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


class _BuiltOnRead:
    """A report's ``xi`` field, given as the tuple or as a callable that
    builds it (``partial(_assemble_xi, model, words, Y)``).  The first read
    calls it and stores the tuple in its place, dropping the model and
    coefficients it held; sweeps that never print ``xi`` never build it.
    The default is the empty tuple."""

    def __set_name__(self, owner, name):
        self.slot = "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            return ()
        value = obj.__dict__[self.slot]
        if callable(value):
            value = obj.__dict__[self.slot] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.slot] = value


@dataclass
class DiscrepancyReport:
    value: float
    scheme: DegreeScheme
    gram_condition: float
    trail: list = field(default_factory=list)
    xi: tuple = _BuiltOnRead()
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
    xi: tuple = _BuiltOnRead()
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
        return {"schema": "free-stein/1", "kind": "alpha", "alpha": self.alpha,
                "window": self.window, "floored_points": self.floored}


# ---------------------------------------------------------------------------
# monomial bookkeeping
# ---------------------------------------------------------------------------


def monomial_words(system, dmin, dmax):
    """Canonical monomial words (with B-basis slots) of the given degrees,
    sorted by degree and then lexicographically: the degree-d words are the
    degree-(d-1) words, each followed by every (letter, slot) pair."""
    steps = [(l, s) for l in range(system.n) for s in range(system.b.dim)]
    level = [(s,) for s in range(system.b.dim)]
    words = []
    for d in range(dmax + 1):
        if d:
            level = [w + step for w in level for step in steps]
        if d >= dmin:
            words.extend(level)
    return words


def _split_index(n: int, offsets) -> tuple:
    """``(word, letter, left, right)`` index arrays of the splits ``word =
    left x_letter right`` of the words of degree >= 1, numbered by degree
    (the degree-e ones at ``offsets[e]:offsets[e + 1]``) and then
    lexicographically, so the split of the degree-e word at local index
    ``t`` after a prefix of degree ``j`` has ``t = (left * n + letter) *
    size(e - 1 - j) + right`` in local indices.  Splits come by degree, then
    by prefix degree, then by word."""
    sizes = np.diff(offsets)
    word, letter, left, right = ([np.zeros(0, dtype=int)] for _ in range(4))
    for e in range(1, len(sizes)):
        t = np.arange(sizes[e])
        for j in range(e):
            tail = sizes[e - 1 - j]
            word.append(offsets[e] + t)
            letter.append(t // tail % n)
            left.append(offsets[j] + t // (n * tail))
            right.append(offsets[e - 1 - j] + t % tail)
    return tuple(map(np.concatenate, (word, letter, left, right)))


@lru_cache(maxsize=None)
def _layout(n: int, d_proj: int) -> tuple:
    """The model-independent structure of a :class:`GramSystem` over ``n``
    letters at ``d_proj``: ``(words, legs, start, splits, degree_count)``.
    ``words`` are the basis words (degree 1 to ``d_proj + 1``) and ``legs``
    the split legs (degree 0 to ``d_proj``), in ``monomial_words`` order;
    the degree-e legs are ``start[e]:start[e + 1]``, the degree-e words one
    index lower.  ``splits`` holds per letter the splits by word and then
    position, as (owner word of each group, group starts, prefixes,
    suffixes).  With B scalar none of it depends on the model, so one
    read-only build serves every Gram system of the shape."""
    system = GeneratorSystem(n)
    words = tuple(monomial_words(system, 1, d_proj + 1))
    legs = tuple(monomial_words(system, 0, d_proj))
    start = np.cumsum([0] + [n ** e for e in range(d_proj + 2)])
    word, letter, pre, suf = _split_index(n, start)
    word -= 1
    order = np.argsort(word, kind="stable")
    splits = []
    for i in range(n):
        rows = order[letter[order] == i]
        own = word[rows]
        starts = np.flatnonzero(np.diff(own, prepend=-1))
        splits.append((own[starts], starts, pre[rows], suf[rows]))
    for a in [start, *itertools.chain.from_iterable(splits)]:
        a.setflags(write=False)
    # words of degree <= d + 1 span the tensor degree d
    degree_count = MappingProxyType({d: int(start[d + 2]) - 1
                                     for d in range(1, d_proj + 1)})
    return words, legs, start, tuple(splits), degree_count


# ---------------------------------------------------------------------------
# Gram system over the truncated Jacobian range
# ---------------------------------------------------------------------------


class GramSystem:
    """Hermitian Gram data of the Jacobian-range basis, nested by degree.

    Basis elements are indexed by (slot, monomial); the Gram block over
    monomials is slot-independent, so only the word block is stored.  The
    i-th gradient entry of a basis word sums its splits ``pre (x) suf`` at
    ``t_i``, so ``W`` and the r-vectors sum products ``G[c, a] G[d, b]`` of
    the tracial moment table over splits.  ``W`` is kept as its structural
    upper entries, each summed over the split pairs that can reach it
    (:func:`_pair_index`), real when the table is, and each view decomposes
    straight from them.  The r-vectors gather table columns at the
    per-letter split arrays: those of the legs (words of degree <= d_proj),
    and those of longer kernel legs, traced on first use, one table call
    per batch.  Reports read :meth:`r_of_identity` and
    :meth:`r_of_candidates`; :meth:`r_of_kernel`, for exact kernels, is
    their test reference.  Scalar B only.  ``words``, ``_legs``,
    ``_splits`` and ``_degree_count`` come from the read-only
    :func:`_layout` of ``(n, d_proj)``, the split pairs and the pattern of
    ``W`` from that of ``_key``, the shape and table pattern; the table,
    the entries and the r-vectors are its own; views are not cached.
    """

    def __init__(self, model: TraceModel, d_proj: int):
        system = model.system
        _gram_guard(system, d_proj)
        self.model = model
        self.d_proj = d_proj
        (self.words, self._legs, _, self._splits,
         self._degree_count) = _layout(system.n, d_proj)
        # the legs are built valid: only the cap is checked
        self._table = G = model._moment_table(self._legs)
        self._columns = dict(zip(self._legs, G.T))
        self._key = (system.n, d_proj, _components(G).tobytes())
        entry, pre, suf, *self._edges = _pair_index(*self._key)
        terms = G.ravel()[pre] * G.ravel()[suf]
        self._entries = v = np.bincount(entry, terms.real).astype(G.dtype)
        if v.dtype.kind == "c":
            v.imag = np.bincount(entry, terms.imag)
            row, col, eid = self._edges  # a Hermitian diagonal is real
            v.imag[eid[row == col]] = 0

    def view(self, d: int | None = None) -> "_GramView":
        """``W[:k, :k]``, one scatter of the entries into its blocks."""
        k = self._degree_count[self.d_proj if d is None else d]
        runs, pos, src, size = _block_layout(*self._key,
                                             self._labels(k).tobytes())
        v = self._entries
        flat = np.zeros(size, dtype=v.dtype)
        flat[pos] = np.concatenate([v, v.conj()])[src]
        return _GramView(k, *_eigh_blocks(
            [(idx, flat[at].reshape(*idx.shape, -1)) for idx, at in runs],
            k, v.dtype))

    def _labels(self, k: int) -> np.ndarray:
        """The :func:`_components` of ``W[:k, :k]``, propagated over the
        pattern's rows below ``k``; an entry that is zero links nothing."""
        row, col, eid = (x[:np.searchsorted(self._edges[0], k)]
                         for x in self._edges)
        keep = (col < k) & ((self._entries[eid] != 0) | (row == col))
        return _min_labels(col[keep],
                           np.flatnonzero(np.diff(row[keep], prepend=-1)))

    # r-vectors against the full basis ------------------------------------

    def _fetch(self, words):
        """Trace the columns ``G[:, p]`` of words ``p`` beyond the legs, in
        one table call."""
        missing = [p for p in dict.fromkeys(words) if p not in self._columns]
        if missing:
            table = self.model.moment_table(self._legs, missing)
            self._columns.update(zip(missing, table.T))

    def _gather(self, words) -> np.ndarray:
        """``G[:, p]`` over the legs, one row per word ``p``."""
        self._fetch(words)
        return np.array([self._columns[p] for p in words])

    def r_of_kernel(self, A: KernelMatrix) -> np.ndarray:
        """r-vectors of a kernel matrix, one row per slot; complex only when
        the result has an imaginary part."""
        self._fetch([w for row in A.entries for entry in row
                     for pq in entry.terms for w in pq])
        col = self._columns
        r = np.zeros((self.model.n, len(self.words)), dtype=complex)
        for i, row in enumerate(A.entries):
            for (owners, starts, pre, suf), entry in zip(self._splits, row):
                if entry.is_zero:
                    continue
                acc = np.zeros(len(pre), dtype=complex)
                for (p, q), c in entry.terms.items():
                    acc += complex(c) * (col[p][pre] * col[q][suf])
                r[i, owners] += np.add.reduceat(acc, starts)
        return real_if_exact(r)

    def r_of_candidates(self, words) -> np.ndarray:
        """r-rows of the monomial candidates ``words``, one row per word.

        ``comm(1) = 0``, so the centered candidate ``w - tau(w)`` in slot
        ``i`` has the kernel of ``w``, whose only nonzero row ``i`` holds
        ``1/2 (w x_p (x) 1 - w (x) x_p - x_p (x) w + 1 (x) x_p w)`` in entry
        ``j``, ``p = pi(j)``.  That row does not depend on the slot, and each
        of its terms is a product of two table columns gathered at the
        splits, so all words take one pass per letter.
        """
        gens = [(0, p, 0) for p in self.model.system.star_pairing]
        right = [[v[:-1] + x for v in words] for x in gens]  # w x_p
        left = [[x[:-1] + v for v in words] for x in gens]   # x_p w
        self._fetch(words + sum(right, []) + sum(left, []))
        w, unit = self._gather(words), self._columns[(0,)]
        R = 0
        for x, wx, xw, (owners, starts, pre, suf) in zip(
                gens, right, left, self._splits):
            wx, xw, gen = self._gather(wx), self._gather(xw), self._columns[x]
            mid = w[:, pre] * gen[suf]
            acc = wx[:, pre] * unit[suf] - mid - gen[pre] * w[:, suf]
            if x in words:
                # w = x_p: the kernel holds the middle terms as one term of
                # coefficient -1; summing it so keeps r_of_kernel's rounding
                k = words.index(x)
                acc[k] = wx[k, pre] * unit[suf] - 2 * mid[k]
            acc += unit[pre] * xw[:, suf]
            part = np.zeros((len(words), len(self.words)), dtype=acc.dtype)
            part[:, owners] = np.add.reduceat(acc, starts, axis=1)
            R = R + part
        return R / 2

    def candidate_gram(self, words) -> np.ndarray:
        """L2 Gram ``tau(v* w) - conj(tau(v)) tau(w)`` of the candidates ``w -
        tau(w)``, ``words`` those of degree 1 to d_xi in ``monomial_words``
        order; two slots are orthogonal.  The unit and the words are the first
        legs for d_xi <= d_proj, else one table call traces them."""
        k = len(words) + 1
        G = (self._table[:k, :k] if k <= len(self._legs)
             else self.model._moment_table([(0,)] + words))
        return G[1:, 1:] - np.outer(G[0, 1:].conj(), G[0, 1:])

    def r_of_identity(self) -> np.ndarray:
        """r-vectors of the identity kernel: row ``i`` sums ``1 (x) 1`` over
        the splits at letter ``i``, the products of the unit column."""
        unit = self._columns[(0,)]
        r = np.zeros((self.model.n, len(self.words)), dtype=unit.dtype)
        for i, (owners, starts, pre, suf) in enumerate(self._splits):
            r[i, owners] = np.add.reduceat(unit[pre] * unit[suf], starts)
        return real_if_exact(r)


def _gram_guard(system, d_proj: int) -> None:
    """The checks of a :class:`GramSystem` over ``system`` at ``d_proj``:
    scalar B, and the degree of its trace words against the cap."""
    if not system.scalar_b:
        raise StructureError(
            "half-commutator kernels exist over scalar coefficients only; "
            "use sigma_exact_fd for coefficient subalgebras")
    if 2 * (d_proj + 1) > system.cap:
        raise DegreeCapError(
            f"d_proj={d_proj} needs trace words of degree {2 * d_proj}, "
            f"beyond the cap {system.cap}")


# split pairs, and block layouts, cached; the workloads use at most 8 of
# each, and one dense pattern can hold over 100 MB of pairs
PAIR_INDEX_CACHE = 32


@lru_cache(maxsize=PAIR_INDEX_CACHE)
def _pair_index(n: int, d_proj: int, labels: bytes) -> tuple:
    """``(entry, pre, suf, row, col, eid)``: the split pairs that can add to
    ``W`` when the leg table has the :func:`_components` ``labels``.
    ``W[a, b]`` sums ``G[p, p'] G[s, s']`` over the splits ``a = p x_i s``,
    ``b = p' x_i s'``; ``G`` is zero between components, so only splits of
    one letter, prefix component and suffix component pair.  The pairs with
    ``a <= b`` come by ``(a, b)``, numbered ``entry`` among the structural
    entries, and then prefix degrees, the order of the Kronecker sums by
    degree block this replaced, as flat indices ``p * L + p'``, ``s * L +
    s'`` into ``G``.  Entry ``eid`` sits at ``(row, col)``, both triangles
    by row and column.  No table value enters, so one read-only build
    serves a shape and pattern, ``PAIR_INDEX_CACHE`` of them cached."""
    label = np.frombuffer(labels, dtype=np.intp)
    start = _layout(n, d_proj)[2]
    m, L, D = int(start[-1]) - 1, int(start[-2]), d_proj + 2
    word, letter, pre, suf = _split_index(n, start)
    word -= 1
    degree = np.searchsorted(start, pre, side="right") - 1
    key = (letter * L + label[pre]) * L + label[suf]
    order = np.lexsort((word, key))
    k = key[order]
    kw = k * m + word[order]
    # split q pairs with those from the first of its word in its group to
    # the end of the group
    lo = np.searchsorted(kw, kw)
    count = np.searchsorted(k, k, side="right") - lo
    step = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    s, t = np.repeat(order, count), order[np.repeat(lo, count) + step]
    bins = word[s] * m + word[t]
    sort = np.argsort((bins * D + degree[s]) * D + degree[t])
    s, t, bins = s[sort], t[sort], bins[sort]
    first = np.diff(bins, prepend=-1) != 0
    a, b = np.divmod(bins[first], m)
    off = np.flatnonzero(a < b)
    row, col = np.concatenate([a, b[off]]), np.concatenate([b, a[off]])
    order = np.lexsort((col, row))
    index = (np.cumsum(first) - 1, pre[s] * L + pre[t], suf[s] * L + suf[t],
             row[order], col[order],
             np.concatenate([np.arange(len(a)), off])[order])
    for x in index:
        x.setflags(write=False)
    return index


@lru_cache(maxsize=PAIR_INDEX_CACHE)
def _block_layout(n: int, d_proj: int, pattern: bytes, labels: bytes) -> tuple:
    """``(runs, pos, src, size)``: the blocks of the view of ``W`` with the
    component ``labels``.  Per size, ``runs`` holds the rows (by
    :func:`_size_runs`) and the slice of their stack in a buffer of
    ``size``, which takes at ``pos`` the entries inside components and then
    their conjugates below the diagonal, at ``src``.  Read-only, cached."""
    label = np.frombuffer(labels, dtype=np.intp)
    k = len(label)
    entry, _, _, row, col, eid = _pair_index(n, d_proj, pattern)
    at = np.flatnonzero(col[:np.searchsorted(row, k)] < k)
    at = at[label[row[at]] == label[col[at]]]
    # per row: the start of its row in its block, and its place there
    start, place = np.empty((2, k), dtype=int)
    runs, size = [], 0
    for idx in _size_runs(label):
        c, w = idx.shape
        start[idx] = size + w * (w * np.arange(c)[:, None] + np.arange(w))
        place[idx] = np.arange(w)
        runs.append((idx, slice(size, size + c * w * w)))
        size += c * w * w
    pos = start[row[at]] + place[col[at]]
    src = eid[at] + (row[at] > col[at]) * (int(entry[-1]) + 1)
    for x in (pos, src, *(idx for idx, _ in runs)):
        x.setflags(write=False)
    return tuple(runs), pos, src, size


def _min_labels(col: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Min-label propagation with pointer jumping over the columns ``col``
    of a pattern, row ``r``'s from ``starts[r]`` and its diagonal among
    them: each pass, O(nnz) work, gives every row the least label of itself
    and its neighbours, then the label of that label, down to the smallest
    row of its component."""
    label = np.arange(len(starts))
    while True:
        new = np.minimum.reduceat(label[col], starts)
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _components(A: np.ndarray) -> np.ndarray:
    """Connected components of the nonzero pattern of the Hermitian ``A``,
    each row labelled with the smallest row of its component: the
    :func:`_min_labels` of its flat nonzero list with the diagonal set."""
    m = len(A)
    linked = A != 0
    np.fill_diagonal(linked, True)
    flat = np.flatnonzero(linked)
    return _min_labels(flat % m, np.searchsorted(flat, m * np.arange(m)))


def _size_runs(label: np.ndarray) -> list:
    """The rows of the components of ``label``, one array per component
    size with a row per component: by size, then component, then row."""
    size = np.bincount(label, minlength=len(label))[label]
    order = np.lexsort((label, size))
    runs = np.flatnonzero(np.diff(size[order])) + 1
    return [idx.reshape(-1, size[idx[0]]) for idx in np.split(order, runs)]


def _eigh_blocks(blocks, m: int, dtype) -> tuple:
    """Eigenpairs ``(vals, vecs)`` above ``RCOND`` times the top eigenvalue,
    ascending, of the ``m x m`` direct sum of ``blocks``: (rows, stack)
    per component size, one batched ``eigh`` per stack.  The cut is global:
    one per component would keep rounding of the whole matrix."""
    vals, pairs = np.empty(m), []
    for idx, stack in blocks:
        w, v = np.linalg.eigh(stack)
        vals[idx] = w  # eigenpair j of a component sits at slot idx[c, j]
        pairs.append((idx, v))
    # scatter each eigenvector straight into the column of its sorted slot
    order = np.argsort(vals, kind="stable")
    rank = np.empty(m, dtype=int)
    rank[order] = np.arange(m)
    vecs = np.zeros((m, m), dtype=dtype)
    for idx, v in pairs:
        vecs[idx[:, :, None], rank[idx][:, None, :]] = v
    vals = vals[order]
    drop = m - np.count_nonzero(vals > RCOND * max(float(vals[-1]), 1e-300))
    return vals[drop:], vecs[:, drop:]


def _eigh_kept(A: np.ndarray) -> tuple:
    """:func:`_eigh_blocks` of the Hermitian ``A`` (the candidate Gram), its
    components gathered out of it: off them its entries are exact zeros."""
    return _eigh_blocks([(idx, A[idx[:, :, None], idx[:, None, :]])
                         for idx in _size_runs(_components(A))],
                        len(A), A.dtype)


class _GramView:
    """The prefix ``W[:k, :k]`` of a :class:`GramSystem`, decomposed block by
    block under one global cut (:func:`_eigh_blocks`), with isometric
    coordinates on the truncated projection range; ``cond`` is the top
    eigenvalue over the smallest kept one."""

    def __init__(self, k: int, vals: np.ndarray, vecs: np.ndarray):
        self.k, self.vals, self.vecs = k, vals, vecs
        self.cond = float(vals[-1] / vals[0])

    def z(self, r_full: np.ndarray) -> np.ndarray:
        """Isometric coordinates of the projection, stacked over slots."""
        r = r_full[:, :self.k]
        return (self.vecs.conj().T @ r.T).T / np.sqrt(self.vals)


# ---------------------------------------------------------------------------
# discrepancy and irregularity
# ---------------------------------------------------------------------------


def discrepancy(model: TraceModel, xi, scheme: DegreeScheme) -> DiscrepancyReport:
    """Truncated Stein discrepancy of the generators relative to ``xi``.

    Projects the deviation of the half-commutator kernel of the centered
    ``xi`` from the identity kernel onto the truncated Jacobian range and
    reports the Hilbert-Schmidt norm.  Nondecreasing in ``d_proj``.  The
    kernel's r-rows are ``xi``'s coefficients times its words' candidate rows.
    """
    xi = tuple(xi)
    if len(xi) != model.n:
        raise StructureError("xi must have one entry per generator")
    xi = tuple(model.centered(x) for x in xi)
    gs = GramSystem(model, scheme.d_proj)
    words = sorted({w for x in xi for w in x.terms if len(w) > 1},
                   key=lambda w: (len(w), w))
    C = real_if_exact(np.array([[complex(x.terms.get(w, 0)) for w in words]
                                for x in xi]))
    rA = (C @ gs.r_of_candidates(words) if words
          else np.zeros((model.n, len(gs.words))))
    r1 = gs.r_of_identity()
    trail = []
    for d in range(1, scheme.d_proj + 1):
        view = gs.view(d)
        value = float(np.linalg.norm(view.z(rA) - view.z(r1)))
        trail.append((d, value))
    return DiscrepancyReport(
        value=value, scheme=scheme, gram_condition=view.cond, trail=trail,
        xi=xi,
        diagnostics={"basis_size": model.n * view.k, "kept_rank": len(view.vals)})


def _design_guard(system, scheme: DegreeScheme) -> None:
    """The degree of the design words of ``scheme`` against the cap."""
    # kernel legs of a degree d_xi candidate meet the basis legs in words
    # of degree d_proj + d_xi + 1, which the Gram guard does not count
    need, cap = scheme.d_proj + scheme.d_xi + 1, system.cap
    if need > cap:
        raise DegreeCapError(
            f"d_xi={scheme.d_xi} with d_proj={scheme.d_proj} needs design "
            f"words of degree d_proj + d_xi + 1 = {need}, beyond the cap {cap}")


def _xi_design(model, scheme, gs=None, rows=None):
    """The design of the candidates ``w - tau(w)``, ``w`` a word of degree 1
    to ``d_xi``: ``(gs, view, words, degrees, Z, B)``.

    ``xi_i`` enters only row ``i`` of the kernel, and the r-row of a
    candidate does not depend on its slot, so all slots share one design:
    column ``k`` of ``Z`` (kept x words) holds the coordinates of word
    ``k``'s r-row, and column ``i`` of ``B`` (kept x n) those of the
    identity kernel's row ``i``.  ``degrees`` holds the degree of each word.
    Column ``i`` of a coefficient matrix ``Y`` (words x n) is the slot-``i``
    candidate :func:`_assemble_xi` builds, and its residual is ``Z Y - B``.

    A single report builds its Gram system at ``d_proj``.  A degree sweep
    passes its one system ``gs``, built at its largest ``d_proj``, and the
    r-rows ``rows = (R, r1)`` of its candidates and of the identity kernel:
    the words of a smaller ``d_xi`` are the first rows of ``R``, and the
    basis of a smaller ``d_proj`` the first columns, read by ``view(d_proj)``.
    """
    if gs is None:
        gs = GramSystem(model, scheme.d_proj)
    _design_guard(model.system, scheme)
    view = gs.view(scheme.d_proj)
    words = monomial_words(model.system, 1, scheme.d_xi)
    R, r1 = rows or (gs.r_of_candidates(words), gs.r_of_identity())
    Z = view.z(R[:len(words)]).T
    B = view.z(r1).T
    degrees = np.array([len(w) // 2 for w in words])
    return gs, view, words, degrees, Z, B


def _assemble_xi(model, words, Y) -> tuple:
    """The candidate tuple ``xi_i = sum_k Y[k, i] (w_k - tau(w_k))`` with
    exact coefficients, and the unit term one exact sum over the kept
    words.  Coefficients up to ``RCOND`` times the largest in modulus over
    all slots are dropped as rounding of the solve: scaled with ``Y``, the
    cut stays orders of magnitude above that rounding, so a last-bit change
    of the solve does not add or remove a term."""
    system = model.system
    cut = RCOND * float(np.abs(Y).max())
    xi = []
    for column in Y.T:
        terms, trace = {}, QQi(0)
        for w, c in zip(words, column):
            if abs(c) > cut:
                c = QQi.of(complex(c))
                terms[w] = c
                trace = trace + c * QQi.of(model.trace_word(w))
        xi.append(NCPoly(system, terms) - NCPoly.scalar(system, trace))
    return tuple(xi)


def _estimate(model, scheme, design) -> SigmaReport:
    """The least-squares estimate over ``_xi_design``'s ``design``, with its
    trail over the candidate degrees."""
    _, view, words, degrees, Z, B = design
    n, trail = model.n, []
    for dx in range(1, scheme.d_xi + 1):
        Zd = Z[:, degrees <= dx]
        # the last pass takes every candidate, so Y and its rank are Z's
        Y, _, rank, _ = np.linalg.lstsq(Zd, B, rcond=RCOND)
        trail.append((dx, float(np.linalg.norm(Zd @ Y - B))))
    value = trail[-1][1]
    sigma = n - value ** 2
    return SigmaReport(
        sigma=sigma, irregularity=value, mode="estimate", trail=trail,
        scheme=scheme, xi=partial(_assemble_xi, model, words, Y),
        gram_condition=view.cond,
        diagnostics={"candidates": n * len(words), "design_rank": n * int(rank)})


def irregularity_estimate(model: TraceModel, scheme: DegreeScheme) -> SigmaReport:
    """Minimize the truncated discrepancy over polynomial ``xi`` tuples.

    The kernel is linear in ``xi``, so this is a linear least-squares problem
    in the centered-monomial coefficients, one right-hand side per slot over
    the shared design; the minimum-norm solution is reported.  The estimate
    is nonincreasing in ``d_xi`` at fixed ``d_proj`` and converges to the
    free Stein irregularity as both knobs grow.
    """
    return _estimate(model, scheme, _xi_design(model, scheme))


def degree_sweep(model: TraceModel, dxi_max: int, offset: int = 2) -> list:
    """``irregularity_estimate`` at ``d_xi = 1 .. dxi_max`` with ``d_proj =
    d_xi + offset``, on one Gram system.

    Every point's basis words, legs and splits are a prefix of the largest
    point's, and its candidates the first words of the largest point's, so
    one :class:`GramSystem` at the largest ``d_proj`` and one pass of
    candidate and identity r-rows serve all points: point ``d_xi`` reads the
    view at its ``d_proj`` and its words' rows (see :func:`_xi_design`).
    Each report is the one ``irregularity_estimate`` gives for that point
    alone, up to the rounding of moment tables that a matrix model forms
    as one product over more words.  Every point is checked before any
    work, in order, so a sweep reaching beyond the cap fails before its
    first point, with the error of the first point beyond it.
    """
    schemes = [DegreeScheme(dx, dx + offset) for dx in range(1, dxi_max + 1)]
    if not schemes:
        raise StructureError("d_xi must be at least 1")
    for scheme in schemes:
        _gram_guard(model.system, scheme.d_proj)
        _design_guard(model.system, scheme)
    gs = GramSystem(model, schemes[-1].d_proj)
    words = monomial_words(model.system, 1, dxi_max)
    rows = gs.r_of_candidates(words), gs.r_of_identity()
    return [_estimate(model, scheme, _xi_design(model, scheme, gs, rows))
            for scheme in schemes]


def _kkt_multiplier(weights: np.ndarray, sv2: np.ndarray,
                    radius: float) -> float:
    """The multiplier ``lam >= 0`` at which ``||u(lam)||_F = radius > 0`` to
    the one tolerance ``tol = max(1e-10, 4 ulp(radius))``, where
    ``||u(lam)||^2 = sum_j weights[j] / (sv2[j] + lam)^2``; 0 when
    ``||u(0)|| - radius <= tol``, inside the ball or on its boundary.

    ``1/||u(lam)|| - 1/radius`` is increasing and concave in ``lam``, so
    Newton's method from ``lam = 0``, left of the root, never overshoots:
    up to rounding every step lands between the iterate and the root, and
    the iterates rise monotonically onto it, with no bracket (Moré &
    Sorensen, "Computing a trust region step", 1983).  The norm divides
    twice and the step takes the relative gap first, so a radius as small
    as 1e-300 neither overflows nor divides by zero.  The root is about
    ``sqrt(sum(weights)) / radius`` for a small radius; where that leaves
    the floats (a subnormal radius and unit weights), the multiplier
    overflows, and that raises ``ModelError``.  From ``radius`` =
    2**17 on, 1e-10 is less than 4 ulps of the radius, below the rounding
    of the norm itself, so the tolerance is 4 ulps there; a norm that never
    meets it raises ``ModelError``.
    """
    def size(lam):
        return math.sqrt(float(np.sum(weights / (sv2 + lam) / (sv2 + lam))))

    tol = max(1e-10, 4 * math.ulp(radius))
    lam = 0.0
    if (norm := size(lam)) - radius <= tol:
        return lam
    for _ in range(300):
        if abs(norm - radius) <= tol:
            return lam
        # d(1/||u||)/dlam = sum_j weights[j] / (sv2[j] + lam)^3 / ||u||^3
        slope = float(np.sum(weights / (sv2 + lam) ** 3))
        lam += norm ** 2 * ((norm - radius) / radius) / slope
        if np.isinf(lam):
            raise ModelError(f"the KKT multiplier overflows at the radius "
                             f"{radius!r}: it exceeds the largest float")
        norm = size(lam)
    raise ModelError(f"the KKT multiplier did not meet the radius {radius!r}: "
                     f"the norm stays {abs(norm - radius):.3g} from it")


def _bounded_solver(model: TraceModel, scheme: DegreeScheme):
    """The design, candidate Gram and whitened SVD of the norm-constrained
    problem, built once; returns the solve at one radius.

    The slots share the design and the candidate Gram, so one SVD serves
    all n right-hand sides; only the bound ``||xi||_2 <= radius`` couples
    them, through the Frobenius norm of the whitened coefficients and one
    KKT multiplier.  Every nonzero radius takes the one shrink ``u = Vh^H
    (num / (sv2 + lam))``: the multiplier is 0 inside the ball, and on its
    boundary Newton steps from 0 (:func:`_kkt_multiplier`) until the
    candidate norm matches the radius to 1e-10, or to 4 ulps of a radius of
    2**17 or more.  The shrink numerators and the per-singular-value
    weights, their squared moduli summed over the slots, are formed once.
    Each report holds ``xi`` as the deferred ``partial(_assemble_xi,
    ...)``, built on its first read: ``bounded``, ``sweep-radius`` and
    ``alpha`` never read it.
    """
    # the candidate Gram pairs two candidates of degree d_xi
    need, cap = 2 * scheme.d_xi, model.system.cap
    if need > cap:
        raise DegreeCapError(
            f"d_xi={scheme.d_xi} needs candidate Gram words of degree "
            f"2*d_xi = {need}, beyond the cap {cap}")
    gs, view, words, _, Z, B = _xi_design(model, scheme)
    qvals, qvecs = _eigh_kept(gs.candidate_gram(words))
    T = qvecs / np.sqrt(qvals)  # Y = T U, ||xi(Y)||_2 = ||U||_F
    U, sv, Vh = np.linalg.svd(Z @ T, full_matrices=False)
    svkeep = sv > RCOND * (sv[0] if len(sv) else 1.0)
    U, sv, Vh = U[:, svkeep], sv[svkeep], Vh[svkeep]
    num, sv2 = sv[:, None] * (U.conj().T @ B), sv ** 2
    weights = np.sum(np.abs(num) ** 2, axis=1)

    def solve(radius: float) -> DiscrepancyReport:
        if radius == 0:
            u = np.zeros((T.shape[1], model.n))
            diagnostics = {"multiplier": None, "boundary": True}
        else:
            lam = _kkt_multiplier(weights, sv2, radius)
            u = Vh.conj().T @ (num / (sv2 + lam)[:, None])
            diagnostics = {"multiplier": lam, "boundary": lam > 0}
            if lam:
                diagnostics["norm_gap"] = abs(float(np.linalg.norm(u))
                                              - radius)
        Y = T @ u
        value = float(np.linalg.norm(Z @ Y - B))
        diagnostics["radius"] = radius
        xi = partial(_assemble_xi, model, words, Y) if radius else ()
        return DiscrepancyReport(value=value, scheme=scheme,
                                 gram_condition=view.cond,
                                 trail=[(scheme.d_proj, value)], xi=xi,
                                 diagnostics=diagnostics)

    return solve


def irregularity_bounded(model: TraceModel, scheme: DegreeScheme,
                         radius: float) -> DiscrepancyReport:
    """Truncated irregularity under the constraint ``||xi||_2 <= radius``."""
    if not radius >= 0:
        raise StructureError(f"radius must be nonnegative, not {radius}")
    return _bounded_solver(model, scheme)(radius)


def radius_sweep(model: TraceModel, scheme: DegreeScheme, radii) -> list:
    """R-bounded irregularity along increasing radii, on one design."""
    radii = [float(r) for r in radii]
    if not all(r >= 0 for r in radii) or sorted(radii) != radii:
        raise StructureError("radii must be nonnegative and increasing")
    solve = _bounded_solver(model, scheme)
    return [(r, solve(r)) for r in radii]


# ---------------------------------------------------------------------------
# exact finite-dimensional free Stein dimension
# ---------------------------------------------------------------------------


def _reduce(X: np.ndarray) -> np.ndarray:
    """``X``, or its R factor ``qr(X, "r")`` when it is taller than wide.

    ``X = Q R`` with ``Q`` orthonormal, so ``R`` keeps the Gram ``X^H X``,
    the singular values and the row space up to ``Q``, in at most as many
    rows as columns.  A stack of matrices is reduced matrix by matrix in one
    batched ``qr``.
    """
    if X.shape[-2] > X.shape[-1]:
        return np.linalg.qr(X, mode="r")
    return X


def _extend(T: np.ndarray, C: np.ndarray, ev_b: np.ndarray) -> np.ndarray:
    """The rows ``a(u) M_ib`` of every row ``a(u)`` of ``T``, letter ``i``
    and B slot ``b``: the augmented rows of the words ``u x_i b``.

    A row ``(ev, S_1, ..., S_n)`` is ``1 + n D`` coordinate vectors of length
    D, and appending ``x_i b`` right-multiplies each by ``C_ib`` (one batched
    product), then adds the new split ``ev (x) ev(b)`` to ``S_i``.
    """
    n, nb, D, _ = C.shape
    r, width = T.shape
    Y = (T.reshape(-1, D) @ C).reshape(n, nb, r, width)
    split = (T[None, :, :D, None] * ev_b[:, None, None, :]).reshape(
        nb, r, D * D)
    for i in range(n):
        Y[i, :, :, D + i * D * D:D + (i + 1) * D * D] += split
    return Y.reshape(-1, width)


def sigma_exact_fd(model: MatrixModel, d: int = 3) -> SigmaReport:
    """Exact free Stein dimension of a matrix model by relation projection.

    Scans the kernel of the evaluation map on (B-interleaved) monomials of
    word degree up to ``d + 1``, closes the relation Jacobian rows under left
    sharp multiplication by the evaluated tensor algebra, and projects the
    rows of the identity kernel onto that module.  The value is nonincreasing
    in ``d`` and stabilizes once the defining relations are generated.

    No word table is formed.  A word ``w`` has the augmented row ``a(w) =
    (ev(w), S(w))`` of D + n*D*D coordinates: its evaluation and its split
    coordinates, ``S_l(w)`` the sum of ``ev(left) (x) ev(right)`` over the
    splits ``w = left x_l right``.  Appending a letter and a B slot is linear
    on the row, ``a(u x_i b) = a(u) M_ib``: ``ev -> ev C_ib`` with ``C_ib[a,
    :] = coords(f_a x_i b)``, and ``S_l -> S_l C_ib + delta_li ev(u) (x)
    ev(b)`` (:func:`_extend`).  The words of degree up to e are the B slots
    and the words ``u x_i b`` with ``u`` of degree up to e - 1.  So if ``Q
    T`` (``Q`` orthonormal) holds the rows of the words of degree up to e -
    1, those of degree up to e are, up to an orthonormal factor and the row
    order, the B-slot rows stacked on ``T M_ib`` over all (i, b), and ``T``
    becomes the R factor of that stack.  It never has more than D + n*D*D
    rows, however many words there are.

    At each degree, with ``[E^T | S_k] = Q [T_E | T_S]`` for the ``k`` words
    (``E`` their evaluations, D x k, and ``S_k`` their split coordinates),
    everything the value reads is read off ``E := T_E^T`` and ``S_k :=
    T_S``, exactly in exact arithmetic: ``E`` and ``T_E^T`` have the same
    singular values, so the same ``RCOND`` rank; ``|S_k|_F = |T_S|_F``; and
    the relation rows ``c^T S_k`` over ``E c = 0`` are the rows ``c'^T T_S``
    over ``T_E^T c' = 0`` (``c' = Q^T c`` runs over every vector).  Those
    span the row space of ``(I - V^T conj(V)) T_S``, where ``V`` holds the
    top right singular vectors of ``T_E^T``.  Translates are linear in the
    row, so the sharp translates of the rows of that projected stack span
    the same module as those of every relation.  The ``relations``
    diagnostic is ``k - rank`` with ``k`` the true word count, never the
    row count of ``T``.

    One rule keeps every stack small (:func:`_reduce`): a stack taller than
    wide is replaced by its R factor ``qr(., "r")``, which keeps its Gram,
    its singular values and, up to ``Q``, its row space.  It reduces the
    stacks of the recursion, the projected stack (``M_ij(Q T) = (Q (x) I)
    M_ij(T)``, so the translate singular values stay) and a batch of
    block-pair matrices ``M_ij`` before their SVDs.  A block-pair group of
    one pair goes to the SVD as it is: numpy's ``qr`` costs more per call
    than it saves on one small matrix.  Every step is an orthogonal
    factorization, so no Gram is formed and the cut is never squared.  The
    rows are real exactly when the model's generator and B matrices are,
    and every step, the SVDs and the R factors included, runs in their
    dtype.

    On the block pair (i, j) of ``A = (+) M_{k_i}`` that module is
    ``C^{k_i k_j} (x) span(M_ij)`` (see ``MatrixCoordinates.sharp_translates``),
    and the identity kernel meets it in a share ``lambda_i lambda_j / (k_i
    k_j)`` per multiplicity rank, so

        sigma_d = n - sum_{(i, j)} lambda_i lambda_j / (k_i k_j) rank(M_ij).

    The ranks count singular values above one global cut over all block
    pairs, never a cut per pair: ``RCOND`` times the larger of the top
    translate singular value and ``c_max * |S_k|_F``, with ``c_max`` the
    largest block-pair scale ``c_i c_j`` of the coordinates.  The second term
    is the floor of the projection's rounding, which is of the size of
    ``S_k``: without relations, or with only vanishing relation rows, the
    projected stack is that rounding and every rank is 0.
    """
    if not isinstance(model, MatrixModel):
        raise ModelError("exact mode requires a finite-dimensional matrix model")
    if d < 1:
        raise StructureError("d must be at least 1")
    system = model.system
    if d + 1 > system.cap:
        raise DegreeCapError(f"d={d} needs words of degree d + 1 = {d + 1}, "
                             f"beyond the cap {system.cap}")
    coords = MatrixCoordinates(model)
    n, D = model.n, coords.D
    # C[i, b][a, :] = coords(f_a x_i b) for the basis matrices f_a, and
    # ev_b[b] = coords(b), in the dtype of the model's data
    gens = real_if_exact(np.stack(model.gen_mats))
    bs = real_if_exact(np.stack(model.b_mats))
    C = coords.coords(coords.basis @ (gens[:, None] @ bs[None])[:, :, None])
    ev_b = coords.coords(bs)
    nb = len(bs)
    # block pairs grouped by shape, so each group is one batched translate
    # and one batched SVD: (shape, pair index arrays, pair weights)
    groups = {}
    c_max = max(c for _, _, c in coords.blocks) ** 2
    for i, (ki, li) in enumerate(model.blocks):
        for j, (kj, lj) in enumerate(model.blocks):
            groups.setdefault((ki, kj), []).append((i, j, li * lj / (ki * kj)))
    groups = [(shape, np.array([p[:2] for p in pairs]).T,
               [w for *_, w in pairs]) for shape, pairs in groups.items()]

    def value_at(T: np.ndarray, k: int) -> tuple:
        # E := T_E^T and S_k := T_S for the k words of degree up to dd + 1
        TS = T[:, D:]
        _, s, vh = np.linalg.svd(T[:, :D].T, full_matrices=False)
        rank = int(np.sum(s > RCOND * s[0]))
        V = vh[:rank]
        rows = _reduce(TS - V.T @ (V.conj() @ TS)).reshape(-1, n, D, D)
        svals = []
        for (ki, kj), (ii, jj), _ in groups:
            M = coords.sharp_translates(rows, ii, jj).reshape(
                len(ii), -1, n * ki * kj)
            svals.append(np.linalg.svd(_reduce(M) if len(ii) > 1 else M,
                                       compute_uv=False))
        # the projection leaves rounding of the size of S_k, not of the
        # projected stack: without relations, or with only vanishing relation
        # rows, the stack is that rounding, and the floor c_max |S_k| keeps
        # its translates out of the ranks
        top = max(float(s[:, 0].max()) for s in svals)
        # |S_k|_F over the real view of TS, which shares its memory: norm
        # would copy the strided view first
        parts = TS.view(TS.real.dtype)
        cut = RCOND * max(top, c_max * math.sqrt(
            np.einsum("ij,ij->", parts, parts)))
        # summed pair by pair in a fixed order: a dot product would reorder
        # the sum and move its last bits
        sig2 = sum(w * c for (*_, ws), s in zip(groups, svals)
                   for w, c in zip(ws, (s > cut).sum(axis=1).tolist()))
        return n - sig2, sig2, k - rank

    # the degree-0 words are the B slots, with no splits
    start = np.zeros((nb, D + n * D * D), dtype=np.result_type(C, ev_b))
    start[:, :D] = ev_b
    T, k, level = start, nb, nb
    trail = []
    for e in range(1, d + 2):
        T = _reduce(np.concatenate([start, _extend(T, C, ev_b)]))
        level *= n * nb
        k += level
        if e >= 2:
            sigma_d, sig2, nrel = value_at(T, k)
            trail.append((e - 1, sigma_d))
    sigma = trail[-1][1]
    return SigmaReport(
        sigma=sigma, irregularity=math.sqrt(max(sig2, 0.0)), mode="exact_fd",
        trail=trail,
        diagnostics={"relations": nrel, "algebra_dim": D,
                     "stabilized": len(trail) >= 2
                     and abs(trail[-1][1] - trail[-2][1]) < 1e-12})


# ---------------------------------------------------------------------------
# conjugate variables and the decay exponent
# ---------------------------------------------------------------------------


def conjugate_variable_check(model: TraceModel, xi, d: int = 4) -> ConjugateReport:
    """Residual of the conjugate-variable identity
    ``<xi, ev P> = <identity kernel, ev J P>`` over monomial test tuples,
    plus the Fisher information ``||xi||_2^2``.

    On the test word ``w`` in entry ``i``, the left side ``<xi_i, w> =
    tau(w* xi_i)`` is read off one table of the test words against the
    words of ``xi``.  The right side ``<1 (x) 1, d_i w>`` is ``conj(sum of
    tau(p) tau(s))`` over the splits ``w = p x_i s``, all traces read off
    one table of the unit against the test words.  The Fisher information
    reads the table over the words of ``xi``."""
    if d < 0:
        raise StructureError("d must be at least 0")
    xi = tuple(xi)
    if len(xi) != model.n:
        raise StructureError("xi must have one entry per generator")
    words = monomial_words(model.system, 0, d)
    xi_words = list(dict.fromkeys(w for x in xi for w in x.terms))
    col = {w: k for k, w in enumerate(xi_words)}
    # C[i, k]: the coefficient of xi_words[k] in xi_i
    C = np.zeros((model.n, len(xi_words)), dtype=complex)
    for row, x in zip(C, xi):
        for w, c in x.terms.items():
            row[col[w]] = complex(c)
    lhs = model.moment_table(words, xi_words) @ C.T
    unit = model.system.unit_word_terms()  # tau(w) = tau(1* w)
    tr = dict(zip(words, np.array([complex(c) for _, c in unit]).conj()
                  @ model._moment_table([u for u, _ in unit], words)))
    splits = np.zeros_like(lhs)
    for r, w in enumerate(words):
        for j in range(1, len(w), 2):
            splits[r, w[j]] += tr[w[:j]] * tr[w[j + 1:]]
    residual = float(np.abs(lhs - splits.conj()).max())
    fisher = float(np.sum(C.conj() @ model.moment_table(xi_words) * C).real)
    return ConjugateReport(residual=residual, fisher_info=fisher)


ALPHA_FLOOR = 1e-12


def alpha_estimate(sweep) -> AlphaReport:
    """Log-log decay slope of the R-bounded irregularity over the largest radii.

    Values at or below the floor of 1e-12 are clipped and flagged; when every
    point in the window sits at the floor the decay is reported as ``-inf``.
    The slope is clipped to the interval ``[-inf, 0]``: a positive irregularity
    limit forces slope zero.  A window of equal values has slope exactly 0.
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
    if len({v for _, v in window}) == 1:
        slope = 0.0  # a flat window; the fit would report its rounding
    else:
        xs = np.log([r for r, _ in window])
        ys = np.log([max(v, ALPHA_FLOOR) for _, v in window])
        slope = float(np.polyfit(xs, ys, 1)[0])
    return AlphaReport(alpha=min(slope, 0.0),
                       window=[r for r, _ in window], floored=floored)
