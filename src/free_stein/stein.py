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
``G[x, y] = tau(x* y)`` of scalar-B words (``TraceModel.moment_table``, one
product ``conj(V_x) V_y^T`` of two vector sets each model supplies), traces
too: ``tau(w) = G[0, w]`` centers each ``xi``, and the unit keeps ``tau = 1``.
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
from it and its words' traces, with exact coefficients, on the first read of
the field, so the sweeps, whose reports print only values, never build it.

The index structure of a Gram system -- its basis words, the legs, the leg
index that maps each leg to its table column, and the one split table --
depends on nothing but ``(n, d_proj)``, since B is scalar and the star
pairing does not enter.  It is built once per shape and process
(:func:`_layout`) and shared read-only, as are the split pairs and the view
blocks per shape and table pattern, and the prefix stack of each word list a
table is built over (``trace._prefix_stack``), so a one-shot CLI run builds
each once and a process that rebuilds models of one shape builds none
again.  The moment table, the columns of words beyond the legs, traced on
first use, and everything computed from them stay with each system; nothing
keyed by a model outlives it.  The layouts nest, so a degree sweep builds one
system at its largest ``d_proj`` and reads every point off its prefix views
(:func:`degree_sweep`).

The Gram matrix is eigendecomposed block by block (:func:`_eigh_blocks`):
the connected components of its structural pattern apart, one batched
``eigh`` per component size, under one cut at ``RCOND`` times the largest
eigenvalue over all components.  Symmetric models, whose odd moments
vanish, and free semicircular families, whose Wick words are orthogonal,
split into many components (94 for semicircular n=3 at ``d_proj`` 4); a
model without zeros is one block.  One labeller, min-label propagation over
an edge list (:func:`_min_labels`), finds them: a view's edges are its
structural upper entries ``(a, b)``, with no table value, so its blocks and
the places of its entries in the lower triangle, the one ``eigh`` reads,
are cached per shape, table pattern and size (:func:`_block_layout`); a
zero entry stays in its block.  The leg table's edges are its nonzeros
(:func:`_components`).  The per-size stacks, cut to their kept suffixes,
are a view's only eigenvectors, and no ``m x m`` array is formed.  The
candidate Gram is one block, under the views' cut.
"""

from __future__ import annotations

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
    builds it (``partial(_assemble_xi, system, words, traces, Y)``).  The
    first read calls it and stores the tuple in its place, dropping the
    traces and coefficients it held; sweeps that never print ``xi`` never
    build it.  The default is the empty tuple."""

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
    letters at ``d_proj``: ``(words, legs, start, splits, index)``.
    ``words`` are the basis words (degree 1 to ``d_proj + 1``) and ``legs``
    the split legs (degree 0 to ``d_proj``), in ``monomial_words`` order;
    the degree-e legs are ``start[e]:start[e + 1]``, the degree-e words one
    index lower.  ``splits`` holds the :func:`_split_index` arrays ``(word,
    letter, pre, suf)``, words numbered from 0, by letter, then word, then
    position, and their runs, one per (letter, word) pair: ``(owner,
    starts)``, the owner ``letter * m + word`` of each run and where it
    starts.  ``index`` maps each leg to its position, the table column that
    holds it.  With B scalar none of it depends on the model, so one
    read-only build per shape and process serves every Gram system of the
    shape, and a one-shot run builds it once."""
    system = GeneratorSystem(n)
    words = tuple(monomial_words(system, 1, d_proj + 1))
    legs = tuple(monomial_words(system, 0, d_proj))
    start = np.cumsum([0] + [n ** e for e in range(d_proj + 2)])
    word, letter, pre, suf = _split_index(n, start)
    word -= 1
    order = np.lexsort((word, letter))
    word, letter, pre, suf = word[order], letter[order], pre[order], suf[order]
    owner = letter * len(words) + word
    starts = np.flatnonzero(np.diff(owner, prepend=-1))
    splits = word, letter, pre, suf, owner[starts], starts
    for a in (start, *splits):
        a.setflags(write=False)
    index = MappingProxyType(dict(zip(legs, range(len(legs)))))
    return words, legs, start, splits, index


# ---------------------------------------------------------------------------
# Gram system over the truncated Jacobian range
# ---------------------------------------------------------------------------


class GramSystem:
    """Hermitian Gram data of the Jacobian-range basis, nested by degree.

    Basis elements are indexed by (slot, monomial); the Gram block over
    monomials is slot-independent, so only the word block is stored.  The
    i-th gradient entry of a basis word sums its splits ``pre (x) suf`` at
    ``t_i``, so ``W`` and the r-vectors sum products ``G[c, a] G[d, b]`` of
    the tracial moment table over splits.  ``W`` is kept once, as its
    structural upper entries by column, summed over the split pairs that
    reach them (:func:`_pair_index`), real when the table is; a view writes
    its prefix of them, conjugated, into the lower triangles of the blocks
    of its structural pattern (:func:`_block_layout`).  The r-vectors gather
    table columns at the one split table, every letter at once, and sum each
    (letter, word) run (:meth:`_by_letter`): columns of the legs (words of
    degree <= d_proj), read off the table at their positions in the leg
    index, and of longer kernel legs, traced on first use, one table call
    per batch, and kept.  Reports read :meth:`r_of_identity` and
    :meth:`r_of_candidates`; :meth:`r_of_kernel`, for exact kernels, is
    their test reference.  Scalar B only.  ``words``, ``_legs``, ``_start``,
    ``_splits`` and the leg index ``_index`` come from the read-only
    :func:`_layout` of ``(n, d_proj)``, the split pairs and the views' block
    layouts from those of ``_key``, the shape and table pattern; the table,
    the columns beyond the legs, the entries and the r-vectors are its own;
    views are not cached.
    """

    def __init__(self, model: TraceModel, d_proj: int):
        system = model.system
        _gram_guard(system, d_proj)
        self.model = model
        self.d_proj = d_proj
        (self.words, self._legs, self._start, self._splits,
         self._index) = _layout(system.n, d_proj)
        # the legs are built valid: only the cap is checked
        self._table = G = model._moment_table(self._legs)
        self._beyond = {}  # columns of words beyond the legs, as traced
        self._key = (system.n, d_proj, _components(G).tobytes())
        entry, pre, suf, a, b = _pair_index(*self._key)
        terms = G.ravel()[pre] * G.ravel()[suf]
        self._entries = v = np.bincount(entry, terms.real).astype(G.dtype)
        if v.dtype.kind == "c":
            v.imag = np.bincount(entry, terms.imag)
            v.imag[a == b] = 0  # a Hermitian diagonal is real

    def view(self, d: int | None = None) -> "_GramView":
        """``W[:k, :k]`` over the words spanning the tensor degree ``d``: its
        first entries, conjugated, scattered into its blocks' lower halves."""
        d = self.d_proj if d is None else d
        if not 1 <= d <= self.d_proj:
            raise StructureError(f"view degree {d} is not in 1..{self.d_proj}")
        k = int(self._start[d + 2]) - 1
        runs, mirror, size = _block_layout(*self._key, k)
        flat = np.zeros(size, dtype=self._entries.dtype)
        flat[mirror] = self._entries[:len(mirror)].conj()
        return _GramView(k, _eigh_blocks(
            [(idx, flat[at].reshape(*idx.shape, -1)) for idx, at in runs]))

    # r-vectors against the full basis ------------------------------------

    def _fetch(self, words) -> np.ndarray:
        """The columns ``G[:, p]`` of ``words``, stacked, ``[:, 0]`` their
        traces.  Legs are read at their positions in the shape's leg index,
        in one gather of table rows, conjugated: the table is exactly
        Hermitian.  Words beyond the legs are traced in one table call and
        kept."""
        index, beyond, G = self._index, self._beyond, self._table
        try:
            cols = G[[index[p] for p in words]]
        except KeyError:
            missing = [p for p in dict.fromkeys(words)
                       if p not in index and p not in beyond]
            if missing:
                table = self.model.moment_table(self._legs, missing)
                beyond.update(zip(missing, table.T))
            return np.array([G[:, index[p]] if p in index else beyond[p]
                             for p in words])
        return cols.conj() if cols.dtype.kind == "c" else cols

    def _by_letter(self, terms: np.ndarray) -> np.ndarray:
        """Per-split ``terms`` ``(..., splits)`` summed over each (letter,
        word) run into ``(..., letter, word)``: one ``reduceat``, one
        scatter."""
        *_, owners, starts = self._splits
        shape = terms.shape[:-1]
        out = np.zeros((*shape, self.model.n * len(self.words)), terms.dtype)
        out[..., owners] = np.add.reduceat(terms, starts, axis=-1)
        return out.reshape(*shape, self.model.n, -1)

    def r_of_kernel(self, A: KernelMatrix) -> np.ndarray:
        """r-vectors of a kernel matrix, one row per slot, its entries summed
        term by term, letter by letter; complex only when the result has an
        imaginary part."""
        words = list(dict.fromkeys(w for row in A.entries for entry in row
                                   for pq in entry.terms for w in pq))
        col = dict(zip(words, self._fetch(words)))
        _, letter, pre, suf, _, _ = self._splits
        acc = np.zeros((self.model.n, len(pre)), dtype=complex)
        for i, row in enumerate(A.entries):
            for j, entry in enumerate(row):
                at = letter == j
                for (p, q), c in entry.terms.items():
                    acc[i, at] += complex(c) * (col[p][pre[at]]
                                                * col[q][suf[at]])
        return real_if_exact(self._by_letter(acc).sum(axis=1))

    def r_of_candidates(self, words) -> np.ndarray:
        """r-rows of the monomial candidates ``words``, one row per word.

        ``comm(1) = 0``, so the centered candidate ``w - tau(w)`` in slot
        ``i`` has the kernel of ``w``, whose only nonzero row ``i`` holds
        ``1/2 (w x_p (x) 1 - w (x) x_p - x_p (x) w + 1 (x) x_p w)`` in entry
        ``j``, ``p = pi(j)``.  That row does not depend on the slot, and each
        of its terms is a product of two table columns gathered at the
        splits, so all words and letters take one pass.
        """
        gens = [(0, p, 0) for p in self.model.system.star_pairing]
        right = [v[:-1] + x for x in gens for v in words]  # w x_p
        left = [x[:-1] + v for x in gens for v in words]   # x_p w
        k, n = len(words), self.model.n
        cols = self._fetch(words + right + left + gens)
        w, unit, gen = cols[:k], self._table[:, 0], cols[k + 2 * n * k:]
        wx, xw = cols[k:k + 2 * n * k].reshape(2, n, k, -1).swapaxes(1, 2)
        _, letter, pre, suf, _, _ = self._splits
        acc = (wx[:, letter, pre] * unit[suf] - w[:, pre] * gen[letter, suf]
               - gen[letter, pre] * w[:, suf] + unit[pre] * xw[:, letter, suf])
        return self._by_letter(acc).sum(axis=1) / 2

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
        _, _, pre, suf, _, _ = self._splits
        unit = self._table[:, 0]  # the column of the unit, the first leg
        return real_if_exact(self._by_letter(unit[pre] * unit[suf]))


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
    """``(entry, pre, suf, a, b)``: the split pairs that can add to ``W``
    when the leg table has the :func:`_components` ``labels``.  ``W[a, b]``
    sums ``G[p, p'] G[s, s']`` over the splits ``a = p x_i s``, ``b = p'
    x_i s'``; ``G`` is zero between components, so only splits of one
    letter, prefix component and suffix component pair.  The pairs with
    ``a <= b`` come by column, numbered ``entry`` among the structural
    entries, entry ``e`` at ``(a[e], b[e])``, so a view's are a prefix, then
    by the prefix degrees of ``a``'s split and ``b``'s, the order of the
    Kronecker sums by degree block this replaced, as flat indices ``p * L +
    p'``, ``s * L + s'`` into ``G``.  No table value enters, so one read-only
    build serves a shape and pattern, ``PAIR_INDEX_CACHE`` of them cached."""
    label = np.frombuffer(labels, dtype=np.intp)
    _, _, start, (word, letter, pre, suf, _, _), _ = _layout(n, d_proj)
    m, L, D = int(start[-1]) - 1, int(start[-2]), d_proj + 2
    degree = np.searchsorted(start, pre, side="right") - 1
    key = (letter * L + label[pre]) * L + label[suf]
    order = np.lexsort((word, key))
    k = key[order]
    kw = k * m + word[order]
    # split t, of the later word b, pairs with the splits s from the first
    # of its group to the last of its own word
    lo = np.searchsorted(k, k)
    count = np.searchsorted(kw, kw, side="right") - lo
    step = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    t, s = np.repeat(order, count), order[np.repeat(lo, count) + step]
    bins = word[t] * m + word[s]
    sort = np.argsort((bins * D + degree[s]) * D + degree[t])
    s, t, bins = s[sort], t[sort], bins[sort]
    first = np.diff(bins, prepend=-1) != 0
    index = (np.cumsum(first) - 1, pre[s] * L + pre[t], suf[s] * L + suf[t],
             *np.divmod(bins[first], m)[::-1])
    for x in index:
        x.setflags(write=False)
    return index


@lru_cache(maxsize=PAIR_INDEX_CACHE)
def _block_layout(n: int, d_proj: int, pattern: bytes, k: int) -> tuple:
    """``(runs, mirror, size)``: the blocks of the view ``W[:k, :k]`` of the
    table ``pattern``, the components of the edges ``(a, b)``, the first
    :func:`_pair_index` entries, those with ``b < k``, by :func:`_min_labels`;
    no table value enters, so an entry that is zero stays in its block.  Per
    size, ``runs`` holds the rows (by :func:`_size_runs`) and the slice of
    their stack in a buffer of ``size``, whose lower triangles take the
    entries' conjugates at ``mirror``, the places ``(b, a)``.  Read-only."""
    _, _, _, a, b = _pair_index(n, d_proj, pattern)
    count = np.searchsorted(b, k)
    a, b = a[:count], b[:count]
    label = _min_labels(a, b, k)
    # per row: the start of its row in its block, and its place there
    start, place = np.empty((2, k), dtype=int)
    runs, size = [], 0
    for idx in _size_runs(label):
        c, w = idx.shape
        start[idx] = size + w * (w * np.arange(c)[:, None] + np.arange(w))
        place[idx] = np.arange(w)
        runs.append((idx, slice(size, size + c * w * w)))
        size += c * w * w
    mirror = start[b] + place[a]
    for x in (mirror, *(idx for idx, _ in runs)):
        x.setflags(write=False)
    return tuple(runs), mirror, size


def _min_labels(u: np.ndarray, v: np.ndarray, size: int) -> np.ndarray:
    """Components of the graph on ``size`` nodes with the undirected edges
    ``(u[e], v[e])``, each node labelled with the smallest of its component:
    min-label propagation, each pass O(edges) work: one ``minimum.at`` per
    direction gives every node the least label of itself and its
    neighbours, then pointer jumping the label of that label."""
    label = np.arange(size)
    while True:
        new = label.copy()
        np.minimum.at(new, u, new[v])
        np.minimum.at(new, v, new[u])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _components(A: np.ndarray) -> np.ndarray:
    """Connected components of the nonzero pattern of the Hermitian ``A``,
    each row labelled with the smallest row of its component: the
    :func:`_min_labels` of its nonzeros as edges."""
    return _min_labels(*np.divmod(np.flatnonzero(A != 0), len(A)), len(A))


def _size_runs(label: np.ndarray) -> list:
    """The rows of the components of ``label``, one array per component
    size with a row per component: by size, then component, then row."""
    size = np.bincount(label, minlength=len(label))[label]
    order = np.lexsort((label, size))
    runs = np.flatnonzero(np.diff(size[order])) + 1
    return [idx.reshape(-1, size[idx[0]]) for idx in np.split(order, runs)]


def _eigh_blocks(blocks) -> list:
    """``(rows, vals, vecs, keep)`` per stack ``(rows, stack)`` of blocks
    of one size: one batched ``eigh``, ascending per block, and ``keep``,
    the pairs above ``RCOND`` times the top eigenvalue over all stacks, a
    suffix of each block, so the stack is cut to its widest one.  The cut is
    global: one per block would keep rounding of the whole matrix."""
    pairs = [(idx, *np.linalg.eigh(stack, UPLO="L")) for idx, stack in blocks]
    cut = RCOND * max(max(float(w[:, -1].max()) for _, w, _ in pairs), 1e-300)
    parts = []
    for idx, w, v in pairs:
        lo = w.shape[1] - int((w > cut).sum(axis=1).max())
        parts.append((idx, w[:, lo:], v[:, :, lo:], w[:, lo:] > cut))
    return parts


class _GramView:
    """The prefix ``W[:k, :k]`` of a :class:`GramSystem`: its
    :func:`_eigh_blocks` ``parts``, ``vals``, their kept eigenvalues in
    stack order, and isometric coordinates on the truncated projection
    range; ``cond`` is the top kept eigenvalue over the smallest."""

    def __init__(self, k: int, parts: list):
        self.k, self.parts = k, parts
        self.vals = np.concatenate([w[keep] for _, w, _, keep in parts])
        self.cond = float(self.vals.max() / self.vals.min())
        self._rows = np.concatenate([idx.ravel() for idx, *_ in parts])
        self._kept = np.concatenate([keep.ravel() for *_, keep in parts])

    def z(self, r_full: np.ndarray) -> np.ndarray:
        """Isometric coordinates of the projection, stacked over slots: the
        rows gathered once, in stack order, then one product per stack."""
        r, out = r_full.T[self._rows], []
        for idx, _, v, _ in self.parts:
            x, r = r[:idx.size].reshape(*idx.shape, -1), r[idx.size:]
            out.append((v.conj().swapaxes(1, 2) @ x).reshape(-1, x.shape[-1]))
        return np.concatenate(out)[self._kept].T / np.sqrt(self.vals)


# ---------------------------------------------------------------------------
# discrepancy and irregularity
# ---------------------------------------------------------------------------


def discrepancy(model: TraceModel, xi, scheme: DegreeScheme) -> DiscrepancyReport:
    """Truncated Stein discrepancy of the generators relative to ``xi``.

    Projects the deviation of the half-commutator kernel of the centered
    ``xi`` from the identity kernel onto the truncated Jacobian range and
    reports the Hilbert-Schmidt norm.  Nondecreasing in ``d_proj``.  The
    kernel's r-rows are ``xi``'s coefficients times its words' candidate rows,
    and ``xi`` is centered with the traces ``G[0, w]`` of their columns.
    """
    xi = tuple(xi)
    if len(xi) != model.n:
        raise StructureError("xi must have one entry per generator")
    gs = GramSystem(model, scheme.d_proj)
    words = sorted({w for x in xi for w in x.terms if len(w) > 1},
                   key=lambda w: (len(w), w))
    C = real_if_exact(np.array([[complex(x.terms.get(w, 0)) for w in words]
                                for x in xi]))
    rA = (C @ gs.r_of_candidates(words) if words
          else np.zeros((model.n, len(gs.words))))
    r = rA - gs.r_of_identity()
    # the traces G[0, w] of the words, and tau(1) = 1 below
    tau = {w: complex(t) for w, t in zip(words, gs._fetch(words)[:, 0])}
    xi = tuple(x - NCPoly.scalar(model.system, sum([complex(c) * tau.get(w, 1)
               for w, c in x.terms.items()], 0j)) for x in xi)
    trail = [(d, float(np.linalg.norm((view := gs.view(d)).z(r))))
             for d in range(1, scheme.d_proj + 1)]
    return DiscrepancyReport(
        value=trail[-1][1], scheme=scheme, gram_condition=view.cond,
        trail=trail, xi=xi,
        diagnostics={"basis_size": model.n * view.k, "kept_rank": len(view.vals)})


def _design_guard(system, scheme: DegreeScheme) -> None:
    """The Gram system's checks, then the design words' degree against the cap."""
    _gram_guard(system, scheme.d_proj)
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
    if gs is None:  # every check before the build, as in degree_sweep
        _design_guard(model.system, scheme)
        gs = GramSystem(model, scheme.d_proj)
    view = gs.view(scheme.d_proj)
    words = monomial_words(model.system, 1, scheme.d_xi)
    R, r1 = rows or (gs.r_of_candidates(words), gs.r_of_identity())
    Z = view.z(R[:len(words)]).T
    B = view.z(r1).T
    degrees = np.array([len(w) // 2 for w in words])
    return gs, view, words, degrees, Z, B


def _assemble_xi(system, words, traces, Y) -> tuple:
    """The candidate tuple ``xi_i = sum_k Y[k, i] (w_k - tau(w_k))`` with
    exact coefficients, ``traces[k] = tau(w_k)`` read off the table's unit
    row, and the unit term one exact sum over the kept words.  Coefficients
    up to ``RCOND`` times the largest in modulus over all slots are dropped
    as rounding of the solve: scaled with ``Y``, the cut stays orders of
    magnitude above that rounding, so a last-bit change of the solve does
    not add or remove a term."""
    cut = RCOND * float(np.abs(Y).max())
    xi = []
    for column in Y.T:
        terms, trace = {}, QQi(0)
        for w, t, c in zip(words, traces, column):
            if abs(c) > cut:
                c = QQi.of(complex(c))
                terms[w] = c
                trace = trace + c * QQi.of(complex(t))
        xi.append(NCPoly(system, terms) - NCPoly.scalar(system, trace))
    return tuple(xi)


def _estimate(model, scheme, design) -> SigmaReport:
    """The least-squares estimate over ``_xi_design``'s ``design``, with its
    trail over the candidate degrees."""
    gs, view, words, degrees, Z, B = design
    n, trail = model.n, []
    for dx in range(1, scheme.d_xi + 1):
        Zd = Z[:, degrees <= dx]
        # the last pass takes every candidate, so Y and its rank are Z's
        Y, _, rank, _ = np.linalg.lstsq(Zd, B, rcond=RCOND)
        trail.append((dx, float(np.linalg.norm(Zd @ Y - B))))
    value, traces = trail[-1][1], gs._fetch(words)[:, 0]
    return SigmaReport(
        sigma=n - value ** 2, irregularity=value, mode="estimate", trail=trail,
        scheme=scheme, xi=partial(_assemble_xi, model.system, words, traces, Y),
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
    traces = gs._fetch(words)[:, 0]
    Q = gs.candidate_gram(words)  # one block under the views' cut
    (_, w, v, _), = _eigh_blocks([(np.arange(len(Q))[None], Q[None])])
    T = v[0] / np.sqrt(w[0])  # all kept; Y = T U, ||xi(Y)||_2 = ||U||_F
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
        Y = T @ u
        value = float(np.linalg.norm(Z @ Y - B))
        diagnostics["radius"] = radius
        xi = (partial(_assemble_xi, model.system, words, traces, Y)
              if radius else ())
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


def _real_form(model: MatrixModel) -> np.ndarray:
    """The generator stack of ``model``, replaced by a real one that
    generates the same algebra when there is one.

    Each star pair ``(x_i, x_j)``, ``i <= j``, with ``x_j = conj(x_i)``
    entrywise (``x_i`` symmetric, as in every diagonal model) becomes ``(Re
    x_i, Im x_i)``, and a self-adjoint real ``x_i`` stays.  The map ``(x_i,
    x_j) -> ((x_i + x_j) / 2, (x_i - x_j) / 2i)`` is invertible, so it keeps
    every word span and every rank :func:`sigma_exact_fd` reads.  ``x_j =
    conj(x_i)`` is tested to rounding: within ``64 eps`` of the largest
    entry of ``x_i``, so ``u* = om ** (-j)`` passes for ``conj(om ** j)``.
    Any other model keeps its stack, real only when exactly so.
    """
    gens = np.stack(model.gen_mats)
    out = np.empty(gens.shape)
    for i, j in enumerate(model.system.star_pairing):
        x = gens[min(i, j)]
        mismatch = np.abs(gens[max(i, j)] - x.conj()).max()
        if mismatch > 64 * np.finfo(float).eps * np.abs(x).max():
            return real_if_exact(gens)
        out[i] = x.real if i <= j else x.imag
    return out


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
    generators are first replaced by a real tuple of the same algebra when
    the model has one (:func:`_real_form`: self-adjoint real generators and
    star pairs ``(x, conj x)``), which moves no rank.  The rows are real
    exactly when those generators and the B matrices are, and every step,
    the SVDs and the R factors included, runs in their dtype.

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
    # ev_b[b] = coords(b), real when the generators have a real form and the
    # B matrices are real
    gens = _real_form(model)
    bs = real_if_exact(np.stack(model.b_mats))
    C = coords.right(gens[:, None] @ bs[None])
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
    Every radius must be finite: the fit takes its logarithm.
    """
    pts = [(float(r), float(v)) for r, v in sweep]
    if bad := [r for r, _ in pts if not math.isfinite(r)]:
        raise StructureError(f"radius {bad[0]} is not finite; the log-log "
                             f"fit needs finite radii")
    pts = [(r, v) for r, v in pts if r > 0]
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
