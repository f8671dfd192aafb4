"""Adaptive composite Gauss-Legendre quadrature by level-synchronous bisection
with a look-ahead subtree.

Integrands are vectorized callables.  ``adaptive`` refines breadth first: the
active panels of a level are arrays of endpoints, and one integrand call
evaluates the look-ahead subtree of the next ``k`` levels below all of them
(16 nodes a sub-panel).  ``k <= 3`` is the deepest look-ahead whose
sub-panels fit the fixed budget ``_SUBPANELS``, and one level when many
panels are active; like the depth-first rule, the look-ahead stops at the
halves of a panel too narrow to split.  Each panel's whole-panel estimate is
the half estimate its parent already computed.  The acceptance test runs
once over every panel of the subtree: a panel whose estimate agrees with the
sum of its halves is accepted, the rest are bisected into the next level with
half the tolerance, and only these refine masks are replayed level by level,
so the sums of sub-panels under accepted panels are thrown away.  Sub-panel
edges come from the same bisection and every sum from the same arithmetic,
and the panel totals are folded bottom-up in tree order, so the result is the
one a depth-first recursion gives, bit for bit.  ``integrate`` runs
``adaptive`` on each piece between given cut points.

Integrable endpoint singularities (logs, square roots) and interior kinks are
left to bisection, which concentrates panels geometrically around them.  The
integrands themselves carry no inner quadrature: the densities supply their
convolutions in closed form (see :mod:`free_stein.trace`).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre

from .errors import QuadratureError

_PANEL_NODES = 16
_LOOKAHEAD = 3     # most levels one integrand call evaluates
_SUBPANELS = 64    # most sub-panels it evaluates below several active panels


@lru_cache(maxsize=None)
def _leggauss(n: int):
    x, w = legendre.leggauss(n)
    return x, w


def _panel_sums(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Gauss-Legendre estimates over the panels ``[lo[i], hi[i]]``, from one
    call of ``f`` on all their nodes."""
    x, w = _leggauss(_PANEL_NODES)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * x
    vals = f(nodes.ravel())
    if np.shape(vals) != (nodes.size,):  # a constant integrand
        vals = np.broadcast_to(vals, (nodes.size,))
    return half * (w * vals.reshape(nodes.shape)).sum(axis=1)


@lru_cache(maxsize=64)
def _subtree(p: int, k: int):
    """The panels of levels 0..k below ``p`` panels, as flat indices of their
    left and right edges into the ``(p, 2**k + 1)`` table of bisection
    points, and the number of panels on each level above the last.

    Levels follow each other and run left to right, so the halves of entry
    ``i`` are entries ``p + 2*i`` and ``p + 2*i + 1``."""
    n = 1 << k
    row = np.arange(p)[:, None] * (n + 1)
    steps = [n >> j for j in range(k + 1)]
    lo = np.concatenate([(row + np.arange(0, n, s)).ravel() for s in steps])
    hi = np.concatenate([(row + np.arange(s, n + 1, s)).ravel()
                         for s in steps])
    return lo, hi, p << np.arange(k)


def _fold(levels) -> float:
    """Fold the panel totals bottom-up in tree order: a refined panel is the
    sum of its halves' totals, a leaf the sum of its two half estimates."""
    total = levels[-1][0]
    for pair, refine, every in reversed(levels[:-1]):
        if every:  # the level below holds the halves of every panel here
            total = np.where(refine, total[0::2] + total[1::2], pair)
        else:      # only the halves of the refined panels
            pair[refine] = total[0::2] + total[1::2]
            total = pair
    return float(total[0])


def adaptive(f, a: float, b: float, tol: float = 1e-12, max_depth: int = 52) -> float:
    """Integrate ``f`` over ``[a, b]`` by bisection until panel estimates agree.

    A panel is accepted when its estimate and the sum of its halves differ by
    at most ``tol / 2**depth`` (or by the rounding floor of the panel values),
    or when it is too narrow to split; otherwise both halves go to the next
    level.  The width floor, ``2**-42 (|lo| + |hi|) + 1e-15``, keeps the
    nodes of every panel below a split one more than an ulp inside it, so
    an integrand singular at an endpoint of ``[a, b]`` is not evaluated
    there.  One integrand call evaluates the next ``k <= 3`` levels below the
    active panels, as many as fit ``_SUBPANELS`` sub-panels (at least one
    level, none below ``max_depth`` and none below the halves of a panel too
    narrow to split).
    """
    if a == b:
        return 0.0
    lo, hi = np.array([float(a)]), np.array([float(b)])
    whole = np.empty(0)  # the active panels' estimates; [a, b] has none yet
    target, depth = tol, 0
    # per level: the sum of each panel's halves, the refined mask, and
    # whether the next level holds the halves of every panel or only of the
    # refined ones (the first level of the next look-ahead)
    levels = []
    while True:
        p = lo.size
        k = _LOOKAHEAD
        while k > 1 and p * ((2 << k) - 2) > _SUBPANELS:
            k -= 1
        k = max(1, min(k, max_depth - depth + 1))
        # bisect every active panel k times, then evaluate the panels of all
        # k levels (and the active ones without an estimate) in one call
        n = 1 << k
        edges = np.empty((p, n + 1))
        edges[:, 0], edges[:, n] = lo, hi
        s = n
        while s > 1:
            edges[:, s // 2::s] = 0.5 * (edges[:, :-1:s] + edges[:, s::s])
            s //= 2
        ilo, ihi, sizes = _subtree(p, k)
        flat = edges.ravel()
        lo, hi = flat[ilo], flat[ihi]
        m = lo.size - (p << k)
        # A panel at most 2**-42 (|lo| + |hi|) + 1e-15 wide is not split.
        # Below a panel that is split, the rule evaluates at most its
        # quarters, wider than 2**-44 (|lo| + |hi|), whose outermost node
        # lies (1 - 0.98940...) / 2 = 2**-7.56 of their width inside: over
        # 2**-51.6 (|lo| + |hi|), more than an ulp of either endpoint, so
        # no node rounds onto an edge.
        narrow = (hi[:m] - lo[:m] <= 2.0 ** -42 * (np.abs(lo[:m])
                                                   + np.abs(hi[:m])) + 1e-15)
        # the depth-first rule evaluates the halves of a panel too narrow to
        # split but nothing below them, so the look-ahead stops there too
        first = np.argmax(narrow)
        if narrow[first] and first < m - (p << (k - 1)):
            k = int(first // p + 1).bit_length()  # the narrow panel's level + 1
            m = p * ((1 << k) - 1)
            lo, hi = lo[:m + (p << k)], hi[:m + (p << k)]
            narrow, sizes = narrow[:m], sizes[:k]
        sums = np.concatenate(
            (whole, _panel_sums(f, lo[whole.size:], hi[whole.size:])))
        # the acceptance test on every panel of levels 0..k-1 at once
        left, right = sums[p::2], sums[p + 1::2]
        pair = left + right
        err = np.abs(sums[:m] - pair)
        mag = np.abs(sums)
        # refining below the rounding floor of the panel values is pointless
        floor = 1e-15 * (mag[:m] + mag[p::2] + mag[p + 1::2]) + 1e-300
        targets = [target]
        for _ in range(k - 1):
            targets.append(targets[-1] / 2)
        bound = np.maximum(np.repeat(targets, sizes), floor)
        refine = ~((err <= bound) | narrow)
        # replay the refine masks: a level's active panels are the halves of
        # the panels refined on the level above
        for j in range(k):
            start = p * ((1 << j) - 1)
            level = slice(start, start + (p << j))
            ref = refine[level]
            if j:
                ref &= active
            if depth + j >= max_depth:
                bad = np.flatnonzero(ref & (err[level] > 1e6 * bound[level]))
                if bad.size:
                    i = start + bad[0]
                    raise QuadratureError(
                        f"quadrature did not converge on [{float(lo[i])}, "
                        f"{float(hi[i])}] (err {float(err[i]):.2e})")
                ref[:] = False
            levels.append((pair[level], ref, j < k - 1))
            if not ref.any():
                return _fold(levels)
            active = np.repeat(ref, 2)
        lo, hi, whole = lo[m:][active], hi[m:][active], sums[m:][active]
        target, depth = targets[-1] / 2, depth + k


def integrate(f, a: float, b: float, tol: float = 1e-12, cuts=(),
              max_depth: int = 52) -> float:
    """:func:`adaptive` on each piece of ``[a, b]`` between the ``cuts``
    inside it.

    Cuts mark points where the integrand is not smooth, such as the knots of
    a piecewise-linear density: bisection would otherwise refine toward each
    of them from both sides.
    """
    a, b = float(a), float(b)
    if b < a:
        return -integrate(f, b, a, tol, cuts, max_depth)
    pts = [a, *sorted({float(c) for c in cuts if a < c < b}), b]
    return sum(adaptive(f, lo, hi, tol, max_depth)
               for lo, hi in zip(pts[:-1], pts[1:]))
