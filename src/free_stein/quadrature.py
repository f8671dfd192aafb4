"""Adaptive composite Gauss-Legendre quadrature by level-synchronous bisection.

Integrands are vectorized callables.  ``adaptive`` refines breadth first: the
active panels of a level are arrays of endpoints, both halves of every panel
are evaluated in one integrand call (16 nodes a half), and each panel's
whole-panel estimate is the half estimate its parent already computed.  A
panel whose estimate agrees with the sum of its halves is accepted; the rest
are bisected into the next level with half the tolerance.  The children of a
level are ordered left to right, and the panel totals are folded bottom-up in
tree order, so the result is the one a depth-first recursion gives, bit for
bit, at one integrand call per level.  ``integrate`` runs ``adaptive`` on
each piece between given cut points.

Integrable endpoint singularities (logs, square roots) and interior kinks are
left to bisection, which concentrates panels geometrically around them.  The
integrands themselves carry no inner quadrature: the densities supply their
convolutions in closed form (see :mod:`free_stein.trace`).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count

import numpy as np
from numpy.polynomial import legendre

from .errors import QuadratureError

_PANEL_NODES = 16


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
    vals = np.broadcast_to(f(nodes.ravel()), (nodes.size,))
    return half * np.sum(w * vals.reshape(nodes.shape), axis=1)


def adaptive(f, a: float, b: float, tol: float = 1e-12, max_depth: int = 52) -> float:
    """Integrate ``f`` over ``[a, b]`` by bisection until panel estimates agree.

    A panel is accepted when its estimate and the sum of its halves differ by
    at most ``tol / 2**depth`` (or by the rounding floor of the panel values),
    or when it is too narrow to split; otherwise both halves go to the next
    level.
    """
    if a == b:
        return 0.0
    lo, hi = np.array([float(a)]), np.array([float(b)])
    whole = _panel_sums(f, lo, hi)
    target = tol
    levels = []  # per level: the sum of each panel's halves, refined mask
    for depth in count():
        mid = 0.5 * (lo + hi)
        halves = _panel_sums(f, np.column_stack((lo, mid)).ravel(),
                             np.column_stack((mid, hi)).ravel())
        left, right = halves[0::2], halves[1::2]
        pair = left + right
        err = np.abs(whole - pair)
        # refining below the rounding floor of the panel values is pointless
        floor = 1e-15 * (np.abs(whole) + np.abs(left) + np.abs(right)) + 1e-300
        bound = np.maximum(target, floor)
        narrow = hi - lo <= 1e-15 * (np.abs(lo) + np.abs(hi) + 1.0)
        refine = ~((err <= bound) | narrow)
        if depth >= max_depth:
            bad = np.flatnonzero(refine & (err > 1e6 * bound))
            if bad.size:
                i = bad[0]
                raise QuadratureError(
                    f"quadrature did not converge on [{float(lo[i])}, "
                    f"{float(hi[i])}] (err {float(err[i]):.2e})")
            refine[:] = False
        levels.append((pair, refine))
        if not refine.any():
            break
        lo = np.column_stack((lo[refine], mid[refine])).ravel()
        hi = np.column_stack((mid[refine], hi[refine])).ravel()
        whole = halves.reshape(-1, 2)[refine].ravel()
        target = target / 2
    # fold bottom-up in tree order: a refined panel is the sum of its halves'
    # totals, a leaf the sum of its two half estimates
    total = levels[-1][0]
    for pair, refine in reversed(levels[:-1]):
        pair[refine] = total[0::2] + total[1::2]
        total = pair
    return float(total[0])


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
