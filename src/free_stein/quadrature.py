"""Adaptive composite Gauss-Legendre quadrature.

Integrands are vectorized callables.  Sharp features are handled by interval
splitting: near-singular peaks of a known width are integrated in a rescaled
variable so the integrand is O(1)-smooth, and integrable endpoint
singularities (logs, square roots) are left to bisection, which concentrates
panels geometrically around them.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import QuadratureError

_PANEL_NODES = 16


@lru_cache(maxsize=None)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def panel_nodes(panels, n: int):
    """Flattened ``n``-point Gauss-Legendre nodes and weights over a list of
    ``(a, b)`` panels."""
    x, w = _leggauss(n)
    nodes, weights = [], []
    for a, b in panels:
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        nodes.append(mid + half * x)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


def _panel(f, a: float, b: float, n: int = _PANEL_NODES) -> float:
    x, w = _leggauss(n)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * float(np.sum(w * f(mid + half * x)))


def adaptive(f, a: float, b: float, tol: float = 1e-12, max_depth: int = 52) -> float:
    """Integrate ``f`` over ``[a, b]`` by bisection until panel estimates agree."""
    if a == b:
        return 0.0

    def rec(lo, hi, target, depth):
        whole = _panel(f, lo, hi)
        mid = 0.5 * (lo + hi)
        left = _panel(f, lo, mid)
        right = _panel(f, mid, hi)
        err = abs(whole - (left + right))
        # refining below the rounding floor of the panel values is pointless
        floor = 1e-15 * (abs(whole) + abs(left) + abs(right)) + 1e-300
        if err <= max(target, floor) or hi - lo <= 1e-15 * (abs(lo) + abs(hi) + 1.0):
            return left + right
        if depth >= max_depth:
            if err > 1e6 * max(target, floor):
                raise QuadratureError(
                    f"quadrature did not converge on [{lo}, {hi}] (err {err:.2e})")
            return left + right
        return (rec(lo, mid, target / 2, depth + 1)
                + rec(mid, hi, target / 2, depth + 1))

    return rec(float(a), float(b), tol, 0)


def integrate(f, a: float, b: float, tol: float = 1e-12,
              cuts=(), peaks=()) -> float:
    """Integrate with explicit split points and peak windows.

    ``cuts`` are points where the integrand is singular or non-smooth (the
    point itself is never evaluated); ``peaks`` are ``(center, width)`` pairs
    marking near-singular bumps that are integrated in the variable
    ``u = (s - center)/width``.
    """
    a, b = float(a), float(b)
    if b < a:
        return -integrate(f, b, a, tol, cuts, peaks)
    windows = []
    for c, w in peaks:
        if w <= 0:
            raise QuadratureError("peak width must be positive")
        lo, hi = c - 64.0 * w, c + 64.0 * w
        if hi > a and lo < b:
            windows.append((max(lo, a), min(hi, b), float(c), float(w)))
    windows.sort()
    pts = sorted({a, b, *(float(c) for c in cuts if a < float(c) < b),
                  *(x for win in windows for x in win[:2])})
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        if hi <= lo:
            continue
        win = next((w for w in windows if w[0] <= lo and hi <= w[1]), None)
        if win is not None:
            _, _, c, wd = win

            def g(u, c=c, wd=wd):
                return f(c + wd * u) * wd

            total += adaptive(g, (lo - c) / wd, (hi - c) / wd, tol)
        else:
            total += adaptive(f, lo, hi, tol)
    return total
