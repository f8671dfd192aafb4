"""Level-synchronous adaptive quadrature against the recursive rule it
replaced."""

from collections import Counter

import numpy as np
import pytest

from free_stein import quadrature
from free_stein.closedform import eps_kernel, log_energy
from free_stein.errors import QuadratureError
from free_stein.trace import (MeasureModel, SemicircleDensity, TableDensity,
                              UniformDensity)


def _panel_reference(f, a, b, n=16):
    x, w = quadrature._leggauss(n)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * float(np.sum(w * f(mid + half * x)))


def _adaptive_reference(f, a, b, tol=1e-12, max_depth=52):
    """The depth-first rule: one 16-point integrand call per panel, and the
    whole panel evaluated again at every node.  Oracle only."""
    if a == b:
        return 0.0

    def rec(lo, hi, target, depth):
        whole = _panel_reference(f, lo, hi)
        mid = 0.5 * (lo + hi)
        left = _panel_reference(f, lo, mid)
        right = _panel_reference(f, mid, hi)
        err = abs(whole - (left + right))
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


def _both(compute, monkeypatch):
    """``compute()`` under the level-synchronous rule, then under the oracle."""
    new = compute()
    with monkeypatch.context() as m:
        m.setattr(quadrature, "adaptive", _adaptive_reference)
        old = compute()
    return new, old


def _plateau():
    return MeasureModel([(3.0, 0.5)], SemicircleDensity(mass=0.5))


def _table():
    return TableDensity([(0.0, 0.0), (0.3, 1.0), (0.5, 0.2), (1.0, 1.5),
                         (2.0, 0.0)])


@pytest.mark.parametrize("eps", [0.1, 0.01, 0.001])
def test_eps_kernel_bit_identical_to_recursive_rule(eps, monkeypatch):
    def compute():
        r = eps_kernel(_plateau(), eps)
        return r.bound, r.g_l2, r.g_grid, r.g_atoms

    new, old = _both(compute, monkeypatch)
    assert new == old


@pytest.mark.parametrize("density", [lambda: UniformDensity(0, 1),
                                     SemicircleDensity],
                         ids=["uniform", "semicircle"])
def test_log_energy_bit_identical_to_recursive_rule(density, monkeypatch):
    new, old = _both(lambda: log_energy(MeasureModel([], density())),
                     monkeypatch)
    assert new == old


def test_density_integrals_bit_identical_to_recursive_rule(monkeypatch):
    table, uniform, semicircle = _table(), UniformDensity(-1, 2), SemicircleDensity()

    def compute():
        return (quadrature.integrate(lambda t: np.cos(3.0 * t) * table.pdf(t),
                                     0.0, 2.0, cuts=(*table.xs, 0.7)),
                # a peak of width 1e-3, cut at its center
                quadrature.integrate(
                    lambda t: 1e-3 / ((t - 0.4) ** 2 + 1e-6) * uniform.pdf(t),
                    -1.0, 2.0, cuts=(0.4,)),
                quadrature.integrate(
                    lambda t: np.abs(t - 0.3) ** 0.5 * semicircle.pdf(t),
                    -2.0, 2.0, cuts=(0.3,)),
                # deep refinement toward an endpoint singularity
                quadrature.adaptive(lambda x: np.sqrt(x) * np.log(x), 0.0, 1.0))

    new, old = _both(compute, monkeypatch)
    assert new == old


def test_non_convergence_message_matches_recursive_rule():
    # two jumps: the message names the leftmost failing panel
    def step(x):
        return np.where(x < 0.3, 0.0, 1.0) + np.where(x < 0.7, 0.0, 2.0)

    for depth in (3, 8):
        with pytest.raises(QuadratureError) as old:
            _adaptive_reference(step, 0.0, 1.0, max_depth=depth)
        with pytest.raises(QuadratureError) as new:
            quadrature.adaptive(step, 0.0, 1.0, max_depth=depth)
        assert str(new.value) == str(old.value)


def test_one_integrand_call_per_level():
    calls = Counter()

    def counted(f):
        def g(x):
            calls[f.__name__] += 1
            return f(x)
        return g

    def sqrt_log(x):
        return np.sqrt(x) * np.log(x)

    def step(x):
        return np.where(x < 0.3, 0.0, 1.0)

    quadrature.adaptive(counted(sqrt_log), 0.0, 1.0)
    assert calls["sqrt_log"] <= 52 + 2
    with pytest.raises(QuadratureError):
        quadrature.adaptive(counted(step), 0.0, 1.0, max_depth=8)
    assert calls["step"] <= 8 + 2

