"""Level-synchronous adaptive quadrature, which evaluates a look-ahead
subtree of up to three levels in one integrand call within a fixed budget of
sub-panels, against the recursive rule it replaced."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _too_narrow(lo, hi):
    """The width floor below which a panel is not split."""
    return hi - lo <= 2.0 ** -42 * (abs(lo) + abs(hi)) + 1e-15


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
        if err <= max(target, floor) or _too_narrow(lo, hi):
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



# integrand families over [a, b]: endpoint singularities, a jump, a narrow
# peak and a smooth one; ``c`` in (0, 1) places the feature, ``h`` scales it
_FAMILIES = {
    "sqrt_left": lambda a, b, c, h: lambda x: np.sqrt(x - a),
    "sqrt_right": lambda a, b, c, h: lambda x: np.sqrt(b - x) * np.cos(x),
    "log_left": lambda a, b, c, h: lambda x: np.log(x - a),
    "x_log_x_right": lambda a, b, c, h: lambda x: (b - x) * np.log(b - x),
    "jump": lambda a, b, c, h: (
        lambda x: np.where(x < a + c * (b - a), 1.0, -2.0 + x)),
    "peak": lambda a, b, c, h: (
        lambda x: h / ((x - a - c * (b - a)) ** 2 + h * h)),
    "smooth": lambda a, b, c, h: lambda x: np.exp(-c * x * x) * np.sin(3 * x),
}


def _outcome(rule, f, a, b, tol, max_depth):
    try:
        return rule(f, a, b, tol=tol, max_depth=max_depth)
    except QuadratureError as exc:
        return str(exc)


@settings(max_examples=150)
@given(family=st.sampled_from(sorted(_FAMILIES)),
       a=st.floats(-5.0, 5.0), width=st.floats(0.1, 10.0),
       c=st.floats(0.01, 0.99), h=st.floats(1e-4, 1e-1),
       tol_exp=st.integers(6, 12), max_depth=st.integers(1, 30))
def test_adaptive_matches_recursive_rule(family, a, width, c, h, tol_exp,
                                         max_depth):
    b = a + width
    f = _FAMILIES[family](a, b, c, h)
    tol = 10.0 ** -tol_exp
    new = _outcome(quadrature.adaptive, f, a, b, tol, max_depth)
    old = _outcome(_adaptive_reference, f, a, b, tol, max_depth)
    # a float equals a float, a QuadratureError message its message
    assert type(new) is type(old) and new == old


# far from 0 a jump, or a square-root endpoint singularity at a
# non-dyadic endpoint, is refined until the panels reach the width floor,
# long before max_depth
@pytest.mark.parametrize("a, b, f, tol", [
    (1e6, 1e6 + 1e-6, lambda x: np.where(x < 1e6 + 3e-7, 1.0, -2.0), 1e-12),
    (-3e9, -3e9 + 1e-6, lambda x: np.where(x < -3e9 + 3e-7, 1.0, -2.0),
     1e-12),
    (3e7 + 0.1, 3e7 + 1.1, lambda x: np.sqrt(x - (3e7 + 0.1)), 1e-8),
    (1e9 + 0.5, 1e9 + 2.5, lambda x: np.sqrt(1e9 + 2.5 - x), 1e-8),
], ids=["jump_1e6", "jump_-3e9", "sqrt_left", "sqrt_right"])
def test_panels_too_narrow_to_split_match_recursive_rule(a, b, f, tol,
                                                         monkeypatch):
    panels = set()
    panel_sums = quadrature._panel_sums

    def recorded(g, lo, hi):
        panels.update(zip(lo.tolist(), hi.tolist()))
        return panel_sums(g, lo, hi)

    monkeypatch.setattr(quadrature, "_panel_sums", recorded)
    assert (quadrature.adaptive(f, a, b, tol)
            == _adaptive_reference(f, a, b, tol))
    assert all(lo < hi for lo, hi in panels)
    # walk the evaluated tree down from [a, b]: the halves of a panel too
    # narrow to split may be evaluated, their halves may not
    stack, narrow_seen = [(a, b)], 0
    while stack:
        lo, hi = stack.pop()
        mid = 0.5 * (lo + hi)
        halves = [h for h in ((lo, mid), (mid, hi)) if h in panels]
        if _too_narrow(lo, hi):
            narrow_seen += 1
            for h_lo, h_hi in halves:
                h_mid = 0.5 * (h_lo + h_hi)
                if h_lo < h_mid < h_hi:  # else one quarter is the half itself
                    assert (h_lo, h_mid) not in panels
                    assert (h_mid, h_hi) not in panels
        else:
            stack.extend(halves)
    assert narrow_seen


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a", [0.1, 3.3, -7.7, 1e6 + 0.1])
@pytest.mark.parametrize("side", ["left", "right"])
def test_log_singularity_at_an_edge_is_never_evaluated(a, side):
    # the integral of log over a unit panel from its singular end is -1;
    # a node rounded onto the edge would give log(0) = -inf and a warning
    if side == "left":
        def f(x):
            return np.log(x - a)
    else:
        def f(x):
            return np.log(a + 1 - x)
    assert abs(quadrature.adaptive(f, a, a + 1) + 1) <= 1e-9


def test_look_ahead_cuts_integrand_calls():
    calls = [0]

    def sqrt_log(x):
        calls[0] += 1
        return np.sqrt(x) * np.log(x)

    quadrature.adaptive(sqrt_log, 0.0, 1.0)
    assert calls[0] <= 20


@pytest.mark.parametrize("f, a, b", [
    (lambda x: np.sqrt(x) * np.log(x), 0.0, 1.0),
    # hundreds of active panels: one level a call, two halves a panel
    (lambda x: np.sin(300.0 * x), 0.0, 10.0),
    (lambda x: np.where(x < 0.3, 0.0, 1.0) + np.abs(x - 0.71) ** 0.5,
     -1.0, 2.0),
], ids=["sqrt_log", "oscillating", "jump_and_kink"])
def test_each_call_keeps_to_the_sub_panel_budget(f, a, b, monkeypatch):
    nodes = []
    panel_sums = quadrature._panel_sums

    def recorded(g, lo, hi):
        if lo.size > quadrature._SUBPANELS:
            # only a one-level look-ahead may exceed the budget: the
            # panels are the two halves of each of lo.size / 2 disjoint
            # panels, left to right
            parent_lo, parent_hi = lo[0::2], hi[1::2]
            mid = 0.5 * (parent_lo + parent_hi)
            assert np.array_equal(hi[0::2], mid)
            assert np.array_equal(lo[1::2], mid)
            assert np.all(parent_hi[:-1] <= parent_lo[1:])
        return panel_sums(g, lo, hi)

    def g(x):
        nodes.append((x.min(), x.max()))
        return f(x)

    monkeypatch.setattr(quadrature, "_panel_sums", recorded)
    quadrature.adaptive(g, a, b)
    assert all(a < lo and hi < b for lo, hi in nodes)
