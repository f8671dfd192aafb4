"""Closed-form moments, Cauchy transforms and log potentials of the density
kinds against an independent composite Gauss-Legendre reference, and the
smoothed-kernel bound and logarithmic energy built on them."""

import math
import tracemalloc

import numpy as np
import pytest

from free_stein.closedform import eps_kernel, log_energy
from free_stein.trace import (MeasureModel, SemicircleDensity, TableDensity,
                              UniformDensity)

_X, _W = np.polynomial.legendre.leggauss(40)
EPS = (0.1, 0.01, 0.001)
DENSITIES = {
    "semicircle": lambda: SemicircleDensity(0.3, 1.7, 0.6),
    "uniform": lambda: UniformDensity(-1.0, 2.0, 0.8),
    "table": lambda: TableDensity([(0.0, 0.0), (0.3, 1.0), (0.5, 0.2),
                                   (1.0, 1.5), (2.0, 0.0)]),
}


def _knots(dens):
    lo, hi = dens.support
    return sorted({lo, hi, *getattr(dens, "xs", ())})


def _cuts(dens, centre, scale):
    """Panel ends in the support: the support edges and the knots, the
    centre and ``centre +- scale 2^k``; for the semicircle also panels
    halving toward both edges, where the density has a square root."""
    lo, hi = dens.support
    width = hi - lo
    pts = set(_knots(dens)) | {centre}
    step = scale
    while step < 2 * width:
        pts |= {centre - step, centre + step}
        step *= 2
    if isinstance(dens, SemicircleDensity):
        for k in range(1, 40):
            pts |= {lo + width * 2.0 ** -k, hi - width * 2.0 ** -k}
    # no panel so thin that its nodes round onto the centre
    pts = {p for p in pts if p == centre or abs(p - centre) > 1e-13}
    return np.array(sorted(p for p in pts if lo <= p <= hi))


def _reference(dens, f, centre, scale):
    """``integral of rho(s) f(s - centre) ds`` by 40-point Gauss-Legendre on
    the panels of :func:`_cuts`.  ``f`` takes the offset from the centre,
    formed from the panel ends without the rounding of ``s`` near the centre.
    Test oracle only."""
    cuts = _cuts(dens, centre, scale) - centre
    a, b = cuts[:-1], cuts[1:]
    half = 0.5 * (b - a)
    u = (a + half)[:, None] + half[:, None] * _X
    return np.sum(half[:, None] * _W * dens.pdf(centre + u) * f(u))


def _targets(dens):
    """Points inside, outside, on and just off the edges and the knots."""
    lo, hi = dens.support
    pts = set(np.linspace(lo - 0.5, hi + 0.5, 9))
    for k in _knots(dens):
        pts |= {k, k - 1e-6, k + 1e-6, k - 1e-3, k + 1e-3}
    return sorted(pts)


@pytest.mark.parametrize("kind", DENSITIES)
@pytest.mark.parametrize("eps", EPS)
def test_cauchy_transform_matches_reference(kind, eps):
    dens = DENSITIES[kind]()
    for t in _targets(dens):
        # z - s = i eps - u at the offset u = s - t
        G = _reference(dens, lambda u: 1.0 / (1j * eps - u), t, eps)
        dG = _reference(dens, lambda u: -1.0 / (1j * eps - u) ** 2, t, eps)
        g, dg = dens.cauchy(complex(t, eps))
        assert abs(g - G) <= 1e-12
        assert abs(dg - dG) <= 1e-12


@pytest.mark.parametrize("kind", DENSITIES)
def test_log_potential_matches_reference(kind):
    dens = DENSITIES[kind]()
    for x in _targets(dens):
        ref = _reference(dens, lambda u: np.log(np.abs(u)), x, 1e-11)
        assert abs(dens.log_potential(x) - ref) <= 1e-12


@pytest.mark.parametrize("kind", DENSITIES)
def test_moments_match_reference(kind):
    dens = DENSITIES[kind]()
    lo, hi = dens.support
    for k in range(9):
        ref = _reference(dens, lambda u: (lo + u) ** k, lo, hi - lo)
        assert abs(dens.moment(k) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_many_knot_table_keeps_temporaries_the_size_of_the_targets():
    # 1 000 knots and 2 000 targets: a single knots x targets complex
    # temporary would hold 32 MB
    xs = np.linspace(0.0, 1.0, 1000)
    dens = TableDensity(list(zip(xs, 1.0 + 0.5 * np.sin(7.0 * xs))))
    t = np.linspace(-0.5, 1.5, 2000)
    tracemalloc.start()
    try:
        dens.cauchy(t + 0.01j)
        dens.log_potential(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * t.size * 16


def test_log_energy_closed_values():
    for a, b in ((0.0, 1.0), (-1.0, 2.0)):
        val = log_energy(MeasureModel([], UniformDensity(a, b)))
        assert abs(val - (math.log(b - a) - 1.5)) <= 1e-10
    for r in (2.0, 0.5):
        val = log_energy(MeasureModel([], SemicircleDensity(0.3, r)))
        assert abs(val - (math.log(r / 2) - 0.25)) <= 1e-10


def test_log_energy_table_matches_reference():
    dens = DENSITIES["table"]()
    # the outer integrand has kinks at the knots: panels halve toward them
    pts = set()
    for k in _knots(dens):
        pts |= {k, *(k + s * 2.0 ** -j for j in range(1, 24) for s in (-1, 1))}
    lo, hi = dens.support
    cuts = np.array(sorted(p for p in pts if lo <= p <= hi))
    a, b = cuts[:-1], cuts[1:]
    half = 0.5 * (b - a)
    xs = (a + half)[:, None] + half[:, None] * _X
    potential = np.array([_reference(dens, lambda u: np.log(np.abs(u)), x, 1e-11)
                          for x in xs.ravel()]).reshape(xs.shape)
    ref = np.sum(half[:, None] * _W * dens.pdf(xs) * potential)
    assert abs(log_energy(MeasureModel([], dens)) - ref) <= 1e-10


@pytest.mark.parametrize("eps", EPS)
def test_eps_kernel_on_uniform_and_table(eps):
    models = (MeasureModel([(3.0, 0.4)], UniformDensity(0.0, 1.0, 0.6)),
              MeasureModel([], DENSITIES["table"]()))
    for model in models:
        rep = eps_kernel(model, eps)
        assert 0.0 < rep.bound < 1.0 and math.isfinite(rep.g_l2)
    # on [0, 1]: the integral of (1 - |d|) eps^4 / (d^2 + eps^2)^2 over
    # [-1, 1] is eps atan(1/eps)
    rep = eps_kernel(MeasureModel([], UniformDensity(0.0, 1.0)), eps)
    assert abs(rep.bound - eps * math.atan(1 / eps)) <= 1e-10
