import math

import numpy as np
import pytest

from conftest import make_rng
from fpabench.distributions import EqualRevenue, PiecewiseLinearCDF, Uniform
from fpabench.verify import random_distribution


def numeric_tail_integral(F, q, n=200_000):
    """Riemann cross-check of G(q) = integral of the quantile over [q, 1]."""
    us = np.linspace(q, 1.0, n)
    vals = np.array([F.quantile(float(u)) for u in us])
    return float(np.trapezoid(vals, us))


def numeric_survival_integral(F, x, n=200_000):
    ts = np.linspace(x, 1.0, n)
    vals = np.array([1.0 - F.cdf(float(t)) for t in ts])
    return float(np.trapezoid(vals, ts))


def test_uniform_quantile_is_identity():
    F = Uniform()
    assert F.quantile(0.3) == pytest.approx(0.3, abs=1e-12)
    assert F.cdf(0.7) == pytest.approx(0.7, abs=1e-12)


def test_uniform_tail_integral_values():
    F = Uniform()
    assert F.quantile_tail_integral(0.0) == pytest.approx(0.5, abs=1e-12)
    assert F.quantile_tail_integral(1.0) == 0.0
    assert F.quantile_tail_integral(0.5) == pytest.approx(0.375, abs=1e-12)


def test_equirev_quantile_frozen_points():
    F = EqualRevenue(0.1)
    assert F.quantile(0.0) == 0.0
    # solve 1 - 1/(8x) = 0.5
    assert F.quantile(0.5) == pytest.approx(0.25, abs=1e-12)
    assert F.cdf(0.25) == pytest.approx(0.5, abs=1e-12)


def test_equirev_flat_revenue_band():
    # posted price r earns r * (1 - F(r)) = 1/8 on [1/8, 1 - delta]
    F = EqualRevenue(0.1)
    for r in np.linspace(0.125, 0.9, 40):
        assert r * (1.0 - F.cdf(float(r))) == pytest.approx(0.125, abs=1e-12)
    assert F.cdf(0.1) == 0.0
    assert F.cdf(1.0) == 1.0
    assert F.density_bound == pytest.approx(8.0)


def test_pwl_cdf_quantile_round_trip():
    F = PiecewiseLinearCDF((0.0, 0.4, 1.0), (0.0, 0.7, 1.0))
    for y in np.linspace(0.001, 0.999, 50):
        assert F.cdf(F.quantile(float(y))) == pytest.approx(float(y), abs=1e-12)


def test_pwl_validation():
    with pytest.raises(ValueError):
        PiecewiseLinearCDF((0.0, 1.0), (0.0, 0.9))
    with pytest.raises(ValueError):
        PiecewiseLinearCDF((0.0, 0.5, 0.5, 1.0), (0.0, 0.2, 0.4, 1.0))


def test_tail_integral_matches_quadrature():
    rng = make_rng(10)
    for _ in range(8):
        F = random_distribution(rng)
        for q in (0.0, 0.2, 0.55, 0.9):
            want = numeric_tail_integral(F, q)
            assert F.quantile_tail_integral(q) == pytest.approx(want, abs=5e-6)


def test_survival_integral_matches_quadrature():
    rng = make_rng(11)
    for _ in range(8):
        F = random_distribution(rng)
        for x in (0.0, 0.13, 0.5, 0.92):
            want = numeric_survival_integral(F, x)
            assert F.survival_integral(x) == pytest.approx(want, abs=5e-6)


def test_density_bound_is_a_lipschitz_constant():
    rng = make_rng(12)
    for _ in range(10):
        F = random_distribution(rng)
        fbar = F.density_bound
        xs = np.sort(rng.random(200))
        for x, y in zip(xs, xs[1:]):
            assert F.cdf(float(y)) - F.cdf(float(x)) <= fbar * (y - x) + 1e-9


def test_tail_integral_is_decreasing_and_concave():
    rng = make_rng(13)
    for _ in range(5):
        F = random_distribution(rng)
        qs = np.linspace(0.0, 1.0, 101)
        g = [F.quantile_tail_integral(float(q)) for q in qs]
        assert all(a >= b - 1e-12 for a, b in zip(g, g[1:]))
        # midpoint concavity
        for k in range(1, 100):
            assert g[k] >= 0.5 * (g[k - 1] + g[k + 1]) - 1e-12


def test_inverse_transform_sampling_mean():
    F = EqualRevenue(0.1)
    rng = make_rng(14)
    xs = np.array(F.sample(rng, 200_000))
    se = xs.std() / math.sqrt(len(xs))
    assert abs(xs.mean() - F.mean) <= 3.0 * se


def test_cdf_endpoints_all_kinds():
    rng = make_rng(15)
    for _ in range(10):
        F = random_distribution(rng)
        assert F.cdf(0.0) == 0.0
        assert F.cdf(1.0) == 1.0
        assert F.quantile_tail_integral(1.0) == 0.0


def test_array_forms_match_the_scalar_forms_bit_for_bit():
    # numpy's own log rounds differently from libm's on a fraction of inputs,
    # so enough points catch an array form that uses it
    rng = make_rng(77)
    dists = [Uniform(), Uniform(0.2, 0.7), EqualRevenue(0.1), EqualRevenue(0.6),
             PiecewiseLinearCDF((0.0, 0.3, 0.6, 1.0), (0.0, 0.2, 0.2, 1.0))]
    dists += [random_distribution(rng) for _ in range(4)]
    x = np.concatenate([rng.uniform(-0.1, 1.1, 20_000),
                        [-0.0, 0.0, 0.125, 0.2, 0.3, 0.6, 0.7, 0.9, 1.0]])
    for F in dists:
        for array_form, scalar in ((F.cdf_array, F.cdf),
                                   (F.quantile_tail_integral_array, F.quantile_tail_integral),
                                   (F.survival_integral_array, F.survival_integral)):
            got = array_form(x)
            want = [scalar(v) for v in x.tolist()]
            assert got.tolist() == want, (F, scalar.__name__)
