import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_rng
from fpabench.auction import threshold_margin, thresholds_from_probabilities
from fpabench.distributions import EqualRevenue, PiecewiseLinearCDF, Uniform
from fpabench.grids import BidGrid
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


def test_pwl_quantile_of_one_is_the_first_point_where_f_reaches_one():
    # a flat top: F(0.5) = 1, so F^-(1) = inf{v : F(v) >= 1} = 0.5, not 1
    F = PiecewiseLinearCDF((0.0, 0.5, 1.0), (0.0, 1.0, 1.0))
    assert F.quantile(1.0) == 0.5
    assert F.quantile_array([0.5, 1.0, 1.5]).tolist() == [0.25, 0.5, 0.5]
    # a learner's start point, p = 0, bids up to where values end
    assert threshold_margin(F, 0.0, 0.25) == 0.25
    assert thresholds_from_probabilities(BidGrid(2, 0.25), F, [0.0, 0.0]) == [0.5, 0.5]
    # a flat top after several rising segments
    G = PiecewiseLinearCDF((0.0, 0.4, 0.7, 1.0), (0.0, 0.6, 1.0, 1.0))
    assert G.quantile(1.0) == G.quantile_array(1.0) == 0.7


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
    xs = F.quantile_array(rng.random(200_000))
    se = xs.std() / math.sqrt(len(xs))
    assert abs(xs.mean() - F.quantile_tail_integral(0.0)) <= 3.0 * se


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


# knot levels drawn from a small set, so flat segments (y1 == y2, a level
# at 0 or at 1) and y exactly on a knot are common
_LEVEL = st.one_of(st.sampled_from([0.0, 0.2, 0.5, 1.0]), st.floats(0.0, 1.0))
_QUANTILE_DISTRIBUTIONS = st.one_of(
    st.just(Uniform()),
    st.floats(0.0, 0.6).flatmap(
        lambda a: st.floats(a + 0.05, 1.0).map(lambda b: Uniform(a, b))),
    st.floats(0.01, 0.8).map(EqualRevenue),
    st.tuples(_LEVEL, _LEVEL).map(
        lambda ys: PiecewiseLinearCDF((0.0, 0.3, 0.7, 1.0), (0.0, min(ys), max(ys), 1.0))),
)


def _special_levels(F):
    """y in {0, 1}, just inside them, EqualRevenue's knee level, every PWL knot."""
    ys = [0.0, -0.0, 1.0, math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0)]
    if isinstance(F, EqualRevenue):
        ys += [F._ystar, math.nextafter(F._ystar, 0.0), math.nextafter(F._ystar, 1.0)]
    if isinstance(F, PiecewiseLinearCDF):
        ys += list(F.ys) + [0.5 * (a + b) for a, b in zip(F.ys, F.ys[1:])]
    return ys


@settings(derandomize=True, deadline=None, max_examples=300)
@given(F=_QUANTILE_DISTRIBUTIONS, ys=st.lists(st.floats(-0.25, 1.25), max_size=30))
def test_quantile_array_matches_the_scalar_quantile_bit_for_bit(F, ys):
    y = np.array(ys + _special_levels(F))
    want = [F.quantile(v) for v in y.tolist()]
    # repr tells -0.0 from 0.0
    assert repr(F.quantile_array(y).tolist()) == repr(want)
    assert F.quantile_array(y.reshape(1, -1)).shape == (1, len(y))


def test_a_density_bound_that_overflows_is_refused():
    # formerly accepted, and summary.json then read "min_slack": Infinity
    for make in (lambda: Uniform(0.0, 5e-324), lambda: EqualRevenue(5e-324),
                 lambda: PiecewiseLinearCDF((0.0, 5e-324, 1.0), (0.0, 0.5, 1.0))):
        with pytest.raises(ValueError, match=r"^the density bound of .* overflows$"):
            make()


@pytest.mark.parametrize("a", [0.0, 1e-310, 2**-1022])
def test_the_narrowest_uniform_support_evaluates_without_overflow(a):
    # b - a = 2**-1023: the smallest power-of-two width with a finite
    # density bound; cdf_array and survival_integral_array then overflow in
    # no branch, so they need no errstate
    F = Uniform(a, a + 2**-1023)
    assert math.isfinite(F.density_bound)
    x = np.array([0.0, a, F.b, 0.5, 1.0, 5e-324, np.nextafter(F.b, 2.0)])
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        F.cdf_array(x)
        F.survival_integral_array(x)
