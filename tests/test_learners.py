import math

import pytest

from conftest import make_rng
from fpabench.auction import check_thresholds
from fpabench.distributions import EqualRevenue, Uniform
from fpabench.grids import BidGrid
from fpabench.learners import (
    FixedStep,
    GradientBidder,
    HarmonicStep,
    LazyRegularizedBidder,
    MeanBasedBucketBidder,
    MisreportingBidder,
    ThresholdBidder,
    default_eta_known_f,
    default_eta_threshold,
)
from fpabench.strategies import MisreportMap


def test_default_step_sizes():
    assert default_eta_known_f(2, 10_000) == pytest.approx(0.01, abs=1e-15)
    assert default_eta_threshold(1.0, 10_000) == pytest.approx(0.01, abs=1e-15)
    assert HarmonicStep(1.0, 0.1).at(3) == pytest.approx(10.0 / 3.0, abs=1e-12)
    with pytest.raises(ValueError):
        FixedStep(0.0)
    with pytest.raises(ValueError):
        HarmonicStep(1.0, 0.0)


def test_gradient_bidder_frozen_step():
    g = BidGrid(2, 0.25)
    lrn = GradientBidder(g, Uniform(), FixedStep(1.0), p1=[0.40, 0.35])
    lrn.observe(2)
    assert lrn.p == pytest.approx((0.45, 0.45), abs=1e-12)
    assert lrn.last_diagnostics.m == 1


def test_threshold_bidder_stationary_geometric():
    # constant h = b_1: v_1 - b_1 contracts by (1 - eta), higher thresholds
    # saturate at 1
    g = BidGrid(3, 0.25)
    eta = 0.3
    lrn = ThresholdBidder(g, eta, v1=[0.6, 0.7, 0.8])
    gap = 0.6 - 0.25
    for _ in range(50):
        lrn.observe(1)
        gap *= 1.0 - eta
        assert lrn.v[0] == pytest.approx(0.25 + gap, abs=1e-12)
    assert lrn.v[1] == 1.0
    assert lrn.v[2] == 1.0


def test_learners_expose_feasible_strategies():
    rng = make_rng(50)
    g = BidGrid(4, 0.2)
    F = EqualRevenue(0.3)
    learners = [
        GradientBidder(g, F, FixedStep(0.05)),
        ThresholdBidder(g, 0.05),
        LazyRegularizedBidder(g, F, 0.05),
    ]
    for _ in range(300):
        h = int(rng.integers(0, 5))
        for lrn in learners:
            check_thresholds(lrn.strategy().thresholds, g)
            lrn.observe(h)


def test_replay_determinism():
    rng = make_rng(51)
    hs = [int(h) for h in rng.integers(0, 5, size=500)]
    g = BidGrid(4, 0.2)

    def run():
        lrn = ThresholdBidder(g, 0.03)
        out = []
        for h in hs:
            lrn.observe(h)
            out.append(tuple(lrn.v))
        return out

    assert run() == run()


def test_mirror_equivalence_under_uniform():
    g = BidGrid(8, 0.1)
    rng = make_rng(52)
    eta = 0.02
    a1 = GradientBidder(g, Uniform(), FixedStep(eta))
    a2 = ThresholdBidder(g, eta)
    for h in rng.integers(0, 9, size=2000):
        a1.observe(int(h))
        a2.observe(int(h))
        assert max(abs(v - (1 - p)) for v, p in zip(a2.v, a1.p)) < 1e-12


def test_ftl_starts_at_zero_bids():
    g = BidGrid(2, 0.125)
    lrn = MeanBasedBucketBidder(g, 8)
    assert lrn.strategy().bids_per_bucket == (0,) * 8


def test_ftl_reproduces_reserve_manipulation_phases():
    # bids {0, 1/8, 1/4}; reserve 1/4 for the first half, then 1/8
    g = BidGrid(2, 0.125)
    T = 4000
    lrn = MeanBasedBucketBidder(g, 64)
    for t in range(1, T + 1):
        lrn.observe(2 if t <= T // 2 else 1)
        if t == T // 2:
            # high-reserve phase: buckets above 1/4 bid 1/4, the rest bid 0
            for b, j in enumerate(lrn._choice):
                mid = (b + 0.5) / 64
                assert j == (2 if mid > 0.25 else 0)
    # after the reserve drop, values >= 1/2 still bid 1/4
    for b, j in enumerate(lrn._choice):
        mid = (b + 0.5) / 64
        if mid >= 0.5:
            assert j == 2


def test_lazy_ftrl_first_step_matches_agile():
    g = BidGrid(3, 0.25)
    F = Uniform()
    agile = GradientBidder(g, F, FixedStep(0.1))
    lazy = LazyRegularizedBidder(g, F, 0.1)
    agile.observe(2)
    lazy.observe(2)
    assert lazy.p == pytest.approx(agile.p, abs=1e-12)


def test_misreport_wrapper_preserves_inner_trajectory():
    g = BidGrid(2, 0.125)
    M = MisreportMap((0.0, 0.5, 0.5, 1.0), (0.0, 0.5, 0.25, 0.25))
    plain = ThresholdBidder(g, 0.02)
    wrapped = MisreportingBidder(ThresholdBidder(g, 0.02), M)
    rng = make_rng(53)
    for h in rng.integers(0, 3, size=500):
        plain.observe(int(h))
        wrapped.observe(int(h))
        assert wrapped.inner.v == plain.v
    # bids differ only through the report map
    val = 0.8
    assert wrapped.strategy().bid_index(val) == plain.strategy().bid_index(M(val))


def test_misreport_identity_is_transparent():
    g = BidGrid(2, 0.125)
    plain = ThresholdBidder(g, 0.02)
    wrapped = MisreportingBidder(ThresholdBidder(g, 0.02), MisreportMap.identity())
    rng = make_rng(54)
    F = EqualRevenue(0.1)
    for h in rng.integers(0, 3, size=200):
        for hh in range(3):
            assert wrapped.strategy().exact_utility(F, hh) == pytest.approx(
                plain.strategy().exact_utility(F, hh), abs=1e-12)
        plain.observe(int(h))
        wrapped.observe(int(h))


def test_misreporting_bidders_do_not_nest():
    g = BidGrid(2, 0.125)
    M = MisreportMap((0.0, 0.5, 0.5, 1.0), (0.0, 0.5, 0.25, 0.25))
    with pytest.raises(ValueError, match="do not nest"):
        MisreportingBidder(MisreportingBidder(ThresholdBidder(g, 0.02), M), M)


def test_gradient_bidder_oracle_path_on_irregular_grid():
    from fpabench.grids import IrregularBidGrid

    g = IrregularBidGrid((0.0, 0.1, 0.35, 0.4))
    lrn = GradientBidder(g, Uniform(), FixedStep(0.1))
    rng = make_rng(55)
    for h in rng.integers(0, 4, size=100):
        lrn.observe(int(h))
        check_thresholds(lrn.strategy().thresholds, g)


def test_threshold_bidder_rejects_irregular_grid():
    from fpabench.grids import IrregularBidGrid

    with pytest.raises(TypeError):
        ThresholdBidder(IrregularBidGrid((0.0, 0.3)), 0.1)


@pytest.mark.parametrize("eta", [float("nan"), math.inf, -math.inf])
def test_step_sizes_must_be_finite(eta):
    grid = BidGrid(2, 0.25)
    with pytest.raises(ValueError, match="positive and finite"):
        FixedStep(eta)
    with pytest.raises(ValueError, match="positive and finite"):
        HarmonicStep(eta, 0.1)
    with pytest.raises(ValueError, match="positive and finite"):
        HarmonicStep(1.0, eta)
    with pytest.raises(ValueError, match="positive and finite"):
        ThresholdBidder(grid, eta)
    with pytest.raises(ValueError, match="positive and finite"):
        LazyRegularizedBidder(grid, Uniform(), eta)


def test_start_points_are_checked_at_the_clamp_tolerance():
    grid = BidGrid(2, 0.25)
    with pytest.raises(ValueError, match="p_1"):
        GradientBidder(grid, Uniform(), FixedStep(0.01), p1=[0.7500000005, 0.2])
    with pytest.raises(ValueError, match="v_1"):
        ThresholdBidder(grid, 0.01, v1=[0.2499999995, 0.6])
    with pytest.raises(ValueError, match="p_1"):
        LazyRegularizedBidder(grid, Uniform(), 0.01, p1=[0.7500000005, 0.2])
    # a start point exactly on the caps still steps
    lrn = GradientBidder(grid, Uniform(), FixedStep(0.01), p1=[0.75, 0.5])
    lrn.observe(2)
    ThresholdBidder(grid, 0.01, v1=[0.25, 0.6]).observe(2)
