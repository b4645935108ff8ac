import math

import numpy as np
import pytest

from conftest import make_rng
from fpabench.distributions import EqualRevenue, Uniform
from fpabench.grids import BidGrid
from fpabench.projection import threshold_polytope
from fpabench.strategies import (
    BucketStrategy,
    ComposedStrategy,
    MisreportMap,
    ThresholdStrategy,
)
from fpabench.verify import random_distribution, random_feasible


GRID2 = BidGrid(2, 0.125)  # bids {0, 1/8, 1/4}
QUARTER_MAP = MisreportMap((0.0, 0.5, 0.5, 1.0), (0.0, 0.5, 0.25, 0.25))


def mc_utility(strategy, F, h, rng, n=300_000):
    vals = np.array(F.sample(rng, n))
    bids = np.array(strategy.grid.bids)
    idx = np.array([strategy.bid_index(float(x)) for x in vals])
    payoff = (vals - bids[idx]) * (idx >= h)
    return float(payoff.mean()), float(payoff.std() / math.sqrt(n))


def mc_revenue(strategy, F, h, rng, n=300_000):
    vals = np.array(F.sample(rng, n))
    bids = np.array(strategy.grid.bids)
    idx = np.array([strategy.bid_index(float(x)) for x in vals])
    payment = bids[idx] * (idx >= h)
    return float(payment.mean()), float(payment.std() / math.sqrt(n))


def test_threshold_strategy_exact_matches_sampling():
    rng = make_rng(40)
    F = EqualRevenue(0.1)
    s = ThresholdStrategy(GRID2, (0.25, 0.5))
    for h in range(3):
        mean, se = mc_utility(s, F, h, rng)
        assert s.exact_utility(F, h) == pytest.approx(mean, abs=3.5 * se + 1e-9)
        mean, se = mc_revenue(s, F, h, rng)
        assert s.exact_revenue(F, h) == pytest.approx(mean, abs=3.5 * se + 1e-9)


def test_bucket_strategy_lookup_and_monotone_view():
    s = BucketStrategy(GRID2, (0, 0, 1, 2))
    assert s.bid_index(0.1) == 0
    assert s.bid_index(0.6) == 1
    assert s.bid_index(0.9) == 2
    assert s.is_monotone
    assert s.as_thresholds() == pytest.approx([0.5, 0.75])
    t = BucketStrategy(GRID2, (0, 2, 1, 2))
    assert not t.is_monotone
    assert t.as_thresholds() is None


def test_bucket_strategy_exact_matches_sampling():
    rng = make_rng(41)
    F = Uniform()
    s = BucketStrategy(GRID2, (0, 2, 1, 2))  # deliberately non-monotone
    for h in range(3):
        mean, se = mc_utility(s, F, h, rng)
        assert s.exact_utility(F, h) == pytest.approx(mean, abs=3.5 * se + 1e-9)
        mean, se = mc_revenue(s, F, h, rng)
        assert s.exact_revenue(F, h) == pytest.approx(mean, abs=3.5 * se + 1e-9)


def test_misreport_map_evaluation():
    M = QUARTER_MAP
    assert M(0.3) == pytest.approx(0.3, abs=1e-12)
    assert M(0.5) == pytest.approx(0.25, abs=1e-12)  # right-continuous jump
    assert M(0.9) == pytest.approx(0.25, abs=1e-12)
    ident = MisreportMap.identity()
    for v in np.linspace(0, 1, 11):
        assert ident(float(v)) == pytest.approx(float(v), abs=1e-12)


def test_misreport_map_validation():
    with pytest.raises(ValueError):
        MisreportMap((0.0, 0.9), (0.0, 1.0))  # does not cover [0, 1]
    with pytest.raises(ValueError):
        MisreportMap((0.0, 0.6, 0.4, 1.0), (0.0, 0.5, 0.5, 1.0))
    with pytest.raises(ValueError):
        MisreportMap((0.0, 1.0), (0.0, 1.2))


def test_composed_with_identity_changes_nothing():
    F = EqualRevenue(0.1)
    inner = ThresholdStrategy(GRID2, (0.25, 0.5))
    comp = ComposedStrategy(inner, MisreportMap.identity())
    for h in range(3):
        assert comp.exact_utility(F, h) == pytest.approx(
            inner.exact_utility(F, h), abs=1e-12)
        assert comp.exact_revenue(F, h) == pytest.approx(
            inner.exact_revenue(F, h), abs=1e-12)


def test_composed_bid_matches_pointwise_composition():
    rng = make_rng(42)
    for _ in range(50):
        v = random_feasible(threshold_polytope(GRID2), rng)
        inner = ThresholdStrategy(GRID2, tuple(v))
        comp = ComposedStrategy(inner, QUARTER_MAP)
        for val in rng.random(50):
            val = float(val)
            assert comp.bid_index(val) == inner.bid_index(QUARTER_MAP(val))


def test_composed_exact_matches_sampling():
    rng = make_rng(43)
    F = EqualRevenue(0.1)
    inner = ThresholdStrategy(GRID2, (0.2, 0.3))
    comp = ComposedStrategy(inner, QUARTER_MAP)
    for h in range(3):
        mean, se = mc_utility(comp, F, h, rng)
        assert comp.exact_utility(F, h) == pytest.approx(mean, abs=3.5 * se + 1e-9)


def test_composed_pieces_cover_unit_interval():
    rng = make_rng(44)
    for _ in range(50):
        F = random_distribution(rng)
        v = random_feasible(threshold_polytope(GRID2), rng)
        comp = ComposedStrategy(ThresholdStrategy(GRID2, tuple(v)), QUARTER_MAP)
        pieces = comp._pieces()
        assert pieces[0][0] == 0.0
        assert pieces[-1][1] == 1.0
        for (a0, b0, _), (a1, b1, _) in zip(pieces, pieces[1:]):
            assert b0 == pytest.approx(a1, abs=1e-12)
        # the declared bid is constant on each piece
        for a, b, j in pieces:
            for w in np.linspace(a + 1e-9, b - 1e-9, 7):
                assert comp.bid_index(float(w)) == j
