import math

import numpy as np
import pytest

from conftest import former_revenue, former_utility, make_rng, play_columns
from fpabench.distributions import EqualRevenue, PiecewiseLinearCDF, Uniform
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
    vals = F.quantile_array(rng.random(n))
    bids = np.array(strategy.grid.bids)
    idx = np.array([strategy.bid_index(float(x)) for x in vals])
    payoff = (vals - bids[idx]) * (idx >= h)
    return float(payoff.mean()), float(payoff.std() / math.sqrt(n))


def mc_revenue(strategy, F, h, rng, n=300_000):
    vals = F.quantile_array(rng.random(n))
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


def test_bucket_strategy_lookup():
    s = BucketStrategy(GRID2, (0, 0, 1, 2))
    assert s.bid_index(0.1) == 0
    assert s.bid_index(0.6) == 1
    assert s.bid_index(0.9) == 2


def test_bucket_strategy_exact_matches_sampling():
    rng = make_rng(41)
    F = Uniform()
    s = BucketStrategy(GRID2, (0, 2, 1, 2))  # deliberately non-monotone
    util, rev = play_columns(s, F)
    for h in range(3):
        mean, se = mc_utility(s, F, h, rng)
        assert util[h] == pytest.approx(mean, abs=3.5 * se + 1e-9)
        mean, se = mc_revenue(s, F, h, rng)
        assert rev[h] == pytest.approx(mean, abs=3.5 * se + 1e-9)


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
    util, rev = play_columns(comp, F)
    for h in range(3):
        assert util[h] == pytest.approx(inner.exact_utility(F, h), abs=1e-12)
        assert rev[h] == pytest.approx(inner.exact_revenue(F, h), abs=1e-12)


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
    util, _ = play_columns(comp, F)
    for h in range(3):
        mean, se = mc_utility(comp, F, h, rng)
        assert util[h] == pytest.approx(mean, abs=3.5 * se + 1e-9)


def test_composed_pieces_cover_unit_interval():
    rng = make_rng(44)
    for _ in range(50):
        F = random_distribution(rng)
        v = random_feasible(threshold_polytope(GRID2), rng)
        comp = ComposedStrategy(ThresholdStrategy(GRID2, tuple(v)), QUARTER_MAP)
        cuts = (0.0,) + comp.edges + (1.0,)
        # contiguous pieces, each non-empty, covering [0, 1]
        assert all(a < c for a, c in zip(cuts, cuts[1:]))
        assert len(comp.piece_bids) == len(cuts) - 1
        # the declared bid is constant on each piece
        for a, c, j in zip(cuts, cuts[1:], comp.piece_bids):
            for w in np.linspace(a + 1e-9, c - 1e-9, 7):
                assert comp.bid_index(float(w)) == j
        # the pieces' masses dF and E[V 1(V in piece)] add up to 1 and E[V]
        cdf = F.cdf_array(cuts)
        tail = F.quantile_tail_integral_array(cdf)
        assert np.sum(np.diff(cdf)) == pytest.approx(1.0, abs=1e-12)
        assert np.sum(-np.diff(tail)) == pytest.approx(F.quantile_tail_integral(0.0), abs=1e-12)


def _random_map(rng, snap):
    """Knots with jumps, falling and flat segments; some y sit exactly on ``snap``."""
    n = int(rng.integers(1, 6))
    xs = [0.0] + sorted(float(x) for x in rng.choice(snap + list(rng.random(n)), n)) + [1.0]
    ys = []
    for x in xs:
        r = rng.random()
        if ys and r < 0.25:
            ys.append(ys[-1])                      # flat segment
        elif r < 0.5:
            ys.append(float(rng.choice(snap)))     # on an inner edge
        else:
            ys.append(float(rng.random()))         # rising or falling
    return MisreportMap(tuple(xs), tuple(ys))


def test_composed_accounting_matches_former_bit_for_bit():
    rng = make_rng(45)
    K = 3
    g = BidGrid(K, 0.2)
    kinds = [Uniform(), Uniform(0.1, 0.8), EqualRevenue(0.1),
             PiecewiseLinearCDF((0.0, 0.3, 0.7, 1.0), (0.0, 0.2, 0.7, 1.0))]
    for trial in range(120):
        buckets = int(rng.choice([1, 2, 4, 5, 8]))
        snap = [b / buckets for b in range(1, buckets)] + [0.0, 0.5, 1.0]
        if trial % 2:
            inner = BucketStrategy(g, tuple(int(j) for j in rng.integers(0, K + 1, buckets)))
        else:
            v = random_feasible(threshold_polytope(g), rng)
            inner = ThresholdStrategy(g, tuple(v) if trial % 4 else (1.0,) * K)
            snap += list(inner.thresholds)
        comp = ComposedStrategy(inner, _random_map(rng, snap))
        for F in kinds:
            util, rev = play_columns(comp, F)
            for h in range(K + 1):
                assert util[h] == former_utility(comp, F, h)
                assert rev[h] == former_revenue(comp, F, h)
