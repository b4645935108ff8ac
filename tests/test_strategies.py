import math

import numpy as np
import pytest

from conftest import make_rng
from fpabench.distributions import EqualRevenue, PiecewiseLinearCDF, Uniform
from fpabench.grids import BidGrid
from fpabench.projection import threshold_polytope
from fpabench.strategies import (
    BucketStrategy,
    ComposedStrategy,
    MisreportMap,
    ThresholdStrategy,
    piece_masses,
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


def test_bucket_strategy_lookup():
    s = BucketStrategy(GRID2, (0, 0, 1, 2))
    assert s.bid_index(0.1) == 0
    assert s.bid_index(0.6) == 1
    assert s.bid_index(0.9) == 2


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
        cuts = (0.0,) + comp.edges + (1.0,)
        # contiguous pieces, each non-empty, covering [0, 1]
        assert all(a < c for a, c in zip(cuts, cuts[1:]))
        assert len(comp.piece_bids) == len(cuts) - 1
        # the declared bid is constant on each piece
        for a, c, j in zip(cuts, cuts[1:], comp.piece_bids):
            for w in np.linspace(a + 1e-9, c - 1e-9, 7):
                assert comp.bid_index(float(w)) == j
        df, ev = piece_masses(F, comp.edges)
        assert len(df) == len(ev) == len(comp.piece_bids)
        assert sum(df) == pytest.approx(1.0, abs=1e-12)
        assert sum(ev) == pytest.approx(F.mean, abs=1e-12)


# Frozen copy of the accounting the piece table replaced: breakpoints rebuilt
# and cdf / G evaluated per piece on every call.  Kept to pin the table's
# results bit for bit.

def _former_breakpoints(strategy):
    if isinstance(strategy, BucketStrategy):
        return [b / strategy.buckets for b in range(1, strategy.buckets)]
    return list(strategy.thresholds)


def _former_pieces(comp):
    M = comp.report
    pts = set(M.xs)
    segments = [(M.xs[k], M.xs[k + 1], M.ys[k], M.ys[k + 1])
                for k in range(len(M.xs) - 1) if M.xs[k + 1] > M.xs[k]]
    for x0, x1, y0, y1 in segments:
        if y1 == y0:
            continue
        slope = (y1 - y0) / (x1 - x0)
        lo, hi = min(y0, y1), max(y0, y1)
        for w in _former_breakpoints(comp.inner):
            if lo < w <= hi:
                pts.add(x0 + (w - y0) / slope)
    cuts = [0.0] + sorted(t for t in pts if 0.0 < t < 1.0) + [1.0]
    return [(a, c, comp.bid_index(0.5 * (a + c))) for a, c in zip(cuts, cuts[1:]) if c > a]


def _former_utility(comp, F, h):
    bids = comp.grid.bids
    total = 0.0
    for a, c, j in _former_pieces(comp):
        if j >= h:
            fa, fc = F.cdf(a), F.cdf(c)
            ev = F.quantile_tail_integral(fa) - F.quantile_tail_integral(fc)
            total += ev - bids[j] * (fc - fa)
    return total


def _former_revenue(comp, F, h):
    bids = comp.grid.bids
    total = 0.0
    for a, c, j in _former_pieces(comp):
        if j >= h:
            total += bids[j] * (F.cdf(c) - F.cdf(a))
    return total


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
            for h in range(K + 1):
                assert comp.exact_utility(F, h) == _former_utility(comp, F, h)
                assert comp.exact_revenue(F, h) == _former_revenue(comp, F, h)
