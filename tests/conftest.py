"""Shared helpers: seeded generators, one play's exact columns, and the
frozen piecewise accounting the column kernel is checked against."""

import numpy as np
import pytest

from fpabench.rng import TESTING, stream_rng
from fpabench.strategies import BucketStrategy, Plays


def make_rng(actor: int = 0) -> np.random.Generator:
    return stream_rng(12345, TESTING, actor)


@pytest.fixture
def rng():
    return make_rng()


def play_columns(strategy, F):
    """(utility, revenue) arrays of one play against each competing bid 0..K."""
    plays = Plays()
    n = strategy.grid.K + 1
    for _ in range(n):
        plays.record(strategy)
    return plays.exact_columns(F, np.arange(n))


# Frozen copy of the accounting the piece table replaced: breakpoints rebuilt
# and cdf / G evaluated per piece on every call.  Kept to pin the table's
# results bit for bit, for bucket and misreported (composed) strategies.

def _former_breakpoints(strategy):
    if isinstance(strategy, BucketStrategy):
        return [b / strategy.buckets for b in range(1, strategy.buckets)]
    return list(strategy.thresholds)


def _former_pieces(strategy):
    if isinstance(strategy, BucketStrategy):
        pts = set(_former_breakpoints(strategy))
    else:
        M = strategy.report
        pts = set(M.xs)
        segments = [(M.xs[k], M.xs[k + 1], M.ys[k], M.ys[k + 1])
                    for k in range(len(M.xs) - 1) if M.xs[k + 1] > M.xs[k]]
        for x0, x1, y0, y1 in segments:
            if y1 == y0:
                continue
            slope = (y1 - y0) / (x1 - x0)
            lo, hi = min(y0, y1), max(y0, y1)
            for w in _former_breakpoints(strategy.inner):
                if lo < w <= hi:
                    pts.add(x0 + (w - y0) / slope)
    cuts = [0.0] + sorted(t for t in pts if 0.0 < t < 1.0) + [1.0]
    return [(a, c, strategy.bid_index(0.5 * (a + c)))
            for a, c in zip(cuts, cuts[1:]) if c > a]


def former_utility(strategy, F, h):
    bids = strategy.grid.bids
    total = 0.0
    for a, c, j in _former_pieces(strategy):
        if j >= h:
            fa, fc = F.cdf(a), F.cdf(c)
            ev = F.quantile_tail_integral(fa) - F.quantile_tail_integral(fc)
            total += ev - bids[j] * (fc - fa)
    return total


def former_revenue(strategy, F, h):
    bids = strategy.grid.bids
    total = 0.0
    for a, c, j in _former_pieces(strategy):
        if j >= h:
            total += bids[j] * (F.cdf(c) - F.cdf(a))
    return total
