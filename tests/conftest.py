"""Shared helpers: seeded generators, one play's exact columns, a count of
each run's plays, and the frozen piecewise accounting the column kernel is
checked against."""

import numpy as np
import pytest

from fpabench import auction, environments, strategies
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


def count_plays(monkeypatch) -> list:
    """The list every run accounted after this call appends its play count to.

    A ``Plays`` log counts its entries.  A run logged by its state rows counts
    the runs of distinct consecutive rows: numpy's != treats +-0 as equal, as
    the learners' state comparison does, so both paths give one count per
    strategy a learner would build.  ``environments`` binds ``threshold_rows``
    and ``ThresholdStrategy`` for the rows path alone, so the spies there see
    no ``Plays`` run.
    """
    sizes = []
    columns = Plays.exact_columns

    def spy(self, F, h):
        sizes.append(len(self.plays))
        return columns(self, F, h)

    probabilities = []

    def threshold_rows(grid, G, P):
        probabilities.append(P)  # a p learner counts its p rows, not their thresholds
        return auction.threshold_rows(grid, G, P)

    class Rows:
        def row_columns(self, grid, F, V, run, h):
            rows = probabilities.pop() if probabilities else V
            sizes.append(1 + int((rows[1:] != rows[:-1]).any(axis=1).sum()))
            return strategies.ThresholdStrategy.row_columns(grid, F, V, run, h)

    monkeypatch.setattr(Plays, "exact_columns", spy)
    monkeypatch.setattr(environments, "threshold_rows", threshold_rows)
    monkeypatch.setattr(environments, "ThresholdStrategy", Rows())
    return sizes


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
