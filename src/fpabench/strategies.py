"""Concrete bidding strategies and misreport maps.

A strategy maps a value in [0, 1] to a grid bid index.  Exact expected
utility and seller revenue against a known competing bid are computed in
closed form from the value distribution (no sampling), which is what keeps
regret and robustness measurements noise-free.

A run records its strategies in a ``Plays`` log and accounts for them
after the loop: ``exact_columns`` gives each strategy shape one columnar
kernel.  Threshold and probability strategies go through the probability
rows of ``utility_rows``/``revenue_rows``; piecewise strategies (bucket and
misreported) have no other accounting path.  ``ThresholdStrategy`` keeps
its scalar ``exact_utility``/``exact_revenue`` for single-play callers.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .auction import (
    probabilities_from_strategy,
    revenue_for_h,
    revenue_rows,
    thresholds_from_probabilities,
    utility_for_h,
    utility_rows,
)
from .distributions import ValueDistribution
from .grids import Grid


class Plays:
    """The strategy of every round of a run, stored once per run of rounds
    that played the same object (fresh equal objects get one entry each).

    A learner plays one strategy class on one grid (and under its own F) all
    run; ``exact_columns`` hands the log to that class's ``exact_columns(F,
    plays, run, h)``: the (utility, revenue) of ``plays[run[t]]`` against h[t].
    """

    def __init__(self):
        self.plays = []
        self.rounds = []  # how many consecutive rounds each entry was played

    def record(self, strategy: Strategy) -> None:
        if self.plays and strategy is self.plays[-1]:
            self.rounds[-1] += 1
        else:
            self.plays.append(strategy)
            self.rounds.append(1)

    def exact_columns(self, F: ValueDistribution, h):
        run = np.repeat(np.arange(len(self.plays)), self.rounds)
        return type(self.plays[0]).exact_columns(F, self.plays, run, np.asarray(h))


@dataclass(frozen=True)
class ThresholdStrategy:
    """Bid b_i on values in (v_i, v_{i+1}]."""

    grid: Grid
    thresholds: tuple[float, ...]

    @property
    def edges(self) -> tuple[float, ...]:
        return self.thresholds

    def bid_index(self, value: float) -> int:
        return bisect.bisect_left(self.thresholds, value)

    def exact_utility(self, F: ValueDistribution, h: int) -> float:
        p = probabilities_from_strategy(self.grid, F, self.thresholds)
        return utility_for_h(self.grid, F, p, h)

    def exact_revenue(self, F: ValueDistribution, h: int) -> float:
        p = probabilities_from_strategy(self.grid, F, self.thresholds)
        return revenue_for_h(self.grid, p, h)

    @classmethod
    def exact_columns(cls, F, plays, run, h):
        grid = plays[0].grid
        p = 1.0 - F.cdf_array(np.array([s.thresholds for s in plays]))
        return (utility_rows(grid, F, p)[run, h], revenue_rows(grid, p)[run, h])


@dataclass(frozen=True)
class ProbabilityStrategy:
    """Bid by thresholds v_j = max(F^-(1 - p_j), b_j) under the learner's F, built on first use."""

    grid: Grid
    F: ValueDistribution
    p: tuple[float, ...]

    @cached_property
    def thresholds(self) -> tuple[float, ...]:
        return tuple(thresholds_from_probabilities(self.grid, self.F, self.p))

    edges, bid_index = ThresholdStrategy.edges, ThresholdStrategy.bid_index

    @classmethod
    def exact_columns(cls, F, plays, run, h):
        # thresholds_from_probabilities for every play in one pass, bit for bit:
        # quantile_array is quantile, np.maximum is max (every b_j > 0)
        grid, G = plays[0].grid, plays[0].F
        V = np.maximum(G.quantile_array(1.0 - np.array([s.p for s in plays])), grid.bids[1:])
        p = 1.0 - F.cdf_array(V)
        return (utility_rows(grid, F, p)[run, h], revenue_rows(grid, p)[run, h])


class PiecewiseStrategy:
    """Bid ``piece_bids[b]`` on the b-th piece of [0, 1] cut at ``edges``;
    exact accounting is one pass over the piece masses."""

    @classmethod
    def exact_columns(cls, F, plays, run, h):
        # one (play, h) table: each cell sums, piece by piece from the left,
        # E[V 1(V in piece)] - b dF (utility) and b dF (revenue) over the
        # pieces whose bid wins against h.  Plays that share a partition
        # share one masses row; shorter plays are padded with massless
        # pieces, cut at 1.0, which add +0.0.
        rows = {}
        row = [rows.setdefault(s.edges, len(rows)) for s in plays]
        n = max(map(len, rows)) + 1  # pieces per padded play
        cdf = F.cdf_array([(0.0,) + e + (1.0,) * (n - len(e)) for e in rows])
        tail = F.quantile_tail_integral_array(cdf)
        df = (cdf[:, 1:] - cdf[:, :-1])[row]
        ev = (tail[:, :-1] - tail[:, 1:])[row]
        choice = np.array([s.piece_bids + (0,) * (n - len(s.piece_bids)) for s in plays])
        bids = np.asarray(plays[0].grid.bids)
        wins = choice[:, :, None] >= np.arange(len(bids))
        util = np.zeros((len(plays), len(bids)))
        rev = np.zeros_like(util)
        for b in range(n):
            paid = bids[choice[:, b]] * df[:, b]
            util += np.where(wins[:, b], (ev[:, b] - paid)[:, None], 0.0)
            rev += np.where(wins[:, b], paid[:, None], 0.0)
        return util[run, h], rev[run, h]


@lru_cache(maxsize=32)
def _bucket_edges(buckets: int) -> tuple[float, ...]:
    return tuple(b / buckets for b in range(1, buckets))


@dataclass(frozen=True)
class BucketStrategy(PiecewiseStrategy):
    """Bid per equal-width value bucket; unlike thresholds, possibly non-monotone."""

    grid: Grid
    bids_per_bucket: tuple[int, ...]

    @property
    def buckets(self) -> int:
        return len(self.bids_per_bucket)

    @property
    def edges(self) -> tuple[float, ...]:
        return _bucket_edges(self.buckets)

    @property
    def piece_bids(self) -> tuple[int, ...]:
        return self.bids_per_bucket

    def bid_index(self, value: float) -> int:
        n = len(self.bids_per_bucket)
        return self.bids_per_bucket[max(min(int(value * n), n - 1), 0)]


@dataclass(frozen=True)
class MisreportMap:
    """Piecewise-linear map of reported values, allowing jumps.

    Knots (x_k, y_k) with non-decreasing x; a repeated x encodes a jump,
    with right-continuity at the jump point.
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __post_init__(self):
        xs = tuple(float(x) for x in self.xs)
        ys = tuple(float(y) for y in self.ys)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        if len(xs) != len(ys) or len(xs) < 2:
            raise ValueError("need matching x/y knots, at least two")
        if xs[0] != 0.0 or xs[-1] != 1.0:
            raise ValueError("map must cover [0, 1]")
        if not all(x2 >= x1 for x1, x2 in zip(xs, xs[1:])):  # NaN fails
            raise ValueError("x knots must be non-decreasing")
        if not all(0.0 <= y <= 1.0 for y in ys):
            raise ValueError("reported values must stay in [0, 1]")

    @staticmethod
    def identity() -> "MisreportMap":
        return MisreportMap((0.0, 1.0), (0.0, 1.0))

    def __call__(self, v: float) -> float:
        xs, ys = self.xs, self.ys
        if v <= xs[0]:
            return ys[0]
        if v >= xs[-1]:
            return ys[-1]
        k = bisect.bisect_right(xs, v) - 1  # xs[k] <= v < xs[k + 1]
        t = (v - xs[k]) / (xs[k + 1] - xs[k])
        return ys[k] + t * (ys[k + 1] - ys[k])


def _pull_back(report: MisreportMap, edges: tuple[float, ...]) -> tuple[float, ...]:
    """Interior cuts of [0, 1] where report(v) has a knot or reaches an edge."""
    xs, ys = report.xs, report.ys
    pts = set(xs)
    for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
        if x1 == x0 or y1 == y0:
            continue
        slope = (y1 - y0) / (x1 - x0)
        lo, hi = min(y0, y1), max(y0, y1)
        for w in edges:
            if lo < w <= hi:
                pts.add(x0 + (w - y0) / slope)
    return tuple(sorted([t for t in pts if 0.0 < t < 1.0]))


@dataclass(frozen=True)
class ComposedStrategy(PiecewiseStrategy):
    """bid(v) = inner(M(v)): the inner edges pulled back through M cut the
    pieces, each bidding inner's bid at its reported midpoint.  The pieces
    are worked out on first use, so only accounted plays pay for them."""

    inner: Strategy
    report: MisreportMap

    @property
    def grid(self) -> Grid:
        return self.inner.grid

    @cached_property
    def edges(self) -> tuple[float, ...]:
        return _pull_back(self.report, self.inner.edges)

    @cached_property
    def piece_bids(self) -> tuple[int, ...]:
        bounds = (0.0,) + self.edges + (1.0,)
        return tuple([self.inner.bid_index(self.report(0.5 * (a + c)))
                      for a, c in zip(bounds, bounds[1:])])

    def bid_index(self, value: float) -> int:
        return self.inner.bid_index(self.report(value))


Strategy = ThresholdStrategy | ProbabilityStrategy | BucketStrategy | ComposedStrategy
"""Value -> bid index; ``edges`` are the values where the bid may change."""
