"""Concrete bidding strategies and misreport maps.

A strategy maps a value in [0, 1] to a grid bid index.  Exact expected
utility and seller revenue against a known competing bid are computed in
closed form from the value distribution (no sampling), which is what keeps
regret and robustness measurements noise-free.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from functools import lru_cache

from .auction import bid_for_value, probabilities_from_strategy, revenue_for_h, utility_for_h
from .distributions import ValueDistribution
from .grids import Grid


class Strategy:
    """Value -> bid index; ``edges`` are the values where the bid may change."""

    def bid_index(self, value: float) -> int:
        raise NotImplementedError

    def exact_utility(self, F: ValueDistribution, h: int) -> float:
        raise NotImplementedError

    def exact_revenue(self, F: ValueDistribution, h: int) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class ThresholdStrategy(Strategy):
    """Bid b_i on values in (v_i, v_{i+1}]."""

    grid: Grid
    thresholds: tuple[float, ...]

    @property
    def edges(self) -> tuple[float, ...]:
        return self.thresholds

    def bid_index(self, value: float) -> int:
        return bid_for_value(self.thresholds, value)

    def exact_utility(self, F: ValueDistribution, h: int) -> float:
        p = probabilities_from_strategy(self.grid, F, self.thresholds)
        return utility_for_h(self.grid, F, p, h)

    def exact_revenue(self, F: ValueDistribution, h: int) -> float:
        p = probabilities_from_strategy(self.grid, F, self.thresholds)
        return revenue_for_h(self.grid, p, h)


@lru_cache(maxsize=64)
def piece_masses(F: ValueDistribution, edges: tuple[float, ...]):
    """dF and E[V 1(V in piece)] of each piece of [0, 1] cut at the interior edges."""
    cdf = [F.cdf(c) for c in (0.0,) + edges + (1.0,)]
    tail = [F.quantile_tail_integral(c) for c in cdf]
    return (tuple([b - a for a, b in zip(cdf, cdf[1:])]),
            tuple([a - b for a, b in zip(tail, tail[1:])]))


class PiecewiseStrategy(Strategy):
    """Bid ``piece_bids[b]`` on the b-th piece of [0, 1] cut at ``edges``;
    exact accounting is one pass over the cached piece masses."""

    def masses(self, F: ValueDistribution):
        return piece_masses(F, self.edges)

    def exact_utility(self, F: ValueDistribution, h: int) -> float:
        df, ev = self.masses(F)
        bids = self.grid.bids
        total = 0.0
        for j, mass, value_mass in zip(self.piece_bids, df, ev):
            if j >= h:
                total += value_mass - bids[j] * mass
        return total

    def exact_revenue(self, F: ValueDistribution, h: int) -> float:
        df, _ = self.masses(F)
        bids = self.grid.bids
        total = 0.0
        for j, mass in zip(self.piece_bids, df):
            if j >= h:
                total += bids[j] * mass
        return total


@lru_cache(maxsize=32)
def _bucket_edges(buckets: int) -> tuple[float, ...]:
    return tuple(b / buckets for b in range(1, buckets))


@lru_cache(maxsize=32)
def _bucket_masses(F: ValueDistribution, buckets: int):
    # keyed on the count: hashing the edge tuple every round costs more
    return piece_masses(F, _bucket_edges(buckets))


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

    def masses(self, F: ValueDistribution):
        return _bucket_masses(F, self.buckets)

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
        k = bisect.bisect_right(xs, v) - 1
        if xs[k + 1] == xs[k]:
            return ys[k + 1]
        t = (v - xs[k]) / (xs[k + 1] - xs[k])
        return ys[k] + t * (ys[k + 1] - ys[k])


@lru_cache(maxsize=64)
def _pull_back(report: MisreportMap, edges: tuple[float, ...]):
    """Interior cuts of [0, 1] where report(v) has a knot or reaches an edge,
    and the reported value at each piece's midpoint."""
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
    cuts = tuple(sorted([t for t in pts if 0.0 < t < 1.0]))
    bounds = (0.0,) + cuts + (1.0,)
    return cuts, tuple([report(0.5 * (a + c)) for a, c in zip(bounds, bounds[1:])])


@dataclass(frozen=True)
class ComposedStrategy(PiecewiseStrategy):
    """bid(v) = inner(M(v)): the inner edges pulled back through M cut the
    pieces, each bidding inner's bid at its reported midpoint."""

    inner: Strategy
    report: MisreportMap
    grid: Grid = field(init=False, repr=False, compare=False)
    edges: tuple[float, ...] = field(init=False, repr=False, compare=False)
    piece_bids: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        edges, mids = _pull_back(self.report, self.inner.edges)
        object.__setattr__(self, "grid", self.inner.grid)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "piece_bids", tuple(map(self.inner.bid_index, mids)))

    def bid_index(self, value: float) -> int:
        return self.inner.bid_index(self.report(value))
