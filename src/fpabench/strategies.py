"""Concrete bidding strategies and misreport maps.

A strategy maps a value in [0, 1] to a grid bid index.  Exact expected
utility and seller revenue against a known competing bid are computed in
closed form from the value distribution (no sampling), which is what keeps
regret and robustness measurements noise-free.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import lru_cache

from .auction import bid_for_value, probabilities_from_strategy, revenue_for_h, utility_for_h
from .distributions import ValueDistribution
from .grids import Grid


class Strategy:
    def bid_index(self, value: float) -> int:
        raise NotImplementedError

    def breakpoints(self):
        """Sorted values where the bid index may change."""
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

    def bid_index(self, value: float) -> int:
        return bid_for_value(self.thresholds, value)

    def breakpoints(self):
        return list(self.thresholds)

    def exact_utility(self, F: ValueDistribution, h: int) -> float:
        p = probabilities_from_strategy(self.grid, F, self.thresholds)
        return utility_for_h(self.grid, F, p, h)

    def exact_revenue(self, F: ValueDistribution, h: int) -> float:
        p = probabilities_from_strategy(self.grid, F, self.thresholds)
        return revenue_for_h(self.grid, p, h)


@lru_cache(maxsize=32)
def _bucket_tables(F: ValueDistribution, buckets: int):
    """Per-bucket mass and conditional value mass: dF_b and E[V 1(V in bucket)]."""
    edges = [b / buckets for b in range(buckets + 1)]
    cdf = [F.cdf(e) for e in edges]
    tail = [F.quantile_tail_integral(c) for c in cdf]
    df = [cdf[b + 1] - cdf[b] for b in range(buckets)]
    ev = [tail[b] - tail[b + 1] for b in range(buckets)]
    return df, ev


@dataclass(frozen=True)
class BucketStrategy(Strategy):
    """Piecewise-constant strategy on equal-width value buckets.

    Unlike threshold strategies the bucket table may be non-monotone in
    the value.
    """

    grid: Grid
    bids_per_bucket: tuple[int, ...]

    @property
    def buckets(self) -> int:
        return len(self.bids_per_bucket)

    def bid_index(self, value: float) -> int:
        b = min(int(value * self.buckets), self.buckets - 1)
        return self.bids_per_bucket[max(b, 0)]

    def breakpoints(self):
        return [b / self.buckets for b in range(1, self.buckets)]

    def exact_utility(self, F: ValueDistribution, h: int) -> float:
        df, ev = _bucket_tables(F, self.buckets)
        bids = self.grid.bids
        total = 0.0
        for b, j in enumerate(self.bids_per_bucket):
            if j >= h:
                total += ev[b] - bids[j] * df[b]
        return total

    def exact_revenue(self, F: ValueDistribution, h: int) -> float:
        df, _ = _bucket_tables(F, self.buckets)
        bids = self.grid.bids
        total = 0.0
        for b, j in enumerate(self.bids_per_bucket):
            if j >= h:
                total += bids[j] * df[b]
        return total


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
        if any(x2 < x1 for x1, x2 in zip(xs, xs[1:])):
            raise ValueError("x knots must be non-decreasing")
        if any(y < 0.0 or y > 1.0 for y in ys):
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

    def segments(self):
        """Non-degenerate (x_lo, x_hi, y_lo, y_hi) pieces."""
        out = []
        for k in range(len(self.xs) - 1):
            if self.xs[k + 1] > self.xs[k]:
                out.append((self.xs[k], self.xs[k + 1], self.ys[k], self.ys[k + 1]))
        return out


@dataclass(frozen=True)
class ComposedStrategy(Strategy):
    """Inner strategy fed with misreported values: bid(v) = inner(M(v))."""

    inner: Strategy
    report: MisreportMap

    @property
    def grid(self) -> Grid:
        return self.inner.grid

    def bid_index(self, value: float) -> int:
        return self.inner.bid_index(self.report(value))

    def breakpoints(self):
        pts = set(self.report.xs)
        inner_bp = self.inner.breakpoints()
        for x0, x1, y0, y1 in self.report.segments():
            if y1 == y0:
                continue
            slope = (y1 - y0) / (x1 - x0)
            lo, hi = min(y0, y1), max(y0, y1)
            for w in inner_bp:
                if lo < w <= hi:
                    pts.add(x0 + (w - y0) / slope)
        return sorted(t for t in pts if 0.0 < t < 1.0)

    def _pieces(self):
        cuts = [0.0] + self.breakpoints() + [1.0]
        out = []
        for a, c in zip(cuts, cuts[1:]):
            if c > a:
                out.append((a, c, self.bid_index(0.5 * (a + c))))
        return out

    def exact_utility(self, F: ValueDistribution, h: int) -> float:
        bids = self.grid.bids
        total = 0.0
        for a, c, j in self._pieces():
            if j >= h:
                fa, fc = F.cdf(a), F.cdf(c)
                ev = F.quantile_tail_integral(fa) - F.quantile_tail_integral(fc)
                total += ev - bids[j] * (fc - fa)
        return total

    def exact_revenue(self, F: ValueDistribution, h: int) -> float:
        bids = self.grid.bids
        total = 0.0
        for a, c, j in self._pieces():
            if j >= h:
                total += bids[j] * (F.cdf(c) - F.cdf(a))
        return total
