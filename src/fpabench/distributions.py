"""Buyer value distributions on [0, 1].

``ValueDistribution`` is the union of the three kinds below, each atomless
with a bounded density.  Each one exposes, in closed form:

* ``cdf(x)``                      F(x)
* ``quantile(y)``                 the generalized inverse
                                  F^-(y) = inf{v : F(v) >= y}
* ``quantile_tail_integral(q)``   G(q) = integral of F^-(u) du over [q, 1]
* ``survival_integral(x)``        integral of (1 - F(t)) dt over [x, 1]
* ``density_bound``               an upper bound on the density

G is the workhorse of expected-utility formulas: E[V * 1(V > a)] equals
G(F(a)) for atomless F, so conditional value masses never need quadrature.

``cdf_array``, ``quantile_array``, ``quantile_tail_integral_array`` and
``survival_integral_array`` evaluate the same closed forms elementwise on
a float array, with the scalar forms' operations in the scalar forms'
order, so every element equals the scalar value bit for bit.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np


def _log(x):
    # numpy's log rounds differently from libm's on some inputs
    return np.fromiter(map(math.log, x.tolist()), float, len(x))


@dataclass(frozen=True)
class Uniform:
    """Uniform distribution on [a, b] within the unit interval."""

    a: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.a < self.b <= 1.0):
            raise ValueError("uniform support needs 0 <= a < b <= 1")

    def cdf(self, x: float) -> float:
        if x <= self.a:
            return 0.0
        if x >= self.b:
            return 1.0
        return (x - self.a) / (self.b - self.a)

    def quantile(self, y: float) -> float:
        if y <= 0.0:
            return 0.0
        if y >= 1.0:
            return self.b
        return self.a + y * (self.b - self.a)

    def quantile_tail_integral(self, q: float) -> float:
        if q >= 1.0:
            return 0.0
        q = max(q, 0.0)
        return self.a * (1.0 - q) + 0.5 * (self.b - self.a) * (1.0 - q * q)

    def survival_integral(self, x: float) -> float:
        if x >= self.b:
            return 0.0
        w = self.b - self.a
        if x >= self.a:
            d = self.b - x
            return d * d / (2.0 * w)
        return (self.a - x) + 0.5 * w

    def cdf_array(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):  # off a tiny support; np.where discards it
            return np.where(x <= self.a, 0.0,
                            np.where(x >= self.b, 1.0, (x - self.a) / (self.b - self.a)))

    def quantile_array(self, y):
        y = np.asarray(y, dtype=float)
        return np.where(y <= 0.0, 0.0, np.where(y >= 1.0, self.b, self.a + y * (self.b - self.a)))

    def quantile_tail_integral_array(self, q):
        q = np.asarray(q, dtype=float)
        top = q >= 1.0
        q = np.maximum(q, 0.0)
        g = self.a * (1.0 - q) + 0.5 * (self.b - self.a) * (1.0 - q * q)
        return np.where(top, 0.0, g)

    def survival_integral_array(self, x):
        x = np.asarray(x, dtype=float)
        w = self.b - self.a
        d = self.b - x
        with np.errstate(over="ignore"):  # past a tiny support; np.where discards it
            return np.where(x >= self.b, 0.0,
                            np.where(x >= self.a, d * d / (2.0 * w), (self.a - x) + 0.5 * w))

    @property
    def density_bound(self) -> float:
        return 1.0 / (self.b - self.a)


@dataclass(frozen=True)
class EqualRevenue:
    """Equal-revenue-style distribution with a linear patch near 1.

    The posted-price revenue r * (1 - F(r)) is constant (1/8) for every
    price in [1/8, 1 - delta]; above the knee 1 - delta the CDF rises
    linearly so the distribution stays atomless on [0, 1].
    """

    delta: float

    def __post_init__(self):
        # knee must sit strictly above the 1/8 floor for the middle branch
        # to be nonempty
        if not (0.0 < self.delta < 0.875):
            raise ValueError("delta must lie in (0, 7/8)")

    @property
    def _knee(self) -> float:
        return 1.0 - self.delta

    @property
    def _c(self) -> float:
        # slope denominator of the linear patch: 8 * (1 - delta) * delta
        return 8.0 * (1.0 - self.delta) * self.delta

    @property
    def _ystar(self) -> float:
        # CDF level at the knee
        return 1.0 - 1.0 / (8.0 * (1.0 - self.delta))

    def cdf(self, x: float) -> float:
        if x <= 0.125:
            return 0.0
        if x < self._knee:
            return 1.0 - 1.0 / (8.0 * x)
        if x >= 1.0:
            return 1.0
        return 1.0 - (1.0 - x) / self._c

    def quantile(self, y: float) -> float:
        if y <= 0.0:
            return 0.0
        if y >= 1.0:
            return 1.0
        if y <= self._ystar:
            return 1.0 / (8.0 * (1.0 - y))
        return 1.0 - self._c * (1.0 - y)

    def quantile_tail_integral(self, q: float) -> float:
        if q >= 1.0:
            return 0.0
        q = max(q, 0.0)
        ystar = self._ystar
        w = 1.0 - max(q, ystar)
        total = w - 0.5 * self._c * w * w
        if q < ystar:
            total += 0.125 * (math.log(1.0 - q) - math.log(1.0 - ystar))
        return total

    def survival_integral(self, x: float) -> float:
        if x >= 1.0:
            return 0.0
        x = max(x, 0.0)
        knee = self._knee
        d = 1.0 - max(x, knee)
        total = d * d / (2.0 * self._c)
        if x < knee:
            lo = max(x, 0.125)
            total += 0.125 * (math.log(knee) - math.log(lo))
        if x < 0.125:
            total += 0.125 - x
        return total

    def cdf_array(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):  # in branches np.where discards
            middle = 1.0 - 1.0 / (8.0 * x)
            patch = 1.0 - (1.0 - x) / self._c  # overflows below the knee for a tiny delta
        return np.where(x <= 0.125, 0.0,
                        np.where(x < self._knee, middle, np.where(x >= 1.0, 1.0, patch)))

    def quantile_array(self, y):
        y = np.asarray(y, dtype=float)
        low = 1.0 / (8.0 * (1.0 - np.minimum(y, self._ystar)))  # no 1/0; used where y <= _ystar
        inner = np.where(y <= self._ystar, low, 1.0 - self._c * (1.0 - y))
        return np.where(y <= 0.0, 0.0, np.where(y >= 1.0, 1.0, inner))

    def quantile_tail_integral_array(self, q):
        q = np.asarray(q, dtype=float)
        top = q >= 1.0
        q = np.maximum(q, 0.0)
        ystar = self._ystar
        w = 1.0 - np.maximum(q, ystar)
        total = w - 0.5 * self._c * w * w
        low = q < ystar
        total[low] += 0.125 * (_log(1.0 - q[low]) - math.log(1.0 - ystar))
        return np.where(top, 0.0, total)

    def survival_integral_array(self, x):
        x = np.asarray(x, dtype=float)
        top = x >= 1.0
        x = np.maximum(x, 0.0)
        knee = self._knee
        d = 1.0 - np.maximum(x, knee)
        total = d * d / (2.0 * self._c)
        below = x < knee
        lo = np.maximum(x[below], 0.125)
        total[below] += 0.125 * (math.log(knee) - _log(lo))
        bottom = x < 0.125
        total[bottom] += 0.125 - x[bottom]
        return np.where(top, 0.0, total)

    @property
    def density_bound(self) -> float:
        return max(8.0, 1.0 / self._c)


@dataclass(frozen=True)
class PiecewiseLinearCDF:
    """CDF given by linear interpolation of knots (x_k, y_k).

    Knots must start at (0, 0), end at (1, 1), have strictly increasing x
    and non-decreasing y; jumps (atoms) are rejected by construction.
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __post_init__(self):
        xs = tuple(float(x) for x in self.xs)
        ys = tuple(float(y) for y in self.ys)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        if len(xs) != len(ys) or len(xs) < 2:
            raise ValueError("need matching x/y knot lists with >= 2 knots")
        if xs[0] != 0.0 or ys[0] != 0.0 or xs[-1] != 1.0 or ys[-1] != 1.0:
            raise ValueError("knots must run from (0,0) to (1,1)")
        if not all(x2 > x1 for x1, x2 in zip(xs, xs[1:])):  # NaN fails
            raise ValueError("x knots must be strictly increasing")
        if not all(y2 >= y1 for y1, y2 in zip(ys, ys[1:])):
            raise ValueError("y knots must be non-decreasing")

    def cdf(self, x: float) -> float:
        xs, ys = self.xs, self.ys
        if x <= 0.0:
            return 0.0
        if x >= 1.0:
            return 1.0
        k = bisect.bisect_right(xs, x) - 1
        t = (x - xs[k]) / (xs[k + 1] - xs[k])
        return ys[k] + t * (ys[k + 1] - ys[k])

    def quantile(self, y: float) -> float:
        """First crossing point; exact inverse interpolation of the knots."""
        xs, ys = self.xs, self.ys
        if y <= 0.0:
            return 0.0
        if y >= 1.0:
            return xs[ys.index(1.0)]
        k = bisect.bisect_left(ys, y)
        if ys[k] == y:
            return xs[k]
        # y is interior to the rising segment (k-1, k)
        t = (y - ys[k - 1]) / (ys[k] - ys[k - 1])
        return xs[k - 1] + t * (xs[k] - xs[k - 1])

    def quantile_tail_integral(self, q: float) -> float:
        if q >= 1.0:
            return 0.0
        q = max(q, 0.0)
        xs, ys = self.xs, self.ys
        total = 0.0
        for k in range(len(xs) - 1):
            dy = ys[k + 1] - ys[k]
            if dy <= 0.0 or ys[k + 1] <= q:
                continue
            lo = max(q, ys[k])
            # quantile is linear in u on (ys[k], ys[k+1])
            dx = xs[k + 1] - xs[k]
            qa = xs[k] + (lo - ys[k]) / dy * dx
            total += 0.5 * (qa + xs[k + 1]) * (ys[k + 1] - lo)
        return total

    def survival_integral(self, x: float) -> float:
        if x >= 1.0:
            return 0.0
        x = max(x, 0.0)
        xs, ys = self.xs, self.ys
        total = 0.0
        for k in range(len(xs) - 1):
            if xs[k + 1] <= x:
                continue
            lo = max(x, xs[k])
            sa = 1.0 - self.cdf(lo)
            sb = 1.0 - ys[k + 1]
            total += 0.5 * (sa + sb) * (xs[k + 1] - lo)
        return total

    def cdf_array(self, x):
        x = np.asarray(x, dtype=float)
        xs, ys = np.asarray(self.xs), np.asarray(self.ys)
        k = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(xs) - 2)
        t = (x - xs[k]) / (xs[k + 1] - xs[k])
        inner = ys[k] + t * (ys[k + 1] - ys[k])
        return np.where(x <= 0.0, 0.0, np.where(x >= 1.0, 1.0, inner))

    def quantile_array(self, y):
        y = np.asarray(y, dtype=float)
        xs, ys = np.asarray(self.xs), np.asarray(self.ys)
        k = np.clip(np.searchsorted(ys, y, side="left"), 1, len(ys) - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (y - ys[k - 1]) / (ys[k] - ys[k - 1])
        inner = np.where(ys[k] == y, xs[k], xs[k - 1] + t * (xs[k] - xs[k - 1]))
        return np.where(y <= 0.0, 0.0, np.where(y >= 1.0, self.quantile(1.0), inner))

    def quantile_tail_integral_array(self, q):
        q = np.asarray(q, dtype=float)
        top = q >= 1.0
        q = np.maximum(q, 0.0)
        xs, ys = self.xs, self.ys
        total = np.zeros(q.shape)
        # a subnormal rise dy can overflow qa, but only where ys[k + 1] <= q,
        # which the scalar form skips and np.where drops
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(len(xs) - 1):
                dy = ys[k + 1] - ys[k]
                if dy <= 0.0:
                    continue
                lo = np.maximum(q, ys[k])
                dx = xs[k + 1] - xs[k]
                qa = xs[k] + (lo - ys[k]) / dy * dx
                total += np.where(ys[k + 1] <= q, 0.0, 0.5 * (qa + xs[k + 1]) * (ys[k + 1] - lo))
        return np.where(top, 0.0, total)

    def survival_integral_array(self, x):
        x = np.asarray(x, dtype=float)
        top = x >= 1.0
        x = np.maximum(x, 0.0)
        xs, ys = self.xs, self.ys
        total = np.zeros(x.shape)
        for k in range(len(xs) - 1):
            lo = np.maximum(x, xs[k])
            sa = 1.0 - self.cdf_array(lo)
            sb = 1.0 - ys[k + 1]
            total += np.where(xs[k + 1] <= x, 0.0, 0.5 * (sa + sb) * (xs[k + 1] - lo))
        return np.where(top, 0.0, total)

    @property
    def density_bound(self) -> float:
        return max(
            (y2 - y1) / (x2 - x1)
            for x1, x2, y1, y2 in zip(self.xs, self.xs[1:], self.ys, self.ys[1:])
        )


ValueDistribution = Uniform | EqualRevenue | PiecewiseLinearCDF
