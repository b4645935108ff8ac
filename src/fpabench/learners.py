"""Online bidding learners.

All learners share the same tiny interface: ``strategy()`` exposes the
current round's bidding strategy, ``observe(h)`` consumes the highest
competing bid (full feedback) and advances exactly one round.  Every
learner is deterministic given its h-sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .auction import (
    CLAMP_TOL,
    check_probabilities,
    check_thresholds,
    thresholds_from_probabilities,
    utility_gradient,
)
from .distributions import ValueDistribution
from .grids import BidGrid, Grid
from .projection import (
    ga_step_probabilities,
    ga_step_thresholds,
    probability_polytope,
    project_oracle,
)
from .strategies import BucketStrategy, ComposedStrategy, MisreportMap, Strategy, ThresholdStrategy


# ---------------------------------------------------------------------------
# step-size policies


@dataclass(frozen=True)
class FixedStep:
    eta: float

    def __post_init__(self):
        if not 0.0 < self.eta < math.inf:
            raise ValueError(f"step size must be positive and finite, got {self.eta}")

    def at(self, t: int) -> float:
        return self.eta


@dataclass(frozen=True)
class HarmonicStep:
    """eta_t = fbar / (dmin * t); the strongly-concave (log-regret) schedule."""

    fbar: float
    dmin: float

    def __post_init__(self):
        if not (0.0 < self.fbar < math.inf and 0.0 < self.dmin < math.inf):
            raise ValueError(f"fbar and dmin must be positive and finite, "
                             f"got {self.fbar} and {self.dmin}")

    def at(self, t: int) -> float:
        return self.fbar / (self.dmin * t)


def default_eta_known_f(K: int, T: int) -> float:
    """sqrt(K / 2T): optimizes the known-distribution regret bound."""
    return math.sqrt(K / (2.0 * T))


def default_eta_threshold(fbar: float, T: int) -> float:
    """1 / sqrt(fbar * T): optimizes the distribution-free regret bound."""
    return 1.0 / math.sqrt(fbar * T)


# ---------------------------------------------------------------------------
# learners


class Learner:
    kind: str

    def strategy(self) -> Strategy:
        raise NotImplementedError

    def observe(self, h: int) -> None:
        raise NotImplementedError


class GradientBidder(Learner):
    """Projected gradient ascent in bidding-probability space (needs F).

    Uses the closed-form update on uniform grids; on irregular grids each
    round projects through the generic oracle instead.
    """

    kind = "alg1"

    def __init__(self, grid: Grid, F: ValueDistribution, policy, p1=None):
        self.grid = grid
        self.F = F
        self.policy = policy
        self.p = [0.0] * grid.K if p1 is None else list(p1)
        check_probabilities(self.p, grid, F, atol=CLAMP_TOL)
        self.t = 1
        self.last_eta = policy.at(1)
        self.last_diagnostics = None
        self._closed_form = isinstance(grid, BidGrid)
        self._poly = None if self._closed_form else probability_polytope(grid, F)

    def strategy(self) -> ThresholdStrategy:
        v = thresholds_from_probabilities(self.grid, self.F, self.p)
        return ThresholdStrategy(self.grid, tuple(v))

    def observe(self, h: int) -> None:
        eta = self.policy.at(self.t)
        self.last_eta = eta
        if self._closed_form:
            self.p, self.last_diagnostics = ga_step_probabilities(
                self.grid, self.F, self.p, h, eta)
        else:
            g = utility_gradient(self.grid, self.F, self.p, h)
            q = [pj + eta * gj for pj, gj in zip(self.p, g)]
            self.p = project_oracle(self._poly, q)
        self.t += 1


class ThresholdBidder(Learner):
    """Gradient ascent on value thresholds; needs no knowledge of F."""

    kind = "alg2"

    def __init__(self, grid: Grid, eta: float, v1=None):
        if not isinstance(grid, BidGrid):
            raise TypeError("threshold learner requires a uniform bid grid")
        self.grid = grid
        self.eta = eta
        self.v = [1.0] * grid.K if v1 is None else list(v1)
        check_thresholds(self.v, grid, atol=CLAMP_TOL)
        if not 0.0 < eta < math.inf:
            raise ValueError(f"step size must be positive and finite, got {eta}")
        self.t = 1
        self.last_eta = eta
        self.last_diagnostics = None

    def strategy(self) -> ThresholdStrategy:
        return ThresholdStrategy(self.grid, tuple(self.v))

    def observe(self, h: int) -> None:
        self.v, self.last_diagnostics = ga_step_thresholds(self.grid, self.v, h, self.eta)
        self.t += 1


class MeanBasedBucketBidder(Learner):
    """Follow-the-leader over value buckets (the mean-based baseline).

    Each bucket tracks the cumulative payoff of every bid against the
    h-history, evaluated at the bucket midpoint, and plays the argmax with
    ties broken toward the smaller bid.  Value-independent updates keep
    the baseline deterministic.
    """

    kind = "ftl"

    def __init__(self, grid: Grid, buckets: int = 64):
        if buckets < 1:
            raise ValueError("need at least one bucket")
        self.grid = grid
        self.buckets = buckets
        self._bids = np.asarray(grid.bids)
        self._mids = (np.arange(buckets) + 0.5) / buckets
        self._table = np.zeros((buckets, grid.K + 1))
        self._choice = tuple([0] * buckets)
        self.t = 1
        self.last_eta = math.nan

    def strategy(self) -> BucketStrategy:
        return BucketStrategy(self.grid, self._choice)

    def observe(self, h: int) -> None:
        self._table[:, h:] += self._mids[:, None] - self._bids[None, h:]
        self._choice = tuple(np.argmax(self._table, axis=1).tolist())
        self.t += 1


class LazyRegularizedBidder(Learner):
    """Follow-the-regularized-leader with lazy projection (contrast case).

    Accumulates gradients at the played iterates and projects the anchored
    sum through the oracle; only the projection discipline differs from
    the agile gradient learner.
    """

    kind = "lazyftrl"

    def __init__(self, grid: Grid, F: ValueDistribution, eta: float, p1=None):
        if not 0.0 < eta < math.inf:
            raise ValueError(f"step size must be positive and finite, got {eta}")
        self.grid = grid
        self.F = F
        self.eta = eta
        self.p1 = [0.0] * grid.K if p1 is None else list(p1)
        check_probabilities(self.p1, grid, F, atol=CLAMP_TOL)
        self.p = list(self.p1)
        self._gsum = [0.0] * grid.K
        self._poly = probability_polytope(grid, F)
        self.t = 1
        self.last_eta = eta

    def strategy(self) -> ThresholdStrategy:
        v = thresholds_from_probabilities(self.grid, self.F, self.p)
        return ThresholdStrategy(self.grid, tuple(v))

    def observe(self, h: int) -> None:
        g = utility_gradient(self.grid, self.F, self.p, h)
        self._gsum = [a + b for a, b in zip(self._gsum, g)]
        q = [a + self.eta * s for a, s in zip(self.p1, self._gsum)]
        self.p = project_oracle(self._poly, q)
        self.t += 1


class MisreportingBidder(Learner):
    """Feeds misreported values to an inner learner; updates pass through."""

    kind = "misreport"

    def __init__(self, inner: Learner, report: MisreportMap):
        if isinstance(inner, MisreportingBidder):  # its truthful twin would misreport
            raise ValueError("misreporting bidders do not nest; compose the maps instead")
        self.inner = inner
        self.report = report
        self.grid = inner.grid

    @property
    def t(self) -> int:
        return self.inner.t

    @property
    def last_eta(self) -> float:
        return self.inner.last_eta

    def strategy(self) -> ComposedStrategy:
        return ComposedStrategy(self.inner.strategy(), self.report)

    def observe(self, h: int) -> None:
        self.inner.observe(h)


class FixedStrategyBidder(Learner):
    """Plays a fixed threshold strategy forever (testing / baselines)."""

    kind = "fixed"

    def __init__(self, grid: Grid, v):
        check_thresholds(v, grid)
        self.grid = grid
        self.v = tuple(v)
        self.t = 1
        self.last_eta = math.nan

    def strategy(self) -> ThresholdStrategy:
        return ThresholdStrategy(self.grid, self.v)

    def observe(self, h: int) -> None:
        self.t += 1
