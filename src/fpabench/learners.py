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
    check_bid_index,
    check_probabilities,
    check_thresholds,
    threshold_margin,
    utility_gradient,
)
from .distributions import ValueDistribution
from .grids import BidGrid, Grid, check_integer
# no learner calls ga_step_probabilities any more, but perfbench's tests read
# this module's binding of it, so it stays imported
from .projection import (  # noqa: F401
    _chain_step,
    _step_size,
    ga_step_probabilities,
    probability_polytope,
    project_oracle,
)
from .strategies import (BucketStrategy, ComposedStrategy, MisreportMap, ProbabilityStrategy,
                         Strategy, ThresholdStrategy)


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
    """``strategy()`` returns ``_strategy``, which a learner rebuilds only
    when ``observe`` changes the state it is built from."""

    kind: str
    _strategy: Strategy

    def strategy(self) -> Strategy:
        return self._strategy


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
        if isinstance(grid, BidGrid):  # the chain step's floors, -(1 - F(b_j))
            self._floors, self._poly = [-(1.0 - F.cdf(b)) for b in grid.bids[1:]], None
        else:
            self._floors, self._poly = None, probability_polytope(grid, F)
        self._strategy = ProbabilityStrategy(grid, F, tuple(self.p))

    def observe(self, h: int) -> None:
        eta = self.policy.at(self.t)
        self.last_eta = eta
        if self._poly is None:
            # ga_step_probabilities minus its check of p: p1 was checked, later p
            # are the step's output
            step = _step_size(self.grid, h, eta)
            g = eta * threshold_margin(self.F, self.p[h - 1], self.grid.bids[h]) if h else 0.0
            out = _chain_step([-pj for pj in self.p], h, g, step, -0.0, self._floors, "-p")[0]
            p = [-t for t in out]
        else:
            g = utility_gradient(self.grid, self.F, self.p, h)
            q = [pj + eta * gj for pj, gj in zip(self.p, g)]
            p = project_oracle(self._poly, q)
        if p != self.p:  # p enters only as 1 - p_j: equal p, +-0 included, gives equal bits
            self._strategy = ProbabilityStrategy(self.grid, self.F, tuple(p))
        self.p = p
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
        self._strategy = ThresholdStrategy(grid, tuple(self.v))

    def observe(self, h: int) -> None:
        # ga_step_thresholds unchecked: v1 was checked, later v are the step's output
        check_bid_index(h, self.grid)
        g = self.eta * (self.v[h - 1] - self.grid.bids[h]) if h else 0.0
        v = _chain_step(self.v, h, g, self.eta * self.grid.eps, 1.0, self.grid.bids[1:], "v")[0]
        if v != self.v:  # thresholds are positive, so equal means the same bits
            self.v, self._strategy = v, ThresholdStrategy(self.grid, tuple(v))
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
        if check_integer(buckets, "buckets") < 1:
            raise ValueError("need at least one bucket")
        self.grid = grid
        self.buckets = buckets
        self._bids = np.asarray(grid.bids)
        self._mids = (np.arange(buckets) + 0.5) / buckets
        self._table = np.zeros((buckets, grid.K + 1))
        self._choice = tuple([0] * buckets)
        self._strategy = BucketStrategy(grid, self._choice)
        self.t = 1
        self.last_eta = math.nan

    def observe(self, h: int) -> None:
        check_bid_index(h, self.grid)
        self._table[:, h:] += self._mids[:, None] - self._bids[None, h:]
        choice = tuple(np.argmax(self._table, axis=1).tolist())
        if choice != self._choice:
            self._choice, self._strategy = choice, BucketStrategy(self.grid, choice)
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
        self._strategy = ProbabilityStrategy(grid, F, tuple(self.p))
        self.t = 1
        self.last_eta = eta

    def observe(self, h: int) -> None:
        g = utility_gradient(self.grid, self.F, self.p, h)
        self._gsum = [a + b for a, b in zip(self._gsum, g)]
        q = [a + self.eta * s for a, s in zip(self.p1, self._gsum)]
        p = project_oracle(self._poly, q)
        if p != self.p:  # as in GradientBidder.observe
            self._strategy = ProbabilityStrategy(self.grid, self.F, tuple(p))
        self.p = p
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
        self._strategy = None

    @property
    def t(self) -> int:
        return self.inner.t

    @property
    def last_eta(self) -> float:
        return self.inner.last_eta

    def strategy(self) -> ComposedStrategy:
        inner = self.inner.strategy()
        if self._strategy is None or self._strategy.inner is not inner:
            self._strategy = ComposedStrategy(inner, self.report)
        return self._strategy

    def observe(self, h: int) -> None:
        self.inner.observe(h)


class FixedStrategyBidder(Learner):
    """Plays a fixed threshold strategy forever (testing / baselines)."""

    kind = "fixed"

    def __init__(self, grid: Grid, v):
        check_thresholds(v, grid)
        self.grid = grid
        self.v = tuple(v)
        self._strategy = ThresholdStrategy(grid, self.v)
        self.t = 1
        self.last_eta = math.nan

    def observe(self, h: int) -> None:
        check_bid_index(h, self.grid)
        self.t += 1
