"""Online bidding learners.

All learners share the same tiny interface: ``strategy()`` exposes the
current round's bidding strategy, ``bid_index(value)`` is the bid it
places for a value, ``observe(h)`` consumes the highest competing bid
(full feedback) and advances exactly one round, and ``foresee(hs)`` hands
over the h-sequence of an oblivious adversary first.  Every learner is
deterministic given its h-sequence.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .auction import (
    CLAMP_TOL,
    check_bid_index,
    check_probabilities,
    check_thresholds,
    clamp_probabilities,
    clamp_thresholds,
    threshold_margin,
    thresholds_from_probabilities,
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
        # the first step fbar / dmin can overflow or underflow with both finite
        if not (0.0 < self.fbar < math.inf and 0.0 < self.dmin < math.inf
                and 0.0 < self.at(1) < math.inf):
            raise ValueError(f"fbar, dmin and fbar / dmin must be positive and finite, "
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

_CHUNK_CELLS = 2**14  # per FTL pass: 51 rounds at K=4, 64 buckets; 1 at the cap


class Learner:
    """``strategy()`` returns ``_strategy``, one object until ``observe``
    changes what it is built from; one dropped (set to None) is rebuilt on use.
    ``bid_index`` bids through that object unless a learner overrides it."""

    kind: str

    def __init__(self, grid: Grid, strategy: Strategy | None, last_eta: float = math.nan):
        self.grid = grid
        self.t = 1
        self.last_eta = last_eta
        self._strategy = strategy

    def strategy(self) -> Strategy:
        s = self._strategy
        if s is None:
            s = self._strategy = self._build_strategy()
        return s

    def bid_index(self, value: float) -> int:
        return self.strategy().bid_index(value)

    def foresee(self, hs) -> None:
        """The h of the rounds to come, in order; ``observe`` still gets each one."""


class GradientBidder(Learner):
    """Projected gradient ascent in bidding-probability space (needs F).

    Uses the closed-form update on uniform grids; on irregular grids each
    round projects through the generic oracle instead.
    """

    kind = "alg1"

    def __init__(self, grid: Grid, F: ValueDistribution, policy, p1=None):
        self.F = F
        self.policy = policy
        p = [0.0] * grid.K if p1 is None else p1
        check_probabilities(p, grid, F, atol=CLAMP_TOL)
        self.p = clamp_probabilities(p, grid, F)  # the steps take no drift
        if isinstance(grid, BidGrid):  # the chain step's floors, -(1 - F(b_j))
            self._floors, self._poly = [-(1.0 - F.cdf(b)) for b in grid.bids[1:]], None
        else:
            self._floors, self._poly = None, probability_polytope(grid, F)
        super().__init__(grid, None, policy.at(1))

    def _build_strategy(self) -> ThresholdStrategy:
        return ThresholdStrategy(self.grid, tuple(thresholds_from_probabilities(
            self.grid, self.F, self.p)))

    def observe(self, h: int) -> None:
        eta = self.policy.at(self.t)
        self.last_eta = eta
        if self._poly is None:
            # ga_step_probabilities unchecked: p1 was snapped, later p are the step's output
            step = _step_size(self.grid, h, eta)
            g = eta * threshold_margin(self.F, self.p[h - 1], self.grid.bids[h]) if h else 0.0
            p = [-t for t in _chain_step([-t for t in self.p], h, g, step, -0.0, self._floors)[0]]
        else:
            g = utility_gradient(self.grid, self.F, self.p, h)
            q = [pj + eta * gj for pj, gj in zip(self.p, g)]
            p = project_oracle(self._poly, q)
        if p != self.p:  # p enters only as 1 - p_j: equal p, +-0 included, gives equal bits
            self._strategy = None
        self.p = p
        self.t += 1


class ThresholdBidder(Learner):
    """Gradient ascent on value thresholds; needs no knowledge of F."""

    kind = "alg2"

    def __init__(self, grid: Grid, eta: float, v1=None):
        if not isinstance(grid, BidGrid):
            raise TypeError("threshold learner requires a uniform bid grid")
        self.eta = eta
        v = [1.0] * grid.K if v1 is None else v1
        check_thresholds(v, grid, atol=CLAMP_TOL)
        self.v = clamp_thresholds(v, grid)  # the steps take no drift
        FixedStep(eta)  # raises unless eta is positive and finite
        self._step, self._floors = eta * grid.eps, grid.bids[1:]
        super().__init__(grid, None, eta)

    def _build_strategy(self) -> ThresholdStrategy:
        return ThresholdStrategy(self.grid, tuple(self.v))

    def bid_index(self, value: float) -> int:
        # ThresholdStrategy.bid_index on the same floats, with no object built
        return bisect.bisect_left(self.v, value)

    def observe(self, h: int) -> None:
        # ga_step_thresholds unchecked: v1 was snapped, later v are the step's output
        check_bid_index(h, self.grid)
        g = self.eta * (self.v[h - 1] - self.grid.bids[h]) if h else 0.0
        v = _chain_step(self.v, h, g, self._step, 1.0, self._floors)[0]
        if v != self.v:  # thresholds are positive, so equal means the same bits
            self.v, self._strategy = v, None
        self.t += 1


class MeanBasedBucketBidder(Learner):
    """Follow-the-leader over value buckets (the mean-based baseline).

    Each bucket tracks the cumulative payoff of every bid against the
    h-history, evaluated at the bucket midpoint, and plays the argmax with
    ties broken toward the smaller bid.  Value-independent updates keep
    the baseline deterministic.  A foreseen sequence is played in chunked
    table passes, each h checked as ``observe`` gets it; else a pass is one round.
    """

    kind = "ftl"

    def __init__(self, grid: Grid, buckets: int = 64):
        if check_integer(buckets, "buckets") < 1:
            raise ValueError("need at least one bucket")
        if buckets * (grid.K + 1) > 2**24:  # refused before np.zeros allocates the table
            raise ValueError(f"buckets={buckets} needs {buckets * (grid.K + 1)} table cells, "
                             "more than 2**24")
        self._bids = np.asarray(grid.bids)[:, None]
        self._mids = (np.arange(buckets) + 0.5) / buckets
        self._table = np.zeros((grid.K + 1, buckets))  # [j, b]: bid j's payoff sum at mid b
        # rounds per pass: a chunk's working set is bounded in cells, not rounds
        self._chunk = max(1, _CHUNK_CELLS // (buckets * (grid.K + 1)))
        self.foresee(())
        super().__init__(grid, BucketStrategy(grid, (0,) * buckets))

    def foresee(self, hs) -> None:
        hs = np.asarray(hs)
        # a non-integer h is left to the run loop's check, which names its round
        self._ahead = hs if hs.dtype.kind in "iu" else hs[:0]
        self._hs, self._i = [], 0

    def _pass(self, hs) -> None:
        """Tables and strategies after each round of hs, in one array pass."""
        j = np.arange(self.grid.K + 1)[:, None]
        # row r: round r's gains on the bids j >= h_r; np.where, not a 0/1
        # product, so a masked cell adds +0.0, never -0.0
        acc = np.where(j >= hs[:, None, None], self._mids - self._bids, 0.0)
        acc[0] += self._table
        np.add.accumulate(acc, axis=0, out=acc)  # row r: the table after round r
        choice = acc.argmax(axis=1)  # the first maximum: ties to the smaller bid
        before = np.concatenate((self._table.argmax(axis=0)[None], choice[:-1]))
        changed = (choice != before).any(axis=1)
        self._new = {r: BucketStrategy(self.grid, tuple(choice[r].tolist()))
                     for r in np.flatnonzero(changed).tolist()}
        self._hs, self._acc, self._i = hs.tolist(), acc, 0

    def observe(self, h: int) -> None:
        check_bid_index(h, self.grid)
        if self._i == len(self._hs):  # the pass is played out: take the next chunk
            ahead, self._ahead = self._ahead[:self._chunk], self._ahead[self._chunk:]
            self._pass(ahead if len(ahead) else np.array([h]))
        i = self._i
        if h != self._hs[i]:
            raise ValueError(f"observed h={h} at t={self.t}, but h={self._hs[i]} was foreseen")
        self._table, self._strategy = self._acc[i], self._new.get(i, self._strategy)
        self._i += 1
        self.t += 1


class LazyRegularizedBidder(Learner):
    """Follow-the-regularized-leader with lazy projection (contrast case).

    Accumulates gradients at the played iterates and projects the anchored
    sum through the oracle; only the projection discipline differs from
    the agile gradient learner.
    """

    kind = "lazyftrl"

    def __init__(self, grid: Grid, F: ValueDistribution, eta: float, p1=None):
        FixedStep(eta)  # raises unless eta is positive and finite
        self.F = F
        self.eta = eta
        p = [0.0] * grid.K if p1 is None else p1
        check_probabilities(p, grid, F, atol=CLAMP_TOL)
        self.p1 = clamp_probabilities(p, grid, F)  # the anchor takes no drift
        self.p = list(self.p1)
        self._gsum = [0.0] * grid.K
        self._poly = probability_polytope(grid, F)
        super().__init__(grid, None, eta)

    _build_strategy = GradientBidder._build_strategy

    def observe(self, h: int) -> None:
        g = utility_gradient(self.grid, self.F, self.p, h)
        self._gsum = [a + b for a, b in zip(self._gsum, g)]
        q = [a + self.eta * s for a, s in zip(self.p1, self._gsum)]
        p = project_oracle(self._poly, q)
        if p != self.p:  # as in GradientBidder.observe
            self._strategy = None
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

    def bid_index(self, value: float) -> int:
        # ComposedStrategy.bid_index on the same bits, with no object built
        return self.inner.bid_index(self.report(value))

    def foresee(self, hs) -> None:
        self.inner.foresee(hs)

    def observe(self, h: int) -> None:
        self.inner.observe(h)


class FixedStrategyBidder(Learner):
    """Plays a fixed threshold strategy forever (testing / baselines)."""

    kind = "fixed"

    def __init__(self, grid: Grid, v):
        check_thresholds(v, grid, atol=CLAMP_TOL)
        self.v = tuple(clamp_thresholds(v, grid))
        super().__init__(grid, ThresholdStrategy(grid, self.v))

    bid_index = ThresholdBidder.bid_index

    def observe(self, h: int) -> None:
        check_bid_index(h, self.grid)
        self.t += 1
