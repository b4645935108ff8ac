"""Auction environments: competing-bid generators and run loops.

Two run modes:

* exact mode records u(p_t|F,h_t) and rev(p_t,h_t) in closed form every
  round, so regret and robustness measurements carry no Monte-Carlo noise;
* sampled mode additionally draws values and realized bids (and is the
  only mode for the multi-buyer auction, which needs realizations).
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from .auction import threshold_rows
from .distributions import ValueDistribution
from .grids import Grid, check_integer
from .metrics import benchmark_columns, check_bid_distribution, robustness_columns
from .rng import ADVERSARY, RANKING, VALUES, stream_rng
from .strategies import Plays, ThresholdStrategy

UNWINNABLE = -1

# learner kind -> the state attribute that sets its thresholds each round:
# a threshold vector v, or bidding probabilities p under the learner's own F
STATE_ROW = {"alg1": "p", "lazyftrl": "p", "alg2": "v", "fixed": "v"}


# ---------------------------------------------------------------------------
# adversaries (highest-competing-bid generators)


@dataclass
class History:
    """What an adaptive adversary may see before choosing h_t."""

    current_strategy: object = None
    past_h: list = field(default_factory=list)
    past_values: list = field(default_factory=list)


class Adversary:
    """Oblivious unless it overrides ``next``: ``prepare`` fixes h_1..h_T in ``_h``."""

    def prepare(self, T: int, K: int, rng) -> None:
        pass

    def next(self, t, history):
        return self._h[t - 1]


class StochasticCompetition(Adversary):
    """iid draws from a fixed distribution over grid indices."""

    def __init__(self, d):
        self.d = check_bid_distribution(d)

    def prepare(self, T, K, rng):
        if len(self.d) != K + 1:
            raise ValueError(f"distribution has {len(self.d)} weights for K={K}")
        self._h = rng.choice(len(self.d), size=T, p=self.d).tolist()


class LowerBoundCompetition(Adversary):
    """Fair coin between the two lowest bids; the anti-concentration setup."""

    def prepare(self, T, K, rng):
        self._h = rng.integers(0, 2, size=T).tolist()


class FixedSequence(Adversary):
    def __init__(self, indices):
        self.indices = [check_integer(i, "fixed h-sequence entry") for i in indices]

    def prepare(self, T, K, rng):
        if len(self.indices) < T:
            raise ValueError(f"fixed h-sequence has {len(self.indices)} entries, "
                             f"fewer than T={T}")
        if not all(0 <= i <= K for i in self.indices):
            raise ValueError(f"fixed h-sequence leaves the grid 0..{K}")
        self._h = self.indices


class DecreasingReserve(Adversary):
    """High reserve through the switch round, low reserve afterwards."""

    def __init__(self, switch: int, high: int, low: int):
        self.switch = check_integer(switch, "switch")
        self.high = check_integer(high, "high")
        self.low = check_integer(low, "low")

    def prepare(self, T, K, rng):
        if not (0 <= self.low <= K and 0 <= self.high <= K):
            raise ValueError(f"reserve index off the grid 0..{K}")
        s = min(max(self.switch, 0), T)
        self._h = [self.high] * s + [self.low] * (T - s)


class AdaptiveCompetition(Adversary):
    """Callback adversary; sees history but never the current value."""

    def __init__(self, fn):
        self.fn = fn

    def next(self, t, history):
        return self.fn(t, history)


# ---------------------------------------------------------------------------
# single-buyer loop


@dataclass
class Trace:
    mode: str
    h_index: list
    eta: list
    exp_utility: list
    exp_revenue: list
    potential: list
    slack: list
    benchmark_cum: list
    regret_cum: list
    value: list | None = None
    bid_index: list | None = None
    win: list | None = None
    payment: list | None = None


def _grid_index(value, t: int, K: int, label: str) -> int:
    """value as an int in 0..K, or a ValueError naming it and round t."""
    try:
        i = operator.index(value)
    except TypeError:
        i = -1
    if isinstance(value, bool) or not 0 <= i <= K:
        raise ValueError(f"{label}{value!r} at t={t} is not a grid index in 0..{K}")
    return i


def _check_prior(F, buyer: str) -> None:
    if not isinstance(F, ValueDistribution):
        kinds = ", ".join(k.__name__ for k in ValueDistribution.__args__)
        raise TypeError(f"{buyer}'s value distribution must be one of {kinds}, "
                        f"got {type(F).__name__}")


def _check_horizon(T) -> int:
    if isinstance(T, bool) or not isinstance(T, numbers.Integral) or T < 1:
        raise ValueError(f"T must be a positive integer, got {T!r}")
    return int(T)


def run_single_buyer(grid: Grid, F: ValueDistribution, learner, adversary: Adversary,
                     T: int, mode: str = "exact", seed: int = 0,
                     check_steps: bool = True, benchmark: str = "per-round") -> Trace:
    """Run the repeated-auction protocol for one buyer.

    The loop only advances the learner: it records each round's h, eta and
    play, and a sampled run's value and bid (the learner's ``bid_index``).
    The play of a learner kind in ``STATE_ROW`` is its state row (p or v),
    in every mode and against every adversary; any other learner's is its
    strategy, in ``Plays``.  A strategy object is built only to log it or to
    show an adaptive adversary, which sees past h and past values only.  One
    pass after the loop computes every other column from those records
    (exact utility and revenue, alg1's and alg2's potentials and slacks, the
    benchmark, the regret, a sampled run's win and payment), then the Trace.
    benchmark="per-round" evaluates the prefix best-fixed benchmark at every
    t (what the CSV trace wants); "final" evaluates it once for the whole
    horizon and leaves the same totals.
    """
    T = _check_horizon(T)
    _check_prior(F, "the buyer")
    if mode not in ("exact", "sampled"):
        raise ValueError("mode must be exact or sampled")
    if benchmark not in ("per-round", "final"):
        raise ValueError(f"benchmark must be per-round or final, got {benchmark!r}")
    if learner.grid != grid:
        raise ValueError("every learner must bid on the auction's grid")
    adversary.prepare(T, grid.K, stream_rng(seed, ADVERSARY))
    if oblivious := type(adversary).next is Adversary.next:  # h_1..h_T are fixed now
        learner.foresee(adversary._h[:T])
    sampled = mode == "sampled"
    # mapped up front, appended round by round: an adversary sees past values only
    values = F.quantile_array(stream_rng(seed, VALUES).random(T)).tolist() if sampled else None

    kind = getattr(learner, "kind", None)
    state = STATE_ROW.get(kind)
    plays = None if state else Plays()  # None: the state rows are the log
    if state:
        states = np.empty((T + 1, grid.K))  # row t: the state after round t
        states[0] = getattr(learner, state)
    build = plays is not None or not oblivious

    hs, etas, seen, bid = [], [], [], []  # seen and bid stay empty in exact mode
    # the adversary reads the recorded lists, which grow round by round
    history = History(past_h=hs, past_values=seen)
    K = grid.K

    for t in range(1, T + 1):
        if build:
            strat = history.current_strategy = learner.strategy()
            if plays is not None:
                plays.record(strat)
        h = adversary.next(t, history)
        if not (type(h) is int and 0 <= h <= K):
            h = _grid_index(h, t, K, "adversary returned h=")
        if sampled:
            seen.append(values[t - 1])
            bid.append(learner.bid_index(seen[-1]))
        learner.observe(h)
        hs.append(h)
        etas.append(learner.last_eta)
        if state:
            states[t] = getattr(learner, state)

    h = np.array(hs)
    if plays is None:  # round t played row t - 1 of states
        V = states[:T] if state == "v" else threshold_rows(grid, learner.F, states[:T])
        util, rev = ThresholdStrategy.row_columns(grid, F, V, np.arange(T), h)
    else:
        util, rev = plays.exact_columns(F, h)
    del plays  # accounted for: free the strategies before the benchmark pass
    if check_steps and kind in ("alg1", "alg2"):
        slack, phi = robustness_columns(grid, F, states, h, etas, kind)
        bad = np.flatnonzero(~(slack >= -1e-8))  # a NaN slack fails too
        if bad.size:
            raise AssertionError(f"per-step robustness inequality violated at "
                                 f"t={bad[0] + 1}: slack={float(slack[bad[0]])}")
        potential, slack = phi.tolist(), slack.tolist()
    else:
        potential, slack = [math.nan] * T, [math.nan] * T
    bench = benchmark_columns(grid, F, h, final=benchmark == "final")
    bench *= np.arange(1, T + 1)
    draws = {}
    if sampled:
        win = np.array(bid) >= h
        draws = dict(value=seen, bid_index=bid, win=win.tolist(),
                     payment=np.where(win, np.take(grid.bids, bid), 0.0).tolist())
    return Trace(mode, hs, etas, util.tolist(), rev.tolist(), potential, slack,
                 bench.tolist(), (bench - np.cumsum(util)).tolist(), **draws)


# ---------------------------------------------------------------------------
# multi-buyer auction


def effective_competing_bid(grid: Grid, other_bids, reserve: int, scores, me: int):
    """Minimum bid index buyer ``me`` needs to win, or UNWINNABLE.

    ``scores`` are the round's tie-break draws (smaller = higher rank);
    the buyer wins ties against the top competitors only if her score
    beats all of theirs.  ``run_multi_buyer`` applies this rule to every
    buyer in one pass; this form is its reference.
    """
    beta = max(other_bids) if other_bids else 0
    others = [j for j in range(len(scores)) if j != me]
    top = [j for k, j in zip(other_bids, others) if k == beta]
    outranked = any(scores[j] < scores[me] for j in top)
    need = beta + 1 if outranked else beta
    h = max(reserve, need)
    if h > grid.K:
        return UNWINNABLE
    return h


@dataclass
class MultiBuyerResult:
    revenue: list
    h_index: list       # per round, per buyer (UNWINNABLE sentinel allowed)
    values: list
    bid_index: list
    utility: list       # realized per-round utility per buyer
    winner: list        # buyer id or -1 for no sale


def run_multi_buyer(grid: Grid, distributions, learners, reserve, T: int,
                    seed: int = 0) -> MultiBuyerResult:
    """Simultaneous learners in a first-price auction with reserve and ranking.

    ``reserve`` is a grid index, a per-round sequence, or a callable t ->
    index; each is read for all T rounds and checked before the first.
    Ties go to the buyer with the best (lowest) ranking draw.  Sampled
    mode only: values are realized, and each buyer's bid is its learner's
    ``bid_index``.  Each round is one pass over the buyers: every buyer's
    h is ``effective_competing_bid`` against its strongest rival alone.
    Each buyer needs a learner object of its own, a misreporting wrapper's
    inner learner included: a shared one would step once per buyer.
    """
    T = _check_horizon(T)
    n = len(distributions)
    if n < 2 or len(learners) != n:
        raise ValueError("need >= 2 buyers with one learner each")
    for i, F in enumerate(distributions):
        _check_prior(F, f"buyer {i}")
    if any(lrn.grid != grid for lrn in learners):
        raise ValueError("every learner must bid on the auction's grid")
    owner = {}  # id of each object a round steps -> the first buyer it steps for
    for i, lrn in enumerate(learners):
        for key in {id(lrn), id(getattr(lrn, "inner", lrn))}:
            j = owner.setdefault(key, i)
            if j != i:
                raise ValueError(f"buyers {j} and {i} share one learner object; "
                                 "each buyer needs its own")
    K = grid.K
    if callable(reserve):
        reserve = map(reserve, range(1, T + 1))
    if hasattr(reserve, "__index__") or not hasattr(reserve, "__iter__"):
        seq = [_grid_index(reserve, 1, K, "reserve ")] * T
    else:
        seq = [_grid_index(r, t, K, "reserve ") for t, r in zip(range(1, T + 1), reserve)]
    if len(seq) < T:
        raise ValueError(f"reserve sequence covers {len(seq)} of {T} rounds")

    value_rows = np.column_stack([F.quantile_array(stream_rng(seed, VALUES, i).random(T))
                                  for i, F in enumerate(distributions)]).tolist()
    score_rows = stream_rng(seed, RANKING).random((T, n)).tolist()
    bids = grid.bids

    res = MultiBuyerResult([], [], [], [], [], [])
    for r, vals, scores in zip(seq, value_rows, score_rows):
        bvec = [lrn.bid_index(v) for lrn, v in zip(learners, vals)]

        # champion c (bid bc, draw sc) and runner-up (bd, sd): highest bid,
        # ties to the lowest draw
        c, bc, sc = 0, bvec[0], scores[0]
        bd, sd = -1, 0.0
        for i in range(1, n):
            b, s = bvec[i], scores[i]
            if b > bc or (b == bc and s < sc):
                bd, sd = bc, sc
                c, bc, sc = i, b, s
            elif b > bd or (b == bd and s < sd):
                bd, sd = b, s
        if bc >= r:
            winner, revenue = c, bids[bc]
        else:
            winner, revenue = -1, 0.0

        hs, utils = [], []
        for i in range(n):
            # the runner-up is the champion's strongest rival, the champion
            # everyone else's; outbid it if its draw ranks first
            if i == c:
                h = bd + 1 if sd < sc else bd
            else:
                h = bc + 1 if sc < scores[i] else bc
            if h < r:
                h = r
            elif h > K:
                h = UNWINNABLE
            hs.append(h)
            won = h != UNWINNABLE and bvec[i] >= h
            if won != (i == winner):
                raise AssertionError("tie-break bookkeeping mismatch")
            utils.append(vals[i] - bids[bvec[i]] if won else 0.0)
            if h != UNWINNABLE:
                learners[i].observe(h)

        res.revenue.append(revenue)
        res.h_index.append(hs)
        res.values.append(vals)
        res.bid_index.append(bvec)
        res.utility.append(utils)
        res.winner.append(winner)
    return res
