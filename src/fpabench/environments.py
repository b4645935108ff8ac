"""Auction environments: competing-bid generators and run loops.

Two run modes:

* exact mode records u(p_t|F,h_t) and rev(p_t,h_t) in closed form every
  round, so regret and robustness measurements carry no Monte-Carlo noise;
* sampled mode additionally draws values and realized bids (and is the
  only mode for the multi-buyer auction, which needs realizations).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

from .auction import best_fixed_utility
from .distributions import ValueDistribution
from .grids import Grid
from .metrics import ROBUSTNESS_STATE, check_robustness_step
from .rng import ADVERSARY, RANKING, VALUES, stream_rng

UNWINNABLE = -1


# ---------------------------------------------------------------------------
# adversaries (highest-competing-bid generators)


@dataclass
class History:
    """What an adaptive adversary may see before choosing h_t."""

    current_strategy: object = None
    past_h: list = field(default_factory=list)
    past_values: list = field(default_factory=list)


class Adversary:
    def prepare(self, T: int, K: int, rng) -> None:
        pass

    def next(self, t: int, history: History) -> int:
        raise NotImplementedError


class StochasticCompetition(Adversary):
    """iid draws from a fixed distribution over grid indices."""

    def __init__(self, d):
        if not (all(di >= 0 for di in d) and abs(sum(d) - 1.0) <= 1e-9):  # NaN fails
            raise ValueError("invalid competing-bid distribution")
        self.d = list(d)
        self._draws = None

    def prepare(self, T, K, rng):
        if len(self.d) != K + 1:
            raise ValueError(f"distribution has {len(self.d)} weights for K={K}")
        self._draws = rng.choice(len(self.d), size=T, p=self.d)

    def next(self, t, history):
        return int(self._draws[t - 1])


class LowerBoundCompetition(Adversary):
    """Fair coin between the two lowest bids; the anti-concentration setup."""

    def __init__(self):
        self._draws = None

    def prepare(self, T, K, rng):
        self._draws = rng.integers(0, 2, size=T)

    def next(self, t, history):
        return int(self._draws[t - 1])


class FixedSequence(Adversary):
    def __init__(self, indices):
        self.indices = list(indices)

    def prepare(self, T, K, rng):
        if len(self.indices) < T:
            raise ValueError(f"fixed h-sequence has {len(self.indices)} entries, "
                             f"fewer than T={T}")
        if not all(0 <= i <= K for i in self.indices):
            raise ValueError(f"fixed h-sequence leaves the grid 0..{K}")

    def next(self, t, history):
        return self.indices[t - 1]


class DecreasingReserve(Adversary):
    """High reserve through the switch round, low reserve afterwards."""

    def __init__(self, switch: int, high: int, low: int):
        self.switch = switch
        self.high = high
        self.low = low

    def prepare(self, T, K, rng):
        if not (0 <= self.low <= K and 0 <= self.high <= K):
            raise ValueError(f"reserve index off the grid 0..{K}")

    def next(self, t, history):
        return self.high if t <= self.switch else self.low


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


def run_single_buyer(grid: Grid, F: ValueDistribution, learner, adversary: Adversary,
                     T: int, mode: str = "exact", seed: int = 0,
                     check_steps: bool = True, benchmark: str = "per-round") -> Trace:
    """Run the repeated-auction protocol for one buyer.

    The loop records each round; one pass after it fills the benchmark and
    regret columns.  benchmark="per-round" evaluates the prefix best-fixed
    benchmark at every t (what the CSV trace wants); "final" evaluates it
    once for the whole horizon, which is much cheaper for large sweeps and
    leaves the same totals.
    """
    if mode not in ("exact", "sampled"):
        raise ValueError("mode must be exact or sampled")
    if benchmark not in ("per-round", "final"):
        raise ValueError(f"benchmark must be per-round or final, got {benchmark!r}")
    adversary.prepare(T, grid.K, stream_rng(seed, ADVERSARY))
    sampled = mode == "sampled"
    value_u = stream_rng(seed, VALUES).random(T) if sampled else None

    kind = getattr(learner, "kind", None)
    state = ROBUSTNESS_STATE.get(kind) if check_steps else None

    tr = Trace(mode, [], [], [], [], [], [], [], [],
               value=[] if sampled else None, bid_index=[] if sampled else None,
               win=[] if sampled else None, payment=[] if sampled else None)
    # the adversary reads the recorded columns, which grow round by round
    history = History(past_h=tr.h_index, past_values=tr.value if sampled else [])
    bids = grid.bids

    for t in range(1, T + 1):
        strat = learner.strategy()
        history.current_strategy = strat
        h = operator.index(adversary.next(t, history))
        if not 0 <= h <= grid.K:
            raise ValueError(f"adversary returned h={h} at t={t}, outside 0..{grid.K}")
        tr.exp_utility.append(strat.exact_utility(F, h))
        tr.exp_revenue.append(strat.exact_revenue(F, h))

        if sampled:
            val = F.quantile(float(value_u[t - 1]))
            b = strat.bid_index(val)
            won = b >= h
            tr.value.append(val)
            tr.bid_index.append(b)
            tr.win.append(won)
            tr.payment.append(bids[b] if won else 0.0)

        if state:
            before = list(getattr(learner, state))
        learner.observe(h)
        eta_t = learner.last_eta
        if state:
            slack, phi = check_robustness_step(grid, F, before, getattr(learner, state),
                                               h, eta_t, kind)
            if not slack >= -1e-8:  # a NaN slack fails too
                raise AssertionError(
                    f"per-step robustness inequality violated at t={t}: slack={slack}")
        else:
            slack = phi = math.nan
        tr.h_index.append(h)
        tr.eta.append(eta_t)
        tr.potential.append(phi)
        tr.slack.append(slack)

    counts = [0] * (grid.K + 1)
    if benchmark == "final":
        for h in tr.h_index:
            counts[h] += 1
        bench, _ = best_fixed_utility(grid, F, tuple(c / T for c in counts))
    util_cum = 0.0
    for t, (h, u) in enumerate(zip(tr.h_index, tr.exp_utility), start=1):
        if benchmark == "per-round":
            counts[h] += 1
            bench, _ = best_fixed_utility(grid, F, tuple(c / t for c in counts))
        util_cum += u
        tr.benchmark_cum.append(bench * t)
        tr.regret_cum.append(bench * t - util_cum)
    return tr


# ---------------------------------------------------------------------------
# multi-buyer auction


def effective_competing_bid(grid: Grid, other_bids, reserve: int, scores, me: int):
    """Minimum bid index buyer ``me`` needs to win, or UNWINNABLE.

    ``scores`` are the round's tie-break draws (smaller = higher rank);
    the buyer wins ties against the top competitors only if her score
    beats all of theirs.
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
    index.  Ties go to the buyer with the best (lowest) ranking draw.
    Sampled mode only: values are realized, bids are realized.
    """
    n = len(distributions)
    if n < 2 or len(learners) != n:
        raise ValueError("need >= 2 buyers with one learner each")
    if any(lrn.grid != grid for lrn in learners):
        raise ValueError("every learner must bid on the auction's grid")
    if callable(reserve):
        reserve_at = reserve
    else:
        try:
            seq = [operator.index(reserve)] * T
        except TypeError:
            seq = [operator.index(r) for r in reserve][:T]
        if len(seq) < T:
            raise ValueError(f"reserve sequence covers {len(seq)} of {T} rounds")
        reserve_at = lambda t: seq[t - 1]

    value_u = [stream_rng(seed, VALUES, i).random(T) for i in range(n)]
    scores_all = stream_rng(seed, RANKING).random((T, n))
    bids = grid.bids
    K = grid.K

    res = MultiBuyerResult([], [], [], [], [], [])
    for t in range(1, T + 1):
        r = reserve_at(t)
        if not (0 <= r <= K):
            raise ValueError("reserve index off the grid")
        scores = scores_all[t - 1]
        vals = [distributions[i].quantile(float(value_u[i][t - 1])) for i in range(n)]
        bvec = [learners[i].strategy().bid_index(vals[i]) for i in range(n)]

        eligible = [i for i in range(n) if bvec[i] >= r]
        if eligible:
            top = max(bvec[i] for i in eligible)
            cands = [i for i in eligible if bvec[i] == top]
            winner = min(cands, key=lambda i: scores[i])
            revenue = bids[top]
        else:
            winner, revenue = -1, 0.0

        hs, utils = [], []
        for i in range(n):
            others = [bvec[j] for j in range(n) if j != i]
            h = effective_competing_bid(grid, others, r, scores, i)
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
