import math
import operator
import re

import numpy as np
import pytest

from conftest import make_rng
from fpabench.distributions import EqualRevenue, PiecewiseLinearCDF, Uniform
from fpabench.environments import (
    AdaptiveCompetition,
    Adversary,
    DecreasingReserve,
    FixedSequence,
    LowerBoundCompetition,
    MultiBuyerResult,
    StochasticCompetition,
    UNWINNABLE,
    effective_competing_bid,
    run_multi_buyer,
    run_single_buyer,
)
from fpabench.grids import BidGrid
from fpabench.learners import (
    FixedStep,
    FixedStrategyBidder,
    GradientBidder,
    LazyRegularizedBidder,
    MeanBasedBucketBidder,
    MisreportingBidder,
    ThresholdBidder,
)
from fpabench.rng import ADVERSARY, RANKING, VALUES, stream_rng
from fpabench.strategies import MisreportMap, ThresholdStrategy


GRID = BidGrid(2, 0.25)


def test_decreasing_reserve_switch_boundary():
    adv = DecreasingReserve(50, 2, 1)
    adv.prepare(100, 2, None)
    assert adv.next(50, None) == 2
    assert adv.next(51, None) == 1


def test_stochastic_point_mass():
    adv = StochasticCompetition((1.0, 0.0, 0.0))
    adv.prepare(200, 2, stream_rng(0, ADVERSARY))
    assert all(adv.next(t, None) == 0 for t in range(1, 201))
    with pytest.raises(ValueError):
        StochasticCompetition((0.5, 0.2))


def test_lower_bound_coin_frequency():
    adv = LowerBoundCompetition()
    T = 100_000
    adv.prepare(T, 2, stream_rng(3, ADVERSARY))
    draws = [adv.next(t, None) for t in range(1, T + 1)]
    freq = sum(1 for d in draws if d == 0) / T
    se = 0.5 / math.sqrt(T)
    assert abs(freq - 0.5) <= 3.0 * se
    assert set(draws) <= {0, 1}


def test_fixed_sequence_validation():
    adv = FixedSequence([0, 1, 2])
    with pytest.raises(ValueError):
        adv.prepare(5, 2, None)  # shorter than horizon
    with pytest.raises(ValueError):
        FixedSequence([0, 7]).prepare(2, 2, None)


def test_replay_determinism_full_trace():
    def run():
        lrn = ThresholdBidder(GRID, 0.02)
        adv = StochasticCompetition((0.3, 0.4, 0.3))
        return run_single_buyer(GRID, Uniform(), lrn, adv, 300, seed=9)

    a, b = run(), run()
    assert a.h_index == b.h_index
    assert a.exp_utility == b.exp_utility
    assert a.regret_cum == b.regret_cum


def test_adaptive_adversary_sees_history_not_current_value():
    seen = []

    def fn(t, history):
        seen.append((t, len(history.past_h), len(history.past_values)))
        return 0

    lrn = ThresholdBidder(GRID, 0.02)
    run_single_buyer(GRID, Uniform(), lrn, AdaptiveCompetition(fn), 10,
                     mode="sampled", seed=1)
    for t, n_h, n_vals in seen:
        assert n_h == t - 1
        # the round's value is sampled before observe but the callback only
        # ever sees values from completed rounds
        assert n_vals <= t - 1


def test_cumulative_columns_are_prefix_sums():
    lrn = GradientBidder(GRID, Uniform(), FixedStep(0.05))
    adv = StochasticCompetition((0.2, 0.5, 0.3))
    tr = run_single_buyer(GRID, Uniform(), lrn, adv, 200, seed=4)
    cum = 0.0
    for t in range(200):
        cum += tr.exp_utility[t]
        assert tr.regret_cum[t] == pytest.approx(tr.benchmark_cum[t] - cum, abs=1e-9)


def test_run_single_buyer_rejects_unknown_benchmark():
    lrn = GradientBidder(GRID, Uniform(), FixedStep(0.05))
    adv = StochasticCompetition((0.2, 0.5, 0.3))
    with pytest.raises(ValueError, match="benchmark"):
        run_single_buyer(GRID, Uniform(), lrn, adv, 20, benchmark="perround")


@pytest.mark.parametrize("mode", ["exakt", "Exact", ""])
def test_run_single_buyer_rejects_an_unknown_mode(mode):
    lrn = GradientBidder(GRID, Uniform(), FixedStep(0.05))
    with pytest.raises(ValueError, match="^mode must be exact or sampled$"):
        run_single_buyer(GRID, Uniform(), lrn, _PrepareForbidden(), 20, mode=mode)


@pytest.mark.parametrize("weights, K, message", [
    ((0.5, 0.5), 2, "distribution has 2 weights for K=2"),
    ((0.5, 0.25, 0.25), 1, "distribution has 3 weights for K=1"),
])
def test_stochastic_competition_rejects_a_weight_count_off_the_grid(weights, K, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        StochasticCompetition(weights).prepare(10, K, stream_rng(0, ADVERSARY))


def test_exact_and_sampled_modes_agree_for_frozen_strategy():
    F = EqualRevenue(0.1)
    g = BidGrid(2, 0.125)
    adv = StochasticCompetition((0.3, 0.3, 0.4))
    T = 100_000
    lrn = FixedStrategyBidder(g, (0.2, 0.3))
    tr = run_single_buyer(g, F, lrn, adv, T, mode="sampled", seed=11,
                          benchmark="final")
    realized = [(v - g.bids[b]) if w else 0.0
                for v, b, w in zip(tr.value, tr.bid_index, tr.win)]
    exact_mean = sum(tr.exp_utility) / T
    se = float(np.std(realized) / math.sqrt(T))
    assert abs(sum(realized) / T - exact_mean) <= 3.0 * se


def test_benchmark_dominates_fixed_learner():
    # pseudo-regret of any fixed strategy is >= 0 up to tolerance
    rng = make_rng(60)
    F = Uniform()
    for _ in range(10):
        v1 = sorted(float(x) for x in rng.random(2))
        v = (max(v1[0], 0.25), max(v1[1], 0.5))
        lrn = FixedStrategyBidder(GRID, v)
        adv = StochasticCompetition((0.3, 0.4, 0.3))
        tr = run_single_buyer(GRID, F, lrn, adv, 500, seed=int(rng.integers(1e6)),
                              benchmark="final")
        assert tr.regret_cum[-1] >= -1e-9


def test_per_step_robustness_check_runs_clean():
    lrn = ThresholdBidder(GRID, 0.05)
    adv = StochasticCompetition((0.2, 0.4, 0.4))
    tr = run_single_buyer(GRID, Uniform(), lrn, adv, 500, seed=2, check_steps=True)
    slacks = [s for s in tr.slack if not math.isnan(s)]
    assert len(slacks) == 500
    assert min(slacks) >= -1e-8


# ---------------------------------------------------------------------------
# multi-buyer


def test_effective_competing_bid_rules():
    g = BidGrid(2, 0.25)
    # two others both bid 0.25 (index 1)
    scores_first = [0.1, 0.5, 0.9]
    scores_last = [0.9, 0.1, 0.5]
    assert effective_competing_bid(g, [1, 1], 0, scores_first, 0) == 1
    assert effective_competing_bid(g, [1, 1], 0, scores_last, 0) == 2
    # others already at the top bid and outranking: unwinnable
    assert effective_competing_bid(g, [2, 2], 0, scores_last, 0) == UNWINNABLE
    # reserve dominates
    assert effective_competing_bid(g, [0, 0], 2, scores_first, 0) == 2


def test_multi_buyer_zero_bidders_yield_zero_revenue():
    g = BidGrid(2, 0.25)
    learners = [FixedStrategyBidder(g, (1.0, 1.0)) for _ in range(2)]
    res = run_multi_buyer(g, [Uniform(), Uniform()], learners, 0, 200, seed=5)
    assert all(r == 0.0 for r in res.revenue)


def test_multi_buyer_tie_split_and_accounting():
    g = BidGrid(2, 0.25)
    learners = [FixedStrategyBidder(g, (0.25, 1.0)) for _ in range(2)]
    T = 20_000
    res = run_multi_buyer(g, [Uniform(), Uniform()], learners, 0, T, seed=6)
    wins = [0, 0]
    for t in range(T):
        w = res.winner[t]
        if w >= 0:
            wins[w] += 1
            assert res.revenue[t] == pytest.approx(
                g.bids[res.bid_index[t][w]], abs=1e-12)
        else:
            assert res.revenue[t] == 0.0
    # exact ties split evenly under the uniform ranking draw
    both = [t for t in range(T)
            if res.bid_index[t][0] == res.bid_index[t][1] and res.winner[t] >= 0]
    share = sum(1 for t in both if res.winner[t] == 0) / len(both)
    se = 0.5 / math.sqrt(len(both))
    assert abs(share - 0.5) <= 3.5 * se


def test_multi_buyer_replay_determinism():
    g = BidGrid(4, 0.125)

    def run():
        learners = [ThresholdBidder(g, 0.01) for _ in range(3)]
        return run_multi_buyer(g, [Uniform()] * 3, learners, 4, 300, seed=7)

    a, b = run(), run()
    assert a.revenue == b.revenue
    assert a.winner == b.winner
    assert a.h_index == b.h_index


def test_multi_buyer_unwinnable_rounds_skip_observe():
    g = BidGrid(1, 0.25)
    # buyer 1 always bids the top of the grid; buyer 0 often cannot win
    learners = [ThresholdBidder(g, 0.02), FixedStrategyBidder(g, (0.25,))]
    res = run_multi_buyer(g, [Uniform(), Uniform()], learners, 0, 400, seed=8)
    sentinel_rounds = [t for t in range(400) if res.h_index[t][0] == UNWINNABLE]
    assert sentinel_rounds  # the construction produces unwinnable rounds


@pytest.mark.parametrize("n, extra, message", [
    (1, 0, "need >= 2 buyers with one learner each"),
    (3, -1, "need >= 2 buyers with one learner each"),
    (0, 0, "need >= 2 buyers with one learner each"),
])
def test_multi_buyer_rejects_a_buyer_count_below_two_or_unmatched(n, extra, message):
    g = BidGrid(4, 0.125)
    learners = [ThresholdBidder(g, 0.01) for _ in range(n + extra)]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_multi_buyer(g, [Uniform()] * n, learners, 0, 200, seed=7)


@pytest.mark.parametrize("K", [8, 2])
def test_multi_buyer_rejects_learners_on_another_grid(K):
    # unchecked, K=8 learners run with their bid indices read on the K=4
    # grid, and K=2 learners fail mid-run on competing-bid index 3
    g = BidGrid(4, 0.125)
    learners = [ThresholdBidder(BidGrid(K, 0.125), 0.01) for _ in range(3)]
    with pytest.raises(ValueError, match="grid"):
        run_multi_buyer(g, [Uniform()] * 3, learners, 0, 200, seed=7)


def test_multi_buyer_accepts_an_integral_numpy_reserve():
    g = BidGrid(4, 0.125)

    def run(reserve):
        learners = [ThresholdBidder(g, 0.01) for _ in range(3)]
        return run_multi_buyer(g, [Uniform()] * 3, learners, reserve, 100, seed=7)

    assert run(np.int64(4)).revenue == run(4).revenue


def test_multi_buyer_rejects_a_short_reserve_sequence_before_the_first_round():
    g = BidGrid(4, 0.125)
    learners = [ThresholdBidder(g, 0.01) for _ in range(3)]
    with pytest.raises(ValueError, match="99 of 100 rounds"):
        run_multi_buyer(g, [Uniform()] * 3, learners, [4] * 99, 100, seed=7)
    # no learner moved: the run stopped before its first round
    assert all(lrn.t == 1 for lrn in learners)


@pytest.mark.parametrize("reserve,t,shown", [
    (9, 1, "9"), (-1, 1, "-1"), (2.5, 1, "2.5"),
    ([4] * 40 + [9] * 10, 41, "9"), ([4] * 7 + [3.0] * 43, 8, "3.0"),
    (True, 1, "True"),  # ran with reserve 1
])
def test_multi_buyer_rejects_an_off_grid_reserve_before_the_first_round(reserve, t, shown):
    # unchecked, a bad sequence entry failed only when its round came up,
    # after the learners had moved, with a message naming neither
    g = BidGrid(4, 0.125)
    learners = [ThresholdBidder(g, 0.01) for _ in range(3)]
    with pytest.raises(ValueError, match=rf"reserve {re.escape(shown)} at t={t} "
                                         r"is not a grid index in 0\.\.4"):
        run_multi_buyer(g, [Uniform()] * 3, learners, reserve, 50, seed=7)
    assert all(lrn.t == 1 for lrn in learners)


@pytest.mark.parametrize("bad", [2.5, 4.0, 5, -1, True])
def test_multi_buyer_rejects_a_callable_reserve_off_the_grid(bad):
    # unchecked, 2.5 and 4.0 raised a TypeError from tuple indexing; checked
    # round by round, the learners had moved 5 rounds before the error
    g = BidGrid(4, 0.125)
    learners = [ThresholdBidder(g, 0.01) for _ in range(3)]
    with pytest.raises(ValueError, match=rf"reserve {re.escape(repr(bad))} at t=6 "
                                         r"is not a grid index in 0\.\.4"):
        run_multi_buyer(g, [Uniform()] * 3, learners, lambda t: 1 if t <= 5 else bad,
                        50, seed=7)
    assert all(lrn.t == 1 for lrn in learners)


def test_multi_buyer_reads_a_callable_reserve_as_an_index():
    # unchecked, a callable returning True wrote True into h_index; a bool is
    # now refused, see test_multi_buyer_rejects_a_callable_reserve_off_the_grid
    g = BidGrid(4, 0.125)

    def run(reserve):
        learners = [ThresholdBidder(g, 0.01) for _ in range(3)]
        return run_multi_buyer(g, [Uniform()] * 3, learners, reserve, 200, seed=7)

    got = run(lambda t: np.int64(1))
    assert all(type(h) is int for hs in got.h_index for h in hs)
    assert repr(got.h_index) == repr(run(1).h_index)
    assert got.revenue == run(lambda t: 1).revenue


@pytest.mark.parametrize("make", [
    lambda: MeanBasedBucketBidder(GRID),
    lambda: LazyRegularizedBidder(GRID, Uniform(), 0.05),
    lambda: GradientBidder(GRID, Uniform(), FixedStep(0.05)),
], ids=["ftl", "lazyftrl", "alg1"])
# True recorded h=1; 1.5 and np.float64(1.0) raised a TypeError naming no round
@pytest.mark.parametrize("bad", [-1, 3, True, 1.5, np.float64(1.0)])
def test_adversary_h_off_the_grid_is_rejected(make, bad):
    adv = AdaptiveCompetition(lambda t, history: 1 if t == 1 else bad)
    with pytest.raises(ValueError, match=f"h={re.escape(repr(bad))} at t=2"):
        run_single_buyer(GRID, Uniform(), make(), adv, 5)


def test_adversary_numpy_integer_h_is_recorded_as_an_int():
    adv = AdaptiveCompetition(lambda t, history: np.int64(t % 3))
    tr = run_single_buyer(GRID, Uniform(), MeanBasedBucketBidder(GRID), adv, 6)
    assert tr.h_index == [1, 2, 0, 1, 2, 0]
    assert all(type(h) is int for h in tr.h_index)


class _JumpingThresholdBidder(ThresholdBidder):
    """Drops every threshold to its bid at round k: a jump no gradient step
    makes, which the per-step robustness inequality must catch at t=k."""

    def __init__(self, grid, eta, k):
        super().__init__(grid, eta)
        self.k = k

    def observe(self, h):
        jump = self.t == self.k
        super().observe(h)
        if jump:
            self.v = list(self.grid.bids[1:])


@pytest.mark.parametrize("k", [1, 7, 40])
def test_slack_gate_names_the_first_violating_round(k):
    lrn = _JumpingThresholdBidder(GRID, 0.01, k)
    adv = StochasticCompetition((0.2, 0.4, 0.4))
    with pytest.raises(AssertionError,
                       match=f"robustness inequality violated at t={k}: slack=-"):
        run_single_buyer(GRID, Uniform(), lrn, adv, 60, seed=2)


class _PrepareForbidden(Adversary):
    def prepare(self, T, K, rng):
        raise AssertionError("the adversary was prepared for a bad horizon")


@pytest.mark.parametrize("T", [0, 2.0, -3])
def test_run_single_buyer_rejects_a_bad_horizon_before_prepare(T):
    # unchecked, T=0 divided by zero under the final benchmark, T=2.0 and
    # T=-3 failed inside numpy with unrelated messages
    lrn = ThresholdBidder(GRID, 0.02)
    for benchmark in ("per-round", "final"):
        with pytest.raises(ValueError, match="T must be a positive integer"):
            run_single_buyer(GRID, Uniform(), lrn, _PrepareForbidden(), T,
                             benchmark=benchmark)
    assert lrn.t == 1


@pytest.mark.parametrize("T", [0, 2.0, -3])
def test_run_multi_buyer_rejects_a_bad_horizon(T):
    g = BidGrid(4, 0.125)
    learners = [ThresholdBidder(g, 0.01) for _ in range(3)]
    with pytest.raises(ValueError, match="T must be a positive integer"):
        run_multi_buyer(g, [Uniform()] * 3, learners, 4, T, seed=7)
    assert all(lrn.t == 1 for lrn in learners)


@pytest.mark.parametrize("seed, message", [
    # unchecked, numpy's uint64 cast replayed seed 2.7 as seed 2 and True
    # as seed 1
    (2.7, "master seed must be an integer, got 2.7"),
    (True, "master seed must be an integer, got True"),
    (2.0, "master seed must be an integer, got 2.0"),
    (-1, "master seed must fit in 64 bits"),
    (2**64, "master seed must fit in 64 bits"),
])
def test_runs_reject_a_fractional_bool_or_wide_seed(seed, message):
    message = f"^{re.escape(message)}$"
    lrn = ThresholdBidder(GRID, 0.02)
    with pytest.raises(ValueError, match=message):
        run_single_buyer(GRID, Uniform(), lrn, _PrepareForbidden(), 10, seed=seed)
    g = BidGrid(4, 0.125)
    learners = [ThresholdBidder(g, 0.01) for _ in range(3)]
    with pytest.raises(ValueError, match=message):
        run_multi_buyer(g, [Uniform()] * 3, learners, 4, 10, seed=seed)
    assert lrn.t == 1 and all(b.t == 1 for b in learners)


@pytest.mark.parametrize("K", [8, 2])
def test_run_single_buyer_rejects_a_learner_on_another_grid(K):
    # unchecked, a K=8 learner in a K=4 run was accounted on the wrong grid
    # until a misleading robustness failure at t=48; a K=2 learner raised
    # IndexError
    g = BidGrid(4, 0.125)
    lrn = ThresholdBidder(BidGrid(K, 0.125), 0.01)
    adv = StochasticCompetition((0.2, 0.2, 0.2, 0.2, 0.2))
    with pytest.raises(ValueError, match="every learner must bid on the auction's grid"):
        run_single_buyer(g, Uniform(), lrn, adv, 100, seed=7)
    assert lrn.t == 1


@pytest.mark.parametrize("prior", [None, 0.5, "uniform"])
def test_run_single_buyer_rejects_a_prior_that_is_no_distribution(prior):
    # unchecked, the whole loop ran and the post-pass raised AttributeError
    lrn = ThresholdBidder(GRID, 0.02)
    with pytest.raises(TypeError, match=f"^the buyer's value distribution must be one of "
                                        f"Uniform, EqualRevenue, PiecewiseLinearCDF, "
                                        f"got {type(prior).__name__}$"):
        run_single_buyer(GRID, prior, lrn, _PrepareForbidden(), 10, mode="sampled")
    assert lrn.t == 1


@pytest.mark.parametrize("prior", [None, 0.5])
def test_run_multi_buyer_rejects_a_prior_that_is_no_distribution(prior):
    # unchecked, the value draw raised AttributeError on quantile_array
    g = BidGrid(4, 0.125)
    bidders = [ThresholdBidder(g, 0.01) for _ in range(3)]
    with pytest.raises(TypeError, match=f"^buyer 2's value distribution must be one of .*, "
                                        f"got {type(prior).__name__}$"):
        run_multi_buyer(g, [Uniform(), EqualRevenue(0.1), prior], bidders, 4, 10)
    assert all(lrn.t == 1 for lrn in bidders)


def test_run_multi_buyer_refuses_one_learner_for_several_buyers():
    # unchecked, [lrn] * 3 ran silently and stepped lrn up to three times a
    # round: t == 285 after 100 rounds
    g = BidGrid(4, 0.125)
    lrn = ThresholdBidder(g, 0.02)
    with pytest.raises(ValueError, match="^buyers 0 and 1 share one learner object"):
        run_multi_buyer(g, [Uniform()] * 3, [lrn] * 3, 2, 100)
    other = ThresholdBidder(g, 0.02)
    with pytest.raises(ValueError, match="^buyers 0 and 2 share one learner object"):
        run_multi_buyer(g, [Uniform()] * 3, [lrn, other, lrn], 2, 100)
    # a misreporting wrapper steps its inner learner
    wrapped = MisreportingBidder(lrn, MisreportMap.identity())
    with pytest.raises(ValueError, match="^buyers 1 and 2 share one learner object"):
        run_multi_buyer(g, [Uniform()] * 3, [other, lrn, wrapped], 2, 100)
    assert lrn.t == 1 and other.t == 1


# ---------------------------------------------------------------------------
# the one-pass multi-buyer round against the per-buyer reference loop


def _reference_run_multi_buyer(grid, distributions, learners, reserve, T, seed):
    """The multi-buyer loop as it was before the one-pass round: every
    buyer's h from ``effective_competing_bid`` over the others' bids."""
    n = len(distributions)
    if callable(reserve):
        reserve_at = reserve
    else:
        try:
            seq = [operator.index(reserve)] * T
        except TypeError:
            seq = [operator.index(r) for r in reserve][:T]
        reserve_at = lambda t: seq[t - 1]
    value_u = [stream_rng(seed, VALUES, i).random(T) for i in range(n)]
    scores_all = stream_rng(seed, RANKING).random((T, n))
    bids = grid.bids
    K = grid.K

    res = MultiBuyerResult([], [], [], [], [], [])
    for t in range(1, T + 1):
        r = reserve_at(t)
        assert 0 <= r <= K
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
            assert won == (i == winner)
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


_G4 = BidGrid(4, 0.125)
_PWL = PiecewiseLinearCDF((0.0, 0.3, 0.7, 1.0), (0.0, 0.6, 0.7, 1.0))
_SHADE = MisreportMap((0.0, 0.5, 0.5, 1.0), (0.0, 0.5, 0.25, 0.25))


def _thresholds(n, grid=_G4, eta=0.02):
    return lambda: [ThresholdBidder(grid, eta) for _ in range(n)]


# name -> (grid, distributions, learner factory, reserve, T)
MULTI_CONFIGS = {
    **{f"threshold_n{n}": (_G4, [Uniform()] * n, _thresholds(n), 2, 600)
       for n in range(2, 7)},
    "reserve_zero": (_G4, [Uniform()] * 3, _thresholds(3), 0, 600),
    "reserve_top": (_G4, [Uniform()] * 3, _thresholds(3), 4, 600),
    "reserve_sequence": (_G4, [Uniform()] * 3, _thresholds(3),
                         [t % 5 for t in range(7, 607)], 600),
    "reserve_callable": (_G4, [Uniform()] * 4, _thresholds(4),
                         lambda t: (3 * t) % 5, 600),
    "fixed_ties": (BidGrid(2, 0.25), [Uniform()] * 3,
                   lambda: [FixedStrategyBidder(BidGrid(2, 0.25), (0.25, 1.0))
                            for _ in range(3)], 0, 2000),
    "k1_unwinnable": (BidGrid(1, 0.25), [Uniform()] * 2,
                      lambda: [ThresholdBidder(BidGrid(1, 0.25), 0.02),
                               FixedStrategyBidder(BidGrid(1, 0.25), (0.25,))], 0, 800),
    "equirev_pwl": (_G4, [EqualRevenue(0.1), _PWL, EqualRevenue(0.1), _PWL],
                    _thresholds(4, eta=0.05), 1, 800),
    "threshold_fixed_mix": (_G4, [Uniform(), EqualRevenue(0.1), Uniform(), _PWL, Uniform()],
                            lambda: [ThresholdBidder(_G4, 0.03),
                                     FixedStrategyBidder(_G4, (0.25, 0.5, 0.5, 0.75)),
                                     ThresholdBidder(_G4, 0.01),
                                     FixedStrategyBidder(_G4, (0.25, 0.5, 0.5, 0.75)),
                                     FixedStrategyBidder(_G4, (0.2, 0.4, 1.0, 1.0))],
                            3, 800),
    # buyers that bid through strategy() (the default bid_index) beside
    # threshold bidders, which bid from v
    "default_path_mix": (_G4, [Uniform(), EqualRevenue(0.1), _PWL, Uniform(), Uniform(),
                               EqualRevenue(0.1)],
                         lambda: [GradientBidder(_G4, EqualRevenue(0.1), FixedStep(0.03)),
                                  ThresholdBidder(_G4, 0.03),
                                  LazyRegularizedBidder(_G4, _PWL, 0.02),
                                  MeanBasedBucketBidder(_G4, 16),
                                  MisreportingBidder(ThresholdBidder(_G4, 0.02), _SHADE),
                                  ThresholdBidder(_G4, 0.01)],
                         1, 800),
    "misreport_pair": (_G4, [Uniform()] * 3,
                       lambda: [MisreportingBidder(ThresholdBidder(_G4, 0.02), _SHADE),
                                MisreportingBidder(ThresholdBidder(_G4, 0.02),
                                                   MisreportMap.identity()),
                                ThresholdBidder(_G4, 0.02)],
                       lambda t: t % 3, 800),
}
_RESULT_FIELDS = ("revenue", "h_index", "values", "bid_index", "utility", "winner")


@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("name", list(MULTI_CONFIGS))
def test_multi_buyer_round_matches_the_reference_loop_bit_for_bit(name, seed):
    grid, dists, make, reserve, T = MULTI_CONFIGS[name]
    got = run_multi_buyer(grid, dists, make(), reserve, T, seed=seed)
    want = _reference_run_multi_buyer(grid, dists, make(), reserve, T, seed)
    for f in _RESULT_FIELDS:  # repr pins types and float bits, not just ==
        assert repr(getattr(got, f)) == repr(getattr(want, f)), f


def test_threshold_bidders_bid_without_building_a_strategy(monkeypatch):
    built = []  # every ThresholdStrategy the learners module builds

    def spy(*args):
        built.append(args)
        return ThresholdStrategy(*args)

    monkeypatch.setattr("fpabench.learners.ThresholdStrategy", spy)
    ThresholdBidder(_G4, 0.02).strategy()
    assert len(built) == 1  # the spy sees the builds it should count
    built.clear()
    # the multi_buyer workload's shape: 3 threshold bidders, K=4, reserve 4
    res = run_multi_buyer(_G4, [Uniform()] * 3, _thresholds(3, eta=0.01)(), 4, 2000, seed=3)
    assert any(w >= 0 for w in res.winner) and built == []
    # sampled alg2 against an oblivious adversary
    lrn = ThresholdBidder(_G4, 0.02)
    tr = run_single_buyer(_G4, Uniform(), lrn, StochasticCompetition((0.2,) * 5), 500,
                          mode="sampled", seed=4)
    assert len(set(tr.bid_index)) > 1 and built == []
