import math

import numpy as np
import pytest

from conftest import make_rng
from fpabench.distributions import EqualRevenue, Uniform
from fpabench.environments import (
    AdaptiveCompetition,
    DecreasingReserve,
    FixedSequence,
    LowerBoundCompetition,
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
    ThresholdBidder,
)
from fpabench.rng import ADVERSARY, stream_rng


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


@pytest.mark.parametrize("make", [
    lambda: MeanBasedBucketBidder(GRID),
    lambda: LazyRegularizedBidder(GRID, Uniform(), 0.05),
    lambda: GradientBidder(GRID, Uniform(), FixedStep(0.05)),
], ids=["ftl", "lazyftrl", "alg1"])
@pytest.mark.parametrize("bad", [-1, 3])
def test_adversary_h_off_the_grid_is_rejected(make, bad):
    adv = AdaptiveCompetition(lambda t, history: 1 if t == 1 else bad)
    with pytest.raises(ValueError, match=f"h={bad} at t=2"):
        run_single_buyer(GRID, Uniform(), make(), adv, 5)
