"""The column pass of run_single_buyer against the scalar forms it replaces.

Every round of the vectorized prefix benchmark, the row accounting, the
strategies' columnar accounting and the robustness columns must equal the
scalar ``best_fixed_utility``, ``utility_for_h``, ``revenue_for_h``,
``ThresholdStrategy.exact_utility``/``exact_revenue``, the frozen piecewise
accounting in ``conftest`` and ``check_robustness_step`` bit for bit, on
both grid kinds, K from 1 to 32, every distribution kind, and competing-bid
sequences that leave bids unplayed (repeated slopes).  Misreported plays
mix shared and per-play partitions and piece counts.  Probability plays,
under a learner's F of their own, are checked through the threshold
strategy the learners built eagerly before.
"""

import numpy as np
import pytest

from conftest import former_revenue, former_utility, make_rng
from fpabench import strategies
from fpabench.auction import (
    best_fixed_utility,
    best_response_rows,
    revenue_for_h,
    revenue_rows,
    single_shot_best_response,
    thresholds_from_probabilities,
    utility_for_h,
    utility_rows,
)
from fpabench.distributions import EqualRevenue, PiecewiseLinearCDF, Uniform
from fpabench.environments import AdaptiveCompetition, run_single_buyer
from fpabench.grids import BidGrid, IrregularBidGrid
from fpabench.learners import MeanBasedBucketBidder, MisreportingBidder
from fpabench.metrics import benchmark_columns, check_robustness_step, robustness_columns
from fpabench.projection import probability_polytope, threshold_polytope
from fpabench.strategies import (
    BucketStrategy,
    ComposedStrategy,
    MisreportMap,
    Plays,
    ProbabilityStrategy,
    ThresholdStrategy,
)
from fpabench.verify import random_distribution, random_feasible

FLAT_PWL = PiecewiseLinearCDF((0.0, 0.3, 0.6, 1.0), (0.0, 0.2, 0.2, 1.0))


def _instance(rng, k):
    K = 1 + k % 32
    if (k // 32 + k) % 2:  # each K on both grid kinds across k and k + 32
        grid = BidGrid(K, 1.0 / K)
    else:
        grid = IrregularBidGrid(tuple([0.0] + sorted(rng.uniform(0.0, 1.0, K).tolist())))
    F = (Uniform(), EqualRevenue(0.1), FLAT_PWL, random_distribution(rng))[k % 4]
    # a random subset of the bids is ever played, so the others keep zero
    # counts and their slopes D_j repeat the previous bid's
    support = rng.choice(K + 1, size=int(rng.integers(1, K + 2)), replace=False)
    T = int(rng.integers(1, 80))
    h = rng.choice(support, size=T, p=rng.dirichlet(np.ones(len(support))))
    return grid, F, h


def _probability_rows(grid, F, rng, n):
    poly = probability_polytope(grid, F)
    return np.array([random_feasible(poly, rng) for _ in range(n)])


def test_prefix_benchmark_matches_best_fixed_utility_every_round():
    for k in range(64):
        grid, F, h = _instance(make_rng(900 + k), k)
        T = len(h)
        per_round = benchmark_columns(grid, F, h, final=False)
        counts = [0] * (grid.K + 1)
        for t, hi in enumerate(h.tolist(), start=1):
            counts[hi] += 1
            d = tuple(c / t for c in counts)
            assert per_round[t - 1] == best_fixed_utility(grid, F, d)[0], (k, t)
            assert best_response_rows(grid, np.array([d]))[0].tolist() == \
                single_shot_best_response(grid, d), (k, t)
        final = benchmark_columns(grid, F, h, final=True)
        want = best_fixed_utility(grid, F, tuple(c / T for c in counts))[0]
        assert final.tolist() == [want] * T, k


def test_row_accounting_matches_the_scalar_forms():
    for k in range(32):
        rng = make_rng(1000 + k)
        grid, F, _ = _instance(rng, k)
        p = _probability_rows(grid, F, rng, 20)
        util, rev = utility_rows(grid, F, p), revenue_rows(grid, p)
        for r in range(len(p)):
            for i in range(grid.K + 1):
                assert util[r, i] == utility_for_h(grid, F, p[r].tolist(), i), (k, r, i)
                assert rev[r, i] == revenue_for_h(grid, p[r].tolist(), i), (k, r, i)


QUARTER = MisreportMap((0.0, 0.5, 0.5, 1.0), (0.0, 0.5, 0.25, 0.25))
FLAT = MisreportMap((0.0, 1.0), (0.5, 0.5))  # one piece
ZIGZAG = MisreportMap((0.0, 0.25, 0.5, 0.75, 1.0), (0.0, 1.0, 0.0, 1.0, 0.0))


def _strategies(grid, rng, kind, n):
    if kind == "threshold":
        poly = threshold_polytope(grid)
        return [ThresholdStrategy(grid, tuple(random_feasible(poly, rng))) for _ in range(n)]
    if kind == "probability":  # under a learner's F of its own, not the run's
        G = random_distribution(rng)
        poly = probability_polytope(grid, G)
        return [ProbabilityStrategy(grid, G, tuple(random_feasible(poly, rng)))
                for _ in range(n)]
    if kind == "bucket":
        return [BucketStrategy(grid, tuple(rng.integers(0, grid.K + 1, 16).tolist()))
                for _ in range(n)]
    return [ComposedStrategy(s, QUARTER) for s in _strategies(grid, rng, "threshold", n)]


def _check_plays(F, h, pool, rng, k):
    played = [pool[j] for j in rng.integers(0, len(pool), len(h))]  # runs repeat
    plays = Plays()
    for s in played:
        plays.record(s)
    util, rev = plays.exact_columns(F, h)
    for t, (s, hi) in enumerate(zip(played, h.tolist())):
        if isinstance(s, ProbabilityStrategy):  # the learners' former eager strategy
            s = ThresholdStrategy(s.grid, tuple(thresholds_from_probabilities(s.grid, s.F, s.p)))
        if isinstance(s, ThresholdStrategy):
            want = s.exact_utility(F, hi), s.exact_revenue(F, hi)
        else:
            want = former_utility(s, F, hi), former_revenue(s, F, hi)
        assert (util[t], rev[t]) == want, (k, t)


@pytest.mark.parametrize("kind", ["threshold", "probability", "bucket", "composed"])
def test_strategy_columns_match_exact_utility_and_revenue(kind):
    for k in range(32):
        rng = make_rng(1100 + k)
        grid, F, h = _instance(rng, k)
        _check_plays(F, h, _strategies(grid, rng, kind, 4), rng, k)


@pytest.mark.parametrize("inner,maps", [
    ("bucket", (QUARTER,)),               # every play on one partition
    ("threshold", (QUARTER,)),            # a partition per play
    ("bucket", (FLAT, QUARTER, ZIGZAG)),  # piece counts differ: padding
    ("threshold", (FLAT, QUARTER, ZIGZAG)),
    ("probability", (FLAT, QUARTER, ZIGZAG)),
])
def test_composed_columns_match_the_scalar_forms(inner, maps):
    for k in range(32):
        rng = make_rng(1300 + k)
        grid, F, h = _instance(rng, k)
        pool = [ComposedStrategy(s, maps[j % len(maps)])
                for j, s in enumerate(_strategies(grid, rng, inner, 6))]
        if inner == "bucket" and len(maps) == 1:
            assert len({s.edges for s in pool}) == 1
        if len(maps) > 1:
            assert len({len(s.piece_bids) for s in pool}) > 1
        _check_plays(F, h, pool, rng, k)


def test_misreport_ftl_run_resolves_pieces_once_per_distinct_play(monkeypatch):
    resolved, seen = [], set()
    pull_back = strategies._pull_back

    def counting(report, edges):
        resolved.append(edges)
        return pull_back(report, edges)

    def reserve(t, history):  # example 5.2's decreasing reserve
        seen.add(history.current_strategy)
        return 2 if t <= 1000 else 1

    monkeypatch.setattr(strategies, "_pull_back", counting)
    learner = MisreportingBidder(MeanBasedBucketBidder(BidGrid(2, 0.125), 64), QUARTER)
    run_single_buyer(BidGrid(2, 0.125), EqualRevenue(0.1), learner,
                     AdaptiveCompetition(reserve), 2000, benchmark="final",
                     check_steps=False)
    assert 1 < len(seen) < 2000
    assert 0 < len(resolved) <= len(seen)


@pytest.mark.parametrize("kind", ["alg1", "alg2"])
def test_robustness_columns_match_check_robustness_step(kind):
    for k in range(32):
        rng = make_rng(1200 + k)
        grid, F, h = _instance(rng, k)
        T = len(h)
        if kind == "alg1":
            states = _probability_rows(grid, F, rng, T + 1)
        else:
            poly = threshold_polytope(grid)
            states = np.array([random_feasible(poly, rng) for _ in range(T + 1)])
        eta = rng.uniform(0.001, 0.5, T)
        slack, phi = robustness_columns(grid, F, states, h, eta, kind)
        for t in range(T):
            want = check_robustness_step(grid, F, states[t].tolist(),
                                         states[t + 1].tolist(), int(h[t]),
                                         float(eta[t]), kind)
            assert (slack[t], phi[t]) == want, (k, t)
