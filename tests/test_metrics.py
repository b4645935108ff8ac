import math
from fractions import Fraction

import pytest

from conftest import make_rng
from fpabench import metrics
from fpabench.auction import best_fixed_utility, bid_for_value
from fpabench.distributions import EqualRevenue, PiecewiseLinearCDF, Uniform, ValueDistribution
from fpabench.environments import FixedSequence, StochasticCompetition, run_single_buyer
from fpabench.grids import BidGrid
from fpabench.learners import FixedStrategyBidder, ThresholdBidder
from fpabench.metrics import (
    _left_sum,
    check_regret_step,
    check_robustness_step,
    ic_gap,
    myerson_revenue,
    optimal_multi_buyer_revenue,
    potential_euclidean,
    potential_threshold_revenue,
    pseudo_regret,
    strong_concavity_modulus,
)
from fpabench.projection import ga_step_thresholds, threshold_polytope
from fpabench.strategies import MisreportMap
from fpabench.verify import random_distribution, random_feasible, stepineq


GRID2 = BidGrid(2, 0.25)


def test_myerson_closed_forms():
    assert myerson_revenue(Uniform()) == pytest.approx((0.25, 0.5), abs=1e-9)
    val, arg = myerson_revenue(EqualRevenue(0.1))
    assert val == pytest.approx(0.125, abs=1e-9)
    assert arg * (1.0 - EqualRevenue(0.1).cdf(arg)) == pytest.approx(val, abs=1e-9)
    assert myerson_revenue(Uniform(0.5, 1.0)) == pytest.approx((0.5, 0.5), abs=1e-9)


# an approximate search, independent of the closed forms it checks
def _myerson_by_search(F: ValueDistribution) -> tuple[float, float]:
    """Grid scan plus golden-section refinement for unknown CDF shapes."""
    n = 100_000
    best, arg = 0.0, 0.0
    for i in range(n + 1):
        r = i / n
        val = r * (1.0 - F.cdf(r))
        if val > best:
            best, arg = val, r
    lo, hi = max(arg - 1.0 / n, 0.0), min(arg + 1.0 / n, 1.0)
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    f = lambda r: r * (1.0 - F.cdf(r))
    while hi - lo > 1e-8:
        c = hi - phi * (hi - lo)
        d = lo + phi * (hi - lo)
        if f(c) < f(d):
            lo = c
        else:
            hi = d
    arg = 0.5 * (lo + hi)
    return max(best, f(arg)), arg


def test_myerson_closed_form_matches_search():
    rng = make_rng(70)
    for _ in range(6):
        F = random_distribution(rng)
        closed, _ = myerson_revenue(F)
        searched, _ = _myerson_by_search(F)
        assert closed == pytest.approx(searched, abs=1e-6)


def test_myerson_revenue_has_no_fallback_for_other_kinds():
    with pytest.raises(TypeError, match="no closed-form Myerson revenue for object"):
        myerson_revenue(object())


def test_myerson_dominates_random_prices():
    rng = make_rng(71)
    for F in (Uniform(), EqualRevenue(0.2),
              PiecewiseLinearCDF((0.0, 0.4, 1.0), (0.0, 0.2, 1.0))):
        best, _ = myerson_revenue(F)
        for r in rng.random(10_000):
            r = float(r)
            assert r * (1.0 - F.cdf(r)) <= best + 1e-9


def test_potential_euclidean_values():
    assert potential_euclidean((0.8, 0.6), 0.5) == pytest.approx(1.0, abs=1e-12)
    assert potential_euclidean((0.0, 0.0), 1.0) == 0.0
    assert potential_euclidean((0.45, 0.45), 1.0) == pytest.approx(0.2025, abs=1e-12)


def test_potential_threshold_revenue_values():
    assert potential_threshold_revenue((1.0, 1.0), Uniform(), 1.0) == 0.0
    assert potential_threshold_revenue((0.5, 0.5), Uniform(), 1.0) == pytest.approx(
        0.25, abs=1e-12)
    assert potential_threshold_revenue((0.0, 0.0), Uniform(), 0.5) == pytest.approx(
        2.0, abs=1e-12)


def test_robustness_step_frozen_slack():
    slack, phi = check_robustness_step(GRID2, Uniform(), [0.40, 0.35], [0.45, 0.45],
                                       2, 1.0, "alg1")
    assert slack == pytest.approx(1.01375, abs=1e-9)
    assert phi == potential_euclidean([0.40, 0.35], 1.0)


def test_robustness_step_stationary_round():
    p = [0.5, 0.0]
    slack, _ = check_robustness_step(GRID2, Uniform(), p, p, 2, 0.3, "alg1")
    assert slack == pytest.approx(0.25 + 0.3, abs=1e-12)
    with pytest.raises(ValueError):
        check_robustness_step(GRID2, Uniform(), p, p, 2, 0.3, "ftl")


def test_pseudo_regret_zero_for_exact_best_response():
    F = Uniform()
    d = (0.5, 0.25, 0.25)
    per_round, vstar = best_fixed_utility(GRID2, F, d)
    seq = [0] * 2 + [1] + [2]  # empirical distribution (1/2, 1/4, 1/4)
    lrn = FixedStrategyBidder(GRID2, tuple(vstar))
    tr = run_single_buyer(GRID2, F, lrn, FixedSequence(seq), 4, benchmark="final")
    rep = pseudo_regret(tr, F, GRID2)
    assert rep.regret == pytest.approx(0.0, abs=1e-9)
    assert rep.benchmark_total == pytest.approx(4 * per_round, abs=1e-9)


def test_regret_step_losing_case_nonnegative():
    # v* below every threshold and the benchmark's bid region, h = b_K
    v = [0.6, 0.7]
    after, _ = ga_step_thresholds(GRID2, v, 2, 0.01)
    slack = check_regret_step(GRID2, v, after, [0.9, 0.95], 0.3, 2, 0.01)
    assert slack >= -1e-12


def test_regret_step_randomized_batch():
    _, worst = stepineq(make_rng(72), 3000)
    assert worst >= -1e-8


def check_ic_step(grid, before, after, report, vstar, h, eta):
    """Slack of the per-round misreport-gain inequality: the regret step's
    machinery with the misreport potential table.  A frozen reference with
    the operations and their order as they were in fpabench.metrics."""
    mstar = report(vstar)

    def potential(v):
        return (_left_sum(vstar - vj for vj in v if vstar > vj)
                - _left_sum(mstar - vj for vj in v if mstar > vj)) / eta

    w = bid_for_value(before, mstar)
    u = bid_for_value(before, vstar)
    bids = grid.bids
    R = ((vstar - bids[w]) * (1 if h <= w else 0)
         - (vstar - bids[u]) * (1 if h <= u else 0))
    dphi = potential(after) - potential(before)
    near = min(abs(vj - vstar) for vj in before) <= eta
    return (3.0 if near else 0.0) - (dphi + R)


def test_ic_step_randomized_batch():
    rng = make_rng(73)
    g = BidGrid(4, 0.2)
    poly = threshold_polytope(g)
    M = MisreportMap((0.0, 0.5, 0.5, 1.0), (0.0, 0.5, 0.25, 0.25))
    eta = 0.01
    for _ in range(3000):
        v = random_feasible(poly, rng)
        h = int(rng.integers(0, 5))
        after, _ = ga_step_thresholds(g, v, h, eta)
        vstar = float(rng.random())
        assert check_ic_step(g, v, after, M, vstar, h, eta) >= -1e-8


def _step_slacks(n):
    rng = make_rng(74)
    g = BidGrid(4, 0.2)
    poly = threshold_polytope(g)
    M = MisreportMap((0.0, 0.5, 0.5, 1.0), (0.0, 0.5, 0.25, 0.25))
    out = []
    for _ in range(n):
        v = random_feasible(poly, rng)
        h = int(rng.integers(0, 5))
        bench = random_feasible(poly, rng)
        vstar = float(rng.random())
        after, _ = ga_step_thresholds(g, v, h, 0.01)
        out.append((check_regret_step(g, v, after, bench, vstar, h, 0.01),
                    check_ic_step(g, v, after, M, vstar, h, 0.01)))
    return out


def test_step_potentials_do_not_depend_on_the_builtin_sum(monkeypatch):
    # Python 3.12's sum() compensates and 3.11's does not: criterion 6
    # prints the minimum regret-step slack, which would move with it
    want = _step_slacks(200)
    monkeypatch.setattr(metrics, "sum", math.fsum, raising=False)
    assert _step_slacks(200) == want


def test_ic_gap_identity_is_zero():
    g = BidGrid(2, 0.125)
    F = EqualRevenue(0.1)
    adv = lambda: StochasticCompetition((0.3, 0.3, 0.4))
    t1 = run_single_buyer(g, F, ThresholdBidder(g, 0.01), adv(), 200, seed=3,
                          benchmark="final")
    t2 = run_single_buyer(g, F, ThresholdBidder(g, 0.01), adv(), 200, seed=3,
                          benchmark="final")
    assert ic_gap(t1, t2) == 0.0


def test_ic_gap_rejects_mismatched_h_sequences():
    g = BidGrid(2, 0.125)
    F = Uniform()
    adv = lambda s: StochasticCompetition((0.3, 0.3, 0.4))
    t1 = run_single_buyer(g, F, ThresholdBidder(g, 0.01), adv(1), 50, seed=1,
                          benchmark="final")
    t2 = run_single_buyer(g, F, ThresholdBidder(g, 0.01), adv(2), 50, seed=2,
                          benchmark="final")
    with pytest.raises(ValueError):
        ic_gap(t1, t2)


def test_optimal_multi_buyer_revenue_values():
    assert optimal_multi_buyer_revenue([Uniform()]) == pytest.approx(0.25, abs=1e-4)
    assert optimal_multi_buyer_revenue([Uniform()] * 2) == pytest.approx(
        5.0 / 12.0, abs=1e-4)
    with pytest.raises(ValueError):
        optimal_multi_buyer_revenue([EqualRevenue(0.1)])


def test_optimal_multi_buyer_revenue_exact_rationals():
    # E[max(0, 2 V_max - 1)] for n iid U(0,1) buyers
    exact = {2: Fraction(5, 12), 3: Fraction(17, 32), 4: Fraction(49, 80),
             5: Fraction(43, 64), 6: Fraction(321, 448)}
    for n, want in exact.items():
        assert optimal_multi_buyer_revenue([Uniform()] * n) == pytest.approx(
            float(want), rel=1e-14, abs=0.0)


def test_strong_concavity_modulus_values():
    assert strong_concavity_modulus(Uniform(), (0.2,) * 5) == pytest.approx(0.2)
    assert strong_concavity_modulus(EqualRevenue(0.1), (0.05, 0.95)) == pytest.approx(
        0.05 / 8.0)
    with pytest.raises(ValueError):
        strong_concavity_modulus(Uniform(), (0.0, 0.0))


@pytest.mark.parametrize("d", [(-1.0, 0.5), (math.nan, 0.5, 0.5), (0.5, 0.4), (0.6, 0.6)],
                         ids=["negative", "nan", "short", "long"])
def test_strong_concavity_modulus_refuses_what_stochastic_competition_refuses(d):
    for build in (lambda: strong_concavity_modulus(Uniform(), d),
                  lambda: StochasticCompetition(d)):
        with pytest.raises(ValueError, match="^invalid competing-bid distribution$"):
            build()
