"""Acceptance gate: one test (and one printed pass/fail line) per criterion."""

import math

from conftest import make_rng
from fpabench.auction import (
    best_fixed_utility,
    expected_utility,
    probabilities_from_strategy,
    thresholds_from_probabilities,
)
from fpabench.distributions import EqualRevenue, Uniform
from fpabench.environments import (
    DecreasingReserve,
    LowerBoundCompetition,
    StochasticCompetition,
    run_multi_buyer,
    run_single_buyer,
)
from fpabench.grids import BidGrid
from fpabench.learners import (
    FixedStep,
    GradientBidder,
    HarmonicStep,
    MeanBasedBucketBidder,
    MisreportingBidder,
    ThresholdBidder,
    default_eta_known_f,
    default_eta_threshold,
)
from fpabench.metrics import (
    ic_gap,
    myerson_revenue,
    optimal_multi_buyer_revenue,
    pseudo_regret,
)
from fpabench.projection import probability_polytope, threshold_polytope
from fpabench.strategies import MisreportMap
from fpabench.verify import (
    SUITES,
    mirror,
    projection,
    random_distribution,
    random_feasible,
    stepineq,
)


MIN_SLACKS = []  # per-run minimum robustness slacks, asserted by criterion 6


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num}: {detail}"


def _min_slack(trace):
    return min(s for s in trace.slack if not math.isnan(s))


def test_criterion_01_closed_form_projection_matches_oracle():
    _, worst = projection(make_rng(101), 10_000)
    _report(1, worst < 1e-9,
            f"10^4 instances, both polytopes, max coordinate error {worst:.3e}")


def test_criterion_02_threshold_probability_mirror():
    _, worst = mirror(make_rng(102), 10_000)
    _report(2, worst < 1e-12,
            f"uniform F, K=8, T=10^4, max |v - (1 - p)| = {worst:.3e}")


def _three_adversaries(T):
    return [
        StochasticCompetition((0.3, 0.25, 0.2, 0.15, 0.1)),
        DecreasingReserve(T // 2, 3, 1),
        LowerBoundCompetition(),
    ]


def test_criterion_03_gradient_bidder_regret_cap():
    g = BidGrid(4, 0.2)
    F = Uniform()
    worst_ratio = 0.0
    for T in (1_000, 10_000):
        bound = 2.0 * math.sqrt(2.0 * 4) * math.sqrt(T)
        for seed, adv in enumerate(_three_adversaries(T)):
            lrn = GradientBidder(g, F, FixedStep(default_eta_known_f(4, T)))
            tr = run_single_buyer(g, F, lrn, adv, T, seed=seed,
                                  benchmark="final", check_steps=True)
            MIN_SLACKS.append(_min_slack(tr))
            reg = pseudo_regret(tr, F, g).regret
            worst_ratio = max(worst_ratio, reg / bound)
            assert reg <= bound
    _report(3, worst_ratio <= 1.0,
            f"6 runs, worst regret / (2 sqrt(2K) sqrt(T)) = {worst_ratio:.4f}")


def test_criterion_04_threshold_bidder_regret_cap():
    g = BidGrid(4, 0.2)
    F = Uniform()
    worst_ratio = 0.0
    for T in (1_000, 10_000):
        bound = 7.0 * 1.0 * 4 * math.sqrt(T)
        for seed, adv in enumerate(_three_adversaries(T)):
            lrn = ThresholdBidder(g, default_eta_threshold(1.0, T))
            tr = run_single_buyer(g, F, lrn, adv, T, seed=seed,
                                  benchmark="final", check_steps=True)
            MIN_SLACKS.append(_min_slack(tr))
            reg = pseudo_regret(tr, F, g).regret
            worst_ratio = max(worst_ratio, reg / bound)
            assert reg <= bound
    _report(4, worst_ratio <= 1.0,
            f"6 runs, worst regret / (7 fbar^0.5 K sqrt(T)) = {worst_ratio:.4f}")


def test_criterion_05_harmonic_steps_log_regret():
    g = BidGrid(4, 0.2)
    F = Uniform()
    d = (0.6, 0.1, 0.1, 0.1, 0.1)
    regs = {}
    for T in (1_000, 100_000):
        lrn = GradientBidder(g, F, HarmonicStep(1.0, 0.1))
        tr = run_single_buyer(g, F, lrn, StochasticCompetition(d), T, seed=5,
                              benchmark="final", check_steps=True)
        MIN_SLACKS.append(_min_slack(tr))
        regs[T] = pseudo_regret(tr, F, g).regret
    bound = 20.0 * (1.0 + math.log(100_000))
    ratio = regs[100_000] / regs[1_000]
    ok = regs[100_000] <= bound and ratio <= 2.2
    _report(5, ok, f"regret(10^5) = {regs[100_000]:.3f} <= {bound:.1f}, "
                   f"regret(10^5)/regret(10^3) = {ratio:.3f} <= 2.2")


def test_criterion_06_per_step_potential_inequalities():
    # robustness slacks collected from every checked run of criteria 3-5
    # (criterion 7's runs assert the same bound internally)
    assert len(MIN_SLACKS) >= 14
    run_min = min(MIN_SLACKS)
    _, tuple_min = stepineq(make_rng(106), 100_000)
    ok = run_min >= -1e-8 and tuple_min >= -1e-8
    _report(6, ok, f"min robustness slack over runs {run_min:.3e}, "
                   f"min regret-step slack over 10^5 tuples {tuple_min:.3e}")


def _example52(T, learner, check_steps):
    g = BidGrid(2, 0.125)
    F = EqualRevenue(0.1)
    adv = DecreasingReserve(T // 2, 2, 1)
    tr = run_single_buyer(g, F, learner, adv, T, benchmark="final",
                          check_steps=check_steps)
    mye = myerson_revenue(F)[0]
    return tr, sum(tr.exp_revenue) - mye * T


def test_criterion_07_reserve_manipulation_reproduction():
    T = 100_000
    g = BidGrid(2, 0.125)
    F = EqualRevenue(0.1)

    _, ftl_excess = _example52(T, MeanBasedBucketBidder(g, 64), False)
    ftl_ok = ftl_excess >= 0.8 * T / 64.0

    tr2, a2_excess = _example52(
        T, ThresholdBidder(g, default_eta_threshold(8.0, T)), True)
    cap2 = 2.0 * math.sqrt(8.0) * 2 * math.sqrt(T)
    a2_ok = a2_excess <= cap2 and _min_slack(tr2) >= -1e-8

    tr1, a1_excess = _example52(
        T, GradientBidder(g, F, FixedStep(default_eta_known_f(2, T))), True)
    cap1 = math.sqrt(2.0 * 2 * T)
    a1_ok = a1_excess <= cap1 and _min_slack(tr1) >= -1e-8

    _report(7, ftl_ok and a2_ok and a1_ok,
            f"FTL excess {ftl_excess:.1f} >= {0.8 * T / 64:.0f}; "
            f"threshold-learner excess {a2_excess:.1f} <= {cap2:.1f}; "
            f"gradient-learner excess {a1_excess:.1f} <= {cap1:.1f}")


QUARTER_MAP = MisreportMap((0.0, 0.5, 0.5, 1.0), (0.0, 0.5, 0.25, 0.25))


def _misreport_gap(make_learner, T):
    g = BidGrid(2, 0.125)
    F = EqualRevenue(0.1)
    truthful = run_single_buyer(g, F, make_learner(), DecreasingReserve(T // 2, 2, 1),
                                T, benchmark="final", check_steps=False)
    twisted = run_single_buyer(g, F, MisreportingBidder(make_learner(), QUARTER_MAP),
                               DecreasingReserve(T // 2, 2, 1), T,
                               benchmark="final", check_steps=False)
    return ic_gap(truthful, twisted)


def test_criterion_08_incentive_compatibility():
    g = BidGrid(2, 0.125)
    a2_ok = True
    details = []
    for T in (10_000, 100_000):
        gap = _misreport_gap(
            lambda T=T: ThresholdBidder(g, default_eta_threshold(8.0, T)), T)
        cap = 8.0 * 2 * math.sqrt(8.0) * math.sqrt(T)
        a2_ok = a2_ok and gap <= cap
        details.append(f"threshold gap(T={T}) {gap:.1f} <= {cap:.1f}")

    Ts, gaps = [], []
    for T in (1_000, 10_000, 100_000):
        gap = _misreport_gap(lambda: MeanBasedBucketBidder(g, 64), T)
        Ts.append(T)
        gaps.append(gap)
    slope = sum(gp * T for gp, T in zip(gaps, Ts)) / sum(T * T for T in Ts)
    ftl_ok = all(gp > 0 for gp in gaps) and (1.0 / 200.0) <= slope <= 1.0
    details.append(f"FTL gap slope {slope:.4f} in [1/200, 1]")
    _report(8, a2_ok and ftl_ok, "; ".join(details))


def test_criterion_09_lower_bound_demonstration():
    g = BidGrid(1, 0.25)
    ratios = []
    for T in (100, 1_000, 10_000):
        F = Uniform(0.5, 0.5 + 1.0 / T)
        total = 0.0
        for seed in range(100):
            lrn = GradientBidder(g, F, FixedStep(default_eta_known_f(1, T)))
            tr = run_single_buyer(g, F, lrn, LowerBoundCompetition(), T,
                                  seed=seed, benchmark="final", check_steps=False)
            total += tr.regret_cum[-1]
        ratios.append(total / 100 / math.sqrt(T))
    in_band = all(0.01 <= r <= 10.0 for r in ratios)
    nonvanishing = ratios[-1] >= 0.5 * ratios[0]
    _report(9, in_band and nonvanishing,
            "mean regret / sqrt(T) over 100 seeds: "
            + ", ".join(f"{r:.4f}" for r in ratios) + " (band [0.01, 10])")


def test_criterion_10_multi_buyer_revenue_cap():
    n, T, seeds = 3, 100_000, 20
    g = BidGrid(4, 0.125)
    reserve = 4  # bid 0.5, the single-buyer monopoly price
    totals = []
    for seed in range(seeds):
        learners = [ThresholdBidder(g, default_eta_threshold(1.0, T))
                    for _ in range(n)]
        res = run_multi_buyer(g, [Uniform()] * n, learners, reserve, T, seed=seed)
        totals.append(sum(res.revenue))
    mean = sum(totals) / seeds
    se = (sum((t - mean) ** 2 for t in totals) / (seeds - 1)) ** 0.5 / math.sqrt(seeds)
    cap = (optimal_multi_buyer_revenue([Uniform()] * n) * T
           + 8.0 * n * 4 * 1.0 * math.sqrt(T) + 3.0 * se)
    _report(10, mean <= cap,
            f"mean revenue {mean:.1f} <= optimal + 8nK fbar^0.5 sqrt(T) + 3SE = {cap:.1f}")


def test_criterion_11_numerical_hygiene_suite():
    results = []
    for name in ("gradient", "concavity"):
        suite = SUITES[name]
        _, worst = suite.run_default()
        results.append((name, suite.passes(worst), f"{suite.label} {worst:.2e}"))

    # transform round-trips across all distribution kinds
    rng = make_rng(111)
    worst_rt = 0.0
    for _ in range(500):
        K = int(rng.integers(1, 7))
        g = BidGrid(K, float(1.0 / (K + 1)))
        F = random_distribution(rng)
        p = random_feasible(probability_polytope(g, F), rng)
        p2 = probabilities_from_strategy(g, F, thresholds_from_probabilities(g, F, p))
        worst_rt = max(worst_rt, max(abs(a - b) for a, b in zip(p, p2)))
    results.append(("round-trip", worst_rt < 1e-9, f"max error {worst_rt:.2e}"))

    # best-response dominance over random strategies
    g = BidGrid(3, 0.25)
    F = Uniform()
    dominated = True
    for _ in range(5):
        w = rng.random(4)
        d = tuple(float(x) for x in w / w.sum())
        best, _ = best_fixed_utility(g, F, d)
        for _ in range(2_000):
            v = random_feasible(threshold_polytope(g), rng)
            p = probabilities_from_strategy(g, F, v)
            if expected_utility(g, F, d, p) > best + 1e-9:
                dominated = False
    results.append(("dominance", dominated, "10^4 random strategies"))

    ok = all(r[1] for r in results)
    _report(11, ok, "; ".join(f"{n} {'ok' if good else 'FAIL'} ({d})"
                              for n, good, d in results))
