"""Benchmarks, regret, seller revenue, and the potential-function checkers.

The per-step inequality checkers mirror the telescoping arguments behind
the regret and robustness guarantees: each returns the slack of one
round's inequality, which must never drop below -1e-8 in any run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .auction import (
    best_fixed_utility,
    bid_for_value,
    check_thresholds,
    probabilities_from_strategy,
    revenue_for_h,
)
from .distributions import EqualRevenue, PiecewiseLinearCDF, Uniform, ValueDistribution
from .grids import Grid
from .strategies import MisreportMap


# ---------------------------------------------------------------------------
# monopoly (posted-price) revenue


@lru_cache(maxsize=64)
def myerson_revenue(F: ValueDistribution) -> tuple[float, float]:
    """(max_r r*(1-F(r)), an argmax reserve), closed form per built-in kind."""
    if isinstance(F, Uniform):
        r = max(F.a, 0.5 * F.b)
        return r * (1.0 - F.cdf(r)), r
    if isinstance(F, EqualRevenue):
        # every price in [1/8, knee] earns exactly 1/8
        return 0.125, 0.125
    if isinstance(F, PiecewiseLinearCDF):
        best, arg = 0.0, 0.0
        for x0, x1, y0, y1 in zip(F.xs, F.xs[1:], F.ys, F.ys[1:]):
            s = (y1 - y0) / (x1 - x0)
            cands = [x0, x1]
            if s > 0.0:
                vert = (1.0 - y0 + s * x0) / (2.0 * s)
                if x0 < vert < x1:
                    cands.append(vert)
            for r in cands:
                val = r * (1.0 - F.cdf(r))
                if val > best + 1e-15:
                    best, arg = val, r
        return best, arg
    return _myerson_by_search(F)


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


def optimal_multi_buyer_revenue(F_list) -> float:
    """Revenue of the optimal auction for independent buyers with these priors.

    Supported for iid standard-uniform buyers only: the optimal mechanism
    awards to the highest virtual value when positive, so the revenue is
    E[max(0, 2 V_max - 1)] = integral of (2v - 1) n v^(n-1) over [1/2, 1],
    which is 2n/(n+1) (1 - 2^-(n+1)) - (1 - 2^-n).
    """
    if not F_list:
        raise ValueError("need at least one buyer")
    for F in F_list:
        if not (isinstance(F, Uniform) and F.a == 0.0 and F.b == 1.0):
            raise ValueError(
                "only iid uniform buyers are supported; supply the optimal-revenue "
                "constant manually for other priors")
    n = len(F_list)
    return 2.0 * n / (n + 1) * (1.0 - 2.0 ** -(n + 1)) - (1.0 - 2.0 ** -n)


# ---------------------------------------------------------------------------
# pseudo-regret


@dataclass(frozen=True)
class BenchmarkReport:
    empirical_d: tuple[float, ...]
    benchmark_thresholds: tuple[float, ...]
    benchmark_total: float
    learner_total: float
    regret: float


def pseudo_regret(trace, F: ValueDistribution, grid: Grid) -> BenchmarkReport:
    """Regret of a trace versus the best fixed strategy in hindsight.

    A fixed strategy's total utility depends on the h-sequence only
    through its empirical distribution, so the benchmark is T times the
    best fixed utility under the empirical d.
    """
    if trace.exp_utility is None:
        raise ValueError("pseudo-regret needs an exact-mode trace")
    T = len(trace.h_index)
    counts = [0] * (grid.K + 1)
    for h in trace.h_index:
        counts[h] += 1
    d_hat = tuple(c / T for c in counts)
    per_round, v_star = best_fixed_utility(grid, F, d_hat)
    learner_total = float(sum(trace.exp_utility))
    benchmark_total = per_round * T
    return BenchmarkReport(d_hat, tuple(v_star), benchmark_total, learner_total,
                           benchmark_total - learner_total)


# ---------------------------------------------------------------------------
# potentials and per-step inequality checkers


def potential_euclidean(p, eta: float) -> float:
    """||p||^2 / (2 eta); drives the known-distribution robustness bound."""
    return sum(pj * pj for pj in p) / (2.0 * eta)


def potential_threshold_revenue(v, F: ValueDistribution, eta: float) -> float:
    """(1/eta) * sum_j integral_{v_j}^1 (1 - F); the threshold-learner potential."""
    return sum(F.survival_integral(vj) for vj in v) / eta


# learner kinds check_robustness_step knows, and the state attribute it reads
ROBUSTNESS_STATE = {"alg1": "p", "alg2": "v"}


def check_robustness_step(grid: Grid, F: ValueDistribution, before, after,
                          h: int, eta: float, kind: str) -> tuple[float, float]:
    """(slack, potential(before)) of the per-round seller-revenue inequality.

    The potential drop plus the round's expected revenue must not exceed
    the monopoly revenue plus the algorithm's per-round leakage (eta for
    the probability learner, eta * fbar for the threshold learner).
    """
    mye = myerson_revenue(F)[0]
    if kind == "alg1":
        phi = potential_euclidean(before, eta)
        dphi = potential_euclidean(after, eta) - phi
        rev = revenue_for_h(grid, before, h)
        bound = mye + eta
    elif kind == "alg2":
        phi = potential_threshold_revenue(before, F, eta)
        dphi = potential_threshold_revenue(after, F, eta) - phi
        p = probabilities_from_strategy(grid, F, before)
        rev = revenue_for_h(grid, p, h)
        bound = mye + eta * F.density_bound
    else:
        raise ValueError(f"unknown kind {kind!r} (expected alg1 or alg2)")
    return bound - (dphi + rev), phi


def _step_slack(grid: Grid, before, after, vstar: float, h: int, eta: float,
                w: int, potential) -> float:
    """Slack of one telescoping step: comparison bid b_w, potential(v)."""
    u = bid_for_value(before, vstar)
    bids = grid.bids
    R = ((vstar - bids[w]) * (1 if h <= w else 0)
         - (vstar - bids[u]) * (1 if h <= u else 0))
    dphi = potential(after) - potential(before)
    near = min(abs(vj - vstar) for vj in before) <= eta
    return (3.0 if near else 0.0) - (dphi + R)


def check_regret_step(grid: Grid, before, after, benchmark, vstar: float,
                      h: int, eta: float) -> float:
    """Slack of the per-round regret inequality for the threshold learner.

    benchmark is the fixed comparison strategy (thresholds, no-overbid);
    only its bid at vstar enters.  The inequality's right-hand side is 3
    when some current threshold sits within eta of vstar, else 0.
    """
    check_thresholds(benchmark, grid)
    istar = bid_for_value(benchmark, vstar)

    def potential(v):
        return (sum(vstar - vj for vj in v if vstar > vj) + sum(v[:istar])) / eta

    return _step_slack(grid, before, after, vstar, h, eta, istar, potential)


def check_ic_step(grid: Grid, before, after, report: MisreportMap, vstar: float,
                  h: int, eta: float) -> float:
    """Slack of the per-round misreport-gain inequality (same machinery,
    different potential table)."""
    mstar = report(vstar)

    def potential(v):
        return (sum(vstar - vj for vj in v if vstar > vj)
                - sum(mstar - vj for vj in v if mstar > vj)) / eta

    return _step_slack(grid, before, after, vstar, h, eta,
                       bid_for_value(before, mstar), potential)


# ---------------------------------------------------------------------------
# incentive-compatibility gap and robustness report


def ic_gap(trace_truthful, trace_misreport) -> float:
    """Total exact-utility gain of the misreporting twin over the truthful run."""
    if list(trace_truthful.h_index) != list(trace_misreport.h_index):
        raise ValueError("traces saw different h-sequences")
    return float(sum(trace_misreport.exp_utility) - sum(trace_truthful.exp_utility))


def guarantee_caps(K: int, T: int, fbar: float) -> dict:
    """The paper's caps at horizon T: regret, revenue excess and IC gap."""
    return {
        "regret_cap_alg1": 2.0 * math.sqrt(2.0 * K) * math.sqrt(T),
        "regret_cap_alg2": 7.0 * math.sqrt(fbar) * K * math.sqrt(T),
        "revenue_excess_cap_alg1": math.sqrt(2.0 * K * T),
        "revenue_excess_cap_alg2": 2.0 * math.sqrt(fbar) * K * math.sqrt(T),
        "ic_gap_cap_alg2": 8.0 * K * math.sqrt(fbar) * math.sqrt(T),
    }


@dataclass(frozen=True)
class RobustnessReport:
    total_revenue: float
    myerson_total: float
    excess: float
    theoretical_cap: float
    min_slack: float


def robustness_report(trace, F: ValueDistribution, grid: Grid, kind: str) -> RobustnessReport:
    T = len(trace.h_index)
    total_rev = float(sum(trace.exp_revenue))
    mye_total = myerson_revenue(F)[0] * T
    cap = guarantee_caps(grid.K, T, F.density_bound).get(f"revenue_excess_cap_{kind}")
    if cap is None:
        raise ValueError(f"unknown kind {kind!r}")
    slacks = [s for s in trace.slack if not math.isnan(s)]
    return RobustnessReport(total_rev, mye_total, total_rev - mye_total, cap,
                            min(slacks) if slacks else math.nan)


def strong_concavity_modulus(F: ValueDistribution, d) -> float:
    """d_min / fbar: curvature of expected utility under stochastic competition."""
    support = [di for di in d if di > 0.0]
    if not support:
        raise ValueError("competing-bid distribution has empty support")
    return min(support) / F.density_bound
