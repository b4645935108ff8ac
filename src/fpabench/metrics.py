"""Benchmarks, regret, seller revenue, and the potential-function checkers.

The per-step inequality checkers mirror the telescoping arguments behind
the regret and robustness guarantees: each returns the slack of one
round's inequality, which must never drop below -1e-8 in any run.
``benchmark_columns`` and ``robustness_columns`` evaluate the prefix
benchmark and the robustness inequality for every round of a run at once,
bit for bit equal to the scalar forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .auction import (
    best_fixed_utility_rows,
    bid_for_value,
    check_thresholds,
    probabilities_from_strategy,
    revenue_for_h,
    revenue_rows,
)
from .distributions import EqualRevenue, PiecewiseLinearCDF, Uniform, ValueDistribution
from .grids import Grid


# ---------------------------------------------------------------------------
# monopoly (posted-price) revenue


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
    raise TypeError(f"no closed-form Myerson revenue for {type(F).__name__}")


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
    benchmark_total: float
    learner_total: float
    regret: float


def pseudo_regret(trace, F: ValueDistribution, grid: Grid) -> BenchmarkReport:
    """Regret of a trace versus the best fixed strategy in hindsight.

    A fixed strategy's total utility depends on the h-sequence only
    through its empirical distribution, so the benchmark is T times the
    best fixed utility under the empirical d (``benchmark_columns``'s
    final value).
    """
    if trace.exp_utility is None:
        raise ValueError("pseudo-regret needs an exact-mode trace")
    T = len(trace.h_index)
    benchmark_total = float(benchmark_columns(grid, F, trace.h_index, final=True)[0]) * T
    learner_total = _left_sum(trace.exp_utility)
    return BenchmarkReport(benchmark_total, learner_total, benchmark_total - learner_total)


_BENCHMARK_BLOCK = 1024  # rounds whose prefix benchmark is evaluated together


def benchmark_columns(grid: Grid, F: ValueDistribution, h, final: bool):
    """Per-round best fixed utility of a run with competing bids h.

    Round t gets best_fixed_utility under the empirical distribution of
    h_1..h_t, or with ``final`` under that of the whole run.
    """
    h = np.asarray(h)
    T, n = len(h), grid.K + 1
    if final:
        counts = np.bincount(h, minlength=n)
        return np.full(T, best_fixed_utility_rows(grid, F, (counts / T)[None, :])[0])
    bench = np.empty(T)
    counts = np.zeros(n, dtype=np.int64)
    for a in range(0, T, _BENCHMARK_BLOCK):
        block = h[a:a + _BENCHMARK_BLOCK]
        c = counts + np.cumsum(block[:, None] == np.arange(n), axis=0)
        t = np.arange(a + 1, a + len(block) + 1)
        bench[a:a + len(block)] = best_fixed_utility_rows(grid, F, c / t[:, None])
        counts = c[-1]
    return bench


# ---------------------------------------------------------------------------
# potentials and per-step inequality checkers


def _left_sum(terms) -> float:
    total = 0.0  # left to right, as _left_sums does per row
    for x in terms:
        total += x
    return total


def _left_sums(a):
    total = np.zeros(a.shape[0])
    for j in range(a.shape[1]):
        total += a[:, j]
    return total


def potential_euclidean(p, eta: float) -> float:
    """||p||^2 / (2 eta); drives the known-distribution robustness bound."""
    return _left_sum(pj * pj for pj in p) / (2.0 * eta)


def potential_threshold_revenue(v, F: ValueDistribution, eta: float) -> float:
    """(1/eta) * sum_j integral_{v_j}^1 (1 - F); the threshold-learner potential."""
    return _left_sum(F.survival_integral(vj) for vj in v) / eta


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


def robustness_columns(grid: Grid, F: ValueDistribution, states, h, eta,
                       kind: str):
    """check_robustness_step for every round: (slack, potential) arrays.

    ``states`` is the (T+1, K) array of the learner's state before each
    round and after the last; ``h`` and ``eta`` hold each round's competing
    bid and step size.
    """
    mye = myerson_revenue(F)[0]
    states, eta = np.asarray(states, dtype=float), np.asarray(eta, dtype=float)
    before = states[:-1]
    if kind == "alg1":
        with np.errstate(over="ignore"):  # eta near the float limit: potential 0, as in 1/inf
            total, scale = _left_sums(states * states), 2.0 * eta
        p = before
        bound = mye + eta
    elif kind == "alg2":
        total, scale = _left_sums(F.survival_integral_array(states)), eta
        p = 1.0 - F.cdf_array(before)
        bound = mye + eta * F.density_bound
    else:
        raise ValueError(f"unknown kind {kind!r} (expected alg1 or alg2)")
    phi = total[:-1] / scale
    dphi = total[1:] / scale - phi
    rev = revenue_rows(grid, p)[np.arange(len(eta)), h]
    return bound - (dphi + rev), phi


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
        return (_left_sum(vstar - vj for vj in v if vstar > vj)
                + _left_sum(v[:istar])) / eta

    u = bid_for_value(before, vstar)
    bids = grid.bids
    R = ((vstar - bids[istar]) * (1 if h <= istar else 0)
         - (vstar - bids[u]) * (1 if h <= u else 0))
    dphi = potential(after) - potential(before)
    near = min(abs(vj - vstar) for vj in before) <= eta
    return (3.0 if near else 0.0) - (dphi + R)


# ---------------------------------------------------------------------------
# incentive-compatibility gap and the guarantee caps


def ic_gap(trace_truthful, trace_misreport) -> float:
    """Total exact-utility gain of the misreporting twin over the truthful run."""
    if list(trace_truthful.h_index) != list(trace_misreport.h_index):
        raise ValueError("traces saw different h-sequences")
    return _left_sum(trace_misreport.exp_utility) - _left_sum(trace_truthful.exp_utility)


def guarantee_caps(K: int, T: int, fbar: float) -> dict:
    """The paper's caps at horizon T: regret, revenue excess and IC gap."""
    return {
        "regret_cap_alg1": 2.0 * math.sqrt(2.0 * K) * math.sqrt(T),
        "regret_cap_alg2": 7.0 * math.sqrt(fbar) * K * math.sqrt(T),
        "revenue_excess_cap_alg1": math.sqrt(2.0 * K * T),
        "revenue_excess_cap_alg2": 2.0 * math.sqrt(fbar) * K * math.sqrt(T),
        "ic_gap_cap_alg2": 8.0 * K * math.sqrt(fbar) * math.sqrt(T),
    }


def strong_concavity_modulus(F: ValueDistribution, d) -> float:
    """d_min / fbar: curvature of expected utility under stochastic competition."""
    support = [di for di in d if di > 0.0]
    if not support:
        raise ValueError("competing-bid distribution has empty support")
    return min(support) / F.density_bound
