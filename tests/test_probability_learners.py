"""The probability learners' thresholds, row by row and one at a time.

``GradientBidder`` and ``LazyRegularizedBidder`` play the threshold strategy
of their p under their own F, built by the scalar
``thresholds_from_probabilities`` (``eager_strategy`` below is a frozen copy
of that build); a run accounts for them from their p rows through
``threshold_rows``.  Rows, thresholds, accounting columns and misreport
pieces must equal the scalar results by ``repr`` (which tells -0.0 from
0.0), in the regimes where the closed forms have edge cases: the
``max(quantile, b_j)`` clamp (a uniform support above the low bids), the
``EqualRevenue`` knee, flat ``PiecewiseLinearCDF`` segments, p at its caps,
at 0 and at -0.0.  Whole runs against the replayed strategies are checked
in ``test_state_rows``; a misreporting wrapper's runs, which log the
composed strategies in ``Plays``, are pinned by digest below.
"""

import bisect
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpabench import learners
from fpabench.auction import threshold_rows, thresholds_from_probabilities
from fpabench.distributions import EqualRevenue, PiecewiseLinearCDF, Uniform
from fpabench.environments import AdaptiveCompetition, StochasticCompetition, run_single_buyer
from fpabench.grids import BidGrid, IrregularBidGrid
from fpabench.learners import (
    FixedStep,
    GradientBidder,
    LazyRegularizedBidder,
    MisreportingBidder,
)
from fpabench.strategies import ComposedStrategy, MisreportMap, ThresholdStrategy


def eager_strategy(grid, F, p):
    """Frozen copy of the strategy a probability learner builds from its p."""
    return ThresholdStrategy(grid, tuple(thresholds_from_probabilities(grid, F, p)))


_DISTRIBUTIONS = st.one_of(
    st.just(Uniform(0.2, 0.7)),  # F^-(1 - p_j) falls below the low bids: the clamp acts
    st.floats(0.01, 0.8).map(EqualRevenue),
    # a flat middle segment at height y
    st.tuples(st.floats(0.1, 0.45), st.floats(0.55, 0.9), st.floats(0.0, 1.0)).map(
        lambda t: PiecewiseLinearCDF((0.0, t[0], t[1], 1.0), (0.0, t[2], t[2], 1.0))),
    # flat at 0 up to x: every cap below x is 1
    st.floats(0.1, 0.6).map(lambda x: PiecewiseLinearCDF((0.0, x, 1.0), (0.0, 0.0, 1.0))),
)
_K = st.integers(1, 8)


def _grid(data, K, irregular):
    if irregular:
        bids = data.draw(st.lists(st.floats(0.01, 1.0), min_size=K, max_size=K, unique=True))
        return IrregularBidGrid(tuple([0.0] + sorted(bids)))
    return BidGrid(K, data.draw(st.one_of(st.just(1.0), st.floats(0.3, 1.0))) / K)


def _probabilities(data, grid, F):
    """A feasible p: each p_j drawn, at its cap, at 0 or at -0.0, then held
    below the previous one and the cap."""
    pick = st.one_of(st.floats(0.0, 1.0), st.sampled_from(["cap", 0.0, -0.0]))
    p, prev = [], 1.0
    for b in grid.bids[1:]:
        cap = 1.0 - F.cdf(b)
        x = data.draw(pick)
        x = cap if x == "cap" else x
        prev = x if x <= prev and x <= cap else min(prev, cap)
        p.append(prev)
    return p


def _same(got, want):
    return repr([float(x) for x in got]) == repr([float(x) for x in want])


QUARTER = MisreportMap((0.0, 0.5, 0.5, 1.0), (0.0, 0.5, 0.25, 0.25))
ZIGZAG = MisreportMap((0.0, 0.25, 0.5, 0.75, 1.0), (0.0, 1.0, 0.0, 1.0, 0.0))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(K=_K, irregular=st.booleans(), G=_DISTRIBUTIONS, F=_DISTRIBUTIONS, data=st.data())
def test_threshold_rows_match_the_scalar_thresholds(K, irregular, G, F, data):
    # G is the learner's distribution, F the run's: they need not agree
    grid = _grid(data, K, irregular)
    P = [_probabilities(data, grid, G) for _ in range(data.draw(st.integers(1, 4)))]
    V = threshold_rows(grid, G, np.array(P))
    rows = [ThresholdStrategy(grid, tuple(v)) for v in V.tolist()]
    eager = [eager_strategy(grid, G, p) for p in P]
    values = [0.0, 1.0, 0.3, 0.6] + list(grid.bids) + data.draw(
        st.lists(st.floats(0.0, 1.0), max_size=4))
    for r, e in zip(rows, eager):
        assert _same(r.thresholds, e.thresholds)
        for v in values + list(e.thresholds):
            assert r.bid_index(v) == e.bid_index(v), v
        for M in (QUARTER, ZIGZAG):  # misreport pieces over the row's thresholds
            cr, ce = ComposedStrategy(r, M), ComposedStrategy(e, M)
            assert _same(cr.edges, ce.edges) and cr.piece_bids == ce.piece_bids
    n = len(P)
    run = np.repeat(np.arange(n), K + 1)
    h = np.tile(np.arange(K + 1), n)
    got = ThresholdStrategy.row_columns(grid, F, V, run, h)
    want = ThresholdStrategy.exact_columns(F, eager, run, h)
    assert _same(got[0], want[0]) and _same(got[1], want[1])


def test_a_lazy_run_builds_no_thresholds(monkeypatch):
    calls = []

    def counting(grid, F, p):
        calls.append(p)
        return thresholds_from_probabilities(grid, F, p)

    monkeypatch.setattr(learners, "thresholds_from_probabilities", counting)
    grid, F = BidGrid(4, 0.2), Uniform()
    lrn = LazyRegularizedBidder(grid, F, 0.05)
    trace = run_single_buyer(grid, F, lrn, StochasticCompetition([0.2] * 5), 200,
                             benchmark="final")
    assert calls == [] and len(trace.exp_utility) == 200
    s = lrn.strategy()  # built on first use, once per state
    assert s == eager_strategy(grid, F, lrn.p) and len(calls) == 1
    assert lrn.strategy() is s and len(calls) == 1


def _adaptive(K):
    def fn(t, history):
        v = history.current_strategy.inner.thresholds  # the wrapped learner's strategy
        return (t + bisect.bisect_left(v, 0.55)) % (K + 1)
    return AdaptiveCompetition(fn)


# (inner learner, mode, adversary) -> sha256 of the trace repr of a 400-round
# misreport run on an equal-revenue prior, recorded at commit 1c51863
MISREPORT_DIGESTS = {
    ("alg1", "exact", "stochastic"):
        "91c832b0f09b17e7da71f69d975f4c6328c9f7944aee423f50f5409a6691f1db",
    ("alg1", "exact", "adaptive"):
        "47acfea81607089dd732036759f2db8e94831b437521eb1bd30492a66d6d903f",
    ("alg1", "sampled", "stochastic"):
        "9bd3384f98e9a79f0982d4ac012280794b4385b7cb4858897e3fd1018a6a0d61",
    ("alg1", "sampled", "adaptive"):
        "004d80af048f4d5d39b52942ef37263feb39ecf1fd510325765d8f6b8fef1301",
    ("lazyftrl", "exact", "stochastic"):
        "78a1aabe364d5519160c9cebadf8d56d131f0f86464f4336a58ff72c8f94edf5",
    ("lazyftrl", "exact", "adaptive"):
        "2040a21dc1d2ba434b07ded827bf5eb65bb517ca523a9c7628a59d0b9a0edea5",
    ("lazyftrl", "sampled", "stochastic"):
        "30f0ed7df0f0d11321d9863d5c514d59c896f0c30a7c58fac58683327a340b84",
    ("lazyftrl", "sampled", "adaptive"):
        "eb30dccc8de9f3b9cfe54305b85767f754a757426dbccf96babd36895fedaf54",
}


@pytest.mark.parametrize("inner,mode,adv", list(MISREPORT_DIGESTS),
                         ids=["-".join(k) for k in MISREPORT_DIGESTS])
def test_misreport_traces_are_unchanged(inner, mode, adv):
    grid, F = BidGrid(4, 0.2), EqualRevenue(0.1)
    lrn = MisreportingBidder(GradientBidder(grid, F, FixedStep(0.05)) if inner == "alg1"
                             else LazyRegularizedBidder(grid, Uniform(), 0.05), QUARTER)
    adversary = (_adaptive(grid.K) if adv == "adaptive"
                 else StochasticCompetition((0.3, 0.25, 0.2, 0.15, 0.1)))
    trace = run_single_buyer(grid, F, lrn, adversary, 400, mode=mode, seed=1, check_steps=False)
    assert hashlib.sha256(repr(trace).encode()).hexdigest() == MISREPORT_DIGESTS[inner, mode, adv]
