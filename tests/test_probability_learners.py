"""The probability learners' deferred strategy against a frozen copy of the
eager one it replaced.

``GradientBidder`` and ``LazyRegularizedBidder`` record a
``ProbabilityStrategy``, which holds p and builds its thresholds only on
first use; before, they built a ``ThresholdStrategy`` from p every time p
changed (``eager_strategy`` below).  Thresholds, accounting columns,
misreport pieces and whole traces must equal the eager results by
``repr`` (which tells -0.0 from 0.0), in the regimes where the closed
forms have edge cases: the ``max(quantile, b_j)`` clamp (a uniform support
above the low bids), the ``EqualRevenue`` knee, flat ``PiecewiseLinearCDF``
segments, p at its caps, at 0 and at -0.0.
"""

import bisect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_rng
from fpabench import learners
from fpabench.auction import thresholds_from_probabilities
from fpabench.distributions import EqualRevenue, PiecewiseLinearCDF, Uniform
from fpabench.environments import AdaptiveCompetition, StochasticCompetition, run_single_buyer
from fpabench.grids import BidGrid, IrregularBidGrid
from fpabench.learners import (
    FixedStep,
    GradientBidder,
    HarmonicStep,
    LazyRegularizedBidder,
    MisreportingBidder,
)
from fpabench.strategies import (
    ComposedStrategy,
    MisreportMap,
    ProbabilityStrategy,
    ThresholdStrategy,
)


def eager_strategy(grid, F, p):
    """Frozen copy of the former ``learners._probability_strategy``."""
    return ThresholdStrategy(grid, tuple(thresholds_from_probabilities(grid, F, p)))


MID_FLAT = PiecewiseLinearCDF((0.0, 0.3, 0.6, 1.0), (0.0, 0.2, 0.2, 1.0))
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
def test_deferred_strategy_matches_the_eager_one(K, irregular, G, F, data):
    # G is the learner's distribution, F the run's: they need not agree
    grid = _grid(data, K, irregular)
    P = [_probabilities(data, grid, G) for _ in range(data.draw(st.integers(1, 4)))]
    deferred = [ProbabilityStrategy(grid, G, tuple(p)) for p in P]
    eager = [eager_strategy(grid, G, p) for p in P]
    values = [0.0, 1.0, 0.3, 0.6] + list(grid.bids) + data.draw(
        st.lists(st.floats(0.0, 1.0), max_size=4))
    for d, e in zip(deferred, eager):
        assert _same(d.thresholds, e.thresholds) and _same(d.edges, e.edges)
        for v in values + list(e.thresholds):
            assert d.bid_index(v) == e.bid_index(v), v
        for M in (QUARTER, ZIGZAG):  # misreport pieces over the deferred thresholds
            cd, ce = ComposedStrategy(d, M), ComposedStrategy(e, M)
            assert _same(cd.edges, ce.edges) and cd.piece_bids == ce.piece_bids
    n = len(P)
    run = np.repeat(np.arange(n), K + 1)
    h = np.tile(np.arange(K + 1), n)
    got = ProbabilityStrategy.exact_columns(F, deferred, run, h)
    want = ThresholdStrategy.exact_columns(F, eager, run, h)
    assert _same(got[0], want[0]) and _same(got[1], want[1])


def test_thresholds_are_built_on_first_use_only(monkeypatch):
    calls = []

    def counting(grid, F, p):
        calls.append(p)
        return thresholds_from_probabilities(grid, F, p)

    monkeypatch.setattr("fpabench.strategies.thresholds_from_probabilities", counting)
    grid, F = BidGrid(4, 0.2), Uniform()
    lrn = LazyRegularizedBidder(grid, F, 0.05)
    trace = run_single_buyer(grid, F, lrn, StochasticCompetition([0.2] * 5), 200,
                             benchmark="final")
    assert calls == [] and len(trace.exp_utility) == 200
    s = lrn.strategy()
    assert s.thresholds == s.thresholds and len(calls) == 1
    s.bid_index(0.5)
    assert len(calls) == 1


_IRREGULAR8 = IrregularBidGrid((0.0, 0.05, 0.12, 0.2, 0.3, 0.42, 0.55, 0.7, 0.85))


def _adaptive(K):
    def fn(t, history):
        s = history.current_strategy
        v = getattr(s, "inner", s).thresholds  # a misreporting wrapper's inner strategy
        return (t + bisect.bisect_left(v, 0.55)) % (K + 1)
    return AdaptiveCompetition(fn)


# (grid, learner's F, run's F, learner factory, checked steps)
_RUNS = {
    "alg1-uniform-grid": (BidGrid(4, 0.2), EqualRevenue(0.1), EqualRevenue(0.1),
                          lambda g, F: GradientBidder(g, F, FixedStep(0.05)), True),
    "alg1-irregular": (_IRREGULAR8, Uniform(0.2, 0.7), Uniform(0.2, 0.7),
                       lambda g, F: GradientBidder(g, F, FixedStep(0.05)), True),
    "alg1-harmonic-flat": (_IRREGULAR8, MID_FLAT, MID_FLAT,
                           lambda g, F: GradientBidder(g, F, HarmonicStep(1.0, 0.5)), True),
    "lazyftrl": (BidGrid(8, 0.1), Uniform(), Uniform(),
                 lambda g, F: LazyRegularizedBidder(g, F, 0.05), False),
    "lazyftrl-other-F": (BidGrid(8, 0.1), MID_FLAT, Uniform(0.2, 0.7),
                         lambda g, F: LazyRegularizedBidder(g, F, 0.05), False),
    "alg1-other-F": (_IRREGULAR8, EqualRevenue(0.3), Uniform(),
                     lambda g, F: GradientBidder(g, F, FixedStep(0.05)), False),
    "misreport-alg1": (BidGrid(4, 0.2), Uniform(), Uniform(),
                       lambda g, F: MisreportingBidder(GradientBidder(g, F, FixedStep(0.05)),
                                                       QUARTER), False),
}


@pytest.mark.parametrize("adaptive", [False, True], ids=["stochastic", "adaptive"])
@pytest.mark.parametrize("mode", ["exact", "sampled"])
@pytest.mark.parametrize("name", list(_RUNS))
def test_traces_equal_the_eager_strategy_traces(name, mode, adaptive, monkeypatch):
    grid, G, F, make, checked = _RUNS[name]
    rng = make_rng(7)
    d = rng.dirichlet(np.ones(grid.K + 1)).tolist()
    traces = []
    for eager in (False, True):
        if eager:
            monkeypatch.setattr(learners, "ProbabilityStrategy", eager_strategy)
        for seed in (0, 1):
            adversary = _adaptive(grid.K) if adaptive else StochasticCompetition(d)
            traces.append(repr(run_single_buyer(grid, F, make(grid, G), adversary, 400,
                                                mode=mode, seed=seed, check_steps=checked)))
    assert traces[:2] == traces[2:]
