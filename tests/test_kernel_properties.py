"""The row kernels against their references, on drawn instances.

``utility_rows``, ``revenue_rows``, ``best_fixed_utility_rows``,
``PiecewiseStrategy.exact_columns`` and ``robustness_columns`` must give
their references' results bit for bit (``repr`` tells -0.0 from 0.0) in
the regimes where the closed forms have edge cases: grids that reach past
the value support, K = 1, points at the ``EqualRevenue`` knee, flat
``PiecewiseLinearCDF`` segments (a flat top included) and step sizes down
to 1e-9.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import former_revenue, former_utility
from fpabench.auction import (
    best_fixed_utility,
    best_fixed_utility_rows,
    revenue_for_h,
    revenue_rows,
    utility_for_h,
    utility_rows,
)
from fpabench.distributions import EqualRevenue, PiecewiseLinearCDF, Uniform
from fpabench.grids import BidGrid
from fpabench.metrics import check_robustness_step, robustness_columns
from fpabench.strategies import BucketStrategy, ComposedStrategy, MisreportMap, ThresholdStrategy

_DISTRIBUTIONS = st.one_of(
    # support [a, b] ends below the top bid of most grids
    st.floats(0.0, 0.5).flatmap(
        lambda a: st.floats(a + 0.05, 0.9).map(lambda b: Uniform(a, b))),
    st.floats(0.01, 0.8).map(EqualRevenue),
    # a flat middle segment at height y
    st.tuples(st.floats(0.1, 0.45), st.floats(0.55, 0.9), st.floats(0.0, 1.0)).map(
        lambda t: PiecewiseLinearCDF((0.0, t[0], t[1], 1.0), (0.0, t[2], t[2], 1.0))),
    # a flat top: F reaches 1 at x < 1
    st.floats(0.2, 0.9).map(lambda x: PiecewiseLinearCDF((0.0, x, 1.0), (0.0, 1.0, 1.0))),
)
_K = st.one_of(st.just(1), st.integers(1, 6))
_REACH = st.one_of(st.just(1.0), st.floats(0.3, 1.0))  # the top bid
_ETA = st.one_of(st.just(1e-9), st.floats(1e-9, 2.0))


def _knots(F):
    """Values where F's closed forms change branch."""
    if isinstance(F, Uniform):
        return [F.a, F.b]
    if isinstance(F, EqualRevenue):
        return [0.125, F._knee]
    return list(F.xs)


def _levels(F):
    """CDF levels at the knots, EqualRevenue's knee level as the formulas hold it."""
    return [F.cdf(x) for x in _knots(F)] + ([F._ystar] if isinstance(F, EqualRevenue) else [])


def _thresholds(data, grid, F):
    """A feasible threshold vector, its coordinates drawn or on F's knots."""
    pick = st.one_of(st.floats(0.0, 1.0), st.sampled_from(_knots(F) + [0.0, 1.0]))
    v, prev = [], 0.0
    for b, x in zip(grid.bids[1:], sorted(data.draw(st.lists(pick, min_size=grid.K,
                                                            max_size=grid.K)))):
        prev = max(x, prev, b)
        v.append(prev)
    return v


def _probabilities(data, grid, F):
    """A feasible probability vector: 1 - p_j drawn or at one of F's knot levels,
    half the time through a threshold vector instead."""
    if data.draw(st.booleans()):
        return (1.0 - F.cdf_array(_thresholds(data, grid, F))).tolist()
    pick = st.one_of(st.floats(0.0, 1.0), st.sampled_from(_levels(F) + [0.0, 1.0]))
    p, prev = [], 1.0
    for b, q in zip(grid.bids[1:], sorted(data.draw(st.lists(pick, min_size=grid.K,
                                                            max_size=grid.K)))):
        prev = min(1.0 - q, prev, 1.0 - F.cdf(b))
        p.append(prev)
    return p


def _map(data, F, edges):
    """A report map with jumps, flat and falling segments, some knots on the
    inner edges and on F's knots."""
    pick = st.one_of(st.floats(0.0, 1.0), st.sampled_from(list(edges) + _knots(F) + [0.0, 1.0]))
    xs = [0.0] + sorted(data.draw(st.lists(pick, max_size=4))) + [1.0]
    ys = [data.draw(pick)]
    for _ in xs[1:]:
        ys.append(ys[-1] if data.draw(st.booleans()) else data.draw(pick))
    return MisreportMap(tuple(xs), tuple(ys))


def _same(got, want):
    return repr([float(x) for x in got]) == repr([float(x) for x in want])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(K=_K, reach=_REACH, F=_DISTRIBUTIONS, data=st.data())
def test_utility_and_revenue_rows_match_the_scalar_forms(K, reach, F, data):
    grid = BidGrid(K, reach / K)
    P = [_probabilities(data, grid, F) for _ in range(data.draw(st.integers(1, 4)))]
    util, rev = utility_rows(grid, F, P), revenue_rows(grid, P)
    for r, p in enumerate(P):
        assert _same(util[r], [utility_for_h(grid, F, p, i) for i in range(K + 1)]), p
        assert _same(rev[r], [revenue_for_h(grid, p, i) for i in range(K + 1)]), p


@settings(derandomize=True, deadline=None, max_examples=300)
@given(K=_K, reach=_REACH, F=_DISTRIBUTIONS, data=st.data())
def test_best_fixed_utility_rows_match_the_scalar_form(K, reach, F, data):
    grid = BidGrid(K, reach / K)
    # empirical distributions; bids with zero count repeat the previous slope
    counts = data.draw(st.lists(st.lists(st.integers(0, 3), min_size=K + 1, max_size=K + 1)
                                .filter(any), min_size=1, max_size=4))
    d = np.array(counts) / np.sum(counts, axis=1, keepdims=True)
    got = best_fixed_utility_rows(grid, F, d)
    assert _same(got, [best_fixed_utility(grid, F, tuple(row))[0] for row in d.tolist()])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(K=_K, reach=_REACH, F=_DISTRIBUTIONS, composed=st.booleans(), data=st.data())
def test_piecewise_columns_match_the_former_accounting(K, reach, F, composed, data):
    grid = BidGrid(K, reach / K)
    bid = st.integers(0, K)
    plays = []
    for _ in range(data.draw(st.integers(1, 4))):
        if not composed or data.draw(st.booleans()):
            s = BucketStrategy(grid, tuple(data.draw(st.lists(bid, min_size=1, max_size=8))))
        else:
            s = ThresholdStrategy(grid, tuple(_thresholds(data, grid, F)))
        plays.append(ComposedStrategy(s, _map(data, F, s.edges)) if composed else s)
    n = len(plays)
    util, rev = type(plays[0]).exact_columns(F, plays, np.repeat(np.arange(n), K + 1),
                                             np.tile(np.arange(K + 1), n))
    for r, s in enumerate(plays):
        row = slice(r * (K + 1), (r + 1) * (K + 1))
        assert _same(util[row], [former_utility(s, F, h) for h in range(K + 1)]), s
        assert _same(rev[row], [former_revenue(s, F, h) for h in range(K + 1)]), s


@settings(derandomize=True, deadline=None, max_examples=300)
@given(kind=st.sampled_from(["alg1", "alg2"]), K=_K, reach=_REACH, F=_DISTRIBUTIONS,
       data=st.data())
def test_robustness_columns_match_check_robustness_step(kind, K, reach, F, data):
    grid = BidGrid(K, reach / K)
    T = data.draw(st.integers(1, 5))
    state = _probabilities if kind == "alg1" else _thresholds
    states = [state(data, grid, F) for _ in range(T + 1)]
    h = data.draw(st.lists(st.integers(0, K), min_size=T, max_size=T))
    eta = data.draw(st.lists(_ETA, min_size=T, max_size=T))
    slack, phi = robustness_columns(grid, F, states, np.array(h), eta, kind)
    for t in range(T):
        want = check_robustness_step(grid, F, states[t], states[t + 1], h[t], eta[t], kind)
        assert _same((slack[t], phi[t]), want), t
