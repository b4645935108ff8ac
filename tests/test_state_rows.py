"""A threshold learner (alg1, alg2, lazyftrl, fixed) is logged by its state
rows (p or v) in every run: exact or sampled, against an oblivious or an
adaptive adversary; no ``Plays`` log is kept for it.  The reference is a
replay: a twin learner fed the run's h records its strategy each round into
a ``Plays`` log, whose exact columns must equal the trace's by ``repr``
(which tells -0.0 from 0.0), as must the twin's bid on each sampled value.
Replaying the same prepared h through an ``AdaptiveCompetition`` must give
the oblivious run's trace in every column.
"""

import bisect

import pytest

from fpabench.auction import thresholds_from_probabilities
from fpabench.distributions import EqualRevenue, PiecewiseLinearCDF, Uniform
from fpabench.environments import (
    AdaptiveCompetition,
    DecreasingReserve,
    LowerBoundCompetition,
    StochasticCompetition,
    run_single_buyer,
)
from fpabench.grids import BidGrid, IrregularBidGrid
from fpabench.learners import (
    FixedStep,
    FixedStrategyBidder,
    GradientBidder,
    HarmonicStep,
    LazyRegularizedBidder,
    ThresholdBidder,
)
from fpabench.rng import ADVERSARY, stream_rng
from fpabench.strategies import Plays, ThresholdStrategy

_G4 = BidGrid(4, 0.2)
_IRREGULAR = IrregularBidGrid((0.0, 0.05, 0.12, 0.3, 0.55, 0.85))
_FLAT = PiecewiseLinearCDF((0.0, 0.3, 0.6, 1.0), (0.0, 0.2, 0.2, 1.0))

# name -> (grid, run's F, learner factory, checks): a learner whose F differs
# from the run's is run unchecked, since its robustness bound is for its own F
RUNS = {
    "alg1_fixed": (_G4, Uniform(), lambda g: GradientBidder(g, Uniform(), FixedStep(0.05)), True),
    "alg1_harmonic": (_G4, Uniform(),
                      lambda g: GradientBidder(g, Uniform(), HarmonicStep(1.0, 0.1)), True),
    "alg1_other_F": (_G4, Uniform(),
                     lambda g: GradientBidder(g, EqualRevenue(0.1), FixedStep(0.05)), False),
    "alg1_flat_F": (_G4, EqualRevenue(0.1),
                    lambda g: GradientBidder(g, _FLAT, HarmonicStep(1.0, 0.2)), False),
    "alg1_irregular": (_IRREGULAR, Uniform(),
                       lambda g: GradientBidder(g, Uniform(), FixedStep(0.05)), True),
    "alg1_irregular_flat": (_IRREGULAR, _FLAT,
                            lambda g: GradientBidder(g, _FLAT, HarmonicStep(1.0, 0.5)), True),
    "alg1_irregular_clamp": (_IRREGULAR, Uniform(0.2, 0.7),  # max(quantile, b_j) acts
                             lambda g: GradientBidder(g, Uniform(0.2, 0.7), FixedStep(0.05)),
                             True),
    "alg1_irregular_other_F": (_IRREGULAR, Uniform(),
                               lambda g: GradientBidder(g, _FLAT, HarmonicStep(1.0, 0.1)),
                               False),
    "alg2": (_G4, Uniform(), lambda g: ThresholdBidder(g, 0.05), True),
    "alg2_equirev": (_G4, EqualRevenue(0.1), lambda g: ThresholdBidder(g, 0.03), True),
    "lazyftrl": (_G4, Uniform(), lambda g: LazyRegularizedBidder(g, Uniform(), 0.05), False),
    "lazyftrl_other_F": (_G4, Uniform(0.2, 0.7),
                         lambda g: LazyRegularizedBidder(g, _FLAT, 0.05), False),
    "fixed": (_G4, EqualRevenue(0.1),
              lambda g: FixedStrategyBidder(g, (0.3, 0.65, 0.65, 0.9)), False),
}
_D = {4: (0.3, 0.25, 0.2, 0.15, 0.1), 5: (0.3, 0.1, 0.2, 0.15, 0.1, 0.15)}


def _reads_thresholds(K):
    """An adaptive adversary whose h depends on the strategy it is shown."""
    return AdaptiveCompetition(
        lambda t, history: (t + bisect.bisect_left(history.current_strategy.thresholds, 0.55))
        % (K + 1))


ADVERSARIES = {
    "stochastic": lambda K: StochasticCompetition(_D[K]),
    "reserve": lambda K: DecreasingReserve(150, K, 1),  # long runs of one p
    "lowerbound": lambda K: LowerBoundCompetition(),
    "adaptive": _reads_thresholds,
}


def _replay(adversary, K, T, seed):
    """An adaptive adversary playing the h that ``adversary`` prepares."""
    adversary.prepare(T, K, stream_rng(seed, ADVERSARY))
    hs = list(adversary._h[:T])
    return AdaptiveCompetition(lambda t, history: hs[t - 1])


def _count_records(monkeypatch):
    calls = []
    record = Plays.record

    def counting(self, strategy):
        calls.append(strategy)
        record(self, strategy)

    monkeypatch.setattr(Plays, "record", counting)
    return calls


def _replay_columns(twin, F, trace):
    """(utility, revenue) of the twin's strategies, replayed through trace.h_index."""
    plays = Plays()
    for t, h in enumerate(trace.h_index):
        s = twin.strategy()
        plays.record(s)
        if trace.mode == "sampled":
            assert trace.bid_index[t] == s.bid_index(trace.value[t]), t
        twin.observe(h)
    util, rev = plays.exact_columns(F, trace.h_index)
    return util.tolist(), rev.tolist()


@pytest.mark.parametrize("mode", ["exact", "sampled"])
@pytest.mark.parametrize("adv", list(ADVERSARIES))
@pytest.mark.parametrize("name", list(RUNS))
def test_state_rows_account_as_the_replayed_strategies(name, adv, mode, monkeypatch):
    grid, F, make, checks = RUNS[name]
    records = _count_records(monkeypatch)
    T = 300
    # the benchmark pass does not read the log: one setting per mode
    benchmark = "per-round" if mode == "exact" else "final"
    for check_steps in {False, checks}:
        rows, replayed, twin = make(grid), make(grid), make(grid)
        for seed in (3, 4):  # each learner runs twice, from where it stopped
            kwargs = dict(mode=mode, seed=seed, check_steps=check_steps, benchmark=benchmark)
            got = run_single_buyer(grid, F, rows, ADVERSARIES[adv](grid.K), T, **kwargs)
            if adv != "adaptive":
                want = run_single_buyer(grid, F, replayed,
                                        _replay(ADVERSARIES[adv](grid.K), grid.K, T, seed),
                                        T, **kwargs)
                assert repr(got) == repr(want)
            assert records == []  # the state rows are the log
            assert repr((got.exp_utility, got.exp_revenue)) == repr(_replay_columns(twin, F, got))
            del records[:]
        assert rows.strategy() == twin.strategy()


@pytest.mark.parametrize("name", ["alg1_fixed", "alg1_irregular_other_F", "alg2", "lazyftrl"])
def test_lazy_strategy_is_one_object_per_state_and_equals_the_eager_one(name):
    grid, _, make, _ = RUNS[name]
    lrn = make(grid)
    state = "p" if hasattr(lrn, "p") else "v"

    def eager():
        v = lrn.v if state == "v" else thresholds_from_probabilities(grid, lrn.F, lrn.p)
        return ThresholdStrategy(grid, tuple(v))

    hs = [grid.K] * 40 + [0] * 40 + [1, 3, 2] * 40
    s, changes = lrn.strategy(), 0
    for h in hs:
        before = list(getattr(lrn, state))
        lrn.observe(h)
        new = lrn.strategy()
        assert lrn.strategy() is new and new == eager()
        if getattr(lrn, state) == before:  # unchanged, +-0 aside
            assert new is s
        changes += new is not s
        s = new
    assert 0 < changes < len(hs)
