"""An alg1 or alg2 run against an oblivious adversary in exact mode is logged
by the learner's state rows (p or v); no strategy object is built.  Every
other run records its strategies in ``Plays``.  Replaying the same prepared
h through an ``AdaptiveCompetition`` forces the ``Plays`` path, and the two
traces must agree by ``repr`` (which tells -0.0 from 0.0) in every column.
"""

import pytest

from fpabench.distributions import EqualRevenue, PiecewiseLinearCDF, Uniform
from fpabench.environments import (
    AdaptiveCompetition,
    DecreasingReserve,
    LowerBoundCompetition,
    StochasticCompetition,
    run_single_buyer,
)
from fpabench.grids import BidGrid, IrregularBidGrid
from fpabench.learners import FixedStep, GradientBidder, HarmonicStep, ThresholdBidder
from fpabench.rng import ADVERSARY, stream_rng
from fpabench.strategies import Plays, ProbabilityStrategy, ThresholdStrategy

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
    "alg1_irregular_other_F": (_IRREGULAR, Uniform(),
                               lambda g: GradientBidder(g, _FLAT, HarmonicStep(1.0, 0.1)),
                               False),
    "alg2": (_G4, Uniform(), lambda g: ThresholdBidder(g, 0.05), True),
    "alg2_equirev": (_G4, EqualRevenue(0.1), lambda g: ThresholdBidder(g, 0.03), True),
}
_D = {4: (0.3, 0.25, 0.2, 0.15, 0.1), 5: (0.3, 0.1, 0.2, 0.15, 0.1, 0.15)}
ADVERSARIES = {
    "stochastic": lambda K: StochasticCompetition(_D[K]),
    "reserve": lambda K: DecreasingReserve(150, K, 1),  # long runs of one p
    "lowerbound": lambda K: LowerBoundCompetition(),
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


@pytest.mark.parametrize("adv", list(ADVERSARIES))
@pytest.mark.parametrize("name", list(RUNS))
def test_rows_path_equals_the_plays_path(name, adv, monkeypatch):
    grid, F, make, checks = RUNS[name]
    records = _count_records(monkeypatch)
    T = 300
    for check_steps in {False, checks}:
        for benchmark in ("per-round", "final"):
            rows, plays = make(grid), make(grid)
            for seed in (3, 4):  # each learner runs twice, from where it stopped
                kwargs = dict(seed=seed, check_steps=check_steps, benchmark=benchmark)
                del records[:]
                got = run_single_buyer(grid, F, rows, ADVERSARIES[adv](grid.K), T, **kwargs)
                assert records == []  # the rows path builds no strategy object
                want = run_single_buyer(grid, F, plays,
                                        _replay(ADVERSARIES[adv](grid.K), grid.K, T, seed),
                                        T, **kwargs)
                assert len(records) == T
                assert repr(got) == repr(want)
            assert rows.strategy() == plays.strategy()


@pytest.mark.parametrize("name", ["alg1_fixed", "alg1_irregular_other_F", "alg2"])
def test_lazy_strategy_is_one_object_per_state_and_equals_the_eager_one(name):
    grid, _, make, _ = RUNS[name]
    lrn = make(grid)
    if hasattr(lrn, "p"):
        state, eager = (lambda: lrn.p), (lambda: ProbabilityStrategy(grid, lrn.F, tuple(lrn.p)))
    else:
        state, eager = (lambda: lrn.v), (lambda: ThresholdStrategy(grid, tuple(lrn.v)))
    hs = [grid.K] * 40 + [0] * 40 + [1, 3, 2] * 40
    s, changes = lrn.strategy(), 0
    for h in hs:
        before = list(state())
        lrn.observe(h)
        new = lrn.strategy()
        assert lrn.strategy() is new and new == eager()
        if state() == before:  # unchanged, +-0 aside
            assert new is s
        changes += new is not s
        s = new
    assert 0 < changes < len(hs)
