import math

import pytest

from conftest import make_rng, play_columns
from fpabench import strategies
from fpabench.auction import check_thresholds
from fpabench.distributions import EqualRevenue, Uniform
from fpabench.environments import (
    DecreasingReserve,
    FixedSequence,
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
    MeanBasedBucketBidder,
    MisreportingBidder,
    ThresholdBidder,
    default_eta_known_f,
    default_eta_threshold,
)
from fpabench.projection import ga_step_probabilities
from fpabench.strategies import MisreportMap
from fpabench.verify import random_distribution


def test_default_step_sizes():
    assert default_eta_known_f(2, 10_000) == pytest.approx(0.01, abs=1e-15)
    assert default_eta_threshold(1.0, 10_000) == pytest.approx(0.01, abs=1e-15)
    assert HarmonicStep(1.0, 0.1).at(3) == pytest.approx(10.0 / 3.0, abs=1e-12)
    with pytest.raises(ValueError):
        FixedStep(0.0)
    with pytest.raises(ValueError):
        HarmonicStep(1.0, 0.0)


def test_gradient_bidder_frozen_step():
    g = BidGrid(2, 0.25)
    lrn = GradientBidder(g, Uniform(), FixedStep(1.0), p1=[0.40, 0.35])
    lrn.observe(2)
    assert lrn.p == pytest.approx((0.45, 0.45), abs=1e-12)
    # the step the learner took pooled the whole chain from m = 1
    p, diag = ga_step_probabilities(g, Uniform(), [0.40, 0.35], 2, 1.0)
    assert p == lrn.p
    assert diag.m == 1


def test_threshold_bidder_stationary_geometric():
    # constant h = b_1: v_1 - b_1 contracts by (1 - eta), higher thresholds
    # saturate at 1
    g = BidGrid(3, 0.25)
    eta = 0.3
    lrn = ThresholdBidder(g, eta, v1=[0.6, 0.7, 0.8])
    gap = 0.6 - 0.25
    for _ in range(50):
        lrn.observe(1)
        gap *= 1.0 - eta
        assert lrn.v[0] == pytest.approx(0.25 + gap, abs=1e-12)
    assert lrn.v[1] == 1.0
    assert lrn.v[2] == 1.0


def test_learners_expose_feasible_strategies():
    rng = make_rng(50)
    g = BidGrid(4, 0.2)
    F = EqualRevenue(0.3)
    learners = [
        GradientBidder(g, F, FixedStep(0.05)),
        ThresholdBidder(g, 0.05),
        LazyRegularizedBidder(g, F, 0.05),
    ]
    for _ in range(300):
        h = int(rng.integers(0, 5))
        for lrn in learners:
            check_thresholds(lrn.strategy().thresholds, g)
            lrn.observe(h)


def test_replay_determinism():
    rng = make_rng(51)
    hs = [int(h) for h in rng.integers(0, 5, size=500)]
    g = BidGrid(4, 0.2)

    def run():
        lrn = ThresholdBidder(g, 0.03)
        out = []
        for h in hs:
            lrn.observe(h)
            out.append(tuple(lrn.v))
        return out

    assert run() == run()


def test_mirror_equivalence_under_uniform():
    g = BidGrid(8, 0.1)
    rng = make_rng(52)
    eta = 0.02
    a1 = GradientBidder(g, Uniform(), FixedStep(eta))
    a2 = ThresholdBidder(g, eta)
    for h in rng.integers(0, 9, size=2000):
        a1.observe(int(h))
        a2.observe(int(h))
        assert max(abs(v - (1 - p)) for v, p in zip(a2.v, a1.p)) < 1e-12


def test_ftl_starts_at_zero_bids():
    g = BidGrid(2, 0.125)
    lrn = MeanBasedBucketBidder(g, 8)
    assert lrn.strategy().bids_per_bucket == (0,) * 8


def test_ftl_reproduces_reserve_manipulation_phases():
    # bids {0, 1/8, 1/4}; reserve 1/4 for the first half, then 1/8
    g = BidGrid(2, 0.125)
    T = 4000
    lrn = MeanBasedBucketBidder(g, 64)
    for t in range(1, T + 1):
        lrn.observe(2 if t <= T // 2 else 1)
        if t == T // 2:
            # high-reserve phase: buckets above 1/4 bid 1/4, the rest bid 0
            for b, j in enumerate(lrn._choice):
                mid = (b + 0.5) / 64
                assert j == (2 if mid > 0.25 else 0)
    # after the reserve drop, values >= 1/2 still bid 1/4
    for b, j in enumerate(lrn._choice):
        mid = (b + 0.5) / 64
        if mid >= 0.5:
            assert j == 2


def test_lazy_ftrl_first_step_matches_agile():
    g = BidGrid(3, 0.25)
    F = Uniform()
    agile = GradientBidder(g, F, FixedStep(0.1))
    lazy = LazyRegularizedBidder(g, F, 0.1)
    agile.observe(2)
    lazy.observe(2)
    assert lazy.p == pytest.approx(agile.p, abs=1e-12)


def test_misreport_wrapper_preserves_inner_trajectory():
    g = BidGrid(2, 0.125)
    M = MisreportMap((0.0, 0.5, 0.5, 1.0), (0.0, 0.5, 0.25, 0.25))
    plain = ThresholdBidder(g, 0.02)
    wrapped = MisreportingBidder(ThresholdBidder(g, 0.02), M)
    rng = make_rng(53)
    for h in rng.integers(0, 3, size=500):
        plain.observe(int(h))
        wrapped.observe(int(h))
        assert wrapped.inner.v == plain.v
    # bids differ only through the report map
    val = 0.8
    assert wrapped.strategy().bid_index(val) == plain.strategy().bid_index(M(val))


def test_misreport_identity_is_transparent():
    g = BidGrid(2, 0.125)
    plain = ThresholdBidder(g, 0.02)
    wrapped = MisreportingBidder(ThresholdBidder(g, 0.02), MisreportMap.identity())
    rng = make_rng(54)
    F = EqualRevenue(0.1)
    for h in rng.integers(0, 3, size=200):
        util, _ = play_columns(wrapped.strategy(), F)
        for hh in range(3):
            assert util[hh] == pytest.approx(plain.strategy().exact_utility(F, hh), abs=1e-12)
        plain.observe(int(h))
        wrapped.observe(int(h))


def test_misreporting_bidders_do_not_nest():
    g = BidGrid(2, 0.125)
    M = MisreportMap((0.0, 0.5, 0.5, 1.0), (0.0, 0.5, 0.25, 0.25))
    with pytest.raises(ValueError, match="do not nest"):
        MisreportingBidder(MisreportingBidder(ThresholdBidder(g, 0.02), M), M)


def test_gradient_bidder_oracle_path_on_irregular_grid():
    from fpabench.grids import IrregularBidGrid

    g = IrregularBidGrid((0.0, 0.1, 0.35, 0.4))
    lrn = GradientBidder(g, Uniform(), FixedStep(0.1))
    rng = make_rng(55)
    for h in rng.integers(0, 4, size=100):
        lrn.observe(int(h))
        check_thresholds(lrn.strategy().thresholds, g)


def test_gradient_bidder_steps_bit_for_bit_like_the_checked_step():
    rng = make_rng(121)
    for _ in range(40):
        K = int(rng.integers(1, 9))
        grid = BidGrid(K, float(1.0 / (K + int(rng.integers(1, 3)))))
        F = random_distribution(rng)
        policy = FixedStep(0.05) if rng.random() < 0.5 else HarmonicStep(1.0, 0.5)
        lrn = GradientBidder(grid, F, policy)
        p = list(lrn.p)
        for t, h in enumerate(rng.integers(0, K + 1, size=150), start=1):
            lrn.observe(int(h))
            p, _ = ga_step_probabilities(grid, F, p, int(h), policy.at(t))
            assert list(map(float.hex, lrn.p)) == list(map(float.hex, p))


class _StepThenNaN:
    def at(self, t):
        return 0.05 if t < 3 else math.nan


def test_gradient_bidder_checks_each_rounds_step_size():
    lrn = GradientBidder(BidGrid(2, 0.25), Uniform(), _StepThenNaN())
    lrn.observe(1)
    lrn.observe(2)
    with pytest.raises(ValueError, match="step size eta must be positive and finite"):
        lrn.observe(1)
    assert lrn.t == 3


def test_threshold_bidder_rejects_irregular_grid():
    from fpabench.grids import IrregularBidGrid

    with pytest.raises(TypeError):
        ThresholdBidder(IrregularBidGrid((0.0, 0.3)), 0.1)


@pytest.mark.parametrize("eta", [float("nan"), math.inf, -math.inf])
def test_step_sizes_must_be_finite(eta):
    grid = BidGrid(2, 0.25)
    with pytest.raises(ValueError, match="positive and finite"):
        FixedStep(eta)
    with pytest.raises(ValueError, match="positive and finite"):
        HarmonicStep(eta, 0.1)
    with pytest.raises(ValueError, match="positive and finite"):
        HarmonicStep(1.0, eta)
    with pytest.raises(ValueError, match="positive and finite"):
        ThresholdBidder(grid, eta)
    with pytest.raises(ValueError, match="positive and finite"):
        LazyRegularizedBidder(grid, Uniform(), eta)


def test_start_points_are_checked_at_the_clamp_tolerance():
    grid = BidGrid(2, 0.25)
    with pytest.raises(ValueError, match="p_1"):
        GradientBidder(grid, Uniform(), FixedStep(0.01), p1=[0.7500000005, 0.2])
    with pytest.raises(ValueError, match="v_1"):
        ThresholdBidder(grid, 0.01, v1=[0.2499999995, 0.6])
    with pytest.raises(ValueError, match="p_1"):
        LazyRegularizedBidder(grid, Uniform(), 0.01, p1=[0.7500000005, 0.2])
    # a start point exactly on the caps still steps
    lrn = GradientBidder(grid, Uniform(), FixedStep(0.01), p1=[0.75, 0.5])
    lrn.observe(2)
    ThresholdBidder(grid, 0.01, v1=[0.25, 0.6]).observe(2)


_G4 = BidGrid(4, 0.2)
_QUARTER = MisreportMap((0.0, 0.5, 1.0), (0.0, 0.25, 1.0))
LEARNERS = {
    "alg1": lambda: GradientBidder(_G4, Uniform(), FixedStep(0.05)),
    "alg1_irregular": lambda: GradientBidder(
        IrregularBidGrid((0.0, 0.1, 0.3, 0.35, 0.6)), Uniform(), FixedStep(0.05)),
    "alg2": lambda: ThresholdBidder(_G4, 0.05),
    "ftl": lambda: MeanBasedBucketBidder(_G4, 8),
    "lazyftrl": lambda: LazyRegularizedBidder(_G4, Uniform(), 0.05),
    "misreport": lambda: MisreportingBidder(MeanBasedBucketBidder(_G4, 8), _QUARTER),
    "fixed": lambda: FixedStrategyBidder(_G4, (0.2, 0.4, 0.6, 0.8)),
}


@pytest.mark.parametrize("h", [-1, 5])
@pytest.mark.parametrize("kind", list(LEARNERS))
def test_observe_rejects_a_competing_bid_off_the_grid(kind, h):
    # -1 is the multi-buyer UNWINNABLE sentinel; as a slice start it would
    # credit bid K
    lrn = LEARNERS[kind]()
    before = lrn.strategy()
    with pytest.raises(ValueError, match=rf"competing-bid index {h} outside 0\.\.4$"):
        lrn.observe(h)
    assert lrn.t == 1
    assert lrn.strategy() == before
    lrn.observe(2)  # still usable
    assert lrn.t == 2


@pytest.mark.parametrize("kind", list(LEARNERS))
def test_strategy_is_one_object_until_the_state_changes(kind):
    lrn = LEARNERS[kind]()
    rng = make_rng(56)
    changes = 0
    for h in rng.integers(0, 5, size=300):
        s = lrn.strategy()
        assert lrn.strategy() is s
        lrn.observe(int(h))
        new = lrn.strategy()
        changes += new is not s
        # a new object exactly when the strategy differs
        assert (new is s) == (new == s)
    if kind == "fixed":
        assert changes == 0
    else:
        assert 0 < changes < 300


def test_misreport_reuses_its_strategy_while_the_inner_one_is_unchanged():
    lrn = LEARNERS["misreport"]()
    for h in [4] * 40 + [1] * 40:
        inner, s = lrn.inner.strategy(), lrn.strategy()
        lrn.observe(h)
        assert (lrn.strategy() is s) == (lrn.inner.strategy() is inner)


# Plays entries of each run as counted when Plays.record compared strategies
# by value; by identity the counts must stay, since a learner returns one
# object per state
PLAYS_RUNS = {
    "alg2_stochastic": (lambda: ThresholdBidder(_G4, 0.05),
                        lambda: StochasticCompetition((0.3, 0.25, 0.2, 0.15, 0.1)),
                        Uniform(), 600),
    "alg2_saturating": (lambda: ThresholdBidder(_G4, 0.05),
                        lambda: FixedSequence([0] * 300 + [2] * 300), Uniform(), 300),
    "ftl_reserve": (lambda: MeanBasedBucketBidder(_G4, 64),
                    lambda: DecreasingReserve(300, 3, 1), EqualRevenue(0.1), 29),
    "misreport_ftl": (lambda: MisreportingBidder(MeanBasedBucketBidder(_G4, 64), _QUARTER),
                      lambda: DecreasingReserve(300, 3, 1), EqualRevenue(0.1), 29),
}


@pytest.mark.parametrize("name", list(PLAYS_RUNS))
def test_plays_entry_counts_are_unchanged_by_the_identity_dedupe(name, monkeypatch):
    make, adversary, F, want = PLAYS_RUNS[name]
    sizes = []
    columns = strategies.Plays.exact_columns

    def spy(self, F, h):
        sizes.append(len(self.plays))
        return columns(self, F, h)

    monkeypatch.setattr(strategies.Plays, "exact_columns", spy)
    run_single_buyer(_G4, F, make(), adversary(), 600, seed=4, check_steps=False,
                     benchmark="final")
    assert sizes == [want]


def test_plays_accounts_fresh_equal_strategies_without_compressing_them():
    plays = strategies.Plays()
    for _ in range(3):
        plays.record(strategies.ThresholdStrategy(_G4, (0.2, 0.4, 0.6, 0.8)))
    assert plays.rounds == [1, 1, 1]
    util, rev = plays.exact_columns(Uniform(), [0, 2, 4])
    s = plays.plays[0]
    assert util.tolist() == [s.exact_utility(Uniform(), h) for h in (0, 2, 4)]
    assert rev.tolist() == [s.exact_revenue(Uniform(), h) for h in (0, 2, 4)]
