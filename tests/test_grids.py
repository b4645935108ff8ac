import builtins
import re

import pytest

from fpabench import grids
from fpabench.cli import _trace_csv
from fpabench.distributions import Uniform
from fpabench.environments import DecreasingReserve, FixedSequence, run_single_buyer
from fpabench.grids import BidGrid, IrregularBidGrid
from fpabench.learners import MeanBasedBucketBidder, ThresholdBidder
from fpabench.projection import ga_step_thresholds


def test_uniform_grid_bids_are_exact_multiples():
    g = BidGrid(4, 0.125)
    assert g.bids == (0.0, 0.125, 0.25, 0.375, 0.5)
    assert g.bids[0] == 0.0
    assert g.K == 4


def test_an_integer_spacing_makes_float_bids():
    # BidGrid(1, 1) kept eps = 1 and built the bids (0, 1) as ints
    g = BidGrid(1, 1)
    assert type(g.eps) is float and g.bids == (0.0, 1.0)
    assert all(type(b) is float for b in g.bids)
    tr = run_single_buyer(g, Uniform(), ThresholdBidder(g, 0.1), FixedSequence([0, 1, 0, 1]),
                          4, mode="sampled", seed=3)
    assert all(type(x) is float for x in tr.payment)
    rows = [line.split(",") for line in _trace_csv(tr).splitlines()]
    col = rows[0].index("payment")
    assert all("." in row[col] for row in rows[1:])


def test_uniform_grid_validation():
    with pytest.raises(ValueError):
        BidGrid(0, 0.25)
    with pytest.raises(ValueError):
        BidGrid(2, 0.0)
    with pytest.raises(ValueError):
        BidGrid(5, 0.25)  # 5 * 0.25 > 1


@pytest.mark.parametrize("make, message", [
    # unchecked, K=True built a grid, K=2.5 died inside range, a 1.5 entry
    # raised mid-run, switch=2.5 switched after round 2, and i=1.0 failed
    # with "list indices must be integers"
    (lambda: BidGrid(True, 0.5), "K must be an integer, got True"),
    (lambda: BidGrid(2.5, 0.1), "K must be an integer, got 2.5"),
    (lambda: FixedSequence([0, 1.5, 1]), "fixed h-sequence entry must be an integer, got 1.5"),
    (lambda: DecreasingReserve(2.5, 2, 1), "switch must be an integer, got 2.5"),
    (lambda: DecreasingReserve(2, 2.0, 1), "high must be an integer, got 2.0"),
    (lambda: DecreasingReserve(2, 2, True), "low must be an integer, got True"),
    # buckets=2.5 died in numpy with "'float' object cannot be interpreted as an integer"
    (lambda: MeanBasedBucketBidder(BidGrid(2, 0.25), 2.5), "buckets must be an integer, got 2.5"),
    (lambda: MeanBasedBucketBidder(BidGrid(2, 0.25), True), "buckets must be an integer, got True"),
    (lambda: ga_step_thresholds(BidGrid(2, 0.25), (0.5, 0.75), 1.0, 0.1),
     "competing-bid index 1.0 is not an integer"),
    (lambda: ThresholdBidder(BidGrid(2, 0.25), 0.1).observe(1.0),
     "competing-bid index 1.0 is not an integer"),
    # True stepped as h=1
    (lambda: ThresholdBidder(BidGrid(2, 0.25), 0.1).observe(True),
     "competing-bid index True is not an integer"),
])
def test_integer_arguments_are_checked_where_they_enter(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_uniform_grid_size_is_capped_before_the_bids_are_built(monkeypatch):
    # K=10**12 with eps=1e-12 passed every check and died building its bids
    # with a MemoryError; neither size below may even start them
    def small(n):
        assert n <= 2**24 + 1, f"range({n})"
        return builtins.range(n)
    monkeypatch.setattr(grids, "range", small, raising=False)
    for K, eps in [(2**24 + 1, 2.0**-25), (10**12, 1e-12)]:
        with pytest.raises(ValueError, match=f"^K={K} is more than 2\\*\\*24 bids$"):
            BidGrid(K, eps)


def test_irregular_grid_size():
    ig = IrregularBidGrid((0.0, 0.1, 0.4, 0.45))
    assert ig.K == 3


def test_irregular_grid_requires_strict_increase_from_zero():
    with pytest.raises(ValueError):
        IrregularBidGrid((0.1, 0.2))
    with pytest.raises(ValueError):
        IrregularBidGrid((0.0, 0.3, 0.3))
    with pytest.raises(ValueError):
        IrregularBidGrid((0.0, 0.5, 1.5))


def test_a_top_bid_above_one_is_refused():
    # b_4 = 1.0000000000008 would put v_4's floor over its ceiling of 1:
    # an empty threshold polytope, which the threshold learner played anyway
    with pytest.raises(ValueError, match="largest bid K\\*eps must not exceed 1"):
        BidGrid(4, 0.2500000000002)
    with pytest.raises(ValueError, match="largest bid must not exceed 1"):
        IrregularBidGrid((0.0, 0.5, 1.0000000000008))
    assert IrregularBidGrid((0.0, 0.5, 1.0)).bids[-1] == 1.0
    # no spacing in use is refused: 1/K for every K that reaches 1 ...
    for K in (*range(1, 1025), 10**5):
        assert BidGrid(K, 1.0 / K).bids[-1] <= 1.0
    # ... and K = 1/eps for the spacings the configs and tests name
    for eps in (0.1, 0.05, 0.02, 0.01, 0.005, 0.001, 0.125, 0.2, 0.25):
        assert BidGrid(round(1.0 / eps), eps).bids[-1] == 1.0
