import pytest

from fpabench.grids import BidGrid, IrregularBidGrid


def test_uniform_grid_bids_are_exact_multiples():
    g = BidGrid(4, 0.125)
    assert g.bids == (0.0, 0.125, 0.25, 0.375, 0.5)
    assert g.bids[0] == 0.0
    assert g.K == 4


def test_uniform_grid_validation():
    with pytest.raises(ValueError):
        BidGrid(0, 0.25)
    with pytest.raises(ValueError):
        BidGrid(2, 0.0)
    with pytest.raises(ValueError):
        BidGrid(5, 0.25)  # 5 * 0.25 > 1


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
