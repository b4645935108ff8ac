"""Discrete bid grids.

Bids live on a finite grid b_0 = 0 < b_1 < ... < b_K <= 1.  The uniform
grid b_i = i * eps is the common case and is required by the closed-form
update rules; irregular grids are accepted only by code paths that
project through the generic oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

_ATOL = 1e-12


@dataclass(frozen=True)
class BidGrid:
    """Uniform grid {0, eps, 2*eps, ..., K*eps} with K*eps <= 1."""

    K: int
    eps: float
    bids: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("grid needs at least one positive bid (K >= 1)")
        if not (self.eps > 0.0):
            raise ValueError("grid spacing eps must be positive")
        if self.K * self.eps > 1.0 + _ATOL:
            raise ValueError("largest bid K*eps must not exceed 1")
        object.__setattr__(self, "bids", tuple(i * self.eps for i in range(self.K + 1)))


@dataclass(frozen=True)
class IrregularBidGrid:
    """Arbitrary strictly increasing grid with b_0 = 0 and b_K <= 1."""

    bids: tuple[float, ...]

    def __post_init__(self):
        bids = tuple(float(b) for b in self.bids)
        object.__setattr__(self, "bids", bids)
        if len(bids) < 2:
            raise ValueError("grid needs at least one positive bid")
        if not abs(bids[0]) <= _ATOL:  # NaN fails every check here
            raise ValueError("lowest bid must be 0")
        if not all(b2 > b1 for b1, b2 in zip(bids, bids[1:])):
            raise ValueError("bids must be strictly increasing")
        if not bids[-1] <= 1.0 + _ATOL:
            raise ValueError("largest bid must not exceed 1")

    @property
    def K(self) -> int:
        return len(self.bids) - 1


Grid = BidGrid | IrregularBidGrid
