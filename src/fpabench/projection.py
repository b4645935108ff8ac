"""Joint gradient-step-plus-projection updates and a projection oracle.

The two learners update by a gradient step followed by a Euclidean
projection onto their polytope (bidding probabilities or thresholds).
Both are one O(K) closed form on a non-decreasing chain, ``_chain_step``:
a pooled block [m, i] around the competing bid, a translated stretch
(i, ell), and a saturated tail.  The threshold step runs it on v; the
probability step runs it on -p and negates the result.

``project_oracle`` is an independent exact solver for the generic chain
polytope (monotone vector with per-coordinate box bounds), used as ground
truth for the closed forms.  It deliberately shares no code with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .auction import (
    check_probabilities,
    check_thresholds,
    clamp_probabilities,
    clamp_thresholds,
    threshold_margin,
)
from .distributions import ValueDistribution
from .grids import BidGrid, Grid

_SLACK = 1e-12  # comparison slack toward inclusion in the m / ell scans


class ProjectionDiagnostics(NamedTuple):
    """Shape of one closed-form update: pooled block [m, i], saturation from ell."""

    m: int
    ell: int
    x: float
    pooled_count: int


def _step_size(grid: Grid, i: int, eta: float) -> float:
    if not isinstance(grid, BidGrid):
        raise TypeError("closed-form updates require a uniform bid grid")
    if eta <= 0.0:
        raise ValueError("step size eta must be positive")
    if not (0 <= i <= grid.K):
        raise ValueError(f"competing-bid index {i} outside 0..{grid.K}")
    return eta * grid.eps


def _chain_step(q, i: int, g: float, step: float, floor: float, ceil: float):
    """Closed-form projected step on a non-decreasing chain capped by ceil.

    Coordinate i takes the gain g >= 0 and must stay at or above floor;
    every coordinate above i moves up by step.  Returns the point with m,
    ell and the pooled value x (m = 0 and x = nan when i = 0, where every
    coordinate just moves up).  The argument order of min and max fixes
    the sign of zeros that the probability step's negation relies on.
    """
    K = len(q)
    top = ceil - step - _SLACK
    ell = next((j for j in range(i + 1, K + 1) if q[j - 1] >= top), K + 1)
    if i == 0:
        return [min(ceil, qj + step) for qj in q], 0, ell, math.nan

    # scan the pooled-block start downward; both conditions are monotone,
    # so the first failure ends the scan
    m = i
    total = q[i - 1]  # sum of q_k over k in [m, i]
    for j in range(i - 1, 0, -1):
        cand = total + q[j - 1]
        if q[j - 1] < floor - _SLACK:
            break
        if cand - (i - j + 1) * q[j - 1] > g + _SLACK:
            break
        m = j
        total = cand

    x = max(min(ceil, (total - g) / (i - m + 1)), floor)

    out = list(q[: m - 1])
    out.extend([x] * (i - m + 1))
    for j in range(i + 1, ell):
        out.append(q[j - 1] + step)
    out.extend([ceil] * (K + 1 - ell))
    return out, m, ell, x


def ga_step_probabilities(grid: Grid, F: ValueDistribution, p, i: int, eta: float):
    """One agile gradient-ascent round for the bidding-probability learner.

    Returns the projection of p + eta * grad onto the probability polytope,
    together with diagnostics.  The competing bid is b_i.  Runs the chain
    step on -p, which is non-decreasing with floor -(1 - F(b_i)) at i.
    """
    step = _step_size(grid, i, eta)
    check_probabilities(p, grid, F)
    b = grid.bids[i]
    g = eta * threshold_margin(F, p[i - 1], b) if i else 0.0
    floor = -(1.0 - F.cdf(b)) if i else 0.0
    out, m, ell, x = _chain_step([-pj for pj in p], i, g, step, floor, -0.0)
    return (clamp_probabilities([-t for t in out], grid, F),
            ProjectionDiagnostics(m, ell, -x, i - m + 1 if i else 0))


def ga_step_thresholds(grid: Grid, v, i: int, eta: float):
    """One agile gradient round for the threshold learner (distribution-free).

    Mirror image of ga_step_probabilities under v = 1 - p with the uniform
    value distribution.
    """
    step = _step_size(grid, i, eta)
    check_thresholds(v, grid)
    b = grid.bids[i]
    g = eta * (v[i - 1] - b) if i else 0.0
    out, m, ell, x = _chain_step(v, i, g, step, b, 1.0)
    return clamp_thresholds(out, grid), ProjectionDiagnostics(m, ell, x, i - m + 1 if i else 0)


# ---------------------------------------------------------------------------
# generic chain-polytope projection oracle


@dataclass(frozen=True)
class ChainPolytope:
    """{x : x monotone in the given direction, lower <= x <= upper}."""

    increasing: bool
    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        lo = tuple(float(a) for a in self.lower)
        hi = tuple(float(b) for b in self.upper)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if len(lo) != len(hi) or not lo:
            raise ValueError("lower/upper bounds must be non-empty and match")
        # the running max of the floors, taken in the direction the chain
        # rises, must fit under every ceiling (this covers each box too)
        run = -math.inf
        for a, b in (zip(lo, hi) if self.increasing else zip(lo[::-1], hi[::-1])):
            run = max(run, a)
            if run > b + 1e-12:
                raise ValueError("infeasible chain: no monotone point in the box")

    def contains(self, x, atol: float = 1e-9) -> bool:
        n = len(x)
        if n != len(self.lower):
            return False
        for j in range(n):
            if x[j] < self.lower[j] - atol or x[j] > self.upper[j] + atol:
                return False
        for j in range(n - 1):
            gap = x[j + 1] - x[j] if self.increasing else x[j] - x[j + 1]
            if gap < -atol:
                return False
        return True


def probability_polytope(grid: Grid, F: ValueDistribution) -> ChainPolytope:
    """Non-increasing vectors capped by the no-overbid bound 1 - F(b_j)."""
    caps = tuple(1.0 - F.cdf(b) for b in grid.bids[1:])
    return ChainPolytope(False, (0.0,) * grid.K, caps)


def threshold_polytope(grid: Grid) -> ChainPolytope:
    """Non-decreasing vectors with floor b_j and ceiling 1."""
    return ChainPolytope(True, tuple(grid.bids[1:]), (1.0,) * grid.K)


def project_oracle(poly: ChainPolytope, q):
    """Exact Euclidean projection of q onto the chain polytope.

    Runs an exact pool-adjacent dynamic program over the coordinate chain
    (value functions stay convex piecewise quadratic; only their clipped
    argmins need to be tracked) and then, on every call, checks feasibility
    and first-order optimality over all contiguous block directions in
    O(K^2) (see ``_verify_block_optimality``).
    """
    q = [float(t) for t in q]
    if len(q) != len(poly.lower):
        raise ValueError("dimension mismatch")
    if poly.increasing:
        x = _project_increasing(q, poly.lower, poly.upper)
    else:
        # negate: non-increasing x maps to non-decreasing -x with swapped bounds
        y = _project_increasing([-t for t in q],
                                [-b for b in poly.upper],
                                [-a for a in poly.lower])
        x = [-t for t in y]
    _verify_block_optimality(poly, q, x)
    return x


def _project_increasing(q, lo, up):
    """Stage-wise dynamic program for the non-decreasing chain with boxes.

    Stage value functions f_i are convex piecewise quadratic; their
    derivative is a sum of (x - q_j) terms, where term j participates only
    below the activation threshold tau[j] = min(amin[j:i]) (the running
    minimum of later clipped argmins).  The root of each stage derivative
    is found by pooling terms downward, then clipped into the stage box;
    tau is carried as a suffix minimum while pooling.
    """
    n = len(q)
    amin = [0.0] * n  # clipped argmin of each stage value function
    L = -math.inf
    for i in range(n):
        L = max(L, lo[i])
        # pool terms i, i-1, ... until the pooled root lands in its piece
        r, cnt, s = i, 1, q[i]
        root = s
        tau_r = math.inf  # tau[r]
        while r > 0:
            # tau[r-1]; a tie keeps the lower index, as a forward running
            # minimum would, which fixes the sign of a zero threshold
            a = amin[r - 1]
            tau_prev = a if a <= tau_r else tau_r
            if not root < tau_prev:
                break
            r -= 1
            cnt += 1
            s += q[r]
            root = s / cnt
            tau_r = tau_prev
        if root > tau_r:
            # sign change happens at an upward jump of the derivative
            root = tau_r
        amin[i] = min(max(root, L), up[i])
    x = [0.0] * n
    x[n - 1] = amin[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = min(amin[i], x[i + 1])
    return x


def _verify_block_optimality(poly: ChainPolytope, q, x, tol: float = 1e-10, act: float = 1e-9):
    """KKT check: no contiguous block may be shifted to reduce the distance.

    Block [a, b] may move up (down) when every coordinate in it is clear of
    its upper (lower) bound and the chain neighbour it would approach is
    more than ``act`` away.  It violates optimality when it may move and
    its summed residual exceeds ``tol * (b - a + 1)`` in that direction.
    The per-coordinate conditions are computed once and carried as running
    flags while b grows, so the check is O(K^2).  Both flags only turn
    false as b grows, so the inner scan stops once neither can hold.
    Blocks are visited in (a, b) order and "up" is tested before "down",
    so the first violating block is the one reported.
    """
    if not poly.contains(x, atol=act):
        raise AssertionError("oracle produced an infeasible point")
    n = len(x)
    r = [qj - xj for qj, xj in zip(q, x)]
    below_up = [xj < uj - act for xj, uj in zip(x, poly.upper)]
    above_lo = [xj > lj + act for xj, lj in zip(x, poly.lower)]
    # gap to the previous / next neighbour, in the direction a move would close
    pairs = list(zip(x, x[1:]))  # (x[j], x[j + 1])
    if poly.increasing:
        up_start = [True] * n
        up_end = [xj < xk - act for xj, xk in pairs] + [True]
        dn_start = [True] + [xk > xj + act for xj, xk in pairs]
        dn_end = [True] * n
    else:
        up_start = [True] + [xk < xj - act for xj, xk in pairs]
        up_end = [True] * n
        dn_start = [True] * n
        dn_end = [xj > xk + act for xj, xk in pairs] + [True]
    for a in range(n):
        s = 0.0
        up_in = up_start[a]
        dn_in = dn_start[a]
        for b in range(a, n):
            up_in = up_in and below_up[b]
            dn_in = dn_in and above_lo[b]
            if not (up_in or dn_in):
                break
            s += r[b]
            if up_in and up_end[b] and s > tol * (b - a + 1):
                raise AssertionError(f"KKT violation: block [{a},{b}] wants to move up")
            if dn_in and dn_end[b] and s < -tol * (b - a + 1):
                raise AssertionError(f"KKT violation: block [{a},{b}] wants to move down")
