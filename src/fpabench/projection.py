"""Joint gradient-step-plus-projection updates and a projection oracle.

The two learners update by a gradient step followed by a Euclidean
projection onto their polytope (bidding probabilities or thresholds).
Both are one O(K) closed form on a non-decreasing chain, ``_chain_step``:
a pooled block [m, i] around the competing bid, a translated stretch
(i, ell), a saturated tail, and the clamp's drift snap in one output pass.
The threshold step runs it on v; the probability step on -p, negated.

``project_oracle`` is an independent exact solver for the generic chain
polytope (monotone vector with per-coordinate box bounds), used as ground
truth for the closed forms: pool-adjacent-violators over blocks whose
value is their mean clipped to the block's box.  Every call verifies
feasibility and first-order optimality in one O(K) pass; the O(K^2) block
scan runs only to decide and name a possible violation.  The oracle
deliberately shares no code with the closed forms.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

from .auction import (
    CLAMP_TOL,
    _check_drift,
    check_bid_index,
    check_probabilities,
    check_thresholds,
    threshold_margin,
)
from .distributions import ValueDistribution
from .grids import BidGrid, Grid

_SLACK = 1e-12  # comparison slack toward inclusion in the m / ell scans
_EPS = sys.float_info.epsilon  # 2^-52


class ProjectionDiagnostics(NamedTuple):
    """Shape of one closed-form update: pooled block [m, i], saturation from ell."""

    m: int
    ell: int
    x: float
    pooled_count: int


def _step_size(grid: Grid, i: int, eta: float) -> float:
    if not isinstance(grid, BidGrid):
        raise TypeError("closed-form updates require a uniform bid grid")
    if not 0.0 < eta < math.inf:
        raise ValueError(f"step size eta must be positive and finite, got {eta}")
    check_bid_index(i, grid)
    return eta * grid.eps


def _chain_step(q, i: int, g: float, step: float, ceil: float, lo, name: str):
    """Closed-form projected step on a non-decreasing chain capped by ceil.

    Coordinate i takes the gain g >= 0 and every coordinate above i moves
    up by step; coordinate k stays at or above lo[k - 1].  The output pass
    is the clamp's, max(min(o, ceil), prev, lo_k); a larger correction than
    float drift raises, naming ``name``_k.  Returns the point, m, ell and
    the pooled value x (m = 0, x = nan when i = 0: every coordinate moves
    up).  The argument order of min and max, spelled out as comparisons,
    fixes the sign of zeros that the probability step's negation relies on.
    """
    K = len(q)
    top = ceil - step - _SLACK
    ell = next((j for j in range(i + 1, K + 1) if q[j - 1] >= top), K + 1)
    if i == 0:
        out, m, x = [min(ceil, qj + step) for qj in q], 0, math.nan
    else:
        # scan the pooled-block start downward; both conditions are monotone,
        # so the first failure ends the scan
        floor = lo[i - 1]
        m = i
        total = q[i - 1]  # sum of q_k over k in [m, i]
        for j in range(i - 1, 0, -1):
            cand = total + q[j - 1]
            if q[j - 1] < floor - _SLACK or cand - (i - j + 1) * q[j - 1] > g + _SLACK:
                break
            m, total = j, cand

        x = max(min(ceil, (total - g) / (i - m + 1)), floor)
        out = list(q[: m - 1]) + [x] * (i - m + 1) + [qj + step for qj in q[i : ell - 1]]
        out += [ceil] * (K + 1 - ell)

    prev = lo[0]  # the clamps started lower, at 0 and -1; lo[0] gives the same
    for k, (o, f) in enumerate(zip(out, lo)):
        c = ceil if ceil < o else o
        c = prev if prev > c else c
        prev = f if f > c else c
        if prev != o:  # NaN too
            _check_drift(name, k + 1, o, prev)
            out[k] = prev
    return out, m, ell, x


def ga_step_probabilities(grid: Grid, F: ValueDistribution, p, i: int, eta: float):
    """One agile gradient-ascent round for the bidding-probability learner.

    Returns the projection of p + eta * grad onto the probability polytope,
    together with diagnostics.  The competing bid is b_i.  Runs the chain
    step on -p: non-decreasing, floors -(1 - F(b_j)), ceiling -0.0.
    """
    step = _step_size(grid, i, eta)
    check_probabilities(p, grid, F, atol=CLAMP_TOL)
    g = eta * threshold_margin(F, p[i - 1], grid.bids[i]) if i else 0.0
    lo = [-(1.0 - F.cdf(b)) for b in grid.bids[1:]]
    out, m, ell, x = _chain_step([-pj for pj in p], i, g, step, -0.0, lo, "-p")
    return [-t for t in out], ProjectionDiagnostics(m, ell, -x, i - m + 1 if i else 0)


def ga_step_thresholds(grid: Grid, v, i: int, eta: float):
    """One agile gradient round for the threshold learner (distribution-free).

    Mirror image of ga_step_probabilities under v = 1 - p with the uniform
    value distribution.
    """
    step = _step_size(grid, i, eta)
    check_thresholds(v, grid, atol=CLAMP_TOL)
    g = eta * (v[i - 1] - grid.bids[i]) if i else 0.0
    out, m, ell, x = _chain_step(v, i, g, step, 1.0, grid.bids[1:], "v")
    return out, ProjectionDiagnostics(m, ell, x, i - m + 1 if i else 0)


# ---------------------------------------------------------------------------
# generic chain-polytope projection oracle


@dataclass(frozen=True)
class ChainPolytope:
    """{x : x monotone in the given direction, lower <= x <= upper}."""

    increasing: bool
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    # (lower, upper) of the non-decreasing chain the oracle solves: these,
    # or for a non-increasing chain those of -x, (-upper, -lower)
    _rising: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lo = tuple(float(a) for a in self.lower)
        hi = tuple(float(b) for b in self.upper)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "_rising", (lo, hi) if self.increasing else
                           (tuple(-b for b in hi), tuple(-a for a in lo)))
        if len(lo) != len(hi) or not lo:
            raise ValueError("lower/upper bounds must be non-empty and match")
        for j, (a, b) in enumerate(zip(lo, hi)):
            if a != a or b != b:  # max(-inf, nan) below would keep -inf
                raise ValueError(f"NaN bound at coordinate {j}: lower {a}, upper {b}")
        # the running max of the floors, taken in the direction the chain
        # rises, must fit under every ceiling (this covers each box too)
        run = -math.inf
        for a, b in (zip(lo, hi) if self.increasing else zip(lo[::-1], hi[::-1])):
            run = max(run, a)
            if run > b + 1e-12:
                raise ValueError("infeasible chain: no monotone point in the box")

    def contains(self, x, atol: float = 1e-9) -> bool:
        """Membership up to atol; a NaN coordinate is never inside."""
        n = len(x)
        if n != len(self.lower):
            return False
        for j in range(n):
            if not self.lower[j] - atol <= x[j] <= self.upper[j] + atol:
                return False
        for j in range(n - 1):
            gap = x[j + 1] - x[j] if self.increasing else x[j] - x[j + 1]
            if not gap >= -atol:
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

    Runs pool-adjacent-violators over clipped blocks (see
    ``_project_increasing``) and then, on every call, checks feasibility
    and first-order optimality over all contiguous block directions (see
    ``_verify_block_optimality``): one O(K) pass; the block scan runs only
    to decide and name a possible violation.
    """
    q = list(map(float, q))
    if len(q) != len(poly.lower):
        raise ValueError("dimension mismatch")
    if not all(map(math.isfinite, q)):
        raise ValueError(f"cannot project a non-finite point {q}")
    if poly.increasing:
        x = _project_increasing(q, *poly._rising)
    else:
        # negate: non-increasing x maps to non-decreasing -x with swapped bounds
        x = [-t for t in _project_increasing([-t for t in q], *poly._rising)]
    _verify_block_optimality(poly, q, x)
    return x


def _project_increasing(q, lo, up):
    """Pool-adjacent-violators for the non-decreasing chain with boxes.

    A block of pooled coordinates takes the minimizer of its summed squared
    distance over its tightest box [max lower, min upper]: its mean,
    clipped.  Each coordinate opens a block, which merges into the one
    before while their values fail to increase.  PAV is exact for
    separable convex losses under chain constraints (Best, Chakravarti &
    Ubhaya, SIAM J. Optim. 10(3), 2000); a squared loss plus a box
    indicator is one.  On a feasible chain a merged box is never empty.
    """
    blocks = []  # (value, sum, count, max lower, min upper)
    for s, a, b in zip(q, lo, up):
        n = 1
        while True:
            # the mean clipped into [a, b]: min(max(s / n, a), b) without
            # the builtin calls
            x = s / n
            x = a if x < a else x
            x = b if x > b else x
            if not blocks or blocks[-1][0] < x:
                break
            _, s0, n0, a0, b0 = blocks.pop()
            s += s0
            n += n0
            a = a0 if a0 > a else a
            b = b0 if b0 < b else b
        blocks.append((x, s, n, a, b))
    out = []
    for x, _, n, _, _ in blocks:
        out += [x] * n
    return out


def _verify_block_optimality(poly: ChainPolytope, q, x, tol: float = 1e-10, act: float = 1e-9):
    """KKT check: no contiguous block may be shifted to reduce the distance.

    Block [a, b] may move up (down) when every coordinate in it is clear of
    its upper (lower) bound and the chain neighbour it would approach is
    more than ``act`` away.  It violates optimality when it may move and
    its summed residual exceeds ``tol * (b - a + 1)`` in that direction.
    Every call runs one O(K) pass, ``_screen_blocks``; the block scan,
    ``_scan_blocks``, runs only to decide and name a possible violation,
    so a verdict and its message are the scan's.
    """
    if not _screen_blocks(poly, q, x, tol, act):
        _scan_blocks(poly, q, x, tol, act)


def _screen_blocks(poly: ChainPolytope, q, x, tol: float, act: float) -> bool:
    """True only if ``_scan_blocks`` would pass these arguments.

    One pass over the coordinates makes the comparisons of
    ``poly.contains(x, atol=act)`` and runs one Kadane recurrence per
    direction.  With r = q - x, the running value is the best float sum of
    r_k - tol ("up") or -r_k - tol ("down") over the blocks ending at k
    that the scan's start and inside flags allow; it is recorded wherever
    the scan's end flag holds.  A block violates exactly when its sum is
    positive.

    Rounding bound: with u = 2^-53 and S = sum|r| + n |tol|, the screen's
    block sums and the scan's (its running sum against tol * (b - a + 1))
    each stray from the exact sum by at most gamma_n S, gamma_n =
    n u / (1 - n u).  Rounded addition is monotone and a sum restarts only
    from at most 0, so a recorded best is at least the screen's sum of any
    block it covers.  A best of at most -2 n eps S, eps = 2^-52, which
    exceeds 2 gamma_n S for n < 2^40, therefore proves that every block the
    scan visits passes.  The screen gives up on a failed comparison, a length
    mismatch, an act that is negative or NaN, or a 2S that is inf or NaN;
    a finite 2S keeps every partial sum clear of overflow.
    """
    lo, up = poly.lower, poly.upper
    n = len(x)
    if len(q) != n or len(lo) != n or not act >= 0.0:
        return False
    cols = zip(q, x, lo, up)
    if not poly.increasing:
        # read backwards, a non-increasing chain rises, and the scan's flags
        # for it become the non-decreasing chain's flags, comparison for
        # comparison: up blocks start anywhere and end below a gap, down
        # blocks start above a gap and end anywhere
        cols = zip(reversed(q), reversed(x), reversed(lo), reversed(up))
    # e_*: best sum over the allowed blocks ending at the coordinate, -inf
    # when none is; a block restarts where one may start and e_* <= 0.
    # best: the largest e_* recorded in either direction
    ninf = -math.inf
    e_up = e_dn = best = ninf
    total = 0.0
    xp = ninf  # opens both directions at the first coordinate
    for qj, xj, lj, uj in cols:
        # contains' comparisons, skipped only where the flag tested first
        # implies them: with act >= 0, rounding keeps u - act <= u + act,
        # l + act >= l - act and x - act <= x
        if xp < xj - act:  # up blocks ending at the previous coordinate count
            if e_up > best:
                best = e_up
        elif not xj - xp >= -act:
            return False
        if e_dn > best:
            best = e_dn
        r = qj - xj
        total += r if r >= 0.0 else -r
        if xj < uj - act:
            d = r - tol
            e_up = e_up + d if e_up > 0.0 else d
        elif xj <= uj + act:
            e_up = ninf
        else:
            return False
        if xj > lj + act:
            d = -r - tol
            e_dn = d if e_dn <= 0.0 and xj > xp + act else e_dn + d
        elif lj - act <= xj:
            e_dn = ninf
        else:
            return False
        xp = xj
    bound = total + n * abs(tol)
    if not 2.0 * bound < math.inf:
        return False
    margin = 2.0 * n * _EPS * bound
    return max(best, e_up, e_dn) <= -margin


def _scan_blocks(poly: ChainPolytope, q, x, tol: float, act: float):
    """The decision and its message: feasibility, then every block.

    The per-coordinate conditions are computed once and carried as running
    flags while b grows, so the scan is O(K^2).  Both flags only turn
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
