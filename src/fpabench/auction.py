"""Single-shot first-price auction primitives on a bid grid.

A monotone bidding strategy is stored either as

* a threshold vector  v = (v_1, ..., v_K), b_i <= v_i <= v_{i+1} <= 1,
  meaning "bid b_i when the value falls in (v_i, v_{i+1}]"
  (v_0 = 0 and v_{K+1} = 1 are implicit), or
* a bidding-probability vector  p = (p_1, ..., p_K),
  p_j = P(bid >= b_j) = 1 - F(v_j), which must be non-increasing with
  p_j <= 1 - F(b_j)  (the no-overbidding cap); p_0 = 1 and p_{K+1} = 0
  are implicit.

Expected utility is concave in p, which is what makes projected gradient
ascent work; every formula below is exact (no quadrature, no sampling).

The ``*_rows`` forms evaluate the scalar forms on every row of an array at
once, with the same operations in the same order, so each row equals the
scalar result bit for bit.
"""

from __future__ import annotations

import bisect

import numpy as np

from .distributions import ValueDistribution
from .grids import Grid

DEFAULT_ATOL = 1e-9
CLAMP_TOL = 1e-12  # largest correction clamp_* accepts as float drift


# ---------------------------------------------------------------------------
# feasibility checks


def check_probabilities(p, grid: Grid, F: ValueDistribution, atol: float = DEFAULT_ATOL):
    """Raise if p is not a valid bidding-probability vector (NaN fails), that
    is, if clamp_probabilities would move a coordinate by more than atol."""
    if len(p) != grid.K:
        raise ValueError(f"expected {grid.K} components, got {len(p)}")
    prev = 1.0
    for j, pj in enumerate(p, start=1):
        if not (-pj <= atol and pj - prev <= atol):
            raise ValueError(f"p_{j}={pj} breaks monotonicity 1 >= p_1 >= ... >= 0")
        cap = 1.0 - F.cdf(grid.bids[j])
        if not pj - cap <= atol:
            raise ValueError(f"p_{j}={pj} exceeds no-overbid cap {cap}")
        prev = min(max(pj, 0.0), prev, cap)


def check_thresholds(v, grid: Grid, atol: float = DEFAULT_ATOL):
    """Threshold twin of check_probabilities, against clamp_thresholds."""
    if len(v) != grid.K:
        raise ValueError(f"expected {grid.K} components, got {len(v)}")
    prev = 0.0
    for i, vi in enumerate(v, start=1):
        if not (prev - vi <= atol and vi - 1.0 <= atol):
            raise ValueError(f"v_{i}={vi} breaks monotonicity 0 <= v_1 <= ... <= 1")
        if not grid.bids[i] - vi <= atol:
            raise ValueError(f"v_{i}={vi} below bid {grid.bids[i]} (overbidding)")
        prev = max(min(vi, 1.0), prev, grid.bids[i])


def check_bid_index(i: int, grid: Grid) -> None:
    """Raise unless i indexes a competing bid on the grid, 0..K; a bool does not."""
    if type(i) is not int and (isinstance(i, bool) or not hasattr(i, "__index__")):
        raise ValueError(f"competing-bid index {i!r} is not an integer")
    if not 0 <= i <= grid.K:
        raise ValueError(f"competing-bid index {i} outside 0..{grid.K}")


def clamp_probabilities(p, grid: Grid, F: ValueDistribution):
    """Snap float drift back into the polytope; raise on anything larger."""
    out = []
    prev = 1.0
    for j, pj in enumerate(p, start=1):
        prev = min(max(pj, 0.0), prev, 1.0 - F.cdf(grid.bids[j]))
        if prev != pj:
            _check_drift("p", j, pj, prev)
        out.append(prev)
    return out


def clamp_thresholds(v, grid: Grid):
    """Threshold twin of clamp_probabilities."""
    out = []
    prev = 0.0
    for i, vi in enumerate(v, start=1):
        prev = max(min(vi, 1.0), prev, grid.bids[i])
        if prev != vi:
            _check_drift("v", i, vi, prev)
        out.append(prev)
    return out


def _check_drift(name: str, j: int, was: float, now: float) -> None:
    if not abs(now - was) <= CLAMP_TOL:  # "not <=" fails a NaN coordinate too
        raise AssertionError(f"clamp moved {name}_{j} by {abs(now - was):.3g} "
                             f"({was!r} -> {now!r}): more than float drift")


# ---------------------------------------------------------------------------
# transforms between the two parameterizations


def probabilities_from_strategy(grid: Grid, F: ValueDistribution, v):
    """p_j = 1 - F(v_j)."""
    return [1.0 - F.cdf(vj) for vj in v]


def thresholds_from_probabilities(grid: Grid, F: ValueDistribution, p):
    """v_j = F^-(1 - p_j), clamped up to b_j.

    The clamp only acts where F is flat below b_j (zero-mass regions), in
    which case both thresholds describe the same strategy almost surely.
    """
    return [max(F.quantile(1.0 - pj), grid.bids[j]) for j, pj in enumerate(p, start=1)]


def threshold_rows(grid: Grid, F: ValueDistribution, P):
    """thresholds_from_probabilities for every row of P (np.maximum is max: b_j > 0)."""
    return np.maximum(F.quantile_array(1.0 - P), grid.bids[1:])


def bid_for_value(v, value: float) -> int:
    """Bid index for a value under threshold vector v: i s.t. value in (v_i, v_{i+1}]."""
    return bisect.bisect_left(v, value)


# ---------------------------------------------------------------------------
# expected utility / revenue against a competing bid on the grid


def utility_for_h(grid: Grid, F: ValueDistribution, p, i: int) -> float:
    """E[(V - bid) * 1(win)] when the highest competing bid is b_i.

    With p_0 = 1, p_{K+1} = 0 this is
    G(1 - p_i) - b_i p_i - sum_{j>i} (b_j - b_{j-1}) p_j.
    """
    bids = grid.bids
    total = -bids[i] * (p[i - 1] if i >= 1 else 1.0)
    for j in range(max(i, 0) + 1, grid.K + 1):
        total -= (bids[j] - bids[j - 1]) * p[j - 1]
    qi = 1.0 - (p[i - 1] if i >= 1 else 1.0)
    return total + F.quantile_tail_integral(qi)


def expected_utility(grid: Grid, F: ValueDistribution, d, p) -> float:
    """Expected utility against competing-bid distribution d (one round)."""
    total = 0.0  # summed left to right, as best_fixed_utility_rows does
    for i, di in enumerate(d):
        if di != 0.0:
            total += di * utility_for_h(grid, F, p, i)
    return total


def threshold_margin(F: ValueDistribution, p_i: float, b_i: float) -> float:
    """max(F^-(1 - p_i) - b_i, 0): the ``utility_gradient`` component at b_i."""
    return max(F.quantile(1.0 - p_i) - b_i, 0.0)


def utility_gradient(grid: Grid, F: ValueDistribution, p, i: int):
    """Supergradient of p -> utility_for_h(grid, F, p, i).

    Component j: 0 below the competing bid, ``threshold_margin`` at it, and
    minus the grid gap above it.  The raw margin F^-(1 - p_i) - b_i is
    negative only at the cap p_i = 1 - F(b_i) with F flat just below b_i,
    a kink whose superdifferential holds 0; 0 is the component taken there.
    When the competing bid is b_0 every coordinate move only changes
    payment, so all components are negative gaps.
    """
    check_bid_index(i, grid)
    bids = grid.bids
    g = [0.0] * grid.K
    for j in range(i + 1, grid.K + 1):
        g[j - 1] = -(bids[j] - bids[j - 1])
    if i:
        g[i - 1] = threshold_margin(F, p[i - 1], bids[i])
    return g


def revenue_for_h(grid: Grid, p, i: int) -> float:
    """Seller revenue E[bid * 1(win)] when the highest competing bid is b_i."""
    bids = grid.bids
    total = bids[i] * (p[i - 1] if i >= 1 else 1.0)
    for j in range(max(i, 0) + 1, grid.K + 1):
        total += (bids[j] - bids[j - 1]) * p[j - 1]
    return total


def _with_p0(p):
    """(R, K) probability rows -> (R, K+1) rows with the implicit p_0 = 1."""
    p = np.asarray(p, dtype=float)
    P = np.ones((p.shape[0], p.shape[1] + 1))
    P[:, 1:] = p
    return P


def revenue_rows(grid: Grid, p):
    """revenue_for_h(grid, p[r], i) for every row r of p and every i in 0..K."""
    bids = grid.bids
    P = _with_p0(p)
    total = P * np.asarray(bids)
    for j in range(1, grid.K + 1):
        total[:, :j] += (bids[j] - bids[j - 1]) * P[:, j:j + 1]
    return total


def utility_rows(grid: Grid, F: ValueDistribution, p):
    """utility_for_h(grid, F, p[r], i) for every row r of p and every i in 0..K."""
    return utility_revenue_rows(grid, F, p)[0]


def utility_revenue_rows(grid: Grid, F: ValueDistribution, p):
    """(utility_rows(grid, F, p), revenue_rows(grid, p)) from one revenue table.

    utility_for_h accumulates the negated revenue sum, which rounds to the
    exact negation of revenue_for_h's, so G(1 - p_i) minus the revenue is
    the scalar result.
    """
    rev = revenue_rows(grid, p)
    return F.quantile_tail_integral_array(1.0 - _with_p0(p)) - rev, rev


# ---------------------------------------------------------------------------
# best fixed response to a known competing-bid distribution


def single_shot_best_response(grid: Grid, d):
    """Thresholds of the utility-maximizing fixed strategy against d.

    The per-value payoff of bid b_j is the line (value - b_j) * D_j with
    D_j = P(win with b_j) = d_0 + ... + d_j; the best response follows the
    upper envelope of these lines, breaking ties toward the smaller bid.
    One upper-hull pass keeps (j, D_j, start of its value range); threshold
    i is the start of the first hull bid j >= i, or 1 when there is none.
    """
    bids = grid.bids
    hull = []  # (j, D_j, start), D_j strictly increasing
    acc = last = 0.0
    for j, dj in enumerate(d):
        acc += dj
        if j and not acc > last:
            continue  # a repeated slope keeps the smaller bid, which wins ties
        last = acc
        while hull:
            jt, Dt, xt = hull[-1]
            x = (bids[j] * acc - bids[jt] * Dt) / (acc - Dt)
            if x <= xt:
                hull.pop()
            else:
                break
        if not hull:
            hull.append((j, acc, 0.0))
        elif x < 1.0:
            hull.append((j, acc, x))
    v = []
    for j, _, x in hull:
        v.extend([x] * (j - len(v)))
    v.extend([1.0] * (grid.K - len(v)))
    return clamp_thresholds(v, grid)


def best_fixed_utility(grid: Grid, F: ValueDistribution, d):
    """(per-round expected utility, thresholds) of the best fixed strategy."""
    v = single_shot_best_response(grid, d)
    p = probabilities_from_strategy(grid, F, v)
    return expected_utility(grid, F, d, p), v


def best_response_rows(grid: Grid, d):
    """single_shot_best_response(grid, d[r]) for every row r of an (R, K+1) array.

    Each row runs the scalar upper-hull pass: the hull is an array of
    (line, start) stacks, one per row, and a bid pops the rows whose top
    it overtakes, round after round, until no row pops.
    """
    d = np.asarray(d, dtype=float)
    R, n = d.shape
    bids = np.asarray(grid.bids)
    D = np.cumsum(d, axis=1)
    size = np.ones(R, dtype=np.intp)
    line = np.zeros((R, n), dtype=np.intp)
    start = np.zeros((R, n))
    last = D[:, 0].copy()
    x = np.empty(R)
    for j in range(1, n):
        acc = D[:, j]
        rows = np.flatnonzero(acc > last)  # a repeated slope keeps the smaller bid
        last[rows] = acc[rows]
        pending = rows
        while pending.size:
            top = size[pending] - 1
            jt = line[pending, top]
            a, Dt = acc[pending], D[pending, jt]
            xp = (bids[j] * a - bids[jt] * Dt) / (a - Dt)
            x[pending] = xp
            popped = pending[xp <= start[pending, top]]
            size[popped] -= 1
            pending = popped[size[popped] > 0]
        empty = size[rows] == 0
        keep = rows[empty | (x[rows] < 1.0)]
        at = size[keep]
        line[keep, at] = j
        start[keep, at] = np.where(size[keep] == 0, 0.0, x[keep])
        size[keep] += 1
    # threshold i is the start of the first hull bid j >= i, or 1
    v = np.ones((R, n - 1))
    i = np.arange(1, n)
    for pos in range(n - 1, -1, -1):
        on = (pos < size)[:, None] & (i[None, :] <= line[:, pos, None])
        v = np.where(on, start[:, pos, None], v)
    return _clamp_threshold_rows(v, grid)


def _clamp_threshold_rows(v, grid: Grid):
    """clamp_thresholds on every row; raises for the first row that drifts."""
    out = np.empty_like(v)
    prev = np.zeros(v.shape[0])
    for i in range(grid.K):
        prev = np.maximum(np.maximum(np.minimum(v[:, i], 1.0), prev), grid.bids[i + 1])
        out[:, i] = prev
    bad = np.argwhere(~(np.abs(out - v) <= CLAMP_TOL))
    if bad.size:
        r, i = bad[0]
        _check_drift("v", i + 1, float(v[r, i]), float(out[r, i]))
    return out


def best_fixed_utility_rows(grid: Grid, F: ValueDistribution, d):
    """best_fixed_utility(grid, F, d[r])[0] for every row r of an (R, K+1) array."""
    d = np.asarray(d, dtype=float)
    v = best_response_rows(grid, d)
    u = utility_rows(grid, F, 1.0 - F.cdf_array(v))
    total = np.zeros(d.shape[0])
    for i in range(grid.K + 1):
        total += np.where(d[:, i] != 0.0, d[:, i] * u[:, i], 0.0)
    return total
