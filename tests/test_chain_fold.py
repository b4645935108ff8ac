"""The chain step against the kernel-plus-clamp pair it replaced.

``_former_chain_step`` and ``_former_clamp_*`` are frozen copies of the
closed-form kernel and of the two clamps as they ran before the step took
over their work: the kernel built the point, and a second pass snapped its
float drift.  From a point on the polytope, the public steps and
``ThresholdBidder`` must give their results bit for bit, signs of zeros
included, and the same diagnostics.  A point off the polytope by float
drift is snapped once, where it enters; the steps from it must equal the
former pair's from the snapped point.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpabench.auction import CLAMP_TOL, threshold_margin
from fpabench.distributions import EqualRevenue, PiecewiseLinearCDF, Uniform
from fpabench.grids import BidGrid
from fpabench.learners import FixedStep, GradientBidder, ThresholdBidder
from fpabench.projection import (
    ga_step_probabilities,
    ga_step_thresholds,
    probability_polytope,
)

_SLACK = 1e-12


def _former_chain_step(q, i, g, step, floor, ceil):
    K = len(q)
    top = ceil - step - _SLACK
    ell = next((j for j in range(i + 1, K + 1) if q[j - 1] >= top), K + 1)
    if i == 0:
        return [min(ceil, qj + step) for qj in q], 0, ell, math.nan
    m = i
    total = q[i - 1]
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


def _former_drift(was, now):
    if not abs(now - was) <= CLAMP_TOL:
        raise AssertionError("more than float drift")


def _former_clamp_probabilities(p, grid, F):
    out = []
    prev = 1.0
    for j, pj in enumerate(p, start=1):
        prev = min(max(pj, 0.0), prev, 1.0 - F.cdf(grid.bids[j]))
        if prev != pj:
            _former_drift(pj, prev)
        out.append(prev)
    return out


def _former_clamp_thresholds(v, grid):
    out = []
    prev = 0.0
    for i, vi in enumerate(v, start=1):
        prev = max(min(vi, 1.0), prev, grid.bids[i])
        if prev != vi:
            _former_drift(vi, prev)
        out.append(prev)
    return out


def _former_probability_step(grid, F, p, i, eta):
    b = grid.bids[i]
    g = eta * threshold_margin(F, p[i - 1], b) if i else 0.0
    floor = -(1.0 - F.cdf(b)) if i else 0.0
    out, m, ell, x = _former_chain_step([-pj for pj in p], i, g, eta * grid.eps, floor, -0.0)
    return (_former_clamp_probabilities([-t for t in out], grid, F),
            (m, ell, -x, i - m + 1 if i else 0))


def _former_threshold_step(grid, v, i, eta):
    b = grid.bids[i]
    g = eta * (v[i - 1] - b) if i else 0.0
    out, m, ell, x = _former_chain_step(v, i, g, eta * grid.eps, b, 1.0)
    return _former_clamp_thresholds(out, grid), (m, ell, x, i - m + 1 if i else 0)


# repr is exact for floats: it tells -0.0 from 0.0 and shows nan
def _same(got, want):
    return repr(list(got)) == repr(list(want))


_DISTRIBUTIONS = st.one_of(
    st.just(Uniform()),
    st.floats(0.0, 0.6).flatmap(
        lambda a: st.floats(a + 0.05, 1.0).map(lambda b: Uniform(a, b))),
    st.floats(0.01, 0.8).map(EqualRevenue),
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(
        lambda ys: PiecewiseLinearCDF((0.0, 0.3, 0.7, 1.0),
                                      (0.0, min(ys), max(ys), 1.0))),
)
# "cap" puts a coordinate on its binding bound (p_j = 1 - F(b_j), v_j = b_j),
# "end" on the other one (p_j = 0, v_j = 1): exact zeros and saturated tails;
# "-0" is "end" with p_j = -0.0, which the steps must carry through unchanged.
# "over", "past" and "bump" leave the polytope by a quarter of the clamp
# tolerance (past the cap, past the other end, past the previous coordinate),
# which the steps and the learners accept and snap back where they enter.
_POSITION = st.one_of(st.sampled_from(["cap", "end", "-0", "over", "past", "bump"]),
                      st.floats(0.0, 1.0))
_DRIFT = 0.25 * CLAMP_TOL


def _states(grid, F, pos):
    """(p, v) placed by pos; ``run`` is the point the clamps snap them to."""
    caps = probability_polytope(grid, F).upper
    p, run = [], 1.0
    for cap, u in zip(caps, pos):
        at = {"cap": cap, "end": 0.0, "-0": 0.0, "over": cap + _DRIFT, "past": -_DRIFT}
        if u == "bump":
            pj = min(run, cap) + _DRIFT
        else:
            pj = min(run, at[u] if u in at else u * cap)
        run = min(max(pj, 0.0), run, cap)
        p.append(-0.0 if u == "-0" and pj == 0.0 else pj)
    v, run = [], 0.0
    for b, u in zip(grid.bids[1:], reversed(pos)):
        at = {"cap": b, "end": 1.0, "-0": 1.0, "over": b - _DRIFT, "past": 1.0 + _DRIFT}
        if u == "bump":
            vj = max(run, b) - _DRIFT
        else:
            vj = max(run, at[u] if u in at else b + u * (1.0 - b))
        run = max(min(vj, 1.0), run, b)
        v.append(vj)
    return p, v


@settings(derandomize=True, deadline=None, max_examples=600)
@given(K=st.integers(1, 8), reach=st.floats(0.3, 1.0), F=_DISTRIBUTIONS,
       eta=st.one_of(st.just(1e-9), st.just(2.0), st.floats(1e-9, 2.0)), data=st.data())
def test_folded_steps_match_the_former_pair_bit_for_bit(K, reach, F, eta, data):
    grid = BidGrid(K, reach / K)
    pos = data.draw(st.lists(_POSITION, min_size=K, max_size=K), label="pos")
    hs = data.draw(st.lists(st.integers(0, K), min_size=1, max_size=6), label="hs")
    p, v = _states(grid, F, pos)
    # drift is snapped once, where the point enters
    p_at, v_at = _former_clamp_probabilities(p, grid, F), _former_clamp_thresholds(v, grid)
    assert _same(GradientBidder(grid, F, FixedStep(eta), p1=p).p, p_at)
    lrn = ThresholdBidder(grid, eta, v1=v)
    assert _same(lrn.v, v_at)
    before = lrn.strategy()
    # a short trajectory, so the steps also start from their own outputs
    for i in hs:
        got, diag = ga_step_probabilities(grid, F, p, i, eta)
        want, ref = _former_probability_step(grid, F, p_at, i, eta)
        assert _same(got, want) and _same(diag, ref), (p, i)
        p = p_at = got

        got, diag = ga_step_thresholds(grid, v, i, eta)
        want, ref = _former_threshold_step(grid, v_at, i, eta)
        assert _same(got, want) and _same(diag, ref), (v, i)
        lrn.observe(i)
        assert _same(lrn.v, want), (v, i)
        # the strategy is rebuilt exactly when the thresholds change
        assert (lrn.strategy() is before) == (want == v_at)
        assert lrn.strategy().thresholds == tuple(want)
        v = v_at = want
        before = lrn.strategy()


def test_learners_snap_float_drift_at_the_start_and_refuse_more():
    grid = BidGrid(2, 0.25)
    # pushed below its bid by more than CLAMP_TOL: refused where it enters
    with pytest.raises(ValueError, match=r"v_1=0\.249999999 below bid 0\.25"):
        ThresholdBidder(grid, 0.01, v1=[0.25 - 1e-9, 1.0])
    # float drift: snapped back silently, once, before the first step
    lrn = ThresholdBidder(grid, 0.01, v1=[0.25 - 1e-13, 1.0])
    assert lrn.v == [0.25, 1.0]
    lrn.observe(2)
    assert lrn.v == ga_step_thresholds(grid, [0.25, 1.0], 2, 0.01)[0]
    # a NaN coordinate is never float drift
    with pytest.raises(ValueError, match="v_2=nan"):
        ThresholdBidder(grid, 0.01, v1=[0.5, math.nan])
    # the probability learner's start is snapped and refused the same way
    lrn = GradientBidder(grid, Uniform(), FixedStep(0.01), p1=[0.75 + 1e-13, -1e-13])
    assert _same(lrn.p, [0.75, 0.0])
    with pytest.raises(ValueError, match=r"p_2=0\.5 breaks monotonicity"):
        GradientBidder(grid, Uniform(), FixedStep(0.01), p1=[0.4, 0.5])
