"""The one-pass chain step against the two-pass kernel it replaced.

``_two_pass_chain_step`` is a frozen copy of ``_chain_step`` as it ran
before the point and its clamp shared one loop: it built the point from
slices and list concatenation, then clamped it in a second pass.  The
step now has no clamp: from a point on its polytope it must land on the
polytope exactly, and equal the frozen kernel bit for bit wherever that
kernel's clamp did not act.  A seeded fuzz and a hypothesis search drive
both over threshold chains (ceiling 1.0) and negated probability chains
(ceiling -0.0); every coordinate must match by ``repr``, which tells -0.0
from 0.0, and so must m, ell and x.  Inputs nudged within float drift, past
it or to NaN go through the public steps, which snap or refuse them before
the step.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpabench.auction import CLAMP_TOL, clamp_probabilities, clamp_thresholds, threshold_margin
from fpabench.distributions import EqualRevenue, PiecewiseLinearCDF, Uniform
from fpabench.grids import BidGrid
from fpabench.projection import (
    _chain_step,
    ga_step_probabilities,
    ga_step_thresholds,
    probability_polytope,
    threshold_polytope,
)

_SLACK = 1e-12
_ACTED = []  # (name, coordinate) of every correction the frozen clamp made


def _frozen_check_drift(name, j, was, now):
    _ACTED.append((name, j))
    if not abs(now - was) <= CLAMP_TOL:
        raise AssertionError(f"clamp moved {name}_{j} by {abs(now - was):.3g} "
                             f"({was!r} -> {now!r}): more than float drift")


def _two_pass_chain_step(q, i, g, step, ceil, lo, name):
    K = len(q)
    top = ceil - step - _SLACK
    ell = next((j for j in range(i + 1, K + 1) if q[j - 1] >= top), K + 1)
    if i == 0:
        out, m, x = [min(ceil, qj + step) for qj in q], 0, math.nan
    else:
        floor = lo[i - 1]
        m = i
        total = q[i - 1]
        for j in range(i - 1, 0, -1):
            cand = total + q[j - 1]
            if q[j - 1] < floor - _SLACK or cand - (i - j + 1) * q[j - 1] > g + _SLACK:
                break
            m, total = j, cand

        x = max(min(ceil, (total - g) / (i - m + 1)), floor)
        out = list(q[: m - 1]) + [x] * (i - m + 1) + [qj + step for qj in q[i : ell - 1]]
        out += [ceil] * (K + 1 - ell)

    prev = lo[0]
    for k, (o, f) in enumerate(zip(out, lo)):
        c = ceil if ceil < o else o
        c = prev if prev > c else c
        prev = f if f > c else c
        if prev != o:
            _frozen_check_drift(name, k + 1, o, prev)
            out[k] = prev
    return out, m, ell, x


def _compare(q, i, g, step, ceil, lo, name):
    """Both kernels on a point of the polytope: the step's point, m, ell and
    whether the frozen clamp acted."""
    before = repr(q)
    got, m, ell, x = _chain_step(q, i, g, step, ceil, lo)
    assert repr(q) == before  # the input is not written to
    # on the polytope at zero tolerance: each floor, the ceiling, the order
    assert all(f <= t <= ceil for t, f in zip(got, lo)), (q, i, g, step)
    assert all(a <= b for a, b in zip(got, got[1:])), (q, i, g, step)
    del _ACTED[:]
    want = _two_pass_chain_step(list(q), i, g, step, ceil, lo, name)
    if _ACTED:
        # the clamp's 1-ulp snaps: the step bounds the pooled mean instead
        assert max(abs(a - b) for a, b in zip(got, want[0])) <= CLAMP_TOL
    else:
        assert (repr(got), m, ell, repr(x)) == (repr(want[0]), *want[1:3], repr(want[3])), \
            (q, i, g, step)
    return got, m, ell, bool(_ACTED)


def _chain(rnd, lo, ceil):
    """A non-decreasing point in [lo_k, ceil] with ties, floors and ceilings."""
    q, run = [], -math.inf
    for f in lo:
        u = rnd.random()
        if u < 0.2:
            t = f  # on its floor
        elif u < 0.35:
            t = ceil
        elif u < 0.6:
            t = run  # a tie with the coordinate below
        else:
            t = f + rnd.random() * (ceil - f)
        run = max(run, f, t)
        q.append(min(run, ceil))
    return q


def _case(rnd):
    K = rnd.randint(1, 32)
    eta = 10.0 ** rnd.uniform(-6.0, 0.5)
    if rnd.random() < 0.5:  # thresholds: floors b_j, ceiling 1.0
        eps = rnd.uniform(0.3, 1.0) / K
        lo = [j * eps for j in range(1, K + 1)]
        ceil, name = 1.0, "v"
        q = _chain(rnd, lo, ceil)
    else:  # negated probabilities: floors -(1 - F(b_j)), ceiling -0.0
        eps = rnd.uniform(0.3, 1.0) / K
        cdf = sorted(rnd.choice([0.0, 1.0, rnd.random()]) for _ in range(K))
        lo = [-(1.0 - c) for c in cdf]
        ceil, name = -0.0, "-p"
        # p_j = 0 enters as -0.0; a p_j of -0.0 enters as 0.0
        q = [rnd.choice([-0.0, 0.0]) if t == 0.0 else t for t in _chain(rnd, lo, ceil)]
    u = rnd.random()
    i = 0 if u < 0.25 else K if u < 0.5 else rnd.randint(0, K)
    u = rnd.random()
    if i == 0 or u < 0.25:
        g = 0.0
    elif u < 0.6:
        g = eta * abs(q[i - 1] - lo[i - 1])
    else:
        g = eta * rnd.random() * 10.0 ** rnd.uniform(-3.0, 1.0)
    return q, i, g, eta * eps, ceil, lo, name


def test_one_pass_step_matches_the_two_pass_kernel_fuzz():
    rnd = random.Random(20260417)
    # no "0.0": from a point on the polytope no negated coordinate comes out
    # +0.0 (p_j = -0.0); the public fuzz below feeds such p_j in
    seen = {"i=0": 0, "i=K": 0, "g=0": 0, "pooled": 0, "saturated": 0, "-0.0": 0}
    for _ in range(100_000):
        q, i, g, step, ceil, lo, name = _case(rnd)
        out, m, ell, _ = _compare(q, i, g, step, ceil, lo, name)
        seen["i=0"] += i == 0
        seen["i=K"] += i == len(q)
        seen["g=0"] += g == 0.0
        seen["pooled"] += 0 < m < i
        seen["saturated"] += ell <= len(q)
        seen["-0.0"] += "-0.0" in map(repr, out)
    # every path the fuzz is meant to reach, reached often
    assert min(seen.values()) >= 500, seen


def _public_case(rnd):
    """A grid, F, a point per polytope off it by float drift, past it or NaN, i, eta."""
    K = rnd.randint(1, 16)
    grid = BidGrid(K, rnd.uniform(0.3, 1.0) / K)
    F = rnd.choice([Uniform(), Uniform(0.0, rnd.uniform(0.2, 0.9)), EqualRevenue(0.2)])
    caps = probability_polytope(grid, F).upper
    p = [rnd.choice([0.0, -0.0]) if t == 0.0 else -t
         for t in _chain(rnd, [-c for c in caps], -0.0)]
    v = _chain(rnd, list(grid.bids[1:]), 1.0)
    for x in (p, v):
        mode = rnd.random()
        if mode < 0.5:  # float drift, up to and just past CLAMP_TOL, piling up or not
            for _ in range(rnd.randint(1, 3)):
                x[rnd.randrange(K)] += rnd.choice([-1, 1]) * rnd.choice([1e-13, 1e-12, 1.5e-12])
        elif mode < 0.75:  # more than float drift, or no number at all
            k = rnd.randrange(K)
            x[k] = math.nan if rnd.random() < 0.3 else x[k] + rnd.choice([-1e-9, 1e-9])
    return grid, F, p, v, rnd.randint(0, K), 10.0 ** rnd.uniform(-6.0, 0.5)


def _refusal(clamp, *args):
    """The coordinate name a clamp refuses to snap, as 'v_3', or None."""
    try:
        clamp(*args)
    except AssertionError as e:
        return str(e).split()[2]
    return None


def test_public_steps_snap_float_drift_once_and_refuse_more_fuzz():
    rnd = random.Random(20261020)
    seen = {"snapped": 0, "refused": 0}
    for _ in range(20_000):
        grid, F, p, v, i, eta = _public_case(rnd)
        step, bids = eta * grid.eps, grid.bids
        # the check refuses exactly the points the snap would move by more
        # than CLAMP_TOL, and names the first coordinate the snap would
        bad = _refusal(clamp_probabilities, p, grid, F)
        if bad:
            with pytest.raises(ValueError, match=rf"^{bad}="):
                ga_step_probabilities(grid, F, p, i, eta)
        else:
            at = clamp_probabilities(p, grid, F)
            seen["snapped"] += at != p
            g = eta * threshold_margin(F, at[i - 1], bids[i]) if i else 0.0
            lo = [-(1.0 - F.cdf(b)) for b in bids[1:]]
            want = _two_pass_chain_step([-t for t in at], i, g, step, -0.0, lo, "-p")[0]
            got = ga_step_probabilities(grid, F, p, i, eta)[0]
            assert repr(got) == repr([-t for t in want]), (p, i, eta)
        seen["refused"] += bool(bad)

        bad = _refusal(clamp_thresholds, v, grid)
        if bad:
            with pytest.raises(ValueError, match=rf"^{bad}="):
                ga_step_thresholds(grid, v, i, eta)
        else:
            at = clamp_thresholds(v, grid)
            seen["snapped"] += at != v
            g = eta * (at[i - 1] - bids[i]) if i else 0.0
            want = _two_pass_chain_step(at, i, g, step, 1.0, bids[1:], "v")[0]
            assert repr(ga_step_thresholds(grid, v, i, eta)[0]) == repr(want), (v, i, eta)
        seen["refused"] += bool(bad)
    assert min(seen.values()) >= 2000, seen


# ---------------------------------------------------------------------------
# a search from feasible states, at zero tolerance


_DISTRIBUTIONS = st.one_of(
    st.just(Uniform()),
    # supports that end below the top bid: caps of 0, floors equal to the ceiling
    st.floats(0.05, 0.9).map(lambda b: Uniform(0.0, b)),
    st.floats(0.01, 0.8).map(EqualRevenue),
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(
        lambda ys: PiecewiseLinearCDF((0.0, 0.3, 0.7, 1.0), (0.0, min(ys), max(ys), 1.0))),
)
# "hi": the highest the coordinate may be (a tie with the one before, or its
# cap), "lo" the lowest (p_j = 0, v_j = b_j), "-0" p_j = -0.0; a float
# places it between
_PLACE = st.one_of(st.sampled_from(["hi", "hi", "lo", "-0"]), st.floats(0.0, 1.0))
_ETA = st.one_of(st.sampled_from([1e-18, 3.82e-18, 1e-12, 2.0]),
                 st.floats(-18.0, 0.3).map(lambda e: 10.0 ** e))


@settings(derandomize=True, deadline=None, max_examples=1500)
@given(pos=st.lists(_PLACE, min_size=1, max_size=12), top=st.sampled_from([1.0, None]),
       reach=st.floats(0.3, 1.0), F=_DISTRIBUTIONS, eta=_ETA,
       hs=st.lists(st.integers(0, 12), min_size=1, max_size=4))
def test_steps_from_feasible_states_stay_on_the_polytope_exactly(pos, top, reach, F, eta, hs):
    K = len(pos)
    grid = BidGrid(K, (top or reach) / K)  # top 1.0: v_K's floor is its ceiling
    bids, step = grid.bids, eta * grid.eps
    caps = probability_polytope(grid, F).upper
    p, run = [], 1.0
    for cap, u in zip(caps, pos):
        hi = min(run, cap)
        run = 0.0 if u in ("lo", "-0") else hi if u == "hi" else u * hi
        p.append(-0.0 if u == "-0" else run)
    v, run = [], 0.0
    for b, u in zip(bids[1:], pos):
        run = max(run, b) if u in ("lo", "-0") else 1.0 if u == "hi" else max(run, b + u * (1.0 - b))
        v.append(run)
    ppoly, vpoly = probability_polytope(grid, F), threshold_polytope(grid)
    lo = [-(1.0 - F.cdf(b)) for b in bids[1:]]
    for h in hs:
        i = h % (K + 1)
        assert ppoly.contains(p, atol=0.0) and vpoly.contains(v, atol=0.0)
        g = eta * threshold_margin(F, p[i - 1], bids[i]) if i else 0.0
        want = [-t for t in _compare([-t for t in p], i, g, step, -0.0, lo, "-p")[0]]
        got = ga_step_probabilities(grid, F, p, i, eta)[0]
        assert repr(got) == repr(want)
        g = eta * (v[i - 1] - bids[i]) if i else 0.0
        want = _compare(v, i, g, step, 1.0, bids[1:], "v")[0]
        p, v = got, ga_step_thresholds(grid, v, i, eta)[0]
        assert repr(v) == repr(want)


def test_a_pooled_mean_one_ulp_past_its_neighbour_is_bounded_not_snapped():
    # the pooled mean of equal coordinates rounds one ulp past the unchanged
    # coordinate below the block when the gain and the step are below an ulp;
    # the frozen kernel's clamp snapped it back, the step bounds it
    grid, F, a = BidGrid(6, 1 / 9), Uniform(), 0.3353013404991704
    p, i, eta = [0.7, a, a, a, a, 0.33333333333333337], 4, 3.82e-18
    got, diag = ga_step_probabilities(grid, F, p, i, eta)
    assert repr(got) == repr(p)
    assert (diag.m, diag.ell, diag.x, diag.pooled_count) == (2, 7, a, 3)
    g = eta * threshold_margin(F, p[i - 1], grid.bids[i])
    lo = [-(1.0 - F.cdf(b)) for b in grid.bids[1:]]
    assert _compare([-t for t in p], i, g, eta * grid.eps, -0.0, lo, "-p")[3]  # the clamp acted
