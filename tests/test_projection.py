import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_rng
from fpabench import projection
from fpabench.auction import (
    CLAMP_TOL,
    check_probabilities,
    check_thresholds,
    clamp_probabilities,
    clamp_thresholds,
    utility_gradient,
)
from fpabench.distributions import EqualRevenue, PiecewiseLinearCDF, Uniform
from fpabench.grids import BidGrid, IrregularBidGrid
from fpabench.learners import (
    FixedStep,
    GradientBidder,
    LazyRegularizedBidder,
    ThresholdBidder,
    default_eta_known_f,
)
from fpabench.projection import (
    ChainPolytope,
    _screen_blocks,
    _verify_block_optimality,
    ga_step_probabilities,
    ga_step_thresholds,
    probability_polytope,
    project_oracle,
    threshold_polytope,
)
from fpabench.verify import (
    closed_form_error,
    random_distribution,
    random_feasible,
    threshold_gradient,
)


GRID2 = BidGrid(2, 0.25)


def test_probability_step_frozen_example():
    p2, diag = ga_step_probabilities(GRID2, Uniform(), [0.40, 0.35], 2, 1.0)
    assert p2 == pytest.approx((0.45, 0.45), abs=1e-12)
    assert diag.m == 1
    assert diag.x == pytest.approx(0.45, abs=1e-12)
    assert diag.ell == 3
    assert diag.pooled_count == 2


def test_probability_step_interior_point_unchanged():
    # a feasible post-gradient point projects to itself
    g = BidGrid(2, 0.1)
    p = [0.5, 0.2]
    eta = 0.1
    grad = utility_gradient(g, Uniform(), p, 2)
    want = [a + eta * b for a, b in zip(p, grad)]
    got, _ = ga_step_probabilities(g, Uniform(), p, 2, eta)
    assert got == pytest.approx(want, abs=1e-12)


def test_probability_step_h_zero_is_clamped_translation():
    got, diag = ga_step_probabilities(GRID2, Uniform(), [0.3, 0.1], 0, 1.0)
    assert got == pytest.approx((0.05, 0.0), abs=1e-12)
    assert diag.m == 0
    assert math.isnan(diag.x)


def test_threshold_step_frozen_example():
    v2, diag = ga_step_thresholds(GRID2, [0.60, 0.65], 2, 1.0)
    assert v2 == pytest.approx((0.55, 0.55), abs=1e-12)
    assert diag.m == 1


def test_threshold_step_h_zero_is_clamped_translation():
    got, _ = ga_step_thresholds(GRID2, [0.3, 0.9], 0, 1.0)
    assert got == pytest.approx((0.55, 1.0), abs=1e-12)


def test_threshold_step_interior_point_unchanged():
    g = BidGrid(2, 0.1)
    v = [0.5, 0.8]
    got, _ = ga_step_thresholds(g, v, 2, 0.1)
    want = [0.5 + 0.01, 0.8 - 0.1 * (0.8 - 0.2)]
    # h = b_2: only v_2 moves toward b_2, v_1 would move up if above h
    got2, _ = ga_step_thresholds(g, v, 1, 0.1)
    assert got2 == pytest.approx(
        (0.5 - 0.1 * (0.5 - 0.1), 0.8 + 0.01), abs=1e-12)
    assert got == pytest.approx((0.5, 0.8 - 0.06), abs=1e-12)


def test_step_rejects_bad_inputs():
    with pytest.raises(ValueError):
        ga_step_probabilities(GRID2, Uniform(), [0.4, 0.35], 2, 0.0)
    with pytest.raises(ValueError):
        ga_step_probabilities(GRID2, Uniform(), [0.4, 0.35], 3, 1.0)
    with pytest.raises(ValueError):
        ga_step_probabilities(GRID2, Uniform(), [0.2, 0.4], 1, 1.0)
    with pytest.raises(TypeError):
        ga_step_probabilities(IrregularBidGrid((0.0, 0.1, 0.4)), Uniform(),
                              [0.4, 0.35], 1, 1.0)
    with pytest.raises(ValueError):
        ga_step_thresholds(GRID2, [0.9, 0.6], 1, 1.0)


def test_oracle_frozen_examples():
    ppoly = probability_polytope(GRID2, Uniform())
    assert project_oracle(ppoly, [0.40, 0.50]) == pytest.approx(
        (0.45, 0.45), abs=1e-12)
    vpoly = threshold_polytope(GRID2)
    assert project_oracle(vpoly, [0.60, 0.50]) == pytest.approx(
        (0.55, 0.55), abs=1e-12)
    # feasible points are fixed
    assert project_oracle(ppoly, [0.5, 0.3]) == pytest.approx(
        (0.5, 0.3), abs=1e-12)


def test_oracle_rejects_infeasible_polytope():
    with pytest.raises(ValueError):
        ChainPolytope(True, (0.5, 0.0), (1.0, 0.2))
    with pytest.raises(ValueError):
        # non-increasing chain cannot have x_2 >= 0.6 under x_1 <= 0.4
        ChainPolytope(False, (0.0, 0.6), (0.4, 1.0))
    # a non-increasing chain with rising caps is still feasible
    ChainPolytope(False, (0.0, 0.0), (0.5, 0.8))


@pytest.mark.parametrize("j, lower, upper", [
    (1, (0.0, math.nan), (1.0, 1.0)),
    (0, (0.0, 0.0), (math.nan, 1.0)),
])
def test_chain_polytope_rejects_nan_bounds(j, lower, upper):
    # max(-inf, nan) keeps -inf, so the feasibility scan alone let these pass
    for increasing in (True, False):
        with pytest.raises(ValueError, match=f"NaN bound at coordinate {j}"):
            ChainPolytope(increasing, lower, upper)


def test_closed_form_matches_oracle_fuzz():
    rng = make_rng(30)
    for _ in range(1500):
        K = int(rng.integers(1, 9))
        g = BidGrid(K, float(1.0 / (K + int(rng.integers(0, 3)))))
        F = random_distribution(rng)
        i = int(rng.integers(0, K + 1))
        eta = 1e-3 + float(rng.random()) * 2.0
        assert closed_form_error(g, F, i, eta, rng) < 1e-9


def test_closed_form_matches_oracle_k32():
    rng = make_rng(35)
    g = BidGrid(32, 1.0 / 33)
    for _ in range(200):
        F = random_distribution(rng)
        i = int(rng.integers(0, 33))
        eta = 1e-3 + float(rng.random()) * 2.0
        assert closed_form_error(g, F, i, eta, rng) < 1e-9


def test_pooled_value_clipped_when_bids_pass_the_support():
    # bids above 0.7 exceed the value support, so the gradient at h can be
    # negative enough to pull the pooled level below zero before clipping
    g = BidGrid(8, 0.1)
    F = Uniform(0.2, 0.7)
    eta = 0.05
    poly = probability_polytope(g, F)
    rng = make_rng(34)
    p = [0.0] * 8
    for _ in range(2000):
        h = int(rng.integers(0, 9))
        got, diag = ga_step_probabilities(g, F, p, h, eta)
        if h >= 1:
            assert 0.0 <= diag.x <= poly.upper[h - 1]
        grad = utility_gradient(g, F, p, h)
        want = project_oracle(poly, [a + eta * b for a, b in zip(p, grad)])
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-9
        p = got


def _reference_block_check(poly, q, x, tol=1e-10, act=1e-9):
    """The original O(K^3) KKT block check, frozen as the reference."""
    if not poly.contains(x, atol=act):
        raise AssertionError("oracle produced an infeasible point")
    n = len(x)
    r = [q[j] - x[j] for j in range(n)]
    lo, up = poly.lower, poly.upper
    for a in range(n):
        s = 0.0
        for b in range(a, n):
            s += r[b]
            if poly.increasing:
                up_free = all(x[j] < up[j] - act for j in range(a, b + 1)) and (
                    b == n - 1 or x[b] < x[b + 1] - act)
                dn_free = all(x[j] > lo[j] + act for j in range(a, b + 1)) and (
                    a == 0 or x[a] > x[a - 1] + act)
            else:
                up_free = all(x[j] < up[j] - act for j in range(a, b + 1)) and (
                    a == 0 or x[a] < x[a - 1] - act)
                dn_free = all(x[j] > lo[j] + act for j in range(a, b + 1)) and (
                    b == n - 1 or x[b] > x[b + 1] + act)
            if up_free and s > tol * (b - a + 1):
                raise AssertionError(f"KKT violation: block [{a},{b}] wants to move up")
            if dn_free and s < -tol * (b - a + 1):
                raise AssertionError(f"KKT violation: block [{a},{b}] wants to move down")


def _verdict(check, poly, q, x):
    try:
        check(poly, q, x)
    except AssertionError as exc:
        return str(exc)
    return None


def test_block_check_matches_reference_fuzz():
    rng = make_rng(36)
    raised = 0
    for _ in range(20000):
        K = int(rng.integers(1, 33))
        g = BidGrid(K, float(1.0 / (K + int(rng.integers(1, 3)))))
        if rng.random() < 0.5:
            poly = probability_polytope(g, random_distribution(rng))
        else:
            poly = threshold_polytope(g)
        q = [float(t) for t in rng.random(K) * 1.6 - 0.3]
        x = project_oracle(poly, q)
        if rng.random() < 0.7:
            j = int(rng.integers(0, K))
            # 1.5e-10 straddles the per-coordinate tolerance of 1e-10
            x[j] += float(rng.choice([1e-6, -1e-6, 1e-3, -1e-3, 1.5e-10, -1.5e-10]))
        want = _verdict(_reference_block_check, poly, q, x)
        assert _verdict(_verify_block_optimality, poly, q, x) == want
        raised += want is not None
    # both verdicts must be exercised for the comparison to mean anything
    assert 2000 < raised < 18000


ACT = 1e-9  # _verify_block_optimality's default tie and bound tolerance
TOL = 1e-10  # and its per-coordinate residual tolerance


def _threshold_case(rng):
    """A chain point whose block [a, b] sums its residual to within a few
    ulps of the scan's threshold, tol * (b - a + 1) up or its negative down,
    with coordinates on a bound, within act of one, or tied within act."""
    K = int(rng.integers(1, 65))
    a = int(rng.integers(0, K))
    b = int(rng.integers(a, K))
    # a non-decreasing lattice chain, zero on [a, b] and mostly clear of
    # it on either side; negated when decreasing
    y = np.sort(rng.integers(-2, 3, K) / 4.0)
    y[:a] = np.minimum(y[:a], -0.25 * (rng.random() < 0.7))
    y[a:b + 1] = 0.0
    y[b + 1:] = np.maximum(y[b + 1:], 0.25 * (rng.random() < 0.7))
    increasing = bool(rng.random() < 0.5)
    if not increasing:
        y = -y
    # each bound touches y, lies within act of it, or is clear of it; a
    # long block can move only when its bounds are all clear
    slack = [0.0, ACT / 2, 0.25]
    lo = y - rng.choice(slack, K)
    up = y + rng.choice(slack, K)
    if rng.random() < 0.7:
        lo[a:b + 1] = -0.25
        up[a:b + 1] = 0.25
    poly = ChainPolytope(increasing, tuple(lo), tuple(up))
    x = y + rng.choice([0.0] * 6 + [ACT / 2, -ACT / 2], K)
    x[b] = 0.0  # so that r_b = q_b exactly
    q = x + (rng.random(K) < 0.2) * rng.normal(size=K) * 1e-11
    # residuals over [a, b): the threshold per coordinate plus noise, from
    # a few ulps of tol up to 1e300
    sign = 1.0 if rng.random() < 0.5 else -1.0
    spread = float(rng.choice([0.0, 3e-26, 1e-13, 1e-3, 1e300]))
    q[a:b] = x[a:b] + sign * TOL + rng.normal(size=b - a) * spread
    s = 0.0
    for qj, xj in zip(q[a:b], x[a:b]):
        s += float(qj) - float(xj)
    rb = sign * TOL * (b - a + 1) - s
    ulps = int(rng.integers(-3, 4))
    for _ in range(abs(ulps)):
        rb = float(np.nextafter(rb, math.copysign(math.inf, ulps)))
    q[b] = rb
    return poly, [float(t) for t in q], [float(t) for t in x]


def _oracle_case(rng):
    """An oracle output on a generic chain, maybe nudged off the optimum;
    residuals near 1e300 push every coordinate onto a bound."""
    K = int(rng.integers(1, 65))
    poly = _random_chain(rng, K)
    q = rng.random(K) * 1.6 - 0.3
    if rng.random() < 0.3:  # tied inputs, some on the bounds
        q = np.round(q * 4) / 4
        q[rng.random(K) < 0.2] = poly.lower[0]
    q = [float(t) for t in q * rng.choice([1.0, 1.0, 1e300])]
    x = project_oracle(poly, q)
    if rng.random() < 0.5:
        j = int(rng.integers(0, K))
        x[j] += float(rng.choice([1e-6, -1e-6, 1.5e-10, -1.5e-10, ACT, -ACT]))
    return poly, q, x


def test_block_screen_keeps_the_scan_verdicts_fuzz():
    """The O(K) screen may only pass points the frozen reference passes, so
    every verdict and message stays the reference's."""
    rng = make_rng(120)
    screened = raised = near_raised = near_passed = 0
    for k in range(3000):
        threshold = k % 2 == 0
        poly, q, x = _threshold_case(rng) if threshold else _oracle_case(rng)
        want = _verdict(_reference_block_check, poly, q, x)
        assert _verdict(_verify_block_optimality, poly, q, x) == want
        screened += _screen_blocks(poly, q, x, TOL, ACT)
        raised += want is not None
        near_raised += threshold and want is not None and "KKT" in want
        near_passed += threshold and want is None
    # the screen decides often, and both verdicts occur at the threshold
    assert screened > 600
    assert raised > 400
    assert near_raised > 100 and near_passed > 100


def test_oracle_learners_never_reach_the_block_scan(monkeypatch):
    """On the oracle-backed learners' own points the O(K) screen decides."""
    screens, scans = [], []

    def screen(*args):
        screens.append(None)
        return real_screen(*args)

    real_screen = projection._screen_blocks
    monkeypatch.setattr(projection, "_screen_blocks", screen)
    monkeypatch.setattr(projection, "_scan_blocks", lambda *args: scans.append(args))
    T = 2000
    eta = default_eta_known_f(8, T)
    learners = [
        LazyRegularizedBidder(BidGrid(8, 0.1), Uniform(), eta),
        GradientBidder(IrregularBidGrid((0.0, 0.05, 0.12, 0.2, 0.3, 0.42, 0.55, 0.7, 0.85)),
                       Uniform(), FixedStep(eta)),
    ]
    rng = make_rng(122)
    competing = [0.2, 0.15, 0.12, 0.1, 0.1, 0.09, 0.08, 0.08, 0.08]
    for h in rng.choice(9, size=T, p=competing):
        for lrn in learners:
            lrn.observe(int(h))
    assert len(screens) == 2 * T
    assert scans == []


def _former_dp(q, lo, up):
    """The stage-wise dynamic program the oracle used before PAV, frozen."""
    n = len(q)
    amin = [0.0] * n
    L = -math.inf
    for i in range(n):
        L = max(L, lo[i])
        r, cnt, s = i, 1, q[i]
        root = s
        tau_r = math.inf
        while r > 0:
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
            root = tau_r
        amin[i] = min(max(root, L), up[i])
    x = [0.0] * n
    x[n - 1] = amin[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = min(amin[i], x[i + 1])
    return x


def _former_projection(poly, q):
    if poly.increasing:
        return _former_dp(q, poly.lower, poly.upper)
    y = _former_dp([-t for t in q], [-b for b in poly.upper], [-a for a in poly.lower])
    return [-t for t in y]


def _random_chain(rng, K):
    """A feasible chain with non-monotone bounds, or one of the learner polytopes."""
    u = rng.random()
    if u < 0.25:
        return probability_polytope(BidGrid(K, 1.0 / (K + 1)), random_distribution(rng))
    if u < 0.5:
        return threshold_polytope(BidGrid(K, 1.0 / (K + 1)))
    increasing = bool(rng.random() < 0.5)
    lo = rng.random(K) * 1.2 - 0.2
    up = lo + rng.random(K) * 0.8
    # feasible: every ceiling clears the running max of the floors before
    # it, taken in the direction the chain rises
    step = 1 if increasing else -1
    up = np.maximum(up, np.maximum.accumulate(lo[::step])[::step])
    return ChainPolytope(increasing, tuple(lo), tuple(up))


def test_oracle_is_exact_on_generic_chains_fuzz():
    rng = make_rng(38)
    for _ in range(10000):
        K = int(rng.integers(1, 33))
        poly = _random_chain(rng, K)
        q = rng.random(K) * 1.6 - 0.3
        if rng.random() < 0.3:  # tied inputs, some on the bounds
            q = np.round(q * 4) / 4
            q[rng.random(K) < 0.2] = poly.lower[0]
        q = [float(t) for t in q]
        x = project_oracle(poly, q)  # raises unless the self-check passes
        assert poly.contains(x, atol=0.0)
        want = _former_projection(poly, q)
        assert max(abs(a - b) for a, b in zip(x, want)) <= 1e-15


def test_oracle_non_expansive():
    rng = make_rng(31)
    for _ in range(500):
        K = int(rng.integers(1, 7))
        g = BidGrid(K, float(1.0 / (K + 1)))
        F = random_distribution(rng)
        poly = probability_polytope(g, F) if rng.random() < 0.5 else threshold_polytope(g)
        q1 = [float(x) for x in rng.random(K) * 1.6 - 0.3]
        q2 = [float(x) for x in rng.random(K) * 1.6 - 0.3]
        x1 = project_oracle(poly, q1)
        x2 = project_oracle(poly, q2)
        dproj = math.sqrt(sum((a - b) ** 2 for a, b in zip(x1, x2)))
        dq = math.sqrt(sum((a - b) ** 2 for a, b in zip(q1, q2)))
        assert dproj <= dq + 1e-9


def test_outputs_satisfy_polytope_exactly():
    rng = make_rng(32)
    for _ in range(300):
        K = int(rng.integers(1, 8))
        g = BidGrid(K, float(1.0 / (K + 1)))
        F = random_distribution(rng)
        i = int(rng.integers(0, K + 1))
        eta = 1e-3 + float(rng.random()) * 2.0
        p = random_feasible(probability_polytope(g, F), rng)
        got, diag = ga_step_probabilities(g, F, p, i, eta)
        check_probabilities(got, g, F, atol=0.0)
        if i >= 1:
            assert diag.m <= i < diag.ell <= K + 1
            if F.quantile(1.0 - p[i - 1]) >= g.bids[i]:
                # pooled level sits above the block it replaces (the flat-CDF
                # corner where the gradient at h is negative is exempt)
                assert all(diag.x >= p[j - 1] - 1e-11
                           for j in range(diag.m, i + 1))
        v = random_feasible(threshold_polytope(g), rng)
        gotv, diagv = ga_step_thresholds(g, v, i, eta)
        check_thresholds(gotv, g, atol=0.0)
        if i >= 1:
            assert all(diagv.x <= v[j - 1] + 1e-12 for j in range(diagv.m, i + 1))


def test_mirror_equivalence_short_run():
    # uniform value distribution: threshold update is 1 - probability update
    g = BidGrid(5, 0.15)
    rng = make_rng(33)
    p = [0.0] * 5
    v = [1.0] * 5
    for _ in range(2000):
        h = int(rng.integers(0, 6))
        eta = 0.05
        p, _ = ga_step_probabilities(g, Uniform(), p, h, eta)
        v, _ = ga_step_thresholds(g, v, h, eta)
        assert max(abs(vj - (1.0 - pj)) for vj, pj in zip(v, p)) < 1e-12


def test_probability_step_at_a_flat_cdf_kink_matches_oracle():
    # p_2 sits at its cap 1 - F(0.4) = 1 and F is flat below 0.4, so the
    # raw margin F^-(0) - b_2 = -0.4 is negative; the supergradient taken
    # there is 0 and the step must agree with the oracle without repair
    g, F, p, eta = BidGrid(4, 0.2), Uniform(0.5, 1.0), [1.0, 1.0, 0.8, 0.4], 1.5
    got, diag = ga_step_probabilities(g, F, p, 2, eta)
    grad = utility_gradient(g, F, p, 2)
    assert grad[1] == 0.0
    want = project_oracle(probability_polytope(g, F),
                          [a + eta * b for a, b in zip(p, grad)])
    assert got == pytest.approx(want, abs=1e-9)
    assert got == pytest.approx((1.0, 1.0, 0.5, 0.1), abs=1e-12)
    assert diag.x == 1.0


def test_clamps_raise_on_more_than_float_drift():
    g = BidGrid(2, 0.25)
    assert clamp_probabilities([0.5, 0.5 + 1e-13], g, Uniform()) == [0.5, 0.5]
    assert clamp_thresholds([0.5, 0.5 - 1e-13], g) == [0.5, 0.5]
    with pytest.raises(AssertionError, match=r"p_2 by 0\.1"):
        clamp_probabilities([0.4, 0.5], g, Uniform())
    with pytest.raises(AssertionError, match=r"v_1 by 0\.05"):
        clamp_thresholds([0.2, 0.5], g)
    with pytest.raises(AssertionError, match="v_2"):
        clamp_thresholds([0.5, math.nan], g)


# ---------------------------------------------------------------------------
# closed form vs oracle from points at their caps (property test)


_DISTRIBUTIONS = st.one_of(
    st.just(Uniform()),
    # supports that end below the top bid or start above the lowest bids
    st.floats(0.0, 0.6).flatmap(
        lambda a: st.floats(a + 0.05, 1.0).map(lambda b: Uniform(a, b))),
    st.floats(0.01, 0.8).map(EqualRevenue),
    # a flat middle stretch (y1 == y2) puts a kink inside the support
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(
        lambda ys: PiecewiseLinearCDF((0.0, 0.3, 0.7, 1.0),
                                      (0.0, min(ys), max(ys), 1.0))),
)
# 1.0 puts a coordinate at its cap (p_j = 1 - F(b_j), v_j = b_j)
_POSITION = st.one_of(st.just(1.0), st.just(0.0), st.floats(0.0, 1.0))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(K=st.integers(1, 8), reach=st.floats(0.3, 1.0), F=_DISTRIBUTIONS,
       eta=st.floats(1e-9, 2.0), data=st.data())
def test_closed_forms_match_oracle_from_the_caps(K, reach, F, eta, data):
    g = BidGrid(K, reach / K)  # the top bid is reach, up to 1
    i = data.draw(st.integers(0, K), label="i")
    pos = data.draw(st.lists(_POSITION, min_size=K, max_size=K), label="pos")

    ppoly = probability_polytope(g, F)
    p, prev = [], 1.0
    for cap, u in zip(ppoly.upper, pos):
        prev = min(prev, cap if u == 1.0 else u * cap)
        p.append(prev)
    got, _ = ga_step_probabilities(g, F, p, i, eta)
    grad = utility_gradient(g, F, p, i)
    want = project_oracle(ppoly, [a + eta * b for a, b in zip(p, grad)])
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-9

    v, prev = [], 0.0
    for b, u in zip(g.bids[1:], reversed(pos)):
        prev = max(prev, b if u == 1.0 else min(1.0, b + (1.0 - u) * (1.0 - b)))
        v.append(prev)
    got, _ = ga_step_thresholds(g, v, i, eta)
    grad = threshold_gradient(g, v, i)
    want = project_oracle(threshold_polytope(g), [a + eta * b for a, b in zip(v, grad)])
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-9


# ---------------------------------------------------------------------------
# the one chain step against the two closed forms it replaced


_SLACK = 1e-12


def _reference_probability_kernel(grid, F, p, i, eta):
    """The former probability-space closed form, before its clamp.

    Returns (point, (m, ell, x, pooled_count), gain at i).
    """
    K, bids, step = grid.K, grid.bids, eta * grid.eps
    if i == 0:
        out = [max(pj - step, 0.0) for pj in p]
        ell = next((j for j in range(1, K + 1) if p[j - 1] <= step + _SLACK), K + 1)
        return out, (0, ell, math.nan, 0), 0.0
    g = eta * (F.quantile(1.0 - p[i - 1]) - bids[i])
    cap = 1.0 - F.cdf(bids[i])
    ell = next((j for j in range(i + 1, K + 1) if p[j - 1] <= step + _SLACK), K + 1)
    m = i
    total = p[i - 1]
    for j in range(i - 1, 0, -1):
        cand = total + p[j - 1]
        if p[j - 1] > cap + _SLACK:
            break
        if (i - j + 1) * p[j - 1] - cand > g + _SLACK:
            break
        m = j
        total = cand
    x = min(max((g + total) / (i - m + 1), 0.0), cap)
    out = list(p[: m - 1])
    out.extend([x] * (i - m + 1))
    for j in range(i + 1, ell):
        out.append(p[j - 1] - step)
    out.extend([0.0] * (K + 1 - ell))
    return out, (m, ell, x, i - m + 1), g


def _reference_threshold_kernel(grid, v, i, eta):
    """The former threshold-space closed form, before its clamp."""
    K, bids, step = grid.K, grid.bids, eta * grid.eps
    if i == 0:
        out = [min(vj + step, 1.0) for vj in v]
        ell = next((j for j in range(1, K + 1) if v[j - 1] >= 1.0 - step - _SLACK), K + 1)
        return out, (0, ell, math.nan, 0)
    g = eta * (v[i - 1] - bids[i])
    ell = next((j for j in range(i + 1, K + 1) if v[j - 1] >= 1.0 - step - _SLACK), K + 1)
    m = i
    total = v[i - 1]
    for j in range(i - 1, 0, -1):
        cand = total + v[j - 1]
        if v[j - 1] < bids[i] - _SLACK:
            break
        if cand - (i - j + 1) * v[j - 1] > g + _SLACK:
            break
        m = j
        total = cand
    x = max((total - g) / (i - m + 1), bids[i])
    out = list(v[: m - 1])
    out.extend([x] * (i - m + 1))
    for j in range(i + 1, ell):
        out.append(v[j - 1] + step)
    out.extend([1.0] * (K + 1 - ell))
    return out, (m, ell, x, i - m + 1)


def _bits(xs):
    """Values with the sign of each zero, so 0.0 and -0.0 differ."""
    return [(x, math.copysign(1.0, x)) for x in xs]


def _same_diagnostics(diag, ref):
    m, ell, x, count = ref
    return ((diag.m, diag.ell, diag.pooled_count) == (m, ell, count)
            and (math.isnan(diag.x) and math.isnan(x) or _bits([diag.x]) == _bits([x])))


def _compare_probability_step(grid, F, p, i, eta):
    got, diag = ga_step_probabilities(grid, F, p, i, eta)
    raw, ref_diag, gain = _reference_probability_kernel(grid, F, p, i, eta)
    if gain >= 0.0:
        assert _bits(got) == _bits(clamp_probabilities(raw, grid, F))
        assert _same_diagnostics(diag, ref_diag)
    else:
        grad = utility_gradient(grid, F, p, i)
        want = project_oracle(probability_polytope(grid, F),
                              [a + eta * b for a, b in zip(p, grad)])
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-9
    return got, gain < 0.0


def _compare_threshold_step(grid, v, i, eta):
    got, diag = ga_step_thresholds(grid, v, i, eta)
    raw, ref_diag = _reference_threshold_kernel(grid, v, i, eta)
    assert _bits(got) == _bits(clamp_thresholds(raw, grid))
    assert _same_diagnostics(diag, ref_diag)
    return got


def _at_caps(x, poly, rng):
    """x with a random subset of coordinates moved onto their binding bound."""
    bound = poly.lower if poly.increasing else poly.upper
    for j in range(len(x)):
        if rng.random() < 0.3:
            x[j] = bound[j]
    # restore the chain order through the bound that was just imposed
    if poly.increasing:
        for j in range(1, len(x)):
            x[j] = max(x[j], x[j - 1])
    else:
        for j in range(1, len(x)):
            x[j] = min(x[j], x[j - 1])
    return x


def test_chain_step_bit_identical_to_former_closed_forms():
    rng = make_rng(37)
    steps = negative = 0
    # independent instances, a third of them started on their caps
    for _ in range(20_000):
        K = int(rng.integers(1, 9))
        g = BidGrid(K, float(1.0 / (K + int(rng.integers(0, 3)))))
        F = random_distribution(rng)
        i = int(rng.integers(0, K + 1))
        eta = float(10.0 ** rng.uniform(-4.0, math.log10(2.0)))
        ppoly, vpoly = probability_polytope(g, F), threshold_polytope(g)
        p, v = random_feasible(ppoly, rng), random_feasible(vpoly, rng)
        if rng.random() < 1 / 3:
            p, v = _at_caps(p, ppoly, rng), _at_caps(v, vpoly, rng)
        negative += _compare_probability_step(g, F, p, i, eta)[1]
        _compare_threshold_step(g, v, i, eta)
        steps += 2
    # learner trajectories from the initial points, which reach the caps
    for _ in range(200):
        K = int(rng.integers(1, 9))
        g = BidGrid(K, float(1.0 / (K + int(rng.integers(0, 3)))))
        F = random_distribution(rng)
        eta = float(10.0 ** rng.uniform(-2.0, math.log10(2.0)))
        p, v = [0.0] * K, [1.0] * K
        for h in rng.integers(0, K + 1, size=150):
            p, neg = _compare_probability_step(g, F, p, int(h), eta)
            v = _compare_threshold_step(g, v, int(h), eta)
            negative += neg
            steps += 2
    assert steps >= 100_000
    assert negative > 0  # the kink where the former gain went negative is hit


def test_nan_is_never_inside_and_never_projected():
    poly = probability_polytope(BidGrid(3, 0.25), Uniform())
    assert not poly.contains([float("nan"), 0.2, 0.1])
    assert not threshold_polytope(GRID2).contains([0.5, float("nan")])
    for bad in (float("nan"), math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            project_oracle(poly, [bad, 0.3, 0.1])


@pytest.mark.parametrize("eta", [float("nan"), math.inf, 0.0, -0.1])
def test_closed_form_steps_reject_bad_eta(eta):
    with pytest.raises(ValueError, match="positive and finite"):
        ga_step_probabilities(GRID2, Uniform(), [0.4, 0.3], 1, eta)
    with pytest.raises(ValueError, match="positive and finite"):
        ga_step_thresholds(GRID2, [0.5, 0.6], 1, eta)


def test_steps_check_their_input_at_the_clamp_tolerance():
    # 5e-10 outside the polytope passes the default 1e-9 feasibility check
    # but is more than the clamp accepts, so the step rejects it up front
    with pytest.raises(ValueError, match="p_1"):
        ga_step_probabilities(GRID2, Uniform(), [0.7500000005, 0.2], 2, 0.01)
    with pytest.raises(ValueError, match="v_1"):
        ga_step_thresholds(GRID2, [0.2499999995, 0.6], 2, 0.01)


def test_drift_does_not_pile_up_along_the_chain():
    # each coordinate is within CLAMP_TOL of the one before, but v_3 is
    # 1.8e-12 below v_1, the value the snap gives it: the point is refused
    # where it enters, with one ValueError naming v_3, never taken in and
    # failed inside the step
    g = BidGrid(3, 0.1)
    v = [0.5, 0.5 - 0.9e-12, 0.5 - 1.8e-12]
    p = [0.5, 0.5 + 0.9e-12, 0.5 + 1.8e-12]
    for call in (lambda: check_thresholds(v, g, atol=CLAMP_TOL),
                 lambda: ga_step_thresholds(g, v, 0, 0.01),
                 lambda: ThresholdBidder(g, 0.01, v1=v)):
        with pytest.raises(ValueError, match=r"^v_3=0\.4999999999982 breaks monotonicity"):
            call()
    for call in (lambda: check_probabilities(p, g, Uniform(), atol=CLAMP_TOL),
                 lambda: ga_step_probabilities(g, Uniform(), p, 0, 0.01),
                 lambda: GradientBidder(g, Uniform(), FixedStep(0.01), p1=p)):
        with pytest.raises(ValueError, match=r"^p_3=0\.5000000000018 breaks monotonicity"):
            call()

