import numpy as np
import pytest

from conftest import make_rng
from fpabench.auction import (
    best_fixed_utility,
    bid_for_value,
    check_probabilities,
    check_thresholds,
    clamp_thresholds,
    expected_utility,
    probabilities_from_strategy,
    revenue_for_h,
    single_shot_best_response,
    thresholds_from_probabilities,
    utility_for_h,
    utility_gradient,
)
from fpabench.distributions import EqualRevenue, Uniform
from fpabench.grids import BidGrid
from fpabench.projection import probability_polytope, threshold_polytope
from fpabench.verify import random_distribution, random_feasible


GRID2 = BidGrid(2, 0.25)  # bids {0, 0.25, 0.5}


def test_thresholds_from_probabilities_uniform():
    v = thresholds_from_probabilities(GRID2, Uniform(), (0.5, 0.25))
    assert v == pytest.approx((0.5, 0.75), abs=1e-12)


def test_thresholds_from_probabilities_zero_is_all_ones():
    v = thresholds_from_probabilities(GRID2, EqualRevenue(0.1), (0.0, 0.0))
    assert v == pytest.approx((1.0, 1.0), abs=1e-12)


def test_thresholds_from_probabilities_equirev():
    g = BidGrid(2, 0.125)
    v = thresholds_from_probabilities(g, EqualRevenue(0.1), (0.5, 0.5))
    assert v == pytest.approx((0.25, 0.25), abs=1e-12)


def test_probabilities_from_strategy_inverse():
    p = probabilities_from_strategy(GRID2, Uniform(), (0.5, 0.75))
    assert p == pytest.approx((0.5, 0.25), abs=1e-12)
    assert probabilities_from_strategy(GRID2, Uniform(), (1.0, 1.0)) == [0.0, 0.0]


def test_round_trip_probabilities_thresholds():
    rng = make_rng(20)
    for _ in range(200):
        F = random_distribution(rng)
        g = BidGrid(int(rng.integers(1, 6)), 0.15)
        v = random_feasible(threshold_polytope(g), rng)
        p = probabilities_from_strategy(g, F, v)
        check_probabilities(p, g, F)
        v2 = thresholds_from_probabilities(g, F, p)
        p2 = probabilities_from_strategy(g, F, v2)
        # p -> v -> p is identity even where F is flat
        assert p2 == pytest.approx(p, abs=1e-9)


def test_bid_for_value_boundaries():
    v = (0.5, 0.75)
    assert bid_for_value(v, 0.8) == 2
    assert bid_for_value(v, 0.5) == 0  # half-open boundary
    assert bid_for_value(v, 0.6) == 1
    assert bid_for_value(v, 0.0) == 0


def test_bid_for_value_monotone_never_overbids():
    rng = make_rng(21)
    g = BidGrid(4, 0.2)
    for _ in range(100):
        v = random_feasible(threshold_polytope(g), rng)
        prev = 0
        for val in np.linspace(0.0, 1.0, 101):
            i = bid_for_value(v, float(val))
            assert i >= prev
            assert g.bids[i] <= val + 1e-9
            prev = i


def test_utility_point_mass_examples():
    g1 = BidGrid(1, 0.5)
    # int_{0.5}^1 u du - 0.5 * 0.5 / 2 terms: G(0.5) - b_1 p_1
    assert utility_for_h(g1, Uniform(), [0.5], 1) == pytest.approx(0.125, abs=1e-12)
    # p = 0 against h = b_0: always wins at price 0
    assert utility_for_h(GRID2, Uniform(), [0.0, 0.0], 0) == pytest.approx(0.5, abs=1e-12)
    # p = 0 against a positive competing bid: never wins
    assert utility_for_h(GRID2, Uniform(), [0.0, 0.0], 1) == 0.0


def test_utility_monte_carlo_cross_check():
    rng = make_rng(22)
    g = BidGrid(3, 0.2)
    F = EqualRevenue(0.2)
    p = [0.6, 0.3, 0.2]
    v = thresholds_from_probabilities(g, F, p)
    n = 400_000
    vals = F.quantile_array(rng.random(n))
    for h in range(4):
        idx = np.array([bid_for_value(v, float(x)) for x in vals])
        win = idx >= h
        payoff = (vals - np.array(g.bids)[idx]) * win
        se = payoff.std() / np.sqrt(n)
        assert utility_for_h(g, F, p, h) == pytest.approx(
            float(payoff.mean()), abs=3.5 * se + 1e-9)


def test_gradient_frozen_examples():
    assert utility_gradient(GRID2, Uniform(), [0.5, 0.2], 1) == pytest.approx(
        (0.25, -0.25), abs=1e-12)
    assert utility_gradient(GRID2, Uniform(), [0.5, 0.2], 0) == pytest.approx(
        (-0.25, -0.25), abs=1e-12)
    # F^-(1 - p_2) - b_2 = 0.65 - 0.5
    assert utility_gradient(GRID2, Uniform(), [0.4, 0.35], 2) == pytest.approx(
        (0.0, 0.15), abs=1e-12)


def test_gradient_matches_finite_differences():
    rng = make_rng(23)
    d = 1e-6
    n = 0
    while n < 300:
        K = int(rng.integers(1, 6))
        g = BidGrid(K, float(1.0 / (K + 1)))
        F = random_distribution(rng)
        poly = probability_polytope(g, F)
        if min(poly.upper) < 0.02:
            continue
        n += 1
        p = random_feasible(poly, rng)
        p = [min(max(pj, 1e-4), poly.upper[j] - 1e-4) for j, pj in enumerate(p)]
        for j in range(1, K):
            p[j] = min(p[j], p[j - 1])
        i = int(rng.integers(0, K + 1))
        grad = utility_gradient(g, F, p, i)
        for j in range(K):
            hi = list(p)
            hi[j] += d
            lo = list(p)
            lo[j] -= d
            fd = (utility_for_h(g, F, hi, i) - utility_for_h(g, F, lo, i)) / (2 * d)
            assert abs(fd - grad[j]) < 1e-6


def test_revenue_frozen_examples():
    assert revenue_for_h(GRID2, [0.6, 0.4], 1) == pytest.approx(0.25, abs=1e-12)
    assert revenue_for_h(GRID2, [0.6, 0.4], 0) == pytest.approx(0.25, abs=1e-12)
    assert revenue_for_h(GRID2, [0.6, 0.0], 2) == 0.0


def test_revenue_equals_price_mass_sum():
    rng = make_rng(24)
    g = BidGrid(4, 0.2)
    F = Uniform()
    for _ in range(100):
        p = random_feasible(probability_polytope(g, F), rng)
        ext = [1.0] + list(p) + [0.0]
        for h in range(5):
            want = sum(g.bids[j] * (ext[j] - ext[j + 1]) for j in range(max(h, 0), 5)
                       if j >= h)
            assert revenue_for_h(g, p, h) == pytest.approx(want, abs=1e-9)


def test_best_response_point_mass_at_zero():
    v = single_shot_best_response(GRID2, (1.0, 0.0, 0.0))
    assert v == pytest.approx((1.0, 1.0), abs=1e-12)


def test_best_response_fifty_fifty():
    g = BidGrid(1, 0.25)
    v = single_shot_best_response(g, (0.5, 0.5))
    # crossing of v/2 and (v - 1/4): tie at 1/2 goes to the smaller bid
    assert v == pytest.approx((0.5,), abs=1e-12)


def _former_best_response(grid, d):
    """The envelope scan single_shot_best_response used before the hull pass, frozen."""
    bids = grid.bids
    lines = []
    acc = 0.0
    for j, dj in enumerate(d):
        acc += dj
        if not lines or acc > lines[-1][1]:
            lines.append((j, acc))
    stack = [(lines[0][0], 0.0)]
    slopes = dict(lines)
    for j, Dj in lines[1:]:
        x = 0.0
        while stack:
            jt, vt = stack[-1]
            Dt = slopes[jt]
            x = (bids[j] * Dj - bids[jt] * Dt) / (Dj - Dt)
            if x <= vt:
                stack.pop()
            else:
                break
        if not stack:
            stack.append((j, 0.0))
        elif x < 1.0:
            stack.append((j, x))
    v = []
    starts = {j: x for j, x in stack}
    used = sorted(starts)
    for i in range(1, grid.K + 1):
        nxt = next((j for j in used if j >= i), None)
        v.append(1.0 if nxt is None else starts[nxt])
    return clamp_thresholds(v, grid)


def test_best_response_bit_identical_to_the_former_scan():
    rng = make_rng(27)
    grids = {K: BidGrid(K, 1.0 / (K + 1)) for K in range(1, 17)}
    for n in range(100000):
        K = int(rng.integers(1, 17))
        kind = n % 3
        if kind == 0:  # sparse weights: zero weights repeat a cumulative slope
            w = rng.random(K + 1) * (rng.random(K + 1) < 0.4)
            w[int(rng.integers(0, K + 1))] += 1.0
            d = w / w.sum()
        elif kind == 1:  # empirical frequencies c / t, as the benchmark passes
            t = int(rng.integers(1, 30))
            d = np.bincount(rng.integers(0, K + 1, t), minlength=K + 1) / t
        else:
            d = rng.dirichlet(np.ones(K + 1))
        d = tuple(d.tolist())
        got = single_shot_best_response(grids[K], d)
        want = _former_best_response(grids[K], d)
        # compare bits, so the sign of a zero counts too
        assert [x.hex() for x in got] == [x.hex() for x in want]


def test_best_response_dominates_random_strategies():
    rng = make_rng(25)
    g = BidGrid(3, 0.25)
    F = Uniform()
    for _ in range(20):
        w = rng.random(4)
        d = tuple(float(x) for x in w / w.sum())
        best, _ = best_fixed_utility(g, F, d)
        for _ in range(200):
            v = random_feasible(threshold_polytope(g), rng)
            p = probabilities_from_strategy(g, F, v)
            assert expected_utility(g, F, d, p) <= best + 1e-9


def test_best_fixed_utility_frozen_values():
    g = BidGrid(1, 0.25)
    F = Uniform()
    u, v = best_fixed_utility(g, F, (0.0, 1.0))
    assert u == pytest.approx(9.0 / 32.0, abs=1e-12)
    assert v == pytest.approx((0.25,), abs=1e-12)
    u0, _ = best_fixed_utility(g, F, (1.0, 0.0))
    assert u0 == pytest.approx(0.5, abs=1e-12)
    # envelope integral: int_0^{1/2} v/2 dv + int_{1/2}^1 (v - 1/4) dv
    u5, _ = best_fixed_utility(g, F, (0.5, 0.5))
    assert u5 == pytest.approx(1.0 / 16.0 + 1.0 / 4.0, abs=1e-12)
    # Riemann cross-check of the same envelope
    vals = np.linspace(0.0, 1.0, 100_001)
    env = np.maximum(vals * 0.5, (vals - 0.25) * 1.0)
    assert u5 == pytest.approx(float(np.trapezoid(env, vals)), abs=1e-6)


def test_expected_utility_concavity():
    rng = make_rng(26)
    for _ in range(1000):
        K = int(rng.integers(1, 6))
        g = BidGrid(K, float(1.0 / (K + 1)))
        F = random_distribution(rng)
        poly = probability_polytope(g, F)
        p = random_feasible(poly, rng)
        q = random_feasible(poly, rng)
        lam = float(rng.random())
        w = rng.random(K + 1)
        d = tuple(float(x) for x in w / w.sum())
        mid = [lam * a + (1 - lam) * b for a, b in zip(p, q)]
        assert expected_utility(g, F, d, mid) >= (
            lam * expected_utility(g, F, d, p)
            + (1 - lam) * expected_utility(g, F, d, q) - 1e-9)


def test_feasibility_checks_raise():
    with pytest.raises(ValueError):
        check_probabilities([0.2, 0.5], GRID2, Uniform())  # not decreasing
    with pytest.raises(ValueError):
        check_probabilities([0.9, 0.8], GRID2, Uniform())  # above cap
    with pytest.raises(ValueError):
        check_thresholds([0.8, 0.6], GRID2)  # not increasing
    with pytest.raises(ValueError):
        check_thresholds([0.1, 0.6], GRID2)  # below bid


@pytest.mark.parametrize("check, vector, message", [
    (lambda x: check_probabilities(x, GRID2, Uniform()), [0.5], "expected 2 components, got 1"),
    (lambda x: check_probabilities(x, GRID2, Uniform()), [0.5, 0.2, 0.1],
     "expected 2 components, got 3"),
    (lambda x: check_thresholds(x, GRID2), [0.5], "expected 2 components, got 1"),
    (lambda x: check_thresholds(x, GRID2), [], "expected 2 components, got 0"),
])
def test_feasibility_checks_reject_a_vector_of_the_wrong_length(check, vector, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        check(vector)


def test_feasibility_checks_reject_nan():
    with pytest.raises(ValueError):
        check_probabilities([float("nan"), 0.2], GRID2, Uniform())
    with pytest.raises(ValueError):
        check_probabilities([0.5, float("nan")], GRID2, Uniform())
    with pytest.raises(ValueError):
        check_thresholds([0.5, float("nan")], GRID2)
    with pytest.raises(ValueError):
        check_thresholds([float("nan"), 0.6], GRID2)


@pytest.mark.parametrize("i", [-1, 3])
def test_utility_gradient_rejects_index_off_the_grid(i):
    with pytest.raises(ValueError, match=f"competing-bid index {i} outside 0..2"):
        utility_gradient(GRID2, Uniform(), [0.5, 0.2], i)
