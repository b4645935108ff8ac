"""Numeric property suites behind the paper's guarantees.

Each suite draws its instances from the generator it is given and returns
``(number of checks, worst value seen)``:

* ``projection``  closed-form projected step vs the exact oracle, both polytopes
* ``mirror``      threshold learner == 1 - probability learner under uniform F
* ``gradient``    analytic utility gradient vs central finite differences
* ``concavity``   midpoint strong-concavity margin of the expected utility
* ``stepineq``    per-step regret inequality of the threshold learner

``fpa-bench verify`` runs every suite in ``SUITES`` on its own testing
stream; the tests run the same functions under their own seeds.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .auction import utility_gradient, utility_rows
from .distributions import EqualRevenue, PiecewiseLinearCDF, Uniform
from .grids import BidGrid
from .learners import FixedStep, GradientBidder, ThresholdBidder
from .metrics import check_regret_step, strong_concavity_modulus
from .projection import (
    ga_step_probabilities,
    ga_step_thresholds,
    probability_polytope,
    project_oracle,
    threshold_polytope,
)
from .rng import TESTING, stream_rng

VERIFY_SEED = 7  # master seed of the streams ``fpa-bench verify`` draws from


# ---------------------------------------------------------------------------
# random instances


def random_distribution(rng):
    """One of the built-in distribution kinds with random parameters."""
    r = int(rng.integers(0, 4))
    if r == 0:
        return Uniform()
    if r == 1:
        a = float(rng.random() * 0.5)
        return Uniform(a, a + 0.3 + float(rng.random()) * (1.0 - a - 0.3))
    if r == 2:
        return EqualRevenue(0.05 + float(rng.random()) * 0.5)
    y1 = float(rng.random()) * 0.6
    y2 = y1 + float(rng.random()) * (1.0 - y1) * 0.9
    return PiecewiseLinearCDF((0.0, 0.3, 0.7, 1.0), (0.0, y1, y2, 1.0))


def random_feasible(poly, rng):
    """Monotone point strictly inside the chain polytope's boxes."""
    n = len(poly.lower)
    u = sorted(float(t) for t in rng.random(n))
    if not poly.increasing:
        u = u[::-1]
    x = [poly.lower[j] + u[j] * (poly.upper[j] - poly.lower[j]) * 0.999999
         for j in range(n)]
    # restore monotonicity possibly broken by uneven boxes
    follow, clip, bound = ((max, min, poly.upper) if poly.increasing
                           else (min, max, poly.lower))
    for j in range(1, n):
        x[j] = follow(x[j], x[j - 1])
    for j in range(n - 2, -1, -1):
        x[j] = clip(x[j], bound[j])
    return x


def threshold_gradient(grid, v, i):
    """Ascent direction in threshold space at competing-bid index i.

    The probability-space gradient under the uniform distribution, flipped
    through v = 1 - p.
    """
    K, eps, bids = grid.K, grid.eps, grid.bids
    if i == 0:
        return [eps] * K
    g = [0.0] * K
    g[i - 1] = -(v[i - 1] - bids[i])
    for j in range(i + 1, K + 1):
        g[j - 1] = eps
    return g


def closed_form_error(grid, F, i, eta, rng) -> float:
    """Largest coordinate gap between both closed-form steps and the oracle.

    Each step starts from a random feasible point of its polytope
    (probabilities first, then thresholds).
    """
    ppoly = probability_polytope(grid, F)
    p = random_feasible(ppoly, rng)
    got, _ = ga_step_probabilities(grid, F, p, i, eta)
    g = utility_gradient(grid, F, p, i)
    want = project_oracle(ppoly, [a + eta * b for a, b in zip(p, g)])
    err = max(abs(a - b) for a, b in zip(got, want))

    vpoly = threshold_polytope(grid)
    v = random_feasible(vpoly, rng)
    got, _ = ga_step_thresholds(grid, v, i, eta)
    g = threshold_gradient(grid, v, i)
    want = project_oracle(vpoly, [a + eta * b for a, b in zip(v, g)])
    return max(err, max(abs(a - b) for a, b in zip(got, want)))


# ---------------------------------------------------------------------------
# suites: (rng, n) -> (number of checks, worst value)


def projection(rng, n: int) -> tuple[int, float]:
    worst = 0.0
    for _ in range(n):
        K = int(rng.integers(1, 9))
        grid = BidGrid(K, float(1.0 / (K + int(rng.integers(0, 3)))))
        F = random_distribution(rng)
        i = int(rng.integers(0, K + 1))
        eta = 1e-3 + float(rng.random()) * 2.0
        worst = max(worst, closed_form_error(grid, F, i, eta, rng))
    return 2 * n, worst


def mirror(rng, n: int) -> tuple[int, float]:
    grid = BidGrid(8, 0.1)
    eta = 0.02
    a1 = GradientBidder(grid, Uniform(), FixedStep(eta))
    a2 = ThresholdBidder(grid, eta)
    worst = 0.0
    for h in rng.integers(0, 9, size=n):
        a1.observe(int(h))
        a2.observe(int(h))
        worst = max(worst, max(abs(v - (1.0 - p)) for v, p in zip(a2.v, a1.p)))
    return n, worst


def gradient(rng, n: int) -> tuple[int, float]:
    worst = 0.0
    d = 1e-6
    done = 0
    while done < n:
        K = int(rng.integers(1, 7))
        grid = BidGrid(K, float(1.0 / (K + 1)))
        F = random_distribution(rng)
        poly = probability_polytope(grid, F)
        if min(poly.upper) < 0.02:
            # grid reaches past the value support; the utility is kinked
            # at the cap, where finite differences are meaningless
            continue
        done += 1
        p = random_feasible(poly, rng)
        # stay interior so the differences see the smooth branch
        p = [min(max(pj, 1e-4), poly.upper[j] - 1e-4)
             for j, pj in enumerate(p)]
        for j in range(1, K):
            p[j] = min(p[j], p[j - 1])
        i = int(rng.integers(0, K + 1))
        g = utility_gradient(grid, F, p, i)
        # rows p + d e_j, then rows p - d e_j
        step = d * np.eye(K)
        u = utility_rows(grid, F, np.vstack([p + step, p - step]))[:, i]
        fd = (u[:K] - u[K:]) / (2 * d)
        worst = max(worst, *np.abs(fd - g).tolist())
    return n, worst


def concavity(rng, n: int) -> tuple[int, float]:
    grid = BidGrid(4, 0.2)
    F = Uniform()
    d = (0.2,) * 5
    alpha = strong_concavity_modulus(F, d)
    poly = probability_polytope(grid, F)

    def U(P):  # expected utility of each row, summed as expected_utility sums it
        u = utility_rows(grid, F, P)
        total = np.zeros(len(P))
        for i, di in enumerate(d):
            total += di * u[:, i]
        return total

    pairs = [(random_feasible(poly, rng), random_feasible(poly, rng)) for _ in range(n)]
    P, Q = np.array(pairs).reshape(n, 2, grid.K).swapaxes(0, 1)
    gain = U((P + Q) / 2) - 0.5 * (U(P) + U(Q))
    need = [alpha / 8.0 * sum((a - b) ** 2 for a, b in zip(p, q)) for p, q in pairs]
    return n, min((gain - need).tolist(), default=math.inf)


def stepineq(rng, n: int) -> tuple[int, float]:
    grid = BidGrid(4, 0.2)
    poly = threshold_polytope(grid)
    eta = 0.01
    worst = math.inf
    for _ in range(n):
        v = random_feasible(poly, rng)
        h = int(rng.integers(0, 5))
        bench = random_feasible(poly, rng)
        vstar = float(rng.random())
        after, _ = ga_step_thresholds(grid, v, h, eta)
        worst = min(worst, check_regret_step(grid, v, after, bench, vstar, h, eta))
    return n, worst


class Suite(NamedTuple):
    fn: Callable[..., tuple[int, float]]
    label: str     # "max ..." must stay below bound, "min ..." above it
    bound: float
    actor: int     # stream actor of the default run
    n: int         # instance count of the default run

    def passes(self, worst: float) -> bool:
        return worst < self.bound if self.label.startswith("max") else worst > self.bound

    def run_default(self) -> tuple[int, float]:
        """The run ``fpa-bench verify`` makes."""
        return self.fn(stream_rng(VERIFY_SEED, TESTING, self.actor), self.n)


SUITES = {
    "projection": Suite(projection, "max coordinate error", 1e-9, 1, 10_000),
    "mirror": Suite(mirror, "max |v - (1-p)|", 1e-12, 2, 10_000),
    "gradient": Suite(gradient, "max |fd - grad|", 1e-6, 3, 2_000),
    "concavity": Suite(concavity, "min margin", -1e-9, 4, 10_000),
    "stepineq": Suite(stepineq, "min slack", -1e-8, 5, 20_000),
}
