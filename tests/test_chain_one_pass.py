"""The one-pass chain step against the two-pass kernel it replaced.

``_two_pass_chain_step`` is a frozen copy of ``_chain_step`` as it ran
before the point and its clamp shared one loop: it built the point from
slices and list concatenation, then clamped it in a second pass.  A
seeded fuzz drives both over threshold chains (ceiling 1.0) and negated
probability chains (ceiling -0.0), with inputs on the polytope, nudged
within float drift (the snap path) and past it or to NaN (the raise path).
Every coordinate must match by ``repr``, which tells -0.0 from 0.0, and so
must m, ell, x and any error message.
"""

import math
import random

from fpabench.auction import CLAMP_TOL
from fpabench.projection import _chain_step

_SLACK = 1e-12


def _frozen_check_drift(name, j, was, now):
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


def _outcome(kernel, args):
    """What a kernel returns, by repr, or the error it raises."""
    try:
        out, m, ell, x = kernel(*args)
    except Exception as e:  # noqa: BLE001 - any divergence must show
        return ("raise", type(e).__name__, str(e))
    return ("ok", [repr(o) for o in out], m, ell, repr(x))


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
    mode = rnd.random()
    if mode < 0.3:  # float drift, which the output pass snaps back
        for _ in range(rnd.randint(1, 3)):
            k = rnd.randrange(K)
            q[k] += rnd.choice([-1e-13, 1e-13])
    elif mode < 0.45:  # more than float drift, or no number at all
        k = rnd.randrange(K)
        q[k] = math.nan if rnd.random() < 0.3 else q[k] + rnd.choice([-1e-9, 1e-9])
    return q, i, g, eta * eps, ceil, lo, name


def test_one_pass_step_matches_the_two_pass_kernel_fuzz():
    rnd = random.Random(20260417)
    seen = {"raise": 0, "i=0": 0, "i=K": 0, "g=0": 0, "pooled": 0, "saturated": 0,
            "accepted off the polytope": 0, "-0.0": 0, "0.0": 0}
    for _ in range(100_000):
        args = _case(rnd)
        q, i, g, _, ceil, lo, _ = args
        before = repr(q)
        want = _outcome(_two_pass_chain_step, (list(q), *args[1:]))
        got = _outcome(_chain_step, args)
        assert got == want, args
        assert repr(q) == before  # the input is not written to
        seen["i=0"] += i == 0
        seen["i=K"] += i == len(q)
        seen["g=0"] += g == 0.0
        if got[0] == "raise":
            seen["raise"] += 1
            continue
        _, out, m, ell, _ = got
        seen["pooled"] += 0 < m < i
        seen["saturated"] += ell <= len(q)
        # an input off the polytope by float drift that the step took in
        seen["accepted off the polytope"] += any(t < f or t > ceil for t, f in zip(q, lo))
        seen["-0.0"] += "-0.0" in out
        seen["0.0"] += "0.0" in out
    # every path the fuzz is meant to reach, reached often
    assert min(seen.values()) >= 500, seen
