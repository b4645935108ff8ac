"""Follow-the-leader on a foreseen h-sequence against the round-by-round path.

``run_single_buyer`` hands an oblivious adversary's h_1..h_T to the learner
before round 1, and ``MeanBasedBucketBidder`` then plays them in chunked
array passes.  Wrapping the same sequence in an ``AdaptiveCompetition``
keeps the run on the round-by-round path (one-row passes), so every test
here compares the two: the choice row after every round, the ``Plays``
entries and their run lengths, and the final table's bits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_rng
from fpabench import learners, strategies
from fpabench.distributions import EqualRevenue, Uniform
from fpabench.environments import (
    AdaptiveCompetition,
    Adversary,
    DecreasingReserve,
    FixedSequence,
    StochasticCompetition,
    run_single_buyer,
)
from fpabench.grids import BidGrid
from fpabench.learners import MeanBasedBucketBidder, MisreportingBidder
from fpabench.strategies import MisreportMap

_QUARTER = MisreportMap((0.0, 0.5, 0.5, 1.0), (0.0, 0.5, 0.25, 0.25))


def _rows(lrn, hs, foresee):
    """The choice row after every round, and whether each round made a new strategy."""
    if foresee:
        lrn.foresee(hs)
    rows, fresh = [], []
    for h in hs:
        before = lrn.strategy()
        lrn.observe(h)
        rows.append(lrn.strategy().bids_per_bucket)
        fresh.append(lrn.strategy() is not before)
    return rows, fresh


def _assert_same_learner(a, b):
    assert a.t == b.t
    assert a.strategy() == b.strategy()
    assert a._table.shape == b._table.shape
    assert a._table.tobytes() == b._table.tobytes()


def _frozen_rows(grid, buckets, hs):
    """The former per-round update, kept as the reference: a (buckets, K+1)
    table, one slice-add and one argmax per round."""
    bids = np.asarray(grid.bids)
    mids = (np.arange(buckets) + 0.5) / buckets
    table = np.zeros((buckets, grid.K + 1))
    rows = []
    for h in hs:
        table[:, h:] += mids[:, None] - bids[None, h:]
        rows.append(tuple(np.argmax(table, axis=1).tolist()))
    return rows, table


def _check_sequence(grid, buckets, hs):
    ref, got = MeanBasedBucketBidder(grid, buckets), MeanBasedBucketBidder(grid, buckets)
    rows, fresh = _rows(got, hs, True)
    assert (rows, fresh) == _rows(ref, hs, False)
    # a new strategy exactly where the choice row changes
    assert fresh == [a != b for a, b in zip([(0,) * buckets] + rows, rows)]
    _assert_same_learner(got, ref)
    want, table = _frozen_rows(grid, buckets, hs)
    assert rows == want
    assert got._table.T.tobytes() == table.tobytes()


def _plays(monkeypatch, grid, F, learner, adversary, T):
    """(choice row, rounds) of every Plays entry of one run."""
    seen = []
    columns = strategies.Plays.exact_columns

    def spy(self, F, h):
        rows = [getattr(p, "inner", p).bids_per_bucket for p in self.plays]
        seen.append((rows, list(self.rounds)))
        return columns(self, F, h)

    monkeypatch.setattr(strategies.Plays, "exact_columns", spy)
    tr = run_single_buyer(grid, F, learner, adversary, T, seed=3, check_steps=False,
                          benchmark="final")
    monkeypatch.undo()
    return seen[0], tr


def _adaptive(hs):
    return AdaptiveCompetition(lambda t, history: hs[t - 1])


_ADVERSARIES = {
    "stochastic": lambda: StochasticCompetition((0.3, 0.25, 0.2, 0.15, 0.1)),
    "decreasing": lambda: DecreasingReserve(70, 3, 1),
    "seq": lambda: FixedSequence(make_rng(91).integers(0, 5, size=400).tolist()),
}


@pytest.mark.parametrize("misreport", [False, True], ids=["ftl", "misreport_ftl"])
@pytest.mark.parametrize("name", list(_ADVERSARIES))
def test_a_run_plays_the_same_strategies_foreseen_or_round_by_round(monkeypatch, name,
                                                                    misreport):
    grid, T = BidGrid(4, 0.2), 300
    F = EqualRevenue(0.1) if name == "decreasing" else Uniform()

    def make():
        lrn = MeanBasedBucketBidder(grid, 64)
        return (MisreportingBidder(lrn, _QUARTER) if misreport else lrn), lrn

    foreseen, inner = make()
    (rows, rounds), tr = _plays(monkeypatch, grid, F, foreseen, _ADVERSARIES[name](), T)
    assert sum(rounds) == T and len(rounds) > 1  # more than one strategy was played
    assert inner._chunk < T  # and more than one pass
    replay, ref_inner = make()
    want, ref = _plays(monkeypatch, grid, F, replay, _adaptive(tr.h_index), T)
    assert (rows, rounds) == want
    assert ref.h_index == tr.h_index
    assert ref.exp_utility == tr.exp_utility and ref.exp_revenue == tr.exp_revenue
    _assert_same_learner(inner, ref_inner)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_horizons_at_the_chunk_boundary(offset):
    grid = BidGrid(4, 0.2)
    n = MeanBasedBucketBidder(grid, 64)._chunk
    assert n == learners._CHUNK_CELLS // (64 * 5)
    hs = make_rng(7).integers(0, 5, size=n + offset).tolist()
    _check_sequence(grid, 64, hs)
    _check_sequence(grid, 64, hs * 3)  # and across passes


def test_ties_between_bids_break_toward_the_smaller_bid():
    # K=4, eps=0.125, four buckets: midpoints 1/8 and 3/8 equal bids 1 and 3,
    # so those bids tie with bid 0 and bid 2 at their buckets round after round
    grid = BidGrid(4, 0.125)
    lrn = MeanBasedBucketBidder(grid, 4)
    assert {0.125, 0.375} <= set(lrn._mids.tolist()) & set(grid.bids)
    for seed in range(20):
        rng = make_rng(seed)
        hs = rng.integers(0, 5, size=int(rng.integers(1, 3000))).tolist()
        _check_sequence(grid, 4, hs)
    rows, _ = _rows(MeanBasedBucketBidder(grid, 4), [1, 1, 2, 2, 3, 0, 0], True)
    assert rows[0][0] == 0  # bucket 0 ties bids 0 and 1 at 0.0
    assert rows[-1][0] == 0


def test_seeded_fuzz_across_grids_and_bucket_counts():
    rng = make_rng(33)
    for _ in range(60):
        K = int(rng.integers(1, 9))
        grid = BidGrid(K, float(rng.choice([0.05, 1.0 / 8, 1.0 / K])))
        buckets = int(rng.choice([1, 2, 3, 7, 64, 300, 1000]))
        chunk = MeanBasedBucketBidder(grid, buckets)._chunk
        T = int(rng.integers(1, min(3 * chunk + 3, 800)))
        p = rng.dirichlet(np.ones(K + 1))
        _check_sequence(grid, buckets, rng.choice(K + 1, size=T, p=p).tolist())


@settings(derandomize=True, max_examples=120, deadline=None)
@given(data=st.data(), K=st.integers(1, 8), buckets=st.integers(1, 400))
def test_foreseen_passes_equal_one_row_passes(data, K, buckets):
    grid = BidGrid(K, 1.0 / K)
    chunk = MeanBasedBucketBidder(grid, buckets)._chunk
    T = data.draw(st.integers(1, min(3 * chunk + 2, 400)))
    hs = data.draw(st.lists(st.integers(0, K), min_size=T, max_size=T))
    _check_sequence(grid, buckets, hs)


def test_a_reused_learner_continues_from_its_table_and_round():
    grid, F = BidGrid(4, 0.2), Uniform()
    lrn, ref = MeanBasedBucketBidder(grid, 64), MeanBasedBucketBidder(grid, 64)
    tr1 = run_single_buyer(grid, F, lrn, StochasticCompetition((0.1, 0.1, 0.2, 0.3, 0.3)),
                           130, seed=1, check_steps=False, benchmark="final")
    tr2 = run_single_buyer(grid, F, lrn, DecreasingReserve(40, 4, 0), 75, seed=2,
                           check_steps=False, benchmark="final")
    assert lrn.t == 206
    _rows(ref, tr1.h_index + tr2.h_index, False)
    _assert_same_learner(lrn, ref)
    # a third, round-by-round run picks up after the two foreseen ones
    run_single_buyer(grid, F, lrn, _adaptive([2] * 9), 9, check_steps=False,
                     benchmark="final")
    _rows(ref, [2] * 9, False)
    _assert_same_learner(lrn, ref)


@pytest.mark.parametrize("t", [1, 2, 51, 52, 120])
def test_an_h_that_differs_from_the_foreseen_one_is_refused(t):
    grid = BidGrid(4, 0.2)
    hs = make_rng(5).integers(0, 4, size=150).tolist()
    lrn, ref = MeanBasedBucketBidder(grid, 64), MeanBasedBucketBidder(grid, 64)
    lrn.foresee(hs)
    _rows(ref, hs[:t - 1], False)
    for h in hs[:t - 1]:
        lrn.observe(h)
    with pytest.raises(ValueError, match=rf"^observed h=4 at t={t}, but h={hs[t - 1]} "
                                         "was foreseen$"):
        lrn.observe(4)
    _assert_same_learner(lrn, ref)  # the refused round changed nothing
    lrn.observe(hs[t - 1])  # the foreseen h still plays
    ref.observe(hs[t - 1])
    _assert_same_learner(lrn, ref)


def test_a_misreporting_learner_forwards_the_sequence():
    grid = BidGrid(4, 0.2)
    lrn = MisreportingBidder(MeanBasedBucketBidder(grid, 64), _QUARTER)
    lrn.foresee([3, 1])
    with pytest.raises(ValueError, match="^observed h=2 at t=1, but h=3 was foreseen$"):
        lrn.observe(2)


def test_a_foresee_at_the_table_cap_allocates_one_round_at_a_time(monkeypatch):
    # 256 bids x 65,536 buckets: the 2**24-cell cap, where a fixed chunk of
    # 64 rounds would ask for 8 GiB; each pass must fit max(budget, one round)
    grid = BidGrid(255, 1.0 / 256)
    lrn = MeanBasedBucketBidder(grid, 2**16)
    assert lrn._chunk == 1
    limit = max(learners._CHUNK_CELLS, 2**24)
    asked = []

    def where(cond, x, y, _real=np.where):
        size = int(np.prod(np.broadcast_shapes(np.shape(cond), np.shape(x), np.shape(y))))
        asked.append(size)
        assert size <= limit, f"np.where of {size} cells"
        return _real(cond, x, y)

    def empty(shape, *args, _real=np.empty, **kwargs):
        assert np.prod(shape) <= limit, f"np.empty({shape!r})"
        return _real(shape, *args, **kwargs)

    monkeypatch.setattr(np, "where", where)
    monkeypatch.setattr(np, "empty", empty)
    lrn.foresee([255, 0, 7])
    lrn.observe(255)
    lrn.observe(0)
    assert asked == [2**24, 2**24]
    assert lrn.t == 3
    # bid 0 gains a midpoint each round and stays the first maximum
    assert set(lrn.strategy().bids_per_bucket) == {0}


class _PreparedMixed(Adversary):
    """An oblivious adversary of the library's own making whose h_2 is no index."""

    def prepare(self, T, K, rng):
        self._h = [1, "x"] + [0] * (T - 2)


def test_a_prepared_sequence_that_is_no_index_fails_at_its_round():
    # the learner foresees nothing, and the run loop's own check names the round
    lrn = MeanBasedBucketBidder(BidGrid(4, 0.2), 8)
    with pytest.raises(ValueError, match=r"^adversary returned h='x' at t=2 is not a grid index"):
        run_single_buyer(BidGrid(4, 0.2), Uniform(), lrn, _PreparedMixed(), 5)
    assert lrn.t == 2
