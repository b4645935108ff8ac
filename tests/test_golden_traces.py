"""Golden digests of ``fpa-bench run`` outputs.

Each case runs one config at one seed and hashes ``trace_rep0.csv`` and
``summary.json`` with its ``wall_time_s`` removed.  The configs are the
benchmark's single_trace and oracle_path jobs, three sampled runs and three
misreporting learners on an equal-revenue prior.  The multi-buyer cases
hash the repr of every ``MultiBuyerResult`` field instead.  A change that
moves a digest moves a trace or a summary, and must say which and why.
"""

import hashlib
import json
import math

import pytest

from conftest import count_plays
from fpabench import cli, learners, metrics
from fpabench.cli import main as cli_main
from fpabench.distributions import EqualRevenue, Uniform
from fpabench.environments import run_multi_buyer
from fpabench.grids import BidGrid
from fpabench.learners import FixedStrategyBidder, ThresholdBidder, default_eta_threshold
from fpabench.projection import _verify_block_optimality, project_oracle

_K4 = "grid: {K: 4, eps: 0.2}\ndist: uniform\n"
_ST_TAIL = ("adversary: stochastic(0.3,0.25,0.2,0.15,0.1)\nT: 1500\n"
            "benchmark: per-round\nchecks: true\nreplications: 1\n")
_OP_TAIL = ("adversary: stochastic(0.2,0.15,0.12,0.1,0.1,0.09,0.08,0.08,0.08)\n"
            "T: 600\nbenchmark: final\nreplications: 1\n")
_IRREGULAR8 = ("grid: {bids: [0, 0.05, 0.12, 0.2, 0.3, 0.42, 0.55, 0.7, 0.85]}\n"
               "dist: uniform\n")
_QUARTER = "map=0:0;0.5:0.5;0.5:0.25;1:0.25"

CONFIGS = {
    "single_trace_alg1": _K4 + "learner: alg1\n" + _ST_TAIL,
    "single_trace_alg2": _K4 + "learner: alg2\n" + _ST_TAIL,
    "single_trace_ftl": _K4 + "learner: ftl(buckets=64)\n" + _ST_TAIL,
    "oracle_path_lazyftrl": ("grid: {K: 8, eps: 0.1}\ndist: uniform\nlearner: lazyftrl\n"
                             + _OP_TAIL),
    "oracle_path_alg1_irregular": _IRREGULAR8 + "learner: alg1\n" + _OP_TAIL,
    "sampled_alg2": _K4 + "learner: alg2\n" + _ST_TAIL + "mode: sampled\n",
    "sampled_alg1": _K4 + "learner: alg1\n" + _ST_TAIL + "mode: sampled\n",
    "sampled_lazyftrl": ("grid: {K: 8, eps: 0.1}\ndist: uniform\nlearner: lazyftrl\n"
                         + _OP_TAIL + "mode: sampled\n"),
    "misreport_ftl_equirev": (f"preset: example52(T=1500)\n"
                              f"learner: misreport(ftl(buckets=64), {_QUARTER})\n"),
    "misreport_alg2_equirev": ("grid: {K: 4, eps: 0.2}\ndist: equirev(0.1)\n"
                               f"learner: misreport(alg2, {_QUARTER})\n"
                               "adversary: stochastic(0.3,0.25,0.2,0.15,0.1)\nT: 1500\n"),
    "misreport_alg1_equirev": ("grid: {K: 4, eps: 0.2}\ndist: equirev(0.1)\n"
                               f"learner: misreport(alg1, {_QUARTER})\n"
                               "adversary: stochastic(0.3,0.25,0.2,0.15,0.1)\nT: 1500\n"),
}

# (config, seed) -> (sha256 of trace_rep0.csv, sha256 of summary.json
# without wall_time_s), recorded at commit 0516a0e; the sampled alg1 and
# lazyftrl runs and misreport(alg1) at commit 1c51863, before those runs
# were logged by their learners' state rows
DIGESTS = {
    ("single_trace_alg1", 4242): (
        "db891b923582e6865482c724c26461f3b6daabf2de0fe0184096e54710f4ac34",
        "7411d1a2aa8a1b9f3f9fbd8ea611abca5fbad4fd032e4e14c38e6beeb37a778e"),
    ("single_trace_alg1", 7): (
        "d7bee8921ca3193b0e148332978b8f81e4fe4d34d15a131c8fc1b9d20eba2559",
        "5b8b8ad1f742394436b5b7380c3ca8c7310d3a09abd2bd45af760aec86a21ad2"),
    ("single_trace_alg1", 99): (
        "5745f6a059f9a52748f716e1fc2be4e75c3ae9eaa1ae0a2309ca8afa8865fcea",
        "b4827b11ea50c54056381937b9a37520bbc2ec496a195972ee79f144642dfaf3"),
    ("single_trace_alg2", 4242): (
        "0a0903c20dc590a272a74031522de6ba8059f803eceddb5d601daf2d84174a18",
        "131af6e34c489f45789c757d631b9aeb04ee22bb5d15d33aaa5bdd38471d6dd8"),
    ("single_trace_alg2", 7): (
        "264091fba4af05f7dfaa634321493de4243996f61f8b8404077fdd4f6587e750",
        "56dd89605bf0885b6dd177b2d41e64521c7244be07ea9470b8b1aa3750727a2d"),
    ("single_trace_alg2", 99): (
        "ae956cb66432efe6b1ee7ba01673738751137a4f41560d35a17691f96670e6e8",
        "5b673b95da9eb0e8c8ce1248c0b813778402a84e423535bf7a2834a27cc528ad"),
    ("single_trace_ftl", 4242): (
        "bbdbf5d065576b7298688c718e8c073c843055d200af9501e7a4b40d53e43418",
        "1bf9f5a6ca7d521aa5d21bec38c2a4a49e498a1ac38eca4e48eafe57e823209c"),
    ("single_trace_ftl", 7): (
        "4dd90f94a566b367e97af115e60893a0477fd87710062d06f1e227dbd0251c54",
        "fe8d3051dff263dbc74ffb5368afab6f6e26ab5ea1c5a196dcd30c3ed778f3fb"),
    ("single_trace_ftl", 99): (
        "557fda59e006b2ccdb244d88e44096df59603f2f237a1d0f15c047cd07bb3428",
        "1f1b266030645892bfc2f32b370f4ccd2df9cb0a59958753e490119f1c8e7f67"),
    ("oracle_path_lazyftrl", 4242): (
        "ebefd60e4fd7bf65e449d80317f25cd10bc1c5e4347a3a87f5dd436ade1b3dcf",
        "69e94d6c6f22f168401a9d54280c5bdf15a624573418d35a378ae318dad2d35c"),
    ("oracle_path_lazyftrl", 7): (
        "643b747fbe0c46a0c37feeefd175aeba76a1e4036e08660562546a4a93157982",
        "74d31b300579f326ebb96f0547ac3ca6e86054da643130d326054a668aaa39b2"),
    ("oracle_path_lazyftrl", 99): (
        "5a9411ed79ee63188f83e3452c2061c0aafb6b335ac8b9335a88b2992bc1001e",
        "b6f6808239f7f0b3f701123b6acc76359c3bde46cb5b55251c8db84f45bee701"),
    ("oracle_path_alg1_irregular", 4242): (
        "38b35cf730719b3c4d9918db456d575d07edb8e7bd7c6c168abcf08d44f44b50",
        "af08bc5847b161739349fb3d8dca3089dc7338df2473629d866d2a955fbc15fb"),
    ("oracle_path_alg1_irregular", 7): (
        "9466e1e87134eeebc148c291d196e84bf149ff1e8c92a5522c5146e30840931d",
        "a507afaf85a67fa39842e0bc5cb76273a0836f7ec9849999a55e99562ac14457"),
    ("oracle_path_alg1_irregular", 99): (
        "c1e237d5385a341d751f4b0ebdccbe0b05bfd9d0f8f68fd70561d3042119142b",
        "785c511148f452b7a3d0b6914015f4efaa291b4416fbdde83ff978a2b2387afa"),
    ("sampled_alg2", 4242): (
        "3c64b9155f6a42b149c3b3321a76c521d82d5cbca4abb4d2e47f83b57eb855dc",
        "131af6e34c489f45789c757d631b9aeb04ee22bb5d15d33aaa5bdd38471d6dd8"),
    ("misreport_ftl_equirev", 7): (
        "891b7f85f1c7daad7c5369f8e55665236a2f737eeebabea678ccc4aea6eb34cc",
        "0261efc6279a75d82525025ba9d9f602c8d19e852bcde98049cbe0136bd183c9"),
    ("misreport_alg2_equirev", 99): (
        "f47ad9fb20d4d57bf836dbcb19b5bd4902e759ce779defdb9ebd12c2252db9f9",
        "8682d3298c9d2f0e6e977d8b7b43c21669866bf6d4f1ce2483baeb20e65e882a"),
    ("sampled_alg1", 4242): (
        "6eddee766e7e1143ad3d10625ed47becad733ac8cf25704f7f7a67ffbf326b7c",
        "7411d1a2aa8a1b9f3f9fbd8ea611abca5fbad4fd032e4e14c38e6beeb37a778e"),
    ("sampled_alg1", 7): (
        "c93fb0e1cebaadda8fb15cc433cf51b7891985dbe6b1655f79eeed24fe72822b",
        "5b8b8ad1f742394436b5b7380c3ca8c7310d3a09abd2bd45af760aec86a21ad2"),
    ("sampled_lazyftrl", 4242): (
        "e11a064b822d4d7641f490718d5acd6dde0e7ccadcb36c65bad6d306ac9f451c",
        "69e94d6c6f22f168401a9d54280c5bdf15a624573418d35a378ae318dad2d35c"),
    ("sampled_lazyftrl", 99): (
        "69e8bb4963ee8e45818a4ab0d239baf0652fbf9017a1db413b299e9ad4eee7c8",
        "b6f6808239f7f0b3f701123b6acc76359c3bde46cb5b55251c8db84f45bee701"),
    ("misreport_alg1_equirev", 7): (
        "5c83cb0aba10db1412aa3e947ebfac62a2462beee574c1e46d1396a7647eb9d9",
        "22e909daca7ec2d59da1a3a4a80d7d75a3534b66591537937fc0eeb4fc3db412"),
    ("misreport_alg1_equirev", 99): (
        "c45964e832d5f4848937699c868d7e2ad5cdd019545514e5f4608113d1bac366",
        "77fb1ade713bd8a1a046417a21b544233d7d700b7cef387c5d80529b8d2f5cbc"),
}


def run_digests(tmp_path, name, seed):
    cfg = tmp_path / f"{name}.yaml"
    cfg.write_text(CONFIGS[name])
    out = tmp_path / f"{name}-{seed}"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out),
                     "--seed", str(seed)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    for rep in summary["replications"]:
        del rep["wall_time_s"]
    return (hashlib.sha256((out / "trace_rep0.csv").read_bytes()).hexdigest(),
            hashlib.sha256(json.dumps(summary, indent=2).encode()).hexdigest())


@pytest.mark.parametrize("name,seed", list(DIGESTS), ids=[f"{n}-{s}" for n, s in DIGESTS])
def test_golden_trace_digests(tmp_path, name, seed):
    assert run_digests(tmp_path, name, seed) == DIGESTS[name, seed]


_SUM_CASES = [("single_trace_alg1", 4242), ("single_trace_alg2", 7),
              ("single_trace_ftl", 99), ("misreport_ftl_equirev", 7),
              ("misreport_alg2_equirev", 99)]


@pytest.mark.parametrize("name,seed", _SUM_CASES, ids=[f"{n}-{s}" for n, s in _SUM_CASES])
def test_golden_digests_do_not_depend_on_the_builtin_sum(tmp_path, monkeypatch, name, seed):
    # Python 3.12's sum() compensates and 3.11's does not: a summary total
    # taken with the builtin would move with the interpreter
    for module in (cli, metrics):
        monkeypatch.setattr(module, "sum", math.fsum, raising=False)
    assert run_digests(tmp_path, name, seed) == DIGESTS[name, seed]


# (config, seed) -> plays of the run (``count_plays``): a gradient or lazy
# learner rebuilds its strategy only when p changes, so a round that leaves p
# as it was repeats the previous play (alg1 moves p in nearly every round).
# Both are logged by their state rows.
PLAYS_ENTRIES = {
    ("oracle_path_lazyftrl", 4242): 384,
    ("oracle_path_lazyftrl", 7): 356,
    ("oracle_path_lazyftrl", 99): 369,
    ("single_trace_alg1", 4242): 1500,
    ("single_trace_alg1", 99): 1498,
}


@pytest.mark.parametrize("name,seed", list(PLAYS_ENTRIES),
                         ids=[f"{n}-{s}" for n, s in PLAYS_ENTRIES])
def test_golden_plays_entry_counts(tmp_path, monkeypatch, name, seed):
    sizes = count_plays(monkeypatch)
    cfg = tmp_path / f"{name}.yaml"
    cfg.write_text(CONFIGS[name])
    assert cli_main(["run", "--config", str(cfg), "--seed", str(seed)]) == 0
    assert sizes == [PLAYS_ENTRIES[name, seed]]


# the golden runs whose learners project through the oracle in every round
_ORACLE_RUNS = [(n, s) for n, s in DIGESTS
                if n in ("oracle_path_lazyftrl", "oracle_path_alg1_irregular",
                         "sampled_lazyftrl")]


@pytest.mark.parametrize("name,seed", _ORACLE_RUNS, ids=[f"{n}-{s}" for n, s in _ORACLE_RUNS])
def test_golden_oracle_runs_project_to_certified_points(tmp_path, monkeypatch, name, seed):
    # project_oracle returns PAV unchecked; every projection these runs make
    # must still pass the KKT certificate, one per round
    calls = []

    def spy(poly, q):
        q = list(q)
        x = project_oracle(poly, q)
        calls.append((poly, q, list(x)))
        return x

    monkeypatch.setattr(learners, "project_oracle", spy)
    cfg = tmp_path / f"{name}.yaml"
    cfg.write_text(CONFIGS[name])
    assert cli_main(["run", "--config", str(cfg), "--seed", str(seed)]) == 0
    assert len(calls) == 600  # _OP_TAIL's horizon
    for poly, q, x in calls:
        _verify_block_optimality(poly, q, x)


# ---------------------------------------------------------------------------
# multi-buyer runs through the library API

_MB_GRID = BidGrid(4, 0.125)
_MB_EQUIREV = EqualRevenue(0.1)


def _benchmark_job():
    # the shape of the benchmark's multi_buyer job: criterion 10 at T=2500
    eta = default_eta_threshold(1.0, 2500)
    return (_MB_GRID, [Uniform()] * 3, [ThresholdBidder(_MB_GRID, eta) for _ in range(3)],
            4, 2500)


MULTI_CONFIGS = {
    "multi_buyer_job": _benchmark_job,
    "multi_fixed_ties": lambda: (
        BidGrid(2, 0.25), [Uniform()] * 3,
        [FixedStrategyBidder(BidGrid(2, 0.25), (0.25, 1.0)) for _ in range(3)], 0, 2000),
    "multi_threshold_fixed_mix": lambda: (
        _MB_GRID, [Uniform(), _MB_EQUIREV, Uniform(), _MB_EQUIREV],
        [ThresholdBidder(_MB_GRID, 0.03), FixedStrategyBidder(_MB_GRID, (0.25, 0.5, 0.5, 0.75)),
         ThresholdBidder(_MB_GRID, 0.01), FixedStrategyBidder(_MB_GRID, (0.2, 0.4, 1.0, 1.0))],
        [t % 5 for t in range(1500)], 1500),
}

# (config, seed) -> sha256 of the repr of the six MultiBuyerResult fields,
# recorded at commit 44da525
MULTI_DIGESTS = {
    ("multi_buyer_job", 0):
        "c80c74777be6645e3eccd58488cd93f546f3505076e05d6d83ed9787409c7fb0",
    ("multi_buyer_job", 7):
        "1934722cfdc9e6f3bc3bcced4f8892dc60bb8ecd26054b10cb128d02fb4c6711",
    ("multi_buyer_job", 99):
        "7ee5c3ee7b93666553c79d55e8e945a86592ff92ed32f53f1adbeee23ef58a1e",
    ("multi_fixed_ties", 4242):
        "885420725112b2b97fc2871b104087ea4d99d8b8f9f9188245ce2e5eeff3ab89",
    ("multi_threshold_fixed_mix", 7):
        "997d1e494d1ea232bd162999a3062a9331bec4397731adff88da80d07eaac17f",
}


def multi_digest(name, seed):
    grid, dists, learners, reserve, T = MULTI_CONFIGS[name]()
    res = run_multi_buyer(grid, dists, learners, reserve, T, seed=seed)
    fields = (res.revenue, res.h_index, res.values, res.bid_index, res.utility, res.winner)
    return hashlib.sha256(repr(fields).encode()).hexdigest()


@pytest.mark.parametrize("name,seed", list(MULTI_DIGESTS),
                         ids=[f"{n}-{s}" for n, s in MULTI_DIGESTS])
def test_golden_multi_buyer_digests(name, seed):
    assert multi_digest(name, seed) == MULTI_DIGESTS[name, seed]
