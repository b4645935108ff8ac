"""The benchmark's workloads: job plans, job execution and output checks.

A job is one experiment: one seed and one learner.  Each workload is a
closed loop of jobs run back to back by one client.  The job seeds come
from the workload seed, so the same seed gives the same jobs; the program
receives only the configs and seeds generated here.

``fpabench`` is imported inside the functions, never at module level, so
that a fresh interpreter can time its own import of the package as part
of set-up.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
REFERENCE_FILE = Path(__file__).with_name("reference_totals.json")
SLACK_FLOOR = -1e-8      # per-step robustness slack below this is a failure
REFERENCE_RTOL = 1e-9    # allowed relative drift from the recorded totals


@dataclass(frozen=True)
class Job:
    index: int
    seed: int
    learner: str


@dataclass
class Outcome:
    """What a finished job produced, as read back by the checks."""

    problems: list
    regret: float | None = None
    revenue_total: float | None = None
    bytes_written: int = 0


def job_stream(seed: int, learners):
    """The endless job sequence of a workload under ``seed``; learners cycle."""
    rng = random.Random(seed)
    for i in itertools.count():
        yield Job(i, rng.getrandbits(32), learners[i % len(learners)])


def plan(seed: int, learners, count: int):
    """The first ``count`` jobs of ``job_stream``."""
    return list(itertools.islice(job_stream(seed, learners), count))


def _compare(problems, label, got, want):
    if want is None:
        return
    if got is None or not math.isclose(got, want, rel_tol=REFERENCE_RTOL, abs_tol=0.0):
        problems.append(f"{label} {got!r} differs from the recorded {want!r}")


class CliWorkload:
    """``fpa-bench run`` jobs, one replication each, called in-process.

    One replication keeps ``fpa-bench run`` in the calling process: it
    starts no worker pool.  Every job writes its CSV trace and
    ``summary.json`` into one scratch directory, overwritten job by job.
    """

    buyers = 1

    def __init__(self, name: str, configs: dict, T: int):
        self.name = name
        self.configs = configs          # learner label -> YAML text
        self.learners = tuple(configs)
        self.T = T
        self._paths = {}
        self._out = None

    def config_text(self, job: Job) -> str:
        return self.configs[job.learner] + f"seed: {job.seed}\n"

    def setup(self, jobs) -> None:
        """What a user does before the first job: parse, build, prepare."""
        import fpabench
        import fpabench.cli  # noqa: F401  (the entry point every job runs)
        for job in jobs:
            cfg = fpabench.parse_config(self.config_text(job))
            cfg.make_learner()
            cfg.make_adversary().prepare(
                cfg.T, cfg.grid.K,
                fpabench.rng.stream_rng(cfg.seed, fpabench.rng.ADVERSARY))

    def prepare(self, scratch: Path) -> None:
        """Write the config files and pick the output directory (untimed)."""
        for label, text in self.configs.items():
            path = scratch / f"{self.name}-{label}.yaml"
            path.write_text(text)
            self._paths[label] = str(path)
        self._out = scratch / f"{self.name}-out"

    def execute(self, job: Job):
        import fpabench.cli
        with contextlib.redirect_stdout(io.StringIO()):
            return fpabench.cli.main(["run", "--config", self._paths[job.learner],
                                      "--out", str(self._out),
                                      "--seed", str(job.seed)])

    def verify(self, job: Job, rc, reference) -> Outcome:
        if rc != 0:
            return Outcome([f"fpa-bench run exited {rc}"])
        summary_path = self._out / "summary.json"
        csv_path = self._out / "trace_rep0.csv"
        rep = json.loads(summary_path.read_text())["replications"][0]
        out = Outcome([], rep["regret"], rep["revenue_total"],
                      summary_path.stat().st_size + csv_path.stat().st_size)
        if rep["seed"] != job.seed or rep["T"] != self.T:
            out.problems.append("summary.json describes another job")
        kind = rep["kind"]
        if kind in ("alg1", "alg2"):
            cap = rep["bounds"][f"regret_cap_{kind}"]
            if not rep["regret"] <= cap:
                out.problems.append(f"regret {rep['regret']} breaks the {kind} cap {cap}")
        if rep["min_slack"] is not None and rep["min_slack"] < SLACK_FLOOR:
            out.problems.append(f"min_slack {rep['min_slack']} below {SLACK_FLOOR}")
        if reference is not None:
            _compare(out.problems, "regret", out.regret, reference[0])
            _compare(out.problems, "revenue_total", out.revenue_total, reference[1])
        return out


class MultiBuyerWorkload:
    """Criterion-10 jobs through the library API: n threshold bidders."""

    name = "multi_buyer"
    learners = ("alg2",)
    buyers = 3
    K = 4
    eps = 0.125
    reserve = 4

    def __init__(self, T: int):
        self.T = T
        self._cap = None

    def _learners(self):
        import fpabench
        grid = fpabench.BidGrid(self.K, self.eps)
        F = fpabench.Uniform()
        eta = fpabench.default_eta_threshold(F.density_bound, self.T)
        return grid, F, [fpabench.ThresholdBidder(grid, eta) for _ in range(self.buyers)]

    def setup(self, jobs) -> None:
        for _ in jobs:
            self._learners()

    def prepare(self, scratch: Path) -> None:
        """Compute the criterion-10 revenue cap once (untimed)."""
        import fpabench
        opt = fpabench.optimal_multi_buyer_revenue([fpabench.Uniform()] * self.buyers)
        self._cap = opt * self.T + 8.0 * self.buyers * self.K * math.sqrt(self.T)

    def execute(self, job: Job):
        import fpabench
        grid, F, learners = self._learners()
        res = fpabench.run_multi_buyer(grid, [F] * self.buyers, learners,
                                       self.reserve, self.T, seed=job.seed)
        return sum(res.revenue)

    def verify(self, job: Job, revenue, reference) -> Outcome:
        out = Outcome([], None, revenue)
        if not revenue <= self._cap:
            out.problems.append(f"revenue {revenue} breaks the criterion-10 cap {self._cap}")
        if reference is not None:
            _compare(out.problems, "revenue_total", revenue, reference[1])
        return out


_K4 = "grid: {K: 4, eps: 0.2}\ndist: uniform\n"
_ST_TAIL = ("adversary: stochastic(0.3,0.25,0.2,0.15,0.1)\nT: 1500\n"
            "benchmark: per-round\nchecks: true\nreplications: 1\n")
_OP_TAIL = ("adversary: stochastic(0.2,0.15,0.12,0.1,0.1,0.09,0.08,0.08,0.08)\n"
            "T: 600\nbenchmark: final\nreplications: 1\n")
_IRREGULAR8 = "grid: {bids: [0, 0.05, 0.12, 0.2, 0.3, 0.42, 0.55, 0.7, 0.85]}\ndist: uniform\n"


def make(name: str):
    """A fresh workload object by name (each holds per-run scratch state)."""
    if name == "single_trace":
        return CliWorkload(name, {
            "alg1": _K4 + "learner: alg1\n" + _ST_TAIL,
            "alg2": _K4 + "learner: alg2\n" + _ST_TAIL,
            "ftl": _K4 + "learner: ftl(buckets=64)\n" + _ST_TAIL,
        }, T=1500)
    if name == "oracle_path":
        return CliWorkload(name, {
            "lazyftrl": "grid: {K: 8, eps: 0.1}\ndist: uniform\nlearner: lazyftrl\n" + _OP_TAIL,
            "alg1": _IRREGULAR8 + "learner: alg1\n" + _OP_TAIL,
        }, T=600)
    if name == "multi_buyer":
        return MultiBuyerWorkload(T=2500)
    raise KeyError(name)


NAMES = ("single_trace", "multi_buyer", "oracle_path")


def load_reference(name: str, seed: int):
    """Totals recorded at the seed commit, for the default seed only."""
    if seed != DEFAULT_SEED:
        return []
    return json.loads(REFERENCE_FILE.read_text())["workloads"].get(name, [])
