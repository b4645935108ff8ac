"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Run from the root of a checkout: the program is imported from ``src/``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_self_time_on_a_synthetic_span_tree():
    # 0 root [0,100] with children 1 a [10,30] and 2 b [40,80];
    # 5 e [15,25] under a; 3 c [45,50] and 4 d [55,75] under b
    start = [0, 10, 40, 45, 55, 15]
    end = [100, 30, 80, 50, 75, 25]
    parent = [-1, 0, 0, 2, 2, 1]
    got = tracer.self_times(start, end, parent)
    # root: 100 - 20 - 40; a: 20 - 10; b: 40 - 5 - 20
    assert list(got) == [40.0, 10.0, 15.0, 5.0, 20.0, 10.0]

    n = len(tracer.SPAN_NAMES)
    names = [0, 1, 1, 2, 2, n - 1]
    stats = tracer.summarize({"name": names, "start": start, "end": end, "parent": parent})
    first, second, third = tracer.SPAN_NAMES[:3]
    assert stats[first] == (1, 40e-9)
    assert stats[second] == (2, 25e-9)
    assert stats[third] == (2, 25e-9)
    assert stats[tracer.SPAN_NAMES[-1]] == (1, 10e-9)
    assert stats[tracer.SPAN_NAMES[5]] == (0, 0.0)


def test_traced_counts_repeat_exactly_at_one_seed(tmp_path):
    import fpabench.learners
    original = fpabench.learners.ga_step_probabilities
    runs = []
    for k in range(2):
        wl = workloads.make("oracle_path")
        (tmp_path / str(k)).mkdir()
        wl.prepare(tmp_path / str(k))
        runs.append(worker.traced_run(wl, seed=3, count=2, reference=[]))
    assert fpabench.learners.ga_step_probabilities is original

    counts = [{k: v for k, v in r["metrics"].items() if k.endswith(".calls")} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["projection.project_oracle.calls"] == 2 * wl.T
    assert counts[0]["cli.main.calls"] == 2
    assert all(not rec["problems"] for r in runs for rec in r["records"])

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(runs[0]["metrics"]) == {m["name"] for m in spec["per_layer"]}


def test_a_job_that_raises_is_counted_and_the_run_goes_on(tmp_path, monkeypatch):
    wl = workloads.make("multi_buyer")
    wl.prepare(tmp_path)
    execute = wl.execute

    def flaky(job):
        if job.index == 1:
            raise ValueError("injected failure")
        return execute(job)

    monkeypatch.setattr(wl, "execute", flaky)
    records = worker.run_jobs(wl, workloads.plan(1, wl.learners, 3), reference=[])
    assert [bool(r["problems"]) for r in records] == [False, True, False]
    assert "injected failure" in records[1]["problems"][0]

    values, sizes = run.end_to_end(wl, [0.5], {"records": records, "peak_rss_mb": 1.0})
    assert sizes["failed_frac"] == pytest.approx(1 / 3)
    assert values["rounds_per_s"] > 0


def test_reference_totals_catch_a_drift(tmp_path):
    wl = workloads.make("multi_buyer")
    wl.prepare(tmp_path)
    job = workloads.plan(workloads.DEFAULT_SEED, wl.learners, 1)[0]
    recorded = workloads.load_reference("multi_buyer", workloads.DEFAULT_SEED)[0]
    revenue = wl.execute(job)
    assert wl.verify(job, revenue, recorded).problems == []
    drifted = [None, recorded[1] * (1 + 1e-8)]
    assert wl.verify(job, revenue, drifted).problems


def test_design_record_covers_every_workload_and_layer_metric():
    from fnmatch import fnmatch
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    design = json.loads((BENCH / "design.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(design["workloads"])
    assert set(workloads.NAMES) == set(design["workloads"])
    patterns = [p for row in design["per_layer"] for p in row["metrics"]]
    unmatched = [m["name"] for m in spec["per_layer"]
                 if not any(fnmatch(m["name"], p) for p in patterns)]
    assert unmatched == []
