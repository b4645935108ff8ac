"""One fresh interpreter of the benchmark: set-up, timed loop or traced run.

``run.py`` starts this script with ``src`` on ``PYTHONPATH`` and reads the
JSON it writes to ``--out``.  Modes:

* ``setup``   time the import of fpabench plus the set-up of the first
              jobs, and nothing else;
* ``timed``   the same set-up, then jobs back to back until ``--seconds``
              have passed, tracing off;
* ``traced``  a fixed number of jobs, run once plainly and once with
              every layer boundary traced, then single-call timings.

Only the standard library is imported before the set-up clock starts, so
the import of fpabench (and of numpy under it) is part of ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads

SETUP_JOBS = 100          # jobs prepared by one set-up measurement


def measure_setup(wl, seed: int) -> float:
    t0 = time.perf_counter()
    import fpabench  # noqa: F401
    wl.setup(workloads.plan(seed, wl.learners, SETUP_JOBS))
    return time.perf_counter() - t0


def _failure(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def run_jobs(wl, jobs, reference, deadline=None, tracer=None):
    """Run jobs back to back; a job that fails is recorded and the loop goes on.

    Only ``execute`` is timed.  ``verify`` reads the outputs back and
    checks them afterwards.  With a deadline, no job starts after it.
    """
    records = []
    for job in jobs:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if tracer is not None:
            tracer.begin_job(job.index)
        ref = reference[job.index] if job.index < len(reference) else None
        t0 = time.perf_counter()
        try:
            result = wl.execute(job)
        except (Exception, SystemExit) as exc:
            seconds = time.perf_counter() - t0
            out = workloads.Outcome([_failure(exc)])
        else:
            seconds = time.perf_counter() - t0
            try:
                out = wl.verify(job, result, ref)
            except Exception as exc:
                out = workloads.Outcome([f"outputs unreadable: {_failure(exc)}"])
        records.append({"index": job.index, "learner": job.learner,
                        "seconds": seconds, "problems": out.problems,
                        "bytes": out.bytes_written, "ref_checked": ref is not None,
                        "totals": [out.regret, out.revenue_total]})
    return records


def rate(wl, records) -> float:
    """Buyer-rounds of the jobs that passed, per second of timed job wall time."""
    done = sum(1 for r in records if not r["problems"])
    return done * wl.T * wl.buyers / sum(r["seconds"] for r in records)


def micro_timings() -> dict:
    """Single-call costs of the hot functions, untraced (the ROADMAP baseline rows)."""
    import fpabench as fp
    grid = fp.BidGrid(4, 0.2)
    F = fp.Uniform()
    p = [0.7, 0.5, 0.3, 0.1]
    v = [0.3, 0.5, 0.7, 0.9]
    d = (0.3, 0.25, 0.2, 0.15, 0.1)
    strat = fp.ThresholdStrategy(grid, tuple(v))
    poly8 = fp.probability_polytope(fp.BidGrid(8, 0.1), F)
    # gradient-step points for K=8: pooling, capping and clipping all occur
    q8 = [[0.95, 0.7, 0.74, 0.5, 0.31, 0.35, 0.1, -0.02],
          [0.6, 0.62, 0.64, 0.4, 0.45, 0.2, 0.05, 0.06],
          [1.1, 0.85, 0.6, 0.65, 0.3, 0.1, 0.12, -0.1]]
    cases = {
        "projection.ga_step_probabilities.us_per_call":
            lambda k: fp.ga_step_probabilities(grid, F, p, k % 5, 0.05),
        "projection.ga_step_thresholds.us_per_call":
            lambda k: fp.ga_step_thresholds(grid, v, k % 5, 0.05),
        "auction.best_fixed_utility.us_per_call":
            lambda k: fp.best_fixed_utility(grid, F, d),
        "strategies.exact_utility.us_per_call":
            lambda k: strat.exact_utility(F, k % 5),
        "projection.project_oracle.us_per_call":
            lambda k: fp.project_oracle(poly8, q8[k % 3]),
    }
    out = {}
    for name, fn in cases.items():
        n = 30
        while True:
            t0 = time.perf_counter()
            for k in range(n):
                fn(k)
            if time.perf_counter() - t0 > 0.01:
                break
            n *= 2
        batches = []
        for _ in range(9):
            t0 = time.perf_counter()
            for k in range(n):
                fn(k)
            batches.append((time.perf_counter() - t0) / n)
        out[name] = sorted(batches)[len(batches) // 2] * 1e6
    return out


def traced_run(wl, seed: int, count: int, reference, spans_path=None) -> dict:
    """Per-layer metrics of ``count`` jobs, plus the tracing overhead."""
    from tracer import SPAN_NAMES, TRACED, Tracer, summarize

    jobs = workloads.plan(seed, wl.learners, count)
    plain = run_jobs(wl, jobs, reference)
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        tracer.begin_job(-1)
        wl.setup(jobs)
        setup_wall = time.perf_counter() - t0
        traced = run_jobs(wl, jobs, reference, tracer=tracer)
    finally:
        tracer.uninstall()
    spans = tracer.arrays()
    if spans_path is not None:
        import numpy as np
        np.savez(spans_path, span_names=np.array(SPAN_NAMES), **spans)
    stats = summarize(spans)
    wall = setup_wall + sum(r["seconds"] for r in traced)
    buyer_rounds = count * wl.T * wl.buyers
    metrics = {}
    for layer, fns in TRACED.items():
        calls = sum(stats[f"{layer}.{fn}"][0] for fn in fns)
        self_s = sum(stats[f"{layer}.{fn}"][1] for fn in fns)
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.share"] = self_s / wall
        for fn in fns:
            metrics[f"{layer}.{fn}.calls"], metrics[f"{layer}.{fn}.self_s"] = stats[f"{layer}.{fn}"]
    metrics["auction.best_fixed_utility.per_round"] = (
        stats["auction.best_fixed_utility"][0] / buyer_rounds)
    metrics["distributions.cdf.per_round"] = stats["distributions.cdf"][0] / buyer_rounds
    metrics["environments.update_frac"] = stats["learners.observe"][0] / buyer_rounds
    metrics["tracing_overhead"] = rate(wl, traced) / rate(wl, plain)
    metrics["cli.bytes_written"] = sum(r["bytes"] for r in traced)
    metrics.update(micro_timings())
    return {"metrics": metrics, "records": plain + traced, "spans": len(spans["name"]),
            "traced_wall_s": wall}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--scratch", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--jobs", type=int, default=0, help="job count of a traced run")
    ap.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = ap.parse_args(argv)

    wl = workloads.make(args.workload)
    reference = workloads.load_reference(args.workload, args.seed)
    result = {"setup_s": measure_setup(wl, args.seed)}
    import fpabench
    import numpy
    result["program"] = fpabench.__file__
    result["python"] = sys.version.split()[0]
    result["numpy"] = numpy.__version__
    if args.mode != "setup":
        wl.prepare(args.scratch)
    if args.mode == "timed":
        jobs = workloads.job_stream(args.seed, wl.learners)
        result["records"] = run_jobs(wl, jobs, reference,
                                     deadline=time.perf_counter() + args.seconds)
    elif args.mode == "traced":
        result.update(traced_run(wl, args.seed, args.jobs, reference,
                                 spans_path=args.spans))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
