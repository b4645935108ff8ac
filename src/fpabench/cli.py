"""fpa-bench: run experiments, verify numerics, sweep parameters.

Subcommands:

* ``run``    execute a config's replications, write CSV traces + summary.json
* ``verify`` run the numeric property suites of ``fpabench.verify``
* ``sweep``  re-run a config over a grid of one parameter, one summary row
             per point
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from .config import _T_MAX, ConfigError, ExperimentConfig, _dry_build, parse_config, seed_error
from .environments import run_single_buyer
from .learners import MisreportingBidder
from .metrics import _left_sum, guarantee_caps, ic_gap, myerson_revenue
from .verify import SUITES

_COLUMNS = ("t", "h_index", "eta_t", "exp_utility", "exp_revenue",
            "benchmark_cum", "regret_cum", "potential", "slack")
_SAMPLED_COLUMNS = _COLUMNS + ("value", "bid_index", "win", "payment")


def _thread_cap() -> int | None:
    """FPA_BENCH_THREADS as a positive worker cap, None when unset."""
    raw = os.environ.get("FPA_BENCH_THREADS")
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"FPA_BENCH_THREADS must be a positive integer, got {raw!r}")
    return cap


def _worker_count(reps: int, cap: int | None) -> int:
    return max(1, min(cap or os.cpu_count() or 1, reps))


# trace rows formatted at a time.  One join over all rows is byte-identical and 2% faster
# (4.24 -> 4.16 ms at T=1500; 2-vCPU Xeon, Python 3.11.7), but raises the formatter's
# tracemalloc peak 20%: 0.42 -> 0.50 MB at T=1500, 27.9 -> 33.4 MB at T=10^5
_CSV_BLOCK = 64


def _trace_csv(trace) -> str:
    """The trace as CSV text, formatted column by column in row blocks.

    Columns hold ints, Python floats and (``win``) bools; ``repr`` writes
    ints as ``str`` does and floats as their shortest round-trip decimal.
    A column that holds one object in every row (a fixed eta, an unchecked
    run's NaN slack) is formatted once; equal floats held apart are not.
    """
    T = len(trace.h_index)
    sampled = trace.mode == "sampled"
    cols = [range(1, T + 1), trace.h_index, trace.eta, trace.exp_utility,
            trace.exp_revenue, trace.benchmark_cum, trace.regret_cum,
            trace.potential, trace.slack]
    if sampled:
        cols += [trace.value, trace.bid_index, trace.win, trace.payment]
    once = [[repr(c[0])] * T if T and all(x is c[0] for x in c) else None for c in cols]
    blocks = [",".join(_SAMPLED_COLUMNS if sampled else _COLUMNS)]
    for a in range(0, T, _CSV_BLOCK):
        cells = [map(repr, col[a:a + _CSV_BLOCK]) if text is None else text[a:a + _CSV_BLOCK]
                 for col, text in zip(cols, once)]
        if sampled:
            cells[-2] = map(("0", "1").__getitem__, trace.win[a:a + _CSV_BLOCK])
        blocks.append("\n".join(map(",".join, zip(*cells))))
    blocks.append("")  # the closing newline, without copying the text again
    return "\n".join(blocks)


def _run_replication(cfg: ExperimentConfig, rep: int, write: bool):
    """One replication; returns (rep, csv text, summary dict) or raises.

    A trace not to be written (every sweep point, a run with no out directory)
    runs the final benchmark, whose totals are the same bits, and formats no CSV.
    """
    seed = cfg.seed + rep
    learner = cfg.make_learner()
    t0 = time.perf_counter()
    try:
        trace = run_single_buyer(cfg.grid, cfg.dist, learner, cfg.make_adversary(),
                                 cfg.T, mode=cfg.mode, seed=seed, check_steps=cfg.checks,
                                 benchmark=cfg.benchmark if write else "final")
        gap = None
        if isinstance(learner, MisreportingBidder):
            # the truthful twin feeds only ic_gap, which reads h_index and
            # exp_utility: no benchmark column and no sampled draw
            base = run_single_buyer(cfg.grid, cfg.dist, cfg.make_learner().inner,
                                    cfg.make_adversary(), cfg.T, mode="exact",
                                    seed=seed, check_steps=False, benchmark="final")
            gap = ic_gap(base, trace)
    except ValueError as exc:
        raise ValueError(f"replication {rep} (seed {seed}, T={cfg.T}): {exc}") from exc
    wall = time.perf_counter() - t0

    kind = getattr(learner, "kind", "?")
    mye, _ = myerson_revenue(cfg.dist)
    total_rev = _left_sum(trace.exp_revenue)
    slacks = [s for s in trace.slack if not math.isnan(s)]
    T = cfg.T
    bounds = {**guarantee_caps(cfg.grid.K, T, cfg.dist.density_bound),
              "myerson_per_round": mye}
    summary = {
        "replication": rep,
        "seed": seed,
        "learner": cfg.learner_spec,
        "kind": kind,
        "T": T,
        # the last row's totals equal pseudo_regret's without a second pass
        "regret": trace.regret_cum[-1],
        "benchmark_total": trace.benchmark_cum[-1],
        "learner_total": _left_sum(trace.exp_utility),
        "revenue_total": total_rev,
        "revenue_excess": total_rev - mye * T,
        "ic_gap": gap,
        "min_slack": min(slacks) if slacks else None,
        "wall_time_s": wall,
        "bounds": bounds,
    }
    return rep, _trace_csv(trace) if write else None, summary


def _execute(cfg: ExperimentConfig, out_dir: Path | None, threads: int | None):
    write = out_dir is not None
    if write:  # before any replication runs
        out_dir.mkdir(parents=True, exist_ok=True)
    reps = cfg.replications
    workers = _worker_count(reps, threads)
    jobs = [cfg] * reps, range(reps), [write] * reps
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_run_replication, *jobs))  # in rep order
    else:
        results = list(map(_run_replication, *jobs))

    summaries = [s for _, _, s in results]
    if write:
        for rep, csv_text, _ in results:
            (out_dir / f"trace_rep{rep}.csv").write_text(csv_text)
        (out_dir / "summary.json").write_text(
            json.dumps({"config": cfg.learner_spec, "replications": summaries},
                       indent=2) + "\n")
    return summaries


def _parse_file(path: str):
    try:
        return parse_config(Path(path).read_text())
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return None


def _cmd_run(args) -> int:
    cfg = _parse_file(args.config)
    if cfg is None:
        return 1
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.reps is not None:
        cfg = replace(cfg, replications=args.reps)
    problem = seed_error(cfg.seed, cfg.replications)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 1
    out = args.out or cfg.out
    out_dir = Path(out) if out else None
    try:
        summaries = _execute(cfg, out_dir, args.threads)
    except AssertionError as exc:
        print(f"ABORT: {exc}", file=sys.stderr)
        return 2
    for s in summaries:
        print(f"rep {s['replication']}: regret {s['regret']:.6g}  "
              f"revenue_excess {s['revenue_excess']:.6g}  "
              f"min_slack {s['min_slack']}  ic_gap {s['ic_gap']}  "
              f"[{s['wall_time_s']:.2f}s]")
    return 0


def _cmd_verify(args) -> int:
    names = [args.suite] if args.suite else list(SUITES)
    ok = True
    for name in names:
        if name not in SUITES:
            print(f"unknown suite {name!r}; choices: {', '.join(SUITES)}",
                  file=sys.stderr)
            return 2
        suite = SUITES[name]
        t0 = time.perf_counter()
        count, worst = suite.run_default()
        good = suite.passes(worst)
        ok = ok and good
        print(f"{name}: {count} checks, {suite.label} = {worst:.3e} "
              f"[{'pass' if good else 'FAIL'}] ({time.perf_counter() - t0:.1f}s)")
    return 0 if ok else 1


def _cmd_sweep(args) -> int:
    key, _, values = args.param.partition("=")
    if key != "T" or not values:
        print("only --param T=v1,v2,... sweeps are supported", file=sys.stderr)
        return 2
    try:
        points = [int(v) for v in values.split(",")]
    except ValueError:
        points = []
    if not points or min(points) < 1 or max(points) > _T_MAX:
        print(f"--param T values must be integers in 1..2**24, got {values!r}",
              file=sys.stderr)
        return 2
    base = _parse_file(args.config)
    if base is None:
        return 1
    for T in points:  # every point is built before any runs
        if errors := _dry_build(base.grid, base.dist, T, base.learner_spec, base.adversary_spec):
            print("\n".join(f"config error at T={T}: {e}" for e in errors), file=sys.stderr)
            return 1
    if args.out:  # before any point runs
        Path(args.out).mkdir(parents=True, exist_ok=True)
    lines = ["T,regret,revenue_excess,ic_gap,min_slack,wall_time_s"]
    print(lines[0])
    for T in points:
        try:
            summaries = _execute(replace(base, T=T), None, args.threads)
        except AssertionError as exc:
            print(f"ABORT at T={T}: {exc}", file=sys.stderr)
            return 2
        n = len(summaries)
        mean = lambda key: (_left_sum(s[key] for s in summaries) / n
                            if summaries[0][key] is not None else math.nan)
        row = (T, mean("regret"), mean("revenue_excess"), mean("ic_gap"),
               min(s["min_slack"] for s in summaries)
               if summaries[0]["min_slack"] is not None else math.nan,
               sum(s["wall_time_s"] for s in summaries))
        lines.append(",".join(map(repr, row)))  # ints and Python floats, as in _trace_csv
        print(lines[-1])
    if args.out:
        (Path(args.out) / "sweep.csv").write_text("\n".join(lines) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fpa-bench")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--reps", type=int)
    p_run.set_defaults(fn=_cmd_run)

    p_ver = sub.add_parser("verify", help="run numeric property suites")
    p_ver.add_argument("suite", nargs="?")
    p_ver.set_defaults(fn=_cmd_verify)

    p_sw = sub.add_parser("sweep", help="sweep one parameter")
    p_sw.add_argument("--config", required=True)
    p_sw.add_argument("--param", required=True)
    p_sw.add_argument("--out")
    p_sw.set_defaults(fn=_cmd_sweep)

    args = parser.parse_args(argv)
    if args.command not in ("run", "sweep"):
        return args.fn(args)
    try:
        args.threads = _thread_cap()
        return args.fn(args)
    except (ValueError, OSError) as exc:  # bad thread cap, config file or --out; run errors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
