"""fpabench benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload single_trace --seed 0 --seconds 40 --trace 0

Run it from the root of a source checkout; the program is imported from
``src/``.  Each workload is a closed loop in which one client runs jobs
(one experiment: one seed, one learner) back to back; see BENCHMARK.json
for why each workload was chosen and ``design.json`` for which layers each
one stresses.

``--trace 0`` measures the end-to-end metrics with tracing off:
``setup_s`` is the median over several fresh interpreters, and the timed
loop runs in one more fresh interpreter for ``--seconds``.  ``--trace 1``
runs a fixed number of jobs (set by ``--seconds``, so that call counts
repeat exactly at one seed) with every layer boundary traced and reports
the per-layer metrics.

Every job's outputs are checked; a failed job is counted and the run goes
on.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A result file with
a provenance block goes to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 5            # fresh interpreters whose set-up time is the median
WORKER_TIMEOUT = 170      # seconds; a run must end within 180


def traced_job_count(seconds: int) -> int:
    """Jobs in a traced run: fixed by --seconds, so counts repeat at one seed."""
    return max(6, seconds // 2)


def git_sha(root: Path):
    """The checked-out commit, read from .git without running git; None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (q in [0, 1]) of a non-empty list."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def start_worker(root: Path, scratch: Path, mode: str, args, tag: str, extra=()):
    out = scratch / f"{tag}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--scratch", str(scratch),
           "--out", str(out), *extra]
    proc = subprocess.run(cmd, cwd=root, env=env, timeout=WORKER_TIMEOUT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0 or not out.exists():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} worker exited {proc.returncode}")
    result = json.loads(out.read_text())
    program = Path(result["program"]).resolve()
    if root / "src" not in program.parents:
        raise RuntimeError(f"fpabench was imported from {program}, not from this checkout")
    return result


def end_to_end(wl, setups, timed) -> tuple[dict, dict]:
    records = timed["records"]
    ok = [r for r in records if not r["problems"]]
    if not ok:
        raise RuntimeError("no job passed its checks; nothing to time")
    times = [r["seconds"] for r in ok]
    per_job = wl.T * wl.buyers
    values = {
        "rounds_per_s": worker.rate(wl, records),
        "job_s_p90": quantile(times, 0.9),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    # The median job time is reported but not gated in BENCHMARK.json: on a
    # host that switches between a fast and a slow speed for seconds at a
    # time it jumps between the two, while rounds_per_s carries the same
    # signal (jobs of a workload have one size) with half the spread.
    sizes = {"job_s_p50": quantile(times, 0.5),
             "jobs_timed": len(times), "buyer_rounds_per_job": per_job, "T": wl.T,
             "buyers": wl.buyers, "setup_samples": setups,
             "failed_frac": (len(records) - len(ok)) / len(records)}
    return values, sizes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be between 1 and 60")

    root = Path.cwd().resolve()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "fpabench" / "__init__.py").is_file() or not spec_path.is_file():
        print("run from the root of an fpabench checkout (src/fpabench and "
              "BENCHMARK.json are missing here)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_dir = root / ".bench_out"
    scratch = out_dir / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    wl = workloads.make(args.workload)
    try:
        if args.trace:
            count = traced_job_count(args.seconds)
            res = start_worker(root, scratch, "traced", args, "traced",
                               ["--jobs", str(count),
                                "--spans", str(out_dir / f"spans-{args.workload}.npz")])
            values = res["metrics"]
            records = res["records"]
            sizes = {"jobs_traced": count, "spans": res["spans"],
                     "traced_wall_s": res["traced_wall_s"]}
        else:
            # set-up samples before and after the timed loop, so that their
            # median spans the run rather than one stretch of host speed
            before = SETUP_RUNS // 2
            setups = [start_worker(root, scratch, "setup", args, f"setup{i}")["setup_s"]
                      for i in range(before)]
            res = start_worker(root, scratch, "timed", args, "timed")
            setups.append(res["setup_s"])
            setups += [start_worker(root, scratch, "setup", args, f"setup{i}")["setup_s"]
                       for i in range(before, SETUP_RUNS - 1)]
            records = res["records"]
            values, sizes = end_to_end(wl, setups, res)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"benchmark failed: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    failures = [r for r in records if r["problems"]]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    provenance = {
        "cpu_model": cpu_model(), "nproc": os.cpu_count(),
        "python": res["python"], "numpy": res["numpy"],
        "git_sha": git_sha(root), "src_sha256": src_digest(root),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs_attempted": len(records),
        "reference_checked_jobs": sum(r["ref_checked"] for r in records), **sizes,
    }
    result = {"correct": not failures, "attempted": len(records),
              "failed": len(failures), "metrics": metrics}
    report = dict(result, provenance=provenance, failures=failures[:20])
    (out_dir / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n")

    for key, val in provenance.items():
        print(f"# {key}: {val}")
    for f in failures[:5]:
        print(f"# FAILED job {f['index']} ({f['learner']}): {'; '.join(f['problems'])}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
