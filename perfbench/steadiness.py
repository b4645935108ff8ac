"""Run the benchmark repeatedly and report how steady each metric is.

    python3 perfbench/steadiness.py

Run from the root of a checkout.  It makes two sets of untraced runs of
every workload in BENCHMARK.json, each set with seeds 1 to 10 and the
``run_seconds`` of BENCHMARK.json, and then two traced runs of every
workload at seed 1.  For every end-to-end metric and set it reports the
median, the quartiles (as ``statistics.quantiles(values, n=4)`` gives
them) and the spread: the distance between the quartiles as a share of
the median.  It also reports the drift: how much worse the second set's
median is than the first's, as a share of the first.

The verdict is "steady" when no job failed, every spread (``setup_s``
included) is below a third of the metric's bound, every drift is within
the bound, and the two traced runs agree exactly on every ``.calls``
count.  The report goes to ``.bench_out/steadiness.json``; it holds every
run's metrics and wall time, the per-layer metrics of the first traced
run and the provenance of the runs.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SEEDS = range(1, 11)
SETS = 2
OUT = Path(".bench_out/steadiness.json")


def run_once(spec, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=180)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = Path(".bench_out") / f"BENCH_{workload}_seed{seed}_trace{trace}.json"
    result["provenance"] = json.loads(report.read_text())["provenance"]
    result["wall_s"] = wall
    return result


def summarize_set(spec, runs) -> dict:
    """Median, quartiles and spread of every end-to-end metric over one set."""
    out = {}
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        out[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                          "spread": spread, "bound": m["bound"],
                          "below_third_of_bound": spread < m["bound"] / 3}
    return out


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    runs = {w: [[] for _ in range(SETS)] for w in names}
    for s in range(SETS):
        for seed in SEEDS:                 # seed-major, so drift hits all workloads
            for w in names:
                res = run_once(spec, w, seed, 0)
                runs[w][s].append(res)
                print(f"set {s + 1} {w} {seed} {res['wall_s']:.1f}s",
                      {k: round(v["value"], 5) for k, v in res["metrics"].items()},
                      flush=True)

    ok = True
    report = {"seconds": spec["run_seconds"], "seeds": list(SEEDS), "sets": SETS,
              "provenance": runs[names[0]][0][0]["provenance"], "workloads": {}}
    for w in names:
        sets = [summarize_set(spec, r) for r in runs[w]]
        every = [r for per_set in runs[w] for r in per_set]
        entry = {"attempted": sum(r["attempted"] for r in every),
                 "failed": sum(r["failed"] for r in every),
                 "jobs_per_run": [[r["provenance"]["jobs_timed"] for r in rs] for rs in runs[w]],
                 "wall_s_per_run": [[r["wall_s"] for r in rs] for rs in runs[w]],
                 "sets": sets, "drift": {},
                 "runs": [[r["metrics"] for r in rs] for rs in runs[w]]}
        ok = ok and entry["failed"] == 0
        for m in spec["end_to_end"]:
            first, second = sets[0][m["name"]]["median"], sets[-1][m["name"]]["median"]
            sign = 1 if m["better"] == "lower" else -1
            drift = sign * (second - first) / first
            entry["drift"][m["name"]] = drift
            ok = ok and drift <= m["bound"]
            for i, st in enumerate(sets):
                ok = ok and st[m["name"]]["below_third_of_bound"]
                print(f"{w:13s} {m['name']:12s} set {i + 1} median {st[m['name']]['median']:.6g} "
                      f"{m['unit']:9s} spread {st[m['name']]['spread']:.3f}"
                      f"{'' if st[m['name']]['below_third_of_bound'] else ' (>= bound/3)'}")
            print(f"{w:13s} {m['name']:12s} drift {drift:+.3f} (bound {m['bound']})")
        traced = [run_once(spec, w, SEEDS[0], 1) for _ in range(2)]
        calls = [{k: v["value"] for k, v in t["metrics"].items() if k.endswith(".calls")}
                 for t in traced]
        entry["calls_repeat"] = calls[0] == calls[1]
        entry["per_layer"] = {k: v["value"] for k, v in traced[0]["metrics"].items()}
        entry["traced_provenance"] = traced[0]["provenance"]
        entry["traced_wall_s"] = [t["wall_s"] for t in traced]
        ok = ok and entry["calls_repeat"] and all(t["failed"] == 0 for t in traced)
        print(f"{w:13s} traced .calls repeat exactly: {entry['calls_repeat']}")
        report["workloads"][w] = entry
    report["steady"] = ok
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(report, indent=2) + "\n")
    print(f"{'steady' if ok else 'NOT steady'}; written to {OUT}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
