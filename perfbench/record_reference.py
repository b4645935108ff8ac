"""Record the reference totals that runs at the default seed are checked against.

    python3 perfbench/record_reference.py

Run from the root of a checkout, on the commit whose outputs are the
reference.  It runs the first ``REFERENCE_JOBS`` jobs of every workload at
the default seed and writes each job's (regret, revenue_total) to
``perfbench/reference_totals.json``.  A run at the default seed then fails
any of those jobs whose totals drift by more than 1e-9 relative.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import worker  # noqa: E402
import workloads  # noqa: E402

REFERENCE_JOBS = 1000


def main() -> int:
    table = {}
    for name in workloads.NAMES:
        wl = workloads.make(name)
        with tempfile.TemporaryDirectory(dir=Path.cwd()) as scratch:
            wl.prepare(Path(scratch))
            jobs = workloads.plan(workloads.DEFAULT_SEED, wl.learners, REFERENCE_JOBS)
            records = worker.run_jobs(wl, jobs, [])
        bad = [r for r in records if r["problems"]]
        if bad:
            print(f"{name}: {len(bad)} jobs failed their checks: {bad[0]['problems']}",
                  file=sys.stderr)
            return 1
        table[name] = [r["totals"] for r in records]
        print(f"{name}: {len(records)} jobs recorded")
    workloads.REFERENCE_FILE.write_text(json.dumps(
        {"seed": workloads.DEFAULT_SEED, "jobs": REFERENCE_JOBS, "workloads": table}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
