"""Spans around the program's layer boundaries, recorded from outside.

``Tracer.install`` wraps each traced function or method of ``fpabench``
at every place it is bound: a module-level function is replaced in every
``fpabench`` module that imported it (``fpabench.learners`` holds its own
reference to ``ga_step_probabilities``, for example), and a method is
replaced on every class of its module that defines it.  Nothing under
``src/`` is edited; ``uninstall`` puts the originals back.

A span records its name, start, end and parent span; the job a span
belongs to follows from the job marks, because jobs run one after another.
Spans stay in compact arrays in memory and are written out once.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# layer (module under src/fpabench) -> traced functions or methods
TRACED = {
    "distributions": ("cdf", "quantile", "quantile_tail_integral", "survival_integral"),
    "auction": ("best_fixed_utility", "utility_for_h", "revenue_for_h",
                "utility_gradient", "thresholds_from_probabilities",
                "probabilities_from_strategy", "check_probabilities",
                "check_thresholds", "clamp_probabilities", "clamp_thresholds"),
    "strategies": ("exact_utility", "exact_revenue", "bid_index"),
    "projection": ("ga_step_probabilities", "ga_step_thresholds", "project_oracle"),
    "learners": ("observe", "strategy"),
    "environments": ("run_single_buyer", "run_multi_buyer", "effective_competing_bid"),
    "metrics": ("check_robustness_step", "potential_euclidean",
                "potential_threshold_revenue", "pseudo_regret", "myerson_revenue"),
    "cli": ("main",),
    "config": ("parse_config",),
    "rng": ("stream_rng",),
}
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)


class Tracer:
    def __init__(self):
        self.name = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.job_marks = []          # (job id, index of the job's first span)
        self._stack = [-1]
        self._patches = []           # (owner, attribute, original)

    def begin_job(self, job_id: int) -> None:
        self.job_marks.append((job_id, len(self.name)))

    def _wrap(self, nid: int, fn):
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        for layer in TRACED:
            importlib.import_module(f"fpabench.{layer}")
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "fpabench" or n.startswith("fpabench."))]
        for nid, span in enumerate(SPAN_NAMES):
            layer, fn_name = span.split(".")
            home = sys.modules[f"fpabench.{layer}"]
            target = vars(home).get(fn_name)
            if callable(target) and not isinstance(target, type):
                wrapper = self._wrap(nid, target)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is target:
                            self._patch(mod, attr, wrapper)
                continue
            owners = [c for c in vars(home).values() if isinstance(c, type)
                      and c.__module__ == home.__name__ and fn_name in vars(c)]
            if not owners:
                raise LookupError(f"nothing named {fn_name!r} to trace in {home.__name__}")
            for cls in owners:
                self._patch(cls, fn_name, self._wrap(nid, vars(cls)[fn_name]))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def arrays(self) -> dict:
        """The spans as numpy arrays, with each span's job id filled in."""
        n = len(self.name)
        job = np.full(n, -1, dtype=np.int64)
        for (jid, first), nxt in zip(self.job_marks, self.job_marks[1:] + [(None, n)]):
            job[first:nxt[1]] = jid
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "job": job,
        }


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the durations of its direct child spans.

    Spans come from one call stack, so a child lies inside its parent and
    siblings follow one another: the children never overlap.
    """
    dur = np.asarray(end, dtype=np.int64) - np.asarray(start, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    kids = parent >= 0
    return dur - np.bincount(parent[kids], weights=dur[kids], minlength=len(dur))


def summarize(spans: dict) -> dict:
    """{span name: (calls, self time in seconds)} for every traced name."""
    selfs = self_times(spans["start"], spans["end"], spans["parent"])
    k = len(SPAN_NAMES)
    calls = np.bincount(spans["name"], minlength=k)
    self_ns = np.bincount(spans["name"], weights=selfs, minlength=k)
    return {name: (int(calls[i]), float(self_ns[i]) / 1e9)
            for i, name in enumerate(SPAN_NAMES)}
