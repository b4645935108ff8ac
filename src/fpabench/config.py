"""Experiment configuration: YAML container, compact mini-grammars inside.

The key schema and the learner/adversary mini-grammars are the stable
surface; YAML is only the container, read by libyaml's ``CSafeLoader``
where PyYAML has it and by the pure-Python ``SafeLoader`` otherwise.
``parse_config`` validates the whole tree and reports every error it
finds, not just the first, each integer error naming its argument.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import yaml

from .distributions import EqualRevenue, PiecewiseLinearCDF, Uniform, ValueDistribution
from .environments import (
    Adversary,
    DecreasingReserve,
    FixedSequence,
    LowerBoundCompetition,
    StochasticCompetition,
)
from .grids import BidGrid, Grid, IrregularBidGrid
from .learners import (
    FixedStep,
    GradientBidder,
    HarmonicStep,
    LazyRegularizedBidder,
    MeanBasedBucketBidder,
    MisreportingBidder,
    ThresholdBidder,
    default_eta_known_f,
    default_eta_threshold,
)
from .rng import ADVERSARY, stream_rng
from .strategies import MisreportMap

_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_T_MAX = 2**24  # the bucket table's cap; the dry build prepares T rounds of h


class ConfigError(ValueError):
    """Carries every validation problem found in one parse."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


_KNOWN_KEYS = {
    "preset", "grid", "dist", "learner", "adversary", "T", "mode", "seed",
    "replications", "out", "checks", "benchmark",
}


@dataclass(frozen=True)
class ExperimentConfig:
    grid: Grid
    dist: ValueDistribution
    learner_spec: str
    adversary_spec: str
    T: int
    mode: str = "exact"
    seed: int = 0
    replications: int = 1
    out: str | None = None
    checks: bool = True
    benchmark: str = "per-round"

    def make_learner(self):
        """Fresh learner instance (one per replication)."""
        return _build_learner(self.learner_spec, self.grid, self.dist, self.T)

    def make_adversary(self) -> Adversary:
        return _build_adversary(self.adversary_spec)


# ---------------------------------------------------------------------------
# mini-grammar helpers


def _split_args(body: str):
    """Split a call body on top-level commas (misreport nests parentheses)."""
    parts, depth, cur = [], 0, []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    last = "".join(cur).strip()
    if last:
        parts.append(last)
    return parts


def _call(spec: str):
    """'name(arg, k=v, ...)' -> (name, positional list, keyword dict)."""
    m = re.fullmatch(r"\s*([a-zA-Z_][\w]*)\s*(?:\((.*)\))?\s*", spec, re.DOTALL)
    if m is None:
        raise ValueError(f"cannot parse {spec!r}")
    name, body = m.group(1), m.group(2) or ""
    pos, kw = [], {}
    for part in _split_args(body):
        km = re.fullmatch(r"([a-zA-Z_][\w]*)\s*=\s*(.*)", part, re.DOTALL)
        if km and not part.lstrip().startswith(("(",)):
            kw[km.group(1)] = km.group(2).strip()
        else:
            pos.append(part)
    return name, pos, kw


def _integer(value, name: str) -> int:
    """An integral YAML number or numeric string as int: 4.9 is an error, not 4."""
    if not isinstance(value, bool) and (not isinstance(value, float) or value.is_integer()):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{name}: not an integer: {value!r}")


def seed_error(seed: int, replications: int) -> str | None:
    """Why replications on seeds seed, seed + 1, ... (64-bit keys) cannot run, or None."""
    if replications < 1:
        return "replications: must be >= 1"
    if not 0 <= seed <= 2**64 - replications:
        return f"seed: must lie in 0..2**64 - replications, got {seed}"
    return None


def parse_grid(node) -> Grid:
    if not isinstance(node, dict):
        raise ValueError("grid must be a mapping with K/eps or bids")
    keys = set(node)
    if keys == {"K", "eps"}:
        return BidGrid(_integer(node["K"], "K"), float(node["eps"]))
    if keys == {"bids"}:
        return IrregularBidGrid(tuple(float(b) for b in node["bids"]))
    raise ValueError(f"grid keys must be {{K, eps}} or {{bids}}, got {sorted(keys)}")


def parse_distribution(spec: str) -> ValueDistribution:
    name, pos, kw = _call(str(spec))
    if kw:
        raise ValueError(f"distribution {name} takes positional arguments only")
    if name == "uniform":
        if not pos:
            return Uniform()
        if len(pos) == 2:
            return Uniform(float(pos[0]), float(pos[1]))
        raise ValueError("uniform takes zero or two arguments")
    if name == "equirev":
        if len(pos) != 1:
            raise ValueError("equirev takes exactly one argument (delta)")
        return EqualRevenue(float(pos[0]))
    if name == "pwl":
        pairs = [p.split(":") for p in pos]
        if not pairs or any(len(p) != 2 for p in pairs):
            raise ValueError("pwl wants knots x:y,...")
        return PiecewiseLinearCDF(tuple(float(p[0]) for p in pairs),
                                  tuple(float(p[1]) for p in pairs))
    raise ValueError(f"unknown distribution {name!r}")


def parse_misreport_table(text: str) -> MisreportMap:
    pairs = [p.split(":") for p in text.split(";")]
    if any(len(p) != 2 for p in pairs):
        raise ValueError("misreport map wants knots x:y;x:y;...")
    return MisreportMap(tuple(float(p[0]) for p in pairs),
                        tuple(float(p[1]) for p in pairs))


def _build_learner(spec: str, grid: Grid, F: ValueDistribution, T: int):
    name, pos, kw = _call(spec)
    if name == "alg1":
        if pos == ["harmonic"]:
            if not {"fbar", "dmin"} <= set(kw):
                raise ValueError("alg1(harmonic) needs fbar=... and dmin=...")
            policy = HarmonicStep(float(kw.pop("fbar")), float(kw.pop("dmin")))
            if not policy.at(T) > 0.0:  # steps fall with t and the first is checked
                raise ValueError(f"fbar / (dmin * T) must be positive, got {policy.at(T)} "
                                 f"for fbar={policy.fbar}, dmin={policy.dmin}, T={T}")
        elif pos:
            raise ValueError(f"unexpected alg1 arguments {pos}")
        else:
            eta = float(kw.pop("eta")) if "eta" in kw else default_eta_known_f(grid.K, T)
            policy = FixedStep(eta)
        if kw:
            raise ValueError(f"unknown alg1 options {sorted(kw)}")
        return GradientBidder(grid, F, policy)
    if name == "alg2":
        eta = (float(kw.pop("eta")) if "eta" in kw
               else default_eta_threshold(F.density_bound, T))
        if pos or kw:
            raise ValueError("alg2 takes only eta=...")
        learner = ThresholdBidder(grid, eta)  # checks eta by itself first
        if math.isinf(eta * F.density_bound):
            raise ValueError(f"eta * density bound overflows for eta={eta}, "
                             f"density bound {F.density_bound}")
        return learner
    if name == "ftl":
        buckets = _integer(kw.pop("buckets", 64), "buckets")
        if pos or kw:
            raise ValueError("ftl takes only buckets=...")
        return MeanBasedBucketBidder(grid, buckets)
    if name == "lazyftrl":
        eta = (float(kw.pop("eta")) if "eta" in kw
               else default_eta_known_f(grid.K, T))
        if pos or kw:
            raise ValueError("lazyftrl takes only eta=...")
        return LazyRegularizedBidder(grid, F, eta)
    if name == "misreport":
        if len(pos) != 1 or set(kw) != {"map"}:
            raise ValueError("misreport wants misreport(<inner>, map=x:y;...)")
        inner = _build_learner(pos[0], grid, F, T)
        return MisreportingBidder(inner, parse_misreport_table(kw["map"]))
    raise ValueError(f"unknown learner {name!r}")


def _build_adversary(spec: str) -> Adversary:
    name, pos, kw = _call(spec)
    if kw:
        raise ValueError(f"adversary {name} takes positional arguments only")
    if name == "stochastic":
        return StochasticCompetition([float(x) for x in pos])
    if name == "seq":
        if len(pos) != 1:
            raise ValueError("seq wants one file path")
        with open(pos[0]) as fh:
            idx = [_integer(tok, "seq entry") for tok in fh.read().split()]
        return FixedSequence(idx)
    if name == "decreasing":
        if len(pos) != 3:
            raise ValueError("decreasing wants (tswitch, hi, lo)")
        return DecreasingReserve(*map(_integer, pos, ("tswitch", "hi", "lo")))
    if name == "lowerbound":
        if pos:
            raise ValueError("lowerbound takes no arguments")
        return LowerBoundCompetition()
    raise ValueError(f"unknown adversary {name!r}")


def _dry_build(grid: Grid, F: ValueDistribution, T: int, learner_spec, adversary_spec):
    """The error lines of building the learner and preparing the adversary for
    horizon T, as a run would; a spec of None is skipped."""
    errors = []
    if learner_spec is not None:
        try:
            _build_learner(learner_spec, grid, F, T)
        except (ValueError, TypeError, OSError) as exc:
            errors.append(f"learner: {exc}")
    if adversary_spec is not None:
        try:
            _build_adversary(adversary_spec).prepare(T, grid.K, stream_rng(0, ADVERSARY))
        except (ValueError, OSError) as exc:
            errors.append(f"adversary: {exc}")
    return errors


def _expand_preset(spec: str, data: dict, errors: list):
    name, pos, kw = _call(spec)
    if name != "example52":
        errors.append(f"preset: unknown preset {name!r}")
        return
    try:
        delta = float(kw.get("delta", 0.1))
        T = _integer(kw["T"] if "T" in kw else data.get("T", 0), "T")
    except (KeyError, ValueError) as exc:
        errors.append(f"preset: {exc}")
        return
    if pos:
        errors.append("preset: example52 takes keyword arguments only")
        return
    if T < 1:
        errors.append("preset: example52 needs T (in the preset or at top level)")
        return
    data.setdefault("grid", {"K": 2, "eps": 0.125})
    data.setdefault("dist", f"equirev({delta})")
    data.setdefault("adversary", f"decreasing({T // 2},2,1)")
    data.setdefault("T", T)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate; raises ConfigError listing every problem found."""
    errors: list[str] = []
    try:
        data = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError([f"container syntax: {exc}"])
    if not isinstance(data, dict):
        raise ConfigError(["config must be a key-value mapping"])

    for key in sorted(set(data) - _KNOWN_KEYS):
        errors.append(f"unknown key {key!r}")
    if "preset" in data:
        _expand_preset(str(data.pop("preset")), data, errors)

    grid = dist = None
    if "grid" not in data:
        errors.append("missing key 'grid'")
    else:
        try:
            grid = parse_grid(data["grid"])
        except (ValueError, TypeError) as exc:
            errors.append(f"grid: {exc}")
    if "dist" not in data:
        errors.append("missing key 'dist'")
    else:
        try:
            dist = parse_distribution(data["dist"])
        except (ValueError, TypeError) as exc:
            errors.append(f"dist: {exc}")

    def integer(key, default):
        try:
            return _integer(data.get(key, default), key)
        except ValueError as exc:
            errors.append(str(exc))
            return None

    T, reps, seed = integer("T", 0), integer("replications", 1), integer("seed", 0)
    if T is not None and T < 1:
        errors.append("T: must be >= 1")
    elif T is not None and T > _T_MAX:
        errors.append(f"T: {T} is more than 2**24 rounds")
    if reps is not None and seed is not None and (problem := seed_error(seed, reps)):
        errors.append(problem)

    mode = str(data.get("mode", "exact"))
    if mode not in ("exact", "sampled"):
        errors.append(f"mode: must be exact or sampled, got {mode!r}")
    benchmark = str(data.get("benchmark", "per-round"))
    if benchmark not in ("per-round", "final"):
        errors.append(f"benchmark: must be per-round or final, got {benchmark!r}")
    checks = data.get("checks", True)
    if not isinstance(checks, bool):
        errors.append("checks: must be a boolean")
        checks = True

    learner_spec = str(data.get("learner", ""))
    adversary_spec = str(data.get("adversary", ""))
    if "learner" not in data:
        errors.append("missing key 'learner'")
    if "adversary" not in data:
        errors.append("missing key 'adversary'")

    if grid is not None and dist is not None and T is not None and 1 <= T <= _T_MAX:
        errors += _dry_build(grid, dist, T, learner_spec if "learner" in data else None,
                             adversary_spec if "adversary" in data else None)

    if errors:
        raise ConfigError(errors)
    out = data.get("out")
    return ExperimentConfig(grid, dist, learner_spec, adversary_spec, T, mode,
                            seed, reps, None if out is None else str(out),
                            checks, benchmark)
