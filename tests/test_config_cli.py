import contextlib
import io
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from fpabench.cli import main as cli_main
from fpabench.config import ConfigError, parse_config, parse_misreport_table
from fpabench.distributions import EqualRevenue, PiecewiseLinearCDF, Uniform
from fpabench.environments import (
    DecreasingReserve,
    LowerBoundCompetition,
    StochasticCompetition,
    run_single_buyer,
)
from fpabench.grids import BidGrid, IrregularBidGrid
from fpabench.learners import GradientBidder, HarmonicStep, ThresholdBidder
from fpabench.strategies import MisreportMap
from fpabench.verify import SUITES


MINIMAL = """
grid: {K: 2, eps: 0.25}
dist: uniform
learner: alg2(eta=0.01)
adversary: stochastic(0.5,0.25,0.25)
T: 10000
seed: 1
"""


def test_parse_minimal_config():
    cfg = parse_config(MINIMAL)
    assert cfg.grid == BidGrid(2, 0.25)
    assert cfg.dist == Uniform()
    assert cfg.T == 10000
    assert cfg.seed == 1
    assert isinstance(cfg.make_learner(), ThresholdBidder)
    assert isinstance(cfg.make_adversary(), StochasticCompetition)


def test_parse_explicit_bid_list():
    cfg = parse_config(MINIMAL.replace(
        "{K: 2, eps: 0.25}", "{bids: [0, 0.1, 0.4]}").replace(
        "alg2(eta=0.01)", "lazyftrl(eta=0.01)"))
    assert isinstance(cfg.grid, IrregularBidGrid)


def test_adversary_index_out_of_range_names_field():
    text = MINIMAL.replace("stochastic(0.5,0.25,0.25)", "decreasing(10,5,1)")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert any("adversary" in e for e in err.value.errors)


def test_all_errors_are_collected():
    bad = """
grid: {K: 2}
dist: wat(3)
learner: alg7()
adversary: stochastic(0.5,0.5)
T: 0
bogus: 1
"""
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    joined = " ".join(err.value.errors)
    for needle in ("grid", "dist", "T", "bogus"):
        assert needle in joined
    assert len(err.value.errors) >= 4


def _minimal(old, new):
    return MINIMAL.replace(old, new)


@pytest.mark.parametrize("text, want", [
    (_minimal("alg2(eta=0.01)", "alg7()"), "learner: unknown learner 'alg7'"),
    (_minimal("stochastic(0.5,0.25,0.25)", "wat(1)"), "adversary: unknown adversary 'wat'"),
    ("preset: example99(T=10)\n", "preset: unknown preset 'example99'"),
    ("preset: example52(2, T=10)\n", "preset: example52 takes keyword arguments only"),
    ("preset: example52(delta=0.1)\n",
     "preset: example52 needs T (in the preset or at top level)"),
    (_minimal("dist: uniform", "dist: uniform(0.5)"),
     "dist: uniform takes zero or two arguments"),
    (_minimal("dist: uniform", "dist: uniform(a=0.5)"),
     "dist: distribution uniform takes positional arguments only"),
    (_minimal("dist: uniform", "dist: equirev"),
     "dist: equirev takes exactly one argument (delta)"),
    (_minimal("dist: uniform", "dist: equirev(0.1, 0.2)"),
     "dist: equirev takes exactly one argument (delta)"),
    (_minimal("dist: uniform", "dist: pwl"), "dist: pwl wants knots x:y,..."),
    (_minimal("dist: uniform", "dist: pwl(0:0, 1)"), "dist: pwl wants knots x:y,..."),
    (_minimal("dist: uniform", "dist: wat"), "dist: unknown distribution 'wat'"),
    (_minimal("alg2(eta=0.01)", "alg1(harmonic, fbar=1)"),
     "learner: alg1(harmonic) needs fbar=... and dmin=..."),
    (_minimal("alg2(eta=0.01)", "alg1(0.1)"), "learner: unexpected alg1 arguments ['0.1']"),
    (_minimal("alg2(eta=0.01)", "alg1(eta=0.1, rho=2)"),
     "learner: unknown alg1 options ['rho']"),
    (_minimal("alg2(eta=0.01)", "alg2(0.1)"), "learner: alg2 takes only eta=..."),
    (_minimal("alg2(eta=0.01)", "alg2(eta=0.1, x=1)"), "learner: alg2 takes only eta=..."),
    (_minimal("alg2(eta=0.01)", "ftl(8)"), "learner: ftl takes only buckets=..."),
    (_minimal("alg2(eta=0.01)", "ftl(bins=8)"), "learner: ftl takes only buckets=..."),
    (_minimal("alg2(eta=0.01)", "lazyftrl(0.1)"), "learner: lazyftrl takes only eta=..."),
    (_minimal("alg2(eta=0.01)", "lazyftrl(eta=0.1, x=2)"),
     "learner: lazyftrl takes only eta=..."),
    (_minimal("alg2(eta=0.01)", "misreport(alg2)"),
     "learner: misreport wants misreport(<inner>, map=x:y;...)"),
    (_minimal("alg2(eta=0.01)", "misreport(alg2, ftl, map=0:0;1:1)"),
     "learner: misreport wants misreport(<inner>, map=x:y;...)"),
    (_minimal("alg2(eta=0.01)", "misreport(alg2, map=0:0;1)"),
     "learner: misreport map wants knots x:y;x:y;..."),
    (_minimal("alg2(eta=0.01)", "alg2(eta=0.01"), "learner: cannot parse 'alg2(eta=0.01'"),
    (_minimal("stochastic(0.5,0.25,0.25)", "seq()"), "adversary: seq wants one file path"),
    (_minimal("stochastic(0.5,0.25,0.25)", "seq(a, b)"),
     "adversary: seq wants one file path"),
    (_minimal("stochastic(0.5,0.25,0.25)", "decreasing(5, 2)"),
     "adversary: decreasing wants (tswitch, hi, lo)"),
    # the grammar's integers name their argument, not "invalid literal for int()"
    (_minimal("alg2(eta=0.01)", "ftl(buckets=2.5)"), "learner: buckets: not an integer: '2.5'"),
    (_minimal("stochastic(0.5,0.25,0.25)", "decreasing(2.5, 2, 1)"),
     "adversary: tswitch: not an integer: '2.5'"),
    (_minimal("stochastic(0.5,0.25,0.25)", "decreasing(5, 2, x)"),
     "adversary: lo: not an integer: 'x'"),
    (_minimal("stochastic(0.5,0.25,0.25)", "lowerbound(1)"),
     "adversary: lowerbound takes no arguments"),
    (_minimal("stochastic(0.5,0.25,0.25)", "stochastic(p=1)"),
     "adversary: adversary stochastic takes positional arguments only"),
    ("grid: [1, 2\n", "container syntax: "),
    ("- 1\n- 2\n", "config must be a key-value mapping"),
    ("42\n", "config must be a key-value mapping"),
    (_minimal("grid: {K: 2, eps: 0.25}\n", ""), "missing key 'grid'"),
    (_minimal("grid: {K: 2, eps: 0.25}", "grid: 3"),
     "grid: grid must be a mapping with K/eps or bids"),
    (_minimal("grid: {K: 2, eps: 0.25}", "grid: {K: 2}"),
     "grid: grid keys must be {K, eps} or {bids}, got ['K']"),
    (MINIMAL + "mode: fast\n", "mode: must be exact or sampled, got 'fast'"),
    (MINIMAL + "benchmark: total\n", "benchmark: must be per-round or final, got 'total'"),
    (MINIMAL + "checks: maybe\n", "checks: must be a boolean"),
])
def test_parse_config_names_each_rejection(text, want):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    # a container syntax error goes on to quote the parser's own message
    assert any(e.startswith(want) for e in err.value.errors), err.value.errors


def test_parse_uniform_support_and_lowerbound_adversary():
    cfg = parse_config(_minimal("dist: uniform", "dist: uniform(0.2, 0.7)").replace(
        "stochastic(0.5,0.25,0.25)", "lowerbound"))
    assert cfg.dist == Uniform(0.2, 0.7)
    assert isinstance(cfg.make_adversary(), LowerBoundCompetition)


def test_preset_expansion():
    cfg = parse_config("""
preset: example52(delta=0.1, T=100000)
learner: ftl(buckets=64)
""")
    assert cfg.grid == BidGrid(2, 0.125)  # bids {0, 1/8, 1/4}
    assert cfg.dist == EqualRevenue(0.1)
    assert cfg.T == 100000
    adv = cfg.make_adversary()
    assert isinstance(adv, DecreasingReserve)
    assert (adv.switch, adv.high, adv.low) == (50000, 2, 1)


def test_learner_grammar_variants():
    for spec, kind in [
        ("alg1(eta=0.1)", "alg1"),
        ("alg1(harmonic, fbar=1, dmin=0.1)", "alg1"),
        ("alg2(eta=0.02)", "alg2"),
        ("ftl(buckets=32)", "ftl"),
        ("lazyftrl(eta=0.1)", "lazyftrl"),
        ("misreport(alg2(eta=0.01), map=0:0;0.5:0.5;0.5:0.25;1:0.25)", "misreport"),
    ]:
        cfg = parse_config(MINIMAL.replace("alg2(eta=0.01)", spec))
        assert cfg.make_learner().kind == kind


@pytest.mark.parametrize("text", [
    MINIMAL,
    MINIMAL.replace("{K: 2, eps: 0.25}", "{bids: [0, 0.1, 0.4]}").replace(
        "alg2(eta=0.01)", "lazyftrl(eta=1e-2)").replace("T: 10000", "T: 1.0e+4"),
    "preset: example52(delta=0.1, T=100000)\nlearner: ftl(buckets=64)\nmode: sampled\n",
])
def test_pure_python_loader_parses_as_libyaml_does(text, monkeypatch):
    want = parse_config(text)
    monkeypatch.setattr("fpabench.config._LOADER", yaml.SafeLoader)
    assert parse_config(text) == want
    with pytest.raises(ConfigError):
        parse_config("grid: {K: 2\n")


def test_misreport_table_parsing():
    M = parse_misreport_table("0:0;0.5:0.5;0.5:0.25;1:0.25")
    assert M(0.75) == pytest.approx(0.25)
    assert M(0.25) == pytest.approx(0.25)


def test_default_step_sizes_from_grammar():
    cfg = parse_config(MINIMAL.replace("alg2(eta=0.01)", "alg1()"))
    lrn = cfg.make_learner()
    assert isinstance(lrn, GradientBidder)
    assert lrn.policy.at(1) == pytest.approx((2 / 20000.0) ** 0.5)


# ---------------------------------------------------------------------------
# CLI


def test_cli_run_writes_schema_stable_csv(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINIMAL.replace("T: 10000", "T: 200"))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "trace_rep0.csv").read_text().splitlines()
    assert lines[0] == ("t,h_index,eta_t,exp_utility,exp_revenue,"
                        "benchmark_cum,regret_cum,potential,slack")
    assert len(lines) == 201
    summary = json.loads((out / "summary.json").read_text())
    rep = summary["replications"][0]
    for key in ("regret", "revenue_excess", "ic_gap", "min_slack",
                "wall_time_s", "bounds"):
        assert key in rep


def test_cli_sampled_mode_adds_columns(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINIMAL.replace("T: 10000", "T: 50") + "mode: sampled\n")
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    header = (out / "trace_rep0.csv").read_text().splitlines()[0]
    assert header.endswith("slack,value,bid_index,win,payment")


def test_cli_run_is_byte_deterministic(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINIMAL.replace("T: 10000", "T: 300"))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli_main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "trace_rep0.csv").read_bytes() == (out2 / "trace_rep0.csv").read_bytes()


def test_cli_misreport_twin_skips_the_prefix_benchmark(tmp_path, monkeypatch):
    import fpabench.cli as cli
    calls = []

    def recording(*args, **kwargs):
        calls.append((kwargs["benchmark"], kwargs["mode"]))
        return run_single_buyer(*args, **kwargs)

    monkeypatch.setattr(cli, "run_single_buyer", recording)
    cfg = tmp_path / "cfg.yaml"
    for mode in ("exact", "sampled"):
        calls.clear()
        cfg.write_text(MINIMAL.replace("alg2(eta=0.01)", "misreport(alg2, map=0:0;1:0.5)")
                       .replace("T: 10000", "T: 50") + f"mode: {mode}\n")
        assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        # the misreporting run keeps the config's benchmark and mode; its
        # truthful twin feeds only ic_gap, which reads no benchmark column
        # and no sampled draw
        assert calls == [("per-round", mode), ("final", "exact")]
        calls.clear()
        # a trace that is not written needs no per-round benchmark either
        assert cli_main(["run", "--config", str(cfg)]) == 0
        assert calls == [("final", mode), ("final", "exact")]


def test_cli_bounds_come_from_the_metrics_cap_table(tmp_path):
    from fpabench.metrics import guarantee_caps
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINIMAL.replace("T: 10000", "T: 50"))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    bounds = json.loads((out / "summary.json").read_text())["replications"][0]["bounds"]
    assert list(bounds) == list(guarantee_caps(2, 50, 1.0)) + ["myerson_per_round"]
    assert {k: bounds[k] for k in guarantee_caps(2, 50, 1.0)} == guarantee_caps(2, 50, 1.0)


def test_cli_summary_carries_the_revenue_totals(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINIMAL.replace("dist: uniform", "dist: equirev(0.1)")
                   .replace("T: 10000", "T: 400"))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "summary.json").read_text())["replications"][0]
    total = 0.0  # the CSV's exp_revenue column, summed left to right
    for row in (out / "trace_rep0.csv").read_text().splitlines()[1:]:
        total += float(row.split(",")[4])
    assert rep["revenue_total"] == total
    assert rep["revenue_excess"] == total - 0.125 * 400  # Myerson revenue 1/8 per round
    assert rep["min_slack"] >= -1e-8


# three sampled replications, so a three-worker run uses the process pool
THREE_REPS = MINIMAL.replace("T: 10000", "T: 200") + "mode: sampled\nreplications: 3\n"


def test_cli_run_output_independent_of_worker_count(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(THREE_REPS)
    summaries = []
    for threads in (1, 3):
        monkeypatch.setenv("FPA_BENCH_THREADS", str(threads))
        out = tmp_path / f"w{threads}"
        assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        for rep in summary["replications"]:
            del rep["wall_time_s"]
        summaries.append(summary)
    assert summaries[0] == summaries[1]
    for rep in range(3):
        name = f"trace_rep{rep}.csv"
        assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w3" / name).read_bytes()


def test_cli_sweep_output_independent_of_worker_count(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(THREE_REPS)
    rows = []
    for threads in (1, 3):
        monkeypatch.setenv("FPA_BENCH_THREADS", str(threads))
        out = tmp_path / f"w{threads}"
        assert cli_main(["sweep", "--config", str(cfg), "--param", "T=100,200",
                         "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].endswith(",wall_time_s") and len(lines) == 3
        rows.append([line.rsplit(",", 1)[0] for line in lines])
    assert rows[0] == rows[1]


def test_cli_rejects_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("grid: {K: 2}\nT: 0\n")
    assert cli_main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("where", ["missing", "directory"])
def test_cli_reports_an_unreadable_config_in_one_line(tmp_path, capsys, command, where):
    path = tmp_path / "missing.yaml" if where == "missing" else tmp_path
    extra = ["--param", "T=10"] if command == "sweep" else []
    assert cli_main([command, "--config", str(path)] + extra) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and "Traceback" not in captured.err
    assert err[0].startswith("error: [Errno ") and err[0].endswith(f"{str(path)!r}")


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_cli_refuses_an_out_dir_under_a_file_before_any_replication(tmp_path, capsys,
                                                                   monkeypatch, command):
    import fpabench.cli as cli
    runs = []
    monkeypatch.setattr(cli, "run_single_buyer",
                        lambda *args, **kwargs: runs.append(1) or run_single_buyer(*args, **kwargs))
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINIMAL.replace("T: 10000", "T: 50"))
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "x"
    extra = ["--param", "T=50"] if command == "sweep" else []
    assert cli_main([command, "--config", str(cfg), "--out", str(out)] + extra) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0] == f"error: [Errno 20] Not a directory: {str(out)!r}"
    assert runs == []


def _csv_by_cell(trace):
    """``_trace_csv``'s reference: every cell through its own repr, win as 0/1."""
    T = len(trace.h_index)
    cols = [range(1, T + 1), trace.h_index, trace.eta, trace.exp_utility,
            trace.exp_revenue, trace.benchmark_cum, trace.regret_cum,
            trace.potential, trace.slack]
    header = "t,h_index,eta_t,exp_utility,exp_revenue,benchmark_cum,regret_cum,potential,slack"
    if trace.mode == "sampled":
        cols += [trace.value, trace.bid_index, [int(w) for w in trace.win], trace.payment]
        header += ",value,bid_index,win,payment"
    return "\n".join([header] + [",".join(repr(col[t]) for col in cols)
                                 for t in range(T)]) + "\n"


_T_CSV = 150  # more than one of the formatter's row blocks
_CSV_TRACES = {
    "alg1_harmonic": lambda: run_single_buyer(
        BidGrid(4, 0.2), Uniform(), GradientBidder(BidGrid(4, 0.2), Uniform(),
                                                  HarmonicStep(1.0, 0.2)),
        StochasticCompetition((0.3, 0.25, 0.2, 0.15, 0.1)), _T_CSV),
    "alg2_sampled": lambda: run_single_buyer(
        BidGrid(4, 0.2), Uniform(), ThresholdBidder(BidGrid(4, 0.2), 0.05),
        DecreasingReserve(50, 4, 0), _T_CSV, mode="sampled", check_steps=False),
}
_ODD_COLUMNS = {
    "as_run": None,
    "one_float": lambda: [0.1 + 0.2] * _T_CSV,
    "one_nan": lambda: [math.nan] * _T_CSV,
    "equal_floats_apart": lambda: [float("0.30000000000000004") for _ in range(_T_CSV)],
    "last_zero_negative": lambda: [0.0] * (_T_CSV - 1) + [-0.0],
    "one_negative_zero": lambda: [-0.0] * _T_CSV,
}


@pytest.mark.parametrize("odd", list(_ODD_COLUMNS))
@pytest.mark.parametrize("run", list(_CSV_TRACES))
def test_trace_csv_equals_the_cell_by_cell_reference(run, odd):
    from fpabench.cli import _trace_csv
    trace = _CSV_TRACES[run]()
    if _ODD_COLUMNS[odd]:
        trace.eta, trace.potential = _ODD_COLUMNS[odd](), _ODD_COLUMNS[odd]()
        if trace.mode == "sampled":
            trace.win, trace.payment = [True] * _T_CSV, _ODD_COLUMNS[odd]()
    assert _trace_csv(trace) == _csv_by_cell(trace)


def test_cli_verify_mirror_suite(capsys):
    assert cli_main(["verify", "mirror"]) == 0
    out = capsys.readouterr().out
    assert "mirror" in out and "pass" in out


def test_cli_verify_lets_a_crashing_suite_raise(monkeypatch):
    # only run/sweep turn a ValueError into one line; a verify crash is not a FAIL
    def crash(*args):
        raise ValueError("suite crashed")
    monkeypatch.setitem(SUITES, "mirror", SUITES["mirror"]._replace(fn=crash))
    with pytest.raises(ValueError, match="suite crashed"):
        cli_main(["verify", "mirror"])


def test_cli_verify_unknown_suite_lists_the_suites(capsys):
    assert cli_main(["verify", "nosuch"]) == 2
    err = capsys.readouterr().err.strip()
    assert err.split("choices: ")[1].split(", ") == list(SUITES)


def test_cli_sweep_emits_one_row_per_point(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINIMAL + "benchmark: final\n")
    assert cli_main(["sweep", "--config", str(cfg), "--param", "T=100,200",
                     "--out", str(tmp_path / "sw")]) == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    assert out_lines[0].startswith("T,regret")
    assert len(out_lines) == 3
    sweep = (tmp_path / "sw" / "sweep.csv").read_text().strip().splitlines()
    assert len(sweep) == 3


def test_cli_sweep_formats_no_csv(tmp_path, monkeypatch, capsys):
    import fpabench.cli as cli
    formatted, real = [], cli._trace_csv

    def recording(trace):
        formatted.append(trace)
        return real(trace)

    monkeypatch.setattr(cli, "_trace_csv", recording)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINIMAL.replace("T: 10000", "T: 50"))
    assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert len(formatted) == 1  # the spy sees a written trace
    formatted.clear()
    capsys.readouterr()
    assert cli_main(["sweep", "--config", str(cfg), "--param", "T=40,60",
                     "--out", str(tmp_path / "sw")]) == 0
    assert formatted == [] and len(capsys.readouterr().out.splitlines()) == 3


@pytest.mark.parametrize("value", ["two", "0"])
def test_cli_rejects_bad_thread_cap(tmp_path, capsys, monkeypatch, value):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINIMAL.replace("T: 10000", "T: 50"))
    monkeypatch.setenv("FPA_BENCH_THREADS", value)
    assert cli_main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "FPA_BENCH_THREADS" in err[0]


@pytest.mark.parametrize("param", ["T=abc", "T=100,0", "T=-5"])
def test_cli_sweep_rejects_bad_horizon(tmp_path, capsys, param):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINIMAL + "benchmark: final\n")
    assert cli_main(["sweep", "--config", str(cfg), "--param", param]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and "T" in err[0]


def test_cli_entry_point_installed():
    proc = subprocess.run([sys.executable, "-m", "fpabench.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "fpa-bench" in proc.stdout


@pytest.mark.parametrize("flags, needle", [
    (["--reps", "0"], "replications"),
    (["--reps", "-2"], "replications"),
    (["--seed", "-1"], "seed"),
    (["--seed", str(2**64 - 1), "--reps", "2"], "seed"),
], ids=["reps0", "reps-2", "seed-1", "seed-past-64-bits"])
def test_cli_run_rejects_bad_seed_or_reps(tmp_path, capsys, flags, needle):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINIMAL.replace("T: 10000", "T: 50"))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)] + flags) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and needle in err[0]
    assert not out.exists()


@pytest.mark.parametrize("old, new, needle", [
    ("seed: 1", "seed: -1", "seed: must lie in"),
    ("K: 2,", "K: 4.9,", "K: not an integer: 4.9"),
    ("T: 10000", "T: 50.9", "T: not an integer: 50.9"),
    ("T: 10000", "T: 50\nreplications: 2.5", "replications: not an integer: 2.5"),
    ("alg2(eta=0.01)", "alg1(harmonic, fbar=1)", "learner: alg1(harmonic) needs fbar"),
    ("alg2(eta=0.01)", "alg1(harmonic)", "learner: alg1(harmonic) needs fbar"),
    ("alg2(eta=0.01)", "misreport(misreport(alg2, map=0:0;1:0.5), map=0:0;1:1)",
     "learner: misreporting bidders do not nest"),
    ("alg2(eta=0.01)", "misreport(alg2, map=0:0;0.5:nan;1:1)",
     "learner: reported values must stay in [0, 1]"),
    ("{K: 2, eps: 0.25}\ndist: uniform\nlearner: alg2(eta=0.01)",
     "{bids: [0, .nan, 0.5]}\ndist: uniform\nlearner: ftl",
     "grid: bids must be strictly increasing"),
    ("uniform\nlearner: alg2(eta=0.01)", "pwl(0:0,0.5:nan,1:1)\nlearner: alg2(eta=0.1)",
     "dist: y knots must be non-decreasing"),
    ("stochastic(0.5,0.25,0.25)", "stochastic(nan,0.5,0.5)",
     "adversary: invalid competing-bid distribution"),
], ids=["seed", "K", "T", "replications", "harmonic-no-dmin", "harmonic-no-fbar-dmin",
        "nested-misreport", "nan-map", "nan-bid", "nan-pwl", "nan-weight"])
def test_cli_run_rejects_non_integral_or_negative_config_values(tmp_path, capsys,
                                                               old, new, needle):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINIMAL.replace(old, new))
    assert cli_main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and needle in err[0]


def test_constructors_reject_nan():
    nan = float("nan")
    for build in (lambda: MisreportMap((0.0, 0.5, 1.0), (0.0, nan, 1.0)),
                  lambda: PiecewiseLinearCDF((0.0, 0.5, 1.0), (0.0, nan, 1.0)),
                  lambda: PiecewiseLinearCDF((0.0, nan, 1.0), (0.0, 0.5, 1.0)),
                  lambda: IrregularBidGrid((0.0, nan, 0.5)),
                  lambda: IrregularBidGrid((nan, 0.5)),
                  lambda: StochasticCompetition([nan, 0.5, 0.5])):
        with pytest.raises(ValueError):
            build()


def _seq_config(tmp_path, indices, T):
    seq = tmp_path / "h.txt"
    seq.write_text(" ".join(map(str, indices)) + "\n")
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"grid: {{K: 4, eps: 0.2}}\ndist: uniform\nlearner: alg2(eta=0.1)\n"
                   f"adversary: seq({seq})\nT: {T}\nbenchmark: final\n")
    return cfg


@pytest.mark.parametrize("indices, T, needle", [
    ([0, 1, 9, 2], 4, "leaves the grid 0..4"),
    ([0, 1, 2], 50, "has 3 entries, fewer than T=50"),
], ids=["off-grid", "short"])
def test_cli_run_rejects_bad_seq_file(tmp_path, capsys, indices, T, needle):
    cfg = _seq_config(tmp_path, indices, T)
    assert cli_main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: adversary:") and needle in err[0]


def test_seq_file_entries_name_their_argument(tmp_path):
    cfg = _seq_config(tmp_path, [0, 1, 2.5, 3], 4)
    with pytest.raises(ConfigError) as err:
        parse_config(cfg.read_text())
    assert err.value.errors == ["adversary: seq entry: not an integer: '2.5'"]


def test_cli_sweep_rejects_a_point_past_the_seq_file(tmp_path, capsys):
    cfg = _seq_config(tmp_path, [0, 1, 2, 3] * 25, 50)
    assert cli_main(["sweep", "--config", str(cfg), "--param", "T=50,200"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error at T=200: adversary:")
    assert "fewer than T=200" in err[0]


def test_parse_config_accepts_integral_floats():
    cfg = parse_config(MINIMAL.replace("K: 2,", "K: 2.0,").replace("T: 10000", "T: 50.0"))
    assert cfg.grid == BidGrid(2, 0.25) and cfg.T == 50


@pytest.mark.parametrize("learner", ["lazyftrl(eta=nan)", "alg1(eta=nan)", "alg2(eta=inf)",
                                     "alg1(harmonic, fbar=nan, dmin=0.1)"])
def test_cli_run_rejects_non_finite_step_size(tmp_path, capsys, learner):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINIMAL.replace("alg2(eta=0.01)", learner).replace("T: 10000", "T: 50"))
    assert cli_main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: learner:")
    assert "positive and finite" in err[0]


# each bound is finite, but the first step fbar / dmin is inf or 0.0: both
# passed parse_config and failed at round 1 with "step size eta must be
# positive and finite, got inf"
@pytest.mark.parametrize("fbar, dmin", [("1e300", "1e-300"), ("1e-300", "1e300")],
                         ids=["overflow", "underflow"])
def test_harmonic_first_step_is_checked_at_parse_time(tmp_path, capsys, fbar, dmin):
    text = MINIMAL.replace("alg2(eta=0.01)", f"alg1(harmonic, fbar={fbar}, dmin={dmin})")
    text = text.replace("T: 10000", "T: 50")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    [message] = err.value.errors
    assert message == ("learner: fbar, dmin and fbar / dmin must be positive and finite, "
                       f"got {float(fbar)} and {float(dmin)}")
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    assert cli_main(["run", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [f"config error: {message}"]


def test_bucket_table_is_bounded_before_it_is_allocated(tmp_path, capsys, monkeypatch):
    # formerly the dry build asked numpy for 745 GiB and died with a traceback;
    # the learner's arrays, arange(buckets) and zeros((buckets, K + 1)), must
    # not even be requested
    for name in ("arange", "zeros"):
        def small(shape, *args, _real=getattr(np, name), _name=name, **kwargs):
            assert np.prod(shape) <= 2**24, f"np.{_name}({shape!r})"
            return _real(shape, *args, **kwargs)
        monkeypatch.setattr(np, name, small)
    text = MINIMAL.replace("alg2(eta=0.01)", "ftl(buckets=100000000000)")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.errors == ["learner: buckets=100000000000 needs 300000000000 table cells, "
                                "more than 2**24"]
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    assert cli_main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["config error: learner: buckets=100000000000 needs 300000000000 table cells, "
                   "more than 2**24"]


# the anchored gradient sum overflows to -inf mid-run, and project_oracle
# refuses the point: formerly a traceback
OVERFLOW = MINIMAL.replace("alg2(eta=0.01)", "lazyftrl(eta=1e308)").replace("T: 10000", "T: 50")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_cli_run_reports_a_run_time_error_in_one_line(tmp_path, capsys, monkeypatch, threads):
    monkeypatch.setenv("FPA_BENCH_THREADS", threads)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(OVERFLOW + "replications: 2\n")
    assert cli_main(["run", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and "Traceback" not in captured.err
    assert err[0].startswith("error: replication 0 (seed 1, T=50): cannot project a non-finite")


def test_cli_sweep_reports_a_run_time_error_in_one_line(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(OVERFLOW)
    assert cli_main(["sweep", "--config", str(cfg), "--param", "T=50"]) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and "Traceback" not in captured.err
    assert err[0].startswith("error: replication 0 (seed 1, T=50): cannot project")


def test_cli_run_reports_a_run_time_error_through_the_entry_point(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(OVERFLOW)
    proc = subprocess.run([sys.executable, "-m", "fpabench.cli", "run", "--config", str(cfg)],
                          capture_output=True, text=True)
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


# the first step fbar / dmin is fine but a later one is not: dmin * t
# overflows to inf near t = 18,000, or fbar / (dmin * t) underflows, so the
# step became 0.0 and the run stopped mid-way
@pytest.mark.parametrize("fbar, dmin", [("1e300", "1e304"), ("1e-320", "1")],
                         ids=["overflow", "underflow"])
def test_harmonic_last_step_is_checked_at_parse_time(tmp_path, capsys, fbar, dmin):
    text = MINIMAL.replace("alg2(eta=0.01)", f"alg1(harmonic, fbar={fbar}, dmin={dmin})")
    text = text.replace("T: 10000", "T: 20000")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    [message] = err.value.errors
    assert message == ("learner: fbar / (dmin * T) must be positive, got 0.0 "
                       f"for fbar={float(fbar)}, dmin={float(dmin)}, T=20000")
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    assert cli_main(["run", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [f"config error: {message}"]
    assert parse_config(text.replace("T: 20000", "T: 1500")).T == 1500


def test_horizon_is_capped_before_the_dry_build(tmp_path, capsys, monkeypatch):
    # formerly T had no bound: the dry build drew or built T competing bids
    def refuse(self, T, K, rng):
        raise AssertionError(f"prepare({T}) was called")
    for cls in (StochasticCompetition, LowerBoundCompetition, DecreasingReserve):
        monkeypatch.setattr(cls, "prepare", refuse)
    big = 2**24 + 1
    for adversary in ("stochastic(0.5,0.25,0.25)", "lowerbound", "decreasing(5,2,1)"):
        text = MINIMAL.replace("T: 10000", f"T: {big}").replace(
            "stochastic(0.5,0.25,0.25)", adversary)
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.errors == [f"T: {big} is more than 2**24 rounds"]
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    assert cli_main(["run", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [
        f"config error: T: {big} is more than 2**24 rounds"]
    cfg.write_text(MINIMAL.replace("T: 10000", "T: 50"))
    assert cli_main(["sweep", "--config", str(cfg), "--param", f"T=50,{big}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        f"--param T values must be integers in 1..2**24, got '50,{big}'"]


# extreme numbers for the grammar's number slots; every size they reach is
# either small or refused before anything is allocated
_EXTREMES = ["0", "-0.0", "-1", "-2.5", "5e-324", "2.2e-308", "1e-300", "0.5", "1.5", "2",
             "1e308", "1.0e+308", "-1e308", "inf", "-inf", "nan", ".inf", ".nan",
             "100000000000000000000", "1.0e+30", "-100000000000000000000"]


@st.composite
def _extreme_configs(draw):
    # a valid config with one to three number slots replaced by extremes
    hot = draw(st.sets(st.sampled_from("K eps bid a b knot eta fbar dmin buckets map w "
                                       "switch hi lo T seed".split()), min_size=1, max_size=3))
    x = lambda slot, valid: draw(st.sampled_from(_EXTREMES)) if slot in hot else valid
    grid = draw(st.sampled_from([f"{{K: {x('K', 2)}, eps: {x('eps', 0.25)}}}",
                                 f"{{bids: [0, 0.25, {x('bid', 0.5)}]}}"]))
    dist = draw(st.sampled_from([
        "uniform", f"uniform({x('a', 0)}, {x('b', 1)})", f"equirev({x('a', 0.1)})",
        f"pwl(0:0, {x('knot', 0.5)}:{x('b', 0.5)}, 1:1)"]))
    inner = draw(st.sampled_from([
        f"alg1(eta={x('eta', 0.05)})", f"alg1(harmonic, fbar={x('fbar', 1)}, dmin={x('dmin', 2)})",
        f"alg2(eta={x('eta', 0.05)})", f"ftl(buckets={x('buckets', 8)})",
        f"lazyftrl(eta={x('eta', 0.05)})"]))
    learner = draw(st.sampled_from([inner,
                                    f"misreport({inner}, map=0:0;{x('map', 0.5)}:0.25;1:1)"]))
    adversary = draw(st.sampled_from([
        f"stochastic({x('w', 0.5)}, 0.25, 0.25)", "lowerbound",
        f"decreasing({x('switch', 10)}, {x('hi', 2)}, {x('lo', 1)})"]))
    mode = draw(st.sampled_from(["exact", "sampled"]))
    return (f"grid: {grid}\ndist: {dist}\nlearner: {learner}\nadversary: {adversary}\n"
            f"T: {x('T', 50)}\nseed: {x('seed', 3)}\nmode: {mode}\nbenchmark: final\n")


@settings(derandomize=True, max_examples=300, deadline=None)
@given(text=_extreme_configs())
def test_cli_run_fails_in_one_line_on_extreme_numbers(tmp_path_factory, text):
    # in process, an exception that would print a traceback propagates here
    cfg = tmp_path_factory.getbasetemp() / "extreme.yaml"
    cfg.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli_main(["run", "--config", str(cfg)])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (text, err.getvalue())
    assert "Traceback" not in err.getvalue(), text


# a branch np.where discards overflowed, or a bound did and summary.json read
# "min_slack": Infinity; a density bound that overflows is now refused
_DENSITY = "dist: the density bound of {} overflows"
_ALG2_BOUND = ("learner: eta * density bound overflows for eta=1e+308, "
               "density bound 9007199254740992.0")


@pytest.mark.parametrize("dist, learner, error", [
    ("uniform(0, 5e-324)", "ftl(buckets=8)", _DENSITY.format("Uniform(a=0.0, b=5e-324)")),
    ("uniform(0, 5e-324)", "alg2(eta=0.05)", _DENSITY.format("Uniform(a=0.0, b=5e-324)")),
    ("equirev(5e-324)", "alg2(eta=0.05)", _DENSITY.format("EqualRevenue(delta=5e-324)")),
    ("uniform", "alg1(eta=1.0e+308)", None),            # robustness_columns' 2 * eta
    ("uniform(0.5, 0.5000000000000001)", "alg2(eta=1.0e+308)", _ALG2_BOUND),
], ids=["uniform-cdf", "uniform-survival", "equirev-patch", "alg1-scale", "alg2-bound"])
def test_cli_run_on_overflowing_numbers_warns_nothing(tmp_path, capsys, dist, learner, error):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINIMAL.replace("dist: uniform", f"dist: {dist}").replace(
        "alg2(eta=0.01)", learner).replace("T: 10000", "T: 50"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli_main(["run", "--config", str(cfg)]) == (1 if error else 0)
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ([f"config error: {error}"] if error else [])


def test_cli_sweep_builds_the_learner_at_every_point_before_any_runs(tmp_path, capsys):
    # formerly only the adversary was checked: the T=100 row printed, then
    # the run at T=20000 stopped with "error: fbar / (dmin * T) ..."
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINIMAL.replace("alg2(eta=0.01)", "alg1(harmonic, fbar=1e300, dmin=1e304)")
                   .replace("T: 10000", "T: 100"))
    assert cli_main(["sweep", "--config", str(cfg), "--param", "T=100,20000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error at T=20000: learner: ")
