"""End-to-end command tests: demo/solve/analyze round trips on disk, exit
codes, determinism of the written artifacts, and the check runner."""

import argparse
import collections
import csv
import io
import itertools
import json
import math
import os
import random
import re
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from test_analysis import (
    ball_bounce_problem,
    ball_bounce_run,
    halfspace_problem,
    halfspace_run,
    mixed_kind_run,
    plain_run,
    reference_witnesses,
    zero_step_trace,
)

from evfam import analysis, cfp, cli
from evfam.analysis import follows_check
from evfam.cfp import (
    Trace,
    acsa_run,
    problem_to_json,
    row_distances,
    trace_from_records,
    trace_records,
    trace_summary,
)
from evfam.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def demo_dir(tmp_path, capsys):
    out = tmp_path / "demo"
    code, _, _ = run_cli(capsys, "demo", "two-halfspaces", "-o", str(out))
    assert code == 0
    return out


def test_demo_two_halfspaces_artifacts(demo_dir, capsys):
    summary = json.loads((demo_dir / "summary.json").read_text())
    assert summary["final"] == [0.0, 0.0]
    assert summary["iterations"] == 2
    assert summary["converged"] is True
    lines = (demo_dir / "trace.jsonl").read_text().splitlines()
    assert json.loads(lines[0]) == {"n": 0, "x": [-1.0, -1.0]}
    assert json.loads(lines[2])["x"] == [0.0, 0.0]


def test_solve_exit_codes(demo_dir, tmp_path, capsys):
    out = tmp_path / "solved"
    code, stdout, _ = run_cli(capsys, "solve", str(demo_dir / "problem.json"), "-o", str(out))
    assert code == 0
    assert "converged" in stdout

    capped = json.loads((demo_dir / "problem.json").read_text())
    capped["stop"]["max_iter"] = 1
    path = tmp_path / "capped.json"
    path.write_text(json.dumps(capped))
    code, _, _ = run_cli(capsys, "solve", str(path), "-o", str(tmp_path / "c"))
    assert code == 2

    code, _, err = run_cli(capsys, "solve", str(tmp_path / "missing.json"), "-o", str(out))
    assert code == 1 and "error:" in err

    empty = dict(capped, operators=[])
    path.write_text(json.dumps(empty))
    code, _, err = run_cli(capsys, "solve", str(path), "-o", str(out))
    assert code == 1 and "empty" in err


@pytest.mark.parametrize("stride", [1, 2, 10])
def test_a_control_word_that_runs_out_within_tol_converges(tmp_path, capsys, stride):
    # [1, 2, 1] reaches (0, 0) at step 2 and runs out at step 3: a checkpoint
    # at either is within tol, whether or not a stride falls there
    prob = {"dim": 2,
            "operators": [{"kind": "halfspace", "a": [-1.0, 0.0], "b": 0.0},
                          {"kind": "halfspace", "a": [0.0, -1.0], "b": 0.0}],
            "control": {"kind": "explicit", "indices": [1, 2, 1]},
            "x0": [-1.0, -1.0], "stop": {"stride": stride}}
    path, out = tmp_path / "word.json", tmp_path / "out"
    path.write_text(json.dumps(prob))
    code, stdout, _ = run_cli(capsys, "solve", str(path), "-o", str(out))
    summary = json.loads((out / "summary.json").read_text())
    assert code == 0 and stdout.startswith("converged after ")
    assert summary["converged"] is True and summary["stop_reason"] == "converged"
    assert summary["iterations"] == (3 if stride == 10 else 2)
    code, stdout, _ = run_cli(capsys, "analyze", str(out / "trace.jsonl"), str(path),
                              "-o", str(out))
    assert code == 0 and "certification: certified" in stdout


@pytest.mark.parametrize("argv", [
    [],
    ["solve"],
    ["analyze", "t.jsonl", "p.json", "--window", "1.5"],
    ["analyze", "t.jsonl", "p.json", "--tol", "abc"],
    ["check", "nope"],
    ["demo", "nope"],
    ["solve", "p.json", "--normalize"],
    ["analyze", "t.jsonl", "p.json", "--normalize"],
])
def test_usage_errors_exit_1(capsys, argv):
    # argparse's own code, 2, would read as an iteration cap or inconclusive
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    err = capsys.readouterr().err
    assert exit_.value.code == 1
    assert err.startswith("usage: evfam") and "error: " in err


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["check", "--help"]])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 0 and capsys.readouterr().out


def test_main_builds_one_parser_and_reuses_it(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    vacuous = ["check", cli.checks.SUITE_NAMES[0], "--budget", "0"]
    assert main(vacuous) == 0
    # the parser and one subparser per command
    assert built == ["evfam", "evfam solve", "evfam analyze", "evfam check", "evfam demo"]
    parser = cli.build_parser()
    assert main(vacuous) == 0
    # a usage error on a later call still exits 1, and --version still prints
    with pytest.raises(SystemExit) as exit_:
        main(["solve"])
    assert exit_.value.code == 1 and capsys.readouterr().err.startswith("usage: evfam solve")
    with pytest.raises(SystemExit) as exit_:
        main(["--version"])
    assert exit_.value.code == 0 and capsys.readouterr().out == f"evfam {cli.__version__}\n"
    assert len(built) == 5 and cli.build_parser() is parser


def test_importing_the_cli_builds_no_parser():
    code = ("import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "import evfam.cli\n"
            "print(len(built), evfam.cli.build_parser.cache_info().currsize)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "0 0\n"


def _options(parser):
    return {tuple(action.option_strings) for action in parser._actions if action.option_strings}


def test_each_command_takes_only_its_pinned_options():
    # a new option is a deliberate edit here: the problem file and these
    # flags are all that fixes a run
    parser = cli.build_parser()
    assert _options(parser) == {("-h", "--help"), ("--version",)}
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: _options(sub) - {("-h", "--help")} for name, sub in commands.choices.items()}
    assert all(("-h", "--help") in _options(sub) for sub in commands.choices.values())
    assert got == {
        "solve": {("-o", "--out")},
        "analyze": {("-o", "--out"), ("--ladder",), ("--tail",), ("--window",), ("--strict",),
                    ("--tol",)},
        "check": {("--seed",), ("--budget",)},
        "demo": {("-o", "--out")},
    }


def test_analyze_takes_its_defaults_from_analysis():
    args = cli.build_parser().parse_args(["analyze", "trace.jsonl", "problem.json"])
    assert cli._parse_ladder(args.ladder) == analysis.DEFAULT_LADDER
    assert args.tol == analysis.DEFAULT_TOL


def test_solve_warns_on_degenerate_relaxation(demo_dir, tmp_path, capsys):
    prob = json.loads((demo_dir / "problem.json").read_text())
    prob["relaxation"] = {"kind": "constant", "value": 2.0}
    prob["stop"]["max_iter"] = 50
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(prob))
    code, _, err = run_cli(capsys, "solve", str(path), "-o", str(tmp_path / "w"))
    assert "warning" in err and "2" in err
    assert code in (0, 2)

    prob["relaxation"] = {"kind": "cyclic", "values": [0.0, 1.0, 1.0]}
    path.write_text(json.dumps(prob))
    code, _, err = run_cli(capsys, "solve", str(path), "-o", str(tmp_path / "z"))
    assert err == "warning: relaxation schedule reaches 0; steps there make no progress\n"
    assert code == 0


def test_solve_reports_an_overflowing_iterate_as_an_error(tmp_path, capsys):
    # the averaged half-space is outside the residual bank, and its slack
    # overflows to inf in a Python float: the first step leaves the finite
    # numbers without a floating-point warning
    prob = {
        "dim": 1,
        "operators": [{"kind": "firmly_nonexpansive_avg",
                       "inner": {"kind": "halfspace", "a": [1.0], "b": -1.7e308}}],
        "control": {"kind": "cyclic"},
        "x0": [1.7e308],
    }
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(prob))
    out = tmp_path / "o"
    code, stdout, err = run_cli(capsys, "solve", str(path), "-o", str(out))
    assert code == 1 and stdout == ""
    assert err == "error: non-finite iterate at step 0 (operator 1, lambda 1.0)\n"
    assert not out.exists()


TWO_BALLS = [{"kind": "ball", "center": [0.0], "radius": 1.0},
             {"kind": "ball", "center": [0.5], "radius": 1.0}]


@pytest.mark.parametrize("operators, x0, message, stop", [
    # a stacked cut whose slack overflows at the first checkpoint
    ([{"kind": "hyperplane", "a": [1.0], "b": -1.7e308}], [1.7e308],
     "non-finite iterate at step 0 (operator 1, lambda 1.0)", {}),
    # a finite step whose norm overflows to a residual of inf
    (TWO_BALLS, [1e200], "non-finite residual at step 0 (operator 1)", {}),
    # no step at all: only the final checkpoint's maximum overflows
    (TWO_BALLS, [1e200], "non-finite maximum residual at the final checkpoint (step 0)",
     {"max_iter": 0}),
])
def test_solve_refuses_an_overflow_without_a_warning(tmp_path, capsys, operators, x0, message,
                                                      stop):
    prob = {"dim": 1, "operators": operators, "control": {"kind": "cyclic"}, "x0": x0,
            "stop": stop}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(prob))
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run_cli(capsys, "solve", str(path), "-o", str(out))
    assert code == 1 and stdout == ""
    assert err == f"error: {message}\n"
    assert "RuntimeWarning" not in err
    assert not out.exists()


@pytest.mark.parametrize("max_iter", [
    # no array holds the run's 10^15 points
    pytest.param(10**15, id="1e15"),
    # past 2**53 and past int64: only Python ints carry N
    pytest.param(10**20, id="1e20"),
])
def test_a_periodic_run_too_long_to_unroll_is_analyzed_from_its_cycle(tmp_path, capsys,
                                                                     max_iter):
    prob = {"dim": 2, "operators": [{"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
                                    {"kind": "ball", "center": [4.0, 0.0], "radius": 1.0}],
            "control": {"kind": "cyclic"}, "x0": [2.0, -0.0], "stop": {"max_iter": max_iter}}
    path = tmp_path / "long.json"
    path.write_text(json.dumps(prob))
    out = tmp_path / "o"
    # solve stores the prefix and one cycle of the run, whatever its length
    code, stdout, err = run_cli(capsys, "solve", str(path), "-o", str(out))
    assert (code, err) == (2, "") and stdout.startswith(f"max_iter after {max_iter} steps; ")
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["iterations"], summary["stop_reason"]) == (max_iter, "max_iter")
    records = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
    closing = records[-1]
    assert closing["until"] == max_iter and "x" not in closing
    # s + L + 1 records: x_4 = x_2 = (3, 0), so s = 2 and L = 2
    assert (closing["repeat"], closing["n"], len(records)) == (2, 4, 5)
    # analyze replays those records and reads the run off them: disc 1 is
    # applied at the even steps 0..N-2 and disc 2 at the odd steps 1..N-1
    report = tmp_path / "r"
    code, stdout, err = run_cli(capsys, "analyze", str(out / "trace.jsonl"), str(path),
                                "-o", str(report))
    assert (code, err) == (2, "")
    assert stdout.splitlines()[:3] == [
        f"operator {k}: relaxed witnesses {max_iter // 2}, min_c 2" for k in (1, 2)
    ] + ["certification: inconclusive"]
    doc = json.loads((report / "report.json").read_text())
    got = [(rep["witnesses"], rep["first"], rep["last"], rep["longest_gap"])
           for rep in doc["follows"]]
    want = [(max_iter // 2, 0, max_iter - 2, [1, 1]), (max_iter // 2, 1, max_iter - 1, [0, 1])]
    assert got == want
    assert all(type(v) is int for entry in got for v in (*entry[:3], *entry[3]))
    # the two cycle points, each once per lap
    assert [c["estimate"] for c in doc["estimate"]["candidates"]] == [1, 1]
    assert (report / "runs.csv").read_text().count("\n") == 1 + 4


@pytest.mark.parametrize("stride", [2**63, 1e19, 10**30])
def test_solve_takes_a_stride_beyond_int64(tmp_path, capsys, stride):
    # the run turns periodic at step 1, and no multiple of the stride falls
    # in its tail: it is the run of stride 2**62, bit for bit
    traces = []
    for k, value in enumerate((2**62, stride)):
        prob = {"dim": 1, "operators": [{"kind": "halfspace", "a": [1.0], "b": 0.0}],
                "control": {"kind": "cyclic"}, "x0": [1.0],
                "stop": {"stride": value, "max_iter": 1000}}
        path, out = tmp_path / f"p{k}.json", tmp_path / f"o{k}"
        path.write_text(json.dumps(prob))
        code, stdout, err = run_cli(capsys, "solve", str(path), "-o", str(out))
        assert (code, err) == (0, "") and stdout.startswith("converged after ")
        traces.append((out / "trace.jsonl").read_bytes() + (out / "summary.json").read_bytes())
    assert traces[0] == traces[1]


def test_a_held_point_whose_slack_overflows_solves_without_a_warning(tmp_path, capsys):
    # the slack at x0 is -inf: the half-space holds the point, and the
    # maximum residual of summary.json and of analyze's stop check is 0.0
    prob = {"dim": 1, "operators": [{"kind": "halfspace", "a": [1.0], "b": 1.7e308}],
            "control": {"kind": "cyclic"}, "x0": [-1.7e308], "stop": {"max_iter": 0}}
    path, out = tmp_path / "held.json", tmp_path / "o"
    path.write_text(json.dumps(prob))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solved = run_cli(capsys, "solve", str(path), "-o", str(out))
        analyzed = run_cli(capsys, "analyze", str(out / "trace.jsonl"), str(path), "-o", str(out))
    assert solved[0] == 0 and solved[2] == ""
    assert json.loads((out / "summary.json").read_text())["max_residual"] == 0.0
    assert analyzed[0] == 2 and analyzed[2] == ""


def test_problem_read_errors_name_the_problem_file(demo_dir, tmp_path, capsys):
    trace, problem = demo_dir / "trace.jsonl", demo_dir / "problem.json"
    try:
        json.loads(trace.read_text())
    except ValueError as exc:
        expected = f"error: problem {trace}: {exc}\n"
    # analyze with the two paths swapped, and solve given a trace
    for args in (["analyze", str(problem), str(trace)], ["solve", str(trace)]):
        code, stdout, err = run_cli(capsys, *args, "-o", str(tmp_path / "r"))
        assert (code, stdout, err) == (1, "", expected)
    assert expected.startswith(f"error: problem {trace}: Extra data: line 2 column 1")
    assert not (tmp_path / "r").exists()


def test_analyze_certified_round_trip(demo_dir, tmp_path, capsys):
    out = tmp_path / "report"
    code, stdout, _ = run_cli(
        capsys,
        "analyze",
        str(demo_dir / "trace.jsonl"),
        str(demo_dir / "problem.json"),
        "-o",
        str(out),
    )
    assert code == 0
    assert "certification: certified" in stdout
    report = json.loads((out / "report.json").read_text())
    assert report["replay_max_deviation"] == 0.0
    assert report["certification"]["status"] == "certified"
    assert [c["point"] for c in report["estimate"]["candidates"]] == [[0.0, 0.0]]
    mins = [rep["min_c"] for rep in report["follows"]]
    assert mins == [2, 2]
    assert report["estimate"]["convergent"] is True

    rows = (out / "runs.csv").read_text().splitlines()
    assert rows == ["n,dist_to_final", "1,1.0", "2,0.0"]


@pytest.mark.parametrize("build, codes", [(halfspace_problem, (0, 0)),
                                          (ball_bounce_problem, (2, 2))])
def test_report_steps_decode_to_the_witnesses(tmp_path, capsys, build, codes):
    ops, ctrl, sched, x0, stop = build()
    problem, out = tmp_path / "problem.json", tmp_path / "out"
    problem.write_text(json.dumps(problem_to_json(ops, ctrl, sched, x0, stop)))
    solved = run_cli(capsys, "solve", str(problem), "-o", str(out))[0]
    analyzed = run_cli(capsys, "analyze", str(out / "trace.jsonl"), str(problem), "-o", str(out))[0]
    assert (solved, analyzed) == codes
    report = json.loads((out / "report.json").read_text())
    assert "follows" not in report["certification"]
    trace = acsa_run(ops, ctrl, sched, x0, stop)
    found = 0
    for i, (op, rep) in enumerate(zip(ops, report["follows"], strict=True)):
        # the report states the witnesses' count and ends, and the longest
        # stretch without one, of the witnesses the library finds
        steps = follows_check(trace, op, label=i + 1).witnesses.tolist()
        assert steps == [q for q, _ in reference_witnesses(trace, op)]
        assert set(rep) == {"operator", "criterion", "window", "min_c", "ok", "witnesses",
                            "first", "last", "longest_gap"}
        assert rep["witnesses"] == len(steps) > 0
        assert (rep["first"], rep["last"]) == (steps[0], steps[-1])
        start, length = rep["longest_gap"]
        assert not [q for q in steps if start <= q < start + length]
        # a witness or an end of the run's N steps bounds it on each side
        assert start == 0 or start - 1 in steps
        assert start + length == trace.n_steps or start + length in steps
        assert length == max(b - a - 1 for a, b in zip([-1] + steps, steps + [trace.n_steps]))
        assert rep["min_c"] == length + 1
        found += len(steps)
    assert found > 0


def test_a_run_of_zero_steps_reports_no_witness(tmp_path, capsys):
    # x0 lies in both half-spaces, so the run stops before its first step
    prob = {"dim": 2, "operators": [{"kind": "halfspace", "a": [1.0, 0.0], "b": 0.0},
                                    {"kind": "halfspace", "a": [0.0, 1.0], "b": 0.0}],
            "control": {"kind": "cyclic"}, "x0": [-1.0, -2.0], "stop": {"max_iter": 50}}
    path, out = tmp_path / "feasible.json", tmp_path / "out"
    path.write_text(json.dumps(prob))
    code, stdout, _ = run_cli(capsys, "solve", str(path), "-o", str(out))
    assert code == 0 and stdout.startswith("converged after 0 steps; ")
    code, stdout, err = run_cli(capsys, "analyze", str(out / "trace.jsonl"), str(path),
                                "-o", str(out))
    assert (code, err) == (2, "")
    assert stdout.splitlines()[:3] == ["operator 1: relaxed witnesses 0, min_c none",
                                       "operator 2: relaxed witnesses 0, min_c none",
                                       "certification: inconclusive"]
    report = json.loads((out / "report.json").read_text())
    assert [(rep["operator"], rep["witnesses"], rep["first"], rep["last"], rep["longest_gap"],
             rep["min_c"], rep["ok"]) for rep in report["follows"]] == [
        (k, 0, None, None, [0, 0], None, False) for k in (1, 2)]


def test_a_long_cycled_run_has_a_small_report(tmp_path, capsys):
    # two discs: x_2 = x_4, so the stored run is 4 steps of the 10^5, and
    # each disc is applied at every other step of them all
    max_iter = 10**5
    prob = {"dim": 2, "operators": [{"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
                                    {"kind": "ball", "center": [4.0, 0.0], "radius": 1.0}],
            "control": {"kind": "cyclic"}, "x0": [2.0, -0.0], "stop": {"max_iter": max_iter}}
    path, out = tmp_path / "balls.json", tmp_path / "out"
    path.write_text(json.dumps(prob))
    assert run_cli(capsys, "solve", str(path), "-o", str(out))[0] == 2
    assert json.loads((out / "trace.jsonl").read_text().splitlines()[-1])["until"] == max_iter
    assert run_cli(capsys, "analyze", str(out / "trace.jsonl"), str(path), "-o", str(out))[0] == 2
    assert (out / "report.json").stat().st_size < 8 * 1024
    report = json.loads((out / "report.json").read_text())
    assert [(rep["witnesses"], rep["first"], rep["last"], rep["longest_gap"], rep["min_c"])
            for rep in report["follows"]] == [
        (max_iter // 2, 0, max_iter - 2, [1, 1], 2),
        (max_iter // 2, 1, max_iter - 1, [0, 1], 2)]


def test_analyze_replay_gate(demo_dir, tmp_path, capsys):
    prob = json.loads((demo_dir / "problem.json").read_text())
    prob["operators"][0]["b"] = 0.25
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps(prob))
    code, _, err = run_cli(
        capsys, "analyze", str(demo_dir / "trace.jsonl"), str(path), "-o", str(tmp_path / "r")
    )
    assert code == 1
    assert "replay" in err


def test_analyze_truncated_trace_inconclusive(demo_dir, tmp_path, capsys):
    lines = (demo_dir / "trace.jsonl").read_text().splitlines()
    cut = tmp_path / "cut.jsonl"
    cut.write_text("\n".join(lines[:2]) + "\n")
    code, stdout, _ = run_cli(
        capsys, "analyze", str(cut), str(demo_dir / "problem.json"),
        "-o", str(tmp_path / "r2"),
    )
    assert code == 2
    assert "inconclusive" in stdout


def _hyperplanes_through_0(angle, x0, max_iter):
    """Two lines through the origin at the given angle, under a cyclic
    control: the run creeps toward 0 and stops at its cap."""
    return {
        "dim": 2,
        "operators": [
            {"kind": "hyperplane", "a": [0.0, 1.0], "b": 0.0},
            {"kind": "hyperplane", "a": [-math.sin(angle), math.cos(angle)], "b": 0.0},
        ],
        "control": {"kind": "cyclic"},
        "x0": x0,
        "stop": {"tol": 1e-12, "max_iter": max_iter, "stride": 10},
    }


@pytest.mark.parametrize("angle, x0, max_iter", [
    (0.1, [1.0, 1.0], 3070),
    # its final residual is 9.5e-6: a tail taken for a limit at a radius
    # looser than --tol would assert it and exit 3
    (0.01, [1e-3, 0.0], 1000),
])
def test_the_report_explains_an_unconverged_exit_code(tmp_path, capsys, angle, x0, max_iter):
    problem, out = tmp_path / "problem.json", tmp_path / "out"
    problem.write_text(json.dumps(_hyperplanes_through_0(angle, x0, max_iter)))
    assert run_cli(capsys, "solve", str(problem), "-o", str(out))[0] == 2
    code, stdout, _ = run_cli(capsys, "analyze", str(out / "trace.jsonl"), str(problem),
                              "-o", str(out))
    assert code == 2 and "certification: inconclusive" in stdout
    report = json.loads((out / "report.json").read_text())
    # the one estimate: the tail still drifts, so no candidate reaches the
    # level any operator needs, and certification asserts no pair
    assert report["estimate"]["convergent"] is False
    needs = [rep["min_c"] + 1 for rep in report["follows"] if rep["min_c"] is not None]
    assert needs
    for cand in report["estimate"]["candidates"]:
        assert all(cand["estimate"] != "inf" and cand["estimate"] < need for need in needs)
    assert report["certification"] == {"status": "inconclusive", "entries": []}


def test_analyze_bad_ladder(demo_dir, tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "analyze", str(demo_dir / "trace.jsonl"), str(demo_dir / "problem.json"),
        "-o", str(tmp_path / "r3"), "--ladder", "0.1,0.2",
    )
    assert code == 1 and "ladder" in err
    code, _, err = run_cli(
        capsys, "analyze", str(demo_dir / "trace.jsonl"), str(demo_dir / "problem.json"),
        "-o", str(tmp_path / "r4"), "--ladder", "0.1,x",
    )
    assert code == 1
    assert err == "error: bad ladder '0.1,x'; expected comma-separated floats\n"


THREE_BALLS = {
    # three disjoint discs: the run settles on a three-point limit cycle and
    # never converges, so analyze takes the clustering and ladder paths
    "dim": 2,
    "operators": [
        {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
        {"kind": "ball", "center": [4.0, 0.0], "radius": 1.0},
        {"kind": "ball", "center": [0.0, 4.0], "radius": 1.0},
    ],
    "control": {"kind": "cyclic"},
    "x0": [5.0, 5.0],
    "stop": {"max_iter": 300},
}


def test_outputs_are_byte_identical(demo_dir, tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code, _, _ = run_cli(
            capsys, "analyze", str(demo_dir / "trace.jsonl"),
            str(demo_dir / "problem.json"), "-o", str(out),
        )
        assert code == 0
    for name in ("report.json", "runs.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()

    problem = tmp_path / "balls.json"
    problem.write_text(json.dumps(THREE_BALLS))
    stdouts = []
    for out in (tmp_path / "balls-a", tmp_path / "balls-b"):
        code, solved, _ = run_cli(capsys, "solve", str(problem), "-o", str(out))
        assert code == 2
        code, analyzed, _ = run_cli(
            capsys, "analyze", str(out / "trace.jsonl"), str(problem), "-o", str(out)
        )
        assert code == 2 and "certification: inconclusive" in analyzed
        stdouts.append((solved + analyzed).replace(str(out), "OUT"))
    assert stdouts[0] == stdouts[1]
    for name in ("trace.jsonl", "summary.json", "report.json", "runs.csv"):
        first = (tmp_path / "balls-a" / name).read_bytes()
        assert first == (tmp_path / "balls-b" / name).read_bytes()
    estimate = json.loads((tmp_path / "balls-a" / "report.json").read_text())["estimate"]
    assert estimate["convergent"] is False
    assert len(estimate["candidates"]) == 3
    for cand in estimate["candidates"]:
        # each cycle point is visited once per lap: runs of one at every radius
        assert cand["estimate"] == 1
        assert [row["run"] for row in cand["per_eps"]] == [1, 1, 1, 1]


def test_demo_counterexample(tmp_path, capsys):
    out = tmp_path / "ce"
    code, stdout, _ = run_cli(capsys, "demo", "counterexample", "-o", str(out))
    assert code == 0
    assert "no classical limit" in stdout
    report = json.loads((out / "report.json").read_text())
    assert report["convergent"] is False
    assert report["classical_limit"] is None
    [cand] = report["candidates"]
    assert cand["point"] == [-1.0]
    assert cand["estimate"] == 1
    assert all(row["run"] == 1 for row in cand["per_eps"])


def test_demo_families_tour(tmp_path, capsys):
    out = tmp_path / "tour"
    code, stdout, _ = run_cli(capsys, "demo", "families-tour", "-o", str(out))
    assert code == 0
    assert "no filter" in stdout
    tour = json.loads((out / "tour.json").read_text())
    by_name = {entry["name"]: entry for entry in tour}
    assert by_name["infinite-subsets"]["filter"] is False
    assert by_name["cofinite-subsets"]["filter"] is True
    assert by_name["cogap-level-3"]["contains_evens"] is False
    assert by_name["infinite-subsets"]["family"] == {"ground": "N", "kind": "infinite"}
    assert by_name["cofinite-subsets"]["family"] == {"ground": "N", "kind": "cofinite"}
    assert by_name["cogap-level-3"]["family"] == {"c": 3, "ground": "N", "kind": "cogap_level"}


def test_check_command(tmp_path, capsys, monkeypatch):
    code, stdout, _ = run_cli(capsys, "check", "intseq", "--budget", "40", "--seed", "3")
    assert code == 0
    assert "all 4 checks passed" in stdout

    code, stdout, _ = run_cli(capsys, "check", "all", "--budget", "0")
    assert code == 0
    assert stdout.count(".vacuous: 0 cases") == 6

    # --seed alone picks the seed: the environment does not reach it
    monkeypatch.delenv("EVFAM_SEED", raising=False)
    direct = run_cli(capsys, "check", "intseq", "--budget", "40", "--seed", "3")
    monkeypatch.setenv("EVFAM_SEED", "9")
    assert run_cli(capsys, "check", "intseq", "--budget", "40", "--seed", "3") == direct


def test_check_rejects_negative_budget(capsys):
    message = "error: the budget must be an integer >= 0, got -1\n"
    for suite in ("intseq", "cfp", "all"):
        assert run_cli(capsys, "check", suite, "--budget", "-1") == (1, "", message)


@pytest.mark.parametrize("suite", ["intseq", "cfp", "all"])
def test_check_rejects_a_negative_seed(capsys, suite):
    message = "error: the seed must be an integer >= 0, got -1\n"
    assert run_cli(capsys, "check", suite, "--seed", "-1") == (1, "", message)


def dumps(obj):
    return json.dumps(obj, sort_keys=True, allow_nan=False)


def test_the_shared_encoder_writes_the_bytes_of_json_dumps(tmp_path, capsys):
    held = 0
    for ops, trace in (ball_bounce_run(), halfspace_run(), zero_step_trace(), mixed_kind_run()):
        records = trace_records(trace)
        # no nested object and no string value: the one-encode trace writer
        # finds "}, {" only between two records
        for rec in records:
            for value in rec.values():
                assert type(value) in (int, float) or (
                    type(value) is list and set(map(type, value)) == {float})
        held += sum("x" not in rec for rec in records)
        cli._write_artifacts(tmp_path, {"trace.jsonl": cli._dump_jsonl(records)})
        lines = (tmp_path / "trace.jsonl").read_text()
        assert lines == "\n".join(map(dumps, records)) + "\n"
        summary = trace_summary(ops, trace)
        assert cli._dump_json(summary) == dumps(summary) + "\n"
    assert held  # a held point's record has no "x"
    cli._write_artifacts(tmp_path, {"empty.jsonl": cli._dump_jsonl([])})
    assert (tmp_path / "empty.jsonl").read_text() == "\n"
    problem = tmp_path / "balls.json"
    problem.write_text(json.dumps(THREE_BALLS))
    out = tmp_path / "balls"
    run_cli(capsys, "solve", str(problem), "-o", str(out))
    run_cli(capsys, "analyze", str(out / "trace.jsonl"), str(problem), "-o", str(out))
    for name in ("summary.json", "report.json"):
        text = (out / name).read_text()
        assert text == dumps(json.loads(text)) + "\n"
    odd = {"b": [1e-320, -0.0, 2**70, True, None], "a": {"é": "\u2028"}, "": 0.1}
    assert cli._dump_json(odd) == dumps(odd) + "\n"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_the_shared_encoder_refuses_non_finite_numbers(tmp_path, value):
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._dump_json({"res": value})
    records = [{"n": 0}, {"x": [0.0, value]}]
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._write_artifacts(tmp_path, {"trace.jsonl": cli._dump_jsonl(records)})
    assert os.listdir(tmp_path) == []


def test_a_failed_encode_leaves_no_artifact_of_any_command(demo_dir, tmp_path, capsys,
                                                           monkeypatch):
    # runs.csv is encoded after report.json: neither may be written
    def refuse(trace):
        raise ValueError("runs.csv refused")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_dump_runs", refuse)
        with pytest.raises(ValueError, match="runs.csv refused"):
            cli.main(["analyze", str(demo_dir / "trace.jsonl"), str(demo_dir / "problem.json"),
                      "-o", str(tmp_path / "report")])
    # summary.json is encoded after problem.json and trace.jsonl
    real = cfp.trace_summary
    monkeypatch.setattr(cfp, "trace_summary",
                        lambda ops, trace: dict(real(ops, trace), max_residual=math.nan))
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli.main(["demo", "two-halfspaces", "-o", str(tmp_path / "again")])
    capsys.readouterr()
    assert os.listdir(tmp_path) == ["demo"]


# ---------------------------------------------------------------------------
# one call per artifact: the trace writer, the trace reader and runs.csv


def _per_line_read(path):
    """The reader that parses one line at a time: the oracle of
    cli._read_trace, which must give the same trace or the same error."""
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except ValueError as exc:
                raise ValueError(f"trace line {lineno}: {exc}") from None
    return trace_from_records(records)


def _outcome(read, path):
    try:
        trace = read(path)
    except cli._INPUT_ERRORS as exc:
        return type(exc).__name__, str(exc)
    columns = (trace.iterates, trace.controls, trace.relaxations)
    return "trace", [(col.dtype.str, col.shape, col.tobytes()) for col in columns]


def _same_read(path):
    got = _outcome(cli._read_trace, path)
    assert got == _outcome(_per_line_read, path)
    return got


def _joined_checks_pass(text):
    """Does text pass the one-parse read's line checks: one value per
    non-blank line, each ending in "}"?"""
    lines = [line for line in text.split("\n") if line.strip()]
    values = json.loads("[" + ",".join(lines) + "]")
    return len(values) == len(lines) and all(line.rstrip().endswith("}") for line in lines)


STEP = '{"i": 1, "lambda": 1.0, "n": %d}'


def test_a_count_check_alone_would_misread_a_split_record(tmp_path):
    text = ('{"n": 0, "x": [0.12\n5, 2.0]}\n'
            f"{STEP % 1}, {STEP % 2}\n{STEP % 3}\n")
    lines = [line for line in text.split("\n") if line.strip()]
    values = json.loads("[" + ",".join(lines) + "]")
    # one value per line, and a valid trace with 3 coordinates: a read on
    # the count alone takes it
    assert len(values) == len(lines)
    assert trace_from_records(values).iterates.shape == (4, 3)
    path = tmp_path / "t.jsonl"
    path.write_text(text)
    assert _same_read(path) == (
        "ValueError", "trace line 1: Expecting ',' delimiter: line 2 column 1 (char 20)")


@pytest.mark.parametrize("text", [
    # a nested object's "}" ends a line, and the count still matches
    '{"n": 0, "x": [{}\n{}], "q": 1}, ' + STEP % 1 + "\n",
    # a string that spans the join: "}\n" inside it becomes "},"
    '{"n": 0, "x": [0.0], "s": "}\n"}, ' + STEP % 1 + "\n",
])
def test_the_line_checks_cannot_pass_a_misread_trace(tmp_path, text):
    assert _joined_checks_pass(text)
    path = tmp_path / "t.jsonl"
    path.write_text(text)
    kind, message = _same_read(path)
    assert kind == "ValueError" and message.startswith("trace line 1: ")


@pytest.mark.parametrize("edit, accepted", [
    (lambda text: text, True),
    (lambda text: text.replace("\n", "\r\n"), True),
    (lambda text: text.replace("\n", "\n\n  \n\t\n\x0c\n\u2028\n"), True),
    (lambda text: "\n \n" + text + "\n\n", True),
    (lambda text: text.rstrip("\n"), True),
    (lambda text: text.replace("}\n", "}  \n"), True),
    # U+2028 is whitespace to str.strip, but neither a line break nor JSON
    # whitespace: inside a line, and at its end, it is an error
    (lambda text: text.replace(", ", ",\u2028", 1), False),
    (lambda text: text.replace("}\n", "}\u2028\n", 1), False),
    (lambda text: text.replace("}\n", "}\x0c\n", 1), False),
    (lambda text: text.replace("}\n", "} x\n", 2), False),
    (lambda text: text.replace("}\n{", "}, {", 1), False),
    (lambda text: "", False),
])
def test_the_one_parse_read_equals_the_per_line_read(demo_dir, tmp_path, edit, accepted):
    path = tmp_path / "t.jsonl"
    path.write_bytes(edit((demo_dir / "trace.jsonl").read_text()).encode())
    assert (_same_read(path)[0] == "trace") == accepted


def test_the_one_parse_read_equals_the_per_line_read_under_mutation(tmp_path):
    _, trace = ball_bounce_run()
    lines = cli._dump_jsonl(trace_records(trace)[:12]).split("\n")[:-1]
    blanks = ("", " ", "\t", "\x0c", "\u2028", "\xa0")
    garbage = '{}[],:" 01e.-x\t\x0c\u2028'
    rng = random.Random(2026)
    path = tmp_path / "t.jsonl"
    kinds = collections.Counter()
    for _ in range(2000):
        mutated = list(lines)
        for _ in range(rng.randint(1, 3)):
            k = rng.randrange(len(mutated))
            op = rng.randrange(4)
            if op == 0 and k + 1 < len(mutated):  # merge two lines
                joint = rng.choice(("", " ", ",", ", "))
                mutated[k:k + 2] = [mutated[k] + joint + mutated[k + 1]]
            elif op == 1:  # split a line
                cut = rng.randrange(len(mutated[k]) + 1)
                mutated[k:k + 1] = [mutated[k][:cut], mutated[k][cut:]]
            elif op == 2:  # insert a blank line
                mutated.insert(k, rng.choice(blanks))
            else:  # insert garbage, at the end of the line or inside it
                at = rng.choice((len(mutated[k]), rng.randrange(len(mutated[k]) + 1)))
                junk = "".join(rng.choices(garbage, k=rng.randint(1, 3)))
                mutated[k] = mutated[k][:at] + junk + mutated[k][at:]
        newline = rng.choice(("\n", "\r\n"))
        text = newline.join(mutated) + rng.choice((newline, ""))
        path.write_bytes(text.encode())
        kinds[_same_read(path)[0]] += 1
    assert kinds["trace"] >= 200 and kinds["ValueError"] >= 200


def test_runs_csv_has_the_bytes_of_csv_writer():
    traces = [
        Trace(iterates=[[v] for v in [0.0, 5e-324, -0.0, 1e16, 3.0, 0.1, 1e150, -2.0, 2.0]],
              controls=range(1, 9), relaxations=[1.0] * 8),
        Trace(iterates=[[1.0]]),
        ball_bounce_run()[1],
        halfspace_run()[1],
    ]
    for trace in traces:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("n", "dist_to_final"))
        dists = row_distances(trace.iterates[1:], trace.final).tolist()
        writer.writerows(zip(range(1, trace.n_steps + 1), dists))
        assert cli._dump_runs(trace) == buf.getvalue()
    # float reprs, as csv.writer writes them: 1e+150, not 1e150 or 1.0e+150
    assert cli._dump_runs(traces[0]) == (
        "n,dist_to_final\n1,2.0\n2,2.0\n3,9999999999999998.0\n4,1.0\n5,1.9\n6,1e+150\n"
        "7,4.0\n8,0.0\n")


def test_atomic_writes_leave_no_temp_files(demo_dir):
    leftovers = [name for name in os.listdir(demo_dir) if name.startswith(".evfam-")]
    assert leftovers == []


def test_a_failed_rename_leaves_no_temp_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        cli._write_text(tmp_path / "summary.json", "{}")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
def test_artifacts_honour_the_umask(tmp_path, capsys, umask):
    demo, out = tmp_path / "demo", tmp_path / "out"
    old = os.umask(umask)
    try:
        assert run_cli(capsys, "demo", "two-halfspaces", "-o", str(demo))[0] == 0
        assert run_cli(capsys, "solve", str(demo / "problem.json"), "-o", str(out))[0] == 0
        code, _, _ = run_cli(capsys, "analyze", str(out / "trace.jsonl"),
                             str(demo / "problem.json"), "-o", str(out))
        assert code == 0
    finally:
        os.umask(old)
    modes = {
        f"{d.name}/{p.name}": stat.S_IMODE(p.stat().st_mode) for d in (demo, out) for p in d.iterdir()
    }
    assert sorted(modes) == [
        "demo/problem.json", "demo/summary.json", "demo/trace.jsonl",
        "out/report.json", "out/runs.csv", "out/summary.json", "out/trace.jsonl",
    ]
    assert set(modes.values()) == {0o666 & ~umask}


def _edited_trace(demo_dir, tmp_path, step, drop=(), **fields):
    """The demo trace with the record of ``step`` changed, and the keys in
    ``drop`` deleted from it."""
    lines = (demo_dir / "trace.jsonl").read_text().splitlines()
    rec = json.loads(lines[step])
    rec.update(fields)
    for key in drop:
        del rec[key]
    lines[step] = json.dumps(rec)
    path = tmp_path / "edited.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize(
    "fields, needle",
    [
        ({"i": 0}, "outside 1..2"),
        ({"i": 3}, "outside 1..2"),
        ({"x": [0.0, 0.0, 0.0]}, "dimension"),
        ({"x": [float("nan"), 0.0]}, "finite"),
        ({"lambda": 2.5}, "[0, 2]"),
        ({"res": 123.0}, "the record of step 1 has the unexpected field 'res'"),
        ({"i": 1.5}, "integer"),
        ({"n": True}, "integer"),
        ({"n": 1.0}, "integer"),
        ({"i": 1.0}, "integer"),
        ({"i": True}, "integer"),
        ({"i": 10**30}, "too large"),
        ({"res": 10**400}, "the record of step 1 has the unexpected field 'res'"),
        ({"res": -10**400}, "the record of step 1 has the unexpected field 'res'"),
    ],
)
def test_analyze_rejects_edited_trace(demo_dir, tmp_path, capsys, fields, needle):
    trace = _edited_trace(demo_dir, tmp_path, 1, **fields)
    code, _, err = run_cli(
        capsys, "analyze", str(trace), str(demo_dir / "problem.json"),
        "-o", str(tmp_path / "r"),
    )
    assert code == 1
    assert err.startswith("error:") and needle in err
    assert not (tmp_path / "r" / "runs.csv").exists()


def test_analyze_rejects_wrong_dimension_start(demo_dir, tmp_path, capsys):
    lines = (demo_dir / "trace.jsonl").read_text().splitlines()
    wide = [json.loads(line) for line in lines]
    for rec in wide:
        rec["x"] = rec["x"] + [0.0]
    path = tmp_path / "wide.jsonl"
    path.write_text("\n".join(json.dumps(rec) for rec in wide) + "\n")
    code, _, err = run_cli(
        capsys, "analyze", str(path), str(demo_dir / "problem.json"),
        "-o", str(tmp_path / "r"),
    )
    assert code == 1 and err.startswith("error:") and "dimension" in err


def test_replay_names_the_trace_in_its_dimension_error(demo_dir, tmp_path, capsys):
    prob = json.loads((demo_dir / "problem.json").read_text())
    prob["dim"] = 3
    prob["x0"] = [-1.0, -1.0, 0.0]
    for op in prob["operators"]:
        op["a"] = op["a"] + [0.0]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(prob))
    code, _, err = run_cli(capsys, "analyze", str(demo_dir / "trace.jsonl"), str(path),
                           "-o", str(tmp_path / "r"))
    assert (code, err) == (1, "error: the trace's start point: expected dimension 3, got 2\n")


@pytest.mark.parametrize("op, field", [
    ({"kind": "hyperplane", "a": [-1.0, 0.0], "b": 1e400}, "the offset b"),
    ({"kind": "halfspace", "a": [-1.0, 0.0], "b": -1e400}, "the offset b"),
    ({"kind": "ball", "center": [0.0, 0.0], "radius": 1e400}, "the radius"),
])
def test_problem_refuses_non_finite_operator_scalars(demo_dir, tmp_path, capsys, op, field):
    # json reads 1e400 as inf, which no operator may hold
    prob = json.loads((demo_dir / "problem.json").read_text())
    prob["operators"][1] = op
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(prob).replace("Infinity", "1e400"))
    code, _, err = run_cli(capsys, "solve", str(path), "-o", str(tmp_path / "r"))
    assert code == 1 and err.startswith(f"error: operator 2: {field} must be finite, got ")
    assert not (tmp_path / "r").exists()


def test_analyze_rejects_non_object_record(demo_dir, tmp_path, capsys):
    lines = (demo_dir / "trace.jsonl").read_text().splitlines()
    path = tmp_path / "listed.jsonl"
    path.write_text("\n".join([lines[0], "[1, 2]", *lines[2:]]) + "\n")
    code, _, err = run_cli(
        capsys, "analyze", str(path), str(demo_dir / "problem.json"),
        "-o", str(tmp_path / "r"),
    )
    assert code == 1 and err.startswith("error:") and "JSON objects" in err


@pytest.mark.parametrize("command", ["solve", "analyze", "demo"])
def test_an_out_path_that_names_a_file_is_an_error(demo_dir, capsys, command):
    problem, trace = str(demo_dir / "problem.json"), str(demo_dir / "trace.jsonl")
    args = {"solve": [problem], "analyze": [trace, problem], "demo": ["two-halfspaces"]}
    code, _, err = run_cli(capsys, command, *args[command], "-o", problem)
    assert code == 1 and err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("command", ["solve", "analyze"])
def test_problem_must_be_a_json_object(demo_dir, tmp_path, capsys, command):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([json.loads((demo_dir / "problem.json").read_text())]))
    args = [str(path)] if command == "solve" else [str(demo_dir / "trace.jsonl"), str(path)]
    code, _, err = run_cli(capsys, command, *args, "-o", str(tmp_path / "r"))
    assert code == 1 and err.startswith("error:") and "JSON object" in err


@pytest.mark.parametrize("text, shown", [("5", "5"), ("[]", "[]"), ('"x"', "'x'")])
def test_a_problem_that_is_no_object_has_one_message(tmp_path, capsys, text, shown):
    path = tmp_path / "scalar.json"
    path.write_text(text)
    assert run_cli(capsys, "solve", str(path), "-o", str(tmp_path / "r")) == (
        1, "", f"error: the problem must be a JSON object, got {shown}\n")


@pytest.mark.parametrize("tail", ["-1", "3"])
def test_analyze_names_the_tail_range_and_value(demo_dir, tmp_path, capsys, tail):
    out = tmp_path / "r"
    assert run_cli(capsys, "analyze", str(demo_dir / "trace.jsonl"),
                   str(demo_dir / "problem.json"), "--tail", tail, "-o", str(out)) == (
        1, "", f"error: the tail start must lie in 0..2, got {tail}\n")
    assert not out.exists()


def test_analyze_slow_unconverged_run_is_inconclusive(tmp_path, capsys):
    # two half-spaces meeting at a 1e-3 rad wedge: after 400 steps the run
    # still drifts toward the apex, which is no evidence of a faulty operator
    prob = {
        "dim": 2,
        "operators": [
            {"kind": "halfspace", "a": [0.0, 1.0], "b": 0.0},
            {"kind": "halfspace", "a": [1e-3, -1.0], "b": 0.0},
        ],
        "control": {"kind": "cyclic"},
        "x0": [1.0, 0.5],
        "stop": {"max_iter": 400},
    }
    path = tmp_path / "wedge.json"
    path.write_text(json.dumps(prob))
    out = tmp_path / "w"
    code, _, _ = run_cli(capsys, "solve", str(path), "-o", str(out))
    assert code == 2
    code, stdout, _ = run_cli(capsys, "analyze", str(out / "trace.jsonl"), str(path), "-o", str(out))
    assert code == 2
    assert "certification: inconclusive" in stdout


@pytest.mark.parametrize("tol, code, status", [("1e-6", 0, "certified"),
                                               ("1e-9", 2, "inconclusive")])
def test_analyze_at_a_tighter_tol_than_the_solve_is_inconclusive(tmp_path, capsys, tol,
                                                                 code, status):
    # solve converges at its tol 1e-6 with max residual 2**-20; under a
    # tighter --tol the run is an unconverged tail, not a faulty operator
    prob = {"dim": 2, "operators": [{"kind": "halfspace", "a": [-1.0, 0.0], "b": 0.0},
                                    {"kind": "halfspace", "a": [0.0, -1.0], "b": 0.0}],
            "control": {"kind": "cyclic"}, "relaxation": {"kind": "constant", "value": 0.5},
            "x0": [-1.0, -1.0], "stop": {"tol": 1e-6, "max_iter": 1000, "stride": 1}}
    path, out = tmp_path / "halving.json", tmp_path / "o"
    path.write_text(json.dumps(prob))
    assert run_cli(capsys, "solve", str(path), "-o", str(out))[0] == 0
    got, stdout, err = run_cli(capsys, "analyze", str(out / "trace.jsonl"), str(path),
                               "-o", str(out), "--tol", tol)
    assert (got, err) == (code, "") and f"certification: {status}" in stdout
    report = json.loads((out / "report.json").read_text())
    assert report["certification"]["status"] == status


@pytest.mark.parametrize(
    "flags, needle",
    [
        (["--ladder", "0.1,nan"], "ladder"),
        (["--ladder=-1"], "ladder"),
        (["--tol", "nan"], "tolerance"),
    ],
)
def test_analyze_rejects_non_finite_options(demo_dir, tmp_path, capsys, flags, needle):
    code, _, err = run_cli(
        capsys, "analyze", str(demo_dir / "trace.jsonl"), str(demo_dir / "problem.json"),
        "-o", str(tmp_path / "r"), *flags,
    )
    assert code == 1 and err.startswith("error:") and needle in err
    assert not (tmp_path / "r" / "report.json").exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--tol", "nan"], "the residual tolerance must be finite and >= 0, got nan"),
        (["--tol", "-1"], "the residual tolerance must be finite and >= 0, got -1.0"),
        (["--tol", "inf"], "the residual tolerance must be finite and >= 0, got inf"),
        (["--ladder", "0.1,inf"], "the epsilon ladder needs positive finite radii, got inf"),
        (["--ladder", "0.1,0.0"], "the epsilon ladder needs positive finite radii, got 0.0"),
    ],
)
def test_analyze_names_the_bad_value_of_an_option(demo_dir, tmp_path, capsys, flags, message):
    code, _, err = run_cli(
        capsys, "analyze", str(demo_dir / "trace.jsonl"), str(demo_dir / "problem.json"),
        "-o", str(tmp_path / "r"), *flags,
    )
    assert (code, err) == (1, f"error: {message}\n")
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "stop, needle",
    [
        ([], "stop rule"),
        ({"max_iter": 1.5}, "max_iter"),
        ({"tol": float("nan")}, "stop rule"),
        ({"stride": True}, "stride"),
        ({"stride": 0}, "stride must be an integer >= 1, got 0"),
        ({"max_iter": -5}, "max_iter must be an integer >= 0, got -5"),
        ({"tol": -1}, "tol must be a finite number >= 0, got -1.0"),
        ({"tol": math.inf}, "tol must be a finite number >= 0, got inf"),
    ],
)
def test_problem_rejects_misread_stop_rules(demo_dir, tmp_path, capsys, stop, needle):
    prob = json.loads((demo_dir / "problem.json").read_text())
    prob["stop"] = stop
    path = tmp_path / "stop.json"
    path.write_text(json.dumps(prob))
    code, _, err = run_cli(capsys, "solve", str(path), "-o", str(tmp_path / "r"))
    assert code == 1 and err.startswith("error:") and needle in err


@pytest.mark.parametrize(
    "edit, needle",
    [
        ({"relaxation": {"kind": "cyclic", "values": "11"}}, "relaxation"),
        ({"relaxation": {"kind": "constant", "value": True}}, "relaxation"),
        ({"stop": {"tol": "1e-6"}}, "tol"),
        ({"operators": [{"kind": "halfspace", "a": [-1.0, 0.0], "b": "0"},
                        {"kind": "halfspace", "a": [0.0, -1.0], "b": 0.0}]}, "offset"),
        ({"x0": ["-1", "-1"]}, "numbers"),
        ({"x0": [10**400, -1.0]}, "a coordinate lies beyond the float range"),
        ({"x0": [2**64, -1.0]}, "an integer coordinate must fit in 64 bits"),
        # a word field that is no JSON list is named, not iterated
        ({"control": {"kind": "almost_cyclic", "pattern": 5}},
         "the almost_cyclic control's pattern must be a JSON list, got 5"),
        ({"control": {"kind": "almost_cyclic", "pattern": "12"}},
         "the almost_cyclic control's pattern must be a JSON list, got '12'"),
        ({"control": {"kind": "explicit", "indices": {"a": 1}}},
         "the explicit control's indices must be a JSON list, got {'a': 1}"),
        ({"relaxation": {"kind": "cyclic", "values": 1.5}},
         "the cyclic relaxation's values must be a JSON list, got 1.5"),
        ({"relaxation": {"kind": "cyclic", "values": None}},
         "the cyclic relaxation's values must be a JSON list, got None"),
        # one rule for an integer past int64, whatever dtype numpy infers
        ({"x0": [2**63, 1]}, "an integer coordinate must fit in 64 bits"),
        ({"x0": [2**63, -1]}, "an integer coordinate must fit in 64 bits"),
        ({"x0": [2**63]}, "an integer coordinate must fit in 64 bits"),
        ({"x0": [2**63, 1.5]}, "an integer coordinate must fit in 64 bits"),
    ],
)
def test_problem_rejects_non_numeric_json(demo_dir, tmp_path, capsys, edit, needle):
    prob = json.loads((demo_dir / "problem.json").read_text())
    prob.update(edit)
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(prob))
    code, _, err = run_cli(capsys, "solve", str(path), "-o", str(tmp_path / "r"))
    assert code == 1 and err.startswith("error:") and needle in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "fields, needle",
    [
        ({"lambda": True}, "relaxation"),
        ({"res": "1"}, "the record of step 1 has the unexpected field 'res'"),
        ({"x": ["0", "-1"]}, "numbers"),
        ({"x": [True, -1.0]}, "numbers"),
    ],
)
def test_analyze_rejects_non_numeric_trace(demo_dir, tmp_path, capsys, fields, needle):
    trace = _edited_trace(demo_dir, tmp_path, 1, **fields)
    code, _, err = run_cli(
        capsys, "analyze", str(trace), str(demo_dir / "problem.json"),
        "-o", str(tmp_path / "r"),
    )
    assert code == 1 and err.startswith("error:") and needle in err


@pytest.mark.parametrize(
    "step, x",
    [
        (2, [True, 0.0]),
        (2, ["0", 0.0]),
        (2, [None, 0.0]),
        (2, [[0.0], [0.0]]),
        (2, [10**30, 0.0]),
        (2, [float("nan"), 0.0]),
        (2, [float("inf"), 0.0]),
        (2, [0.0]),
        (2, None),
        (1, [0.0, 0.0, 0.0]),
        (0, [[-1.0, -1.0]]),
        (0, "missing"),
    ],
)
def test_analyze_refuses_a_bad_point_and_names_its_step(demo_dir, tmp_path, capsys, step, x):
    # the column checks refuse what the record-by-record checks refuse
    lines = (demo_dir / "trace.jsonl").read_text().splitlines()
    rec = json.loads(lines[step])
    if x == "missing":
        del rec["x"]
    else:
        rec["x"] = x
    lines[step] = json.dumps(rec)
    path = tmp_path / "edited.jsonl"
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(
        capsys, "analyze", str(path), str(demo_dir / "problem.json"), "-o", str(tmp_path / "r"),
    )
    assert code == 1
    assert err.startswith("error:") and f"step {step}" in err


def test_analyze_refuses_a_huge_start_point_without_a_warning(demo_dir, tmp_path, capsys):
    # finite, but its squared distance to the recorded points overflows
    trace = _edited_trace(demo_dir, tmp_path, 0, x=[0.0, 1e155])
    code, _, err = run_cli(
        capsys, "analyze", str(trace), str(demo_dir / "problem.json"), "-o", str(tmp_path / "r"),
    )
    assert code == 1 and err.startswith("error: trace does not replay")


@pytest.mark.parametrize("field", ["i", "lambda"])
def test_analyze_names_the_step_record_that_lacks_a_field(demo_dir, tmp_path, capsys, field):
    trace = _edited_trace(demo_dir, tmp_path, 2, drop=(field,))
    code, _, err = run_cli(
        capsys, "analyze", str(trace), str(demo_dir / "problem.json"), "-o", str(tmp_path / "r"),
    )
    assert code == 1 and err == f"error: the record of step 2 lacks the field {field!r}\n"


@pytest.mark.parametrize("step, key", [(0, "zz"), (2, "zz"), (0, "i"), (0, "res")])
def test_analyze_names_the_record_with_an_unexpected_key(demo_dir, tmp_path, capsys, step, key):
    # the start record carries only n and x
    trace = _edited_trace(demo_dir, tmp_path, step, **{key: 1})
    code, _, err = run_cli(
        capsys, "analyze", str(trace), str(demo_dir / "problem.json"), "-o", str(tmp_path / "r"),
    )
    assert code == 1
    assert err == f"error: the record of step {step} has the unexpected field {key!r}\n"


@pytest.mark.parametrize("steps, step", [((1, 2), 1), ((2,), 2)])
def test_a_trace_of_the_earlier_format_is_refused(demo_dir, tmp_path, capsys, monkeypatch,
                                                   steps, step):
    # the earlier format wrote the step residual "res" on every step record
    records = [json.loads(line) for line in (demo_dir / "trace.jsonl").read_text().splitlines()]
    for k in steps:
        records[k]["res"] = 1.0
    path = tmp_path / "old.jsonl"
    path.write_text(cli._dump_jsonl(records))
    message = f"the record of step {step} has the unexpected field 'res'"
    assert _joined_checks_pass(path.read_text())
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        trace_from_records(records)
    # cli._read_trace hands the records to trace_from_records twice: from the
    # one-parse read, which is refused, then from the per-line read
    seen = []

    def recorded(got):
        seen.append(got)
        return trace_from_records(got)

    with monkeypatch.context() as patch:
        patch.setattr(cfp, "trace_from_records", recorded)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cli._read_trace(path)
    assert seen == [records, records]
    assert _same_read(path) == ("ValueError", message)
    code, stdout, err = run_cli(
        capsys, "analyze", str(path), str(demo_dir / "problem.json"), "-o", str(tmp_path / "r"),
    )
    assert (code, stdout, err) == (1, "", f"error: {message}\n")
    assert not (tmp_path / "r").exists()


@pytest.fixture
def cycled(tmp_path, capsys):
    """The problem file of THREE_BALLS and the records of its solve, whose
    run repeats exactly: its last record closes the cycle."""
    problem, out = tmp_path / "balls.json", tmp_path / "balls"
    problem.write_text(json.dumps(THREE_BALLS))
    assert run_cli(capsys, "solve", str(problem), "-o", str(out))[0] == 2
    records = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
    return problem, records


def test_a_periodic_run_is_written_as_its_prefix_and_one_closing_record(cycled, tmp_path,
                                                                        capsys):
    problem, records = cycled
    *steps, closing = records
    top, s = closing["n"], closing["repeat"]
    assert set(closing) == {"n", "i", "lambda", "repeat", "until"}
    assert 0 <= s < top < closing["until"] == THREE_BALLS["stop"]["max_iter"]
    assert type(closing["repeat"]) is type(closing["until"]) is int
    assert all("repeat" not in rec and "until" not in rec for rec in steps)
    path = tmp_path / "balls" / "trace.jsonl"
    assert _same_read(path)[0] == "trace"
    trace = cli._read_trace(path)
    assert trace.cycle == (s, closing["until"]) and len(trace.iterates) == top + 1
    # the same run written unrolled, as a trace without a closing record, reads
    # and analyzes to the same report; runs.csv has a row per stored step
    plain = tmp_path / "plain.jsonl"
    plain.write_text(cli._dump_jsonl(cfp.trace_records(plain_run(trace))))
    reports = []
    for name, source in (("stored", path), ("plain", plain)):
        code, stdout, err = run_cli(capsys, "analyze", str(source), str(problem),
                                    "-o", str(tmp_path / name))
        assert (code, err) == (2, "")
        # all but the last line, which names the output directory
        reports.append((stdout.splitlines()[:-1], (tmp_path / name / "report.json").read_bytes()))
    assert reports[0] == reports[1]
    rows = [(tmp_path / name / "runs.csv").read_text().splitlines() for name in ("stored", "plain")]
    assert len(rows[0]) == top + 1 and len(rows[1]) == closing["until"] + 1
    assert rows[0] == rows[1][: top + 1]


# each edit of the closing record, or of another record, and the error it gives;
# k is the last record's step and s its "repeat"
CLOSING_EDITS = {
    "repeat-on-an-earlier-record": (
        lambda recs, k, s: recs[k - 1].update(repeat=0),
        lambda k, s: f"the record of step {k - 1} has 'repeat', but is not the last record"),
    "until-on-the-first-step": (
        lambda recs, k, s: recs[1].update(until=300),
        lambda k, s: "the record of step 1 has 'until', but is not the last record"),
    "repeat-alone": (
        lambda recs, k, s: recs[k].pop("until"),
        lambda k, s: f"the record of step {k} has 'repeat' without 'until'"),
    "until-alone": (
        lambda recs, k, s: recs[k].pop("repeat"),
        lambda k, s: f"the record of step {k} has 'until' without 'repeat'"),
    "float-repeat": (
        lambda recs, k, s: recs[k].update(repeat=float(s)),
        lambda k, s: f"the 'repeat' of step {k} must be an integer, got {float(s)!r}"),
    "boolean-repeat": (
        lambda recs, k, s: recs[k].update(repeat=True),
        lambda k, s: f"the 'repeat' of step {k} must be an integer, got True"),
    "null-repeat": (
        lambda recs, k, s: recs[k].update(repeat=None),
        lambda k, s: f"the 'repeat' of step {k} must be an integer, got None"),
    "float-until": (
        lambda recs, k, s: recs[k].update(until=300.0),
        lambda k, s: f"the 'until' of step {k} must be an integer, got 300.0"),
    "boolean-until": (
        lambda recs, k, s: recs[k].update(until=False),
        lambda k, s: f"the 'until' of step {k} must be an integer, got False"),
    "repeat-at-the-closing-step": (
        lambda recs, k, s: recs[k].update(repeat=k),
        lambda k, s: f"the 'repeat' of step {k} must lie in 0..{k - 1}, got {k}"),
    "negative-repeat": (
        lambda recs, k, s: recs[k].update(repeat=-1),
        lambda k, s: f"the 'repeat' of step {k} must lie in 0..{k - 1}, got -1"),
    "until-before-the-closing-step": (
        lambda recs, k, s: recs[k].update(until=k - 1),
        lambda k, s: f"the 'until' of step {k} must be at least {k}, got {k - 1}"),
    "a-point-on-the-closing-record": (
        lambda recs, k, s: recs[k].update(x=[0.0, 0.0]),
        lambda k, s: f"the record of step {k} closes a cycle, so it has no point 'x'"),
}


@pytest.mark.parametrize("edit", CLOSING_EDITS)
def test_a_malformed_closing_record_is_refused_on_both_read_paths(cycled, tmp_path, capsys,
                                                                   edit):
    problem, records = cycled
    k, s = records[-1]["n"], records[-1]["repeat"]
    change, message = CLOSING_EDITS[edit]
    change(records, k, s)
    message = message(k, s)
    # the column pass declines, and the record walk names the record
    assert cfp._trace_columns(records) is None
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cfp._checked_records(records)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        trace_from_records(records)
    path = tmp_path / "edited.jsonl"
    path.write_text(cli._dump_jsonl(records))
    assert _same_read(path) == ("ValueError", message)
    code, stdout, err = run_cli(capsys, "analyze", str(path), str(problem),
                                "-o", str(tmp_path / "r"))
    assert (code, stdout, err) == (1, "", f"error: {message}\n")
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("label", [99999999999999999999999, -2**63 - 1, 2**63])
def test_analyze_names_the_step_of_a_label_beyond_int64(demo_dir, tmp_path, capsys, label):
    trace = _edited_trace(demo_dir, tmp_path, 2, i=label)
    code, _, err = run_cli(
        capsys, "analyze", str(trace), str(demo_dir / "problem.json"), "-o", str(tmp_path / "r"),
    )
    assert code == 1
    assert err == f"error: the label at step 2 is too large for a 64-bit integer, got {label}\n"


@pytest.mark.parametrize("window", ["0", "-3"])
def test_analyze_rejects_window_below_one(demo_dir, tmp_path, capsys, window):
    code, _, err = run_cli(
        capsys, "analyze", str(demo_dir / "trace.jsonl"), str(demo_dir / "problem.json"),
        "-o", str(tmp_path / "r"), "--window", window,
    )
    assert code == 1 and err.startswith("error:") and "--window" in err
    assert not (tmp_path / "r" / "report.json").exists()


@pytest.mark.parametrize(
    "edit, needle",
    [
        # unknown keys, named with the object that holds them
        ({"stop": {"maxiter": 5}}, "the stop rule has an unknown key 'maxiter'"),
        ({"relaxtion": {"kind": "constant", "value": 0.5}},
         "the problem has an unknown key 'relaxtion'"),
        ({"operators": [{"kind": "halfspace", "a": [-1.0, 0.0], "b": 0.0, "c": 1.0},
                        {"kind": "halfspace", "a": [0.0, -1.0], "b": 0.0}]},
         "the halfspace operator has an unknown key 'c'"),
        ({"control": {"kind": "cyclic", "m": 2}}, "the cyclic control has an unknown key 'm'"),
        ({"relaxation": {"kind": "constant", "value": 1.0, "lambda": 0.5}},
         "the constant relaxation has an unknown key 'lambda'"),
        # missing fields
        ({"operators": [{"kind": "halfspace", "b": 0.0},
                        {"kind": "halfspace", "a": [0.0, -1.0], "b": 0.0}]},
         "the halfspace operator lacks the field 'a'"),
        ({"control": {}}, "the control lacks the field 'kind'"),
        ({"relaxation": {"kind": "cyclic"}}, "the cyclic relaxation lacks the field 'values'"),
        # kind entries that are not objects
        ({"control": "cyclic"}, "the control must be a JSON object, got 'cyclic'"),
        ({"relaxation": "constant"}, "the relaxation must be a JSON object, got 'constant'"),
        ({"operators": [5]}, "the operator must be a JSON object, got 5"),
        # an operator list that is not a list
        ({"operators": 5}, "the problem's operators must be a JSON list, got 5"),
        ({"operators": "ab"}, "the problem's operators must be a JSON list, got 'ab'"),
        ({"operators": {"kind": "halfspace", "a": [-1.0, 0.0], "b": 0.0}},
         "the problem's operators must be a JSON list, got {"),
    ],
)
def test_problem_refuses_unknown_and_missing_keys(demo_dir, tmp_path, capsys, edit, needle):
    prob = json.loads((demo_dir / "problem.json").read_text())
    prob.update(edit)
    path = tmp_path / "keys.json"
    path.write_text(json.dumps(prob))
    code, _, err = run_cli(capsys, "solve", str(path), "-o", str(tmp_path / "r"))
    assert code == 1 and err.startswith("error:") and needle in err


@pytest.mark.parametrize("field", ["dim", "operators", "control", "x0"])
def test_problem_names_a_missing_field(demo_dir, tmp_path, capsys, field):
    prob = json.loads((demo_dir / "problem.json").read_text())
    del prob[field]
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(prob))
    code, _, err = run_cli(capsys, "solve", str(path), "-o", str(tmp_path / "r"))
    assert code == 1 and f"the problem lacks the field '{field}'" in err


@pytest.mark.parametrize("blank_lines", [0, 2])
def test_trace_json_error_names_its_file_line(demo_dir, tmp_path, capsys, blank_lines):
    lines = (demo_dir / "trace.jsonl").read_text().splitlines()
    bad = [lines[0], *[""] * blank_lines, lines[1], lines[2].replace(",", "", 1)]
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(bad) + "\n")
    code, _, err = run_cli(
        capsys, "analyze", str(path), str(demo_dir / "problem.json"), "-o", str(tmp_path / "r"),
    )
    assert code == 1
    assert err.startswith(f"error: trace line {3 + blank_lines}: Expecting ',' delimiter")


@pytest.mark.parametrize("where", ["problem", "trace", "operator"])
def test_json_nested_past_the_recursion_limit_is_an_input_error(demo_dir, tmp_path, capsys, where):
    problem, trace = demo_dir / "problem.json", demo_dir / "trace.jsonl"
    if where == "problem":
        problem = tmp_path / "deep.json"
        problem.write_text("[" * 100_000)
    elif where == "trace":
        lines = trace.read_text().splitlines()
        deep = "[" * 50_000 + "]" * 50_000
        lines[1] = f'{{"n": 1, "i": 1, "lambda": 1.0, "x": {deep}}}'
        trace = tmp_path / "deep.jsonl"
        trace.write_text("\n".join(lines) + "\n")
    else:
        prob = json.loads(problem.read_text())
        inner = json.dumps(prob["operators"][0])
        prob["operators"][0] = "INNER"
        # shallow enough for the JSON decoder, too deep for the reader's recursion
        nested = '{"kind": "relaxed", "lambda": 1.0, "inner": ' * 600 + inner + "}" * 600
        problem = tmp_path / "deep.json"
        problem.write_text(json.dumps(prob).replace('"INNER"', nested))
    commands = [["analyze", str(trace), str(problem)]]
    if where != "trace":
        commands.append(["solve", str(problem)])
    for args in commands:
        code, _, err = run_cli(capsys, *args, "-o", str(tmp_path / "r"))
        assert code == 1 and err.startswith("error:") and "recursion" in err
        assert where != "operator" or err.startswith("error: operator 1: ")


@pytest.mark.parametrize(
    "a, b, needle",
    [
        (["-1", "0"], 0.0, "JSON numbers"),
        ([True, 0.0], 0.0, "JSON numbers"),
        ([None, 0.0], 0.0, "JSON numbers"),
        (True, 0.0, "JSON numbers"),
        ([-1.0, 0.0], "0", "the offset b must be a number"),
        ([-1.0, 0.0], True, "the offset b must be a number"),
        ([-1.0, 0.0], None, "the offset b must be a number"),
        ([0.0, 0.0], 0.0, "nonzero"),
        ([1e308, 1e308], 0.0, "a.a overflows"),
        ([1e-162, 0.0], 0.0, "the normal vector's squared norm a.a underflows to 0"),
    ],
)
def test_halfspace_reader_refuses_what_the_checks_refuse(demo_dir, tmp_path, capsys, a, b,
                                                         needle):
    prob = json.loads((demo_dir / "problem.json").read_text())
    prob["operators"][0] = {"kind": "halfspace", "a": a, "b": b}
    path = tmp_path / "cut.json"
    path.write_text(json.dumps(prob))
    code, _, err = run_cli(capsys, "solve", str(path), "-o", str(tmp_path / "r"))
    assert code == 1 and err.startswith("error: operator 1: ") and needle in err
    assert "Warning" not in err


# ---------------------------------------------------------------------------
# malformed operator fields


@pytest.mark.parametrize("slopes, offsets", [
    ([[1.0, 0.0]], [[0.0, 5.0]]),
    ([[0.5, 0.25]], 0.5),
    ([[0.5, 0.25]], [[]]),
    ([[0.5, 0.25]], [[0.5, 0.25]]),  # numpy would broadcast it against the piece
])
def test_subgradient_offsets_are_one_number_per_piece(tmp_path, capsys, slopes, offsets):
    prob = {"dim": 2, "control": {"kind": "cyclic"}, "x0": [1.0, 1.0],
            "operators": [{"kind": "subgradient_projector", "slopes": slopes, "offsets": offsets}]}
    path = tmp_path / "pieces.json"
    path.write_text(json.dumps(prob))
    code, out, err = run_cli(capsys, "solve", str(path), "-o", str(tmp_path / "r"))
    assert (code, out, err) == (1, "", "error: operator 1: slope and offset shapes differ\n")
    assert not (tmp_path / "r").exists()


#: a valid 2-D operator of each kind, the subgradient projector with one
#: piece and with two, whose fields the sweep below replaces
VALID_OPERATORS = [
    {"kind": "halfspace", "a": [1.0, 0.0], "b": 0.0},
    {"kind": "hyperplane", "a": [1.0, 0.0], "b": 0.0},
    {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
    {"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
    {"kind": "affine", "A": [[1.0, 0.0]], "d": [0.0]},
    {"kind": "subgradient_projector", "slopes": [[1.0, 0.0]], "offsets": [0.0]},
    {"kind": "subgradient_projector", "slopes": [[1.0, 0.0], [0.0, 1.0]], "offsets": [0.0, -0.5]},
    {"kind": "firmly_nonexpansive_avg", "inner": {"kind": "halfspace", "a": [1.0, 0.0], "b": 0.0}},
    {"kind": "relaxed", "inner": {"kind": "halfspace", "a": [1.0, 0.0], "b": 0.0}, "lambda": 1.0},
]
#: flat, nested 1x1, 1x2, 2x2 and 2x1, ragged, triply nested, empty, [[]], scalar
FIELD_SHAPES = [[1.0, 2.0], [[1.0]], [[1.0, 2.0]], [[1.0, 2.0], [3.0, 4.0]],
                [[1.0], [2.0]], [[1.0, 2.0], [3.0]], [[[1.0, 2.0]]], [], [[]], 1.0]


def test_no_malformed_operator_field_raises(tmp_path, capsys):
    """Every operator kind, bare and relaxed, with each field in each shape:
    solve, then analyze a written trace, end in an exit code, never an
    exception."""
    assert {op["kind"] for op in VALID_OPERATORS} == set(cfp._OPERATOR_JSON)
    raised = []
    for valid in VALID_OPERATORS:
        for key, shape in itertools.product([key for key in valid if key != "kind"],
                                           FIELD_SHAPES):
            op = {**valid, key: shape}
            for wrapped in (op, {"kind": "relaxed", "inner": op, "lambda": 1.0}):
                prob = {"dim": 2, "operators": [wrapped], "control": {"kind": "cyclic"},
                        "x0": [2.0, 2.0], "stop": {"max_iter": 20}}
                path, out = tmp_path / "prob.json", tmp_path / "out"
                path.write_text(json.dumps(prob))
                try:
                    codes = [main(["solve", str(path), "-o", str(out)])]
                    if codes[0] != 1:
                        codes.append(main(["analyze", str(out / "trace.jsonl"), str(path),
                                           "-o", str(out)]))
                except Exception as exc:  # every exception is a failure; list them all
                    raised.append((wrapped, repr(exc)))
                else:
                    assert set(codes) <= {0, 1, 2}, (wrapped, codes)
                capsys.readouterr()
    assert raised == []
