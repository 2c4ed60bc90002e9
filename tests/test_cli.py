"""End-to-end command tests: demo/solve/analyze round trips on disk, exit
codes, determinism of the written artifacts, and the check runner."""

import json
import os

import pytest

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


def test_solve_warns_on_degenerate_relaxation(demo_dir, tmp_path, capsys):
    prob = json.loads((demo_dir / "problem.json").read_text())
    prob["relaxation"] = {"kind": "constant", "value": 2.0}
    prob["stop"]["max_iter"] = 50
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(prob))
    code, _, err = run_cli(capsys, "solve", str(path), "-o", str(tmp_path / "w"))
    assert "warning" in err and "2" in err
    assert code in (0, 2)


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
    assert report["certification"]["candidates"] == [[0.0, 0.0]]
    mins = [rep["min_c"] for rep in report["follows"]]
    assert mins == [2, 2]
    assert report["estimate"]["convergent"] is True

    rows = (out / "runs.csv").read_text().splitlines()
    assert rows[0] == "n,i,lambda,res,dist_to_final"
    assert rows[1] == "1,1,1.0,1.0,1.0"
    assert rows[2] == "2,2,1.0,1.0,0.0"


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


def test_analyze_bad_ladder(demo_dir, tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "analyze", str(demo_dir / "trace.jsonl"), str(demo_dir / "problem.json"),
        "-o", str(tmp_path / "r3"), "--ladder", "0.1,0.2",
    )
    assert code == 1 and "ladder" in err


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


def test_check_command(tmp_path, capsys, monkeypatch):
    code, stdout, _ = run_cli(capsys, "check", "intseq", "--budget", "40", "--seed", "3")
    assert code == 0
    assert "all 4 checks passed" in stdout

    code, stdout, _ = run_cli(capsys, "check", "all", "--budget", "0")
    assert code == 0
    assert stdout.count(".vacuous: 0 cases") == 6

    monkeypatch.setenv("EVFAM_SEED", "9")
    code, with_env, _ = run_cli(capsys, "check", "intseq", "--budget", "40", "--seed", "3")
    assert code == 0
    monkeypatch.delenv("EVFAM_SEED")
    code, direct, _ = run_cli(capsys, "check", "intseq", "--budget", "40", "--seed", "9")
    assert with_env == direct

    monkeypatch.setenv("EVFAM_SEED", "not-a-number")
    code, _, err = run_cli(capsys, "check", "intseq", "--budget", "1")
    assert code == 1 and "EVFAM_SEED" in err


def test_check_rejects_negative_budget(capsys):
    code, _, err = run_cli(capsys, "check", "intseq", "--budget", "-1")
    assert code == 1 and "budget" in err


def test_atomic_writes_leave_no_temp_files(demo_dir):
    leftovers = [name for name in os.listdir(demo_dir) if name.startswith(".evfam-")]
    assert leftovers == []


def _edited_trace(demo_dir, tmp_path, step, **fields):
    """The demo trace with the record of ``step`` changed."""
    lines = (demo_dir / "trace.jsonl").read_text().splitlines()
    rec = json.loads(lines[step])
    rec.update(fields)
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
        ({"res": 123.0}, "replay"),
        ({"i": 1.5}, "integer"),
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


def test_analyze_rejects_non_object_record(demo_dir, tmp_path, capsys):
    lines = (demo_dir / "trace.jsonl").read_text().splitlines()
    path = tmp_path / "listed.jsonl"
    path.write_text("\n".join([lines[0], "[1, 2]", *lines[2:]]) + "\n")
    code, _, err = run_cli(
        capsys, "analyze", str(path), str(demo_dir / "problem.json"),
        "-o", str(tmp_path / "r"),
    )
    assert code == 1 and err.startswith("error:") and "JSON objects" in err


@pytest.mark.parametrize("command", ["solve", "analyze"])
def test_problem_must_be_a_json_object(demo_dir, tmp_path, capsys, command):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([json.loads((demo_dir / "problem.json").read_text())]))
    args = [str(path)] if command == "solve" else [str(demo_dir / "trace.jsonl"), str(path)]
    code, _, err = run_cli(capsys, command, *args, "-o", str(tmp_path / "r"))
    assert code == 1 and err.startswith("error:") and "JSON object" in err


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
    "stop, needle",
    [
        ([], "stop rule"),
        ({"max_iter": 1.5}, "max_iter"),
        ({"tol": float("nan")}, "stop rule"),
        ({"stride": True}, "stride"),
    ],
)
def test_problem_rejects_misread_stop_rules(demo_dir, tmp_path, capsys, stop, needle):
    prob = json.loads((demo_dir / "problem.json").read_text())
    prob["stop"] = stop
    path = tmp_path / "stop.json"
    path.write_text(json.dumps(prob))
    code, _, err = run_cli(capsys, "solve", str(path), "-o", str(tmp_path / "r"))
    assert code == 1 and err.startswith("error:") and needle in err
