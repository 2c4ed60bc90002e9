"""The benchmark recorder: one run per call, appended runs summarised."""

import json
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_record  # noqa: E402


def _fake_run(op_s):
    return {"detail": {"machine": {"git_commit": "abc", "nproc": 2}},
            "result": {"metrics": {"op_s": {"value": op_s, "unit": "s"}}}}


def test_runs_append_and_summarise(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text('{"run_seconds": 30}')
    times = iter([3.0, 1.0, 2.0, 4.0])
    monkeypatch.setattr(bench_record, "run_bench", lambda args: _fake_run(next(times)))
    argv = ["--label", "x", "--workload", "set-calculus", "--seed", "1", "--checkout",
            str(tmp_path)]
    assert bench_record.main(argv) == 0
    rec = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert rec["summary"]["op_s"] == {"median": 3.0, "q1": 3.0, "q3": 3.0, "n": 1, "unit": "s"}
    for _ in range(3):
        assert bench_record.main(argv + ["--append"]) == 0
    rec = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert (rec["workload"], rec["seed"], rec["seconds"]) == ("set-calculus", 1, 30)
    assert rec["commit"] == "abc"
    assert rec["machine"] == {"git_commit": "abc", "nproc": 2}
    assert len(rec["runs"]) == 4
    assert rec["summary"]["op_s"]["median"] == 2.5 and rec["summary"]["op_s"]["n"] == 4
    # a run of another seed is not mixed into the file
    argv[5] = "2"
    assert bench_record.main(argv + ["--append"]) == 1
    assert "another workload" in capsys.readouterr().err


def test_quartiles_stay_within_the_runs():
    # the exclusive method would read 0.875 and 1.625, outside both runs
    summary = bench_record.summarize([_fake_run(1.0), _fake_run(1.5)])["op_s"]
    assert (summary["q1"], summary["median"], summary["q3"]) == (1.125, 1.25, 1.375)


def test_trace_runs_sit_beside_the_end_to_end_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text('{"run_seconds": 30}')
    calls = []

    def fake(args):
        calls.append(args.trace)
        if not args.trace:
            return _fake_run(1.0)
        run = _fake_run(0.0)
        run["result"]["metrics"] = {"intseq.cogap_s": {"value": 0.25 * len(calls),
                                                       "unit": "s"}}
        return run

    monkeypatch.setattr(bench_record, "run_bench", fake)
    argv = ["--label", "x", "--workload", "set-calculus", "--seed", "1", "--checkout",
            str(tmp_path)]
    assert bench_record.main(argv) == 0
    assert bench_record.main(argv + ["--append", "--trace", "1"]) == 0
    assert bench_record.main(argv + ["--append", "--trace", "1"]) == 0
    assert calls == [0, 1, 1]
    rec = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert len(rec["runs"]) == 1 and len(rec["trace_runs"]) == 2
    assert set(rec["summary"]) == {"op_s"}
    assert rec["layers"]["intseq.cogap_s"]["median"] == 0.625
    assert rec["layers"]["intseq.cogap_s"]["n"] == 2
    # a file holding only a traced run has an empty end-to-end summary
    assert bench_record.main(["--label", "y", "--workload", "set-calculus", "--seed", "1",
                              "--checkout", str(tmp_path), "--trace", "1"]) == 0
    rec = json.loads((tmp_path / "BENCH_y.json").read_text())
    assert rec["runs"] == [] and rec["summary"] == {} and len(rec["trace_runs"]) == 1


def test_trace_flag_reaches_the_harness(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text('{"run_seconds": 30}')
    seen = {}

    def fake_run(cmd, cwd, **kw):
        seen["cmd"] = cmd
        lines = [json.dumps({"machine": {"git_commit": "abc"}}),
                 json.dumps({"metrics": {}})]
        return type("Done", (), {"stdout": "\n".join(lines) + "\n"})()

    monkeypatch.setattr(bench_record.subprocess, "run", fake_run)
    args = bench_record.parse_args(["--label", "x", "--workload", "set-calculus",
                                    "--seed", "7", "--checkout", str(tmp_path),
                                    "--trace", "1"])
    bench_record.run_bench(args)
    cmd = seen["cmd"]
    assert cmd[cmd.index("--trace") + 1] == "1"
    assert cmd[cmd.index("--seed") + 1] == "7" and cmd[cmd.index("--seconds") + 1] == "30"


def test_pytest_summary_lines_give_passed_and_failed_counts():
    assert bench_record._counts("517 passed in 14.70s") == (517, 0)
    assert bench_record._counts("1 failed, 515 passed, 2 warnings, 1 error in 9.1s") == (515, 2)
    assert bench_record._counts("3 passed, 2 xfailed, 1 xpassed, 2 errors in 1s") == (3, 2)
    assert bench_record._counts("") == (0, 0)


class _FakeSampler:
    """A sampler that reads the machine at half the reference speed."""

    def __init__(self, events):
        self.events = events

    def __enter__(self):
        self.events.append("start")
        return self

    def __exit__(self, *exc):
        self.events.append("stop")

    def scale(self, t0, t1):
        self.events.append("scale")
        return 0.5


def test_the_tier1_workload_times_the_checkout_suite(tmp_path, monkeypatch):
    # the wall time is scaled by perfbench's own sampler and kernel
    monkeypatch.setattr(sys, "path", list(sys.path))
    sampler = bench_record.speed_sampler()
    import workloads

    assert sampler.kernel is workloads.WORKLOADS["halfspace-large"].kernel
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    calls = []
    events = []
    monkeypatch.setattr(bench_record, "speed_sampler", lambda: _FakeSampler(events))
    monkeypatch.setattr(bench_record.time, "perf_counter", iter([10.0, 13.0, 20.0, 22.0]).__next__)

    def fake_run(cmd, cwd, **kw):
        calls.append((cmd, cwd, kw))
        events.append("machine" if cmd[1:] == ["-c", bench_record.MACHINE] else "pytest")
        if cmd[1:] == ["-c", bench_record.MACHINE]:
            out = json.dumps({"git_commit": "abc", "nproc": 2})
        else:
            out = "....F\n1 failed, 4 passed in 0.50s\n"
        return type("Done", (), {"stdout": out, "returncode": 1})()

    monkeypatch.setattr(bench_record.subprocess, "run", fake_run)
    argv = ["--label", "t", "--workload", "tier-1", "--checkout", str(tmp_path)]
    assert bench_record.main(argv) == 0
    assert bench_record.main(argv + ["--append"]) == 0
    (cmd, cwd, kw), machine = calls[0], calls[1]
    assert cmd[1:] == ["-m", "pytest", "-q", "--continue-on-collection-errors"]
    assert cwd == tmp_path and machine[1] == tmp_path
    assert kw["env"]["PYTHONPATH"] == os.pathsep.join((str(tmp_path / "src"), "elsewhere"))
    rec = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert (rec["workload"], rec["seed"], rec["seconds"], rec["commit"]) == ("tier-1", None,
                                                                             None, "abc")
    assert len(rec["runs"]) == 2
    assert set(rec["summary"]) == {"tier1_s", "tier1_scaled_s", "passed", "failed"}
    # the sampler runs while pytest does, and scales each wall time
    assert events == ["start", "pytest", "stop", "machine", "scale"] * 2
    walls = [(run["result"]["metrics"]["tier1_s"]["value"],
              run["result"]["metrics"]["tier1_scaled_s"]["value"]) for run in rec["runs"]]
    assert walls == [(3.0, 1.5), (2.0, 1.0)]
    assert rec["summary"]["tier1_scaled_s"]["median"] == 1.25
    assert rec["summary"]["tier1_scaled_s"]["unit"] == "s"
    assert rec["summary"]["passed"]["median"] == 4 and rec["summary"]["failed"]["median"] == 1
    assert rec["summary"]["tier1_s"]["n"] == 2 and rec["summary"]["tier1_s"]["unit"] == "s"
    assert rec["runs"][0]["detail"]["summary_line"] == "1 failed, 4 passed in 0.50s"
    assert rec["runs"][0]["detail"]["returncode"] == 1


@pytest.mark.parametrize("argv", [
    ["--workload", "tier-1", "--seed", "1"],
    ["--workload", "tier-1", "--trace", "1"],
    ["--workload", "set-calculus"],
])
def test_seed_and_trace_go_with_perfbench_workloads_only(tmp_path, argv, capsys):
    (tmp_path / "BENCHMARK.json").write_text('{"run_seconds": 30}')
    with pytest.raises(SystemExit):
        bench_record.parse_args(["--label", "x", "--checkout", str(tmp_path), *argv])
    assert "error:" in capsys.readouterr().err
