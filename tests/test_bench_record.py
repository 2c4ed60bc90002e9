"""The benchmark recorder: one run per call, appended runs summarised."""

import json
import sys
from pathlib import Path

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
