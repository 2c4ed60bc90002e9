"""Tests of the benchmark itself, at minimal input sizes.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.1",
            "--trace", str(trace), "--tiny"]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_at_minimal_size(capsys, workload, trace):
    detail, result = _bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert detail["error_rate"] == 0.0
    assert detail["timings"]["setup_s"]["n"] == run.SETUP_REPEATS


def _wrong_iterations(evfam):
    summary = evfam.cfp.trace_summary

    def wrong(ops, trace):
        out = summary(ops, trace)
        out["iterations"] += 1
        return out

    return evfam.cfp, "trace_summary", wrong


def _wrong_star(evfam):
    return evfam.families, "star", lambda family: frozenset()


def _crash(evfam):
    def boom(argv=None):
        raise RuntimeError("injected")

    return evfam.cli, "main", boom


@pytest.mark.parametrize("workload, inject", [
    ("halfspace-large", _wrong_iterations),
    ("ball-bounce", _crash),
    ("set-calculus", _wrong_star),
])
def test_injected_wrong_result_is_counted(capsys, monkeypatch, workload, inject):
    run._import_package()
    import evfam.cfp
    import evfam.cli
    import evfam.families

    monkeypatch.setattr(*inject(evfam))
    detail, result = _bench(capsys, workload, 0)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert detail["error_rate"] == result["failed"] / result["attempted"]
    assert detail["errors"]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
