"""The benchmark runs against this tree: each workload, traced, at minimal
size.  A traced run wraps the layer functions perfbench/layers.py names, so
a renamed function fails here rather than only in a benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["halfspace-large", "ball-bounce", "set-calculus"])
def test_traced_tiny_run_checks_clean(workload):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "0.2", "--trace", "1", "--tiny"]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    last = json.loads(out.strip().splitlines()[-1])
    assert last["failed"] == 0 and last["attempted"] >= 1
