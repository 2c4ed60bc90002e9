"""Golden outputs: the sha256 of stdout and of every artifact of the three
demos, of ``evfam analyze`` on a converged and an unconverged run, and of
the stdout of ``evfam check all --seed 7 --budget 200``.

Every command runs from a fresh working directory with relative ``--out``
directories, so the paths they print are fixed.  These constants pin the
outputs byte for byte, so a change that means to leave every output alone
is checked against the tree before it by the suite itself.  A change that
means to alter one of these outputs updates its constant here and names
the update in CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from evfam.cli import main

DEMOS = {
    "counterexample": {
        "stdout": "740797b7b1afd596f1f69220e4840cb38fbc85462590c4b1592b6706252fe10c",
        "report.json": "908aa0bf8abb48fdf53cb5195f678499772514371ca7015923923ef92a137bf5",
    },
    "families-tour": {
        "stdout": "f553f49510115724432c1f0d3ceb65f5a1e5be351c4906468a76661c00291e84",
        "tour.json": "7889ba5f7b9c7cc82d420fbd9dbc2a4e56116496fa6b8c2075b6d05ea5f4d6a8",
    },
    "two-halfspaces": {
        "stdout": "f1701aa1da568898dddd31915469f4f85f2eaec4f1a6fcbe95236d71d1925a26",
        "problem.json": "40b399c86ef3d0367bc82b01fb5738556ba83228b5fe5f383af1802612c53119",
        "summary.json": "d5e7c3b8caf74bf59cfb5073723d97d409b6b20fa7b01965d84b9d121b6013c6",
        "trace.jsonl": "7e1c66007e86b16849c83d63da5f525fec9c470589df868767b6ca3928d931e2",
    },
}

ANALYZE_TWO_HALFSPACES = {
    "stdout": "6b6dd99cf85d45b082afa70b20c5acb79dc88132823f89e1f08b16d8598ce0e8",
    "report.json": "7a397de63d5fe0b947d380a7fb41fde24f0147ac18e2c41d69bba0e9f2809733",
    "runs.csv": "5fb5de1485f9462dd4f2caaea564ebe2fa0bb51c0fe740ae4ec7349bfc2a7bba",
}

# three unit discs on an almost-cyclic pattern that applies the middle one
# twice per lap: the run never converges, so solve and analyze both exit 2
THREE_BALLS_ALMOST_CYCLIC = {
    "dim": 2,
    "operators": [
        {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
        {"kind": "ball", "center": [4.0, 0.0], "radius": 1.0},
        {"kind": "ball", "center": [2.0, 3.0], "radius": 1.0},
    ],
    "control": {"kind": "almost_cyclic", "pattern": [1, 2, 3, 2]},
    "x0": [5.0, 5.0],
    "stop": {"tol": 1e-6, "max_iter": 400, "stride": 10},
}

UNCONVERGED_BALLS = {
    "solve stdout": "8deac84d845974b6bb5d2146d14bf29944fb8959ca3e0a70f24ba8f40466ccc1",
    "analyze stdout": "10cead84703c344dcd1045bf316063c37b938acee81baf042af04fac14afe261",
    "trace.jsonl": "159edabe26ec2a4690a900d03c9593fbb70cf65229ad25b17fd6108e2b3ab834",
    "summary.json": "833b0367486b78cebed6a404e34331b064c841f467e7893a52e11c9d131c19d6",
    "report.json": "fb4e54a41610ea4dae4ed386730dd2319acd2cd8af49e5c35635a451bb085bd0",
    "runs.csv": "568c834e99e36f56a4ad4a9da7db0e7a4b4fabce7050f0b0400d2dcc632963c8",
}

CHECK_ALL_SEED_7_BUDGET_200 = "f36b3e6a1fc10cc946f22ba5e105cafd4b2830e23fcba415d7fc7ead4bd1e771"


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_outputs_are_golden(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["demo", name, "-o", "out"]) == 0
    got = {"stdout": _sha256(capsys.readouterr().out.encode())}
    got.update((p.name, _sha256(p.read_bytes())) for p in (tmp_path / "out").iterdir())
    assert got == DEMOS[name]


def _artifacts(out, names):
    return {name: _sha256((out / name).read_bytes()) for name in names}


def test_analyze_converged_outputs_are_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["demo", "two-halfspaces", "-o", "demo"]) == 0
    capsys.readouterr()
    assert main(["analyze", "demo/trace.jsonl", "demo/problem.json", "-o", "an"]) == 0
    stdout = capsys.readouterr().out
    assert "certification: certified" in stdout
    got = {"stdout": _sha256(stdout.encode())}
    got.update(_artifacts(tmp_path / "an", ("report.json", "runs.csv")))
    assert got == ANALYZE_TWO_HALFSPACES


def test_analyze_unconverged_outputs_are_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("balls.json").write_text(json.dumps(THREE_BALLS_ALMOST_CYCLIC))
    assert main(["solve", "balls.json", "-o", "out"]) == 2
    solved = capsys.readouterr().out
    assert main(["analyze", "out/trace.jsonl", "balls.json", "-o", "out"]) == 2
    analyzed = capsys.readouterr().out
    assert "certification: inconclusive" in analyzed
    report = json.loads(Path("out/report.json").read_text())
    assert [f["min_c"] for f in report["follows"]] == [4, 2, 4]
    assert [f["longest_gap"] for f in report["follows"]] == [[1, 3], [0, 1], [3, 3]]
    got = {"solve stdout": _sha256(solved.encode()), "analyze stdout": _sha256(analyzed.encode())}
    got.update(_artifacts(tmp_path / "out", (
        "trace.jsonl", "summary.json", "report.json", "runs.csv",
    )))
    assert got == UNCONVERGED_BALLS


def test_check_all_stdout_is_golden(capsys):
    assert main(["check", "all", "--seed", "7", "--budget", "200"]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == CHECK_ALL_SEED_7_BUDGET_200


def test_check_all_stdout_is_golden_under_another_hash_seed():
    # the same line in any process: string hashing must not reach the output
    env = dict(os.environ, PYTHONHASHSEED="4",
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    out = subprocess.run(
        [sys.executable, "-m", "evfam.cli", "check", "all", "--seed", "7", "--budget", "200"],
        env=env, check=True, capture_output=True,
    ).stdout
    assert _sha256(out) == CHECK_ALL_SEED_7_BUDGET_200
