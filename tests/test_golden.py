"""Golden outputs: the sha256 of stdout and of every artifact of the three
demos, and of the stdout of ``evfam check all --seed 7 --budget 200``.

The demos run from a fresh working directory with the relative ``--out``
``out``, so the paths they print are fixed.  These constants pin the
outputs byte for byte, so a change that means to leave every output alone
is checked against the tree before it by the suite itself.  A change that
means to alter one of these outputs updates its constant here and names
the update in CHANGES.md.
"""

import hashlib

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
        "trace.jsonl": "589af0df0e3e1030880c954cc4c51e41298486a958de45cc9ce0ee4af2688fca",
    },
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


def test_check_all_stdout_is_golden(monkeypatch, capsys):
    monkeypatch.delenv("EVFAM_SEED", raising=False)
    assert main(["check", "all", "--seed", "7", "--budget", "200"]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == CHECK_ALL_SEED_7_BUDGET_200
