"""Check-runner tests: suite registry, vacuous budgets, determinism, and
witness reporting on failure, including each suite run against a wrong
library function."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from evfam import cfp, checks
from evfam.checks import CheckResult, SUITE_NAMES, _result, run_suite
from evfam.intseq import EPSet, ExtNat, gap
from evfam.multisets import ComplementMultifamily, mstar
from evfam.setlimits import ClassicalLimits, classical_limits


def test_all_suites_pass_at_small_budget():
    results = run_suite("all", seed=5, budget=25)
    assert all(r.passed for r in results)
    names = {r.name.split(".")[0] for r in results}
    assert names == set(SUITE_NAMES)


def test_budget_zero_is_vacuous():
    results = run_suite("all", seed=0, budget=0)
    assert len(results) == len(SUITE_NAMES)
    assert all(r.passed and r.cases == 0 for r in results)


def test_same_seed_same_results():
    a = run_suite("intseq", seed=12, budget=50)
    b = run_suite("intseq", seed=12, budget=50)
    assert a == b


def test_unknown_suite_and_bad_budget():
    with pytest.raises(ValueError):
        run_suite("nope", seed=0, budget=1)
    with pytest.raises(ValueError):
        run_suite("intseq", seed=0, budget=-2)


def test_failure_reporting_keeps_shortest_witness():
    res = _result("demo", 10, ["a longer witness", "tiny", "medium one"])
    assert not res.passed
    assert "3 failed" in res.note
    assert "tiny" in res.note
    assert "FAIL" in res.line()


def test_result_line_format():
    ok = CheckResult("demo.check", True, 7)
    assert ok.line() == "ok   demo.check: 7 cases"


def _swapped_limits(seq):
    cls = classical_limits(seq)
    return ClassicalLimits(limsup=cls.liminf, liminf=cls.limsup)


def _relaxed_past_one(op, lam):
    return cfp.Relaxed(op, 1 + lam)


# a wrong library function for each suite, and the FAIL lines it must
# produce at seed 3, budget 25: the failure count and the shortest note
FAULTS = [
    ("intseq", checks, "cogap", gap, [
        "FAIL intseq.cogap-duality: 25 cases  [21 failed, e.g. prefix=;period=1]",
    ]),
    ("families", checks, "closure_family", lambda fam, topo: fam, [
        "FAIL families.star-closure-limit: 25 cases  [19 failed, e.g. [['b']] on "
        "FiniteTopology(ground=('a', 'b'), opens=[[], ['a', 'b']])]",
    ]),
    ("multisets", checks, "multiset_limit", lambda mf, topo: mstar(mf), [
        "FAIL multisets.limit-star-closure: 25 cases  [8 failed, e.g. {'a': 0, 'b': 1} on "
        "FiniteTopology(ground=('a', 'b'), opens=[[], ['a', 'b']])]",
    ]),
    # a complement that ignores its argument: the involution law sees it
    ("multisets", ComplementMultifamily, "value",
     lambda self, s: self.inner.value(EPSet.naturals()), [
        "FAIL multisets.complement-involution: 25 cases  [50 failed, e.g. "
        "GapMultifamily() at prefix=;period=]",
    ]),
    ("setlimits", checks, "classical_limits", _swapped_limits, [
        "FAIL setlimits.classical-oracle: 25 cases  [11 failed, e.g. "
        "SetSequence(ground=('a',), traces={'a': EPSet('prefix=;period=011')})]",
        "FAIL setlimits.sandwich: 25 cases  [75 failed, e.g. CoGapLevelFamily(c=1) on "
        "SetSequence(ground=('a',), traces={'a': EPSet('prefix=;period=01')})]",
    ]),
    ("cfp", cfp, "relax", _relaxed_past_one, [
        "FAIL cfp.relax-preserves-cutter: 25 cases  [17 failed, e.g. "
        "Relaxed(Hyperplane(a=[0.7926939484229538, 0.2683670644955436], b=0.6805967016016674), "
        "lam=1.391184753296883) at x=[4.8340994677469435, -3.71523800552515]]",
    ]),
    # a NaN replay deviation must fail the replay gate, as in analyze
    ("cfp", cfp, "replay_trace", lambda ops, trace: math.nan, [
        "FAIL cfp.fejer-replay: 1 cases  [1 failed, e.g. instance 0: replay drift]",
    ]),
    ("analysis", checks, "cogap", lambda s: ExtNat(0), [
        "FAIL analysis.level-soundness: 1 cases  [3 failed, e.g. instance 0: corpus cogap below c+1]",
    ]),
]


@pytest.mark.parametrize("suite, module, name, wrong, expected", FAULTS,
                         ids=[f"{fault[0]}-{fault[2]}" for fault in FAULTS])
def test_a_wrong_library_function_fails_its_suite(monkeypatch, suite, module, name, wrong,
                                                  expected):
    monkeypatch.setattr(module, name, wrong)
    lines = [r.line() for r in run_suite(suite, seed=3, budget=25) if not r.passed]
    assert lines == expected


_FAULTED_RUN = """
from evfam import checks, cli
from evfam.setlimits import ClassicalLimits

real = checks.classical_limits
checks.classical_limits = lambda seq: ClassicalLimits(real(seq).liminf, real(seq).limsup)
cli.main(["check", "setlimits", "--seed", "3", "--budget", "25"])
"""


def test_failure_notes_do_not_depend_on_the_process():
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        outs.append(subprocess.run([sys.executable, "-c", _FAULTED_RUN], env=env,
                                   capture_output=True, text=True).stdout)
    assert "FAIL setlimits.sandwich" in outs[0] and "CoGapLevelFamily(c=1)" in outs[0]
    assert outs[0] == outs[1]
