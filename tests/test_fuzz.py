"""Malformed-input fuzzing of the command line: mutated problem JSON and
trace JSONL must give one of the documented exit codes, never a traceback.

Exit codes: 0 converged/certified, 1 input or replay error, 2 iteration cap
or inconclusive, 3 certification violation.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evfam import cfp
from evfam.cli import main, two_halfspace_problem

EXIT_CODES = {0, 1, 2, 3}

ops, ctrl, sched, x0, _ = two_halfspace_problem()
PROBLEM = cfp.problem_to_json(ops, ctrl, sched, x0, cfp.StopRule(max_iter=20, stride=1))
TRACE = cfp.trace_records(cfp.acsa_run(ops, ctrl, sched, x0, cfp.StopRule(max_iter=20, stride=1)))

#: what a mutation puts in place of a value
REPLACEMENTS = st.one_of(
    st.text(max_size=4), st.booleans(), st.none(), st.just([[1.0], [2.0, 3.0]]), st.just([[]])
)


def _locations(doc, path=()):
    """Every (path, key) in a JSON document, container keys included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path, key
        yield from _locations(value, path + (key,))


@st.composite
def mutated(draw, doc):
    """doc with one value replaced, or one object key dropped."""
    doc = json.loads(json.dumps(doc))
    path, key = draw(st.sampled_from(list(_locations(doc))))
    parent = doc
    for step in path:
        parent = parent[step]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(REPLACEMENTS)
    return doc


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(problem=mutated(PROBLEM), cut=st.none() | st.integers(0, 400))
def test_mutated_problem_gives_a_documented_exit(tmp_path, problem, cut):
    text = json.dumps(problem)
    path = tmp_path / "problem.json"
    path.write_text(text if cut is None else text[:cut])
    trace = tmp_path / "trace.jsonl"
    trace.write_text("".join(json.dumps(rec) + "\n" for rec in TRACE))
    assert _run(["solve", str(path), "-o", str(tmp_path / "s")]) in EXIT_CODES
    assert _run(["analyze", str(trace), str(path), "-o", str(tmp_path / "a")]) in EXIT_CODES


@FUZZ
@given(
    step=st.integers(0, len(TRACE) - 1),
    data=st.data(),
    cut=st.none() | st.integers(0, 60),
)
def test_mutated_trace_gives_a_documented_exit(tmp_path, step, data, cut):
    lines = [json.dumps(rec) for rec in TRACE]
    rec = data.draw(mutated(TRACE[step]))
    lines[step] = json.dumps(rec) if cut is None else json.dumps(rec)[:cut]
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(PROBLEM))
    trace = tmp_path / "trace.jsonl"
    trace.write_text("\n".join(lines) + "\n")
    assert _run(["analyze", str(trace), str(problem), "-o", str(tmp_path / "a")]) in EXIT_CODES
