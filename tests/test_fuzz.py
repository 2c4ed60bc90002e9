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


FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
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


#: a run whose third cut is never active, so that every third step holds its
#: point and its record carries no "x"
HELD_OPS = [cfp.Halfspace([0.0, 1.0], 0.0), cfp.Halfspace([0.5, -1.0], 0.0),
            cfp.Halfspace([1.0, 1.0], 10.0)]
HELD_STOP = cfp.StopRule(max_iter=12, stride=1)
HELD_PROBLEM = cfp.problem_to_json(HELD_OPS, cfp.CyclicControl(3), sched, [1.0, 0.5], HELD_STOP)
HELD_RUN = cfp.acsa_run(HELD_OPS, cfp.CyclicControl(3), sched, [1.0, 0.5], HELD_STOP)
HELD_TRACE = cfp.trace_records(HELD_RUN)

#: what a mutation writes as a point
POINTS = st.one_of(
    REPLACEMENTS, st.lists(st.one_of(st.floats(), st.integers(), st.booleans()), max_size=3)
)


@FUZZ
@given(
    step=st.integers(0, len(HELD_TRACE) - 1),
    edit=st.sampled_from(["drop", "own", "replace"]),
    data=st.data(),
)
def test_mutated_points_of_a_trace_with_held_steps(tmp_path, step, edit, data):
    records = json.loads(json.dumps(HELD_TRACE))
    held = "x" not in records[step]
    if edit == "drop":
        records[step].pop("x", None)
    elif edit == "own":
        records[step]["x"] = HELD_RUN.iterates[step].tolist()
    else:
        records[step]["x"] = data.draw(POINTS)
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(HELD_PROBLEM))
    codes = []
    for name, recs in (("plain", HELD_TRACE), ("edited", records)):
        trace = tmp_path / f"{name}.jsonl"
        trace.write_text("".join(json.dumps(rec) + "\n" for rec in recs))
        codes.append(_run(["analyze", str(trace), str(problem), "-o", str(tmp_path / name)]))
    plain, edited = codes
    assert edited in EXIT_CODES
    # a held step may carry its point or not; a moved step without its
    # point no longer replays, and a trace without a start point is refused
    if edit == "own" or edit == "drop" and held:
        assert edited == plain
        for name in ("report.json", "runs.csv"):
            assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "edited" / name).read_bytes()
    elif edit == "drop":
        assert edited == 1
