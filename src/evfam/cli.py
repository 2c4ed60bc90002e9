"""Command-line front end: solver runs, trace analysis, property suites,
and worked demos.

Artifacts are JSON/JSONL/CSV.  Every command encodes all its artifacts
before it writes the first, so a failed encode leaves none; one writer then
writes each atomically (temp file + rename), so a crashed run never leaves a
half-written report, with the permissions the umask gives a new file.  Each
artifact costs one call, not one per line:
JSON artifacts are one line of sorted keys, which the C encoder writes; a
trace is that encoder's output for the whole record list, split into one
line per record; a trace is read back by one json.loads over its lines;
runs.csv is one string format per row, joined once.  Identical inputs and
seed produce byte-identical outputs; floats are serialized with Python's
repr, which round-trips exactly.

A run that repeats exactly is written as its stored steps, the last of
which closes the cycle (see cfp.trace_records).  analyze replays those
steps, writes a runs.csv row for each, and certifies the run read through
cfp.Trace.rows, the stored row of each of its points; a run whose row
index does not fit in memory is an error there.

Exit codes: 0 success/converged/certified; 1 usage, input, replay or write
error; 2 unconverged (cap or exhausted control) or inconclusive; 3 violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__, analysis, cfp, checks
from .families import CoGapLevelFamily, CofiniteFamily, InfiniteFamily, family_to_json
from .intseq import EPSet, cogap

REPLAY_TOL = cfp.REPLAY_TOL

#: what reading a malformed problem or trace raises; each exits 1 (an
#: OverflowError is an integer too large for an index array, a
#: RecursionError JSON or operators nested past Python's recursion limit)
_INPUT_ERRORS = (OSError, ValueError, KeyError, TypeError, OverflowError, RecursionError)


# ---------------------------------------------------------------------------
# atomic artifact writers


def _write_text(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".evfam-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        # mkstemp makes the file 0600: give it the mode open() would.  Reading
        # the umask means setting it, to 077 so that a file another thread
        # creates meanwhile gets no wider mode.
        umask = os.umask(0o077)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


#: the one encoder of every JSON artifact: the bytes of
#: json.dumps(obj, sort_keys=True, allow_nan=False), built once, not per call
_JSON = json.JSONEncoder(sort_keys=True, allow_nan=False)


def _dump_json(obj):
    return _JSON.encode(obj) + "\n"


def _dump_jsonl(records):
    """One line of _JSON per trace record, from one encode of the whole
    list.  A trace record holds no nested object and no string value, so
    "}, {" occurs in the encoded list only between two records."""
    return _JSON.encode(records)[1:-1].replace("}, {", "}\n{") + "\n"


def _write_artifacts(out, texts):
    """Writes each encoded text to out/<name>, in order: the one artifact
    writer.  Its callers encode every text first."""
    for name, text in texts.items():
        _write_text(os.path.join(out, name), text)


def _run_artifacts(ops, trace):
    """A run's summary, and its trace.jsonl and summary.json encoded."""
    summary = cfp.trace_summary(ops, trace)
    return summary, {"trace.jsonl": _dump_jsonl(cfp.trace_records(trace)),
                     "summary.json": _dump_json(summary)}


def _fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# solve


def _load_problem(path):
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"problem {path}: {exc}") from None
    return cfp.problem_from_json(obj)


def _warn_relaxation_bounds(sched):
    if min(sched.values) <= 0.0:
        print(
            "warning: relaxation schedule reaches 0; steps there make no progress",
            file=sys.stderr,
        )
    if max(sched.values) >= 2.0:
        print(
            "warning: relaxation schedule reaches 2; convergence guarantees need "
            "lambda bounded away from 2",
            file=sys.stderr,
        )


def cmd_solve(args):
    try:
        ops, ctrl, sched, x0, stop = _load_problem(args.problem)
    except _INPUT_ERRORS as exc:
        return _fail(exc)
    _warn_relaxation_bounds(sched)
    try:
        trace = cfp.acsa_run(ops, ctrl, sched, x0, stop)
        summary, texts = _run_artifacts(ops, trace)
    except cfp.AcsaDivergence as exc:
        return _fail(exc)
    _write_artifacts(args.out, texts)
    print(
        f"{summary['stop_reason']} after {summary['iterations']} steps; "
        f"final {summary['final']} (max residual {summary['max_residual']})"
    )
    print(f"wrote {args.out}/trace.jsonl and {args.out}/summary.json")
    return 0 if trace.converged else 2


# ---------------------------------------------------------------------------
# analyze


def _read_trace(path):
    """The trace of a JSONL file, read by one json.loads over its non-blank
    lines, joined into a list.  That read is taken only when the list holds
    one value per line, every line ends in "}" and trace_from_records
    accepts the values.  Then every value is a record with no nested object
    and no string but its keys, so every "}" ends a record, each line holds
    exactly one record, and the per-line read gives the same records.  At
    any doubt the lines are read one at a time, from the file again so that
    each keeps its newline for the error position, and the first bad line
    is named."""
    try:
        with open(path) as fh:
            # split on "\n" alone, as file iteration does; str.splitlines
            # also splits on U+2028 and other characters inside a line
            lines = [line for line in fh.read().split("\n") if line.strip()]
        if all(line.rstrip().endswith("}") for line in lines):
            records = json.loads("[" + ",".join(lines) + "]")
            if len(records) == len(lines):
                return cfp.trace_from_records(records)
    except _INPUT_ERRORS:
        pass
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except ValueError as exc:
                raise ValueError(f"trace line {lineno}: {exc}") from None
    return cfp.trace_from_records(records)


def _parse_ladder(text):
    try:
        ladder = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad ladder {text!r}; expected comma-separated floats")
    return ladder


def _dump_runs(trace):
    """runs.csv: one row per stored step n, the distance of x_n to the final
    point; a cycled run's later steps repeat the rows of its cycle.  The
    trace itself holds each step's label and relaxation.  Ints and float
    reprs need no CSV quoting, so these are the bytes csv.writer writes."""
    dists = cfp.row_distances(trace.iterates[1:], trace.final).tolist()
    rows = map("{},{!r}\n".format, range(1, len(dists) + 1), dists)
    return "n,dist_to_final\n" + "".join(rows)


def cmd_analyze(args):
    try:
        if args.window is not None and args.window < 1:
            raise ValueError(f"--window must be an integer >= 1, got {args.window}")
        ops, _, _, _, stop = _load_problem(args.problem)
        trace = _read_trace(args.trace)
        ladder = _parse_ladder(args.ladder)
        deviation = cfp.replay_trace(ops, trace)
    except _INPUT_ERRORS as exc:
        return _fail(exc)
    if not deviation <= REPLAY_TOL:
        return _fail(
            f"trace does not replay against the problem "
            f"(max deviation {deviation:g} > {REPLAY_TOL:g})"
        )

    # the iterate log does not carry the solver's verdict; recompute it
    # from the problem's own stop rule
    if cfp.ResidualBank(ops).max_residual(trace.final) <= stop.tol:
        trace.stop_reason = "converged"

    # certification reads the stored steps through the run's row index,
    # which a run too long for memory cannot hold
    try:
        cert = analysis.certify_fixed_points(
            trace, ops, ladder=ladder, n0=args.tail, tol=args.tol, relaxed=not args.strict
        )
    except ValueError as exc:
        return _fail(exc)
    except MemoryError as exc:
        return _fail(f"the run does not fit in memory: {exc}")
    follows = [rep.graded(args.window) for rep in cert.follows]

    report = {
        "replay_max_deviation": deviation,
        "follows": [analysis.follows_report_json(rep) for rep in follows],
        "estimate": analysis.limit_estimate_json(cert.estimate),
        "certification": analysis.certification_json(cert),
    }
    _write_artifacts(args.out, {"report.json": _dump_json(report), "runs.csv": _dump_runs(trace)})

    for rep in follows:
        window = "none" if rep.min_c is None else rep.min_c
        print(f"operator {rep.operator}: {rep.criterion} witnesses "
              f"{len(rep.witnesses)}, min_c {window}")
    print(f"certification: {cert.status}")
    print(f"wrote {args.out}/report.json and {args.out}/runs.csv")
    return {"certified": 0, "inconclusive": 2, "violation": 3}[cert.status]


# ---------------------------------------------------------------------------
# check


def cmd_check(args):
    try:
        results = checks.run_suite(args.suite, seed=args.seed, budget=args.budget)
    except ValueError as exc:
        return _fail(exc)
    for res in results:
        print(res.line())
    failed = [res for res in results if not res.passed]
    total = sum(res.cases for res in results)
    if failed:
        print(f"{len(failed)}/{len(results)} checks failed ({total} cases, seed {args.seed})")
        return 1
    print(f"all {len(results)} checks passed ({total} cases, seed {args.seed})")
    return 0


# ---------------------------------------------------------------------------
# demos


def two_halfspace_problem():
    """First-quadrant feasibility: u1 >= 0 and u2 >= 0 from (-1, -1)."""
    ops = [cfp.Halfspace([-1.0, 0.0], 0.0), cfp.Halfspace([0.0, -1.0], 0.0)]
    ctrl = cfp.CyclicControl(2)
    sched = cfp.ConstantRelaxation(1.0)
    stop = cfp.StopRule(stride=1)
    return ops, ctrl, sched, np.array([-1.0, -1.0]), stop


def demo_counterexample(out):
    pairs = 400
    xs = []
    for k in range(1, pairs + 1):
        xs.extend([-1.0, float(k)])
    est = analysis.cogap_limit_estimate(xs)
    print("sequence: -1, 1, -1, 2, -1, 3, ... "
          f"({2 * pairs} points, tail starts at {est.n0})")
    for cand in est.candidates:
        print(f"candidate {cand.point.tolist()}:")
        for row in cand.per_eps:
            print(f"  eps {row['eps']:g}: recurring run {row['run']}, "
                  f"estimate {row['estimate']}")
        print(f"  multiplicity estimate {cand.estimate}")
    verdict = "a classical limit" if est.convergent else "no classical limit"
    print(f"the detector reports {verdict}")
    _write_artifacts(out, {"report.json": _dump_json(analysis.limit_estimate_json(est))})
    print(f"wrote {out}/report.json")
    return 0


def demo_two_halfspaces(out):
    ops, ctrl, sched, x0, stop = two_halfspace_problem()
    trace = cfp.acsa_run(ops, ctrl, sched, x0, stop)
    for k, x in enumerate(trace.iterates):
        print(f"x_{k} = {x.tolist()}")
    summary, texts = _run_artifacts(ops, trace)
    print(f"{summary['stop_reason']} in {summary['iterations']} steps at "
          f"{summary['final']}")
    problem = _dump_json(cfp.problem_to_json(ops, ctrl, sched, x0, stop))
    _write_artifacts(out, {"problem.json": problem, **texts})
    print(f"wrote {out}/problem.json, {out}/trace.jsonl, {out}/summary.json")
    return 0


def _tour_line(entry):
    """A tour entry's fields past its name and family, as "key value"."""
    return ", ".join(f"{key.replace('_', ' ')} {value}" for key, value in entry.items()
                     if key not in ("name", "family"))


def demo_families_tour(out):
    evens = EPSet.from_text("prefix=;period=01")
    odds = EPSet.from_text("prefix=;period=10")
    tour = []
    for name, fam in (("infinite-subsets", InfiniteFamily()),
                      ("cofinite-subsets", CofiniteFamily())):
        flags = fam.classify()
        tour.append({"name": name, "family": family_to_json(fam),
                     **{key: getattr(flags, key).value
                        for key in ("eventual", "filter", "finitely_insensitive")}})
        print(f"{name}: {_tour_line(tour[-1])}")
    inter = evens & odds
    print(f"intersection of evens and odds is {inter.to_text()!r}, the empty set: "
          "the infinite-subsets family is no filter")
    print(f"cogap(evens) = {cogap(evens)}, cogap(naturals) = {cogap(EPSet.naturals())}")
    level = CoGapLevelFamily(3)
    tour.append({"name": "cogap-level-3", "family": family_to_json(level),
                 "contains_naturals": level.contains(EPSet.naturals()),
                 "contains_evens": level.contains(evens)})
    print(f"coverage level 3 family: {_tour_line(tour[-1])}")
    _write_artifacts(out, {"tour.json": _dump_json(tour)})
    print(f"wrote {out}/tour.json")
    return 0


def cmd_demo(args):
    runner = {
        "counterexample": demo_counterexample,
        "two-halfspaces": demo_two_halfspaces,
        "families-tour": demo_families_tour,
    }[args.name]
    return runner(args.out)


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """A usage error exits 1, as any input error, not 2, which means unconverged
    or inconclusive here.  Subparsers are built of the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="evfam",
        description="Feasibility solver and trace analyzer over set-family limits.",
    )
    parser.add_argument("--version", action="version", version=f"evfam {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the sequential projection iteration")
    p.add_argument("problem", help="problem JSON path")
    p.add_argument("-o", "--out", default="evfam-out", help="output directory")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("analyze", help="replay a trace and certify fixed points")
    p.add_argument("trace", help="trace JSONL path")
    p.add_argument("problem", help="problem JSON path")
    p.add_argument("-o", "--out", default="evfam-out", help="output directory")
    p.add_argument("--ladder", default=",".join(map(str, analysis.DEFAULT_LADDER)),
                   help="comma-separated neighborhood radii, strictly decreasing")
    p.add_argument("--tail", type=int, default=None,
                   help="first tail index analyzed (default: half the trace)")
    p.add_argument("--window", type=int, default=None,
                   help="window length (>= 1) the follows reports are graded against")
    p.add_argument("--strict", action="store_true",
                   help="admit only unit-relaxation steps as witnesses")
    p.add_argument("--tol", type=float, default=analysis.DEFAULT_TOL,
                   help="fixed-point residual tolerance, also the convergence radius "
                        "of an unconverged tail")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("check", help="run a property suite")
    p.add_argument("suite", choices=checks.SUITE_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0,
                   help="sampling seed (>= 0)")
    p.add_argument("--budget", type=int, default=checks.DEFAULT_BUDGET,
                   help="sampled cases per check; 0 passes vacuously")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("demo", help="reproduce a worked example")
    p.add_argument("name", choices=("counterexample", "two-halfspaces", "families-tour"))
    p.add_argument("-o", "--out", default="evfam-out", help="output directory")
    p.set_defaults(func=cmd_demo)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        # the commands catch their own read errors, so this is a write that
        # failed: an --out that names a file, say
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
