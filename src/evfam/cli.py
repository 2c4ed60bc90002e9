"""Command-line front end: solver runs, trace analysis, property suites,
and worked demos.

Artifacts are JSON/JSONL/CSV, written atomically (temp file + rename) so a
crashed run never leaves a half-written report.  Identical inputs and seed
produce byte-identical outputs; floats are serialized with Python's repr,
which round-trips exactly.

Exit codes: 0 success/converged/certified; 1 input or replay error;
2 iteration cap or inconclusive; 3 certification violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__, analysis, cfp, checks
from .families import CoGapLevelFamily, CofiniteFamily, InfiniteFamily, family_to_json
from .intseq import EPSet, cogap

REPLAY_TOL = 1e-12

#: what reading a malformed problem or trace raises; each exits 1
_INPUT_ERRORS = (OSError, ValueError, KeyError, TypeError)


# ---------------------------------------------------------------------------
# atomic artifact writers


def _write_text(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".evfam-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dump_json(obj):
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_json(path, obj):
    _write_text(path, _dump_json(obj))


def _write_jsonl(path, records):
    lines = [json.dumps(rec, sort_keys=True, allow_nan=False) for rec in records]
    _write_text(path, "\n".join(lines) + "\n")


def _write_csv(path, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write_text(path, buf.getvalue())


def _fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    return 1


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# solve


def _load_problem(path, normalize):
    obj = _load_json(path)
    return cfp.problem_from_json(obj, normalize=normalize)


def _warn_relaxation_bounds(sched):
    lo, hi = sched.bounds()
    if lo <= 0.0:
        print(
            "warning: relaxation schedule reaches 0; steps there make no progress",
            file=sys.stderr,
        )
    if hi >= 2.0:
        print(
            "warning: relaxation schedule reaches 2; convergence guarantees need "
            "lambda bounded away from 2",
            file=sys.stderr,
        )


def cmd_solve(args):
    try:
        ops, ctrl, sched, x0, stop = _load_problem(args.problem, args.normalize)
    except _INPUT_ERRORS as exc:
        return _fail(exc)
    _warn_relaxation_bounds(sched)
    try:
        trace = cfp.acsa_run(ops, ctrl, sched, x0, stop)
    except cfp.AcsaDivergence as exc:
        return _fail(exc)
    summary = cfp.trace_summary(ops, trace)
    _write_jsonl(os.path.join(args.out, "trace.jsonl"), cfp.trace_records(trace))
    _write_json(os.path.join(args.out, "summary.json"), summary)
    print(
        f"{summary['stop_reason']} after {summary['iterations']} steps; "
        f"final {summary['final']} (max residual {summary['max_residual']})"
    )
    print(f"wrote {args.out}/trace.jsonl and {args.out}/summary.json")
    return 0 if trace.converged else 2


# ---------------------------------------------------------------------------
# analyze


def _read_trace(path):
    with open(path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return cfp.trace_from_records(records)


def _parse_ladder(text):
    try:
        ladder = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad ladder {text!r}; expected comma-separated floats")
    return ladder


def cmd_analyze(args):
    try:
        ops, _, _, _, stop = _load_problem(args.problem, args.normalize)
        trace = _read_trace(args.trace)
        ladder = _parse_ladder(args.ladder)
        deviation = cfp.replay_trace(ops, trace)
    except _INPUT_ERRORS as exc:
        return _fail(exc)
    if deviation > REPLAY_TOL:
        return _fail(
            f"trace does not replay against the problem "
            f"(max deviation {deviation:g} > {REPLAY_TOL:g})"
        )

    # the iterate log does not carry the solver's verdict; recompute it
    # from the problem's own stop rule
    if cfp._max_residual(ops, trace.final) <= stop.tol:
        trace.converged = True
        trace.stop_reason = "converged"

    try:
        estimate = analysis.cogap_limit_estimate(trace, ladder=ladder, n0=args.tail)
        cert = analysis.certify_fixed_points(
            trace, ops, eps=ladder[0], n0=args.tail, tol=args.tol, relaxed=not args.strict
        )
    except ValueError as exc:
        return _fail(exc)
    follows = [rep.graded(args.window) for rep in cert.follows]

    report = {
        "replay_max_deviation": deviation,
        "follows": [analysis.follows_report_json(rep) for rep in follows],
        "estimate": analysis.limit_estimate_json(estimate),
        "certification": analysis.certification_json(cert),
    }
    _write_json(os.path.join(args.out, "report.json"), report)

    final = trace.final
    rows = []
    for k in range(trace.n_steps):
        x = trace.iterates[k + 1]
        rows.append(
            (
                k + 1,
                trace.controls[k],
                trace.relaxations[k],
                trace.residuals[k],
                float(np.linalg.norm(x - final)),
            )
        )
    _write_csv(
        os.path.join(args.out, "runs.csv"),
        ("n", "i", "lambda", "res", "dist_to_final"),
        rows,
    )

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
    seed = args.seed
    env = os.environ.get("EVFAM_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            return _fail(f"EVFAM_SEED must be an integer, got {env!r}")
    try:
        results = checks.run_suite(args.suite, seed=seed, budget=args.budget)
    except ValueError as exc:
        return _fail(exc)
    for res in results:
        print(res.line())
    failed = [res for res in results if not res.passed]
    total = sum(res.cases for res in results)
    if failed:
        print(f"{len(failed)}/{len(results)} checks failed ({total} cases, seed {seed})")
        return 1
    print(f"all {len(results)} checks passed ({total} cases, seed {seed})")
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
    _write_json(os.path.join(out, "report.json"), analysis.limit_estimate_json(est))
    print(f"wrote {out}/report.json")
    return 0


def demo_two_halfspaces(out):
    ops, ctrl, sched, x0, stop = two_halfspace_problem()
    trace = cfp.acsa_run(ops, ctrl, sched, x0, stop)
    for k, x in enumerate(trace.iterates):
        print(f"x_{k} = {x.tolist()}")
    summary = cfp.trace_summary(ops, trace)
    print(f"{summary['stop_reason']} in {summary['iterations']} steps at "
          f"{summary['final']}")
    _write_json(
        os.path.join(out, "problem.json"),
        cfp.problem_to_json(ops, ctrl, sched, x0, stop),
    )
    _write_jsonl(os.path.join(out, "trace.jsonl"), cfp.trace_records(trace))
    _write_json(os.path.join(out, "summary.json"), summary)
    print(f"wrote {out}/problem.json, {out}/trace.jsonl, {out}/summary.json")
    return 0


def demo_families_tour(out):
    evens = EPSet.from_text("prefix=;period=01")
    odds = EPSet.from_text("prefix=;period=10")
    G, H = InfiniteFamily(), CofiniteFamily()
    tour = []
    for name, fam in (("infinite-subsets", G), ("cofinite-subsets", H)):
        flags = fam.classify()
        print(f"{name}: eventual {flags.eventual.value}, "
              f"filter {flags.filter.value}, "
              f"finitely insensitive {flags.finitely_insensitive.value}")
        tour.append(
            {
                "name": name,
                "family": family_to_json(fam),
                "eventual": flags.eventual.value,
                "filter": flags.filter.value,
                "finitely_insensitive": flags.finitely_insensitive.value,
            }
        )
    inter = evens & odds
    print(f"intersection of evens and odds is {inter.to_text()!r}, the empty set: "
          "the infinite-subsets family is no filter")
    print(f"cogap(evens) = {cogap(evens)}, cogap(naturals) = {cogap(EPSet.naturals())}")
    level = CoGapLevelFamily(3)
    print(f"coverage level 3 family: contains naturals {level.contains(EPSet.naturals())}, "
          f"contains evens {level.contains(evens)}")
    tour.append(
        {
            "name": "cogap-level-3",
            "family": family_to_json(level),
            "contains_naturals": level.contains(EPSet.naturals()),
            "contains_evens": level.contains(evens),
        }
    )
    _write_json(os.path.join(out, "tour.json"), tour)
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="evfam",
        description="Feasibility solver and trace analyzer over set-family limits.",
    )
    parser.add_argument("--version", action="version", version=f"evfam {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the sequential projection iteration")
    p.add_argument("problem", help="problem JSON path")
    p.add_argument("-o", "--out", default="evfam-out", help="output directory")
    p.add_argument("--normalize", action="store_true",
                   help="rescale halfspace/hyperplane normals to unit length")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("analyze", help="replay a trace and certify fixed points")
    p.add_argument("trace", help="trace JSONL path")
    p.add_argument("problem", help="problem JSON path")
    p.add_argument("-o", "--out", default="evfam-out", help="output directory")
    p.add_argument("--ladder", default="0.1,0.01,0.001,0.0001",
                   help="comma-separated neighborhood radii, strictly decreasing")
    p.add_argument("--tail", type=int, default=None,
                   help="first tail index analyzed (default: half the trace)")
    p.add_argument("--window", type=int, default=None,
                   help="window length the follows reports are graded against")
    p.add_argument("--strict", action="store_true",
                   help="admit only unit-relaxation steps as witnesses")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="fixed-point residual tolerance for certification")
    p.add_argument("--normalize", action="store_true",
                   help="rescale halfspace/hyperplane normals to unit length")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("check", help="run a property suite")
    p.add_argument("suite", choices=checks.SUITE_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0,
                   help="sampling seed (EVFAM_SEED overrides)")
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
