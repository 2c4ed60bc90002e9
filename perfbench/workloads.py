"""Workloads of the evfam benchmark: seeded inputs, the timed operation of
each workload, and the checks on its outputs.

Solver workloads go through ``evfam.cli.main`` as a user would, one
``solve`` and then one ``analyze`` per problem file.  The set-calculus
workload calls the public functions of intseq, families, multisets and
setlimits.  Every input comes from the seed; the program sees only the
problem files and the sets.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import re
import time
from dataclasses import dataclass

import numpy as np

import speed
from evfam import cfp, cli, families, intseq, multisets, setlimits

SIZES = {
    "full": {
        # dim 50, m 200, stride 10 is the instance ROADMAP item 1 names
        "halfspace-large": {"dim": 50, "m": 200, "stride": 10, "steps": 2500},
        # cap = work // m keeps steps x m, and so the analyze cost, level
        # across the 3..8 ball problems
        "ball-bounce": {"problems": 30, "work": 9000},
        "set-calculus": {"epset_pairs": 2500, "small_ground": 3, "topologies": 600,
                         "family_lists": 40, "multifamilies": 600, "sequences": 1200},
    },
    "tiny": {
        "halfspace-large": {"dim": 5, "m": 10, "stride": 10, "steps": 50},
        "ball-bounce": {"problems": 2, "work": 1200},
        "set-calculus": {"epset_pairs": 20, "small_ground": 2, "topologies": 3,
                         "family_lists": 4, "multifamilies": 3, "sequences": 6},
    },
}

ARTIFACTS = ("trace.jsonl", "summary.json", "report.json", "runs.csv")


# ---------------------------------------------------------------------------
# solver workloads


@dataclass
class Problem:
    name: str
    path: str
    outdir: str
    ops: list
    tol: float
    steps: int  # iterations the solve must report
    exits: tuple  # expected (solve, analyze) exit codes
    status: str  # expected certification status


def _write_problem(workdir, name, ops, ctrl, x0, stop):
    outdir = os.path.join(workdir, name)
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "problem.json")
    doc = cfp.problem_to_json(ops, ctrl, cfp.ConstantRelaxation(1.0), x0, stop)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path, outdir


def halfspace_large(seed, workdir, dim, m, stride, steps):
    """One feasible half-space instance whose solve converges after exactly
    ``steps`` iterations.

    A pre-run from a random start far from the feasible set fixes the
    start point: its iterate ``steps`` iterations before convergence, with
    the control pattern rotated to match.  The solve then replays the tail
    of the pre-run exactly, so the trace length, and with it the cost of
    solve and analyze, does not vary with the seed.
    """
    rng = np.random.default_rng(seed)
    ops, center = cfp.random_feasible_instance(dim, m, rng)
    pattern = cfp.random_almost_cyclic_pattern(m, rng)
    direction = rng.normal(size=dim)
    direction /= np.linalg.norm(direction)
    stop = cfp.StopRule(tol=1e-6, max_iter=100000, stride=stride)
    dist = 10.0
    for _ in range(12):
        pre = cfp.acsa_run(ops, cfp.AlmostCyclicControl(pattern, m),
                           cfp.ConstantRelaxation(1.0), center + dist * direction, stop)
        if pre.converged and pre.n_steps >= steps:
            break
        dist *= 2
    else:
        raise RuntimeError("no start point converges slowly enough")
    # converged runs stop on a checkpoint, so k is a multiple of the stride
    # and the solve's checkpoints fall where the pre-run's did
    k = pre.n_steps - steps
    shift = k % len(pattern)
    ctrl = cfp.AlmostCyclicControl(pattern[shift:] + pattern[:shift], m)
    path, outdir = _write_problem(workdir, "halfspace", ops, ctrl, pre.iterates[k], stop)
    return [Problem("halfspace", path, outdir, ops, stop.tol, steps, (0, 0), "certified")]


def _disjoint_balls(rng, m, dim):
    centers, radii = [], []
    while len(centers) < m:
        c, r = rng.uniform(-4.0, 4.0, size=dim), float(rng.uniform(0.5, 1.5))
        if all(np.linalg.norm(c - c2) > r + r2 + 0.5 for c2, r2 in zip(centers, radii)):
            centers.append(c)
            radii.append(r)
    return [cfp.Ball(c, r) for c, r in zip(centers, radii)]


def _no_repeat_pattern(rng, m):
    """Every label once plus m // 2 extras, with no label twice in a row
    (cyclically).  A fixed length keeps the limit cycle, and so the
    analysis cost, the same size on every seed."""
    pattern = [int(i) for i in rng.permutation(m) + 1]
    while len(pattern) < m + m // 2:
        pos, label = int(rng.integers(0, len(pattern))), int(rng.integers(1, m + 1))
        if label not in (pattern[pos - 1], pattern[pos]):
            pattern.insert(pos, label)
    return tuple(pattern)


def ball_bounce(seed, workdir, problems, work):
    """Infeasible problems: pairwise-disjoint balls under an almost-cyclic
    control.  The iterates settle on a limit cycle, every solve stops at its
    cap (exit 2) and every analysis is inconclusive (exit 2).

    Consecutive steps land on different, disjoint balls, so no cycle point is
    held for a second step: every candidate's run estimate is 1, below the
    min_c + 1 >= 3 a (candidate, operator) pair needs.  A label repeated back
    to back would hold a point on its ball and certify it, correctly, as a
    fixed point of that one operator; the pattern excludes that case.
    """
    rng = np.random.default_rng(seed)
    out = []
    for k in range(problems):
        # sizes cycle so that every prefix of the problem list is a balanced mix
        dim, m = 3 + k % 3, 3 + k % 6
        ops = _disjoint_balls(rng, m, dim)
        ctrl = cfp.AlmostCyclicControl(_no_repeat_pattern(rng, m), m)
        cap = work // m // 10 * 10
        stop = cfp.StopRule(tol=1e-6, max_iter=cap, stride=10)
        x0 = rng.uniform(-6.0, 6.0, size=dim)
        path, outdir = _write_problem(workdir, f"ball{k:02d}", ops, ctrl, x0, stop)
        out.append(Problem(f"ball{k:02d}", path, outdir, ops, stop.tol, cap, (2, 2),
                           "inconclusive"))
    return out


@dataclass
class Outcome:
    attempted: int  # operations checked
    errors: list  # one message per failed operation
    digests: dict  # input -> digest of its outputs, compared across repeats
    phases: dict  # phase -> seconds of each call
    counts: dict  # counts the per-layer metrics take from the outputs


def _cli(argv, spans, name):
    buf = io.StringIO()
    region = spans.span(name) if spans is not None else contextlib.nullcontext()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf), region:
        rc = cli.main(argv)
    return rc, buf.getvalue(), time.perf_counter() - t0


def run_problem(p, spans=None):
    trace = os.path.join(p.outdir, "trace.jsonl")
    solve = _cli(["solve", p.path, "-o", p.outdir], spans, "cli.solve")
    analyze = _cli(["analyze", trace, p.path, "-o", p.outdir], spans, "cli.analyze")
    return solve, analyze


def _report_deviation(path):
    # the key sorts last in report.json, so the tail holds it; fall back to a
    # full parse should the layout ever change
    with open(path, "rb") as fh:
        fh.seek(max(0, os.path.getsize(path) - 4096))
        tail = fh.read().decode()
    found = re.search(r'"replay_max_deviation": ([^\s,}]+)', tail)
    if found:
        return float(found.group(1))
    with open(path) as fh:
        return json.load(fh)["replay_max_deviation"]


def check_problem(problem, result):
    (src, sout, swall), (arc, aout, awall) = result
    out = Outcome(1, [], {}, {"solve": [swall], "analyze": [awall]}, {})
    # artifacts go after the check, so that no run can pass on a stale file
    try:
        errors = _check_artifacts(problem, src, sout, arc, aout, out)
    finally:
        for a in ARTIFACTS:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(problem.outdir, a))
    if errors:
        out.errors.append(f"{problem.name}: " + "; ".join(errors))
    return out


def _check_artifacts(problem, src, sout, arc, aout, out):
    errors = []

    def expect(ok, msg):
        if not ok:
            errors.append(msg)

    expect(src == problem.exits[0], f"solve exit {src}, expected {problem.exits[0]}: {sout[-300:]!r}")
    expect(arc == problem.exits[1], f"analyze exit {arc}, expected {problem.exits[1]}: {aout[-300:]!r}")
    paths = {a: os.path.join(problem.outdir, a) for a in ARTIFACTS}
    missing = [a for a, p in paths.items() if not os.path.exists(p)]
    if missing:
        expect(False, f"missing artifacts {missing}")
        return errors
    with open(paths["summary.json"]) as fh:
        summary = json.load(fh)
    expect(summary["iterations"] == problem.steps,
           f"{summary['iterations']} iterations, expected {problem.steps}")
    if problem.exits[0] == 0:
        final = np.asarray(summary["final"], dtype=float)
        residual = max(op.fix_residual(final) for op in problem.ops)
        expect(summary["converged"] and residual <= problem.tol,
               f"final residual {residual:g} above tol {problem.tol:g}")
    else:
        expect(summary["stop_reason"] == "max_iter", f"stop reason {summary['stop_reason']!r}")
    status = re.search(r"^certification: (\w+)$", aout, re.M)
    status = status.group(1) if status else None
    expect(status == problem.status, f"certification {status!r}, expected {problem.status!r}")
    deviation = _report_deviation(paths["report.json"])
    expect(deviation <= cli.REPLAY_TOL, f"replay deviation {deviation:g} > {cli.REPLAY_TOL:g}")
    digest = hashlib.sha256()
    for a in ARTIFACTS:
        with open(paths[a], "rb") as fh:
            digest.update(hashlib.sha256(fh.read()).digest())
    out.digests[problem.name] = digest.hexdigest()
    out.counts = {"trace_bytes": os.path.getsize(paths["trace.jsonl"]),
                  "report_bytes": os.path.getsize(paths["report.json"])}
    return errors


# ---------------------------------------------------------------------------
# set-calculus workload


@dataclass
class SetInputs:
    epset_pairs: list  # ((prefix, period), (prefix, period)) bit tuples
    small_grounds: list  # grounds swept exhaustively
    ground: tuple  # the 4-point ground
    subbases: list  # one topology subbasis each
    family_sets: list  # member lists of indicator families
    weights: list  # (topology index, max-weight multiplicity table)
    sequences: list  # (ground, prefix sets, period sets, convergent)


def _bits(rng, n):
    return tuple(rng.randrange(2) for _ in range(n))


def _max_weight(weights, s):
    vals = [weights[x] for x in s]
    if "inf" in vals:
        return "inf"
    return max(vals, default=0)


def set_calculus(seed, workdir, epset_pairs, small_ground, topologies, family_lists,
                 multifamilies, sequences):
    """Random sets, families, topologies and set sequences.

    The sizes that set the cost of an operation (prefix and period lengths,
    generators per topology, the ground of a sequence) cycle through fixed
    ranges and only the contents come from the seed, so that a pass costs
    about the same on every seed.
    """
    rng = random.Random(seed)
    pairs = [
        ((_bits(rng, i % 9), _bits(rng, i % 25)), (_bits(rng, i // 9 % 9), _bits(rng, i // 25 % 25)))
        for i in range(epset_pairs)
    ]
    ground = tuple("abcd")
    subsets = list(families.powerset(ground))
    subbases = [
        [frozenset(x for x in ground if rng.random() < 0.5) for _ in range(i % 5)]
        for i in range(topologies)
    ]
    family_sets = [[s for s in subsets if rng.random() < 0.5] for _ in range(family_lists)]
    weights = []
    for i in range(multifamilies):
        w = {x: rng.choice((0, 1, 2, 3, "inf")) for x in ground}
        weights.append((i % topologies, {s: _max_weight(w, s) for s in subsets}))
    seqs = []
    for i in range(sequences):
        subs = list(families.powerset(ground[: 1 + i % 3]))
        prefix = [rng.choice(subs) for _ in range(i % 5)]
        convergent = i % 2 == 0
        if convergent:
            period = [rng.choice(subs)]
        else:
            a, b = rng.sample(subs, 2)
            period = [a, b] + [rng.choice(subs) for _ in range(i % 3)]
        seqs.append((ground[: 1 + i % 3], prefix, period, convergent))
    small = [ground[:n] for n in range(small_ground + 1)]
    return SetInputs(pairs, small, ground, subbases, family_sets, weights, seqs)


def _sequence_families():
    return [families.InfiniteFamily(), families.CofiniteFamily(),
            families.CoGapLevelFamily(1), families.CoGapLevelFamily(2),
            families.CoGapLevelFamily(5)]


def _combos(out, fams, topos):
    for fam in fams:
        for topo in topos:
            lim = families.limit_set(fam, topo)
            out.append((topo, lim, families.star(families.closure_family(fam, topo))))


def run_set_pass(inp, spans=None):
    eps = []
    for pa, pb in inp.epset_pairs:
        a, b = intseq.EPSet(*pa), intseq.EPSet(*pb)
        u, i = intseq.union(a, b), intseq.intersection(a, b)
        eps.append((a, b, u, i, intseq.complement(a), intseq.gap(u), intseq.cogap(i)))
    combos = []
    for g in inp.small_grounds:
        subsets = list(families.powerset(g))
        fams = [
            families.IndicatorFamily(g, [s for j, s in enumerate(subsets) if mask >> j & 1])
            for mask in range(2 ** len(subsets))
        ]
        _combos(combos, fams, families.all_topologies(g))
    topos = [families.FiniteTopology.from_subbasis(inp.ground, sb) for sb in inp.subbases]
    _combos(combos, [families.IndicatorFamily(inp.ground, s) for s in inp.family_sets], topos)
    multi = []
    for t, table in inp.weights:
        mf = multisets.ExplicitMultifamily(inp.ground, table)
        multi.append((multisets.multiset_limit(mf, topos[t]),
                      multisets.mstar(multisets.mf_closure(mf, topos[t]))))
    fams = _sequence_families()
    seqs = []
    for g, prefix, period, convergent in inp.sequences:
        seq = setlimits.SetSequence.from_sets(g, prefix, period)
        seqs.append((convergent, setlimits.classical_limits(seq),
                     [setlimits.e_limit(f, seq) for f in fams],
                     [setlimits.verify_limit_theorem(seq, f).status for f in fams]))
    return eps, combos, multi, seqs


def check_set_pass(inp, result):
    """One operation per EPSet pair, family/topology combo, multifamily and
    set sequence."""
    eps, combos, multi, seqs = result
    errors = []
    digest = hashlib.sha256()
    for a, b, u, i, ca, g, cg in eps:
        # De Morgan, cogap duality, and gap decreasing from A to A | B
        if (intseq.complement(u) != intseq.intersection(ca, intseq.complement(b))
                or cg != intseq.gap(intseq.complement(i)) or not intseq.gap(a) >= g):
            errors.append(f"EPSet algebra fails on {a!r}, {b!r}: {u!r}, {i!r}, {g}, {cg}")
        digest.update(f"{u.to_text()}|{i.to_text()}|{ca.to_text()}|{g}|{cg}\n".encode())
    for topo, lim, st in combos:
        if st != lim or not topo.is_closed(lim):
            errors.append(f"star(closure) {sorted(st)} vs limit set {sorted(lim)} on {topo!r}")
        digest.update(f"{sorted(lim)}\n".encode())
    for lim, via in multi:
        if lim != via:
            errors.append(f"multiset limit {lim!r} != mstar(mf_closure) {via!r}")
        digest.update(f"{lim!r}\n".encode())
    for convergent, cls, elims, statuses in seqs:
        if convergent:
            ok = cls.limit is not None and all(e == cls.limit for e in elims)
            ok = ok and all(s == "verified" for s in statuses)
        else:
            ok = cls.limit is None and all(cls.liminf <= e <= cls.limsup for e in elims)
            ok = ok and all(s == "preconditions-unmet" for s in statuses)
        if not ok:
            errors.append(f"sequence limits disagree: {cls!r}, {elims!r}, {statuses!r}")
        digest.update(f"{sorted(cls.limsup)}|{sorted(cls.liminf)}|{statuses}\n".encode())
    attempted = len(eps) + len(combos) + len(multi) + len(seqs)
    return Outcome(attempted, errors, {"pass": digest.hexdigest()}, {}, {"combos": len(combos)})


# ---------------------------------------------------------------------------


@dataclass
class Workload:
    setup: object  # (seed, workdir, **size) -> inputs, one per operation, cycled
    run: object  # (input, spans) -> raw outputs
    check: object  # (input, raw outputs) -> Outcome
    kernel: object  # speed-sampling kernel, see speed.py


WORKLOADS = {
    "halfspace-large": Workload(halfspace_large, run_problem, check_problem,
                                speed.vector_kernel(50, 0.00058)),
    "ball-bounce": Workload(ball_bounce, run_problem, check_problem,
                            speed.vector_kernel(4, 0.00048)),
    "set-calculus": Workload(lambda seed, workdir, **size: [set_calculus(seed, workdir, **size)],
                             run_set_pass, check_set_pass, speed.set_kernel(0.00045)),
}
