"""Trace analysis: the follows-property, accumulation points, recurring-run
multiplicity estimates, and fixed-point certification.

A follows report holds its witness steps q (x_{q+1} is the recorded update
of x_q) as a sorted int array; JSON writes them as [start, length] runs.
A limit estimate and its candidates are written as their fields (``_plain``).

A finite trace cannot witness a lim sup, so run statistics are reported as
lower bounds; the per-epsilon estimates are clamped to be non-increasing
down the ladder (nested neighborhoods cannot honestly raise the bound).
Convergence certificates (a converged solver flag, or a tail whose second
half stays within the residual tolerance of the final point) short circuit
to multiplicity infinity at the final point.  A run has one limit estimate:
certification asserts its pairs on the candidates and estimates that the
report's ``estimate`` shows.

A cycled trace is read through ``Trace.rows``: the follows check applies
each operator once per stored step, and the estimate gathers its points once.
Radii and tolerances are read by ``cfp._number``'s rule, not cast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from .cfp import ResidualBank, Trace, _integer, _number, relaxed_update, row_distances
from .intseq import ExtNat, INF, window_cover

#: neighborhood radii tried from coarse to fine, at unit data scale
DEFAULT_LADDER = (1e-1, 1e-2, 1e-3, 1e-4)
#: fixed-point residual tolerance, also the convergence radius of a tail
DEFAULT_TOL = 1e-6


def _points(source):
    """Iterate matrix (N, J) from a Trace (its points x_0..x_N, gathered by
    ``rows`` when cycled), a float (N, J) array as is, or a list of points
    or scalars.  Every point must be finite."""
    if isinstance(source, Trace):
        pts = source.iterates if source.cycle is None else source.iterates[source.rows()]
    elif isinstance(source, np.ndarray) and source.dtype == float and source.ndim == 2:
        pts = source
    else:
        points = [np.atleast_1d(np.asarray(p, dtype=float)) for p in source]
        pts = np.vstack(points) if points else np.empty((0, 0))
    if not len(pts):
        raise ValueError("need at least one point")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    return pts


def _tail_start(n_points, n0):
    if n0 is None:
        return n_points // 2
    n0 = _integer(n0, "the tail start")
    if not 0 <= n0 < n_points:
        raise ValueError(f"the tail start must lie in 0..{n_points - 1}, got {n0}")
    return n0


# ---------------------------------------------------------------------------
# the follows-property


@dataclass(frozen=True, eq=False)  # == on the array field would raise
class FollowsReport:
    operator: object  # 1-based label when known
    criterion: str  # "relaxed" | "strict"
    window: object  # requested window length, or None
    min_c: object  # smallest certified window length, or None
    witnesses: np.ndarray  # sorted witness steps q, each meaning x_{q+1} follows x_q

    @property
    def ok(self):
        """Whether a witness exists in every window of the requested length
        (None: any window passes once a witness exists)."""
        return self.min_c is not None and (self.window is None or self.min_c <= self.window)

    def __bool__(self):
        return self.ok

    def graded(self, c):
        """This report judged against window length c."""
        return replace(self, window=c)


def _hits(x, x_next, lam, tx, tol):
    """Per row: is x_next within tol of x + lam (tx - x), for tx the
    operator applied at x?"""
    return row_distances(x_next, relaxed_update(x, lam, tx)) <= tol


def follows_reports(trace, ops, relaxed=True, tol=1e-9):
    """The follows report of each operator, labelled 1..m in order and
    graded against no window: the steps q where x_{q+1} is the recorded
    update of x_q under that operator.

    Relaxed mode replays the recorded relaxation; strict mode admits only
    unit steps.  min_c is the smallest window length such that every window
    of that many consecutive steps contains a witness.

    Every step is checked, and a mask keeps the eligible ones.  The
    witnesses are those of applying each operator at each step, bit for
    bit.  ``cfp.ResidualBank.holds`` marks the (operator, step) pairs where
    the operator returns x itself: there the target x + lam (x - x) is the
    same for every operator, so one distance per step, ``held``, decides
    them all.  The other pairs are applied with ``apply_many``, on every
    row at once when they are most of the rows.  A cycled trace is checked
    once per stored step, and its hits are read at each step of the run
    through ``Trace.rows``, so the witnesses are steps of the whole run.
    """
    ops = list(ops)
    steps = slice(None) if trace.cycle is None else trace.rows()[:-1]
    criterion = "relaxed" if relaxed else "strict"
    lam = trace.relaxations
    # a zero step is consistent with every operator; no evidence
    eligible = lam != 0.0 if relaxed else lam == 1.0
    x, x_next = trace.iterates[:-1], trace.iterates[1:]
    held = _hits(x, x_next, lam, x, tol)
    reports = []
    for label, (op, holds) in enumerate(zip(ops, ResidualBank(ops).holds(x)), start=1):
        rows = np.flatnonzero(~holds)
        # most rows left: one pass over views beats gathered copies
        if 2 * rows.size > len(x):
            hit = _hits(x, x_next, lam, op.apply_many(x), tol)
        else:
            hit = held.copy()
            if rows.size:
                xr = x[rows]
                hit[rows] = _hits(xr, x_next[rows], lam[rows], op.apply_many(xr), tol)
        hit = (hit & eligible)[steps]
        hits = np.flatnonzero(hit)
        min_c = window_cover(hit.tobytes()) if hits.size else None
        reports.append(FollowsReport(label, criterion, None, min_c, hits))
    return reports


def follows_check(trace, op, relaxed=True, c=None, tol=1e-9, label=None):
    """The follows report of one operator (see follows_reports), under the
    given label and judged against window length c."""
    rep = follows_reports(trace, [op], relaxed, tol)[0]
    return replace(rep, operator=label, window=c)


# ---------------------------------------------------------------------------
# accumulation points


def _cluster_tail(tail, eps):
    """Greedy assignment of each point to the first representative within
    eps, where each point no earlier representative covers opens a new one.
    Representative k is the first point left after k rounds, so every point
    left lies after it and the rounds reproduce the sequential greedy pass."""
    assignments = np.full(len(tail), -1)
    k = 0
    while (left := np.flatnonzero(assignments < 0)).size:
        assignments[left[row_distances(tail[left], tail[left[0]]) <= eps]] = k
        k += 1
    return assignments


def accumulation_points(source, eps=DEFAULT_LADDER[0], n0=None):
    """Cluster representatives the tail keeps returning to.

    A cluster qualifies when the tail visits it in three or more separate
    stretches, or when the trace settles there (the final stretch covers
    at least half the tail).  A converged solver trace short-circuits to
    its final point.  eps is a radius of the ladder (see _checked_ladder).
    """
    (eps,) = _checked_ladder((eps,))
    if isinstance(source, Trace) and source.converged:
        return [source.final.copy()]
    pts = _points(source)
    n0 = _tail_start(len(pts), n0)
    tail = pts[n0:]
    assignments = _cluster_tail(tail, eps)
    threshold = min(len(tail), max(2, math.ceil(len(tail) / 2)))
    out = []
    for k in range(assignments.max() + 1):
        members = assignments == k
        runs = _runs(members)[1]
        settled = assignments[-1] == k and runs[-1] >= threshold
        if len(runs) >= 3 or settled:
            out.append(tail[np.flatnonzero(members)[-1]].copy())
    return out


# ---------------------------------------------------------------------------
# recurring-run multiplicity estimates


def _runs(flags):
    """Start indices and lengths of the maximal runs of true flags, in order."""
    padded = np.concatenate(([0], np.asarray(flags, dtype=np.int8), [0]))
    edges = np.flatnonzero(np.diff(padded))  # run starts and ends, alternating
    return edges[::2], edges[1::2] - edges[::2]


def _recurring_run(flags):
    """Longest run length observed at least twice (0 when none recurs)."""
    runs = np.sort(_runs(flags)[1])
    return int(runs[-2]) if len(runs) >= 2 else 0


def _cauchy_tail(pts, n0, radius):
    """The second half of the tail stays within radius of the final point."""
    tail = pts[n0:]
    second = tail[len(tail) // 2 :]
    return len(second) >= 2 and bool((row_distances(second, pts[-1]) <= radius).all())


@dataclass(frozen=True)
class CandidateEstimate:
    point: np.ndarray
    per_eps: tuple  # rows {"eps", "run", "estimate"}
    estimate: ExtNat
    certified_limit: bool = False


@dataclass(frozen=True)
class LimitEstimate:
    candidates: tuple
    ladder: tuple
    n0: int
    convergent: bool
    classical_limit: object  # final point when convergent, else None


def cogap_limit_estimate(source, ladder=DEFAULT_LADDER, n0=None, tol=DEFAULT_TOL):
    """Estimates, per accumulation point, the recurring-run statistic of
    the index sets {n : x_n near the point} down the epsilon ladder.

    Candidates are the accumulation points at the coarsest radius.  The
    reported multiplicity is the minimum over the ladder, a lower bound.  A
    converged solver trace, or a tail whose second half stays within tol of
    the final point, counts as convergent and reports infinity at that
    point; a tail that drifts farther is not taken for a limit.
    """
    ladder = _checked_ladder(ladder)
    tol = _real(tol, lambda t: 0 <= t < math.inf, "the residual tolerance must be finite and >= 0")
    pts = _points(source)
    n0 = _tail_start(len(pts), n0)
    converged = isinstance(source, Trace) and source.converged
    convergent = converged or _cauchy_tail(pts, n0, tol)

    if convergent:
        final = pts[-1]
        rows = tuple({"eps": e, "run": None, "estimate": INF} for e in ladder)
        cand = CandidateEstimate(final.copy(), rows, INF, certified_limit=True)
        return LimitEstimate((cand,), ladder, n0, True, final.copy())

    tail = pts[n0:]
    candidates = []
    for y in accumulation_points(pts, ladder[0], n0):
        dist = row_distances(tail, y)
        rows = []
        best = None
        for e in ladder:
            raw = _recurring_run(dist <= e)
            best = raw if best is None else min(best, raw)
            rows.append({"eps": e, "run": raw, "estimate": ExtNat(best)})
        candidates.append(CandidateEstimate(y, tuple(rows), ExtNat(best)))
    return LimitEstimate(tuple(candidates), ladder, n0, False, None)


def _real(value, ok, message):
    """value as a float when ``cfp._number`` reads it as a number (not a
    string or a boolean) and ok holds for it; else a ValueError naming it."""
    try:
        if ok(x := _number(value, message)):
            return x
    except ValueError:  # no number, NaN included
        pass
    raise ValueError(f"{message}, got {value!r}")


def _checked_ladder(ladder):
    ladder = tuple(_real(e, lambda e: 0 < e < math.inf,
                         "the epsilon ladder needs positive finite radii") for e in ladder)
    if not ladder:
        raise ValueError("the epsilon ladder is empty")
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError("the epsilon ladder must decrease strictly")
    return ladder


# ---------------------------------------------------------------------------
# certification


@dataclass(frozen=True, eq=False)  # estimate and follows hold arrays
class Certification:
    status: str  # "certified" | "inconclusive" | "violation"
    entries: tuple  # {"candidate": index into estimate.candidates, "operator", "residual", "ok"}
    estimate: LimitEstimate  # the run's one limit estimate
    follows: tuple

    @property
    def candidates(self):
        """The candidate points, in the order the entries index them."""
        return tuple(c.point for c in self.estimate.candidates)

    def __bool__(self):
        return self.status == "certified"


def certify_fixed_points(trace, ops, ladder=DEFAULT_LADDER, n0=None, tol=DEFAULT_TOL,
                         relaxed=True):
    """Checks the candidates of the run's limit estimate against the
    operators the trace demonstrably follows.

    The estimate is cogap_limit_estimate's, on the same ladder, tail and
    tol, and is returned with the verdict.  A pair (candidate, operator) is
    asserted only when the candidate's estimate down the whole ladder
    reaches min_c + 1, i.e. the candidate is a level-family accumulation
    point for the window the operator was certified at; a residual above
    tol then flags a genuine implementation violation, while absence of
    asserted pairs is merely inconclusive.  An unconverged tail stands in
    for a limit only when it stays within tol of its final point: a slow
    run is not a faulty operator.  A converged run counts as converged only
    when its final point's maximum residual is also within tol, which may
    be tighter than the tol it stopped at.  A cycled trace is judged on the
    run that ``Trace.rows`` reads from its stored steps."""
    source = trace
    if trace.converged and not ResidualBank(ops).max_residual(trace.final) <= tol:
        source = _points(trace)  # judged as an unconverged tail
    est = cogap_limit_estimate(source, ladder, n0, tol)
    follows = tuple(follows_reports(trace, ops, relaxed=relaxed))
    followed = [(rep.operator, rep.min_c) for rep in follows if rep.min_c is not None]
    entries = []
    for k, cand in enumerate(est.candidates):
        for label, min_c in followed:
            if not cand.estimate >= min_c + 1:
                continue
            residual = ops[label - 1].fix_residual(cand.point)
            ok = residual <= tol
            entries.append({"candidate": k, "operator": label, "residual": residual, "ok": ok})
    if not entries:
        return Certification("inconclusive", (), est, follows)
    status = "certified" if all(e["ok"] for e in entries) else "violation"
    return Certification(status, tuple(entries), est, follows)


# ---------------------------------------------------------------------------
# JSON


def follows_report_json(rep):
    """The report, with its witness steps as [start, length] runs."""
    starts, lengths = _runs(np.bincount(rep.witnesses))
    return {
        "operator": rep.operator,
        "criterion": rep.criterion,
        "window": rep.window,
        "min_c": rep.min_c,
        "ok": rep.ok,
        "steps": np.column_stack((starts, lengths)).tolist(),
    }


def _plain(obj):
    """obj as JSON values: a dataclass as its fields, an ExtNat as its
    to_json(), an array as a list, and tuples, lists and dicts item by item."""
    if is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in fields(obj)}
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()}
    if isinstance(obj, (tuple, list)):
        return [_plain(item) for item in obj]
    if isinstance(obj, ExtNat):
        return obj.to_json()
    return obj.tolist() if isinstance(obj, np.ndarray) else obj


def limit_estimate_json(est):
    return _plain(est)


def certification_json(cert):
    """The verdict and its entries, which index the estimate's candidates."""
    return {"status": cert.status, "entries": list(cert.entries)}
