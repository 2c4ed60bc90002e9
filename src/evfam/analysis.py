"""Trace analysis: the follows-property, accumulation points, recurring-run
multiplicity estimates, and fixed-point certification.

A follows report holds its witness steps q (x_{q+1} is the recorded update
of x_q) as a sorted int array; JSON writes them as [start, length] runs.

A finite trace cannot witness a lim sup, so run statistics are reported as
lower bounds; the per-epsilon estimates are clamped to be non-increasing
down the ladder (nested neighborhoods cannot honestly raise the bound).
Convergence certificates (a converged solver flag, or a Cauchy tail) short
circuit to multiplicity infinity at the final point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cfp import ResidualBank, Trace, _integer, relaxed_update, row_distances
from .intseq import ExtNat, INF, window_cover

#: neighborhood radii tried from coarse to fine, at unit data scale
DEFAULT_LADDER = (1e-1, 1e-2, 1e-3, 1e-4)


def _points(source):
    """Iterate matrix (N, J) from a Trace, an array, or a list of scalars."""
    if isinstance(source, Trace):
        return source.iterates
    rows = [np.atleast_1d(np.asarray(p, dtype=float)) for p in source]
    if not rows:
        raise ValueError("need at least one point")
    return np.vstack(rows)


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
    row at once when they are most of the rows.
    """
    ops = list(ops)
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
        hit &= eligible
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
    its final point.
    """
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
        runs = _run_lengths(members)
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


def _run_lengths(flags):
    """Lengths of the maximal runs of true flags, in order."""
    return _runs(flags)[1].tolist()


def _recurring_run(flags):
    """Longest run length observed at least twice (0 when none recurs)."""
    runs = sorted(_run_lengths(flags), reverse=True)
    return runs[1] if len(runs) >= 2 else 0


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


def cogap_limit_estimate(source, ladder=DEFAULT_LADDER, n0=None):
    """Estimates, per accumulation point, the recurring-run statistic of
    the index sets {n : x_n near the point} down the epsilon ladder.

    The reported multiplicity is the minimum over the ladder, a lower
    bound; certified-convergent inputs report infinity at the limit.  A
    tail within half the finest radius of the final point counts as
    convergent.
    """
    ladder = _checked_ladder(ladder)
    return _limit_estimate(source, ladder, n0, min(ladder) / 2)


def _checked_ladder(ladder):
    ladder = tuple(float(e) for e in ladder)
    if not ladder:
        raise ValueError("the epsilon ladder is empty")
    if not all(0 < e < math.inf for e in ladder):
        raise ValueError("the epsilon ladder needs positive finite radii")
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError("the epsilon ladder must decrease strictly")
    return ladder


def _limit_estimate(source, ladder, n0, cauchy_radius):
    """cogap_limit_estimate on a checked ladder, taking a tail within
    cauchy_radius of the final point as convergent."""
    pts = _points(source)
    n0 = _tail_start(len(pts), n0)
    converged = isinstance(source, Trace) and source.converged
    convergent = converged or _cauchy_tail(pts, n0, cauchy_radius)

    if convergent:
        final = pts[-1]
        rows = tuple({"eps": e, "run": None, "estimate": INF} for e in ladder)
        cand = CandidateEstimate(final.copy(), rows, INF, certified_limit=True)
        return LimitEstimate((cand,), ladder, n0, True, final.copy())

    tail = pts[n0:]
    candidates = []
    for y in accumulation_points(source, ladder[0], n0):
        dist = row_distances(tail, y)
        rows = []
        best = None
        for e in ladder:
            raw = _recurring_run(dist <= e)
            best = raw if best is None else min(best, raw)
            rows.append({"eps": e, "run": raw, "estimate": ExtNat(best)})
        candidates.append(CandidateEstimate(y, tuple(rows), ExtNat(best)))
    return LimitEstimate(tuple(candidates), ladder, n0, False, None)


# ---------------------------------------------------------------------------
# certification


@dataclass(frozen=True, eq=False)  # candidates and follows hold arrays
class Certification:
    status: str  # "certified" | "inconclusive" | "violation"
    entries: tuple  # {"candidate": index into candidates, "operator", "residual", "ok"}
    candidates: tuple
    follows: tuple

    def __bool__(self):
        return self.status == "certified"


def certify_fixed_points(trace, ops, eps=DEFAULT_LADDER[0], n0=None, tol=1e-6, relaxed=True):
    """Checks accumulation-point candidates against the operators the trace
    demonstrably follows.

    A pair (candidate, operator) is asserted only when the candidate's
    recurring-run estimate reaches min_c + 1, i.e. the candidate is a
    level-family accumulation point for the window the operator was
    certified at; a residual above tolerance then flags a genuine
    implementation violation, while absence of covered pairs is merely
    inconclusive.  An unconverged tail stands in for a limit only when it
    stays within tol of its final point: a slow run is not a faulty
    operator."""
    if not 0 <= tol < math.inf:
        raise ValueError("the residual tolerance must be finite and >= 0")
    est = _limit_estimate(trace, _checked_ladder((eps,)), n0, tol)
    follows = tuple(follows_reports(trace, ops, relaxed=relaxed))
    followed = [(rep.operator, rep.min_c) for rep in follows if rep.min_c is not None]
    candidates = tuple(c.point for c in est.candidates)
    entries = []
    for k, cand in enumerate(est.candidates):
        for label, min_c in followed:
            if not cand.estimate >= min_c + 1:
                continue
            residual = ops[label - 1].fix_residual(cand.point)
            ok = residual <= tol
            entries.append({"candidate": k, "operator": label, "residual": residual, "ok": ok})
    if not entries:
        return Certification("inconclusive", (), candidates, follows)
    status = "certified" if all(e["ok"] for e in entries) else "violation"
    return Certification(status, tuple(entries), candidates, follows)


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


def limit_estimate_json(est):
    return {
        "ladder": list(est.ladder),
        "n0": est.n0,
        "convergent": est.convergent,
        "classical_limit": (
            None if est.classical_limit is None else list(map(float, est.classical_limit))
        ),
        "candidates": [
            {
                "point": list(map(float, c.point)),
                "estimate": c.estimate.to_json(),
                "certified_limit": c.certified_limit,
                "per_eps": [
                    {
                        "eps": row["eps"],
                        "run": row["run"],
                        "estimate": row["estimate"].to_json(),
                    }
                    for row in c.per_eps
                ],
            }
            for c in est.candidates
        ],
    }


def certification_json(cert):
    """The verdict and its entries, which index the candidates."""
    return {
        "status": cert.status,
        "entries": list(cert.entries),
        "candidates": [list(map(float, y)) for y in cert.candidates],
    }
