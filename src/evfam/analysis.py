"""Trace analysis: the follows-property, accumulation points, recurring-run
multiplicity estimates, and fixed-point certification.

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

from .cfp import Trace
from .intseq import ExtNat, INF, window_cover

#: neighborhood radii tried from coarse to fine, at unit data scale
DEFAULT_LADDER = (1e-1, 1e-2, 1e-3, 1e-4)


def _points(source):
    """Iterate matrix (N, J) from a Trace, an array, or a list of scalars."""
    if isinstance(source, Trace):
        source = source.iterates
    rows = [np.atleast_1d(np.asarray(p, dtype=float)) for p in source]
    if not rows:
        raise ValueError("need at least one point")
    return np.vstack(rows)


def _tail_start(n_points, n0):
    if n0 is None:
        return n_points // 2
    n0 = int(n0)
    if not 0 <= n0 < n_points:
        raise ValueError("the tail start must precede the trace end")
    return n0


# ---------------------------------------------------------------------------
# the follows-property


@dataclass(frozen=True)
class FollowsReport:
    operator: object  # 1-based label when known
    criterion: str  # "relaxed" | "strict"
    window: object  # requested window length, or None
    min_c: object  # smallest certified window length, or None
    ok: bool
    witnesses: tuple  # (q, q+1) iterate index pairs

    def __bool__(self):
        return self.ok

    def graded(self, c):
        """This report judged against window length c (None: any window
        passes once a witness exists)."""
        ok = self.min_c is not None and (c is None or self.min_c <= c)
        return replace(self, window=c, ok=ok)


def follows_check(trace, op, relaxed=True, c=None, tol=1e-9, label=None):
    """Reports the adjacent-witness criterion: steps q where x_{q+1} is the
    recorded update of x_q under this operator.

    Relaxed mode replays the recorded relaxation; strict mode admits only
    unit steps.  min_c is the smallest window length such that every window
    of that many consecutive steps contains a witness.
    """
    criterion = "relaxed" if relaxed else "strict"
    witnesses = []
    for q in range(trace.n_steps):
        lam = trace.relaxations[q]
        if not relaxed and lam != 1.0:
            continue
        if lam == 0.0:
            # a zero step is consistent with every operator; no evidence
            continue
        x = trace.iterates[q]
        target = x + lam * (op.apply(x) - x)
        if float(np.linalg.norm(trace.iterates[q + 1] - target)) <= tol:
            witnesses.append((q, q + 1))
    min_c = window_cover([q for q, _ in witnesses], trace.n_steps) if witnesses else None
    return FollowsReport(label, criterion, None, min_c, False, tuple(witnesses)).graded(c)


# ---------------------------------------------------------------------------
# accumulation points


def _cluster_tail(tail, eps):
    """Greedy assignment to the first representative within eps."""
    reps = []
    assignments = []
    for p in tail:
        for k, rep in enumerate(reps):
            if float(np.linalg.norm(p - rep)) <= eps:
                assignments.append(k)
                break
        else:
            reps.append(p)
            assignments.append(len(reps) - 1)
    return reps, assignments


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
    reps, assignments = _cluster_tail(tail, eps)
    threshold = min(len(tail), max(2, math.ceil(len(tail) / 2)))
    out = []
    for k in range(len(reps)):
        runs = _run_lengths([a == k for a in assignments])
        holds_final = assignments[-1] == k
        settled = holds_final and runs[-1] >= threshold
        if len(runs) >= 3 or settled:
            last = max(i for i, a in enumerate(assignments) if a == k)
            out.append(tail[last].copy())
    return out


# ---------------------------------------------------------------------------
# recurring-run multiplicity estimates


def _run_lengths(flags):
    runs = []
    count = 0
    for f in flags:
        if f:
            count += 1
        elif count:
            runs.append(count)
            count = 0
    if count:
        runs.append(count)
    return runs


def _recurring_run(flags):
    """Longest run length observed at least twice (0 when none recurs)."""
    runs = sorted(_run_lengths(flags), reverse=True)
    return runs[1] if len(runs) >= 2 else 0


def _cauchy_tail(pts, n0, radius):
    """The second half of the tail stays within radius of the final point."""
    tail = pts[n0:]
    second = tail[len(tail) // 2 :]
    if len(second) < 2:
        return False
    final = pts[-1]
    return all(float(np.linalg.norm(p - final)) <= radius for p in second)


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
        rows = []
        best = None
        for e in ladder:
            flags = [float(np.linalg.norm(p - y)) <= e for p in tail]
            raw = _recurring_run(flags)
            best = raw if best is None else min(best, raw)
            rows.append({"eps": e, "run": raw, "estimate": ExtNat(best)})
        candidates.append(CandidateEstimate(y, tuple(rows), ExtNat(best)))
    return LimitEstimate(tuple(candidates), ladder, n0, False, None)


# ---------------------------------------------------------------------------
# certification


@dataclass(frozen=True)
class Certification:
    status: str  # "certified" | "inconclusive" | "violation"
    entries: tuple  # {"candidate", "operator", "residual", "ok"}
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
    follows = tuple(
        follows_check(trace, op, relaxed=relaxed, label=i + 1)
        for i, op in enumerate(ops)
    )
    followed = [(rep.operator, rep.min_c) for rep in follows if rep.min_c is not None]
    candidates = tuple(c.point for c in est.candidates)
    entries = []
    ok_all = True
    for cand in est.candidates:
        for label, min_c in followed:
            if not cand.estimate >= min_c + 1:
                continue
            op = ops[label - 1]
            residual = op.fix_residual(cand.point)
            ok = residual <= tol
            ok_all = ok_all and ok
            entries.append(
                {"candidate": cand.point, "operator": label, "residual": residual, "ok": ok}
            )
    if not entries:
        return Certification("inconclusive", (), candidates, follows)
    status = "certified" if ok_all else "violation"
    return Certification(status, tuple(entries), candidates, follows)


# ---------------------------------------------------------------------------
# JSON


def follows_report_json(rep):
    return {
        "operator": rep.operator,
        "criterion": rep.criterion,
        "window": rep.window,
        "min_c": rep.min_c,
        "ok": rep.ok,
        "witnesses": [list(w) for w in rep.witnesses],
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
    return {
        "status": cert.status,
        "entries": [
            {
                "candidate": list(map(float, e["candidate"])),
                "operator": e["operator"],
                "residual": e["residual"],
                "ok": e["ok"],
            }
            for e in cert.entries
        ],
        "candidates": [list(map(float, y)) for y in cert.candidates],
        "follows": [follows_report_json(r) for r in cert.follows],
    }
