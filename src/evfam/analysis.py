"""Trace analysis: the follows-property, accumulation points, recurring-run
multiplicity estimates, and fixed-point certification.

A follows report holds its witness steps q (x_{q+1} is the recorded update
of x_q) as an EPSet, bit q for step q, and the run's N.  JSON writes the
evidence for its grade, read off that set (``_evidence``): the witness
count, the first and last witness, and the longest stretch without one.
A limit estimate and its candidates are written as their fields (``_plain``).

A finite trace cannot witness a lim sup, so run statistics are reported as
lower bounds; the per-epsilon estimates are clamped to be non-increasing
down the ladder (nested neighborhoods cannot honestly raise the bound).
Convergence certificates (a converged solver flag, or a tail whose second
half stays within the residual tolerance of the final point) short circuit
to multiplicity infinity at the final point.  A run has one limit estimate:
certification asserts its pairs on the candidates and estimates that the
report's ``estimate`` shows.

A cycled trace (see ``cfp.Trace``) is never expanded to its N steps: the
index sets read off it, its witness steps and {n : x_n near p}, are EPSets
of its stored prefix and cycle, which intseq decides exactly.
Radii and tolerances are read by ``cfp._number``'s rule, not cast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from .cfp import ResidualBank, Trace, _integer, _number, relaxed_update, row_distances
from .intseq import EPSet, ExtNat, INF, _word, cogap, window_cover

#: neighborhood radii tried from coarse to fine, at unit data scale
DEFAULT_LADDER = (1e-1, 1e-2, 1e-3, 1e-4)
#: fixed-point residual tolerance, also the convergence radius of a tail
DEFAULT_TOL = 1e-6


def _points(source):
    """Iterate matrix (N, J) from a Trace (its stored points: x_0..x_N when
    uncycled), a float (N, J) array as is, or a list of points or scalars.
    Every point must be finite."""
    if isinstance(source, Trace):
        pts = source.iterates
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


def _index_set(flags, trace):
    """The EPSet whose bit n is flag n of the trace's stored steps (or
    points), repeated from the cycle start s on when cycled."""
    word = flags.tobytes()
    s = len(word) if trace.cycle is None else trace.cycle[0]
    return EPSet._of(word[:s], word[s:])


def _tail_start(n_points, n0):
    if n0 is None:
        return n_points // 2
    n0 = _integer(n0, "the tail start")
    if not 0 <= n0 < n_points:
        raise ValueError(f"the tail start must lie in 0..{n_points - 1}, got {n0}")
    return n0


# ---------------------------------------------------------------------------
# the follows-property


@dataclass(frozen=True)
class FollowsReport:
    operator: object  # 1-based label when known
    criterion: str  # "relaxed" | "strict"
    window: object  # requested window length, or None
    hits: EPSet  # the witness steps q, bit q, each meaning x_{q+1} follows x_q
    n_steps: int  # the run's N: only the steps q < N count
    # (witness count, first, last, (start, length) of the first longest run
    # of steps without one): _evidence's, read once and kept by replace
    evidence: tuple = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.evidence is None:
            object.__setattr__(self, "evidence", _evidence(self.hits, self.n_steps))

    @property
    def witnesses(self):
        """The witness steps as a sorted int array, one entry per witness."""
        return np.flatnonzero(np.frombuffer(_word(self.hits, self.n_steps), np.uint8))

    @property
    def min_c(self):
        """The smallest window length such that every window of that many
        consecutive steps holds a witness, the run's ends included: one more
        than the longest gap (None without a witness)."""
        count, _, _, (_, length) = self.evidence
        return length + 1 if count else None

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


def _longest_gap(word):
    """Start and length of the first longest run of 0 bytes of the 0/1
    byte string ``word``: the whole word when it holds no 1, so (0, 0) for
    an empty word.  The length is window_cover's, less one, and the run is
    where ``bytes.find`` first meets that many 0 bytes: no run is longer,
    so none starts before it.
    """
    length = window_cover(word) - 1 if 1 in word else len(word)
    return word.find(bytes(length)), length


def _evidence(hits, n):
    """FollowsReport.evidence of steps 0..n-1 of the EPSet ``hits``, bit q
    step q, for any int n, from at most len(prefix) + 3 len(period) bits: a
    period past the first two repeats the zero runs of the one before it,
    later, so the cut word has the first longest run before the last witness."""
    pre, per = hits.prefix, hits.period
    extra = max((n - len(pre)) // len(per) - 2, 0) if per else 0
    word = _word(hits, n - extra * len(per)) if per else pre[:n]
    count = word.count(1) + extra * per.count(1)
    if not count:
        return 0, None, None, (0, n)
    cut = word.rfind(1)
    last = cut + extra * len(per)
    gap = _longest_gap(word[:cut])
    if n - last - 1 > gap[1]:
        gap = last + 1, n - last - 1
    return count, word.find(1), last, gap


def follows_reports(trace, ops, relaxed=True, tol=1e-9):
    """The follows report of each operator, labelled 1..m in order and
    graded against no window: the steps q where x_{q+1} is the recorded
    update of x_q under that operator.

    Relaxed mode replays the recorded relaxation; strict mode admits only
    unit steps.  min_c is the smallest window length such that every window
    of that many consecutive steps contains a witness: one more than the
    report's longest gap, read off its witness set (see _evidence).

    Every step is checked, and a mask keeps the eligible ones.  The
    witnesses are those of applying each operator at each step, bit for
    bit.  ``cfp.ResidualBank.holds`` marks the (operator, step) pairs where
    the operator returns x itself: there the target x + lam (x - x) is the
    same for every operator, so one distance per step, ``held``, decides
    them all.  The other pairs are applied with ``apply_many``, on every
    row at once when they are most of the rows.  Each stored step is
    checked once: a cycled trace's witness set repeats its cycle's hits.
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
        reports.append(FollowsReport(label, criterion, None, _index_set(hit & eligible, trace),
                                     trace.n_steps))
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
    A cycled trace's are the distinct rows of its cycle, whatever eps and n0.
    """
    (eps,) = _checked_ladder((eps,))
    if isinstance(source, Trace) and source.converged:
        return [source.final.copy()]
    pts = _points(source)
    if isinstance(source, Trace) and source.cycle is not None:
        _tail_start(source.n_steps + 1, n0)
        rows = {}  # bit for bit, in cycle order from row s
        for x in pts[source.cycle[0]:-1]:
            rows.setdefault(x.tobytes(), x.copy())
        return list(rows.values())
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

    A cycled trace is read exactly, and n0 moves no number.  It is
    convergent when converged or when its whole cycle lies within tol of
    x_N.  Else its candidates p are the distinct cycle rows, a ladder row's
    run is cogap({n : |x_n - p| <= eps}), and p's estimate is the limit of
    those runs as eps goes to 0, cogap({n : x_n = p}): finite, however tight
    the cycle, since a cycle that is not convergent leaves p.
    """
    ladder = _checked_ladder(ladder)
    tol = _real(tol, lambda t: 0 <= t < math.inf, "the residual tolerance must be finite and >= 0")
    pts = _points(source)
    converged = isinstance(source, Trace) and source.converged
    cycled = isinstance(source, Trace) and source.cycle is not None
    n0 = _tail_start(source.n_steps + 1 if cycled else len(pts), n0)
    final = source.final if cycled else pts[-1]
    # the second half of the tail; a cycled run's is its cycle
    tail = pts[source.cycle[0]:] if cycled else pts[n0:][(len(pts) - n0) // 2:]
    convergent = converged or len(tail) >= 2 and bool((row_distances(tail, final) <= tol).all())

    if convergent:
        rows = tuple({"eps": e, "run": None, "estimate": INF} for e in ladder)
        cand = CandidateEstimate(final.copy(), rows, INF, certified_limit=True)
        return LimitEstimate((cand,), ladder, n0, True, final.copy())

    candidates = []
    for y in accumulation_points(source if cycled else pts, ladder[0], n0):
        dist = row_distances(pts[:-1] if cycled else pts[n0:], y)
        if cycled:  # the runs at each radius, and at radius 0
            runs = [cogap(_index_set(dist <= e, source)) for e in (*ladder, 0.0)]
        else:
            runs = [_recurring_run(dist <= e) for e in ladder]
        rows, best = [], None
        for e, run in zip(ladder, runs):
            best = run if best is None else min(best, run)
            rows.append({"eps": e, "run": run, "estimate": ExtNat.of(best)})
        candidates.append(CandidateEstimate(y, tuple(rows), runs[-1] if cycled else ExtNat(best)))
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


@dataclass(frozen=True, eq=False)  # the estimate holds arrays
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
    be tighter than the tol it stopped at.  A cycled trace is judged from
    its stored steps alone, exactly: a pair needs x_n = p at min_c + 1
    consecutive n in every lap."""
    source = trace
    if trace.converged and not ResidualBank(ops).max_residual(trace.final) <= tol:
        source = replace(trace, stop_reason="")  # judged as an unconverged run
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
    """The report's grade and the evidence it rests on, in a fixed size: the
    witness count, the first and last witness step (null without one), and
    the longest witness-free stretch [start, length] over the run's steps,
    whose length + 1 is min_c when a witness exists.  The witness steps
    themselves are the report's ``witnesses``."""
    count, first, last, gap = rep.evidence
    return {"operator": rep.operator, "criterion": rep.criterion, "window": rep.window,
            "min_c": rep.min_c, "ok": rep.ok, "witnesses": count, "first": first,
            "last": last, "longest_gap": list(gap)}


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
