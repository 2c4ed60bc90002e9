"""Executable property suites behind the ``check`` command.

Each suite re-runs its module's structural laws on freshly sampled inputs:
the point is a fast, seedable smoke screen against regressions, not a proof.
A sampled law is a generator named after its check: called once per case,
it draws the case from its suite's random source and yields a note for
each way the case fails.  ``_sample`` runs the laws one after another,
``budget`` cases each, so the seed fixes every draw.  Only the exhaustive
scan keeps its own loop.  Budget counts sampled cases per check, and the
solver laws run on max(1, budget // 25) instances; a budget of zero
short-circuits every suite to a vacuous pass so pipelines can disable the
sampling cheaply.

On failure a check keeps scanning and reports the failure count and the
shortest note, ties broken by text.  A note names its input by values and
deterministic reprs, never by object addresses or hash order, so the same
seed and budget print the same FAIL line in any process.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import analysis, cfp
from .families import (
    CofiniteFamily,
    CoGapLevelFamily,
    IndicatorFamily,
    InfiniteFamily,
    closure_family,
    limit_set,
    powerset,
    push,
    random_topology,
    star,
)
from .intseq import (
    EPSet,
    INF,
    ExtNat,
    cogap,
    complement,
    finitely_change,
    gap,
    intersection,
    random_epset,
    union,
)
from .multisets import (
    CoGapMultifamily,
    ComplementMultifamily,
    ExplicitMultifamily,
    GapMultifamily,
    IndicatorMultifamily,
    level_family,
    mf_closure,
    mstar,
    multiset_limit,
)
from .setlimits import SetSequence, classical_limits, e_limit, verify_limit_theorem

DEFAULT_BUDGET = 500


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    cases: int
    note: str = ""

    def line(self):
        mark = "ok  " if self.passed else "FAIL"
        tail = f"  [{self.note}]" if self.note else ""
        return f"{mark} {self.name}: {self.cases} cases{tail}"


def _result(name, cases, failures):
    if not failures:
        return CheckResult(name, True, cases)
    witness = min(failures, key=lambda w: (len(w), w))
    return CheckResult(name, False, cases, f"{len(failures)} failed, e.g. {witness}")


def _sample(suite, budget, *laws):
    """Runs each law on the cases k = 0..budget-1, law after law, as the
    check ``suite.law-name``.  ``law(k)`` draws case k from the suite's
    generators and yields a note for each way it fails."""
    return [
        _result(f"{suite}.{law.__name__.replace('_', '-')}", budget,
                [note for k in range(budget) for note in law(k)])
        for law in laws
    ]


def _member_gaps(s, horizon):
    """The gaps between consecutive members of ``s`` in (prefix, horizon],
    read off membership alone."""
    elems = [n for n in range(len(s.prefix) + 1, horizon + 1) if s.member(n)]
    return [b - a - 1 for a, b in zip(elems, elems[1:])]


def _brute_gap(s):
    # membership-only tail scan; horizon p + 4q always sees a full period
    if s.is_finite:
        return INF
    return ExtNat(max(_member_gaps(s, len(s.prefix) + 4 * len(s.period))))


# ---------------------------------------------------------------------------
# intseq


def check_intseq(seed, budget):
    rng = random.Random(seed)

    def gap_oracle(_):
        s = random_epset(rng)
        if gap(s) != _brute_gap(s):
            yield s.to_text()

    def cogap_duality(_):
        s = random_epset(rng)
        if cogap(s) != gap(complement(s)):
            yield s.to_text()

    def finite_insensitivity(_):
        s = random_epset(rng)
        edits = rng.sample(range(1, 40), rng.randrange(4))
        t = finitely_change(s, add=edits[::2], remove=edits[1::2])
        if gap(t) != gap(s) or cogap(t) != cogap(s):
            yield f"{s.to_text()} edits={edits}"

    def de_morgan(_):
        a, b = random_epset(rng), random_epset(rng)
        if complement(union(a, b)) != intersection(complement(a), complement(b)):
            yield f"{a.to_text()} | {b.to_text()}"

    return _sample("intseq", budget, gap_oracle, cogap_duality, finite_insensitivity, de_morgan)


# ---------------------------------------------------------------------------
# families


def _random_letters(rng, low, high):
    return tuple("abcd"[: rng.randrange(low, high + 1)])


def _random_indicator(ground, rng, p=0.5):
    return IndicatorFamily(ground, [s for s in powerset(ground) if rng.random() < p])


def _random_eventual(ground, rng):
    subsets = list(powerset(ground))
    seeds = [s for s in subsets if rng.random() < 0.3]
    return IndicatorFamily(
        ground, [s for s in subsets if any(seed <= s for seed in seeds)]
    )


def _triviality_scan():
    # exhaustive bilateral-family scan; budget only gates whether it runs
    scanned = 0
    hits = []
    for n in range(4):
        ground = tuple("abcd"[:n])
        subsets = list(powerset(ground))
        for mask in range(2 ** len(subsets)):
            members = [s for i, s in enumerate(subsets) if mask >> i & 1]
            fam = IndicatorFamily(ground, members)
            flags = fam.classify()
            scanned += 1
            if flags.eventual.value and flags.co_eventual.value:
                hits.append((n, len(members)))
    expected = 4 * 2  # empty and full family at each size
    failures = [] if len(hits) == expected else [f"bilateral count {len(hits)} != {expected}"]
    return _result("families.triviality-scan", scanned, failures)


def check_families(seed, budget):
    rng = random.Random(seed)

    def star_closure_limit(_):
        ground = _random_letters(rng, 2, 3)
        topo = random_topology(ground, rng)
        fam = _random_indicator(ground, rng)
        lim = limit_set(fam, topo)
        if star(closure_family(fam, topo)) != lim:
            yield f"{sorted(map(sorted, fam.sets))} on {topo!r}"
        elif not topo.is_closed(lim):
            yield f"open limit set {sorted(lim)} on {topo!r}"

    levels = [CoGapLevelFamily(c) for c in (1, 2, 5, INF)]
    H, G = CofiniteFamily(), InfiniteFamily()

    def level_sandwich(_):
        s = random_epset(rng)
        for fam in levels:
            if H.contains(s) and not fam.contains(s):
                yield f"H !=> level: {s.to_text()}"
            if fam.contains(s) and not G.contains(s):
                yield f"level !=> G: {s.to_text()}"

    def push_hereditarity(_):
        ground = _random_letters(rng, 2, 3)
        code = tuple("xyz"[: rng.randrange(1, 3)])
        f = {x: rng.choice(code) for x in ground}
        fam = _random_eventual(ground, rng)
        if not push(f, fam, codomain=code).classify().eventual.value:
            yield f"map {f} over {sorted(map(sorted, fam.sets))}"

    laws = (star_closure_limit, level_sandwich, push_hereditarity)
    return [_triviality_scan(), *_sample("families", budget, *laws)]


# ---------------------------------------------------------------------------
# multisets


def check_multisets(seed, budget):
    rng = random.Random(seed)

    def indicator_bridge(_):
        ground = _random_letters(rng, 1, 3)
        fam = _random_indicator(ground, rng)
        flags = fam.classify()
        mflags = IndicatorMultifamily(fam).classify()
        if flags.eventual.value != mflags.increasing.value:
            yield f"eventual/increasing split on {sorted(map(sorted, fam.sets))}"
        if flags.co_eventual.value != mflags.decreasing.value:
            yield f"co-eventual/decreasing split on {sorted(map(sorted, fam.sets))}"

    def gap_attainment(_):
        s = random_epset(rng)
        g = gap(s)
        horizon = len(s.prefix) + 6 * max(len(s.period), 1)
        if g.is_finite and _member_gaps(s, horizon).count(g.value) < 2:
            yield s.to_text()

    cogap_mf = CoGapMultifamily()

    def level_monotone(_):
        s = random_epset(rng)
        extra = [rng.randrange(1, 30) for _ in range(rng.randrange(3))]
        sup = finitely_change(union(s, random_epset(rng)), add=extra)
        for c in (1, 2, 3, INF):
            fam = level_family(cogap_mf, c)
            if fam.contains(s) and not fam.contains(union(s, sup)):
                yield f"c={c}: {s.to_text()}"

    def limit_star_closure(_):
        ground = _random_letters(rng, 1, 3)
        topo = random_topology(ground, rng)
        weights = {x: rng.randrange(4) for x in ground}
        table = {s: max((weights[x] for x in s), default=0) for s in powerset(ground)}
        mf = ExplicitMultifamily(ground, table)
        if multiset_limit(mf, topo) != mstar(mf_closure(mf, topo)):
            yield f"{weights} on {topo!r}"

    def complement_involution(_):
        s = random_epset(rng)
        for mf in (GapMultifamily(), CoGapMultifamily()):
            if ComplementMultifamily(ComplementMultifamily(mf)).value(s) != mf.value(s):
                yield f"{mf!r} at {s.to_text()}"

    return _sample("multisets", budget, indicator_bridge, gap_attainment, level_monotone,
                   limit_star_closure, complement_involution)


# ---------------------------------------------------------------------------
# setlimits


def _random_sequence(rng, convergent):
    ground = _random_letters(rng, 1, 3)
    subsets = list(powerset(ground))
    prefix = [rng.choice(subsets) for _ in range(rng.randrange(5))]
    if convergent:
        period = [rng.choice(subsets)]
    else:
        a = rng.choice(subsets)
        b = rng.choice([s for s in subsets if s != a])
        period = [a, b] + [rng.choice(subsets) for _ in range(rng.randrange(3))]
    return SetSequence.from_sets(ground, prefix, period)


def _brute_window_limits(seq):
    period = 1
    for tr in seq.traces.values():
        period = math.lcm(period, max(len(tr.period), 1))
    start = 1 + max((len(tr.prefix) for tr in seq.traces.values()), default=0)
    window = [seq.set_at(n) for n in range(start, start + 2 * period)]
    limsup = frozenset(x for x in seq.ground if any(x in s for s in window))
    liminf = frozenset(x for x in seq.ground if all(x in s for s in window))
    return limsup, liminf


def check_setlimits(seed, budget):
    rng = random.Random(seed)

    def classical_oracle(_):
        seq = _random_sequence(rng, convergent=bool(rng.randrange(2)))
        cls = classical_limits(seq)
        if (cls.limsup, cls.liminf) != _brute_window_limits(seq):
            yield repr(seq)

    families = [InfiniteFamily(), CofiniteFamily()] + [CoGapLevelFamily(c) for c in (1, 2, 5)]

    def theorem_corpus(_):
        seq = _random_sequence(rng, convergent=True)
        for fam in families:
            verdict = verify_limit_theorem(seq, fam)
            if verdict.status != "verified":
                yield f"{verdict.status}/{fam!r} on {seq!r}"

    def sandwich(_):
        seq = _random_sequence(rng, convergent=False)
        cls = classical_limits(seq)
        for fam in families[2:]:
            if not (cls.liminf <= e_limit(fam, seq) <= cls.limsup):
                yield f"{fam!r} on {seq!r}"

    return _sample("setlimits", budget, classical_oracle, theorem_corpus, sandwich)


# ---------------------------------------------------------------------------
# cfp


def _random_operator(rng, dim=2):
    kind = rng.choice(["halfspace", "hyperplane", "ball", "box", "affine"])
    if kind == "ball":
        return cfp.Ball([rng.uniform(-2, 2) for _ in range(dim)], rng.uniform(0.5, 3))
    if kind == "box":
        lo = [rng.uniform(-3, 0) for _ in range(dim)]
        return cfp.Box(lo, [v + rng.uniform(0.1, 3) for v in lo])
    a = [rng.uniform(-2, 2) for _ in range(dim)]
    if all(abs(v) < 1e-3 for v in a):
        a[0] = 1.0
    b = rng.uniform(-2, 2)
    if kind == "affine":
        return cfp.AffineEquality([a], [b])
    return (cfp.Halfspace if kind == "halfspace" else cfp.Hyperplane)(a, b)


def _point(rng, dim=2):
    return np.array([rng.uniform(-5, 5) for _ in range(dim)])


def check_cfp(seed, budget):
    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)

    # projections are idempotent, so one application lands on Fix
    def cutter(_):
        op = _random_operator(rng)
        x = _point(rng)
        if not cfp.cutter_check(op, x, op.apply(_point(rng)), tol=1e-10):
            yield f"{op!r} at x={x.tolist()}"

    def firmly_nonexpansive(_):
        op = _random_operator(rng)
        x, y = _point(rng), _point(rng)
        if not cfp.fne_check(op, x, y, tol=1e-10):
            yield f"{op!r} at x={x.tolist()}, y={y.tolist()}"

    def relax_preserves_cutter(_):
        op = cfp.relax(_random_operator(rng), rng.uniform(0, 1))
        x = _point(rng)
        if not cfp.cutter_check(op, x, op.inner.apply(_point(rng)), tol=1e-10):
            yield f"{op!r} at x={x.tolist()}"

    def fejer_replay(k):
        ops, center = cfp.random_feasible_instance(3, 6, nprng)
        pattern = cfp.random_almost_cyclic_pattern(6, nprng)
        trace = cfp.acsa_run(
            ops,
            cfp.AlmostCyclicControl(pattern),
            cfp.ConstantRelaxation(1.0),
            nprng.uniform(-5, 5, size=3),
            cfp.StopRule(tol=1e-7, max_iter=20000),
        )
        if not trace.converged:
            yield f"instance {k}: {trace.stop_reason}"
        elif not cfp.fejer_slack(trace, center) <= 1e-10:
            yield f"instance {k}: fejer slack"
        elif not cfp.replay_trace(ops, trace) <= cfp.REPLAY_TOL:
            yield f"instance {k}: replay drift"

    laws = (cutter, firmly_nonexpansive, relax_preserves_cutter)
    return [*_sample("cfp", budget, *laws), *_sample("cfp", max(1, budget // 25), fejer_replay)]


# ---------------------------------------------------------------------------
# analysis


def check_analysis(seed, budget):
    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)

    def estimate_monotone(k):
        walk = np.cumsum(nprng.uniform(-1, 1, size=60))
        for cand in analysis.cogap_limit_estimate(list(walk)).candidates:
            values = [row["estimate"] for row in cand.per_eps]
            if any(a < b for a, b in zip(values, values[1:])):
                yield f"walk {k}"

    def instance():
        """The operator count of a random feasible instance, a run on it,
        and the run's certification (None when the run did not converge)."""
        ops, _ = cfp.random_feasible_instance(3, 6, nprng)
        x0 = nprng.uniform(-5, 5, size=3)
        residual = cfp.ResidualBank(ops)
        while residual.max_residual(x0) <= 1e-3:
            x0 = nprng.uniform(-30, 30, size=3)
        trace = cfp.acsa_run(
            ops,
            cfp.CyclicControl(len(ops)),
            cfp.ConstantRelaxation(1.0),
            x0,
            cfp.StopRule(tol=1e-6, max_iter=20000),
        )
        cert = analysis.certify_fixed_points(trace, ops, tol=1e-5) if trace.converged else None
        return len(ops), trace, cert

    out = _sample("analysis", budget, estimate_monotone)
    corpus = [instance() for _ in range(max(1, budget // 25))]

    def theorem1_consistency(k):
        _, trace, cert = corpus[k]
        if cert is None:
            yield f"instance {k}: {trace.stop_reason}"
        elif cert.status != "certified":
            yield f"instance {k}: {cert.status}"

    def follows_window(k):
        m, _, cert = corpus[k]
        for rep in cert.follows if cert else ():
            if rep.min_c is None or rep.min_c > m:
                yield f"instance {k} op {rep.operator}"

    # a certified window c promises: every stretch of c+1 consecutive
    # 1-based iterate indices inside the range contains an adjacent witness
    # pair; spot-check with EPSets built to carry such runs
    def level_soundness(k):
        _, trace, cert = corpus[k]
        rep = cert.follows[0] if cert else None
        if rep is None or rep.min_c is None:
            return
        c = rep.min_c
        # a run of members n = start+1 .. start+length holds the pair of
        # step q iff start <= q <= start + length - 2; the sentinel n_steps
        # lies past every such range
        steps = np.append(rep.witnesses, trace.n_steps)
        for _ in range(3):
            pre = tuple(rng.randrange(2) for _ in range(rng.randrange(6)))
            per = tuple(rng.randrange(2) for _ in range(rng.randrange(8)))
            s = EPSet(pre, per + (1,) * (c + 1))
            if cogap(s) < c + 1:
                yield f"instance {k}: corpus cogap below c+1"
                continue
            flags = [s.member(n) for n in range(1, trace.n_steps + 2)]
            starts, lengths = analysis._runs(flags)
            held = steps[np.searchsorted(steps, starts)] <= starts + lengths - 2
            for start in starts[(lengths >= c + 1) & ~held]:
                yield f"instance {k}: run at {start + 1}"

    laws = (theorem1_consistency, follows_window, level_soundness)
    return out + _sample("analysis", len(corpus), *laws)


# ---------------------------------------------------------------------------
# the registry


SUITES = {
    "intseq": check_intseq,
    "families": check_families,
    "multisets": check_multisets,
    "setlimits": check_setlimits,
    "cfp": check_cfp,
    "analysis": check_analysis,
}
SUITE_NAMES = tuple(SUITES)


def run_suite(name, seed=0, budget=DEFAULT_BUDGET):
    """Runs one named suite (or ``all``) and returns its CheckResults."""
    if seed < 0:
        raise ValueError(f"the seed must be an integer >= 0, got {seed}")
    if budget < 0:
        raise ValueError(f"the budget must be an integer >= 0, got {budget}")
    if name == "all":
        results = []
        for sub in SUITE_NAMES:
            results.extend(run_suite(sub, seed, budget))
        return results
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; pick from {SUITE_NAMES + ('all',)}")
    if budget == 0:
        return [CheckResult(f"{name}.vacuous", True, 0, "vacuous pass at budget 0")]
    return SUITES[name](seed, budget)
