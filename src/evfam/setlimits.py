"""Pointwise limits of sequences of subsets of a finite ground set.

A sequence (A_n) is stored per element as the index set {n : x in A_n},
an eventually periodic subset of the positive integers.  Its limit with
respect to a family E contains x exactly when that index set belongs to E;
the infinite and cofinite families recover lim sup and lim inf.
"""

from __future__ import annotations

from dataclasses import dataclass

from .families import (
    SYMBOLIC_KINDS,
    AllFamily,
    EmptyFamily,
    Family,
    _finite_ground,
    _ground_from_json,
    check_set_arg,
)
from .intseq import EPSet


class SetSequence:
    """A sequence of subsets of a finite ground, in per-element trace form."""

    def __init__(self, ground, traces):
        self.ground = _finite_ground(ground, "set sequences")
        traces = dict(traces)
        check_set_arg(self.ground, traces)
        self.traces = {}
        for x in self.ground:
            t = traces.get(x, EPSet.empty())
            if not isinstance(t, EPSet):
                raise TypeError("traces must be EPSets")
            self.traces[x] = t

    @classmethod
    def from_sets(cls, ground, prefix_sets, period_sets):
        """Build from per-index sets: A_1..A_p explicitly, then the given
        period repeated forever."""
        ground = _finite_ground(ground, "set sequences")
        period_sets = [check_set_arg(ground, s) for s in period_sets]
        prefix_sets = [check_set_arg(ground, s) for s in prefix_sets]
        if not period_sets:
            raise ValueError("a set sequence needs at least one period entry")
        traces = {}
        for x in ground:
            pre = tuple(1 if x in s else 0 for s in prefix_sets)
            per = tuple(1 if x in s else 0 for s in period_sets)
            traces[x] = EPSet._of(pre, per)
        return cls(ground, traces)

    def trace(self, x):
        if x not in self.traces:
            raise ValueError(f"{x!r} is not a ground element")
        return self.traces[x]

    def set_at(self, n):
        return frozenset(x for x in self.ground if self.traces[x].member(n))

    def __eq__(self, other):
        if not isinstance(other, SetSequence):
            return NotImplemented
        return set(self.ground) == set(other.ground) and self.traces == other.traces

    def __repr__(self):
        return f"SetSequence(ground={self.ground!r}, traces={self.traces!r})"


def e_limit(family, seq):
    """Points whose membership index set belongs to the family."""
    if not isinstance(family, SYMBOLIC_KINDS) or not family.over_naturals:
        raise TypeError("e-limits evaluate against symbolic families over N")
    return frozenset(x for x in seq.ground if family.contains(seq.trace(x)))


@dataclass(frozen=True)
class ClassicalLimits:
    limsup: frozenset
    liminf: frozenset

    @property
    def limit(self):
        return self.limsup if self.limsup == self.liminf else None


def classical_limits(seq):
    """lim sup and lim inf read straight off the traces: x is in A_n
    infinitely often when its trace has a nonempty period, and from some n
    on when its trace is cofinite."""
    return ClassicalLimits(
        limsup=frozenset(x for x, t in seq.traces.items() if t.period),
        liminf=frozenset(x for x, t in seq.traces.items() if t.is_cofinite),
    )


@dataclass(frozen=True)
class TheoremVerdict:
    status: str  # "verified" | "mismatch" | "preconditions-unmet"
    reason: str = ""
    witnesses: tuple = ()

    def __bool__(self):
        return self.status == "verified"


def verify_limit_theorem(seq, family):
    """Checks that the family limit reproduces the classical limit.

    Requires a symbolic nontrivial family over N that is finitely
    insensitive and eventual, and a sequence whose classical limit exists;
    failures of those hypotheses are reported, not raised.
    """
    if not isinstance(family, Family) or not family.over_naturals:
        return TheoremVerdict("preconditions-unmet", "family is not over N")
    if not isinstance(family, SYMBOLIC_KINDS):
        return TheoremVerdict("preconditions-unmet", "family is not symbolic")
    if isinstance(family, (EmptyFamily, AllFamily)):
        return TheoremVerdict("preconditions-unmet", "family is trivial")
    if not family.flags["finitely_insensitive"]:
        return TheoremVerdict("preconditions-unmet", "family is finitely sensitive")
    if not family.flags["eventual"]:
        return TheoremVerdict("preconditions-unmet", "family is not eventual")
    classical = classical_limits(seq)
    lim = classical.limit
    if lim is None:
        return TheoremVerdict(
            "preconditions-unmet",
            "the classical limit does not exist",
            witnesses=(classical.limsup - classical.liminf,),
        )
    got = e_limit(family, seq)
    if got == lim:
        return TheoremVerdict("verified")
    off = got ^ lim
    return TheoremVerdict(
        "mismatch",
        f"family limit differs from the classical limit on {sorted(map(repr, off))}",
        witnesses=(frozenset(off),),
    )


# ---------------------------------------------------------------------------
# JSON


def sequence_to_json(seq):
    for x in seq.ground:
        if not isinstance(x, str):
            raise ValueError("the JSON form needs string ground elements")
    return {
        "ground": list(seq.ground),
        "traces": {x: seq.traces[x].to_text() for x in seq.ground},
    }


def sequence_from_json(obj):
    traces = {x: EPSet.from_text(t) for x, t in obj["traces"].items()}
    return SetSequence(_ground_from_json(obj["ground"]), traces)
