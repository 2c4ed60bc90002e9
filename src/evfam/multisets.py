"""Multisets and multifamilies: set-functions with multiplicities in
{0, 1, ..., inf}.

A multifamily assigns an extended-natural multiplicity to every subset of
its ground; a family is the {0, 1} case, and the two share one base class
in ``families``.  The two workhorses over the positive integers are the
gap and cogap statistics, whose directions are known exactly; indicator
multifamilies lift ordinary families, and the complement wrapper evaluates
on complements (which exchanges increasing and decreasing).  Multifamilies
over a finite ground are classified exactly in one pass over the covering
pairs (S, S | {x}) of the subset lattice.  Closures and limits are defined
for increasing multifamilies over finite topologies only; they read the
values once over the topology's subset table and take their minimums on
plain keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .families import (
    NATURALS,
    CoGapLevelFamily,
    EmptyFamily,
    Family,
    PredicateFamily,
    Verdict,
    _check_same_ground,
    _covering_masks,
    _covering_scan,
    _exact,
    _finite_ground,
    _indicator,
    _OverGround,
    _preimage,
    _push_codomain,
    _sorted_sets,
    _subsets,
    check_set_arg,
)
from .intseq import EPSet, ExtNat, cogap, gap

ZERO = ExtNat(0)
ONE = ExtNat(1)


class Multiset:
    """Finite ground with an extended-natural multiplicity per element."""

    def __init__(self, ground, mult=None):
        self.ground = _finite_ground(ground, "multisets")
        mult = dict(mult or {})
        check_set_arg(self.ground, mult)
        self._mult = {x: ExtNat.of(mult.get(x, 0)) for x in self.ground}

    @classmethod
    def _of(cls, ground, mult):
        """A multiset valid by construction: ``ground`` a checked tuple and
        ``mult`` a dict from each of its elements, in order, to an ExtNat."""
        ms = cls.__new__(cls)
        ms.ground, ms._mult = ground, mult
        return ms

    def mult(self, x):
        if x not in self._mult:
            raise ValueError(f"{x!r} is not a ground element")
        return self._mult[x]

    __getitem__ = mult

    def __eq__(self, other):
        if not isinstance(other, Multiset):
            return NotImplemented
        return set(self.ground) == set(other.ground) and self._mult == other._mult

    def __hash__(self):
        return hash((frozenset(self.ground), frozenset(self._mult.items())))

    def __repr__(self):
        shown = {x: m for x, m in self._mult.items() if m >= ONE}
        return f"Multiset(ground={self.ground!r}, mult={shown!r})"


@dataclass(frozen=True)
class MFClassification:
    increasing: Verdict
    decreasing: Verdict
    finitely_insensitive: Verdict


class Multifamily(_OverGround):
    """Base class: assigns an ExtNat multiplicity to subsets of a ground.

    Over a finite ground ``classify`` is exact by enumeration; over N it
    reports the declared ``flags``."""

    flags = dict.fromkeys(("increasing", "decreasing", "finitely_insensitive"))
    _verdicts = MFClassification

    def value(self, s) -> ExtNat:
        raise NotImplementedError

    def __call__(self, s):
        return self.value(s)

    def classify(self, budget=1000, seed=0):
        if self.over_naturals:
            return super().classify()
        vals = [self.value(s) for s in _subsets(self.ground)]
        fall, rise, change = _covering_scan(self.ground, vals)
        return MFClassification(
            increasing=_exact(fall is None, fall),
            decreasing=_exact(rise is None, rise),
            finitely_insensitive=_exact(change is None, change),
        )


class GapMultifamily(Multifamily):
    """Multiplicity = recurring count of missing integers between
    consecutive elements; infinite for finite sets."""

    flags = {"increasing": False, "decreasing": True, "finitely_insensitive": True}

    def __init__(self):
        super().__init__(NATURALS)

    def value(self, s):
        return gap(self._arg(s))

    def __repr__(self):
        return "GapMultifamily()"

    def _witnesses(self):
        # {1} has value inf yet N has value 0
        return {"increasing": (EPSet.finite([1]), EPSet.naturals())}


class CoGapMultifamily(Multifamily):
    """Multiplicity = gap of the complement: recurring runs of consecutive
    members."""

    flags = {"increasing": True, "decreasing": False, "finitely_insensitive": True}

    def __init__(self):
        super().__init__(NATURALS)

    def value(self, s):
        return cogap(self._arg(s))

    def __repr__(self):
        return "CoGapMultifamily()"

    def _witnesses(self):
        return {"decreasing": (EPSet.empty(), EPSet.naturals())}


class IndicatorMultifamily(Multifamily):
    """Lifts a family to multiplicities in {0, 1}."""

    def __init__(self, family):
        if not isinstance(family, Family):
            raise TypeError("indicator multifamilies wrap a family")
        self.family = family
        super().__init__(family.ground)

    def value(self, s):
        return ONE if self.family.contains(s) else ZERO

    def __repr__(self):
        return f"IndicatorMultifamily({self.family!r})"

    def classify(self, budget=1000, seed=0):
        c = self.family.classify(budget=budget, seed=seed)
        co = c.co_eventual
        # a co-eventual refutation names the member, the larger set, first
        return MFClassification(
            increasing=c.eventual,
            decreasing=replace(co, witness=co.witness and co.witness[::-1]),
            finitely_insensitive=c.finitely_insensitive,
        )


class ComplementMultifamily(Multifamily):
    """Evaluates the inner multifamily on complements."""

    def __init__(self, inner):
        self.inner = inner
        super().__init__(inner.ground)

    def value(self, s):
        return self.inner.value(self._complement(self._arg(s)))

    def __repr__(self):
        return f"ComplementMultifamily({self.inner!r})"

    def classify(self, budget=1000, seed=0):
        c = self.inner.classify(budget=budget, seed=seed)

        def flip(v):
            if v.witness is None:
                return v
            a, b = v.witness
            return replace(v, witness=(self._complement(b), self._complement(a)))

        # S |-> S^c reverses inclusion, so the directions swap
        return MFClassification(
            increasing=flip(c.decreasing),
            decreasing=flip(c.increasing),
            finitely_insensitive=flip(c.finitely_insensitive),
        )


class ExplicitMultifamily(Multifamily):
    """Finite table of multiplicities over a finite ground; absent sets
    have multiplicity 0."""

    def __init__(self, ground, table):
        super().__init__(_finite_ground(ground, "explicit multifamilies"))
        self.table = {frozenset(s): ExtNat.of(v) for s, v in dict(table).items()}
        check_set_arg(self.ground, frozenset().union(*self.table))

    @classmethod
    def _of(cls, ground, table):
        """A multifamily valid by construction: ``ground`` a checked tuple
        and ``table`` a dict from subsets of it to ExtNats."""
        mf = cls.__new__(cls)
        mf.ground, mf.table = ground, table
        return mf

    def value(self, s):
        # a key was checked against the ground when the table was built
        if isinstance(s, frozenset) and s in self.table:
            return self.table[s]
        return self.table.get(self._arg(s), ZERO)

    def __repr__(self):
        rows = [
            [xs, self.table[frozenset(xs)].to_json()]
            for xs in _sorted_sets(self.ground, self.table)
        ]
        return f"ExplicitMultifamily({self.ground!r}, {rows})"


class PushedMultifamily(Multifamily):
    """Evaluates the inner multifamily on preimages under a fixed map."""

    def __init__(self, f, inner, codomain=None):
        codomain = _push_codomain(f, inner, codomain)
        self.f = f
        self.inner = inner
        super().__init__(codomain)

    def value(self, s):
        return self.inner.value(_preimage(self.f, self.inner.ground, self._arg(s)))


# ---------------------------------------------------------------------------
# operations


def level_family(mf, c):
    """The family of sets whose multiplicity reaches level c >= 1."""
    c = ExtNat.of(c)
    if c == 0:
        raise ValueError("level families need c >= 1; c = 0 names everything")
    if isinstance(mf, CoGapMultifamily):
        return CoGapLevelFamily(c)
    if isinstance(mf, IndicatorMultifamily):
        if c == ONE:
            return mf.family
        return EmptyFamily(mf.ground)
    if not mf.over_naturals:
        return _indicator(mf.ground, lambda s: mf.value(s) >= c)
    cls = mf.classify()
    directions = {"increasing": cls.increasing, "decreasing": cls.decreasing}
    claim = next((d for d, v in directions.items() if v.value and v.status == "exact"), None)
    return PredicateFamily("N", lambda s: mf.value(s) >= c, claim=claim)


def mstar(mf):
    """Multiset of singleton multiplicities."""
    if mf.over_naturals:
        raise ValueError("mstar needs a finite ground")
    return Multiset(mf.ground, {x: mf.value(frozenset({x})) for x in mf.ground})


def _open_values(mf, topology):
    """(mask, down-set, key) of each open of the topology, and the map from
    keys back to values.  The values are read once over the subsets, as
    plain keys (the int, math.inf for INF); refused unless they never fall
    along a covering pair, i.e. unless the multifamily is increasing."""
    _check_same_ground(mf, topology)
    vals = [mf.value(s) for s in topology._table]
    keys = [math.inf if v.value is None else v.value for v in vals]
    if _covering_masks(len(topology.ground), keys)[0] is not None:
        raise ValueError(
            "closure and limits are defined for increasing multifamilies only"
        )
    rows = [(m, down, keys[m]) for _, m, down in topology._lattice]
    return rows, dict(zip(keys, vals))


def mf_closure(mf, topology):
    """Increasing multifamily with value(S) = min over open supersets."""
    rows, value = _open_values(mf, topology)
    table = {
        s: value[min(k for _, down, k in rows if down >> sm & 1)]
        for sm, s in enumerate(topology._table)
    }
    return ExplicitMultifamily._of(topology.ground, table)


def multiset_limit(mf, topology):
    """Pointwise limit multiset: min multiplicity over open neighborhoods."""
    rows, value = _open_values(mf, topology)
    mult = {
        x: value[min(k for m, _, k in rows if m >> i & 1)]
        for i, x in enumerate(topology.ground)
    }
    return Multiset._of(topology.ground, mult)
