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
for increasing multifamilies over finite topologies only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .families import (
    NATURALS,
    CoGapLevelFamily,
    EmptyFamily,
    Family,
    PredicateFamily,
    Verdict,
    _check_same_ground,
    _covering_scan,
    _exact,
    _finite_ground,
    _ground_from_json,
    _indicator,
    _json_list,
    _OverGround,
    _preimage,
    _push_codomain,
    _sorted_sets,
    _subsets,
    check_set_arg,
    family_from_json,
    family_to_json,
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

    def mult(self, x):
        if x not in self._mult:
            raise ValueError(f"{x!r} is not a ground element")
        return self._mult[x]

    __getitem__ = mult

    def support(self):
        return frozenset(x for x, m in self._mult.items() if m >= ONE)

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

    kind = "gap"
    flags = {"increasing": False, "decreasing": True, "finitely_insensitive": True}

    def __init__(self):
        super().__init__(NATURALS)

    def value(self, s):
        return gap(self._arg(s))

    def _witnesses(self):
        # {1} has value inf yet N has value 0
        return {"increasing": (EPSet.finite([1]), EPSet.naturals())}


class CoGapMultifamily(Multifamily):
    """Multiplicity = gap of the complement: recurring runs of consecutive
    members."""

    kind = "cogap"
    flags = {"increasing": True, "decreasing": False, "finitely_insensitive": True}

    def __init__(self):
        super().__init__(NATURALS)

    def value(self, s):
        return cogap(self._arg(s))

    def _witnesses(self):
        return {"decreasing": (EPSet.empty(), EPSet.naturals())}


class IndicatorMultifamily(Multifamily):
    """Lifts a family to multiplicities in {0, 1}."""

    kind = "indicator"

    def __init__(self, family):
        if not isinstance(family, Family):
            raise TypeError("indicator multifamilies wrap a family")
        self.family = family
        super().__init__(family.ground)

    def value(self, s):
        return ONE if self.family.contains(s) else ZERO

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

    kind = "complement"

    def __init__(self, inner):
        self.inner = inner
        super().__init__(inner.ground)

    def value(self, s):
        return self.inner.value(self._complement(self._arg(s)))

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

    kind = "explicit"

    def __init__(self, ground, table):
        super().__init__(_finite_ground(ground, "explicit multifamilies"))
        self.table = {frozenset(s): ExtNat.of(v) for s, v in dict(table).items()}
        check_set_arg(self.ground, frozenset().union(*self.table))

    def value(self, s):
        return self.table.get(self._arg(s), ZERO)


class PushedMultifamily(Multifamily):
    """Evaluates the inner multifamily on preimages under a fixed map."""

    kind = "pushed"

    def __init__(self, f, inner, codomain=None):
        codomain = _push_codomain(f, inner, codomain)
        self.f = f
        self.inner = inner
        super().__init__(codomain)

    def value(self, s):
        return self.inner.value(_preimage(self.f, self.inner.ground, self._arg(s)))


# ---------------------------------------------------------------------------
# operations


def mf_complement(mf):
    if isinstance(mf, ComplementMultifamily):
        return mf.inner
    return ComplementMultifamily(mf)


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
    """(mask, down-set, value) of each open of the topology, from one value
    table over the subsets; refused unless the values never fall along a
    covering pair, i.e. unless the multifamily is increasing."""
    _check_same_ground(mf, topology)
    vals = [mf.value(s) for s in _subsets(topology.ground)]
    if _covering_scan(topology.ground, vals)[0] is not None:
        raise ValueError(
            "closure and limits are defined for increasing multifamilies only"
        )
    return [(m, down, vals[m]) for _, m, down in topology._lattice]


def mf_closure(mf, topology):
    """Increasing multifamily with value(S) = min over open supersets."""
    rows = _open_values(mf, topology)
    table = {
        s: min(v for _, down, v in rows if down >> sm & 1)
        for sm, s in enumerate(_subsets(topology.ground))
    }
    return ExplicitMultifamily(topology.ground, table)


def multiset_limit(mf, topology):
    """Pointwise limit multiset: min multiplicity over open neighborhoods."""
    rows = _open_values(mf, topology)
    mult = {
        x: min(v for m, _, v in rows if m >> i & 1)
        for i, x in enumerate(topology.ground)
    }
    return Multiset(topology.ground, mult)


# ---------------------------------------------------------------------------
# JSON


def _explicit_fields(mf):
    rows = [
        [xs, mf.table[frozenset(xs)].to_json()] for xs in _sorted_sets(mf.ground, mf.table)
    ]
    return {"ground": list(mf.ground), "table": rows}


# kind -> (the JSON fields past the kind, the constructor from JSON)
_MF_JSON = {
    "gap": (lambda mf: {}, lambda obj: GapMultifamily()),
    "cogap": (lambda mf: {}, lambda obj: CoGapMultifamily()),
    "complement": (
        lambda mf: {"inner": mf_to_json(mf.inner)},
        lambda obj: ComplementMultifamily(mf_from_json(obj["inner"])),
    ),
    "indicator": (
        lambda mf: {"family": family_to_json(mf.family)},
        lambda obj: IndicatorMultifamily(family_from_json(obj["family"])),
    ),
    "explicit": (
        _explicit_fields,
        lambda obj: ExplicitMultifamily(
            _ground_from_json(obj["ground"]),
            {frozenset(_json_list(s, "a set")): ExtNat.from_json(v) for s, v in obj["table"]},
        ),
    ),
}


def mf_to_json(mf):
    if mf.kind not in _MF_JSON:
        raise ValueError(f"multifamily kind {mf.kind!r} has no JSON form")
    fields, _ = _MF_JSON[mf.kind]
    return {"kind": mf.kind, **fields(mf)}


def mf_from_json(obj):
    kind = obj["kind"]
    if kind not in _MF_JSON:
        raise ValueError(f"unknown multifamily kind {kind!r}")
    _, build = _MF_JSON[kind]
    return build(obj)
