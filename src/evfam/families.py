"""Families of subsets: membership, hereditarity classification, star and
push operations, closures, and limit sets over finite topologies.

A family is *eventual* when it is closed upward under inclusion and
*co-eventual* when closed downward: the {0, 1} case of an increasing or
decreasing multifamily, with which families share one base class.
Symbolic families over the positive integers (cofinite, infinite,
cogap-level) evaluate exactly on EPSet arguments and refuse anything else;
opaque predicate families are classified by seeded sampling and their
verdicts say so.  Finite grounds are classified exhaustively in one pass
over the covering pairs (S, S | {x}) of the subset lattice: a map on a
finite Boolean lattice is monotone iff it is monotone on covering pairs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .intseq import (
    EPSet,
    ExtNat,
    PeriodicSeq,
    cogap,
    complement,
    finitely_change,
    random_epset,
)


class _Naturals:
    __slots__ = ()

    def __repr__(self):
        return "N"


#: sentinel ground for families over the positive integers
NATURALS = _Naturals()


def as_ground(ground):
    if isinstance(ground, _Naturals) or (isinstance(ground, str) and ground == "N"):
        return NATURALS
    elems = tuple(ground)
    if len(set(elems)) != len(elems):
        raise ValueError("ground elements must be distinct")
    return elems


def _finite_ground(ground, what):
    ground = as_ground(ground)
    if ground is NATURALS:
        raise ValueError(f"{what} need a finite ground")
    return ground


def check_set_arg(ground, s):
    """Normalize a set argument against a ground: EPSets over N, frozensets
    over finite grounds."""
    if ground is NATURALS:
        if not isinstance(s, EPSet):
            raise TypeError(
                "families over N evaluate exactly on EPSet arguments only"
            )
        return s
    s = frozenset(s)
    stray = s - set(ground)
    if stray:
        raise ValueError(f"elements {sorted(map(repr, stray))} not in the ground")
    return s


def powerset(elems):
    elems = tuple(elems)
    for r in range(len(elems) + 1):
        for combo in itertools.combinations(elems, r):
            yield frozenset(combo)


def _covering_scan(ground, value):
    """The first covering pairs (S, S | {x}) of a finite ground's subset
    lattice along which ``value`` falls, rises and changes, None for each
    that never happens.

    Over the n 2^(n-1) covering pairs this decides exactly whether the map
    is increasing (it never falls), decreasing (it never rises) and
    finitely insensitive (it never changes, i.e. it is constant).
    """
    subsets = [frozenset()]
    for x in ground:
        subsets += [s | {x} for s in subsets]  # bit i of the index <-> ground[i]
    vals = [value(s) for s in subsets]
    bits = [1 << i for i in range(len(ground))]
    fall = rise = change = None
    for m, a in enumerate(vals):
        for bit in bits:
            if m & bit or vals[m | bit] == a:
                continue
            pair = (subsets[m], subsets[m | bit])
            change = change or pair
            if a > vals[m | bit]:
                fall = fall or pair
            else:
                rise = rise or pair
            if fall and rise:
                return fall, rise, change
    return fall, rise, change


@dataclass(frozen=True)
class Verdict:
    """One classified property: its truth value, whether that came from an
    exact argument or from sampling, and a counterexample when refuted."""

    value: bool
    status: str  # "exact" | "sampled"
    witness: object = None

    def __bool__(self):
        return self.value


def _exact(value, witness=None):
    return Verdict(value, "exact", witness)


def _sampled(value, witness=None):
    return Verdict(value, "sampled", witness)


@dataclass(frozen=True)
class Classification:
    eventual: Verdict
    co_eventual: Verdict
    filter: Verdict
    finitely_insensitive: Verdict


_PROPERTIES = ("eventual", "co_eventual", "filter", "finitely_insensitive")


class _OverGround:
    """The core families and multifamilies share: a ground (NATURALS or a
    tuple of distinct elements), set arguments checked against it,
    complements within it, and exact verdicts from declared flags.

    ``flags`` holds the property values known exactly by construction, None
    where only sampling or enumeration helps.  When every flag is known,
    ``classify`` reports them as exact verdicts in a ``_verdicts`` record,
    each false one with the counterexample ``_witnesses`` gives for it.
    """

    kind = "abstract"
    flags = {}
    _verdicts = None

    def __init__(self, ground=NATURALS):
        self.ground = as_ground(ground)

    @property
    def over_naturals(self):
        return self.ground is NATURALS

    def _arg(self, s):
        return check_set_arg(self.ground, s)

    def _complement(self, s):
        return complement(s) if self.over_naturals else frozenset(self.ground) - s

    def _witnesses(self):
        return {}

    def classify(self, budget=1000, seed=0):
        if None in self.flags.values():
            raise NotImplementedError
        wits = self._witnesses()
        return self._verdicts(
            **{name: _exact(value, wits.get(name)) for name, value in self.flags.items()}
        )


class Family(_OverGround):
    """Base class: a family of subsets of ``ground`` answering membership."""

    flags = dict.fromkeys(_PROPERTIES)
    _verdicts = Classification

    def contains(self, s):
        raise NotImplementedError

    def __contains__(self, s):
        return self.contains(s)

    def exact_flags(self):
        """Property values known exactly, None where only sampling helps."""
        return dict(self.flags)


class EmptyFamily(Family):
    kind = "empty"
    flags = dict.fromkeys(_PROPERTIES, True)

    def contains(self, s):
        self._arg(s)
        return False


class AllFamily(Family):
    kind = "all"
    flags = dict.fromkeys(_PROPERTIES, True)

    def contains(self, s):
        self._arg(s)
        return True


class CofiniteFamily(Family):
    """All subsets of N with finite complement."""

    kind = "cofinite"
    flags = {"eventual": True, "co_eventual": False, "filter": True,
             "finitely_insensitive": True}

    def __init__(self):
        super().__init__(NATURALS)

    def contains(self, s):
        return complement(self._arg(s)).is_finite

    def _witnesses(self):
        return {"co_eventual": (EPSet.naturals(), EPSet((), (0, 1)))}


class InfiniteFamily(Family):
    """All infinite subsets of N."""

    kind = "infinite"
    flags = {"eventual": True, "co_eventual": False, "filter": False,
             "finitely_insensitive": True}

    def __init__(self):
        super().__init__(NATURALS)

    def contains(self, s):
        return not self._arg(s).is_finite

    def _witnesses(self):
        evens, odds = EPSet((), (0, 1)), EPSet((), (1, 0))
        return {"co_eventual": (EPSet.naturals(), EPSet.empty()), "filter": (evens, odds)}


class CoGapLevelFamily(Family):
    """Sets whose recurring-run statistic (cogap) is at least c >= 1."""

    kind = "cogap_level"
    flags = {"eventual": True, "co_eventual": False, "filter": False,
             "finitely_insensitive": True}

    def __init__(self, c):
        super().__init__(NATURALS)
        c = ExtNat.of(c)
        if c == 0:
            raise ValueError("the level must be at least 1")
        self.c = c

    def contains(self, s):
        return cogap(self._arg(s)) >= self.c

    def _witnesses(self):
        wits = {"co_eventual": (EPSet.naturals(), EPSet.empty())}
        # at infinite c a refuting pair needs unbounded runs, which no
        # eventually periodic set can carry
        if self.c.is_finite:
            k = self.c.value
            blocks = EPSet((), (1,) * k + (0,) * k)
            wits["filter"] = (blocks, complement(blocks))
        return wits


class IndicatorFamily(Family):
    """Explicitly listed subsets of a finite ground."""

    kind = "indicator"

    def __init__(self, ground, sets):
        super().__init__(_finite_ground(ground, "indicator families"))
        self.sets = frozenset(map(frozenset, sets))
        check_set_arg(self.ground, frozenset().union(*self.sets))

    def contains(self, s):
        return self._arg(s) in self.sets

    def classify(self, budget=1000, seed=0):
        fall, rise, change = _covering_scan(self.ground, self.sets.__contains__)
        inter_wit = None
        for a, b in itertools.combinations_with_replacement(self.sets, 2):
            if (a & b) not in self.sets:
                inter_wit = (a, b)
                break
        return Classification(
            eventual=_exact(fall is None, fall),
            # a co-eventual refutation names the member first
            co_eventual=_exact(rise is None, rise and rise[::-1]),
            filter=_exact(fall is None and inter_wit is None, fall or inter_wit),
            finitely_insensitive=_exact(change is None, change),
        )

    def exact_flags(self):
        c = self.classify()
        return {name: getattr(c, name).value for name in _PROPERTIES}


class PredicateFamily(Family):
    """Opaque membership callable with a declared monotonicity direction.

    ``claim_status`` is "exact" only when the declared direction is known by
    construction, e.g. a level family of an increasing multifamily; the
    classifier then reports that one property exactly and samples the rest.
    """

    kind = "predicate"

    def __init__(self, ground, fn, monotone="unknown", claim_status="sampled"):
        super().__init__(ground)
        if monotone not in ("increasing", "decreasing", "unknown"):
            raise ValueError(f"bad monotonicity label {monotone!r}")
        if claim_status not in ("exact", "sampled"):
            raise ValueError(f"bad claim status {claim_status!r}")
        self.fn = fn
        self.monotone = monotone
        self.claim_status = claim_status

    def contains(self, s):
        return bool(self.fn(self._arg(s)))

    def exact_flags(self):
        flags = super().exact_flags()
        if self.claim_status == "exact":
            if self.monotone == "increasing":
                flags["eventual"] = True
            elif self.monotone == "decreasing":
                flags["co_eventual"] = True
        return flags

    def _sample_set(self, rng):
        if self.over_naturals:
            return random_epset(rng)
        return frozenset(x for x in self.ground if rng.random() < 0.5)

    def _finite_tweak(self, s, rng):
        if self.over_naturals:
            pool = list(range(1, 25))
            rng.shuffle(pool)
            add = frozenset(pool[: rng.randrange(4)])
            rem = frozenset(pool[4 : 4 + rng.randrange(4)])
            return finitely_change(s, add=add, remove=rem)
        x = self.ground[rng.randrange(len(self.ground))] if self.ground else None
        return s ^ {x} if x is not None else s

    def classify(self, budget=1000, seed=0):
        rng = random.Random(seed)
        flags = self.exact_flags()

        ev_wit = co_wit = inter_wit = fin_wit = None
        for _ in range(budget):
            s = self._sample_set(rng)
            s_in = self.contains(s)
            if ev_wit is None and s_in and flags["eventual"] is None:
                sup = s | self._sample_set(rng)
                if not self.contains(sup):
                    ev_wit = (s, sup)
            if co_wit is None and s_in and flags["co_eventual"] is None:
                sub = s & self._sample_set(rng)
                if not self.contains(sub):
                    co_wit = (s, sub)
            if inter_wit is None and s_in:
                t = self._sample_set(rng)
                if self.contains(t) and not self.contains(s & t):
                    inter_wit = (s, t)
            if fin_wit is None:
                tweaked = self._finite_tweak(s, rng)
                if self.contains(tweaked) != s_in:
                    fin_wit = (s, tweaked)

        if flags["eventual"] is not None:
            eventual = _exact(flags["eventual"])
        else:
            eventual = _sampled(ev_wit is None, ev_wit)
        if flags["co_eventual"] is not None:
            co_eventual = _exact(flags["co_eventual"])
        else:
            co_eventual = _sampled(co_wit is None, co_wit)
        filt_value = eventual.value and inter_wit is None
        filt_wit = inter_wit if inter_wit is not None else eventual.witness
        return Classification(
            eventual=eventual,
            co_eventual=co_eventual,
            filter=_sampled(filt_value, None if filt_value else filt_wit),
            finitely_insensitive=_sampled(fin_wit is None, fin_wit),
        )


SYMBOLIC_KINDS = (
    EmptyFamily,
    AllFamily,
    CofiniteFamily,
    InfiniteFamily,
    CoGapLevelFamily,
)


# ---------------------------------------------------------------------------
# operations


def to_indicator(family):
    """Snapshot any finite-ground family into an explicit indicator family."""
    if family.over_naturals:
        raise ValueError("cannot snapshot a family over N")
    return IndicatorFamily(
        family.ground,
        [s for s in powerset(family.ground) if family.contains(s)],
    )


def star(family):
    """The set of points whose singleton belongs to the family."""
    if not family.over_naturals:
        return frozenset(x for x in family.ground if family.contains({x}))
    if isinstance(family, AllFamily):
        return EPSet.naturals()
    if isinstance(family, SYMBOLIC_KINDS):
        # singletons are finite, so none of them is cofinite, infinite, or
        # carries a positive cogap level
        return EPSet.empty()
    raise ValueError("star over N needs a symbolic family")


def family_complement(family):
    """All subsets of the finite ground that are not in the family."""
    if family.over_naturals:
        raise ValueError("complement families are computed on finite grounds")
    return IndicatorFamily(
        family.ground,
        [s for s in powerset(family.ground) if not family.contains(s)],
    )


def complement_duality_check(family):
    """Exhaustively confirms: family co-eventual iff its complement family
    is eventual.  Returns the shared truth of that equivalence."""
    snap = to_indicator(family)
    comp = family_complement(family)
    left = snap.classify().co_eventual.value
    right = comp.classify().eventual.value
    return left == right


def _push_codomain(f, source, codomain=None):
    """Validates a push map for a family or multifamily and returns its
    codomain: a PeriodicSeq pushes from N, a dict must be total on a finite
    ground and land inside the codomain."""
    if isinstance(f, PeriodicSeq):
        if not source.over_naturals:
            raise ValueError("a PeriodicSeq pushes from N only")
        return tuple(codomain) if codomain is not None else f.alphabet()
    if not isinstance(f, dict):
        raise TypeError("push takes a dict or a PeriodicSeq")
    if source.over_naturals:
        raise TypeError("dict maps push from finite grounds only")
    missing = set(source.ground) - set(f)
    if missing:
        raise ValueError(f"map is not total: missing {sorted(map(repr, missing))}")
    if codomain is None:
        return tuple(dict.fromkeys(f[x] for x in source.ground))
    codomain = tuple(codomain)
    stray = {f[x] for x in source.ground} - set(codomain)
    if stray:
        raise ValueError(f"values {sorted(map(repr, stray))} leave the codomain")
    return codomain


def _preimage(f, ground, s):
    if isinstance(f, PeriodicSeq):
        return f.preimage(s)
    return frozenset(x for x in ground if f[x] in s)


def push(f, family, codomain=None):
    """Forward image family: S belongs iff the preimage of S belongs.

    ``f`` is a dict on a finite ground, or a PeriodicSeq when the family
    lives over N.  The result is an explicit indicator family over the
    (finite) codomain.
    """
    codomain = _push_codomain(f, family, codomain)
    members = [
        s for s in powerset(codomain) if family.contains(_preimage(f, family.ground, s))
    ]
    return IndicatorFamily(codomain, members)


# ---------------------------------------------------------------------------
# finite topologies


class FiniteTopology:
    """A topology on a finite ground: validated to contain the empty set and
    the ground and to be closed under pairwise unions and intersections."""

    def __init__(self, ground, opens):
        self.ground = _finite_ground(ground, "topologies")
        base = frozenset(self.ground)
        opens = frozenset(map(frozenset, opens))
        check_set_arg(self.ground, frozenset().union(*opens))
        if frozenset() not in opens or base not in opens:
            raise ValueError("opens must contain the empty set and the ground")
        for u, v in itertools.combinations(opens, 2):
            if (u | v) not in opens:
                raise ValueError(
                    f"opens not closed under union: {sorted(map(repr, u))} | {sorted(map(repr, v))}"
                )
            if (u & v) not in opens:
                raise ValueError(
                    f"opens not closed under intersection: {sorted(map(repr, u))} & {sorted(map(repr, v))}"
                )
        self.opens = opens

    def __eq__(self, other):
        if not isinstance(other, FiniteTopology):
            return NotImplemented
        return set(self.ground) == set(other.ground) and self.opens == other.opens

    def __hash__(self):
        return hash((frozenset(self.ground), self.opens))

    def __repr__(self):
        shown = sorted(sorted(map(repr, u)) for u in self.opens)
        return f"FiniteTopology(ground={self.ground!r}, opens={shown})"

    def is_open(self, s):
        return frozenset(s) in self.opens

    def is_closed(self, s):
        return (frozenset(self.ground) - frozenset(s)) in self.opens

    def neighborhoods(self, x):
        if x not in self.ground:
            raise ValueError(f"{x!r} is not a ground element")
        return [u for u in self.opens if x in u]

    def open_supersets(self, s):
        s = frozenset(s)
        return [u for u in self.opens if s <= u]

    @classmethod
    def discrete(cls, ground):
        return cls(ground, powerset(ground))

    @classmethod
    def indiscrete(cls, ground):
        return cls(ground, [frozenset(), frozenset(ground)])

    @classmethod
    def from_subbasis(cls, ground, subbasis):
        ground = tuple(ground)
        opens = {frozenset(), frozenset(ground)}
        opens.update(frozenset(s) for s in subbasis)
        while True:
            fresh = set()
            for u, v in itertools.combinations(opens, 2):
                for w in (u | v, u & v):
                    if w not in opens:
                        fresh.add(w)
            if not fresh:
                break
            opens |= fresh
        return cls(ground, opens)


def all_topologies(ground):
    """Every topology on a small finite ground, by brute enumeration."""
    ground = tuple(ground)
    n = len(ground)
    if n > 4:
        raise ValueError("exhaustive topology enumeration is limited to |X| <= 4")
    base = frozenset(ground)
    optional = [s for s in powerset(ground) if s not in (frozenset(), base)]
    out = []
    for mask in range(2 ** len(optional)):
        opens = {frozenset(), base}
        for i, s in enumerate(optional):
            if mask >> i & 1:
                opens.add(s)
        try:
            out.append(FiniteTopology(ground, opens))
        except ValueError:
            continue
    return out


def random_topology(ground, rng, max_generators=4):
    ground = tuple(ground)
    k = rng.randrange(max_generators + 1)
    subbasis = [
        frozenset(x for x in ground if rng.random() < 0.5) for _ in range(k)
    ]
    return FiniteTopology.from_subbasis(ground, subbasis)


# ---------------------------------------------------------------------------
# closure and limit sets


def _check_same_ground(family, topology):
    """A family or multifamily and a topology must share a finite ground."""
    if family.over_naturals or set(family.ground) != set(topology.ground):
        raise ValueError("the family and the topology must share a finite ground")


def limit_set(family, topology):
    """Points all of whose open neighborhoods belong to the family."""
    _check_same_ground(family, topology)
    return frozenset(
        x
        for x in topology.ground
        if all(family.contains(u) for u in topology.neighborhoods(x))
    )


def closure_family(family, topology):
    """Sets all of whose open supersets belong to the family."""
    _check_same_ground(family, topology)
    members = [
        s
        for s in powerset(topology.ground)
        if all(family.contains(u) for u in topology.open_supersets(s))
    ]
    return IndicatorFamily(topology.ground, members)


# ---------------------------------------------------------------------------
# JSON


def _ground_to_json(ground):
    return "N" if ground is NATURALS else list(ground)


def _sorted_sets(ground, sets):
    order = {x: i for i, x in enumerate(ground)}
    listed = [sorted(s, key=order.__getitem__) for s in sets]
    return sorted(listed, key=lambda xs: (len(xs), [order[x] for x in xs]))


# kind -> (the JSON fields past ground and kind, the constructor from JSON)
_FAMILY_JSON = {
    "empty": (lambda fam: {}, lambda obj: EmptyFamily(obj.get("ground", "N"))),
    "all": (lambda fam: {}, lambda obj: AllFamily(obj.get("ground", "N"))),
    "cofinite": (lambda fam: {}, lambda obj: CofiniteFamily()),
    "infinite": (lambda fam: {}, lambda obj: InfiniteFamily()),
    "cogap_level": (
        lambda fam: {"c": fam.c.to_json()},
        lambda obj: CoGapLevelFamily(ExtNat.from_json(obj["c"])),
    ),
    "indicator": (
        lambda fam: {"sets": _sorted_sets(fam.ground, fam.sets)},
        lambda obj: IndicatorFamily(obj["ground"], obj["sets"]),
    ),
}


def family_to_json(family):
    if family.kind not in _FAMILY_JSON:
        raise ValueError(f"family kind {family.kind!r} has no JSON form")
    fields, _ = _FAMILY_JSON[family.kind]
    return {"ground": _ground_to_json(family.ground), "kind": family.kind, **fields(family)}


def family_from_json(obj):
    kind = obj["kind"]
    if kind not in _FAMILY_JSON:
        raise ValueError(f"unknown family kind {kind!r}")
    _, build = _FAMILY_JSON[kind]
    return build(obj)


def topology_to_json(topology):
    return {
        "ground": list(topology.ground),
        "opens": _sorted_sets(topology.ground, topology.opens),
    }


def topology_from_json(obj):
    return FiniteTopology(obj["ground"], obj["opens"])
