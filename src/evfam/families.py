"""Families of subsets: membership, hereditarity classification, star and
push operations, closures, and limit sets over finite topologies.

A family is *eventual* when it is closed upward under inclusion and
*co-eventual* when closed downward: the {0, 1} case of an increasing or
decreasing multifamily, with which families share one base class.
Symbolic families over the positive integers (cofinite, infinite,
cogap-level) evaluate exactly on EPSet arguments and refuse anything else;
opaque predicate families are sampled and their verdicts say so, except a
claimed direction: checked on a finite ground, trusted over N.  Finite
grounds are classified exhaustively in one pass over the covering pairs
(S, S | {x}) of the subset lattice: a map on a finite Boolean lattice is
monotone iff it is monotone on covering pairs.

On a finite ground a subset is a mask, bit i standing for ground[i], and
an indicator family is one 2^n-bit int, ``bits``, whose bit s is set iff
the subset with mask s belongs; a set of opens is such a bitset too.
Frozensets appear only at the edge: ``.sets``, ``.opens``, witnesses,
``powerset`` and the arguments of ``contains`` and ``value``.
Classification scans the masks in ascending order, so every witness is
the first in mask order whatever the hash seed.  One routine,
``_unclosed``, lists the pairs of masks whose union or intersection a set
of opens lacks; it validates a topology, closes a subbasis and filters
the candidates of ``all_topologies``.

A topology keeps its open masks in ascending order and builds, once each,
the bitset of those masks, each open's down-set (the masks of the subsets
inside it) and the table of its ground's subsets, indexed by mask and
built from its own element objects, so a float ground (1.0, 2.0) gets
float points back although it equals (1, 2).  The opens outside an
indicator family on the topology's own ground order are one AND of two
bitsets; any other family is asked about each open with ``contains``.  A
limit set is the table's entry at the complement of the OR of the masks
of those opens.  A closure family is the complement of the OR of their
down-sets, and carries the table, so its ``star`` is an entry too; a
family of the public constructor keeps no table, and its ``star`` builds
the set from the singleton bits.

``_FAMILY_JSON`` is the one statement of each family kind's name and
fields, keyed by exact class: a subclass has no JSON form.
"""

from __future__ import annotations

import functools
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
        raise ValueError(f"elements {sorted(stray, key=repr)} not in the ground")
    return s


def _ground_bits(ground):
    return {x: 1 << i for i, x in enumerate(ground)}


def _mask(index, s):
    """The mask of the set ``s`` under a ground's ``_ground_bits``."""
    m = 0
    for x in s:
        if x not in index:
            stray = {x, *(y for y in s if y not in index)}
            raise ValueError(f"elements {sorted(stray, key=repr)} not in the ground")
        m |= index[x]
    return m


def _subset(ground, m):
    """The subset of a finite ground with mask ``m``."""
    return frozenset(x for i, x in enumerate(ground) if m >> i & 1)


def _subsets(ground):
    """The subsets of a finite ground as frozensets, indexed by mask."""
    subsets = [frozenset()]
    for x in ground:
        subsets += [s | {x} for s in subsets]  # bit i of the index <-> ground[i]
    return tuple(subsets)


def _powerset_masks(n):
    """The subset masks of an n-point ground, in powerset order."""
    bits = tuple(1 << i for i in range(n))
    return [sum(c) for r in range(n + 1) for c in itertools.combinations(bits, r)]


def powerset(elems):
    """Every subset of ``elems``: by size, then in itertools order."""
    elems = tuple(elems)
    subsets = _subsets(elems)
    return (subsets[m] for m in _powerset_masks(len(elems)))


def _covering_masks(n, vals):
    """The first covering pairs (s, s | bit) of the masks of an n-point
    ground along which the mask-indexed values ``vals`` fall, rise and
    change, as mask pairs, None for each that never happens.

    Over the n 2^(n-1) covering pairs this decides exactly whether the map
    is increasing (it never falls), decreasing (it never rises) and
    finitely insensitive (it never changes, i.e. it is constant).
    """
    bits = [1 << i for i in range(n)]
    fall = rise = change = None
    for m, a in enumerate(vals):
        if fall and rise:
            break
        for bit in bits:
            if m & bit or vals[m | bit] == a:
                continue
            pair = (m, m | bit)
            change = change or pair
            if a > vals[m | bit]:
                fall = fall or pair
            else:
                rise = rise or pair
    return fall, rise, change


def _covering_scan(ground, vals):
    """``_covering_masks`` of a finite ground, each pair of masks as the
    pair of subsets (S, S | {x})."""
    return tuple(p and (_subset(ground, p[0]), _subset(ground, p[1]))
                 for p in _covering_masks(len(ground), vals))


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
    complements within it, and exact verdicts from ``flags``.

    ``flags`` is the one record of the property values known exactly, by
    construction or by a checked claim, None where only sampling or
    enumeration helps.  When every flag is known, ``classify`` reports
    them as exact verdicts, each false one with a ``_witnesses`` pair.
    """

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


class EmptyFamily(Family):
    flags = dict.fromkeys(_PROPERTIES, True)

    def contains(self, s):
        self._arg(s)
        return False

    def __repr__(self):
        return f"EmptyFamily({self.ground!r})"


class AllFamily(Family):
    flags = dict.fromkeys(_PROPERTIES, True)

    def contains(self, s):
        self._arg(s)
        return True

    def __repr__(self):
        return f"AllFamily({self.ground!r})"


class CofiniteFamily(Family):
    """All subsets of N with finite complement."""

    flags = {"eventual": True, "co_eventual": False, "filter": True,
             "finitely_insensitive": True}

    def __init__(self):
        super().__init__(NATURALS)

    def contains(self, s):
        return self._arg(s).is_cofinite

    def __repr__(self):
        return "CofiniteFamily()"

    def _witnesses(self):
        return {"co_eventual": (EPSet.naturals(), EPSet((), (0, 1)))}


class InfiniteFamily(Family):
    """All infinite subsets of N."""

    flags = {"eventual": True, "co_eventual": False, "filter": False,
             "finitely_insensitive": True}

    def __init__(self):
        super().__init__(NATURALS)

    def contains(self, s):
        return not self._arg(s).is_finite

    def __repr__(self):
        return "InfiniteFamily()"

    def _witnesses(self):
        evens, odds = EPSet((), (0, 1)), EPSet((), (1, 0))
        return {"co_eventual": (EPSet.naturals(), EPSet.empty()), "filter": (evens, odds)}


class CoGapLevelFamily(Family):
    """Sets whose recurring-run statistic (cogap) is at least c >= 1."""

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

    def __repr__(self):
        return f"CoGapLevelFamily(c={self.c})"

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
    """Explicitly listed subsets of a finite ground, held as ``bits``: bit s
    is set iff the subset with mask s belongs."""

    def __init__(self, ground, sets):
        super().__init__(_finite_ground(ground, "indicator families"))
        self._sets = frozenset(map(frozenset, sets))
        self.bits = sum(1 << _mask(self._index, s) for s in self._sets)
        self._table = None

    @classmethod
    def _from_bits(cls, ground, bits, table):
        """A family valid by construction: ``ground`` a checked tuple,
        ``bits`` inside its 2^n subset masks and ``table`` its
        ``_subsets(ground)``, which the family keeps."""
        fam = cls.__new__(cls)
        fam.ground, fam.bits, fam._sets, fam._table = ground, bits, None, table
        return fam

    @functools.cached_property
    def _index(self):
        return _ground_bits(self.ground)

    @property
    def sets(self):
        """The member sets, a frozenset of frozensets."""
        if self._sets is None:
            bits = self.bits
            self._sets = frozenset(s for m, s in enumerate(self._table) if bits >> m & 1)
        return self._sets

    def contains(self, s):
        return bool(self.bits >> _mask(self._index, s) & 1)

    def __repr__(self):
        return f"IndicatorFamily({self.ground!r}, {_sorted_sets(self.ground, self.sets)})"

    def classify(self, budget=1000, seed=0):
        bits, masks = self.bits, range(1 << len(self.ground))
        fall, rise, change = _covering_scan(self.ground, [bits >> m & 1 for m in masks])
        inter_wit = None
        for a, b in itertools.combinations([m for m in masks if bits >> m & 1], 2):
            if not bits >> (a & b) & 1:
                inter_wit = (_subset(self.ground, a), _subset(self.ground, b))
                break
        return Classification(
            eventual=_exact(fall is None, fall),
            # a co-eventual refutation names the member first
            co_eventual=_exact(rise is None, rise and rise[::-1]),
            filter=_exact(fall is None and inter_wit is None, fall or inter_wit),
            finitely_insensitive=_exact(change is None, change),
        )


class PredicateFamily(Family):
    """Opaque membership callable, classified by seeded sampling.

    A ``claim`` of "increasing" or "decreasing" makes that direction exact.
    On a finite ground it is checked over every covering pair, and a false
    one is refused with the pair that breaks it; over N it is trusted.
    """

    def __init__(self, ground, fn, claim=None):
        super().__init__(ground)
        self.fn = fn
        if claim is None:
            return
        if claim not in ("increasing", "decreasing"):
            raise ValueError(f"bad claim {claim!r}")
        up = claim == "increasing"
        if not self.over_naturals:
            vals = [self.contains(s) for s in _subsets(self.ground)]
            fall, rise, _ = _covering_scan(self.ground, vals)
            pair = fall if up else rise and rise[::-1]
            if pair:
                member, other = (sorted(s, key=repr) for s in pair)
                raise ValueError(f"claimed {claim}, but {member} belongs and {other} does not")
        self.flags = {**self.flags, "eventual" if up else "co_eventual": True}

    def contains(self, s):
        return bool(self.fn(self._arg(s)))

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

        ev_wit = co_wit = inter_wit = fin_wit = None
        for _ in range(budget):
            s = self._sample_set(rng)
            s_in = self.contains(s)
            if ev_wit is None and s_in and self.flags["eventual"] is None:
                sup = s | self._sample_set(rng)
                if not self.contains(sup):
                    ev_wit = (s, sup)
            if co_wit is None and s_in and self.flags["co_eventual"] is None:
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

        if self.flags["eventual"] is not None:
            eventual = _exact(self.flags["eventual"])
        else:
            eventual = _sampled(ev_wit is None, ev_wit)
        if self.flags["co_eventual"] is not None:
            co_eventual = _exact(self.flags["co_eventual"])
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


def _indicator(ground, test):
    """The indicator family of the subsets S of a checked ground with test(S)."""
    subsets = _subsets(ground)
    bits = sum(1 << m for m, s in enumerate(subsets) if test(s))
    return IndicatorFamily._from_bits(ground, bits, subsets)


def to_indicator(family):
    """Snapshot any finite-ground family into an explicit indicator family."""
    if family.over_naturals:
        raise ValueError("cannot snapshot a family over N")
    return _indicator(family.ground, family.contains)


def star(family):
    """The set of points whose singleton belongs to the family."""
    if isinstance(family, IndicatorFamily):
        bits, mask = family.bits, 0
        for i in range(len(family.ground)):
            if bits >> (1 << i) & 1:
                mask |= 1 << i
        if family._table is None:  # the public constructor keeps no table
            return _subset(family.ground, mask)
        return family._table[mask]
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
    return _indicator(family.ground, lambda s: not family.contains(s))


def complement_duality_check(family):
    """Exhaustively confirms: family co-eventual iff its complement family
    is eventual.  Returns the shared truth of that equivalence."""
    snap = to_indicator(family)
    return snap.classify().co_eventual.value == family_complement(snap).classify().eventual.value


def _push_codomain(f, source, codomain=None):
    """Validates a push map for a family or multifamily and returns its
    codomain: a PeriodicSeq pushes from N, a dict must be total on a finite
    ground, and either must land inside the codomain."""
    if isinstance(f, PeriodicSeq):
        if not source.over_naturals:
            raise ValueError("a PeriodicSeq pushes from N only")
        values = f.alphabet()
    else:
        if not isinstance(f, dict):
            raise TypeError("push takes a dict or a PeriodicSeq")
        if source.over_naturals:
            raise TypeError("dict maps push from finite grounds only")
        missing = set(source.ground) - set(f)
        if missing:
            raise ValueError(f"map is not total: missing {sorted(missing, key=repr)}")
        values = tuple(dict.fromkeys(f[x] for x in source.ground))
    if codomain is None:
        return values
    codomain = tuple(codomain)
    stray = set(values) - set(codomain)
    if stray:
        raise ValueError(f"values {sorted(stray, key=repr)} leave the codomain")
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
    codomain = as_ground(_push_codomain(f, family, codomain))
    return _indicator(codomain, lambda s: family.contains(_preimage(f, family.ground, s)))


# ---------------------------------------------------------------------------
# finite topologies


def _unclosed(opens):
    """(u, v, "|" or "&", w) for each pair u < v of the masks in the set
    ``opens``, in ascending order, whose union or intersection w it lacks."""
    for u, v in itertools.combinations(sorted(opens), 2):
        if u | v not in opens:
            yield u, v, "|", u | v
        if u & v not in opens:
            yield u, v, "&", u & v


class FiniteTopology:
    """A topology on a finite ground: validated to contain the empty set and
    the ground and to be closed under pairwise unions and intersections.
    The opens are kept as masks, in ascending order."""

    def __init__(self, ground, opens):
        self.ground = _finite_ground(ground, "topologies")
        index = _ground_bits(self.ground)
        masks = {_mask(index, u) for u in opens}
        if not {0, (1 << len(self.ground)) - 1} <= masks:
            raise ValueError("opens must contain the empty set and the ground")
        for u, v, op, _ in _unclosed(masks):
            word = "union" if op == "|" else "intersection"
            left, right = (sorted(_subset(self.ground, m), key=repr) for m in (u, v))
            raise ValueError(f"opens not closed under {word}: {left} {op} {right}")
        self._masks = tuple(sorted(masks))

    @classmethod
    def _from_masks(cls, ground, masks):
        """A topology on a checked ``ground`` whose open ``masks`` are closed."""
        top = cls.__new__(cls)
        top.ground, top._masks = ground, tuple(sorted(masks))
        return top

    @functools.cached_property
    def opens(self):
        """The opens as frozensets: the public view of the masks."""
        return frozenset(u for u, _, _ in self._lattice)

    def __eq__(self, other):
        if not isinstance(other, FiniteTopology):
            return NotImplemented
        return set(self.ground) == set(other.ground) and self.opens == other.opens

    def __hash__(self):
        return hash((frozenset(self.ground), self.opens))

    def __repr__(self):
        # mask order: mixed-type elements do not sort
        shown = [sorted(u, key=repr) for u, _, _ in self._lattice]
        return f"FiniteTopology(ground={self.ground!r}, opens={shown})"

    def is_open(self, s):
        return check_set_arg(self.ground, s) in self.opens

    def is_closed(self, s):
        return frozenset(self.ground) - check_set_arg(self.ground, s) in self.opens

    def neighborhoods(self, x):
        if x not in self.ground:
            raise ValueError(f"{x!r} is not a ground element")
        bit = 1 << self.ground.index(x)
        return [u for u, m, _ in self._lattice if m & bit]

    @functools.cached_property
    def _table(self):
        """The ground's subsets, indexed by mask: ``_subsets(ground)``."""
        return _subsets(self.ground)

    @functools.cached_property
    def _lattice(self):
        """Each open U as (U, its mask, its down-set), in mask order: bit s
        of the down-set is set iff the subset with mask s lies inside U."""
        rows = []
        for m in self._masks:
            down, s = 1, m
            while s:  # the nonempty submasks of m, downward
                down |= 1 << s
                s = (s - 1) & m
            rows.append((self._table[m], m, down))
        return tuple(rows)

    @functools.cached_property
    def _open_bits(self):
        """The open masks as one bitset: bit m is set iff mask m is open."""
        return sum(1 << m for m in self._masks)

    @classmethod
    def discrete(cls, ground):
        return cls(ground, powerset(ground))

    @classmethod
    def indiscrete(cls, ground):
        return cls(ground, [frozenset(), frozenset(ground)])

    @classmethod
    def from_subbasis(cls, ground, subbasis):
        ground = _finite_ground(ground, "topologies")
        index = _ground_bits(ground)
        opens = {0, (1 << len(ground)) - 1, *(_mask(index, s) for s in subbasis)}
        while fresh := {w for *_, w in _unclosed(opens)}:
            opens |= fresh
        return cls._from_masks(ground, opens)


def all_topologies(ground):
    """Every topology on a small finite ground, by brute enumeration."""
    ground = _finite_ground(ground, "topologies")
    n = len(ground)
    if n > 4:
        raise ValueError("exhaustive topology enumeration is limited to |X| <= 4")
    full = (1 << n) - 1
    optional = _powerset_masks(n)[1:-1]  # all but the empty set and the ground
    out = []
    for pick in range(2 ** len(optional)):
        opens = {0, full, *(m for i, m in enumerate(optional) if pick >> i & 1)}
        if next(_unclosed(opens), None) is None:
            out.append(FiniteTopology._from_masks(ground, opens))
    return out


def random_topology(ground, rng):
    ground = _finite_ground(ground, "topologies")
    k = rng.randrange(5)  # at most four subbasis sets
    subbasis = [[x for x in ground if rng.random() < 0.5] for _ in range(k)]
    return FiniteTopology.from_subbasis(ground, subbasis)


# ---------------------------------------------------------------------------
# closure and limit sets


def _check_same_ground(family, topology):
    """A family or multifamily and a topology must share a finite ground."""
    if family.ground == topology.ground:
        return
    if family.over_naturals or set(family.ground) != set(topology.ground):
        raise ValueError("the family and the topology must share a finite ground")


def _missing_opens(family, topology):
    """The bitset of the open masks not in the family: one AND when the
    family's masks are the topology's, one ``contains`` per open otherwise."""
    if isinstance(family, IndicatorFamily) and family.ground == topology.ground:
        return topology._open_bits & ~family.bits
    _check_same_ground(family, topology)
    return sum(1 << m for u, m, _ in topology._lattice if not family.contains(u))


def limit_set(family, topology):
    """Points all of whose open neighborhoods belong to the family: the
    ground minus the union of the opens outside it."""
    outside, covered = _missing_opens(family, topology), 0
    while outside:
        low = outside & -outside
        covered |= low.bit_length() - 1  # the open mask of this set bit
        outside ^= low
    return topology._table[((1 << len(topology.ground)) - 1) ^ covered]


def closure_family(family, topology):
    """Sets all of whose open supersets belong to the family: those outside
    the down-set of every open outside it."""
    outside, out = _missing_opens(family, topology), 0
    for _, m, down in topology._lattice:
        if outside >> m & 1:
            out |= down
    every = (1 << (1 << len(topology.ground))) - 1
    return IndicatorFamily._from_bits(topology.ground, every ^ out, topology._table)


# ---------------------------------------------------------------------------
# JSON


def _sorted_sets(ground, sets):
    order = {x: i for i, x in enumerate(ground)}
    listed = [sorted(s, key=order.__getitem__) for s in sets]
    return sorted(listed, key=lambda xs: (len(xs), [order[x] for x in xs]))


# class -> its kind and the writer of the fields past ground and kind,
# found by exact type: a subclass is refused, never written as its base
_FAMILY_JSON = {
    EmptyFamily: ("empty", lambda fam: {}),
    AllFamily: ("all", lambda fam: {}),
    CofiniteFamily: ("cofinite", lambda fam: {}),
    InfiniteFamily: ("infinite", lambda fam: {}),
    CoGapLevelFamily: ("cogap_level", lambda fam: {"c": fam.c.to_json()}),
    IndicatorFamily: ("indicator", lambda fam: {"sets": _sorted_sets(fam.ground, fam.sets)}),
}


def family_to_json(family):
    if type(family) not in _FAMILY_JSON:
        raise ValueError(f"family {type(family).__name__} has no JSON form")
    kind, fields = _FAMILY_JSON[type(family)]
    ground = "N" if family.ground is NATURALS else list(family.ground)
    return {"ground": ground, "kind": kind, **fields(family)}
