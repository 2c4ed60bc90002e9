"""Exact algebra on eventually periodic subsets of the positive integers.

The ground set is N = {1, 2, 3, ...}.  An EPSet stores membership as a
finite prefix of bits followed by a repeating period word, so membership,
complement, finite edits, and the gap/cogap statistics are all exactly
computable.  Bit position j (0-based) describes the integer j + 1.

gap(S) is the largest number of consecutive missing integers between
successive elements of S that keeps recurring forever; it is infinite for
finite S (the empty set included).  cogap(S) = gap of the complement, which
measures the recurring runs of consecutive integers inside S itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

__all__ = [
    "ExtNat",
    "INF",
    "EPSet",
    "PeriodicSeq",
    "complement",
    "finitely_change",
    "union",
    "intersection",
    "gap",
    "cogap",
    "window_cover",
    "random_epset",
]


@functools.total_ordering
class ExtNat:
    """An element of {0, 1, 2, ...} extended with infinity.

    Infinity is stored as ``None``.  Comparisons also accept plain ints so
    ``gap(s) >= 2`` reads naturally; ``min``/``max`` work through the
    ordering.  No arithmetic beyond comparison is provided.
    """

    __slots__ = ("value",)

    def __init__(self, value=None):
        if value is not None and (
            not isinstance(value, int) or isinstance(value, bool) or value < 0
        ):
            raise ValueError(f"expected a nonnegative int or None, got {value!r}")
        self.value = value

    @property
    def is_finite(self):
        return self.value is not None

    def __eq__(self, other):
        if isinstance(other, ExtNat):
            return self.value == other.value
        if isinstance(other, int) and not isinstance(other, bool):
            return self.value == other
        return NotImplemented

    def __lt__(self, other):
        if isinstance(other, ExtNat):
            other = other.value
        elif not isinstance(other, int) or isinstance(other, bool):
            return NotImplemented
        if self.value is None:
            return False
        if other is None:
            return True
        return self.value < other

    def __hash__(self):
        # matches hash(int) for finite values, so ExtNat(3) == 3 stays
        # consistent in dicts and sets
        return hash(self.value)

    def __repr__(self):
        return "ExtNat(inf)" if self.value is None else f"ExtNat({self.value})"

    def __str__(self):
        return "inf" if self.value is None else str(self.value)

    def to_json(self):
        return "inf" if self.value is None else self.value

    @classmethod
    def from_json(cls, obj):
        if obj == "inf":
            return INF
        return cls(obj)

    @classmethod
    def of(cls, value):
        """Coerce an int, "inf", math.inf, None, or ExtNat to an ExtNat."""
        if isinstance(value, cls):
            return value
        if value is None or value == "inf" or value == math.inf:
            return INF
        return cls(value)


INF = ExtNat(None)


def _bits(seq):
    out = []
    for b in seq:
        if b in (0, 1, False, True):
            out.append(int(b))
        elif b in ("0", "1"):
            out.append(int(b))
        else:
            raise ValueError(f"membership bits must be 0 or 1, got {b!r}")
    return tuple(out)


def _minimal_word_period(word):
    # KMP border analysis.  The shortest string period s of the word is a
    # period of the infinite repetition only when s divides the length;
    # otherwise the word itself is already minimal.
    q = len(word)
    border = [0] * q
    k = 0
    for i in range(1, q):
        while k and word[i] != word[k]:
            k = border[k - 1]
        if word[i] == word[k]:
            k += 1
        border[i] = k
    s = q - border[-1]
    return s if q % s == 0 else q


def _canonicalize(prefix, period):
    if period and not any(period):
        period = ()
    if not period:
        pre = list(prefix)
        while pre and pre[-1] == 0:
            pre.pop()
        return tuple(pre), ()
    q = _minimal_word_period(period)
    per = list(period[:q])
    pre = list(prefix)
    # a trailing prefix bit that matches what the period (rotated one step
    # right) would produce there is redundant
    while pre and pre[-1] == per[-1]:
        per.insert(0, per.pop())
        pre.pop()
    return tuple(pre), tuple(per)


@dataclass(frozen=True)
class EPSet:
    """An eventually periodic subset of {1, 2, 3, ...} in canonical form.

    ``prefix`` fixes membership of 1..p explicitly; past that, membership
    repeats ``period``.  An empty period encodes a finite set.  Canonical
    form (minimal period word, then minimal prefix) is established on
    construction, so two EPSets describe the same set of integers exactly
    when they compare equal.
    """

    prefix: tuple[int, ...] = ()
    period: tuple[int, ...] = ()

    def __post_init__(self):
        pre, per = _canonicalize(_bits(self.prefix), _bits(self.period))
        object.__setattr__(self, "prefix", pre)
        object.__setattr__(self, "period", per)

    @classmethod
    def empty(cls):
        return cls((), ())

    @classmethod
    def naturals(cls):
        return cls((), (1,))

    @classmethod
    def finite(cls, indices):
        indices = set(indices)
        for n in indices:
            if not isinstance(n, int) or isinstance(n, bool) or n < 1:
                raise ValueError(f"indices must be integers >= 1, got {n!r}")
        top = max(indices, default=0)
        return cls(tuple(1 if j + 1 in indices else 0 for j in range(top)), ())

    @classmethod
    def from_text(cls, text):
        """Parse the text form ``"prefix=101;period=01"``."""
        fields = {}
        for chunk in text.strip().split(";"):
            if not chunk.strip():
                continue
            key, sep, val = chunk.partition("=")
            if not sep:
                raise ValueError(f"bad EPSet field {chunk!r}")
            fields[key.strip()] = val.strip()
        unknown = set(fields) - {"prefix", "period"}
        if unknown:
            raise ValueError(f"unknown EPSet fields {sorted(unknown)}")
        return cls(fields.get("prefix", ""), fields.get("period", ""))

    def to_text(self):
        return "prefix={};period={}".format(
            "".join(map(str, self.prefix)), "".join(map(str, self.period))
        )

    @property
    def is_finite(self):
        return not self.period

    def member(self, n):
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError(f"index must be an integer >= 1, got {n!r}")
        j = n - 1
        if j < len(self.prefix):
            return bool(self.prefix[j])
        if not self.period:
            return False
        return bool(self.period[(j - len(self.prefix)) % len(self.period)])

    def __contains__(self, n):
        return self.member(n)

    def indices_upto(self, n):
        """Sorted members that are <= n."""
        return [k for k in range(1, n + 1) if self.member(k)]

    def __or__(self, other):
        return union(self, other)

    def __and__(self, other):
        return intersection(self, other)

    def __invert__(self):
        return complement(self)

    def __repr__(self):
        return f"EPSet({self.to_text()!r})"


def complement(s):
    flipped = tuple(1 - b for b in s.prefix)
    if s.period:
        return EPSet(flipped, tuple(1 - b for b in s.period))
    # finite set: the complement's tail is everything
    return EPSet(flipped, (1,))


def finitely_change(s, add=(), remove=()):
    """Add and remove finitely many indices; the eventual tail is untouched."""
    add = frozenset(add)
    remove = frozenset(remove)
    for n in add | remove:
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError(f"indices must be integers >= 1, got {n!r}")
    overlap = add & remove
    if overlap:
        raise ValueError(f"add and remove overlap: {sorted(overlap)}")
    top = max([len(s.prefix), *add, *remove])
    bits = [1 if s.member(j + 1) else 0 for j in range(top)]
    for n in add:
        bits[n - 1] = 1
    for n in remove:
        bits[n - 1] = 0
    if s.period:
        shift = (top - len(s.prefix)) % len(s.period)
        per = s.period[shift:] + s.period[:shift]
    else:
        per = ()
    return EPSet(tuple(bits), per)


def _pointwise(a, b, op):
    if not isinstance(a, EPSet) or not isinstance(b, EPSet):
        raise TypeError("pointwise operations need two EPSets")
    p = max(len(a.prefix), len(b.prefix))
    qa, qb = len(a.period), len(b.period)
    q = math.lcm(qa, qb) if qa and qb else (qa or qb)
    pre = tuple(op(a.member(j + 1), b.member(j + 1)) for j in range(p))
    per = tuple(op(a.member(p + j + 1), b.member(p + j + 1)) for j in range(q))
    return EPSet(pre, per)


def union(a, b):
    return _pointwise(a, b, lambda x, y: 1 if (x or y) else 0)


def intersection(a, b):
    return _pointwise(a, b, lambda x, y: 1 if (x and y) else 0)


def window_cover(positions, length, cyclic=False):
    """Smallest w such that every w consecutive indices of range(length)
    contain one of the sorted, nonempty ``positions``; with ``cyclic`` the
    windows wrap around, as for a period word repeated forever.

    gap is the cyclic cover of a period word's members, minus one.  A
    control's window constant and a trace's follows window are the covers
    of the steps that apply each operator.
    """
    if not positions:
        raise ValueError("no positions: no window length covers the range")
    if cyclic:
        worst = positions[0] + length - positions[-1]
    else:
        worst = max(positions[0] + 1, length - positions[-1])
    for a, b in zip(positions, positions[1:]):
        if b - a > worst:
            worst = b - a
    return worst


def gap(s):
    """Largest count of consecutive missing integers between successive
    elements of S that recurs forever; infinite when S is finite.

    Exact from the canonical representation: every gap between consecutive
    elements of the periodic tail repeats once per period (including the
    wrap between period copies), while the finitely many gaps touching the
    prefix never affect the eventual maximum.
    """
    if s.is_finite:
        return INF
    ones = [i for i, b in enumerate(s.period) if b]
    return ExtNat(window_cover(ones, len(s.period), cyclic=True) - 1)


def cogap(s):
    """gap of the complement: the recurring run length inside S itself."""
    return gap(complement(s))


@dataclass(frozen=True)
class PeriodicSeq:
    """An eventually periodic map from {1, 2, ...} into an arbitrary value
    alphabet.  Preimages of value sets are EPSets, which lets families and
    multifamilies over N be pushed forward exactly."""

    prefix: tuple = ()
    period: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(self.prefix))
        object.__setattr__(self, "period", tuple(self.period))
        if not self.period:
            raise ValueError("period must be nonempty so the map is total")

    @classmethod
    def constant(cls, value):
        return cls((), (value,))

    def value(self, n):
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError(f"index must be an integer >= 1, got {n!r}")
        j = n - 1
        if j < len(self.prefix):
            return self.prefix[j]
        return self.period[(j - len(self.prefix)) % len(self.period)]

    def alphabet(self):
        """Distinct values, in first-appearance order."""
        seen, out = set(), []
        for v in self.prefix + self.period:
            if v not in seen:
                seen.add(v)
                out.append(v)
        return tuple(out)

    def preimage(self, values):
        values = set(values)
        return EPSet(
            tuple(1 if v in values else 0 for v in self.prefix),
            tuple(1 if v in values else 0 for v in self.period),
        )


def random_epset(rng, max_prefix=8, max_period=12):
    """Random canonical EPSet drawn with a random.Random instance."""
    p = rng.randrange(max_prefix + 1)
    q = rng.randrange(max_period + 1)
    pre = tuple(rng.randrange(2) for _ in range(p))
    per = tuple(rng.randrange(2) for _ in range(q))
    return EPSet(pre, per)
