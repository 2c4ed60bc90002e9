"""Exact algebra on eventually periodic subsets of the positive integers.

The ground set is N = {1, 2, 3, ...}.  An EPSet stores membership as a
finite prefix of bits followed by a repeating period word, so membership,
complement, finite edits, and the gap/cogap statistics are all exactly
computable.  Bit position j (0-based) describes the integer j + 1.

gap(S) is the largest number of consecutive missing integers between
successive elements of S that keeps recurring forever; it is infinite for
finite S (the empty set included).  cogap(S) = gap of the complement, which
measures the recurring runs of consecutive integers inside S itself.  Both
are read off the tail word by one helper, ``_recurring_gap``, so cogap
builds no complement.  That helper hands the word itself to
``window_cover``, the one window statistic, which reads the runs of a 0/1
word without a given bit: it translates the bit to whitespace and every
other byte to a letter, and ``bytes.split()`` returns the nonempty runs.

Both words are ``bytes`` whose bytes are all 0 or 1, so the operations are
byte-string built-ins: ``find`` for the minimal period, ``rstrip`` and
slices for canonical form, ``translate`` for complement, and one int OR or
AND for union and intersection.  ``EPSet(prefix, period)`` and
``EPSet.from_text`` check every bit of their input: a tuple, list or
``bytes`` of 0/1 ints is read in one ``bytes`` call, and anything else, or
a word with a bad bit, item by item, so a refusal names the first bad
item.  The operations here build their results with ``EPSet._of``, which
trusts its 0/1 words and only puts them in canonical form.
"""

from __future__ import annotations

import functools
import math
import operator
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
    def of(cls, value):
        """Coerce an int, "inf", math.inf, None, or ExtNat to an ExtNat."""
        if isinstance(value, cls):
            return value
        if value is None or value == "inf" or value == math.inf:
            return INF
        return cls(value)


INF = ExtNat(None)


def _check_index(n, many=False):
    """Refuse n unless it is an int >= 1; ``many`` words it for a collection."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        what = "indices must be integers" if many else "index must be an integer"
        raise ValueError(f"{what} >= 1, got {n!r}")


def _bits(seq):
    if isinstance(seq, (tuple, list, bytes)):
        try:
            word = bytes(seq)
        except (TypeError, ValueError):  # str or float items, ints past a byte
            pass
        else:
            if not word.translate(None, b"\0\1"):
                return word
    # anything else, and any word that fails the fast check, is read (and
    # refused) item by item
    out = bytearray()
    for b in seq:
        if b not in (0, 1, "0", "1"):
            raise ValueError(f"membership bits must be 0 or 1, got {b!r}")
        out.append(int(b))
    return bytes(out)


def _minimal_word_period(word):
    # The shortest d dividing q with word = word[:d] repeated: by Fine and
    # Wilf, the shortest period of the infinite repetition divides q.  It is
    # also the least rotation that maps the word onto itself, i.e. the first
    # place past 0 where the word occurs in two copies of itself.
    return (word + word).find(word, 1)


def _canonicalize(prefix, period):
    if 1 not in period:
        return prefix.rstrip(b"\0"), b""
    period = period[:_minimal_word_period(period)]
    # a trailing prefix bit that matches what the period (rotated one step
    # right) would produce there is redundant
    while prefix and prefix[-1] == period[-1]:
        prefix, period = prefix[:-1], period[-1:] + period[:-1]
    return prefix, period


@dataclass(frozen=True)
class EPSet:
    """An eventually periodic subset of {1, 2, 3, ...} in canonical form.

    ``prefix`` fixes membership of 1..p explicitly; past that, membership
    repeats ``period``.  An empty period encodes a finite set.  Canonical
    form (minimal period word, then minimal prefix) is established on
    construction, so two EPSets describe the same set of integers exactly
    when they compare equal.
    """

    prefix: bytes = b""
    period: bytes = b""

    def __post_init__(self):
        pre, per = _canonicalize(_bits(self.prefix), _bits(self.period))
        object.__setattr__(self, "prefix", pre)
        object.__setattr__(self, "period", per)

    @classmethod
    def _of(cls, prefix, period):
        """The canonical EPSet of two iterables of 0/1 ints, unchecked:
        for words this module and its callers build themselves."""
        s = object.__new__(cls)
        pre, per = _canonicalize(bytes(prefix), bytes(period))
        object.__setattr__(s, "prefix", pre)
        object.__setattr__(s, "period", per)
        return s

    @classmethod
    def empty(cls):
        return cls._of(b"", b"")

    @classmethod
    def naturals(cls):
        return cls._of(b"", b"\1")

    @classmethod
    def finite(cls, indices):
        indices = set(indices)
        for n in indices:
            _check_index(n, many=True)
        top = max(indices, default=0)
        return cls._of(tuple(1 if j + 1 in indices else 0 for j in range(top)), ())

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
            key = key.strip()
            if key in fields:
                raise ValueError(f"repeated EPSet field {key!r}")
            fields[key] = val.strip()
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

    @property
    def is_cofinite(self):
        # canonical form reduces any all-ones period word to b"\1"
        return self.period == b"\1"

    def member(self, n):
        _check_index(n)
        j = n - 1
        if j < len(self.prefix):
            return bool(self.prefix[j])
        if not self.period:
            return False
        return bool(self.period[(j - len(self.prefix)) % len(self.period)])

    def __contains__(self, n):
        return self.member(n)

    def __or__(self, other):
        return union(self, other)

    def __and__(self, other):
        return intersection(self, other)

    def __invert__(self):
        return complement(self)

    def __repr__(self):
        return f"EPSet({self.to_text()!r})"


_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


def complement(s):
    # a finite set's tail word is b"\0", so its complement's is b"\1"
    return EPSet._of(s.prefix.translate(_FLIP), (s.period or b"\0").translate(_FLIP))


def finitely_change(s, add=(), remove=()):
    """Add and remove finitely many indices; the eventual tail is untouched."""
    add = frozenset(add)
    remove = frozenset(remove)
    for n in add | remove:
        _check_index(n, many=True)
    overlap = add & remove
    if overlap:
        raise ValueError(f"add and remove overlap: {sorted(overlap)}")
    return (s | EPSet.finite(add)) & ~EPSet.finite(remove)


def _word(s, n):
    """The first n membership bits of ``s`` (bit j for the integer j + 1):
    its prefix, then its period repeated, or zeros past a finite set."""
    tail = s.period or b"\0"
    reps = -(-max(n - len(s.prefix), 0) // len(tail))
    return (s.prefix + tail * reps)[:n]


def _pointwise(a, b, op):
    """``op`` over the aligned words of a and b, the longer prefix and then
    one lcm of the two periods, read as ints: exact for OR and AND, as every
    byte is 0 or 1 and neither operation carries."""
    if not isinstance(a, EPSet) or not isinstance(b, EPSet):
        raise TypeError("pointwise operations need two EPSets")
    p = max(len(a.prefix), len(b.prefix))
    qa, qb = len(a.period), len(b.period)
    q = math.lcm(qa, qb) if qa and qb else (qa or qb)
    n = p + q
    word = op(int.from_bytes(_word(a, n), "big"), int.from_bytes(_word(b, n), "big"))
    bits = word.to_bytes(n, "big")
    return EPSet._of(bits[:p], bits[p:])


def union(a, b):
    return _pointwise(a, b, operator.or_)


def intersection(a, b):
    return _pointwise(a, b, operator.and_)


#: per bit, the translation that turns the bit into b" " and every other
#: byte into b"x", so that ``bytes.split()`` returns the runs without it
_BLANK_AT = {bit: bytes(32 if v == bit else 120 for v in range(256)) for bit in (0, 1)}


def window_cover(word, bit=1, cyclic=False):
    """Smallest w such that every w consecutive places of the 0/1 byte
    string ``word`` hold ``bit`` (1 or 0): one more than its longest run
    without ``bit``.  With ``cyclic`` the windows wrap around, as for a
    period word repeated forever, so the runs at its two ends join when
    neither end holds ``bit``.

    The runs are read in C: ``word`` is translated so that ``bit`` becomes
    whitespace and every other byte a letter, and ``bytes.split()`` with no
    argument drops the empty runs between adjacent ``bit`` bytes, so a word
    full of ``bit`` lists no runs at all.

    gap is the cyclic cover of a period word minus one, and cogap the same
    with ``bit`` 0.  A control's window constant and a trace's follows
    window are the covers of the 0/1 words of the steps that apply each
    operator.
    """
    if bit not in word:
        raise ValueError(f"no {bit} in the word: no window length covers it")
    runs = word.translate(_BLANK_AT[bit]).split()
    if cyclic and word[0] != bit and word[-1] != bit:
        runs[0] += runs.pop()
    # every run is b"x" repeated, so the greatest in byte order is the longest
    return 1 + len(max(runs, default=b""))


def _recurring_gap(s, bit):
    """Longest run of integers without ``bit`` that recurs forever, read
    off the tail word ``s.period or b"\\0"`` (as in ``_word``): infinite when
    the word lacks ``bit``, else its cyclic window cover minus one.

    The finitely many runs that touch the prefix never recur, and every run
    in the tail, the wrap between period copies included, recurs once per
    period.
    """
    word = s.period or b"\0"
    if bit not in word:
        return INF
    return ExtNat(window_cover(word, bit, cyclic=True) - 1)


def gap(s):
    """Largest count of consecutive missing integers between successive
    elements of S that recurs forever; infinite when S is finite."""
    return _recurring_gap(s, 1)


def cogap(s):
    """gap of the complement: the recurring run length inside S itself."""
    return _recurring_gap(s, 0)


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
        _check_index(n)
        j = n - 1
        if j < len(self.prefix):
            return self.prefix[j]
        return self.period[(j - len(self.prefix)) % len(self.period)]

    def alphabet(self):
        """Distinct values, in first-appearance order."""
        return tuple(dict.fromkeys(self.prefix + self.period))

    def preimage(self, values):
        values = set(values)
        return EPSet._of(
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
