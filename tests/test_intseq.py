import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evfam.checks import _brute_gap
from evfam.intseq import (
    EPSet,
    ExtNat,
    INF,
    PeriodicSeq,
    _minimal_word_period,
    cogap,
    complement,
    finitely_change,
    gap,
    intersection,
    random_epset,
    union,
    window_cover,
)

EVENS = EPSet((), (0, 1))
ODDS = EPSet((), (1, 0))


# ---------------------------------------------------------------------------
# oracle: membership-only tail scan, written before gap() and kept free of
# any period analysis


def gap_oracle(s, horizon=None):
    """Max gap between consecutive elements lying beyond the prefix, read
    off a brute-force membership scan; infinity for finite sets."""
    if s.is_finite:
        return INF
    p, q = len(s.prefix), len(s.period)
    if horizon is None:
        horizon = p + 4 * q
    elems = [n for n in range(p + 1, horizon + 1) if s.member(n)]
    assert len(elems) >= 2, "horizon too short for the tail scan"
    return ExtNat(max(b - a - 1 for a, b in zip(elems, elems[1:])))


# ---------------------------------------------------------------------------
# ExtNat


def test_extnat_ordering_and_hash():
    assert ExtNat(0) < ExtNat(3) < INF
    assert ExtNat(3) == 3
    assert INF == INF and not (INF < INF)
    assert ExtNat(2) >= 2 and INF > 10**9
    assert min(INF, ExtNat(4)) == 4
    assert max(ExtNat(1), INF) == INF
    assert hash(ExtNat(5)) == hash(5)
    assert ExtNat.of("inf") == INF and ExtNat.of(7) == ExtNat(7)


def test_extnat_rejects_bad_values():
    with pytest.raises(ValueError):
        ExtNat(-1)
    with pytest.raises(ValueError):
        ExtNat(2.5)


def test_extnat_to_json():
    assert ExtNat(9).to_json() == 9
    assert INF.to_json() == "inf"


# ---------------------------------------------------------------------------
# canonical form


def test_canonical_collapses_repeated_period():
    assert EPSet((), (0, 1, 0, 1)) == EVENS
    assert EPSet((), (1, 1)) == EPSet.naturals()


def test_canonical_absorbs_redundant_prefix():
    # prefix bit 0 followed by period 10 is just the evens
    assert EPSet((0,), (1, 0)) == EVENS
    assert EPSet((1, 1), (1,)) == EPSet.naturals()


def test_canonical_finite_forms():
    assert EPSet((0, 0, 0), ()) == EPSet.empty()
    assert EPSet((1, 0, 1, 0), ()) == EPSet.finite({1, 3})
    # an all-zero period word is the same thing as no period at all
    assert EPSet((1,), (0, 0)) == EPSet.finite({1})


def test_rejects_bad_bits():
    with pytest.raises(ValueError):
        EPSet((2,), ())
    with pytest.raises(ValueError):
        EPSet.from_text("prefix=abc;period=")


@pytest.mark.parametrize(
    "word", [(1, 0), [1, 0], b"\1\0", "10", ("1", "0"), (True, False), (1.0, 0)]
)
def test_bits_accepts_every_spelling_of_a_word(word):
    # tuples, lists and bytes of 0/1 ints take one bytes() pass; the rest
    # are read item by item
    s = EPSet(word, word)
    assert (s.prefix, s.period) == (b"", b"\1\0")
    assert s == ODDS
    assert EPSet(word) == EPSet.finite({1})


@pytest.mark.parametrize("word, bad", [((2,), "2"), (b"10", "49"), ((256,), "256"),
                                       ([0, -1], "-1"), ((1, "2"), "'2'")])
def test_bits_refuses_a_bad_bit_by_name(word, bad):
    with pytest.raises(ValueError, match=f"^membership bits must be 0 or 1, got {bad}$"):
        EPSet(word)
    with pytest.raises(ValueError, match=f"^membership bits must be 0 or 1, got {bad}$"):
        EPSet((), word)


def test_bits_refuses_a_non_word():
    # an int is no word; bytes(5) would be five zero bits
    with pytest.raises(TypeError):
        EPSet(5)
    with pytest.raises(TypeError):
        EPSet((), 5)


def test_text_round_trip():
    # prefix 101 followed by period 01 is the odds; formatting emits the
    # canonical spelling but the value survives the round trip
    s = EPSet.from_text("prefix=101;period=01")
    assert s == ODDS
    assert s.to_text() == "prefix=;period=10"
    assert EPSet.from_text("prefix=;period=") == EPSet.empty()
    assert EPSet.from_text(s.to_text()) == s


def test_from_text_refuses_a_repeated_field():
    with pytest.raises(ValueError, match="repeated EPSet field 'prefix'"):
        EPSet.from_text("prefix=1;prefix=0;period=1")
    with pytest.raises(ValueError, match="repeated EPSet field 'period'"):
        EPSet.from_text("period=1; period =1")


# ---------------------------------------------------------------------------
# membership and editing


def test_member_examples():
    assert EVENS.member(4)
    assert not EVENS.member(7)
    assert 2 in EVENS and 1 in ODDS
    with pytest.raises(ValueError):
        EVENS.member(0)


def test_member_total_on_prefix_and_tail():
    s = EPSet((1, 0, 0, 1), (0, 1, 1))
    got = [s.member(n) for n in range(1, 14)]
    # prefix 1001, then 011 repeating
    assert got == [True, False, False, True, False, True, True, False, True, True, False, True, True]


def test_complement_involution_examples():
    assert complement(EVENS) == ODDS
    assert complement(complement(EPSet((1, 0, 1), (0, 1, 1)))) == EPSet((1, 0, 1), (0, 1, 1))
    assert complement(EPSet.empty()) == EPSet.naturals()
    assert complement(EPSet.finite({2})) == EPSet((1, 0), (1,))


def test_finitely_change_example():
    # evens with 1 added and 2 removed: {1, 4, 6, 8, ...}
    s = finitely_change(EVENS, add={1}, remove={2})
    assert [n for n in range(1, 10) if n in s] == [1, 4, 6, 8]
    assert s == EPSet((1, 0, 0), (1, 0))


def test_finitely_change_rejects_overlap():
    with pytest.raises(ValueError):
        finitely_change(EVENS, add={2}, remove={2})
    with pytest.raises(ValueError):
        finitely_change(EVENS, add={0})
    # a bad index is named before an overlap
    with pytest.raises(ValueError, match=r"indices must be integers >= 1, got 0"):
        finitely_change(EVENS, add={0, 2}, remove={2})
    with pytest.raises(ValueError, match=r"add and remove overlap: \[2, 5\]"):
        finitely_change(EVENS, add={2, 5}, remove={5, 2, 9})


def test_union_intersection():
    assert union(EVENS, ODDS) == EPSet.naturals()
    assert intersection(EVENS, ODDS) == EPSet.empty()
    assert (EVENS | EPSet.finite({1})) == EPSet((1,), (1, 0))
    assert (EVENS & EPSet.naturals()) == EVENS
    fin = EPSet.finite({2, 4, 9})
    assert intersection(fin, EVENS) == EPSet.finite({2, 4})


# ---------------------------------------------------------------------------
# gap / cogap, frozen expected values checked against the oracle


def test_gap_frozen_values():
    assert gap(EVENS) == 1 == gap_oracle(EVENS)
    assert gap(ODDS) == 1 == gap_oracle(ODDS)
    assert gap(EPSet.naturals()) == 0
    assert gap(EPSet.empty()) == INF
    assert gap(EPSet.finite({3, 7})) == INF
    # one element every five positions: four missing in between
    s = EPSet((), (1, 0, 0, 0, 0))
    assert gap(s) == 4 == gap_oracle(s)


def test_gap_sees_wraparound():
    # ones at positions 1 and 2 of 10110...0: the recurring worst gap wraps
    s = EPSet((), (0, 1, 1, 0, 0, 0))
    assert gap(s) == 4 == gap_oracle(s)


def test_gap_ignores_prefix():
    sparse_prefix = EPSet((1, 0, 0, 0, 0, 0, 0, 0, 0, 1), (1, 1, 0))
    base = EPSet((), (1, 1, 0))
    assert gap(sparse_prefix) == gap(base) == 1


def test_cogap_frozen_values():
    assert cogap(ODDS) == 1
    assert cogap(EVENS) == 1
    assert cogap(EPSet.naturals()) == INF
    assert cogap(complement(EPSet.finite({5}))) == INF  # cofinite
    assert cogap(EPSet.empty()) == 0
    assert cogap(EPSet.finite({1, 2, 3})) == 0
    # recurring runs of length 3
    s = EPSet((), (1, 1, 1, 0, 0))
    assert cogap(s) == 3


def test_gap_oracle_agreement_on_corpus():
    rng = random.Random(1)
    for _ in range(300):
        s = random_epset(rng)
        if s.is_finite:
            assert gap(s) == INF
        else:
            assert gap(s) == gap_oracle(s), s
        assert cogap(s) == gap(complement(s))


def cover_oracle(positions, length, cyclic):
    """Smallest w whose every window of w consecutive indices, read off a
    brute-force scan of all windows, holds a position."""
    hits = set(positions)
    for w in range(1, 2 * length + 1):
        starts = range(length) if cyclic else range(length - w + 1)
        if all(any((a + j) % length in hits for j in range(w)) for a in starts):
            return w
    raise AssertionError("no window covers the range")


def test_window_cover_examples():
    assert window_cover(b"\1\0\1\0\1\0") == 2
    assert window_cover(b"\0\1\0\0\0\0") == 5  # the last five indices miss it
    assert window_cover(b"\0\1\0\0\0\0", cyclic=True) == 6
    assert window_cover(b"\1\1\0\0\0\0", cyclic=True) == 5
    assert window_cover(b"\1\1\0\0\0\0", bit=0) == 3
    assert window_cover(b"\1\1\0\0\0\0", bit=0, cyclic=True) == 3
    for word in (b"", b"\0\0\0\0"):
        with pytest.raises(ValueError, match=r"^no 1 in the word: no window length covers it$"):
            window_cover(word)
    with pytest.raises(ValueError, match=r"^no 0 in the word: no window length covers it$"):
        window_cover(b"\1\1", bit=0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=16), st.booleans())
def test_window_cover_matches_window_scan(bits, cyclic):
    word = bytes(bits)
    for bit in (1, 0):
        positions = [i for i, b in enumerate(bits) if b == bit]
        if positions:
            assert window_cover(word, bit, cyclic) == cover_oracle(positions, len(bits), cyclic)
        else:
            with pytest.raises(ValueError):
                window_cover(word, bit, cyclic)


def linear_cover(positions, length, cyclic):
    """The cover read off the sorted positions that hold the bit: the
    largest step from one position to the next, from just before the word
    to the first and from the last to just past the word, or with
    ``cyclic`` from the last around to the first."""
    steps = [b - a for a, b in zip(positions, positions[1:])]
    if cyclic:
        steps.append(positions[0] + length - positions[-1])
    else:
        steps += [positions[0] + 1, length - positions[-1]]
    return max(steps)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3000), st.sampled_from([0.86, 0.11]), st.integers(0, 2**32 - 1),
       st.booleans())
@example(3000, 1.0, 0, False)  # all ones: no run without bit 1
@example(3000, 0.86, 7, True)
def test_window_cover_matches_positions_on_long_words(length, density, seed, cyclic):
    # dense words like halfspace-large's follows masks, sparse ones like
    # ball-bounce's, read with either bit
    rng = random.Random(seed)
    word = bytes(rng.random() < density for _ in range(length))
    for bit in (1, 0):
        positions = [i for i, b in enumerate(word) if b == bit]
        if positions:
            assert window_cover(word, bit, cyclic) == linear_cover(positions, length, cyclic)
        else:
            with pytest.raises(ValueError, match=f"^no {bit} in the word"):
                window_cover(word, bit, cyclic)


# ---------------------------------------------------------------------------
# property tests

bit_lists = st.lists(st.integers(0, 1), max_size=8)
period_lists = st.lists(st.integers(0, 1), max_size=12)
epsets = st.builds(lambda p, q: EPSet(tuple(p), tuple(q)), bit_lists, period_lists)


@given(epsets, epsets)
def test_canonical_equality_iff_same_membership(a, b):
    horizon = max(len(a.prefix), len(b.prefix)) + 2 * (
        len(a.period) + len(b.period)
    ) + 2
    agree = all(a.member(n) == b.member(n) for n in range(1, horizon + 1))
    assert (a == b) == agree


@given(epsets)
def test_complement_is_involution(s):
    assert complement(complement(s)) == s


@given(epsets)
def test_complement_flips_membership(s):
    c = complement(s)
    for n in range(1, len(s.prefix) + 2 * max(1, len(s.period)) + 1):
        assert c.member(n) != s.member(n)


@given(epsets, epsets)
def test_gap_monotone_under_inclusion(s, extra):
    bigger = union(s, extra)
    assert gap(s) >= gap(bigger)
    assert cogap(s) <= cogap(bigger)


@given(
    epsets,
    st.sets(st.integers(1, 30), max_size=4),
    st.sets(st.integers(1, 30), max_size=4),
)
def test_gap_insensitive_to_finite_change(s, add, remove):
    remove = remove - add
    t = finitely_change(s, add=add, remove=remove)
    if not s.is_finite:
        assert gap(t) == gap(s)
        assert cogap(t) == cogap(s)
    else:
        assert t.is_finite and gap(t) == INF


@settings(max_examples=60)
@given(epsets, epsets)
def test_union_intersection_membership(a, b):
    u, i = union(a, b), intersection(a, b)
    horizon = max(len(a.prefix), len(b.prefix)) + 30
    for n in range(1, horizon):
        assert u.member(n) == (a.member(n) or b.member(n))
        assert i.member(n) == (a.member(n) and b.member(n))


def _horizon(*sets):
    """p + lcm + 5: the longest prefix, one lcm of the periods, five more."""
    p = max(len(s.prefix) for s in sets)
    return p + math.lcm(*(len(s.period) or 1 for s in sets)) + 5


@settings(max_examples=150, deadline=None)
@given(epsets, epsets)
@example(EPSet((1, 0, 1), ()), EPSet((), (0, 1)))  # an empty period
@example(EPSet((), (1, 0)), EPSet((0,), (0, 1, 1)))  # coprime periods
@example(EPSet((1,), (1, 0, 0)), EPSet((0, 0, 1, 1), (0, 1, 0)))  # equal periods
@example(EPSet((1, 1, 0, 0, 1, 0), (1, 0, 0, 0)), EPSet((0,), (0, 1)))  # unequal prefixes
def test_pointwise_words_match_member_reference(a, b):
    u, i = union(a, b), intersection(a, b)
    for n in range(1, _horizon(a, b) + 1):
        assert u.member(n) == (a.member(n) or b.member(n))
        assert i.member(n) == (a.member(n) and b.member(n))


@settings(max_examples=150, deadline=None)
@given(epsets, st.sets(st.integers(1, 20), max_size=4), st.sets(st.integers(1, 20), max_size=4))
@example(EPSet((1, 0, 1), ()), {5}, {1})  # an empty period
@example(EPSet((0,), (0, 1, 1)), {2, 9}, {3})  # edits past the prefix
@example(EPSet((1, 1, 0, 0, 1, 0), (1, 0, 0, 0)), set(), {2})
@example(EPSet((1,), (1, 1, 0)), {9, 14}, {10, 11})  # across period copies
def test_finitely_change_matches_member_reference(s, add, remove):
    remove = remove - add
    t = finitely_change(s, add=add, remove=remove)
    top = max([0, *add, *remove])
    for n in range(1, max(_horizon(s), top + len(s.period) + 5) + 1):
        assert t.member(n) == (n in add or (s.member(n) and n not in remove))


# ---------------------------------------------------------------------------
# trusted construction: the operations build their results unchecked, so
# each result must already be what the checking constructor makes of it

EDGE_SETS = [
    EPSet.empty(),
    EPSet.naturals(),
    EPSet.finite({2, 5}),
    EPSet((0, 1, 0), (1,)),  # cofinite, period (1,)
    EPSet((1,), (1, 1, 0)),
]


def assert_canonical(r):
    checked = EPSet(r.prefix, r.period)
    assert (r.prefix, r.period) == (checked.prefix, checked.period)
    assert type(r.prefix) is type(r.period) is bytes


def assert_operations_canonical(a, b, add=frozenset(), remove=frozenset()):
    for r in (complement(a), union(a, b), intersection(a, b),
              finitely_change(a, add=add, remove=remove)):
        assert_canonical(r)
    assert_canonical(EPSet.finite(add | remove))


# (add, remove) pairs: inside the prefix, past it, and across the
# boundaries between period copies
EDGE_EDITS = [({1, 7}, {2}), ({9, 14}, set()), (set(), {10, 11}), ({4, 5}, {3, 6})]


def test_trusted_results_on_edge_sets_are_canonical():
    for a in EDGE_SETS:
        for b in EDGE_SETS:
            for add, remove in EDGE_EDITS:
                assert_operations_canonical(a, b, add, remove)


@settings(max_examples=150, deadline=None)
@given(epsets, epsets, st.sets(st.integers(1, 20), max_size=4),
       st.sets(st.integers(1, 20), max_size=4))
def test_trusted_results_are_canonical(a, b, add, remove):
    remove = remove - add
    for x, y in [(a, b), *((e, a) for e in EDGE_SETS), *((a, e) for e in EDGE_SETS)]:
        assert_operations_canonical(x, y, add, remove)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from("xyz"), max_size=8),
       st.lists(st.sampled_from("xyz"), min_size=1, max_size=12),
       st.sets(st.sampled_from("xyz")))
def test_preimages_are_canonical(prefix, period, values):
    f = PeriodicSeq(prefix, period)
    r = f.preimage(values)
    assert_canonical(r)
    for n in range(1, len(prefix) + 2 * len(period) + 1):
        assert r.member(n) == (f.value(n) in values)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=24))
def test_minimal_word_period_is_least_dividing_repeat(word):
    word = bytes(word)
    q = len(word)
    want = min(d for d in range(1, q + 1) if q % d == 0 and word[:d] * (q // d) == word)
    assert _minimal_word_period(word) == want


@settings(max_examples=150, deadline=None)
@given(epsets)
def test_cogap_is_gap_of_complement(s):
    for t in (s, *EDGE_SETS):
        c = complement(t)
        assert cogap(t) == gap(c) == _brute_gap(c)


@given(epsets)
def test_is_cofinite_means_finite_complement(s):
    for t in (s, *EDGE_SETS):
        assert t.is_cofinite == complement(t).is_finite


# ---------------------------------------------------------------------------
# PeriodicSeq


def test_periodic_seq_values_and_preimage():
    f = PeriodicSeq(("x",), ("a", "b"))
    assert [f.value(n) for n in range(1, 6)] == ["x", "a", "b", "a", "b"]
    assert f.alphabet() == ("x", "a", "b")
    assert f.preimage({"a"}) == EPSet((0,), (1, 0)) == EVENS
    assert f.preimage({"x", "a"}) == EPSet((1,), (1, 0))
    assert PeriodicSeq.constant("a").preimage({"a"}) == EPSet.naturals()


@pytest.mark.parametrize("call, message", [
    (lambda n: EPSet.finite([3, n]), "indices must be integers >= 1"),
    (lambda n: EVENS.member(n), "index must be an integer >= 1"),
    (lambda n: finitely_change(EVENS, add={n}), "indices must be integers >= 1"),
    (lambda n: PeriodicSeq((), ("a",)).value(n), "index must be an integer >= 1"),
])
@pytest.mark.parametrize("bad", [0, -2, True, 1.0, "1"])
def test_positions_must_be_positive_ints(call, message, bad):
    with pytest.raises(ValueError, match=f"^{message}, got {bad!r}$"):
        call(bad)


def test_periodic_seq_requires_period():
    with pytest.raises(ValueError):
        PeriodicSeq(("a",), ())
