import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evfam.intseq import (
    EPSet,
    ExtNat,
    INF,
    PeriodicSeq,
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


def test_extnat_json_round_trip():
    assert ExtNat.from_json(ExtNat(9).to_json()) == ExtNat(9)
    assert ExtNat.from_json(INF.to_json()) == INF


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


def test_text_round_trip():
    # prefix 101 followed by period 01 is the odds; formatting emits the
    # canonical spelling but the value survives the round trip
    s = EPSet.from_text("prefix=101;period=01")
    assert s == ODDS
    assert s.to_text() == "prefix=;period=10"
    assert EPSet.from_text("prefix=;period=") == EPSet.empty()
    assert EPSet.from_text(s.to_text()) == s


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
    assert s.indices_upto(9) == [1, 4, 6, 8]
    assert s == EPSet((1, 0, 0), (1, 0))


def test_finitely_change_rejects_overlap():
    with pytest.raises(ValueError):
        finitely_change(EVENS, add={2}, remove={2})
    with pytest.raises(ValueError):
        finitely_change(EVENS, add={0})


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
    assert window_cover([0, 2, 4], 6) == 2
    assert window_cover([1], 6) == 5  # the last five indices miss it
    assert window_cover([1], 6, cyclic=True) == 6
    assert window_cover([0, 1], 6, cyclic=True) == 5
    with pytest.raises(ValueError):
        window_cover([], 4)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=16), st.booleans())
def test_window_cover_matches_window_scan(bits, cyclic):
    positions = [i for i, b in enumerate(bits) if b]
    if not positions:
        return
    assert window_cover(positions, len(bits), cyclic) == cover_oracle(
        positions, len(bits), cyclic
    )


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


# ---------------------------------------------------------------------------
# PeriodicSeq


def test_periodic_seq_values_and_preimage():
    f = PeriodicSeq(("x",), ("a", "b"))
    assert [f.value(n) for n in range(1, 6)] == ["x", "a", "b", "a", "b"]
    assert f.alphabet() == ("x", "a", "b")
    assert f.preimage({"a"}) == EPSet((0,), (1, 0)) == EVENS
    assert f.preimage({"x", "a"}) == EPSet((1,), (1, 0))
    assert PeriodicSeq.constant("a").preimage({"a"}) == EPSet.naturals()


def test_periodic_seq_requires_period():
    with pytest.raises(ValueError):
        PeriodicSeq(("a",), ())
