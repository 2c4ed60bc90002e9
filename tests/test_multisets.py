"""Multifamily tests: values, complement wrapper, level families,
classification, star/push, closures, and multiset limits."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from evfam.families import (
    AllFamily,
    CofiniteFamily,
    FiniteTopology,
    IndicatorFamily,
    InfiniteFamily,
    PredicateFamily,
    all_topologies,
    powerset,
    random_topology,
)
from evfam.intseq import (
    EPSet,
    ExtNat,
    INF,
    PeriodicSeq,
    complement,
    gap,
    random_epset,
)
from evfam.multisets import (
    CoGapMultifamily,
    ComplementMultifamily,
    ExplicitMultifamily,
    GapMultifamily,
    IndicatorMultifamily,
    Multiset,
    PushedMultifamily,
    level_family,
    mf_closure,
    mstar,
    multiset_limit,
)

EVENS = EPSet((), (0, 1))
ODDS = EPSet((), (1, 0))
GAP = GapMultifamily()
COGAP = CoGapMultifamily()


def discrete(ground):
    return FiniteTopology(ground, powerset(ground))


def indiscrete(ground):
    return FiniteTopology(ground, [frozenset(), frozenset(ground)])


def weights_mf(ground, w):
    """Increasing multifamily: value = max element weight in S."""
    table = {
        s: max((ExtNat.of(w[x]) for x in s), default=ExtNat(0))
        for s in powerset(ground)
    }
    return ExplicitMultifamily(ground, table)


# ---------------------------------------------------------------------------
# values


def test_value_examples():
    finite = EPSet.finite([2, 3, 9])
    assert COGAP.value(finite) == 0
    assert GAP.value(finite) == INF
    assert IndicatorMultifamily(InfiniteFamily()).value(ODDS) == 1
    assert IndicatorMultifamily(CofiniteFamily()).value(ODDS) == 0


def test_complement_is_an_involution_on_values():
    rng = random.Random(4)
    twice = ComplementMultifamily(ComplementMultifamily(COGAP))
    for _ in range(50):
        s = random_epset(rng)
        assert twice.value(s) == COGAP.value(s)


def test_cogap_is_gap_of_complement():
    rng = random.Random(9)
    gap_c = ComplementMultifamily(GAP)
    for _ in range(100):
        s = random_epset(rng)
        assert COGAP.value(s) == gap_c.value(s)


# ---------------------------------------------------------------------------
# level families


def test_level_family_rejects_zero():
    with pytest.raises(ValueError):
        level_family(COGAP, 0)


def test_cogap_level_one_is_the_infinite_family():
    lvl = level_family(COGAP, 1)
    g = InfiniteFamily()
    rng = random.Random(13)
    for _ in range(200):
        s = random_epset(rng)
        assert lvl.contains(s) == g.contains(s)


def test_cogap_level_inf_contains_cofinite_sets():
    lvl = level_family(COGAP, INF)
    rng = random.Random(21)
    for _ in range(50):
        finite = random_epset(rng)
        if not finite.is_finite:
            finite = EPSet.finite(n for n in range(1, 7) if n in finite)
        assert lvl.contains(complement(finite))


def test_indicator_level_one_returns_the_family():
    fam = IndicatorFamily(("a", "b"), [{"a"}, {"a", "b"}])
    assert level_family(IndicatorMultifamily(fam), 1) is fam
    lvl2 = level_family(IndicatorMultifamily(fam), 2)
    for s in powerset(("a", "b")):
        assert not lvl2.contains(s)


def test_gap_level_family_is_exactly_co_eventual():
    lvl = level_family(GAP, 2)
    assert lvl.flags["co_eventual"] is True
    assert lvl.contains(EPSet.finite([1, 4]))  # gap inf >= 2
    assert not lvl.contains(EPSet.naturals())


def test_explicit_level_family_is_exhaustive():
    mf = weights_mf(("a", "b"), {"a": 2, "b": 0})
    lvl = level_family(mf, 2)
    assert lvl.contains({"a"}) and lvl.contains({"a", "b"})
    assert not lvl.contains({"b"}) and not lvl.contains(frozenset())


# ---------------------------------------------------------------------------
# classification


def test_classify_gap_and_cogap():
    c = COGAP.classify()
    assert c.increasing.value and c.increasing.status == "exact"
    assert not c.decreasing.value
    assert c.finitely_insensitive.value
    c = GAP.classify()
    assert c.decreasing.value and not c.increasing.value
    a, b = c.increasing.witness
    assert GAP.value(a) > GAP.value(b)


def test_classify_explicit_table():
    mf = ExplicitMultifamily(("a", "b"), {frozenset({"a"}): 2, frozenset({"a", "b"}): 1})
    c = mf.classify()
    assert not c.increasing.value
    small, big = c.increasing.witness
    assert small < big and mf.value(small) > mf.value(big)


def test_classify_complement_flips_directions():
    from evfam.intseq import intersection

    gap_c = ComplementMultifamily(GAP)
    c = gap_c.classify()
    assert c.increasing.value
    assert not c.decreasing.value
    a, b = c.decreasing.witness
    assert intersection(a, b) == a  # a within b
    assert gap_c.value(a) < gap_c.value(b)


def brute_directions(mf):
    """Independent direction oracle over every nested pair of subsets."""
    ps = list(powerset(mf.ground))
    pairs = [(s, t) for s in ps for t in ps if s < t]
    return {
        "increasing": all(mf.value(s) <= mf.value(t) for s, t in pairs),
        "decreasing": all(mf.value(s) >= mf.value(t) for s, t in pairs),
        "finitely_insensitive": all(mf.value(s) == mf.value(ps[0]) for s in ps),
    }


@settings(max_examples=150, deadline=None)
@given(n=st.integers(min_value=0, max_value=3), data=st.data())
def test_classify_explicit_matches_all_pairs_oracle(n, data):
    ground = tuple("abc"[:n])
    ps = list(powerset(ground))
    values = data.draw(st.lists(st.sampled_from([0, 1, 2, INF]), min_size=len(ps), max_size=len(ps)))
    table = ExplicitMultifamily(ground, dict(zip(ps, values)))
    support = IndicatorFamily(ground, [s for s, v in zip(ps, values) if v != 0])
    # the complement and indicator wrappers classify by delegating
    for mf in (table, ComplementMultifamily(table), IndicatorMultifamily(support)):
        got = mf.classify()
        for name, value in brute_directions(mf).items():
            assert getattr(got, name).value == value
            assert getattr(got, name).status == "exact"
        # refutations come with checkable witnesses, one element apart
        if not got.increasing.value:
            small, big = got.increasing.witness
            assert small < big and len(big - small) == 1 and mf.value(small) > mf.value(big)
        if not got.decreasing.value:
            small, big = got.decreasing.witness
            assert small < big and len(big - small) == 1 and mf.value(small) < mf.value(big)
        if not got.finitely_insensitive.value:
            a, b = got.finitely_insensitive.witness
            assert len(a ^ b) == 1 and mf.value(a) != mf.value(b)


def test_gap_direction_on_random_pairs():
    # decreasing: S within S' forces gap(S) >= gap(S')
    rng = random.Random(31)
    from evfam.intseq import union

    for _ in range(200):
        s = random_epset(rng)
        sup = union(s, random_epset(rng))
        assert GAP.value(s) >= GAP.value(sup)
        assert COGAP.value(s) <= COGAP.value(sup)


def test_indicator_bridge_exhaustive():
    # a family is eventual iff its indicator multifamily is increasing,
    # co-eventual iff decreasing
    for n in range(3):
        ground = tuple("abc"[:n])
        ps = list(powerset(ground))
        for mask in range(2 ** len(ps)):
            fam = IndicatorFamily(ground, [s for i, s in enumerate(ps) if mask >> i & 1])
            fc = fam.classify()
            mc = IndicatorMultifamily(fam).classify()
            assert mc.increasing.value == fc.eventual.value
            assert mc.decreasing.value == fc.co_eventual.value
            assert mc.finitely_insensitive.value == fc.finitely_insensitive.value


def test_gap_attainment_on_period():
    # a finite gap must recur: the periodic part realizes it at least once
    # per cycle, hence infinitely often
    rng = random.Random(43)
    seen = 0
    for _ in range(200):
        s = random_epset(rng)
        g = gap(s)
        if not g.is_finite:
            continue
        seen += 1
        p, q = len(s.prefix), max(len(s.period), 1)
        pts = [n for n in range(p + 1, p + 3 * q + 1) if n in s]
        hits = sum(1 for a, b in zip(pts, pts[1:]) if b - a - 1 == g.value)
        if g.value > 0:
            assert hits >= 2
    assert seen > 50


# ---------------------------------------------------------------------------
# star, push


def test_mstar_examples():
    all_ind = IndicatorMultifamily(AllFamily(("a", "b", "c")))
    assert mstar(all_ind) == Multiset(("a", "b", "c"), {"a": 1, "b": 1, "c": 1})
    mf = ExplicitMultifamily(("a", "b"), {frozenset({"a"}): 3})
    star = mstar(mf)
    assert star["a"] == 3 and star["b"] == 0


def test_mpush_identity():
    ground = ("a", "b")
    mf = weights_mf(ground, {"a": 1, "b": 5})
    pushed = PushedMultifamily({x: x for x in ground}, mf, codomain=ground)
    for s in powerset(ground):
        assert pushed.value(s) == mf.value(s)


def test_mpush_sequences():
    const = PeriodicSeq((), ("a",))
    pushed = PushedMultifamily(const, COGAP, codomain=("a", "b"))
    assert pushed.value({"a"}) == INF  # preimage is all of N
    assert pushed.value({"b"}) == 0

    alt = PeriodicSeq((), ("a", "b"))
    pushed = PushedMultifamily(alt, COGAP)
    assert pushed.value({"a"}) == 1  # preimage is the odd numbers


def test_mpush_refuses_a_sequence_leaving_the_codomain():
    with pytest.raises(ValueError, match="leave the codomain"):
        PushedMultifamily(PeriodicSeq((), ("a", "b")), COGAP, codomain=("a",))


def test_mpush_preserves_direction():
    alt = PeriodicSeq((), ("a", "b"))
    c = PushedMultifamily(alt, COGAP).classify()
    assert c.increasing.value


# ---------------------------------------------------------------------------
# closure and limits


def test_multiset_limit_examples():
    ground = ("a", "b")
    disc = discrete(ground)
    indisc = indiscrete(ground)
    all_ind = IndicatorMultifamily(AllFamily(ground))
    assert multiset_limit(all_ind, disc) == Multiset(ground, {"a": 1, "b": 1})

    mf = weights_mf(ground, {"a": 4, "b": 1})
    assert multiset_limit(mf, disc) == mstar(mf)
    # only open neighborhood is the whole ground
    assert multiset_limit(mf, indisc) == Multiset(ground, {"a": 4, "b": 4})


def test_multiset_limit_rejects_decreasing():
    mf = ExplicitMultifamily(("a",), {frozenset(): 5})
    with pytest.raises(ValueError):
        multiset_limit(mf, discrete(("a",)))


def test_closure_refuses_a_falling_multifamily_whatever_its_claim():
    # a predicate that falls from {a} to {a, b}: its claim to increase is
    # refused with that pair, and closure and limits scan the values
    # themselves when nothing is claimed
    ground = ("a", "b")
    with pytest.raises(ValueError, match=r"\['a'\] belongs and \['a', 'b'\] does not"):
        PredicateFamily(ground, lambda s: s == {"a"}, claim="increasing")
    mf = IndicatorMultifamily(PredicateFamily(ground, lambda s: s == {"a"}))
    for op in (mf_closure, multiset_limit):
        with pytest.raises(ValueError, match="increasing multifamilies only"):
            op(mf, discrete(ground))


def test_limit_is_star_of_closure():
    rng = random.Random(57)
    ground = ("a", "b", "c")
    tops = all_topologies(ground)
    for _ in range(60):
        t = tops[rng.randrange(len(tops))]
        w = {x: rng.choice([0, 1, 2, 3, None]) for x in ground}
        mf = weights_mf(ground, {x: (INF if v is None else v) for x, v in w.items()})
        assert multiset_limit(mf, t) == mstar(mf_closure(mf, t))


def test_closure_dominates_nowhere_below():
    # closure values never exceed the original on any set
    rng = random.Random(3)
    ground = ("a", "b")
    for _ in range(30):
        t = random_topology(ground, rng)
        mf = weights_mf(ground, {x: rng.randrange(4) for x in ground})
        cl = mf_closure(mf, t)
        for s in powerset(ground):
            assert cl.value(s) >= mf.value(s)


def test_multisets_compare_by_multiplicity_whatever_the_ground_order():
    ms = Multiset(("a", "b", "c"), {"a": 1, "b": INF})
    same = Multiset(("c", "b", "a"), {"b": INF, "a": 1, "c": 0})
    assert ms == same and hash(ms) == hash(same)
    assert ms != Multiset(("a", "b", "c"), {"a": 2, "b": INF})
    assert ms != Multiset(("a", "b"), {"a": 1, "b": INF})
    assert ms != {"a": 1, "b": INF}
    # zero multiplicities are left out
    assert repr(same) == "Multiset(ground=('c', 'b', 'a'), mult={'b': ExtNat(inf), 'a': ExtNat(1)})"


def test_indicator_multifamilies_wrap_families_only():
    with pytest.raises(TypeError, match="^indicator multifamilies wrap a family$"):
        IndicatorMultifamily(GAP)


def test_explicit_values_read_keys_and_check_every_other_argument():
    mf = ExplicitMultifamily(("a", "b"), {frozenset("a"): 2, frozenset("ab"): INF})
    assert mf.value(frozenset("a")) == ExtNat(2) and mf.value({"b", "a"}) == INF
    assert mf.value(frozenset("b")) == ExtNat(0) and mf.value(()) == ExtNat(0)
    for stray in (frozenset("c"), frozenset("ac"), ["c"]):
        with pytest.raises(ValueError, match=re.escape("elements ['c'] not in the ground")):
            mf.value(stray)


def test_multifamily_reprs_name_the_class_and_its_parameters():
    assert repr(GapMultifamily()) == "GapMultifamily()"
    assert repr(CoGapMultifamily()) == "CoGapMultifamily()"
    mf = ExplicitMultifamily(("a", "b"), {frozenset("ab"): INF, frozenset("a"): 2})
    assert repr(mf) == "ExplicitMultifamily(('a', 'b'), [[['a'], 2], [['a', 'b'], 'inf']])"
    lifted = IndicatorMultifamily(IndicatorFamily("a", [{"a"}]))
    assert repr(ComplementMultifamily(lifted)) == (
        "ComplementMultifamily(IndicatorMultifamily(IndicatorFamily(('a',), [['a']])))"
    )
