"""Family calculus tests: membership, classification, star/push, duality,
finite topologies, closure families, and limit sets.

The classification oracle below re-derives hereditarity flags by brute
enumeration so the library's exhaustive classifier is checked against an
independent implementation.
"""

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from evfam.families import (
    AllFamily,
    CofiniteFamily,
    CoGapLevelFamily,
    EmptyFamily,
    FiniteTopology,
    IndicatorFamily,
    InfiniteFamily,
    PredicateFamily,
    Verdict,
    all_topologies,
    closure_family,
    complement_duality_check,
    family_complement,
    family_to_json,
    limit_set,
    powerset,
    push,
    random_topology,
    star,
    to_indicator,
)
from evfam.intseq import (
    EPSet,
    INF,
    PeriodicSeq,
    cogap,
    complement,
    gap,
    intersection,
    random_epset,
)

EVENS = EPSet((), (0, 1))
ODDS = EPSet((), (1, 0))
H = CofiniteFamily()
G = InfiniteFamily()


def brute_flags(ground, sets):
    """Independent hereditarity oracle by full enumeration."""
    ground = tuple(ground)
    sets = {frozenset(s) for s in sets}
    ps = list(powerset(ground))
    eventual = all(t in sets for s in sets for t in ps if s <= t)
    co_eventual = all(t in sets for s in sets for t in ps if t <= s)
    filt = eventual and all((a & b) in sets for a in sets for b in sets)
    fin = len(sets) in (0, len(ps))
    return {
        "eventual": eventual,
        "co_eventual": co_eventual,
        "filter": filt,
        "finitely_insensitive": fin,
    }


# ---------------------------------------------------------------------------
# membership


def test_membership_symbolic():
    assert not H.contains(EVENS)
    assert G.contains(EVENS)
    cofinite = EPSet((0, 1, 0), (1,))  # all n >= 2 except 3... {2,4,5,6,...}
    assert CoGapLevelFamily(3).contains(cofinite)
    assert cogap(cofinite) == INF


def test_membership_rejects_raw_sets_over_naturals():
    with pytest.raises(TypeError):
        H.contains({1, 2, 3})


def test_membership_finite_ground():
    fam = IndicatorFamily(("a", "b"), [{"a"}, {"a", "b"}])
    assert fam.contains({"a"})
    assert not fam.contains({"b"})
    with pytest.raises(ValueError):
        fam.contains({"z"})


def test_cogap_level_requires_positive_level():
    with pytest.raises(ValueError):
        CoGapLevelFamily(0)


# ---------------------------------------------------------------------------
# classification


def test_classify_infinite_family():
    c = G.classify()
    assert c.eventual.value and c.eventual.status == "exact"
    assert not c.filter.value
    a, b = c.filter.witness
    assert G.contains(a) and G.contains(b)
    assert not G.contains(intersection(a, b))
    assert intersection(a, b) == EPSet.empty()


def test_classify_cofinite_family():
    c = H.classify()
    assert c.eventual.value and c.filter.value and c.finitely_insensitive.value
    assert not c.co_eventual.value


def test_classify_trivial_families():
    for fam in (EmptyFamily(("a", "b")), AllFamily(("a", "b")), EmptyFamily(), AllFamily()):
        c = fam.classify()
        assert c.eventual.value and c.co_eventual.value


def test_classify_indicator_example():
    fam = IndicatorFamily(("a", "b"), [{"a"}, {"a", "b"}])
    c = fam.classify()
    assert c.eventual.value
    assert not c.co_eventual.value
    assert c.filter.value  # {a} & {a,b} = {a} stays inside
    assert not c.finitely_insensitive.value


def test_classify_cogap_level_filter_witness():
    fam = CoGapLevelFamily(2)
    c = fam.classify()
    assert c.eventual.value and not c.filter.value
    a, b = c.filter.witness
    assert fam.contains(a) and fam.contains(b)
    assert not fam.contains(intersection(a, b))


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=3),
    data=st.data(),
)
def test_classify_indicator_matches_brute_oracle(n, data):
    ground = tuple("abcd"[:n])
    ps = list(powerset(ground))
    sets = data.draw(st.lists(st.sampled_from(ps), max_size=len(ps)) if ps else st.just([]))
    fam = IndicatorFamily(ground, sets)
    got = fam.classify()
    want = brute_flags(ground, sets)
    assert got.eventual.value == want["eventual"]
    assert got.co_eventual.value == want["co_eventual"]
    assert got.filter.value == want["filter"]
    assert got.finitely_insensitive.value == want["finitely_insensitive"]
    # refutations must come with a checkable witness
    if not got.eventual.value:
        small, big = got.eventual.witness
        assert small <= big and fam.contains(small) and not fam.contains(big)
    if not got.co_eventual.value:
        big, small = got.co_eventual.witness
        assert small <= big and fam.contains(big) and not fam.contains(small)


def test_predicate_family_sampled_classification():
    fam = PredicateFamily(("a", "b", "c"), lambda s: len(s) >= 1)
    c = fam.classify(budget=300, seed=7)
    assert c.eventual.value and c.eventual.status == "sampled"
    assert not c.co_eventual.value
    assert not c.finitely_insensitive.value


@pytest.mark.parametrize(
    "ground, fn, want",
    [
        (
            ("a", "b", "c", "d"),
            lambda s: len(s) % 2 == 1,
            {
                "eventual": ("acd", "abcd"),
                "co_eventual": ("acd", "cd"),
                "filter": ("d", "c"),
                "finitely_insensitive": ("cd", "c"),
            },
        ),
        (
            "N",
            lambda s: s.member(1) != s.member(2),
            {
                "eventual": (
                    "prefix=101111;period=110010010100",
                    "prefix=111;period=1111100111111001111100111101111110101111100"
                    "11110101111010111100111110011111110111110",
                ),
                "co_eventual": ("prefix=10100;period=0011", "prefix=;period="),
                "filter": ("prefix=10100;period=0011", "prefix=0;period=110011001"),
                "finitely_insensitive": ("prefix=10100;period=0011", "prefix=1110001;period=1100"),
            },
        ),
    ],
)
def test_predicate_sampling_witnesses_are_pinned(ground, fn, want):
    # the sampler's draw order fixes every witness at a given seed
    c = PredicateFamily(ground, fn).classify(budget=300, seed=0)
    for name, pair in want.items():
        verdict = getattr(c, name)
        assert not verdict.value and verdict.status == "sampled"
        if ground == "N":
            assert tuple(s.to_text() for s in verdict.witness) == pair
        else:
            assert verdict.witness == tuple(map(frozenset, pair))


def test_predicate_family_exact_claim():
    fam = PredicateFamily("N", lambda s: not s.is_finite, claim="increasing")
    c = fam.classify(budget=400, seed=3)
    assert c.eventual.value and c.eventual.status == "exact"
    assert not c.filter.value  # sampling finds disjoint infinite sets


def test_predicate_claim_is_checked_on_a_finite_ground():
    ground = ("a", "b")
    up = PredicateFamily(ground, lambda s: "a" in s, claim="increasing")
    assert up.classify().eventual == Verdict(True, "exact")
    down = PredicateFamily(ground, lambda s: "a" not in s, claim="decreasing")
    assert down.classify().co_eventual == Verdict(True, "exact")
    # "a" in s rises from {} to {a}: a decreasing claim names the member first
    with pytest.raises(ValueError, match=r"\['a'\] belongs and \[\] does not"):
        PredicateFamily(ground, lambda s: "a" in s, claim="decreasing")
    with pytest.raises(ValueError, match="bad claim"):
        PredicateFamily(ground, lambda s: True, claim="exact")


def test_triviality_scan_small_grounds():
    # the only families both eventual and co-eventual are Empty and All
    for n in range(3):
        ground = tuple("abc"[:n])
        ps = list(powerset(ground))
        hits = 0
        for mask in range(2 ** len(ps)):
            sets = [s for i, s in enumerate(ps) if mask >> i & 1]
            c = IndicatorFamily(ground, sets).classify()
            if c.eventual.value and c.co_eventual.value:
                hits += 1
        assert hits == 2


# ---------------------------------------------------------------------------
# duality


def test_duality_examples():
    assert complement_duality_check(IndicatorFamily(("a",), [frozenset()]))
    small = [s for s in powerset(("a", "b")) if len(s) <= 1]
    assert complement_duality_check(IndicatorFamily(("a", "b"), small))
    assert complement_duality_check(IndicatorFamily(("a", "b"), [{"a"}]))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=0, max_value=3), data=st.data())
def test_duality_holds_everywhere(n, data):
    ground = tuple("abcd"[:n])
    ps = list(powerset(ground))
    sets = data.draw(st.lists(st.sampled_from(ps), max_size=len(ps)) if ps else st.just([]))
    fam = IndicatorFamily(ground, sets)
    assert complement_duality_check(fam)
    comp = family_complement(fam)
    assert brute_flags(ground, fam.sets)["co_eventual"] == brute_flags(ground, comp.sets)["eventual"]


# ---------------------------------------------------------------------------
# star and push


def test_star_examples():
    assert star(AllFamily(("a", "b", "c"))) == {"a", "b", "c"}
    assert star(H) == EPSet.empty()
    assert star(IndicatorFamily(("a", "b"), [{"a"}, {"a", "b"}])) == {"a"}
    assert star(AllFamily()) == EPSet.naturals()
    assert star(CoGapLevelFamily(1)) == EPSet.empty()


def test_snapshots_over_n_are_refused():
    with pytest.raises(ValueError, match="^star over N needs a symbolic family$"):
        star(PredicateFamily("N", lambda s: not s.is_finite))
    with pytest.raises(ValueError, match="^cannot snapshot a family over N$"):
        to_indicator(G)
    with pytest.raises(ValueError, match="^complement families are computed on finite grounds$"):
        family_complement(H)


def test_push_identity_is_identity():
    ground = ("a", "b", "c")
    fam = IndicatorFamily(ground, [{"a"}, {"a", "b"}, {"a", "b", "c"}])
    pushed = push({x: x for x in ground}, fam, codomain=ground)
    for s in powerset(ground):
        assert pushed.contains(s) == fam.contains(s)


def test_push_constant_map():
    fam = IndicatorFamily((1, 2), [{1, 2}])
    pushed = push({1: "a", 2: "a"}, fam)
    assert pushed.contains({"a"})
    assert not pushed.contains(frozenset())


def test_push_constant_sequence_of_cofinite():
    seq = PeriodicSeq((), ("a",))
    pushed = push(seq, H, codomain=("a", "b"))
    for s in powerset(("a", "b")):
        assert pushed.contains(s) == ("a" in s)


def test_push_rejects_partial_maps():
    fam = IndicatorFamily((1, 2), [{1}])
    with pytest.raises(ValueError):
        push({1: "a"}, fam)


def test_push_refuses_values_outside_the_codomain():
    fam = IndicatorFamily((1, 2), [{1}])
    with pytest.raises(ValueError, match="leave the codomain"):
        push({1: "a", 2: "b"}, fam, codomain=("a",))
    with pytest.raises(ValueError, match="leave the codomain"):
        push(PeriodicSeq((), (1, 2)), H, codomain=(1,))


def test_push_refuses_maps_of_the_wrong_kind():
    fam = IndicatorFamily((1, 2), [{1}])
    with pytest.raises(ValueError, match="^a PeriodicSeq pushes from N only$"):
        push(PeriodicSeq((), ("a",)), fam)
    with pytest.raises(TypeError, match="^push takes a dict or a PeriodicSeq$"):
        push([(1, "a"), (2, "a")], fam)
    with pytest.raises(TypeError, match="^dict maps push from finite grounds only$"):
        push({1: "a"}, H)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_push_preserves_hereditarity(data):
    ground = tuple(range(data.draw(st.integers(min_value=0, max_value=3))))
    ps = list(powerset(ground))
    seed_sets = data.draw(st.lists(st.sampled_from(ps), max_size=4) if ps else st.just([]))
    upward = {t for s in seed_sets for t in ps if s <= t}
    fam = IndicatorFamily(ground, upward)
    assert fam.classify().eventual.value
    codomain = ("x", "y")
    f = {x: data.draw(st.sampled_from(codomain)) for x in ground}
    pushed = push(f, fam, codomain=codomain)
    assert pushed.classify().eventual.value


# ---------------------------------------------------------------------------
# topologies


def test_topology_validation():
    with pytest.raises(ValueError):
        FiniteTopology(("a", "b"), [frozenset()])  # ground missing
    with pytest.raises(ValueError):
        FiniteTopology(("a", "b"), [frozenset(), {"a"}, {"b"}, {"a", "b"}, {"c"}])
    # union of {a} and {b} missing
    with pytest.raises(ValueError):
        FiniteTopology(("a", "b"), [frozenset(), {"a"}, {"b"}])
    # the first unclosed pair in ascending mask order is named
    abc = ("a", "b", "c")
    for opens, message in [
        ([(), "a", "b", "c", "abc"], "union: ['a'] | ['b']"),
        ([(), "ab", "bc", "abc"], "intersection: ['a', 'b'] & ['b', 'c']"),
    ]:
        with pytest.raises(ValueError, match=re.escape(f"opens not closed under {message}")):
            FiniteTopology(abc, opens)


def test_topology_counts():
    # 1, 1, 4, 29, 355 topologies on 0..4 points
    assert [len(all_topologies("abcd"[:n])) for n in range(5)] == [1, 1, 4, 29, 355]
    with pytest.raises(ValueError, match=re.escape("limited to |X| <= 4")):
        all_topologies("abcde")


def test_topology_equality_ignores_the_order_of_the_ground():
    t = FiniteTopology(("a", "b"), [(), "a", "ab"])
    u = FiniteTopology(("b", "a"), [(), "a", "ab"])
    assert t == u and hash(t) == hash(u)
    assert t != FiniteTopology(("b", "a"), [(), "b", "ab"])
    assert t != FiniteTopology(("a", "b", "c"), [(), "a", "abc"])
    assert t != frozenset(t.opens)


@pytest.mark.parametrize("build", [
    all_topologies,
    lambda g: FiniteTopology.from_subbasis(g, []),
    lambda g: random_topology(g, random.Random(0)),
])
def test_topology_builders_check_the_ground(build):
    with pytest.raises(ValueError, match="ground elements must be distinct"):
        build(("a", "a"))
    with pytest.raises(ValueError, match="topologies need a finite ground"):
        build("N")


def test_open_and_closed_refuse_elements_outside_the_ground():
    t = FiniteTopology.indiscrete(("a", "b"))
    assert t.is_open(()) and t.is_closed(()) and t.is_closed({"a", "b"})
    for probe in (t.is_open, t.is_closed):
        with pytest.raises(ValueError, match="not in the ground"):
            probe({"z"})


_HASH_ORDER_SCRIPT = """
import json
from evfam.families import FiniteTopology, IndicatorFamily
fam = IndicatorFamily(("a", "b", "c"), [{"a", "b"}, {"b", "c"}, {"a", "c"}, {"a", "b", "c"}])
print(json.dumps([
    [sorted(s) for s in fam.classify().filter.witness],
    [sorted(u) for u in FiniteTopology.discrete(("a", "b")).neighborhoods("a")],
]))
"""


def test_witnesses_and_neighborhoods_ignore_hash_order():
    src = str(Path(__file__).resolve().parent.parent / "src")
    seen = set()
    for seed in ("1", "2", "3", "4"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _HASH_ORDER_SCRIPT], env=env,
                             check=True, capture_output=True, text=True).stdout
        seen.add(out)
    assert len(seen) == 1
    # ascending mask order, bit i for ground[i]: {a, b} = 3 before {a, c} = 5,
    # and {a} = 1 before {a, b} = 3
    assert json.loads(seen.pop()) == [[["a", "b"], ["a", "c"]], [["a"], ["a", "b"]]]


def test_subbasis_closure():
    t = FiniteTopology.from_subbasis(("a", "b", "c"), [{"a"}, {"b"}])
    assert t.is_open({"a", "b"})
    assert not t.is_open({"c"})
    rng = random.Random(5)
    for _ in range(25):
        random_topology(("a", "b", "c"), rng)  # constructor validates


# ---------------------------------------------------------------------------
# limit sets and closure families


def test_limit_set_examples():
    ground = ("a", "b")
    disc = FiniteTopology.discrete(ground)
    assert limit_set(AllFamily(ground), disc) == {"a", "b"}
    assert limit_set(EmptyFamily(ground), disc) == frozenset()
    at_a = IndicatorFamily(ground, [s for s in powerset(ground) if "a" in s])
    assert limit_set(at_a, disc) == {"a"}


def test_closure_family_examples():
    ground = ("a", "b")
    disc = FiniteTopology.discrete(ground)
    indisc = FiniteTopology.indiscrete(ground)

    cl_all = closure_family(AllFamily(ground), disc)
    assert cl_all.sets == frozenset(powerset(ground))

    just_x = IndicatorFamily(ground, [set(ground)])
    cl = closure_family(just_x, indisc)
    assert cl.sets == frozenset(s for s in powerset(ground) if s)

    at_a = IndicatorFamily(ground, [s for s in powerset(ground) if "a" in s])
    assert closure_family(at_a, disc).sets == at_a.sets


def test_closure_extends_eventual_families():
    # the extension property needs upward closure: membership of S only
    # transfers to cl F when every open superset is already a member
    rng = random.Random(11)
    ground = ("a", "b", "c")
    ps = list(powerset(ground))
    for _ in range(40):
        t = random_topology(ground, rng)
        seeds = [s for s in ps if rng.random() < 0.3]
        upward = {u for s in seeds for u in ps if s <= u}
        fam = IndicatorFamily(ground, upward)
        cl = closure_family(fam, t)
        assert fam.sets <= cl.sets


def test_star_of_closure_is_limit_set_exhaustive_two_points():
    ground = ("a", "b")
    ps = list(powerset(ground))
    for t in all_topologies(ground):
        for mask in range(2 ** len(ps)):
            fam = IndicatorFamily(ground, [s for i, s in enumerate(ps) if mask >> i & 1])
            lim = limit_set(fam, t)
            assert star(closure_family(fam, t)) == lim
            assert t.is_closed(lim)


def test_star_of_closure_is_limit_set_sampled_three_points():
    rng = random.Random(23)
    ground = ("a", "b", "c")
    ps = list(powerset(ground))
    tops = all_topologies(ground)
    for _ in range(300):
        t = tops[rng.randrange(len(tops))]
        fam = IndicatorFamily(ground, [s for s in ps if rng.random() < 0.5])
        lim = limit_set(fam, t)
        assert star(closure_family(fam, t)) == lim
        assert t.is_closed(lim)


def _reference_closure_members(family, topology):
    """The docstring definition over frozensets, in powerset order: the sets
    all of whose open supersets belong to the family."""
    return [
        s
        for s in powerset(topology.ground)
        if all(family.contains(u) for u in topology.opens if s <= u)
    ]


def _reference_limit(family, topology):
    """Points all of whose open neighborhoods belong to the family."""
    return frozenset(
        x for x in topology.ground if all(family.contains(u) for u in topology.neighborhoods(x))
    )


def _assert_matches_references(family, topology):
    members = _reference_closure_members(family, topology)
    listed = IndicatorFamily(topology.ground, members)  # built from frozensets
    cl = closure_family(family, topology)
    assert cl.sets == frozenset(members)
    # equal frozensets built in other orders iterate in an order that the
    # hash seed picks; the sorted listing of repr is the order promised
    assert repr(cl) == repr(listed)
    assert cl.classify() == listed.classify()
    assert star(cl) == frozenset(x for x in topology.ground if frozenset({x}) in listed.sets)
    assert limit_set(family, topology) == _reference_limit(family, topology)


def test_masks_match_frozenset_definitions_exhaustively():
    # every indicator family on every topology of a ground of size <= 3
    for n in range(4):
        ground = tuple("abc"[:n])
        ps = list(powerset(ground))
        for t in all_topologies(ground):
            for mask in range(2 ** len(ps)):
                fam = IndicatorFamily(ground, [s for i, s in enumerate(ps) if mask >> i & 1])
                _assert_matches_references(fam, t)


def test_masks_match_frozenset_definitions_beyond_indicators():
    ground = ("a", "b", "c")
    rng = random.Random(31)
    reordered = ("c", "a", "b")
    for t in all_topologies(ground):
        for fam in (
            AllFamily(ground),
            EmptyFamily(ground),
            PredicateFamily(ground, lambda s: len(s) != 1),
            # the family's masks are not the topology's
            IndicatorFamily(reordered, [s for s in powerset(reordered) if rng.random() < 0.5]),
        ):
            _assert_matches_references(fam, t)


def test_masks_match_frozenset_definitions_on_sampled_four_point_topologies():
    # the exhaustive test above stops at 3 points; a 4-point topology has
    # up to 16 opens, the discrete one all 16
    ground = tuple("abcd")
    ps = list(powerset(ground))
    tops = all_topologies(ground)
    assert max(len(t.opens) for t in tops) == 16
    rng = random.Random(37)
    sampled = [tops[rng.randrange(len(tops))] for _ in range(120)]
    for t in [FiniteTopology.discrete(ground), FiniteTopology.indiscrete(ground), *sampled]:
        seeds = [s for s in ps if rng.random() < 0.2]
        for fam in (
            IndicatorFamily(ground, [s for s in ps if rng.random() < 0.5]),
            # upward closed, so that limit sets are often nonempty
            IndicatorFamily(ground, [s for s in ps if any(seed <= s for seed in seeds)]),
        ):
            _assert_matches_references(fam, t)
    reordered = ("d", "b", "a", "c")
    for t in sampled[:20]:
        for fam in (
            PredicateFamily(ground, lambda s: len(s) != 2),
            IndicatorFamily(reordered, [s for s in ps if rng.random() < 0.5]),
        ):
            _assert_matches_references(fam, t)


def test_equal_grounds_of_other_types_get_their_own_elements():
    # (1, 2), (1.0, 2.0) and (True, 2) compare and hash equal, and so do
    # the nested grounds; a subset table shared between them would hand
    # one the other's elements
    def own(xs, ground):
        return all(any(x is y for y in ground) for x in xs)

    grounds = [(1, 2), (1.0, 2.0), (True, 2), ((1,), (2,)), ((1.0,), (2.0,))]
    for ground in grounds + [(float("1"), float("2"))]:
        fam = IndicatorFamily(ground, [s for s in powerset(ground) if ground[0] in s])
        disc = FiniteTopology.discrete(ground)
        for got in (limit_set(fam, disc), star(fam), star(closure_family(fam, disc))):
            assert got == {ground[0]} and own(got, ground)
        assert own(limit_set(AllFamily(ground), disc), ground)
        assert all(own(s, ground) for s in closure_family(fam, disc).sets)
    fam = IndicatorFamily((1.0, 2.0), [{1.0}, {1.0, 2.0}])
    assert [type(x) for x in star(fam)] == [float]
    assert [type(x[0]) for x in star(IndicatorFamily(grounds[-1], [{(1.0,)}]))] == [float]


def test_star_of_a_large_indicator_family_tests_only_its_singletons(monkeypatch):
    # a 20-point ground has about a million subsets; star needs only the
    # 20 singleton bits, and must not build the subset table
    import evfam.families as families

    def refuse(ground):
        raise AssertionError("star built the subset table")

    monkeypatch.setattr(families, "_subsets", refuse)
    fam = IndicatorFamily(tuple(range(20)), [{0}, {7}, {3, 4}])
    assert star(fam) == {0, 7}
    assert fam._table is None


# ---------------------------------------------------------------------------
# the sandwich between cofinite and infinite families


def test_cofinite_implies_level_implies_infinite():
    rng = random.Random(17)
    levels = [CoGapLevelFamily(c) for c in (1, 2, 5)] + [CoGapLevelFamily(INF)]
    for _ in range(200):
        s = random_epset(rng)
        for fam in levels:
            if H.contains(s):
                assert fam.contains(s)
            if fam.contains(s):
                assert G.contains(s)


epsets = st.builds(
    lambda p, q: EPSet(tuple(p), tuple(q)),
    st.lists(st.integers(0, 1), max_size=8),
    st.lists(st.integers(0, 1), max_size=12),
)
EDGE_SETS = [EPSet.empty(), EPSet.naturals(), EPSet.finite({1, 3}), EPSet((0, 0, 1), (1,))]


@settings(max_examples=150, deadline=None)
@given(epsets)
def test_symbolic_membership_matches_the_complement(s):
    # the families read their statistics off the period word; the
    # references build the complement
    for t in (s, *EDGE_SETS):
        c = complement(t)
        assert H.contains(t) == c.is_finite
        assert G.contains(t) == (not t.is_finite)
        for level in (1, 2, 5, INF):
            assert CoGapLevelFamily(level).contains(t) == (gap(c) >= level)


def test_infinite_sets_have_cogap_at_least_one():
    # over eventually periodic sets the level-1 family is exactly G
    rng = random.Random(29)
    lvl1 = CoGapLevelFamily(1)
    for _ in range(200):
        s = random_epset(rng)
        assert lvl1.contains(s) == G.contains(s)


# ---------------------------------------------------------------------------
# snapshots and JSON


def test_to_indicator_snapshot():
    fam = PredicateFamily(("a", "b"), lambda s: "a" in s)
    snap = to_indicator(fam)
    assert snap.sets == frozenset({frozenset({"a"}), frozenset({"a", "b"})})


def test_family_to_json_writes_each_kind():
    assert family_to_json(EmptyFamily(("a", "b"))) == {"ground": ["a", "b"], "kind": "empty"}
    assert family_to_json(AllFamily()) == {"ground": "N", "kind": "all"}
    assert family_to_json(H) == {"ground": "N", "kind": "cofinite"}
    assert family_to_json(G) == {"ground": "N", "kind": "infinite"}
    assert family_to_json(CoGapLevelFamily(3)) == {
        "ground": "N",
        "kind": "cogap_level",
        "c": 3,
    }
    assert family_to_json(CoGapLevelFamily(INF)) == {
        "ground": "N",
        "kind": "cogap_level",
        "c": "inf",
    }
    assert family_to_json(IndicatorFamily(("a", "b"), [{"a"}, {"a", "b"}])) == {
        "ground": ["a", "b"],
        "kind": "indicator",
        "sets": [["a"], ["a", "b"]],
    }
    # sets run by size, then by the ground's order, not the alphabet's
    assert family_to_json(IndicatorFamily(("b", "a"), [{"a"}, {"a", "b"}, {"b"}])) == {
        "ground": ["b", "a"],
        "kind": "indicator",
        "sets": [["b"], ["a"], ["b", "a"]],
    }
    with pytest.raises(ValueError, match="^family PredicateFamily has no JSON form$"):
        family_to_json(PredicateFamily(("a",), lambda s: True))


def test_family_reprs_name_the_class_and_its_parameters():
    assert repr(CoGapLevelFamily(2)) == "CoGapLevelFamily(c=2)"
    assert repr(CoGapLevelFamily(INF)) == "CoGapLevelFamily(c=inf)"
    assert repr(CofiniteFamily()) == "CofiniteFamily()"
    assert repr(InfiniteFamily()) == "InfiniteFamily()"
    assert repr(EmptyFamily()) == "EmptyFamily(N)"
    assert repr(AllFamily("ab")) == "AllFamily(('a', 'b'))"
    fam = IndicatorFamily("ab", [{"a", "b"}, set(), {"b"}])
    assert repr(fam) == "IndicatorFamily(('a', 'b'), [[], ['b'], ['a', 'b']])"


def test_stray_elements_are_quoted_once():
    with pytest.raises(ValueError, match=re.escape("values [2] leave the codomain")):
        push({"a": 1, "b": 2}, IndicatorFamily("ab", [set()]), codomain=(1,))
    with pytest.raises(ValueError, match=re.escape("map is not total: missing ['b']")):
        push({"a": 1}, IndicatorFamily("ab", [set()]))
    with pytest.raises(ValueError, match=re.escape("elements ['c'] not in the ground")):
        IndicatorFamily("ab", [{"c"}])
    # mixed-type elements: opens in mask order, elements by their repr
    top = FiniteTopology.discrete((1, "a"))
    assert repr(top) == "FiniteTopology(ground=(1, 'a'), opens=[[], [1], ['a'], ['a', 1]])"
