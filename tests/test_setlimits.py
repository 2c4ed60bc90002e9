"""Set-sequence limit tests: pointwise family limits, classical lim sup /
lim inf, the reproduction theorem, and a brute-force window oracle."""

import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from evfam.families import (
    AllFamily,
    CofiniteFamily,
    CoGapLevelFamily,
    EmptyFamily,
    IndicatorFamily,
    InfiniteFamily,
    PredicateFamily,
)
from evfam.intseq import EPSet, random_epset
from evfam.setlimits import (
    SetSequence,
    classical_limits,
    e_limit,
    verify_limit_theorem,
)

ODDS = EPSet((), (1, 0))
EVENS = EPSet((), (0, 1))
G = InfiniteFamily()
H = CofiniteFamily()

ALTERNATING = SetSequence(("a", "b"), {"a": ODDS, "b": EVENS})


def random_sequence(rng, ground=("a", "b", "c"), convergent=False):
    traces = {}
    for x in ground:
        if convergent:
            # finite or cofinite trace: x eventually settles in or out
            pre = tuple(rng.randrange(2) for _ in range(rng.randrange(6)))
            traces[x] = EPSet(pre, (rng.randrange(2),))
        else:
            traces[x] = random_epset(rng)
    return SetSequence(ground, traces)


def brute_window_limits(seq):
    """Independent lim sup / lim inf: scan one full period past every
    prefix, where membership is literal."""
    p = max((len(t.prefix) for t in seq.traces.values()), default=0)
    q = 1
    for t in seq.traces.values():
        q = math.lcm(q, max(len(t.period), 1))
    window = [seq.set_at(n) for n in range(p + 1, p + q + 1)]
    limsup = frozenset(x for x in seq.ground if any(x in a for a in window))
    liminf = frozenset(x for x in seq.ground if all(x in a for a in window))
    return limsup, liminf


# ---------------------------------------------------------------------------
# pointwise limits


def test_trivial_family_limits():
    assert e_limit(EmptyFamily(), ALTERNATING) == frozenset()
    assert e_limit(AllFamily(), ALTERNATING) == {"a", "b"}


def test_alternating_example():
    assert e_limit(G, ALTERNATING) == {"a", "b"}
    assert e_limit(H, ALTERNATING) == frozenset()


def test_e_limit_rejects_finite_ground_families():
    fam = IndicatorFamily(("a",), [{"a"}])
    with pytest.raises(TypeError):
        e_limit(fam, ALTERNATING)


def test_e_limit_rejects_non_symbolic_families():
    with pytest.raises(TypeError, match="^e-limits evaluate against symbolic families over N$"):
        e_limit(PredicateFamily("N", lambda s: not s.is_finite), ALTERNATING)


def test_from_sets_round_trip():
    seq = SetSequence.from_sets(("a", "b"), [], [{"a"}, {"b"}])
    assert seq == ALTERNATING
    assert seq.set_at(1) == {"a"}
    assert seq.set_at(2) == {"b"}
    assert seq.set_at(7) == {"a"}

    noisy = SetSequence.from_sets(("a", "b"), [{"b"}, {"a", "b"}], [{"a"}])
    assert noisy.set_at(1) == {"b"}
    assert noisy.set_at(2) == {"a", "b"}
    assert noisy.set_at(3) == {"a"}
    assert noisy.set_at(100) == {"a"}


def test_from_sets_refuses_elements_outside_the_ground():
    with pytest.raises(ValueError, match=re.escape("elements ['zz'] not in the ground")):
        SetSequence.from_sets(("a",), [{"b"}], [{"a", "zz"}])
    with pytest.raises(ValueError, match=re.escape("elements ['b'] not in the ground")):
        SetSequence.from_sets(("a",), [{"b"}], [{"a"}])
    with pytest.raises(ValueError, match="need a finite ground"):
        SetSequence.from_sets("N", [], [{"N"}])
    with pytest.raises(ValueError, match="at least one period entry"):
        SetSequence.from_sets(("a", "b"), [{"a"}], [])
    with pytest.raises(ValueError, match="at least one period entry"):
        SetSequence.from_sets(("a", "b"), [], iter(()))


def test_from_sets_builds_what_the_checked_constructor_builds():
    ground = ("a", "b", "c")
    seq = SetSequence.from_sets(ground, [{"a"}, set(), {"b", "c"}], [{"b"}, {"a", "b"}])
    assert list(seq.traces) == list(ground)
    assert seq == SetSequence(ground, seq.traces)
    assert seq.trace("a") == EPSet((1, 0, 0), (0, 1))
    assert seq.trace("c") == EPSet.finite({3})


def test_constructor_keeps_its_checks():
    with pytest.raises(ValueError, match=re.escape("elements ['z'] not in the ground")):
        SetSequence(("a",), {"z": EPSet.empty()})
    with pytest.raises(TypeError, match="traces must be EPSets"):
        SetSequence(("a",), {"a": frozenset({1})})


# ---------------------------------------------------------------------------
# classical limits


def test_constant_sequence_converges():
    seq = SetSequence.from_sets(("a", "b"), [], [{"a"}])
    c = classical_limits(seq)
    assert c.limit == {"a"}


def test_alternating_has_no_limit():
    c = classical_limits(ALTERNATING)
    assert c.limsup == {"a", "b"}
    assert c.liminf == frozenset()
    assert c.limit is None


def test_eventually_constant_sequence():
    seq = SetSequence.from_sets(("a", "b"), [{"b"}, {"a", "b"}, set()], [{"a"}])
    assert classical_limits(seq).limit == {"a"}


traces = st.one_of(
    st.builds(lambda p, q: EPSet(tuple(p), tuple(q)),
              st.lists(st.integers(0, 1), max_size=8),
              st.lists(st.integers(0, 1), max_size=12)),
    st.sampled_from([EPSet.empty(), EPSet.naturals(), EPSet.finite({1, 4}),
                     EPSet((0, 1, 0), (1,))]),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(traces, min_size=1, max_size=4))
def test_classical_limits_match_family_limits(ts):
    # read off the traces, and through the infinite and cofinite families
    seq = SetSequence(tuple("abcd"[: len(ts)]), dict(zip("abcd", ts)))
    c = classical_limits(seq)
    assert c.limsup == e_limit(G, seq)
    assert c.liminf == e_limit(H, seq)


def test_brute_window_oracle():
    rng = random.Random(101)
    for _ in range(150):
        seq = random_sequence(rng)
        c = classical_limits(seq)
        limsup, liminf = brute_window_limits(seq)
        assert c.limsup == limsup
        assert c.liminf == liminf


# ---------------------------------------------------------------------------
# the reproduction theorem


def test_verify_examples():
    constant = SetSequence.from_sets(("a", "b"), [], [{"a"}])
    assert verify_limit_theorem(constant, CoGapLevelFamily(2)).status == "verified"
    assert verify_limit_theorem(constant, H).status == "verified"

    eventually = SetSequence.from_sets(("a", "b"), [{"b"}], [{"a"}])
    assert verify_limit_theorem(eventually, G).status == "verified"


def test_verify_preconditions():
    constant = SetSequence.from_sets(("a",), [], [{"a"}])
    assert verify_limit_theorem(constant, AllFamily()).status == "preconditions-unmet"
    assert verify_limit_theorem(constant, EmptyFamily()).status == "preconditions-unmet"
    v = verify_limit_theorem(ALTERNATING, G)
    assert v.status == "preconditions-unmet"
    assert "limit" in v.reason
    assert not v
    v = verify_limit_theorem(constant, EmptyFamily(("a",)))
    assert (v.status, v.reason) == ("preconditions-unmet", "family is not over N")


def test_verify_on_random_convergent_corpus():
    rng = random.Random(202)
    families = [G, H, CoGapLevelFamily(1), CoGapLevelFamily(2), CoGapLevelFamily(5)]
    for _ in range(200):
        seq = random_sequence(rng, convergent=True)
        for fam in families:
            assert verify_limit_theorem(seq, fam).status == "verified"


def test_sandwich_on_arbitrary_sequences():
    rng = random.Random(303)
    families = [CoGapLevelFamily(c) for c in (1, 2, 5)]
    for _ in range(200):
        seq = random_sequence(rng)
        c = classical_limits(seq)
        for fam in families:
            mid = e_limit(fam, seq)
            assert c.liminf <= mid <= c.limsup
