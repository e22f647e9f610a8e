from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import monoidkit as mk
from monoidkit import NonHomogeneousError
from monoidkit.rewrite import engine

from conftest import W, naive_class, naive_left_divides, naive_quotients, random_word


def test_left_divides_via_rotation(p22):
    res = mk.left_divides(("t1",), ("s", "t1", "t2"), p22)
    assert res.divides
    assert res.quotients == {("t2", "s")}


def test_left_divides_self_and_empty(p22, rng):
    for _ in range(10):
        w = random_word(rng, p22, 4)
        assert mk.left_divides(w, w, p22).quotients == {()}
        assert mk.left_divides((), w, p22).quotients == {mk.canonical(w, p22)}
        assert mk.right_divides((), w, p22).quotients == {mk.canonical(w, p22)}


def test_left_divides_blocked_prefix(p22):
    res = mk.left_divides(("s", "t1", "t2"), ("u1", "s", "t1", "t2"), p22)
    assert not res.divides
    assert res.quotients == frozenset()


def test_right_divides(p22):
    res = mk.right_divides(("s",), ("s", "t1", "t2"), p22)
    assert res.divides
    assert res.quotients == {("t1", "t2")}
    assert mk.right_divides(W("w"), W("w"), mk.Presentation(("w",), ())).divides
    assert not mk.right_divides(("u1", "u2"), ("u2", "u1"), p22).divides


def test_divides_longer_than_target(p22):
    assert not mk.left_divides(("s", "s"), ("s",), p22).divides


def test_divisibility_matches_oracle(p22, m6, rng):
    for p in (p22, m6):
        for _ in range(60):
            v = random_word(rng, p, 5)
            u = random_word(rng, p, 3)
            assert mk.left_divides(u, v, p).divides == naive_left_divides(u, v, p)


def test_divides_caches_only_the_class_of_v(p22, rng):
    # the quotients' canonical words are read off the class of v in one pass,
    # so no quotient class is closed over or cached, and a cache warmed by
    # canonical calls on the quotients changes no answer
    for side, divides in (("left", mk.left_divides), ("right", mk.right_divides)):
        for _ in range(10):
            v = random_word(rng, p22, 7, min_len=4)
            members = mk.equivalence_class(v, p22).members
            n = rng.randint(1, 3)
            m = rng.choice(sorted(members))
            u = m[:n] if side == "left" else m[-n:]
            cold = mk.build_gmn(2, 2).presentation
            res = divides(u, v, cold)
            assert res.divides
            assert len(engine(cold)._classes) == len(members)
            warm = mk.build_gmn(2, 2).presentation
            for x in members:
                mk.canonical(x[n:] if side == "left" else x[:-n], warm)
            assert divides(u, v, warm) == res


# g(2,2) and g(3,2) as built, flagged cancellative, and the same presentations
# unflagged, so that divisions take the union-find over their quotients
FLAGGED = [mk.build_gmn(m, n).presentation for m, n in ((2, 2), (3, 2))]
UNFLAGGED = [mk.Presentation(p.letters, p.relations) for p in FLAGGED]


@st.composite
def gmn_divisions(draw):
    """One of FLAGGED, a word v of up to 7 letters, a random word of up to 3
    letters, and a member of the class of v with a cut point, so that a
    prefix or suffix of it divides v."""
    x = draw(st.integers(0, len(FLAGGED) - 1))
    word = st.lists(st.sampled_from(FLAGGED[x].letters), max_size=7).map(tuple)
    v = draw(word)
    u = draw(st.lists(st.sampled_from(FLAGGED[x].letters), max_size=3).map(tuple))
    m = draw(st.sampled_from(sorted(naive_class(v, FLAGGED[x]))))
    k = draw(st.integers(0, len(v)))
    return x, v, u, m, k


@settings(max_examples=120, deadline=None)
@given(gmn_divisions())
def test_cancellative_divisions_match_union_find(query):
    x, v, u, m, k = query
    flagged, unflagged = FLAGGED[x], UNFLAGGED[x]
    assert flagged.cancellative is True and unflagged.cancellative is None
    for side, divides, cut in (("left", mk.left_divides, m[:k]),
                               ("right", mk.right_divides, m[len(m) - k:])):
        for w in (u, cut):
            res = divides(w, v, flagged)
            assert res == divides(w, v, unflagged)
            assert res.quotients == naive_quotients(w, v, flagged, side)
            assert len(res.quotients) == res.divides
        assert divides(cut, v, flagged).divides


def test_non_cancellative_quotients_keep_their_classes(m6):
    # c*deaf = c*eafd = deaf*c = eafd*c in M6, flagged not cancellative,
    # although deaf and eafd differ: the quotients are two classes
    assert m6.cancellative is False
    for side, divides in (("left", mk.left_divides), ("right", mk.right_divides)):
        res = divides(W("c"), W("cdeaf"), m6)
        assert res.quotients == {W("deaf"), W("eafd")}
        assert res.quotients == naive_quotients(W("c"), W("cdeaf"), m6, side)


def test_representative_independence(p22, rng):
    for _ in range(20):
        u = random_word(rng, p22, 2, min_len=1)
        v = random_word(rng, p22, 5, min_len=2)
        base = mk.left_divides(u, v, p22).divides
        for u2 in mk.equivalence_class(u, p22).members:
            for v2 in list(mk.equivalence_class(v, p22).members)[:4]:
                assert mk.left_divides(u2, v2, p22).divides == base


def test_left_divisibility_transitive(p22, rng):
    for _ in range(25):
        w = random_word(rng, p22, 5, min_len=2)
        divisors = [
            m[:i]
            for m in mk.equivalence_class(w, p22).members
            for i in range(len(m) + 1)
        ]
        v = rng.choice(divisors)
        u = rng.choice([m[:i] for m in mk.equivalence_class(v, p22).members
                        for i in range(len(m) + 1)] or [()])
        assert mk.left_divides(v, w, p22).divides
        assert mk.left_divides(u, v, p22).divides
        assert mk.left_divides(u, w, p22).divides


def test_cm_r_examples(p22, rng):
    assert mk.cm_r([("t1",), ("t2",)], p22, 3) == {("s", "t1", "t2")}
    assert mk.canonical(("t1", "u1"), p22) in mk.cm_r([("t1",), ("u1",)], p22, 2)
    for _ in range(5):
        w = random_word(rng, p22, 4, min_len=1)
        assert mk.cm_r([w], p22, len(w)) == {mk.canonical(w, p22)}
    with pytest.raises(ValueError):
        mk.cm_r([], p22, 3)


def test_mcm_r_no_least_common_multiple(p22):
    rep = mk.mcm_r([("t1",), ("t2",)], p22, 4)
    assert rep.minimal == {
        ("s", "t1", "t2"),
        ("t1", "t2", "u1", "s"),
        ("t1", "t2", "u2", "s"),
    }
    assert rep.lcm_up_to_bound is None
    assert len(rep.common_multiples) == 8
    assert rep.minimal <= rep.common_multiples
    # still no least common multiple one level up
    assert mk.mcm_r([("t1",), ("t2",)], p22, 5).lcm_up_to_bound is None


@pytest.mark.parametrize("m,n,max_len,minimal,common", [(2, 2, 8, 48, 2716), (3, 2, 7, 12, 271)])
def test_mcm_r_no_lcm_at_paper_scale(m, n, max_len, minimal, common):
    # the minimal common multiples of t1 and t2 are the w(u)*delta1 with no
    # u1..un suffix on w(u), as the no-lcm claim predicts, so there is no lcm
    ctx = mk.build_gmn(m, n)
    p = ctx.presentation
    rep = mk.mcm_r([("t1",), ("t2",)], p, max_len)
    predicted = {
        mk.canonical(w + ctx.delta1, p)
        for k in range(max_len - len(ctx.delta1) + 1)
        for w in product(ctx.family(2), repeat=k)
        if mk.in_rm(ctx, w, 2)
    }
    assert rep.minimal == predicted
    assert len(rep.minimal) == minimal
    assert len(rep.common_multiples) == common
    assert rep.lcm_up_to_bound is None


def test_mcm_r_singleton(p22, rng):
    for _ in range(5):
        w = random_word(rng, p22, 3, min_len=1)
        rep = mk.mcm_r([w], p22, len(w))
        assert rep.lcm_up_to_bound == mk.canonical(w, p22)
        assert rep.minimal == {mk.canonical(w, p22)}


def test_mcm_minimal_pairwise_incomparable(p22):
    rep = mk.mcm_r([("t1",), ("t2",)], p22, 5)
    for u in rep.minimal:
        for v in rep.minimal:
            if u != v:
                assert not mk.left_divides(u, v, p22).divides


def test_mcm_exact_within_bound(p22):
    # every common multiple's left divisors fit inside the bound, so the
    # minimal set cannot be polluted by truncation: check against bound+1
    small = mk.mcm_r([("t1",), ("t2",)], p22, 4)
    large = mk.mcm_r([("t1",), ("t2",)], p22, 5)
    assert small.minimal <= large.minimal


def test_divisibility_requires_homogeneous():
    p = mk.parse_presentation("generators: a\nrelation: a = aa\n")
    with pytest.raises(NonHomogeneousError):
        mk.left_divides(("a",), ("a", "a"), p)
