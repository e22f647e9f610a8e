import time

import pytest
from hypothesis import example, given, settings, strategies as st

import monoidkit as mk
from monoidkit import InjectivityNotEstablishedError

from conftest import naive_equal, naive_lift, random_word


@pytest.fixture(scope="module")
def cert(g22, p22):
    return mk.verify_fundamental(g22.delta, p22)


def sw(p, text):
    return mk.parse_signed_word(p, text)


def test_parse_signed_word(p22, m6):
    assert sw(p22, "t1.u1~") == (("t1", 1), ("u1", -1))
    assert sw(p22, "1") == ()
    assert sw(m6, "ab~c") == (("a", 1), ("b", -1), ("c", 1))
    with pytest.raises(ValueError):
        sw(p22, "t9")
    with pytest.raises(ValueError, match="'~' must follow a letter"):
        sw(m6, "~a")
    # the one tokeniser of positive words, with the "~" suffix allowed
    assert sw(p22, "s~.t1~.u2") == (("s", -1), ("t1", -1), ("u2", 1))
    assert sw(m6, "a~b~") == (("a", -1), ("b", -1))
    with pytest.raises(ValueError, match="'~' must follow a letter"):
        sw(m6, "a~~")


def test_free_reduce():
    assert mk.free_reduce((("t1", 1), ("t1", -1))) == ()
    assert mk.free_reduce((("t1", 1), ("u1", 1), ("u1", -1), ("t2", 1))) == (
        ("t1", 1),
        ("t2", 1),
    )
    w = (("s", -1), ("t1", 1), ("t2", 1))
    assert mk.free_reduce(w) == w
    # nested cancellations collapse fully
    assert mk.free_reduce(
        (("s", 1), ("t1", 1), ("t1", -1), ("s", -1))
    ) == ()


def test_positive_lift_examples(g22, p22, cert):
    k, positive = naive_lift(sw(p22, "s.t1"), cert, p22)
    assert k == 0 and positive == ("s", "t1")

    k, positive = naive_lift(sw(p22, "s~"), cert, p22)
    assert k == 1
    assert positive == ("t1", "t2", "u1", "u2")

    k, positive = naive_lift(sw(p22, "t1.u1.t1~.u1~"), cert, p22)
    assert k == 2
    assert mk.equal(positive, g22.delta * 2, p22)


def test_lift_identity_in_group(g22, p22, cert):
    # lambda^k * w must equal the lifted positive word, checked by moving
    # every inverse back: here w = s~ gives delta = s * lifted
    _, positive = naive_lift(sw(p22, "s~"), cert, p22)
    assert mk.equal(("s",) + positive, g22.delta, p22)


def test_group_equal_commutators(g22, p22, cert):
    assert mk.group_equal(sw(p22, "t1.u1.t1~.u1~"), (), p22, cert)
    assert not mk.group_equal(sw(p22, "t1.t2.t1~.t2~"), (), p22, cert)
    assert not mk.group_equal(sw(p22, "u1.u2.u1~.u2~"), (), p22, cert)


def test_group_equal_delta_central(g22, p22, cert):
    d = "s.t1.t2.u1.u2"
    d_inv = "u2~.u1~.t2~.t1~.s~"
    for g in p22.letters:
        w = sw(p22, f"{d}.{g}.{d_inv}.{g}~")
        assert mk.group_equal(w, (), p22, cert)


def test_group_equal_monoid_consistency(g22, p22, cert, rng):
    # on positive words the group decision agrees with the monoid decision
    for _ in range(25):
        u = random_word(rng, p22, 4)
        v = random_word(rng, p22, 4)
        gu = tuple((x, 1) for x in u)
        gv = tuple((x, 1) for x in v)
        assert mk.group_equal(gu, gv, p22, cert) == mk.equal(u, v, p22)


def test_group_equal_padding_invariance(g22, p22, cert):
    # prepending the same central power to both sides never changes verdicts,
    # and no closure sees the padding: all of it under the default cap
    start = time.perf_counter()
    lam = tuple((x, 1) for x in g22.delta * cert.order)
    pairs = [
        (sw(p22, "t1.u1.t1~.u1~"), ()),
        (sw(p22, "t1.t2.t1~.t2~"), ()),
        (sw(p22, "s.t1"), sw(p22, "t1.s")),
    ]
    for a, b in pairs:
        base = mk.group_equal(a, b, p22, cert)
        for k in range(1, 6):
            assert mk.group_equal(lam * k + a, lam * k + b, p22, cert) == base
    # the benchmark's lambda^3 [t1, u1] = lambda^3, as text
    d3 = ".".join(["s.t1.t2.u1.u2"] * 3)
    assert mk.group_equal(sw(p22, d3 + ".t1.u1.t1~.u1~"), sw(p22, d3), p22, cert)
    assert time.perf_counter() - start < 0.1


def test_group_equal_requires_injectivity(m6, m6p):
    cert6 = mk.verify_fundamental(tuple("abcdef"), m6)
    w = tuple((x, 1) for x in "ab")
    with pytest.raises(InjectivityNotEstablishedError):
        mk.group_equal(w, w, m6, cert6)
    # the search bound route refuses when failures exist
    with pytest.raises(InjectivityNotEstablishedError, match="failures"):
        mk.group_equal(w, w, m6, cert6, verify_cancellative_to=5)
    # explicit override runs anyway
    assert mk.group_equal(w, w, m6, cert6, assume_injective=True)


def test_group_equal_refuses_flagged_presentation(m6, m6pc):
    # a bound below the first failure finds none, but the fixtures are
    # flagged non-cancellative, so the search cannot establish injectivity
    cert6 = mk.verify_fundamental(tuple("abcdef"), m6)
    w = tuple((x, 1) for x in "ab")
    assert mk.search_failures(m6, 4) == []
    with pytest.raises(InjectivityNotEstablishedError, match="flagged non-cancellative"):
        mk.group_equal(w, w, m6, cert6, verify_cancellative_to=4)
    assert mk.group_equal(w, w, m6, cert6, assume_injective=True, verify_cancellative_to=4)
    cert = mk.verify_fundamental(tuple(m6pc.letters), m6pc)
    assert cert is not None
    with pytest.raises(InjectivityNotEstablishedError, match="flagged non-cancellative"):
        mk.group_equal(w, w, m6pc, cert, verify_cancellative_to=6)


def test_group_equal_needs_an_atom_for_every_letter(free2):
    # a certificate of delta = a in the free monoid on a alone says nothing
    # of the letter b
    cert = mk.verify_fundamental(("a",), mk.Presentation(("a",), ()))
    w = (("a", 1),)
    message = "^letter 'b' has no atom representative in the certificate$"
    with pytest.raises(ValueError, match=message):
        mk.group_equal(w, w, free2, cert, assume_injective=True)


def test_group_equal_empirical_route(free2):
    # free monoids have no failures; the empirical route accepts them
    cert = mk.verify_fundamental(("a", "b"), free2)
    assert cert is None  # free monoid has no fundamental element
    ctx = mk.build_gmn(2, 2)
    fresh = mk.parse_presentation(mk.serialize_presentation(ctx.presentation))
    assert fresh.cancellative is None
    c = mk.verify_fundamental(tuple(fresh.letters), fresh)
    w = sw(fresh, "t1.u1.t1~.u1~")
    with pytest.raises(InjectivityNotEstablishedError):
        mk.group_equal(w, (), fresh, c)
    assert mk.group_equal(w, (), fresh, c, verify_cancellative_to=4)


def test_center_scan_g22(g22, p22):
    found = mk.center_scan(p22, 5)
    assert found == {(), mk.canonical(g22.delta, p22)}
    # the non-trivial central element is left-divisible by delta
    for w in found:
        if w:
            assert mk.left_divides(g22.delta, w, p22).divides


def test_center_scan_free_monoid(free2):
    assert mk.center_scan(free2, 3) == {()}


def test_center_scan_elements_commute_with_short_words(p22, rng):
    for w in mk.center_scan(p22, 5):
        for _ in range(10):
            v = random_word(rng, p22, 2, min_len=1)
            assert mk.equal(w + v, v + w, p22)


def test_order_two_permutation_lifting():
    # three-strand braid relation: sigma swaps the generators, so the
    # central element is delta squared and the general-order path is live
    p = mk.parse_presentation("generators: a b\nrelation: aba = bab\n")
    delta = ("a", "b", "a")
    cert = mk.verify_fundamental(delta, p)
    assert cert.sigma == {"a": "b", "b": "a"}
    assert cert.order == 2
    assert cert.quotients == {"a": ("b", "a"), "b": ("a", "b")}

    k, positive = naive_lift(sw(p, "a~"), cert, p)
    assert k == 1
    assert mk.equal(("a",) + positive, delta * 2, p)

    ge = lambda u, v: mk.group_equal(
        sw(p, u), sw(p, v), p, cert, verify_cancellative_to=5
    )
    assert ge("aba", "bab")
    assert ge("a.b.a~", "b~.a.b")
    assert not ge("a", "b")

    # delta is not central but its square is
    found = mk.center_scan(p, 6)
    assert found == {(), mk.canonical(delta * 2, p)}
    assert not mk.equal(delta + ("a",), ("a",) + delta, p)


def test_delta_powers_are_central(g22, p22):
    d = g22.delta
    assert mk.canonical(d, p22) in mk.center_scan(p22, len(d))
    # delta^2 satisfies the scan predicate; a scan to length 10 would need an
    # exhaustive partition of ~5^11 words, so check the predicate directly
    for g in p22.letters:
        assert mk.equal(d + d + (g,), (g,) + d + d, p22)


# g(2,2), whose atom permutation sigma is the identity, and presentations
# where it is not, so that its direction matters: the positive braid monoids
# on 3 and 4 strands (sigma of order 2) and the dual braid monoid on 3 strands
# (order 3, so sigma and its inverse differ).
_G22 = mk.build_gmn(2, 2)
SIGMA_CASES = {
    name: (p, mk.verify_fundamental(tuple(delta), p))
    for name, p, delta in [
        ("g22", _G22.presentation, _G22.delta),
        ("B3", mk.parse_presentation("generators: a b\nrelation: aba = bab\n"), "aba"),
        (
            "B4",
            mk.parse_presentation(
                "generators: a b c\nrelation: aba = bab\nrelation: bcb = cbc\n"
                "relation: ac = ca\n"
            ),
            "abcaba",
        ),
        (
            "BKL3",
            mk.parse_presentation("generators: a b c\nrelation: ab = bc\nrelation: bc = ca\n"),
            "ab",
        ),
    ]
}
# Inverse letters per word.  Each lifts to |delta| * order - 1 letters, and the
# oracle enumerates the class of the padded lift depth first.
MAX_INVERSES = {"g22": 2, "B3": 2, "B4": 1, "BKL3": 1}


@st.composite
def signed_pairs(draw):
    """A presentation and two signed words of 0-4 letters; the second has the
    exponent sum of the first when it can, so length alone rarely decides."""
    name = draw(st.sampled_from(sorted(SIGMA_CASES)))
    p = SIGMA_CASES[name][0]
    most = MAX_INVERSES[name]

    def word(length, inverses):
        signs = draw(st.permutations([-1] * inverses + [1] * (length - inverses)))
        return tuple((draw(st.sampled_from(p.letters)), s) for s in signs)

    n1 = draw(st.integers(0, 4))
    w1 = word(n1, draw(st.integers(0, min(n1, most))))
    n2 = draw(st.integers(0, 4))
    w2 = word(n2, min(most, n2, max(0, (n2 - sum(s for _, s in w1)) // 2)))
    return name, w1, w2


def definitional_equal(w1, w2, p, cert):
    """lambda^-k1 * P1 = lambda^-k2 * P2, lambda = delta^order being central:
    pad the lift with the smaller k and compare in the oracle."""
    (k1, P1), (k2, P2) = naive_lift(w1, cert, p), naive_lift(w2, cert, p)
    lam = cert.delta * cert.order
    k = max(k1, k2)
    a = lam * (k - k1) + P1
    b = lam * (k - k2) + P2
    return len(a) == len(b) and naive_equal(a, b, p)


def _pair(name, u, v):
    p = SIGMA_CASES[name][0]
    return name, mk.parse_signed_word(p, u), mk.parse_signed_word(p, v)


@settings(max_examples=120, deadline=None)
@given(signed_pairs())
# members of delta's class other than delta itself
@example(_pair("B4", "babcba", "abcaba"))
@example(_pair("g22", "t1.t2.s.u1.u2", "s.t1.t2.u1.u2"))
# delta left-divides only after rewriting, so the comparison must divide
@example(_pair("g22", "s.t1.t2.t1.u1.u2", "s.t1.t2.u1.u2.t1"))
@example(_pair("g22", "s.t1.t2.t1.u1.u2.t1~", "s.t1.t2.u1.u2"))
@example(_pair("B4", "abacaba", "abcabab"))
# delta~ * x * delta is sigma(x); in BKL3 sigma^-1(x) differs from it
@example(_pair("B3", "a~b~a~aaba", "b"))
@example(_pair("BKL3", "b~a~aab", "c"))
@example(_pair("BKL3", "b~a~aab", "b"))
# ab = bc gives a~b = bc~; with sigma and its inverse swapped a~b reduces to 1
@example(_pair("BKL3", "a~b", "bc~"))
def test_group_equal_matches_definition(case):
    name, w1, w2 = case
    p, cert = SIGMA_CASES[name]
    expected = definitional_equal(w1, w2, p, cert)
    assert mk.group_equal(w1, w2, p, cert, assume_injective=True) == expected
