from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

import monoidkit as mk
from monoidkit import NotFundamentalError, Presentation, Relation

from conftest import W, naive_canonical, naive_canonicals, naive_class, random_word
from test_tables import presentations


def test_atoms(p22, m6):
    assert mk.atoms(p22) == {"s", "t1", "t2", "u1", "u2"}
    assert mk.atoms(m6) == set("abcdef")


def test_atoms_merge_equal_letters():
    p = Presentation(("a", "b"), (Relation(("a",), ("b",)),))
    assert mk.atoms(p) == {"a"}


def test_fundamental_delta_g22(g22, p22):
    cert = mk.verify_fundamental(g22.delta, p22)
    assert cert is not None
    assert cert.sigma == {x: x for x in p22.letters}
    assert cert.order == 1
    assert cert.sigma_count == 1
    assert cert.quotients["s"] == ("t1", "t2", "u1", "u2")
    for s, q in cert.quotients.items():
        assert mk.equal((s,) + q, g22.delta, p22)
        assert mk.equal(q + (cert.sigma[s],), g22.delta, p22)


def test_fundamental_rejects_single_letter(p22):
    assert mk.verify_fundamental(("t1",), p22) is None
    with pytest.raises(NotFundamentalError) as info:
        mk.verify_fundamental(("t1",), p22, strict=True)
    assert info.value.atom == "s"


@pytest.mark.parametrize("text, reason, atom", [
    # ab has the one quotient b of a, and no letter x gives b*x = ab
    ("generators: a b\n", "no letter completes a quotient of atom 'a'", "a"),
    # both atoms complete their quotient b only with b
    ("generators: a b\nrelation: ab = bb\n", "no atom permutation fits the quotients", None),
])
def test_fundamental_refusal_reasons(text, reason, atom):
    p = mk.parse_presentation(text)
    assert mk.verify_fundamental(W("ab"), p) is None
    with pytest.raises(NotFundamentalError, match=f"^{reason}$") as info:
        mk.verify_fundamental(W("ab"), p, strict=True)
    assert info.value.atom == atom


def test_fundamental_rejects_empty(p22):
    assert mk.verify_fundamental((), p22) is None


def test_fundamental_m6_product(m6):
    cert = mk.verify_fundamental(W("abcdef"), m6)
    assert cert is not None
    for s, q in cert.quotients.items():
        assert mk.equal((s,) + q, W("abcdef"), m6)


def test_fundamental_implies_two_sided_division(g22, p22):
    cert = mk.verify_fundamental(g22.delta, p22)
    for s in mk.atoms(p22):
        assert mk.left_divides((s,), g22.delta, p22).divides
        assert mk.right_divides((s,), g22.delta, p22).divides
    # sigma permutes the atom classes exactly once each
    images = {mk.canonical((cert.sigma[s],), p22) for s in cert.sigma}
    assert images == {mk.canonical((s,), p22) for s in mk.atoms(p22)}


def test_sigma_order_is_permutation_order(g22, p22):
    cert = mk.verify_fundamental(g22.delta, p22)
    sigma = cert.sigma
    cur = dict(sigma)
    for _ in range(cert.order - 1):
        cur = {s: sigma[cur[s]] for s in cur}
    assert cur == {s: s for s in sigma}


def test_garside_delta(g22, p22):
    rep = mk.verify_garside(g22.delta, p22)
    assert rep.is_garside and rep.coincide and rep.generate
    assert () in rep.left_divisors
    assert mk.canonical(g22.delta, p22) in rep.left_divisors
    assert rep.left_divisors == rep.right_divisors


def test_garside_empty_and_letter(p22):
    rep = mk.verify_garside((), p22)
    assert not rep.is_garside and rep.coincide and not rep.generate
    assert not mk.verify_garside(("t1",), p22).is_garside


def test_cross_check_on_cancellative(g22, p22, rng):
    # on a cancellative monoid, fundamental and Garside agree
    for w in (g22.delta, (), ("t1",), ("s", "t1", "t2")):
        assert (mk.verify_fundamental(w, p22) is not None) == mk.verify_garside(w, p22).is_garside
    assert mk.verify_fundamental(g22.delta, p22) is not None
    assert mk.verify_fundamental(("s", "t1", "t2"), p22) is None
    for _ in range(12):
        w = random_word(rng, p22, 5)
        assert (mk.verify_fundamental(w, p22) is not None) == mk.verify_garside(w, p22).is_garside


def test_sigma_count_when_every_permutation_fits():
    # every length-2 word over a..e is equal, so each atom's quotients take
    # every letter back to delta and all 5! permutations fit
    letters = tuple("abcde")
    rels = tuple(
        Relation(("a", "a"), (x, y)) for x in letters for y in letters if (x, y) != ("a", "a")
    )
    p = Presentation(letters, rels)
    delta = ("a", "a")
    fits = sum(
        all(
            any(mk.equal((s, q), delta, p) and mk.equal((q, x), delta, p) for q in letters)
            for s, x in zip(letters, perm)
        )
        for perm in permutations(letters)
    )
    cert = mk.verify_fundamental(delta, p)
    assert fits == 120
    assert cert.sigma_count == fits
    assert cert.sigma == {x: x for x in letters}


# -- fundamental and Garside tests against the oracle -----------------------


def oracle_fundamental(delta, p):
    """(sigma, sigma_count, quotients, order) of delta from the oracle's
    classes alone, or None when no permutation of the atoms fits."""
    reps = {}
    for x in p.letters:
        reps.setdefault(frozenset(naive_class((x,), p)), x)
    ats = list(reps.values())
    cls = naive_class(delta, p)
    # per atom s: the least quotient class q with s*q = delta = q*x, per x
    options = []
    for s in ats:
        quotients = {naive_canonical(m[1:], p) for m in cls if m[0] == s}
        fitting = {x: [q for q in quotients if q + (x,) in cls] for x in ats}
        options.append({x: min(qs, key=p.word_key) for x, qs in fitting.items() if qs})
    fits = [perm for perm in permutations(ats)
            if all(x in opts for opts, x in zip(options, perm))]
    if not fits:
        return None
    sigma = dict(zip(ats, fits[0]))
    order, power = 1, dict(sigma)
    while any(power[s] != s for s in ats):
        order, power = order + 1, {s: sigma[power[s]] for s in ats}
    quotients = {s: opts[sigma[s]] for s, opts in zip(ats, options)}
    return sigma, len(fits), quotients, order


@st.composite
def deltas(draw):
    p = draw(presentations())
    return p, draw(st.text(alphabet="".join(p.letters), min_size=1, max_size=5).map(tuple))


# every 2-letter word is equal, so each quotient set holds two letter classes
# and both permutations fit; ab = ba, and ab = bc = ca, make ab fundamental
@settings(max_examples=80, deadline=None)
@given(deltas())
@example((mk.parse_presentation("generators: a b\nrelation: aa = ab = ba = bb\n"), W("aa")))
@example((mk.parse_presentation("generators: a b\nrelation: ab = ba\n"), W("ab")))
@example((mk.parse_presentation("generators: a b c\nrelation: ab = bc = ca\n"), W("ab")))
def test_fundamental_and_garside_match_oracle(case):
    p, delta = case
    cert = mk.verify_fundamental(delta, p)
    expected = oracle_fundamental(delta, p)
    if expected is None:
        assert cert is None
    else:
        assert (cert.sigma, cert.sigma_count, cert.quotients, cert.order) == expected
    cls = naive_class(delta, p)
    left = naive_canonicals({m[:i] for m in cls for i in range(len(m) + 1)}, p)
    right = naive_canonicals({m[i:] for m in cls for i in range(len(m) + 1)}, p)
    letters = {naive_canonical((x,), p) for x in p.letters}
    rep = mk.verify_garside(delta, p)
    assert rep.left_divisors == left and rep.right_divisors == right
    assert rep.coincide == (left == right)
    assert rep.generate == (letters <= left | right)
