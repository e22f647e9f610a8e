import random
from unittest.mock import patch

import pytest

import monoidkit as mk
from monoidkit import CancellationFailure, cancel
from monoidkit.rewrite import engine

from conftest import W, no_symmetries


def test_m6_failure_found(m6):
    fails = mk.search_failures(m6, 5)
    assert CancellationFailure("left", W("c"), W("deaf"), W("eafd")) in fails
    # the two other claim families surface as right-context failures
    assert CancellationFailure("right", W("c"), W("bfea"), W("feab")) in fails
    assert CancellationFailure("right", W("b"), W("cefa"), W("efac")) in fails


def test_m6p_completed_failures_at_length_8(m6pc):
    # exactly the cancelled k=1 pairs of the three claim families, each under
    # its context letter on both sides
    pairs = {"b": ("cefaacd", "facacde"), "d": ("abcecef", "bcecefa"),
             "f": ("acdeeab", "deaabce")}
    expected = [
        CancellationFailure(side, W(g), W(x), W(y))
        for side in ("left", "right")
        for g, (x, y) in pairs.items()
    ]
    assert mk.search_failures(m6pc, 8) == expected


def found_symmetries(p, max_len):
    """The finder's letter orbits, as sets of letters, and its anti-automorphism
    as a dict of letters (or None); every reported map is checked to map its
    orbit's first letter class onto the class it stands for."""
    eng = engine(p)
    sym = cancel.letter_symmetries(eng, max_len)
    assert sym.checks < sym.cap
    letters = eng.partition(1)
    orbits = {}
    for c, (r, phi) in enumerate(sym.source):
        assert eng.class_of(letters[r].translate(phi)) == c
        orbits.setdefault(r, set()).update(eng.decode(letters[c]))
    anti = sym.anti and dict(zip(p.letters, eng.decode(sym.anti)))
    return {frozenset(o) for o in orbits.values()}, anti


@pytest.mark.parametrize("name", ["M6", "M6p"])
def test_symmetries_of_m6_and_m6p(name):
    # the anti-automorphism abcdef -> edcbaf and no other symmetry
    orbits, anti = found_symmetries(mk.fixture(name), 6)
    assert orbits == {frozenset(x) for x in "abcdef"}
    assert anti == dict(zip("abcdef", "edcbaf"))


def test_symmetries_of_m6p_completed(m6pc):
    # the automorphisms cdefab and efabcd, and three anti-automorphisms
    orbits, anti = found_symmetries(m6pc, 6)
    assert orbits == {frozenset("ace"), frozenset("bdf")}
    assert "".join(anti[x] for x in "abcdef") in {"afedcb", "cbafed", "edcbaf"}


@pytest.mark.parametrize("m, n, max_len", [(2, 2, 5), (3, 2, 6), (3, 3, 6)])
def test_symmetries_of_gmn(m, n, max_len):
    # reverse, then t_i -> t_(m+1-i) and u_j -> u_(n+1-j); and when m = n the
    # t <-> u swap
    ctx = mk.build_gmn(m, n)
    letters = ctx.presentation.letters
    orbits, anti = found_symmetries(ctx.presentation, max_len)
    if m == n:
        assert orbits == {frozenset("s")} | {frozenset({f"t{i}", f"u{i}"}) for i in range(1, m + 1)}
    else:
        assert orbits == {frozenset({x}) for x in letters}
    assert anti == {"s": "s", **{f"t{i}": f"t{m + 1 - i}" for i in range(1, m + 1)},
                    **{f"u{j}": f"u{n + 1 - j}" for j in range(1, n + 1)}}


def ten_letter_presentation():
    """Twelve random relations with sides of 2-3 letters on ten letters; seed 0
    gives no letter symmetry and 448 failures to length 4."""
    rng = random.Random(0)
    relations = []
    for _ in range(12):
        n = rng.randint(2, 3)
        sides = (tuple(rng.choice("abcdefghij") for _ in range(n)) for _ in range(2))
        relations.append(mk.Relation(*sides))
    return mk.Presentation(tuple("abcdefghij"), tuple(relations))


@pytest.mark.parametrize("p, max_len", [
    (mk.build_gmn(5, 5).presentation, 3),
    (ten_letter_presentation(), 4),
])
def test_symmetry_finder_stays_within_its_cap(p, max_len):
    sym = cancel.letter_symmetries(engine(p), max_len)
    assert sym.checks <= sym.cap == len(engine(p).partition(max_len)) // len(p.letters)
    found = mk.search_failures(p, max_len)
    with patch.object(cancel, "letter_symmetries", no_symmetries):
        assert found == mk.search_failures(p, max_len)


def test_ten_letter_presentation_has_no_symmetry():
    p = ten_letter_presentation()
    orbits, anti = found_symmetries(p, 4)
    assert orbits == {frozenset(x) for x in p.letters} and anti is None
    assert len(mk.search_failures(p, 4)) == 448


def test_g22_and_g32_clean(p22):
    assert mk.search_failures(p22, 5) == []
    assert mk.search_failures(mk.build_gmn(3, 2).presentation, 5) == []


def test_free_monoid_clean(free2):
    assert mk.search_failures(free2, 6) == []
    assert mk.search_failures(mk.Presentation((), ()), 3) == []


def test_failures_reverify(m6):
    for f in mk.search_failures(m6, 5):
        assert not mk.equal(f.x, f.y, m6)
        if f.side == "left":
            assert mk.equal(f.context + f.x, f.context + f.y, m6)
        else:
            assert mk.equal(f.x + f.context, f.y + f.context, m6)


def test_failures_monotone_in_bound(m6):
    small = set(mk.search_failures(m6, 4))
    large = set(mk.search_failures(m6, 5))
    assert small <= large


def test_search_deterministic(m6):
    twin = mk.fixture("M6")
    assert mk.search_failures(m6, 5) == mk.search_failures(twin, 5)


def test_multi_letter_contexts_imply_letter_failures(m6):
    # whenever a longer context breaks cancellation, peeling its letters off
    # one at a time reaches a first failing step, which has a single-letter
    # context at no greater total length; so the letter search misses nothing
    x, y = W("deaf"), W("eafd")
    for g in m6.letters:
        context = (g, "c")
        assert mk.equal(context + x, context + y, m6)  # congruence
        assert not mk.equal(x, y, m6)
        # peel until the first failure
        depth = len(context)
        while depth > 0 and not mk.equal(context[depth:] + x, context[depth:] + y, m6):
            depth -= 1
        step_context = context[depth:]
        assert len(step_context) == 1
        total = len(step_context) + len(x)
        found = mk.search_failures(m6, total)
        assert CancellationFailure("left", step_context, x, y) in found


def test_verify_claim_m6p(m6p):
    # the claim: the pair is equal and the pair with the context cancelled is not
    assert mk.equal(W("dbcefa"), W("dbefac"), m6p)
    assert not mk.equal(W("cefa"), W("efac"), m6p)


@pytest.mark.parametrize("k", [1, 2])
def test_verify_claim_m6p_completed(m6pc, k):
    lhs = W("acd" + "e" * (k + 1) + "abf")
    rhs = W("d" + "e" * k + "aabcef")
    assert mk.equal(lhs, rhs, m6pc)
    assert not mk.equal(lhs[:-1], rhs[:-1], m6pc)


def test_add_relation_builds_completed_fixture(m6p, m6pc):
    built = mk.add_relation(m6p, W("cefa"), W("efac"))
    assert built == m6pc
    assert mk.equal(W("cefa"), W("efac"), built)


def test_add_relation_trivial_and_errors(m6):
    assert mk.add_relation(m6, W("ab"), W("ab")) == m6
    with pytest.raises(ValueError, match="length"):
        mk.add_relation(m6, W("a"), W("ab"))


def test_completion_does_not_terminate(m6pc):
    # adding the failing k-indexed relation leaves the next one failing
    p = m6pc
    for k in (1, 2):
        lhs = W("acd" + "e" * (k + 1) + "ab")
        rhs = W("d" + "e" * k + "aabce")
        assert not mk.equal(lhs, rhs, p)
        assert mk.equal(lhs + W("f"), rhs + W("f"), p)
        p = mk.add_relation(p, lhs, rhs)
        assert mk.equal(lhs, rhs, p)
    # after two completion steps the k=3 instance is still broken
    lhs = W("acd" + "e" * 4 + "ab")
    rhs = W("d" + "e" * 3 + "aabce")
    assert mk.equal(lhs + W("f"), rhs + W("f"), p)
    assert not mk.equal(lhs, rhs, p)
