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


def anti_map(p, max_len):
    """The finder's anti-automorphism as a dict of letters, or None, found
    within its cap."""
    eng = engine(p)
    sym = cancel.letter_symmetries(eng, max_len)
    assert sym.checks < sym.cap
    return sym.anti and dict(zip(p.letters, eng.decode(sym.anti)))


@pytest.mark.parametrize("name", ["M6", "M6p"])
def test_symmetries_of_m6_and_m6p(name):
    # the anti-automorphism abcdef -> edcbaf
    assert anti_map(mk.fixture(name), 6) == dict(zip("abcdef", "edcbaf"))


def test_symmetries_of_m6p_completed(m6pc):
    # one of its three anti-automorphisms
    anti = anti_map(m6pc, 6)
    assert "".join(anti[x] for x in "abcdef") in {"afedcb", "cbafed", "edcbaf"}


@pytest.mark.parametrize("m, n, max_len", [(2, 2, 5), (3, 2, 6), (3, 3, 6)])
def test_symmetries_of_gmn(m, n, max_len):
    # reverse, then t_i -> t_(m+1-i) and u_j -> u_(n+1-j)
    anti = anti_map(mk.build_gmn(m, n).presentation, max_len)
    assert anti == {"s": "s", **{f"t{i}": f"t{m + 1 - i}" for i in range(1, m + 1)},
                    **{f"u{j}": f"u{n + 1 - j}" for j in range(1, n + 1)}}


@pytest.mark.parametrize("p, max_len", [
    (mk.fixture("M6"), 7),
    (mk.fixture("M6p_completed"), 8),
    (mk.build_gmn(3, 3).presentation, 6),
])
def test_mirror_and_anti_paths_agree(p, max_len):
    # the left side renamed through the anti-automorphism, and read off the
    # mirror presentation's tables when the finder reports none
    assert anti_map(p, max_len) is not None
    found = mk.search_failures(p, max_len)
    with patch.object(cancel, "letter_symmetries", no_symmetries):
        assert mk.search_failures(p, max_len) == found


@pytest.mark.parametrize("max_len, count", [(5, 75), (6, 231)])
def test_presentation_without_anti_automorphism(max_len, count):
    p = mk.parse_presentation("generators: a b c\nrelation: ab = ca\nrelation: bc = cc\n")
    assert cancel.letter_symmetries(engine(p), max_len).anti is None
    assert len(mk.search_failures(p, max_len)) == count


def ten_letter_presentation():
    """Twelve random relations with sides of 2-3 letters on ten letters; seed 0
    gives no anti-automorphism and 448 failures to length 4."""
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
    assert anti_map(p, 4) is None
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


def test_m6p_plus_one_relation_is_the_completed_fixture(m6p, m6pc):
    built = mk.Presentation(m6p.letters, m6p.relations + (mk.Relation(W("cefa"), W("efac")),))
    assert built == m6pc
    assert mk.equal(W("cefa"), W("efac"), built)


def test_completion_does_not_terminate(m6pc):
    # adding the failing k-indexed relation leaves the next one failing
    p = m6pc
    for k in (1, 2):
        lhs = W("acd" + "e" * (k + 1) + "ab")
        rhs = W("d" + "e" * k + "aabce")
        assert not mk.equal(lhs, rhs, p)
        assert mk.equal(lhs + W("f"), rhs + W("f"), p)
        p = mk.Presentation(p.letters, p.relations + (mk.Relation(lhs, rhs),))
        assert mk.equal(lhs, rhs, p)
    # after two completion steps the k=3 instance is still broken
    lhs = W("acd" + "e" * 4 + "ab")
    rhs = W("d" + "e" * 3 + "aabce")
    assert mk.equal(lhs + W("f"), rhs + W("f"), p)
    assert not mk.equal(lhs, rhs, p)


def test_no_failures_below_length_one(m6):
    # every failure's products hold at least its context letter
    assert mk.search_failures(m6, 0) == []
