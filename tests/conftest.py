"""Shared fixtures and a brute-force oracle independent of the library engine.

The oracle works on letter tuples with depth-first closure and a union-find
partition, sharing no code with the char-encoded breadth-first engine, so
agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import random
from itertools import product

import pytest

import monoidkit as mk


# ---------------------------------------------------------------------------
# oracle


def naive_neighbors(w, p):
    out = set()
    rules = [(r.lhs, r.rhs) for r in p.relations] + [(r.rhs, r.lhs) for r in p.relations]
    for pat, rep in rules:
        k = len(pat)
        for i in range(len(w) - k + 1):
            if w[i : i + k] == pat:
                out.add(w[:i] + rep + w[i + k :])
    return out


def naive_class(w, p):
    seen = {w}
    todo = [w]
    while todo:
        cur = todo.pop()
        for nb in naive_neighbors(cur, p):
            if nb not in seen:
                seen.add(nb)
                todo.append(nb)
    return seen


def naive_equal(u, v, p):
    return v in naive_class(u, p)


def naive_canonical(w, p):
    return min(naive_class(w, p), key=p.word_key)


def naive_left_divides(u, v, p):
    return any(m[: len(u)] == u for m in naive_class(v, p))


def naive_partition(p, n):
    """Same-class relation on all length-n words via union-find over edges."""
    words = [tuple(w) for w in product(p.letters, repeat=n)]
    parent = {w: w for w in words}

    def find(w):
        while parent[w] != w:
            parent[w] = parent[parent[w]]
            w = parent[w]
        return w

    for w in words:
        for nb in naive_neighbors(w, p):
            ra, rb = find(w), find(nb)
            if ra != rb:
                parent[ra] = rb
    return {w: find(w) for w in words}


def naive_lift(sw, cert, p):
    """(k, P) with P = lambda^k * sw in the group, lambda = delta^order central.

    After free reduction each g~ becomes D_a * delta^(order-1), a the atom in
    g's class, since a * D_a = delta.  Every certificate equation
    s * D_s = delta = D_s * sigma(s) is checked by the oracle first, and the
    atoms are found by it too, so no engine code is involved.
    """
    delta = tuple(cert.delta)
    for s, q in cert.quotients.items():
        assert naive_equal((s,) + q, delta, p), (s, q)
        assert naive_equal(q + (cert.sigma[s],), delta, p), (s, q)
    atom = {x: next(a for a in cert.quotients if naive_equal((x,), (a,), p)) for x in p.letters}
    reduced = []
    for letter, sign in sw:
        if reduced and reduced[-1] == (letter, -sign):
            reduced.pop()
        else:
            reduced.append((letter, sign))
    k, out = 0, []
    for letter, sign in reduced:
        if sign > 0:
            out.append(letter)
        else:
            k += 1
            out.extend(cert.quotients[atom[letter]] + delta * (cert.order - 1))
    return k, tuple(out)


def found_anti(p, max_len):
    """The anti-automorphism that ``cancel.letter_symmetries`` finds up to
    max_len, applied to letter tuples as reverse, then rename."""
    eng = mk.rewrite.engine(p)
    rename = dict(zip(p.letters, eng.decode(mk.cancel.letter_symmetries(eng, max_len).anti)))
    return lambda w: tuple(rename[x] for x in reversed(w))


def no_symmetries(eng, max_len):
    """Stands in for ``cancel.letter_symmetries`` and finds nothing, so every
    letter class is scanned on both sides, as the unreduced search does."""
    identity = "".join(eng.chars)
    return mk.cancel.LetterSymmetries(
        tuple((c, identity) for c in range(len(eng.partition(1)))), None, 0, 0)


def random_word(rng, p, max_len, min_len=0):
    n = rng.randint(min_len, max_len)
    return tuple(rng.choice(p.letters) for _ in range(n))


# ---------------------------------------------------------------------------
# fixtures


@pytest.fixture(scope="session")
def g22():
    return mk.build_gmn(2, 2)


@pytest.fixture(scope="session")
def p22(g22):
    return g22.presentation


@pytest.fixture(scope="session")
def m6():
    return mk.fixture("M6")


@pytest.fixture(scope="session")
def m6p():
    return mk.fixture("M6p")


@pytest.fixture(scope="session")
def m6pc():
    return mk.fixture("M6p_completed")


@pytest.fixture(scope="session")
def free2():
    return mk.Presentation(("a", "b"), ())


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def W(s):
    """Word from compact text: one char per letter, or dot-separated."""
    if not s or s == "1":
        return ()
    if "." in s:
        return tuple(s.split("."))
    return tuple(s)
