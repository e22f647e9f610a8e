"""Bounded search for cancellation failures.

A monoid is cancellative when a*x*b = a*y*b forces x = y.  Any failing
context contains a failing single-letter step (peel letters off the context
until the first equality that breaks), so searching products g*x vs g*y and
x*g vs y*g over single letters g is complete for a given total length bound.

Every failure is read off the union pass that builds a length of the class
tables (``RewriteEngine.right_groups``): two classes z and z' of length n - 1
with z*a = z'*a are two nodes (z, a), (z', a) of one component, so the right
failures of every letter at length n come out of that pass at once.  The
left failures of a presentation are the right failures of its mirror, every
relation reversed, read back reversed.  When the presentation has an
anti-automorphism up to L, the product bound, the mirror is the presentation
itself renamed.  A letter permutation phi is an anti-automorphism up to L
when every relation u = v with |u| <= L gives class(phi(u) reversed) =
class(phi(v) reversed).  Every substitution inside a word of length at most
L applies such a relation, so the reversed image maps each class of length
n <= L into one class of length n, and being a bijection on the words of
that length it maps the classes one to one; relations longer than L apply to
no word the search reads, and are not checked.  So phi carries the right
failures under g to the left failures under phi(g).  It is looked for by
backtracking on the class tables with a work cap that scales with the
classes of length L; when none is found within the cap, the mirror's own
tables are built in a throwaway engine, so the cap changes the cost, never
the failures found.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import combinations

from .presentation import Presentation, Relation, Word
from .rewrite import DEFAULT_CAP, RewriteEngine, engine


class CancellationFailure(namedtuple("CancellationFailure", "side context x y")):
    """Witness: equal(context+x, context+y) but not equal(x, y) (side="left"),
    or the mirror with the context appended (side="right")."""

    __slots__ = ()
    side: str
    context: Word
    x: Word
    y: Word


class LetterSymmetries(namedtuple("LetterSymmetries", "anti checks cap")):
    """Letter maps of a presentation truncated at a length, in encoded letters.

    ``anti`` is an anti-automorphism as a translate table, the string whose
    a-th character is the image of letter chr(a), or None.  ``checks``
    counts the work the finder spent, never more than ``cap``.
    """

    __slots__ = ()
    anti: str | None
    checks: int
    cap: int


class _CapReached(Exception):
    pass


def letter_symmetries(eng: RewriteEngine, max_len: int) -> LetterSymmetries:
    """An anti-automorphism of the presentation truncated at ``max_len``,
    looked for on its class tables; ``anti`` is None when none is found.

    Backtracking maps one letter at a time.  A letter's candidate images are
    the letters whose signature is its own with the two halves swapped: the
    sorted sizes of the length-2 classes of x*y, and of y*x, over all letters
    y.  The letters are mapped in one order, always next the one that most
    nearly completes the relations, and each relation is checked as soon as
    all of its letters are mapped.  Every product read for the signatures,
    image tried and relation compared is one check.  The checks are capped at
    the number of classes of length ``max_len`` over the number of letters, a
    fraction of the mirror's tables that an anti-automorphism saves; when the
    signatures alone would pass the cap, nothing is searched, and at the cap
    the finder stops with None.
    """
    k = len(eng.chars)
    cap = eng.class_count(max_len) // k if k else 0
    # shorter products have no failures to map.  The signatures cost k*k
    # checks, so the finder runs only when k**3 <= the classes of length
    # max_len, which also keeps its backtracking (k frames deep) far inside
    # the recursion limit
    if max_len < 2 or not 0 < k * k <= cap:
        return LetterSymmetries(None, 0, cap)
    checks = k * k
    class_of = eng.class_of
    pairs = [class_of(x + y) for x in eng.chars for y in eng.chars]
    size = Counter(pairs)
    sig = [(sorted(size[pairs[x * k + y]] for y in range(k)),
            sorted(size[pairs[y * k + x]] for y in range(k))) for x in range(k)]
    candidates = [[b for b in range(k) if sig[b] == sig[a][::-1]] for a in range(k)]
    rules = [(u, v) for u, v in eng.one_way if len(u) <= max_len]
    uses = [set(map(ord, u + v)) for u, v in rules]
    # a relation with r letters still unmapped adds 1/r to each of them
    unmapped = [set(s) for s in uses]
    weight = [0.0] * k
    order = []
    while len(order) < k:
        a = max((b for b in range(k) if b not in order), key=weight.__getitem__)
        order.append(a)
        for s in unmapped:
            if a in s:
                s.discard(a)
                for b in s:
                    weight[b] += 1 / len(s)
    position = {a: i for i, a in enumerate(order)}
    due = [[] for _ in order]  # the rules checked at each position
    for rule, s in zip(rules, uses):
        due[max(map(position.__getitem__, s))].append(rule)
    image = [""] * k
    used = [False] * k

    def spend():
        nonlocal checks
        if checks == cap:
            raise _CapReached
        checks += 1

    def holds(rule):
        spend()
        u, v = (w.translate(image)[::-1] for w in rule)
        return class_of(u) == class_of(v)

    def extend(i):
        if i == k:
            return True
        a = order[i]
        for b in candidates[a]:
            if used[b]:
                continue
            spend()
            image[a], used[b] = chr(b), True
            if all(map(holds, due[i])) and extend(i + 1):
                return True
            used[b] = False
        return False

    try:
        anti = "".join(image) if extend(0) else None
    except _CapReached:
        anti = None
    return LetterSymmetries(anti, checks, cap)


def search_failures(
    p: Presentation, max_len: int, cap: int = DEFAULT_CAP
) -> list[CancellationFailure]:
    """All single-letter cancellation failures with product length <= max_len.

    The right groups of each length n = 1..max_len (``right_groups``) list,
    for every letter g, the length-(n - 1) classes whose products with g
    coincide; every two classes in one group are a failure, so no pair of
    classes is ever compared.  The lengths are read in order, each before it
    is numbered, so each is united once, and the last, products of
    ``max_len`` letters, is never numbered here unless a relation is that
    long.  The left groups are the right groups of the mirror presentation,
    each member read back reversed with one ``class_of``: the presentation's
    own, renamed, when ``letter_symmetries`` finds an anti-automorphism, else
    those of a throwaway engine on the mirror (see the module docstring).
    ``cap`` bounds closures only, and this search builds none.
    """
    eng = engine(p)
    if max_len < 1:
        return []
    # each length read before anything numbers it, so that its union pass,
    # which the numbering and, at the last length, the finder's class count
    # reuse, runs once
    right = [eng.right_groups(n) for n in range(1, max_len + 1)]
    # one context letter per letter class: equal letters cancel identically
    letters = eng.partition(1)
    anti = letter_symmetries(eng, max_len).anti
    if anti is None:
        # g*x = g*y exactly when reversed(x)*g = reversed(y)*g in the mirror
        mirror = Presentation(p.letters, tuple(Relation(r.lhs[::-1], r.rhs[::-1])
                                               for r in p.relations))
        source, rename = RewriteEngine(mirror), "".join(eng.chars)
        left = [source.right_groups(n) for n in range(1, max_len + 1)]
    else:
        # g*x = g*y exactly when anti(x)*anti(g) = anti(y)*anti(g)
        source, rename, left = eng, anti, right
    failures: list[CancellationFailure] = []
    for n in range(max_len):
        canons, words = eng.partition(n), source.partition(n)
        for g in letters:
            # the source's right groups under g, read back renamed and
            # reversed, are the left groups under g renamed
            mapped = [sorted(eng.class_of(words[z].translate(rename)[::-1]) for z in group)
                      for group in left[n][ord(g)]]
            h = letters[eng.class_of(g.translate(rename))]
            for side, context, groups in (("right", g, right[n][ord(g)]), ("left", h, mapped)):
                for group in groups:
                    for x, y in combinations(group, 2):
                        failures.append(CancellationFailure(
                            side, eng.decode(context), eng.decode(canons[x]), eng.decode(canons[y])))
    key = p.word_key
    failures.sort(key=lambda f: (len(f.x), f.side, key(f.context), key(f.x), key(f.y)))
    return failures
