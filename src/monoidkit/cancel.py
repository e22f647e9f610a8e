"""Bounded search for cancellation failures, and single completion steps.

A monoid is cancellative when a*x*b = a*y*b forces x = y.  Any failing
context contains a failing single-letter step (peel letters off the context
until the first equality that breaks), so searching products g*x vs g*y and
x*g vs y*g over single letters g is complete for a given total length bound.

The search reads only the classes of length at most L, the product bound, so
it is enough to know the letter maps that permute those classes.  A letter
permutation phi is an automorphism up to L when every relation u = v with
|u| <= L gives class(phi(u)) = class(phi(v)), and an anti-automorphism when
the reversed images agree instead.  Every substitution inside a word of
length at most L applies such a relation, so phi maps each class of length
n <= L into one class of length n; being a bijection on the words of that
length, it maps the classes one to one.  Relations longer than L apply to
no word the search reads, and are not checked.  An automorphism carries the
right (left) failures under context g to those under phi(g); an
anti-automorphism carries the right failures under g to the left failures
under phi(g).  So the search scans the right side for one context letter per
orbit of the automorphisms it finds, maps the rest, and reads the whole left
side off one anti-automorphism; only without one does it scan the left side,
again one letter per orbit.  The longest products, of length L, make up most
of the classes, and their right failures are read for every letter at once
off the union pass of length L, which is never numbered for it: the length-L
classes are numbered only when the left side is scanned or a relation is L
letters long.  The maps are found by backtracking on the class
tables with a work cap that scales with the classes of length L; a letter
the capped search does not reach is scanned itself, so the cap changes the
cost, never the failures found.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations
from typing import NamedTuple

from .presentation import Presentation, Relation, Word
from .rewrite import DEFAULT_CAP, RewriteEngine, collision_groups, engine


@dataclass(frozen=True)
class CancellationFailure:
    """Witness: equal(context+x, context+y) but not equal(x, y) (side="left"),
    or the mirror with the context appended (side="right")."""

    side: str
    context: Word
    x: Word
    y: Word


class LetterSymmetries(NamedTuple):
    """Letter maps of a presentation truncated at a length, in encoded letters.

    A map is a translate table: the string whose a-th character is the image
    of letter chr(a).  ``source[c]`` is (r, phi) for letter class c (a class
    of length 1): the automorphism phi maps letter class r onto c, and r == c
    when c is scanned itself.  ``anti`` is an anti-automorphism, or None.
    ``checks`` counts the work the finder spent, never more than ``cap``.
    """

    source: tuple[tuple[int, str], ...]
    anti: str | None
    checks: int
    cap: int


class _CapReached(Exception):
    pass


class _MapSearch:
    """Backtracking over letter maps, one letter at a time.

    A letter's candidate images are the letters with the same signature: the
    sorted sizes of the length-2 classes of x*y, and of y*x, over all letters
    y.  An anti-automorphism swaps the two lists.  An automorphism also keeps
    the pair signature read off the table at the longest relation length n,
    when that is above 2: for letters x and y, the sorted node counts (pairs
    of a class of length n - 1 and a letter that multiply into the class) of
    the classes z*x*y, z over the classes of length n - 2.  It separates
    letters whose distinguishing relations are longer than 2, so the tries
    of maps that do not exist end early.  The letters are mapped in one
    order, always next the one that most nearly completes the relations, and
    each relation is checked as soon as all of its letters are mapped.  Every
    product or pair read for the signatures, image tried and relation
    compared is one check, and ``cap`` bounds their total.
    """

    def __init__(self, eng: RewriteEngine, max_len: int, cap: int):
        self.eng = eng
        self.cap = cap
        k = len(eng.chars)
        self.checks = k * k  # the signatures read every product of two letters
        pairs = [eng.class_of(x + y) for x in eng.chars for y in eng.chars]
        size = Counter(pairs)
        sig = [(sorted(size[pairs[x * k + y]] for y in range(k)),
                sorted(size[pairs[y * k + x]] for y in range(k))) for x in range(k)]
        self.candidates = {
            anti: [[b for b in range(k) if sig[b] == (sig[a][::-1] if anti else sig[a])]
                   for a in range(k)]
            for anti in (False, True)
        }
        rules = [(u, v) for u, v in eng.one_way if len(u) <= max_len]
        n = max((len(u) for u, _ in rules), default=0)
        if n > 2 and self.checks + k * k <= cap:
            self.checks += k * k
            nodes = Counter(chain.from_iterable(eng.right_multiples(y, n) for y in eng.chars))
            pair = [[sorted(map(nodes.__getitem__, eng.right_multiples(x + y, n)))
                     for y in eng.chars] for x in eng.chars]
            sig = [(sorted(pair[x]), sorted(row[x] for row in pair)) for x in range(k)]
            self.candidates[False] = [[b for b in bs if sig[b] == sig[a]]
                                      for a, bs in enumerate(self.candidates[False])]
        uses = [set(map(ord, u + v)) for u, v in rules]
        # a relation with r letters still unmapped adds 1/r to each of them
        unmapped = [set(s) for s in uses]
        weight = [0.0] * k
        self.order = []
        while len(self.order) < k:
            a = max((b for b in range(k) if b not in self.order), key=weight.__getitem__)
            self.order.append(a)
            for s in unmapped:
                if a in s:
                    s.discard(a)
                    for b in s:
                        weight[b] += 1 / len(s)
        position = {a: i for i, a in enumerate(self.order)}
        self.due = [[] for _ in self.order]  # the rules checked at each position
        for rule, s in zip(rules, uses):
            self.due[max(map(position.__getitem__, s))].append(rule)

    def find(self, anti: bool, fixed: tuple[int, int] | None = None) -> str | None:
        """A map, with letter fixed[0] sent to fixed[1] if given, under which
        every relation holds, or None when there is none."""
        candidates = list(self.candidates[anti])
        if fixed:
            a, b = fixed
            if b not in candidates[a]:
                return None
            candidates[a] = [b]
        order, due, class_of = self.order, self.due, self.eng.class_of
        k = len(order)
        image = [""] * k
        used = [False] * k
        step = -1 if anti else 1

        def holds(rule):
            self._spend()
            u, v = (w.translate(image)[::step] for w in rule)
            return class_of(u) == class_of(v)

        def extend(i):
            if i == k:
                return True
            a = order[i]
            for b in candidates[a]:
                if used[b]:
                    continue
                self._spend()
                image[a], used[b] = chr(b), True
                if all(map(holds, due[i])) and extend(i + 1):
                    return True
                used[b] = False
            return False

        return "".join(image) if extend(0) else None

    def _spend(self) -> None:
        if self.checks == self.cap:
            raise _CapReached
        self.checks += 1


def letter_symmetries(eng: RewriteEngine, max_len: int) -> LetterSymmetries:
    """Automorphism orbits of the letter classes and one anti-automorphism of
    the presentation truncated at ``max_len``, found on its class tables.

    The anti-automorphism is looked for first, since it saves the whole left
    side.  Then each letter class not yet in an orbit starts one: every later
    letter class is either reached from it by the maps found so far or tried
    as the image of its first letter.  The work is capped at the number of
    classes of length ``max_len`` over the number of letters, a fraction of
    the scan it saves; when the signatures alone would pass the cap, nothing
    is searched.  At the cap the finder stops, and every letter class it has
    not reached is scanned itself.
    """
    letters = list(eng.partition(1))
    identity = "".join(eng.chars)
    source: list[tuple[int, str] | None] = [None] * len(letters)
    k = len(eng.chars)
    anti, checks, cap = None, 0, eng.class_count(max_len) // k if k else 0
    # shorter products have no failures to map.  The signatures cost k*k
    # checks, so the finder runs only when k**3 <= the classes of length
    # max_len, which also keeps its backtracking (k frames deep) far inside
    # the recursion limit
    if max_len >= 2 and 0 < k * k <= cap:
        search = _MapSearch(eng, max_len, cap)
        try:
            anti = search.find(anti=True)
            for c, g in enumerate(letters):
                if source[c] is not None:
                    continue
                source[c] = (c, identity)
                maps = []
                for t in range(c + 1, len(letters)):
                    if source[t] is not None:
                        continue
                    phi = search.find(False, (ord(g), ord(letters[t])))
                    if phi is None:
                        continue
                    # close the orbit under the maps found: psi after the map
                    # onto m maps c onto psi(m)
                    maps.append(phi)
                    todo = [m for m, s in enumerate(source) if s and s[0] == c]
                    while todo:
                        m = todo.pop()
                        for psi in maps:
                            x = eng.class_of(letters[m].translate(psi))
                            if source[x] is None:
                                source[x] = (c, source[m][1].translate(psi))
                                todo.append(x)
        except _CapReached:
            pass
        checks = search.checks
    source = [s or (c, identity) for c, s in enumerate(source)]
    return LetterSymmetries(tuple(source), anti, checks, cap)


def search_failures(
    p: Presentation, max_len: int, cap: int = DEFAULT_CAP
) -> list[CancellationFailure]:
    """All single-letter cancellation failures with product length <= max_len.

    For each context letter g and length n, the class tables group the
    length-n classes by the class of g*x (left) and of x*g (right); every
    two classes in one group are a failure, so no pair of classes is ever
    compared.  Only one context letter per orbit of the letter symmetries
    up to ``max_len`` is scanned, and only its right side when there is an
    anti-automorphism (see the module docstring and ``letter_symmetries``);
    the other groups are mapped, one ``class_of`` per member.  The right
    groups of the last length, products of ``max_len`` letters, come for
    every letter from the union pass of that length (``right_groups``),
    which also counts its classes for the finder's cap, so that length is
    numbered only when the left side is scanned (no anti-automorphism) or a
    relation has ``max_len`` letters.  The left images of a scanned letter
    are carried from each length to the next, so the images of one letter
    and length are alive at a time.  ``cap`` bounds closures only, and this
    search builds none.
    """
    eng = engine(p)
    if max_len < 1:
        return []
    # one context letter per letter class: equal letters cancel identically
    letters = eng.partition(1)
    # read before anything numbers the last length, so that its union pass,
    # which the finder's class count and any numbering reuse, runs once
    last = eng.right_groups(max_len)
    sym = letter_symmetries(eng, max_len)

    def by_orbit(scan):
        # the collision groups of each letter class and length: scanned for
        # the first class of an orbit, mapped for the others
        out = []
        for c, (r, phi) in enumerate(sym.source):
            out.append(scan(letters[c]) if r == c else _mapped(eng, out[r], phi, 1))
        return out

    right = by_orbit(lambda g: [collision_groups(eng.right_multiples(g, n + 1))
                                for n in range(max_len - 1)])
    for g, levels in zip(letters, right):
        levels.append(last[ord(g)])
    if sym.anti is None:
        left = by_orbit(lambda g: [collision_groups(images)
                                   for images in eng.left_levels(g, max_len)])
    else:
        left = [[]] * len(letters)
        for c, levels in enumerate(right):
            left[eng.class_of(letters[c].translate(sym.anti))] = _mapped(eng, levels, sym.anti, -1)
    failures: list[CancellationFailure] = []
    for side, groups in (("left", left), ("right", right)):
        for c, levels in enumerate(groups):
            context = eng.decode(letters[c])
            for n, level in enumerate(levels):
                canons = eng.partition(n)
                for group in level:
                    for x, y in combinations(group, 2):
                        x_word, y_word = eng.decode(canons[x]), eng.decode(canons[y])
                        failures.append(CancellationFailure(side, context, x_word, y_word))
    key = p.word_key
    failures.sort(key=lambda f: (len(f.x), f.side, key(f.context), key(f.x), key(f.y)))
    return failures


def _mapped(eng: RewriteEngine, levels: list[list[list[int]]], phi: str,
            step: int) -> list[list[list[int]]]:
    """The collision groups of each length under the letter map phi, read
    backwards when step is -1 (an anti-automorphism), members in increasing
    order."""
    out = []
    for n, groups in enumerate(levels):
        canons = eng.partition(n)
        out.append([sorted(eng.class_of(canons[x].translate(phi)[::step]) for x in group)
                    for group in groups])
    return out


def add_relation(p: Presentation, u: Word, v: Word) -> Presentation:
    """A new presentation with u = v appended; flags are recomputed.

    Requires |u| = |v| so homogeneity survives.  Equal words add nothing and
    return an equal presentation.
    """
    if len(u) != len(v):
        raise ValueError(f"relation sides have different lengths {len(u)} and {len(v)}")
    if tuple(u) == tuple(v):
        return Presentation(p.letters, p.relations)
    return Presentation(p.letters, p.relations + (Relation(tuple(u), tuple(v)),))
