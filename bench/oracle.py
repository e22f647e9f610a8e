"""Reference computations for the benchmark, sharing no code with monoidkit.

Everything here works on the benchmark's own encoding: a word is a string
with one character per letter, characters ordered as the letters are
declared, so Python's string order is the declaration-order lexicographic
order the program uses for canonical forms.  Classes are found by
depth-first closure (the program searches breadth-first) and whole length
levels by union-find over every word of that length.
"""

from __future__ import annotations

from itertools import permutations, product


class Monoid:
    """A homogeneous presentation: letter names plus relation pairs of name tuples."""

    def __init__(self, letters, relations):
        self.letters = tuple(letters)
        self.code = {x: chr(0x41 + i) for i, x in enumerate(self.letters)}
        self.name = {c: x for x, c in self.code.items()}
        by_first: dict[str, list[tuple[str, str]]] = {}
        for lhs, rhs in relations:
            a, b = self.enc(lhs), self.enc(rhs)
            if len(a) != len(b):
                raise ValueError("the oracle handles length-preserving relations only")
            if a == b:
                continue
            for pat, rep in ((a, b), (b, a)):
                rules = by_first.setdefault(pat[0], [])
                if (pat, rep) not in rules:
                    rules.append((pat, rep))
        self.rules = by_first

    def enc(self, word) -> str:
        return "".join(self.code[x] for x in word)

    def dec(self, s: str) -> tuple[str, ...]:
        return tuple(self.name[c] for c in s)

    def neighbours(self, s: str):
        rules = self.rules
        for i, c in enumerate(s):
            for pat, rep in rules.get(c, ()):
                if s.startswith(pat, i):
                    yield s[:i] + rep + s[i + len(pat):]

    def closure(self, s: str, limit: int | None = None) -> set[str] | None:
        """The class of ``s``; None when it has more than ``limit`` members."""
        seen = {s}
        stack = [s]
        while stack:
            for v in self.neighbours(stack.pop()):
                if v not in seen:
                    seen.add(v)
                    if limit is not None and len(seen) > limit:
                        return None
                    stack.append(v)
        return seen

    def canonical(self, s: str) -> str:
        return min(self.closure(s))

    def equal(self, a: str, b: str) -> bool:
        return len(a) == len(b) and b in self.closure(a)

    def level(self, n: int) -> dict[str, str]:
        """Every length-n word mapped to the least word of its class (union-find)."""
        parent: dict[str, str] = {}

        def find(w):
            root = w
            while parent[root] != root:
                root = parent[root]
            while parent[w] != root:
                parent[w], w = root, parent[w]
            return root

        chars = [self.code[x] for x in self.letters]
        words = ["".join(t) for t in product(chars, repeat=n)]
        for w in words:
            parent[w] = w
        for w in words:
            for v in self.neighbours(w):
                a, b = find(w), find(v)
                if a != b:
                    # the smaller word becomes the root, so roots are class minima
                    if a < b:
                        parent[b] = a
                    else:
                        parent[a] = b
        return {w: find(w) for w in words}


def failure_set(m: Monoid, max_len: int) -> tuple[list[int], list[tuple[str, str, str, str]]]:
    """Class counts per length 0..max_len and every single-letter cancellation failure.

    A failure is (side, context, x, y): distinct classes x < y (given by their
    least words) of one length with context*x = context*y ("left") or
    x*context = y*context ("right"), total length at most ``max_len``.
    Contexts are the least letters of the letter classes.
    """
    levels = [m.level(n) for n in range(max_len + 1)]
    counts = [len(set(lv.values())) for lv in levels]
    contexts = sorted(set(levels[1].values()))
    failures = []
    for n in range(1, max_len):
        canons = sorted(set(levels[n].values()))
        nxt = levels[n + 1]
        for g in contexts:
            for side in ("left", "right"):
                groups: dict[str, list[str]] = {}
                for x in canons:
                    key = nxt[g + x] if side == "left" else nxt[x + g]
                    groups.setdefault(key, []).append(x)
                for xs in groups.values():
                    for i, x in enumerate(xs):
                        for y in xs[i + 1:]:
                            failures.append((side, g, x, y))
    return counts, failures


# ---------------------------------------------------------------------------
# presentations, written out from the paper's definitions

M6_RELATIONS = ("abf", "ace", "def"), ("ad=da", "cd=dc", "bc=cb", "bd=db", "be=eb", "cf=fc")
M6P_RELATIONS = ("abf", "bcd", "def"), ("ad=da", "cf=fc", "be=eb", "abce=eabc", "cdea=acde")


def _six(cyclic, plain, extra=()):
    rels = []
    for c in cyclic:
        for j in range(1, len(c)):
            rels.append((tuple(c), tuple(c[j:] + c[:j])))
    for r in plain + tuple(extra):
        a, b = r.split("=")
        rels.append((tuple(a), tuple(b)))
    return tuple("abcdef"), rels


def six_letter(name: str):
    """Letters and relations of M6, M6p or M6p_completed."""
    if name == "M6":
        return _six(*M6_RELATIONS)
    if name == "M6p":
        return _six(*M6P_RELATIONS)
    if name == "M6p_completed":
        return _six(*M6P_RELATIONS, extra=("cefa=efac",))
    raise ValueError(name)


def gmn(m: int, n: int):
    """Letters, relations and delta of g(m,n)."""
    ts = tuple(f"t{i}" for i in range(1, m + 1))
    us = tuple(f"u{j}" for j in range(1, n + 1))
    rels = []
    for block in (("s",) + ts, ("s",) + us):
        for j in range(1, len(block)):
            rels.append((block, block[j:] + block[:j]))
    rels += [((t, u), (u, t)) for t in ts for u in us]
    return ("s",) + ts + us, rels, ("s",) + ts + us


def presentation_text(letters, relations) -> str:
    sep = "" if all(len(x) == 1 for x in letters) else "."
    lines = [f"generators: {' '.join(letters)}"]
    lines += [f"relation: {sep.join(a)} = {sep.join(b)}" for a, b in relations]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# permutation images certifying that two group words differ


def _compose(p, q):
    """p then q, as tuples of images."""
    return tuple(q[i] for i in p)


def _inverse(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def image(assign, word, size):
    """Image of a signed word [(letter, +-1), ...] under a letter -> permutation map."""
    acc = tuple(range(size))
    for x, sign in word:
        g = assign[x]
        acc = _compose(acc, g if sign > 0 else _inverse(g))
    return acc


def permutation_representations(letters, relations, size: int):
    """Every map from the letters into S_size under which each relation holds.

    Such a map is a homomorphism of the group of the presentation, so two
    group words with different images are different.
    """
    perms = list(permutations(range(size)))
    order = list(letters)
    # check a relation as soon as all of its letters are assigned
    due: dict[int, list] = {}
    for a, b in relations:
        last = max(order.index(x) for x in a + b)
        due.setdefault(last, []).append(([(x, 1) for x in a], [(x, 1) for x in b]))
    out = []

    def extend(assign, k):
        if k == len(order):
            out.append(dict(assign))
            return
        for p in perms:
            assign[order[k]] = p
            if all(image(assign, a, size) == image(assign, b, size) for a, b in due.get(k, ())):
                extend(assign, k + 1)
        del assign[order[k]]

    extend({}, 0)
    return out


def separating_representation(reps, w1, w2, size):
    """A representation that maps the signed words w1 and w2 apart, or None."""
    for assign in reps:
        if image(assign, w1, size) != image(assign, w2, size):
            return assign
    return None
