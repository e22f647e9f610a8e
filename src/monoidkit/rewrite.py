"""Equivalence classes and the monoid word problem by exhaustive rewriting.

Two words are equivalent when one can be turned into the other by repeatedly
substituting one side of a defining relation for the other inside the word.
For a homogeneous (length-preserving) presentation every class is finite, so
the class of a word can be enumerated outright by breadth-first closure and
equality decided by membership.  That brute-force route is the point: the
presentations this package targets are not confluent and admit no completed
rewriting system, so there is no normal form to reduce to.

Internally words are encoded as strings over chr(0..n-1) with character order
matching alphabet declaration order; substring search and slicing then run at
C speed and the lexicographic minimum of a class doubles as its canonical
representative.

Point queries (equality, canonical forms, divisibility) close over one class
breadth-first.  Each BFS level is scanned as one string, its words joined by
a separator letter that no rule contains, so every rule costs one ``find``
loop per level rather than one per member; homogeneity puts every member at
the seed's length, so the position of a hit gives the word it lies in.  A
complete class is cached per engine under each of its members, together with
its least word, so a canonical form read from the cache costs O(1).

Whole-length enumeration instead builds graded class tables, level by level
as in the right Cayley graph construction of Froidure and Pin (1997): a class
of length m+1 is a union-find component of the nodes (length-m class, last
letter), and two nodes are joined only by a relation instance that ends at
the last letter, because every other substitution stays inside the prefix
class.  Ids come out in canonical order.  Each level keeps two ``array('i')``
columns: the table ``T_m[c*k + a]``, the class of (class c) * (letter a), and
the first node ``c'*k + a`` of every class, whose canonical word is that of
c' followed by a.  A canonical word is decoded on demand by walking these
pointers down; no level stores its words, let alone lists its |A|^n words.

Whole-level images come from the same arrays.  The right images z*g of a
level are the column ``T_n[g::k]``.  The left images follow the left Cayley
graph construction of the same paper: with parent(z) and last(z) the two
halves of z's first node, g*z = (g*parent(z))*last(z), so

    class(g*z) = T[class(g*parent(z))*k + last(z)],

one lookup per class from the images one level down.  Lookups are pure and
inserts idempotent, so concurrent readers are fine.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress, islice
from operator import eq

from .errors import CapExceededError, NonHomogeneousError
from .presentation import Presentation, Word

DEFAULT_CAP = 1_000_000


@dataclass(frozen=True)
class EquivClass:
    """The set of words equivalent to ``seed``.

    ``canonical`` is the lexicographically least member under alphabet
    declaration order.  ``truncated`` means enumeration stopped at a cap and
    ``members`` is only the part discovered so far (in deterministic order).
    """

    seed: Word
    members: frozenset[Word]
    canonical: Word
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, w: Word) -> bool:
        return w in self.members


class _Class(frozenset):
    """A complete class of encoded words; ``least`` is its lex-min member."""

    __slots__ = ("least",)


class RewriteEngine:
    """Char-encoded rewriting core for one presentation.

    Not part of the public API, but shared by the sibling modules; obtain one
    with :func:`engine`.
    """

    def __init__(self, p: Presentation):
        self.presentation = p
        self.chars = [chr(i) for i in range(len(p.letters))]
        self.separator = chr(len(p.letters))  # joins the words of a BFS level
        self._to_char = {x: chr(i) for i, x in enumerate(p.letters)}
        self._to_letter = {chr(i): x for i, x in enumerate(p.letters)}
        directed = set()
        for r in p.relations:
            a = "".join(self._to_char[x] for x in r.lhs)
            b = "".join(self._to_char[x] for x in r.rhs)
            directed.add((a, b))
            directed.add((b, a))
        self.rules: tuple[tuple[str, str], ...] = tuple(sorted(directed))
        self.balanced = p.letter_balanced
        self._classes: dict[str, _Class] = {}
        # _tables[m][c * |A| + a]: class of (class c of length m) * letter a;
        # _levels[m]: the classes of length m
        self._tables: list[array] = []
        self._levels: list[_Level] = [_Level(array("i", [0]), None, len(p.letters))]

    # -- encoding -----------------------------------------------------------

    def encode(self, w: Word) -> str:
        try:
            return "".join(self._to_char[x] for x in w)
        except KeyError as e:
            raise ValueError(f"letter {e.args[0]!r} not in alphabet") from None

    def decode(self, s: str) -> Word:
        return tuple(self._to_letter[c] for c in s)

    # -- closure ------------------------------------------------------------

    def successors(self, w: str):
        for pat, rep in self.rules:
            i = w.find(pat)
            while i >= 0:
                yield w[:i] + rep + w[i + len(pat):]
                i = w.find(pat, i + 1)

    def closure(
        self, w: str, cap: int = DEFAULT_CAP, cache: bool = True
    ) -> frozenset[str] | set[str]:
        """All words reachable from ``w``, read from the cache when there.

        A class closed over here is cached once complete, unless ``cache`` is
        false; then a plain set is returned and the cache stays as it was.
        """
        cached = self._classes.get(w)
        if cached is not None:
            return cached
        seen = self._bfs(w, cap)
        return self._store(seen) if cache else seen

    def closure_search(self, start: str, target: str, cap: int = DEFAULT_CAP) -> bool:
        """Is ``target`` reachable from ``start``?  Early exit on success.

        A completed unsuccessful search caches the full class as a side
        effect; a successful one caches nothing (the set is partial).
        """
        if start == target:
            return True
        seen = self._bfs(start, cap, target)
        if seen is not None:
            self._store(seen)
        return seen is None

    def _store(self, seen: set[str]) -> _Class:
        """Cache a complete class under each of its members."""
        cls = _Class(seen)
        cls.least = min(cls)
        classes = self._classes
        for m in cls:
            classes[m] = cls
        return cls

    def _bfs(self, w: str, cap: int, target: str | None = None) -> set[str] | None:
        """Breadth-first closure of ``w``: None as soon as ``target`` turns up,
        else the whole class, which the caller may cache.

        Each level is scanned as one string, its words joined by a separator
        that no rule contains, so one ``find`` loop per rule covers the level.
        Every member has the length n of ``w`` (the presentation is
        homogeneous), so a hit at i lies in the word starting at i - i % (n+1).
        """
        seen = {w}
        frontier = [w]
        n = len(w)
        step = n + 1
        sep = self.separator
        rules = self.rules
        while frontier:
            level = sep.join(frontier)
            find = level.find
            nxt = []
            for pat, rep in rules:
                k = len(pat)
                i = find(pat)
                while i >= 0:
                    s = i - i % step
                    v = level[s:i] + rep + level[i + k:s + n]
                    if v not in seen:
                        if v == target:
                            return None
                        if len(seen) >= cap:
                            err = CapExceededError(
                                f"class of a {n}-letter word exceeded cap {cap}"
                                if target is None
                                else f"equality search exceeded cap {cap}"
                            )
                            err.raw_partial = frozenset(seen)
                            raise err
                        seen.add(v)
                        nxt.append(v)
                    i = find(pat, i + 1)
            frontier = nxt
        return seen

    def equal_raw(self, a: str, b: str, cap: int = DEFAULT_CAP) -> bool:
        if a == b:
            return True
        if len(a) != len(b):
            return False
        if self.balanced and sorted(a) != sorted(b):
            return False
        ca = self._classes.get(a)
        if ca is not None:
            return b in ca
        cb = self._classes.get(b)
        if cb is not None:
            return a in cb
        return self.closure_search(a, b, cap)

    def canonical_raw(self, w: str, cap: int = DEFAULT_CAP) -> str:
        return self.closure(w, cap).least

    # -- graded class tables --------------------------------------------------

    def partition(self, n: int) -> _Level:
        """Build the class tables up to length n; the length-n classes as a
        sequence of their canonical words, indexed by class id (so in
        increasing order).  The same object is returned on every call."""
        _require_homogeneous(self.presentation)
        while len(self._levels) <= n:
            self._extend()
        return self._levels[n]

    def canonicals_at(self, n: int) -> _Level:
        """The same level as partition(n).  Nothing in the package calls it: it
        stays only because bench/tracing.py wraps it, until the next change to
        the benchmark renames that wrapper (ROADMAP item 5)."""
        return self.partition(n)

    def _extend(self) -> None:
        m = len(self._levels) - 1
        k = len(self.chars)
        # node c * k + a stands for (class c of length m) * letter a; a root is
        # the least node of its component, so parent[x] <= x throughout
        parent = array("i", range(len(self._levels[m]) * k))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            return x

        for pat, rep in self.rules:
            if pat > rep or len(pat) > m + 1:
                continue  # each relation once, and only when it fits
            a, b = ord(pat[-1]), ord(rep[-1])
            for ua, ub in zip(self.right_multiples(pat[:-1], m),
                              self.right_multiples(rep[:-1], m)):
                ra, rb = find(ua * k + a), find(ub * k + b)
                if ra < rb:
                    parent[rb] = ra
                elif rb < ra:
                    parent[ra] = rb
        # nodes run in lex order of their words, so the root of a component is
        # its first node and carries its lex-min word, and ids come out in
        # canonical order.  Numbering the roots in order turns parent into the
        # table in place: parent[x] < x already holds the id of x's class.
        first = array("i")
        for x in range(len(parent)):
            r = parent[x]
            if r == x:
                parent[x] = len(first)
                first.append(x)
            else:
                parent[x] = parent[r]
        # slice stores keep a racing build of the same level idempotent; the
        # table goes first, since readers size the tables by _levels
        self._tables[m:m + 1] = [parent]
        self._levels[m + 1:m + 2] = [_Level(first, self._levels[m], k)]

    def class_of(self, w: str) -> int:
        """Id of the class of w among the classes of its length."""
        if len(w) >= len(self._levels):
            self.partition(len(w))
        k = len(self.chars)
        c = 0
        for table, ch in zip(self._tables, w):
            c = table[c * k + ord(ch)]
        return c

    def left_multiples(self, p: str, n: int) -> list[int]:
        """Class id of p*z for each length-(n - |p|) class id z, in order of z;
        empty when p is longer than n.  p left-divides exactly the classes
        listed, and p1*Z, p2*Z pair up by index.

        One level at a time: the canonical word of z is that of parent(z)
        followed by last(z), so p*z = (p*parent(z))*last(z) is one table
        lookup from the image of parent(z) one level down.
        """
        if len(p) > n:
            return []
        self.partition(n)
        k = len(self.chars)
        images = [self.class_of(p)]
        for j in range(1, n - len(p) + 1):
            table = self._tables[len(p) + j - 1]
            images = [table[images[f // k] * k + f % k] for f in self._levels[j].first]
        return images

    def right_multiples(self, s: str, n: int) -> Sequence[int]:
        """Class id of z*s for each length-(n - |s|) class id z, in order of
        z, read as one column of the tables per letter of s; empty when s is
        longer than n."""
        if len(s) > n:
            return []
        self.partition(n)
        k = len(self.chars)
        m = n - len(s)
        if not s:
            return range(len(self._levels[m]))
        images = self._tables[m][ord(s[0])::k]
        for j, ch in enumerate(s[1:], m + 1):
            column = self._tables[j][ord(ch)::k]
            images = [column[c] for c in images]
        return images

    def collisions(self, n: int, g: str, side: str) -> list[list[int]]:
        """Length-n class ids that the map x -> g*x (side "left") or x -> x*g
        (side "right") sends to one class: each group in increasing order,
        groups ordered by their least member, groups of one left out.

        The images of the whole level come from left_multiples (the left
        recurrence) or right_multiples (the column T_n[g::k] for a letter g).
        Repeated images are found in one sorted copy, so a level on which the
        map is injective, the common case, returns [] after one C-level sort;
        a right column is nearly sorted already, since ids follow lex order.
        """
        if side == "left":
            images = self.left_multiples(g, n + len(g))
        else:
            images = self.right_multiples(g, n + len(g))
        ordered = sorted(images)
        repeated = set(compress(ordered, map(eq, ordered, islice(ordered, 1, None))))
        if not repeated:
            return []
        groups: dict[int, list[int]] = {}
        for x in compress(range(len(images)), map(repeated.__contains__, images)):
            groups.setdefault(images[x], []).append(x)
        return list(groups.values())


class _Level(Sequence):
    """The classes of one length as the sequence of their canonical words.

    ``first[c]`` is the first node of class c when its level was built, i.e.
    c's canonical word is that of class first[c] // k one level down
    followed by letter first[c] % k; a word is decoded on demand by walking
    these pointers down to the empty word.
    """

    __slots__ = ("first", "below", "k")

    def __init__(self, first: array, below: _Level | None, k: int):
        self.first = first
        self.below = below
        self.k = k

    def __len__(self) -> int:
        return len(self.first)

    def __getitem__(self, c: int) -> str:
        if not 0 <= c < len(self.first):
            raise IndexError(c)
        letters = []
        level = self
        while level.below is not None:
            c, a = divmod(level.first[c], level.k)
            letters.append(chr(a))
            level = level.below
        return "".join(reversed(letters))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (tuple, _Level)):
            return NotImplemented
        return tuple(self) == tuple(other)

    __hash__ = None


def engine(p: Presentation) -> RewriteEngine:
    """The cached rewriting engine of a presentation instance."""
    eng = p.__dict__.get("_engine")
    if eng is None:
        eng = RewriteEngine(p)
        p.__dict__["_engine"] = eng
    return eng


def _require_homogeneous(p: Presentation) -> None:
    if not p.homogeneous:
        raise NonHomogeneousError(
            "presentation is not length-preserving; classes may be infinite"
        )


# ---------------------------------------------------------------------------
# public operations


def neighbors(w: Word, p: Presentation) -> set[Word]:
    """All words one substitution away from ``w`` (either direction, any spot)."""
    eng = engine(p)
    return {eng.decode(v) for v in eng.successors(eng.encode(w))}


def equivalence_class(w: Word, p: Presentation, cap: int = DEFAULT_CAP) -> EquivClass:
    """Breadth-first closure of {w} under single substitutions.

    Raises CapExceededError carrying the truncated partial class if more than
    ``cap`` members are found.
    """
    _require_homogeneous(p)
    eng = engine(p)
    s = eng.encode(w)
    try:
        cls = eng.closure(s, cap)
    except CapExceededError as e:
        raw = getattr(e, "raw_partial", frozenset())
        members = frozenset(eng.decode(m) for m in raw)
        e.partial = EquivClass(w, members, eng.decode(min(raw)), truncated=True)
        raise
    return EquivClass(w, frozenset(eng.decode(m) for m in cls), eng.decode(cls.least))


def equal(u: Word, v: Word, p: Presentation, cap: int = DEFAULT_CAP) -> bool:
    """Monoid equality; CapExceededError means undecided, never False."""
    _require_homogeneous(p)
    eng = engine(p)
    return eng.equal_raw(eng.encode(u), eng.encode(v), cap)


def canonical(w: Word, p: Presentation, cap: int = DEFAULT_CAP) -> Word:
    """Lexicographically least member of the class of ``w``."""
    _require_homogeneous(p)
    eng = engine(p)
    return eng.decode(eng.canonical_raw(eng.encode(w), cap))
