"""Equivalence classes and the monoid word problem by exhaustive rewriting.

Two words are equivalent when one can be turned into the other by repeatedly
substituting one side of a defining relation for the other inside the word.
For a homogeneous (length-preserving) presentation every class is finite, so
the class of a word can be enumerated outright by breadth-first closure and
equality decided by membership.  That brute-force route is the point: the
presentations this package targets are not confluent and admit no completed
rewriting system, so there is no normal form to reduce to.  Every operation
of the package reaches its classes through ``engine(p)``, and the engine
refuses any other presentation when it is built (NonHomogeneousError).

Internally words are encoded as strings over chr(0..n-1) with character order
matching alphabet declaration order; substring search and slicing then run at
C speed and the lexicographic minimum of a class doubles as its canonical
representative.

Point queries (equality, canonical forms, divisibility) close over one class
breadth-first.  Each BFS level is scanned as one string, its words joined
by a separator letter that no rule contains, so every rule costs one
``find`` loop per level rather than one per member; homogeneity puts every
member at the seed's length, so the position of a hit gives the word it lies
in.  In a letter-balanced presentation every member has the seed's letters,
so past the seed's level only the rules whose patterns use those letters
are scanned, from one table per letter set.  Each class is closed once: an
equality search that meets its target pauses there, in one engine slot, and
the next search or closure from a word it has reached resumes it rather
than starting over; the slot is dropped once that class is cached.  A
division reads its quotients off the dividend's class the same way
(``quotients``): the class joined and fenced by the separator is one text,
the members that start (end) with u are the hits of separator + u (u +
separator), and the engine keeps the text of the last class divided for the
next division of that class.  A complete class is cached per engine under
each of its members, together with its least word, so a canonical form read
from the cache costs O(1).  A union of classes of one length already in
hand, such as the quotients of a division or the prefixes of a class, gives
the least word of each of its classes in one union-find pass over its joined
words (``least_words``).

Whole-length enumeration instead builds graded class tables, level by level
as in the right Cayley graph construction of Froidure and Pin (1997): a class
of length m+1 is a union-find component of the nodes (length-m class, last
letter), and two nodes are joined only by a relation instance that ends at
the last letter, because every other substitution stays inside the prefix
class.  A level is built in two steps: one union pass over its nodes
(``_unite``, the only union-find loop of the tables, path halving inlined),
then the numbering that turns the forest into a table.  Ids come out in
canonical order.  Each level keeps two ``array('i')`` columns: the table
``T_m[c*k + a]``, the class of (class c) * (letter a), and the first node
``c'*k + a`` of every class, whose canonical word is that of c' followed by
a.  A canonical word is decoded on demand by walking these pointers down; no
level stores its words, let alone lists its |A|^n words.

A level can also be used unnumbered, off its union pass alone, which the
engine keeps until the level is numbered: ``class_count`` counts its classes
as nodes minus merges, and ``right_groups`` reads its right collisions, since
nodes (z, a) and (z', a) in one component are exactly z*a = z'*a.  Numbering
such a level later starts from the same forest and gives the same ids.

Whole-level images come from the same arrays.  The right images z*g of a
level are the column ``T_n[g::k]``.  The left images follow the left Cayley
graph construction of the same paper: with parent(z) and last(z) the two
halves of z's first node, g*z = (g*parent(z))*last(z), so

    class(g*z) = T[class(g*parent(z))*k + last(z)],

one lookup per class from the images one level down.  ``left_levels`` carries
them from length to length, and it is the only left-image path: common
multiples, the division laws and the center scan all read their left images
one level at a time off it.  Lookups are pure and inserts idempotent, so
concurrent readers are fine.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, compress

from .errors import CapExceededError, NonHomogeneousError
from .presentation import Presentation, Word, _Frozen

DEFAULT_CAP = 1_000_000


class EquivClass(_Frozen):
    """The set of words equivalent to ``seed``.

    ``canonical`` is the lexicographically least member under alphabet
    declaration order.  ``truncated`` means enumeration stopped at a cap and
    ``members`` is only the part discovered so far (in deterministic order).
    ``len()`` and ``in`` read ``members``.
    """

    __slots__ = _fields = ("seed", "members", "canonical", "truncated")
    seed: Word
    members: frozenset[Word]
    canonical: Word
    truncated: bool

    def __init__(self, seed: Word, members: frozenset[Word], canonical: Word,
                 truncated: bool = False):
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "canonical", canonical)
        object.__setattr__(self, "truncated", truncated)

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
    with :func:`engine`.  The one homogeneity check of the package: no engine
    is built for a presentation that is not length-preserving.
    """

    def __init__(self, p: Presentation):
        if not p.homogeneous:
            raise NonHomogeneousError(
                "presentation is not length-preserving; classes may be infinite"
            )
        self.presentation = p
        self.chars = [chr(i) for i in range(len(p.letters))]
        self.separator = chr(len(p.letters))  # joins the words of a BFS level or class
        self._to_char = {x: chr(i) for i, x in enumerate(p.letters)}
        self._to_letter = {chr(i): x for i, x in enumerate(p.letters)}
        to_char = self._to_char.__getitem__
        directed = set()
        for r in p.relations:
            a = "".join(map(to_char, r.lhs))
            b = "".join(map(to_char, r.rhs))
            directed.add((a, b))
            directed.add((b, a))
        self.rules: tuple[tuple[str, str], ...] = tuple(sorted(directed))
        self.one_way = tuple((a, b) for a, b in self.rules if a <= b)  # each relation once
        self.balanced = p.letter_balanced
        # the rules as _bfs scans them, (pattern, replacement, pattern length):
        # all of them, and in a letter-balanced presentation one table per
        # letter set, of the rules whose patterns use only those letters
        self._scan = tuple((a, b, len(a)) for a, b in self.rules)
        self._scans: dict[frozenset[str], tuple[tuple[str, str, int], ...]] = {}
        self._classes: dict[str, _Class] = {}
        # (word, seen, level, next, rules): the last search that met its
        # target, paused in that level.  Never mutated: a resumer copies it,
        # so a racing thread that replaces or drops it loses only the reuse
        self._paused: tuple | None = None
        # (class, text): the last class divided, joined as quotients scans it
        self._joined: tuple[_Class, str] | None = None
        # _tables[m][c * |A| + a]: class of (class c of length m) * letter a;
        # _levels[m]: the classes of length m
        self._tables: list[array] = []
        self._levels: list[_Level] = [_Level(array("i", [0]), None, len(p.letters))]
        # (n, forest): the union pass of level n, kept until n is numbered
        self._pending: tuple[int, tuple[array, array]] | None = None

    # -- encoding -----------------------------------------------------------

    def encode(self, w: Word) -> str:
        try:
            return "".join(map(self._to_char.__getitem__, w))
        except KeyError as e:
            raise ValueError(f"letter {e.args[0]!r} not in alphabet") from None

    def decode(self, s: str) -> Word:
        return tuple(map(self._to_letter.__getitem__, s))

    # -- closure ------------------------------------------------------------

    def closure(self, w: str, cap: int = DEFAULT_CAP) -> frozenset[str]:
        """All words reachable from ``w``, read from the cache when there; a
        class closed over here is cached once complete."""
        cached = self._classes.get(w)
        if cached is not None:
            return cached
        return self._store(self._bfs(w, cap))

    def closure_search(self, start: str, target: str, cap: int = DEFAULT_CAP) -> bool:
        """Is ``target`` reachable from ``start`` (a different word)?  Early exit on success.

        A completed unsuccessful search caches the full class as a side
        effect; a successful one pauses where it met the target, and the
        next closure or search from a word it has reached resumes it
        (``_bfs``).
        """
        seen = self._bfs(start, cap, target)
        if seen is not None:
            self._store(seen)
        return seen is None

    def _store(self, seen: set[str]) -> _Class:
        """Cache a complete class under each of its members, and drop the
        paused search if it was one of this class."""
        cls = _Class(seen)
        cls.least = min(cls)
        classes = self._classes
        for m in cls:
            classes[m] = cls
        paused = self._paused
        if paused is not None and paused[0] in cls:
            self._paused = None
        return cls

    def _rules_for(self, w: str) -> tuple[tuple[str, str, int], ...]:
        """The rules whose patterns use only letters of ``w``: in a
        letter-balanced presentation every member of w's class has w's
        letters, so no other rule can fire in it.  One table per letter set."""
        key = frozenset(w)
        rules = self._scans.get(key)
        if rules is None:
            rules = self._scans[key] = tuple(r for r in self._scan if key.issuperset(r[0]))
        return rules

    def _bfs(self, w: str, cap: int, target: str | None = None) -> set[str] | None:
        """Breadth-first closure of ``w``: None as soon as ``target`` turns up,
        else the whole class, which the caller may cache.

        Each level is scanned as one string, its words joined by a separator
        that no rule contains, so one ``find`` loop per rule covers the level.
        Every member has the length n of ``w`` (the presentation is
        homogeneous), so a hit at i lies in the word starting at i - i % (n+1).
        Once the seed's level is scanned, a letter-balanced presentation
        scans only the rules that its letters allow (``_rules_for``).

        A search that meets its target pauses there: its seen set, the level
        being scanned and the words found so far in the next level go to the
        engine's one slot.  The next search or closure from a word the paused
        one has reached, with a cap above its size, resumes a copy of it: it
        scans that level again, where every hit up to the pause gives a word
        already seen, so the walk goes on exactly as if it had never stopped.
        A target already reached answers at once; a search that hits the cap
        pauses nothing.
        """
        paused = self._paused
        if paused is not None:
            reached = paused[1]
            if target in reached:
                w, target = target, w  # reachability is symmetric
            if w not in reached:
                paused = None
            elif target in reached:
                return None
            elif cap <= len(reached):
                paused = None
        if paused is None:
            seen, level, nxt, rules = {w}, w, [], self._scan
        else:
            _, seen, level, nxt, rules = paused
            seen, nxt = set(seen), nxt[:]
        n = len(w)
        step = n + 1
        sep = self.separator
        while True:
            find = level.find
            for pat, rep, k in rules:
                i = find(pat)
                while i >= 0:
                    s = i - i % step
                    v = level[s:i] + rep + level[i + k:s + n]
                    if v not in seen:
                        if v == target:
                            seen.add(v)
                            nxt.append(v)
                            self._paused = w, seen, level, nxt, rules
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
            if not nxt:
                return seen
            if rules is self._scan and self.balanced:
                rules = self._rules_for(w)
            level = sep.join(nxt)
            nxt = []

    def least_words(self, words: Iterable[str]) -> list[str]:
        """The least word of each class in ``words``, a union of classes of one
        length, in increasing order; nothing is closed over or cached.  Each
        relation instance in the union is met once, through one_way as in
        _unite, and joins its two words under the lesser root."""
        words = sorted(words)
        if len(words) < 2:
            return words
        index = {w: x for x, w in enumerate(words)}
        parent = list(range(len(words)))
        step = len(words[0]) + 1
        text = self.separator.join(words)
        for pat, rep in self.one_way:
            k = len(pat)
            i = text.find(pat)
            while i >= 0:
                x, j = divmod(i, step)
                w = words[x]
                y = index[w[:j] + rep + w[j + k:]]
                while (r := parent[x]) != x:
                    parent[x] = x = parent[r]
                while (r := parent[y]) != y:
                    parent[y] = y = parent[r]
                if x < y:
                    parent[y] = x
                elif y < x:
                    parent[x] = y
                i = text.find(pat, i + 1)
        return [w for x, w in enumerate(words) if parent[x] == x]

    def equal_raw(self, a: str, b: str, cap: int = DEFAULT_CAP) -> bool:
        if a == b:
            return True
        if len(a) != len(b):
            return False
        ca = self._classes.get(a)
        if ca is not None:
            return b in ca
        cb = self._classes.get(b)
        if cb is not None:
            return a in cb
        if self.balanced and sorted(a) != sorted(b):
            return False
        return self.closure_search(a, b, cap)

    def quotients(self, v: str, u: str, side: str, cap: int = DEFAULT_CAP) -> set[str]:
        """The words q with v = u*q (side "left") or v = q*u ("right"), a
        union of classes read off the closure of v, where the literal u*q
        (q*u) lies whenever the equation holds; the whole class when u is
        empty, and empty, with no closure, when u is longer than v.  Every
        division in the package comes here.

        The class is scanned as one text, its members joined and fenced by
        the separator, so the members that start with u are the hits of
        separator + u (those that end with u, of u + separator), found by
        ``find`` at C speed; only they are sliced.  The engine keeps the text
        of the last class divided, as one (class, text) slot, so repeated
        divisions of one class join it once; a racing thread either reuses
        the slot or builds its own text, and both are right."""
        n, k = len(v), len(u)
        if k > n:
            return set()
        cls = self.closure(v, cap)
        if not k:
            return set(cls)
        sep = self.separator
        kept = self._joined
        if kept is not None and kept[0] is cls:
            text = kept[1]
        else:
            text = sep + sep.join(cls) + sep
            self._joined = cls, text
        # a hit at i is the separator before a member that starts with u, or
        # u ending a member at the separator at i + k: slice q off around i
        if side == "left":
            pat, lo, hi = sep + u, k + 1, n + 1
        else:
            pat, lo, hi = u + sep, k - n, 0
        step = n + 1
        find = text.find
        out = set()
        i = find(pat)
        while i >= 0:
            out.add(text[i + lo:i + hi])
            i = find(pat, i + step)
        return out

    # -- graded class tables --------------------------------------------------

    def partition(self, n: int) -> _Level:
        """Build the class tables up to length n; the length-n classes as a
        sequence of their canonical words, indexed by class id (so in
        increasing order).  The same object is returned on every call."""
        while len(self._levels) <= n:
            self._extend()
        return self._levels[n]

    def canonicals_at(self, n: int) -> _Level:
        """The same level as partition(n).  Nothing in the package calls it: it
        stays only because bench/tracing.py wraps it, until the next change to
        the benchmark renames that wrapper (ROADMAP item 2)."""
        return self.partition(n)

    def _unite(self, m: int) -> tuple[array, array]:
        """The union pass of level m+1, the one union-find loop of the tables:
        a forest over the nodes c*k + a, (class c of length m) * letter a,
        and the nodes linked under another root, one per merge.  A root is
        the least node of its component, so parent[x] <= x throughout."""
        k = len(self.chars)
        parent = array("i", range(len(self._levels[m]) * k))
        linked = array("i")
        link = linked.append
        for pat, rep in self.one_way:
            if len(pat) > m + 1:
                continue  # only when it fits
            a, b = ord(pat[-1]), ord(rep[-1])
            for x, y in zip(self.right_multiples(pat[:-1], m),
                            self.right_multiples(rep[:-1], m)):
                # find both roots, halving the paths on the way
                x = x * k + a
                while (r := parent[x]) != x:
                    parent[x] = x = parent[r]
                y = y * k + b
                while (r := parent[y]) != y:
                    parent[y] = y = parent[r]
                if x < y:
                    parent[y] = x
                    link(y)
                elif y < x:
                    parent[x] = y
                    link(x)
        return parent, linked

    def _forest(self, n: int) -> tuple[array, array]:
        """The union pass of level n (n >= 1).  While level n is not numbered
        the pass is kept on the engine, so the level that is first counted or
        read off its forest and then numbered is united once."""
        pending = self._pending
        if pending is not None and pending[0] == n:
            return pending[1]
        self.partition(n - 1)
        forest = self._unite(n - 1)
        if len(self._levels) == n:
            self._pending = n, forest
        return forest

    def _extend(self) -> None:
        m = len(self._levels) - 1
        k = len(self.chars)
        pending = self._pending
        if pending is not None and pending[0] == m + 1:
            # a reader may still walk the kept forest, so number a copy
            self._pending = None
            parent = pending[1][0][:]
        else:
            parent = self._unite(m)[0]
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

    def class_count(self, n: int) -> int:
        """The number of classes of length n.  A level not yet numbered is
        counted off its union pass, as nodes minus merges, and stays
        unnumbered."""
        if n < len(self._levels):
            return len(self._levels[n])
        parent, linked = self._forest(n)
        return len(parent) - len(linked)

    def right_groups(self, n: int) -> list[list[list[int]]]:
        """For each letter a, the groups of length-(n - 1) class ids z that
        share the class of z*a, each group in increasing order and the groups
        by their least member, read off the union pass of level n (n >= 1)
        without numbering it: nodes (z, a) and (z', a) in one component are
        exactly z*a = z'*a.

        Only the merged nodes are visited.  Each root gathers the letters of
        its component in a bit mask, kept in one array over the nodes, and a
        letter met twice marks the component; the marked components alone
        are then grouped by letter.  Past the mask's width letters share
        bits, so a mark is only a candidate, and the grouping stays exact.
        """
        k = len(self.chars)
        parent, linked = self._forest(n)
        code = "B" if k <= 8 else "H" if k <= 16 else "I" if k <= 32 else "Q"
        mask = array(code, [0]) * len(parent)
        bits = 8 * mask.itemsize
        marked = set()
        for x in linked:
            r = x
            while (q := parent[r]) != r:
                parent[r] = r = parent[q]
            parent[x] = r  # every merged node now points at its root
            seen = mask[r] or 1 << r % k % bits
            bit = 1 << x % k % bits
            if seen & bit:
                marked.add(r)
            mask[r] = seen | bit
        del mask
        members: dict[tuple[int, int], list[int]] = {}
        for x in chain(marked, compress(linked, map(marked.__contains__,
                                                    map(parent.__getitem__, linked)))):
            members.setdefault((parent[x], x % k), []).append(x // k)
        groups: list[list[list[int]]] = [[] for _ in range(k)]
        for (_, a), zs in members.items():
            if len(zs) > 1:
                groups[a].append(sorted(zs))
        for level in groups:
            level.sort()
        return groups

    def class_of(self, w: str) -> int:
        """Id of the class of w among the classes of its length."""
        if len(w) >= len(self._levels):
            self.partition(len(w))
        k = len(self.chars)
        c = 0
        for table, ch in zip(self._tables, w):
            c = table[c * k + ord(ch)]
        return c

    def left_levels(self, p: str, n: int) -> Iterator[list[int]]:
        """The left images of p at lengths |p|, |p| + 1, ..., n in turn: at
        length m, the class id of p*z for each length-(m - |p|) class id z,
        in order of z.  p left-divides exactly the classes listed, and the
        levels of p1 and p2 at the same |z| pair up by index (p1*z, p2*z).
        Nothing is yielded when p is longer than n.

        Each level comes from the one before: the canonical word of z is that
        of parent(z) followed by last(z), so p*z = (p*parent(z))*last(z) is
        one table lookup from the image of parent(z).  Only the level last
        yielded is kept.
        """
        if len(p) > n:
            return
        self.partition(n)
        k = len(self.chars)
        images = [self.class_of(p)]
        yield images
        for j in range(1, n - len(p) + 1):
            table = self._tables[len(p) + j - 1]
            images = [table[images[f // k] * k + f % k] for f in self._levels[j].first]
            yield images

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


def engine(p: Presentation) -> RewriteEngine:
    """The cached rewriting engine of a presentation instance; a refused
    (non-homogeneous) presentation caches none and is refused on every call."""
    eng = p.__dict__.get("_engine")
    if eng is None:
        eng = RewriteEngine(p)
        p.__dict__["_engine"] = eng
    return eng


# ---------------------------------------------------------------------------
# public operations


def neighbors(w: Word, p: Presentation) -> set[Word]:
    """All words one substitution away from ``w`` (either direction, any spot);
    like every operation, refused for a non-homogeneous presentation."""
    eng = engine(p)
    s = eng.encode(w)
    found = set()
    for pat, rep in eng.rules:
        i = s.find(pat)
        while i >= 0:
            found.add(eng.decode(s[:i] + rep + s[i + len(pat):]))
            i = s.find(pat, i + 1)
    return found


def equivalence_class(w: Word, p: Presentation, cap: int = DEFAULT_CAP) -> EquivClass:
    """Breadth-first closure of {w} under single substitutions.

    Raises CapExceededError carrying the truncated partial class if more than
    ``cap`` members are found.
    """
    eng = engine(p)
    try:
        cls = eng.closure(eng.encode(w), cap)
    except CapExceededError as e:
        raise _with_partial(e, eng, w)
    return EquivClass(w, frozenset(map(eng.decode, cls)), eng.decode(cls.least))


def equal(u: Word, v: Word, p: Presentation, cap: int = DEFAULT_CAP) -> bool:
    """Monoid equality; CapExceededError means undecided, never False."""
    eng = engine(p)
    try:
        return eng.equal_raw(eng.encode(u), eng.encode(v), cap)
    except CapExceededError as e:
        raise _with_partial(e, eng, u, v)


def canonical(w: Word, p: Presentation, cap: int = DEFAULT_CAP) -> Word:
    """Lexicographically least member of the class of ``w``."""
    eng = engine(p)
    try:
        return eng.decode(eng.closure(eng.encode(w), cap).least)
    except CapExceededError as e:
        raise _with_partial(e, eng, w)


def _with_partial(e: CapExceededError, eng: RewriteEngine, *words: Word) -> CapExceededError:
    """``e`` with its ``partial`` set: the truncated class, decoded, of the one
    of ``words`` whose class was being closed (the one in ``raw_partial``)."""
    raw = e.raw_partial
    seed = next(w for w in words if eng.encode(w) in raw)
    e.partial = EquivClass(seed, frozenset(map(eng.decode, raw)), eng.decode(min(raw)),
                           truncated=True)
    return e
