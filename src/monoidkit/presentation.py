"""Positive monoid presentations: data model, classification, parsing, fixtures.

A presentation is an alphabet of named generators plus a set of unordered
relations between non-empty positive words over that alphabet.  Words are
plain tuples of letter names; the empty tuple is the identity.  Instances are
immutable, and the derived classification flags are computed lazily and
cached, so presentations can be shared freely between threads.

The line-oriented file format::

    # comment lines and blank lines are ignored
    generators: a b c d e f        (exactly once, first)
    cyclic: a b f                  (equates all rotations of the product)
    relation: ad = da              (n-way chains allowed: w1 = w2 = w3)

A word in a relation is either dot-separated tokens (``s.t1.t2``) or, when
every generator name is a single character, plain concatenation (``abf``).
"""

from __future__ import annotations

import re
from collections.abc import Collection, Sequence
from functools import cache, cached_property, total_ordering
from itertools import chain
from operator import attrgetter

from .errors import ParseError

Word = tuple[str, ...]

_LETTER_RE = re.compile(r"[A-Za-z0-9_]+\Z")


def check_letter(name: str) -> str:
    if not _LETTER_RE.match(name):
        raise ValueError(f"bad letter name {name!r}: use [A-Za-z0-9_], no '.', no '~'")
    return name


class _Frozen:
    """Base of the package's immutable value classes.

    ``_fields`` are the constructor's parameters in order.  ``__init__`` sets
    them once, past ``__setattr__``, which refuses every later assignment.
    Equality and hashing read ``_key()``, the field values unless a subclass
    leaves some out, and hold only between instances of one class; repr,
    copy and pickle read all the fields.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    _key = _values

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):  # copy and pickle go through the constructor
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


@total_ordering
class Relation(_Frozen):
    """An unordered pair of non-empty positive words declared equal.

    The two sides are stored in a normalized order so that Relation(u, v)
    and Relation(v, u) compare equal; sides may be identical (such pairs are
    dropped at Presentation construction).  Relations order as the tuple
    (lhs, rhs).
    """

    __slots__ = _fields = ("lhs", "rhs")
    lhs: Word
    rhs: Word

    def __init__(self, lhs: Sequence[str], rhs: Sequence[str]):
        lhs, rhs = tuple(lhs), tuple(rhs)
        if not lhs or not rhs:
            raise ValueError("relation sides must be non-empty")
        if (len(rhs), rhs) < (len(lhs), lhs):
            lhs, rhs = rhs, lhs
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    def _key(self) -> tuple:
        return self.lhs, self.rhs

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._key() < other._key()
        return NotImplemented

    @property
    def trivial(self) -> bool:
        return self.lhs == self.rhs

    def letters(self) -> set[str]:
        return set(self.lhs) | set(self.rhs)


class Presentation(_Frozen):
    """A finite alphabet with relations, plus derived classification flags.

    ``cancellative`` is bookkeeping, not derived data: True means proven
    cancellative (the built g(m,n) family), False means known not to be, None
    means unknown.  It is excluded from equality and hashing.  The instance
    ``__dict__`` holds the fields, the lazily computed flags and the engine.
    """

    _fields = ("letters", "relations", "cancellative")
    letters: tuple[str, ...]
    relations: tuple[Relation, ...]
    cancellative: bool | None

    def __init__(self, letters: Sequence[str], relations: Collection[Relation],
                 cancellative: bool | None = None):
        letters = tuple(check_letter(x) for x in letters)
        alphabet = set(letters)
        if len(alphabet) != len(letters):
            raise ValueError("duplicate generator names")
        # one of each pair of sides, in Relation's own order, (lhs, rhs)
        kept = sorted({(r.lhs, r.rhs): r for r in relations if not r.trivial}.values(),
                      key=attrgetter("lhs", "rhs"))
        if not alphabet.issuperset(chain.from_iterable(r.lhs + r.rhs for r in kept)):
            for r in kept:  # name the first relation at fault
                unknown = r.letters() - alphabet
                if unknown:
                    raise ValueError(f"relation uses unknown letters {sorted(unknown)}")
        self.__dict__.update(letters=letters, relations=tuple(kept), cancellative=cancellative)

    def _key(self) -> tuple:
        return self.letters, self.relations

    @cached_property
    def index(self) -> dict[str, int]:
        return {x: i for i, x in enumerate(self.letters)}

    @cached_property
    def one_char_letters(self) -> bool:
        """Every letter name is one character, so words print undotted."""
        return all(len(x) == 1 for x in self.letters)

    def word_key(self, w: Word) -> tuple[int, ...]:
        """Sort key ordering words by alphabet declaration order."""
        return tuple(map(self.index.__getitem__, w))

    def sorted_words(self, words) -> list[Word]:
        """Words by length, then by ``word_key``: the order reports list them in."""
        pos = self.index.__getitem__
        return sorted(words, key=lambda w: (len(w), tuple(map(pos, w))))

    @cached_property
    def homogeneous(self) -> bool:
        return all(len(r.lhs) == len(r.rhs) for r in self.relations)

    @cached_property
    def letter_balanced(self) -> bool:
        return all(sorted(r.lhs) == sorted(r.rhs) for r in self.relations)

    @cached_property
    def dummy_letters(self) -> frozenset[str]:
        # g is dummy when some relation equates the one-letter word g to a
        # word not containing g.
        out = set()
        for r in self.relations:
            for one, other in ((r.lhs, r.rhs), (r.rhs, r.lhs)):
                if len(one) == 1 and one[0] not in other:
                    out.add(one[0])
        return frozenset(out)


def expand_cyclic(letters: Sequence[str]) -> tuple[Relation, ...]:
    """Relations equating all k rotations of the product of ``letters``.

    Returns exactly k-1 pairs, each equating the j-th left rotation to the
    unrotated product.  Repeated letters may produce duplicate or trivial
    pairs; Presentation construction cleans those up.
    """
    word = tuple(letters)
    k = len(word)
    if k < 2:
        raise ValueError("cyclic relation needs at least two letters")
    return tuple(Relation(word, word[j:] + word[:j]) for j in range(1, k))


# ---------------------------------------------------------------------------
# word and file syntax


def _tokenize_word(text: str, letters: Collection[str], inverses: bool = False) -> list[str]:
    """The letter tokens of a word: dot-separated names, one character per
    letter when every name is one character, or else the whole text as one
    name; ``1`` as for ``parse_word``.  With ``inverses`` a token may end in
    ``~`` (kept on it), which no name has.  ``letters`` is a set or a dict of
    the names, so that each token costs one lookup."""
    text = text.strip()
    if "." in text:
        toks = text.split(".")
        if "" in toks:
            toks = [t for t in toks if t]
    elif text == "" or (text == "1" and "1" not in letters):
        return []
    elif all(len(x) == 1 for x in letters):
        toks = re.findall(".~?", text, re.S)
    else:
        toks = [text]
    names = (t[:-1] if t.endswith("~") else t for t in toks) if inverses else toks
    for name in names:
        if name not in letters:
            raise ParseError(f"unknown letter {name!r}" if name else "'~' must follow a letter")
    return toks


def parse_word(p: Presentation, text: str) -> Word:
    """Parse a word over ``p``'s alphabet.

    ``1`` denotes the empty word (unless a generator is literally named "1").
    """
    return tuple(_tokenize_word(text, p.index))


def format_word(p: Presentation, w: Word) -> str:
    if not w:
        return "1"
    return ("" if p.one_char_letters else ".").join(w)


def parse_presentation(text: str) -> Presentation:
    """The presentation a file's text declares, with no cancellativity flag."""
    return Presentation(*_parse_text(text))


def _parse_text(text: str) -> tuple[tuple[str, ...], tuple[Relation, ...]]:
    """The letters and relations a file's text declares, as declared."""
    letters: list[str] | None = None
    alphabet: set[str] = set()  # the letters, looked up per token
    relations: list[Relation] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, sep, rest = line.partition(":")
        directive = head.strip()
        try:
            if not sep:
                raise ParseError("expected '<directive>: ...'")
            if directive == "generators":
                if letters is not None:
                    raise ParseError("duplicate generators line")
                letters = [check_letter(t) for t in rest.split()]
                if not letters:
                    raise ParseError("empty generator list")
                alphabet = set(letters)
                if len(alphabet) != len(letters):
                    raise ParseError("duplicate generator names")
            elif letters is None:
                raise ParseError("generators must be declared first")
            elif directive == "cyclic":
                # whitespace-separated names: the dot form of a word
                relations.extend(expand_cyclic(_tokenize_word(".".join(rest.split()), alphabet)))
            elif directive == "relation":
                sides = rest.split("=")
                if len(sides) < 2:
                    raise ParseError("relation needs at least two sides")
                words = []
                for side in sides:
                    if not side.strip():
                        raise ParseError("empty relation side")
                    words.append(_tokenize_word(side, alphabet))
                relations += [Relation(words[0], w) for w in words[1:]]
            else:
                raise ParseError(f"unknown directive {directive!r}")
        except ValueError as e:
            raise ParseError(str(e), lineno) from None
    if letters is None:
        raise ParseError("missing generators line")
    return tuple(letters), tuple(relations)


def serialize_presentation(p: Presentation) -> str:
    """Canonical text form; parse(serialize(parse(x))) is stable."""
    pos = p.index.__getitem__
    lines = [f"generators: {' '.join(p.letters)}"]
    # each relation's sort key is its two word_keys
    for r in sorted(p.relations, key=lambda r: (tuple(map(pos, r.lhs)), tuple(map(pos, r.rhs)))):
        lines.append(f"relation: {format_word(p, r.lhs)} = {format_word(p, r.rhs)}")
    return "\n".join(lines) + "\n"


def presentation_digest(p: Presentation) -> str:
    import hashlib  # only reports need it: OpenSSL's _hashlib slows every start-up

    return hashlib.sha256(serialize_presentation(p).encode()).hexdigest()


# ---------------------------------------------------------------------------
# bundled example presentations

_M6_TEXT = """\
generators: a b c d e f
cyclic: a b f
cyclic: a c e
cyclic: d e f
relation: ad = da
relation: cd = dc
relation: bc = cb
relation: bd = db
relation: be = eb
relation: cf = fc
"""

_M6P_TEXT = """\
generators: a b c d e f
cyclic: a b f
cyclic: b c d
cyclic: d e f
relation: ad = da
relation: cf = fc
relation: be = eb
relation: abce = eabc
relation: cdea = acde
"""

_FIXTURES = {
    "M6": _M6_TEXT,
    "M6p": _M6P_TEXT,
    "M6p_completed": _M6P_TEXT + "relation: cefa = efac\n",
}


@cache
def _fixture_parts(key: str) -> tuple[tuple[str, ...], tuple[Relation, ...]]:
    return _parse_text(_FIXTURES[key])


def fixture(name: str) -> Presentation:
    """One of the bundled six-generator example presentations.

    The one rule for a bundled name, which every entry point asks: a hyphen
    reads as an underscore (``M6p-completed``), any other name is a
    ValueError.  All three are homogeneous and letter-balanced but not
    cancellative.  A fixture's text is parsed once per process; each call
    returns a new presentation with its own engine.
    """
    key = name.replace("-", "_")
    if key not in _FIXTURES:
        raise ValueError(f"unknown fixture {name!r}; choose from {sorted(_FIXTURES)}")
    return Presentation(*_fixture_parts(key), cancellative=False)

