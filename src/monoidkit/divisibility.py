"""Left/right divisibility and bounded common-multiple lattices.

u left-divides v when v = u*w for some w in the monoid.  Because the literal
concatenation u*w lies in the class of v whenever the equation holds, the
point test is a prefix scan over the class of v: sound and complete.  The
quotients found form a union of classes (if a*q lies in the class of v and q
equals q', so does a*q'), so ``RewriteEngine.least_words`` reads their
canonical forms off them in one pass: a division test closes over and caches
the class of v only, and ``cap`` bounds that closure alone.  Common
multiples are whole-level questions and read the graded class tables instead:
u left-divides a length-n class exactly when that class is the class of u*z
for some length-(n - |u|) class z, and ``RewriteEngine.left_multiples`` lists
those by a walk through the tables, so no class is closed over.  In a
homogeneous presentation proper divisors are strictly shorter, so the minimal
elements reported within the bound are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .presentation import Presentation, Word
from .rewrite import DEFAULT_CAP, engine, _require_homogeneous


@dataclass(frozen=True)
class DivisionResult:
    divides: bool
    quotients: frozenset[Word]


@dataclass(frozen=True)
class McmReport:
    """Common right multiples of a word set up to a length bound.

    ``minimal`` holds the members of ``common_multiples`` with no proper
    left divisor among the common multiples.  ``lcm_up_to_bound`` is set only
    when a single minimal element exists and it left-divides every listed
    common multiple, i.e. a least common multiple up to the bound.
    """

    bound: int
    common_multiples: frozenset[Word]
    minimal: frozenset[Word]
    lcm_up_to_bound: Word | None


def _divides(u: Word, v: Word, p: Presentation, cap: int, side: str) -> DivisionResult:
    _require_homogeneous(p)
    eng = engine(p)
    a, b = eng.encode(u), eng.encode(v)
    if len(a) > len(b):
        return DivisionResult(False, frozenset())
    cls = eng.closure(b, cap)
    if side == "left":
        quots = {m[len(a):] for m in cls if m.startswith(a)}
    else:
        quots = {m[:len(b) - len(a)] for m in cls if m.endswith(a)}
    canons = eng.least_words(quots)
    return DivisionResult(bool(canons), frozenset(eng.decode(q) for q in canons))


def left_divides(u: Word, v: Word, p: Presentation, cap: int = DEFAULT_CAP) -> DivisionResult:
    """Does u left-divide v?  Quotients are canonical forms of all w with v = u*w."""
    return _divides(u, v, p, cap, "left")


def right_divides(u: Word, v: Word, p: Presentation, cap: int = DEFAULT_CAP) -> DivisionResult:
    """Does u right-divide v (v = w*u)?  Mirror of left_divides on suffixes."""
    return _divides(u, v, p, cap, "right")


def _cm_raw(js: list[str], eng, max_len: int) -> list[str]:
    if not js:
        raise ValueError("common multiples of an empty set are everything")
    found = []
    for n in range(max(len(j) for j in js), max_len + 1):
        common = set.intersection(*(set(eng.left_multiples(j, n)) for j in js))
        canons = eng.partition(n)
        found.extend(canons[c] for c in sorted(common))
    return found


def cm_r(J: Iterable[Word], p: Presentation, max_len: int, cap: int = DEFAULT_CAP) -> frozenset[Word]:
    """Canonical forms of every element of length <= max_len that all of J left-divide.

    ``cap`` bounds closures only, and this scan of the class tables builds none.
    """
    _require_homogeneous(p)
    eng = engine(p)
    js = [eng.encode(j) for j in J]
    return frozenset(eng.decode(c) for c in _cm_raw(js, eng, max_len))


def mcm_r(J: Iterable[Word], p: Presentation, max_len: int, cap: int = DEFAULT_CAP) -> McmReport:
    """Minimal common right multiples of J within the length bound.

    An element is minimal when no other common multiple properly left-divides
    it; proper divisors are strictly shorter here, so boundedness cannot
    produce false minimals (it can only hide longer ones).  ``cap`` bounds
    closures only, and this scan of the class tables builds none.
    """
    _require_homogeneous(p)
    eng = engine(p)
    js = [eng.encode(j) for j in J]
    cm = _cm_raw(js, eng, max_len)
    multiples: dict[tuple[str, int], set[int]] = {}

    def divides(v: str, u: str) -> bool:
        key = (v, len(u))
        if key not in multiples:
            multiples[key] = set(eng.left_multiples(*key))
        return eng.class_of(u) in multiples[key]

    minimal = [u for u in cm if not any(divides(v, u) for v in cm if len(v) < len(u))]
    lcm = None
    if len(minimal) == 1 and all(divides(minimal[0], u) for u in cm):
        lcm = minimal[0]
    return McmReport(
        bound=max_len,
        common_multiples=frozenset(eng.decode(c) for c in cm),
        minimal=frozenset(eng.decode(c) for c in minimal),
        lcm_up_to_bound=None if lcm is None else eng.decode(lcm),
    )
