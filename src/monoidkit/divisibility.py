"""Left/right divisibility and bounded common-multiple lattices.

u left-divides v when v = u*w for some w in the monoid.  Because the literal
concatenation u*w lies in the class of v whenever the equation holds, the
test is a prefix scan over the full class of v: sound and complete.  Common
multiples are found by scanning every equivalence class up to a length bound;
in a homogeneous presentation proper divisors are strictly shorter, so the
minimal elements reported within the bound are exact.
"""

from __future__ import annotations

from collections import Counter
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


def _quotient_canonicals(eng, cls, prefix: str, cap: int) -> set[str]:
    quots = {m[len(prefix):] for m in cls if m.startswith(prefix)}
    return {eng.canonical_raw(q, cap) for q in quots}


def left_divides(u: Word, v: Word, p: Presentation, cap: int = DEFAULT_CAP) -> DivisionResult:
    """Does u left-divide v?  Quotients are canonical forms of all w with v = u*w."""
    _require_homogeneous(p)
    eng = engine(p)
    a, b = eng.encode(u), eng.encode(v)
    if len(a) > len(b):
        return DivisionResult(False, frozenset())
    quots = _quotient_canonicals(eng, eng.closure(b, cap), a, cap)
    return DivisionResult(bool(quots), frozenset(eng.decode(q) for q in quots))


def right_divides(u: Word, v: Word, p: Presentation, cap: int = DEFAULT_CAP) -> DivisionResult:
    """Does u right-divide v (v = w*u)?  Mirror of left_divides on suffixes."""
    _require_homogeneous(p)
    eng = engine(p)
    a, b = eng.encode(u), eng.encode(v)
    if len(a) > len(b):
        return DivisionResult(False, frozenset())
    cut = len(b) - len(a)
    quots = {m[:cut] for m in eng.closure(b, cap) if m.endswith(a)}
    canons = {eng.canonical_raw(q, cap) for q in quots}
    return DivisionResult(bool(canons), frozenset(eng.decode(q) for q in canons))


def _cm_raw(js: list[str], eng, max_len: int, cap: int) -> list[str]:
    if not js:
        raise ValueError("common multiples of an empty set are everything")
    found = []
    min_len = max(len(j) for j in js)
    need = [Counter(j) for j in js] if eng.balanced else None
    for n in range(min_len, max_len + 1):
        for canon in eng.canonicals_at(n):
            if need is not None:
                have = Counter(canon)
                # a left divisor's letters are a sub-multiset of the multiple's
                if any((req - have) for req in need):
                    continue
            cls = eng.closure(canon, cap)
            if all(any(m.startswith(j) for m in cls) for j in js):
                found.append(canon)
    return found


def cm_r(J: Iterable[Word], p: Presentation, max_len: int, cap: int = DEFAULT_CAP) -> frozenset[Word]:
    """Canonical forms of every element of length <= max_len that all of J left-divide."""
    _require_homogeneous(p)
    eng = engine(p)
    js = [eng.encode(j) for j in J]
    return frozenset(eng.decode(c) for c in _cm_raw(js, eng, max_len, cap))


def mcm_r(J: Iterable[Word], p: Presentation, max_len: int, cap: int = DEFAULT_CAP) -> McmReport:
    """Minimal common right multiples of J within the length bound.

    An element is minimal when no other common multiple properly left-divides
    it; proper divisors are strictly shorter here, so boundedness cannot
    produce false minimals (it can only hide longer ones).
    """
    _require_homogeneous(p)
    eng = engine(p)
    js = [eng.encode(j) for j in J]
    cm = _cm_raw(js, eng, max_len, cap)
    minimal = []
    for u in cm:
        cls = eng.closure(u, cap)
        shorter = (v for v in cm if len(v) < len(u))
        if not any(any(m.startswith(v) for m in cls) for v in shorter):
            minimal.append(u)
    lcm = None
    if len(minimal) == 1:
        v = minimal[0]
        if all(any(m.startswith(v) for m in eng.closure(u, cap)) for u in cm):
            lcm = v
    return McmReport(
        bound=max_len,
        common_multiples=frozenset(eng.decode(c) for c in cm),
        minimal=frozenset(eng.decode(c) for c in minimal),
        lcm_up_to_bound=None if lcm is None else eng.decode(lcm),
    )
