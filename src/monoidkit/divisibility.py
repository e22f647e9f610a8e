"""Left/right divisibility and bounded common-multiple lattices.

u left-divides v when v = u*w for some w in the monoid.  Because the literal
concatenation u*w lies in the class of v whenever the equation holds, the
point test reads the members of the class of v that start with u: sound and
complete.  ``RewriteEngine.quotients`` finds them in one text of the whole
class, kept for the next division of that class; it is the one division
path of the package (the group words divide their residuals through it
too).  The quotients
found form a union of classes (if a*q lies in the class of v and q equals
q', so does a*q'), so ``RewriteEngine.least_words`` reads their canonical
forms off them in one pass: a division test closes over and caches the class
of v only, and ``cap`` bounds that closure alone.  In a presentation
flagged ``cancellative=True`` (the built g(m,n) family) a*q = a*q' forces
q = q', so the quotients are a single class and their least word is its
canonical form, with no union-find; a file copy of the same presentation
carries no flag and takes the union-find pass.  Common multiples are
whole-level questions and read the graded class tables instead:
u left-divides a length-n class exactly when that class is the class of u*z
for some length-(n - |u|) class z, and ``RewriteEngine.left_levels`` lists
those length by length, each level one table lookup per class from the one
before, so no class is closed over.  The minimal ones are read off the same
tables, one row per common multiple a letter shorter.  In a homogeneous
presentation proper divisors are strictly shorter, so the minimal elements
reported within the bound are exact.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from itertools import islice

from .errors import CapExceededError
from .presentation import Presentation, Word
from .rewrite import DEFAULT_CAP, engine, _with_partial


class DivisionResult(namedtuple("DivisionResult", "divides quotients")):
    __slots__ = ()
    divides: bool
    quotients: frozenset[Word]


class McmReport(namedtuple("McmReport", "bound common_multiples minimal lcm_up_to_bound")):
    """Common right multiples of a word set up to a length bound.

    ``minimal`` holds the members of ``common_multiples`` with no proper
    left divisor among the common multiples.  ``lcm_up_to_bound`` is set
    exactly when a single minimal element exists; it then left-divides every
    listed common multiple, i.e. it is a least common multiple up to the
    bound.
    """

    __slots__ = ()
    bound: int
    common_multiples: frozenset[Word]
    minimal: frozenset[Word]
    lcm_up_to_bound: Word | None


def _divides(u: Word, v: Word, p: Presentation, cap: int, side: str) -> DivisionResult:
    eng = engine(p)
    try:
        quots = eng.quotients(eng.encode(v), eng.encode(u), side, cap)
    except CapExceededError as e:
        raise _with_partial(e, eng, v)
    if p.cancellative is True:
        # u*w = u*w' (or w*u = w'*u) forces w = w', so the quotients are one
        # class, and all of it: every w' equal to a quotient w has u*w' in the
        # class of v too.  Its least word is the least quotient.
        canons = [min(quots)] if quots else []
    else:
        canons = eng.least_words(quots)
    return DivisionResult(bool(canons), frozenset(map(eng.decode, canons)))


def left_divides(u: Word, v: Word, p: Presentation, cap: int = DEFAULT_CAP) -> DivisionResult:
    """Does u left-divide v?  Quotients are canonical forms of all w with v = u*w."""
    return _divides(u, v, p, cap, "left")


def right_divides(u: Word, v: Word, p: Presentation, cap: int = DEFAULT_CAP) -> DivisionResult:
    """Does u right-divide v (v = w*u)?  Mirror of left_divides on suffixes."""
    return _divides(u, v, p, cap, "right")


def _cm_raw(js: list[str], eng, max_len: int) -> list[set[int]]:
    """The class ids of the common right multiples of js at each length
    0..max_len: one left_levels generator per word of js, zipped from the
    length of the longest word on."""
    if not js:
        raise ValueError("common multiples of an empty set are everything")
    lo = max(len(j) for j in js)
    levels = zip(*(islice(eng.left_levels(j, max_len), lo - len(j), None) for j in js))
    common = [set.intersection(*map(set, images)) for images in levels]
    return [set()] * min(lo, max_len + 1) + common


def _decode(eng, levels: list[set[int]]) -> frozenset[Word]:
    """The canonical words of the class ids of each length."""
    return frozenset(eng.decode(eng.partition(n)[c]) for n, ids in enumerate(levels) for c in ids)


def cm_r(J: Iterable[Word], p: Presentation, max_len: int, cap: int = DEFAULT_CAP) -> frozenset[Word]:
    """Canonical forms of every element of length <= max_len that all of J left-divide.

    ``cap`` bounds closures only, and this scan of the class tables builds none.
    """
    eng = engine(p)
    return _decode(eng, _cm_raw([eng.encode(j) for j in J], eng, max_len))


def mcm_r(J: Iterable[Word], p: Presentation, max_len: int, cap: int = DEFAULT_CAP) -> McmReport:
    """Minimal common right multiples of J within the length bound.

    Common right multiples are closed under right multiplication, so a
    common multiple u has a proper left divisor v among them exactly when
    u = c*a for a common multiple c one letter shorter (c = v*w where
    u = v*w*a) and a letter a: the minimal ones of length n are those missed
    by the table rows T_(n-1)[c*k + a] of the common multiples c of length
    n - 1.  Proper divisors are strictly shorter here, so boundedness cannot
    produce false minimals (it can only hide longer ones).  Following that
    descent from any common multiple ends at a minimal one below it, so a
    lone minimal element left-divides every common multiple within the
    bound: it is the lcm up to the bound.  ``cap`` bounds closures only, and
    this scan of the class tables builds none.
    """
    eng = engine(p)
    cm = _cm_raw([eng.encode(j) for j in J], eng, max_len)
    minimal = cm[:1]
    for n in range(1, len(cm)):
        reached = set()
        if cm[n - 1]:
            for a in eng.chars:  # the column T_(n-1)[a::k], read at each c
                reached.update(map(eng.right_multiples(a, n).__getitem__, cm[n - 1]))
        minimal.append(cm[n] - reached)
    least = _decode(eng, minimal)
    return McmReport(
        bound=max_len,
        common_multiples=_decode(eng, cm),
        minimal=least,
        lcm_up_to_bound=next(iter(least)) if len(least) == 1 else None,
    )
