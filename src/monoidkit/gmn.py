"""The g(m,n) family: one central-ish generator s, two free families t, u.

Generators are s, t1..tm, u1..un with all rotations of s*t1..tm equated, all
rotations of s*u1..un equated, and every t commuting with every u.  The
product delta = s*t1..tm*u1..un is fundamental and the monoid is cancellative,
which makes the family the well-behaved counterpart to the six-generator
fixtures.

This module also houses the combinatorial helpers that the cancellativity
argument runs on: the maximal consecutive-index suffix run of a one-family
word, quotients of delta1/delta2 by such runs, and a bounded checker for the
six division laws which together give left cancellativity.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from itertools import product

from .cancel import search_failures
from .presentation import Presentation, Relation, Word, expand_cyclic
from .rewrite import DEFAULT_CAP, engine


class GmnContext(namedtuple("GmnContext", "m n presentation delta1 delta2 delta")):
    __slots__ = ()
    m: int
    n: int
    presentation: Presentation
    delta1: Word  # s t1..tm
    delta2: Word  # s u1..un
    delta: Word  # s t1..tm u1..un

    def family(self, f: int) -> Word:
        """The letters t1..tm of delta1 (f = 1) or u1..un of delta2 (f = 2)."""
        if f not in (1, 2):
            raise ValueError("family must be 1 or 2")
        return (self.delta1 if f == 1 else self.delta2)[1:]


def build_gmn(m: int, n: int) -> GmnContext:
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    ts = tuple(f"t{i}" for i in range(1, m + 1))
    us = tuple(f"u{j}" for j in range(1, n + 1))
    letters = ("s",) + ts + us
    relations: list[Relation] = []
    relations.extend(expand_cyclic(("s",) + ts))
    relations.extend(expand_cyclic(("s",) + us))
    for t in ts:
        for u in us:
            relations.append(Relation((t, u), (u, t)))
    p = Presentation(letters, tuple(relations), cancellative=True)
    return GmnContext(
        m=m,
        n=n,
        presentation=p,
        delta1=("s",) + ts,
        delta2=("s",) + us,
        delta=("s",) + ts + us,
    )


# ---------------------------------------------------------------------------
# one-family words and consecutive runs


def _family_indices(ctx: GmnContext, w: Word) -> tuple[int, list[int]]:
    """The family (1 or 2) of a one-family word, 1 for the empty word, and
    the position of each of its letters in that family."""
    for f in (1, 2):
        letters = ctx.family(f)
        if set(w) <= set(letters):
            return f, list(map(letters.index, w))
    raise ValueError(f"{w!r} mixes letter families")


def split_tail_run(ctx: GmnContext, w: Word) -> tuple[Word, Word]:
    """Split a one-family word as rest + maximal consecutive-index suffix run.

    Inside one free family every relation is vacuous, so right divisors are
    literal suffixes and the maximal consecutive divisor is the longest
    suffix whose indices increase by one; for non-empty words it has at least
    the final letter.  Returns ((), ()) for the empty word.
    """
    if not w:
        return (), ()
    _, idx = _family_indices(ctx, w)
    start = len(w) - 1
    while start > 0 and idx[start - 1] + 1 == idx[start]:
        start -= 1
    return w[:start], w[start:]


def delta_quotient(ctx: GmnContext, family: int, w: Word) -> Word:
    """The unique q with delta_family = q * w, for w a consecutive run, s, or empty.

    Reading the rotations of s t1..tm: the run t_i..t_j right-divides with
    quotient t_(j+1)..tm s t1..t_(i-1); the letter s with quotient t1..tm.
    """
    full, s = ctx.family(family), ctx.delta[:1]
    if not w:
        return s + full
    if w == s:
        return full
    fam, idx = _family_indices(ctx, w)
    if fam != family or idx != list(range(idx[0], idx[0] + len(idx))):
        raise ValueError(f"{w!r} is not a consecutive run of {full!r}, {s!r}, or empty")
    return full[idx[-1] + 1:] + s + full[:idx[0]]


def in_rm(ctx: GmnContext, w: Word, family: int) -> bool:
    """Membership in the family's words not right-divisible by the full product.

    One-family words are rigid, so right divisibility is a literal suffix
    check against t1..tm (family 1) or u1..un (family 2).  The empty word is
    a member.
    """
    full = ctx.family(family)
    if not set(w) <= set(full):
        raise ValueError(f"{w!r} is not a word over {full!r}")
    return w[len(w) - len(full) :] != full


# ---------------------------------------------------------------------------
# bounded verification of the six division laws


class DivisionLawViolation(namedtuple("DivisionLawViolation", "case lhs rhs")):
    __slots__ = ()
    case: str
    lhs: Word
    rhs: Word


class DivisionLawReport(namedtuple("DivisionLawReport", "case max_len instances violations")):
    __slots__ = ()
    case: str
    max_len: int
    instances: int
    violations: tuple[DivisionLawViolation, ...]


CASES = ("i", "ii", "iii", "iv", "v", "vi")


def check_division_law(
    ctx: GmnContext, case: str, max_len: int, cap: int = DEFAULT_CAP
) -> DivisionLawReport:
    """Enumerate every instance of one division law up to a total length bound.

    The laws, for equal products of total length at most ``max_len`` (X, Y
    positive words, v any generator, w(t)/w(u) non-empty one-family words,
    Z the asserted witness):

      i    v X = v Y                  implies  X = Y
      ii   t_i X = u_j Y              implies  X = u_j Z and Y = t_i Z
      iii  s X = w(t) Y               implies  X = D1s R(w) Z, Y = D1C(w) Z
      iv   s X = w(u) Y               implies  the u-family mirror of iii
      v    t_i X = w(t) Y, t_i not a  implies  X = w(u) D1t_i R(w) Z and
           left divisor of w(t)                Y = w(u) D1C(w) Z for some
                                               w(u) with no full u1..un suffix
      vi   u_i X = w(u) Y, mirrored

    where R(w) is w without its tail run C(w), and D1s, D1t_i, D1C(w)
    abbreviate quotients of delta1 (delta2 for iv and vi) by s, t_i and C(w).
    Case i is left cancellation itself: it is read off ``search_failures``,
    one instance (and one violation v X, v Y) per left failure, so v runs
    over one letter per letter class, as the search does; that differs from
    every letter only when two generators are equal.  Cases ii-vi differ only
    in their heads a, b and their witness pairs, and one ``_check_law`` runs
    them all: both sides of every instance and every witness pair are read
    off the graded class tables (``RewriteEngine.left_levels``, one
    generator per prefix), never by blind enumeration, and violations come
    by class of the product, then (a, X), then (b, Y).  ``cap`` bounds
    closures only, and the check builds none.
    """
    if case not in CASES:
        raise ValueError(f"case must be one of {CASES}")
    if case == "i":
        fails = search_failures(ctx.presentation, max_len, cap)
        pairs = [(f.context + f.x, f.context + f.y) for f in fails if f.side == "left"]
        instances = len(pairs)
    else:
        eng = engine(ctx.presentation)
        family = 2 if case in ("iv", "vi") else 1
        fam, other = _fam_chars(ctx, eng, family), _fam_chars(ctx, eng, 3 - family)

        def split(w):
            # R(w), and the quotient of delta_family by C(w)
            rest, run = split_tail_run(ctx, eng.decode(w))
            return eng.encode(rest), eng.encode(delta_quotient(ctx, family, run))

        if case == "ii":
            heads = fam, other

            def witnesses(ti, uj, xlen):
                return [(uj, ti)]
        elif case in ("iii", "iv"):
            heads = [eng.encode(ctx.delta[:1])], _words(fam, 1, max_len)

            def witnesses(s, w, xlen):
                rest, quot = split(w)
                return [("".join(fam) + rest, quot)]  # "".join(fam) = D1s
        else:
            heads = fam, _words(fam, 1, max_len)

            def witnesses(ti, w, xlen):
                if w[0] == ti:
                    return None  # t_i left-divides w(t)
                rest, quot = split(w)
                d1ti = eng.encode(delta_quotient(ctx, family, eng.decode(ti)))
                return [
                    (wu + d1ti + rest, wu + quot)
                    for wu in _words(other, 0, xlen - len(d1ti) - len(rest))
                    if not wu.endswith("".join(other))
                ]
        instances, raw = _check_law(eng, max_len, *heads, witnesses)
        pairs = [(eng.decode(a), eng.decode(b)) for a, b in raw]
    violations = tuple(DivisionLawViolation(case, a, b) for a, b in pairs)
    return DivisionLawReport(case, max_len, instances, violations)


def _fam_chars(ctx: GmnContext, eng, family: int) -> tuple[str, ...]:
    return tuple(eng.encode(ctx.family(family)))


def _words(letters: tuple[str, ...], lo: int, hi: int) -> list[str]:
    """Every word over ``letters`` of length lo..hi, sorted."""
    return sorted("".join(w) for k in range(lo, hi + 1) for w in product(letters, repeat=k))


def _check_law(eng, max_len, heads_x, heads_y, witnesses):
    """Instances of  a X = b Y  implies  X = p1 Z and Y = p2 Z  for some Z and
    some (p1, p2) in witnesses(a, b, |X|), at total lengths 2..max_len.

    a runs over heads_x and b over heads_y, both sorted; witnesses returns
    None when (a, b) is no instance of the law.  a X and b Y meet when their
    left images put them in one class, and a witness pair holds when (X, Y)
    is (class of p1 Z, class of p2 Z) for one Z.  At each length only the
    images of heads_x are grouped by class, and those of heads_y are streamed
    past the groups.  The violations (a X, b Y) of a length come by class of
    the product, then (a, X), then (b, Y).
    """
    levels: dict[str, tuple[Iterator[list[int]], list[list[int]]]] = {}

    def mult(p: str, n: int) -> list[int]:
        # the left images of p at length n, empty when p is longer; each
        # prefix's levels are grown from its own left_levels, never rerun
        if len(p) > n:
            return []
        if p not in levels:
            levels[p] = eng.left_levels(p, max_len), []
        source, got = levels[p]
        while len(got) <= n - len(p):
            got.append(next(source))
        return got[n - len(p)]

    instances = 0
    violations = []
    for n in range(2, max_len + 1):
        left: dict[int, list[tuple[str, int]]] = {}
        for a in heads_x:
            for x, c in enumerate(mult(a, n)):
                left.setdefault(c, []).append((a, x))
        reached: dict[tuple[str, str], set[tuple[int, int]] | None] = {}
        found = []
        for b in heads_y:
            ylen = n - len(b)
            for y, c in enumerate(mult(b, n)):
                for a, x in left.get(c, ()):
                    xlen = n - len(a)
                    if (a, b) not in reached:
                        ws = witnesses(a, b, xlen)
                        reached[a, b] = None if ws is None else {
                            pair for p1, p2 in ws
                            for pair in zip(mult(p1, xlen), mult(p2, ylen))
                        }
                    if reached[a, b] is None:
                        continue
                    instances += 1
                    if (x, y) not in reached[a, b]:
                        found.append((c, a, x, b, y))
        violations.extend(
            (a + eng.partition(n - len(a))[x], b + eng.partition(n - len(b))[y])
            for _, a, x, b, y in sorted(found)
        )
    return instances, violations
