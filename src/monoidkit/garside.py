"""Atoms, fundamental elements and Garside elements.

A word D is *fundamental* when some permutation sigma of the atoms satisfies
D = s * D_s = D_s * sigma(s) for every atom s (with D_s the left quotient).
It is a *Garside element* when its left- and right-divisor sets coincide,
are finite, and generate the monoid.  For atomic cancellative monoids the two
notions agree.

Both tests close over the class of delta only, so ``cap`` bounds that one
closure: quotients and divisor sets are unions of classes read off it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cache

from .errors import NotFundamentalError
from .presentation import Presentation, Word
from .rewrite import DEFAULT_CAP, engine


@dataclass(frozen=True)
class FundamentalCertificate:
    """Witness that ``delta`` is fundamental.

    ``quotients[s]`` is a canonical word with delta = s * quotients[s] and
    delta = quotients[s] * sigma[s]; ``order`` is the order of sigma as a
    permutation of the atoms.  When the monoid is not cancellative several
    permutations may fit; ``sigma_count`` reports how many, and sigma is the
    lexicographically first.
    """

    delta: Word
    sigma: dict[str, str]
    quotients: dict[str, Word]
    order: int
    sigma_count: int = 1


@dataclass(frozen=True)
class GarsideReport:
    left_divisors: frozenset[Word]
    right_divisors: frozenset[Word]
    coincide: bool
    generate: bool

    @property
    def is_garside(self) -> bool:
        return self.coincide and self.generate


def atoms(p: Presentation) -> frozenset[str]:
    """One representative letter per equivalence class of generators.

    In a homogeneous presentation the only way a generator decomposes is to
    equal another single letter, so the atom classes are exactly the classes
    of letters.  Each is represented by its canonical word in the length-1
    class table, the earliest letter in declaration order.
    """
    eng = engine(p)
    return frozenset(eng.decode(c)[0] for c in eng.partition(1))


def verify_fundamental(
    delta: Word,
    p: Presentation,
    cap: int = DEFAULT_CAP,
    strict: bool = False,
) -> FundamentalCertificate | None:
    """Check delta = s * D_s = D_s * sigma(s) for a bijection sigma of the atoms.

    Returns the certificate, or None when no such sigma exists (the empty
    word is never fundamental).  With ``strict`` a NotFundamentalError names
    the first obstruction instead.
    """
    eng = engine(p)
    ats = sorted(atoms(p), key=p.index.__getitem__)
    if not delta:
        if strict:
            raise NotFundamentalError("the empty word is not fundamental")
        return None
    cls = eng.closure(eng.encode(delta), cap)

    # Q_s = {q : s*q in [delta]} and E_x = {q : q*x in [delta]} are unions of
    # classes, so the least word of Q_s & E_x is canonical: D_s if sigma(s) = x.
    # sigma is a perfect matching of atoms to such letters x; ways(i, used)
    # counts the matchings of atoms i.. into the letters outside ``used``,
    # memoised over the subsets.
    heads, tails = defaultdict(set), defaultdict(set)
    for m in cls:
        heads[m[0]].add(m[1:])
        tails[m[-1]].add(m[:-1])
    char = {s: eng.encode((s,)) for s in ats}
    cand: dict[str, dict[str, str]] = {}
    for s in ats:
        quots = heads[char[s]]
        if not quots:
            if strict:
                raise NotFundamentalError(f"atom {s!r} does not left-divide", atom=s)
            return None
        both = {x: quots & tails[char[x]] for x in ats}
        options = {x: min(qs) for x, qs in both.items() if qs}
        if not options:
            if strict:
                raise NotFundamentalError(
                    f"no letter completes a quotient of atom {s!r}", atom=s
                )
            return None
        cand[s] = options

    @cache
    def ways(i: int, used: int) -> int:
        if i == len(ats):
            return 1
        return sum(
            ways(i + 1, used | 1 << j)
            for j, x in enumerate(ats)
            if not used >> j & 1 and x in cand[ats[i]]
        )

    count = ways(0, 0)
    if count == 0:
        if strict:
            raise NotFundamentalError("no atom permutation fits the quotients")
        return None
    # the first fitting target of each atom in turn: the lexicographically
    # first sigma in atom order
    chosen: dict[str, str] = {}
    used = 0
    for i, s in enumerate(ats):
        j = next(
            j for j, x in enumerate(ats)
            if not used >> j & 1 and x in cand[s] and ways(i + 1, used | 1 << j)
        )
        chosen[s] = ats[j]
        used |= 1 << j
    # the order of sigma: the least N >= 1 with sigma^N the identity
    order, power = 1, chosen
    while any(power[s] != s for s in ats):
        order, power = order + 1, {s: chosen[power[s]] for s in ats}
    return FundamentalCertificate(
        delta=tuple(delta),
        sigma=chosen,
        quotients={s: eng.decode(cand[s][chosen[s]]) for s in ats},
        order=order,
        sigma_count=count,
    )


def verify_garside(delta: Word, p: Presentation, cap: int = DEFAULT_CAP) -> GarsideReport:
    """Divisor sets of delta from class prefixes and suffixes.

    ``generate`` holds when every atom class appears among the divisors
    (atoms generate the monoid, so that is all generation requires);
    finiteness is automatic for homogeneous presentations.
    """
    eng = engine(p)
    cls = eng.closure(eng.encode(delta), cap)
    # the prefixes and suffixes of length 0 and |delta| are the empty word and
    # delta's own class, whose least word is known
    ends = {"", cls.least}
    inner = range(1, len(delta))
    left_canon = ends.union(*(eng.least_words({m[:i] for m in cls}) for i in inner))
    right_canon = ends.union(*(eng.least_words({m[i:] for m in cls}) for i in inner))
    return GarsideReport(
        left_divisors=frozenset(map(eng.decode, left_canon)),
        right_divisors=frozenset(map(eng.decode, right_canon)),
        coincide=left_canon == right_canon,
        generate=set(eng.partition(1)) <= left_canon | right_canon,
    )
