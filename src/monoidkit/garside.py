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
    try:
        return _certificate(delta, p, cap)
    except NotFundamentalError:
        if strict:
            raise
        return None


def _certificate(delta: Word, p: Presentation, cap: int) -> FundamentalCertificate:
    """The certificate of delta, or NotFundamentalError at its first obstruction."""
    eng = engine(p)
    if not delta:
        raise NotFundamentalError("the empty word is not fundamental")
    cls = eng.closure(eng.encode(delta), cap)
    # one encoded letter per atom class, in declaration order (see atoms())
    ats = list(eng.partition(1))
    names = eng.decode("".join(ats))

    # Q_s = {q : s*q in [delta]} and E_x = {q : q*x in [delta]} are unions of
    # classes, so the least word of Q_s & E_x is canonical: D_s if sigma(s) = x.
    # fits(i, used) counts the matchings of atoms i.. into the letters outside
    # ``used`` and gives the first in atom order (None if none), memoised.
    heads, tails = defaultdict(set), defaultdict(set)
    for m in cls:
        heads[m[0]].add(m[1:])
        tails[m[-1]].add(m[:-1])
    cand: list[dict[int, str]] = []
    for s, a in zip(names, ats):
        quots = heads[a]
        if not quots:
            raise NotFundamentalError(f"atom {s!r} does not left-divide", atom=s)
        options = {j: min(qs) for j, x in enumerate(ats) if (qs := quots & tails[x])}
        if not options:
            raise NotFundamentalError(f"no letter completes a quotient of atom {s!r}", atom=s)
        cand.append(options)

    @cache
    def fits(i: int, used: int) -> tuple[int, tuple[int, ...] | None]:
        if i == len(ats):
            return 1, ()
        subs = [(j, fits(i + 1, used | 1 << j)) for j in cand[i] if not used >> j & 1]
        first = next(((j, *rest) for j, (n, rest) in subs if n), None)
        return sum(n for _, (n, _) in subs), first

    count, first = fits(0, 0)
    if not count:
        raise NotFundamentalError("no atom permutation fits the quotients")
    sigma = {s: names[j] for s, j in zip(names, first)}
    # the order of sigma: the least N >= 1 with sigma^N the identity
    order, power = 1, sigma
    while any(power[s] != s for s in names):
        order, power = order + 1, {s: sigma[power[s]] for s in names}
    return FundamentalCertificate(
        delta=tuple(delta),
        sigma=sigma,
        quotients={s: eng.decode(c[j]) for s, c, j in zip(names, cand, first)},
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
