"""Group word problem through the fundamental element.

Let delta be fundamental: delta = s * D_s = D_s * sigma(s) for every atom s,
with sigma a permutation of the atoms of order N.  Two identities follow:
x * delta = delta * sigma(x) for every letter x, so a positive word crosses
delta as w * delta = delta * sigma(w), letter by letter; and every inverse
letter is a~ = D_a * delta~, so w * a~ = delta~ * sigma^-1(w * D_a).

``group_equal`` keeps a word as delta^j * r with r positive, built in one
left-to-right pass over its free reduction.  A positive letter goes onto the
end of r; when the last |delta| letters of r are a member of delta's class
they are dropped, sigma is applied to the rest and j goes up by one.  An
inverse letter a~ first moves every delta that left-divides r into j, then
divides r on the right by a (by the atom of a's class, which the certificate
lists), or failing that makes r = sigma^-1(r * D_a) and lowers j by one.  Two
words are compared by a homomorphic image first (their length, or their
letter counts when every relation permutes its letters); then, if the powers
differ by i, the residual with the higher power is looked up among the
quotients of the other by delta^i, else the residuals are compared in the
monoid.  Every division is one ``RewriteEngine.quotients`` call, read off the
closure of the residual, and no closure sees a padded lift: only delta and
residuals are closed over.  This is the delta-factorisation of Garside theory
(Dehornoy et al., Foundations of Garside Theory, 2015) with only the
quotients and sigma of the certificate, never lcms or a greedy normal form,
since the monoids at hand need not have lcms.

The verdict is only meaningful when the monoid embeds into the group, since
delta^i * r1 = r2 is then read in the monoid; that is why comparison refuses
to run unless the presentation is proven cancellative, checked empirically to
a stated bound (and not flagged non-cancellative), or explicitly overridden.

Signed-word syntax: the token suffix ``~`` marks an inverse (``s~``, ``t1~``).
"""

from __future__ import annotations

from .cancel import search_failures
from .errors import InjectivityNotEstablishedError
from .garside import FundamentalCertificate
from .presentation import Presentation, Word, _tokenize_word
from .rewrite import DEFAULT_CAP, RewriteEngine, engine

SignedWord = tuple[tuple[str, int], ...]


def parse_signed_word(p: Presentation, text: str) -> SignedWord:
    """A word whose tokens may end in ``~``, an inverse letter."""
    return tuple((t[:-1], -1) if "~" in t else (t, 1)  # no name has a "~"
                 for t in _tokenize_word(text, p.index, inverses=True))


def free_reduce(sw: SignedWord) -> SignedWord:
    """Cancel adjacent g g~ and g~ g pairs until none remain."""
    out: list[tuple[str, int]] = []
    for entry in sw:
        if out and out[-1][0] == entry[0] and out[-1][1] == -entry[1]:
            out.pop()
        else:
            out.append(entry)
    return tuple(out)


class _DeltaForms:
    """Signed words as delta^j * r, r a positive char string (see the module
    docstring).  Closures are taken of delta and of residuals r only."""

    def __init__(self, eng: RewriteEngine, cert: FundamentalCertificate, cap: int):
        letters = eng.presentation.letters
        self.eng, self.cap = eng, cap
        self.delta = eng.encode(cert.delta)
        self.delta_class = eng.closure(self.delta, cap)
        enc = {x: eng.encode((x,)) for x in letters}
        # each letter's certificate atom: the atom in the letter's class
        by_class = {eng.class_of(enc[a]): a for a in cert.quotients}
        atom = {}
        for x in letters:
            if (a := by_class.get(eng.class_of(enc[x]))) is None:
                raise ValueError(f"letter {x!r} has no atom representative in the certificate")
            atom[x] = a
        preimage = {b: a for a, b in cert.sigma.items()}
        self.atom = {enc[x]: enc[a] for x, a in atom.items()}
        self.quotient = {enc[a]: eng.encode(q) for a, q in cert.quotients.items()}
        self.sigma = str.maketrans({enc[x]: enc[cert.sigma[a]] for x, a in atom.items()})
        self.sigma_inv = str.maketrans({enc[x]: enc[preimage[a]] for x, a in atom.items()})

    def of(self, sw: SignedWord) -> tuple[int, str, bool]:
        """(j, r, reduced) with sw = delta^j * r in the group, in one pass;
        ``reduced`` says that delta is known not to left-divide r."""
        eng, n, atom = self.eng, len(self.delta), self.atom
        j, r, reduced = 0, "", True
        for letter, sign in free_reduce(sw):
            c = eng.encode((letter,))
            if sign > 0:
                # r' * delta = delta * sigma(r')
                r += c
                reduced = False
                if r[-n:] in self.delta_class:
                    r = r[:-n].translate(self.sigma)
                    j += 1
                continue
            reduced = True
            while quots := eng.quotients(r, self.delta, "left", self.cap):
                r, j = min(quots), j + 1
            a = atom[c]
            if quots := eng.quotients(r, a, "right", self.cap):
                r = min(quots)
            else:
                # a~ = D_a * delta~ and w * delta~ = delta~ * sigma^-1(w); no
                # delta divides the result, or a would right-divide r
                r = (r + self.quotient[a]).translate(self.sigma_inv)
                j -= 1
        return j, r, reduced

    def weight(self, j: int, r: str):
        """Image of delta^j * r under a homomorphism of the group: the letter
        counts when every relation permutes its letters, else the length."""
        if self.eng.balanced:
            return tuple(j * self.delta.count(c) + r.count(c) for c in self.eng.chars)
        return j * len(self.delta) + len(r)

    def equal(self, w1: SignedWord, w2: SignedWord) -> bool:
        (j1, r1, reduced), (j2, r2, _) = sorted((self.of(w1), self.of(w2)))
        if self.weight(j1, r1) != self.weight(j2, r2) or reduced and j1 < j2:
            return False
        # delta^j1 * r1 = delta^j2 * r2 iff r1 = delta^(j2 - j1) * r2, in the
        # monoid as well since it embeds: iff r2 is a quotient of r1 by
        # delta^(j2 - j1)
        if j1 < j2:
            return r2 in self.eng.quotients(r1, self.delta * (j2 - j1), "left", self.cap)
        return self.eng.equal_raw(r1, r2, self.cap)


def group_equal(
    w1: SignedWord,
    w2: SignedWord,
    p: Presentation,
    cert: FundamentalCertificate,
    cap: int = DEFAULT_CAP,
    assume_injective: bool = False,
    verify_cancellative_to: int | None = None,
) -> bool:
    """Decide equality of two group words.

    Refuses with InjectivityNotEstablishedError unless the presentation is
    flagged proven cancellative, ``verify_cancellative_to`` finds no
    cancellation failure up to that bound and the presentation is not
    flagged non-cancellative, or ``assume_injective`` is set.
    A False under a mere assumption is only as good as the assumption.

    ``cap`` bounds each closure, and closures are taken only of delta and of
    the residuals r of the delta^j * r forms, never of a padded lift: padding
    both words with powers of delta costs none.
    """
    eng = engine(p)  # refuses a non-homogeneous presentation first
    if p.cancellative is not True and not assume_injective:
        if verify_cancellative_to is None:
            raise InjectivityNotEstablishedError(
                "presentation not known cancellative; pass assume_injective=True "
                "or verify_cancellative_to=<bound>"
            )
        failures = search_failures(p, verify_cancellative_to, cap)
        if failures:
            raise InjectivityNotEstablishedError(
                f"found {len(failures)} cancellation failures up to length "
                f"{verify_cancellative_to}; the monoid does not embed"
            )
        if p.cancellative is False:
            raise InjectivityNotEstablishedError(
                f"no cancellation failure up to length {verify_cancellative_to}, but "
                "the presentation is flagged non-cancellative; the monoid does not embed"
            )
    return _DeltaForms(eng, cert, cap).equal(w1, w2)


def center_scan(p: Presentation, max_len: int) -> frozenset[Word]:
    """Canonical classes of length <= max_len commuting with every generator.

    Commuting with the generators suffices for centrality since they generate
    the monoid.  The empty word is always reported.  Classes are compared
    through the class tables, with no closure: c*g and g*c for every class c
    of a length come from the tables at once, a letter's left images carried
    from length to length, and only the central classes are decoded into
    words.
    """
    eng = engine(p)
    ids = [range(len(eng.partition(n))) for n in range(max_len + 1)]
    for g in eng.chars:
        for n, left in enumerate(eng.left_levels(g, max_len + 1)):
            right = eng.right_multiples(g, n + 1)
            ids[n] = [c for c in ids[n] if right[c] == left[c]]
    return frozenset(eng.decode(eng.partition(n)[c]) for n, cs in enumerate(ids) for c in cs)
