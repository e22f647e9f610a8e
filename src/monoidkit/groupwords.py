"""Group word problem by lifting inverses through a central element.

Let delta be fundamental with atom permutation sigma of order N.  Then
lambda = delta^N is central in the monoid, and every inverse letter satisfies
g^-1 = D_g * delta^(N-1) * lambda^-1 where delta = g * D_g.  Pulling the
lambda^-1 factors to the front turns any signed word w into lambda^-k * P
with P positive and k the number of inverse letters; two group words are then
equal iff their lifted positive words agree in the monoid once both carry the
same power of lambda.  The verdict is only meaningful when the monoid embeds
into the group, which is why comparison refuses to run unless the
presentation is proven cancellative, checked empirically to a stated bound,
or explicitly overridden.

Signed-word syntax: the token suffix ``~`` marks an inverse (``s~``, ``t1~``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cancel import search_failures
from .errors import InjectivityNotEstablishedError
from .garside import FundamentalCertificate
from .presentation import Presentation, Word
from .rewrite import DEFAULT_CAP, engine, _require_homogeneous

SignedWord = tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class LiftResult:
    """``positive`` equals lambda^k times the input, as group elements."""

    k: int
    positive: Word


def parse_signed_word(p: Presentation, text: str) -> SignedWord:
    text = text.strip()
    if text == "" or (text == "1" and "1" not in p.index):
        return ()
    if "." in text:
        raw = [t for t in text.split(".") if t]
    elif all(len(x) == 1 for x in p.letters):
        raw = []
        for ch in text:
            if ch == "~":
                if not raw:
                    raise ValueError("'~' must follow a letter")
                raw[-1] += "~"
            else:
                raw.append(ch)
    else:
        raw = [text]
    out = []
    for tok in raw:
        name, sign = (tok[:-1], -1) if tok.endswith("~") else (tok, 1)
        if name not in p.index:
            raise ValueError(f"unknown letter {name!r}")
        out.append((name, sign))
    return tuple(out)


def format_signed_word(p: Presentation, sw: SignedWord) -> str:
    if not sw:
        return "1"
    toks = [x + ("~" if sign < 0 else "") for x, sign in sw]
    if all(len(x) == 1 for x in p.letters):
        return "".join(toks)
    return ".".join(toks)


def free_reduce(sw: SignedWord) -> SignedWord:
    """Cancel adjacent g g~ and g~ g pairs until none remain."""
    out: list[tuple[str, int]] = []
    for entry in sw:
        if out and out[-1][0] == entry[0] and out[-1][1] == -entry[1]:
            out.pop()
        else:
            out.append(entry)
    return tuple(out)


def _atom_rep(p: Presentation, cert: FundamentalCertificate, letter: str, cap: int) -> str:
    if letter in cert.quotients:
        return letter
    eng = engine(p)
    canon = eng.canonical_raw(eng.encode((letter,)), cap)
    for a in cert.quotients:
        if eng.canonical_raw(eng.encode((a,)), cap) == canon:
            return a
    raise ValueError(f"letter {letter!r} has no atom representative in the certificate")


def positive_lift(
    sw: SignedWord, cert: FundamentalCertificate, p: Presentation, cap: int = DEFAULT_CAP
) -> LiftResult:
    """Clear inverses: k counts inverse letters after free reduction, and each
    g~ becomes quotients[g] followed by delta^(N-1)."""
    reduced = free_reduce(sw)
    pad = cert.delta * (cert.order - 1)
    out: list[str] = []
    k = 0
    for letter, sign in reduced:
        if letter not in p.index:
            raise ValueError(f"unknown letter {letter!r}")
        if sign > 0:
            out.append(letter)
        else:
            k += 1
            out.extend(cert.quotients[_atom_rep(p, cert, letter, cap)])
            out.extend(pad)
    return LiftResult(k=k, positive=tuple(out))


def _reduced_lift(
    sw: SignedWord, cert: FundamentalCertificate, p: Presentation, cap: int
) -> tuple[int, str]:
    """Like positive_lift but cancels a trailing inverse against the word
    accumulated so far whenever a right quotient exists, keeping both the
    lambda exponent and the word short.  Needs injectivity to be sound, which
    group_equal guarantees before calling."""
    eng = engine(p)
    pad = eng.encode(cert.delta) * (cert.order - 1)
    acc = ""
    k = 0
    for letter, sign in free_reduce(sw):
        c = eng.encode((letter,))
        if sign > 0:
            acc += c
            continue
        cands = [m[:-1] for m in eng.closure(acc, cap) if m.endswith(c)]
        if cands:
            acc = min(cands)
        else:
            rep = _atom_rep(p, cert, letter, cap)
            acc += eng.encode(cert.quotients[rep]) + pad
            k += 1
    return k, acc


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
    cancellation failure up to that bound, or ``assume_injective`` is set.
    A False under a mere assumption is only as good as the assumption.
    """
    _require_homogeneous(p)
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
    eng = engine(p)
    k1, p1 = _reduced_lift(w1, cert, p, cap)
    k2, p2 = _reduced_lift(w2, cert, p, cap)
    lam = eng.encode(cert.delta) * cert.order
    a = lam * (max(k1, k2) - k1) + p1
    b = lam * (max(k1, k2) - k2) + p2
    return eng.equal_raw(a, b, cap)


def center_scan(p: Presentation, max_len: int, cap: int = DEFAULT_CAP) -> frozenset[Word]:
    """Canonical classes of length <= max_len commuting with every generator.

    Commuting with the generators suffices for centrality since they generate
    the monoid.  The empty word is always reported.  Classes are compared
    through the class tables, so ``cap`` (which bounds closures) is not used.
    """
    _require_homogeneous(p)
    eng = engine(p)
    central = []
    for n in range(0, max_len + 1):
        for canon in eng.canonicals_at(n):
            if all(eng.class_of(canon + g) == eng.class_of(g + canon) for g in eng.chars):
                central.append(canon)
    return frozenset(eng.decode(c) for c in central)
