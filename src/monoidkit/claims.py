"""The paper's named claims, each checked at a stated bound as one report.

In M6, M6p and M6p_completed, infinitely many k-indexed pairs are equal while
the pair with a common letter cancelled is not.  In g(m,n), t1 and t2 have
several minimal common right multiples (``no-lcm``), and the central elements
up to the bound are 1 and the powers of delta that fit (``center``).  A
g(m,n) claim's bound defaults to the least that decides it, the length of its
witnesses; both need m, n >= 2, for in g(m,1) t1 and t2 have an lcm and a
one-letter family's letter is central.  Refused arguments raise ValueError.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product

from .divisibility import mcm_r
from .gmn import GmnContext, build_gmn, in_rm
from .groupwords import center_scan
from .presentation import Word, fixture
from .rewrite import DEFAULT_CAP, canonical, equal

# fixture -> claim id -> (lhs, rhs, cancelled lhs, cancelled rhs), each
# pattern "head|mid|tail" standing for head.mid^k.tail
_FIXTURE_CLAIMS = {
    "M6": {
        "cdea": ("cde|a|f", "ce|a|fd", "de|a|f", "e|a|fd"),
        "bfe": ("bf|e|ac", "f|e|abc", "bf|e|a", "f|e|ab"),
        "cef": ("ce|f|ab", "e|f|acb", "ce|f|a", "e|f|ac"),
    },
    "M6p": {
        "dbcefa": ("dbcefa||", "dbefac||", "cefa||", "efac||"),
    },
    "M6p_completed": {
        "acde": ("acde|e|abf", "d|e|aabcef", "acde|e|ab", "d|e|aabce"),
        "cefa": ("cefa|a|cdb", "f|a|ccdeab", "cefa|a|cd", "f|a|ccdea"),
        "eabc": ("eabc|c|efd", "b|c|eefacd", "eabc|c|ef", "b|c|eefac"),
    },
}


class ClaimReport(namedtuple("ClaimReport", "claims bounds")):
    """One entry per checked pair or property, each with its ``id`` and its
    own ``reproduced``; ``bounds`` holds k for the fixture claims and
    max_len for the g(m,n) ones."""

    __slots__ = ()
    claims: list[dict]
    bounds: dict[str, int]

    @property
    def reproduced(self) -> bool:
        return all(c["reproduced"] for c in self.claims)


def check_claim(name: str, *, k: int | None = None, family: str = "all",
                m: int | None = None, n: int | None = None,
                max_len: int | None = None, cap: int = DEFAULT_CAP) -> ClaimReport:
    """Check ``M6``, ``M6p`` or ``M6p_completed`` at index k >= 1 (default 1), for
    the claim id ``family`` or all of them, or ``no-lcm`` or ``center`` on
    g(m,n) (default g(2,2)) up to ``max_len`` (by default the least bound that
    decides the claim); a bound that the claim does not read is refused."""
    key = name.replace("-", "_")
    if key in _FIXTURE_CLAIMS:
        ids = list(_FIXTURE_CLAIMS[key])
        unread = {"m": m, "n": n, "max-len": max_len}
    elif key in ("no_lcm", "center"):
        ids = [key.replace("_", "-")]
        unread = {"k": k}
    else:
        raise ValueError(f"unknown claim {name!r}")
    if family != "all" and family not in ids:
        raise ValueError(f"unknown claim id for {name}: {family}")
    if given := [flag for flag, value in unread.items() if value is not None]:
        raise ValueError(f"claim {name} does not read --{', --'.join(given)}")
    k, m, n = 1 if k is None else k, 2 if m is None else m, 2 if n is None else n
    if key in _FIXTURE_CLAIMS:
        if k < 1:
            raise ValueError(f"--k must be at least 1, got {k}")
        p = fixture(key)
        claims = []
        for cid in ids if family == "all" else [family]:
            lhs, rhs, cl, cr = (_k_words(s, k) for s in _FIXTURE_CLAIMS[key][cid])
            holds, cancelled_holds = equal(lhs, rhs, p, cap), equal(cl, cr, p, cap)
            claims.append({"id": cid, "k": k, "holds": holds, "cancelled_holds": cancelled_holds,
                           "reproduced": holds and not cancelled_holds,
                           "pair": [lhs, rhs], "cancelled_pair": [cl, cr]})
        return ClaimReport(claims, {"k": k})
    if key == "no_lcm":
        if m < 2:
            raise ValueError("the no-lcm claim needs --m >= 2 (it compares t1 and t2)")
        if n < 2:
            raise ValueError("the no-lcm claim needs --n >= 2 (with n = 1, t1 and t2 "
                             "have the lcm s.t1...tm)")
    else:
        for flag, value, letter in (("m", m, "t1"), ("n", n, "u1")):  # below 1, build_gmn refuses
            if value == 1:
                raise ValueError(f"the center claim needs --{flag} >= 2 "
                                 f"(with {flag} = 1, {letter} is central)")
    ctx = build_gmn(m, n)
    least = len(ctx.delta1) + 1 if key == "no_lcm" else len(ctx.delta)
    if max_len is not None and max_len < least:
        raise ValueError(f"--max-len must be at least {least} for claim {name}, "
                         f"got {max_len}")
    bound = least if max_len is None else max_len
    check = _no_lcm if key == "no_lcm" else _center
    return ClaimReport([check(ctx, bound, cap)], {"max_len": bound})


def _k_words(pattern: str, k: int) -> Word:
    """Expand 'cd|e|af' as the middle block repeated k times."""
    head, mid, tail = pattern.split("|")
    return tuple(head + mid * k + tail)


def _no_lcm(ctx: GmnContext, bound: int, cap: int) -> dict:
    """The minimal common right multiples of t1 and t2 against the paper's,
    r.delta1 for every u-word r in R_n that fits."""
    p = ctx.presentation
    rep = mcm_r([("t1",), ("t2",)], p, bound, cap)
    predicted = {canonical(r + ctx.delta1, p, cap)
                 for length in range(bound - len(ctx.delta1) + 1)
                 for r in product(ctx.family(2), repeat=length) if in_rm(ctx, r, 2)}
    return {
        "id": "no-lcm",
        "minimal": p.sorted_words(rep.minimal),
        "predicted": p.sorted_words(predicted),
        "lcm_up_to_bound": rep.lcm_up_to_bound,
        "reproduced": (rep.minimal == predicted and rep.lcm_up_to_bound is None
                       and len(rep.minimal) > 1),
    }


def _center(ctx: GmnContext, bound: int, cap: int) -> dict:
    """The central elements up to the bound against 1 and the powers of
    delta that fit."""
    p, delta = ctx.presentation, ctx.delta
    found = center_scan(p, bound)
    predicted = {()} | {canonical(delta * j, p, cap) for j in range(1, bound // len(delta) + 1)}
    return {
        "id": "center",
        "central": p.sorted_words(found),
        "predicted": p.sorted_words(predicted),
        "reproduced": found == predicted,
    }
