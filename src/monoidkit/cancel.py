"""Bounded search for cancellation failures, and single completion steps.

A monoid is cancellative when a*x*b = a*y*b forces x = y.  Any failing
context contains a failing single-letter step (peel letters off the context
until the first equality that breaks), so searching products g*x vs g*y and
x*g vs y*g over single letters g is complete for a given total length bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .presentation import Presentation, Relation, Word
from .rewrite import DEFAULT_CAP, engine, equal, _require_homogeneous


@dataclass(frozen=True)
class CancellationFailure:
    """Witness: equal(context+x, context+y) but not equal(x, y) (side="left"),
    or the mirror with the context appended (side="right")."""

    side: str
    context: Word
    x: Word
    y: Word


@dataclass(frozen=True)
class ClaimCheck:
    holds: bool
    cancelled_holds: bool


def search_failures(
    p: Presentation, max_len: int, cap: int = DEFAULT_CAP
) -> list[CancellationFailure]:
    """All single-letter cancellation failures with product length <= max_len.

    For each length n and context letter g, the class tables group the
    length-n classes by the class of g*x (left) and of x*g (right); every
    two classes in one group are a failure, so no pair of classes is ever
    compared.  ``cap`` bounds closures only, and this search builds none.
    """
    _require_homogeneous(p)
    eng = engine(p)
    failures: list[CancellationFailure] = []
    # one context letter per letter class: equal letters cancel identically
    contexts = eng.partition(1)
    for n in range(1, max_len):
        canons = eng.partition(n)
        for side in ("left", "right"):
            for g in contexts:
                for group in eng.collisions(n, g, side):
                    for x, y in combinations(group, 2):
                        x_word, y_word = eng.decode(canons[x]), eng.decode(canons[y])
                        failures.append(CancellationFailure(side, eng.decode(g), x_word, y_word))
    key = p.word_key
    failures.sort(key=lambda f: (len(f.x), f.side, key(f.context), key(f.x), key(f.y)))
    return failures


def verify_claim(
    p: Presentation,
    lhs: Word,
    rhs: Word,
    cancelled_lhs: Word,
    cancelled_rhs: Word,
    cap: int = DEFAULT_CAP,
) -> ClaimCheck:
    """Evaluate a targeted pair of equalities (cheap check for long witnesses)."""
    return ClaimCheck(
        holds=equal(lhs, rhs, p, cap),
        cancelled_holds=equal(cancelled_lhs, cancelled_rhs, p, cap),
    )


def add_relation(p: Presentation, u: Word, v: Word) -> Presentation:
    """A new presentation with u = v appended; flags are recomputed.

    Requires |u| = |v| so homogeneity survives.  Equal words add nothing and
    return an equal presentation.
    """
    if len(u) != len(v):
        raise ValueError(f"relation sides have different lengths {len(u)} and {len(v)}")
    if tuple(u) == tuple(v):
        return Presentation(p.letters, p.relations)
    return Presentation(p.letters, p.relations + (Relation(tuple(u), tuple(v)),))
