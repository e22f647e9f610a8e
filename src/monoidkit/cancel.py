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
from .rewrite import DEFAULT_CAP, collision_groups, engine, _require_homogeneous


@dataclass(frozen=True)
class CancellationFailure:
    """Witness: equal(context+x, context+y) but not equal(x, y) (side="left"),
    or the mirror with the context appended (side="right")."""

    side: str
    context: Word
    x: Word
    y: Word


def search_failures(
    p: Presentation, max_len: int, cap: int = DEFAULT_CAP
) -> list[CancellationFailure]:
    """All single-letter cancellation failures with product length <= max_len.

    For each context letter g and length n, the class tables group the
    length-n classes by the class of g*x (left) and of x*g (right); every
    two classes in one group are a failure, so no pair of classes is ever
    compared.  The left images of one letter are carried from each length
    to the next, so the images of one letter and length are alive at a
    time.  ``cap`` bounds closures only, and this search builds none.
    """
    _require_homogeneous(p)
    eng = engine(p)
    failures: list[CancellationFailure] = []
    # one context letter per letter class: equal letters cancel identically
    for g in eng.partition(1):
        sides = (("left", eng.left_levels(g, max_len)),
                 ("right", (eng.right_multiples(g, n + 1) for n in range(max_len))))
        for side, levels in sides:
            for n, images in enumerate(levels):
                for group in collision_groups(images):
                    canons = eng.partition(n)
                    for x, y in combinations(group, 2):
                        x_word, y_word = eng.decode(canons[x]), eng.decode(canons[y])
                        failures.append(CancellationFailure(side, eng.decode(g), x_word, y_word))
    key = p.word_key
    failures.sort(key=lambda f: (len(f.x), f.side, key(f.context), key(f.x), key(f.y)))
    return failures


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
