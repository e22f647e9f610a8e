"""Exception types shared across the package."""

from __future__ import annotations


class MonoidError(Exception):
    """Base class for all library errors."""


class ParseError(MonoidError, ValueError):
    """Malformed presentation file or word syntax; a ValueError like every
    other refused argument."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class NonHomogeneousError(MonoidError):
    """Operation requires a length-preserving presentation.

    Closure-based algorithms rely on equivalence classes having bounded
    word length, which only homogeneity guarantees.
    """


class CapExceededError(MonoidError):
    """An enumeration hit its cap before the answer was decided.

    This is a distinct third outcome, never to be conflated with a negative
    answer.  ``partial`` carries whatever was computed when available (for
    class enumeration and the point queries, an EquivClass with
    ``truncated=True``).  An error raised by the rewriting engine also has
    ``raw_partial``, the same words still encoded as the engine keeps them;
    ``bench/tracing.py`` and the tests read it until it is retired (ROADMAP
    item 2b).
    """

    def __init__(self, message: str = "enumeration cap exceeded", partial=None):
        super().__init__(message)
        self.partial = partial


class NotFundamentalError(MonoidError):
    """Raised in strict mode when a word fails the fundamental-element check."""

    def __init__(self, message: str, atom: str | None = None):
        self.atom = atom
        super().__init__(message)


class InjectivityNotEstablishedError(MonoidError):
    """Group word comparison refused: the monoid is not known to embed.

    A negative verdict of the lift-and-compare procedure is only meaningful
    when the monoid injects into its group, which holds for cancellative
    monoids with a fundamental element.
    """
