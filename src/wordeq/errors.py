"""Exception types shared across modules."""


class WordeqError(Exception):
    """Base class for all errors raised by this package."""


class UnmappedVariable(WordeqError):
    """An evaluation needed a variable the assignment does not cover."""


class LetterOutsideAlphabet(WordeqError):
    """A literal uses a letter not in the declared alphabet."""


class UnfixedPartPresent(WordeqError):
    """A parametric word with unfixed parts reached an operation
    that is only defined for fully fixed words."""


class ResourceExhausted(WordeqError):
    """A search or expansion ran out of one of its limits."""


class CoefficientOverflow(WordeqError):
    """A linear-arithmetic coefficient fell outside the 64-bit range."""


class NondeterministicDelta(WordeqError):
    """Two rules of a two-counter machine share the same (state, letter,
    zero-tests) key."""
