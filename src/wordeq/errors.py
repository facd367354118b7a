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


# The work units one ``check_sat`` call may spend over all of its layers:
# over 100 times the most that any benchmark input or test draws.
WORK_BUDGET = 200_000


class Budget:
    """The work units left to one call, which every layer it reaches
    draws from; running out ends the call."""

    __slots__ = ("left",)

    def __init__(self) -> None:
        self.left = WORK_BUDGET

    def draw(self, n: int, layer: str) -> None:
        """Spend n units, or raise ResourceExhausted naming the layer."""
        if n > self.left:
            raise ResourceExhausted(f"work budget exhausted in {layer}")
        self.left -= n


class CoefficientOverflow(WordeqError):
    """A linear-arithmetic coefficient fell outside the 64-bit range."""


class NondeterministicDelta(WordeqError):
    """Two rules of a two-counter machine share the same (state, letter,
    zero-tests) key."""
