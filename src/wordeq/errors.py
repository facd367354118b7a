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


# The work units one call may spend over all of its layers: one
# ``check_sat``, or one bounded validity check of a sentence.  The most
# measured: 2 039 by a ``check_sat`` call in the tests (the disjunction
# of eight ground choices), 50 by a benchmark solve op; 34 830 by a
# counterexample search over random sentences, 256 by a benchmark
# reduction op; 38 050 compile steps by the largest encodable machines
# (60 configuration letters, a rule for every key; 140 048 before the
# body walk conjoined an And's leaves before its Ors), which positivized
# need 1 823 410 and run out.
WORK_BUDGET = 200_000


class Budget:
    """The work units left to one call, which every layer it reaches
    draws from; running out ends the call.  ``size`` defaults to
    ``WORK_BUDGET`` as it is at the call."""

    __slots__ = ("left",)

    def __init__(self, size: int | None = None) -> None:
        self.left = WORK_BUDGET if size is None else size

    def draw(self, n: int, layer: str) -> None:
        """Spend n units, or raise ResourceExhausted naming the layer."""
        if n > self.left:
            raise ResourceExhausted(f"work budget exhausted in {layer}")
        self.left -= n


class NondeterministicDelta(WordeqError):
    """Two rules of a two-counter machine share the same (state, letter,
    zero-tests) key."""
