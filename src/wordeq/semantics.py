"""Ground semantics: evaluating terms and formulas under an assignment."""

from __future__ import annotations

from .automata import regex_match
from .errors import UnmappedVariable
from .terms import (
    And,
    Concat,
    Formula,
    InRe,
    IntConst,
    IntVar,
    Len,
    LenLeq,
    LenTerm,
    Lit,
    Not,
    Or,
    StrTerm,
    Sum,
    Var,
    WordEq,
    record,
    setfield,
)


@record
class Assignment:
    """Total map for the variables a formula mentions; unhashable, as its
    maps are dicts (a new empty one for each map not given)."""

    def __init__(
        self, strings: dict[str, str] | None = None, ints: dict[str, int] | None = None
    ) -> None:
        setfield(self, "strings", {} if strings is None else strings)
        setfield(self, "ints", {} if ints is None else ints)

    def string(self, name: str) -> str:
        try:
            return self.strings[name]
        except KeyError:
            raise UnmappedVariable(f"string variable {name!r} has no value") from None

    def int(self, name: str) -> int:
        try:
            return self.ints[name]
        except KeyError:
            raise UnmappedVariable(f"integer variable {name!r} has no value") from None


def eval_str(t: StrTerm, a: Assignment) -> str:
    if isinstance(t, Lit):
        return t.word
    if isinstance(t, Var):
        return a.string(t.name)
    assert isinstance(t, Concat)
    return "".join(eval_str(p, a) for p in t.parts)


def eval_len(t: LenTerm, a: Assignment) -> int:
    if isinstance(t, IntConst):
        return t.value
    if isinstance(t, IntVar):
        return a.int(t.name)
    if isinstance(t, Len):
        return len(eval_str(t.term, a))
    assert isinstance(t, Sum)
    return sum(c * eval_len(item, a) for c, item in t.items)


def eval_formula(phi: Formula, a: Assignment) -> bool:
    if isinstance(phi, WordEq):
        return eval_str(phi.lhs, a) == eval_str(phi.rhs, a)
    if isinstance(phi, LenLeq):
        return eval_len(phi.term, a) <= phi.bound
    if isinstance(phi, InRe):
        return regex_match(phi.regex, eval_str(phi.term, a))
    if isinstance(phi, And):
        return all(eval_formula(p, a) for p in phi.parts)
    if isinstance(phi, Or):
        return any(eval_formula(p, a) for p in phi.parts)
    assert isinstance(phi, Not)
    return not eval_formula(phi.inner, a)
