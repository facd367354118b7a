"""Core syntax: string terms, length terms, regular expressions, formulas.

Words are plain Python strings; every character is one letter of the
problem alphabet.  All node types are immutable and hashable, and the
smart constructors below keep terms in a canonical shape (flattened
concatenations, merged adjacent literals, no empty pieces) so that
structural equality is meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Union

# ---------------------------------------------------------------------------
# string terms


@dataclass(frozen=True)
class Lit:
    """A constant word."""

    word: str


@dataclass(frozen=True)
class Var:
    """A string variable."""

    name: str


@dataclass(frozen=True)
class Concat:
    """Concatenation of two or more string terms."""

    parts: tuple["StrTerm", ...]

    def __post_init__(self) -> None:
        if len(self.parts) < 2:
            raise ValueError("Concat needs at least two parts")


StrTerm = Union[Lit, Var, Concat]


def concat(*parts: StrTerm) -> StrTerm:
    """Concatenation with flattening, literal merging and unit removal."""
    flat: list[StrTerm] = []
    for p in parts:
        if isinstance(p, Concat):
            flat.extend(p.parts)
        else:
            flat.append(p)
    merged: list[StrTerm] = []
    for p in flat:
        if isinstance(p, Lit):
            if p.word == "":
                continue
            if merged and isinstance(merged[-1], Lit):
                merged[-1] = Lit(merged[-1].word + p.word)
                continue
        merged.append(p)
    if not merged:
        return Lit("")
    if len(merged) == 1:
        return merged[0]
    return Concat(tuple(merged))


# ---------------------------------------------------------------------------
# length terms


@dataclass(frozen=True)
class IntConst:
    value: int


@dataclass(frozen=True)
class IntVar:
    name: str


@dataclass(frozen=True)
class Len:
    """Length of a string term."""

    term: StrTerm


@dataclass(frozen=True)
class Sum:
    """Linear combination: sum of coefficient-scaled length terms.

    Items never nest another Sum and never carry coefficient zero.
    """

    items: tuple[tuple[int, "LenTerm"], ...]


LenTerm = Union[IntConst, IntVar, Len, Sum]


def sum_of(*items: tuple[int, LenTerm]) -> LenTerm:
    """Build a Sum: flatten nested sums, merge repeated terms, drop zeros."""
    merged: dict[LenTerm, int] = {}

    def put(coeff: int, term: LenTerm) -> None:
        if isinstance(term, Sum):
            for c, t in term.items:
                put(coeff * c, t)
        else:
            merged[term] = merged.get(term, 0) + coeff

    for coeff, term in items:
        put(coeff, term)
    flat = [(c, t) for t, c in merged.items() if c != 0]
    if not flat:
        return IntConst(0)
    if len(flat) == 1 and flat[0][0] == 1:
        return flat[0][1]
    return Sum(tuple(flat))


def scale(term: LenTerm, factor: int) -> LenTerm:
    """factor * term as a canonical length term."""
    return sum_of((factor, term))


# ---------------------------------------------------------------------------
# regular expressions (constant languages only: no variables inside)


@dataclass(frozen=True)
class ReLit:
    """The singleton language of one nonempty constant word."""

    word: str

    def __post_init__(self) -> None:
        if self.word == "":
            raise ValueError("use ReEpsilon for the empty word")


@dataclass(frozen=True)
class ReEpsilon:
    """The language containing only the empty word."""


@dataclass(frozen=True)
class ReConcat:
    parts: tuple["Regex", ...]

    def __post_init__(self) -> None:
        if len(self.parts) < 2:
            raise ValueError("ReConcat needs at least two parts")


@dataclass(frozen=True)
class ReUnion:
    parts: tuple["Regex", ...]

    def __post_init__(self) -> None:
        if len(self.parts) < 2:
            raise ValueError("ReUnion needs at least two parts")


@dataclass(frozen=True)
class ReStar:
    inner: "Regex"


Regex = Union[ReLit, ReEpsilon, ReConcat, ReUnion, ReStar]


def re_lit(word: str) -> Regex:
    return ReEpsilon() if word == "" else ReLit(word)


def re_seq(*parts: Regex) -> Regex:
    """Regex concatenation with flattening, epsilon removal, literal merging."""
    flat: list[Regex] = []
    for p in parts:
        if isinstance(p, ReConcat):
            flat.extend(p.parts)
        elif isinstance(p, ReEpsilon):
            continue
        else:
            flat.append(p)
    merged: list[Regex] = []
    for p in flat:
        if isinstance(p, ReLit) and merged and isinstance(merged[-1], ReLit):
            merged[-1] = ReLit(merged[-1].word + p.word)
        else:
            merged.append(p)
    if not merged:
        return ReEpsilon()
    if len(merged) == 1:
        return merged[0]
    return ReConcat(tuple(merged))


def re_alt(*parts: Regex) -> Regex:
    """Regex union with flattening and duplicate removal (order kept)."""
    flat: list[Regex] = []
    for p in parts:
        if isinstance(p, ReUnion):
            flat.extend(p.parts)
        else:
            flat.append(p)
    seen: list[Regex] = []
    for p in flat:
        if p not in seen:
            seen.append(p)
    if not seen:
        raise ValueError("union needs at least one branch")
    if len(seen) == 1:
        return seen[0]
    return ReUnion(tuple(seen))


def re_star(inner: Regex) -> Regex:
    if isinstance(inner, (ReStar, ReEpsilon)):
        return inner if isinstance(inner, ReStar) else ReEpsilon()
    return ReStar(inner)


# ---------------------------------------------------------------------------
# atoms and formulas


@dataclass(frozen=True)
class WordEq:
    lhs: StrTerm
    rhs: StrTerm


@dataclass(frozen=True)
class LenLeq:
    """term <= bound over the integers."""

    term: LenTerm
    bound: int


@dataclass(frozen=True)
class InRe:
    term: StrTerm
    regex: Regex


Atom = Union[WordEq, LenLeq, InRe]


@dataclass(frozen=True)
class And:
    parts: tuple["Formula", ...]

    def __post_init__(self) -> None:
        if len(self.parts) < 2:
            raise ValueError("And needs at least two parts")


@dataclass(frozen=True)
class Or:
    parts: tuple["Formula", ...]

    def __post_init__(self) -> None:
        if len(self.parts) < 2:
            raise ValueError("Or needs at least two parts")


@dataclass(frozen=True)
class Not:
    inner: "Formula"


Formula = Union[Atom, And, Or, Not]


def conj(*parts: Formula) -> Formula:
    flat: list[Formula] = []
    for p in parts:
        if isinstance(p, And):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        raise ValueError("conj needs at least one part")
    return flat[0] if len(flat) == 1 else And(tuple(flat))


def disj(*parts: Formula) -> Formula:
    flat: list[Formula] = []
    for p in parts:
        if isinstance(p, Or):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        raise ValueError("disj needs at least one part")
    return flat[0] if len(flat) == 1 else Or(tuple(flat))


# ---------------------------------------------------------------------------
# walking a tree

# the nodes each kind of node holds; variables, constants and regex
# words hold none
_CHILDREN: dict[type, Callable[[Any], Iterable[object]]] = {
    **dict.fromkeys((And, Or, Concat, ReConcat, ReUnion), lambda n: n.parts),
    **dict.fromkeys((Not, ReStar), lambda n: (n.inner,)),
    **dict.fromkeys((LenLeq, Len), lambda n: (n.term,)),
    WordEq: lambda n: (n.lhs, n.rhs),
    InRe: lambda n: (n.term, n.regex),
    Sum: lambda n: [term for _, term in n.items],
}


def nodes(root: object) -> Iterator[object]:
    """Every node of a formula, term or regex, the root included.  Uses
    an explicit stack, so it is safe at any depth."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        children = _CHILDREN.get(type(node))
        if children is not None:
            stack.extend(children(node))


def scan(root: object, limit: int) -> tuple[set[str], set[str], set[str]] | None:
    """(string variables, integer variables, letters) of a formula, term
    or regex, or None when some path from the root passes more than
    ``limit`` nodes that hold other nodes (connectives, atoms, terms,
    regexes), as the parser counts parentheses.  One walk on an explicit
    stack, so it is safe on any input; normalization, negation
    elimination and evaluation recurse and run only after this check."""
    svars: set[str] = set()
    ivars: set[str] = set()
    letters: set[str] = set()
    stack = [(root, 0)]  # a node and the number of holders above it
    while stack:
        node, depth = stack.pop()
        children = _CHILDREN.get(type(node))
        if children is not None:
            if depth == limit:
                return None
            stack.extend((kid, depth + 1) for kid in children(node))
        elif isinstance(node, Var):
            svars.add(node.name)
        elif isinstance(node, IntVar):
            ivars.add(node.name)
        elif isinstance(node, (Lit, ReLit)):
            letters.update(node.word)
    return svars, ivars, letters


def str_term_vars(t: StrTerm) -> set[str]:
    return {n.name for n in nodes(t) if isinstance(n, Var)}


def free_vars(phi: Formula) -> tuple[set[str], set[str]]:
    """(string variables, integer variables) occurring in the formula."""
    svars: set[str] = set()
    ivars: set[str] = set()
    for n in nodes(phi):
        if isinstance(n, Var):
            svars.add(n.name)
        elif isinstance(n, IntVar):
            ivars.add(n.name)
    return svars, ivars


def regex_letters(r: Regex) -> set[str]:
    """All letters mentioned by the expression."""
    return {a for n in nodes(r) if isinstance(n, ReLit) for a in n.word}


class NameGen:
    """Fresh-name source that never collides with a set of taken names."""

    def __init__(self, taken: Iterable[str] = ()) -> None:
        self._taken = set(taken)
        self._counters: dict[str, int] = {}

    def fresh(self, prefix: str) -> str:
        n = self._counters.get(prefix, 0)
        while f"{prefix}{n}" in self._taken:
            n += 1
        self._counters[prefix] = n + 1
        name = f"{prefix}{n}"
        self._taken.add(name)
        return name

    def reserve(self, names: Iterable[str]) -> None:
        self._taken.update(names)
