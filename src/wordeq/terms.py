"""Core syntax: string terms, length terms, regular expressions, formulas.

Words are plain Python strings; every character is one letter of the
problem alphabet.  All node types are records (see ``record``):
immutable, equal when they are of one class and their fields are
equal, and hashed by those fields.  The smart constructors below keep
terms in a canonical shape (flattened concatenations, merged adjacent
literals, no empty pieces) so that structural equality is meaningful.

To add a node type, write a ``record`` class: an ``__init__`` that sets
each field once with ``setfield`` and raises ``ValueError`` on a
malformed value, and ``__hash__ = None`` in its body when a field holds
a dict or a list.  Add it to the ``Union`` it belongs to and, if it
holds other nodes, to ``_CHILDREN``, so that ``nodes`` and ``scan`` walk
into it.  The record contract test (``tests/test_records.py``) wants an
example of it.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, TypeVar, Union

# ---------------------------------------------------------------------------
# records

R = TypeVar("R", bound=type)

# A record's __init__ sets each field once through this, since the
# record's own __setattr__ raises.
setfield = object.__setattr__


def record(cls: R) -> R:
    """Make ``cls`` an immutable value type, generating no code.

    The class writes its own ``__init__``, whose parameters are its
    fields in order.  This adds ``__match_args__`` (the fields),
    ``__eq__`` (equal fields within one class; another class gives
    ``NotImplemented``), ``__hash__`` (the hash of what ``__eq__``
    compares: the field itself for one field, the tuple of the fields
    for more, ``()`` for none), ``__repr__`` (``Name(a=..., b=...)``),
    and a ``__setattr__`` and a ``__delattr__`` that raise
    ``AttributeError``.  A class whose body sets ``__hash__ = None`` (a
    field holds a dict or a list) stays unhashable.  There are no
    ``__slots__``: ``functools.cached_property`` needs the instance dict.
    """
    init = vars(cls).get("__init__")
    fields = init.__code__.co_varnames[1 : init.__code__.co_argcount] if init else ()
    key = attrgetter(*fields) if fields else _no_fields

    def __eq__(self: object, other: object) -> bool:
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self: object) -> int:
        return hash(key(self))

    cls.__match_args__ = fields
    cls.__eq__ = __eq__
    if "__hash__" not in vars(cls):
        cls.__hash__ = __hash__
    cls.__repr__ = _repr
    cls.__setattr__ = _setattr
    cls.__delattr__ = _delattr
    return cls


def _no_fields(_: object) -> tuple[()]:
    return ()


def _repr(self: Any) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{type(self).__qualname__}({fields})"


def _setattr(self: object, name: str, value: object) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self: object, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# string terms


@record
class Lit:
    """A constant word."""

    def __init__(self, word: str) -> None:
        setfield(self, "word", word)


@record
class Var:
    """A string variable."""

    def __init__(self, name: str) -> None:
        setfield(self, "name", name)


@record
class Concat:
    """Concatenation of two or more string terms."""

    def __init__(self, parts: tuple[StrTerm, ...]) -> None:
        if len(parts) < 2:
            raise ValueError("Concat needs at least two parts")
        setfield(self, "parts", parts)


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


@record
class IntConst:
    def __init__(self, value: int) -> None:
        setfield(self, "value", value)


@record
class IntVar:
    def __init__(self, name: str) -> None:
        setfield(self, "name", name)


@record
class Len:
    """Length of a string term."""

    def __init__(self, term: StrTerm) -> None:
        setfield(self, "term", term)


@record
class Sum:
    """Linear combination: sum of coefficient-scaled length terms.

    Items never nest another Sum and never carry coefficient zero.
    """

    def __init__(self, items: tuple[tuple[int, LenTerm], ...]) -> None:
        setfield(self, "items", items)


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


@record
class ReLit:
    """The singleton language of one nonempty constant word."""

    def __init__(self, word: str) -> None:
        if word == "":
            raise ValueError("use ReEpsilon for the empty word")
        setfield(self, "word", word)


@record
class ReEpsilon:
    """The language containing only the empty word."""


@record
class ReConcat:
    def __init__(self, parts: tuple[Regex, ...]) -> None:
        if len(parts) < 2:
            raise ValueError("ReConcat needs at least two parts")
        setfield(self, "parts", parts)


@record
class ReUnion:
    def __init__(self, parts: tuple[Regex, ...]) -> None:
        if len(parts) < 2:
            raise ValueError("ReUnion needs at least two parts")
        setfield(self, "parts", parts)


@record
class ReStar:
    def __init__(self, inner: Regex) -> None:
        setfield(self, "inner", inner)


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


@record
class WordEq:
    def __init__(self, lhs: StrTerm, rhs: StrTerm) -> None:
        setfield(self, "lhs", lhs)
        setfield(self, "rhs", rhs)


@record
class LenLeq:
    """term <= bound over the integers."""

    def __init__(self, term: LenTerm, bound: int) -> None:
        setfield(self, "term", term)
        setfield(self, "bound", bound)


@record
class InRe:
    def __init__(self, term: StrTerm, regex: Regex) -> None:
        setfield(self, "term", term)
        setfield(self, "regex", regex)


Atom = Union[WordEq, LenLeq, InRe]


@record
class And:
    def __init__(self, parts: tuple[Formula, ...]) -> None:
        if len(parts) < 2:
            raise ValueError("And needs at least two parts")
        setfield(self, "parts", parts)


@record
class Or:
    def __init__(self, parts: tuple[Formula, ...]) -> None:
        if len(parts) < 2:
            raise ValueError("Or needs at least two parts")
        setfield(self, "parts", parts)


@record
class Not:
    def __init__(self, inner: Formula) -> None:
        setfield(self, "inner", inner)


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
    regexes), as the parser counts parentheses.  One walk over the tree's
    levels, without recursion, so it is safe on any input; normalization,
    negation elimination and evaluation recurse and run only after this
    check."""
    svars: set[str] = set()
    ivars: set[str] = set()
    letters: set[str] = set()
    level = [root]  # the nodes with ``depth`` holders above them
    depth = 0
    while level:
        below: list[object] = []
        for node in level:
            children = _CHILDREN.get(type(node))
            if children is not None:
                if depth == limit:
                    return None
                below.extend(children(node))
            elif isinstance(node, Var):
                svars.add(node.name)
            elif isinstance(node, IntVar):
                ivars.add(node.name)
            elif isinstance(node, (Lit, ReLit)):
                letters.update(node.word)
        level = below
        depth += 1
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
