"""Linear length abstractions of solved forms and length atoms.

Everything here produces ``Row`` constraints over ``LinVar`` unknowns.
An unknown is the tuple ``(kind, name)``, so it hashes and compares as a
tuple, in C; ``lia`` numbers its columns in that tuple order.  The kinds:

* ``len``   the length of a problem string variable
* ``param`` a power parameter from a solved form
* ``part``  the length of an unfixed part
* ``ap``    an auxiliary multiplier introduced for arithmetic progressions
* ``int``   a problem integer variable (the only kind ranging over all
  of Z; every other kind is implicitly nonnegative)
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable

from .automata import Prog
from .paramwords import Blocks, Const, Power
from .solved_form import SolvedForm
from .terms import (
    Concat,
    IntConst,
    IntVar,
    Len,
    LenLeq,
    LenTerm,
    Lit,
    NameGen,
    StrTerm,
    Sum,
    Var,
    record,
    setfield,
)


class LinVar(tuple[str, str]):
    """An unknown, the tuple ``(kind, name)``; the kind is checked."""

    __slots__ = ()
    kind = property(itemgetter(0))
    name = property(itemgetter(1))

    def __new__(cls, kind: str, name: str) -> LinVar:
        if kind not in ("len", "param", "part", "ap", "int"):
            raise ValueError(f"not a variable kind: {kind!r}")
        return tuple.__new__(cls, (kind, name))

    def __getnewargs__(self) -> tuple[str, str]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"LinVar(kind={self.kind!r}, name={self.name!r})"


@record
class Row:
    """coeffs . x  (=|<=)  bound; unhashable, as ``coeffs`` is a dict"""

    __hash__ = None

    def __init__(self, coeffs: dict[LinVar, int], relation: str, bound: int) -> None:
        if relation not in ("eq", "le"):
            raise ValueError(f"not a row relation: {relation!r}")
        setfield(self, "coeffs", coeffs)
        setfield(self, "relation", relation)
        setfield(self, "bound", bound)


def len_var(name: str) -> LinVar:
    return LinVar("len", name)


def param_var(name: str) -> LinVar:
    return LinVar("param", name)


def part_var(name: str) -> LinVar:
    return LinVar("part", name)


def int_var(name: str) -> LinVar:
    return LinVar("int", name)


def _add(coeffs: dict[LinVar, int], var: LinVar, c: int) -> None:
    total = coeffs.get(var, 0) + c
    if total:
        coeffs[var] = total
    else:
        coeffs.pop(var, None)


def paramword_length(w: Blocks) -> tuple[dict[LinVar, int], int]:
    """Length of a parametric word as (linear part, constant part)."""
    coeffs: dict[LinVar, int] = {}
    const = 0
    for b in w:
        if isinstance(b, Const):
            const += len(b.word)
        elif isinstance(b, Power):
            _add(coeffs, param_var(b.param), len(b.base))
        else:
            _add(coeffs, part_var(b.part), 1)
    return coeffs, const


def term_length(t: StrTerm) -> tuple[dict[LinVar, int], int]:
    """Length of a string term over ``len`` variables."""
    coeffs: dict[LinVar, int] = {}
    const = 0

    def walk(term: StrTerm, scale: int) -> None:
        nonlocal const
        if isinstance(term, Lit):
            const += scale * len(term.word)
        elif isinstance(term, Var):
            _add(coeffs, len_var(term.name), scale)
        else:
            assert isinstance(term, Concat)
            for p in term.parts:
                walk(p, scale)

    walk(t, 1)
    return coeffs, const


def implied_length_constraints(sf: SolvedForm) -> list[Row]:
    """One equality per binding: the variable's length equals the length
    of its parametric word."""
    rows: list[Row] = []
    for name, w in sf.bindings:
        coeffs, const = paramword_length(w)
        neg = {v: -c for v, c in coeffs.items()}
        _add(neg, len_var(name), 1)
        rows.append(Row(neg, "eq", const))
    return rows


def translate_len_atom(atom: LenLeq) -> Row:
    """A length atom as a single <= row."""
    coeffs: dict[LinVar, int] = {}
    const = 0

    def walk(t: LenTerm, scale: int) -> None:
        nonlocal const
        if isinstance(t, IntConst):
            const += scale * t.value
        elif isinstance(t, IntVar):
            _add(coeffs, int_var(t.name), scale)
        elif isinstance(t, Len):
            sub, c = term_length(t.term)
            for v, k in sub.items():
                _add(coeffs, v, scale * k)
            const += scale * c
        else:
            assert isinstance(t, Sum)
            for c, item in t.items:
                walk(item, scale * c)

    walk(atom.term, 1)
    return Row(coeffs, "le", atom.bound - const)


def upset_rows(
    coeffs: dict[LinVar, int], const: int, progs: Iterable[Prog], gen: NameGen
) -> list[list[Row]]:
    """Rows forcing a linear expression into a union of progressions.

    Returns a disjunction: one row group per progression, in order.  A
    progression with period p uses a fresh nonnegative multiplier k and
    states expr = offset + p * k.
    """
    out: list[list[Row]] = []
    for o, p in progs:
        row = dict(coeffs)
        if p > 0:
            k = LinVar("ap", gen.fresh("k"))
            _add(row, k, -p)
        out.append([Row(row, "eq", o - const)])
    return out
