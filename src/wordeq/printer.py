"""Rendering terms, formulas and whole problems back to the surface syntax.

Printing a canonically constructed term and parsing the result gives back
a structurally equal term.
"""

from __future__ import annotations

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
    Regex,
    ReConcat,
    ReEpsilon,
    ReLit,
    ReStar,
    ReUnion,
    StrTerm,
    Sum,
    Var,
    WordEq,
)


def _quote(word: str) -> str:
    if '"' in word or "\n" in word:
        raise ValueError(f"a quote or a newline cannot be printed in a word: {word!r}")
    return f'"{word}"'


def print_str_term(t: StrTerm) -> str:
    if isinstance(t, Lit):
        return _quote(t.word)
    if isinstance(t, Var):
        return t.name
    assert isinstance(t, Concat)
    return "(str.++ " + " ".join(print_str_term(p) for p in t.parts) + ")"


def print_len_term(t: LenTerm) -> str:
    if isinstance(t, IntConst):
        return str(t.value)
    if isinstance(t, IntVar):
        return t.name
    if isinstance(t, Len):
        return f"(str.len {print_str_term(t.term)})"
    assert isinstance(t, Sum)

    def item(c: int, sub: LenTerm) -> str:
        return print_len_term(sub) if c == 1 else f"(* {c} {print_len_term(sub)})"

    if len(t.items) == 1:
        return item(*t.items[0])
    return "(+ " + " ".join(item(c, sub) for c, sub in t.items) + ")"


def print_regex(r: Regex) -> str:
    if isinstance(r, ReEpsilon):
        return "re.epsilon"
    if isinstance(r, ReLit):
        return f"(str.to.re {_quote(r.word)})"
    if isinstance(r, ReConcat):
        return "(re.++ " + " ".join(print_regex(p) for p in r.parts) + ")"
    if isinstance(r, ReUnion):
        return "(re.union " + " ".join(print_regex(p) for p in r.parts) + ")"
    assert isinstance(r, ReStar)
    return f"(re.* {print_regex(r.inner)})"


def print_formula(phi: Formula) -> str:
    if isinstance(phi, WordEq):
        return f"(= {print_str_term(phi.lhs)} {print_str_term(phi.rhs)})"
    if isinstance(phi, LenLeq):
        return f"(<= {print_len_term(phi.term)} {phi.bound})"
    if isinstance(phi, InRe):
        return f"(str.in.re {print_str_term(phi.term)} {print_regex(phi.regex)})"
    if isinstance(phi, And):
        return "(and " + " ".join(print_formula(p) for p in phi.parts) + ")"
    if isinstance(phi, Or):
        return "(or " + " ".join(print_formula(p) for p in phi.parts) + ")"
    assert isinstance(phi, Not)
    return f"(not {print_formula(phi.inner)})"


def print_problem(
    alphabet: str,
    str_vars: tuple[str, ...] | list[str],
    int_vars: tuple[str, ...] | list[str],
    asserts,
    check_sat: bool = True,
    get_model: bool = False,
) -> str:
    lines = [f"(set-alphabet {_quote(alphabet)})"]
    lines.extend(f"(declare-const {v} String)" for v in str_vars)
    lines.extend(f"(declare-const {v} Int)" for v in int_vars)
    lines.extend(f"(assert {print_formula(phi)})" for phi in asserts)
    if check_sat:
        lines.append("(check-sat)")
    if get_model:
        lines.append("(get-model)")
    return "\n".join(lines) + "\n"


def print_model(strings: dict[str, str], ints: dict[str, int]) -> str:
    lines = ["(model"]
    for name in sorted(strings):
        lines.append(f'  (define-fun {name} () String {_quote(strings[name])})')
    for name in sorted(ints):
        lines.append(f"  (define-fun {name} () Int {ints[name]})")
    lines.append(")")
    return "\n".join(lines)
