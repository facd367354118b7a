"""Bounded brute-force satisfiability by exhaustive enumeration.

The reference implementation for differential tests: try every assignment
of words up to a length bound (shortest first, letters in the given order,
first variable most significant) and integers in [0, int_bound], returning
the first satisfying assignment.  The only shortcut is a three-valued
length check per length profile, which skips whole blocks of assignments
that cannot work for length reasons alone; it never changes which model is
found first.
"""

from __future__ import annotations

from itertools import product

from . import parser
from .automata import Prog, length_set, regex_to_dfa, upset_member
from .errors import ResourceExhausted
from .semantics import Assignment, eval_formula
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
    StrTerm,
    Sum,
    Var,
    WordEq,
    record,
    scan,
    setfield,
)


@record
class SatWith:
    """Unhashable, as the model is."""

    def __init__(self, model: Assignment) -> None:
        setfield(self, "model", model)


@record
class NoModelUpTo:
    def __init__(self, bound: int) -> None:
        setfield(self, "bound", bound)

    def __hash__(self) -> int:
        return hash((self.bound,))


BoundedVerdict = SatWith | NoModelUpTo


def _term_len_interval(
    t: LenTerm, lens: dict[str, int], int_bound: int
) -> tuple[int, int]:
    """Smallest and largest possible value given fixed string lengths."""
    if isinstance(t, IntConst):
        return t.value, t.value
    if isinstance(t, IntVar):
        return 0, int_bound
    if isinstance(t, Len):
        ln = _str_len(t.term, lens)
        return ln, ln
    if not isinstance(t, Sum):
        raise TypeError(f"not a length term: {t!r}")
    lo = hi = 0
    for coeff, item in t.items:
        ilo, ihi = _term_len_interval(item, lens, int_bound)
        if coeff >= 0:
            lo += coeff * ilo
            hi += coeff * ihi
        else:
            lo += coeff * ihi
            hi += coeff * ilo
    return lo, hi


def _str_len(t: StrTerm, lens: dict[str, int]) -> int:
    if isinstance(t, Lit):
        return len(t.word)
    if isinstance(t, Var):
        return lens[t.name]
    if not isinstance(t, Concat):
        raise TypeError(f"not a string term: {t!r}")
    return sum(_str_len(p, lens) for p in t.parts)


def _profile_value(
    phi: Formula,
    lens: dict[str, int],
    int_bound: int,
    re_lengths: dict[Regex, frozenset[Prog]],
    alphabet: str,
) -> bool | None:
    """Three-valued truth from lengths alone: False rules the profile out."""
    if isinstance(phi, WordEq):
        if _str_len(phi.lhs, lens) != _str_len(phi.rhs, lens):
            return False
        return None
    if isinstance(phi, LenLeq):
        lo, hi = _term_len_interval(phi.term, lens, int_bound)
        if hi <= phi.bound:
            return True
        if lo > phi.bound:
            return False
        return None
    if isinstance(phi, InRe):
        if phi.regex not in re_lengths:
            re_lengths[phi.regex] = length_set(regex_to_dfa(phi.regex, alphabet))
        if not upset_member(re_lengths[phi.regex], _str_len(phi.term, lens)):
            return False
        return None
    if isinstance(phi, Not):
        inner = _profile_value(phi.inner, lens, int_bound, re_lengths, alphabet)
        return None if inner is None else not inner
    if isinstance(phi, And):
        out: bool | None = True
        for p in phi.parts:
            v = _profile_value(p, lens, int_bound, re_lengths, alphabet)
            if v is False:
                return False
            if v is None:
                out = None
        return out
    if not isinstance(phi, Or):
        raise TypeError(f"not a formula: {phi!r}")
    out = False
    for p in phi.parts:
        v = _profile_value(p, lens, int_bound, re_lengths, alphabet)
        if v is True:
            return True
        if v is None:
            out = None
    return out


def brute_force_sat(
    phi: Formula,
    sigma: str,
    len_bound: int,
    int_bound: int = 8,
    node_budget: int = 5_000_000,
) -> BoundedVerdict:
    """First satisfying assignment with words over sigma up to len_bound.

    A formula nested deeper than the parser accepts raises
    ``ResourceExhausted`` before any recursive walk (see ``terms.scan``)."""
    if len(set(sigma)) != len(sigma):
        raise ValueError(f"alphabet letters must be distinct: {sigma!r}")
    scanned = scan(phi, parser.MAX_DEPTH)
    if scanned is None:
        raise ResourceExhausted(f"formula nested deeper than {parser.MAX_DEPTH}")
    svars, ivars, letters = scanned
    snames, inames = sorted(svars), sorted(ivars)
    # The length filter needs automata over every letter the formula mentions.
    filter_alphabet = "".join(sorted(set(sigma) | letters))
    re_lengths: dict[Regex, frozenset[Prog]] = {}

    words_by_len: dict[int, list[str]] = {}

    def words(ln: int) -> list[str]:
        if ln not in words_by_len:
            words_by_len[ln] = ["".join(t) for t in product(sigma, repeat=ln)]
        return words_by_len[ln]

    int_choices = list(range(int_bound + 1))
    budget = node_budget
    for profile in product(range(len_bound + 1), repeat=len(snames)):
        if budget <= 0:
            raise ResourceExhausted("oracle enumeration budget exceeded")
        budget -= 1
        lens = dict(zip(snames, profile))
        if _profile_value(phi, lens, int_bound, re_lengths, filter_alphabet) is False:
            continue
        for combo in product(*(words(ln) for ln in profile)):
            strings = dict(zip(snames, combo))
            for ints in product(int_choices, repeat=len(inames)):
                if budget <= 0:
                    raise ResourceExhausted("oracle enumeration budget exceeded")
                budget -= 1
                asg = Assignment(strings=strings, ints=dict(zip(inames, ints)))
                if eval_formula(phi, asg):
                    return SatWith(model=asg)
    return NoModelUpTo(len_bound)
