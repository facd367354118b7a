"""The satisfiability pipeline for word equations with length and
regular-expression constraints.

Negation elimination turns every disjunct of the input's disjunctive
normal form into one factor of positive alternatives per literal.  Their
product is walked depth first, and a prefix of choices whose word
equations and length atoms are already refuted cuts every branch below
it.  Each branch left is a conjunction of positive atoms: the word
equations are rewritten into solved forms, each solved form contributes
its implied length rows, length atoms translate to further rows, and the
membership atoms become a disjunction of row groups that constrain the
power parameters of each constrained term through exact automaton
walks.  Those rows are shared by every group, so each solved form is one
call to the linear solver: it decides the shared rows once and pulls the
groups one at a time, and each group is built only when it is pulled.  A
model of the rows is turned back into concrete words and re-checked
against the original formula before being reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Callable, Iterator

from . import parser
from .automata import (
    UPSet,
    param_membership,
    regex_to_dfa,
    upset_intersect,
    upset_is_empty,
)
from .errors import LetterOutsideAlphabet, ResourceExhausted, UnfixedPartPresent
from .lengths import (
    LinVar,
    Row,
    implied_length_constraints,
    int_var,
    param_var,
    part_var,
    translate_len_atom,
    upset_rows,
)
from .lia import lia_sat
from .normalize import Atom, eliminate_negations, to_dnf, walk_product
from .paramwords import has_unfixed, instantiate, params_of, parts_of
from .semantics import Assignment, eval_formula
from .solved_form import (
    OutOfFragment,
    SolvedForm,
    Unsat,
    apply_solved_form,
    to_solved_form,
)
from .terms import (
    Formula,
    InRe,
    LenLeq,
    NameGen,
    WordEq,
    formula_letters,
    free_vars,
    too_deep,
)


@dataclass(frozen=True)
class Sat:
    strings: dict[str, str]
    ints: dict[str, int]

    def assignment(self) -> Assignment:
        return Assignment(dict(self.strings), dict(self.ints))


@dataclass(frozen=True)
class Unsupported:
    reason: str


Verdict = Sat | Unsat | Unsupported

# The most row groups the integer solver may pull from the membership
# atoms under one solved form; ResourceExhausted is raised before one
# more is built.
MAX_MEMBERSHIP_GROUPS = 20_000


class _UnfixedMembership(UnfixedPartPresent):
    """A membership atom over unfixed parts, which blocks its branch;
    any other UnfixedPartPresent is an internal error and propagates."""


def _regex_row_groups(
    atoms: list[InRe],
    sf: SolvedForm,
    alphabet: str,
    gen: NameGen,
) -> Iterator[list[Row]]:
    """The membership atoms under a solved form as a disjunction of row
    groups over the power parameters each regex admits, none when some
    atom can never hold.  A membership over unfixed parts raises
    _UnfixedMembership when the first group is pulled."""
    per_atom_boxes: list[list[dict[str, UPSet]]] = []
    for atom in atoms:
        pw = apply_solved_form(sf, atom.term)
        if has_unfixed(pw):
            parts = ", ".join(parts_of(pw))
            raise _UnfixedMembership(f"membership constraint over unfixed parts ({parts})")
        boxes = param_membership(pw, regex_to_dfa(atom.regex, alphabet))
        if not boxes:
            return
        per_atom_boxes.append(boxes)
    built = 0
    # One box per atom, depth first in the order of their product: each
    # prefix is intersected once and a dead one is never extended.
    for merged in walk_product(per_atom_boxes, _merge_box, {}):
        per_param = [
            upset_rows({param_var(p): 1}, 0, s, gen) for p, s in sorted(merged.items())
        ]
        for combo in product(*per_param):
            built += 1
            if built > MAX_MEMBERSHIP_GROUPS:
                raise ResourceExhausted("too many membership branches")
            yield [row for group in combo for row in group]


def _merge_box(prefix: dict[str, UPSet], box: dict[str, UPSet]) -> dict[str, UPSet] | None:
    """The prefix's parameter sets intersected with the box's, or None
    when some parameter is left with no value."""
    merged = dict(prefix)
    for param, s in box.items():
        cur = merged.get(param)
        s2 = s if cur is None else upset_intersect(cur, s)
        if upset_is_empty(s2):
            return None
        merged[param] = s2
    return merged


def _shared_rows(sf: SolvedForm, lens: list[LenLeq], alphabet: str) -> list[Row]:
    """The rows every membership group of a solved form shares: its
    implied length rows, the length atoms and, over the empty alphabet,
    a zero length for every unfixed part."""
    rows = implied_length_constraints(sf)
    rows.extend(translate_len_atom(a) for a in lens)
    if not alphabet:  # every word over the empty alphabet is empty
        parts = {p for _, pw in sf.bindings for p in parts_of(pw)}
        rows.extend(Row({part_var(p): 1}, "eq", 0) for p in sorted(parts))
    return rows


def _unrefuted_branches(
    factors: list[list[list[Atom]]], refuted: Callable[[list[Atom]], bool]
) -> Iterator[list[Atom]]:
    """The product of the factors in its order, one alternative per factor
    concatenated in factor order, without the branches below a refuted
    prefix.

    The walk chooses among the factors that do not have exactly one
    alternative.  A prefix holds the forced atoms (those of every
    one-alternative factor) and the alternatives chosen so far; one that
    still has a choice to make is checked once, and no branch below it is
    built when ``refuted`` holds for it.
    """
    forced = [a for alts in factors if len(alts) == 1 for a in alts[0]]
    split = [alts for alts in factors if len(alts) != 1]

    def extend(
        prefix: tuple[list[Atom], list[list[Atom]]], alt: list[Atom]
    ) -> tuple[list[Atom], list[list[Atom]]] | None:
        atoms, chosen = prefix
        atoms = atoms + alt
        if len(chosen) + 1 < len(split) and refuted(atoms):
            return None
        return atoms, chosen + [alt]

    for _, chosen in walk_product(split, extend, (forced, [])):
        picks = iter(chosen)
        yield [a for alts in factors for a in (alts[0] if len(alts) == 1 else next(picks))]


def _prefix_refuted(atoms: list[Atom], svars: set[str], alphabet: str) -> bool:
    """Whether the word equations and length atoms among ``atoms`` have no
    model: rewriting refutes them, or the shared rows of each solved form
    do.  Leaving the fragment, running out of a limit or a model is not a
    refutation."""
    eqs = [a for a in atoms if isinstance(a, WordEq)]
    lens = [a for a in atoms if isinstance(a, LenLeq)]
    solved = to_solved_form(eqs, variables=svars)
    if isinstance(solved, OutOfFragment):
        return False
    try:
        return isinstance(solved, Unsat) or all(
            lia_sat(_shared_rows(sf, lens, alphabet)) is None for sf in solved
        )
    except ResourceExhausted:
        return False


def _build_model(
    sf: SolvedForm,
    lia_model: dict[LinVar, int],
    svars: set[str],
    ivars: set[str],
    alphabet: str,
) -> Sat:
    params: dict[str, int] = {}
    part_words: dict[str, str] = {}
    for _, pw in sf.bindings:
        for p in params_of(pw):
            params[p] = lia_model.get(param_var(p), 0)
        for part in parts_of(pw):
            # over the empty alphabet every part's length is pinned to 0
            part_words[part] = alphabet[:1] * lia_model.get(part_var(part), 0)
    mapping = sf.mapping()
    strings = {v: instantiate(mapping[v], params, part_words) for v in svars}
    ints = {n: lia_model.get(int_var(n), 0) for n in ivars}
    return Sat(strings, ints)


def check_sat(phi: Formula, alphabet: str) -> Verdict:
    """Decide the formula over words in the given alphabet.

    Sound for both answers: a Sat verdict carries a model that was
    re-checked by evaluation, an Unsat verdict means every branch was
    refuted.  Inputs outside the supported fragment (or beyond one of the
    limits) come back Unsupported instead of a guess.

    Each solved form makes one ``lia_sat`` call: its shared rows (the
    implied length rows and the length atoms) with the membership row
    groups, which are built only as the integer solver pulls them, so a
    solved form whose shared rows clash never builds one.

    The negation branches of a disjunct come from ``_unrefuted_branches``:
    a refuted prefix is a sub-conjunction of every branch below it, so
    those branches are refuted too and are skipped.

    A branch that leaves the fragment or runs out of a limit is blocked:
    the others still run, and the verdict is Unsupported only when none
    of them is Sat and some branch was blocked; the solved forms that a
    partly blocked rewriting still found are decided too.  A formula nested
    deeper than the parser accepts is Unsupported before any recursive walk:
    the letter and variable collectors walk without recursion, while
    normalization, negation elimination and evaluation recurse.
    """
    if too_deep(phi, parser.MAX_DEPTH):
        return Unsupported(f"formula nested deeper than {parser.MAX_DEPTH}")
    stray = formula_letters(phi) - set(alphabet)
    if stray:
        raise LetterOutsideAlphabet(
            f"formula uses letters outside the alphabet: {sorted(stray)}"
        )
    svars, ivars = free_vars(phi)
    gen = NameGen(svars | ivars)
    try:
        conjuncts = to_dnf(phi)
    except ResourceExhausted as exc:
        return Unsupported(str(exc))
    refuted = partial(_prefix_refuted, svars=svars, alphabet=alphabet)
    blocked: str | None = None
    for conjunct in conjuncts:
        try:
            factors = eliminate_negations(conjunct, alphabet, gen)
        except ResourceExhausted as exc:
            blocked = blocked or str(exc)
            continue
        for atoms in _unrefuted_branches(factors, refuted):
            eqs = [a for a in atoms if isinstance(a, WordEq)]
            lens = [a for a in atoms if isinstance(a, LenLeq)]
            res = [a for a in atoms if isinstance(a, InRe)]
            solved = to_solved_form(eqs, variables=svars, gen=gen)
            if isinstance(solved, Unsat):
                continue
            if isinstance(solved, OutOfFragment):
                blocked = blocked or solved.reason
                solved = solved.forms
            for sf in solved:
                rows = _shared_rows(sf, lens, alphabet)
                try:
                    model = lia_sat(rows, _regex_row_groups(res, sf, alphabet, gen))
                except (ResourceExhausted, _UnfixedMembership) as exc:
                    blocked = blocked or str(exc)
                    continue
                if model is not None:
                    verdict = _build_model(sf, model, svars, ivars, alphabet)
                    if not eval_formula(phi, verdict.assignment()):
                        raise AssertionError(
                            f"the model {verdict} does not satisfy the formula"
                        )
                    return verdict
    if blocked is not None:
        return Unsupported(blocked)
    return Unsat()
