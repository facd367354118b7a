"""The satisfiability pipeline for word equations with length and
regular-expression constraints.

The formula is one And/Or tree in negation normal form, each negated
literal an Or of its positive alternatives, and ``normalize.walk`` walks
its conjunctions depth first, as it walks the product of membership
boxes.  A prefix of choices and a whole conjunction are decided the same
way, and a refuted prefix cuts every conjunction below it, across the
formula's disjunctions and the negations' alternatives alike.  The word
equations of such a conjunction are rewritten into solved forms: the
forced conjuncts' once, before the walk, and then a prefix keeps what its
rewriting gave, complete or blocked.  A choice below a complete prefix
rewrites only the equations it adds, under all of its forms in one call,
as DPLL(T) pushes a literal onto the state its parent left (Nieuwenhuis,
Oliveras & Tinelli, *JACM* 2006); a choice that adds none keeps its
parent's result, and any other rewrites the whole conjunction.  Under a
solved form each variable's length is a linear form over the form's
parameters and part lengths, so each length atom is read through it as
one row, and the membership atoms become a disjunction of row groups
that constrain the power parameters of each constrained term through
exact automaton walks.  The length rows are shared by every group, so
each solved form is one call to the linear solver: it decides the shared
rows once, exactly whatever the size of their coefficients, and pulls
the groups one at a time, and each group is built only when it is
pulled.  A model of the rows is turned back into concrete words and
re-checked against the original formula before being reported.
Every layer draws from one work ``Budget`` per call, and running out
makes the whole call Unsupported, naming the layer that ran out.
"""

from __future__ import annotations

from itertools import count
from typing import Iterator

from . import parser
from .automata import Prog, param_membership, prog_intersect, regex_to_dfa
from .errors import Budget, LetterOutsideAlphabet, ResourceExhausted, UnfixedPartPresent
from .lengths import (
    LinVar,
    Row,
    int_var,
    param_var,
    part_var,
    translate_len_atom,
    upset_rows,
)
from .lengths import implied_length_constraints  # noqa: F401  perfbench/spans.py wraps it by name
from .lia import lia_sat
from .normalize import Atom, Tree, dnf_tree, eliminate_negations, walk, walk_product
from .normalize import to_dnf  # noqa: F401  perfbench/spans.py wraps solver.to_dnf by name
from .paramwords import has_unfixed, instantiate, params_of, parts_of, substitute
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
    record,
    scan,
    setfield,
)


@record
class Sat:
    """Unhashable, as its maps are dicts."""

    __hash__ = None

    def __init__(self, strings: dict[str, str], ints: dict[str, int]) -> None:
        setfield(self, "strings", strings)
        setfield(self, "ints", ints)

    def assignment(self) -> Assignment:
        return Assignment(dict(self.strings), dict(self.ints))


@record
class Unsupported:
    def __init__(self, reason: str) -> None:
        setfield(self, "reason", reason)


Verdict = Sat | Unsat | Unsupported
# a conjunction's decision: a solved form with the integer model of its
# rows (the words are built only for the branch check_sat returns), or
# the Unsat or Unsupported verdict
_Decision = tuple[SolvedForm, dict[LinVar, int]] | Unsat | Unsupported
# an alternative after its own place in formula order, so sorting compares
# places only; a prefix: its alternatives, those taken since its solved
# forms were made, what that rewriting gave (the complete list of solved
# forms, or the OutOfFragment that blocked it), and its decision or None
_Alternative = tuple[int, list[Atom]]
_Solved = list[SolvedForm] | OutOfFragment
_Prefix = tuple[tuple[_Alternative, ...], tuple[_Alternative, ...], _Solved, _Decision | None]
_CHOSEN: Tree = ("leaf", None)  # decides the prefix: a choice was just made


class _UnfixedMembership(UnfixedPartPresent):
    """A membership atom over unfixed parts, which blocks its branch;
    any other UnfixedPartPresent is an internal error and propagates."""


def _regex_row_groups(
    atoms: list[InRe],
    sf: SolvedForm,
    alphabet: str,
    gen: NameGen,
    budget: Budget,
) -> Iterator[list[Row]]:
    """The membership atoms under a solved form as a disjunction of row
    groups over the power parameters each regex admits, none when some
    atom can never hold; each group draws one unit from ``budget`` before
    it is built.  A membership over unfixed parts raises
    _UnfixedMembership when the first group is pulled."""
    per_atom_boxes: list[list[dict[str, Prog]]] = []
    for atom in atoms:
        pw = apply_solved_form(sf, atom.term)
        if has_unfixed(pw):
            parts = ", ".join(parts_of(pw))
            raise _UnfixedMembership(f"membership constraint over unfixed parts ({parts})")
        boxes = param_membership(pw, regex_to_dfa(atom.regex, alphabet))
        if not boxes:
            return
        per_atom_boxes.append(boxes)
    # One box per atom, depth first in the order of their product: each
    # prefix is intersected once and a dead one is never extended.  A
    # merged box is one group, since it holds one progression per parameter.
    for merged in walk_product(per_atom_boxes, _merge_box, {}):
        budget.draw(1, "solver")
        yield [
            row
            for p, prog in sorted(merged.items())
            for rows in upset_rows({param_var(p): 1}, 0, [prog], gen)
            for row in rows
        ]


def _merge_box(prefix: dict[str, Prog], box: dict[str, Prog]) -> dict[str, Prog] | None:
    """The prefix's parameter progressions intersected with the box's, or
    None when some parameter is left with no value."""
    merged = dict(prefix)
    for param, prog in box.items():
        if param in merged:
            prog = prog_intersect(merged[param], prog)
            if prog is None:
                return None
        merged[param] = prog
    return merged


def _solved_forms(
    atoms: list[Atom],
    new: tuple[_Alternative, ...],
    parent: _Solved,
    svars: set[str],
    gen: NameGen,
    budget: Budget,
) -> list[SolvedForm] | Unsat | OutOfFragment:
    """The solved forms of the word equations among ``atoms``, given
    ``parent``, what rewriting all but the ``new`` alternatives' equations
    gave.  When those add no equation, that is the answer, complete or
    blocked.  When ``parent`` is complete, only they are rewritten, under
    all of its forms in one call; when it is blocked, or that rewrite is,
    all the equations are rewritten from scratch, unless they were all
    new: then the parent's one form binds each variable to itself, and
    the blocked rewrite already was the whole one."""
    eqs = [a for _, alt in sorted(new) for a in alt if isinstance(a, WordEq)]
    if not eqs:
        return parent
    every = [a for a in atoms if isinstance(a, WordEq)]
    if isinstance(parent, list):
        solved = to_solved_form(eqs, variables=svars, gen=gen, budget=budget, under=parent)
        if not isinstance(solved, OutOfFragment) or len(eqs) == len(every):
            return solved
    return to_solved_form(every, variables=svars, gen=gen, budget=budget)


def _decide(
    atoms: list[Atom],
    solved: list[SolvedForm] | Unsat | OutOfFragment,
    alphabet: str,
    gen: NameGen,
    budget: Budget,
) -> _Decision:
    """Decide a conjunction of positive atoms, given the solved forms of
    its word equations.

    Each solved form makes one ``lia_sat`` call: the length atoms read
    through it, as rows every group shares, with the membership row
    groups, which are built only as the integer solver pulls them, so a
    solved form whose length rows clash never builds one.  The decision
    is the first solved form whose rows have a model, with that model,
    Unsat when rewriting or the rows of every solved form refute the
    atoms, and otherwise Unsupported for the first reason that rewriting
    or a solved form was blocked; the solved forms that a partly blocked
    rewriting still found are decided too.  A membership over unfixed
    parts blocks only its solved form, while running out of ``budget``
    raises ResourceExhausted and ends the whole call.
    """
    lens = [a for a in atoms if isinstance(a, LenLeq)]
    res = [a for a in atoms if isinstance(a, InRe)]
    if isinstance(solved, Unsat):
        return solved
    blocked = None
    if isinstance(solved, OutOfFragment):
        blocked, solved = solved.reason, solved.forms
    for sf in solved:
        if not alphabet:  # every word over the empty alphabet is empty
            empty = {p: () for _, pw in sf.bindings for p in parts_of(pw)}
            sf = SolvedForm(tuple((v, substitute(pw, empty)) for v, pw in sf.bindings))
        try:
            model = lia_sat(
                [translate_len_atom(a, sf) for a in lens],
                _regex_row_groups(res, sf, alphabet, gen, budget),
                budget,
            )
        except _UnfixedMembership as exc:
            blocked = blocked or str(exc)
            continue
        if model is not None:
            return sf, model
    return Unsat() if blocked is None else Unsupported(blocked)


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
            part_words[part] = alphabet[:1] * lia_model.get(part_var(part), 0)
    mapping = sf.mapping
    strings = {v: instantiate(mapping[v], params, part_words) for v in sorted(svars)}
    ints = {n: lia_model.get(int_var(n), 0) for n in sorted(ivars)}
    return Sat(strings, ints)


def _choices(tree: Tree, forced: list | None) -> Tree:
    """The tree with ``_CHOSEN`` after every Or with two or more parts.
    The leaves reached from the root through And nodes alone are moved to
    ``forced``, which is None below an Or."""
    kind, item = tree
    if kind == "leaf":
        if forced is None:
            return tree
        forced.append(item)
        return ("and", [])
    parts = [_choices(part, None if kind == "or" else forced) for part in item]
    if kind == "or" and len(parts) > 1:
        return ("and", [(kind, parts), _CHOSEN])
    return (kind, parts)


def check_sat(phi: Formula, alphabet: str) -> Verdict:
    """Decide the formula over words in the given alphabet.

    Sound for both answers: a Sat verdict carries a model that was
    re-checked by evaluation, an Unsat verdict means every conjunction was
    refuted.  Inputs outside the supported fragment, or beyond the work
    budget, come back Unsupported instead of a guess.

    Every prefix starts with the top-level conjuncts that have one
    alternative.  ``_decide`` decides a prefix, its atoms in formula
    order, when a choice is made (a formula disjunct or a negated
    literal's alternative), and a conjunction that no choice decided whole
    at its end.  A refuted prefix cuts every conjunction below it.

    The forced conjuncts' equations are rewritten once, before the walk,
    and Unsat there ends the call.  Each prefix then keeps what its
    rewriting gave, the complete list of its solved forms or the
    OutOfFragment that blocked it.  A choice that adds no equation keeps
    its parent's result; one below a complete prefix rewrites only the
    equations its alternatives add, under all of the parent's forms in
    one call.  A prefix whose resumed rewrite is blocked, or whose
    parent's was, is rewritten whole, from scratch, unless none of its
    equations is its parent's, when the resume was the whole rewrite.

    A conjunction that leaves the fragment is blocked: the others still
    run, and the verdict is Unsupported only when none of them is Sat and
    some was blocked.  One ``Budget``, made here, is shared by the walk
    and every layer it calls; running out ends the whole call as
    Unsupported, whatever is left unwalked.  It is the only bound on the
    walk: the disjunctive normal form is never built, so its size is not
    limited, and each walk step draws one unit.  A formula nested deeper than
    the parser accepts is Unsupported before any recursive walk: ``scan``
    walks without recursion, while normalization and evaluation recurse.
    """
    scanned = scan(phi, parser.MAX_DEPTH)
    if scanned is None:
        return Unsupported(f"formula nested deeper than {parser.MAX_DEPTH}")
    svars, ivars, letters = scanned
    stray = letters - set(alphabet)
    if stray:
        raise LetterOutsideAlphabet(
            f"formula uses letters outside the alphabet: {sorted(stray)}"
        )
    gen = NameGen(svars | ivars)
    places = count()
    budget = Budget()

    def literal(atom: Atom, positive: bool) -> Tree:
        alts = eliminate_negations(atom, positive, alphabet, gen)
        leaves = [("leaf", (next(places), alt)) for alt in alts]
        return leaves[0] if len(leaves) == 1 else ("or", leaves)

    def extend(prefix: _Prefix, item: _Alternative | None) -> _Prefix | None:
        budget.draw(1, "normalize")
        taken, new, solved, decision = prefix
        if item is not None:
            return taken + (item,), new + (item,), solved, None
        if decision is None:
            atoms = [a for _, alt in sorted(taken) for a in alt]
            solved = _solved_forms(atoms, new, solved, svars, gen, budget)
            decision = _decide(atoms, solved, alphabet, gen, budget)
        return None if isinstance(decision, Unsat) else (taken, (), solved, decision)

    blocked: str | None = None
    try:
        forced: list[_Alternative] = []
        tree = _choices(dnf_tree(phi, literal), forced)
        eqs = [a for _, alt in sorted(forced) for a in alt if isinstance(a, WordEq)]
        solved = to_solved_form(eqs, variables=svars, gen=gen, budget=budget)
        if isinstance(solved, Unsat):
            return solved
        start = tuple(forced), (), solved, None
        for *_, decision in walk(("and", [tree, _CHOSEN]), extend, start):
            if isinstance(decision, tuple):
                verdict = _build_model(*decision, svars, ivars, alphabet)
                if not eval_formula(phi, verdict.assignment()):
                    raise AssertionError(f"the model {verdict} does not satisfy the formula")
                return verdict
            if isinstance(decision, Unsupported):
                blocked = blocked or decision.reason
    except ResourceExhausted as exc:
        return Unsupported(str(exc))
    return Unsat() if blocked is None else Unsupported(blocked)
