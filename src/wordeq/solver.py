"""The satisfiability pipeline for word equations with length and
regular-expression constraints.

One decision loop serves both entry points.  Negation elimination turns
every disjunct of the input's disjunctive normal form into one factor of
positive alternatives per literal.  Their product is walked depth first,
and a prefix of choices whose word equations and length atoms are already
refuted cuts every branch below it.  Each branch left is a conjunction of
positive atoms: the word equations are rewritten into solved forms, each
solved form contributes its implied length rows, length atoms translate
to further rows, and a membership encoder turns the membership atoms into
a disjunction of row groups.  Those rows are shared by every group, so
each solved form is one call to the linear solver: it decides the shared
rows once and pulls the groups one at a time, and the encoder builds each
group only when it is pulled.

The loop is parameterised by that encoder alone:

* ``_regex_row_groups`` (``check_sat``) constrains the power parameters
  of each constrained term through exact automaton walks.  A model of the
  rows is turned back into concrete words and re-checked against the
  original formula before being reported.
* ``_length_row_groups`` (``check_sat_length_abstraction``) keeps only
  the regex's length set.  This deliberately weakened arm can claim "sat"
  for unsatisfiable inputs — it exists to demonstrate why the exact
  parameter analysis is necessary — so it only reports a verdict string
  and never a model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Any, Callable, Iterable, Iterator

from . import parser
from .automata import (
    UPSet,
    length_set,
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
    paramword_length,
    part_var,
    translate_len_atom,
    upset_rows,
)
from .lia import lia_sat
from .normalize import Atom, eliminate_negations, to_dnf
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
    And,
    Concat,
    Formula,
    InRe,
    Len,
    LenLeq,
    NameGen,
    Not,
    Or,
    ReConcat,
    ReStar,
    ReUnion,
    Sum,
    WordEq,
    formula_letters,
    free_vars,
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
# atoms under one solved form; an encoder raises ResourceExhausted before
# building one more.
MAX_MEMBERSHIP_GROUPS = 20_000


class _UnfixedMembership(UnfixedPartPresent):
    """A membership atom over unfixed parts, which blocks its branch;
    any other UnfixedPartPresent is an internal error and propagates."""


# membership atoms under a solved form -> their row groups (a disjunction;
# none when some atom can never hold), built only as they are pulled
Encoder = Callable[[list[InRe], SolvedForm, str, NameGen], Iterator[list[Row]]]


def _regex_row_groups(
    atoms: list[InRe],
    sf: SolvedForm,
    alphabet: str,
    gen: NameGen,
) -> Iterator[list[Row]]:
    """Exact encoder: the power parameters each regex admits.  A
    membership over unfixed parts raises _UnfixedMembership when the
    first group is pulled."""
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
    # Depth first over one box per atom, in the order of their product:
    # prefixes[k] merges the boxes chosen for atoms 0..k-1 and picks[k] is
    # the next box of atom k to try, so each prefix is intersected once
    # and a dead one is never extended.
    prefixes: list[dict[str, UPSet]] = [{}]
    picks = [0]
    while prefixes:
        k = len(prefixes) - 1
        if k < len(per_atom_boxes):
            if picks[k] < len(per_atom_boxes[k]):
                merged = _merge_box(prefixes[k], per_atom_boxes[k][picks[k]])
                picks[k] += 1
                if merged is not None:
                    prefixes.append(merged)
                    picks.append(0)
                continue
        else:
            per_param = [
                upset_rows({param_var(p): 1}, 0, s, gen)
                for p, s in sorted(prefixes[k].items())
            ]
            for combo in product(*per_param):
                built += 1
                if built > MAX_MEMBERSHIP_GROUPS:
                    raise ResourceExhausted("too many membership branches")
                yield [row for group in combo for row in group]
        prefixes.pop()
        picks.pop()


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


def _length_row_groups(
    atoms: list[InRe],
    sf: SolvedForm,
    alphabet: str,
    gen: NameGen,
) -> Iterator[list[Row]]:
    """Length-only encoder: the term's length lies in the regex's length
    set.  Letter positions are forgotten, so this only over-approximates."""
    per_atom_alts: list[list[list[Row]]] = []
    for atom in atoms:
        coeffs, const = paramword_length(apply_solved_form(sf, atom.term))
        lengths = length_set(regex_to_dfa(atom.regex, alphabet))
        alts = upset_rows(coeffs, const, lengths, gen)
        if not alts:
            return
        per_atom_alts.append(alts)
    for built, combo in enumerate(product(*per_atom_alts), 1):
        if built > MAX_MEMBERSHIP_GROUPS:
            raise ResourceExhausted("too many membership branches")
        yield [row for alt in combo for row in alt]


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


def _too_deep(phi: Formula) -> bool:
    """Whether some path from the root passes more than ``parser.MAX_DEPTH``
    nodes that hold other nodes (connectives, atoms, terms, regexes), as
    the parser counts parentheses.  One level at a time, without
    recursion, so it is safe on any input; every other walk over formulas,
    terms and regexes recurses and runs only after this check."""
    level: list[object] = [phi]
    for _ in range(parser.MAX_DEPTH + 1):
        level = [node for node in level if type(node) in _CHILDREN]
        if not level:
            return False
        level = [kid for node in level for kid in _CHILDREN[type(node)](node)]
    return True


def _decide(
    phi: Formula,
    alphabet: str,
    encode: Encoder,
    accept: Callable[[SolvedForm, dict[LinVar, int], set[str], set[str], str], Sat],
) -> Verdict:
    """The decision loop.  ``accept`` turns a model of one solved form's
    rows (with the formula's string and integer variables and the
    alphabet) into a Sat verdict.

    Each solved form makes one ``lia_sat`` call: its shared rows (the
    implied length rows and the length atoms) with the encoder's row
    groups, which are built only as the integer solver pulls them, so a
    solved form whose shared rows clash never builds one.

    The negation branches of a disjunct come from ``_unrefuted_branches``:
    a refuted prefix is a sub-conjunction of every branch below it, so
    those branches are refuted too and are skipped.

    A branch that leaves the fragment or runs out of a limit is blocked:
    the others still run, and the verdict is Unsupported only when none
    of them is Sat and some branch was blocked; the solved forms that a
    partly blocked rewriting still found are decided too.  A formula nested
    deeper than the parser accepts is Unsupported before any recursive walk.
    """
    if _too_deep(phi):
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
                    model = lia_sat(rows, encode(res, sf, alphabet, gen))
                except (ResourceExhausted, _UnfixedMembership) as exc:
                    blocked = blocked or str(exc)
                    continue
                if model is not None:
                    return accept(sf, model, svars, ivars, alphabet)
    if blocked is not None:
        return Unsupported(blocked)
    return Unsat()


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

    Depth first over the factors with more than one alternative, the
    ones in ``split``: prefixes[d] holds the forced atoms (those of every
    one-alternative factor) and the alternatives chosen at split[:d], and
    picks[d] is one past the alternative of factor split[d] tried last.
    A prefix that still has a choice to make is checked once, and no
    branch below it is built when ``refuted`` holds for it.
    """
    if not all(factors):
        return
    forced = [a for alts in factors if len(alts) == 1 for a in alts[0]]
    split = [i for i, alts in enumerate(factors) if len(alts) > 1]
    prefixes = [forced]
    picks = [0]
    while prefixes:
        d = len(prefixes) - 1
        if d < len(split):
            alts = factors[split[d]]
            if picks[d] < len(alts):
                prefix = prefixes[d] + alts[picks[d]]
                picks[d] += 1
                if d + 1 == len(split) or not refuted(prefix):
                    prefixes.append(prefix)
                    picks.append(0)
                continue
        else:
            chosen = dict(zip(split, picks))
            yield [a for i, alts in enumerate(factors) for a in alts[chosen.get(i, 1) - 1]]
        prefixes.pop()
        picks.pop()


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
    """
    verdict = _decide(phi, alphabet, _regex_row_groups, _build_model)
    if isinstance(verdict, Sat) and not eval_formula(phi, verdict.assignment()):
        raise AssertionError(f"the model {verdict} does not satisfy the formula")
    return verdict


def check_sat_length_abstraction(phi: Formula, alphabet: str) -> str:
    """Weakened pipeline: membership atoms only constrain lengths.

    Returns "sat", "unsat" or "unsupported".  The "sat" answers are not
    trustworthy — the length set of a regex keeps no letter positions —
    and no model is produced.  This exists as the control arm showing
    what the exact parameter analysis adds.
    """
    verdict = _decide(phi, alphabet, _length_row_groups, lambda *_: Sat({}, {}))
    return {Sat: "sat", Unsat: "unsat", Unsupported: "unsupported"}[type(verdict)]
