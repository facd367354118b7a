"""Boolean normalization: the one And/Or walk, and removal of negations.

``dnf_tree`` turns a formula into an And/Or tree over its literals, in
negation normal form.  ``walk`` folds the leaves of each conjunction of
its disjunctive normal form, depth first, and cuts every prefix its
caller refutes; ``to_dnf`` and ``walk_product`` are such walks.  Nothing
here bounds that form's size: the tree is as large as the formula, and a
walk's caller bounds the steps it takes (``check_sat`` and
``propagate.conjuncts`` draw one unit of their work budget per step).
``to_dnf`` builds the whole form, unbounded, for the tests.

Negated atoms are rewritten into positive ones:

* a negated length bound flips into a bound on the negated term;
* a negated regex membership becomes membership in the complement
  language over the problem alphabet;
* a negated word equation splits into "lengths differ" plus, for every
  ordered pair of distinct letters, "common prefix then a mismatch".

``eliminate_negations`` gives one literal's positive alternatives.  The
solver makes them an Or in the formula's tree, so one walk covers both
the formula's disjunctions and the negations' alternatives.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Sequence, TypeVar

from .automata import dfa_complement, dfa_to_regex, regex_to_dfa
from .terms import (
    And,
    Formula,
    InRe,
    Len,
    LenLeq,
    Lit,
    NameGen,
    Not,
    Or,
    Var,
    WordEq,
    concat,
    record,
    scale,
    setfield,
    sum_of,
)

Atom = WordEq | LenLeq | InRe
Leaf = TypeVar("Leaf")
Prefix = TypeVar("Prefix")
# An And/Or tree: ("leaf", leaf), ("and", parts) or ("or", parts).
Tree = tuple[str, Any]


@record
class Literal:
    def __init__(self, atom: Atom, positive: bool) -> None:
        setfield(self, "atom", atom)
        setfield(self, "positive", positive)

    def __hash__(self) -> int:
        return hash((self.atom, self.positive))


def dnf_tree(phi: Formula, leaf: Callable[[Atom, bool], Tree]) -> Tree:
    """``phi`` in negation normal form, as an And/Or tree whose literals
    are ``leaf(atom, positive)``, made once per atom object and sign.
    Raises TypeError on a non-atom.  The tree's size is linear in the
    formula's, however large its disjunctive normal form: a walk over it
    is bounded by its caller."""
    return _dnf_tree(phi, True, leaf, {})


def _dnf_tree(
    phi: Formula, positive: bool, leaf: Callable[[Atom, bool], Tree], leaves: dict
) -> Tree:
    """The tree of ``phi``, negated when not ``positive``."""
    if isinstance(phi, (WordEq, LenLeq, InRe)):
        key = (id(phi), positive)
        made = leaves.get(key)
        if made is None:
            made = leaves[key] = leaf(phi, positive)
        return made
    if isinstance(phi, Not):
        return _dnf_tree(phi.inner, not positive, leaf, leaves)
    if not isinstance(phi, (And, Or)):
        raise TypeError(f"not an atom: {phi!r}")
    parts = [_dnf_tree(part, positive, leaf, leaves) for part in phi.parts]
    return ("and" if isinstance(phi, And) == positive else "or", parts)


def walk(
    tree: Tree, extend: Callable[[Prefix, Leaf], Prefix | None], start: Prefix
) -> Iterator[Prefix]:
    """The conjunctions of the tree's disjunctive normal form, depth first
    in ``to_dnf``'s order, each folded by ``extend`` over its leaves from
    ``start``.

    ``extend(prefix, leaf)`` is the prefix with one more leaf, or None to
    prune it: no leaf below a pruned prefix is folded.  An Or with no
    parts has no conjunction, and an And with no parts the empty one.  The
    walk does not recurse, so any depth is safe.
    """
    # Each entry is an Or met on the way (the root is an Or of one part):
    # the prefix before it, its parts not tried yet and its agenda, the
    # trees still to conjoin after it, as a linked list (tree, rest) that
    # ends in None.
    stack: list[tuple[Prefix, Iterator[Tree], tuple | None]] = [(start, iter((tree,)), None)]
    while stack:
        depth = len(stack)
        before, parts, after = stack[-1]
        for tree in parts:
            prefix, agenda = before, after
            while True:
                kind, item = tree
                if kind == "leaf":
                    prefix = extend(prefix, item)
                    if prefix is None:
                        break
                elif kind == "and":
                    for part in reversed(item):
                        agenda = (part, agenda)
                else:
                    stack.append((prefix, iter(item), agenda))
                    break
                if agenda is None:
                    yield prefix
                    break
                tree, agenda = agenda
            if len(stack) > depth:  # go on from the Or just met
                break
        else:
            stack.pop()


def to_dnf(phi: Formula) -> list[list[Literal]]:
    """Disjunction of conjunctions of literals, equivalent to ``phi``;
    its size is not bounded."""
    tree = dnf_tree(phi, lambda atom, positive: ("leaf", Literal(atom, positive)))
    return list(walk(tree, lambda conjunct, literal: conjunct + [literal], []))


def _negate_word_eq(atom: WordEq, alphabet: str, gen: NameGen) -> list[list[Atom]]:
    s, t = atom.lhs, atom.rhs
    shorter = LenLeq(sum_of((1, Len(s)), (-1, Len(t))), -1)
    longer = LenLeq(sum_of((1, Len(t)), (-1, Len(s))), -1)
    out: list[list[Atom]] = [[shorter], [longer]]
    prefix = Var(gen.fresh("P"))
    left_tail = Var(gen.fresh("U"))
    right_tail = Var(gen.fresh("V"))
    for a in alphabet:
        for b in alphabet:
            if a == b:
                continue
            out.append(
                [
                    WordEq(s, concat(prefix, Lit(a), left_tail)),
                    WordEq(t, concat(prefix, Lit(b), right_tail)),
                ]
            )
    return out


def eliminate_negations(
    atom: Atom, positive: bool, alphabet: str, gen: NameGen
) -> list[list[Atom]]:
    """One literal's positive alternatives: the literal holds (over words
    in the given alphabet) iff one of these conjunctions does, for some
    value of its fresh variables.  A positive literal is its own one
    alternative, and a negated membership of the total language has
    none."""
    if positive:
        return [[atom]]
    if isinstance(atom, LenLeq):
        # not (t <= c)  <=>  t >= c + 1  <=>  -t <= -c - 1
        return [[LenLeq(scale(atom.term, -1), -atom.bound - 1)]]
    if isinstance(atom, InRe):
        r = dfa_to_regex(dfa_complement(regex_to_dfa(atom.regex, alphabet)))
        return [] if r is None else [[InRe(atom.term, r)]]
    if isinstance(atom, WordEq):
        return _negate_word_eq(atom, alphabet, gen)
    raise TypeError(f"not an atom: {atom!r}")


def walk_product(
    factors: Sequence[Sequence[Leaf]],
    extend: Callable[[Prefix, Leaf], Prefix | None],
    start: Prefix,
) -> Iterator[Prefix]:
    """``walk`` over the product of the factors: one prefix per choice of a
    member of every factor, in the product's order."""
    tree = ("and", [("or", [("leaf", choice) for choice in f]) for f in factors])
    return walk(tree, extend, start)
