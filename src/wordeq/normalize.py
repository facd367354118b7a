"""Boolean normalization: the one And/Or walk, and removal of negations.

``dnf_tree`` turns a formula into an And/Or tree over its literals, in
negation normal form.  ``walk`` folds the leaves of each conjunction of
its disjunctive normal form, depth first, and cuts every prefix its
caller refutes; ``to_dnf`` and ``walk_product`` are such walks.

Negated atoms are rewritten into positive ones:

* a negated length bound flips into a bound on the negated term;
* a negated regex membership becomes membership in the complement
  language over the problem alphabet;
* a negated word equation splits into "lengths differ" plus, for every
  ordered pair of distinct letters, "common prefix then a mismatch".

A conjunction of literals becomes one factor per literal, the list of its
positive alternatives.  The product of the factors is never built here:
the solver walks it with ``walk_product`` and skips the parts of it that
are already refuted.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Any, Callable, Iterator, Sequence, TypeVar

from .automata import dfa_complement, dfa_to_regex, regex_to_dfa
from .errors import ResourceExhausted
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
    scale,
    sum_of,
)

Atom = WordEq | LenLeq | InRe
Leaf = TypeVar("Leaf")
Prefix = TypeVar("Prefix")
# An And/Or tree: ("leaf", leaf), ("and", parts) or ("or", parts).
Tree = tuple[str, Any]

# The most disjuncts in the disjunctive normal form of a formula or of a
# sentence body, and the most positive conjunctions the product of
# ``eliminate_negations``'s factors for one disjunct may hold.
MAX_DISJUNCTS = 100_000


@dataclass(frozen=True)
class Literal:
    atom: Atom
    positive: bool


def dnf_tree(phi: Formula, leaf: Callable[[Atom, bool], Leaf]) -> Tree:
    """``phi`` in negation normal form, as an And/Or tree whose leaves are
    ``leaf(atom, positive)``, made once per atom object and sign.  Raises
    TypeError on a non-atom, and ResourceExhausted when some disjunction
    along the way would have more than ``MAX_DISJUNCTS`` members."""
    return _dnf_tree(phi, True, leaf, {})[0]


def _dnf_tree(
    phi: Formula, positive: bool, leaf: Callable[[Atom, bool], Leaf], leaves: dict
) -> tuple[Tree, int]:
    """The tree of ``phi`` (negated when not ``positive``) and the number
    of conjunctions in its disjunctive normal form."""
    if isinstance(phi, (WordEq, LenLeq, InRe)):
        key = (id(phi), positive)
        node = leaves.get(key)
        if node is None:
            node = leaves[key] = ("leaf", leaf(phi, positive))
        return node, 1
    if isinstance(phi, Not):
        return _dnf_tree(phi.inner, not positive, leaf, leaves)
    if not isinstance(phi, (And, Or)):
        raise TypeError(f"not an atom: {phi!r}")
    conjunction = isinstance(phi, And) == positive
    parts = []
    size = int(conjunction)
    for part in phi.parts:
        node, n = _dnf_tree(part, positive, leaf, leaves)
        parts.append(node)
        size = size * n if conjunction else size + n
        if size > MAX_DISJUNCTS:
            raise ResourceExhausted("disjunctive normal form too large")
    return ("and" if conjunction else "or", parts), size


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
    """Disjunction of conjunctions of literals, equivalent to ``phi``.

    Raises ResourceExhausted, before building it, when some disjunction
    along the way would have more than ``MAX_DISJUNCTS`` members.
    """
    return list(walk(dnf_tree(phi, Literal), _appended, []))


def _appended(conjunct: list[Literal], literal: Literal) -> list[Literal]:
    return conjunct + [literal]


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
    conjunct: list[Literal], alphabet: str, gen: NameGen
) -> list[list[list[Atom]]]:
    """Turn a conjunction of literals into factors of positive alternatives.

    One factor per literal, in order: the positive conjunctions that may
    stand for it.  The conjunction of the input literals is satisfiable
    (over words in the given alphabet) iff some member of the factors'
    product, its chosen alternatives concatenated, is.  A negated
    membership of the total language makes the result one factor with no
    alternative.  A product of more than ``MAX_DISJUNCTS`` members raises
    ResourceExhausted.
    """
    factors: list[list[list[Atom]]] = []
    for lit in conjunct:
        if lit.positive:
            factors.append([[lit.atom]])
            continue
        atom = lit.atom
        if isinstance(atom, LenLeq):
            # not (t <= c)  <=>  t >= c + 1  <=>  -t <= -c - 1
            flipped = LenLeq(scale(atom.term, -1), -atom.bound - 1)
            factors.append([[flipped]])
        elif isinstance(atom, InRe):
            complement = dfa_complement(regex_to_dfa(atom.regex, alphabet))
            r = dfa_to_regex(complement)
            if r is None:
                # complement empty: the negated membership can never hold
                return [[]]
            factors.append([[InRe(atom.term, r)]])
        elif isinstance(atom, WordEq):
            factors.append(_negate_word_eq(atom, alphabet, gen))
        else:
            raise TypeError(f"not an atom: {atom!r}")

    if prod(map(len, factors)) > MAX_DISJUNCTS:
        raise ResourceExhausted("negation elimination too large")
    return factors


def walk_product(
    factors: Sequence[Sequence[Leaf]],
    extend: Callable[[Prefix, Leaf], Prefix | None],
    start: Prefix,
) -> Iterator[Prefix]:
    """``walk`` over the product of the factors: one prefix per choice of a
    member of every factor, in the product's order."""
    tree = ("and", [("or", [("leaf", choice) for choice in f]) for f in factors])
    return walk(tree, extend, start)
