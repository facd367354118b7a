"""Boolean normalization: disjunctive normal form and removal of negations.

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
from typing import Callable, Iterator, Sequence, TypeVar

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
Choice = TypeVar("Choice")
Prefix = TypeVar("Prefix")

# The most disjuncts ``to_dnf`` builds for a formula, and the most positive
# conjunctions the product of ``eliminate_negations``'s factors for one of
# them may hold.
MAX_DISJUNCTS = 100_000


@dataclass(frozen=True)
class Literal:
    atom: Atom
    positive: bool


def _within_limit(size: int, reason: str) -> None:
    """Called with the size of a disjunction before it is built."""
    if size > MAX_DISJUNCTS:
        raise ResourceExhausted(reason)


def _nnf(phi: Formula, positive: bool) -> Formula:
    if isinstance(phi, Not):
        return _nnf(phi.inner, not positive)
    if isinstance(phi, And):
        parts = tuple(_nnf(p, positive) for p in phi.parts)
        return And(parts) if positive else Or(parts)
    if isinstance(phi, Or):
        parts = tuple(_nnf(p, positive) for p in phi.parts)
        return Or(parts) if positive else And(parts)
    return phi if positive else Not(phi)


def _atom(f: Formula) -> Atom:
    if not isinstance(f, (WordEq, LenLeq, InRe)):
        raise TypeError(f"not an atom: {f!r}")
    return f


def to_dnf(phi: Formula) -> list[list[Literal]]:
    """Disjunction of conjunctions of literals, equivalent to ``phi``.

    Raises ResourceExhausted, before building it, when some disjunction
    along the way would have more than ``MAX_DISJUNCTS`` members.
    """

    def walk(f: Formula) -> list[list[Literal]]:
        if isinstance(f, Or):
            out: list[list[Literal]] = []
            for p in f.parts:
                branch = walk(p)
                _within_limit(len(out) + len(branch), "disjunctive normal form too large")
                out.extend(branch)
            return out
        if isinstance(f, And):
            acc: list[list[Literal]] = [[]]
            for p in f.parts:
                branch = walk(p)
                _within_limit(len(acc) * len(branch), "disjunctive normal form too large")
                acc = [c + d for c in acc for d in branch]
            return acc
        if isinstance(f, Not):
            return [[Literal(_atom(f.inner), False)]]
        return [[Literal(_atom(f), True)]]

    return walk(_nnf(phi, True))


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

    _within_limit(prod(map(len, factors)), "negation elimination too large")
    return factors


def walk_product(
    factors: Sequence[Sequence[Choice]],
    extend: Callable[[Prefix, Choice], Prefix | None],
    start: Prefix,
) -> Iterator[Prefix]:
    """The product of the factors, depth first in its order, folded by
    ``extend`` from ``start``: one prefix per choice of a member of every
    factor.

    ``extend(prefix, choice)`` is the prefix after one more choice, taken
    from the next factor, or None to prune it: no choice below a pruned
    prefix is made.  The walk keeps one prefix and one iterator per
    factor and does not recurse, so any number of factors is safe.
    """
    if not factors:
        yield start
        return
    prefixes = [start]
    pending = [iter(factors[0])]  # the choices still to try at each depth
    while pending:
        for choice in pending[-1]:
            prefix = extend(prefixes[-1], choice)
            if prefix is None:
                continue
            if len(pending) == len(factors):
                yield prefix
            else:
                prefixes.append(prefix)
                pending.append(iter(factors[len(pending)]))
                break
        else:
            pending.pop()
            prefixes.pop()

