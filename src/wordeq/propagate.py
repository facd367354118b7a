"""The conjuncts of a sentence body, with its fixed existentials propagated.

A body of word equations under And, Or and Not is walked conjunct by
conjunct of its disjunctive normal form, depth first, without building
that form.  Each prefix of a conjunct keeps the words of the existentials
its equations fix and the equations still open.  Adding an equation puts
those words into it, then:

* a ground equation that fails refutes the prefix, and one that holds is
  dropped;
* a positive equation with one ground side, whose other side does not
  mention the universal, is matched against that side; no match refutes
  the prefix, and exactly one fixes the variables it binds, whose words
  are then put into the open equations that mention them;
* any other equation stays open.

Nothing below a refuted prefix is walked.  This is the unit-propagation
half of DPLL(T) (Nieuwenhuis, Oliveras & Tinelli, JACM 2006), with the
words of fixed existentials as the propagated units.

At the end of a conjunct, an open equation that shares no variable with
the universal or with another open equation, and that holds with its
variables empty, is dropped: empty words witness it within every bound.
"""

from __future__ import annotations

from typing import Iterator

from .normalize import _within_limit
from .paramwords import Blocks, Const, Unfixed, const_blocks, substitute
from .solved_form import _match_pattern, ground_word, term_to_side
from .terms import And, Formula, Not, Or, WordEq

Eq = tuple[Blocks, Blocks, bool]  # lhs, rhs, positive
# An equation still open in a prefix of a conjunct, with the fixed
# existentials put in: the equation, the variables it still mentions, and
# whether it is apart from the universal and holds with those variables
# empty.
_Open = tuple[Eq, frozenset[str], bool]
# What one equation settles on its own: False when it has no solution, the
# words of its variables when it has exactly one (none when it is ground
# and holds), None when it stays open.
_Settled = dict[str, Blocks] | bool | None
# A literal as an open equation, and what it settles when no fixed
# existential occurs in it.
_Literal = tuple[_Open, _Settled]
# A prefix of a conjunct: the fixed existentials' words and the open
# equations, in the order of their literals.
_Prefix = tuple[dict[str, Blocks], tuple[_Open, ...]]
# The body in negation normal form: ("lit", literal), ("and", parts) or
# ("or", parts).
_Node = tuple[str, "_Literal | list[_Node]"]


def conjuncts(body: Formula, universal: str) -> Iterator[list[Eq]]:
    """The equations left in each conjunct of the body's disjunctive
    normal form that propagation does not refute, in ``to_dnf``'s order
    and literal order.  The number of conjuncts in that form is held to
    ``to_dnf``'s limit before any is walked."""
    tree, _ = _nnf_tree(body, True, universal, {})
    # each entry is a prefix and what is left to conjoin to it
    stack: list[tuple[_Prefix, tuple | None]] = [(({}, ()), (tree, None))]
    while stack:
        prefix, agenda = stack.pop()
        while agenda is not None:
            (kind, item), agenda = agenda
            if kind == "lit":
                after = _conjoin(prefix, item, universal)
                if after is None:
                    break
                prefix = after
            elif kind == "and":
                for part in reversed(item):
                    agenda = (part, agenda)
            else:
                stack += [(prefix, (part, agenda)) for part in reversed(item[1:])]
                agenda = (item[0], agenda)
        else:
            yield _needed(prefix[1])


def _nnf_tree(
    phi: Formula, positive: bool, universal: str, literals: dict[tuple[int, bool], _Literal]
) -> tuple[_Node, int]:
    """``phi`` (negated when not ``positive``) in negation normal form, and
    the number of conjuncts in its disjunctive normal form.  Each literal
    is compiled once per atom and sign."""
    if isinstance(phi, Not):
        return _nnf_tree(phi.inner, not positive, universal, literals)
    if isinstance(phi, (And, Or)):
        conjunction = isinstance(phi, And) == positive
        parts = []
        total = int(conjunction)
        for part in phi.parts:
            node, n = _nnf_tree(part, positive, universal, literals)
            parts.append(node)
            total = total * n if conjunction else total + n
        # every size is at least 1, so the last total is the largest
        _within_limit(total, "disjunctive normal form too large")
        return ("and" if conjunction else "or", parts), total
    if not isinstance(phi, WordEq):
        raise ValueError("sentence bodies hold equations only")
    key = (id(phi), positive)
    if key not in literals:
        lhs, rhs = term_to_side(phi.lhs), term_to_side(phi.rhs)
        names = frozenset(b.part for b in lhs + rhs if isinstance(b, Unfixed))
        literals[key] = _literal(lhs, rhs, positive, names, universal)
    return ("lit", literals[key]), 1


def _conjoin(prefix: _Prefix, literal: _Literal, universal: str) -> _Prefix | None:
    """The prefix with one more literal, the words it fixes put into the
    open equations; None when the prefix has no solution any more."""
    env, opened = prefix
    eq, settled = literal
    if not eq[1].isdisjoint(env):
        eq, settled = _substituted(eq, env, universal)
    if settled is None:
        return env, opened + (eq,)
    if settled is False:
        return None
    if not settled:  # a ground equation that holds
        return prefix
    env = {**env, **settled}
    # each pass puts the words fixed so far into the open equations that
    # mention them, until no pass fixes more
    fixed = True
    while fixed:
        fixed = False
        kept = []
        for eq in opened:
            if not eq[1].isdisjoint(env):
                eq, settled = _substituted(eq, env, universal)
                if settled is False:
                    return None
                if settled is not None:
                    fixed = fixed or bool(settled)
                    env = {**env, **settled}
                    continue
            kept.append(eq)
        opened = tuple(kept)
    return env, opened


def _substituted(eq: _Open, env: dict[str, Blocks], universal: str) -> _Literal:
    (lhs, rhs, positive), names, _ = eq
    return _literal(
        substitute(lhs, env), substitute(rhs, env), positive, names.difference(env), universal
    )


def _literal(
    lhs: Blocks, rhs: Blocks, positive: bool, names: frozenset[str], universal: str
) -> _Literal:
    """An equation as an open one, and what it settles on its own."""
    settled = _settle(lhs, rhs, positive, names, universal)
    apart = (
        settled is None
        and universal not in names
        and (_constants(lhs) == _constants(rhs)) == positive
    )
    return ((lhs, rhs, positive), names, apart), settled


def _settle(
    lhs: Blocks, rhs: Blocks, positive: bool, names: frozenset[str], universal: str
) -> _Settled:
    if not names:
        return {} if (lhs == rhs) == positive else False
    if not positive or universal in names:
        return None
    target, pattern = ground_word(rhs), lhs
    if target is None:
        target, pattern = ground_word(lhs), rhs
    if target is None:
        return None
    matches = _match_pattern(pattern, target, 2)
    if matches == []:
        return False
    if matches is None or len(matches) > 1:
        return None
    return {name: const_blocks(w) for name, w in matches[0][0].items()}


def _constants(side: Blocks) -> str:
    return "".join(b.word for b in side if isinstance(b, Const))


def _needed(opened: tuple[_Open, ...]) -> list[Eq]:
    """The equations of a finished conjunct that its witness must be
    searched for.  An equation apart from the universal and from every
    other one, which empty words satisfy, is witnessed within any bound."""
    return [
        eq
        for i, (eq, names, apart) in enumerate(opened)
        if not apart
        or any(j != i and not names.isdisjoint(other) for j, (_, other, _) in enumerate(opened))
    ]
