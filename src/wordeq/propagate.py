"""The conjuncts of a sentence body, with its fixed existentials propagated.

A body of word equations under And, Or and Not is walked conjunct by
conjunct of its disjunctive normal form by ``normalize.walk``, depth
first, without building that form.  Each equation is compiled once per
sign when ``normalize.dnf_tree`` builds the body's tree, and each
variable's and each constant's block once per body.  Each prefix of
a conjunct keeps the words of the existentials its equations fix and the
equations still open.  Adding an equation puts those words into it, then:

* a ground equation that fails refutes the prefix, and one that holds is
  dropped;
* a positive equation with one ground side, whose other side does not
  mention the universal, is matched against that side; no match refutes
  the prefix, and exactly one fixes the variables it binds, whose words
  are then put into the open equations that mention them;
* any other equation stays open.

Nothing below a refuted prefix is walked.  This is the unit-propagation
half of DPLL(T) (Nieuwenhuis, Oliveras & Tinelli, JACM 2006), with the
words of fixed existentials as the propagated units.  Each literal added
to a prefix draws one unit from the caller's work budget, so the walk is
bounded by the work it does, not by the size of the normal form.

At the end of a conjunct, an open equation that shares no variable with
the universal or with another open equation, and that holds with its
variables empty, is dropped: empty words witness it within every bound.
A lone open equation shares no variable with another, so only its own
test is made.
"""

from __future__ import annotations

from functools import partial
from typing import Iterator

from .errors import Budget
from .normalize import Atom, Tree, dnf_tree, walk
from .paramwords import Blocks, Const, Unfixed, const_blocks, substitute
from .solved_form import MadeBlocks, _match_pattern, ground_word, term_to_side
from .terms import Formula, WordEq

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
# A prefix of a conjunct: the fixed existentials' words, the open
# equations in the order of their literals, the universal and the budget.
_Prefix = tuple[dict[str, Blocks], tuple[_Open, ...], str, Budget]


def conjuncts(body: Formula, universal: str, budget: Budget) -> Iterator[list[Eq]]:
    """The equations left in each conjunct of the body's disjunctive
    normal form that propagation does not refute, in ``to_dnf``'s order.
    Within a conjunct the literals come leaves first (``_leaves_first``),
    not in the body's order.  Each step of the walk draws one unit from
    ``budget``; running out raises ResourceExhausted."""
    tree = _leaves_first(dnf_tree(body, partial(_compile, universal=universal, made=({}, {}))))
    for _, opened, _, _ in walk(tree, _conjoin, ({}, (), universal, budget)):
        yield _needed(opened)


def _leaves_first(tree: Tree) -> Tree:
    """The tree with each And's leaves, those of the Ands it holds among
    them, before its Ors, the Ors in their order.  The walk conjoins a
    leaf before an Or once, and one after it once per branch; a
    conjunction commutes, so only the literal order inside each
    conjunct changes, not which conjuncts come out or in what order."""
    kind, item = tree
    if kind == "leaf":
        return tree
    parts = [part if part[0] == "leaf" else _leaves_first(part) for part in item]
    if kind == "or":
        return kind, parts
    leaves: list[Tree] = []
    ors: list[Tree] = []
    for part in parts:
        for p in part[1] if part[0] == "and" else (part,):
            (leaves if p[0] == "leaf" else ors).append(p)
    return kind, leaves + ors


def _compile(atom: Atom, positive: bool, universal: str, made: MadeBlocks) -> Tree:
    if not isinstance(atom, WordEq):
        raise ValueError("sentence bodies hold equations only")
    lhs, rhs = term_to_side(atom.lhs, made), term_to_side(atom.rhs, made)
    names = frozenset([b.part for b in lhs + rhs if isinstance(b, Unfixed)])
    return "leaf", _literal(lhs, rhs, positive, names, universal)


def _conjoin(prefix: _Prefix, literal: _Literal) -> _Prefix | None:
    """The prefix with one more literal, the words it fixes put into the
    open equations; None when the prefix has no solution any more."""
    env, opened, universal, budget = prefix
    budget.draw(1, "propagate")
    eq, settled = literal
    if not eq[1].isdisjoint(env):
        eq, settled = _substituted(eq, env, universal)
    if settled is None:
        return env, opened + (eq,), universal, budget
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
    return env, opened, universal, budget


def _substituted(eq: _Open, env: dict[str, Blocks], universal: str) -> _Literal:
    (lhs, rhs, positive), names, _ = eq
    return _literal(
        substitute(lhs, env), substitute(rhs, env), positive, names.difference(env), universal
    )


def _literal(
    lhs: Blocks, rhs: Blocks, positive: bool, names: frozenset[str], universal: str
) -> _Literal:
    """An equation as an open one, and what it settles on its own.  One
    that mentions the universal settles nothing and is not apart."""
    if universal in names:
        return ((lhs, rhs, positive), names, False), None
    settled = _settle(lhs, rhs, positive, names)
    apart = settled is None and (_constants(lhs) == _constants(rhs)) == positive
    return ((lhs, rhs, positive), names, apart), settled


def _settle(lhs: Blocks, rhs: Blocks, positive: bool, names: frozenset[str]) -> _Settled:
    if not names:
        return {} if (lhs == rhs) == positive else False
    if not positive:
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
    return "".join([b.word for b in side if isinstance(b, Const)])


def _needed(opened: tuple[_Open, ...]) -> list[Eq]:
    """The equations of a finished conjunct that its witness must be
    searched for.  An equation apart from the universal and from every
    other one, which empty words satisfy, is witnessed within any bound.
    One pass finds the names that two open equations share."""
    if len(opened) == 1:
        (eq, _, apart), = opened
        return [] if apart else [eq]
    seen: set[str] = set()
    shared: set[str] = set()
    for _, names, _ in opened:
        if not names.isdisjoint(seen):
            shared |= names & seen
        seen |= names
    return [eq for eq, names, apart in opened if not apart or not names.isdisjoint(shared)]
