"""Metamorphic tests: rewrites of a formula that cannot change its
satisfiability must not change the kind of verdict ``check_sat`` gives.
They need no oracle, so they also cover inputs the oracle cannot decide.
"""

import random
from dataclasses import fields, is_dataclass

import pytest

from helpers import random_formula_el, random_formula_elr
import wordeq.errors as errors
from wordeq.solver import Sat, Unsupported, check_sat
from wordeq.terms import (
    And,
    InRe,
    IntVar,
    Len,
    LenLeq,
    Lit,
    Or,
    ReConcat,
    ReEpsilon,
    ReLit,
    ReStar,
    ReUnion,
    Var,
    WordEq,
    concat,
    conj,
    disj,
    free_vars,
)


def rebuild(node, rewrite):
    """Rebuild a term bottom-up, applying ``rewrite`` to every node."""
    if isinstance(node, tuple):
        return tuple(rebuild(x, rewrite) for x in node)
    if not is_dataclass(node):
        return node
    parts = {f.name: rebuild(getattr(node, f.name), rewrite) for f in fields(node)}
    return rewrite(type(node)(**parts))


def swap_sides(phi):
    return rebuild(phi, lambda n: WordEq(n.rhs, n.lhs) if isinstance(n, WordEq) else n)


def reverse_connectives(phi):
    return rebuild(phi, lambda n: type(n)(n.parts[::-1]) if isinstance(n, (And, Or)) else n)


def rename_variables(phi):
    """Reverse the sorted order of the string and of the integer variables."""
    renaming = {}
    for names in map(sorted, free_vars(phi)):
        renaming.update(zip(names, reversed(names)))

    def rewrite(n):
        if isinstance(n, (Var, IntVar)):
            return type(n)(renaming[n.name])
        return n

    return rebuild(phi, rewrite)


def swap_letters(phi):
    swap = str.maketrans("ab", "ba")

    def rewrite(n):
        if isinstance(n, (Lit, ReLit)):
            return type(n)(n.word.translate(swap))
        return n

    return rebuild(phi, rewrite)


TRANSFORMS = [swap_sides, reverse_connectives, rename_variables, swap_letters]


def kind(phi) -> str:
    return type(check_sat(phi, "ab")).__name__


def test_transforms_change_the_formula():
    phi = conj(
        WordEq(concat(Var("X"), Lit("ab")), concat(Lit("ab"), Var("Y"))),
        InRe(Var("X"), ReStar(ReLit("a"))),
    )
    for transform in TRANSFORMS:
        assert transform(phi) != phi, transform.__name__
        assert transform(transform(phi)) == phi, transform.__name__


@pytest.mark.parametrize("transform", TRANSFORMS)
def test_verdict_kind_survives(transform):
    rng = random.Random(2024)
    kinds = set()
    for i in range(300):
        phi = (random_formula_el if i % 2 else random_formula_elr)(rng)
        before = kind(phi)
        assert kind(transform(phi)) == before, phi
        kinds.add(before)
    assert kinds == {"Sat", "Unsat", "Unsupported"}


def duplicate_first_conjunct(phi):
    first = phi.parts[0] if isinstance(phi, And) else phi
    return conj(first, phi)


def test_duplicating_a_conjunct_keeps_every_sat():
    # Rewriting does not see that u v^i = v^i u holds when u and v are
    # powers of one word, so a copied equation can block its own
    # rewriting branch and an Unsat may turn Unsupported.  The branches
    # it does not block still count, so a Sat stays Sat.
    rng = random.Random(2024)
    for i in range(300):
        phi = (random_formula_el if i % 2 else random_formula_elr)(rng)
        before, after = kind(phi), kind(duplicate_first_conjunct(phi))
        assert after == before or (before, after) == ("Unsat", "Unsupported"), phi


def _blow():
    """Five unary words, each in a language split into eight residues
    mod 8: 8^5 membership groups under the one solved form."""
    residues = ReUnion((ReEpsilon(),) + tuple(ReLit("a" * j) for j in range(1, 8)))
    regex = ReConcat((ReStar(ReLit("a" * 8)), residues))
    atoms = []
    for k in range(5):
        x = Var(f"X{k}")
        atoms += [WordEq(concat(x, Lit("a")), concat(Lit("a"), x)), InRe(x, regex)]
    return conj(*atoms)


def test_limit_blocks_only_its_own_disjunct(monkeypatch):
    # a lower budget keeps the test fast
    monkeypatch.setattr(errors, "WORK_BUDGET", 1000)
    # the first group (every X_k = "") has a model, so no other is built
    assert check_sat(_blow(), "ab") == Sat({f"X{k}": "" for k in range(5)}, {})
    # X0 also in (a^8)*a and len(X0) <= 0: the shared rows hold, but every
    # one of the 8^4 groups left is refuted, more than the budget allows
    x0 = Var("X0")
    blow = conj(
        _blow(), InRe(x0, ReConcat((ReStar(ReLit("a" * 8)), ReLit("a")))), LenLeq(Len(x0), 0)
    )
    # a disjunct decided before the budget runs out is kept; running out
    # ends the whole call, so one after it is never reached
    other = WordEq(Var("Y"), Lit("b"))
    assert isinstance(check_sat(disj(other, blow), "ab"), Sat)
    for phi in (blow, disj(blow, other)):
        verdict = check_sat(phi, "ab")
        assert isinstance(verdict, Unsupported), phi
        assert verdict.reason.startswith("work budget exhausted in "), verdict
