"""Tests for the bounded brute-force reference solver."""

import random
from itertools import product

import pytest

from wordeq.errors import ResourceExhausted
from wordeq.oracle import NoModelUpTo, SatWith, brute_force_sat
from wordeq.parser import MAX_DEPTH
from wordeq.semantics import Assignment, eval_formula
from wordeq.terms import (
    InRe,
    IntConst,
    IntVar,
    Len,
    LenLeq,
    Lit,
    ReConcat,
    ReLit,
    ReStar,
    Var,
    WordEq,
    concat,
    conj,
    free_vars,
    re_lit,
    re_seq,
    re_star,
    sum_of,
)

from helpers import random_formula_el

X = Var("X")


def test_conjugate_with_membership_finds_shortest_model():
    phi = conj(
        WordEq(concat(Lit("ab"), X), concat(X, Lit("ba"))),
        InRe(X, re_seq(re_lit("ab"), re_star(re_lit("ab")), re_lit("a"))),
        LenLeq(sum_of((1, Len(X))), 5),
    )
    r = brute_force_sat(phi, "ab", 5)
    assert isinstance(r, SatWith)
    assert r.model.strings == {"X": "aba"}
    assert eval_formula(phi, r.model)


def test_conjugate_with_disjoint_membership_has_no_model():
    # Solutions of the equation all end in 'a'; the regex demands a 'b'.
    phi = conj(
        WordEq(concat(Lit("ab"), X), concat(X, Lit("ba"))),
        InRe(X, re_seq(re_star(re_lit("ab")), re_lit("b"))),
        LenLeq(sum_of((1, Len(X))), 3),
    )
    assert brute_force_sat(phi, "ab", 5) == NoModelUpTo(5)


def test_trivial_equation_yields_empty_word_at_bound_zero():
    r = brute_force_sat(WordEq(X, X), "ab", 0)
    assert r == SatWith(model=Assignment(strings={"X": ""}, ints={}))


def test_models_come_shortest_first_and_deterministically():
    phi = WordEq(concat(X, Lit("a")), concat(Lit("a"), X))
    r1 = brute_force_sat(phi, "ab", 4)
    assert isinstance(r1, SatWith) and r1.model.strings == {"X": ""}
    # A length lower bound moves the first model up to the next solution.
    bounded = conj(phi, LenLeq(sum_of((-1, Len(X))), -2))
    r2 = brute_force_sat(bounded, "ab", 4)
    assert isinstance(r2, SatWith) and r2.model.strings == {"X": "aa"}
    assert brute_force_sat(bounded, "ab", 4) == r2


def test_membership_only_formulas():
    r = brute_force_sat(InRe(X, re_star(re_lit("ab"))), "ab", 4)
    assert isinstance(r, SatWith) and r.model.strings == {"X": ""}
    r = brute_force_sat(
        InRe(X, re_seq(re_lit("ab"), re_star(re_lit("ab")))), "ab", 4
    )
    assert isinstance(r, SatWith) and r.model.strings == {"X": "ab"}


def test_integer_variables_enumerate_up_to_int_bound():
    n = IntVar("n")
    # |X| <= n and n <= 2 with |X| = 3 cannot be met for any n in range.
    phi = conj(
        WordEq(X, Lit("aaa")),
        LenLeq(sum_of((1, Len(X)), (-1, n)), 0),
        LenLeq(sum_of((1, n)), 2),
    )
    assert brute_force_sat(phi, "ab", 4) == NoModelUpTo(4)
    sat = conj(WordEq(X, Lit("aa")), LenLeq(sum_of((1, Len(X)), (-1, n)), 0))
    r = brute_force_sat(sat, "ab", 4)
    assert isinstance(r, SatWith)
    assert r.model.ints["n"] >= 2
    assert eval_formula(sat, r.model)


def test_integer_variables_range_over_both_signs():
    n = IntVar("n")
    # -7 <= n <= -5: 0 ... 8 come first, then -1, -2, ...
    phi = conj(LenLeq(n, -5), LenLeq(sum_of((-1, n)), 7))
    assert brute_force_sat(phi, "ab", 0) == SatWith(Assignment(ints={"n": -5}))
    assert brute_force_sat(phi, "ab", 0, int_bound=4) == NoModelUpTo(0)
    # |X| + n <= -1 holds only for a negative n, so the length filter must
    # not rule out the profile |X| = 2
    phi = conj(WordEq(X, Lit("ab")), LenLeq(sum_of((1, Len(X)), (1, n)), -1))
    assert brute_force_sat(phi, "ab", 2) == SatWith(Assignment({"X": "ab"}, {"n": -3}))


def test_constants_in_a_length_sum():
    # |X| + 2 <= 3 and |X| >= 1: only the profile |X| = 1 passes the filter
    phi = conj(
        LenLeq(sum_of((1, Len(X)), (1, IntConst(2))), 3), LenLeq(sum_of((-1, Len(X))), -1)
    )
    assert brute_force_sat(phi, "ab", 3) == SatWith(Assignment({"X": "a"}))


def test_letters_outside_sigma_never_appear_in_models():
    assert brute_force_sat(WordEq(X, Lit("c")), "ab", 3) == NoModelUpTo(3)
    # The length filter must handle regexes over foreign letters too.
    phi = conj(InRe(X, re_star(re_lit("c"))), LenLeq(sum_of((-1, Len(X))), -1))
    assert brute_force_sat(phi, "ab", 3) == NoModelUpTo(3)


def test_sigma_letters_must_be_distinct():
    with pytest.raises(ValueError, match="distinct"):
        brute_force_sat(WordEq(X, X), "aa", 1)


def test_enumeration_budget_is_enforced():
    # Length-infeasible for every profile, so all work is profile scanning.
    phi = WordEq(concat(X, Lit("a")), X)
    with pytest.raises(ResourceExhausted):
        brute_force_sat(
            conj(phi, WordEq(Var("Y"), Var("Y")), WordEq(Var("Z"), Var("Z"))),
            "ab",
            8,
            node_budget=10,
        )


def test_enumeration_budget_lets_exactly_its_nodes_run():
    # one profile node and one assignment node
    phi = WordEq(Lit("a"), Lit("a"))
    assert isinstance(brute_force_sat(phi, "ab", 0, node_budget=2), SatWith)
    with pytest.raises(ResourceExhausted, match="^work budget exhausted in oracle$"):
        brute_force_sat(phi, "ab", 0, node_budget=1)


def _deep_membership(depth):
    """X in a regex of alternating stars and concatenations whose longest
    path holds ``depth`` nodes that hold others, the membership included."""
    r = ReLit("a")
    for i in range(depth - 1):
        r = ReStar(r) if i % 2 else ReConcat((ReLit("a"), r))
    return InRe(X, r)


def test_formula_nested_too_deep_is_refused_before_any_recursion():
    # 3000 levels is past the interpreter's recursion limit, which the
    # automaton construction and the evaluator would hit
    with pytest.raises(ResourceExhausted, match=f"nested deeper than {MAX_DEPTH}"):
        brute_force_sat(_deep_membership(3000), "ab", 2)
    with pytest.raises(ResourceExhausted, match=f"nested deeper than {MAX_DEPTH}"):
        brute_force_sat(_deep_membership(MAX_DEPTH + 1), "ab", 2)
    r = brute_force_sat(_deep_membership(MAX_DEPTH), "ab", 2)
    assert r == SatWith(Assignment(strings={"X": "a"}, ints={}))


def _all_words_upto(sigma: str, bound: int) -> list[str]:
    return ["".join(t) for ln in range(bound + 1) for t in product(sigma, repeat=ln)]


def test_profile_pruning_agrees_with_unpruned_enumeration():
    # The three-valued length filter must only skip hopeless blocks.
    rng = random.Random(21)
    words = _all_words_upto("ab", 3)
    for _ in range(150):
        phi = random_formula_el(rng)
        snames = sorted(free_vars(phi)[0])
        if len(snames) > 2:
            continue
        verdict = brute_force_sat(phi, "ab", 3)
        direct = None
        for combo in product(words, repeat=len(snames)):
            asg = Assignment(strings=dict(zip(snames, combo)), ints={})
            if eval_formula(phi, asg):
                direct = asg
                break
        if direct is None:
            assert verdict == NoModelUpTo(3)
        else:
            assert isinstance(verdict, SatWith)
            assert eval_formula(phi, verdict.model)
