"""Rendering terms, formulas, problems and models."""

import pytest

from wordeq.parser import parse_problem
from wordeq.printer import (
    print_formula,
    print_len_term,
    print_model,
    print_problem,
    print_regex,
    print_str_term,
)
from wordeq.terms import (
    InRe,
    IntConst,
    IntVar,
    Len,
    LenLeq,
    Lit,
    Not,
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
    sum_of,
)


def test_print_str_term():
    assert print_str_term(Lit("ab")) == '"ab"'
    assert print_str_term(Lit("")) == '""'
    assert print_str_term(Var("X")) == "X"
    assert print_str_term(concat(Lit("a"), Var("X"), Lit("b"))) == '(str.++ "a" X "b")'


def test_print_len_term():
    assert print_len_term(IntConst(-3)) == "-3"
    assert print_len_term(IntVar("n")) == "n"
    assert print_len_term(Len(Var("X"))) == "(str.len X)"
    assert print_len_term(sum_of((2, Len(Var("X"))))) == "(* 2 (str.len X))"
    assert (
        print_len_term(sum_of((1, Len(Var("X"))), (-1, IntVar("n"))))
        == "(+ (str.len X) (* -1 n))"
    )


def test_print_regex():
    r = ReConcat((ReUnion((ReLit("ab"), ReEpsilon())), ReStar(ReLit("a"))))
    assert (
        print_regex(r)
        == '(re.++ (re.union (str.to.re "ab") re.epsilon) (re.* (str.to.re "a")))'
    )


def test_print_formula():
    phi = conj(
        WordEq(Var("X"), Lit("a")),
        Not(disj(LenLeq(Len(Var("X")), 2), InRe(Var("X"), ReLit("b")))),
    )
    assert print_formula(phi) == (
        '(and (= X "a") (not (or (<= (str.len X) 2) (str.in.re X (str.to.re "b")))))'
    )


def test_print_problem_layout():
    text = print_problem(
        "ab", ["X"], ["n"], [WordEq(Var("X"), Lit("a"))], check_sat=True, get_model=True
    )
    assert text == (
        '(set-alphabet "ab")\n'
        "(declare-const X String)\n"
        "(declare-const n Int)\n"
        '(assert (= X "a"))\n'
        "(check-sat)\n"
        "(get-model)\n"
    )
    # optional directives drop out
    bare = print_problem("ab", [], [], [], check_sat=False)
    assert bare == '(set-alphabet "ab")\n'


def test_print_model_sorted():
    out = print_model({"Y": "ba", "X": ""}, {"n": -2, "m": 0})
    assert out == (
        "(model\n"
        '  (define-fun X () String "")\n'
        '  (define-fun Y () String "ba")\n'
        "  (define-fun m () Int 0)\n"
        "  (define-fun n () Int -2)\n"
        ")"
    )


def test_quote_rejects_unprintable_words():
    with pytest.raises(ValueError):
        print_str_term(Lit('a"b'))


def test_printed_problem_reparses():
    phi = conj(
        WordEq(concat(Lit("ab"), Var("X")), concat(Var("X"), Lit("ba"))),
        LenLeq(sum_of((1, Len(Var("X"))), (2, IntVar("n"))), 5),
        InRe(Var("X"), ReStar(ReUnion((ReLit("ab"), ReLit("ba"))))),
    )
    p = parse_problem(print_problem("ab", ["X"], ["n"], [phi], get_model=True))
    assert p.asserts == (phi,)
    assert p.get_model
