"""Surface syntax: reading problems and machine files."""

import random

import pytest

from helpers import random_formula_el, random_formula_elr, random_regex
from wordeq.parser import (
    MAX_DEPTH,
    ParseError,
    Problem,
    SortError,
    UndeclaredVariable,
    UnknownLetter,
    parse_2cm,
    parse_problem,
    tokenize,
)
from wordeq.printer import print_formula, print_problem
from wordeq.terms import (
    InRe,
    IntVar,
    Len,
    LenLeq,
    Lit,
    Not,
    ReStar,
    ReLit,
    Var,
    WordEq,
    concat,
    conj,
    disj,
    free_vars,
    sum_of,
)
from wordeq.twocounter import NondeterministicDelta, TwoCounterMachine

GOLDEN = """\
; conjugate words with a cap
(set-alphabet "ab")
(declare-const X String)
(declare-const n Int)
(assert (= (str.++ "ab" X) (str.++ X "ba")))
(assert (<= (str.len X) 5))
(assert (str.in.re X (re.* (str.to.re "ab"))))
(check-sat)
(get-model)
"""


def test_tokenize_kinds_and_positions():
    toks = list(tokenize('(assert "ab" -3 X) ; tail'))
    assert [(t.kind, t.value) for t in toks] == [
        ("(", "("),
        ("symbol", "assert"),
        ("string", "ab"),
        ("int", "-3"),
        ("symbol", "X"),
        (")", ")"),
    ]
    assert toks[0].line == 1 and toks[0].col == 1
    assert toks[2].col == 9


def test_parse_golden_problem():
    p = parse_problem(GOLDEN)
    assert p.alphabet == "ab"
    assert p.str_vars == ("X",)
    assert p.int_vars == ("n",)
    assert p.check_sat and p.get_model
    assert p.asserts[0] == WordEq(
        concat(Lit("ab"), Var("X")), concat(Var("X"), Lit("ba"))
    )
    assert p.asserts[1] == LenLeq(Len(Var("X")), 5)
    assert p.asserts[2] == InRe(Var("X"), ReStar(ReLit("ab")))


def test_parse_len_arithmetic():
    p = parse_problem(
        '(set-alphabet "ab")\n'
        "(declare-const X String)\n"
        "(declare-const n Int)\n"
        "(assert (<= (+ (str.len X) (* -2 n) 3) (+ n 1)))\n"
    )
    # variables move left, constants right: len(X) - 3n <= -2
    assert p.asserts[0] == LenLeq(
        sum_of((1, Len(Var("X"))), (-3, IntVar("n"))), -2
    )


def test_parse_not_and_or():
    p = parse_problem(
        '(set-alphabet "a")\n'
        "(declare-const X String)\n"
        '(assert (or (not (= X "a")) (and (= X "aa") (= X X))))\n'
    )
    phi = p.asserts[0]
    assert phi == disj(
        Not(WordEq(Var("X"), Lit("a"))),
        conj(WordEq(Var("X"), Lit("aa")), WordEq(Var("X"), Var("X"))),
    )


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse_problem('(set-alphabet "ab")\n(bogus)\n')
    assert e.value.line == 2 and e.value.col == 1
    with pytest.raises(ParseError) as e:
        parse_problem('(set-alphabet "ab')
    assert e.value.line == 1 and e.value.col == 15


def test_parse_error_classes():
    header = '(set-alphabet "ab")\n(declare-const X String)\n(declare-const n Int)\n'
    with pytest.raises(UndeclaredVariable):
        parse_problem(header + "(assert (= X Y))")
    with pytest.raises(SortError):
        parse_problem(header + "(assert (= X n))")
    with pytest.raises(SortError):
        parse_problem(header + "(assert (<= X 3))")
    with pytest.raises(UnknownLetter):
        parse_problem(header + '(assert (= X "xy"))')
    with pytest.raises(UnknownLetter):
        parse_problem(header + '(assert (str.in.re X (str.to.re "c")))')


def test_declare_const_sort_is_a_symbol():
    # a string literal is not the sort String, and an integer is not an
    # unknown sort: both are a malformed directive
    for sort in ('"String"', "1"):
        with pytest.raises(ParseError) as e:
            parse_problem(f'(set-alphabet "ab")\n(declare-const X {sort})')
        assert type(e.value) is ParseError
        assert str(e.value) == "line 2, column 1: declare-const needs a name and a sort"


def test_parse_structural_errors():
    with pytest.raises(ParseError):
        parse_problem("(declare-const X String)")  # alphabet not set yet
    with pytest.raises(ParseError):
        parse_problem('(set-alphabet "ab")\n(set-alphabet "a")')
    with pytest.raises(ParseError):
        parse_problem('(set-alphabet "aa")')
    with pytest.raises(ParseError):
        parse_problem('(set-alphabet "a")\n(declare-const X String)\n(declare-const X Int)')
    with pytest.raises(ParseError):
        parse_problem('(set-alphabet "a")\n(check-sat now)')
    with pytest.raises(ParseError):
        parse_problem("")  # never sets an alphabet
    with pytest.raises(ParseError):
        parse_problem('(set-alphabet "a")\n(assert (= "a" "a")')  # unbalanced


def test_parse_int64_guard():
    big = 2**63
    with pytest.raises(ParseError):
        parse_problem(f'(set-alphabet "a")\n(declare-const n Int)\n(assert (<= n {big}))')
    # a bound computed past the range is also rejected
    with pytest.raises(ParseError):
        parse_problem(
            f'(set-alphabet "a")\n(declare-const n Int)\n'
            f"(assert (<= (+ {2**62} {2**62} {2**62}) n))"
        )
    # so is a coefficient merged past it, while -2**63 itself is in range
    header = '(set-alphabet "a")\n(declare-const n Int)\n'
    merged = f"(assert (<= (+ (* {2**62} n) (* {2**62} n)) 0))"
    assert _error_at(header + merged) == (3, 9, "length coefficient outside the 64-bit range")
    parse_problem(header + f"(assert (<= (* {-(2**63)} n) {-(2**63)}))")


def test_integer_literals_are_ascii():
    header = '(set-alphabet "a")\n(declare-const n Int)\n'
    # superscript two passes str.isdigit but not int(); Arabic-Indic three
    # passes both; neither is an integer literal
    for word in ("\u00b2", "\u0663", "-\u0663", "1\u00b2"):
        with pytest.raises(UndeclaredVariable) as e:
            parse_problem(header + f"(assert (<= n {word}))")
        assert (e.value.line, e.value.col) == (3, 15)
        assert str(e.value).endswith(f"undeclared variable {word}")
    assert [t.kind for t in tokenize("-0 007 --1 1-2 -")] == ["int", "int"] + ["symbol"] * 3


def _error_at(text: str) -> tuple[int, int, str]:
    with pytest.raises(ParseError) as e:
        parse_problem(text)
    return e.value.line, e.value.col, str(e.value).split(": ", 1)[1]


def test_tokenizer_error_positions():
    header = '(set-alphabet "ab")\n(declare-const n Int)\n'
    assert _error_at('(set-alphabet "ab)\n(check-sat)') == (1, 15, "unterminated string literal")
    assert _error_at(header + '(assert (= "ab') == (3, 12, "unterminated string literal")
    too_big = "integer literal outside the 64-bit range"
    assert _error_at(header + f"(assert (<= n {2**63}))") == (3, 15, too_big)
    assert _error_at(header + f"(assert (<= {-(2**63) - 1} n))") == (3, 13, too_big)
    assert _error_at(header + "(check-sat))") == (3, 12, "unexpected closing parenthesis")
    assert _error_at(header + "(assert (and\n  (= n n)") == (3, 9, "unclosed parenthesis")
    deep = header + " " + "(" * (MAX_DEPTH + 1)
    assert _error_at(deep) == (3, MAX_DEPTH + 2, f"nesting deeper than {MAX_DEPTH}")
    # the tokenizer reads the whole text before the tree: a later bad
    # string wins over an earlier stray parenthesis
    assert _error_at(') "x') == (1, 3, "unterminated string literal")


def test_token_positions_after_whitespace_and_comments():
    toks = list(tokenize('(a\r\n b)\t(c\u3000d) ; e\n"f"'))
    assert [(t.value, t.line, t.col) for t in toks] == [
        ("(", 1, 1),
        ("a", 1, 2),
        ("b", 2, 2),
        (")", 2, 3),
        ("(", 2, 5),
        ("c", 2, 6),
        ("d", 2, 8),
        (")", 2, 9),
        ("f", 3, 1),
    ]
    assert parse_problem('(set-alphabet "ab") ; no newline after this').alphabet == "ab"


def test_length_atom_constants_move_into_the_bound():
    p = parse_problem(
        '(set-alphabet "ab")\n(declare-const X String)\n(declare-const n Int)\n'
        "(assert (<= (+ 3 (str.len X) n 2) (+ n 5)))\n"
    )
    assert p.asserts == (LenLeq(Len(Var("X")), 0),)


def test_print_parse_roundtrip_random():
    rng = random.Random(301)
    for _ in range(200):
        phi = random_formula_elr(rng) if rng.random() < 0.5 else random_formula_el(rng)
        if rng.random() < 0.3:
            phi = Not(phi)
        svars, ivars = free_vars(phi)
        text = print_problem("ab", sorted(svars), sorted(ivars), [phi])
        p = parse_problem(text)
        assert p.asserts == (phi,)
        assert parse_problem(print_problem(p.alphabet, p.str_vars, p.int_vars, p.asserts)) == p


def test_parse_fuzz_never_crashes():
    rng = random.Random(302)
    base = GOLDEN
    for _ in range(300):
        chars = list(base)
        for _ in range(rng.randint(1, 6)):
            pos = rng.randrange(len(chars))
            op = rng.randrange(3)
            if op == 0:
                chars[pos] = rng.choice('()"ab normalize <=*+139-')
            elif op == 1:
                del chars[pos]
            else:
                chars.insert(pos, rng.choice('()" abX'))
        try:
            parse_problem("".join(chars))
        except ParseError:
            pass  # every rejection is a positioned parse error


# ---------------------------------------------------------------------------
# machine files

MACHINE = """\
# one increment, one decrement
states: q0 q1 qf
input-alphabet: 0
initial: q0
final: qf
q0 0 Z Z -> q1 stor1 R
q1 0 b Z -> qf stor1 L
"""


def test_parse_2cm_golden():
    m = parse_2cm(MACHINE)
    assert isinstance(m, TwoCounterMachine)
    assert m.states == ("q0", "q1", "qf")
    assert m.input_alphabet == ("0",)
    assert m.initial == "q0"
    assert m.finals == frozenset({"qf"})
    assert m.delta[("q0", "0", "Z", "Z")] == ("q1", "stor1", "R")
    assert m.delta[("q1", "0", "b", "Z")] == ("qf", "stor1", "L")


def test_parse_2cm_errors():
    with pytest.raises(ParseError):
        parse_2cm("states: q0 q0\ninput-alphabet: a\ninitial: q0\nfinal:\n")
    with pytest.raises(ParseError):
        parse_2cm("states: q0\ninput-alphabet: end\ninitial: q0\nfinal:\n")
    with pytest.raises(ParseError):
        parse_2cm("states: q0\ninput-alphabet: a\nfinal:\n")  # missing initial
    with pytest.raises(ParseError):
        parse_2cm(MACHINE + "q0 0 Z -> q1 stor1 R\n")  # bad arity
    with pytest.raises(ParseError):
        parse_2cm(MACHINE.replace("initial: q0", "initial: zz"))
    with pytest.raises(NondeterministicDelta):
        parse_2cm(MACHINE + "q0 0 Z Z -> qf in L\n")


def test_parse_2cm_end_marker_usable_in_rules():
    m = parse_2cm(
        "states: q0 qf\ninput-alphabet: a\ninitial: q0\nfinal: qf\n"
        "q0 end Z Z -> qf in L\n"
    )
    assert ("q0", "end", "Z", "Z") in m.delta
