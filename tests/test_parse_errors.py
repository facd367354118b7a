"""Every error message of parse_problem, pinned with its class and place.

Each row is a problem text and the error it raises: the exception's
class (exactly), its message without the position prefix, its line and
its column.  The last rows pin which error wins when a text has several.
"""

import random

import pytest

from helpers import random_formula_el, random_formula_elr
from wordeq.parser import (
    MAX_DEPTH,
    ParseError,
    Problem,
    SortError,
    UndeclaredVariable,
    UnknownLetter,
    parse_2cm,
    parse_problem,
)
from wordeq.printer import print_problem
from wordeq.terms import free_vars
from wordeq.twocounter import NondeterministicDelta

# the header sets the alphabet and declares X, Y (String) and n (Int);
# the row's own text starts on line 4
HEADER = (
    '(set-alphabet "ab")\n'
    "(declare-const X String)\n(declare-const Y String)\n(declare-const n Int)\n"
)
H = HEADER.count("\n") + 1  # the line a row's text starts on
TOO_BIG = 2**63
TOO_SMALL = -(2**63) - 1

ROWS = [
    # -- tokens
    (HEADER + '(assert (= X "ab', ParseError, H, 14, "unterminated string literal"),
    (HEADER + f"(assert (<= n {TOO_BIG}))", ParseError, H, 15,
     "integer literal outside the 64-bit range"),
    (HEADER + f"(assert (<= {TOO_SMALL} n))", ParseError, H, 13,
     "integer literal outside the 64-bit range"),
    # -- nesting
    (HEADER + "  " + "(" * (MAX_DEPTH + 1), ParseError, H, MAX_DEPTH + 3,
     f"nesting deeper than {MAX_DEPTH}"),
    (HEADER + "(check-sat))", ParseError, H, 12, "unexpected closing parenthesis"),
    (HEADER + "(assert (and\n  (= X X)", ParseError, H, 9, "unclosed parenthesis"),
    # -- letters
    (HEADER + '(assert (= X "abc"))', UnknownLetter, H, 14,
     "letter 'c' is not in the alphabet"),
    (HEADER + '(assert (str.in.re X (str.to.re "dc")))', UnknownLetter, H, 33,
     "letter 'c' is not in the alphabet"),
    # -- string terms
    (HEADER + "(assert (= X n))", SortError, H, 14, "n is an Int variable, not a String"),
    (HEADER + "(assert (= X Z))", UndeclaredVariable, H, 14, "undeclared variable Z"),
    (HEADER + "(assert (= X 3))", SortError, H, 14, "expected a string term"),
    (HEADER + "(assert (= (str.++) X))", ParseError, H, 12,
     "str.++ needs at least one argument"),
    (HEADER + "(assert (= X (str.len X)))", SortError, H, 14, "expected a string term"),
    # -- integer terms
    (HEADER + "(assert (<= X 3))", SortError, H, 13, "X is a String variable, not an Int"),
    (HEADER + "(assert (<= m 3))", UndeclaredVariable, H, 13, "undeclared variable m"),
    (HEADER + '(assert (<= "a" 3))', SortError, H, 13, "expected an integer term"),
    (HEADER + "(assert (<= (str.len X Y) 3))", ParseError, H, 13,
     "str.len needs exactly one argument"),
    (HEADER + "(assert (<= (+) 3))", ParseError, H, 13, "+ needs at least one argument"),
    (HEADER + "(assert (<= (* 2) 3))", ParseError, H, 13, "* needs a coefficient and a term"),
    (HEADER + "(assert (<= (* n 2) 3))", SortError, H, 13,
     "the coefficient of * must be an integer literal"),
    (HEADER + "(assert (<= (str.++ X) 3))", SortError, H, 13, "expected an integer term"),
    # -- regular expressions
    (HEADER + '(assert (str.in.re X "a"))', SortError, H, 22,
     "expected a regular expression"),
    (HEADER + "(assert (str.in.re X (str.to.re X)))", ParseError, H, 22,
     "str.to.re needs one string literal"),
    (HEADER + "(assert (str.in.re X (re.++)))", ParseError, H, 22,
     "re.++ needs at least one argument"),
    (HEADER + "(assert (str.in.re X (re.union)))", ParseError, H, 22,
     "re.union needs at least one argument"),
    (HEADER + "(assert (str.in.re X (re.* re.epsilon re.epsilon)))", ParseError, H, 22,
     "re.* needs exactly one argument"),
    (HEADER + "(assert (str.in.re X (re.opt re.epsilon)))", SortError, H, 22,
     "expected a regular expression"),
    # -- formulas
    (HEADER + "(assert X)", ParseError, H, 9, "expected a formula"),
    (HEADER + "(assert (= X))", ParseError, H, 9, "= needs exactly two arguments"),
    (HEADER + "(assert (<= n 1 2))", ParseError, H, 9, "<= needs exactly two arguments"),
    (HEADER + f"(assert (<= n (+ {2**62} {2**62})))", ParseError, H, 9,
     "length bound outside the 64-bit range"),
    (HEADER + f"(assert (<= (+ (* {2**62} n) (* {2**62} n)) 0))", ParseError, H, 9,
     "length coefficient outside the 64-bit range"),
    (HEADER + "(assert (str.in.re X))", ParseError, H, 9, "str.in.re needs a term and a regex"),
    (HEADER + "(assert (and))", ParseError, H, 9, "and needs at least one argument"),
    (HEADER + "(assert (or))", ParseError, H, 9, "or needs at least one argument"),
    (HEADER + "(assert (not (= X X) (= X X)))", ParseError, H, 9,
     "not needs exactly one argument"),
    (HEADER + "(assert (xor (= X X)))", ParseError, H, 9, "unknown formula head 'xor'"),
    (HEADER + '(assert ("and" (= X X)))', ParseError, H, 9, "expected a formula"),
    (HEADER + "(assert ())", ParseError, H, 9, "expected a formula"),
    (HEADER + "(assert (5 1))", ParseError, H, 9, "expected a formula"),
    # -- directives
    (HEADER + "check-sat", ParseError, H, 1, "expected a directive"),
    (HEADER + "(1 2)", ParseError, H, 1, "expected a directive"),
    ('(set-alphabet ab)', ParseError, 1, 1, "set-alphabet needs one string literal"),
    (HEADER + '(set-alphabet "a")', ParseError, H, 1, "the alphabet is already set"),
    ('(set-alphabet "aba")', ParseError, 1, 1, "alphabet letters must be distinct"),
    (HEADER + "(declare-const Z)", ParseError, H, 1, "declare-const needs a name and a sort"),
    (HEADER + "(declare-const n String)", ParseError, H, 1, "n is already declared"),
    ("(declare-const X String)", ParseError, 1, 1,
     "set-alphabet must come before String declarations"),
    (HEADER + "(declare-const Z Bool)", SortError, H, 1, "unknown sort Bool"),
    (HEADER + "(assert)", ParseError, H, 1, "assert needs exactly one formula"),
    ("(declare-const n Int)\n(assert (<= n 0))", ParseError, 2, 1,
     "set-alphabet must come before assertions"),
    (HEADER + "(check-sat 1)", ParseError, H, 1, "check-sat takes no arguments"),
    (HEADER + "(get-model now)", ParseError, H, 1, "get-model takes no arguments"),
    (HEADER + "(push 1)", ParseError, H, 1, "unknown directive 'push'"),
    (HEADER + '("push" 1)', ParseError, H, 1, "expected a directive"),
    ("(check-sat)\n; no alphabet", ParseError, 1, 1, "the file never sets an alphabet"),
    # -- which error wins: the first token error in text order, then
    # nesting and parentheses in token order, then the directives in order
    (HEADER + f'(bogus)\n(assert (<= n {TOO_BIG}))\n"', ParseError, H + 1, 15,
     "integer literal outside the 64-bit range"),
    (HEADER + '(bogus))\n"', ParseError, H + 1, 1, "unterminated string literal"),
    (HEADER + "(bogus)\n(check-sat))", ParseError, H + 1, 12, "unexpected closing parenthesis"),
    (HEADER + "(bogus)\n(check-sat", ParseError, H + 1, 1, "unclosed parenthesis"),
    (HEADER + ")\n" + "(" * (MAX_DEPTH + 1), ParseError, H, 1, "unexpected closing parenthesis"),
    (HEADER + "(bogus)\n(assert (= X Z))", ParseError, H, 1, "unknown directive 'bogus'"),
    ("(check-sat 1)\n(bogus)", ParseError, 1, 1, "check-sat takes no arguments"),
]


@pytest.mark.parametrize("text, cls, line, col, message", ROWS, ids=[r[4] for r in ROWS])
def test_parse_problem_error(text, cls, line, col, message):
    with pytest.raises(ParseError) as e:
        parse_problem(text)
    assert type(e.value) is cls
    assert (e.value.line, e.value.col) == (line, col)
    assert str(e.value) == f"line {line}, column {col}: {message}"


MACHINE = """\
states: q0 qf
input-alphabet: a
initial: q0
final: qf
q0 a Z Z -> qf in R
"""


def _machine(line: int, text: str) -> str:
    """MACHINE with its given line replaced."""
    lines = MACHINE.splitlines()
    lines[line - 1] = text
    return "\n".join(lines) + "\n"


# each machine check that parse_2cm reports, at the line it read the
# header or rule on; a missing header is reported at the file's start
MACHINE_ROWS = [
    (_machine(1, "states: q0 qf q0"), 1, "states must be distinct and nonempty"),
    (_machine(2, "input-alphabet:"), 2, "input letters must be distinct and nonempty"),
    (_machine(2, "input-alphabet: a end"), 2, "'end' is reserved"),
    (_machine(3, "initial: zz"), 3, "initial state 'zz' is not declared"),
    (_machine(4, "final: qf zz"), 4, "final states must be declared"),
    (MACHINE + "q0 b Z Z -> zz in R\n", 6, "rule for ('q0', 'b', 'Z', 'Z') uses an undeclared state"),
    (MACHINE + "\nq0 b Z Z -> qf in R\n", 7, "rule letter 'b' is not in the input alphabet"),
    (MACHINE + "q0 a Z b -> qf in R\n", 6, "zero-test tags are Z|b and Z|c"),
    (_machine(5, "q0 a Z Z -> qf up R"), 5, "rule actions are in|stor1|stor2 and L|R"),
    (_machine(4, ""), 1, "missing header 'final'"),
    (_machine(2, "states: q0 qf"), 2, "states given twice"),
    (_machine(3, "input-alphabet: a"), 3, "input-alphabet given twice"),
    (_machine(4, "initial: q0"), 4, "initial given twice"),
    (_machine(3, "initial: q0 qf"), 3, "initial needs exactly one state"),
    (_machine(5, "final: qf"), 5, "final given twice"),
    (_machine(5, "x: y"), 5, "unknown header 'x'"),
    (_machine(5, "q0 a Z Z"), 5, "expected a header or a rule"),
]


@pytest.mark.parametrize("text, line, message", MACHINE_ROWS, ids=[r[2] for r in MACHINE_ROWS])
def test_parse_2cm_error(text, line, message):
    with pytest.raises(ParseError) as e:
        parse_2cm(text)
    assert (e.value.line, e.value.col) == (line, 1)
    assert str(e.value) == f"line {line}, column 1: {message}"


def test_duplicate_machine_rule():
    with pytest.raises(ParseError) as e:
        parse_2cm(MACHINE + "\nq0 a Z Z -> q0 in L\n")
    assert isinstance(e.value, NondeterministicDelta)
    assert (e.value.line, e.value.col) == (7, 1)
    assert str(e.value) == (
        "line 7, column 1: duplicate rule for ('q0', 'a', 'Z', 'Z')"
    )


# ---------------------------------------------------------------------------
# corrupted problems


def _token_starts(text: str) -> set[int]:
    """The offsets at which a token starts, read character by character;
    an unterminated string literal is its lone quote."""
    starts, i = set(), 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c == ";":
            end = text.find("\n", i)
            i = len(text) if end == -1 else end
        elif c == '"':
            starts.add(i)
            end = text.find('"', i + 1)
            closed = end != -1 and "\n" not in text[i:end]
            i = end + 1 if closed else i + 1
        else:
            starts.add(i)
            i += 1
            if c not in "()":
                while i < len(text) and not text[i].isspace() and text[i] not in '()";':
                    i += 1
    return starts


def _offset(text: str, line: int, col: int) -> int:
    return sum(len(s) + 1 for s in text.split("\n")[: line - 1]) + col - 1


def test_corrupted_problems_fail_at_a_token():
    rng = random.Random(1907)
    for _ in range(1500):
        phi = random_formula_elr(rng) if rng.random() < 0.5 else random_formula_el(rng)
        svars, ivars = free_vars(phi)
        text = print_problem("ab", sorted(svars), sorted(ivars), [phi])
        p = rng.randrange(len(text) + 1)
        text = rng.choice([
            text[:p],
            text[:p] + rng.choice('()";\n -0aXzn') + text[p:],
            text[:p] + text[p + 1:],
        ])
        try:
            assert isinstance(parse_problem(text), Problem)
        except ParseError as e:
            if str(e).endswith("the file never sets an alphabet"):
                assert (e.line, e.col) == (1, 1)
            else:
                assert _offset(text, e.line, e.col) in _token_starts(text), (text, str(e))
