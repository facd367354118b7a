"""The problem reader's length atoms and reused leaves, and the line
numbers of machine files.

A length atom is summed in place by the reader; ``helpers.sum_of_len_leq``
builds the same atom with ``terms.sum_of``, which the reader must equal
item for item.  A leaf token is read once per text and reused, which must
hide no error: only a leaf that read without error is kept.
"""

import random

import pytest

from helpers import sum_of_len_leq
from wordeq.parser import (
    ParseError,
    SortError,
    UndeclaredVariable,
    UnknownLetter,
    parse_2cm,
    parse_problem,
)
from wordeq.terms import IntConst, IntVar, Len, LenTerm, Lit, Sum, Var, concat, sum_of

# the assertions start on line 6
HEADER = (
    '(set-alphabet "ab")\n'
    "(declare-const X String)\n"
    "(declare-const Y String)\n"
    "(declare-const n Int)\n"
    "(declare-const m Int)\n"
)

# a length leaf's text and its term
LEAVES = [
    ("(str.len X)", Len(Var("X"))),
    ("(str.len Y)", Len(Var("Y"))),
    ('(str.len (str.++ X "a"))', Len(concat(Var("X"), Lit("a")))),
    ("n", IntVar("n")),
    ("m", IntVar("m")),
]
CONSTANTS = (0, 1, -1, 2, 3, -7)
COEFFICIENTS = (0, 1, -1, 2, -3, 5)


def _len_term(rng: random.Random, depth: int) -> tuple[str, LenTerm]:
    """A random length term's text, and the term ``terms.sum_of`` builds
    for it node by node.  Sums repeat terms and constants, scale by zero,
    and may hold a term beside its negation, which cancel in that sum."""
    r = rng.random()
    if depth == 0 or r < 0.3:
        if rng.random() < 0.3:
            c = rng.choice(CONSTANTS)
            return str(c), IntConst(c)
        return rng.choice(LEAVES)
    if r < 0.7:
        parts = [_len_term(rng, depth - 1) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:
            text, term = _len_term(rng, depth - 1)
            i = rng.randrange(len(parts) + 1)
            parts[i:i] = [(text, term), (f"(* -1 {text})", sum_of((-1, term)))]
        return "(+ " + " ".join(t for t, _ in parts) + ")", sum_of(*((1, t) for _, t in parts))
    c = rng.choice(COEFFICIENTS)
    text, term = _len_term(rng, depth - 1)
    return f"(* {c} {text})", sum_of((c, term))


def test_length_atoms_read_as_sum_of_builds_them():
    rng = random.Random(3501)
    shapes = set()
    for _ in range(3000):
        (lt, lhs), (rt, rhs) = _len_term(rng, 3), _len_term(rng, 3)
        atom = parse_problem(HEADER + f"(assert (<= {lt} {rt}))\n").asserts[0]
        expected = sum_of_len_leq(lhs, rhs)
        assert atom == expected, (lt, rt)
        assert repr(atom) == repr(expected)
        shapes.add(type(atom.term) if not isinstance(atom.term, Sum) else len(atom.term.items))
    # the draw reaches a zero term, a lone term and sums of several items
    assert {IntConst, Len, IntVar, 1, 2, 3} <= shapes


def test_cancelling_terms_keep_the_order_of_sum_of():
    # X cancels inside the inner sum, so the outer one meets it after n
    text = "(<= (+ (+ (str.len X) (* -1 (str.len X)) n) (str.len X)) 0)"
    atom = parse_problem(HEADER + f"(assert {text})\n").asserts[0]
    assert atom.term == Sum(((1, IntVar("n")), (1, Len(Var("X")))))
    assert atom == sum_of_len_leq(
        sum_of((1, sum_of((1, Len(Var("X"))), (-1, Len(Var("X"))), (1, IntVar("n")))), (1, Len(Var("X")))),
        IntConst(0),
    )


BIG = 2**63 - 1


def test_length_range_errors_are_raised_at_the_atom():
    rng = random.Random(3502)
    for _ in range(300):
        (lt, _), (rt, _) = _len_term(rng, 2), _len_term(rng, 2)
        for atom, message in (
            (f"(<= (+ {lt} (* {BIG} (+ 5 5))) {rt})", "length bound outside the 64-bit range"),
            (f"(<= {lt} (+ {rt} (* {BIG} (+ -5 -5))))", "length bound outside the 64-bit range"),
            (f"(<= (+ {lt} (* {BIG} (+ n n))) {rt})", "length coefficient outside the 64-bit range"),
            (f"(<= {lt} (+ {rt} (* {BIG} (+ m m))))", "length coefficient outside the 64-bit range"),
        ):
            with pytest.raises(ParseError) as e:
                parse_problem(HEADER + f"(assert {atom})\n")
            assert type(e.value) is ParseError
            assert str(e.value) == f"line 6, column 9: {message}"


# ---------------------------------------------------------------------------
# reused leaves


def _error(text: str) -> tuple[type, int, int, str]:
    with pytest.raises(ParseError) as e:
        parse_problem(HEADER + text)
    return type(e.value), e.value.line, e.value.col, str(e.value).split(": ", 1)[1]


# Each row puts a leaf on line 7 and again on line 8.
REUSED = [
    ("(= X Z)", "(= Y Z)", (UndeclaredVariable, 7, 6, "undeclared variable Z")),
    ('(= X "ac")', '(= Y "ac")', (UnknownLetter, 7, 6, "letter 'c' is not in the alphabet")),
    ("(<= Z 3)", "(<= Z 3)", (UndeclaredVariable, 7, 5, "undeclared variable Z")),
    ("(= X Y)", "(<= X 3)", (SortError, 8, 5, "X is a String variable, not an Int")),
    ("(<= (str.len X) 3)", "(<= (+ X 1) 3)", (SortError, 8, 8, "X is a String variable, not an Int")),
    ("(<= n 3)", "(= X n)", (SortError, 8, 6, "n is an Int variable, not a String")),
    ("(<= n 3)", "(= X 3)", (SortError, 8, 6, "expected a string term")),
    ('(= X "ab")', '(<= "ab" 3)', (SortError, 8, 5, "expected an integer term")),
]


@pytest.mark.parametrize("first, second, error", REUSED, ids=[r[2][3] + " " + r[1] for r in REUSED])
def test_reused_leaves_hide_no_error(first, second, error):
    assert _error(f"(assert (and\n{first}\n{second}))\n") == error


def test_a_name_read_before_its_declaration_is_undeclared():
    assert _error("(assert (= X Q))\n(declare-const Q String)\n(assert (= Y Q))\n") == (
        UndeclaredVariable, 6, 14, "undeclared variable Q"
    )
    # leaves are kept per text: Q read in one text is unknown to the next
    parse_problem(HEADER + "(declare-const Q String)\n(assert (= X Q))\n")
    assert _error("(assert (= X Q))\n") == (UndeclaredVariable, 6, 14, "undeclared variable Q")


# ---------------------------------------------------------------------------
# machine files: only a newline starts a line

BREAKS = ["\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("brk", BREAKS, ids=[f"U+{ord(b):04X}" for b in BREAKS])
def test_only_a_newline_starts_a_machine_line(brk):
    text = f"states: q0 qf{brk}input-alphabet: a\ninitial: q0\nfinal: qf\nbogus line here\n"
    with pytest.raises(ParseError) as e:
        parse_2cm(text)
    assert str(e.value) == "line 4, column 1: expected a header or a rule"


CRLF_MACHINE = "states: q0 qf\r\ninput-alphabet: a\r\ninitial: q0\r\nfinal: qf\r\nq0 a Z Z -> qf in R\r\n"


def test_crlf_machine_files_keep_their_line_numbers():
    assert parse_2cm(CRLF_MACHINE) == parse_2cm(CRLF_MACHINE.replace("\r\n", "\n"))
    for tail, line, message in (
        ("q0 a Z Z -> q0 in L\r\n", 6, "duplicate rule for ('q0', 'a', 'Z', 'Z')"),
        ("\r\n# a comment\r\nx: y\r\n", 8, "unknown header 'x'"),
        ("\r\nq0 b Z Z -> qf in R\r\n", 7, "rule letter 'b' is not in the input alphabet"),
    ):
        with pytest.raises(ParseError) as e:
            parse_2cm(CRLF_MACHINE + tail)
        assert str(e.value) == f"line {line}, column 1: {message}"
