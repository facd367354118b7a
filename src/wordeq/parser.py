"""Surface syntax.

Problem files are s-expressions::

    ; word equations with length and membership constraints
    (set-alphabet "ab")
    (declare-const X String)
    (declare-const n Int)
    (assert (= (str.++ "a" X) (str.++ X "a")))
    (assert (<= (str.len X) 3))
    (assert (str.in.re X (re.* (str.to.re "a"))))
    (check-sat)
    (get-model)

One compiled pattern splits the text into tokens: parentheses, string
literals (no newline inside), integer literals (ASCII digits with an
optional leading ``-``, in the 64-bit range) and symbols; whitespace and
``;`` comments separate them.  The whole text is tokenized before the
tree is read, and the tokens themselves are the tree's atoms.  A length
atom ``(<= l r)`` is read as ``l - r <= 0`` with its constants moved into
the bound.

Machine files are line based::

    states: q0 qf
    input-alphabet: a
    initial: q0
    final: qf
    q0 a Z Z -> qf in R

All parse failures carry a line and a column.  Only a newline character
starts a new line, and columns count characters from 1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .errors import LetterOutsideAlphabet, WordeqError
from .terms import (
    Formula,
    InRe,
    IntConst,
    IntVar,
    Len,
    LenLeq,
    LenTerm,
    Lit,
    Regex,
    StrTerm,
    Sum,
    Var,
    WordEq,
    concat,
    conj,
    disj,
    re_alt,
    re_lit,
    re_seq,
    re_star,
    sum_of,
    Not,
)

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

# The deepest parenthesis nesting read.  The parser and the layers behind
# it (normalization, evaluation, printing) recurse once per level, so
# deeper input is a ParseError rather than a crash.
MAX_DEPTH = 256


class ParseError(WordeqError):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class SortError(ParseError):
    """A term of the wrong sort appeared where a string or integer was needed."""


class UndeclaredVariable(ParseError):
    pass


class UnknownLetter(ParseError, LetterOutsideAlphabet):
    """A word or regex literal mentions a letter outside the alphabet."""


# ---------------------------------------------------------------------------
# tokens and s-expressions


class Token(NamedTuple):
    kind: str  # "(", ")", "int", "string", "symbol"
    value: str
    line: int
    col: int


# Some alternative matches at every position, so finditer skips no
# character.  The unnamed alternatives are whitespace and comments.
_TOKEN = re.compile(
    r'(?P<newline>\n)|[^\S\n]+|;[^\n]*|(?P<paren>[()])'
    r'|"(?P<string>[^"\n]*)"|(?P<unterminated>")'
    r'|(?P<int>-?[0-9]+(?![^\s()";]))|(?P<symbol>[^\s()";]+)'
)


def tokenize(text: str) -> Iterator[Token]:
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "newline":
            line, line_start = line + 1, m.end()
            continue
        col = m.start() - line_start + 1
        value = m.group(kind)
        if kind == "paren":
            kind = value
        elif kind == "unterminated":
            raise ParseError("unterminated string literal", line, col)
        elif kind == "int" and not INT64_MIN <= int(value) <= INT64_MAX:
            raise ParseError("integer literal outside the 64-bit range", line, col)
        yield Token(kind, value, line, col)


class SList(NamedTuple):
    items: tuple["SExpr", ...]
    line: int
    col: int


SExpr = Token | SList


def read_sexprs(text: str) -> list[SExpr]:
    tokens = list(tokenize(text))
    out: list[SExpr] = []
    items = out
    # the "(" of each open list, with the items of the list around it
    open_lists: list[tuple[Token, list[SExpr]]] = []
    for tok in tokens:
        if tok.kind == "(":
            if len(open_lists) >= MAX_DEPTH:
                raise ParseError(f"nesting deeper than {MAX_DEPTH}", tok.line, tok.col)
            open_lists.append((tok, items))
            items = []
        elif tok.kind == ")":
            if not open_lists:
                raise ParseError("unexpected closing parenthesis", tok.line, tok.col)
            opening, outer = open_lists.pop()
            outer.append(SList(tuple(items), opening.line, opening.col))
            items = outer
        else:
            items.append(tok)
    if open_lists:
        opening = open_lists[-1][0]
        raise ParseError("unclosed parenthesis", opening.line, opening.col)
    return out


def _head(e: SList) -> str | None:
    if e.items and isinstance(e.items[0], Token) and e.items[0].kind == "symbol":
        return e.items[0].value
    return None


# ---------------------------------------------------------------------------
# problems


@dataclass(frozen=True)
class Problem:
    alphabet: str
    str_vars: tuple[str, ...]
    int_vars: tuple[str, ...]
    asserts: tuple[Formula, ...]
    check_sat: bool
    get_model: bool

    def conjunction(self) -> Formula | None:
        if not self.asserts:
            return None
        return conj(*self.asserts)


class _ProblemReader:
    def __init__(self) -> None:
        self.alphabet: str | None = None
        self.str_vars: list[str] = []
        self.int_vars: list[str] = []
        self.asserts: list[Formula] = []
        self.check_sat = False
        self.get_model = False

    # -- terms ------------------------------------------------------------

    def check_word(self, word: str, e: SExpr) -> str:
        assert self.alphabet is not None
        bad = set(word) - set(self.alphabet)
        if bad:
            raise UnknownLetter(f"letter {min(bad)!r} is not in the alphabet", e.line, e.col)
        return word

    def str_term(self, e: SExpr) -> StrTerm:
        if isinstance(e, Token):
            if e.kind == "string":
                return Lit(self.check_word(e.value, e))
            if e.kind == "symbol":
                if e.value in self.str_vars:
                    return Var(e.value)
                if e.value in self.int_vars:
                    raise SortError(f"{e.value} is an Int variable, not a String", e.line, e.col)
                raise UndeclaredVariable(f"undeclared variable {e.value}", e.line, e.col)
            raise SortError("expected a string term", e.line, e.col)
        if _head(e) == "str.++":
            if len(e.items) < 2:
                raise ParseError("str.++ needs at least one argument", e.line, e.col)
            return concat(*(self.str_term(x) for x in e.items[1:]))
        raise SortError("expected a string term", e.line, e.col)

    def len_term(self, e: SExpr) -> LenTerm:
        if isinstance(e, Token):
            if e.kind == "int":
                return IntConst(int(e.value))
            if e.kind == "symbol":
                if e.value in self.int_vars:
                    return IntVar(e.value)
                if e.value in self.str_vars:
                    raise SortError(f"{e.value} is a String variable, not an Int", e.line, e.col)
                raise UndeclaredVariable(f"undeclared variable {e.value}", e.line, e.col)
            raise SortError("expected an integer term", e.line, e.col)
        head = _head(e)
        if head == "str.len":
            if len(e.items) != 2:
                raise ParseError("str.len needs exactly one argument", e.line, e.col)
            return Len(self.str_term(e.items[1]))
        if head == "+":
            if len(e.items) < 2:
                raise ParseError("+ needs at least one argument", e.line, e.col)
            return sum_of(*((1, self.len_term(x)) for x in e.items[1:]))
        if head == "*":
            if len(e.items) != 3:
                raise ParseError("* needs a coefficient and a term", e.line, e.col)
            c = e.items[1]
            if not (isinstance(c, Token) and c.kind == "int"):
                raise SortError("the coefficient of * must be an integer literal", e.line, e.col)
            return sum_of((int(c.value), self.len_term(e.items[2])))
        raise SortError("expected an integer term", e.line, e.col)

    def regex(self, e: SExpr) -> Regex:
        if isinstance(e, Token):
            if e.kind == "symbol" and e.value == "re.epsilon":
                return re_lit("")
            raise SortError("expected a regular expression", e.line, e.col)
        head = _head(e)
        if head == "str.to.re":
            if len(e.items) != 2 or not (
                isinstance(e.items[1], Token) and e.items[1].kind == "string"
            ):
                raise ParseError("str.to.re needs one string literal", e.line, e.col)
            return re_lit(self.check_word(e.items[1].value, e.items[1]))
        if head == "re.++":
            if len(e.items) < 2:
                raise ParseError("re.++ needs at least one argument", e.line, e.col)
            return re_seq(*(self.regex(x) for x in e.items[1:]))
        if head == "re.union":
            if len(e.items) < 2:
                raise ParseError("re.union needs at least one argument", e.line, e.col)
            return re_alt(*(self.regex(x) for x in e.items[1:]))
        if head == "re.*":
            if len(e.items) != 2:
                raise ParseError("re.* needs exactly one argument", e.line, e.col)
            return re_star(self.regex(e.items[1]))
        raise SortError("expected a regular expression", e.line, e.col)

    # -- formulas ----------------------------------------------------------

    def formula(self, e: SExpr) -> Formula:
        if not isinstance(e, SList):
            raise ParseError("expected a formula", e.line, e.col)
        head = _head(e)
        if head == "=":
            if len(e.items) != 3:
                raise ParseError("= needs exactly two arguments", e.line, e.col)
            return WordEq(self.str_term(e.items[1]), self.str_term(e.items[2]))
        if head == "<=":
            if len(e.items) != 3:
                raise ParseError("<= needs exactly two arguments", e.line, e.col)
            diff = sum_of((1, self.len_term(e.items[1])), (-1, self.len_term(e.items[2])))
            items = diff.items if isinstance(diff, Sum) else ((1, diff),)
            bound = -sum(c * t.value for c, t in items if isinstance(t, IntConst))
            if not (INT64_MIN <= bound <= INT64_MAX):
                raise ParseError("length bound outside the 64-bit range", e.line, e.col)
            terms = [i for i in items if not isinstance(i[1], IntConst)]
            if not all(INT64_MIN <= c <= INT64_MAX for c, _ in terms):
                raise ParseError("length coefficient outside the 64-bit range", e.line, e.col)
            return LenLeq(sum_of(*terms), bound)
        if head == "str.in.re":
            if len(e.items) != 3:
                raise ParseError("str.in.re needs a term and a regex", e.line, e.col)
            return InRe(self.str_term(e.items[1]), self.regex(e.items[2]))
        if head in ("and", "or"):
            if len(e.items) < 2:
                raise ParseError(f"{head} needs at least one argument", e.line, e.col)
            parts = [self.formula(x) for x in e.items[1:]]
            return conj(*parts) if head == "and" else disj(*parts)
        if head == "not":
            if len(e.items) != 2:
                raise ParseError("not needs exactly one argument", e.line, e.col)
            return Not(self.formula(e.items[1]))
        raise ParseError(f"unknown formula head {head!r}", e.line, e.col)

    # -- directives ---------------------------------------------------------

    def directive(self, e: SExpr) -> None:
        if not isinstance(e, SList) or _head(e) is None:
            raise ParseError("expected a directive", e.line, e.col)
        head = _head(e)
        if head == "set-alphabet":
            if len(e.items) != 2 or not (
                isinstance(e.items[1], Token) and e.items[1].kind == "string"
            ):
                raise ParseError("set-alphabet needs one string literal", e.line, e.col)
            if self.alphabet is not None:
                raise ParseError("the alphabet is already set", e.line, e.col)
            letters = e.items[1].value
            if len(set(letters)) != len(letters):
                raise ParseError("alphabet letters must be distinct", e.line, e.col)
            self.alphabet = letters
            return
        if head == "declare-const":
            if (
                len(e.items) != 3
                or not isinstance(e.items[1], Token)
                or e.items[1].kind != "symbol"
                or not isinstance(e.items[2], Token)
                or e.items[2].kind != "symbol"
            ):
                raise ParseError("declare-const needs a name and a sort", e.line, e.col)
            name = e.items[1].value
            sort = e.items[2].value
            if name in self.str_vars or name in self.int_vars:
                raise ParseError(f"{name} is already declared", e.line, e.col)
            if sort == "String":
                if self.alphabet is None:
                    raise ParseError(
                        "set-alphabet must come before String declarations", e.line, e.col
                    )
                self.str_vars.append(name)
            elif sort == "Int":
                self.int_vars.append(name)
            else:
                raise SortError(f"unknown sort {sort}", e.line, e.col)
            return
        if head == "assert":
            if len(e.items) != 2:
                raise ParseError("assert needs exactly one formula", e.line, e.col)
            if self.alphabet is None:
                raise ParseError("set-alphabet must come before assertions", e.line, e.col)
            self.asserts.append(self.formula(e.items[1]))
            return
        if head == "check-sat":
            if len(e.items) != 1:
                raise ParseError("check-sat takes no arguments", e.line, e.col)
            self.check_sat = True
            return
        if head == "get-model":
            if len(e.items) != 1:
                raise ParseError("get-model takes no arguments", e.line, e.col)
            self.get_model = True
            return
        raise ParseError(f"unknown directive {head!r}", e.line, e.col)


def parse_problem(text: str) -> Problem:
    reader = _ProblemReader()
    for e in read_sexprs(text):
        reader.directive(e)
    if reader.alphabet is None:
        raise ParseError("the file never sets an alphabet", 1, 1)
    return Problem(
        alphabet=reader.alphabet,
        str_vars=tuple(reader.str_vars),
        int_vars=tuple(reader.int_vars),
        asserts=tuple(reader.asserts),
        check_sat=reader.check_sat,
        get_model=reader.get_model,
    )


# ---------------------------------------------------------------------------
# machine files


def parse_2cm(text: str):
    """Parse the line-based two-counter machine format."""
    from .twocounter import MalformedMachine, NondeterministicDelta, TwoCounterMachine

    states: tuple[str, ...] | None = None
    alphabet: tuple[str, ...] | None = None
    initial: str | None = None
    finals: tuple[str, ...] | None = None
    rules: list = []
    rule_keys: set = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" in line and "->" not in line:
            key, _, rest = line.partition(":")
            key = key.strip()
            values = tuple(rest.split())
            if key == "states":
                if states is not None:
                    raise ParseError("states given twice", lineno, 1)
                if len(set(values)) != len(values) or not values:
                    raise ParseError("states must be distinct and nonempty", lineno, 1)
                states = values
            elif key == "input-alphabet":
                if alphabet is not None:
                    raise ParseError("input-alphabet given twice", lineno, 1)
                if len(set(values)) != len(values) or not values:
                    raise ParseError("letters must be distinct and nonempty", lineno, 1)
                if "end" in values:
                    raise ParseError("'end' is reserved", lineno, 1)
                alphabet = values
            elif key == "initial":
                if initial is not None:
                    raise ParseError("initial given twice", lineno, 1)
                if len(values) != 1:
                    raise ParseError("initial needs exactly one state", lineno, 1)
                initial = values[0]
            elif key == "final":
                if finals is not None:
                    raise ParseError("final given twice", lineno, 1)
                finals = values
            else:
                raise ParseError(f"unknown header {key!r}", lineno, 1)
            continue
        if "->" not in line:
            raise ParseError("expected a header or a rule", lineno, 1)
        lhs, _, rhs = line.partition("->")
        left = lhs.split()
        right = rhs.split()
        if len(left) != 4 or len(right) != 3:
            raise ParseError(
                "rules look like: state letter Z|b Z|c -> state in|stor1|stor2 L|R",
                lineno,
                1,
            )
        key4 = tuple(left)
        if key4 in rule_keys:
            raise NondeterministicDelta(f"line {lineno}: duplicate rule for {key4}")
        rule_keys.add(key4)
        rules.append((key4, tuple(right)))

    for name, val in (
        ("states", states),
        ("input-alphabet", alphabet),
        ("initial", initial),
        ("final", finals),
    ):
        if val is None:
            raise ParseError(f"missing header {name!r}", 1, 1)
    assert states and alphabet and initial is not None and finals is not None
    try:
        return TwoCounterMachine(
            states=states,
            input_alphabet=alphabet,
            initial=initial,
            finals=frozenset(finals),
            rules=tuple(rules),
        )
    except MalformedMachine as exc:
        raise ParseError(str(exc), 1, 1) from None
