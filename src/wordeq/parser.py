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

Machine files are line based::

    states: q0 qf
    input-alphabet: a
    initial: q0
    final: qf
    q0 a Z Z -> qf in R

All parse failures carry a line and column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

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


@dataclass(frozen=True)
class Token:
    kind: str  # "(", ")", "int", "string", "symbol"
    value: str
    line: int
    col: int


_SPECIAL = set('()";')


def tokenize(text: str) -> Iterator[Token]:
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch.isspace():
            col += 1
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            yield Token(ch, ch, line, col)
            col += 1
            i += 1
        elif ch == '"':
            start_line, start_col = line, col
            j = i + 1
            while j < n and text[j] not in '"\n':
                j += 1
            if j >= n or text[j] == "\n":
                raise ParseError("unterminated string literal", start_line, start_col)
            yield Token("string", text[i + 1 : j], start_line, start_col)
            col += j - i + 1
            i = j + 1
        else:
            start_col = col
            j = i
            while j < n and not text[j].isspace() and text[j] not in _SPECIAL:
                j += 1
            word = text[i:j]
            kind = "symbol"
            if word.lstrip("-").isdigit() and word.count("-") <= 1 and not word.startswith("--"):
                kind = "int"
                value = int(word)
                if not INT64_MIN <= value <= INT64_MAX:
                    raise ParseError("integer literal outside the 64-bit range", line, start_col)
            yield Token(kind, word, line, start_col)
            col += j - i
            i = j


@dataclass(frozen=True)
class SAtom:
    token: Token


@dataclass(frozen=True)
class SList:
    items: tuple["SExpr", ...]
    line: int
    col: int


SExpr = SAtom | SList


def read_sexprs(text: str) -> list[SExpr]:
    tokens = list(tokenize(text))
    pos = 0

    def read_one(depth: int) -> SExpr:
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok.kind == "(":
            if depth >= MAX_DEPTH:
                raise ParseError(f"nesting deeper than {MAX_DEPTH}", tok.line, tok.col)
            items: list[SExpr] = []
            while True:
                if pos >= len(tokens):
                    raise ParseError("unclosed parenthesis", tok.line, tok.col)
                if tokens[pos].kind == ")":
                    pos += 1
                    return SList(tuple(items), tok.line, tok.col)
                items.append(read_one(depth + 1))
        if tok.kind == ")":
            raise ParseError("unexpected closing parenthesis", tok.line, tok.col)
        return SAtom(tok)

    out: list[SExpr] = []
    while pos < len(tokens):
        out.append(read_one(0))
    return out


def _where(e: SExpr) -> tuple[int, int]:
    if isinstance(e, SAtom):
        return e.token.line, e.token.col
    return e.line, e.col


def _head(e: SList) -> str | None:
    if e.items and isinstance(e.items[0], SAtom) and e.items[0].token.kind == "symbol":
        return e.items[0].token.value
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
            raise UnknownLetter(
                f"letter {min(bad)!r} is not in the alphabet", *_where(e)
            )
        return word

    def str_term(self, e: SExpr) -> StrTerm:
        if isinstance(e, SAtom):
            tok = e.token
            if tok.kind == "string":
                return Lit(self.check_word(tok.value, e))
            if tok.kind == "symbol":
                if tok.value in self.str_vars:
                    return Var(tok.value)
                if tok.value in self.int_vars:
                    raise SortError(
                        f"{tok.value} is an Int variable, not a String", *_where(e)
                    )
                raise UndeclaredVariable(f"undeclared variable {tok.value}", *_where(e))
            raise SortError("expected a string term", *_where(e))
        if _head(e) == "str.++":
            if len(e.items) < 2:
                raise ParseError("str.++ needs at least one argument", *_where(e))
            return concat(*(self.str_term(x) for x in e.items[1:]))
        raise SortError("expected a string term", *_where(e))

    def len_term(self, e: SExpr) -> LenTerm:
        if isinstance(e, SAtom):
            tok = e.token
            if tok.kind == "int":
                return IntConst(int(tok.value))
            if tok.kind == "symbol":
                if tok.value in self.int_vars:
                    return IntVar(tok.value)
                if tok.value in self.str_vars:
                    raise SortError(
                        f"{tok.value} is a String variable, not an Int", *_where(e)
                    )
                raise UndeclaredVariable(f"undeclared variable {tok.value}", *_where(e))
            raise SortError("expected an integer term", *_where(e))
        head = _head(e)
        if head == "str.len":
            if len(e.items) != 2:
                raise ParseError("str.len needs exactly one argument", *_where(e))
            return Len(self.str_term(e.items[1]))
        if head == "+":
            if len(e.items) < 2:
                raise ParseError("+ needs at least one argument", *_where(e))
            return sum_of(*((1, self.len_term(x)) for x in e.items[1:]))
        if head == "*":
            if len(e.items) != 3:
                raise ParseError("* needs a coefficient and a term", *_where(e))
            c = e.items[1]
            if not (isinstance(c, SAtom) and c.token.kind == "int"):
                raise SortError("the coefficient of * must be an integer literal", *_where(e))
            return sum_of((int(c.token.value), self.len_term(e.items[2])))
        raise SortError("expected an integer term", *_where(e))

    def regex(self, e: SExpr) -> Regex:
        if isinstance(e, SAtom):
            if e.token.kind == "symbol" and e.token.value == "re.epsilon":
                return re_lit("")
            raise SortError("expected a regular expression", *_where(e))
        head = _head(e)
        if head == "str.to.re":
            if len(e.items) != 2 or not (
                isinstance(e.items[1], SAtom) and e.items[1].token.kind == "string"
            ):
                raise ParseError("str.to.re needs one string literal", *_where(e))
            return re_lit(self.check_word(e.items[1].token.value, e.items[1]))
        if head == "re.++":
            if len(e.items) < 2:
                raise ParseError("re.++ needs at least one argument", *_where(e))
            return re_seq(*(self.regex(x) for x in e.items[1:]))
        if head == "re.union":
            if len(e.items) < 2:
                raise ParseError("re.union needs at least one argument", *_where(e))
            return re_alt(*(self.regex(x) for x in e.items[1:]))
        if head == "re.*":
            if len(e.items) != 2:
                raise ParseError("re.* needs exactly one argument", *_where(e))
            return re_star(self.regex(e.items[1]))
        raise SortError("expected a regular expression", *_where(e))

    # -- formulas ----------------------------------------------------------

    def _linear(self, t: LenTerm) -> tuple[dict[LenTerm, int], int]:
        """Split a length term into variable items (in first-seen order)
        and a constant."""
        if isinstance(t, IntConst):
            return {}, t.value
        if isinstance(t, (IntVar, Len)):
            return {t: 1}, 0
        items: dict[LenTerm, int] = {}
        const = 0
        for c, sub in t.items:
            sub_items, sub_const = self._linear(sub)
            const += c * sub_const
            for k, v in sub_items.items():
                items[k] = items.get(k, 0) + c * v
        return items, const

    def formula(self, e: SExpr) -> Formula:
        if not isinstance(e, SList):
            raise ParseError("expected a formula", *_where(e))
        head = _head(e)
        if head == "=":
            if len(e.items) != 3:
                raise ParseError("= needs exactly two arguments", *_where(e))
            return WordEq(self.str_term(e.items[1]), self.str_term(e.items[2]))
        if head == "<=":
            if len(e.items) != 3:
                raise ParseError("<= needs exactly two arguments", *_where(e))
            li, lc = self._linear(self.len_term(e.items[1]))
            ri, rc = self._linear(self.len_term(e.items[2]))
            for k, v in ri.items():
                li[k] = li.get(k, 0) - v
            term = sum_of(*((c, k) for k, c in li.items()))
            bound = rc - lc
            if not (INT64_MIN <= bound <= INT64_MAX):
                raise ParseError("length bound outside the 64-bit range", *_where(e))
            return LenLeq(term, bound)
        if head == "str.in.re":
            if len(e.items) != 3:
                raise ParseError("str.in.re needs a term and a regex", *_where(e))
            return InRe(self.str_term(e.items[1]), self.regex(e.items[2]))
        if head in ("and", "or"):
            if len(e.items) < 2:
                raise ParseError(f"{head} needs at least one argument", *_where(e))
            parts = [self.formula(x) for x in e.items[1:]]
            return conj(*parts) if head == "and" else disj(*parts)
        if head == "not":
            if len(e.items) != 2:
                raise ParseError("not needs exactly one argument", *_where(e))
            return Not(self.formula(e.items[1]))
        raise ParseError(f"unknown formula head {head!r}", *_where(e))

    # -- directives ---------------------------------------------------------

    def directive(self, e: SExpr) -> None:
        if not isinstance(e, SList) or _head(e) is None:
            raise ParseError("expected a directive", *_where(e))
        head = _head(e)
        if head == "set-alphabet":
            if len(e.items) != 2 or not (
                isinstance(e.items[1], SAtom) and e.items[1].token.kind == "string"
            ):
                raise ParseError("set-alphabet needs one string literal", *_where(e))
            if self.alphabet is not None:
                raise ParseError("the alphabet is already set", *_where(e))
            letters = e.items[1].token.value
            if len(set(letters)) != len(letters):
                raise ParseError("alphabet letters must be distinct", *_where(e))
            self.alphabet = letters
            return
        if head == "declare-const":
            if (
                len(e.items) != 3
                or not isinstance(e.items[1], SAtom)
                or e.items[1].token.kind != "symbol"
                or not isinstance(e.items[2], SAtom)
            ):
                raise ParseError("declare-const needs a name and a sort", *_where(e))
            name = e.items[1].token.value
            sort = e.items[2].token.value
            if name in self.str_vars or name in self.int_vars:
                raise ParseError(f"{name} is already declared", *_where(e))
            if sort == "String":
                if self.alphabet is None:
                    raise ParseError(
                        "set-alphabet must come before String declarations", *_where(e)
                    )
                self.str_vars.append(name)
            elif sort == "Int":
                self.int_vars.append(name)
            else:
                raise SortError(f"unknown sort {sort}", *_where(e))
            return
        if head == "assert":
            if len(e.items) != 2:
                raise ParseError("assert needs exactly one formula", *_where(e))
            if self.alphabet is None:
                raise ParseError("set-alphabet must come before assertions", *_where(e))
            self.asserts.append(self.formula(e.items[1]))
            return
        if head == "check-sat":
            if len(e.items) != 1:
                raise ParseError("check-sat takes no arguments", *_where(e))
            self.check_sat = True
            return
        if head == "get-model":
            if len(e.items) != 1:
                raise ParseError("get-model takes no arguments", *_where(e))
            self.get_model = True
            return
        raise ParseError(f"unknown directive {head!r}", *_where(e))


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
