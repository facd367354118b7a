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

The tokens are parentheses, string literals (no newline inside), integer
literals (ASCII digits with an optional leading ``-``, in the 64-bit
range) and symbols; whitespace and ``;`` comments separate them.  One
compiled pattern returns them as strings, and the tree, read whole before
any directive, holds their indices: a list is ``[k, item, ...]`` whose
``(`` is token k.  Positions are computed only for an error, from the
token's offset, when the tokens are walked once more; that walk raises
the text's first token error instead, if it has one.  A length atom
``(<= l r)`` is read as ``l - r <= 0`` with its constants moved into the
bound.

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

from .errors import LetterOutsideAlphabet, NondeterministicDelta, WordeqError
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
    record,
    setfield,
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


class DuplicateRule(ParseError, NondeterministicDelta):
    """A machine file gives two rules for one (state, letter, zero-tests) key."""


# ---------------------------------------------------------------------------
# tokens and the tree


# The tokens as strings: a string literal keeps its quotes, an unterminated
# one is a lone '"', a comment is '', and whitespace matches none.
_TOKEN_TEXT = re.compile(r';[^\n]*|([()]|"[^"\n]*"|"|[^\s()";]+)')
_INT = re.compile(r"-?[0-9]+")


def _error(text: str, k: int | None, message: str, cls: type = ParseError) -> ParseError:
    """``cls(message)`` at token k, or at (1, 1) when k is None.  The reader
    checks every token, so a text with a token error (a lone ``"``, or an
    integer outside the 64-bit range) fails some check and gets here, where
    the text's first token error is raised instead."""
    starts = []
    for m in _TOKEN_TEXT.finditer(text):
        t = m.group(1)
        if t is None:  # a comment
            continue
        if t == '"':
            raise ParseError("unterminated string literal", *_position(text, m.start()))
        if _INT.fullmatch(t) and _int64(t) is None:
            raise ParseError(
                "integer literal outside the 64-bit range", *_position(text, m.start())
            )
        starts.append(m.start())
    return cls(message, *((1, 1) if k is None else _position(text, starts[k])))


def _int64(t: str) -> int | None:
    """An integer literal's value, or None outside the 64-bit range.  Only
    its significant digits are converted, and only up to 19 of them:
    Python refuses to convert thousands."""
    digits = t.lstrip("-").lstrip("0")
    if len(digits) > 19:
        return None
    v = int(digits or "0") * (-1 if t[0] == "-" else 1)
    return v if INT64_MIN <= v <= INT64_MAX else None


def _position(text: str, offset: int) -> tuple[int, int]:
    """The line and column of an offset: only a newline starts a line."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _symbol(t: str | None) -> str | None:
    """The token, when it is a symbol."""
    return None if t is None or t[0] == '"' or _INT.fullmatch(t) else t


Item = int | list  # a token's index, or [index of "(", item, ...]


def _tree(text: str, toks: list[str]) -> list[Item]:
    out: list[Item] = []
    items = out
    outer: list[list[Item]] = []  # the lists around each open list
    for k, t in enumerate(toks):
        if t == "(":
            if len(outer) >= MAX_DEPTH:
                raise _error(text, k, f"nesting deeper than {MAX_DEPTH}")
            outer.append(items)
            items = [k]
        elif t == ")":
            if not outer:
                raise _error(text, k, "unexpected closing parenthesis")
            outer[-1].append(items)
            items = outer.pop()
        else:
            items.append(k)
    if outer:
        raise _error(text, items[0], "unclosed parenthesis")
    return out


# ---------------------------------------------------------------------------
# problems


@record
class Problem:
    def __init__(
        self,
        alphabet: str,
        str_vars: tuple[str, ...],
        int_vars: tuple[str, ...],
        asserts: tuple[Formula, ...],
        check_sat: bool,
        get_model: bool,
    ) -> None:
        setfield(self, "alphabet", alphabet)
        setfield(self, "str_vars", str_vars)
        setfield(self, "int_vars", int_vars)
        setfield(self, "asserts", asserts)
        setfield(self, "check_sat", check_sat)
        setfield(self, "get_model", get_model)

    def __hash__(self) -> int:
        return hash(
            (self.alphabet, self.str_vars, self.int_vars, self.asserts, self.check_sat, self.get_model)
        )

    def conjunction(self) -> Formula | None:
        return conj(*self.asserts) if self.asserts else None


class _ProblemReader:
    def __init__(self, text: str, toks: list[str]) -> None:
        self.text = text
        self.toks = toks
        self.alphabet: str | None = None
        self.letters: frozenset[str] = frozenset()
        self.sorts: dict[str, str] = {}  # each declared name's sort, in order
        self.asserts: list[Formula] = []
        self.flags: set[str] = set()  # "check-sat", "get-model"

    def fail(self, e: Item, message: str, cls: type = ParseError) -> ParseError:
        return _error(self.text, e if type(e) is int else e[0], message, cls)

    def atom(self, e: Item) -> str | None:
        return self.toks[e] if type(e) is int else None

    def head(self, e: list) -> str | None:
        return self.atom(e[1]) if len(e) > 1 else None

    def some(self, e: list, head: str) -> list[Item]:
        if len(e) < 3:
            raise self.fail(e, f"{head} needs at least one argument")
        return e[2:]

    def string(self, e: Item) -> str | None:
        """The letters of a string literal, or None for any other item."""
        t = self.atom(e)
        return t[1:-1] if t is not None and t[0] == '"' and len(t) > 1 else None

    def integer(self, k: int) -> int:
        v = _int64(self.toks[k])
        if v is None:
            raise self.fail(k, "integer literal outside the 64-bit range")
        return v

    # -- terms ------------------------------------------------------------

    def check_word(self, word: str, e: Item) -> str:
        if not self.letters.issuperset(word):
            bad = set(word) - self.letters
            raise self.fail(e, f"letter {min(bad)!r} is not in the alphabet", UnknownLetter)
        return word

    def str_term(self, e: Item) -> StrTerm:
        if type(e) is int:
            t = self.toks[e]
            sort = self.sorts.get(t)
            if sort == "String":
                return Var(t)
            word = self.string(e)
            if word is not None:
                return Lit(self.check_word(word, e))
            if sort == "Int":
                raise self.fail(e, f"{t} is an Int variable, not a String", SortError)
            if _symbol(t) is None:
                raise self.fail(e, "expected a string term", SortError)
            raise self.fail(e, f"undeclared variable {t}", UndeclaredVariable)
        if self.head(e) == "str.++":
            return concat(*(self.str_term(x) for x in self.some(e, "str.++")))
        raise self.fail(e, "expected a string term", SortError)

    def len_term(self, e: Item) -> LenTerm:
        if type(e) is int:
            t = self.toks[e]
            sort = self.sorts.get(t)
            if sort == "Int":
                return IntVar(t)
            if _INT.fullmatch(t):
                return IntConst(self.integer(e))
            if sort == "String":
                raise self.fail(e, f"{t} is a String variable, not an Int", SortError)
            if t[0] == '"':
                raise self.fail(e, "expected an integer term", SortError)
            raise self.fail(e, f"undeclared variable {t}", UndeclaredVariable)
        head = self.head(e)
        if head == "str.len":
            if len(e) != 3:
                raise self.fail(e, "str.len needs exactly one argument")
            return Len(self.str_term(e[2]))
        if head == "+":
            return sum_of(*((1, self.len_term(x)) for x in self.some(e, "+")))
        if head == "*":
            if len(e) != 4:
                raise self.fail(e, "* needs a coefficient and a term")
            if not _INT.fullmatch(self.atom(e[2]) or ""):
                raise self.fail(e, "the coefficient of * must be an integer literal", SortError)
            return sum_of((self.integer(e[2]), self.len_term(e[3])))
        raise self.fail(e, "expected an integer term", SortError)

    def regex(self, e: Item) -> Regex:
        if type(e) is int:
            if self.toks[e] == "re.epsilon":
                return re_lit("")
            raise self.fail(e, "expected a regular expression", SortError)
        head = self.head(e)
        if head == "str.to.re":
            word = self.string(e[2]) if len(e) == 3 else None
            if word is None:
                raise self.fail(e, "str.to.re needs one string literal")
            return re_lit(self.check_word(word, e[2]))
        if head == "re.++" or head == "re.union":
            parts = [self.regex(x) for x in self.some(e, head)]
            return re_seq(*parts) if head == "re.++" else re_alt(*parts)
        if head == "re.*":
            if len(e) != 3:
                raise self.fail(e, "re.* needs exactly one argument")
            return re_star(self.regex(e[2]))
        raise self.fail(e, "expected a regular expression", SortError)

    # -- formulas ----------------------------------------------------------

    def formula(self, e: Item) -> Formula:
        if type(e) is int:
            raise self.fail(e, "expected a formula")
        head = self.head(e)
        if head == "=":
            if len(e) != 4:
                raise self.fail(e, "= needs exactly two arguments")
            return WordEq(self.str_term(e[2]), self.str_term(e[3]))
        if head == "<=":
            if len(e) != 4:
                raise self.fail(e, "<= needs exactly two arguments")
            diff = sum_of((1, self.len_term(e[2])), (-1, self.len_term(e[3])))
            items = diff.items if isinstance(diff, Sum) else ((1, diff),)
            bound = -sum(c * t.value for c, t in items if isinstance(t, IntConst))
            if not (INT64_MIN <= bound <= INT64_MAX):
                raise self.fail(e, "length bound outside the 64-bit range")
            terms = [i for i in items if not isinstance(i[1], IntConst)]
            if not all(INT64_MIN <= c <= INT64_MAX for c, _ in terms):
                raise self.fail(e, "length coefficient outside the 64-bit range")
            return LenLeq(sum_of(*terms), bound)
        if head == "str.in.re":
            if len(e) != 4:
                raise self.fail(e, "str.in.re needs a term and a regex")
            return InRe(self.str_term(e[2]), self.regex(e[3]))
        if head == "and" or head == "or":
            parts = [self.formula(x) for x in self.some(e, head)]
            return conj(*parts) if head == "and" else disj(*parts)
        if head == "not":
            if len(e) != 3:
                raise self.fail(e, "not needs exactly one argument")
            return Not(self.formula(e[2]))
        if _symbol(head) is None:
            raise self.fail(e, "expected a formula")
        raise self.fail(e, f"unknown formula head {head!r}")

    # -- directives ---------------------------------------------------------

    def directive(self, e: Item) -> None:
        head = None if type(e) is int else self.head(e)
        if head == "set-alphabet":
            letters = self.string(e[2]) if len(e) == 3 else None
            if letters is None:
                raise self.fail(e, "set-alphabet needs one string literal")
            if self.alphabet is not None:
                raise self.fail(e, "the alphabet is already set")
            if len(set(letters)) != len(letters):
                raise self.fail(e, "alphabet letters must be distinct")
            self.alphabet = letters
            self.letters = frozenset(letters)
            return
        if head == "declare-const":
            name, sort = (_symbol(self.atom(x)) for x in e[2:4]) if len(e) == 4 else (None, None)
            if name is None or sort is None:
                raise self.fail(e, "declare-const needs a name and a sort")
            if name in self.sorts:
                raise self.fail(e, f"{name} is already declared")
            if sort == "String" and self.alphabet is None:
                raise self.fail(e, "set-alphabet must come before String declarations")
            if sort != "String" and sort != "Int":
                raise self.fail(e, f"unknown sort {sort}", SortError)
            self.sorts[name] = sort
            return
        if head == "assert":
            if len(e) != 3:
                raise self.fail(e, "assert needs exactly one formula")
            if self.alphabet is None:
                raise self.fail(e, "set-alphabet must come before assertions")
            self.asserts.append(self.formula(e[2]))
            return
        if head == "check-sat" or head == "get-model":
            if len(e) != 2:
                raise self.fail(e, f"{head} takes no arguments")
            self.flags.add(head)
            return
        if _symbol(head) is None:
            raise self.fail(e, "expected a directive")
        raise self.fail(e, f"unknown directive {head!r}")


def parse_problem(text: str) -> Problem:
    toks = _TOKEN_TEXT.findall(text)
    if ";" in text:
        toks = [t for t in toks if t]  # drop the comments
    reader = _ProblemReader(text, toks)
    for e in _tree(text, toks):
        reader.directive(e)
    if reader.alphabet is None:
        raise _error(text, None, "the file never sets an alphabet")
    return Problem(
        alphabet=reader.alphabet,
        str_vars=tuple(n for n, sort in reader.sorts.items() if sort == "String"),
        int_vars=tuple(n for n, sort in reader.sorts.items() if sort == "Int"),
        asserts=tuple(reader.asserts),
        check_sat="check-sat" in reader.flags,
        get_model="get-model" in reader.flags,
    )


# ---------------------------------------------------------------------------
# machine files


def parse_2cm(text: str):
    """Parse the line-based two-counter machine format."""
    from .twocounter import MalformedMachine, TwoCounterMachine

    headers: dict[str, tuple[str, ...] | None] = dict.fromkeys(
        ("states", "input-alphabet", "initial", "final")
    )
    rules: dict[tuple[str, ...], tuple[str, ...]] = {}
    # the line of each header and rule, to place a MalformedMachine
    where: dict[str | tuple[str, ...], int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" in line and "->" not in line:
            key, _, rest = line.partition(":")
            key = key.strip()
            if key not in headers:
                raise ParseError(f"unknown header {key!r}", lineno, 1)
            if headers[key] is not None:
                raise ParseError(f"{key} given twice", lineno, 1)
            values = tuple(rest.split())
            if key == "initial" and len(values) != 1:
                raise ParseError("initial needs exactly one state", lineno, 1)
            headers[key] = values
            where[key] = lineno
            continue
        if "->" not in line:
            raise ParseError("expected a header or a rule", lineno, 1)
        lhs, _, rhs = line.partition("->")
        left, right = lhs.split(), rhs.split()
        if len(left) != 4 or len(right) != 3:
            shape = "state letter Z|b Z|c -> state in|stor1|stor2 L|R"
            raise ParseError(f"rules look like: {shape}", lineno, 1)
        key4 = tuple(left)
        if key4 in rules:
            raise DuplicateRule(f"duplicate rule for {key4}", lineno, 1)
        rules[key4] = tuple(right)
        where[key4] = lineno

    for name, val in headers.items():
        if val is None:
            raise ParseError(f"missing header {name!r}", 1, 1)
    states, alphabet, (initial,), finals = headers.values()
    try:
        return TwoCounterMachine(
            states=states,
            input_alphabet=alphabet,
            initial=initial,
            finals=frozenset(finals),
            rules=tuple(rules.items()),
        )
    except MalformedMachine as exc:
        raise ParseError(str(exc), where.get(exc.at, 1), 1) from None
