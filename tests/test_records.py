"""The record contract (``terms.record``), checked on every record class
of the package, and the import-time guard that keeps record classes from
generating code at start-up."""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import wordeq
from helpers import updown_machine
from wordeq.automata import Dfa
from wordeq.corpus import CorpusStats, FileStats
from wordeq.lengths import LinVar, Row
from wordeq.normalize import Literal
from wordeq.oracle import NoModelUpTo, SatWith
from wordeq.paramwords import Const, Power, Unfixed
from wordeq.parser import Problem
from wordeq.semantics import Assignment
from wordeq.solved_form import OutOfFragment, SolvedForm, Unsat
from wordeq.solver import Sat, Unsupported
from wordeq.terms import (
    And,
    Concat,
    InRe,
    IntConst,
    IntVar,
    Len,
    LenLeq,
    Lit,
    Not,
    Or,
    ReConcat,
    ReEpsilon,
    ReLit,
    ReStar,
    ReUnion,
    Sum,
    Var,
    WordEq,
)
from wordeq.twocounter import (
    Accepted,
    Counterexample,
    MachineId,
    MalformedMachine,
    NoCounterexampleUpTo,
    NondeterministicDelta,
    Rejected,
    StillRunning,
    TwoCounterMachine,
    _Body,
    encode,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def record_classes() -> set[type]:
    """Every record class defined in a module of the package: those that
    share the record ``__setattr__``."""
    found = set()
    for info in pkgutil.iter_modules(wordeq.__path__, "wordeq."):
        if info.name == "wordeq.__main__":  # runs the command line
            continue
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if (
                isinstance(obj, type)
                and obj.__module__ == module.__name__
                and obj.__setattr__ is Lit.__setattr__
            ):
                found.add(obj)
    return found


X, N = Var("X"), IntVar("n")
EQ = WordEq(X, Lit("a"))
MACHINE, WORD, _ = updown_machine()
START = MachineId("q0", 0, 0, 0)
STATS = FileStats("a.eq", 2, 1)

# one instance of every record class
EXAMPLES = [
    Lit("ab"),
    X,
    Concat((Lit("a"), X)),
    IntConst(3),
    N,
    Len(X),
    Sum(((2, Len(X)), (1, N))),
    ReLit("a"),
    ReEpsilon(),
    ReConcat((ReLit("a"), ReStar(ReLit("b")))),
    ReUnion((ReLit("a"), ReLit("b"))),
    ReStar(ReLit("a")),
    EQ,
    LenLeq(Len(X), 2),
    InRe(X, ReStar(ReLit("a"))),
    And((EQ, LenLeq(N, 1))),
    Or((EQ, Not(EQ))),
    Not(EQ),
    Const("ab"),
    Power("ab", "p0"),
    Unfixed("X"),
    Dfa("ab", ((0, 1), (1, 1)), 0, frozenset({1})),
    Row({LinVar("len", "X"): 1}, "le", 3),
    Assignment({"X": "a"}, {"n": 1}),
    Literal(EQ, False),
    SatWith(Assignment({"X": "a"})),
    NoModelUpTo(4),
    Problem("ab", ("X",), ("n",), (EQ,), True, False),
    SolvedForm((("X", (Const("a"), Power("b", "p0"))),)),
    Unsat(),
    OutOfFragment("no rule applies", ()),
    Sat({"X": "a"}, {"n": 1}),
    Unsupported("work budget exhausted in lia"),
    STATS,
    CorpusStats((STATS, FileStats("b.eq", 0, 0, "error: empty"))),
    MACHINE,
    START,
    Accepted(1, (START,)),
    Rejected(2, "no rule applies"),
    StillRunning(5),
    encode(MACHINE, WORD),
    Counterexample("ab"),
    NoCounterexampleUpTo(4),
    _Body("S", [("a", "")], [("b",)], []),
]


def fields(x) -> tuple:
    return tuple(getattr(x, name) for name in type(x).__match_args__)


def test_every_record_class_has_an_example():
    assert {type(x) for x in EXAMPLES} == record_classes()
    assert len(EXAMPLES) == len(record_classes())


@pytest.mark.parametrize("x", EXAMPLES, ids=lambda x: type(x).__qualname__)
def test_record_contract(x):
    cls = type(x)
    names = cls.__match_args__
    values = fields(x)
    # construction by position and by keyword gives an equal record
    assert cls(*values) == x
    assert cls(**dict(zip(names, values))) == x
    assert not cls(*values) != x
    # equal only within one class
    for other in EXAMPLES:
        if type(other) is not cls:
            assert x != other
            assert x.__eq__(other) is NotImplemented
    # the hash of the tuple of the fields, or none when a field has none
    try:
        expected = hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == expected
    # the repr names the class and every field by keyword
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(x) == f"{cls.__qualname__}({shown})"
    # immutable: no field can be assigned or deleted, and nothing added
    for name in names + ("extra",):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert fields(x) == values


def test_records_of_equal_fields_and_different_classes_differ():
    assert Var("X") != IntVar("X") != Unfixed("X")
    assert And((EQ, EQ)) != Or((EQ, EQ))
    assert Unsat() != ReEpsilon()
    assert len({Var("X"), IntVar("X"), Unfixed("X"), Var("X")}) == 3


def test_repr_format():
    assert repr(WordEq(X, Lit("a"))) == "WordEq(lhs=Var(name='X'), rhs=Lit(word='a'))"
    assert repr(ReEpsilon()) == "ReEpsilon()"
    assert repr(FileStats("a.eq", 1, 0)) == "FileStats(path='a.eq', equations=1, solved=0, error=None)"


def test_defaults_of_optional_fields():
    assert FileStats("a.eq", 1, 0).error is None
    a, b = Assignment(), Assignment()
    assert a == Assignment({}, {}) and a.strings is not b.strings


# the checks each record (and LinVar, a tuple) makes on construction, and
# what they raise
MALFORMED = [
    (lambda: Concat((X,)), ValueError),
    (lambda: ReLit(""), ValueError),
    (lambda: ReConcat((ReLit("a"),)), ValueError),
    (lambda: ReUnion((ReLit("a"),)), ValueError),
    (lambda: And((EQ,)), ValueError),
    (lambda: Or((EQ,)), ValueError),
    (lambda: Const(""), ValueError),
    (lambda: Power("", "p0"), ValueError),
    (lambda: Dfa("aa", ((0, 0),), 0, frozenset()), ValueError),
    (lambda: Dfa("ab", ((0,),), 0, frozenset()), ValueError),
    (lambda: LinVar("word", "X"), ValueError),
    (lambda: Row({}, "lt", 0), ValueError),
    (lambda: MachineId("q0", -1, 0, 0), MalformedMachine),
    (lambda: TwoCounterMachine((), ("0",), "q0", frozenset(), ()), MalformedMachine),
    (
        lambda: TwoCounterMachine(
            MACHINE.states, ("0",), "q0", frozenset(), MACHINE.rules[:1] * 2
        ),
        NondeterministicDelta,
    ),
]


@pytest.mark.parametrize("build, error", MALFORMED)
def test_malformed_records_are_refused(build, error):
    with pytest.raises(error):
        build()


def test_import_generates_no_record_code():
    # dataclasses would generate and compile each record's methods at
    # every start-up; -S keeps site's own imports out of the check
    script = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import wordeq; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"
