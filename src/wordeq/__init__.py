"""Word equations with length and regular-membership constraints.

The package decides conjunctions of word equations, linear length
constraints, and regular-expression membership over a fixed alphabet by
rewriting the equations into solved forms, translating those into linear
integer arithmetic, and solving back to concrete strings.  It also ships a
brute-force bounded oracle, a corpus analyzer, and a reduction from
two-counter machines to universally quantified word-equation sentences.
"""

from .errors import (
    LetterOutsideAlphabet,
    ResourceExhausted,
    UnfixedPartPresent,
    UnmappedVariable,
    WordeqError,
)
from .oracle import BoundedVerdict, NoModelUpTo, SatWith, brute_force_sat
from .parser import ParseError, parse_2cm, parse_problem
from .printer import print_formula, print_model, print_problem
from .semantics import Assignment, eval_formula
from .solved_form import OutOfFragment, SolvedForm, to_solved_form
from .solver import Sat, Unsat, Unsupported, Verdict, check_sat
from .terms import (
    And,
    Concat,
    Formula,
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
from .twocounter import (
    Accepted,
    MachineId,
    Rejected,
    Sentence,
    StillRunning,
    TwoCounterMachine,
    bounded_validity_check,
    encode,
    encode_history,
    enumerate_counterexamples,
    positivize,
    simulate,
)

__all__ = [
    "And",
    "Accepted",
    "Assignment",
    "BoundedVerdict",
    "Concat",
    "Formula",
    "InRe",
    "IntConst",
    "IntVar",
    "Len",
    "LenLeq",
    "LetterOutsideAlphabet",
    "Lit",
    "MachineId",
    "NoModelUpTo",
    "Not",
    "Or",
    "OutOfFragment",
    "ParseError",
    "ReConcat",
    "ReEpsilon",
    "ReLit",
    "ReStar",
    "ReUnion",
    "Rejected",
    "ResourceExhausted",
    "Sat",
    "SatWith",
    "Sentence",
    "SolvedForm",
    "StillRunning",
    "Sum",
    "TwoCounterMachine",
    "UnfixedPartPresent",
    "UnmappedVariable",
    "Unsat",
    "Unsupported",
    "Var",
    "Verdict",
    "WordEq",
    "WordeqError",
    "bounded_validity_check",
    "brute_force_sat",
    "check_sat",
    "encode",
    "encode_history",
    "enumerate_counterexamples",
    "eval_formula",
    "parse_2cm",
    "parse_problem",
    "positivize",
    "print_formula",
    "print_model",
    "print_problem",
    "simulate",
    "to_solved_form",
]

__version__ = "0.1.0"
