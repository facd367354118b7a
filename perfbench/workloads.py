"""The four workloads: their inputs, the timed operations and the checks.

A workload is a list of items.  Each item is one input and the
operations run on it, one after another, in every pass:

* a *solve op* parses the problem text, takes its conjunction and calls
  ``check_sat`` -- what ``wordeq solve FILE`` does, minus process start
  and printing;
* an *oracle op* calls ``brute_force_sat(phi, "ab", 8)`` with
  ``ORACLE_NODE_BUDGET``;
* a *reduction op* encodes a zoo machine (and positivizes the sentence,
  for that variant) and enumerates its counterexamples up to a bound.

The benchmark reaches the package only through the names of the
``wordeq`` package module, so the traced run can wrap them there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import wordeq
from wordeq.errors import ResourceExhausted
from wordeq.oracle import NoModelUpTo, SatWith
from wordeq.printer import print_problem
from wordeq.semantics import eval_formula
from wordeq.solver import Sat, Unsat
from wordeq.terms import free_vars
from wordeq.twocounter import Accepted

import gen

# brute_force_sat defaults to 5M nodes.  At about 7.5 us a node, one input
# that exhausts it costs ~38 s, longer than a whole run.  At 100k nodes such
# an input still costs the full budget (~0.75 s) and still counts against
# oracle_decided_share; in the seed-2024 criterion-2 draw every input the
# oracle decides needs fewer than 90k nodes.
ORACLE_NODE_BUDGET = 100_000

# Each workload's pass takes one to two seconds here, so a 20 s run times
# every op ten times or more; see Run in run.py for why that matters.
SIZES = {
    "differential": {"n": 500},
    "rewrite": {
        "chains": (20, 40, 60),
        "straddles": tuple(range(1, 9)),
        "conjugacy": (16, 32, 64, 128),
        "negations": (2, 3, 4),
    },
    "arith": {
        "frobenius": tuple((c,) for c in range(25, 32)) + ((31, 31), (29, 31), (31, 29)),
        "memberships": tuple(("mod2-mod3", m) for m in (1, 2, 3)) + tuple(("star-mod2", m) for m in (1, 2, 3, 4)),
    },
    "reduction": {"bounds": (2, 3, 4)},
}

# Sizes for the smoke test: every family and every op kind, in well under
# a second per pass.
TINY_SIZES = {
    "differential": {"n": 12},
    "rewrite": {"chains": (4,), "straddles": (2,), "conjugacy": (8,), "negations": (1,)},
    "arith": {"frobenius": ((29,), (31,)), "memberships": (("mod2-mod3", 1), ("star-mod2", 2))},
    "reduction": {"bounds": (3,)},
}

# the op kind whose times make a workload's wall, p50 and tail metrics
PRIMARY = {"differential": "solve", "rewrite": "solve", "arith": "solve", "reduction": "reduction"}


class Exhausted:
    """An oracle or reduction op that ran out of its node budget."""


@dataclass
class Item:
    label: str
    ops: list[tuple[str, Callable[[], object]]]  # (kind, timed call)
    check: Callable[[dict[str, object]], tuple[str | None, list[str]]]
    """Maps each kind's outcome to the input's answer ("sat", "unsat" or
    None when unknown) and the list of failures found."""


def outcome_class(out: object) -> str:
    """What must stay the same from one pass to the next."""
    if isinstance(out, tuple):  # a solve op: (formula, verdict)
        out = out[1]
    if isinstance(out, list):
        return repr(out)
    return type(out).__name__


def decided(out: object) -> bool:
    if isinstance(out, tuple):
        return isinstance(out[1], (Sat, Unsat))
    return not isinstance(out, (Exhausted, BaseException))


# ---------------------------------------------------------------------------
# the operations


def _problem_text(phi) -> str:
    svars, ivars = free_vars(phi)
    return print_problem("ab", sorted(svars), sorted(ivars), [phi])


def _solve_op(text: str) -> Callable[[], object]:
    def op():
        problem = wordeq.parse_problem(text)
        phi = problem.conjunction()
        return phi, wordeq.check_sat(phi, problem.alphabet)

    return op


def _oracle_op(phi) -> Callable[[], object]:
    def op():
        try:
            return wordeq.brute_force_sat(phi, "ab", 8, node_budget=ORACLE_NODE_BUDGET)
        except ResourceExhausted:
            return Exhausted()

    return op


def _reduction_op(machine, word, positivized: bool, bound: int) -> Callable[[], object]:
    def op():
        sentence = wordeq.encode(machine, word)
        if positivized:
            sentence = wordeq.positivize(sentence)
        try:
            return wordeq.enumerate_counterexamples(sentence, bound)
        except ResourceExhausted:
            return Exhausted()

    return op


# ---------------------------------------------------------------------------
# the checks


def _raised(outcomes: dict[str, object]) -> list[str]:
    return [f"{kind} op raised {out!r}" for kind, out in outcomes.items() if isinstance(out, BaseException)]


def _model_failures(phi, verdict) -> list[str]:
    if isinstance(verdict, Sat) and not eval_formula(phi, verdict.assignment()):
        return [f"model {verdict.strings} {verdict.ints} fails eval_formula"]
    return []


def _check_against_oracle(outcomes):
    """Criterion 2's disagreement rules, with the oracle as the reference."""
    failures = _raised(outcomes)
    if failures:
        return None, failures
    phi, verdict = outcomes["solve"]
    bounded = outcomes["oracle"]
    failures = _model_failures(phi, verdict)
    if isinstance(bounded, SatWith) and not eval_formula(phi, bounded.model):
        failures.append("oracle model fails eval_formula")
    if isinstance(verdict, Unsat) and isinstance(bounded, SatWith):
        failures.append(f"solver says unsat, oracle found {bounded.model}")
    if (
        isinstance(verdict, Sat)
        and all(len(w) <= 8 for w in verdict.strings.values())
        and isinstance(bounded, NoModelUpTo)
    ):
        failures.append(f"solver model {verdict.strings} within bound 8, oracle found none")
    answer = {SatWith: "sat", NoModelUpTo: "unsat"}.get(type(bounded))
    return answer, failures


def _check_known(expect: str):
    def check(outcomes):
        failures = _raised(outcomes)
        if failures:
            return expect, failures
        phi, verdict = outcomes["solve"]
        failures = _model_failures(phi, verdict)
        if isinstance(verdict, Sat) and expect == "unsat":
            failures.append("sat on an input that is unsat by construction")
        if isinstance(verdict, Unsat) and expect == "sat":
            failures.append("unsat on an input that is sat by construction")
        return expect, failures

    return check


def _check_counterexamples(expected: list[str]):
    answer = "sat" if expected else "unsat"

    def check(outcomes):
        failures = _raised(outcomes)
        found = outcomes["reduction"]
        if not failures and not isinstance(found, Exhausted) and found != expected:
            failures.append(f"counterexamples {found}, expected {expected}")
        return answer, failures

    return check


# ---------------------------------------------------------------------------
# building a workload from a seed


def _solve_item(case: gen.Case) -> Item:
    return Item(case.family, [("solve", _solve_op(_problem_text(case.phi)))], _check_known(case.expect))


def _differential(rng: random.Random, sizes) -> list[Item]:
    items = []
    for case in gen.differential(rng, sizes["n"]):
        text = _problem_text(case.phi)
        phi = wordeq.parse_problem(text).conjunction()
        items.append(Item(case.family, [("solve", _solve_op(text)), ("oracle", _oracle_op(phi))],
                          _check_against_oracle))
    return items


def _rewrite(rng: random.Random, sizes) -> list[Item]:
    cases = []
    for n in sizes["chains"]:
        cases += [gen.binding_chain(rng, n, unsat=False), gen.binding_chain(rng, n, unsat=True)]
    cases += [gen.straddle_chain(rng, k) for k in sizes["straddles"]]
    for length in sizes["conjugacy"]:
        cases += [gen.conjugacy(rng, length, conjugate=True), gen.conjugacy(rng, length, conjugate=False)]
    for k in sizes["negations"]:
        cases += [gen.negations(k, unsat=True), gen.negations(k, unsat=False)]
    return [_solve_item(c) for c in cases]


def _arith(rng: random.Random, sizes) -> list[Item]:
    cases = [gen.frobenius(targets) for targets in sizes["frobenius"]]
    for regexes, m in sizes["memberships"]:
        cases += [gen.memberships(rng, regexes, m, unsat=True), gen.memberships(rng, regexes, m, unsat=False)]
    return [_solve_item(c) for c in cases]


def _reduction(rng: random.Random, sizes) -> list[Item]:
    items = []
    for machine, word in gen.zoo():
        run = wordeq.simulate(machine, word, max_steps=300)
        enc = wordeq.encode_history(machine, word, run.history) if isinstance(run, Accepted) else None
        for bound in sizes["bounds"]:
            expected = [enc] if enc is not None and len(enc) <= bound else []
            for positivized in (False, True):
                label = f"{'positivized' if positivized else 'encoded'}-{bound}"
                op = _reduction_op(machine, word, positivized, bound)
                items.append(Item(label, [("reduction", op)], _check_counterexamples(expected)))
    return items


BUILDERS = {"differential": _differential, "rewrite": _rewrite, "arith": _arith, "reduction": _reduction}


def build(workload: str, seed: int, sizes=None) -> list[Item]:
    """The workload's items for a seed, in the order every pass runs them."""
    rng = random.Random(seed)
    items = BUILDERS[workload](rng, (sizes or SIZES)[workload])
    rng.shuffle(items)
    return items


def warm_up() -> None:
    """One op of each kind on a small fixed input, so first-call costs
    (code paths, allocator arenas) fall outside the timed passes."""
    case = gen.conjugacy(random.Random(0), 8, conjugate=True)
    _solve_op(_problem_text(case.phi))()
    _oracle_op(case.phi)()
    machine, word = gen.zoo()[0]
    _reduction_op(machine, word, True, 2)()
