"""Tests for two-counter machines and their sentence encoding."""

import inspect
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import wordeq
from wordeq import errors, propagate, twocounter
from wordeq.errors import Budget, ResourceExhausted
from wordeq.normalize import to_dnf
from wordeq.paramwords import const_blocks
from wordeq.solved_form import term_to_side
from wordeq.terms import (
    Concat,
    Len,
    LenLeq,
    Lit,
    Not,
    StrTerm,
    Var,
    WordEq,
    concat,
    conj,
    disj,
    free_vars,
)
from wordeq.twocounter import (
    Accepted,
    Counterexample,
    EncodingCapExceeded,
    MachineId,
    MalformedMachine,
    NoCounterexampleUpTo,
    NondeterministicDelta,
    Rejected,
    Sentence,
    StillRunning,
    TwoCounterMachine,
    bounded_validity_check,
    encode,
    encode_history,
    enumerate_counterexamples,
    id_letters,
    positivize,
    simulate,
)

from helpers import is_counterexample, twocounter_machine, updown_machine, zoo


# ---------------------------------------------------------------------------
# machine construction


def test_duplicate_rule_key_rejected():
    with pytest.raises(NondeterministicDelta):
        TwoCounterMachine(
            ("q0",), ("a",), "q0", frozenset(),
            ((("q0", "a", "Z", "Z"), ("q0", "in", "R")),
             (("q0", "a", "Z", "Z"), ("q0", "in", "L"))),
        )


def test_malformed_machines_rejected():
    with pytest.raises(MalformedMachine):  # unknown track
        TwoCounterMachine(
            ("q0",), ("a",), "q0", frozenset(),
            ((("q0", "a", "Z", "Z"), ("q0", "stor3", "R")),),
        )
    with pytest.raises(MalformedMachine):  # rule letter outside the alphabet
        TwoCounterMachine(
            ("q0",), ("a",), "q0", frozenset(),
            ((("q0", "x", "Z", "Z"), ("q0", "in", "R")),),
        )
    with pytest.raises(MalformedMachine):  # successor state unknown
        TwoCounterMachine(
            ("q0",), ("a",), "q0", frozenset(),
            ((("q0", "a", "Z", "Z"), ("q9", "in", "R")),),
        )
    with pytest.raises(MalformedMachine):  # initial state unknown
        TwoCounterMachine(("q0",), ("a",), "q7", frozenset(), ())


def test_machine_states_and_input_letters_checked():
    rule = (("q0", "a", "Z", "Z"), ("q0", "in", "R"))
    for states, letters, message in [
        ((), ("a",), "states must be distinct and nonempty"),
        (("q0", "q0"), ("a",), "states must be distinct and nonempty"),
        (("q0",), (), "input letters must be distinct and nonempty"),
        (("q0",), ("a", "a"), "input letters must be distinct and nonempty"),
        (("q0",), ("end",), "'end' is reserved"),
        (("q0",), ("a", "end"), "'end' is reserved"),
    ]:
        with pytest.raises(MalformedMachine) as e:
            TwoCounterMachine(states, letters, "q0", frozenset(), (rule,))
        assert str(e.value) == message


def test_machine_id_requires_nonnegative_fields():
    with pytest.raises(MalformedMachine):
        MachineId("q0", -1, 0, 0)
    with pytest.raises(MalformedMachine):
        MachineId("q0", 0, 0, -2)


def test_machine_and_sentence_checks_raise_under_optimize():
    # the checks on machines, input words and sentence shapes must not be
    # asserts that python -O strips
    script = (
        "from wordeq import twocounter as t\n"
        "from wordeq.terms import InRe, Lit, Not, Var, WordEq, concat, re_lit\n"
        "def expect(exc, fn):\n"
        "    try:\n"
        "        fn()\n"
        "    except exc as e:\n"
        "        print(type(e).__name__, e)\n"
        "rule = (('q0', 'a', 'Z', 'Z'), ('nowhere', 'in', 'L'))\n"
        "expect(t.MalformedMachine, lambda: t.TwoCounterMachine(\n"
        "    ('q0',), ('a',), 'qX', frozenset({'qY'}), (rule,)))\n"
        "expect(t.MalformedMachine, lambda: t.TwoCounterMachine(\n"
        "    ('q0',), ('a',), 'q0', frozenset(), (rule,)))\n"
        "expect(t.MalformedMachine, lambda: t.MachineId('q0', 0, -1, 0))\n"
        "m = t.TwoCounterMachine(('q0',), ('a',), 'q0', frozenset(), ())\n"
        "expect(t.MalformedMachine, lambda: t.simulate(m, ()))\n"
        "expect(t.MalformedMachine, lambda: t.encode(m, ('z',)))\n"
        "neg = Not(WordEq(concat(Var('S'), Lit('a')), Lit('ab')))\n"
        "expect(ValueError, lambda: t.positivize(t.Sentence(('S',), ('X',), neg, 'ab', ())))\n"
        "member = t.Sentence(('S',), (), InRe(Var('S'), re_lit('a')), 'ab', ())\n"
        "expect(ValueError, lambda: t.positivize(member))\n"
        "negated_member = t.Sentence(('S',), (), Not(member.body), 'ab', ())\n"
        "expect(ValueError, lambda: t.positivize(negated_member))\n"
        "expect(ValueError, lambda: t.enumerate_counterexamples(member, 1))\n"
    )
    src = str(Path(wordeq.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "MalformedMachine initial state 'qX' is not declared",
        "MalformedMachine rule for ('q0', 'a', 'Z', 'Z') uses an undeclared state",
        "MalformedMachine head position and counters must be nonnegative",
        "MalformedMachine the input word must be nonempty",
        "MalformedMachine the input word is not over the input alphabet",
        'ValueError only negations of the form not (X = "u") are supported',
        "ValueError sentence bodies hold equations only",
        'ValueError only negations of the form not (X = "u") are supported',
        "ValueError sentence bodies hold equations only",
    ]


# ---------------------------------------------------------------------------
# simulation


def test_simulate_zoo_verdicts():
    machines = zoo()

    z1, w1 = machines[0]  # immediate accept
    r1 = simulate(z1, w1)
    assert isinstance(r1, Accepted)
    assert r1.steps == 1
    assert r1.history == (MachineId("q0", 0, 0, 0), MachineId("qf", 0, 0, 0))

    z2, w2 = machines[1]  # counter grows forever, no final state
    r2 = simulate(z2, w2, max_steps=300)
    assert r2 == StillRunning(steps=300)

    z3, w3 = machines[2]  # increment then decrement
    r3 = simulate(z3, w3)
    assert isinstance(r3, Accepted)
    assert r3.history == (
        MachineId("q0", 0, 0, 0),
        MachineId("q1", 0, 1, 0),
        MachineId("qf", 0, 0, 0),
    )

    z4, w4 = machines[3]  # walks the input right, then back
    r4 = simulate(z4, w4)
    assert isinstance(r4, Accepted)
    assert r4.history == (
        MachineId("q0", 0, 0, 0),
        MachineId("q0", 1, 0, 0),
        MachineId("qf", 0, 0, 0),
    )

    z5, w5 = machines[4]  # reaches its final state with a counter loaded
    r5 = simulate(z5, w5)
    assert isinstance(r5, Rejected)
    assert "no rule" in r5.reason


def test_simulate_detects_revisited_configuration():
    # Two states bounce the clamped head; the start configuration recurs.
    m = TwoCounterMachine(
        ("q0", "q1"), ("a",), "q0", frozenset(),
        ((("q0", "a", "Z", "Z"), ("q1", "in", "L")),
         (("q1", "a", "Z", "Z"), ("q0", "in", "L"))),
    )
    r = simulate(m, ("a",))
    assert r == Rejected(steps=2, reason="revisited configuration")


def test_simulate_requires_nonempty_word():
    z1, _ = zoo()[0]
    with pytest.raises(MalformedMachine):
        simulate(z1, ())
    with pytest.raises(MalformedMachine):
        simulate(z1, ("b",))  # letter outside the input alphabet


def test_acceptance_checked_before_rule_lookup():
    # The initial configuration is already accepting even though the final
    # state has no outgoing rules.
    m = TwoCounterMachine(("qf",), ("a",), "qf", frozenset({"qf"}), ())
    r = simulate(m, ("a",))
    assert r == Accepted(steps=0, history=(MachineId("qf", 0, 0, 0),))


# ---------------------------------------------------------------------------
# configuration letters and run encoding


def test_id_letters_mapping_and_legend():
    z3, _ = zoo()[2]
    mapping, legend = id_letters(z3, 1)
    assert mapping == {("q0", 0): "0", ("q1", 0): "1", ("qf", 0): "2"}
    assert legend == (("0", "q0", 0), ("1", "q1", 0), ("2", "qf", 0))
    # Counter letters are reserved.
    assert "b" not in mapping.values() and "c" not in mapping.values()


def test_id_letters_pool_exhaustion():
    states = tuple(f"s{i}" for i in range(60))
    m = TwoCounterMachine(states, ("a",), "s0", frozenset(), ())
    mapping, _ = id_letters(m, 1)
    assert len(set(mapping.values())) == 60
    with pytest.raises(EncodingCapExceeded):
        id_letters(m, 2)


def test_encode_history_zoo():
    machines = zoo()
    for idx, expected in ((0, "01"), (2, "01b2"), (3, "012")):
        m, w = machines[idx]
        r = simulate(m, w)
        assert isinstance(r, Accepted)
        assert encode_history(m, w, r.history) == expected


# ---------------------------------------------------------------------------
# sentence structure


def test_encode_prefix_and_alphabet():
    z1, w1 = zoo()[0]
    s = encode(z1, w1)
    assert s.universals == ("S",)
    assert s.existentials == ("S1", "S2", "S3", "S4", "U", "V")
    assert s.alphabet == "01bc"
    assert s.legend == (("0", "q0", 0), ("1", "qf", 0))
    svars, ivars = free_vars(s.body)
    assert svars <= {"S", "S1", "S2", "S3", "S4", "U", "V"}
    assert ivars == set()


def test_encode_body_contains_expected_clauses():
    z1, w1 = zoo()[0]
    s = encode(z1, w1)
    S, S1, S4, U, V = Var("S"), Var("S1"), Var("S4"), Var("U"), Var("V")
    parts = s.body.parts
    # Bad start / bad end anchors.
    assert WordEq(S, Lit("")) in parts
    assert WordEq(S, concat(Lit("1"), S1)) in parts  # wrong first letter
    assert WordEq(S, concat(Lit("0b"), S1)) in parts  # nonzero initial counter
    assert WordEq(S, concat(S1, Lit("0"))) in parts  # non-final last letter
    # Malformed counter block: a 'b' may never follow a 'c'.
    assert WordEq(S, Concat((S1, Lit("cb"), S4))) in parts
    # Step defects are conjoined with the commutation equations that pin
    # the run tails U and V into b* and c*.
    ands = [p for p in parts if not isinstance(p, WordEq)]
    assert len(ands) == 1
    tail = ands[0].parts[-2:]
    assert tail == (
        WordEq(concat(U, Lit("b")), concat(Lit("b"), U)),
        WordEq(concat(V, Lit("c")), concat(Lit("c"), V)),
    )


def test_encode_rejects_bad_inputs():
    z1, _ = zoo()[0]
    with pytest.raises(MalformedMachine):
        encode(z1, ())
    with pytest.raises(MalformedMachine):
        encode(z1, ("z",))
    # one configuration letter per state and head position, from a pool of 60
    with pytest.raises(EncodingCapExceeded):
        encode(z1, z1.input_alphabet[:1] * 61)


# ---------------------------------------------------------------------------
# counterexamples <-> accepting runs


def test_zoo_counterexamples_are_exactly_the_run_encodings():
    for m, w in zoo():
        s = encode(m, w)
        r = simulate(m, w, max_steps=200)
        if isinstance(r, Accepted):
            enc = encode_history(m, w, r.history)
            assert enumerate_counterexamples(s, len(enc)) == [enc]
            assert is_counterexample(s, enc)
        else:
            assert enumerate_counterexamples(s, 3) == []


def test_bounded_validity_check_verdicts():
    z1, w1 = zoo()[0]
    s = encode(z1, w1)
    assert bounded_validity_check(s, 2) == Counterexample("01")
    # The encoding needs two letters, so nothing shorter defeats the body.
    assert bounded_validity_check(s, 1) == NoCounterexampleUpTo(1)


def test_tautological_body_has_no_counterexamples():
    s = Sentence(("S",), (), WordEq(Var("S"), Var("S")), "ab", ())
    assert bounded_validity_check(s, 3) == NoCounterexampleUpTo(3)


def _drawn(monkeypatch) -> list[tuple[int, str]]:
    """The (units, layer) of every budget draw from now on."""
    drawn: list[tuple[int, str]] = []
    draw = Budget.draw
    monkeypatch.setattr(
        Budget, "draw", lambda self, n, layer: drawn.append((n, layer)) or draw(self, n, layer)
    )
    return drawn


def test_node_budget_exhaustion(monkeypatch):
    # compiling the body and the witness search draw from one budget
    z3, w3 = zoo()[2]
    s = encode(z3, w3)
    drawn = _drawn(monkeypatch)
    found = bounded_validity_check(s, 4)
    assert {layer for _, layer in drawn} == {"propagate", "twocounter"}
    need = sum(n for n, _ in drawn)
    monkeypatch.setattr(errors, "WORK_BUDGET", need)
    assert bounded_validity_check(s, 4) == found
    monkeypatch.setattr(errors, "WORK_BUDGET", need - 1)
    with pytest.raises(ResourceExhausted, match=f"work budget exhausted in {drawn[-1][1]}$"):
        bounded_validity_check(s, 4)


def test_the_body_walk_cuts_a_refuted_prefix(monkeypatch):
    # eight conjuncts, every one of which the first two equations refute:
    # the walk takes two steps, not 48; the eight prefixes of the words
    # up to length 2 draw the other eight units
    S, X, Y = Var("S"), Var("X"), Var("Y")
    choice = disj(WordEq(Y, Lit("a")), WordEq(Y, Lit("b")))
    body = conj(WordEq(X, Lit("a")), WordEq(X, Lit("b")), choice, choice, choice, WordEq(S, X))
    s = Sentence(("S",), ("X", "Y"), body, "ab", ())
    monkeypatch.setattr(errors, "WORK_BUDGET", 10)
    assert enumerate_counterexamples(s, 2) == ["", "a", "b", "aa", "ab", "ba", "bb"]
    monkeypatch.setattr(errors, "WORK_BUDGET", 9)
    with pytest.raises(ResourceExhausted, match="work budget exhausted in twocounter"):
        enumerate_counterexamples(s, 2)
    monkeypatch.setattr(errors, "WORK_BUDGET", 1)
    with pytest.raises(ResourceExhausted, match="work budget exhausted in propagate"):
        enumerate_counterexamples(s, 2)


def test_the_largest_machines_compile_within_the_budget():
    # 60 states on a one-letter input use the whole letter pool; with no
    # rule every one of the 240 contexts is stuck, so the body has the
    # most step defects an encodable machine can have
    states = tuple(f"q{i}" for i in range(60))
    m = TwoCounterMachine(states, ("0",), "q0", frozenset({"q1"}), ())
    s = encode(m, ("0",))
    budget = Budget()
    body = twocounter._compiled_body(s, budget)
    assert errors.WORK_BUDGET - budget.left == 14_530
    assert (len(body.closed), len(body.anchored), len(body.generic)) == (3_664, 62, 10_800)


def _reference_counterexamples(s: Sentence, max_len: int) -> list[str]:
    """The search without pruning: every word, every conjunct through the
    generic witness search."""
    conjuncts = [
        [(term_to_side(l.atom.lhs), term_to_side(l.atom.rhs), l.positive) for l in lits]
        for lits in to_dnf(s.body)
    ]
    budget = Budget()
    found = []
    for word in twocounter._iter_words(s.alphabet, max_len):
        env = {s.universals[0]: const_blocks(word)}
        if not any(
            twocounter._conjunct_sat(eqs, env, s.alphabet, len(word), budget)
            for eqs in conjuncts
        ):
            found.append(word)
    return found


def _assert_search_matches_reference(s: Sentence, max_len: int, each_word: bool = True) -> None:
    reference = _reference_counterexamples(s, max_len)
    for bound in range(max_len + 1):
        expected = [w for w in reference if len(w) <= bound]
        assert enumerate_counterexamples(s, bound) == expected, (s.body, bound)
        first = Counterexample(expected[0]) if expected else NoCounterexampleUpTo(bound)
        assert bounded_validity_check(s, bound) == first, (s.body, bound)
    if each_word:
        for word in twocounter._iter_words(s.alphabet, max_len):
            assert is_counterexample(s, word) == (word in reference), (s.body, word)


def _kinds(s: Sentence) -> tuple[int, int, int]:
    body = twocounter._compiled_body(s, Budget())
    return len(body.closed), len(body.anchored), len(body.generic)


def test_configuration_letters_that_name_variables():
    # 32 states on a one-letter input take the letters S, U and V, which
    # also name the sentence's variables; the state whose letter is S is
    # initial and final and has no rules, so "S" is the one run encoding
    states = tuple(f"q{i}" for i in range(32))
    m = TwoCounterMachine(states, ("0",), "q28", frozenset({"q28"}), ())
    mapping, _ = id_letters(m, 1)
    assert [mapping[(f"q{i}", 0)] for i in (28, 30, 31)] == ["S", "U", "V"]
    s = encode(m, ("0",))
    assert enumerate_counterexamples(s, 2) == ["S"]
    _assert_search_matches_reference(s, 2, each_word=False)


def test_pruned_search_matches_reference_on_the_zoo():
    for m, w in zoo():
        s = encode(m, w)
        for sentence in (s, positivize(s)):
            _assert_search_matches_reference(sentence, 4, each_word=False)


def test_encoded_and_positivized_zoo_compile_alike():
    # the negation's options that disagree with a fixed successor letter
    # clash, so positivizing adds no conjunct
    for m, w in zoo():
        s = encode(m, w)
        assert _kinds(positivize(s)) == _kinds(s)


def test_propagation_spares_the_witness_search(monkeypatch):
    calls = [0]
    inner = twocounter._conjunct_sat

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(twocounter, "_conjunct_sat", counted)
    m, w = zoo()[3]
    enumerate_counterexamples(positivize(encode(m, w)), 4)
    # 48 calls; matching every positivized option as its own conjunct
    # takes 2 282
    assert calls[0] <= 100


def test_pruned_search_matches_reference_per_conjunct_class():
    S, X, Y, Z, U = Var("S"), Var("X"), Var("Y"), Var("Z"), Var("U")
    a, b, ab = Lit("a"), Lit("b"), Lit("ab")
    cases = [
        (WordEq(S, Lit("")), (0, 1, 0)),
        (WordEq(S, ab), (0, 1, 0)),
        (WordEq(ab, S), (0, 1, 0)),
        (WordEq(S, X), (1, 0, 0)),
        (WordEq(S, concat(X, ab)), (0, 1, 0)),
        (WordEq(S, concat(a, X, b, Y)), (1, 0, 0)),
        (WordEq(S, concat(X, Y, a)), (0, 1, 0)),
        (WordEq(S, concat(X, a, Y, a)), (0, 1, 0)),
        (WordEq(S, concat(X, a, Y, b, Z)), (1, 0, 0)),
        (WordEq(S, concat(X, X)), (0, 0, 1)),
        (WordEq(S, S), (0, 0, 1)),
        (WordEq(S, concat(S, X)), (0, 0, 1)),
        (Not(WordEq(S, concat(X, a))), (0, 0, 1)),
        (conj(WordEq(S, concat(X, a)), WordEq(X, concat(b, Y))), (0, 0, 1)),
        (disj(WordEq(S, concat(a, X)), WordEq(S, concat(X, ab))), (1, 1, 0)),
        # propagation of fixed existentials: a clash leaves no conjunct
        (conj(WordEq(X, a), WordEq(X, b), WordEq(S, X)), (0, 0, 0)),
        (conj(WordEq(X, a), WordEq(S, concat(Y, X, Z))), (1, 0, 0)),
        # U shares no variable and holds with U empty, so it is dropped
        (conj(WordEq(S, concat(X, a, Y)), WordEq(concat(U, b), concat(b, U))), (1, 0, 0)),
        # no empty U satisfies it, so it stays
        (conj(WordEq(S, concat(X, a, Y)), WordEq(concat(U, a), concat(b, U))), (0, 0, 1)),
        # two matches fix nothing
        (conj(WordEq(concat(X, Y), a), WordEq(S, concat(X, b))), (0, 0, 1)),
        # fixing X makes X Y = "ab" fix Y, which the first equation mentions
        (conj(WordEq(S, concat(Y, X)), WordEq(concat(X, Y), ab), WordEq(X, a)), (0, 1, 0)),
    ]
    for body, kinds in cases:
        s = Sentence(("S",), ("X", "Y", "Z", "U"), body, "ab", ())
        assert _kinds(s) == kinds, body
        _assert_search_matches_reference(s, 4)


def test_prefix_walk_depth_does_not_use_the_stack():
    # only words b^n avoid the closed pattern, so the walk reaches the bound
    body = WordEq(Var("S"), concat(Var("X"), Lit("a"), Var("Y")))
    s = Sentence(("S",), ("X", "Y"), body, "ab", ())
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 40)
    try:
        found = enumerate_counterexamples(s, 100)
    finally:
        sys.setrecursionlimit(limit)
    assert found == ["b" * n for n in range(101)]


def _random_closed_patterns(rng: random.Random) -> list[tuple[str, ...]]:
    """Closed patterns over "abc": prefix pieces c0 X, single factors
    X c Y and longer ones c0 X c1 X ... ck X, with constants that overlap
    themselves; now and then the empty pattern X, which matches every
    word."""
    constants = ["a", "b", "c", "aa", "aba", "abab", "aab", "ca", "bcb"]

    def constant() -> str:
        if rng.random() < 0.5:
            return rng.choice(constants)
        return "".join(rng.choices("abc", k=rng.randint(1, 3)))

    patterns = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.randrange(8)
        if kind < 2:
            patterns.append((constant(), ""))
        elif kind < 4:
            patterns.append(("", constant(), ""))
        elif kind < 7:
            first = constant() if rng.random() < 0.5 else ""
            inner = [constant() for _ in range(rng.randint(2, 3))]
            patterns.append((first, *inner, ""))
        elif rng.random() < 0.2:
            patterns.append(("", ""))
    return patterns


def test_unpruned_matches_the_naive_filter_on_random_patterns():
    # the index tests a prefix only against the patterns whose last
    # constant ends it; the naive filter tests every pattern against every
    # prefix, and each prefix the walk visits draws one unit
    rng = random.Random(5309)
    words = list(twocounter._iter_words("abc", 7))
    for _ in range(50):
        closed = _random_closed_patterns(rng)
        pruned = {
            w
            for w in words
            if any(twocounter._matches(p, w[:k]) for k in range(len(w) + 1) for p in closed)
        }
        for length in range(8):
            budget = Budget()
            found = list(twocounter._unpruned(closed, "abc", length, budget))
            expected = [w for w in words if len(w) == length and w not in pruned]
            assert found == expected, (closed, length)
            visited = [w for w in words if 0 < len(w) <= length and w[:-1] not in pruned]
            assert errors.WORK_BUDGET - budget.left == (0 if "" in pruned else len(visited))


def _random_term(rng: random.Random, names, longest: int) -> StrTerm:
    picked = rng.choices(names, k=rng.randint(0, longest))
    return concat(*(Var(n) if n in "SXYZ" else Lit(n) for n in picked))


def _random_sentence(rng: random.Random) -> Sentence:
    conjuncts = []
    for _ in range(rng.randint(1, 3)):
        eqs = []
        for _ in range(rng.randint(1, 2)):
            if rng.random() < 0.6:
                eq = WordEq(Var("S"), _random_term(rng, ["X", "Y", "Z", "a", "b", "ab"], 5))
            else:
                eq = WordEq(_random_term(rng, "SXYab", 3), _random_term(rng, "SXYab", 3))
            eqs.append(Not(eq) if rng.random() < 0.2 else eq)
        conjuncts.append(conj(*eqs))
    return Sentence(("S",), ("X", "Y", "Z"), disj(*conjuncts), "ab", ())


def test_pruned_search_matches_reference_on_random_sentences():
    rng = random.Random(7)
    totals = [0, 0, 0]
    for _ in range(300):
        s = _random_sentence(rng)
        totals = [t + k for t, k in zip(totals, _kinds(s))]
        _assert_search_matches_reference(s, 3)
    # the draw reaches every conjunct class
    assert min(totals) > 0, totals


def _random_propagation_sentence(rng: random.Random) -> Sentence:
    """Conjuncts that mix equations fixing an existential, negated
    equations and equations over U, which no other kind of literal
    mentions."""

    def word() -> Lit:
        return Lit("".join(rng.choices("ab", k=rng.randint(0, 2))))

    def literal():
        kind = rng.randrange(6)
        if kind == 0:  # fixes X, Y or Z, or clashes with an earlier fix
            eq = WordEq(Var(rng.choice("XYZ")), word())
            return eq if rng.random() < 0.5 else WordEq(eq.rhs, eq.lhs)
        if kind == 1:  # a fix, or a fixed prefix of X
            name = Var(rng.choice("XYZ"))
            return disj(WordEq(name, word()), WordEq(name, concat(word(), Var("Y"))))
        if kind == 2:
            return Not(WordEq(Var(rng.choice("XYZ")), word()))
        if kind == 3:  # holds with U empty or not
            return WordEq(concat(Var("U"), word()), concat(word(), Var("U")))
        if kind == 4:
            return WordEq(Var("S"), _random_term(rng, ["X", "Y", "Z", "a", "b"], 4))
        eq = WordEq(_random_term(rng, "SXYab", 3), _random_term(rng, "XYab", 3))
        return Not(eq) if rng.random() < 0.3 else eq

    conjuncts = [
        conj(*(literal() for _ in range(rng.randint(1, 4)))) for _ in range(rng.randint(1, 3))
    ]
    return Sentence(("S",), ("X", "Y", "Z", "U"), disj(*conjuncts), "ab", ())


def _random_nested_sentence(rng: random.Random, depth: int = 3) -> Sentence:
    """Bodies with Or inside And inside Or, ``depth`` levels deep, whose
    leaves mix equations fixing an existential, negated equations and
    equations over U."""

    def word() -> Lit:
        return Lit("".join(rng.choices("ab", k=rng.randint(0, 2))))

    def leaf():
        kind = rng.randrange(4)
        if kind == 0:
            return WordEq(Var(rng.choice("XYZ")), word())
        if kind == 1:
            return Not(WordEq(Var(rng.choice("XYZ")), word()))
        if kind == 2:
            return WordEq(concat(Var("U"), word()), concat(word(), Var("U")))
        return WordEq(Var("S"), _random_term(rng, ["X", "Y", "Z", "U", "a", "b"], 4))

    def node(level: int, under_and: bool):
        if level == 0:
            return leaf()
        parts = [node(level - 1, not under_and) for _ in range(rng.randint(1, 2))]
        parts += [leaf() for _ in range(rng.randint(0, 2))]
        rng.shuffle(parts)
        return disj(*parts) if under_and else conj(*parts)

    return Sentence(("S",), ("X", "Y", "Z", "U"), node(depth, True), "ab", ())


def test_leaves_first_is_exact_on_deeper_nesting():
    # each And's leaves are conjoined before its Ors; the conjuncts, and
    # so the counterexamples, are those of the body's own literal order
    rng = random.Random(38)
    for _ in range(150):
        _assert_search_matches_reference(_random_nested_sentence(rng, rng.randint(3, 4)), 3)


def test_the_commutations_are_conjoined_once_per_body(monkeypatch):
    # U b = b U and V c = c V sit beside the Or of the step violations, so
    # the walk conjoins each once, not once per violation
    met: list = []
    conjoin = propagate._conjoin
    monkeypatch.setattr(
        propagate,
        "_conjoin",
        lambda prefix, literal: met.append(literal[0][0]) or conjoin(prefix, literal),
    )
    U, V, b, c = Var("U"), Var("V"), Lit("b"), Lit("c")
    commutations = [
        (term_to_side(concat(U, b)), term_to_side(concat(b, U)), True),
        (term_to_side(concat(V, c)), term_to_side(concat(c, V)), True),
    ]
    for m, w in zoo():
        for s in (encode(m, w), positivize(encode(m, w))):
            met.clear()
            for _ in propagate.conjuncts(s.body, "S", Budget()):
                pass
            assert [met.count(eq) for eq in commutations] == [1, 1]


def test_propagation_matches_reference_on_random_sentences(monkeypatch):
    reached = {"clash": 0, "fix": 0, "private": 0}
    conjoin, needed = propagate._conjoin, propagate._needed

    def counted_conjoin(prefix, literal):
        after = conjoin(prefix, literal)
        if after is None:
            reached["clash"] += 1
        elif len(after[0]) > len(prefix[0]):
            reached["fix"] += 1
        return after

    def counted_needed(opened):
        eqs = needed(opened)
        reached["private"] += len(opened) - len(eqs)
        return eqs

    monkeypatch.setattr(propagate, "_conjoin", counted_conjoin)
    monkeypatch.setattr(propagate, "_needed", counted_needed)
    rng = random.Random(16)
    for _ in range(300):
        _assert_search_matches_reference(_random_propagation_sentence(rng), 3)
    # the draw prunes a clash, fixes an existential and drops a private
    # equation
    assert min(reached.values()) > 0, reached


def test_deeper_runs_encode_and_verify():
    for m, w, expected in (updown_machine(), twocounter_machine()):
        r = simulate(m, w)
        assert isinstance(r, Accepted)
        assert encode_history(m, w, r.history) == expected
        s = encode(m, w)
        assert is_counterexample(s, expected)


def test_positivized_deeper_runs_are_the_only_counterexamples():
    for m, w, expected in (updown_machine(), twocounter_machine()):
        assert enumerate_counterexamples(positivize(encode(m, w)), 9) == [expected]


def test_mutated_encodings_are_not_counterexamples():
    rng = random.Random(20)
    for m, w, expected in (updown_machine(), twocounter_machine()):
        s = encode(m, w)
        for _ in range(60):
            kind = rng.randrange(3)
            pos = rng.randrange(len(expected))
            letter = rng.choice(s.alphabet)
            if kind == 0:  # replace
                mutated = expected[:pos] + letter + expected[pos + 1 :]
            elif kind == 1:  # insert
                mutated = expected[:pos] + letter + expected[pos:]
            else:  # delete
                mutated = expected[:pos] + expected[pos + 1 :]
            if mutated == expected:
                continue
            assert not is_counterexample(s, mutated), mutated


# ---------------------------------------------------------------------------
# removing negations


def test_positivize_is_identity_without_negations():
    s = Sentence(
        ("S",), ("S1",),
        disj(WordEq(Var("S"), Lit("")), WordEq(Var("S"), concat(Lit("a"), Var("S1")))),
        "ab", (),
    )
    assert positivize(s) is s


def test_positivize_complement_of_a_fixed_word():
    s = Sentence(("S",), (), Not(WordEq(Var("S"), Lit("ab"))), "ab", ())
    p = positivize(s)
    assert p.existentials == ("H0",)
    assert not isinstance(p.body, Not)
    # Exactly the words other than "ab" satisfy the rewritten body.
    assert enumerate_counterexamples(s, 3) == ["ab"]
    assert enumerate_counterexamples(p, 3) == ["ab"]


def test_positivize_complement_of_a_fixed_word_on_the_left():
    # not ("ab" = S) is the same negation as not (S = "ab")
    s = Sentence(("S",), (), Not(WordEq(Lit("ab"), Var("S"))), "ab", ())
    mirrored = Sentence(("S",), (), Not(WordEq(Var("S"), Lit("ab"))), "ab", ())
    assert positivize(s) == positivize(mirrored)
    assert enumerate_counterexamples(positivize(s), 3) == ["ab"]


def test_positivize_helper_avoids_conjoined_siblings():
    body = conj(
        WordEq(Var("T"), Lit("a")),
        Not(WordEq(Var("S"), Lit("a"))),
    )
    p = positivize(Sentence(("S",), ("T", "W"), body, "ab", ()))
    assert p.existentials == ("T", "W", "H0")
    rewritten = p.body.parts[1]
    assert free_vars(rewritten)[0] == {"S", "H0"}
    assert "T" not in free_vars(rewritten)[0]


def test_positivize_gives_each_negation_its_own_helper():
    body = disj(
        Not(WordEq(Var("S"), Lit("a"))),
        Not(WordEq(Var("S"), Lit("b"))),
    )
    p = positivize(Sentence(("S",), ("T",), body, "ab", ()))
    assert p.existentials == ("T", "H0", "H1")
    first, second = p.body.parts
    assert free_vars(first)[0] == {"S", "H0"}
    assert free_vars(second)[0] == {"S", "H1"}


def test_positivize_draws_a_fresh_helper_past_taken_names():
    # every existential is taken alongside the negation, and the names
    # H0 and H3 are in use, so the helper is a fresh H1
    body = conj(
        WordEq(Var("H0"), Var("S")),
        WordEq(Var("H3"), Var("S")),
        Not(WordEq(Var("S"), Lit("a"))),
    )
    s = Sentence(("S",), ("H0", "H3"), body, "ab", ())
    p = positivize(s)
    assert p.existentials == ("H0", "H3", "H1")
    assert not isinstance(p.body.parts[2], Not)
    assert enumerate_counterexamples(p, 3) == enumerate_counterexamples(s, 3) == ["a"]


def test_positivize_a_negation_with_no_option_is_false():
    # over the empty alphabet "" is the only word, so not (S = "") is
    # false: an Or drops it, an And that holds it is false, and a body
    # that is false has no positive form
    empty = WordEq(Var("S"), Lit(""))
    never = Not(empty)
    for body in (never, conj(never, empty)):
        s = Sentence(("S",), (), body, "", ())
        assert enumerate_counterexamples(s, 3) == [""]
        with pytest.raises(ValueError, match="the body is false"):
            positivize(s)
    for body, kept in [
        (disj(never, empty), empty),
        (disj(conj(never, empty), empty), empty),
        (disj(never, empty, WordEq(Var("S"), Var("X"))), disj(empty, WordEq(Var("S"), Var("X")))),
    ]:
        s = Sentence(("S",), ("X",), body, "", ())
        p = positivize(s)
        assert p.body == kept and p.existentials == ("X",)
        for bound in range(4):
            assert enumerate_counterexamples(p, bound) == enumerate_counterexamples(s, bound) == []


def test_positivize_and_the_search_refuse_bodies_of_other_shapes():
    S, X, Y = Var("S"), Var("X"), Var("Y")
    short = LenLeq(Len(X), 1)
    for body in (Not(WordEq(concat(X, Y), Lit("a"))), Not(short)):
        with pytest.raises(ValueError, match=r'only negations of the form not \(X = "u"\)'):
            positivize(Sentence(("S",), ("X", "Y"), body, "ab", ()))
    with pytest.raises(ValueError, match="sentence bodies hold equations only"):
        positivize(Sentence(("S",), ("X",), disj(WordEq(S, X), short), "ab", ()))
    with pytest.raises(ValueError, match="one universal variable is supported"):
        enumerate_counterexamples(Sentence(("S", "T"), (), WordEq(S, Var("T")), "ab", ()), 1)
    with pytest.raises(ValueError, match="sentence bodies hold equations only"):
        enumerate_counterexamples(Sentence(("S",), ("X",), short, "ab", ()), 1)


def _random_negation_body(rng: random.Random, depth: int):
    """And and Or over equations S = ..., fixed words X = "u" and negations
    not (X = "u"), the existentials shared between siblings.  A negated
    existential is conjoined with an equation that makes it a piece of S,
    so its witnesses are held to the bound whether it is positivized or
    not."""
    if depth == 0 or rng.random() < 0.4:
        word = Lit("".join(rng.choices("ab", k=rng.randint(0, 2))))
        kind = rng.randrange(4)
        if kind == 0:
            return WordEq(Var("S"), _random_term(rng, ["X", "Y", "Z", "a", "b"], 3))
        if kind == 1:
            return WordEq(Var(rng.choice("XYZ")), word)
        name = "S" if kind == 2 else rng.choice("XYZ")
        negation = Not(WordEq(Var(name), word) if rng.random() < 0.7 else WordEq(word, Var(name)))
        if name == "S":
            return negation
        around = _random_term(rng, ["X", "Y", "Z", "a", "b"], 2)
        return conj(WordEq(Var("S"), concat(around, Var(name))), negation)
    parts = [_random_negation_body(rng, depth - 1) for _ in range(2)]
    return conj(*parts) if rng.random() < 0.5 else disj(*parts)


def test_positivize_matches_reference_on_random_bodies():
    # a helper that a sibling constrains would change the counterexamples
    rng = random.Random(4111)
    fresh = 0
    for _ in range(120):
        s = Sentence(("S",), ("X", "Y", "Z"), _random_negation_body(rng, 3), "ab", ())
        p = positivize(s)
        fresh += len(p.existentials) > len(s.existentials)
        assert enumerate_counterexamples(p, 3) == _reference_counterexamples(s, 3), s.body
    # some bodies leave no existential free beside a negation
    assert fresh > 0


def test_positivize_keeps_zoo_verdicts():
    for m, w in zoo()[:1] + zoo()[2:3]:
        s = encode(m, w)
        p = positivize(s)
        assert p.existentials[: len(s.existentials)] == s.existentials
        added = set(p.existentials[len(s.existentials) :])
        assert added and not added & set(s.universals + s.existentials)
        r = simulate(m, w)
        assert isinstance(r, Accepted)
        enc = encode_history(m, w, r.history)
        assert enumerate_counterexamples(p, len(enc)) == [enc]
