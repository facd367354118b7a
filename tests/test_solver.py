"""End-to-end satisfiability pipeline."""

import os
import random
import subprocess
import sys
from collections import Counter
from itertools import product
from pathlib import Path

import pytest

import wordeq
from helpers import (
    _template_equation,
    length_abstraction,
    random_boolean_formula,
    random_formula_el,
    random_formula_elr,
    random_regex,
    random_resumed_formula,
)
from wordeq.automata import param_membership, prog_intersect, regex_to_dfa
import wordeq.errors as errors
from wordeq.errors import Budget, LetterOutsideAlphabet, ResourceExhausted, UnfixedPartPresent
from wordeq.lengths import implied_length_constraints, param_var, translate_len_atom, upset_rows
from wordeq.lia import lia_sat
from wordeq.normalize import eliminate_negations, to_dnf
from wordeq.oracle import NoModelUpTo, brute_force_sat
from wordeq.paramwords import params_of
from wordeq.parser import parse_problem
from wordeq.semantics import Assignment, eval_formula
from wordeq import solved_form
from wordeq.solved_form import OutOfFragment, apply_solved_form, to_solved_form
from wordeq.solver import (
    Sat,
    Unsat,
    Unsupported,
    _regex_row_groups,
    check_sat,
)
from wordeq.terms import (
    Concat,
    NameGen,
    InRe,
    IntVar,
    Len,
    LenLeq,
    Lit,
    Not,
    ReConcat,
    ReLit,
    ReStar,
    ReUnion,
    Sum,
    Var,
    WordEq,
    concat,
    conj,
    disj,
    free_vars,
    re_alt,
    re_lit,
    re_seq,
    re_star,
    sum_of,
)

CONJUGATE = WordEq(concat(Lit("ab"), Var("X")), concat(Var("X"), Lit("ba")))
# (ab|ba)(ab)*a
RE_ODD = ReConcat((ReUnion((ReLit("ab"), ReLit("ba"))), ReStar(ReLit("ab")), ReLit("a")))


def test_conjugate_with_membership_and_cap():
    phi = conj(CONJUGATE, InRe(Var("X"), RE_ODD), LenLeq(Len(Var("X")), 5))
    res = check_sat(phi, "ab")
    assert isinstance(res, Sat)
    assert res.strings["X"] in ("aba", "ababa")
    assert eval_formula(phi, res.assignment())


def test_conjugate_cap_two_is_unsat():
    phi = conj(CONJUGATE, InRe(Var("X"), RE_ODD), LenLeq(Len(Var("X")), 2))
    assert isinstance(check_sat(phi, "ab"), Unsat)


def test_chained_definition_conflict():
    # abX = Xba needs |X| odd, X = abY needs room: len(X) <= 1 closes it
    phi = conj(
        CONJUGATE,
        WordEq(Var("X"), concat(Lit("ab"), Var("Y"))),
        LenLeq(Len(Var("X")), 1),
    )
    assert isinstance(check_sat(phi, "ab"), Unsat)


def test_definition_with_lower_bound():
    # X = abY with |Y| >= 2
    phi = conj(
        WordEq(Var("X"), concat(Lit("ab"), Var("Y"))),
        LenLeq(sum_of((-1, Len(Var("Y")))), -2),
    )
    res = check_sat(phi, "ab")
    assert isinstance(res, Sat)
    assert eval_formula(phi, res.assignment())
    # additionally capping |X| <= 2 leaves no room for Y
    capped = conj(phi, LenLeq(Len(Var("X")), 2))
    assert isinstance(check_sat(capped, "ab"), Unsat)


def test_crossed_equation_unsupported():
    phi = WordEq(
        concat(Var("X"), Lit("ab"), Var("Y")), concat(Var("Y"), Lit("ba"), Var("X"))
    )
    res = check_sat(phi, "ab")
    assert isinstance(res, Unsupported)
    assert res.reason == "no rule applies to the system"


def test_exact_beats_length_only_abstraction():
    # abX = Xba forces X to start with a, but (ab)*b only constrains the
    # length once letters are forgotten: the weakened pipeline says sat
    phi = conj(
        CONJUGATE,
        InRe(Var("X"), ReConcat((ReStar(ReLit("ab")), ReLit("b")))),
        LenLeq(Len(Var("X")), 3),
    )
    assert isinstance(check_sat(phi, "ab"), Unsat)
    assert length_abstraction(phi, "ab") == "sat"


def test_length_abstraction_agrees_when_lengths_decide():
    phi = conj(CONJUGATE, LenLeq(Len(Var("X")), 0))
    # |X| must be odd, so the length view alone already refutes this
    assert length_abstraction(phi, "ab") == "unsat"
    assert isinstance(check_sat(phi, "ab"), Unsat)


def test_length_abstraction_over_approximates():
    # the length rows are implied by the exact rows, so every exact Sat is
    # a length-only "sat" (and a length-only "unsat" is never an exact Sat)
    rng = random.Random(2024)
    seen = set()
    for _ in range(300):
        phi = random_formula_elr(rng)
        exact = check_sat(phi, "ab")
        abstract = length_abstraction(phi, "ab")
        if isinstance(exact, Sat):
            assert abstract == "sat"
        seen.add((type(exact).__name__, abstract))
    assert {("Sat", "sat"), ("Unsat", "sat"), ("Unsat", "unsat")} <= seen


def test_sat_model_always_evaluates():
    rng = random.Random(701)
    sats = 0
    for _ in range(120):
        phi = random_formula_el(rng)
        res = check_sat(phi, "ab")
        if isinstance(res, Sat):
            sats += 1
            assert eval_formula(phi, res.assignment())
    assert sats >= 40


def test_failed_recheck_raises_under_optimize():
    # the re-check must not be an assert that python -O strips
    script = (
        "import wordeq.solver as s\n"
        "from wordeq.terms import Lit, Var, WordEq\n"
        "s.eval_formula = lambda phi, assignment: False\n"
        "print(s.check_sat(WordEq(Var('X'), Lit('a')), 'ab'))\n"
    )
    src = str(Path(wordeq.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "AssertionError" in proc.stderr


def test_model_key_order_does_not_depend_on_the_hash_seed():
    # the model's variables are sets in the pipeline; the verdict lists
    # them in one order whatever the string hash seed
    script = (
        "from wordeq.solver import check_sat\n"
        "from wordeq.terms import IntVar, LenLeq, Lit, Var, WordEq, concat, conj, sum_of\n"
        "phi = conj(\n"
        "    WordEq(Var('X'), concat(Var('Y'), Lit('a'), Var('Z'))),\n"
        "    LenLeq(sum_of((1, IntVar('n')), (1, IntVar('m'))), 3),\n"
        ")\n"
        "print(repr(check_sat(phi, 'ab')))\n"
    )
    src = str(Path(wordeq.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = []
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert outs[0].startswith("Sat(strings={'X': 'a', 'Y': '', 'Z': ''}, ints={'m': 0, 'n': 0})")


def test_invariant_checks_raise_under_optimize():
    # the binding checks of the rewriting, the witness search's checks,
    # the oracle's checks and the automaton and row constructors' checks
    # must not be asserts that python -O strips
    script = (
        f"import sys; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
        "from helpers import is_counterexample\n"
        "import wordeq.oracle as o\n"
        "import wordeq.twocounter as t\n"
        "from wordeq.automata import Dfa\n"
        "from wordeq.lengths import LinVar, Row\n"
        "from wordeq.paramwords import Unfixed\n"
        "from wordeq.solved_form import _State\n"
        "from wordeq.terms import Lit, Var, WordEq, concat\n"
        "def expect(exc, fn):\n"
        "    try:\n"
        "        fn()\n"
        "    except exc as e:\n"
        "        print(type(e).__name__, e)\n"
        "expect(AssertionError, lambda: _State([], {'X': ()}, 0).bind('X', ()))\n"
        "expect(AssertionError, lambda: _State([], {}, 0).bind('X', (Unfixed('X'),)))\n"
        "body = WordEq(Var('S'), concat(Var('Y'), Var('Y'), Lit('a')))\n"
        "two = t.Sentence(('S', 'T'), ('Y',), body, 'a', ())\n"
        "expect(ValueError, lambda: is_counterexample(two, 'a'))\n"
        "expect(ValueError, lambda: t.enumerate_counterexamples(two, 1))\n"
        "t._drawn_matches = lambda pattern, target, budget, layer: [({}, {'i': 1})]\n"
        "one = t.Sentence(('S',), ('Y',), body, 'a', ())\n"
        "expect(AssertionError, lambda: is_counterexample(one, 'a'))\n"
        "expect(ValueError, lambda: o.brute_force_sat(body, 'aa', 1))\n"
        "expect(TypeError, lambda: o._term_len_interval(None, {}, 1))\n"
        "expect(TypeError, lambda: o._str_len(None, {}))\n"
        "expect(TypeError, lambda: o._profile_value(None, {}, 1, {}, 'a'))\n"
        "expect(ValueError, lambda: Dfa('aa', ((0,),), 0, frozenset()))\n"
        "expect(ValueError, lambda: Dfa('ab', ((0,),), 0, frozenset()))\n"
        "expect(ValueError, lambda: LinVar('bogus', 'x'))\n"
        "expect(ValueError, lambda: Row({}, 'lt', 0))\n"
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
        "AssertionError X is bound twice",
        "AssertionError occurs check: X occurs in its own value",
        "ValueError one universal variable is supported",
        "ValueError one universal variable is supported",
        "AssertionError a sentence equation matched with power parameters",
        "ValueError alphabet letters must be distinct: 'aa'",
        "TypeError not a length term: None",
        "TypeError not a string term: None",
        "TypeError not a formula: None",
        "ValueError alphabet letters must be distinct: 'aa'",
        "ValueError a transition row has 1 entries for 2 letters",
        "ValueError not a variable kind: 'bogus'",
        "ValueError not a row relation: 'lt'",
    ]


def test_empty_alphabet_length_formulas_against_small_integers():
    # every word over "" is empty, so a length-only formula holds exactly
    # when its integer rows hold with every length 0
    rng = random.Random(6)
    reach = 12
    points = list(product(range(-reach, reach + 1), repeat=2))
    kinds = set()
    for _ in range(300):
        rows = [
            ([rng.choice([-3, -2, -1, 0, 1, 2, 3]) for _ in range(4)], rng.randint(-4, 4))
            for _ in range(rng.randint(1, 3))
        ]
        terms = (Len(Var("X")), Len(Var("Y")), IntVar("m"), IntVar("n"))
        phi = conj(*(LenLeq(sum_of(*zip(cs, terms)), b) for cs, b in rows))
        found = any(all(cs[2] * m + cs[3] * n <= b for cs, b in rows) for m, n in points)
        verdict = check_sat(phi, "")
        kinds.add(type(verdict))
        if isinstance(verdict, Sat):
            ints = [verdict.ints.get(name, 0) for name in ("m", "n")]
            assert found or max(map(abs, ints)) > reach, phi
        else:
            assert verdict == Unsat() and not found, phi
    assert kinds == {Sat, Unsat}


def test_disjunction_picks_live_branch():
    dead = conj(WordEq(Var("X"), Lit("a")), WordEq(Var("X"), Lit("b")))
    live = WordEq(Var("X"), Lit("ab"))
    res = check_sat(disj(dead, live), "ab")
    assert isinstance(res, Sat)
    assert res.strings["X"] == "ab"


def test_negated_equation():
    phi = conj(WordEq(Var("X"), concat(Lit("a"), Var("Y"))), Not(WordEq(Var("Y"), Lit("b"))))
    res = check_sat(phi, "ab")
    assert isinstance(res, Sat)
    assert res.strings["X"] == "a" + res.strings["Y"]
    assert res.strings["Y"] != "b"
    # every word differs from itself nowhere: negating X = X is unsat
    assert isinstance(check_sat(Not(WordEq(Var("X"), Var("X"))), "ab"), Unsat)


def test_negated_membership():
    # X = (ab)^i a always ends the pattern in a, so excluding (ab)*a kills
    # every instance, while excluding (ab)(ab)*a only removes i >= 1
    always = ReConcat((ReStar(ReLit("ab")), ReLit("a")))
    assert isinstance(check_sat(conj(CONJUGATE, Not(InRe(Var("X"), always))), "ab"), Unsat)
    most = ReConcat((ReLit("ab"), ReStar(ReLit("ab")), ReLit("a")))
    phi = conj(CONJUGATE, Not(InRe(Var("X"), most)))
    res = check_sat(phi, "ab")
    assert isinstance(res, Sat)
    assert res.strings["X"] == "a"
    assert eval_formula(phi, res.assignment())


def test_free_integer_variables():
    # n is only tied to X through lengths; both directions must hold
    phi = conj(
        WordEq(Var("X"), concat(Lit("a"), Var("Y"))),
        LenLeq(sum_of((1, Len(Var("X"))), (-1, IntVar("n"))), 0),
        LenLeq(sum_of((1, IntVar("n")), (-1, Len(Var("X")))), 0),
        LenLeq(sum_of((-1, IntVar("n"))), -3),
    )
    res = check_sat(phi, "ab")
    assert isinstance(res, Sat)
    assert res.ints["n"] == len(res.strings["X"]) >= 3


def test_many_int_constants_refuted_at_the_root():
    # 2(n0 + ... + n17) <= -1 and >= 1 over 18 declared Int constants: the
    # integer solver's relaxation is infeasible before any branching
    names = " ".join(f"n{i}" for i in range(18))
    problem = parse_problem(
        '(set-alphabet "ab")\n'
        + "".join(f"(declare-const n{i} Int)\n" for i in range(18))
        + f"(assert (<= (* 2 (+ {names})) -1))\n"
        + f"(assert (<= (* -2 (+ {names})) -1))\n"
    )
    assert isinstance(check_sat(problem.conjunction(), problem.alphabet), Unsat)


def test_membership_over_compound_term():
    # the regex applies to a concatenation, not a bare variable
    phi = conj(
        CONJUGATE,
        InRe(
            concat(Lit("a"), Var("X")),
            ReConcat((ReLit("a"), ReStar(ReLit("ab")), ReLit("a"))),
        ),
        LenLeq(Len(Var("X")), 3),
    )
    res = check_sat(phi, "ab")
    assert isinstance(res, Sat)
    assert eval_formula(phi, res.assignment())
    # a X = a (ab)^i a can never alternate like (ab)*
    bad = conj(CONJUGATE, InRe(concat(Lit("a"), Var("X")), ReStar(ReLit("ab"))))
    assert isinstance(check_sat(bad, "ab"), Unsat)


def test_membership_on_unfixed_part_is_unsupported():
    # nothing pins X down, so its parametric word keeps an unfixed part;
    # the honest answer is unsupported, not a guess
    phi = InRe(Var("X"), ReStar(ReLit("ab")))
    res = check_sat(phi, "ab")
    assert isinstance(res, Unsupported)
    assert "unfixed" in res.reason
    defined = conj(WordEq(Var("X"), concat(Lit("a"), Var("Y"))), phi)
    res = check_sat(defined, "ab")
    assert isinstance(res, Unsupported)


def test_letters_outside_alphabet_rejected():
    with pytest.raises(LetterOutsideAlphabet):
        check_sat(WordEq(Var("X"), Lit("c")), "ab")


def test_empty_alphabet_degenerate():
    res = check_sat(WordEq(Var("X"), Lit("")), "")
    assert isinstance(res, Sat)
    assert res.strings["X"] == ""


@pytest.mark.parametrize("unsat", [False, True])
def test_membership_over_the_empty_alphabet(unsat):
    # every word over "" is empty, so a membership over unfixed parts is
    # decided with those parts empty instead of being blocked
    X, Y = Var("X"), Var("Y")
    phi = conj(WordEq(X, Y), InRe(concat(X, Y), re_star(re_lit(""))))
    if unsat:
        assert check_sat(conj(phi, Not(WordEq(Y, Lit("")))), "") == Unsat()
    else:
        assert check_sat(phi, "") == Sat({"X": "", "Y": ""}, {})


def test_unsat_stays_unsat_under_weaker_caps():
    # anti-monotonicity spot check: relaxing a cap can only add models
    phi = conj(CONJUGATE, InRe(Var("X"), RE_ODD))
    verdicts = []
    for cap in range(0, 8):
        res = check_sat(conj(phi, LenLeq(Len(Var("X")), cap)), "ab")
        verdicts.append(isinstance(res, Sat))
    assert verdicts == sorted(verdicts)  # False... then True...
    assert verdicts[2] is False and verdicts[3] is True


def _alternating(depth):
    """An alternating or/and chain with ``depth`` formula nodes on its
    longest path, built through the API (no parser depth check)."""
    atom = WordEq(Var("X"), Lit("a"))
    phi = atom
    for i in range(depth - 1):
        phi = (conj if i % 2 else disj)(atom, phi)
    return phi


def test_api_formula_nested_too_deep_is_unsupported():
    phi = _alternating(1500)
    assert check_sat(phi, "ab") == Unsupported("formula nested deeper than 256")


def test_api_formula_at_the_nesting_limit_solves():
    from wordeq.parser import MAX_DEPTH

    phi = _alternating(MAX_DEPTH)
    assert isinstance(check_sat(phi, "ab"), Sat)
    assert length_abstraction(phi, "ab") == "sat"
    assert check_sat(_alternating(MAX_DEPTH + 1), "ab") == Unsupported(
        f"formula nested deeper than {MAX_DEPTH}"
    )


def _deep_regex(n):
    """n regex operators deep, a star outermost when n is even."""
    r = ReLit("a")
    for i in range(n):
        r = ReStar(r) if i % 2 else ReConcat((ReLit("a"), r))
    return r


def _deep_concat(n):
    t = Var("X")
    for i in range(n):
        t = Concat((Lit("ab"[i % 2]), t))
    return t


def _deep_sum(n):
    """n - 1 sums around one length term."""
    t = Len(Var("X"))
    for _ in range(n - 1):
        t = Sum(((1, t),))
    return t


# formulas built through the API whose longest path holds ``depth`` nodes
# that hold other nodes, most of them inside one atom
DEEP_ATOMS = {
    "regex": lambda depth: conj(
        WordEq(Var("X"), Lit("")), InRe(Var("X"), _deep_regex(depth - 2))
    ),
    "concat": lambda depth: WordEq(Var("Y"), _deep_concat(depth - 1)),
    "sum": lambda depth: LenLeq(_deep_sum(depth - 1), 3),
}


@pytest.mark.parametrize("build", DEEP_ATOMS.values(), ids=DEEP_ATOMS.keys())
def test_api_terms_and_regexes_nested_too_deep_are_unsupported(build):
    phi = build(1500)
    assert check_sat(phi, "ab") == Unsupported("formula nested deeper than 256")


@pytest.mark.parametrize("build", DEEP_ATOMS.values(), ids=DEEP_ATOMS.keys())
def test_api_terms_and_regexes_at_the_nesting_limit_solve(build):
    from wordeq.parser import MAX_DEPTH

    assert isinstance(check_sat(build(MAX_DEPTH), "ab"), Sat)
    assert length_abstraction(build(MAX_DEPTH), "ab") == "sat"
    assert check_sat(build(MAX_DEPTH + 1), "ab") == Unsupported(
        f"formula nested deeper than {MAX_DEPTH}"
    )


def test_blocked_rewriting_branch_leaves_the_others_decided():
    # aY = Ya twice: peeling the copy runs out of the growth budget, but
    # the branch with Y = "" has already given a solved form
    eq = WordEq(concat(Lit("a"), Var("Y")), concat(Var("Y"), Lit("a")))
    res = check_sat(conj(eq, eq, LenLeq(Len(Var("Y")), 0)), "ab")
    assert res == Sat({"Y": ""}, {})


def test_long_straddle_chain_is_decided():
    # X_i aab = baa X_{i+1} keeps every length equal along the chain, and
    # each straddle step removes a variable, so twelve links are refuted
    xs = [Var(f"X{i}") for i in range(13)]
    phi = conj(
        *(WordEq(concat(xs[i], Lit("aab")), concat(Lit("baa"), xs[i + 1])) for i in range(12)),
        LenLeq(sum_of((1, Len(xs[0])), (-1, Len(xs[12]))), -1),
    )
    assert isinstance(check_sat(phi, "ab"), Unsat)


def _residues(k, rs):
    """(ab)^i a with i mod k in rs."""
    return re_alt(*(re_seq(re_lit("ab" * r), re_star(re_lit("ab" * k)), re_lit("a")) for r in rs))


@pytest.mark.parametrize("unsat", [False, True], ids=["sat", "unsat"])
def test_membership_product_is_one_integer_call(unsat, monkeypatch):
    # X_j = (ab)^i_j a, each i_j split mod 2 and mod 3: 6561 row groups
    # under one solved form.  The shared rows say sum |X_j| = c with every
    # |X_j| odd, so an odd c refutes the form before any group is built,
    # and an even c is sat at the first group
    import wordeq.solver as solver

    calls = []
    monkeypatch.setattr(solver, "lia_sat", lambda *args: calls.append(args) or lia_sat(*args))
    xs = [Var(f"X{j}") for j in range(4)]
    parts = []
    for x in xs:
        parts.append(WordEq(concat(Lit("ab"), x), concat(x, Lit("ba"))))
        parts += [InRe(x, _residues(2, range(2))), InRe(x, _residues(3, range(3)))]
    total = sum_of(*[(1, Len(x)) for x in xs])
    c = 25 if unsat else 24
    verdict = check_sat(conj(*parts, LenLeq(total, c), LenLeq(sum_of((-1, total)), -c)), "ab")
    assert isinstance(verdict, Unsat if unsat else Sat)
    assert len(calls) == 1


def test_membership_product_sat_only_at_its_last_group(monkeypatch):
    # the same product over three X_j, with every |X_j| <= 11 and their
    # sum >= 33: only i_j = 5 (odd, 2 mod 3) fits, the last of the 729
    # groups, so every group before it is refuted within the one call
    import wordeq.solver as solver

    calls = []
    monkeypatch.setattr(solver, "lia_sat", lambda *args: calls.append(args) or lia_sat(*args))
    xs = [Var(f"X{j}") for j in range(3)]
    parts = []
    for x in xs:
        parts.append(WordEq(concat(Lit("ab"), x), concat(x, Lit("ba"))))
        parts += [InRe(x, _residues(2, range(2))), InRe(x, _residues(3, range(3)))]
        parts.append(LenLeq(Len(x), 11))
    parts.append(LenLeq(sum_of(*[(-1, Len(x)) for x in xs]), -33))
    verdict = check_sat(conj(*parts), "ab")
    assert verdict == Sat({x.name: "ab" * 5 + "a" for x in xs}, {})
    assert len(calls) == 1


def test_only_memberships_over_unfixed_parts_block_their_branch(monkeypatch):
    import wordeq.solver as solver

    x, y = Var("X"), Var("Y")
    phi = conj(WordEq(x, concat(y, Lit("a"))), InRe(x, re_star(re_lit("a"))))
    assert check_sat(phi, "ab") == Unsupported("membership constraint over unfixed parts (Y)")

    def broken(*args):
        raise UnfixedPartPresent("membership is undefined for unfixed parts")

    # the same error from a layer below the encoder's own check is a bug
    monkeypatch.setattr(solver, "param_membership", broken)
    with pytest.raises(UnfixedPartPresent, match="undefined"):
        check_sat(conj(WordEq(x, Lit("aa")), InRe(x, re_star(re_lit("a")))), "ab")


def _product_row_groups(atoms, sf, alphabet, gen):
    """Reference encoder: the product of every atom's boxes, each full
    combination intersected from scratch, dead ones dropped at the end."""
    per_atom_boxes = [
        param_membership(apply_solved_form(sf, a.term), regex_to_dfa(a.regex, alphabet))
        for a in atoms
    ]
    groups = []
    for choice in product(*per_atom_boxes):
        merged = {}
        for box in choice:
            for param, prog in box.items():
                if param not in merged:
                    merged[param] = prog
                elif merged[param] is not None:
                    merged[param] = prog_intersect(merged[param], prog)
        if None in merged.values():
            continue
        per_param = [upset_rows({param_var(p): 1}, 0, [prog], gen) for p, prog in sorted(merged.items())]
        for combo in product(*per_param):
            groups.append([row for group in combo for row in group])
    return groups


def test_membership_groups_match_the_product_reference(monkeypatch):
    x0, x1 = Var("X0"), Var("X1")
    eqs = [WordEq(concat(Lit("ab"), v), concat(v, Lit("ba"))) for v in (x0, x1)]
    # the first atom leaves only even exponents of X0, so half of the
    # prefixes die at the second atom and are never extended
    atoms = [
        InRe(x0, _residues(2, [0])),
        InRe(x0, _residues(2, [0, 1])),
        InRe(x1, _residues(2, [0, 1])),
        InRe(x0, _residues(3, [0, 1, 2])),
        InRe(concat(x0, x1), re_seq(re_star(re_lit("ab")), re_lit("a"), re_star(re_lit("ab")), re_lit("a"))),
    ]
    (sf,) = to_solved_form(eqs, variables={"X0", "X1"}, gen=NameGen({"X0", "X1"}))
    taken = {"X0", "X1"} | {p for _, pw in sf.bindings for p in params_of(pw)}
    got = list(_regex_row_groups(atoms, sf, "ab", NameGen(taken), Budget()))
    want = _product_row_groups(atoms, sf, "ab", NameGen(taken))
    assert want
    assert repr(got) == repr(want)
    # each group draws one unit before it is built
    monkeypatch.setattr(errors, "WORK_BUDGET", len(want))
    assert len(list(_regex_row_groups(atoms, sf, "ab", NameGen(taken), Budget()))) == len(want)
    monkeypatch.setattr(errors, "WORK_BUDGET", len(want) - 1)
    with pytest.raises(ResourceExhausted, match="work budget exhausted in solver"):
        list(_regex_row_groups(atoms, sf, "ab", NameGen(taken), Budget()))
    # no atoms: one empty group
    assert list(_regex_row_groups([], sf, "ab", NameGen(taken), Budget())) == [[]]


def _eager_check_sat(phi, alphabet):
    """Reference decision loop: each disjunct's whole negation product is
    built first and each of its members is rewritten and decided from
    scratch, in ``to_dnf``'s order and the product's order (the loop
    ``check_sat`` ran before it walked one tree), over a non-empty
    alphabet."""
    import wordeq.solver as solver

    svars, ivars = free_vars(phi)
    gen = NameGen(svars | ivars)
    blocked = None
    for conjunct in to_dnf(phi):
        factors = [eliminate_negations(lit.atom, lit.positive, alphabet, gen) for lit in conjunct]
        for choice in product(*factors):
            atoms = [a for alt in choice for a in alt]
            eqs = [a for a in atoms if isinstance(a, WordEq)]
            lens = [a for a in atoms if isinstance(a, LenLeq)]
            res = [a for a in atoms if isinstance(a, InRe)]
            solved = to_solved_form(eqs, variables=svars, gen=gen)
            if isinstance(solved, Unsat):
                continue
            if isinstance(solved, OutOfFragment):
                blocked = blocked or solved.reason
                solved = solved.forms
            for sf in solved:
                rows = implied_length_constraints(sf)
                rows.extend(translate_len_atom(a) for a in lens)
                try:
                    model = lia_sat(rows, _regex_row_groups(res, sf, alphabet, gen, Budget()))
                except (ResourceExhausted, solver._UnfixedMembership) as exc:
                    blocked = blocked or str(exc)
                    continue
                if model is not None:
                    return solver._build_model(sf, model, svars, ivars, alphabet)
    return Unsupported(blocked) if blocked is not None else Unsat()


def _random_negated_formula(rng, memberships=False):
    """2-3 template equations, each negated with probability 0.6, and 0-2
    length atoms; with ``memberships`` also 0-2 memberships, each negated
    with probability 0.6."""
    parts, used = [], []
    for _ in range(rng.randint(2, 3)):
        eq, vs = _template_equation(rng, "ab")
        parts.append(Not(eq) if rng.random() < 0.6 else eq)
        used.extend(vs)
    for _ in range(rng.randint(0, 2)):
        v = Var(rng.choice(used))
        if rng.random() < 0.5:
            parts.append(LenLeq(Len(v), rng.randint(0, 6)))
        else:
            parts.append(LenLeq(sum_of((-1, Len(v))), -rng.randint(1, 4)))
    for _ in range(rng.randint(0, 2) if memberships else 0):
        atom = InRe(Var(rng.choice(used)), random_regex(rng, "ab", 2))
        parts.append(Not(atom) if rng.random() < 0.6 else atom)
    return conj(*parts)


def _model(verdict):
    return sorted(verdict.strings.items()), sorted(verdict.ints.items())


def test_negation_walk_matches_the_eager_product():
    # every Sat keeps its model and every Unsat stays; only a branch that
    # was blocked below a refuted prefix may turn Unsupported into Unsat
    rng = random.Random(808)
    kinds = Counter()
    for _ in range(300):
        phi = _random_negated_formula(rng)
        want, got = _eager_check_sat(phi, "ab"), check_sat(phi, "ab")
        kinds[type(want).__name__, type(got).__name__] += 1
        if isinstance(want, Sat):
            assert isinstance(got, Sat) and _model(got) == _model(want), phi
        elif isinstance(want, Unsat):
            assert got == Unsat(), phi
        elif isinstance(got, Unsat):
            assert brute_force_sat(phi, "ab", 3) == NoModelUpTo(3), phi
        else:
            assert isinstance(got, Unsupported), phi
    assert kinds["Sat", "Sat"] > 0 and kinds["Unsat", "Unsat"] > 0


def _negations(k, w):
    """Y = ab, and X_i = w and not(X_i Y = Y X_i) for i < k."""
    y = Var("Y")
    parts = [WordEq(y, Lit("ab"))]
    for i in range(k):
        x = Var(f"X{i}")
        parts += [WordEq(x, Lit(w)), Not(WordEq(concat(x, y), concat(y, x)))]
    return conj(*parts)


@pytest.mark.parametrize("unsat", [False, True], ids=["sat", "unsat"])
def test_negation_prefix_refutes_its_subtree(unsat, monkeypatch):
    # Y = ab, X_i = w and not(X_i Y = Y X_i) for i < 4: each negation has
    # four alternatives.  With w = ab every first choice is refuted at
    # once; with w = a two of each level's choices are, so the walk goes
    # straight down the live one.  The eager product rewrites 256 and 171
    # of its members
    import wordeq.solver as solver

    calls = []
    monkeypatch.setattr(
        solver, "to_solved_form", lambda *a, **k: calls.append(a) or to_solved_form(*a, **k)
    )
    k = 4
    verdict = check_sat(_negations(k, "ab" if unsat else "a"), "ab")
    if unsat:
        assert verdict == Unsat()
    else:
        assert verdict == Sat({"Y": "ab", **{f"X{i}": "a" for i in range(k)}}, {})
    assert len(calls) <= 4 * k


def _k_disjunction(k):
    """k disjunctions X_i = a or X_i = b, and a length sum no choice meets."""
    xs = [Var(f"X{i}") for i in range(k)]
    parts = [disj(WordEq(x, Lit("a")), WordEq(x, Lit("b"))) for x in xs]
    return conj(*parts, LenLeq(sum_of(*[(1, Len(x)) for x in xs]), k - 1))


def _count_rewriting(monkeypatch):
    """Counters of the bindings made and of the equations handed to each
    rewriting call."""
    import wordeq.solver as solver

    binds, eqs = [0], []
    bind = solved_form._State.bind

    def counted_bind(st, name, value):
        binds[0] += 1
        bind(st, name, value)

    def counted_rewrite(equations, *a, **k):
        eqs.append(len(equations))
        return to_solved_form(equations, *a, **k)

    monkeypatch.setattr(solved_form._State, "bind", counted_bind)
    monkeypatch.setattr(solver, "to_solved_form", counted_rewrite)
    return binds, eqs


def test_a_choice_rewrites_only_the_equations_it_adds(monkeypatch):
    # the forced Y = ab and X_i = a are rewritten once, before the walk,
    # and each choice rewrites its own equations under the forms its
    # parent kept; from scratch, the 12 prefixes made 170 bindings over
    # 104 equations
    binds, eqs = _count_rewriting(monkeypatch)
    verdict = check_sat(_negations(4, "a"), "ab")
    assert verdict == Sat({"Y": "ab", **{f"X{i}": "a" for i in range(4)}}, {})
    assert binds[0] <= 30
    assert sum(eqs) <= 16
    # a choice between ground equations adds one equation, or none when it
    # adds a length atom
    binds[0] = 0
    eqs.clear()
    assert check_sat(_k_disjunction(8), "ab") == Unsat()
    # one call for the forced conjuncts, one for each of the 2^9 - 2 prefixes
    assert max(eqs) <= 1 and len(eqs) == 2**9 - 1
    assert binds[0] == sum(eqs)


def test_a_blocked_choice_of_only_new_equations_is_rewritten_once(monkeypatch):
    # with no forced equation, the parent's one form binds each variable
    # to itself, so resuming under it is the whole rewrite: a blocked
    # result is kept, not rewritten again from scratch
    _, eqs = _count_rewriting(monkeypatch)
    x, y = Var("X"), Var("Y")
    crossed = WordEq(concat(x, Lit("ab"), y), concat(y, Lit("ba"), x))
    assert check_sat(disj(crossed, WordEq(x, Lit("b"))), "ab") == Sat({"X": "b", "Y": ""}, {})
    assert eqs == [0, 1, 1]


def test_a_choice_can_set_a_parent_power_to_zero(monkeypatch):
    # a X = X a makes X = a^i before the walk, so the choice X = "" is
    # rewritten as a^i = "", whose one ground match sets i to 0
    calls = []
    set_param = solved_form._State.set_param
    monkeypatch.setattr(
        solved_form._State,
        "set_param",
        lambda st, param, k: calls.append(k) or set_param(st, param, k),
    )
    x = Var("X")
    phi = conj(
        WordEq(concat(Lit("a"), x), concat(x, Lit("a"))),
        disj(WordEq(x, Lit("")), WordEq(x, Lit("b"))),
    )
    assert check_sat(phi, "ab") == Sat({"X": ""}, {})
    assert calls == [0]


def test_a_blocked_prefix_keeps_its_result(monkeypatch):
    # a X = P a U leaves the rules' shapes, and the three length choices
    # add no equation, so every prefix keeps the forced conjunct's blocked
    # rewrite; rewriting each prefix again made 15 calls
    import wordeq.solver as solver

    calls = []
    monkeypatch.setattr(
        solver, "to_solved_form", lambda *a, **k: calls.append(a) or to_solved_form(*a, **k)
    )
    parts = [WordEq(concat(Lit("a"), Var("X")), concat(Var("P"), Lit("a"), Var("U")))]
    for i in range(3):
        y = Len(Var(f"Y{i}"))
        parts.append(disj(LenLeq(y, 0), Not(LenLeq(y, 1))))
    assert check_sat(conj(*parts), "ab") == Unsupported("no rule applies to the system")
    assert len(calls) == 1


def test_a_choice_resumes_every_parent_form_in_one_call(monkeypatch):
    # X ab = ab Y has two forms, X = Y = "" and X = ab W, Y = W ab, and
    # each choice Z_i = a X or Z_i = b Y rewrites its equation under both
    # in one call; a call per form made 2k + 1
    import wordeq.solver as solver

    calls = []
    monkeypatch.setattr(
        solver, "to_solved_form", lambda *a, **kw: calls.append(a) or to_solved_form(*a, **kw)
    )
    x, y = Var("X"), Var("Y")
    for k in (1, 2, 3):
        calls.clear()
        zs = [Var(f"Z{i}") for i in range(k)]
        parts = [WordEq(concat(x, Lit("ab")), concat(Lit("ab"), y))]
        parts += [disj(WordEq(z, concat(Lit("a"), x)), WordEq(z, concat(Lit("b"), y))) for z in zs]
        assert check_sat(conj(*parts), "ab") == Sat(
            {"X": "", "Y": "", **{z.name: "a" for z in zs}}, {}
        )
        assert len(calls) == k + 1


@pytest.mark.parametrize("seed", [626, 627])
def test_resumed_rewriting_against_the_eager_product(seed):
    # resuming under parametric forms loses no verdict: each is the eager
    # reference's, or decides what the reference left blocked (its forced
    # conjuncts refuted on their own, or a resumed rewrite that finishes
    # where rewriting from scratch does not).  A Sat model may differ from
    # the reference's, since the forms are found in another order; every
    # Sat is re-checked, and no Unsat has a small model
    rng = random.Random(seed)
    kinds = Counter()
    for _ in range(200):
        phi = random_resumed_formula(rng)
        want, got = _eager_check_sat(phi, "ab"), check_sat(phi, "ab")
        kinds[type(want).__name__, type(got).__name__] += 1
        if not isinstance(want, Unsupported):
            assert type(got) is type(want), phi
        if isinstance(got, Sat):
            assert eval_formula(phi, got.assignment()), phi
        elif isinstance(got, Unsat):
            assert brute_force_sat(phi, "ab", 3) == NoModelUpTo(3), phi
    assert kinds["Sat", "Sat"] > 0 and kinds["Unsat", "Unsat"] > 0


def test_a_rewrite_finds_each_solved_form_once(monkeypatch):
    # every rule splits a branch on distinct values of a variable or a
    # parameter, so no two finished branches resolve to the same form,
    # whether the rewrite starts from scratch or resumes under forms
    import wordeq.solver as solver

    results = []

    def recorded(*a, **k):
        results.append(to_solved_form(*a, **k))
        return results[-1]

    monkeypatch.setattr(solver, "to_solved_form", recorded)
    rng = random.Random(631)
    for _ in range(300):
        check_sat(random_resumed_formula(rng), "ab")
    for _ in range(100):
        first, rest, names = [], [], set()
        for eqs in (first, rest):
            for _ in range(rng.randint(1, 2)):
                eq, vs = _template_equation(rng, "ab")
                eqs.append(eq)
                names.update(vs)
        gen = NameGen(names)
        results.append(to_solved_form(first, variables=names, gen=gen))
        if isinstance(results[-1], list):
            results.append(to_solved_form(rest, variables=names, gen=gen, under=results[-1]))
    several = 0
    for res in results:
        forms = res.forms if isinstance(res, OutOfFragment) else res
        if isinstance(forms, Unsat):
            continue
        assert len(set(forms)) == len(forms), forms
        several += len(forms) > 1
    assert several >= 100


def test_only_the_returned_branch_builds_its_words(monkeypatch):
    # every prefix on the way down to the Sat branch has a model of its
    # rows, but only the branch that check_sat returns is made into words
    import wordeq.solver as solver

    calls = []
    build = solver._build_model
    monkeypatch.setattr(solver, "_build_model", lambda *a: calls.append(a) or build(*a))
    y = Var("Y")
    parts = [WordEq(y, Lit("ab"))]
    for i in range(3):
        x = Var(f"X{i}")
        parts += [WordEq(x, Lit("a")), Not(WordEq(concat(x, y), concat(y, x)))]
    verdict = check_sat(conj(*parts), "ab")
    assert verdict == Sat({"Y": "ab", "X0": "a", "X1": "a", "X2": "a"}, {})
    assert len(calls) == 1


def test_memberships_refute_a_prefix(monkeypatch):
    # Y = ab and Y in ba clash, so the first choice of the first negation
    # is refuted and no branch is built; a prefix check that leaves the
    # memberships out refutes nothing and rewrites 16 times
    import wordeq.solver as solver

    calls = []
    monkeypatch.setattr(
        solver, "to_solved_form", lambda *a, **k: calls.append(a) or to_solved_form(*a, **k)
    )
    y = Var("Y")
    parts = [WordEq(y, Lit("ab")), InRe(y, re_lit("ba"))]
    for i in range(4):
        x = Var(f"X{i}")
        parts += [WordEq(x, Lit("a")), Not(WordEq(concat(x, y), concat(y, x)))]
    assert check_sat(conj(*parts), "ab") == Unsat()
    assert len(calls) <= 4


def test_negated_atoms_against_the_oracle():
    # negated equations and negated memberships (the complement path of
    # negation elimination) end to end: every Sat model holds, and no
    # Unsat has a small model
    rng = random.Random(909)
    kinds = Counter()
    for _ in range(300):
        phi = _random_negated_formula(rng, memberships=True)
        verdict = check_sat(phi, "ab")
        kinds[type(verdict).__name__] += 1
        if isinstance(verdict, Sat):
            assert eval_formula(phi, verdict.assignment()), phi
        elif isinstance(verdict, Unsat):
            assert brute_force_sat(phi, "ab", 4) == NoModelUpTo(4), phi
    assert kinds["Sat"] > 0 and kinds["Unsat"] > 0


def test_nested_boolean_formulas_against_the_oracle():
    # And, Or and Not nested to depth 4 over equations, length bounds and
    # memberships: no Unsat has a small model, and deciding each disjunct's
    # eager product on its own gives the same verdict kind
    rng = random.Random(1818)
    kinds = Counter()
    for _ in range(300):
        phi = random_boolean_formula(rng, 4)
        verdict = check_sat(phi, "ab")
        kinds[type(verdict).__name__] += 1
        assert type(_eager_check_sat(phi, "ab")) is type(verdict), phi
        if isinstance(verdict, Unsat):
            assert brute_force_sat(phi, "ab", 3) == NoModelUpTo(3), phi
    assert kinds["Sat"] > 0 and kinds["Unsat"] > 0


def _forced_and_choices(k, forced_first):
    """Y = a and Y = b, with k disjunctions X_i = a or X_i = b: 2^k
    disjuncts, which the two forced atoms refute all."""
    y = Var("Y")
    forced = [WordEq(y, Lit("a")), WordEq(y, Lit("b"))]
    choices = [
        disj(WordEq(Var(f"X{i}"), Lit("a")), WordEq(Var(f"X{i}"), Lit("b"))) for i in range(k)
    ]
    return conj(*forced, *choices) if forced_first else conj(*choices, *forced)


@pytest.mark.parametrize("forced_first", [True, False], ids=["forced-first", "forced-last"])
def test_a_refuted_prefix_cuts_across_disjunctions(forced_first, monkeypatch):
    # the forced atoms start every prefix, so the first choice's prefix is
    # refuted, and with it every disjunct below it
    import wordeq.solver as solver

    calls = []
    decide = solver._decide
    monkeypatch.setattr(solver, "_decide", lambda *a: calls.append(a) or decide(*a))
    # no limit applies to the size of the disjunctive normal form: 2^30
    # disjuncts cost what 2^16 do
    for k in (16, 17, 30):
        calls.clear()
        assert check_sat(_forced_and_choices(k, forced_first), "ab") == Unsat()
        assert len(calls) <= 4


def test_one_budget_spans_the_layers(monkeypatch):
    # two X_j = (ab)^i_j a, each split mod 2 and mod 3, with |X_j| <= 11
    # and their sum >= 22: the walk, rewriting, the membership groups and
    # the integer search all draw from the call's one budget
    drawn = []
    draw = Budget.draw
    monkeypatch.setattr(
        Budget, "draw", lambda self, n, layer: drawn.append((n, layer)) or draw(self, n, layer)
    )
    xs = [Var(f"X{j}") for j in range(2)]
    parts = []
    for x in xs:
        parts.append(WordEq(concat(Lit("ab"), x), concat(x, Lit("ba"))))
        parts += [InRe(x, _residues(2, range(2))), InRe(x, _residues(3, range(3)))]
        parts.append(LenLeq(Len(x), 11))
    parts.append(LenLeq(sum_of(*[(-1, Len(x)) for x in xs]), -22))
    phi = conj(*parts)
    verdict = check_sat(phi, "ab")
    assert verdict == Sat({x.name: "ab" * 5 + "a" for x in xs}, {})
    first = list(drawn)
    assert {layer for _, layer in first} == {"normalize", "solved_form", "solver", "lia"}
    need = sum(n for n, _ in first)
    monkeypatch.setattr(errors, "WORK_BUDGET", need)
    assert check_sat(phi, "ab") == verdict
    # one unit less runs out at the last draw, and the call is Unsupported
    monkeypatch.setattr(errors, "WORK_BUDGET", need - 1)
    assert check_sat(phi, "ab") == Unsupported(f"work budget exhausted in {first[-1][1]}")


def test_a_walk_past_the_budget_is_unsupported(monkeypatch):
    # the k-disjunction example: every one of the 2^k conjunctions is
    # decided, about 8 * 2^k units
    monkeypatch.setattr(errors, "WORK_BUDGET", 1000)
    assert check_sat(_k_disjunction(6), "ab") == Unsat()
    verdict = check_sat(_k_disjunction(16), "ab")
    assert isinstance(verdict, Unsupported)
    assert verdict.reason.startswith("work budget exhausted in ")


def test_normalize_checks_raise_under_optimize():
    # to_dnf and eliminate_negations take atoms only, also under python -O
    script = (
        "from wordeq.normalize import eliminate_negations, to_dnf\n"
        "from wordeq.terms import NameGen, Not, Var\n"
        "def expect(exc, fn):\n"
        "    try:\n"
        "        fn()\n"
        "    except exc as e:\n"
        "        print(type(e).__name__, e)\n"
        "expect(TypeError, lambda: to_dnf(Var('X')))\n"
        "expect(TypeError, lambda: to_dnf(Not(Var('X'))))\n"
        "expect(TypeError, lambda: eliminate_negations(Var('X'), False, 'ab', NameGen()))\n"
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
    assert proc.stdout.splitlines() == ["TypeError not an atom: Var(name='X')"] * 3
