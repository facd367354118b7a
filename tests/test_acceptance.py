"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
PASS lines of passing criteria as they complete).
"""

import random
import time
from itertools import product
from math import lcm

from wordeq.automata import (
    length_set,
    param_membership,
    prog_member,
    regex_match,
    regex_to_dfa,
    upset_member,
)
from wordeq.corpus import analyze_corpus
from wordeq.errors import ResourceExhausted
from wordeq.lengths import (
    Row,
    implied_length_constraints,
    len_var,
    param_var,
    part_var,
    translate_len_atom,
)
from wordeq.lia import lia_sat
from wordeq.oracle import NoModelUpTo, SatWith, brute_force_sat
from wordeq.paramwords import Const, Power, instantiate, params_of, parts_of
from wordeq.semantics import eval_formula
from wordeq.solved_form import OutOfFragment, to_solved_form
from wordeq.solver import (
    Sat,
    Unsat,
    Unsupported,
    check_sat,
)
from wordeq.terms import (
    InRe,
    Len,
    LenLeq,
    Lit,
    Var,
    WordEq,
    concat,
    conj,
    re_alt,
    re_lit,
    re_seq,
    re_star,
    sum_of,
)
from wordeq.twocounter import (
    Counterexample,
    bounded_validity_check,
    encode,
    encode_history,
    enumerate_counterexamples,
    positivize,
    simulate,
)
from wordeq.twocounter import Accepted

from helpers import (
    accepted_lengths_bfs,
    box_has_solution,
    generate_corpus,
    length_abstraction,
    random_formula_el,
    random_formula_elr,
    random_paramword,
    random_solved_form,
    random_word,
    zoo,
)

X, Y = Var("X"), Var("Y")

CONJUGATE = WordEq(concat(Lit("ab"), X), concat(X, Lit("ba")))


def _row_holds(row: Row, values: dict) -> bool:
    total = sum(c * values.get(v, 0) for v, c in row.coeffs.items())
    return total == row.bound if row.relation == "eq" else total <= row.bound


# ---------------------------------------------------------------------------
# criterion 1: worked examples


def test_criterion_1_worked_examples():
    clock = time.monotonic

    # One-variable conjugation: the solution family is (ab)^i a.
    t = clock()
    (sf,) = to_solved_form([CONJUGATE])
    p = sf.mapping["X"][0].param
    assert sf.mapping["X"] == (Power("ab", p), Const("a"))
    assert clock() - t < 1.0

    # Conjugation plus membership and a length cap: two models survive.
    t = clock()
    phi3 = conj(
        CONJUGATE,
        InRe(X, re_seq(re_alt(re_lit("ab"), re_lit("ba")), re_star(re_lit("ab")), re_lit("a"))),
        LenLeq(Len(X), 5),
    )
    v3 = check_sat(phi3, "ab")
    assert isinstance(v3, Sat)
    assert v3.strings["X"] in ("aba", "ababa")
    assert eval_formula(phi3, v3.assignment())
    o3 = brute_force_sat(phi3, "ab", 5)
    assert isinstance(o3, SatWith)  # oracle agrees at bound 5
    assert clock() - t < 1.0

    # A crossing pair: X and Y are the same power of a, in lockstep.
    t = clock()
    forms = to_solved_form(
        [
            WordEq(concat(X, Lit("a")), concat(Lit("a"), Y)),
            WordEq(concat(Y, Lit("a")), concat(X, Lit("a"))),
        ]
    )
    assert isinstance(forms, list) and forms
    for form in forms:
        x, y = form.mapping["X"], form.mapping["Y"]
        assert x == y
        assert len(x) == 1
        assert isinstance(x[0], Power) and x[0].base == "a"
    assert clock() - t < 1.0

    # Chaining X = abY into the conjugation leaves len(X) >= 3, so a cap of
    # one is unsat -- and the length system alone already refutes it.
    t = clock()
    chained = [CONJUGATE, WordEq(X, concat(Lit("ab"), Y))]
    cap1 = LenLeq(Len(X), 1)
    assert check_sat(conj(*chained, cap1), "ab") == Unsat()
    forms5 = to_solved_form(chained)
    assert isinstance(forms5, list) and forms5
    for form in forms5:
        assert lia_sat([translate_len_atom(cap1, form)]) is None
    assert clock() - t < 1.0

    # Both variables straddling both sides falls outside the fragment.
    t = clock()
    crossed = WordEq(concat(X, Lit("ab"), Y), concat(Y, Lit("ba"), X))
    assert isinstance(to_solved_form([crossed]), OutOfFragment)
    assert isinstance(check_sat(crossed, "ab"), Unsupported)
    assert clock() - t < 1.0

    # A definition with a length lower bound is sat; capping the defined
    # variable below the implied minimum flips it to unsat.
    t = clock()
    base = conj(WordEq(X, concat(Lit("ab"), Y)), LenLeq(sum_of((-1, Len(Y))), -2))
    vb = check_sat(base, "ab")
    assert isinstance(vb, Sat)
    assert vb.strings["X"] == "ab" + vb.strings["Y"]
    assert len(vb.strings["Y"]) >= 2
    assert check_sat(conj(base, LenLeq(Len(X), 2)), "ab") == Unsat()
    assert clock() - t < 1.0

    # The full pipeline refutes what a length-only view accepts: every
    # solution of the equation ends in a, the regex demands b, but the
    # length sets are compatible.
    t = clock()
    phi7 = conj(
        CONJUGATE,
        InRe(X, re_seq(re_star(re_lit("ab")), re_lit("b"))),
        LenLeq(Len(X), 3),
    )
    assert check_sat(phi7, "ab") == Unsat()
    assert length_abstraction(phi7, "ab") == "sat"
    assert clock() - t < 1.0

    print("criterion 1: PASS — all worked examples verified, each under 1 s")


# ---------------------------------------------------------------------------
# criterion 2: oracle differential


def test_criterion_2_oracle_differential():
    rng = random.Random(2024)
    start = time.monotonic()
    checked = {"sat": 0, "unsat": 0}
    for generator, target in ((random_formula_el, 300), (random_formula_elr, 150)):
        kept = 0
        while kept < target:
            phi = generator(rng)
            verdict = check_sat(phi, "ab")
            if isinstance(verdict, Unsupported):
                continue  # out of fragment: regenerate
            try:
                bounded = brute_force_sat(phi, "ab", 8)
            except ResourceExhausted:
                continue  # oracle out of budget: regenerate
            if isinstance(verdict, Unsat):
                # A bounded model would be a genuine disagreement.
                assert isinstance(bounded, NoModelUpTo), (phi, bounded)
                checked["unsat"] += 1
            else:
                assert isinstance(verdict, Sat)
                assert eval_formula(phi, verdict.assignment())
                if all(len(w) <= 8 for w in verdict.strings.values()):
                    # The oracle searches this far, so it must find one too.
                    assert isinstance(bounded, SatWith), (phi, verdict)
                checked["sat"] += 1
            kept += 1
    elapsed = time.monotonic() - start
    assert elapsed <= 300.0
    print(
        f"criterion 2: PASS — 450 formulas, {checked['sat']} sat / "
        f"{checked['unsat']} unsat, zero disagreements in {elapsed:.1f} s"
    )


# ---------------------------------------------------------------------------
# criterion 3: implied length rows, soundness and back-solving


def test_criterion_3_solved_form_length_rows():
    rng = random.Random(3)
    for _ in range(200):
        sf = random_solved_form(rng)
        rows = implied_length_constraints(sf)

        names = {p for _, w in sf.bindings for p in params_of(w)}
        parts = {y for _, w in sf.bindings for y in parts_of(w)}

        # Soundness: any instantiation induces lengths satisfying every row.
        chosen_params = {p: rng.randint(0, 8) for p in names}
        chosen_parts = {y: random_word(rng, "ab", 8) for y in parts}
        values = {param_var(p): n for p, n in chosen_params.items()}
        values |= {part_var(y): len(w) for y, w in chosen_parts.items()}
        for v, w in sf.bindings:
            values[len_var(v)] = len(instantiate(w, chosen_params, chosen_parts))
        assert all(_row_holds(row, values) for row in rows)

        # Completeness at bound 8: a capped LIA model back-solves to words.
        capped = rows + [Row({len_var(v): 1}, "le", 8) for v, _ in sf.bindings]
        model = lia_sat(capped)
        assert model is not None  # params 0 / parts empty always fit
        back_params = {p: model.get(param_var(p), 0) for p in names}
        back_parts = {y: "a" * model.get(part_var(y), 0) for y in parts}
        back_values = dict(model)
        for v, w in sf.bindings:
            word = instantiate(w, back_params, back_parts)
            assert len(word) <= 8
            assert len(word) == model.get(len_var(v), len(word))
            back_values[len_var(v)] = len(word)
        assert all(_row_holds(row, back_values) for row in capped)
    print("criterion 3: PASS — 200 solved forms, rows sound and back-solvable")


# ---------------------------------------------------------------------------
# criterion 4: length sets and parametric membership


CORPUS_REGEXES = [
    re_seq(re_alt(re_lit("ab"), re_lit("ba")), re_star(re_lit("ab")), re_lit("a")),
    re_star(re_lit("ab")),
    re_seq(re_star(re_lit("ab")), re_lit("b")),
    re_star(re_lit("a")),
    re_seq(re_star(re_lit("aa")), re_lit("b"), re_star(re_lit("aa"))),
    re_star(re_alt(re_lit("a"), re_lit("b"))),
    re_alt(re_lit("a"), re_seq(re_lit("b"), re_star(re_lit("ba")))),
    re_seq(re_lit("a"), re_star(re_alt(re_lit("bb"), re_lit("aab")))),
]


def test_criterion_4_automata_properties():
    rng = random.Random(4)
    dfas = []
    for r in CORPUS_REGEXES:
        d = regex_to_dfa(r, "ab")
        dfas.append((r, d))
        ls = length_set(d)
        preperiod = max((o for o, _ in ls), default=0)
        period = lcm(*(p for _, p in ls if p)) if any(p for _, p in ls) else 1
        bound = 3 * (preperiod + period)
        got = {n for n in range(bound + 1) if upset_member(ls, n)}
        assert got == accepted_lengths_bfs(d, bound)

    checked = 0
    for r, d in dfas:
        words = [random_paramword(rng, "ab") for _ in range(4)]
        for w in words:
            boxes = param_membership(w, d)
            names = params_of(w)
            for point in product(range(9), repeat=len(names)):
                env = dict(zip(names, point))
                via_boxes = any(
                    all(prog_member(env[p], box[p]) for p in box) for box in boxes
                )
                assert via_boxes == regex_match(r, instantiate(w, env)), (w, env)
                checked += 1
    print(f"criterion 4: PASS — length sets match BFS; {checked} membership points")


# ---------------------------------------------------------------------------
# criterion 5: integer systems against box enumeration


def test_criterion_5_lia_differential():
    rng = random.Random(5)
    sats = 0
    for _ in range(1000):
        nvars = rng.choice((1, 2, 2, 3, 3))
        kinds = [rng.choice((len_var, param_var)) for _ in range(nvars)]
        cols = [make(f"v{k}") for k, make in enumerate(kinds)]
        rows = []
        for _ in range(rng.randint(1, 4)):
            coeffs = {v: rng.randint(-4, 4) for v in cols if rng.random() < 0.8}
            rows.append(
                Row(coeffs, "eq" if rng.random() < 0.3 else "le", rng.randint(-10, 15))
            )
        boxed = rows + [Row({v: 1}, "le", 12) for v in cols]
        got = lia_sat(boxed)
        want = box_has_solution(boxed, cols, 0, 12)
        assert (got is None) == (want is None), (boxed, got, want)
        if got is not None:
            sats += 1
            assert all(_row_holds(row, got) for row in boxed)
            assert all(0 <= got.get(v, 0) <= 12 for v in cols)
    print(f"criterion 5: PASS — 1000 systems, {sats} sat, verdicts identical")


# ---------------------------------------------------------------------------
# criterion 6: reduction coherence on the machine zoo


def test_criterion_6_reduction_coherence():
    lines = []
    for m, w in zoo():
        s = encode(m, w)
        run = simulate(m, w, max_steps=300)
        found = enumerate_counterexamples(s, 4)
        if isinstance(run, Accepted):
            enc = encode_history(m, w, run.history)
            assert found == [enc]
            assert bounded_validity_check(s, len(enc)) == Counterexample(enc)
            lines.append(f"accepts ({enc!r})")
        else:
            assert found == []
            lines.append("no run")
        assert enumerate_counterexamples(positivize(s), 4) == found
    print(f"criterion 6: PASS — zoo of 5: {', '.join(lines)}; positivize agrees")


# ---------------------------------------------------------------------------
# criterion 7: corpus ratio


def test_criterion_7_bench_ratio(tmp_path):
    start = time.monotonic()
    paths = generate_corpus(tmp_path / "corpus", n_files=1000, seed=2024, solved_fraction=0.8)
    stats = analyze_corpus(paths)
    elapsed = time.monotonic() - start
    assert stats.files == 1000
    assert stats.failed_files == 0
    assert abs(stats.ratio - 0.80) <= 0.02
    assert elapsed <= 30.0
    print(
        f"criterion 7: PASS — 1000 files, ratio {stats.ratio:.4f} in {elapsed:.1f} s"
    )
