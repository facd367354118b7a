"""The word-equation rewriting engine and its solved forms."""

import random
from itertools import product

import pytest

from helpers import _template_equation, render_solved_form
import wordeq.errors as errors
from wordeq import solved_form
from wordeq.errors import Budget, ResourceExhausted, UnmappedVariable
from wordeq.paramwords import (
    Const,
    Power,
    Unfixed,
    const_blocks,
    instantiate,
    merge_blocks,
    params_of,
    parts_of,
)
from wordeq.semantics import Assignment, eval_formula
from wordeq.solved_form import (
    OutOfFragment,
    SolvedForm,
    Unsat,
    apply_solved_form,
    is_solved_equation,
    to_solved_form,
)
from wordeq.terms import Lit, NameGen, Var, WordEq, concat, conj


def solve(*eqs, **kw):
    return to_solved_form(list(eqs), **kw)


def words_upto(sigma, n):
    out = [""]
    for ln in range(1, n + 1):
        out.extend("".join(t) for t in product(sigma, repeat=ln))
    return out


def sf_solutions(sf: SolvedForm, sigma: str, max_len: int) -> set[tuple[str, ...]]:
    """All instantiations whose bound words stay within max_len."""
    params = sorted({b.param for _, w in sf.bindings for b in w if isinstance(b, Power)})
    parts = sorted({p for _, w in sf.bindings for p in parts_of(w)})
    out = set()
    for pv in product(range(max_len + 1), repeat=len(params)):
        pmap = dict(zip(params, pv))
        for wv in product(words_upto(sigma, max_len), repeat=len(parts)):
            wmap = dict(zip(parts, wv))
            vals = tuple(instantiate(w, pmap, wmap) for _, w in sf.bindings)
            if all(len(v) <= max_len for v in vals):
                out.add(vals)
    return out


def brute_solutions(eqs, names, sigma, max_len) -> set[tuple[str, ...]]:
    phi = conj(*eqs)
    out = set()
    for combo in product(words_upto(sigma, max_len), repeat=len(names)):
        a = Assignment(dict(zip(names, combo)))
        if eval_formula(phi, a):
            out.add(combo)
    return out


def test_is_solved_equation():
    assert is_solved_equation(WordEq(Var("X"), concat(Lit("a"), Var("Y"))))
    assert is_solved_equation(WordEq(Var("X"), Lit("")))
    assert not is_solved_equation(WordEq(Var("X"), concat(Lit("a"), Var("X"))))
    assert not is_solved_equation(WordEq(concat(Var("X"), Lit("a")), Var("Y")))
    assert not is_solved_equation(WordEq(Lit("a"), Var("X")))


def test_definition_is_its_own_solved_form():
    # X = aYbZa stays a single binding with the other variables unfixed
    (sf,) = solve(WordEq(Var("X"), concat(Lit("a"), Var("Y"), Lit("b"), Var("Z"), Lit("a"))))
    m = sf.mapping
    assert m["X"] == merge_blocks(
        [Const("a"), Unfixed("Y"), Const("b"), Unfixed("Z"), Const("a")]
    )
    assert m["Y"] == (Unfixed("Y"),)
    assert m["Z"] == (Unfixed("Z"),)


def test_conjugate_equation_gives_power_family():
    # abX = Xba forces X = (ab)^i a
    (sf,) = solve(WordEq(concat(Lit("ab"), Var("X")), concat(Var("X"), Lit("ba"))))
    assert sf.mapping["X"][:1] == (Power("ab", sf.mapping["X"][0].param),)
    param = sf.mapping["X"][0].param
    assert sf.mapping["X"] == merge_blocks([Power("ab", param), Const("a")])
    for i in range(5):
        w = instantiate(sf.mapping["X"], {param: i})
        assert "ab" + w == w + "ba"


def test_a_ground_match_reuses_a_repeated_power_parameter():
    # abX = Xab makes X = (ab)^i, so XX = abab matches (ab)^i (ab)^i: the
    # second power must take the i the first one chose
    X = Var("X")
    got = solve(
        WordEq(concat(Lit("ab"), X), concat(X, Lit("ab"))),
        WordEq(concat(X, X), Lit("abab")),
    )
    assert got == [SolvedForm((("X", (Const("ab"),)),))]


def test_the_match_cap_holds_inside_a_power():
    # (ab)^i X against ababab: i = 0..3, X the rest, so four matches, and
    # a lower cap gives up from within the power's loop
    pattern = (Power("ab", "i"), Unfixed("X"))
    for cap in range(4):
        assert solved_form._match_pattern(pattern, "ababab", cap) is None, cap
    got = solved_form._match_pattern(pattern, "ababab", 4)
    assert got == [({"X": "ab" * (3 - i)}, {"i": i}) for i in range(4)]
    with pytest.raises(ResourceExhausted, match="work budget exhausted in solved_form"):
        solved_form._drawn_matches(pattern, "ababab", Budget(3), "solved_form")


def test_crossing_pair_shares_one_parameter():
    # Xa = aY and Ya = Xa make X and Y the same power of a
    forms = solve(
        WordEq(concat(Var("X"), Lit("a")), concat(Lit("a"), Var("Y"))),
        WordEq(concat(Var("Y"), Lit("a")), concat(Var("X"), Lit("a"))),
    )
    assert isinstance(forms, list)
    seen = set()
    for sf in forms:
        x, y = sf.mapping["X"], sf.mapping["Y"]
        assert x == y
        assert len(x) == 1 and isinstance(x[0], Power)
        assert x[0].base == "a"
        seen.add(x[0].param)
    # one shared parameter per form: X and Y grow in lockstep
    for sf in forms:
        p = sf.mapping["X"][0].param
        for i in range(4):
            v = instantiate(sf.mapping["X"], {p: i})
            assert v == "a" * i


def test_ground_contradiction_is_unsat():
    x = Var("X")
    for eqs in (
        [WordEq(Lit("a"), Lit("b"))],
        [WordEq(Lit("ab"), Lit("ba"))],
        [WordEq(concat(x, Lit("a")), x)],
        [WordEq(concat(Lit("a"), x), concat(Lit("b"), x))],
        # X = aX has no finite solution
        [WordEq(x, concat(Lit("a"), x))],
        # the clash is made by binding X
        [WordEq(x, Lit("a")), WordEq(x, Lit("b"))],
    ):
        assert isinstance(solve(*eqs), Unsat), eqs


def test_clash_in_one_branch_leaves_the_others():
    # grounding XY = ab branches three ways; binding X and Y refutes
    # YX = ba on two of them, and the third still gives its form
    x, y = Var("X"), Var("Y")
    forms = solve(WordEq(concat(x, y), Lit("ab")), WordEq(concat(y, x), Lit("ba")))
    a, b = merge_blocks([Const("a")]), merge_blocks([Const("b")])
    assert forms == [SolvedForm((("X", a), ("Y", b)))]


def test_crossed_variables_leave_the_fragment():
    res = solve(
        WordEq(
            concat(Var("X"), Lit("ab"), Var("Y")),
            concat(Var("Y"), Lit("ba"), Var("X")),
        )
    )
    assert isinstance(res, OutOfFragment)
    assert res.reason == "no rule applies to the system"


def test_trivial_systems():
    (sf,) = solve(WordEq(Var("X"), Var("X")))
    assert sf.mapping["X"] == (Unfixed("X"),)
    (sf,) = solve(WordEq(Lit("ab"), Lit("ab")), variables=["X"])
    assert sf.mapping["X"] == (Unfixed("X"),)
    (sf,) = solve(WordEq(Var("X"), Lit("")))
    assert sf.mapping["X"] == ()


def test_chained_definitions_substitute_through():
    # abX = Xba with X = abY: Y must absorb the offset
    forms = solve(
        WordEq(concat(Lit("ab"), Var("X")), concat(Var("X"), Lit("ba"))),
        WordEq(Var("X"), concat(Lit("ab"), Var("Y"))),
    )
    assert isinstance(forms, list)
    # every instance still satisfies both equations
    for sf in forms:
        sols = sf_solutions(sf, "ab", 6)
        for x, y in sols if len(sf.bindings) == 2 else ():
            assert "ab" + x == x + "ba"
            assert x == "ab" + y


def test_render_solved_form():
    sf = SolvedForm(
        (
            ("X", merge_blocks([Power("ab", "i0"), Const("a")])),
            ("Y", (Unfixed("y"),)),
            ("Z", ()),
        )
    )
    assert render_solved_form(sf) == 'X = (ab)^i0 a\nY = <y>\nZ = ""'


def test_apply_solved_form():
    sf = SolvedForm((("X", merge_blocks([Power("a", "i")])),))
    w = apply_solved_form(sf, concat(Lit("b"), Var("X"), Lit("b")))
    assert w == merge_blocks([Const("b"), Power("a", "i"), Const("b")])
    with pytest.raises(UnmappedVariable):
        apply_solved_form(sf, concat(Var("X"), Var("Y")))


def mirror(t):
    """The term read backwards."""
    if isinstance(t, Lit):
        return Lit(t.word[::-1])
    if isinstance(t, Var):
        return t
    return concat(*(mirror(p) for p in reversed(t.parts)))


def recount(l, r):
    # the record fields of l = r, counted block by block
    vs, ps, size = set(), set(), 0
    for b in l + r:
        if isinstance(b, Unfixed):
            vs.add(b.part)
            size += 1
        elif isinstance(b, Power):
            ps.add(b.param)
            size += len(b.base) + 1
        else:
            size += len(b.word)
    return (l, r, vs, ps, size)


def check_random_systems(monkeypatch, transform):
    # the union of solved-form instances equals the brute-force solution
    # set, and composing the triangular bindings leaves no bound variable
    # in any binding, fresh ones included
    resolve = solved_form._resolve

    def checked_resolve(st, variables):
        sf = resolve(st, variables)
        for v, w in sf.bindings:
            assert not set(parts_of(w)) & set(st.bindings), (v, w)
        return sf

    # every state a step starts from is live, its pending equations are
    # simplified, each record's variables, parameters and size are those
    # of its sides, recounted here, and the measure it carries is the
    # system's
    step = solved_form._step

    def checked_step(st, gen):
        assert st.dead is None
        vs, ps, size = set(), set(), 0
        for eq in st.pending:
            l, r, eq_vs, eq_ps, eq_size = eq
            assert solved_form._simplify(l, r) == (l, r), (l, r)
            assert eq == recount(l, r), eq
            vs |= eq_vs
            ps |= eq_ps
            size += eq_size
        assert st.measure() == (len(vs), len(ps), size)
        assert st.measured is None or st.measured == st.measure()
        return step(st, gen)

    monkeypatch.setattr(solved_form, "_resolve", checked_resolve)
    monkeypatch.setattr(solved_form, "_step", checked_step)
    rng = random.Random(401)
    oof = 0
    for _ in range(60):
        eqs = []
        names: set[str] = set()
        for _ in range(rng.randint(1, 2)):
            eq, vs = _template_equation(rng, "ab")
            eqs.append(transform(eq))
            names.update(vs)
        res = to_solved_form(eqs, variables=names)
        order = sorted(names)
        want = brute_solutions(eqs, order, "ab", 3)
        if isinstance(res, OutOfFragment):
            oof += 1
            continue
        if isinstance(res, Unsat):
            assert want == set(), eqs
            continue
        got = set()
        for sf in res:
            assert [v for v, _ in sf.bindings] == order
            got |= sf_solutions(sf, "ab", 3)
        assert got == want, eqs
    assert oof <= 10


def test_exact_solution_sets_on_random_systems(monkeypatch):
    check_random_systems(monkeypatch, lambda eq: eq)


def test_exact_solution_sets_on_mirrored_systems(monkeypatch):
    # the templates build X u = v Y but never u X = Y v; read backwards,
    # every straddle takes that shape
    check_random_systems(monkeypatch, lambda eq: WordEq(mirror(eq.lhs), mirror(eq.rhs)))


def test_resumed_forms_have_the_solutions_of_the_whole_system():
    # the forms of the first equations, each resumed with the rest, have
    # as instances exactly the solutions of the whole system
    rng = random.Random(412)
    resumed = 0
    for _ in range(60):
        first, rest, names = [], [], set()
        for eqs in (first, rest):
            for _ in range(rng.randint(1, 2)):
                eq, vs = _template_equation(rng, "ab")
                eqs.append(eq)
                names.update(vs)
        gen = NameGen(names)
        parent = to_solved_form(first, variables=names, gen=gen)
        if not isinstance(parent, list):
            continue
        children = [
            to_solved_form(rest, variables=names, gen=gen, under=[form]) for form in parent
        ]
        if any(isinstance(res, OutOfFragment) for res in children):
            continue
        resumed += 1
        got = set()
        for sf in (sf for res in children if isinstance(res, list) for sf in res):
            assert [v for v, _ in sf.bindings] == sorted(names)
            got |= sf_solutions(sf, "ab", 3)
        assert got == brute_solutions(first + rest, sorted(names), "ab", 3), (first, rest)
    assert resumed >= 30


def test_a_resumed_equation_can_set_a_power_to_zero(monkeypatch):
    # under X = a^i, X = "" becomes a^i = "": the ground rule matches the
    # empty word in one way, which sets i to 0
    calls = []
    set_param = solved_form._State.set_param
    monkeypatch.setattr(
        solved_form._State,
        "set_param",
        lambda st, param, k: calls.append(k) or set_param(st, param, k),
    )
    x = Var("X")
    (form,) = solve(WordEq(concat(Lit("a"), x), concat(x, Lit("a"))))
    assert form.mapping["X"] == (Power("a", form.mapping["X"][0].param),)
    assert solve(WordEq(x, Lit("")), under=[form]) == [SolvedForm((("X", ()),))]
    assert calls == [0]
    assert solve(WordEq(x, Lit("b")), under=[form]) == Unsat()
    assert solve(WordEq(x, Lit("aa")), under=[form]) == [SolvedForm((("X", (Const("aa"),)),))]
    # the form's names are taken: a fresh parameter never reuses one
    y = Var("Y")
    (both,) = solve(WordEq(concat(Lit("a"), y), concat(y, Lit("a"))), under=[form])
    (px,), (py,) = (params_of(both.mapping[v]) for v in "XY")
    assert px != py


def test_parameter_maps_reach_bindings_made_before_them(monkeypatch):
    # X = aY is bound first and still mentions Y when Y = a^i is bound;
    # peeling Yb = bY then sets i to 0 on one branch and unrolls it on the
    # other, and X's composed value must see the branch's choice
    calls = []
    for name in ("set_param", "unroll_param"):
        method = getattr(solved_form._State, name)

        def spy(st, param, arg, name=name, method=method):
            calls.append(name)
            method(st, param, arg)

        monkeypatch.setattr(solved_form._State, name, spy)
    x, y = Var("X"), Var("Y")
    forms = solve(
        WordEq(x, concat(Lit("a"), y)),
        WordEq(concat(Lit("a"), y), concat(y, Lit("a"))),
        WordEq(concat(y, Lit("b")), concat(Lit("b"), y)),
    )
    assert forms == [
        SolvedForm((("X", merge_blocks([Const("a")])), ("Y", ())))
    ]
    assert {"set_param", "unroll_param"} <= set(calls)


def test_long_binding_chain_composes_to_its_closed_form():
    # X0 = ab X1, ..., X299 = ab X300: each binding mentions the next
    # variable, bound one step later
    n = 300
    x = [Var(f"X{i}") for i in range(n + 1)]
    (sf,) = solve(*(WordEq(x[i], concat(Lit("ab"), x[i + 1])) for i in range(n)))
    m = sf.mapping
    assert len(m) == n + 1
    for i in range(n + 1):
        assert m[f"X{i}"] == const_blocks("ab" * (n - i)) + (Unfixed(f"X{n}"),)


def test_a_binding_rewrites_only_the_equations_that_mention_it(monkeypatch):
    # X199 = ab X200, ..., X0 = ab X1: each binding reaches the one
    # equation that mentions it, so the substitutions grow with n, not n^2
    calls = 0
    substitute = solved_form.substitute

    def counted(blocks, env):
        nonlocal calls
        calls += 1
        return substitute(blocks, env)

    monkeypatch.setattr(solved_form, "substitute", counted)
    n = 200
    x = [Var(f"X{i}") for i in range(n + 1)]
    (sf,) = solve(*(WordEq(x[i], concat(Lit("ab"), x[i + 1])) for i in reversed(range(n))))
    assert sf.mapping["X0"] == const_blocks("ab" * n) + (Unfixed(f"X{n}"),)
    assert calls <= 4 * n


def test_a_peel_keeps_the_records_without_its_parameter():
    # both children rewrite the records that mention i and keep the
    # others, the same objects
    eqs = [
        solved_form._eq((Power("ab", "i"), Unfixed("X")), (Unfixed("Y"), Const("b"))),
        solved_form._eq((Unfixed("X"), Const("a")), (Const("a"), Unfixed("Z"))),
        solved_form._eq((Power("b", "k"), Unfixed("Z")), (Unfixed("W"), Power("ab", "i"))),
        solved_form._eq((Power("b", "k"), Unfixed("Z")), (Unfixed("W"),)),
    ]
    st = solved_form._State(list(eqs), {}, 1)
    kind, children = solved_form._rule_peel(st, 0, NameGen(["i", "k"]))
    assert kind == "branch" and len(children) == 2
    for child in children:
        assert len(child.pending) == 4
        assert child.pending[0] != eqs[0] and child.pending[2] != eqs[2]
        assert child.pending[1] is eqs[1] and child.pending[3] is eqs[3]


def test_forms_cover_long_solutions_too():
    # abX = Xba solutions of every length up to 9 are hit exactly
    (sf,) = solve(WordEq(concat(Lit("ab"), Var("X")), concat(Var("X"), Lit("ba"))))
    got = sf_solutions(sf, "ab", 9)
    want = brute_solutions(
        [WordEq(concat(Lit("ab"), Var("X")), concat(Var("X"), Lit("ba")))], ["X"], "ab", 9
    )
    assert got == want
    assert ("ababa",) in got


def test_rule_that_does_not_shrink_is_caught(monkeypatch):
    # the measure-decrease invariant is what makes unbudgeted rewriting stop
    monkeypatch.setattr(solved_form, "_RULES", (lambda st, idx, gen: ("again", None),))
    with pytest.raises(AssertionError, match="did not shrink"):
        to_solved_form([WordEq(concat(Var("X"), Lit("a")), concat(Lit("a"), Var("X")))])


def test_rule_that_grows_the_system_is_caught(monkeypatch):
    # a rule that sets the pending equations directly bypasses the
    # simplification, but not the shrink check
    def grow(st, idx, gen):
        st.pending = st.pending + [solved_form._eq((Unfixed("X"),), (Const("b"), Unfixed("X")))]
        return ("again", None)

    monkeypatch.setattr(solved_form, "_RULES", (grow,))
    with pytest.raises(AssertionError, match="grow did not shrink"):
        to_solved_form([WordEq(concat(Var("X"), Lit("a")), concat(Lit("a"), Var("X")))])


def test_blocked_branch_keeps_the_forms_of_the_others():
    # aY = Ya twice: peeling the second copy never ends, so those branches
    # run out of the growth budget, but Y = "" is found before that
    eq = WordEq(concat(Lit("a"), Var("Y")), concat(Var("Y"), Lit("a")))
    res = solve(eq, eq)
    assert isinstance(res, OutOfFragment)
    assert res.reason == "peel budget exhausted"
    assert res.forms
    for sf in res.forms:
        for (y,) in sf_solutions(sf, "ab", 4):
            assert y == "a" * len(y)
    assert ("",) in set().union(*(sf_solutions(sf, "ab", 4) for sf in res.forms))


def test_branch_budget_reports_out_of_fragment(monkeypatch):
    # XY = ab: the start state, its three ground matches and the three
    # states they make draw seven units; six run out and end the call
    eqs = [WordEq(concat(Var("X"), Var("Y")), Lit("ab"))]
    budget = Budget()
    assert len(to_solved_form(eqs, budget=budget)) == 3
    assert errors.WORK_BUDGET - budget.left == 7
    monkeypatch.setattr(errors, "WORK_BUDGET", 7)
    assert len(to_solved_form(eqs)) == 3
    monkeypatch.setattr(errors, "WORK_BUDGET", 6)
    with pytest.raises(ResourceExhausted, match="work budget exhausted in solved_form"):
        to_solved_form(eqs)
