"""Length abstraction: rows implied by bindings and atoms."""

import copy
import random

import pytest

from helpers import random_solved_form
from wordeq.automata import upset_member
from wordeq.lengths import (
    LinVar,
    Row,
    implied_length_constraints,
    int_var,
    len_var,
    param_var,
    paramword_length,
    part_var,
    term_length,
    translate_len_atom,
    upset_rows,
)
from wordeq.paramwords import Const, Power, Unfixed, instantiate, merge_blocks
from wordeq.terms import IntConst, IntVar, Len, LenLeq, Lit, NameGen, Var, concat, sum_of


def test_an_unknown_is_the_tuple_of_its_kind_and_name():
    v = len_var("X")
    assert v == ("len", "X") and hash(v) == hash(("len", "X"))
    assert (v.kind, v.name) == ("len", "X") and type(v) is LinVar
    assert repr(v) == "LinVar(kind='len', name='X')"
    assert copy.deepcopy({v: 1}) == {v: 1} and type(copy.copy(v)) is LinVar
    # lia numbers columns in this order, (kind, name)
    unknowns = [param_var("a"), int_var("z"), len_var("b"), len_var("a")]
    assert sorted(unknowns) == [int_var("z"), len_var("a"), len_var("b"), param_var("a")]
    with pytest.raises(AttributeError):
        v.kind = "int"
    with pytest.raises(AttributeError):
        v.extra = 1
    with pytest.raises(ValueError, match="not a variable kind"):
        LinVar("word", "X")


def test_paramword_length_golden():
    w = merge_blocks([Power("ab", "i"), Const("a"), Unfixed("y"), Power("b", "i")])
    coeffs, const = paramword_length(w)
    assert coeffs == {param_var("i"): 3, part_var("y"): 1}
    assert const == 1
    assert paramword_length(()) == ({}, 0)


def test_term_length_golden():
    t = concat(Lit("ab"), Var("X"), Lit("c"), Var("X"))
    coeffs, const = term_length(t)
    assert coeffs == {len_var("X"): 2}
    assert const == 3
    assert term_length(Lit("")) == ({}, 0)


def test_implied_rows_golden():
    sf_bindings = (("X", merge_blocks([Power("ab", "i"), Const("a")])),)
    from wordeq.solved_form import SolvedForm

    (row,) = implied_length_constraints(SolvedForm(sf_bindings))
    assert row.relation == "eq"
    assert row.coeffs == {len_var("X"): 1, param_var("i"): -2}
    assert row.bound == 1


def test_implied_rows_hold_on_instances():
    rng = random.Random(501)
    for _ in range(150):
        sf = random_solved_form(rng)
        rows = implied_length_constraints(sf)
        params = {f"i{k}": rng.randint(0, 4) for k in range(3)}
        parts = {f"y{k}": "ab" * rng.randint(0, 2) for k in range(3)}
        val: dict[LinVar, int] = {}
        for name, w in sf.bindings:
            val[len_var(name)] = len(instantiate(w, params, parts))
        for p, n in params.items():
            val[param_var(p)] = n
        for y, word in parts.items():
            val[part_var(y)] = len(word)
        for row in rows:
            total = sum(c * val[v] for v, c in row.coeffs.items())
            assert total == row.bound, (sf, row)


def test_translate_len_atom():
    atom = LenLeq(
        sum_of((1, Len(concat(Lit("ab"), Var("X")))), (-2, IntVar("n")), (3, IntConst(1))),
        7,
    )
    row = translate_len_atom(atom)
    assert row.relation == "le"
    assert row.coeffs == {len_var("X"): 1, int_var("n"): -2}
    # constants fold into the bound: 7 - 2 - 3
    assert row.bound == 2


def test_translate_len_atom_pure_constant():
    row = translate_len_atom(LenLeq(IntConst(5), 3))
    assert row.coeffs == {} and row.bound == -2


def test_upset_rows_semantics():
    gen = NameGen()
    s = frozenset([(1, 3), (0, 0)])
    coeffs = {len_var("X"): 1}
    groups = upset_rows(coeffs, 2, sorted(s), gen)  # expression: len(X) + 2
    assert len(groups) == 2
    for n in range(0, 15):
        inside = upset_member(s, n + 2)
        covered = False
        for rows in groups:
            (row,) = rows
            # solve the single equality for the fresh multiplier, if any
            ap = [v for v in row.coeffs if v.kind == "ap"]
            if not ap:
                covered |= row.coeffs == coeffs and n == row.bound
            else:
                (k,) = ap
                rest = n * row.coeffs[len_var("X")] - row.bound
                step = -row.coeffs[k]
                covered |= step > 0 and rest % step == 0 and rest // step >= 0
        assert covered == inside, n


def test_upset_rows_fresh_multipliers_are_distinct():
    gen = NameGen()
    groups = upset_rows({len_var("X"): 1}, 0, [(0, 2), (1, 2)], gen)
    names = [v.name for rows in groups for row in rows for v in row.coeffs if v.kind == "ap"]
    assert len(names) == len(set(names)) == 2
