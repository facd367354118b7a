"""Length abstraction: rows implied by bindings and atoms."""

import copy
import random

import pytest

from helpers import definitional_len_atom, random_solved_form, random_word
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
    translate_len_atom,
    upset_rows,
)
from wordeq.lia import lia_sat
from wordeq.paramwords import Const, Power, Unfixed, instantiate, merge_blocks, params_of, parts_of
from wordeq.semantics import Assignment, eval_formula
from wordeq.solved_form import SolvedForm
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


def test_implied_rows_golden():
    sf_bindings = (("X", merge_blocks([Power("ab", "i"), Const("a")])),)
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
    # X -> (ab)^i W, so len("ab" X) = 2 + 2i + |W|
    sf = SolvedForm((("X", merge_blocks([Power("ab", "i"), Unfixed("W")])),))
    atom = LenLeq(
        sum_of((1, Len(concat(Lit("ab"), Var("X")))), (-2, IntVar("n")), (3, IntConst(1))),
        7,
    )
    row = translate_len_atom(atom, sf)
    assert row.relation == "le"
    assert row.coeffs == {param_var("i"): 2, part_var("W"): 1, int_var("n"): -2}
    # constants fold into the bound: 7 - 2 - 3
    assert row.bound == 2


def test_translate_len_atom_pure_constant():
    row = translate_len_atom(LenLeq(IntConst(5), 3), SolvedForm(()))
    assert row.coeffs == {} and row.bound == -2


def _random_len_atom(rng, svars):
    """One to three items, each with a coefficient of either sign: an int
    variable, a constant, or the length of a concatenation of literals
    and string variables, which may repeat."""
    items = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(4)
        if kind == 0:
            term = IntVar(rng.choice("nm"))
        elif kind == 1:
            term = IntConst(rng.randint(-3, 5))
        else:
            parts = [
                Var(rng.choice(svars)) if rng.random() < 0.7 else Lit(random_word(rng, "ab", 3))
                for _ in range(rng.randint(1, 4))
            ]
            term = Len(concat(*parts))
        items.append((rng.choice((-3, -2, -1, 1, 2, 3)), term))
    return LenLeq(sum_of(*items), rng.randint(-6, 8))


# 37 was drawn from while the test was written; 3701 was held out
@pytest.mark.parametrize("seed", [37, 3701])
def test_atoms_read_through_the_form_agree_with_the_definitional_rows(seed):
    rng = random.Random(seed)
    counts = {"sat": 0, "unsat": 0}
    for _ in range(300):
        sf = random_solved_form(rng)
        svars = [v for v, _ in sf.bindings]
        for _ in range(2):
            atoms = [_random_len_atom(rng, svars) for _ in range(rng.randint(1, 3))]
            model = lia_sat([translate_len_atom(a, sf) for a in atoms])
            reference = implied_length_constraints(sf) + [definitional_len_atom(a) for a in atoms]
            assert (model is None) == (lia_sat(reference) is None), (sf, atoms)
            counts["unsat" if model is None else "sat"] += 1
            if model is None:
                continue
            assert all(v.kind in ("param", "part", "int") for v in model)
            mapping = sf.mapping()
            params = {p: model.get(param_var(p), 0) for w in mapping.values() for p in params_of(w)}
            parts = {y: "a" * model.get(part_var(y), 0) for w in mapping.values() for y in parts_of(w)}
            strings = {v: instantiate(w, params, parts) for v, w in mapping.items()}
            ints = {n: model.get(int_var(n), 0) for n in "nm"}
            for atom in atoms:
                assert eval_formula(atom, Assignment(strings, ints)), (sf, atom, model)
    assert min(counts.values()) > 100, counts


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
