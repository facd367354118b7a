"""Smart constructors and syntactic helpers."""

import random

import pytest

from helpers import formula_letters
from wordeq.terms import (
    _CHILDREN,
    And,
    Concat,
    InRe,
    IntConst,
    IntVar,
    Len,
    LenLeq,
    Lit,
    NameGen,
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
    concat,
    conj,
    disj,
    free_vars,
    re_alt,
    re_lit,
    re_seq,
    re_star,
    regex_letters,
    scale,
    scan,
    str_term_vars,
    sum_of,
)


def test_concat_flattens_and_merges_literals():
    t = concat(Lit("a"), Lit("b"), Var("X"), Lit(""), Lit("c"))
    assert t == Concat((Lit("ab"), Var("X"), Lit("c")))


def test_concat_unit_cases():
    assert concat() == Lit("")
    assert concat(Lit("")) == Lit("")
    assert concat(Var("X")) == Var("X")
    assert concat(Lit("a"), Lit("b")) == Lit("ab")


def test_concat_flattens_nested():
    inner = concat(Var("X"), Lit("a"))
    t = concat(Lit("b"), inner, Var("Y"))
    assert t == Concat((Lit("b"), Var("X"), Lit("a"), Var("Y")))


def test_concat_never_nests():
    rng = random.Random(11)
    pool = [Lit("a"), Lit(""), Var("X"), Var("Y"), Lit("bb")]
    for _ in range(200):
        parts = [rng.choice(pool) for _ in range(rng.randint(0, 5))]
        t = concat(*parts)
        if isinstance(t, Concat):
            assert len(t.parts) >= 2
            for i, p in enumerate(t.parts):
                assert not isinstance(p, Concat)
                assert p != Lit("")
                # no two adjacent literals survive
                if isinstance(p, Lit) and i + 1 < len(t.parts):
                    assert not isinstance(t.parts[i + 1], Lit)


def test_concat_requires_two_parts():
    with pytest.raises(ValueError):
        Concat((Lit("a"),))


def test_sum_of_merges_and_drops_zero():
    x = Len(Var("X"))
    assert sum_of((1, x), (1, x)) == Sum(((2, x),))
    assert sum_of((1, x), (-1, x)) == IntConst(0)
    assert sum_of((1, x)) == x
    assert sum_of() == IntConst(0)


def test_sum_of_flattens_nested_sums():
    x, y = Len(Var("X")), Len(Var("Y"))
    s = sum_of((2, sum_of((1, x), (3, y))), (1, x))
    assert isinstance(s, Sum)
    assert dict((t, c) for c, t in s.items) == {x: 3, y: 6}


def test_scale():
    x = Len(Var("X"))
    assert scale(x, 1) == x
    assert scale(x, 0) == IntConst(0)
    assert scale(sum_of((2, x)), -1) == Sum(((-2, x),))


def test_re_lit_empty_is_epsilon():
    assert re_lit("") == ReEpsilon()
    assert re_lit("ab") == ReLit("ab")
    with pytest.raises(ValueError):
        ReLit("")


def test_re_seq_merges():
    r = re_seq(ReLit("a"), ReEpsilon(), ReLit("b"), ReStar(ReLit("c")))
    assert r == ReConcat((ReLit("ab"), ReStar(ReLit("c"))))
    assert re_seq() == ReEpsilon()
    assert re_seq(ReEpsilon(), ReEpsilon()) == ReEpsilon()
    assert re_seq(ReLit("a"), ReLit("b")) == ReLit("ab")


def test_re_alt_dedups_keeps_order():
    r = re_alt(ReLit("a"), ReLit("b"), ReLit("a"))
    assert r == ReUnion((ReLit("a"), ReLit("b")))
    assert re_alt(ReLit("a"), ReLit("a")) == ReLit("a")


def test_re_star_idempotent():
    assert re_star(ReStar(ReLit("a"))) == ReStar(ReLit("a"))
    assert re_star(ReEpsilon()) == ReEpsilon()
    assert re_star(ReLit("a")) == ReStar(ReLit("a"))


def test_regex_letters():
    r = ReUnion((ReConcat((ReLit("ab"), ReStar(ReLit("c")))), ReEpsilon()))
    assert regex_letters(r) == {"a", "b", "c"}


def test_conj_disj_flatten():
    a = WordEq(Var("X"), Lit("a"))
    b = WordEq(Var("Y"), Lit("b"))
    c = WordEq(Var("Z"), Lit("c"))
    assert conj(a) == a
    assert conj(conj(a, b), c) == And((a, b, c))
    assert disj(disj(a, b), c) == Or((a, b, c))
    with pytest.raises(ValueError):
        conj()


def test_str_term_vars():
    t = concat(Var("X"), Lit("a"), Var("Y"), Var("X"))
    assert str_term_vars(t) == {"X", "Y"}
    assert str_term_vars(Lit("abc")) == set()


def test_free_vars_split_by_sort():
    phi = conj(
        WordEq(Var("X"), concat(Lit("a"), Var("Y"))),
        LenLeq(sum_of((1, Len(Var("Z"))), (1, IntVar("n"))), 3),
        Not(WordEq(Var("X"), Lit("b"))),
    )
    svars, ivars = free_vars(phi)
    assert svars == {"X", "Y", "Z"}
    assert ivars == {"n"}


def test_formula_letters():
    phi = conj(
        WordEq(Var("X"), Lit("ab")),
        LenLeq(Len(concat(Lit("c"), Var("X"))), 4),
    )
    assert formula_letters(phi) == {"a", "b", "c"}


# deeper than the interpreter's recursion limit: the collectors walk
# without recursion
DEEP = 100_000


def test_collectors_on_a_deep_negation():
    phi = conj(
        WordEq(Var("X"), Lit("ab")),
        LenLeq(sum_of((1, Len(Var("Y"))), (1, IntVar("n"))), 3),
    )
    for _ in range(DEEP):
        phi = Not(phi)
    assert free_vars(phi) == ({"X", "Y"}, {"n"})
    assert formula_letters(phi) == {"a", "b"}


def test_collectors_on_a_deep_regex():
    r = ReLit("a")
    for i in range(DEEP):
        r = ReStar(r) if i % 2 else ReConcat((ReLit("b"), r))
    assert regex_letters(r) == {"a", "b"}
    phi = InRe(Var("X"), r)
    assert free_vars(phi) == ({"X"}, set())
    assert formula_letters(phi) == {"a", "b"}


def test_collectors_on_a_deep_concatenation():
    t = Var("X")
    for i in range(DEEP):
        t = Concat((Lit("ab"[i % 2]), Var(f"Y{i % 3}"), t))
    assert str_term_vars(t) == {"X", "Y0", "Y1", "Y2"}
    phi = WordEq(Var("Z"), t)
    assert free_vars(phi) == ({"X", "Y0", "Y1", "Y2", "Z"}, set())
    assert formula_letters(phi) == {"a", "b"}


def _too_deep(root, limit):
    """The depth check that ``scan`` replaced, one level of the tree at a
    time: whether some path passes more than ``limit`` nodes that hold
    other nodes."""
    level = [root]
    for _ in range(limit + 1):
        level = [node for node in level if type(node) in _CHILDREN]
        if not level:
            return False
        level = [kid for node in level for kid in _CHILDREN[type(node)](node)]
    return True


def _deep_mixed(depth):
    """A formula whose longest path holds ``depth`` nodes that hold others,
    through connectives, a concatenation, a sum and a regex."""
    x, n = Var("X"), IntVar("n")
    atoms = [
        WordEq(x, Concat((Lit("a"), Var("Y")))),
        LenLeq(Sum(((1, Len(Var("Z"))), (2, n))), 3),
        InRe(Var("W"), ReStar(ReConcat((ReLit("b"), ReLit("c"))))),
    ]
    phi = atoms[0]
    for i in range(depth - 2):
        phi = (And if i % 2 else Or)((atoms[i % 3], phi))
    return phi


def test_scan_matches_the_three_walks():
    phi = _deep_mixed(256)
    for limit in (255, 256, 257):
        got = scan(phi, limit)
        if _too_deep(phi, limit):
            assert got is None, limit
        else:
            assert got == (*free_vars(phi), formula_letters(phi)), limit
    assert scan(phi, 255) is None and scan(phi, 256) is not None
    # one deep regex, past the interpreter's recursion limit
    r = ReLit("a")
    for i in range(DEEP):
        r = ReStar(r) if i % 2 else ReConcat((ReLit("b"), r))
    phi = InRe(Var("X"), r)
    assert scan(phi, 256) is None and _too_deep(phi, 256)
    assert scan(phi, DEEP + 1) == ({"X"}, set(), {"a", "b"})
    assert not _too_deep(phi, DEEP + 1)
    assert scan(phi, DEEP) is None and _too_deep(phi, DEEP)


def test_namegen_avoids_taken_names():
    gen = NameGen({"H0", "H1"})
    assert gen.fresh("H") == "H2"
    assert gen.fresh("H") == "H3"
    gen.reserve(["K5"])
    k = gen.fresh("K")
    assert k.startswith("K") and k != "K5"


def test_namegen_distinct_under_load():
    gen = NameGen()
    names = {gen.fresh("v") for _ in range(500)}
    assert len(names) == 500


def test_nodes_hashable():
    # canonical shapes make structural equality and hashing usable as keys
    seen = {concat(Lit("a"), Var("X")): 1, sum_of((2, Len(Var("X")))): 2}
    assert seen[Concat((Lit("a"), Var("X")))] == 1
    assert seen[Sum(((2, Len(Var("X"))),))] == 2
