"""Automata, length sets, and parametric membership."""

import random
from itertools import product

import pytest

from helpers import (
    accepted_lengths_bfs,
    matches_by_derivative,
    random_paramword,
    random_regex,
    random_word,
)
from wordeq.automata import (
    Dfa,
    dfa_complement,
    dfa_to_regex,
    length_set,
    param_membership,
    prog_intersect,
    prog_member,
    regex_match,
    regex_to_dfa,
    upset_member,
)
from wordeq.errors import LetterOutsideAlphabet, UnfixedPartPresent
from wordeq.paramwords import Const, Power, Unfixed, instantiate, merge_blocks
from wordeq.terms import ReConcat, ReEpsilon, ReLit, ReStar, ReUnion


def words_upto(sigma: str, n: int):
    for ln in range(n + 1):
        for tup in product(sigma, repeat=ln):
            yield "".join(tup)


def members_upto(s, bound: int) -> set[int]:
    return {n for n in range(bound + 1) if upset_member(s, n)}


def test_regex_match_golden():
    # (ab|ba)(ab)*a
    r = ReConcat((ReUnion((ReLit("ab"), ReLit("ba"))), ReStar(ReLit("ab")), ReLit("a")))
    assert regex_match(r, "aba")
    assert regex_match(r, "ababa")
    assert regex_match(r, "baa")
    assert not regex_match(r, "ab")
    assert not regex_match(r, "")
    assert not regex_match(r, "abab")


def test_regex_match_raw_shapes():
    # non-canonical nodes (epsilon inside a concat, duplicate union branches)
    r = ReConcat((ReEpsilon(), ReUnion((ReLit("a"), ReLit("a"), ReLit("b"))), ReEpsilon()))
    assert regex_match(r, "a")
    assert regex_match(r, "b")
    assert not regex_match(r, "")
    assert not regex_match(r, "ab")


def test_regex_match_epsilon_and_star():
    assert regex_match(ReEpsilon(), "")
    assert not regex_match(ReEpsilon(), "a")
    assert regex_match(ReStar(ReLit("ab")), "")
    assert regex_match(ReStar(ReLit("ab")), "ababab")
    assert not regex_match(ReStar(ReLit("ab")), "aba")


def test_regex_match_vs_derivatives():
    rng = random.Random(101)
    for _ in range(300):
        r = random_regex(rng, "ab", 3)
        w = random_word(rng, "ab", 7)
        assert regex_match(r, w) == matches_by_derivative(r, w), (r, w)


def test_dfa_total_and_deterministic():
    rng = random.Random(102)
    for _ in range(50):
        d = regex_to_dfa(random_regex(rng, "ab", 3), "ab")
        for row in d.transitions:
            assert len(row) == 2
            assert all(0 <= t < d.n_states for t in row)


def test_complement_flips_membership():
    rng = random.Random(103)
    for _ in range(60):
        r = random_regex(rng, "ab", 2)
        d = regex_to_dfa(r, "ab")
        c = dfa_complement(d)
        for w in words_upto("ab", 5):
            assert c.accepts(w) == (not d.accepts(w))


def test_dfa_to_regex_roundtrip():
    rng = random.Random(106)
    for _ in range(40):
        d = regex_to_dfa(random_regex(rng, "ab", 2), "ab")
        r = dfa_to_regex(d)
        if r is None:
            assert not length_set(d)
            continue
        for w in words_upto("ab", 5):
            assert regex_match(r, w) == d.accepts(w), (r, w)


# ---------------------------------------------------------------------------
# unions of progressions


def test_upset_intersect_golden():
    # offsets 1 mod 3 and 2 mod 4 align first at 10, then every 12
    assert prog_intersect((1, 3), (2, 4)) == (10, 12)
    assert prog_intersect((0, 2), (0, 3)) == (0, 6)
    # odd vs even: never aligned
    assert prog_intersect((1, 2), (0, 2)) is None
    # singleton cases
    assert prog_intersect((4, 0), (0, 2)) == (4, 0)
    assert prog_intersect((3, 0), (0, 2)) is None


def test_upset_ops_match_membership():
    rng = random.Random(107)
    for _ in range(200):
        a = (rng.randint(0, 6), rng.choice((0, 1, 2, 3, 4)))
        b = (rng.randint(0, 6), rng.choice((0, 1, 2, 3, 4)))
        inter = prog_intersect(a, b)
        for n in range(40):
            both = prog_member(n, a) and prog_member(n, b)
            assert (inter is not None and prog_member(n, inter)) == both, (a, b, n)


def test_length_set_golden():
    # (ab|ba)(ab)*a accepts exactly the odd lengths >= 3
    r = ReConcat((ReUnion((ReLit("ab"), ReLit("ba"))), ReStar(ReLit("ab")), ReLit("a")))
    s = length_set(regex_to_dfa(r, "ab"))
    assert members_upto(s, 11) == {3, 5, 7, 9, 11}
    # a* accepts every length
    assert members_upto(length_set(regex_to_dfa(ReStar(ReLit("a")), "a")), 20) == set(range(21))
    # the empty language has no lengths
    universal = regex_to_dfa(ReStar(ReUnion((ReLit("a"), ReLit("b")))), "ab")
    assert not length_set(dfa_complement(universal))


def test_length_set_vs_reachability():
    rng = random.Random(108)
    for _ in range(80):
        d = regex_to_dfa(random_regex(rng, "ab", 3), "ab")
        s = length_set(d)
        assert members_upto(s, 30) == accepted_lengths_bfs(d, 30)


def test_length_set_progressions_are_disjoint():
    # an orbit's progressions share no length, so none contains another
    rng = random.Random(110)
    for _ in range(120):
        s = length_set(regex_to_dfa(random_regex(rng, "ab", 3), "ab"))
        for n in range(61):
            assert sum(prog_member(n, prog) for prog in s) <= 1, (s, n)


def test_param_membership_boxes_are_disjoint():
    # a power splits a box along its orbit's classes, so no two boxes
    # share a valuation (and none is repeated)
    rng = random.Random(111)
    split = 0
    for _ in range(120):
        d = regex_to_dfa(random_regex(rng, "ab", 3), "ab")
        if rng.random() < 0.5:  # a complement accepts more branches
            d = dfa_complement(d)
        w = random_paramword(rng, "ab")
        boxes = param_membership(w, d)
        split += len(boxes) > 1
        names = sorted({b.param for b in w if isinstance(b, Power)})
        for point in product(range(9), repeat=len(names)):
            inside = [
                box for box in boxes if all(prog_member(v, box[p]) for p, v in zip(names, point))
            ]
            assert len(inside) <= 1, (w, point, inside)
    assert split >= 10


def test_param_membership_golden():
    # a(ab)^i b in (ab)*: only i = 0 (giving the word ab) lands inside
    d = regex_to_dfa(ReStar(ReLit("ab")), "ab")
    w = merge_blocks([Const("a"), Power("ab", "i"), Const("b")])
    assert param_membership(w, d) == [{"i": (0, 0)}]
    # (ab)^i a in (ab)*a: every exponent (possibly split across boxes)
    d2 = regex_to_dfa(ReConcat((ReStar(ReLit("ab")), ReLit("a"))), "ab")
    w2 = merge_blocks([Power("ab", "i"), Const("a")])
    boxes = param_membership(w2, d2)
    hit = {n for n in range(10) if any(prog_member(n, b["i"]) for b in boxes)}
    assert hit == set(range(10))


def test_param_membership_repeated_parameter():
    # a^i b a^i in a*ba*: always in; in (aa)*b(aa)* only for even i
    d = regex_to_dfa(
        ReConcat((ReStar(ReLit("aa")), ReLit("b"), ReStar(ReLit("aa")))), "ab"
    )
    w = merge_blocks([Power("a", "i"), Const("b"), Power("a", "i")])
    boxes = param_membership(w, d)
    hit = {n for n in range(10) if any(prog_member(n, box["i"]) for box in boxes)}
    assert hit == {0, 2, 4, 6, 8}


def test_param_membership_vs_instantiation():
    rng = random.Random(109)
    checked = 0
    for _ in range(60):
        r = random_regex(rng, "ab", 2)
        d = regex_to_dfa(r, "ab")
        blocks = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                blocks.append(Const(random_word(rng, "ab", 2) or "a"))
            else:
                blocks.append(Power(random_word(rng, "ab", 2) or "ab", rng.choice("ij")))
        w = merge_blocks(blocks)
        boxes = param_membership(w, d)
        names = sorted({b.param for b in w if isinstance(b, Power)})
        for point in product(range(9), repeat=len(names)):
            val = dict(zip(names, point))
            direct = d.accepts(instantiate(w, val))
            boxed = any(
                all(prog_member(val[p], box[p]) for p in names) for box in boxes
            )
            assert direct == boxed, (r, w, val)
            checked += 1
    assert checked > 0


def test_param_membership_rejects_unfixed_and_foreign_letters():
    d = regex_to_dfa(ReStar(ReLit("ab")), "ab")
    with pytest.raises(UnfixedPartPresent):
        param_membership(merge_blocks([Unfixed("y")]), d)
    with pytest.raises(LetterOutsideAlphabet):
        param_membership(merge_blocks([Const("c")]), d)
    with pytest.raises(LetterOutsideAlphabet):
        regex_to_dfa(ReLit("c"), "ab")
    assert d.accepts("ab") and not d.accepts("abc")
