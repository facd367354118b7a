"""Parametric words: normalization and instantiation."""

import random

import pytest

from wordeq.errors import UnfixedPartPresent
from wordeq.paramwords import (
    Const,
    Power,
    Unfixed,
    has_unfixed,
    instantiate,
    merge_blocks,
    params_of,
    parts_of,
)


def test_param_word_merges_adjacent_constants():
    w = merge_blocks([Const("a"), Const("b"), Power("ab", "i"), Const("c")])
    assert w == (Const("ab"), Power("ab", "i"), Const("c"))


def test_param_word_keeps_nonadjacent_constants():
    w = merge_blocks([Const("a"), Unfixed("y"), Const("a")])
    assert w == (Const("a"), Unfixed("y"), Const("a"))


def test_empty_blocks_rejected():
    with pytest.raises(ValueError):
        Const("")
    with pytest.raises(ValueError):
        Power("", "i")


def test_params_and_parts_first_occurrence_order():
    w = merge_blocks(
        [Power("a", "j"), Unfixed("z"), Power("b", "i"), Power("ab", "j"), Unfixed("y")]
    )
    assert params_of(w) == ["j", "i"]
    assert parts_of(w) == ["z", "y"]
    assert has_unfixed(w)
    assert not has_unfixed(merge_blocks([Const("a")]))


def test_instantiate_golden():
    w = merge_blocks([Const("a"), Power("ab", "i"), Const("b"), Unfixed("y")])
    assert instantiate(w, {"i": 0}, {"y": ""}) == "ab"
    assert instantiate(w, {"i": 2}, {"y": "ba"}) == "aababbba"


def test_instantiate_shared_parameter():
    # the same parameter takes the same value in every power
    w = merge_blocks([Power("a", "i"), Const("b"), Power("ba", "i")])
    assert instantiate(w, {"i": 3}) == "aaabbababa"


def test_instantiate_missing_part_raises():
    w = merge_blocks([Unfixed("y")])
    with pytest.raises(UnfixedPartPresent):
        instantiate(w, {})


def test_instantiate_negative_parameter_rejected():
    w = merge_blocks([Power("a", "i")])
    with pytest.raises(ValueError):
        instantiate(w, {"i": -1})


def test_instantiate_matches_direct_expansion():
    rng = random.Random(31)
    for _ in range(300):
        blocks = []
        expect = []
        params = {"i": rng.randint(0, 4), "j": rng.randint(0, 4)}
        parts = {"y": "ba" * rng.randint(0, 2)}
        for _ in range(rng.randint(1, 5)):
            kind = rng.randrange(3)
            if kind == 0:
                word = "".join(rng.choice("ab") for _ in range(rng.randint(1, 3)))
                blocks.append(Const(word))
                expect.append(word)
            elif kind == 1:
                base = "".join(rng.choice("ab") for _ in range(rng.randint(1, 2)))
                p = rng.choice(["i", "j"])
                blocks.append(Power(base, p))
                expect.append(base * params[p])
            else:
                blocks.append(Unfixed("y"))
                expect.append(parts["y"])
        w = merge_blocks(blocks)
        assert instantiate(w, params, parts) == "".join(expect)


def test_normalization_preserves_instances():
    rng = random.Random(32)
    for _ in range(200):
        blocks = [
            Const(rng.choice("ab")) if rng.random() < 0.6 else Power("ab", "i")
            for _ in range(rng.randint(1, 6))
        ]
        raw = tuple(blocks)
        norm = merge_blocks(blocks)
        for i in range(4):
            assert instantiate(raw, {"i": i}) == instantiate(norm, {"i": i})
