"""Disjunctive normal form and negation removal."""

import random
from itertools import product

from helpers import random_boolean_formula, random_regex, reference_to_dnf
from wordeq.normalize import Literal, dnf_tree, eliminate_negations, to_dnf, walk, walk_product
from wordeq.semantics import Assignment, eval_formula
from wordeq.terms import (
    And,
    InRe,
    Len,
    LenLeq,
    Lit,
    NameGen,
    Not,
    Or,
    ReLit,
    ReStar,
    ReUnion,
    Var,
    WordEq,
    concat,
    conj,
    disj,
    free_vars,
    sum_of,
)


def branches_of(lits, alphabet, gen):
    """The product of the literals' ``eliminate_negations`` alternatives:
    one positive conjunction per choice of an alternative for each."""
    factors = [eliminate_negations(lit.atom, lit.positive, alphabet, gen) for lit in lits]
    return [[a for alt in choice for a in alt] for choice in product(*factors)]


def dnf_as_formula(disjuncts):
    branches = []
    for lits in disjuncts:
        branches.append(conj(*[l.atom if l.positive else Not(l.atom) for l in lits]))
    return disj(*branches)


def words_upto(n):
    out = [""]
    for ln in range(1, n + 1):
        out.extend("".join(t) for t in product("ab", repeat=ln))
    return out


def all_assignments(svars, max_len):
    names = sorted(svars)
    for combo in product(words_upto(max_len), repeat=len(names)):
        yield Assignment(dict(zip(names, combo)))


def test_to_dnf_golden():
    a = WordEq(Var("X"), Lit("a"))
    b = LenLeq(Len(Var("X")), 1)
    c = InRe(Var("X"), ReLit("b"))
    out = to_dnf(conj(disj(a, b), c))
    assert out == [[Literal(a, True), Literal(c, True)], [Literal(b, True), Literal(c, True)]]


def test_to_dnf_negation_pushed_to_atoms():
    a = WordEq(Var("X"), Lit("a"))
    b = LenLeq(Len(Var("X")), 1)
    out = to_dnf(Not(conj(a, b)))
    assert out == [[Literal(a, False)], [Literal(b, False)]]
    assert to_dnf(Not(Not(a))) == [[Literal(a, True)]]


def test_to_dnf_preserves_disjunct_order():
    atoms = [WordEq(Var("X"), Lit("a" * (i + 1))) for i in range(4)]
    out = to_dnf(disj(*atoms))
    assert [lits[0].atom for lits in out] == atoms


def test_to_dnf_equivalent():
    rng = random.Random(201)
    for _ in range(400):
        phi = random_boolean_formula(rng, 3)
        psi = dnf_as_formula(to_dnf(phi))
        for a in all_assignments(free_vars(phi)[0], 2):
            assert eval_formula(phi, a) == eval_formula(psi, a), phi


def test_to_dnf_matches_the_recursive_reference():
    rng = random.Random(17)
    for _ in range(400):
        phi = random_boolean_formula(rng, 4)
        assert to_dnf(phi) == reference_to_dnf(phi), phi


def test_dnf_tree_makes_each_leaf_once_per_atom_and_sign():
    a, b = WordEq(Var("X"), Lit("a")), LenLeq(Len(Var("X")), 1)
    made = []

    def leaf(atom, positive):
        made.append((atom, positive))
        return "leaf", Literal(atom, positive)

    phi = And((a, Or((Not(a), a)), Not(And((a, b)))))
    tree = dnf_tree(phi, leaf)
    assert made == [(a, True), (a, False), (b, False)]
    assert list(walk(tree, lambda c, lit: c + [lit], [])) == reference_to_dnf(phi)


def test_walk_never_folds_below_a_pruned_prefix_of_a_nested_tree():
    # a negative literal prunes its prefix; the trees nest And and Or
    # (and Not) to depth 4, so a pruned prefix has leaves of many parts
    # below it
    rng = random.Random(18)
    pruned = 0
    for _ in range(200):
        phi = random_boolean_formula(rng, 4)
        calls = []

        def extend(prefix, lit):
            calls.append(prefix + (lit,))
            return prefix + (lit,) if lit.positive else None

        got = list(walk(dnf_tree(phi, lambda a, p: ("leaf", Literal(a, p))), extend, ()))
        reference = [tuple(c) for c in reference_to_dnf(phi)]
        assert got == [c for c in reference if all(lit.positive for lit in c)], phi
        # every prefix extended, and nothing below a negative literal
        reached = {
            c[:k] for c in reference for k in range(1, len(c) + 1)
            if all(lit.positive for lit in c[: k - 1])
        }
        assert set(calls) == reached, phi
        pruned += len(got) < len(reference)
    assert pruned > 50


def test_walk_degenerate_trees():
    assert list(walk(("or", []), _tuples, "start")) == []
    assert list(walk(("and", []), _tuples, "start")) == ["start"]
    assert list(walk(("and", [("leaf", 1), ("or", [])]), _tuples, ())) == []
    assert list(walk(("or", [("and", []), ("leaf", 1)]), _tuples, ())) == [(), (1,)]


def test_eliminate_negations_length():
    gen = NameGen()
    lit = Literal(LenLeq(Len(Var("X")), 3), False)
    out = branches_of([lit], "ab", gen)
    assert out == [[LenLeq(sum_of((-1, Len(Var("X")))), -4)]]


def test_eliminate_negations_membership():
    gen = NameGen()
    lit = Literal(InRe(Var("X"), ReStar(ReLit("a"))), False)
    (branch,) = branches_of([lit], "ab", gen)
    (atom,) = branch
    assert isinstance(atom, InRe)
    # complement over {a,b}: needs at least one b
    for w, inside in [("", False), ("a", False), ("aaa", False), ("b", True), ("ab", True)]:
        assert eval_formula(atom, Assignment({"X": w})) == inside


def test_eliminate_negations_total_language_vanishes():
    # (a|b)* covers everything, so the negated membership has no alternative
    atom = InRe(Var("X"), ReStar(ReUnion((ReLit("a"), ReLit("b")))))
    assert eliminate_negations(atom, False, "ab", NameGen()) == []


def test_eliminate_negations_word_eq_shape():
    gen = NameGen()
    lit = Literal(WordEq(Var("X"), Lit("ab")), False)
    out = branches_of([lit], "ab", gen)
    # two length branches plus one mismatch branch per ordered letter pair
    assert len(out) == 2 + 2
    assert all(isinstance(a, (WordEq, LenLeq)) for branch in out for a in branch)


def branch_truth(branches, base: Assignment, helper_len: int) -> bool:
    """Can some branch be satisfied by extending ``base`` with helper words?"""
    for atoms in branches:
        psi = conj(*atoms)
        helpers = sorted(free_vars(psi)[0] - set(base.strings))
        for combo in product(words_upto(helper_len), repeat=len(helpers)):
            ext = dict(base.strings)
            ext.update(zip(helpers, combo))
            if eval_formula(psi, Assignment(ext)):
                return True
    return False


def test_eliminate_negations_pointwise_exact():
    # on every small assignment the positive disjunction agrees with the
    # negated original; helper words never need to outgrow the originals
    cases = [
        [Literal(WordEq(Var("X"), Lit("ab")), False)],
        [Literal(WordEq(Var("X"), Var("Y")), False)],
        [Literal(WordEq(concat(Lit("a"), Var("X")), concat(Var("X"), Lit("a"))), False)],
        [Literal(LenLeq(Len(Var("X")), 1), False)],
        [Literal(InRe(Var("X"), ReStar(ReLit("ab"))), False)],
        [
            Literal(WordEq(Var("X"), Lit("a")), False),
            Literal(LenLeq(Len(Var("X")), 1), True),
        ],
        [
            Literal(WordEq(Var("X"), Var("Y")), False),
            Literal(InRe(Var("Y"), ReStar(ReLit("a"))), False),
        ],
    ]
    for lits in cases:
        gen = NameGen({"X", "Y"})
        branches = branches_of(lits, "ab", gen)
        original = conj(*[l.atom if l.positive else Not(l.atom) for l in lits])
        base_vars = free_vars(original)[0]
        for a in all_assignments(base_vars, 2):
            want = eval_formula(original, a)
            got = branch_truth(branches, a, 2)
            assert want == got, (lits, a.strings)


def test_eliminate_negations_positive_passthrough():
    gen = NameGen()
    atoms = [
        WordEq(Var("X"), Lit("a")),
        LenLeq(Len(Var("X")), 2),
        InRe(Var("X"), ReLit("a")),
    ]
    lits = [Literal(a, True) for a in atoms]
    assert branches_of(lits, "ab", gen) == [atoms]
    assert [eliminate_negations(a, True, "ab", gen) for a in atoms] == [[[a]] for a in atoms]


def test_eliminate_negations_fresh_names_avoid_existing():
    gen = NameGen({"X", "P0", "U0", "V0"})
    lit = Literal(WordEq(Var("X"), Lit("a")), False)
    out = branches_of([lit], "ab", gen)
    helpers = {
        v for branch in out for a in branch if isinstance(a, WordEq)
        for v in free_vars(a)[0]
    } - {"X"}
    assert helpers
    assert helpers.isdisjoint({"P0", "U0", "V0"})


def _tuples(prefix, choice):
    return prefix + (choice,)


def test_walk_product_without_pruning_is_the_product():
    factors = [[1, 2], [3], [4, 5, 6], ["x", "y"]]
    assert list(walk_product(factors, _tuples, ())) == list(product(*factors))


def test_walk_product_never_extends_a_pruned_prefix():
    calls = []

    def extend(prefix, choice):
        calls.append(prefix + (choice,))
        return None if choice == 0 else prefix + (choice,)

    factors = [[0, 1, 2]] * 3
    got = list(walk_product(factors, extend, ()))
    assert got == [t for t in product(*factors) if 0 not in t]
    # 3 choices at the root, then 3 below each of the 2 live prefixes at
    # each depth: 3 + 6 + 12, and nothing below a prefix holding a 0
    assert len(calls) == 3 + 6 + 12
    assert not any(0 in c[:-1] for c in calls)


def test_walk_product_degenerate_factors():
    assert list(walk_product([], _tuples, "start")) == ["start"]
    assert list(walk_product([[1, 2], [], [3]], _tuples, ())) == []
    assert list(walk_product([[]], _tuples, ())) == []


def test_walk_product_does_not_recurse():
    depth = 10_000
    assert list(walk_product([[1]] * depth, lambda n, c: n + c, 0)) == [depth]
