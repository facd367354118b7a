"""Shared generators, independent reference implementations and the
length-only control arm.

Reference routines here deliberately avoid the package's own machinery:
the regex matcher works by derivatives instead of automata, accepted
lengths come from plain layer-by-layer reachability, and integer systems
are checked by raw box enumeration.
"""

from __future__ import annotations

import random
from itertools import product

from wordeq.automata import dfa_complement, length_set, regex_to_dfa
from wordeq.paramwords import Const, ParamWord, Power, Unfixed, param_word
from wordeq.solved_form import SolvedForm
from wordeq.solver import Sat, Unsat, check_sat
from wordeq.twocounter import TwoCounterMachine
from wordeq.terms import (
    And,
    Formula,
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
    Regex,
    Var,
    WordEq,
    concat,
    conj,
    disj,
    free_vars,
    re_alt,
    re_seq,
    re_star,
    scale,
    sum_of,
)


# ---------------------------------------------------------------------------
# regex matching by derivatives


def _nullable(r: Regex) -> bool:
    if isinstance(r, ReEpsilon):
        return True
    if isinstance(r, ReLit):
        return False
    if isinstance(r, ReConcat):
        return all(_nullable(p) for p in r.parts)
    if isinstance(r, ReUnion):
        return any(_nullable(p) for p in r.parts)
    assert isinstance(r, ReStar)
    return True


def _derive(r: Regex | None, a: str) -> Regex | None:
    """Left derivative; None stands for the empty language."""
    if r is None or isinstance(r, ReEpsilon):
        return None
    if isinstance(r, ReLit):
        if not r.word.startswith(a):
            return None
        return ReLit(r.word[1:]) if r.word[1:] else ReEpsilon()
    if isinstance(r, ReConcat):
        head, tail = r.parts[0], r.parts[1:]
        rest: Regex = ReConcat(tail) if len(tail) > 1 else tail[0]
        dh = _derive(head, a)
        first = None if dh is None else re_seq(dh, rest)
        if _nullable(head):
            dr = _derive(rest, a)
            if first is None:
                return dr
            if dr is None:
                return first
            return re_alt(first, dr)
        return first
    if isinstance(r, ReUnion):
        parts = [d for p in r.parts if (d := _derive(p, a)) is not None]
        return re_alt(*parts) if parts else None
    assert isinstance(r, ReStar)
    di = _derive(r.inner, a)
    return None if di is None else re_seq(di, r)


def matches_by_derivative(r: Regex, word: str) -> bool:
    state: Regex | None = r
    for a in word:
        state = _derive(state, a)
        if state is None:
            return False
    return _nullable(state)


# ---------------------------------------------------------------------------
# reference length enumeration for a DFA


def accepted_lengths_bfs(dfa, up_to: int) -> set[int]:
    """Lengths with an accepted word, by plain layer-by-layer reachability."""
    idx = {a: i for i, a in enumerate(dfa.alphabet)}
    layer = {dfa.initial}
    out = set()
    for n in range(up_to + 1):
        if layer & set(dfa.accepting):
            out.add(n)
        layer = {dfa.transitions[s][i] for s in layer for i in idx.values()}
    return out


# ---------------------------------------------------------------------------
# random structures


def random_word(rng: random.Random, sigma: str, max_len: int) -> str:
    return "".join(rng.choice(sigma) for _ in range(rng.randint(0, max_len)))


def random_regex(rng: random.Random, sigma: str, depth: int = 3) -> Regex:
    """Canonically constructed, so printing and reparsing is exact."""
    if depth == 0 or rng.random() < 0.3:
        word = "".join(rng.choice(sigma) for _ in range(rng.randint(1, 2)))
        return ReLit(word)
    kind = rng.randrange(4)
    if kind == 0:
        return re_seq(random_regex(rng, sigma, depth - 1), random_regex(rng, sigma, depth - 1))
    if kind == 1:
        return re_alt(random_regex(rng, sigma, depth - 1), random_regex(rng, sigma, depth - 1))
    if kind == 2:
        return re_star(random_regex(rng, sigma, depth - 1))
    return ReEpsilon()


def random_paramword(rng: random.Random, sigma: str, n_params: int = 2) -> ParamWord:
    blocks = []
    params = [f"i{k}" for k in range(n_params)]
    for _ in range(rng.randint(1, 4)):
        kind = rng.randrange(3)
        if kind == 0:
            blocks.append(Const(random_word(rng, sigma, 3) or "a"))
        elif kind == 1:
            base = random_word(rng, sigma, 2) or "ab"
            blocks.append(Power(base, rng.choice(params)))
        else:
            blocks.append(Const(rng.choice(sigma)))
    return param_word(tuple(blocks))


def random_solved_form(rng: random.Random, sigma: str = "ab") -> SolvedForm:
    """Bindings over a few shared parameters and parts."""
    params = [f"i{k}" for k in range(rng.randint(1, 2))]
    parts = [f"y{k}" for k in range(rng.randint(1, 2))]
    bindings = []
    for v in ("X", "Y", "Z")[: rng.randint(1, 3)]:
        blocks: list = []
        for _ in range(rng.randint(0, 3)):
            kind = rng.randrange(3)
            if kind == 0:
                blocks.append(Const(random_word(rng, sigma, 3) or "a"))
            elif kind == 1:
                blocks.append(Power(random_word(rng, sigma, 2) or "ab", rng.choice(params)))
            else:
                blocks.append(Unfixed(rng.choice(parts)))
        bindings.append((v, param_word(tuple(blocks))))
    return SolvedForm(bindings=tuple(bindings))


# ---------------------------------------------------------------------------
# random formulas the solver can decide

_TEMPLATE_NAMES = ("X", "Y", "Z")


def _template_equation(rng: random.Random, sigma: str) -> tuple[Formula, list[str]]:
    """One equation drawn from shapes the rewriter is known to finish on."""
    x, y = rng.sample(_TEMPLATE_NAMES, 2)
    w = lambda lo, hi: "".join(rng.choice(sigma) for _ in range(rng.randint(lo, hi)))
    kind = rng.randrange(5)
    if kind == 0:
        # Definition: X = u Y v.
        rhs = concat(Lit(w(0, 2)), Var(y), Lit(w(0, 2)))
        return WordEq(Var(x), rhs), [x, y]
    if kind == 1:
        # Both-sided constant equation: u X = X v (u, v same length).
        u = w(1, 2)
        v = "".join(rng.sample(u, len(u))) if len(u) > 1 else u
        return WordEq(concat(Lit(u), Var(x)), concat(Var(x), Lit(v))), [x]
    if kind == 2:
        # Straddle: X u = v Y.
        return WordEq(concat(Var(x), Lit(w(1, 2))), concat(Lit(w(1, 2)), Var(y))), [x, y]
    if kind == 3:
        # Ground: X u Y = constant.
        return (
            WordEq(concat(Var(x), Lit(w(1, 1)), Var(y)), Lit(w(2, 4))),
            [x, y],
        )
    # Plain constant binding.
    return WordEq(Var(x), Lit(w(0, 3))), [x]


def random_formula_el(rng: random.Random, sigma: str = "ab") -> Formula:
    """Conjunction of template equations and length constraints."""
    parts: list[Formula] = []
    used: list[str] = []
    for _ in range(rng.randint(1, 2)):
        eq, vs = _template_equation(rng, sigma)
        parts.append(eq)
        used.extend(vs)
    for _ in range(rng.randint(0, 2)):
        v = rng.choice(used)
        if rng.random() < 0.5:
            parts.append(LenLeq(Len(Var(v)), rng.randint(0, 6)))
        else:
            # Lower bound: -len(v) <= -k.
            parts.append(LenLeq(sum_of((-1, Len(Var(v)))), -rng.randint(1, 4)))
    return conj(*parts)


def random_formula_elr(rng: random.Random, sigma: str = "ab") -> Formula:
    """Template equations plus a membership constraint and a length cap."""
    phi = random_formula_el(rng, sigma)
    svars = sorted(free_vars(phi)[0])
    v = rng.choice(svars)
    r = random_regex(rng, sigma, depth=2)
    cap = LenLeq(Len(Var(v)), rng.randint(2, 8))
    return conj(phi, InRe(Var(v), r), cap)


# ---------------------------------------------------------------------------
# the length-only control arm


def length_abstraction(phi: Formula, alphabet: str) -> str:
    """"sat", "unsat" or "unsupported" for ``phi`` with every membership
    weakened to "the term's length lies in the language's length set".

    Letter positions are forgotten, so "sat" is not trustworthy: this is
    the control arm that shows what the exact parameter analysis adds.
    In negation normal form a negated membership takes the complement's
    length set; each progression (o, p) becomes len(t) = o + p k with a
    fresh k >= 0, and an empty set becomes 0 <= -1.
    """
    svars, ivars = free_vars(phi)
    gen = NameGen(svars | ivars)

    def in_lengths(term, dfa) -> Formula:
        options: list[Formula] = []
        for o, p in sorted(length_set(dfa).progs):
            k = IntVar(gen.fresh("k"))
            offset = sum_of((1, Len(term)), (-p, k))  # must equal o
            nonnegative = LenLeq(sum_of((-1, k)), 0)
            options.append(conj(LenLeq(offset, o), LenLeq(scale(offset, -1), -o), nonnegative))
        return disj(*options) if options else LenLeq(IntConst(0), -1)

    def weaken(f: Formula, positive: bool) -> Formula:
        if isinstance(f, Not):
            return weaken(f.inner, not positive)
        if isinstance(f, (And, Or)):
            parts = tuple(weaken(p, positive) for p in f.parts)
            return And(parts) if isinstance(f, And) == positive else Or(parts)
        if isinstance(f, InRe):
            dfa = regex_to_dfa(f.regex, alphabet)
            return in_lengths(f.term, dfa if positive else dfa_complement(dfa))
        return f if positive else Not(f)

    verdict = check_sat(weaken(phi, True), alphabet)
    return {Sat: "sat", Unsat: "unsat"}.get(type(verdict), "unsupported")


# ---------------------------------------------------------------------------
# box enumeration for integer systems


def box_has_solution(rows, cols, lo: int, hi: int):
    """First point of the box satisfying every row, scanning lexicographically."""
    for point in product(range(lo, hi + 1), repeat=len(cols)):
        val = dict(zip(cols, point))
        ok = True
        for row in rows:
            total = sum(c * val[v] for v, c in row.coeffs.items())
            if row.relation == "eq":
                if total != row.bound:
                    ok = False
                    break
            else:
                if total > row.bound:
                    ok = False
                    break
        if ok:
            return val
    return None


# ---------------------------------------------------------------------------
# the machine zoo


def zoo() -> list[tuple[TwoCounterMachine, tuple[str, ...]]]:
    """Five small machines paired with input words.

    Accepting, looping, and stuck behaviors are all represented; final
    states have no outgoing rules so accepting histories are unique.
    """
    z1 = TwoCounterMachine(  # immediate accept
        ("q0", "qf"), ("a",), "q0", frozenset({"qf"}),
        ((("q0", "a", "Z", "Z"), ("qf", "in", "L")),),
    )
    z2 = TwoCounterMachine(  # counts up forever
        ("q0",), ("a",), "q0", frozenset(),
        ((("q0", "a", "Z", "Z"), ("q0", "stor1", "R")),
         (("q0", "a", "b", "Z"), ("q0", "stor1", "R"))),
    )
    z3 = TwoCounterMachine(  # increment then decrement
        ("q0", "q1", "qf"), ("0",), "q0", frozenset({"qf"}),
        ((("q0", "0", "Z", "Z"), ("q1", "stor1", "R")),
         (("q1", "0", "b", "Z"), ("qf", "stor1", "L"))),
    )
    z4 = TwoCounterMachine(  # walks the input right, then back
        ("q0", "qf"), ("a", "x"), "q0", frozenset({"qf"}),
        ((("q0", "a", "Z", "Z"), ("q0", "in", "R")),
         (("q0", "x", "Z", "Z"), ("qf", "in", "L"))),
    )
    z5 = TwoCounterMachine(  # strands itself with a nonzero counter
        ("q0", "q1"), ("a",), "q0", frozenset({"q1"}),
        ((("q0", "a", "Z", "Z"), ("q1", "stor2", "R")),),
    )
    return [(z1, ("a",)), (z2, ("a",)), (z3, ("0",)), (z4, ("a", "x")), (z5, ("a",))]
