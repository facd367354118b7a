"""Shared generators, independent reference implementations and the
length-only control arm.

Reference routines here deliberately avoid the package's own machinery:
the regex matcher works by derivatives instead of automata, accepted
lengths come from plain layer-by-layer reachability, and integer systems
are checked by raw box enumeration.
"""

from __future__ import annotations

import random
import sys
from itertools import product
from pathlib import Path

from wordeq.automata import dfa_complement, length_set, regex_to_dfa
from wordeq.normalize import Literal
from wordeq.paramwords import Const, ParamWord, Power, Unfixed, param_word
from wordeq.solved_form import SolvedForm
from wordeq.solver import Sat, Unsat, check_sat
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
    conj,
    disj,
    free_vars,
    nodes,
    re_alt,
    re_seq,
    Var,
    WordEq,
    scale,
    sum_of,
)

# The criterion-2 generators and the machine zoo are the benchmark's own
# (perfbench/gen.py).  The import runs from the tests to the benchmark,
# so editing a test cannot change what the benchmark measures.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from gen import (  # noqa: E402,F401  re-exported to the tests
    _template_equation,
    random_formula_el,
    random_formula_elr,
    random_regex,
    zoo,
)


def formula_letters(phi: Formula) -> set[str]:
    """All alphabet letters mentioned anywhere in the formula: the letter
    part of ``terms.scan``, without its depth limit."""
    return {a for n in nodes(phi) if isinstance(n, (Lit, ReLit)) for a in n.word}


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


def random_boolean_formula(rng: random.Random, depth: int) -> Formula:
    """And, Or and Not over equations, length bounds and memberships of
    X and Y, nested up to ``depth``."""
    if depth == 0 or rng.random() < 0.35:
        kind = rng.randrange(3)
        x = Var(rng.choice("XY"))
        if kind == 0:
            return WordEq(x, Lit(random_word(rng, "ab", 2)))
        if kind == 1:
            return LenLeq(Len(x), rng.randint(0, 3))
        return InRe(x, random_regex(rng, "ab", 1))
    kind = rng.randrange(3)
    if kind == 0:
        return Not(random_boolean_formula(rng, depth - 1))
    parts = tuple(random_boolean_formula(rng, depth - 1) for _ in range(2))
    return And(parts) if kind == 1 else Or(parts)


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


def reference_to_dnf(phi: Formula) -> list[list[Literal]]:
    """The disjunctive normal form built eagerly and recursively: negations
    pushed to the atoms first, then the product of every conjunction's
    parts' forms, left part outermost."""

    def nnf(f: Formula, positive: bool) -> Formula:
        if isinstance(f, Not):
            return nnf(f.inner, not positive)
        if isinstance(f, (And, Or)):
            parts = tuple(nnf(p, positive) for p in f.parts)
            return And(parts) if isinstance(f, And) == positive else Or(parts)
        return f if positive else Not(f)

    def dnf(f: Formula) -> list[list[Literal]]:
        if isinstance(f, Or):
            return [c for p in f.parts for c in dnf(p)]
        if isinstance(f, And):
            acc: list[list[Literal]] = [[]]
            for p in f.parts:
                acc = [c + d for c in acc for d in dnf(p)]
            return acc
        if isinstance(f, Not):
            return [[Literal(f.inner, False)]]
        return [[Literal(f, True)]]

    return dnf(nnf(phi, True))
