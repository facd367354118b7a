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

from wordeq import twocounter
from wordeq.automata import dfa_complement, length_set, regex_to_dfa
from wordeq.errors import Budget
from wordeq.lengths import Row, int_var, len_var
from wordeq.normalize import Literal
from wordeq.paramwords import Blocks, Const, Power, Unfixed, merge_blocks
from wordeq.printer import print_problem
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
    LenTerm,
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
    StrTerm,
    Sum,
    conj,
    disj,
    free_vars,
    nodes,
    re_alt,
    re_seq,
    Var,
    WordEq,
    concat,
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


def random_paramword(rng: random.Random, sigma: str, n_params: int = 2) -> Blocks:
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
    return merge_blocks(tuple(blocks))


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
        bindings.append((v, merge_blocks(tuple(blocks))))
    return SolvedForm(bindings=tuple(bindings))


def render_solved_form(sf: SolvedForm) -> str:
    """One line per binding: ``X = (ab)^i0 a``, an unfixed part as
    ``<y>`` and the empty word as ``""``."""

    def render_word(w: Blocks) -> str:
        if not w:
            return '""'
        bits = []
        for b in w:
            if isinstance(b, Const):
                bits.append(b.word)
            elif isinstance(b, Power):
                bits.append(f"({b.base})^{b.param}")
            else:
                bits.append(f"<{b.part}>")
        return " ".join(bits)

    return "\n".join(f"{v} = {render_word(w)}" for v, w in sf.bindings)


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
        for o, p in sorted(length_set(dfa)):
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


def sum_of_len_leq(lhs: LenTerm, rhs: LenTerm) -> LenLeq:
    """The atom ``lhs <= rhs`` built with ``terms.sum_of``: ``lhs - rhs``
    merged, its constants moved into the bound and the rest summed again.
    The parser sums a length atom in place and must give this atom, item
    order included.  The 64-bit checks are the parser's own."""
    diff = sum_of((1, lhs), (-1, rhs))
    items = diff.items if isinstance(diff, Sum) else ((1, diff),)
    bound = -sum(c * t.value for c, t in items if isinstance(t, IntConst))
    return LenLeq(sum_of(*(i for i in items if not isinstance(i[1], IntConst))), bound)


def definitional_len_atom(atom: LenLeq) -> Row:
    """A length atom as one <= row with each variable's length its own
    ``len`` unknown, the reference for ``translate_len_atom``: with a
    form's ``implied_length_constraints`` it has a model exactly when
    ``translate_len_atom(atom, sf)`` has."""
    coeffs: dict = {}
    const = 0

    def walk(t, scale: int) -> None:
        nonlocal const
        if isinstance(t, (IntConst, Lit)):
            const += scale * (t.value if isinstance(t, IntConst) else len(t.word))
        elif isinstance(t, (IntVar, Var)):
            v = int_var(t.name) if isinstance(t, IntVar) else len_var(t.name)
            coeffs[v] = coeffs.get(v, 0) + scale
        elif isinstance(t, Len):
            walk(t.term, scale)
        elif isinstance(t, Sum):
            for c, item in t.items:
                walk(item, scale * c)
        else:  # a concatenation
            for part in t.parts:
                walk(part, scale)

    walk(atom.term, 1)
    return Row({v: c for v, c in coeffs.items() if c}, "le", atom.bound - const)


def pairwise_needed(opened) -> list:
    """``propagate._needed`` by comparing every pair of open equations:
    an equation is kept unless it is apart and shares no name with any
    other one."""
    if len(opened) == 1:
        (eq, _, apart), = opened
        return [] if apart else [eq]
    return [
        eq
        for i, (eq, names, apart) in enumerate(opened)
        if not apart
        or any(j != i and not names.isdisjoint(other) for j, (_, other, _) in enumerate(opened))
    ]


def is_counterexample(s: twocounter.Sentence, word: str) -> bool:
    """Does the word defeat every existential witness choice of the
    sentence?  One word, checked as ``enumerate_counterexamples`` checks
    each word it walks."""
    budget = Budget()
    body = twocounter._compiled_body(s, budget)
    if any(twocounter._matches(p, word) for p in body.closed):
        return False
    return not twocounter._witnessed(body, word, s.alphabet, budget)


# The two test machines: deeper runs than the zoo's, which the tests and
# tests/verdicts.py check positivized.


def updown_machine() -> tuple[twocounter.TwoCounterMachine, tuple[str, ...], str]:
    """Pump counter 1 to two, then drain it; encoding '01b2bb3b4'."""
    m = twocounter.TwoCounterMachine(
        ("q0", "q1", "q2", "q3", "q4"), ("0",), "q0", frozenset({"q4"}),
        ((("q0", "0", "Z", "Z"), ("q1", "stor1", "R")),
         (("q1", "0", "b", "Z"), ("q2", "stor1", "R")),
         (("q2", "0", "b", "Z"), ("q3", "stor1", "L")),
         (("q3", "0", "b", "Z"), ("q4", "stor1", "L"))),
    )
    return m, ("0",), "01b2bb3b4"


def twocounter_machine() -> tuple[twocounter.TwoCounterMachine, tuple[str, ...], str]:
    """Load both counters, then drain them; encoding '01b2bc3c4'."""
    m = twocounter.TwoCounterMachine(
        ("q0", "q1", "q2", "q3", "q4"), ("0",), "q0", frozenset({"q4"}),
        ((("q0", "0", "Z", "Z"), ("q1", "stor1", "R")),
         (("q1", "0", "b", "Z"), ("q2", "stor2", "R")),
         (("q2", "0", "b", "c"), ("q3", "stor1", "L")),
         (("q3", "0", "Z", "c"), ("q4", "stor2", "L"))),
    )
    return m, ("0",), "01b2bc3c4"


# ---------------------------------------------------------------------------
# synthetic corpus, with a known solved fraction


def _random_term(rng: random.Random, vars_: list[str], avoid: str | None) -> StrTerm:
    """Short concatenation of constants and variables other than ``avoid``."""
    pool = [v for v in vars_ if v != avoid]
    parts: list[StrTerm] = []
    for _ in range(rng.randint(1, 3)):
        if pool and rng.random() < 0.4:
            parts.append(Var(rng.choice(pool)))
        else:
            parts.append(Lit("".join(rng.choice("ab") for _ in range(rng.randint(1, 3)))))
    return concat(*parts)


def _solved_equation(rng: random.Random, vars_: list[str]) -> WordEq:
    lhs = rng.choice(vars_)
    return WordEq(Var(lhs), _random_term(rng, vars_, avoid=lhs))


def _unsolved_equation(rng: random.Random, vars_: list[str]) -> WordEq:
    x = rng.choice(vars_)
    if rng.random() < 0.5:
        # Compound left side.
        lhs = concat(Lit(rng.choice("ab")), Var(x))
        return WordEq(lhs, _random_term(rng, vars_, avoid=None))
    # The left-side variable recurs on the right.
    rhs = concat(Lit(rng.choice("ab")), Var(x), Lit(rng.choice("ab")))
    return WordEq(Var(x), rhs)


def generate_corpus(
    out_dir: str | Path, n_files: int = 1000, seed: int = 2024, solved_fraction: float = 0.8
) -> list[Path]:
    """Write problem files whose aggregate solved-equation ratio is exact.

    Each file holds a multiple-of-five equation count so the per-file
    solved share hits the fraction with no rounding drift.
    """
    if not 0.0 <= solved_fraction <= 1.0:
        raise ValueError(f"solved_fraction {solved_fraction} is not between 0 and 1")
    rng = random.Random(seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(n_files):
        n = rng.choice((5, 10, 15))
        k = round(solved_fraction * n)
        vars_ = [f"X{j}" for j in range(rng.randint(2, 4))]
        eqs: list[Formula] = [_solved_equation(rng, vars_) for _ in range(k)]
        eqs += [_unsolved_equation(rng, vars_) for _ in range(n - k)]
        rng.shuffle(eqs)
        text = print_problem("ab", vars_, (), eqs, check_sat=False)
        path = out / f"{i:04d}.eq"
        path.write_text(text + "\n")
        paths.append(path)
    return paths


def random_resumed_formula(rng: random.Random) -> Formula:
    """Forced commutations u X = X v (v a rotation of u) and straddles
    X u = v Y over X, Y and Z, which make forms with powers and fresh
    parts, and one or two choices (an Or of two atoms or a negated atom)
    that bind, ground or bound their variables, in random order."""
    names = ("X", "Y", "Z")
    parts = []
    for _ in range(rng.randint(1, 2)):
        x, y = rng.sample(names, 2)
        if rng.random() < 0.5:
            u = random_word(rng, "ab", 3) or "a"
            cut = rng.randrange(len(u))
            parts.append(WordEq(concat(Lit(u), Var(x)), concat(Var(x), Lit(u[cut:] + u[:cut]))))
        else:
            u, v = random_word(rng, "ab", 2) or "b", random_word(rng, "ab", 2) or "a"
            parts.append(WordEq(concat(Var(x), Lit(u)), concat(Lit(v), Var(y))))

    def atom():
        x, y = rng.sample(names, 2)
        kind = rng.randrange(4)
        if kind == 0:
            return WordEq(Var(x), Lit(random_word(rng, "ab", 3)))
        if kind == 1:
            return WordEq(Var(x), concat(Lit(random_word(rng, "ab", 2)), Var(y)))
        if kind == 2:
            return WordEq(concat(Var(x), Var(y)), Lit(random_word(rng, "ab", 4)))
        return LenLeq(Len(Var(x)), rng.randint(0, 3))

    for _ in range(rng.randint(1, 2)):
        parts.append(disj(atom(), atom()) if rng.random() < 0.5 else Not(atom()))
    rng.shuffle(parts)
    return conj(*parts)
