"""Seeded input generators for the benchmark workloads.

These live with the benchmark, not with the tests, so that editing a test
cannot change what the benchmark measures.  ``random_formula_el`` and
``random_formula_elr`` draw from the same distribution, with the same
random-number stream, as the generators behind acceptance criterion 2;
``criterion2_draw(random.Random(2024), ...)`` reproduces that test's draw.

Every generator returns ``Case`` records: the formula over the alphabet
"ab" and, for the structured families, the answer known by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from wordeq.terms import (
    Formula,
    InRe,
    Len,
    LenLeq,
    Lit,
    Not,
    ReEpsilon,
    ReLit,
    Regex,
    Var,
    WordEq,
    concat,
    conj,
    free_vars,
    re_alt,
    re_lit,
    re_seq,
    re_star,
    sum_of,
)


@dataclass(frozen=True)
class Case:
    family: str
    phi: Formula  # over the alphabet "ab"
    expect: str | None  # "sat", "unsat", or None when only the oracle knows


# ---------------------------------------------------------------------------
# the criterion-2 distribution


def _word(rng: random.Random, sigma: str, lo: int, hi: int) -> str:
    return "".join(rng.choice(sigma) for _ in range(rng.randint(lo, hi)))


def random_regex(rng: random.Random, sigma: str, depth: int = 3) -> Regex:
    if depth == 0 or rng.random() < 0.3:
        return ReLit(_word(rng, sigma, 1, 2))
    kind = rng.randrange(4)
    if kind == 0:
        return re_seq(random_regex(rng, sigma, depth - 1), random_regex(rng, sigma, depth - 1))
    if kind == 1:
        return re_alt(random_regex(rng, sigma, depth - 1), random_regex(rng, sigma, depth - 1))
    if kind == 2:
        return re_star(random_regex(rng, sigma, depth - 1))
    return ReEpsilon()


def _template_equation(rng: random.Random, sigma: str) -> tuple[Formula, list[str]]:
    x, y = rng.sample(("X", "Y", "Z"), 2)
    kind = rng.randrange(5)
    if kind == 0:  # definition X = u Y v
        rhs = concat(Lit(_word(rng, sigma, 0, 2)), Var(y), Lit(_word(rng, sigma, 0, 2)))
        return WordEq(Var(x), rhs), [x, y]
    if kind == 1:  # u X = X v with v a shuffle of u
        u = _word(rng, sigma, 1, 2)
        v = "".join(rng.sample(u, len(u))) if len(u) > 1 else u
        return WordEq(concat(Lit(u), Var(x)), concat(Var(x), Lit(v))), [x]
    if kind == 2:  # straddle X u = v Y
        lhs = concat(Var(x), Lit(_word(rng, sigma, 1, 2)))
        return WordEq(lhs, concat(Lit(_word(rng, sigma, 1, 2)), Var(y))), [x, y]
    if kind == 3:  # ground X u Y = constant
        lhs = concat(Var(x), Lit(_word(rng, sigma, 1, 1)), Var(y))
        return WordEq(lhs, Lit(_word(rng, sigma, 2, 4))), [x, y]
    return WordEq(Var(x), Lit(_word(rng, sigma, 0, 3))), [x]


def random_formula_el(rng: random.Random, sigma: str = "ab") -> Formula:
    parts: list[Formula] = []
    used: list[str] = []
    for _ in range(rng.randint(1, 2)):
        eq, names = _template_equation(rng, sigma)
        parts.append(eq)
        used.extend(names)
    for _ in range(rng.randint(0, 2)):
        v = rng.choice(used)
        if rng.random() < 0.5:
            parts.append(LenLeq(Len(Var(v)), rng.randint(0, 6)))
        else:
            parts.append(LenLeq(sum_of((-1, Len(Var(v)))), -rng.randint(1, 4)))
    return conj(*parts)


def random_formula_elr(rng: random.Random, sigma: str = "ab") -> Formula:
    phi = random_formula_el(rng, sigma)
    v = rng.choice(sorted(free_vars(phi)[0]))
    r = random_regex(rng, sigma, depth=2)
    return conj(phi, InRe(Var(v), r), LenLeq(Len(Var(v)), rng.randint(2, 8)))


def differential(rng: random.Random, n: int) -> list[Case]:
    """``n`` draws, two ``random_formula_el`` to one ``random_formula_elr``."""
    out = []
    for i in range(n):
        gen = random_formula_elr if i % 3 == 2 else random_formula_el
        out.append(Case(gen.__name__[7:], gen(rng), None))
    return out


def criterion2_draw(rng: random.Random, keep) -> list[Case]:
    """Every formula criterion 2 draws, in order, including the ones it
    regenerates.  ``keep(phi)`` answers whether the test kept a draw
    (solver decided it and the oracle stayed within budget)."""
    out = []
    for gen, target in ((random_formula_el, 300), (random_formula_elr, 150)):
        kept = 0
        while kept < target:
            phi = gen(rng)
            out.append(Case(gen.__name__[7:], phi, None))
            kept += bool(keep(phi))
    return out


# ---------------------------------------------------------------------------
# structured families with answers known by construction
#
# The seed picks, per instance, whether the letters a and b are swapped,
# and the constants of the conjugacy family.  Neither changes the answer,
# and the size knobs alone set how much work an instance takes.  The
# conjuncts keep the order they are built in, because the rewriting order
# follows it.  The negations take no swap either: the letters decide which
# mismatch branch succeeds, and so how many branches the sat variant
# visits.


def _swapper(rng: random.Random):
    if rng.random() < 0.5:
        return lambda w: w
    return lambda w: w.translate(str.maketrans("ab", "ba"))


def _case(family: str, parts: list[Formula], expect: str) -> Case:
    return Case(family, conj(*parts), expect)


def _x(i: int) -> Var:
    return Var(f"X{i}")


def binding_chain(rng: random.Random, n: int, unsat: bool) -> Case:
    """X_i = u X_{i+1} for i < n, u of length 2; the unsat variant caps
    len(X_0) one below the 2n the chain forces."""
    tr = _swapper(rng)
    parts: list[Formula] = [WordEq(_x(i), concat(Lit(tr("ab")), _x(i + 1))) for i in range(n)]
    if unsat:
        parts.append(LenLeq(Len(_x(0)), 2 * n - 1))
    return _case("chain", parts, "unsat" if unsat else "sat")


def straddle_chain(rng: random.Random, k: int) -> Case:
    """X_i aab = baa X_{i+1} for i < k: each equation costs one straddle
    step, and ``to_solved_form``'s default budget is 8 of them."""
    tr = _swapper(rng)
    parts: list[Formula] = [
        WordEq(concat(_x(i), Lit(tr("aab"))), concat(Lit(tr("baa")), _x(i + 1))) for i in range(k)
    ]
    return _case("straddle", parts, "sat")


def conjugacy(rng: random.Random, length: int, conjugate: bool) -> Case:
    """u X = X v for a random u with both letters; v is a rotation of u
    (sat) or u with one adjacent pair ab swapped to ba (same length, not
    a rotation of u, so unsat; should that swap give a rotation, u and v
    become a^h b^(n-h) and a^(h+1) b^(n-h-1) instead)."""
    half = length // 2
    u = "a" + "".join(rng.choice("ab") for _ in range(length - 2)) + "b"
    if conjugate:
        cut = rng.randrange(1, length)
        v = u[cut:] + u[:cut]
    else:
        i = u.index("ab")
        v = u[:i] + "ba" + u[i + 2 :]
        # a one-swap that lands on a rotation would be conjugate after all
        if any(u[c:] + u[:c] == v for c in range(length)):
            v = "a" * (half + 1) + "b" * (length - half - 1)
            u = "a" * half + "b" * (length - half)
    tr = _swapper(rng)
    eq = WordEq(concat(Lit(tr(u)), Var("X")), concat(Var("X"), Lit(tr(v))))
    return _case("conjugacy", [eq], "sat" if conjugate else "unsat")


def negations(k: int, unsat: bool) -> Case:
    """Y = ab, and for i < k: X_i = w, not(X_i Y = Y X_i).  With w = ab
    every negation is false, so all 4^k negation branches are refuted
    (unsat); with w = a each one holds (sat)."""
    y = Var("Y")
    parts: list[Formula] = [WordEq(y, Lit("ab"))]
    for i in range(k):
        parts.append(WordEq(_x(i), Lit("ab" if unsat else "a")))
        parts.append(Not(WordEq(concat(_x(i), y), concat(y, _x(i)))))
    return _case("negations", parts, "unsat" if unsat else "sat")


def _len_eq(term, c: int) -> list[Formula]:
    return [LenLeq(term, c), LenLeq(sum_of((-1, term)), -c)]


def frobenius(targets: tuple[int, ...]) -> Case:
    """One component 6|A_j| + 10|B_j| + 15|C_j| = c_j per target.  29 is
    the Frobenius number of 6, 10 and 15, so c = 29 has no solution and
    c = 31 has one only after branching; any 29 makes the system unsat."""
    parts: list[Formula] = []
    for j, c in enumerate(targets):
        term = sum_of((6, Len(Var(f"A{j}"))), (10, Len(Var(f"B{j}"))), (15, Len(Var(f"C{j}"))))
        parts.extend(_len_eq(term, c))
    return _case("frobenius", parts, "unsat" if 29 in targets else "sat")


def _residue_regex(tr, k: int, residues: range) -> Regex:
    """(ab)^i a with i mod k in ``residues``, one union branch per residue."""
    period = re_star(re_lit(tr("ab" * k)))
    a = re_lit(tr("a"))
    return re_alt(*[re_seq(re_lit(tr("ab" * r)), period, a) if r else re_seq(period, a) for r in residues])


MEMBERSHIP_REGEXES = {
    # Each pair only says X_j = (ab)^i a; the unions split i into residue
    # boxes whose product over the X_j gives the solver many LIA calls.
    "mod2-mod3": lambda tr: (_residue_regex(tr, 2, range(2)), _residue_regex(tr, 3, range(3))),
    "star-mod2": lambda tr: (re_seq(re_star(re_lit(tr("ab"))), re_lit(tr("a"))), _residue_regex(tr, 2, range(2))),
}


def memberships(rng: random.Random, regexes: str, m: int, unsat: bool) -> Case:
    """X_j with ab X_j = X_j ba (so |X_j| is odd), two memberships each,
    and len(X_0) + ... + len(X_{m-1}) = c.  The sum has the parity of m:
    c = 6m + 1 - (m mod 2) contradicts it, c = 6m + (m mod 2) does not."""
    tr = _swapper(rng)
    parts: list[Formula] = []
    for j in range(m):
        parts.append(WordEq(concat(Lit(tr("ab")), _x(j)), concat(_x(j), Lit(tr("ba")))))
        parts.extend(InRe(_x(j), r) for r in MEMBERSHIP_REGEXES[regexes](tr))
    total = sum_of(*[(1, Len(_x(j))) for j in range(m)])
    parts.extend(_len_eq(total, 6 * m + (1 - m % 2 if unsat else m % 2)))
    return _case(f"membership-{regexes}", parts, "unsat" if unsat else "sat")


# ---------------------------------------------------------------------------
# the two-counter machine zoo of acceptance criterion 6


def zoo():
    """Five small machines with input words: three accept (immediately,
    after counting up and down, after walking the input), one counts up
    forever and one strands itself with a nonzero counter."""
    from wordeq.twocounter import TwoCounterMachine

    return [
        (TwoCounterMachine(
            ("q0", "qf"), ("a",), "q0", frozenset({"qf"}),
            ((("q0", "a", "Z", "Z"), ("qf", "in", "L")),),
        ), ("a",)),
        (TwoCounterMachine(
            ("q0",), ("a",), "q0", frozenset(),
            ((("q0", "a", "Z", "Z"), ("q0", "stor1", "R")),
             (("q0", "a", "b", "Z"), ("q0", "stor1", "R"))),
        ), ("a",)),
        (TwoCounterMachine(
            ("q0", "q1", "qf"), ("0",), "q0", frozenset({"qf"}),
            ((("q0", "0", "Z", "Z"), ("q1", "stor1", "R")),
             (("q1", "0", "b", "Z"), ("qf", "stor1", "L"))),
        ), ("0",)),
        (TwoCounterMachine(
            ("q0", "qf"), ("a", "x"), "q0", frozenset({"qf"}),
            ((("q0", "a", "Z", "Z"), ("q0", "in", "R")),
             (("q0", "x", "Z", "Z"), ("qf", "in", "L"))),
        ), ("a", "x")),
        (TwoCounterMachine(
            ("q0", "q1"), ("a",), "q0", frozenset({"q1"}),
            ((("q0", "a", "Z", "Z"), ("q1", "stor2", "R")),),
        ), ("a",)),
    ]
