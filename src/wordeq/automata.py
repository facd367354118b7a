"""Finite automata over the problem alphabet, and the two abstractions the
solver extracts from them: length sets and parameter-residue constraints.

A ``Dfa`` is always total (every state has a successor on every letter) and
epsilon-free, so complement is a flip of the accepting set.  A length set
is a finite union of pairwise disjoint arithmetic progressions, a
``frozenset`` of ``Prog``: the progressions of the orbit of the state sets
reached by each word length.  A membership box gives each parameter one
progression.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import count
from math import gcd
from typing import Callable, TypeVar

from .errors import LetterOutsideAlphabet, UnfixedPartPresent
from .paramwords import Blocks, Const, Power, Unfixed
from .terms import (
    Regex,
    ReConcat,
    ReEpsilon,
    ReLit,
    ReStar,
    ReUnion,
    re_alt,
    re_seq,
    re_star,
    record,
    regex_letters,
    setfield,
)

T = TypeVar("T")

# ---------------------------------------------------------------------------
# machines


@record
class Dfa:
    """Total deterministic automaton; transitions[q][i] follows alphabet[i]."""

    def __init__(
        self,
        alphabet: str,
        transitions: tuple[tuple[int, ...], ...],
        initial: int,
        accepting: frozenset[int],
    ) -> None:
        if len(set(alphabet)) != len(alphabet):
            raise ValueError(f"alphabet letters must be distinct: {alphabet!r}")
        for row in transitions:
            if len(row) != len(alphabet):
                raise ValueError(
                    f"a transition row has {len(row)} entries for {len(alphabet)} letters"
                )
        setfield(self, "alphabet", alphabet)
        setfield(self, "transitions", transitions)
        setfield(self, "initial", initial)
        setfield(self, "accepting", accepting)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {ch: i for i, ch in enumerate(self.alphabet)}

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    def walk(self, state: int, word: str) -> int:
        idx = self._index
        trans = self.transitions
        for ch in word:
            state = trans[state][idx[ch]]
        return state

    def accepts(self, word: str) -> bool:
        if any(ch not in self._index for ch in word):
            return False
        return self.walk(self.initial, word) in self.accepting


# ---------------------------------------------------------------------------
# regex compilation


@lru_cache(maxsize=4096)
def regex_to_dfa(r: Regex, alphabet: str) -> Dfa:
    """Thompson construction, then the subset construction.

    The Thompson fragments write their edges straight into the two maps
    the subset construction reads: the epsilon successors of a state, and
    the one letter edge a state may have.  The empty subset acts as the
    (total) dead state.
    """
    extra = regex_letters(r) - set(alphabet)
    if extra:
        raise LetterOutsideAlphabet(
            f"regex uses letters outside the alphabet: {sorted(extra)}"
        )
    eps: dict[int, list[int]] = {}
    letter_edge: dict[tuple[int, str], int] = {}
    new_state = count().__next__

    def link(a: int, b: int) -> None:
        eps.setdefault(a, []).append(b)

    def build(node: Regex) -> tuple[int, int]:
        """The fragment's (entry, exit) states."""
        if isinstance(node, ReLit):
            a = cur = new_state()
            for ch in node.word:
                nxt = new_state()
                letter_edge[cur, ch] = nxt
                cur = nxt
            return a, cur
        if isinstance(node, ReConcat):
            entry, cur = build(node.parts[0])
            for p in node.parts[1:]:
                pin, pout = build(p)
                link(cur, pin)
                cur = pout
            return entry, cur
        a, b = new_state(), new_state()
        if isinstance(node, ReEpsilon):
            link(a, b)
        elif isinstance(node, ReUnion):
            for p in node.parts:
                pin, pout = build(p)
                link(a, pin)
                link(pout, b)
        else:
            assert isinstance(node, ReStar)
            pin, pout = build(node.inner)
            for s, t in ((a, b), (a, pin), (pout, pin), (pout, b)):
                link(s, t)
        return a, b

    entry, exit_ = build(r)

    def closure(states: set[int]) -> frozenset[int]:
        stack = list(states)
        while stack:
            for t in eps.get(stack.pop(), ()):
                if t not in states:
                    states.add(t)
                    stack.append(t)
        return frozenset(states)

    order = [closure({entry})]
    ids = {order[0]: 0}
    rows: list[tuple[int, ...]] = []
    for subset in order:  # grows as new subsets are found
        row = []
        for ch in alphabet:
            tgt = closure({letter_edge[s, ch] for s in subset if (s, ch) in letter_edge})
            if tgt not in ids:
                ids[tgt] = len(order)
                order.append(tgt)
            row.append(ids[tgt])
        rows.append(tuple(row))
    accepting = frozenset(i for i, s in enumerate(order) if exit_ in s)
    return Dfa(alphabet, tuple(rows), 0, accepting)


def regex_match(r: Regex, word: str) -> bool:
    """Membership through the compiled automaton."""
    sigma = "".join(sorted(regex_letters(r) | set(word)))
    return regex_to_dfa(r, sigma).accepts(word)


# ---------------------------------------------------------------------------
# boolean operations


def dfa_complement(d: Dfa) -> Dfa:
    return Dfa(
        alphabet=d.alphabet,
        transitions=d.transitions,
        initial=d.initial,
        accepting=frozenset(range(d.n_states)) - d.accepting,
    )


# ---------------------------------------------------------------------------
# automaton back to an expression (used for complementing regexes)


def dfa_to_regex(d: Dfa) -> Regex | None:
    """State elimination.  Returns None when the language is empty."""
    n = d.n_states
    start, end = n, n + 1
    edges: dict[tuple[int, int], Regex] = {}

    def add(i: int, j: int, r: Regex) -> None:
        cur = edges.get((i, j))
        edges[(i, j)] = r if cur is None else re_alt(cur, r)

    for q in range(n):
        for k, ch in enumerate(d.alphabet):
            add(q, d.transitions[q][k], ReLit(ch))
    add(start, d.initial, ReEpsilon())
    for q in d.accepting:
        add(q, end, ReEpsilon())

    for k in range(n):
        loop = edges.pop((k, k), None)
        loop_star = re_star(loop) if loop is not None else ReEpsilon()
        incoming = [(i, r) for (i, j), r in edges.items() if j == k and i != k]
        outgoing = [(j, r) for (i, j), r in edges.items() if i == k and j != k]
        for (i, _) in incoming:
            edges.pop((i, k))
        for (j, _) in outgoing:
            edges.pop((k, j))
        for i, rin in incoming:
            for j, rout in outgoing:
                add(i, j, re_seq(rin, loop_star, rout))
    return edges.get((start, end))


# ---------------------------------------------------------------------------
# progressions and length sets

# An arithmetic progression over the naturals as (offset, period); period
# 0 denotes the singleton {offset}.
Prog = tuple[int, int]


def prog_member(n: int, prog: Prog) -> bool:
    o, p = prog
    if p == 0:
        return n == o
    return n >= o and (n - o) % p == 0


def upset_member(s: frozenset[Prog], n: int) -> bool:
    return any(prog_member(n, prog) for prog in s)


def prog_intersect(a: Prog, b: Prog) -> Prog | None:
    """The progression of the numbers in both, or None when there are none."""
    o1, p1 = a
    o2, p2 = b
    if p1 == 0:
        return a if prog_member(o1, b) else None
    if p2 == 0:
        return b if prog_member(o2, a) else None
    g = gcd(p1, p2)
    if (o2 - o1) % g != 0:
        return None
    lcm = p1 // g * p2
    # Chinese remainder for x = o1 (mod p1), x = o2 (mod p2)
    t = ((o2 - o1) // g * pow(p1 // g, -1, p2 // g)) % (p2 // g)
    x0 = o1 + p1 * t
    lo = max(o1, o2)
    if x0 < lo:
        x0 += ((lo - x0 + lcm - 1) // lcm) * lcm
    return (x0, lcm)


def _orbit(start: T, step: Callable[[T], T]) -> list[tuple[T, Prog]]:
    """The orbit of ``start`` under ``step``, which must be eventually
    periodic: each element, in order, with the progression of the step
    counts that reach it -- (k, 0) before the cycle, (k, period) on it."""
    seq = [start]
    first = {start: 0}
    while (nxt := step(seq[-1])) not in first:
        first[nxt] = len(seq)
        seq.append(nxt)
    mu = first[nxt]
    period = len(seq) - mu
    return [(x, (k, period if k >= mu else 0)) for k, x in enumerate(seq)]


def length_set(d: Dfa) -> frozenset[Prog]:
    """Lengths of accepted words, as a union of progressions.

    Follows the set of states reachable by words of each exact length; the
    sequence of those sets is eventually periodic, and acceptance at a
    length only depends on the set.  The length set is the progressions of
    that orbit whose set has an accepting state: singletons before the
    cycle, one residue class per cycle position, so no two of them share
    a length.
    """
    letters = range(len(d.alphabet))

    def image(states: frozenset[int]) -> frozenset[int]:
        return frozenset(d.transitions[q][k] for q in states for k in letters)

    orbit = _orbit(frozenset({d.initial}), image)
    return frozenset(prog for states, prog in orbit if states & d.accepting)


# ---------------------------------------------------------------------------
# parametric-word membership


def param_membership(w: Blocks, d: Dfa) -> list[dict[str, Prog]]:
    """Exact membership constraints for a parametric word in a regular set.

    Walks the blocks of ``w`` over the automaton.  A power block maps the
    current state through repeated applications of its base word; that
    state orbit is eventually periodic, so the exponents split into
    finitely many residue classes, one progression each.  Each returned
    box maps every parameter of ``w`` to a progression; the word is
    accepted under a parameter valuation iff the valuation lies inside
    some box.  Repeated parameters are handled by intersecting the
    per-occurrence classes.  A power only splits a box along its orbit's
    classes, which share no exponent, so no valuation lies in two boxes.
    """
    for b in w:
        if isinstance(b, Unfixed):
            raise UnfixedPartPresent("membership is undefined for unfixed parts")
        letters = b.word if isinstance(b, Const) else b.base
        extra = set(letters) - set(d.alphabet)
        if extra:
            raise LetterOutsideAlphabet(
                f"parametric word uses letters outside the alphabet: {sorted(extra)}"
            )

    branches: list[tuple[int, dict[str, Prog]]] = [(d.initial, {})]
    for b in w:
        if isinstance(b, Const):
            branches = [(d.walk(q, b.word), cons) for q, cons in branches]
            continue
        assert isinstance(b, Power)
        new_branches: list[tuple[int, dict[str, Prog]]] = []
        for q, cons in branches:
            for state, prog in _orbit(q, lambda s: d.walk(s, b.base)):
                if b.param in cons:
                    prog = prog_intersect(cons[b.param], prog)
                    if prog is None:
                        continue
                new_branches.append((state, {**cons, b.param: prog}))
        branches = new_branches

    return [cons for q, cons in branches if q in d.accepting]
