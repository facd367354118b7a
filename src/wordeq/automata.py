"""Finite automata over the problem alphabet, and the two abstractions the
solver extracts from them: length sets and parameter-residue constraints.

A ``Dfa`` is always total (every state has a successor on every letter) and
epsilon-free, so complement is a flip of the accepting set.  Length sets are
represented as finite unions of arithmetic progressions (``UPSet``), which
regular languages are closed under.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd

from .errors import LetterOutsideAlphabet, UnfixedPartPresent
from .paramwords import Const, ParamWord, Power, Unfixed
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
    regex_letters,
)

# ---------------------------------------------------------------------------
# machines


@dataclass(frozen=True)
class Nfa:
    """Nondeterministic automaton with epsilon moves (construction device)."""

    alphabet: str
    n_states: int
    initial: int
    accepting: frozenset[int]
    # (state, letter) -> successor states; epsilon edges keyed by ""
    edges: tuple[tuple[int, str, int], ...]


@dataclass(frozen=True)
class Dfa:
    """Total deterministic automaton; transitions[q][i] follows alphabet[i]."""

    alphabet: str
    transitions: tuple[tuple[int, ...], ...]
    initial: int
    accepting: frozenset[int]

    def __post_init__(self) -> None:
        assert len(set(self.alphabet)) == len(self.alphabet)
        for row in self.transitions:
            assert len(row) == len(self.alphabet)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {ch: i for i, ch in enumerate(self.alphabet)}

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    def step(self, state: int, letter: str) -> int:
        return self.transitions[state][self._index[letter]]

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


class _NfaBuilder:
    def __init__(self) -> None:
        self.n = 0
        self.edges: list[tuple[int, str, int]] = []

    def state(self) -> int:
        self.n += 1
        return self.n - 1

    def edge(self, a: int, label: str, b: int) -> None:
        self.edges.append((a, label, b))

    def build(self, r: Regex) -> tuple[int, int]:
        """Thompson construction; returns (entry, exit) states."""
        if isinstance(r, ReEpsilon):
            a, b = self.state(), self.state()
            self.edge(a, "", b)
            return a, b
        if isinstance(r, ReLit):
            a = self.state()
            cur = a
            for ch in r.word:
                nxt = self.state()
                self.edge(cur, ch, nxt)
                cur = nxt
            return a, cur
        if isinstance(r, ReConcat):
            first_in, cur_out = self.build(r.parts[0])
            for p in r.parts[1:]:
                nin, nout = self.build(p)
                self.edge(cur_out, "", nin)
                cur_out = nout
            return first_in, cur_out
        if isinstance(r, ReUnion):
            a, b = self.state(), self.state()
            for p in r.parts:
                pin, pout = self.build(p)
                self.edge(a, "", pin)
                self.edge(pout, "", b)
            return a, b
        assert isinstance(r, ReStar)
        a, b = self.state(), self.state()
        pin, pout = self.build(r.inner)
        self.edge(a, "", b)
        self.edge(a, "", pin)
        self.edge(pout, "", pin)
        self.edge(pout, "", b)
        return a, b


def regex_to_nfa(r: Regex, alphabet: str) -> Nfa:
    extra = regex_letters(r) - set(alphabet)
    if extra:
        raise LetterOutsideAlphabet(
            f"regex uses letters outside the alphabet: {sorted(extra)}"
        )
    builder = _NfaBuilder()
    entry, exit_ = builder.build(r)
    return Nfa(
        alphabet=alphabet,
        n_states=builder.n,
        initial=entry,
        accepting=frozenset({exit_}),
        edges=tuple(builder.edges),
    )


def nfa_to_dfa(nfa: Nfa) -> Dfa:
    """Subset construction.  The empty subset acts as the (total) dead state."""
    eps: dict[int, list[int]] = {}
    by_letter: dict[tuple[int, str], list[int]] = {}
    for a, label, b in nfa.edges:
        if label == "":
            eps.setdefault(a, []).append(b)
        else:
            by_letter.setdefault((a, label), []).append(b)

    def closure(states: frozenset[int]) -> frozenset[int]:
        seen = set(states)
        stack = list(states)
        while stack:
            s = stack.pop()
            for t in eps.get(s, ()):
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return frozenset(seen)

    start = closure(frozenset({nfa.initial}))
    ids: dict[frozenset[int], int] = {start: 0}
    order = [start]
    rows: list[list[int]] = []
    i = 0
    while i < len(order):
        subset = order[i]
        row = []
        for ch in nfa.alphabet:
            nxt: set[int] = set()
            for s in subset:
                nxt.update(by_letter.get((s, ch), ()))
            tgt = closure(frozenset(nxt))
            if tgt not in ids:
                ids[tgt] = len(order)
                order.append(tgt)
            row.append(ids[tgt])
        rows.append(row)
        i += 1
    accepting = frozenset(
        ids[s] for s in order if s & nfa.accepting
    )
    return Dfa(
        alphabet=nfa.alphabet,
        transitions=tuple(tuple(r) for r in rows),
        initial=0,
        accepting=accepting,
    )


@lru_cache(maxsize=4096)
def regex_to_dfa(r: Regex, alphabet: str) -> Dfa:
    return nfa_to_dfa(regex_to_nfa(r, alphabet))


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


def _opt_seq(*parts: Regex | None) -> Regex | None:
    if any(p is None for p in parts):
        return None
    return re_seq(*parts)  # type: ignore[arg-type]


def dfa_to_regex(d: Dfa) -> Regex | None:
    """State elimination.  Returns None when the language is empty."""
    n = d.n_states
    start, end = n, n + 1
    edges: dict[tuple[int, int], Regex] = {}

    def add(i: int, j: int, r: Regex | None) -> None:
        if r is None:
            return
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
                add(i, j, _opt_seq(rin, loop_star, rout))
    return edges.get((start, end))


# ---------------------------------------------------------------------------
# length sets


@dataclass(frozen=True)
class UPSet:
    """Finite union of arithmetic progressions over the naturals.

    Each progression is (offset, period); period 0 denotes the singleton
    {offset}.  The set is normalized: no progression is contained in
    another one.
    """

    progs: frozenset[tuple[int, int]]


def _prog_member(n: int, prog: tuple[int, int]) -> bool:
    o, p = prog
    if p == 0:
        return n == o
    return n >= o and (n - o) % p == 0


def _prog_subsumes(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Does progression a contain every element of progression b?"""
    o1, p1 = a
    o2, p2 = b
    if p2 == 0:
        return _prog_member(o2, a)
    if p1 == 0:
        return False
    return o2 >= o1 and (o2 - o1) % p1 == 0 and p2 % p1 == 0


def upset(pairs) -> UPSet:
    """Normalizing constructor."""
    items = sorted(set((int(o), int(p)) for o, p in pairs))
    kept: list[tuple[int, int]] = []
    for b in items:
        if any(a != b and _prog_subsumes(a, b) for a in items):
            continue
        kept.append(b)
    return UPSet(frozenset(kept))


def upset_member(s: UPSet, n: int) -> bool:
    return any(_prog_member(n, prog) for prog in s.progs)


def upset_is_empty(s: UPSet) -> bool:
    return not s.progs


def _ap_intersect(a: tuple[int, int], b: tuple[int, int]) -> list[tuple[int, int]]:
    o1, p1 = a
    o2, p2 = b
    if p1 == 0 and p2 == 0:
        return [a] if o1 == o2 else []
    if p1 == 0:
        return [a] if _prog_member(o1, b) else []
    if p2 == 0:
        return [b] if _prog_member(o2, a) else []
    g = gcd(p1, p2)
    if (o2 - o1) % g != 0:
        return []
    lcm = p1 // g * p2
    # Chinese remainder for x = o1 (mod p1), x = o2 (mod p2)
    t = ((o2 - o1) // g * pow(p1 // g, -1, p2 // g)) % (p2 // g)
    x0 = o1 + p1 * t
    lo = max(o1, o2)
    if x0 < lo:
        x0 += ((lo - x0 + lcm - 1) // lcm) * lcm
    return [(x0, lcm)]


def upset_intersect(a: UPSet, b: UPSet) -> UPSet:
    out: list[tuple[int, int]] = []
    for pa in a.progs:
        for pb in b.progs:
            out.extend(_ap_intersect(pa, pb))
    return upset(out)


def length_set(d: Dfa) -> UPSet:
    """Lengths of accepted words, as a union of progressions.

    Tracks the set of states reachable by words of each exact length; the
    sequence of those sets is eventually periodic, and acceptance at a
    length only depends on the set, so the length language is a finite
    union of arithmetic progressions.
    """
    current = frozenset({d.initial})
    seen: dict[frozenset[int], int] = {current: 0}
    flags = [bool(current & d.accepting)]
    letters = range(len(d.alphabet))
    step = 0
    while True:
        image = frozenset(
            d.transitions[q][k] for q in current for k in letters
        )
        step += 1
        if image in seen:
            preperiod = seen[image]
            period = step - preperiod
            break
        seen[image] = step
        flags.append(bool(image & d.accepting))
        current = image
    progs: list[tuple[int, int]] = []
    for n in range(preperiod):
        if flags[n]:
            progs.append((n, 0))
    for n in range(preperiod, preperiod + period):
        if flags[n]:
            progs.append((n, period))
    return upset(progs)


# ---------------------------------------------------------------------------
# parametric-word membership


def param_membership(w: ParamWord, d: Dfa) -> list[dict[str, UPSet]]:
    """Exact membership constraints for a parametric word in a regular set.

    Walks the blocks of ``w`` over the automaton.  A power block maps the
    current state through repeated applications of its base word; that
    state orbit is eventually periodic, so the exponents splitting into
    finitely many residue classes cover all cases.  Each returned box maps
    every parameter of ``w`` to a UPSet; the word is accepted under a
    parameter valuation iff the valuation lies inside some box.  Repeated
    parameters are handled by intersecting the per-occurrence classes.
    """
    for b in w.blocks:
        if isinstance(b, Unfixed):
            raise UnfixedPartPresent("membership is undefined for unfixed parts")
        letters = b.word if isinstance(b, Const) else b.base
        extra = set(letters) - set(d.alphabet)
        if extra:
            raise LetterOutsideAlphabet(
                f"parametric word uses letters outside the alphabet: {sorted(extra)}"
            )

    branches: list[tuple[int, dict[str, UPSet]]] = [(d.initial, {})]
    for b in w.blocks:
        if isinstance(b, Const):
            branches = [(d.walk(q, b.word), cons) for q, cons in branches]
            continue
        assert isinstance(b, Power)
        new_branches: list[tuple[int, dict[str, UPSet]]] = []
        for q, cons in branches:
            orbit = [q]
            first: dict[int, int] = {q: 0}
            while True:
                nxt = d.walk(orbit[-1], b.base)
                if nxt in first:
                    mu = first[nxt]
                    lam = len(orbit) - mu
                    break
                first[nxt] = len(orbit)
                orbit.append(nxt)
            classes: list[tuple[int, tuple[int, int]]] = []
            for k in range(mu):
                classes.append((orbit[k], (k, 0)))
            for r in range(lam):
                classes.append((orbit[mu + r], (mu + r, lam)))
            for state, prog in classes:
                constraint = upset([prog])
                if b.param in cons:
                    constraint = upset_intersect(cons[b.param], constraint)
                    if upset_is_empty(constraint):
                        continue
                nc = dict(cons)
                nc[b.param] = constraint
                new_branches.append((state, nc))
        branches = new_branches

    boxes: list[dict[str, UPSet]] = []
    seen_keys: set[tuple] = set()
    for q, cons in branches:
        if q not in d.accepting:
            continue
        key = tuple(sorted((p, tuple(sorted(s.progs))) for p, s in cons.items()))
        if key in seen_keys:
            continue
        seen_keys.add(key)
        boxes.append(cons)
    return boxes
