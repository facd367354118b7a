"""Two-counter machines and their reduction to universally quantified
word-equation sentences.

A machine has a read-only input head (clamped at both ends of the input)
and two counters.  A transition row is keyed by the current state, the
letter under the head, and the zero-tests of both counters; it names the
successor state, which track to move (``in`` for the head, ``stor1`` /
``stor2`` for the counters), and the direction (on a counter, ``R`` means
increment and ``L`` decrement, clamped at zero).

A run accepts when it reaches a final state with the head back on the
first letter and both counters zero; that check happens before any rule
lookup.  Runs are deterministic, so a revisited configuration means the
machine loops forever.

``encode`` turns a machine plus input word into a prenex sentence
``forall S exists S1..S4 U V . body`` over word equations whose
counterexamples (values of S for which no witness exists) are exactly the
encodings of accepting runs.  Each configuration becomes one composite
letter (state and head position) followed by unary counter words ``b^i
c^j``; the body is a disjunction of defect patterns: bad start, bad end,
malformed counter blocks, and step violations.

The bounded validity check compiles the body and searches for witnesses
under one work ``Budget`` per call: each step of the body walk
(``propagate``), each prefix of the walk over the universal's values,
each witness-search call and each way it matches an equation against a
ground word (``twocounter``) draws one unit, and running out raises
ResourceExhausted.  The walk over the universal's values tests a new
prefix only against the patterns that can end at its last letter.
"""

from __future__ import annotations

import string
from functools import cached_property
from typing import Iterator, Sequence

from .errors import Budget, NondeterministicDelta, WordeqError
from .normalize import walk_product
from .paramwords import Blocks, Const, Unfixed, const_blocks, substitute
from .propagate import Eq as _Eq, conjuncts
from .solved_form import _drawn_matches, ground_word
from .terms import (
    And,
    Formula,
    Lit,
    NameGen,
    Not,
    Or,
    StrTerm,
    Var,
    WordEq,
    concat,
    conj,
    disj,
    record,
    setfield,
)


class EncodingCapExceeded(WordeqError):
    """The machine is too large for the sentence encoding."""


class MalformedMachine(WordeqError):
    """A machine, a configuration or an input word is not well formed.
    ``at`` is the header name or the rule key of a machine that failed,
    when the failure is in one of them."""

    def __init__(self, message: str, at: str | tuple[str, ...] | None = None) -> None:
        super().__init__(message)
        self.at = at


def _check(ok: bool, message: str, at: str | tuple[str, ...] | None = None) -> None:
    if not ok:
        raise MalformedMachine(message, at)


TRACKS = ("in", "stor1", "stor2")
MOVES = ("L", "R")

DeltaKey = tuple[str, str, str, str]  # state, letter, counter-1 tag, counter-2 tag
DeltaVal = tuple[str, str, str]  # next state, track, move


@record
class TwoCounterMachine:
    def __init__(
        self,
        states: tuple[str, ...],
        input_alphabet: tuple[str, ...],
        initial: str,
        finals: frozenset[str],
        rules: tuple[tuple[DeltaKey, DeltaVal], ...],
    ) -> None:
        _check(
            len(set(states)) == len(states) > 0,
            "states must be distinct and nonempty",
            "states",
        )
        _check(
            len(set(input_alphabet)) == len(input_alphabet) > 0,
            "input letters must be distinct and nonempty",
            "input-alphabet",
        )
        _check("end" not in input_alphabet, "'end' is reserved", "input-alphabet")
        _check(initial in states, f"initial state {initial!r} is not declared", "initial")
        _check(finals <= set(states), "final states must be declared", "final")
        seen: set[DeltaKey] = set()
        letters = set(input_alphabet) | {"end"}
        for (q, a, t1, t2), (q2, track, move) in rules:
            key = (q, a, t1, t2)
            if key in seen:
                raise NondeterministicDelta(f"duplicate rule for {key}")
            seen.add(key)
            _check(q in states and q2 in states, f"rule for {key} uses an undeclared state", key)
            _check(a in letters, f"rule letter {a!r} is not in the input alphabet", key)
            _check(t1 in ("Z", "b") and t2 in ("Z", "c"), "zero-test tags are Z|b and Z|c", key)
            _check(
                track in TRACKS and move in MOVES, "rule actions are in|stor1|stor2 and L|R", key
            )
        setfield(self, "states", states)
        setfield(self, "input_alphabet", input_alphabet)
        setfield(self, "initial", initial)
        setfield(self, "finals", finals)
        setfield(self, "rules", rules)

    def __hash__(self) -> int:
        return hash((self.states, self.input_alphabet, self.initial, self.finals, self.rules))

    @cached_property
    def delta(self) -> dict[DeltaKey, DeltaVal]:
        return dict(self.rules)


@record
class MachineId:
    """One configuration: state, head position, and both counter values."""

    def __init__(self, state: str, head: int, counter1: int, counter2: int) -> None:
        _check(
            head >= 0 and counter1 >= 0 and counter2 >= 0,
            "head position and counters must be nonnegative",
        )
        setfield(self, "state", state)
        setfield(self, "head", head)
        setfield(self, "counter1", counter1)
        setfield(self, "counter2", counter2)

    def __hash__(self) -> int:
        return hash((self.state, self.head, self.counter1, self.counter2))


@record
class Accepted:
    def __init__(self, steps: int, history: tuple[MachineId, ...]) -> None:
        setfield(self, "steps", steps)
        setfield(self, "history", history)

    def __hash__(self) -> int:
        return hash((self.steps, self.history))


@record
class Rejected:
    def __init__(self, steps: int, reason: str) -> None:
        setfield(self, "steps", steps)
        setfield(self, "reason", reason)

    def __hash__(self) -> int:
        return hash((self.steps, self.reason))


@record
class StillRunning:
    def __init__(self, steps: int) -> None:
        setfield(self, "steps", steps)

    def __hash__(self) -> int:
        return hash((self.steps,))


def _check_input(m: TwoCounterMachine, w: tuple[str, ...]) -> None:
    _check(len(w) >= 1, "the input word must be nonempty")
    _check(all(a in m.input_alphabet for a in w), "the input word is not over the input alphabet")


def simulate(
    m: TwoCounterMachine,
    word: tuple[str, ...] | list[str],
    max_steps: int = 10_000,
) -> Accepted | Rejected | StillRunning:
    """Run the machine on a nonempty input word."""
    w = tuple(word)
    _check_input(m, w)
    config = MachineId(m.initial, 0, 0, 0)
    seen = {config}
    history = [config]
    for step in range(max_steps):
        if (
            config.state in m.finals
            and config.head == 0
            and config.counter1 == 0
            and config.counter2 == 0
        ):
            return Accepted(steps=step, history=tuple(history))
        key = (
            config.state,
            w[config.head],
            "b" if config.counter1 > 0 else "Z",
            "c" if config.counter2 > 0 else "Z",
        )
        row = m.delta.get(key)
        if row is None:
            return Rejected(steps=step, reason=f"no rule for {key}")
        q2, track, move = row
        d = 1 if move == "R" else -1
        h, c1, c2 = config.head, config.counter1, config.counter2
        if track == "in":
            h = min(max(h + d, 0), len(w) - 1)
        elif track == "stor1":
            c1 = max(c1 + d, 0)
        else:
            c2 = max(c2 + d, 0)
        config = MachineId(q2, h, c1, c2)
        if config in seen:
            return Rejected(steps=step + 1, reason="revisited configuration")
        seen.add(config)
        history.append(config)
    return StillRunning(steps=max_steps)


# ---------------------------------------------------------------------------
# configuration letters

# Counter words use 'b' and 'c', so configuration letters must avoid both.
_LETTER_POOL = "".join(
    ch for ch in string.digits + string.ascii_uppercase + string.ascii_lowercase
    if ch not in "bc"
)


def id_letters(
    m: TwoCounterMachine, word_len: int
) -> tuple[dict[tuple[str, int], str], tuple[tuple[str, str, int], ...]]:
    """Assign one letter per (state, head position) pair, plus a legend."""
    _check(word_len >= 1, "the input word must be nonempty")
    pairs = [(q, h) for q in m.states for h in range(word_len)]
    if len(pairs) > len(_LETTER_POOL):
        raise EncodingCapExceeded(
            f"{len(pairs)} configuration letters exceed the pool of {len(_LETTER_POOL)}"
        )
    mapping = {pair: _LETTER_POOL[i] for i, pair in enumerate(pairs)}
    legend = tuple((mapping[(q, h)], q, h) for (q, h) in pairs)
    return mapping, legend


def encode_history(
    m: TwoCounterMachine, word: tuple[str, ...] | list[str], history: Sequence[MachineId]
) -> str:
    """Encode a run as one configuration letter plus unary counters per step."""
    w = tuple(word)
    mapping, _ = id_letters(m, len(w))
    out = []
    for c in history:
        _check(c.head < len(w), f"head position {c.head} is past the input word")
        out.append(mapping[(c.state, c.head)] + "b" * c.counter1 + "c" * c.counter2)
    return "".join(out)


# ---------------------------------------------------------------------------
# the sentence


@record
class Sentence:
    """Prenex sentence: for all universals, there exist existentials with body."""

    def __init__(
        self,
        universals: tuple[str, ...],
        existentials: tuple[str, ...],
        body: Formula,
        alphabet: str,
        legend: tuple[tuple[str, str, int], ...],
    ) -> None:
        setfield(self, "universals", universals)
        setfield(self, "existentials", existentials)
        setfield(self, "body", body)
        setfield(self, "alphabet", alphabet)
        setfield(self, "legend", legend)

    def __hash__(self) -> int:
        return hash((self.universals, self.existentials, self.body, self.alphabet, self.legend))


def _clamp(x: int, lo: int, hi: int) -> int:
    return min(max(x, lo), hi)


def encode(m: TwoCounterMachine, word: tuple[str, ...] | list[str]) -> Sentence:
    """Build the sentence whose counterexamples are the accepting run encodings.

    The body is a disjunction of defect clauses over the universal S.  A string
    S admits no witness exactly when it spells out, block by block, the
    machine's accepting run on ``word``: first block is the initial
    configuration with zero counters, consecutive blocks are related by the
    transition rules, and the final block is an accepting configuration.
    """
    w = tuple(word)
    _check_input(m, w)
    n = len(w)
    mapping, legend = id_letters(m, n)
    sigma0 = [mapping[(q, h)] for q in m.states for h in range(n)]
    alphabet = "".join(sigma0) + "bc"

    S, S1, S2, S3, S4 = Var("S"), Var("S1"), Var("S2"), Var("S3"), Var("S4")
    U, V = Var("U"), Var("V")
    b, c = Lit("b"), Lit("c")
    init = mapping[(m.initial, 0)]
    finals0 = {mapping[(q, 0)] for q in m.finals}

    # Bad start: S empty, wrong first letter, or nonzero initial counters.
    bad_start: list[Formula] = [WordEq(S, Lit(""))]
    bad_start += [
        WordEq(S, concat(Lit(e), S1)) for e in alphabet if e != init
    ]
    bad_start += [WordEq(S, concat(Lit(init), b, S1)), WordEq(S, concat(Lit(init), c, S1))]

    # Bad end: the last letter must be an accepting configuration letter
    # (a trailing b/c means nonzero counters, a non-final letter a bad state
    # or a head away from the left end).
    bad_end: list[Formula] = [WordEq(S, Lit(""))]
    bad_end += [WordEq(S, concat(S1, Lit(e))) for e in alphabet if e not in finals0]

    # Malformed counter block: a 'b' may never follow a 'c'.
    bad_block = disj(WordEq(S, Lit("")), WordEq(S, concat(S1, c, b, S4)))

    # Step defects.  For every configuration context (state, head, zero-tests)
    # anchor the current block as letter + b-run + c-run; U and V stand for
    # the tails of those runs and are forced into b* / c* by the commutation
    # equations conjoined below.
    violations: list[Formula] = []
    for q in m.states:
        for h in range(n):
            for g1 in (False, True):
                for g2 in (False, True):
                    cur = mapping[(q, h)]
                    pat: list[StrTerm] = [Lit(cur)]
                    if g1:
                        pat += [b, U]
                    if g2:
                        pat += [c, V]
                    row = m.delta.get((q, w[h], "b" if g1 else "Z", "c" if g2 else "Z"))
                    if row is None:
                        # Stuck context: any further block is a defect.
                        violations += [
                            WordEq(S, concat(S1, *pat, Lit(s), S4)) for s in sigma0
                        ]
                        continue
                    q3, track, move = row
                    d = 1 if move == "R" else -1
                    h2 = _clamp(h + d, 0, n - 1) if track == "in" else h
                    nxt = Lit(mapping[(q3, h2)])
                    # Expected counter words of the successor block.
                    if track == "stor1":
                        run1 = ([b, b, U] if g1 else [b]) if move == "R" else ([U] if g1 else [])
                    else:
                        run1 = [b, U] if g1 else []
                    if track == "stor2":
                        run2 = ([c, c, V] if g2 else [c]) if move == "R" else ([V] if g2 else [])
                    else:
                        run2 = [c, V] if g2 else []
                    # Wrong successor letter.
                    violations.append(
                        conj(
                            disj(*[WordEq(S2, Lit(s)) for s in sigma0]),
                            WordEq(S, concat(S1, *pat, S2, S4)),
                            Not(WordEq(S2, nxt)),
                        )
                    )
                    # b-run too long / too short.
                    violations.append(WordEq(S, concat(S1, *pat, nxt, *run1, b, S4)))
                    if run1:
                        violations.append(
                            conj(
                                WordEq(concat(*run1), concat(S2, b, S3)),
                                disj(
                                    WordEq(S, concat(S1, *pat, nxt, S2, c, S4)),
                                    *[
                                        WordEq(S, concat(S1, *pat, nxt, S2, Lit(s), S4))
                                        for s in sigma0
                                    ],
                                    WordEq(S, concat(S1, *pat, nxt, S2)),
                                ),
                            )
                        )
                    # c-run too long / too short (after an exact b-run).
                    violations.append(
                        WordEq(S, concat(S1, *pat, nxt, *run1, *run2, c, S4))
                    )
                    if run2:
                        violations.append(
                            conj(
                                WordEq(concat(*run2), concat(S2, c, S3)),
                                disj(
                                    *[
                                        WordEq(
                                            S, concat(S1, *pat, nxt, *run1, S2, Lit(s), S4)
                                        )
                                        for s in sigma0
                                    ],
                                    WordEq(S, concat(S1, *pat, nxt, *run1, S2)),
                                ),
                            )
                        )

    step_defects = conj(
        disj(*violations),
        WordEq(concat(U, b), concat(b, U)),
        WordEq(concat(V, c), concat(c, V)),
    )
    body = disj(*bad_start, *bad_end, bad_block, step_defects)
    return Sentence(
        universals=("S",),
        existentials=("S1", "S2", "S3", "S4", "U", "V"),
        body=body,
        alphabet=alphabet,
        legend=legend,
    )


# ---------------------------------------------------------------------------
# removing negations


def positivize(s: Sentence) -> Sentence:
    """Replace each negated equation by an equivalent positive disjunction.

    Only negations of the form ``not (X = "u")`` appear; each becomes its
    complement over all words: X is a proper prefix of u, or differs from
    u at some position, or properly extends u.  The bounded check holds
    witnesses to the universal's length but not an option's fixed word,
    so the counterexamples up to a bound are kept only when every negated
    existential is a piece of ``S``, as in ``encode``'s sentences.  Each
    negation's trailing free piece is its own fresh existential, appended
    to the existential block; none is drawn when the alphabet is empty.

    Over the empty alphabet, ``not (X = "")`` has no option: it is false.
    An Or drops it and an And that holds it is false; when that makes the
    whole body false, no positive body can say so, and ``ValueError`` is
    raised.
    """
    extra: list[str] = []
    gen = NameGen(s.universals + s.existentials)

    def complement(eq: WordEq) -> Formula | None:
        lhs, rhs = eq.lhs, eq.rhs
        if isinstance(rhs, Var) and isinstance(lhs, Lit):
            lhs, rhs = rhs, lhs
        if not (isinstance(lhs, Var) and isinstance(rhs, Lit)):
            raise ValueError('only negations of the form not (X = "u") are supported')
        u = rhs.word
        options: list[Formula] = [WordEq(lhs, Lit(u[:k])) for k in range(len(u))]
        if s.alphabet:
            extra.append(gen.fresh("H"))
            h = Var(extra[-1])
            for k in range(len(u)):
                options += [
                    WordEq(lhs, concat(Lit(u[:k] + a), h))
                    for a in s.alphabet
                    if a != u[k]
                ]
            options += [WordEq(lhs, concat(Lit(u + a), h)) for a in s.alphabet]
        return disj(*options) if options else None

    def rewrite(phi: Formula) -> Formula | None:
        """The positive form of ``phi``, or None when it is false."""
        if isinstance(phi, WordEq):
            return phi
        if isinstance(phi, Not):
            if not isinstance(phi.inner, WordEq):
                raise ValueError('only negations of the form not (X = "u") are supported')
            return complement(phi.inner)
        if not isinstance(phi, (And, Or)):
            raise ValueError("sentence bodies hold equations only")
        parts = [rewrite(p) for p in phi.parts]
        kept = tuple(p for p in parts if p is not None)
        if len(kept) == len(parts):
            return type(phi)(kept)
        if isinstance(phi, And) or not kept:
            return None
        return disj(*kept)

    new_body = rewrite(s.body)
    if new_body is None:
        raise ValueError("the body is false: it has no positive form")
    if new_body == s.body:
        return s
    return Sentence(
        universals=s.universals,
        existentials=s.existentials + tuple(extra),
        body=new_body,
        alphabet=s.alphabet,
        legend=s.legend,
    )


# ---------------------------------------------------------------------------
# bounded validity


@record
class Counterexample:
    def __init__(self, word: str) -> None:
        setfield(self, "word", word)

    def __hash__(self) -> int:
        return hash((self.word,))


@record
class NoCounterexampleUpTo:
    def __init__(self, max_len: int) -> None:
        setfield(self, "max_len", max_len)

    def __hash__(self) -> int:
        return hash((self.max_len,))


# The constants c0, ..., ck of a linear pattern c0 X1 c1 ... Xk ck, where
# the Xi are distinct existentials; one constant means no variable.
_Linear = tuple[str, ...]


@record
class _Body:
    """A sentence body in disjunctive normal form, its conjuncts split by
    how a value of the universal is tested against them.

    Fixed existentials are propagated when the body is compiled
    (``propagate.conjuncts``): a conjunct with a clash is gone, and the
    words of the fixed existentials are put into the rest.  A conjunct
    left with no equation is witnessed by every word, as the closed
    pattern ``S = X``.

    A linear conjunct is one positive equation ``S = c0 X1 c1 ... Xk ck``
    once propagated, and it is matched as a string.  It has a witness
    exactly when the word matches the pattern.  The pattern's variables
    take pieces of the word, so they are within the bound; the fixed
    existentials take their fixed words, which the witness search does
    not hold to the bound either.  A pattern that ends in a variable
    (``closed``) matches every extension of a word it matches.  The other
    conjuncts (``generic``) go to the witness search, each once.
    Unhashable, as its conjunct lists are lists.
    """

    def __init__(
        self,
        universal: str,
        closed: list[_Linear],
        anchored: list[_Linear],
        generic: list[tuple[_Eq, ...]],
    ) -> None:
        setfield(self, "universal", universal)
        setfield(self, "closed", closed)
        setfield(self, "anchored", anchored)
        setfield(self, "generic", generic)


def _iter_words(alphabet: str, max_len: int) -> Iterator[str]:
    """All words up to a length, shortest first, letters in alphabet order."""
    from itertools import product

    for ln in range(max_len + 1):
        for tup in product(alphabet, repeat=ln):
            yield "".join(tup)


def _conjunct_sat(
    eqs: Sequence[_Eq], env: dict[str, Blocks], alphabet: str, bound: int, budget: Budget
) -> bool:
    """Does some assignment of words of length <= bound satisfy the conjunct
    with the words of ``env`` put in?  A deeper call gets equations that
    hold every earlier word already, and only the words it adds.  Each
    call and each ground match draws one unit from ``budget``."""
    budget.draw(1, "twocounter")
    pending: list[_Eq] = []
    for lhs, rhs, positive in eqs:
        ls, rs = substitute(lhs, env), substitute(rhs, env)
        lg, rg = ground_word(ls), ground_word(rs)
        if lg is not None and rg is not None:
            if (lg == rg) != positive:
                return False
            continue
        pending.append((ls, rs, positive))
    if not pending:
        return True
    # Solve a positive equation with one constant side by pattern matching.
    for i, (lhs, rhs, positive) in enumerate(pending):
        if not positive:
            continue
        for pattern, target in ((lhs, ground_word(rhs)), (rhs, ground_word(lhs))):
            if target is None:
                continue
            rest = pending[:i] + pending[i + 1 :]
            for venv, penv in _drawn_matches(pattern, target, budget, "twocounter"):
                if penv:
                    raise AssertionError("a sentence equation matched with power parameters")
                words = {name: const_blocks(w) for name, w in venv.items()}
                if _conjunct_sat(rest, words, alphabet, bound, budget):
                    return True
            return False
    # No equation has a constant side: enumerate the first unbound variable.
    names: list[str] = []
    for lhs, rhs, _ in pending:
        for it in lhs + rhs:
            if isinstance(it, Unfixed) and it.part not in names:
                names.append(it.part)
    # Identical sides can never be told apart, so a lone negation on them fails.
    if all(not positive and lhs == rhs for lhs, rhs, positive in pending):
        return False
    name = names[0]
    for word in _iter_words(alphabet, bound):
        if _conjunct_sat(pending, {name: const_blocks(word)}, alphabet, bound, budget):
            return True
    return False


def _linear(eq: _Eq, universal: str) -> _Linear | None:
    """The constants of ``S = c0 X1 c1 ... Xk ck``, or None when the
    equation is not of that form."""
    lhs, rhs, positive = eq
    alone = (Unfixed(universal),)
    if rhs == alone:
        lhs, rhs = rhs, lhs
    if not positive or lhs != alone:
        return None
    parts = [""]
    seen: set[str] = set()
    for it in rhs:
        if isinstance(it, Const):
            parts[-1] += it.word
            continue
        if not isinstance(it, Unfixed) or it.part == universal or it.part in seen:
            return None
        seen.add(it.part)
        # Adjacent variables match what one variable matches.
        if len(parts) == 1 or parts[-1]:
            parts.append("")
    return tuple(parts)


def _matches(pattern: _Linear, word: str) -> bool:
    """Does the word match the linear pattern?  Each variable occurs once,
    so the leftmost place of each inner constant is as good as any."""
    if len(pattern) == 1:
        return word == pattern[0]
    if not word.startswith(pattern[0]):
        return False
    pos = len(pattern[0])
    for piece in pattern[1:-1]:
        pos = word.find(piece, pos)
        if pos < 0:
            return False
        pos += len(piece)
    return word.endswith(pattern[-1], pos)


def _compiled_body(s: Sentence, budget: Budget) -> _Body:
    if len(s.universals) != 1:
        raise ValueError("one universal variable is supported")
    universal = s.universals[0]
    closed: list[_Linear] = []
    anchored: list[_Linear] = []
    generic: list[tuple[_Eq, ...]] = []
    for eqs in conjuncts(s.body, universal, budget):
        pattern = _linear(eqs[0], universal) if len(eqs) == 1 else None
        if not eqs:
            closed.append(("", ""))
        elif pattern is None:
            generic.append(tuple(eqs))
        elif len(pattern) > 1 and pattern[-1] == "":
            closed.append(pattern)
        else:
            anchored.append(pattern)
    return _Body(
        universal,
        list(dict.fromkeys(closed)),
        list(dict.fromkeys(anchored)),
        list(dict.fromkeys(generic)),
    )


def _witnessed(body: _Body, word: str, alphabet: str, budget: Budget) -> bool:
    """Does a conjunct that is not extension-closed have a witness?"""
    if any(_matches(p, word) for p in body.anchored):
        return True
    env = {body.universal: const_blocks(word)}
    return any(
        _conjunct_sat(eqs, env, alphabet, len(word), budget) for eqs in body.generic
    )


def _unpruned(
    closed: list[_Linear], alphabet: str, length: int, budget: Budget
) -> Iterator[str]:
    """The words of one length that have no prefix a closed pattern
    matches, in alphabet order.

    The prefixes are walked depth first and no extension of a matched one
    is visited, so no list of the words of one length is built.  Each
    prefix draws one unit from ``budget``.

    A new prefix is tested only against the closed patterns whose last
    constant ends it.  Its parent matched no closed pattern, so the
    leftmost place of a pattern's last constant in a prefix it matches
    ends at the prefix's last letter: ended earlier, it would have
    matched the parent.  Only ``("", "")`` has an empty last constant,
    and it matches the empty word.
    """
    if any(_matches(p, "") for p in closed):
        return
    ending: dict[str, list[_Linear]] = {}
    for p in closed:
        ending.setdefault(p[-2], []).append(p)
    sizes = {len(last) for last in ending}

    def extend(prefix: str, letter: str) -> str | None:
        budget.draw(1, "twocounter")
        word = prefix + letter
        for size in sizes:
            for p in ending.get(word[-size:], ()):
                if _matches(p, word):
                    return None
        return word

    yield from walk_product([alphabet] * length, extend, "")


def _counterexamples(s: Sentence, max_len: int, limit: int | None) -> list[str]:
    """The words with no witness, shortest first, letters in alphabet order.
    Compiling the body and every witness search draw from one budget."""
    budget = Budget()
    body = _compiled_body(s, budget)
    found: list[str] = []
    for length in range(max_len + 1):
        for word in _unpruned(body.closed, s.alphabet, length, budget):
            if _witnessed(body, word, s.alphabet, budget):
                continue
            found.append(word)
            if limit is not None and len(found) >= limit:
                return found
    return found


def bounded_validity_check(
    s: Sentence, max_len: int
) -> Counterexample | NoCounterexampleUpTo:
    """Search for a universal value of length <= max_len with no witness.

    Witness words for the existential variables are searched up to the
    length of the universal value; in the encoded sentences every witness
    is a piece of it.  Raises ResourceExhausted when the call's work
    budget runs out.
    """
    found = _counterexamples(s, max_len, limit=1)
    if found:
        return Counterexample(found[0])
    return NoCounterexampleUpTo(max_len)


def enumerate_counterexamples(s: Sentence, max_len: int) -> list[str]:
    """All counterexamples up to the length bound, shortest first."""
    return _counterexamples(s, max_len, limit=None)
