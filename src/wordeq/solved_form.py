"""Rewriting systems of word equations into solved forms.

A solved form maps every variable to a parametric word built from
constants, integer-parameter powers and unfixed parts.  ``to_solved_form``
returns a finite list of solved forms whose instances are exactly the
solutions of the input system, the ``Unsat`` marker when there are none,
or ``OutOfFragment`` when some branch falls outside the shapes the rules
cover.

Each side of an equation being rewritten is a tuple of parametric-word
blocks (``paramwords``): its unfixed parts are the variables not yet
solved, so a binding is ``paramwords.substitute`` into the pending
equations.  Each pending equation records its variables, parameters and
size, so a binding or parameter map rewrites only the equations that
mention what it binds or maps; the rule scans still visit each equation.
The bindings are kept triangular (Baader & Snyder, *Unification Theory*,
2001): a new binding is not substituted into the earlier ones, so a step
does not cost the size of everything bound so far.  ``_resolve``
composes them once per finished branch into its solved form.

The rules: the first keeps every pending equation simplified, the rest
are tried in this order on every pending equation:

* simplify, where an equation is made or changed: cancel shared end
  items and constant letters, drop trivial equations, refute clashes
* bind: ``X = w`` with ``X`` not in ``w`` binds ``X`` and substitutes
* commute: ``X u = v X`` with constant ``u``, ``v`` solves into
  ``X = v^i p`` for each split ``v = p q`` with ``q p = u``
* straddle: ``X u = v Y`` either pushes ``X`` past ``v`` using one
  shared fresh variable or grounds both sides at each feasible boundary
  inside ``v``; ``u X = Y v`` is the same equation read as ``Y v = u X``
* ground: an all-constant side is matched against the pattern on the
  other side by finite backtracking; an empty side has one match, every
  variable the empty word and every power parameter zero
* peel: a power at the head of a side splits into "zero repetitions"
  and "one repetition unrolled", re-parameterizing globally

Peeling can grow the system, so it draws from a budget of
``GROWTH_BUDGET`` steps per branch; every other step strictly shrinks
the measure (variables, parameters, symbols), checked against the exact
measure of the system it starts from; the measure is summed from the
equations' records.  A straddle is one of them: it
binds two variables and brings in at most one fresh one.  That measure
is taken once per step: the one checked after a step is carried into
the next.  A branch that exhausts its peel budget or meets no applicable
rule is blocked: the other branches still run, and the result is an
``OutOfFragment`` that carries the solved forms they found.

Rewriting resumes from solved forms of other equations
(``to_solved_form(eqs, under=forms)``): each form's bindings seed one
start state, as if its equations had just been rewritten, and only the
new equations are substituted and rewritten.  The start states share
one stack, so the forms, Unsat or blocked reason they lead to make one
result, as branches do.  A rewrite from scratch resumes under the empty
form.  The peel steps start afresh
at ``GROWTH_BUDGET`` in every call.  ``check_sat`` resumes a choice's
equations under the forms of its parent prefix in one call.

Every branch state and every way to ground an equation draws one unit
from the call's work ``Budget``, which ``check_sat`` shares with its other
layers; running out raises ResourceExhausted and ends the call.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable

from .errors import Budget, UnmappedVariable
from .paramwords import (
    Block,
    Blocks,
    Const,
    Power,
    Unfixed,
    const_blocks,
    merge_blocks,
    params_of,
    parts_of,
    substitute,
)
from .terms import Lit, NameGen, StrTerm, Var, WordEq, record, setfield, str_term_vars

# peel steps along any one branch
GROWTH_BUDGET = 8


# The blocks a caller has made so far: its unfixed parts by name and its
# constants by word, apart, because a letter can also name a variable.
MadeBlocks = tuple[dict[str, Unfixed], dict[str, Const]]


def term_to_side(t: StrTerm, made: MadeBlocks | None = None) -> Blocks:
    """A term as blocks, each variable an unfixed part of its own name.
    A caller that converts many terms passes ``made``: each block is then
    made once and looked up there after."""
    unfixed, consts = made or ({}, {})
    if isinstance(t, Lit):
        return (consts.get(t.word) or consts.setdefault(t.word, Const(t.word)),) if t.word else ()
    if isinstance(t, Var):
        return (unfixed.get(t.name) or unfixed.setdefault(t.name, Unfixed(t.name)),)
    out: list[Block] = []
    word = ""  # the constant letters met since the last unfixed part
    for p in t.parts:
        if isinstance(p, Lit):
            word += p.word
            continue
        if isinstance(p, Var):
            if word:
                out.append(consts.get(word) or consts.setdefault(word, Const(word)))
                word = ""
            out.append(unfixed.get(p.name) or unfixed.setdefault(p.name, Unfixed(p.name)))
            continue
        for b in term_to_side(p, (unfixed, consts)):
            if isinstance(b, Const):
                word += b.word
                continue
            if word:
                out.append(consts.get(word) or consts.setdefault(word, Const(word)))
                word = ""
            out.append(b)
    if word:
        out.append(consts.get(word) or consts.setdefault(word, Const(word)))
    return tuple(out)


def ground_word(s: Blocks) -> str | None:
    """The word of a side made of constants only, else None.  A
    normalized side is all constants exactly when it is empty or one
    constant."""
    if not s:
        return ""
    if len(s) == 1 and isinstance(s[0], Const):
        return s[0].word
    return None


# ---------------------------------------------------------------------------
# results


@record
class SolvedForm:
    """One binding per variable, each a parametric word."""

    def __init__(self, bindings: tuple[tuple[str, Blocks], ...]) -> None:
        setfield(self, "bindings", bindings)

    @cached_property
    def mapping(self) -> dict[str, Blocks]:
        """The bindings by variable, built once per form; read only."""
        return dict(self.bindings)


@record
class Unsat:
    """No solution exists: for an equation system here, and for a whole
    formula as the verdict ``solver`` re-exports."""


@record
class OutOfFragment:
    """Some branch left the rules' shapes or ran out of its peel budget,
    for the first-met ``reason``.  ``forms`` are the solved forms the
    other branches found: their instances are solutions, but maybe not
    all."""

    def __init__(self, reason: str, forms: tuple[SolvedForm, ...]) -> None:
        setfield(self, "reason", reason)
        setfield(self, "forms", forms)


def is_solved_equation(eq: WordEq) -> bool:
    """Left side a bare variable that does not recur on the right."""
    return isinstance(eq.lhs, Var) and eq.lhs.name not in str_term_vars(eq.rhs)


def apply_solved_form(sf: SolvedForm, t: StrTerm) -> Blocks:
    """The parametric word a term denotes under a solved form."""
    env = sf.mapping
    s = term_to_side(t)
    for b in s:
        if isinstance(b, Unfixed) and b.part not in env:
            raise UnmappedVariable(f"no binding for {b.part!r}")
    return substitute(s, env)


def _common_prefix_len(a: str, b: str) -> int:
    k = 0
    while k < len(a) and k < len(b) and a[k] == b[k]:
        k += 1
    return k


def _simplify(l: Blocks, r: Blocks) -> tuple[Blocks, Blocks] | str | None:
    """The equation with the items and constant letters both sides share
    at either end cancelled; None when it is trivial, or the reason no
    word satisfies it."""
    while l and r:
        if l[0] == r[0]:
            l, r = l[1:], r[1:]
        elif isinstance(l[0], Const) and isinstance(r[0], Const):
            a, b = l[0].word, r[0].word
            k = _common_prefix_len(a, b)
            if k == 0:
                return "leading letters clash"
            l, r = const_blocks(a[k:]) + l[1:], const_blocks(b[k:]) + r[1:]
        elif l[-1] == r[-1]:
            l, r = l[:-1], r[:-1]
        elif isinstance(l[-1], Const) and isinstance(r[-1], Const):
            a, b = l[-1].word, r[-1].word
            k = _common_prefix_len(a[::-1], b[::-1])
            if k == 0:
                return "trailing letters clash"
            l, r = l[:-1] + const_blocks(a[:-k]), r[:-1] + const_blocks(b[:-k])
        else:
            return l, r
    if any(isinstance(it, Const) for it in l + r):
        return "a constant equals the empty word"
    return (l, r) if l or r else None


# ---------------------------------------------------------------------------
# rewriting state


# A pending equation as a plain tuple: its sides, the sets of variables
# and parameters they mention, and its size (one per unfixed part, the
# base's length plus one per power, the word's length per constant).
_Eq = tuple[Blocks, Blocks, set[str], set[str], int]


def _eq(l: Blocks, r: Blocks) -> _Eq:
    """The record of the equation l = r."""
    vs: set[str] = set()
    ps: set[str] = set()
    size = 0
    for s in (l, r):
        for it in s:
            if isinstance(it, Unfixed):
                vs.add(it.part)
                size += 1
            elif isinstance(it, Power):
                ps.add(it.param)
                size += len(it.base) + 1
            else:
                size += len(it.word)
    return l, r, vs, ps, size


class _State:
    """One branch: the pending equations, each simplified and held as an
    ``_Eq`` record made by ``_eq``, the bindings made so far, ``growth``,
    the peel steps left, ``work``, the call's work budget that all its
    branches share, ``measured``, the measure of ``pending`` when a step
    has taken it already (None after a copy or a change), and ``dead``,
    the clash that refuted an equation (None while the branch lives; a
    dead branch has nothing pending).

    A rewrite reaches only the records that mention the variable it binds
    or the parameter it maps; every other record is kept, the same
    object, and the measure is summed from the records.

    Bindings are triangular: ``bind`` substitutes into the pending
    equations only, so a binding mentions only variables bound after it,
    and ``_resolve`` composes them.  A parameter map (``set_param``,
    ``unroll_param``) still rewrites every binding; it commutes with the
    substitutions, so the composed forms are those of eager substitution."""

    __slots__ = ("pending", "bindings", "growth", "work", "measured", "dead")

    def __init__(
        self,
        pending: list[_Eq],
        bindings: dict[str, Blocks],
        growth: int,
        work: Budget | None = None,
    ) -> None:
        self.pending = pending
        self.bindings = bindings
        self.growth = growth
        self.work = Budget() if work is None else work
        self.measured: tuple[int, int, int] | None = None
        self.dead: str | None = None

    def copy(self) -> "_State":
        return _State(list(self.pending), dict(self.bindings), self.growth, self.work)

    # -- global rewrites ----------------------------------------------------

    def bind(self, name: str, value: Blocks) -> None:
        if name in self.bindings:
            raise AssertionError(f"{name} is bound twice")
        if Unfixed(name) in value:
            raise AssertionError(f"occurs check: {name} occurs in its own value")
        env = {name: value}
        self._rewrite(lambda eq: name in eq[2], lambda s: substitute(s, env))
        self.bindings[name] = value

    def _rewrite(
        self, touches: Callable[[_Eq], bool], side: Callable[[Blocks], Blocks]
    ) -> None:
        """Rewrite both sides of each pending equation that ``touches``
        and simplify it; the others are kept as they are."""
        pending = []
        for eq in self.pending:
            if not touches(eq):
                pending.append(eq)
                continue
            simple = _simplify(side(eq[0]), side(eq[1]))
            if isinstance(simple, str):
                self.dead, self.pending = simple, []
                return
            if simple is not None:
                pending.append(_eq(*simple))
        self.pending = pending

    def _map_powers(self, param: str, fn: Callable[[Power], Blocks]) -> None:
        def apply(s: Blocks) -> Blocks:
            if not any(isinstance(b, Power) and b.param == param for b in s):
                return s
            return merge_blocks(
                b2
                for b in s
                for b2 in (fn(b) if isinstance(b, Power) and b.param == param else (b,))
            )

        self._rewrite(lambda eq: param in eq[3], apply)
        self.bindings = {v: apply(s) for v, s in self.bindings.items()}

    def set_param(self, param: str, k: int) -> None:
        self._map_powers(param, lambda p: const_blocks(p.base * k))

    def unroll_param(self, param: str, fresh: str) -> None:
        """Re-parameterize i = fresh + 1: each power gains one base copy."""
        self._map_powers(param, lambda p: (Const(p.base), Power(p.base, fresh)))

    def measure(self) -> tuple[int, int, int]:
        vs: set[str] = set()
        ps: set[str] = set()
        size = 0
        for _, _, eq_vs, eq_ps, eq_size in self.pending:
            vs |= eq_vs
            ps |= eq_ps
            size += eq_size
        return (len(vs), len(ps), size)


# A rule returns None (not applicable) or one of:
#   ("again", None)            applied in place, rescan
#   ("branch", [states])       replaced by these successors (none: no solutions)
#   ("oof", reason)            out of fragment / peel budget exhausted
_Step = tuple[str, object]


def _rule_bind(st: _State, idx: int, gen: NameGen) -> _Step | None:
    l, r = st.pending[idx][:2]
    for own, other in ((l, r), (r, l)):
        if len(own) == 1 and isinstance(own[0], Unfixed) and own[0] not in other:
            st.pending.pop(idx)
            st.bind(own[0].part, other)
            return ("again", None)
    return None


def _var_const_shape(a: Blocks, b: Blocks) -> tuple[str, str, str, str] | None:
    """(X, u, v, Y) when ``a`` is X u and ``b`` is v Y, u and v constants."""
    if len(a) == len(b) == 2 and isinstance(a[0], Unfixed) and isinstance(b[1], Unfixed):
        if isinstance(a[1], Const) and isinstance(b[0], Const):
            return a[0].part, a[1].word, b[0].word, b[1].part
    return None


def _rule_commute(st: _State, idx: int, gen: NameGen) -> _Step | None:
    l, r = st.pending[idx][:2]
    for a, b in ((l, r), (r, l)):
        shape = _var_const_shape(a, b)
        if shape is None or shape[0] != shape[3]:
            continue
        # X u = v X: solutions X = v^i p over splits v = p q with q p = u
        x, u, v, _ = shape
        splits = [j for j in range(len(v) + 1) if v[j:] + v[:j] == u]
        if 0 in splits and len(v) in splits:
            splits.remove(len(v))  # v^i v is already covered by v^i
        # no split: the two constant sides are not conjugate
        children = []
        for j in splits:
            child = st.copy()
            child.pending.pop(idx)
            child.bind(x, (Power(v, gen.fresh("i")),) + const_blocks(v[:j]))
            children.append(child)
        return ("branch", children)
    return None


def _rule_straddle(st: _State, idx: int, gen: NameGen) -> _Step | None:
    """X u = v Y with X and Y distinct: either |X| >= |v| (X = v W,
    Y = W u for one shared fresh W) or X stops at some boundary j inside
    v, which grounds both variables.  The loop over both side orders also
    meets u X = Y v, as Y v = u X."""
    l, r = st.pending[idx][:2]
    for a, b in ((l, r), (r, l)):
        shape = _var_const_shape(a, b)
        if shape is None or shape[0] == shape[3]:
            continue
        x, u, v, y = shape
        long_child = st.copy()
        long_child.pending.pop(idx)
        w = Unfixed(gen.fresh("W"))
        long_child.bind(x, (Const(v), w))
        long_child.bind(y, (w, Const(u)))
        children = [long_child]
        for j in range(max(0, len(v) - len(u)), len(v)):
            need = len(v) - j
            if v[j:] != u[:need]:
                continue
            child = st.copy()
            child.pending.pop(idx)
            child.bind(x, const_blocks(v[:j]))
            child.bind(y, const_blocks(u[need:]))
            children.append(child)
        return ("branch", children)
    return None


def _match_pattern(
    items: Blocks, word: str, cap: int
) -> list[tuple[dict[str, str], dict[str, int]]] | None:
    """All ways to match a pattern side against a constant word.

    Repeated variables and parameters must match consistently.  Returns
    None when there are more than ``cap`` matches.
    """
    out: list[tuple[dict[str, str], dict[str, int]]] = []
    n = len(word)

    def bt(pos: int, idx: int, venv: dict[str, str], penv: dict[str, int]) -> bool:
        if idx == len(items):
            if pos == n:
                if len(out) == cap:
                    return False
                out.append((dict(venv), dict(penv)))
            return True
        it = items[idx]
        if isinstance(it, Const):
            if word.startswith(it.word, pos):
                return bt(pos + len(it.word), idx + 1, venv, penv)
            return True
        if isinstance(it, Unfixed):
            if it.part in venv:
                seg = venv[it.part]
                if word.startswith(seg, pos):
                    return bt(pos + len(seg), idx + 1, venv, penv)
                return True
            for stop in range(pos, n + 1):
                if not bt(stop, idx + 1, {**venv, it.part: word[pos:stop]}, penv):
                    return False
            return True
        assert isinstance(it, Power)
        if it.param in penv:
            seg = it.base * penv[it.param]
            if word.startswith(seg, pos):
                return bt(pos + len(seg), idx + 1, venv, penv)
            return True
        k = 0
        while True:
            if not bt(pos + k * len(it.base), idx + 1, venv, {**penv, it.param: k}):
                return False
            if word.startswith(it.base, pos + k * len(it.base)):
                k += 1
            else:
                return True

    completed = bt(0, 0, {}, {})
    if not completed:
        return None
    return out


def _drawn_matches(
    items: Blocks, word: str, budget: Budget, layer: str
) -> list[tuple[dict[str, str], dict[str, int]]]:
    """``_match_pattern``'s matches, each of which draws one unit from
    ``budget``; more matches than units left raises ResourceExhausted."""
    matches = _match_pattern(items, word, budget.left)
    # more matches than units left overdraws the budget, which raises
    budget.draw(budget.left + 1 if matches is None else len(matches), layer)
    return matches or []


def _rule_ground(st: _State, idx: int, gen: NameGen) -> _Step | None:
    l, r = st.pending[idx][:2]
    for a, b in ((l, r), (r, l)):
        word = ground_word(b)
        if word is None:
            continue
        children = []
        for venv, penv in _drawn_matches(a, word, st.work, "solved_form"):
            child = st.copy()
            child.pending.pop(idx)
            for name, seg in venv.items():
                child.bind(name, const_blocks(seg))
            for param, k in penv.items():
                child.set_param(param, k)
            children.append(child)
        return ("branch", children)
    return None


def _rule_peel(st: _State, idx: int, gen: NameGen) -> _Step | None:
    l, r = st.pending[idx][:2]
    for s in (l, r):
        if s and isinstance(s[0], Power):
            if st.growth <= 0:
                return ("oof", "peel budget exhausted")
            param = s[0].param
            zero = st.copy()
            zero.set_param(param, 0)
            unrolled = st.copy()
            unrolled.growth -= 1
            unrolled.unroll_param(param, gen.fresh("i"))
            return ("branch", [zero, unrolled])
    return None


_RULES = (
    _rule_bind,
    _rule_commute,
    _rule_straddle,
    _rule_ground,
    _rule_peel,
)


def _step(st: _State, gen: NameGen) -> _Step | None:
    # a rule that returns None leaves the state as it was, so one measure
    # serves every trial
    before = st.measured or st.measure()
    for rule in _RULES:
        for idx in range(len(st.pending)):
            res = rule(st, idx, gen)
            if res is None:
                continue
            # every unbudgeted step must shrink the system; the measures
            # taken to check it are carried into the states' next steps
            st.measured = None
            if rule is not _rule_peel and res[0] != "oof":
                for after in [st] if res[0] == "again" else res[1]:  # type: ignore[union-attr]
                    after.measured = after.measure()
                    if not after.measured < before:
                        raise AssertionError(f"{rule.__name__} did not shrink the system")
            return res
    return None


def _resolve(st: _State, variables: Iterable[str]) -> SolvedForm:
    """Compose the triangular bindings, the last bound first: each one
    mentions only variables bound after it, which are resolved by then.
    An unbound variable is its own unfixed part."""
    env: dict[str, Blocks] = {}
    for v in reversed(st.bindings):
        env[v] = substitute(st.bindings[v], env)
    return SolvedForm(tuple((v, env.get(v, (Unfixed(v),))) for v in sorted(set(variables))))


def to_solved_form(
    eqs: Iterable[WordEq],
    variables: Iterable[str] = (),
    gen: NameGen | None = None,
    budget: Budget | None = None,
    under: Iterable[SolvedForm] = (SolvedForm(()),),
) -> list[SolvedForm] | Unsat | OutOfFragment:
    """Solve a conjunction of word equations under each of the solved
    forms ``under`` of other equations, by default the empty one.

    The instances of the result are exactly the instances of some form of
    ``under`` that solve ``eqs``.  Each form seeds one start state with
    its bindings that are not the identity, ``eqs`` are substituted under
    them, and the first form's branches run first.  ``variables`` may
    list names that must appear in every solved form even when no
    equation mentions them; the forms' variables are listed too, and
    their names are reserved in ``gen``.  Every branch state and ground
    match draws from ``budget``, a fresh one when none is given; raises
    ResourceExhausted when it runs out.
    """
    all_vars: set[str] = set(variables)
    sides = [(term_to_side(eq.lhs), term_to_side(eq.rhs)) for eq in eqs]
    for l, r in sides:
        all_vars.update(b.part for b in l + r if isinstance(b, Unfixed))
    work = Budget() if budget is None else budget
    starts = []
    for form in under:
        start = _State([], {}, GROWTH_BUDGET, work)
        env = start.bindings
        for v, pw in form.bindings:
            all_vars.add(v)
            if pw != (Unfixed(v),):
                env[v] = pw
        for l, r in sides:
            simple = _simplify(substitute(l, env), substitute(r, env)) if env else _simplify(l, r)
            if isinstance(simple, str):
                start.dead = simple
            elif simple is not None:
                start.pending.append(_eq(*simple))
        starts.append(start)
    envs = [pw for st in starts for pw in st.bindings.values()]
    taken = all_vars.union(*(params_of(pw) + parts_of(pw) for pw in envs))
    if gen is None:
        gen = NameGen(taken)
    else:
        gen.reserve(taken)

    stack = starts[::-1]
    solved: list[SolvedForm] = []
    blocked: str | None = None
    while stack:
        st = stack.pop()
        st.work.draw(1, "solved_form")
        while st.dead is None:
            if not st.pending:
                solved.append(_resolve(st, all_vars))
                break
            kind, payload = _step(st, gen) or ("oof", "no rule applies to the system")
            if kind == "oof":
                blocked = blocked or str(payload)
                break
            if kind == "branch":
                stack.extend(payload)  # type: ignore[arg-type]
                break
    if blocked is not None:
        return OutOfFragment(blocked, tuple(solved))
    if solved:
        return solved
    return Unsat()
