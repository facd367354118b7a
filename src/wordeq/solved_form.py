"""Rewriting systems of word equations into solved forms.

A solved form maps every variable to a parametric word built from
constants, integer-parameter powers and unfixed parts.  ``to_solved_form``
returns a finite list of solved forms whose instances are exactly the
solutions of the input system, the ``Unsat`` marker when there are none,
or ``OutOfFragment`` when the system falls outside the shapes the rules
cover (or exceeds the rewriting budget).

The rules, tried in this order on every pending equation:

* tidy: normalize sides, drop trivial equations, refute constant clashes
* empty side: the other side is forced letterless (variables to the
  empty word, power parameters to zero)
* strip: cancel a shared first/last item, or shared constant affixes
* bind: ``X = w`` with ``X`` not in ``w`` binds ``X`` and substitutes
* commute: ``X u = v X`` with constant ``u``, ``v`` solves into
  ``X = v^i p`` for each split ``v = p q`` with ``q p = u``
* straddle: ``X u = v Y`` (and its mirror) either pushes ``X`` past
  ``v`` using one shared fresh variable or grounds both sides at each
  feasible boundary inside ``v``
* ground: an all-constant side is matched against the pattern on the
  other side by finite backtracking
* peel: a power at the head of a side splits into "zero repetitions"
  and "one repetition unrolled", re-parameterizing globally

Straddling and peeling can grow the system, so they draw from a budget
of ``GROWTH_BUDGET`` steps per branch; every other step strictly shrinks
the measure (variables, parameters, symbols).  An exhausted budget, more
than ``MAX_BRANCHES`` branch states, or more than ``MAX_GROUND_MATCHES``
ways to ground an equation report OutOfFragment rather than looping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import UnmappedVariable
from .paramwords import Block, Const, ParamWord, Power, Unfixed, param_word
from .terms import Concat, Lit, NameGen, StrTerm, Var, WordEq, str_term_vars


@dataclass(frozen=True)
class VarItem:
    name: str


Item = Const | Power | VarItem
Side = tuple[Item, ...]

# straddle and peel steps along any one branch
GROWTH_BUDGET = 8
# branch states one call explores
MAX_BRANCHES = 10_000
# ways to match a pattern side against a constant side
MAX_GROUND_MATCHES = 1024


def side(items: Iterable[Item]) -> Side:
    """Normalize a sequence of items: merge adjacent constants."""
    out: list[Item] = []
    for it in items:
        if isinstance(it, Const) and out and isinstance(out[-1], Const):
            out[-1] = Const(out[-1].word + it.word)
        else:
            out.append(it)
    return tuple(out)


def term_to_side(t: StrTerm) -> Side:
    if isinstance(t, Lit):
        return (Const(t.word),) if t.word else ()
    if isinstance(t, Var):
        return (VarItem(t.name),)
    assert isinstance(t, Concat)
    items: list[Item] = []
    for p in t.parts:
        items.extend(term_to_side(p))
    return side(items)


def side_vars(s: Side) -> set[str]:
    return {it.name for it in s if isinstance(it, VarItem)}


# ---------------------------------------------------------------------------
# results


@dataclass(frozen=True)
class SolvedForm:
    """One binding per variable, each a parametric word."""

    bindings: tuple[tuple[str, ParamWord], ...]

    def mapping(self) -> dict[str, ParamWord]:
        return dict(self.bindings)


@dataclass(frozen=True)
class Unsat:
    """No solution exists: for an equation system here, and for a whole
    formula as the verdict ``solver`` re-exports."""


@dataclass(frozen=True)
class OutOfFragment:
    reason: str


def is_solved_equation(eq: WordEq) -> bool:
    """Left side a bare variable that does not recur on the right."""
    return isinstance(eq.lhs, Var) and eq.lhs.name not in str_term_vars(eq.rhs)


def side_to_paramword(s: Side) -> ParamWord:
    blocks: list[Block] = []
    for it in s:
        if isinstance(it, VarItem):
            blocks.append(Unfixed(it.name))
        else:
            blocks.append(it)
    return param_word(blocks)


def apply_solved_form(sf: SolvedForm, t: StrTerm) -> ParamWord:
    """The parametric word a term denotes under a solved form."""
    m = sf.mapping()

    def blocks(term: StrTerm) -> list[Block]:
        if isinstance(term, Lit):
            return [Const(term.word)] if term.word else []
        if isinstance(term, Var):
            if term.name not in m:
                raise UnmappedVariable(f"no binding for {term.name!r}")
            return list(m[term.name].blocks)
        assert isinstance(term, Concat)
        out: list[Block] = []
        for p in term.parts:
            out.extend(blocks(p))
        return out

    return param_word(blocks(t))


def render_solved_form(sf: SolvedForm) -> str:
    def render_word(w: ParamWord) -> str:
        if not w.blocks:
            return '""'
        bits = []
        for b in w.blocks:
            if isinstance(b, Const):
                bits.append(b.word)
            elif isinstance(b, Power):
                bits.append(f"({b.base})^{b.param}")
            else:
                bits.append(f"<{b.part}>")
        return " ".join(bits)

    return "\n".join(f"{v} = {render_word(w)}" for v, w in sf.bindings)


# ---------------------------------------------------------------------------
# rewriting state


class _State:
    __slots__ = ("pending", "bindings", "budget")

    def __init__(
        self,
        pending: list[tuple[Side, Side]],
        bindings: dict[str, Side],
        budget: int,
    ) -> None:
        self.pending = pending
        self.bindings = bindings
        self.budget = budget

    def copy(self) -> "_State":
        return _State(list(self.pending), dict(self.bindings), self.budget)

    # -- global rewrites ----------------------------------------------------

    def _map_items(self, fn: Callable[[Item], Iterable[Item]]) -> None:
        def apply(s: Side) -> Side:
            out: list[Item] = []
            for it in s:
                out.extend(fn(it))
            return side(out)

        self.pending = [(apply(l), apply(r)) for l, r in self.pending]
        self.bindings = {v: apply(s) for v, s in self.bindings.items()}

    def bind(self, name: str, value: Side) -> None:
        assert name not in self.bindings
        assert name not in side_vars(value), "occurs check"
        self._map_items(
            lambda it: value if isinstance(it, VarItem) and it.name == name else (it,)
        )
        self.bindings[name] = value

    def set_param(self, param: str, k: int) -> None:
        def fn(it: Item) -> Iterable[Item]:
            if isinstance(it, Power) and it.param == param:
                return (Const(it.base * k),) if k > 0 else ()
            return (it,)

        self._map_items(fn)

    def unroll_param(self, param: str, fresh: str) -> None:
        """Re-parameterize i = fresh + 1: each power gains one base copy."""

        def fn(it: Item) -> Iterable[Item]:
            if isinstance(it, Power) and it.param == param:
                return (Const(it.base), Power(it.base, fresh))
            return (it,)

        self._map_items(fn)

    def measure(self) -> tuple[int, int, int]:
        vs: set[str] = set()
        ps: set[str] = set()
        size = 0
        for l, r in self.pending:
            for s in (l, r):
                for it in s:
                    if isinstance(it, VarItem):
                        vs.add(it.name)
                        size += 1
                    elif isinstance(it, Power):
                        ps.add(it.param)
                        size += len(it.base) + 1
                    else:
                        size += len(it.word)
        return (len(vs), len(ps), size)


# A rule returns None (not applicable) or one of:
#   ("again", None)            applied in place, rescan
#   ("branch", [states])       replaced by the given successor states
#   ("dead", reason)           this branch has no solutions
#   ("oof", reason)            out of fragment / budget exhausted
_Step = tuple[str, object]


def _tidy(st: _State) -> str | None:
    """Normalize and drop trivial equations; report constant clashes."""
    out: list[tuple[Side, Side]] = []
    for l, r in st.pending:
        l, r = side(l), side(r)
        if l == r:
            continue
        if all(isinstance(i, Const) for i in l) and all(
            isinstance(i, Const) for i in r
        ):
            return "two distinct constants equated"
        out.append((l, r))
    st.pending = out
    return None


def _rule_empty(st: _State, idx: int, gen: NameGen) -> _Step | None:
    l, r = st.pending[idx]
    if l and r:
        return None
    other = l or r
    if any(isinstance(it, Const) for it in other):
        return ("dead", "a constant equals the empty word")
    st.pending.pop(idx)
    for it in other:
        if isinstance(it, VarItem):
            if it.name not in st.bindings:
                st.bind(it.name, ())
        else:
            assert isinstance(it, Power)
            st.set_param(it.param, 0)
    return ("again", None)


def _common_prefix_len(a: str, b: str) -> int:
    k = 0
    while k < len(a) and k < len(b) and a[k] == b[k]:
        k += 1
    return k


def _rule_strip(st: _State, idx: int, gen: NameGen) -> _Step | None:
    l, r = st.pending[idx]
    if not l or not r:
        return None
    if l[0] == r[0]:
        st.pending[idx] = (l[1:], r[1:])
        return ("again", None)
    if isinstance(l[0], Const) and isinstance(r[0], Const):
        k = _common_prefix_len(l[0].word, r[0].word)
        if k == 0:
            return ("dead", "leading letters clash")
        nl = side((Const(l[0].word[k:]),) + l[1:]) if l[0].word[k:] else l[1:]
        nr = side((Const(r[0].word[k:]),) + r[1:]) if r[0].word[k:] else r[1:]
        st.pending[idx] = (nl, nr)
        return ("again", None)
    if l[-1] == r[-1]:
        st.pending[idx] = (l[:-1], r[:-1])
        return ("again", None)
    if isinstance(l[-1], Const) and isinstance(r[-1], Const):
        a, b = l[-1].word, r[-1].word
        k = _common_prefix_len(a[::-1], b[::-1])
        if k == 0:
            return ("dead", "trailing letters clash")
        nl = side(l[:-1] + (Const(a[:-k]),)) if a[:-k] else l[:-1]
        nr = side(r[:-1] + (Const(b[:-k]),)) if b[:-k] else r[:-1]
        st.pending[idx] = (nl, nr)
        return ("again", None)
    return None


def _rule_bind(st: _State, idx: int, gen: NameGen) -> _Step | None:
    l, r = st.pending[idx]
    for own, other in ((l, r), (r, l)):
        if (
            len(own) == 1
            and isinstance(own[0], VarItem)
            and own[0].name not in side_vars(other)
        ):
            st.pending.pop(idx)
            st.bind(own[0].name, other)
            return ("again", None)
    return None


def _rule_commute(st: _State, idx: int, gen: NameGen) -> _Step | None:
    l, r = st.pending[idx]
    for a, b in ((l, r), (r, l)):
        if not (
            len(a) == 2
            and isinstance(a[0], VarItem)
            and isinstance(a[1], Const)
            and len(b) == 2
            and isinstance(b[0], Const)
            and isinstance(b[1], VarItem)
            and a[0].name == b[1].name
        ):
            continue
        # X u = v X: solutions X = v^i p over splits v = p q with q p = u
        x = a[0].name
        u, v = a[1].word, b[0].word
        splits = [j for j in range(len(v) + 1) if v[j:] + v[:j] == u]
        if 0 in splits and len(v) in splits:
            splits.remove(len(v))  # v^i v is already covered by v^i
        if not splits:
            return ("dead", "the two constant sides are not conjugate")
        children = []
        for j in splits:
            child = st.copy()
            child.pending.pop(idx)
            items: list[Item] = [Power(v, gen.fresh("i"))]
            if v[:j]:
                items.append(Const(v[:j]))
            child.bind(x, tuple(items))
            children.append(child)
        return ("branch", children)
    return None


def _straddle_children(
    st: _State,
    idx: int,
    gen: NameGen,
    x: str,
    u: str,
    v: str,
    y: str,
    mirrored: bool,
) -> _Step | None:
    """Common body for X u = v Y (and the mirrored u X = Y v).

    In the plain form, either |X| >= |v| (X = v W, Y = W u for one shared
    fresh W) or X stops at some boundary j inside v, which grounds both
    variables.  The mirrored form swaps the roles symmetrically.
    """
    children = []
    long_child = st.copy()
    if long_child.budget <= 0:
        return ("oof", "straddle budget exhausted")
    long_child.budget -= 1
    long_child.pending.pop(idx)
    w = gen.fresh("W")
    if not mirrored:
        long_child.bind(x, (Const(v), VarItem(w)))
        long_child.bind(y, (VarItem(w), Const(u)))
    else:
        long_child.bind(y, (Const(u), VarItem(w)))
        long_child.bind(x, (VarItem(w), Const(v)))
    children.append(long_child)
    anchor = v if not mirrored else u
    tail = u if not mirrored else v
    for j in range(max(0, len(anchor) - len(tail)), len(anchor)):
        need = len(anchor) - j
        if anchor[j:] != tail[:need]:
            continue
        child = st.copy()
        child.pending.pop(idx)
        first = anchor[:j]
        second = tail[need:]
        if not mirrored:
            child.bind(x, (Const(first),) if first else ())
            child.bind(y, (Const(second),) if second else ())
        else:
            child.bind(y, (Const(first),) if first else ())
            child.bind(x, (Const(second),) if second else ())
        children.append(child)
    return ("branch", children)


def _rule_straddle(st: _State, idx: int, gen: NameGen) -> _Step | None:
    l, r = st.pending[idx]
    for a, b in ((l, r), (r, l)):
        if (
            len(a) == 2
            and isinstance(a[0], VarItem)
            and isinstance(a[1], Const)
            and len(b) == 2
            and isinstance(b[0], Const)
            and isinstance(b[1], VarItem)
            and a[0].name != b[1].name
        ):
            # X u = v Y
            return _straddle_children(
                st, idx, gen, a[0].name, a[1].word, b[0].word, b[1].name, False
            )
        if (
            len(a) == 2
            and isinstance(a[0], Const)
            and isinstance(a[1], VarItem)
            and len(b) == 2
            and isinstance(b[0], VarItem)
            and isinstance(b[1], Const)
            and a[1].name != b[0].name
        ):
            # u X = Y v
            return _straddle_children(
                st, idx, gen, a[1].name, a[0].word, b[1].word, b[0].name, True
            )
    return None


def _match_pattern(
    items: Side, word: str, cap: int
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
        if isinstance(it, VarItem):
            if it.name in venv:
                seg = venv[it.name]
                if word.startswith(seg, pos):
                    return bt(pos + len(seg), idx + 1, venv, penv)
                return True
            for stop in range(pos, n + 1):
                if not bt(stop, idx + 1, {**venv, it.name: word[pos:stop]}, penv):
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


def _rule_ground(st: _State, idx: int, gen: NameGen) -> _Step | None:
    l, r = st.pending[idx]
    for a, b in ((l, r), (r, l)):
        if not all(isinstance(it, Const) for it in b):
            continue
        word = b[0].word if b else ""
        matches = _match_pattern(a, word, MAX_GROUND_MATCHES)
        if matches is None:
            return ("oof", "ground matching has too many cases")
        if not matches:
            return ("dead", "pattern cannot match the constant side")
        children = []
        for venv, penv in matches:
            child = st.copy()
            child.pending.pop(idx)
            for name, seg in venv.items():
                child.bind(name, (Const(seg),) if seg else ())
            for param, k in penv.items():
                child.set_param(param, k)
            children.append(child)
        return ("branch", children)
    return None


def _rule_peel(st: _State, idx: int, gen: NameGen) -> _Step | None:
    l, r = st.pending[idx]
    for s in (l, r):
        if s and isinstance(s[0], Power):
            if st.budget <= 0:
                return ("oof", "peel budget exhausted")
            param = s[0].param
            zero = st.copy()
            zero.set_param(param, 0)
            unrolled = st.copy()
            unrolled.budget -= 1
            unrolled.unroll_param(param, gen.fresh("i"))
            return ("branch", [zero, unrolled])
    return None


_RULES = (
    _rule_empty,
    _rule_strip,
    _rule_bind,
    _rule_commute,
    _rule_straddle,
    _rule_ground,
    _rule_peel,
)
_BUDGETED = (_rule_straddle, _rule_peel)


def _step(st: _State, gen: NameGen) -> _Step | None:
    # a rule that returns None leaves the state as it was, so one measure
    # serves every trial
    before = st.measure()
    for rule in _RULES:
        for idx in range(len(st.pending)):
            res = rule(st, idx, gen)
            if res is None:
                continue
            # every unbudgeted step must shrink the system
            if rule not in _BUDGETED and (
                (res[0] == "again" and not st.measure() < before)
                or (res[0] == "branch" and not all(c.measure() < before for c in res[1]))
            ):
                raise AssertionError(f"{rule.__name__} did not shrink the system")
            return res
    return None


def _resolve(st: _State, variables: Iterable[str]) -> SolvedForm:
    out = []
    for v in sorted(set(variables)):
        if v in st.bindings:
            out.append((v, side_to_paramword(st.bindings[v])))
        else:
            out.append((v, ParamWord((Unfixed(v),))))
    return SolvedForm(tuple(out))


def to_solved_form(
    eqs: Iterable[WordEq],
    variables: Iterable[str] = (),
    gen: NameGen | None = None,
) -> list[SolvedForm] | Unsat | OutOfFragment:
    """Solve a conjunction of word equations.

    ``variables`` may list names that must appear in every solved form
    even when no equation mentions them.
    """
    all_vars: set[str] = set(variables)
    pending: list[tuple[Side, Side]] = []
    for eq in eqs:
        l, r = term_to_side(eq.lhs), term_to_side(eq.rhs)
        all_vars |= side_vars(l) | side_vars(r)
        pending.append((l, r))
    if gen is None:
        gen = NameGen(all_vars)
    else:
        gen.reserve(all_vars)

    stack = [_State(pending, {}, GROWTH_BUDGET)]
    solved: list[SolvedForm] = []
    explored = 0
    while stack:
        st = stack.pop()
        explored += 1
        if explored > MAX_BRANCHES:
            return OutOfFragment("branch budget exhausted")
        verdict: _Step | None = ("again", None)
        while verdict is not None and verdict[0] == "again":
            clash = _tidy(st)
            if clash is not None:
                verdict = ("dead", clash)
                break
            if not st.pending:
                sf = _resolve(st, all_vars)
                if sf not in solved:
                    solved.append(sf)
                verdict = ("dead", "")  # branch finished
                break
            verdict = _step(st, gen)
        if verdict is None:
            return OutOfFragment("no rule applies to the system")
        kind, payload = verdict
        if kind == "oof":
            return OutOfFragment(str(payload))
        if kind == "branch":
            stack.extend(payload)  # type: ignore[arg-type]
    if solved:
        return solved
    return Unsat()
