"""Exact integer feasibility for conjunctions of linear rows.

Every unknown is one column.  A column is nonnegative, except that of
an ``int``-kind unknown, which is free: it has no bound either way.

The search is exact: it ends on an integer point, on boxes that are all
refuted, or on the work budget.  Every row is normalised once:
equalities whose coefficient gcd does not divide the bound are refuted
and inequalities are tightened by their gcd; an inequality and its exact
opposite become one equality.  Every equality is then eliminated by
exact substitution, and only the rows a substitution touched are
normalised again.  An equality with a +-1 coefficient is solved for its
column.  When none has one, the equality step of the Omega test (Pugh,
*The Omega Test*, CACM 1992) rewrites a column of the first equality over
a fresh free column, and so lowers the row's least |coefficient| until
one is +-1.  The number of such steps is logarithmic in the row's
coefficients, so they draw no work.

The remaining inequalities split into independent blocks, the connected
components of the rows over their columns.  Each block is decided on
its own, and the first infeasible block refutes the call.  A block's
start box is [0, inf) for each column, or (-inf, inf) for a free one,
narrowed by the block's one-column inequalities, so their bounds can pin
a column.  A block with no row over two columns is one column, and its
start box decides it: the box's point nearest zero, or none when the box
is empty.  It draws the one unit of a branch-and-bound root and builds
no simplex.  Every other block is decided by branch and bound from its
start box.  A node's box bounds each column; a fractional column splits
the box at its value, and the half nearer zero is explored first.  A
node is pruned when its box is empty.  Nothing else cuts the tree: over
unbounded columns it may be infinite, and then the work budget ends the
search.

A call may also take a disjunction of row groups that all share its
rows.  The shared rows are normalised, eliminated, split and solved once,
and an infeasible shared block refutes the call before any group is
pulled.  Each group, pulled one at a time, gets the shared eliminations
substituted in; then only its rows and the shared blocks they touch are
eliminated and searched again, while the untouched blocks keep their
shared solution.  A group with no rows is the shared rows alone: their
solution is its model, and nothing is eliminated or solved again.  The
first group with a model ends the call.

Every branch-and-bound node, over all blocks and groups, draws one unit
from the call's ``Budget``, which ``check_sat`` shares with its other
layers.  Running out raises ResourceExhausted and ends the call, so a
pathological instance is never answered by a guess.

A block keeps one bounded-variable simplex across all of its nodes
(Dutertre and de Moura, *A Fast Linear-Arithmetic Solver for DPLL(T)*,
CAV 2006).  The tableau is built once, with sparse rows and one slack
per row over two or more columns; a column lies in its box, and a slack
is <= the row's bound.
A node only moves the column bounds to its box and repairs the current
basis.  The repair pivots by Bland's rule (the smallest violating basic
variable, then the smallest eligible nonbasic one), so it terminates.
Arithmetic is exact, over integers and fractions of any size, so no row
is too large to solve.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd
from typing import Iterable, Iterator

from .errors import Budget
from .lengths import LinVar, Row

_ColRow = tuple[dict[int, int], int]  # sparse coeffs over columns, bound
_Box = dict[int, tuple[int | None, int | None]]  # per-column integer bounds
_Block = tuple[list[int], list[_ColRow]]  # columns and inequalities of one block


class _Infeasible(Exception):
    pass


def _normalize(row: _ColRow, eq: bool) -> _ColRow | None:
    """The row, which has no zero coefficients, divided by their gcd, or
    None when it has no coefficients and holds; raises _Infeasible when it
    cannot hold."""
    coeffs, b = row
    if not coeffs:
        if b != 0 if eq else b < 0:
            raise _Infeasible
        return None
    g = gcd(*coeffs.values())
    if g == 1:
        return row
    if eq and b % g != 0:
        raise _Infeasible
    # floor division tightens: g*x <= b  <=>  x <= floor(b/g)
    return {j: c // g for j, c in coeffs.items()}, b // g


def _normalize_all(rows: list[_ColRow], eq: bool) -> list[_ColRow]:
    return [r for r in (_normalize(row, eq) for row in rows) if r is not None]


def _substitute(
    rows: list[_ColRow], j: int, const: int, terms: dict[int, int], eq: bool
) -> list[_ColRow]:
    """The rows with x_j = const + terms substituted; a row that mentions
    x_j is normalised again, the others are kept as they are."""
    out: list[_ColRow] = []
    for row in rows:
        coeffs, b = row
        if j in coeffs:
            cj = coeffs[j]
            sub = {k: c for k, c in coeffs.items() if k != j}
            for k, t in terms.items():
                sub[k] = sub.get(k, 0) + cj * t
                if sub[k] == 0:
                    del sub[k]
            row = _normalize((sub, b - cj * const), eq)
            if row is None:
                continue
        out.append(row)
    return out


def _pair_opposites(eqs: list[_ColRow], les: list[_ColRow]) -> list[_ColRow]:
    """The normalised inequalities without each one whose exact opposite
    is also there: c*x <= b with -c*x <= -b is appended to ``eqs`` as
    c*x = b, which elimination then removes.  Only rows with opposite
    bounds are compared."""
    if len(les) < 2:
        return les
    unpaired: dict[int, list[int]] = {}  # row indices by bound
    paired: set[int] = set()
    for i, (coeffs, b) in enumerate(les):
        for j in unpaired.get(-b, ()):
            other = les[j][0]
            if len(other) == len(coeffs) and all(other.get(k) == -c for k, c in coeffs.items()):
                unpaired[-b].remove(j)
                paired.update((i, j))
                eqs.append(les[j])
                break
        else:
            unpaired.setdefault(b, []).append(i)
    return [row for i, row in enumerate(les) if i not in paired]


def _eliminate_units(
    eqs: list[_ColRow], les: list[_ColRow], free: set[int], fresh: Iterator[int]
) -> tuple[list[_ColRow], list[tuple[int, int, dict[int, int]]]]:
    """Remove every equality by exact substitution.

    The first equality with a +-1 coefficient is solved for that column.
    When no equality has one, one Euclid step is taken on the first: with
    a_j its least |coefficient|, x_j = b//a_j - sum (a_k//a_j) x_k + t,
    where t is a fresh free column drawn from ``fresh``, leaves the row
    a_j t + sum (a_k % a_j) x_k = b % a_j, whose least |coefficient| is
    smaller, so a unit appears.

    Returns the reduced, normalised inequalities plus the eliminations
    (column, constant, terms) in the order they were applied;
    back-substitute in reverse.
    """
    eqs = _normalize_all(eqs, True)
    les = _pair_opposites(eqs, _normalize_all(les, False))
    elims: list[tuple[int, int, dict[int, int]]] = []
    while eqs:
        i = next((i for i, (coeffs, _) in enumerate(eqs) if 1 in map(abs, coeffs.values())), 0)
        coeffs, b = eqs[i]
        j = min(coeffs, key=lambda k: (abs(coeffs[k]), k))
        a = coeffs[j]  # x_j = b//a - sum (c_k//a) x_k, plus t unless a is +-1
        const = b // a
        terms = {k: -(c // a) for k, c in coeffs.items() if k != j and c // a}
        if abs(a) == 1:
            del eqs[i]
        else:
            t = next(fresh)
            terms[t] = 1
            free.add(t)
        eqs = _substitute(eqs, j, const, terms, True)
        les = _substitute(les, j, const, terms, False)
        if j not in free:  # x_j >= 0 must survive the elimination
            row = _normalize(({k: -t for k, t in terms.items()}, const), False)
            if row is not None:
                les.append(row)
        elims.append((j, const, terms))
    return les, elims


class _Simplex:
    """A bounded-variable simplex over one block.

    The variables are the block's columns and, numbered after them, one
    slack per row; Bland's rule orders them by number.  ``rows`` holds one
    sparse row per basic variable, expressing it over the nonbasic ones;
    ``value`` satisfies every row, and every nonbasic variable lies within
    its bounds.
    """

    def __init__(self, cols: list[int], les: list[_ColRow]) -> None:
        self.lo: dict[int, int | None] = dict.fromkeys(cols, 0)
        self.hi: dict[int, int | None] = dict.fromkeys(cols)
        self.value: dict[int, Fraction] = dict.fromkeys(cols, Fraction(0))
        # coefficients start as ints and become Fractions as pivots divide
        self.rows: dict[int, dict[int, Fraction | int]] = {}
        for slack, (coeffs, b) in enumerate(les, cols[-1] + 1):
            self.lo[slack] = None
            self.hi[slack] = b
            self.value[slack] = Fraction(0)
            self.rows[slack] = dict(coeffs)

    def set_bounds(self, j: int, lo: int | None, hi: int | None) -> None:
        """Bound column j to [lo, hi]; a nonbasic column moves inside."""
        self.lo[j] = lo
        self.hi[j] = hi
        if j in self.rows:
            return
        v = self.value[j]
        if lo is not None and v < lo:
            self._move(j, lo)
        elif hi is not None and v > hi:
            self._move(j, hi)

    def _move(self, j: int, v: int) -> None:
        """Set nonbasic variable j to v and update the basic ones."""
        d = v - self.value[j]
        for i, row in self.rows.items():
            a = row.get(j)
            if a is not None:
                self.value[i] += a * d
        self.value[j] = Fraction(v)

    def check(self) -> bool:
        """Repair the basis until every variable is within its bounds
        (True) or some row shows that the bounds are infeasible (False)."""
        lo, hi, value = self.lo, self.hi, self.value
        while True:
            for i in sorted(self.rows):
                if lo[i] is not None and value[i] < lo[i]:
                    target, raise_it = lo[i], True
                    break
                if hi[i] is not None and value[i] > hi[i]:
                    target, raise_it = hi[i], False
                    break
            else:
                return True
            row = self.rows[i]
            for j in sorted(row):
                if (row[j] > 0) == raise_it:  # x_i moves with x_j
                    if hi[j] is None or value[j] < hi[j]:
                        break
                elif lo[j] is None or value[j] > lo[j]:
                    break
            else:
                return False
            self._pivot(i, j, target)

    def _pivot(self, i: int, j: int, target: int) -> None:
        """Make basic i nonbasic at ``target`` and nonbasic j basic."""
        row = self.rows.pop(i)
        inv = 1 / Fraction(row.pop(j))
        theta = (target - self.value[i]) * inv
        self.value[i] = Fraction(target)
        self.value[j] += theta
        # x_j = (x_i - sum_k row[k] x_k) / row[j]
        solved = {i: inv}
        for k, c in row.items():
            solved[k] = -c * inv
        for r, other in self.rows.items():
            c = other.pop(j, None)
            if c is None:
                continue
            self.value[r] += c * theta
            for k, d in solved.items():
                x = other.get(k, 0) + c * d
                if x:
                    other[k] = x
                else:
                    other.pop(k, None)
        self.rows[j] = solved


def _blocks(les: list[_ColRow]) -> list[_Block]:
    """The connected components of the rows over their columns, in the
    order of their smallest column."""
    parent: dict[int, int] = {}

    def find(j: int) -> int:
        parent.setdefault(j, j)
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    for coeffs, _ in les:
        first, *rest = coeffs
        root = find(first)
        for k in rest:
            parent[find(k)] = root

    blocks: dict[int, _Block] = {}
    for j in sorted(parent):
        blocks.setdefault(find(j), ([], []))[0].append(j)
    for row in les:
        blocks[find(next(iter(row[0])))][1].append(row)
    return list(blocks.values())


def _solve_block(
    cols: list[int], les: list[_ColRow], free: set[int], budget: Budget
) -> dict[int, int] | None:
    """Branch and bound over one block: an integer point of its rows, or
    None."""
    start: _Box = {j: (None, None) if j in free else (0, None) for j in cols}
    wide: list[_ColRow] = []
    for coeffs, b in les:
        if len(coeffs) > 1:
            wide.append((coeffs, b))
            continue
        # normalised, so the one coefficient is +-1
        [(j, c)] = coeffs.items()
        lo, hi = start[j]
        if c > 0:
            start[j] = (lo, b if hi is None else min(hi, b))
        else:
            start[j] = (-b if lo is None else max(lo, -b), hi)
    if not wide:  # one column: the root alone, at its box's point nearest zero
        budget.draw(1, "lia")
        [(j, (lo, hi))] = start.items()
        if lo is not None and hi is not None and lo > hi:
            return None
        return {j: lo if lo is not None and lo > 0 else hi if hi is not None and hi < 0 else 0}
    lp = _Simplex(cols, wide)
    stack = [start]
    while stack:
        budget.draw(1, "lia")
        box = stack.pop()
        if any(lo is not None and hi is not None and lo > hi for lo, hi in box.values()):
            continue
        for j in cols:
            lp.set_bounds(j, *box[j])
        if not lp.check():
            continue
        frac = next((j for j in cols if lp.value[j].denominator != 1), None)
        if frac is None:
            return {j: int(lp.value[j]) for j in cols}
        val = lp.value[frac]
        floor_v = val.numerator // val.denominator
        lo, hi = box[frac]
        below, above = {**box, frac: (lo, floor_v)}, {**box, frac: (floor_v + 1, hi)}
        # explored first: the half nearer zero
        stack += [above, below] if val > 0 else [below, above]
    return None


def _add_columns(rows: list[Row], col_of: dict[LinVar, int], free: set[int]) -> None:
    """Give each unknown of the rows that has no column yet the next one,
    in (kind, name) order; the columns of ``int`` unknowns join ``free``."""
    new = {v for r in rows for v in r.coeffs if v not in col_of}
    for v in sorted(new):
        if v.kind == "int":
            free.add(len(col_of))
        col_of[v] = len(col_of)


def _column_rows(
    rows: list[Row], col_of: dict[LinVar, int]
) -> tuple[list[_ColRow], list[_ColRow]]:
    """The rows over columns, as equalities and inequalities."""
    eqs: list[_ColRow] = []
    les: list[_ColRow] = []
    for r in rows:
        coeffs = {col_of[v]: c for v, c in r.coeffs.items() if c}
        (eqs if r.relation == "eq" else les).append((coeffs, r.bound))
    return eqs, les


def _solve_blocks(
    les: list[_ColRow], free: set[int], budget: Budget
) -> list[tuple[_Block, dict[int, int]]] | None:
    """Each block with its integer point, or None when some block has
    none."""
    solved = []
    for block in _blocks(les):
        found = _solve_block(*block, free, budget)
        if found is None:
            return None
        solved.append((block, found))
    return solved


def lia_sat(
    rows: list[Row], groups: Iterable[list[Row]] = ([],), budget: Budget | None = None
) -> dict[LinVar, int] | None:
    """A nonnegative-integer model (``int`` kind ranging over all
    integers) of the rows and of the first group of rows that has one
    with them, or None when no group has one.

    The groups are a disjunction that all share ``rows``.  The shared rows
    are eliminated and their blocks solved once; when one of those blocks
    is infeasible, no group is pulled from ``groups`` at all.  Each group
    is then decided with only the shared blocks its rows touch.  Every
    node draws from ``budget``, a fresh one when none is given; raises
    ResourceExhausted when it runs out.
    """
    if budget is None:
        budget = Budget()
    col_of: dict[LinVar, int] = {}
    free: set[int] = set()
    fresh = count(-1, -1)  # columns that eliminations add, below the unknowns'
    _add_columns(rows, col_of, free)
    eqs, les = _column_rows(rows, col_of)
    try:
        les, elims = _eliminate_units(eqs, les, free, fresh)
    except _Infeasible:
        return None
    shared = _solve_blocks(les, free, budget)
    if shared is None:
        return None
    block_of = {j: i for i, (block, _) in enumerate(shared) for j in block[0]}

    for group in groups:
        if not group:
            solution = {j: v for _, found in shared for j, v in found.items()}
            return _model(solution, elims, col_of, free, rows)
        group_cols, group_free = dict(col_of), set(free)
        _add_columns(group, group_cols, group_free)
        geqs, gles = _column_rows(group, group_cols)
        try:
            for j, const, terms in elims:
                geqs = _substitute(geqs, j, const, terms, True)
                gles = _substitute(gles, j, const, terms, False)
            touched = {block_of[j] for row in geqs + gles for j in row[0] if j in block_of}
            for i in sorted(touched):
                gles += shared[i][0][1]
            gles, group_elims = _eliminate_units(geqs, gles, group_free, fresh)
        except _Infeasible:
            continue
        solved = _solve_blocks(gles, group_free, budget)
        if solved is None:
            continue
        solution = {
            j: v
            for i, (_, found) in enumerate(shared)
            if i not in touched
            for j, v in found.items()
        }
        for _, found in solved:
            solution.update(found)
        return _model(solution, elims + group_elims, group_cols, group_free, rows + group)
    return None


def _model(
    solution: dict[int, int],
    elims: list[tuple[int, int, dict[int, int]]],
    col_of: dict[LinVar, int],
    free: set[int],
    rows: list[Row],
) -> dict[LinVar, int]:
    """Back-substitute the eliminations, given in the order they were
    applied, latest first; read the unknowns' values and check them
    against the rows."""
    for j, const, terms in reversed(elims):
        v = const + sum(t * solution.get(k, 0) for k, t in terms.items())
        if v < 0 and j not in free:
            raise AssertionError(f"back-substitution gave column {j} the value {v}")
        solution[j] = v
    model = {v: solution.get(j, 0) for v, j in col_of.items()}
    for r in rows:
        total = sum(c * model[v] for v, c in r.coeffs.items())
        if not (total == r.bound if r.relation == "eq" else total <= r.bound):
            raise AssertionError(f"the model violates the row {r}")
    return model
