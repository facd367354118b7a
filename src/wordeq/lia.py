"""Exact integer feasibility for conjunctions of linear rows.

All unknowns are nonnegative except ``int``-kind variables, which are
internally split into a difference of two nonnegative columns.

The search is complete.  Every row is normalised once: equalities whose
coefficient gcd does not divide the bound are refuted and inequalities
are tightened by their gcd.  Equalities with a +-1 coefficient are then
eliminated by exact substitution, and only the rows a substitution
touched are normalised again.

The remaining rows split into independent blocks, the connected
components of the rows over their columns; the two columns of a split
unknown always share a block.  Each block is decided on its own by
branch and bound, and the first infeasible block refutes the call.
Ceiling branches beyond the block's small-model bound are pruned, which
keeps the tree finite without giving up completeness, and so is a node
where some equality, with the columns its box pins moved to the bound,
has a bound that the gcd of its other coefficients does not divide.

A call may also take a disjunction of row groups that all share its
rows.  The shared rows are normalised, eliminated, split and solved once,
and an infeasible shared block refutes the call before any group is
pulled.  Each group, pulled one at a time, gets the shared eliminations
substituted in; then only its rows and the shared blocks they touch are
eliminated and searched again, while the untouched blocks keep their
shared solution.  The first group with a model ends the call.

Every branch-and-bound node, over all blocks and groups, draws one unit
from the call's ``Budget``, which ``check_sat`` shares with its other
layers.  Running out raises ResourceExhausted and ends the call, so a
pathological instance is never answered by a guess.

A block keeps one bounded-variable simplex across all of its nodes
(Dutertre and de Moura, *A Fast Linear-Arithmetic Solver for DPLL(T)*,
CAV 2006).  The tableau is built once, with sparse rows and one slack
per row; a structural column lies in [0, inf), a pinned split column in
[0, 0], and a slack is <= b for an inequality and = b for an equality.
A node only moves the column bounds to its box and repairs the current
basis.  The repair pivots by Bland's rule (the smallest violating basic
variable, then the smallest eligible nonbasic one), so it terminates.
Arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable

from .errors import Budget, CoefficientOverflow
from .lengths import LinVar, Row
from .parser import INT64_MAX, INT64_MIN

_ColRow = tuple[dict[int, int], int]  # sparse coeffs over columns, bound
_Box = dict[int, tuple[int, int | None]]  # per-column integer bounds
# columns, equalities, inequalities and split pairs of one block
_Block = tuple[list[int], list[_ColRow], list[_ColRow], list[tuple[int, int]]]


def _validate(rows: list[Row]) -> None:
    """Each row, divided by the gcd of its coefficients as it will be
    solved, must fit in 64 bits."""
    for row in rows:
        g = gcd(*row.coeffs.values()) or 1
        for c in row.coeffs.values():
            if not INT64_MIN <= c // g <= INT64_MAX:
                raise CoefficientOverflow(f"coefficient {c // g} exceeds 64 bits")
        if not INT64_MIN <= row.bound // g <= INT64_MAX:
            raise CoefficientOverflow(f"bound {row.bound // g} exceeds 64 bits")


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


def _eliminate_units(
    eqs: list[_ColRow], les: list[_ColRow]
) -> tuple[list[_ColRow], list[_ColRow], list[tuple[int, int, dict[int, int]]]]:
    """Remove equalities with a +-1 coefficient by exact substitution.

    Returns the reduced, normalised system plus the eliminations (column,
    constant, terms) in the order they were applied; back-substitute in
    reverse.
    """
    eqs = _normalize_all(eqs, True)
    les = _normalize_all(les, False)
    elims: list[tuple[int, int, dict[int, int]]] = []
    while True:
        pick = None
        for i, (coeffs, b) in enumerate(eqs):
            units = [j for j, c in coeffs.items() if abs(c) == 1]
            if units:
                pick = (i, min(units))
                break
        if pick is None:
            return eqs, les, elims
        i, j = pick
        coeffs, b = eqs.pop(i)
        a = coeffs[j]  # x_j = a*b - sum a*c_k x_k   (a is +-1)
        const = a * b
        terms = {k: -a * c for k, c in coeffs.items() if k != j}
        eqs = _substitute(eqs, j, const, terms, True)
        les = _substitute(les, j, const, terms, False)
        # x_j >= 0 must survive the elimination
        les.extend(_normalize_all([({k: -t for k, t in terms.items()}, const)], False))
        elims.append((j, const, terms))


class _Simplex:
    """A bounded-variable simplex over one block.

    The variables are the block's columns and, numbered after them, one
    slack per row; Bland's rule orders them by number.  ``rows`` holds one
    sparse row per basic variable, expressing it over the nonbasic ones;
    ``value`` satisfies every row, and every nonbasic variable lies within
    its bounds.
    """

    def __init__(self, cols: list[int], eqs: list[_ColRow], les: list[_ColRow]) -> None:
        self.lo: dict[int, int | None] = dict.fromkeys(cols, 0)
        self.hi: dict[int, int | None] = dict.fromkeys(cols)
        self.value: dict[int, Fraction] = dict.fromkeys(cols, Fraction(0))
        # coefficients start as ints and become Fractions as pivots divide
        self.rows: dict[int, dict[int, Fraction | int]] = {}
        slack = cols[-1]
        for rows, eq in ((eqs, True), (les, False)):
            for coeffs, b in rows:
                slack += 1
                self.lo[slack] = b if eq else None
                self.hi[slack] = b
                self.value[slack] = Fraction(0)
                self.rows[slack] = dict(coeffs)

    def set_bounds(self, j: int, lo: int, hi: int | None) -> None:
        """Bound column j to [lo, hi]; a nonbasic column moves inside."""
        self.lo[j] = lo
        self.hi[j] = hi
        if j in self.rows:
            return
        v = self.value[j]
        if v < lo:
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


def _small_model_bound(les: list[_ColRow], ncols: int) -> int:
    amax = 2
    for coeffs, b in les:
        for c in coeffs.values():
            amax = max(amax, abs(c))
        amax = max(amax, abs(b))
    m = len(les)
    return (ncols + 2) * ((m + 2) * amax) ** (2 * m + 3)


def _blocks(
    eqs: list[_ColRow], les: list[_ColRow], pairs: list[tuple[int, int]]
) -> list[_Block]:
    """The connected components of the rows over their columns, in the
    order of their smallest column."""
    parent: dict[int, int] = {}

    def find(j: int) -> int:
        parent.setdefault(j, j)
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    for coeffs, _ in eqs + les:
        first, *rest = coeffs
        root = find(first)
        for k in rest:
            parent[find(k)] = root
    pairs = [(jp, jm) for jp, jm in pairs if jp in parent and jm in parent]
    for jp, jm in pairs:
        parent[find(jm)] = find(jp)

    blocks: dict[int, _Block] = {}
    for j in sorted(parent):
        blocks.setdefault(find(j), ([], [], [], []))[0].append(j)
    for part, rows in ((1, eqs), (2, les)):
        for row in rows:
            blocks[find(next(iter(row[0])))][part].append(row)
    for pair in pairs:
        blocks[find(pair[0])][3].append(pair)
    return list(blocks.values())


def _divisible(eqs: list[_ColRow], box: _Box) -> bool:
    """Whether every equality, with the columns the box pins moved to its
    bound, still has a bound divisible by the gcd of its other
    coefficients (an equality with none left must hold exactly)."""
    for coeffs, b in eqs:
        g = 0
        for j, c in coeffs.items():
            lo, hi = box.get(j, (0, None))
            if lo == hi:
                b -= c * lo
            else:
                g = gcd(g, c)
        if b % g != 0 if g else b != 0:
            return False
    return True


def _solve_block(
    cols: list[int],
    eqs: list[_ColRow],
    les: list[_ColRow],
    pairs: list[tuple[int, int]],
    budget: Budget,
) -> dict[int, int] | None:
    """Branch and bound over one block: an integer point of its rows, or
    None."""
    ubound = _small_model_bound(les + eqs + eqs, len(cols))  # eq = two les
    lp = _Simplex(cols, eqs, les)
    # Every row keeps opposite coefficients on the two columns of a split
    # integer unknown, so any solution shifts down to one with
    # min(plus, minus) = 0.  Pinning one column per pair to zero keeps the
    # search complete and removes the (+1, +1) ray along which column
    # branching would never separate a fractional difference.
    stack: list[_Box] = [{}]
    for jp, jm in pairs:
        stack = [{**box, pin: (0, 0)} for box in stack for pin in (jp, jm)]
    while stack:
        budget.draw(1, "lia")
        box = stack.pop()
        if any(lo > ubound or (hi is not None and lo > hi) for lo, hi in box.values()):
            continue
        if not _divisible(eqs, box):
            continue
        for j in cols:
            lp.set_bounds(j, *box.get(j, (0, None)))
        if not lp.check():
            continue
        frac = next((j for j in cols if lp.value[j].denominator != 1), None)
        if frac is None:
            return {j: int(lp.value[j]) for j in cols}
        val = lp.value[frac]
        floor_v = val.numerator // val.denominator
        lo, hi = box.get(frac, (0, None))
        stack.append({**box, frac: (max(lo, floor_v + 1), hi)})
        # explored first: prefer small values
        stack.append({**box, frac: (lo, floor_v if hi is None else min(hi, floor_v))})
    return None


def _add_columns(rows: list[Row], cols_of: dict[LinVar, list[tuple[int, int]]], ncols: int) -> int:
    """Give each unknown of the rows that has no columns yet its columns,
    numbered from ``ncols`` in (kind, name) order: one per nonnegative
    unknown, two per free integer one.  Returns the new column count."""
    new = {v for r in rows for v in r.coeffs if v not in cols_of}
    for v in sorted(new, key=lambda v: (v.kind, v.name)):
        if v.kind == "int":
            cols_of[v] = [(ncols, 1), (ncols + 1, -1)]
            ncols += 2
        else:
            cols_of[v] = [(ncols, 1)]
            ncols += 1
    return ncols


def _column_rows(
    rows: list[Row], cols_of: dict[LinVar, list[tuple[int, int]]]
) -> tuple[list[_ColRow], list[_ColRow]]:
    """The rows over columns, as equalities and inequalities."""
    eqs: list[_ColRow] = []
    les: list[_ColRow] = []
    for r in rows:
        coeffs: dict[int, int] = {}
        for v, c in r.coeffs.items():
            if c:
                for j, sign in cols_of[v]:
                    coeffs[j] = sign * c
        (eqs if r.relation == "eq" else les).append((coeffs, r.bound))
    return eqs, les


def _solve_blocks(
    eqs: list[_ColRow], les: list[_ColRow], pairs: list[tuple[int, int]], budget: Budget
) -> list[tuple[_Block, dict[int, int]]] | None:
    """Each block with its integer point, or None when some block has
    none."""
    solved = []
    for block in _blocks(eqs, les, pairs):
        found = _solve_block(*block, budget)
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
    _validate(rows)
    cols_of: dict[LinVar, list[tuple[int, int]]] = {}
    ncols = _add_columns(rows, cols_of, 0)
    eqs, les = _column_rows(rows, cols_of)
    try:
        eqs, les, elims = _eliminate_units(eqs, les)
    except _Infeasible:
        return None
    pairs = [(cols[0][0], cols[1][0]) for cols in cols_of.values() if len(cols) == 2]
    shared = _solve_blocks(eqs, les, pairs, budget)
    if shared is None:
        return None
    block_of = {j: i for i, (block, _) in enumerate(shared) for j in block[0]}

    for group in groups:
        _validate(group)
        group_cols = dict(cols_of)
        _add_columns(group, group_cols, ncols)
        geqs, gles = _column_rows(group, group_cols)
        try:
            for j, const, terms in elims:
                geqs = _substitute(geqs, j, const, terms, True)
                gles = _substitute(gles, j, const, terms, False)
            touched = {block_of[j] for row in geqs + gles for j in row[0] if j in block_of}
            for i in sorted(touched):
                _, block_eqs, block_les, _ = shared[i][0]
                geqs += block_eqs
                gles += block_les
            geqs, gles, group_elims = _eliminate_units(geqs, gles)
        except _Infeasible:
            continue
        group_pairs = [(c[0][0], c[1][0]) for c in group_cols.values() if len(c) == 2]
        solved = _solve_blocks(geqs, gles, group_pairs, budget)
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
        return _model(solution, elims + group_elims, group_cols, rows + group)
    return None


def _model(
    solution: dict[int, int],
    elims: list[tuple[int, int, dict[int, int]]],
    cols_of: dict[LinVar, list[tuple[int, int]]],
    rows: list[Row],
) -> dict[LinVar, int]:
    """Back-substitute the eliminations, given in the order they were
    applied, latest first; rebuild the unknowns' values and check them
    against the rows."""
    for j, const, terms in reversed(elims):
        v = const + sum(t * solution.get(k, 0) for k, t in terms.items())
        if v < 0:
            raise AssertionError(f"back-substitution gave column {j} the value {v}")
        solution[j] = v
    model = {v: sum(sign * solution.get(j, 0) for j, sign in cols) for v, cols in cols_of.items()}
    for r in rows:
        total = sum(c * model[v] for v, c in r.coeffs.items())
        if not (total == r.bound if r.relation == "eq" else total <= r.bound):
            raise AssertionError(f"the model violates the row {r}")
    return model
