"""Exact integer feasibility for conjunctions of linear rows.

The search is complete: preprocessing removes divisibility-infeasible
equalities and tightens inequalities by their coefficient gcd, unit
equalities are eliminated by exact substitution, and the rest goes to
branch-and-bound over an exact-rational phase-1 simplex (Bland's rule, so
every LP call terminates).  Ceiling branches beyond the small-model bound
are pruned, which keeps the tree finite without giving up completeness;
a node budget turns pathological instances into ResourceExhausted instead
of a silent wrong answer.

All unknowns are nonnegative except ``int``-kind variables, which are
internally split into a difference of two nonnegative columns.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import CoefficientOverflow, ResourceExhausted
from .lengths import LinVar, Row

_INT64 = 2**63 - 1

# The most branch-and-bound nodes one call explores.
MAX_NODES = 10**6

_ColRow = tuple[dict[int, int], int]  # sparse coeffs over columns, bound


def _validate(rows: list[Row]) -> None:
    for row in rows:
        for c in row.coeffs.values():
            if abs(c) > _INT64:
                raise CoefficientOverflow(f"coefficient {c} exceeds 64 bits")
        if abs(row.bound) > _INT64:
            raise CoefficientOverflow(f"bound {row.bound} exceeds 64 bits")


def _row_gcd(coeffs: dict[int, int]) -> int:
    g = 0
    for c in coeffs.values():
        g = gcd(g, abs(c))
    return g


class _Infeasible(Exception):
    pass


def _normalize(
    eqs: list[_ColRow], les: list[_ColRow]
) -> tuple[list[_ColRow], list[_ColRow]]:
    out_eqs: list[_ColRow] = []
    for coeffs, b in eqs:
        coeffs = {j: c for j, c in coeffs.items() if c != 0}
        if not coeffs:
            if b != 0:
                raise _Infeasible
            continue
        g = _row_gcd(coeffs)
        if b % g != 0:
            raise _Infeasible
        out_eqs.append(({j: c // g for j, c in coeffs.items()}, b // g))
    out_les: list[_ColRow] = []
    for coeffs, b in les:
        coeffs = {j: c for j, c in coeffs.items() if c != 0}
        if not coeffs:
            if b < 0:
                raise _Infeasible
            continue
        g = _row_gcd(coeffs)
        # floor division tightens: g*x <= b  <=>  x <= floor(b/g)
        out_les.append(({j: c // g for j, c in coeffs.items()}, b // g))
    return out_eqs, out_les


def _substitute(
    row: _ColRow, j: int, const: int, terms: dict[int, int]
) -> _ColRow:
    coeffs, b = row
    if j not in coeffs:
        return row
    cj = coeffs[j]
    out = {k: c for k, c in coeffs.items() if k != j}
    for k, t in terms.items():
        out[k] = out.get(k, 0) + cj * t
        if out[k] == 0:
            del out[k]
    return out, b - cj * const


def _eliminate_units(
    eqs: list[_ColRow], les: list[_ColRow]
) -> tuple[list[_ColRow], list[_ColRow], list[tuple[int, int, dict[int, int]]]]:
    """Remove equalities with a +-1 coefficient by exact substitution.

    Returns the reduced system plus the eliminations (column, constant,
    terms) in the order they were applied; back-substitute in reverse.
    """
    elims: list[tuple[int, int, dict[int, int]]] = []
    while True:
        eqs, les = _normalize(eqs, les)
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
        eqs = [_substitute(r, j, const, terms) for r in eqs]
        les = [_substitute(r, j, const, terms) for r in les]
        # x_j >= 0 must survive the elimination
        les.append(({k: -t for k, t in terms.items()}, const))
        elims.append((j, const, terms))


def _simplex_feasible(
    les: list[_ColRow], cols: list[int]
) -> dict[int, Fraction] | None:
    """Phase-1 simplex; a vertex of the relaxation or None."""
    col_pos = {j: k for k, j in enumerate(cols)}
    n = len(cols)
    m = len(les)
    width = n + m  # structural + slack; artificials appended as needed
    tableau: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    basis: list[int] = []
    art_cols: list[int] = []
    for i, (coeffs, b) in enumerate(les):
        row = [Fraction(0)] * width
        for j, c in coeffs.items():
            row[col_pos[j]] = Fraction(c)
        row[n + i] = Fraction(1)
        if b >= 0:
            tableau.append(row)
            rhs.append(Fraction(b))
            basis.append(n + i)
        else:
            tableau.append([-x for x in row])
            rhs.append(Fraction(-b))
            basis.append(-1)  # placeholder, artificial added below
    for i in range(m):
        if basis[i] != -1:
            continue
        for r in range(m):
            tableau[r].append(Fraction(1) if r == i else Fraction(0))
        art_cols.append(width)
        basis[i] = width
        width += 1

    art_set = set(art_cols)
    obj = [Fraction(0)] * width
    obj_rhs = Fraction(0)
    for i in range(m):
        if basis[i] in art_set:
            for k in range(width):
                obj[k] += tableau[i][k]
            obj_rhs += rhs[i]
    for k in art_cols:
        obj[k] = Fraction(0)

    dead: set[int] = set()
    while True:
        enter = -1
        for k in range(width):
            if k in dead or k in art_set and k not in set(basis):
                continue
            if obj[k] > 0:
                enter = k
                break
        if enter == -1:
            break
        leave = -1
        best: Fraction | None = None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                ratio = rhs[i] / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave == -1:
            # the phase-1 objective is bounded below, so this cannot happen
            raise AssertionError("unbounded phase-1 pivot")
        piv = tableau[leave][enter]
        tableau[leave] = [x / piv for x in tableau[leave]]
        rhs[leave] /= piv
        for i in range(m):
            if i != leave and tableau[i][enter] != 0:
                f = tableau[i][enter]
                tableau[i] = [x - f * y for x, y in zip(tableau[i], tableau[leave])]
                rhs[i] -= f * rhs[leave]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [x - f * y for x, y in zip(obj, tableau[leave])]
            obj_rhs -= f * rhs[leave]
        if basis[leave] in art_set:
            dead.add(basis[leave])
        basis[leave] = enter

    if obj_rhs != 0:
        return None
    values: dict[int, Fraction] = {}
    for i in range(m):
        if basis[i] < n:
            values[cols[basis[i]]] = rhs[i]
    return values


def _small_model_bound(les: list[_ColRow], ncols: int) -> int:
    amax = 2
    for coeffs, b in les:
        for c in coeffs.values():
            amax = max(amax, abs(c))
        amax = max(amax, abs(b))
    m = len(les)
    return (ncols + 2) * ((m + 2) * amax) ** (2 * m + 3)


def lia_sat(rows: list[Row]) -> dict[LinVar, int] | None:
    """A nonnegative-integer model of the rows (``int`` kind ranging over
    all integers), or None when none exists."""
    _validate(rows)

    # columns: one per nonnegative unknown, two per free integer unknown
    variables = sorted(
        {v for r in rows for v in r.coeffs}, key=lambda v: (v.kind, v.name)
    )
    cols_of: dict[LinVar, list[tuple[int, int]]] = {}
    ncols = 0
    for v in variables:
        if v.kind == "int":
            cols_of[v] = [(ncols, 1), (ncols + 1, -1)]
            ncols += 2
        else:
            cols_of[v] = [(ncols, 1)]
            ncols += 1

    eqs: list[_ColRow] = []
    les: list[_ColRow] = []
    for r in rows:
        coeffs: dict[int, int] = {}
        for v, c in r.coeffs.items():
            for j, sign in cols_of[v]:
                coeffs[j] = coeffs.get(j, 0) + c * sign
        (eqs if r.relation == "eq" else les).append((coeffs, r.bound))

    try:
        eqs, les, elims = _eliminate_units(eqs, les)
    except _Infeasible:
        return None

    base_les = list(les)
    for coeffs, b in eqs:
        base_les.append((coeffs, b))
        base_les.append(({j: -c for j, c in coeffs.items()}, -b))
    live_cols = sorted({j for coeffs, _ in base_les for j in coeffs})
    ubound = _small_model_bound(base_les, len(live_cols)) if live_cols else 0

    solution: dict[int, int] | None = None
    if not live_cols:
        solution = {}
    else:
        # Every row keeps opposite coefficients on the two columns of a
        # split integer unknown, so any solution shifts down to one with
        # min(plus, minus) = 0.  Pinning one column per pair to zero keeps
        # the search complete and removes the (+1, +1) ray along which
        # column branching would never separate a fractional difference.
        live = set(live_cols)
        split_pairs = [
            (cols[0][0], cols[1][0])
            for v, cols in cols_of.items()
            if v.kind == "int" and cols[0][0] in live and cols[1][0] in live
        ]
        roots: list[dict[int, tuple[int, int | None]]] = [{}]
        for jp, jm in split_pairs:
            roots = [
                {**box, pin: (0, 0)} for box in roots for pin in (jp, jm)
            ]

        # branch and bound; nodes carry per-column integer bounds
        stack = roots
        nodes = 0
        while stack:
            nodes += 1
            if nodes > MAX_NODES:
                raise ResourceExhausted("integer search exceeded its node budget")
            box = stack.pop()
            rows_here = list(base_les)
            infeasible_box = False
            for j, (lo, hi) in box.items():
                if lo > ubound or (hi is not None and lo > hi):
                    infeasible_box = True
                    break
                if lo > 0:
                    rows_here.append(({j: -1}, -lo))
                if hi is not None:
                    rows_here.append(({j: 1}, hi))
            if infeasible_box:
                continue
            vertex = _simplex_feasible(rows_here, live_cols)
            if vertex is None:
                continue
            frac = None
            for j in live_cols:
                val = vertex.get(j, Fraction(0))
                if val.denominator != 1:
                    frac = (j, val)
                    break
            if frac is None:
                solution = {
                    j: int(vertex.get(j, Fraction(0))) for j in live_cols
                }
                break
            j, val = frac
            floor_v = val.numerator // val.denominator
            lo, hi = box.get(j, (0, None))
            up = dict(box)
            up[j] = (max(lo, floor_v + 1), hi)
            down = dict(box)
            down[j] = (lo, floor_v if hi is None else min(hi, floor_v))
            stack.append(up)
            stack.append(down)  # explored first: prefer small values

    if solution is None:
        return None

    # back-substitute eliminated columns, then rebuild variable values
    for j, const, terms in reversed(elims):
        v = const + sum(t * solution.get(k, 0) for k, t in terms.items())
        if v < 0:
            raise AssertionError(f"back-substitution gave column {j} the value {v}")
        solution[j] = v
    model: dict[LinVar, int] = {}
    for v in variables:
        model[v] = sum(sign * solution.get(j, 0) for j, sign in cols_of[v])
    for r in rows:
        total = sum(c * model[v] for v, c in r.coeffs.items())
        if not (total == r.bound if r.relation == "eq" else total <= r.bound):
            raise AssertionError(f"the model violates the row {r}")
    return model
