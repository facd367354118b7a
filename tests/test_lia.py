"""Integer feasibility over length rows."""

import random
from itertools import chain, product
from math import gcd

import pytest

from helpers import box_has_solution
import wordeq.errors as errors
from wordeq.errors import Budget, ResourceExhausted
from wordeq.lengths import LinVar, Row, int_var, len_var, param_var
from wordeq import lia
from wordeq.lia import lia_sat


def x(name="x"):
    return len_var(name)


def verify(rows, model):
    for row in rows:
        total = sum(c * model.get(v, 0) for v, c in row.coeffs.items())
        if row.relation == "eq":
            assert total == row.bound, row
        else:
            assert total <= row.bound, row
    for v, value in model.items():
        if v.kind != "int":
            assert value >= 0, v


def test_simple_equalities():
    rows = [
        Row({x("a"): 1, x("b"): 1}, "eq", 5),
        Row({x("a"): 1, x("b"): -1}, "eq", 1),
    ]
    model = lia_sat(rows)
    assert model == {x("a"): 3, x("b"): 2}


def test_nonnegativity_of_length_kinds():
    assert lia_sat([Row({x(): 1}, "le", -1)]) is None
    assert lia_sat([Row({param_var("i"): 1}, "eq", -2)]) is None
    # int-kind unknowns range over all of Z
    model = lia_sat([Row({int_var("n"): 1}, "le", -5)])
    assert model is not None and model[int_var("n")] <= -5


def test_divisibility_pruning():
    assert lia_sat([Row({x(): 2}, "eq", 1)]) is None
    assert lia_sat([Row({x(): 2, x("y"): 4}, "eq", 6)]) is not None
    # gcd tightening on inequalities: 3x <= 2 forces x = 0
    model = lia_sat([Row({x(): 3}, "le", 2), Row({x(): -1}, "le", 0)])
    assert model is not None and model.get(x(), 0) == 0


def test_infeasible_between_bounds():
    # 2 <= 3x <= 2 has no integer point: 3x = 2 is impossible
    rows = [Row({x(): 3}, "le", 2), Row({x(): -3}, "le", -2)]
    assert lia_sat(rows) is None


def test_mixed_system_with_free_integers():
    # len(X) = 2i + 1, len(X) <= 7, n = len(X) - 10 (so n < 0)
    rows = [
        Row({x("X"): 1, param_var("i"): -2}, "eq", 1),
        Row({x("X"): 1}, "le", 7),
        Row({int_var("n"): 1, x("X"): -1}, "eq", -10),
    ]
    model = lia_sat(rows)
    assert model is not None
    verify(rows, model)
    assert model[int_var("n")] == model[x("X")] - 10 < 0


def test_fractional_free_integer_terminates():
    # the only integer gap is on a free integer column, which branching
    # must close from both sides of its fractional value
    from wordeq.lengths import part_var

    rows = [
        Row({x("L"): 2, part_var("P"): 3, int_var("n0"): -1, int_var("n1"): -3}, "le", -5),
        Row({x("L"): 1, int_var("n0"): 1, int_var("n1"): 3, part_var("P"): 2}, "eq", 7),
        Row({x("L"): 1, int_var("n0"): -2, int_var("n1"): 3}, "eq", -8),
    ]
    # rationally feasible (L = 1/2, n1 = 1/2) but integer-infeasible:
    # the equalities force 3*n0 + 2*P = 15, and the remaining rows then
    # squeeze n1 into the empty interval [4/9, 2/3]
    assert lia_sat(rows) is None


def test_free_columns_refuted_at_the_root():
    # 2(n0 + ... + n17) <= -1 and >= 1: the relaxation is infeasible, so
    # the root node decides it however many int unknowns there are
    ns = [int_var(f"n{i}") for i in range(18)]
    rows = [Row(dict.fromkeys(ns, 2), "le", -1), Row(dict.fromkeys(ns, -2), "le", -1)]
    budget = Budget()
    assert lia_sat(rows, budget=budget) is None
    assert errors.WORK_BUDGET - budget.left == 1


def test_empty_and_constant_rows():
    assert lia_sat([]) == {}
    assert lia_sat([Row({}, "le", 0)]) == {}
    assert lia_sat([Row({}, "eq", 1)]) is None
    assert lia_sat([Row({}, "le", -1)]) is None


def test_rows_past_64_bits_are_solved_exactly():
    # rows that do not fit in 64 bits, even divided by their gcd
    y = x("y")
    assert lia_sat([Row({x(): 2**64, y: 1}, "eq", 0)]) == {x(): 0, y: 0}
    assert lia_sat([Row({x(): 1}, "le", 2**63)]) == {x(): 0}
    assert lia_sat([Row({x(): 1}, "le", -(2**63) - 1)]) is None
    assert lia_sat([Row({x(): -(2**63) - 1, y: 1}, "le", 0)]) == {x(): 0, y: 0}
    # divided by their gcd, these rows are x = 0 and -x <= 0
    assert lia_sat([Row({x(): 2**64}, "eq", 0)]) == {x(): 0}
    assert lia_sat([Row({x(): -(2**63) - 1}, "le", 0)]) == {x(): 0}
    n = int_var("n")
    for rows in ([Row({n: 1}, "le", -(2**63))], [Row({n: -(2**63)}, "le", -(2**63))]):
        model = lia_sat(rows)
        assert model is not None
        verify(rows, model)
    # tightened by its gcd 2^70 to n <= -1025
    assert lia_sat([Row({n: 2**70}, "le", -(2**80) - 1)]) == {n: -1025}
    # a x + (a + 1) y = 8 a + 5 with a = 2^65 has the one model x = 3, y = 5
    a = 2**65
    assert lia_sat([Row({x(): a, y: a + 1}, "eq", 8 * a + 5)]) == {x(): 3, y: 5}
    # the gcd 3 of the coefficients does not divide 2^70
    assert lia_sat([Row({x(): 3 * 2**64, y: 3 * 2**65 + 3}, "eq", 2**70)]) is None
    # no coefficient is +-1, and the least models are past 64 bits
    assert lia_sat([Row({x(): a, y: -(a + 1)}, "eq", 1)]) == {x(): a, y: a - 1}
    c = 2**64
    assert lia_sat([Row({x(): c + 1, y: -c}, "eq", 4 * c + 1)]) == {x(): c + 1, y: c - 2}


def test_equalities_over_free_columns_are_sat_when_the_gcd_divides():
    # over free columns an equality has an integer point exactly when the
    # gcd of its coefficients divides its bound, however large they are; a
    # common factor makes some bounds miss it
    rng = random.Random(606)
    verdicts = set()
    for _ in range(300):
        factor = rng.choice((1, 1, 2, 3, 5))
        cols = [int_var(f"n{k}") for k in range(rng.randint(2, 3))]
        coeffs = {v: factor * rng.choice((-1, 1)) * rng.randint(1, 2**62 // factor) for v in cols}
        bound = rng.randint(-(2**62), 2**62)
        rows = [Row(coeffs, "eq", bound)]
        model = lia_sat(rows)
        assert (model is not None) == (bound % gcd(*coeffs.values()) == 0), rows
        if model is not None:
            verify(rows, model)
        verdicts.add(model is not None)
    assert verdicts == {True, False}


def test_models_always_verify():
    rng = random.Random(601)
    kinds = [len_var, param_var, part_var_maker, int_var]
    for _ in range(300):
        names = [f"v{i}" for i in range(rng.randint(1, 4))]
        cols = [rng.choice(kinds)(n) for n in names]
        rows = []
        for _ in range(rng.randint(1, 4)):
            coeffs = {
                v: rng.randint(-3, 3)
                for v in rng.sample(cols, rng.randint(1, len(cols)))
            }
            coeffs = {v: c for v, c in coeffs.items() if c}
            if not coeffs:
                continue
            rows.append(Row(coeffs, rng.choice(("eq", "le")), rng.randint(-8, 8)))
        model = lia_sat(rows)
        if model is not None:
            verify(rows, model)


def part_var_maker(name):
    from wordeq.lengths import part_var

    return part_var(name)


def test_differential_against_box_enumeration():
    # bounded systems: every unknown capped, so the box scan is complete
    rng = random.Random(602)
    for _ in range(250):
        names = [f"v{i}" for i in range(rng.randint(1, 3))]
        cols = [len_var(n) if rng.random() < 0.7 else param_var(n) for n in names]
        rows = []
        for _ in range(rng.randint(1, 3)):
            coeffs = {
                v: rng.randint(-3, 3)
                for v in rng.sample(cols, rng.randint(1, len(cols)))
            }
            coeffs = {v: c for v, c in coeffs.items() if c}
            if coeffs:
                rows.append(Row(coeffs, rng.choice(("eq", "le")), rng.randint(-6, 6)))
        for v in cols:
            rows.append(Row({v: 1}, "le", 9))
        box = box_has_solution(rows, cols, 0, 9)
        model = lia_sat(rows)
        assert (model is None) == (box is None), rows
        if model is not None:
            verify(rows, model)


# ---------------------------------------------------------------------------
# independent blocks and the kept simplex


def frobenius_rows(targets):
    """6|A_j| + 10|B_j| + 15|C_j| = c_j: one block per target.  29 is the
    Frobenius number of 6, 10 and 15, and 31 = 6 + 10 + 15."""
    return [
        Row({x(f"A{j}"): 6, x(f"B{j}"): 10, x(f"C{j}"): 15}, "eq", c)
        for j, c in enumerate(targets)
    ]


@pytest.mark.parametrize(
    "targets, sat",
    [((31, 31, 29), False), ((29, 31, 31), False), ((31, 31, 31), True)],
)
def test_multi_component_frobenius(targets, sat):
    rows = frobenius_rows(targets)
    model = lia_sat(rows)
    assert (model is not None) == sat
    if model is not None:
        verify(rows, model)


def nodes_needed(rows, monkeypatch):
    """The smallest work budget under which lia_sat decides the rows."""
    for limit in range(1, 10_000):
        monkeypatch.setattr(errors, "WORK_BUDGET", limit)
        try:
            return limit, lia_sat(rows)
        except ResourceExhausted:
            continue
    raise AssertionError("no work budget up to 10 000 decides the rows")


def frobenius_inequalities(j):
    """6|A_j| + 10|B_j| + 15|C_j| = 31 as two inequalities, so that branch
    and bound decides it and elimination does not: the upper one also has
    |D_j|, which 2|D_j| <= 1 pins to 0, so the two are not exact opposites
    and are not paired into an equality."""
    a, b, c, d = (x(f"{name}{j}") for name in "ABCD")
    return [
        Row({a: -6, b: -10, c: -15}, "le", -31),
        Row({a: 6, b: 10, c: 15, d: 1}, "le", 31),
        Row({d: 2}, "le", 1),
    ]


def test_node_limit_counts_nodes_summed_over_blocks(monkeypatch):
    first, second = frobenius_inequalities(0), frobenius_inequalities(1)
    need_first, model_first = nodes_needed(first, monkeypatch)
    need_second, model_second = nodes_needed(second, monkeypatch)
    assert need_first > 1 and need_second > 1  # both blocks branch
    assert model_first is not None and model_second is not None

    joint = first + second
    monkeypatch.setattr(errors, "WORK_BUDGET", need_first + need_second)
    model = lia_sat(joint)
    assert model is not None
    verify(joint, model)
    monkeypatch.setattr(errors, "WORK_BUDGET", need_first + need_second - 1)
    with pytest.raises(ResourceExhausted, match="work budget exhausted in lia"):
        lia_sat(joint)


def enumerate_block(rows, unknowns, cap):
    """First point with every nonnegative unknown in [0, cap] and every
    int unknown in [-cap, cap] that satisfies the rows, or None."""
    ranges = [range(-cap if v.kind == "int" else 0, cap + 1) for v in unknowns]
    for point in product(*ranges):
        val = dict(zip(unknowns, point))
        if all(
            (total == r.bound if r.relation == "eq" else total <= r.bound)
            for r in rows
            for total in [sum(c * val[v] for v, c in r.coeffs.items())]
        ):
            return val
    return None


def test_blocks_differential_against_box_enumeration():
    # 2-3 blocks on disjoint unknowns, each unknown capped so that the
    # box scan of each block is complete; the system is feasible exactly
    # when every block is
    rng = random.Random(603)
    kinds = [len_var, param_var, part_var_maker, int_var]
    cap = 3
    sats = 0
    for case in range(300):
        nblocks = rng.randint(2, 3)
        total = rng.randint(max(4, nblocks), 6)
        sizes = [1] * nblocks
        for _ in range(total - nblocks):
            sizes[rng.randrange(nblocks)] += 1
        blocks = []
        for b, size in enumerate(sizes):
            unknowns = [rng.choice(kinds)(f"u{b}_{k}") for k in range(size)]
            rows = []
            for _ in range(rng.randint(1, 3)):
                coeffs = {v: rng.randint(-3, 3) for v in unknowns if rng.random() < 0.8}
                coeffs = {v: c for v, c in coeffs.items() if c}
                if coeffs:
                    rows.append(Row(coeffs, rng.choice(("eq", "le")), rng.randint(-6, 6)))
            for v in unknowns:
                rows.append(Row({v: 1}, "le", cap))
                if v.kind == "int":
                    rows.append(Row({v: -1}, "le", cap))
            blocks.append((rows, unknowns))
        joint = [row for rows, _ in blocks for row in rows]
        rng.shuffle(joint)
        want = all(enumerate_block(rows, unknowns, cap) is not None for rows, unknowns in blocks)
        model = lia_sat(joint)
        assert (model is not None) == want, (case, joint)
        if model is not None:
            sats += 1
            verify(joint, model)
    assert 30 < sats < 270  # both verdicts are exercised


def test_degenerate_rows_against_box_enumeration():
    # duplicated rows and zero right-hand sides give ties and zero-length
    # pivots, which Bland's rule must step through without cycling
    rng = random.Random(604)
    cap = 4
    for case in range(200):
        unknowns = [
            rng.choice((len_var, param_var, int_var))(f"v{k}") for k in range(rng.randint(2, 4))
        ]
        rows = []
        for _ in range(rng.randint(2, 4)):
            coeffs = {v: rng.choice((-3, -2, 2, 3)) for v in unknowns if rng.random() < 0.7}
            if not coeffs:
                continue
            row = Row(coeffs, rng.choice(("eq", "le", "le")), 0 if rng.random() < 0.7 else rng.randint(-5, 5))
            rows.extend([row] * rng.randint(1, 3))
        for v in unknowns:
            rows.append(Row({v: 1}, "le", cap))
            if v.kind == "int":
                rows.append(Row({v: -1}, "le", cap))
        want = enumerate_block(rows, unknowns, cap)
        model = lia_sat(rows)
        assert (model is None) == (want is None), (case, rows)
        if model is not None:
            verify(rows, model)


def test_degenerate_hand_built_systems():
    a, b, c = x("a"), x("b"), x("c")
    # 2a = 3b twice, with a cone of zero-bound rows through the origin and
    # a row that pushes away from it: a = 3k, b = 2k, c in [2b/3, a] ...
    cone = [
        Row({a: 2, b: -3}, "eq", 0),
        Row({a: 2, b: -3}, "eq", 0),
        Row({b: 2, c: -3}, "le", 0),
        Row({b: 2, c: -3}, "le", 0),
        Row({c: 2, a: -2}, "le", 0),
    ]
    rows = cone + [Row({a: -2, c: -2}, "le", -13)]
    model = lia_sat(rows)
    assert model is not None
    verify(rows, model)
    # ... and only the origin once a is also capped below 3
    assert lia_sat(cone + [Row({a: 2}, "le", 5), Row({b: -2, c: -2}, "le", -1)]) is None
    assert lia_sat(cone + [Row({a: 2}, "le", 5)]) == {a: 0, b: 0, c: 0}


# ---------------------------------------------------------------------------
# shared rows and lazily pulled groups


def random_rows(rng, unknowns, count):
    rows = []
    for _ in range(count):
        coeffs = {v: rng.randint(-3, 3) for v in rng.sample(unknowns, rng.randint(1, len(unknowns)))}
        coeffs = {v: c for v, c in coeffs.items() if c}
        if coeffs:
            rows.append(Row(coeffs, rng.choice(("eq", "le")), rng.randint(-6, 6)))
    return rows


def decided(call):
    """The call's result, or "exhausted" when it runs out of nodes."""
    try:
        return call()
    except ResourceExhausted:
        return "exhausted"


def random_shared_systems(rng, count):
    """Shared rows, each with groups that mix the shared unknowns with
    their own, so they touch some shared blocks and leave others alone."""
    kinds = [len_var, param_var, part_var_maker, int_var]
    for _ in range(count):
        shared = [rng.choice(kinds)(f"s{k}") for k in range(rng.randint(2, 5))]
        rows = random_rows(rng, shared, rng.randint(1, 4))
        groups = []
        for g in range(rng.randint(0, 4)):
            own = [
                rng.choice((LinVar("ap", f"k{g}_{k}"), int_var(f"n{g}_{k}")))
                for k in range(rng.randint(0, 2))
            ]
            unknowns = rng.sample(shared, rng.randint(1, 2)) + own
            groups.append(random_rows(rng, unknowns, rng.randint(1, 2)))
        yield rows, groups


def test_groups_differential_against_one_call_per_group(monkeypatch):
    # The systems are unbounded, and branch and bound can run along a ray
    # of one of them until the work budget, lowered here to keep such a
    # case short, runs out and ends the call.  The last system does: its
    # rows force x1 = x3 = 0, but only x3 through a one-column row, so no
    # box pins x1, and they leave x0 = x2 - 3/2.  They are inequalities,
    # and the second is not the first's exact opposite, so none of them
    # is eliminated
    monkeypatch.setattr(errors, "WORK_BUDGET", 1000)
    x0, x1, x2, x3 = (len_var(f"x{k}") for k in range(4))
    along_a_ray = (
        [
            Row({x0: 2, x1: -3, x2: -2}, "le", -3),
            Row({x0: -2, x1: 3, x2: 2, x3: 1}, "le", 3),
            Row({x1: 1, x3: -1}, "le", 0),
            Row({x3: 2}, "le", 1),
        ],
        [[Row({x0: 1}, "le", 4)]],
    )
    seen = set()
    systems = chain(random_shared_systems(random.Random(4), 400), [along_a_ray])
    for case, (rows, groups) in enumerate(systems):
        pulled = []

        def pull():
            for g in groups:
                pulled.append(g)
                yield g

        alone = decided(lambda: lia_sat(rows))
        model = decided(lambda: lia_sat(rows, pull()))
        if alone is None:
            # the shared rows are refuted before any group is pulled
            assert (model, pulled) == (None, []), (case, rows)
            seen.add("shared rows refuted")
            continue
        if alone == "exhausted":
            # the shared rows run out before any group is pulled
            assert (model, pulled) == ("exhausted", []), (case, rows)
            seen.add("shared rows exhausted")
            continue
        refs = [decided(lambda: lia_sat(rows + g)) for g in groups]
        # no group the call refuted has a model; running out ends the call
        # at the group it ran out in
        refuted = pulled if model is None else pulled[:-1]
        assert not any(isinstance(ref, dict) for ref in refs[: len(refuted)]), (case, rows, groups)
        if model is None:
            assert pulled == groups, (case, rows, groups)
            seen.add("every group refuted")
        elif model != "exhausted":
            # the call ends at the first group it finds a model for
            verify(rows + pulled[-1], model)
            assert refs[len(pulled) - 1] is not None, (case, rows, groups)
            seen.add("sat at a later group" if len(pulled) > 1 else "sat at the first group")
    assert seen == {
        "shared rows refuted",
        "shared rows exhausted",
        "every group refuted",
        "sat at a later group",
        "sat at the first group",
    }


def test_one_column_rows_bound_the_start_box():
    # eliminating the equality leaves x1 = 1 - 2t for a fresh free t, so
    # x1 >= 0 and 2*x1 <= 1 become t <= 0 and t >= 1: an empty start box
    x0, x1, x2 = (len_var(f"x{k}") for k in range(3))
    budget = Budget()
    budget.left = 1
    assert lia_sat([Row({x0: 2, x1: -3, x2: -2}, "eq", -3), Row({x1: 2}, "le", 1)], budget=budget) is None
    # an empty start box is pruned, also where no other row mentions the column
    assert lia_sat([Row({x0: -1}, "le", -3), Row({x0: 1}, "le", 2)]) is None
    assert lia_sat([Row({int_var("n"): -2}, "le", 5), Row({int_var("n"): 1}, "le", -3)]) is None
    assert lia_sat([Row({int_var("n"): -2}, "le", 5), Row({int_var("n"): 1}, "le", -2)]) == {int_var("n"): -2}


def test_opposite_inequalities_are_one_equality():
    # the first two rows say 2*x0 - 3*x1 - 2*x2 = -3, whose elimination
    # leaves x1 = 1 - 2t, which no t makes both >= 0 and <= 1/2
    x0, x1, x2 = (len_var(f"x{k}") for k in range(3))
    budget = Budget()
    budget.left = 1
    rows = [
        Row({x0: 2, x1: -3, x2: -2}, "le", -3),
        Row({x0: -2, x1: 3, x2: 2}, "le", 3),
        Row({x1: 2}, "le", 1),
    ]
    assert lia_sat(rows, budget=budget) is None
    # a pair that has points keeps them, and a repeated row is kept as it is
    rows = [Row({x0: 1, x1: -1}, "le", 2), Row({x0: -1, x1: 1}, "le", -2), Row({x0: 1, x1: -1}, "le", 2)]
    model = lia_sat(rows)
    assert model[x0] - model[x1] == 2


def test_groups_are_not_pulled_after_a_shared_clash():
    def exploding():
        raise AssertionError("a group was pulled")
        yield []

    # refuted by normalisation, by elimination and by branch and bound
    assert lia_sat([Row({x(): 2}, "eq", 1)], exploding()) is None
    assert lia_sat([Row({x(): 1, x("y"): 1}, "eq", 2), Row({x(): 1}, "le", -1)], exploding()) is None
    assert lia_sat(frobenius_rows((31, 29)), exploding()) is None
    with pytest.raises(AssertionError, match="a group was pulled"):
        lia_sat(frobenius_rows((31,)), exploding())
    # no group at all: the shared rows hold, but nothing else
    assert lia_sat(frobenius_rows((31,)), []) is None
    assert lia_sat([], [[Row({x(): 1}, "le", -1)], [Row({x(): 1}, "eq", 4)]]) == {x(): 4}


def test_node_limit_counts_nodes_summed_over_groups(monkeypatch):
    # a shared Frobenius block and two groups that each add another one:
    # the first group's is infeasible, the second group's is not
    shared, first, second = ([row] for row in frobenius_rows((31, 29, 31)))
    need_shared, _ = nodes_needed(shared, monkeypatch)
    need_first, _ = nodes_needed(first, monkeypatch)
    need_second, _ = nodes_needed(second, monkeypatch)
    need = need_shared + need_first + need_second
    monkeypatch.setattr(errors, "WORK_BUDGET", need)
    model = lia_sat(shared, [first, second])
    verify(shared + second, model)
    monkeypatch.setattr(errors, "WORK_BUDGET", need - 1)
    with pytest.raises(ResourceExhausted):
        lia_sat(shared, [first, second])


def test_model_checks_its_back_substitution():
    # column 0 was eliminated as 0 = -1 + 0, which no length can be; a
    # free integer column may take it
    elims = [(0, -1, {})]
    with pytest.raises(AssertionError, match="gave column 0 the value -1"):
        lia._model({}, elims, {x(): 0}, set(), [])
    assert lia._model({}, elims, {int_var("n"): 0}, {0}, []) == {int_var("n"): -1}


def test_model_checks_every_row():
    rows = [Row({x(): 1}, "le", 3), Row({x(): 1, x("y"): 1}, "eq", 1)]
    with pytest.raises(AssertionError, match="the model violates the row"):
        lia._model({0: 2}, [], {x(): 0, x("y"): 1}, set(), rows)
    assert lia._model({0: 1}, [], {x(): 0, x("y"): 1}, set(), rows) == {x(): 1, x("y"): 0}
