"""Solver tests against enumeration oracles."""

import itertools
import math
import operator
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsatnet import scheduler, simharness
from qsatnet.config import apply_overrides, default_scenario
from qsatnet.errors import ParameterError, QsatError, StructuralError
from qsatnet.ilpcore import lp as lp_module
from qsatnet.ilpcore import mip as mip_module
from qsatnet.ilpcore import (
    GAP_LIMIT,
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    MipProblem,
    SparseRow,
    constraint_violations,
    max_weight_flow,
    solve_lp,
    solve_mip,
)

from oracles import (
    SizeLimitError,
    brute_force_mip,
    hungarian,
    mwis_exact,
    program_from_rows,
)


def dense_row(row, n):
    """A stored sparse row written out with one coefficient per variable."""
    dense = [0.0] * n
    for j, c in zip(row.columns, row.coefficients):
        dense[j] = c
    return tuple(dense)


def lp_vertex_oracle(lp):
    """Enumerate candidate vertices from all n-subsets of tight rows.

    Exhaustive and slow, usable only for a handful of variables; entirely
    separate from the simplex code path.
    """
    n = lp.num_vars
    rows = []
    rhs = []
    for row, relation, b in lp.constraints:
        rows.append(dense_row(row, n))
        rhs.append(b)
    for j, (lo, hi) in enumerate(lp.variable_bounds):
        unit = [0.0] * n
        unit[j] = 1.0
        rows.append(unit)
        rhs.append(lo)
        if hi is not None:
            rows.append(unit)
            rhs.append(hi)
    best = None
    for subset in itertools.combinations(range(len(rows)), n):
        a = np.array([rows[k] for k in subset])
        b = np.array([rhs[k] for k in subset])
        if abs(np.linalg.det(a)) < 1e-9:
            continue
        x = np.linalg.solve(a, b)
        if not feasible_point(lp, x):
            continue
        value = float(np.dot(lp.objective, x))
        if best is None or value > best:
            best = value
    return best


def feasible_point(lp, x, tol=1e-7):
    return not constraint_violations(lp, tuple(float(v) for v in x), tol=tol)


def test_lp_single_variable():
    lp = program_from_rows(
        objective=(1.0,),
        constraints=(((1.0,), "<=", 5.0),),
        variable_bounds=((0.0, None),),
    )
    res = solve_lp(lp)
    assert res.status == OPTIMAL
    assert res.objective_value == pytest.approx(5.0, abs=1e-9)
    assert res.assignment == pytest.approx((5.0,))


def test_lp_degenerate_optimum():
    lp = program_from_rows(
        objective=(1.0, 1.0),
        constraints=(((1.0, 1.0), "<=", 1.0),),
        variable_bounds=((0.0, None), (0.0, None)),
    )
    res = solve_lp(lp)
    assert res.status == OPTIMAL
    assert res.objective_value == pytest.approx(1.0, abs=1e-9)


def test_lp_infeasible_and_unbounded():
    infeasible = program_from_rows(
        objective=(1.0,),
        constraints=(((1.0,), "<=", 1.0), ((1.0,), ">=", 2.0)),
        variable_bounds=((0.0, None),),
    )
    assert solve_lp(infeasible).status == INFEASIBLE
    unbounded = program_from_rows(
        objective=(1.0,),
        constraints=(),
        variable_bounds=((0.0, None),),
    )
    assert solve_lp(unbounded).status == UNBOUNDED


def test_lp_equality_and_shifted_bounds():
    lp = program_from_rows(
        objective=(2.0, -1.0),
        constraints=(((1.0, 1.0), "=", 4.0),),
        variable_bounds=((1.0, 3.0), (0.0, None)),
    )
    res = solve_lp(lp)
    assert res.status == OPTIMAL
    assert res.assignment == pytest.approx((3.0, 1.0), abs=1e-9)
    assert res.objective_value == pytest.approx(5.0, abs=1e-9)


def random_mixed_lp(rng, max_vars, max_rows, unbounded_share=0.15, feasible_share=0.8):
    """A random LP mixing all three relations, zero, negative and positive
    lower bounds, fixed variables and variables unbounded above.

    With probability ``feasible_share`` every row holds at a point drawn
    inside the box, so the LP is feasible; other rows get random sides.
    """
    n = rng.randint(1, max_vars)
    m = rng.randint(0, max_rows)
    bounds = []
    point = []
    for _ in range(n):
        lower = rng.choice((0.0, round(rng.uniform(-3.0, 2.0), 3)))
        draw = rng.random()
        if draw < 0.15:
            upper = lower
        elif draw < 0.15 + unbounded_share:
            upper = None
        else:
            upper = lower + round(rng.uniform(0.5, 5.0), 3)
        bounds.append((lower, upper))
        point.append(rng.uniform(lower, lower + 1.0 if upper is None else upper))
    around_point = rng.random() < feasible_share
    constraints = []
    for _ in range(m):
        coeffs = tuple(
            0.0 if rng.random() < 0.3 else round(rng.uniform(-2.0, 3.0), 3)
            for _ in range(n)
        )
        relation = rng.choice(("<=", "<=", ">=", "="))
        if around_point:
            at_point = sum(c * x for c, x in zip(coeffs, point))
            slack = rng.uniform(0.1, 2.0)
            rhs = {"<=": at_point + slack, ">=": at_point - slack, "=": at_point}[relation]
        else:
            rhs = round(rng.uniform(-3.0, 8.0), 3)
        constraints.append((coeffs, relation, rhs))
    objective = tuple(round(rng.uniform(-2.0, 3.0), 3) for _ in range(n))
    return program_from_rows(objective, tuple(constraints), tuple(bounds))


def oracle_lps(seed, count):
    rng = random.Random(seed)
    return [
        random_mixed_lp(rng, 4, 4, unbounded_share=0.0, feasible_share=1.0)
        for _ in range(count)
    ]


def check_against_vertex_oracle(lps):
    """Compare bounded feasible LPs with the oracle; returns how many
    optima leave some variable at its upper bound."""
    at_upper = 0
    for trial, lp in enumerate(lps):
        res = solve_lp(lp)
        assert res.status == OPTIMAL, f"trial {trial}"
        oracle = lp_vertex_oracle(lp)
        assert oracle is not None
        assert res.objective_value == pytest.approx(oracle, abs=1e-6), f"trial {trial}"
        assert feasible_point(lp, res.assignment)
        at_upper += any(
            lo < hi and x == pytest.approx(hi, abs=1e-9)
            for (lo, hi), x in zip(lp.variable_bounds, res.assignment)
        )
    return at_upper


def test_lp_matches_vertex_oracle():
    lps = oracle_lps(101, 60)
    # the draws cover every relation, fixed variables, and lower bounds
    # below and above zero
    relations = {rel for lp in lps for _, rel, _ in lp.constraints}
    bounds = [b for lp in lps for b in lp.variable_bounds]
    assert relations == {"<=", ">=", "="}
    assert any(lo == hi for lo, hi in bounds)
    assert any(lo < 0 for lo, _ in bounds) and any(lo > 0 for lo, _ in bounds)
    assert check_against_vertex_oracle(lps) >= 10


def test_lp_bland_rule_matches_vertex_oracle(monkeypatch):
    """Bland's rule from the first iteration, bound flips included."""
    flips = 0
    original_flip = lp_module._flip

    def counted(*args):
        nonlocal flips
        flips += 1
        original_flip(*args)

    monkeypatch.setattr(lp_module, "BLAND_AFTER", 0)
    monkeypatch.setattr(lp_module, "_flip", counted)
    assert check_against_vertex_oracle(oracle_lps(202, 30)) > 0
    assert flips > 0


def test_lp_box_only():
    """No constraint rows: each variable goes to the bound its objective
    coefficient favours, or the problem is unbounded."""
    lp = program_from_rows(
        objective=(2.0, -1.0, 0.5, 0.0),
        constraints=(),
        variable_bounds=((-1.0, 3.0), (-2.0, 4.0), (1.5, 1.5), (0.0, None)),
    )
    res = solve_lp(lp)
    assert res.status == OPTIMAL
    assert res.assignment == pytest.approx((3.0, -2.0, 1.5, 0.0), abs=1e-12)
    assert res.objective_value == pytest.approx(8.75, abs=1e-12)
    unbounded = program_from_rows(
        objective=(1.0, 1.0), constraints=(), variable_bounds=((0.0, 2.0), (-1.0, None))
    )
    assert solve_lp(unbounded).status == UNBOUNDED


def highs_reference(lp):
    """Status and optimum of ``lp`` from scipy's HiGHS.

    Feasibility is settled by a second solve with a zero objective: HiGHS
    may call an unbounded problem infeasible from presolve.
    """
    from scipy.optimize import linprog

    n = lp.num_vars
    dense = [(dense_row(row, n), rel, b) for row, rel, b in lp.constraints]
    upper = [(c, b) for c, rel, b in dense if rel == "<="]
    upper += [(tuple(-v for v in c), -b) for c, rel, b in dense if rel == ">="]
    equal = [(c, b) for c, rel, b in dense if rel == "="]

    def solve(objective):
        return linprog(
            c=objective,
            A_ub=np.array([c for c, _ in upper]).reshape(len(upper), n) if upper else None,
            b_ub=[b for _, b in upper] if upper else None,
            A_eq=np.array([c for c, _ in equal]).reshape(len(equal), n) if equal else None,
            b_eq=[b for _, b in equal] if equal else None,
            bounds=lp.variable_bounds,
            method="highs",
        )

    res = solve([-v for v in lp.objective])
    if res.status == 0:
        return OPTIMAL, -res.fun
    if solve([0.0] * n).status == 2:
        return INFEASIBLE, None
    return UNBOUNDED, None


def test_lp_matches_highs_on_random_mixed_lps():
    pytest.importorskip("scipy")
    check_against_highs(random.Random(303), 2000)


def check_against_highs(rng, trials):
    """Random mixed LPs against HiGHS: the same status, and at an optimum
    the same value and a feasible point; every status occurs."""
    seen = set()
    for trial in range(trials):
        lp = random_mixed_lp(rng, 8, 6)
        status, value = highs_reference(lp)
        res = solve_lp(lp)
        seen.add(status)
        assert res.status == status, f"trial {trial}"
        if status == OPTIMAL:
            assert math.isclose(
                res.objective_value, value, rel_tol=1e-6, abs_tol=1e-9
            ), f"trial {trial}"
            assert feasible_point(lp, res.assignment, tol=1e-6), f"trial {trial}"
    assert seen == {OPTIMAL, INFEASIBLE, UNBOUNDED}


def test_default_reflection_lps_match_highs(monkeypatch):
    """The default constellation's rate-sum LPs, hundreds of variables
    with as many upper bounds, against HiGHS."""
    pytest.importorskip("scipy")
    check_default_reflection_lps_against_highs(monkeypatch)


def check_default_reflection_lps_against_highs(monkeypatch):
    captured = []

    def recorded(mip):
        captured.append(mip.base)
        return solve_mip(mip)

    monkeypatch.setattr(scheduler, "solve_mip", recorded)
    config = apply_overrides(
        default_scenario(), {"policy": "reflection_ratesum", "num_slots": "3"}
    )
    simharness.run(config)
    assert len(captured) == 3
    assert min(lp.num_vars for lp in captured) > 100
    for lp in captured:
        res = solve_lp(lp)
        status, value = highs_reference(lp)
        assert res.status == status == OPTIMAL
        assert math.isclose(res.objective_value, value, rel_tol=1e-9)


def test_lp_determinism():
    lp = program_from_rows(
        objective=(1.0, 2.0, 1.0),
        constraints=(
            ((1.0, 1.0, 0.0), "<=", 3.0),
            ((0.0, 1.0, 1.0), "<=", 3.0),
            ((1.0, 0.0, 1.0), "<=", 3.0),
        ),
        variable_bounds=((0.0, None),) * 3,
    )
    first = solve_lp(lp)
    for _ in range(5):
        again = solve_lp(lp)
        assert again == first


def knapsack_mip():
    lp = program_from_rows(
        objective=(5.0, 4.0),
        constraints=(((3.0, 2.0), "<=", 4.0),),
        variable_bounds=((0.0, 1.0), (0.0, 1.0)),
    )
    return MipProblem(base=lp, integer_vars=(0, 1))


def test_mip_knapsack():
    res = solve_mip(knapsack_mip())
    assert res.status == OPTIMAL
    assert res.objective_value == pytest.approx(5.0, abs=1e-9)
    assert res.assignment == (1.0, 0.0)


def test_brute_force_knapsack_and_empty():
    res = brute_force_mip(knapsack_mip())
    assert res.status == OPTIMAL
    assert res.objective_value == pytest.approx(5.0, abs=1e-9)
    empty = MipProblem(
        base=program_from_rows(objective=(), constraints=(), variable_bounds=()),
        integer_vars=(),
    )
    res = brute_force_mip(empty)
    assert res.status == OPTIMAL
    assert res.objective_value == 0.0


def test_mip_integral_relaxation_returned_directly():
    lp = program_from_rows(
        objective=(1.0, 1.0),
        constraints=(((1.0, 0.0), "<=", 2.0), ((0.0, 1.0), "<=", 3.0)),
        variable_bounds=((0.0, 5.0), (0.0, 5.0)),
    )
    res = solve_mip(MipProblem(base=lp, integer_vars=(0, 1)))
    assert res.status == OPTIMAL
    assert res.assignment == (2.0, 3.0)


def random_mip(rng, max_vars=8):
    n = rng.randint(1, max_vars)
    m = rng.randint(1, 4)
    constraints = []
    for _ in range(m):
        coeffs = tuple(float(rng.randint(-3, 5)) for _ in range(n))
        relation = rng.choice(["<=", "<=", "<=", ">="])
        rhs = float(rng.randint(0, 12))
        constraints.append((coeffs, relation, rhs))
    lp = program_from_rows(
        objective=tuple(float(rng.randint(-5, 5)) for _ in range(n)),
        constraints=tuple(constraints),
        variable_bounds=tuple((0.0, float(rng.randint(1, 3))) for _ in range(n)),
    )
    return MipProblem(base=lp, integer_vars=tuple(range(n)))


def test_mip_matches_brute_force():
    check_mips_against_brute_force(random.Random(2024))


def check_mips_against_brute_force(rng):
    optimal_seen = 0
    for trial in range(200):
        mip = random_mip(rng)
        fast = solve_mip(mip)
        slow = brute_force_mip(mip)
        assert fast.status == slow.status, f"trial {trial}"
        if fast.status == OPTIMAL:
            optimal_seen += 1
            assert fast.objective_value == pytest.approx(
                slow.objective_value, abs=1e-6
            ), f"trial {trial}"
            assert not constraint_violations(
                mip.base, fast.assignment, integer_vars=mip.integer_vars
            )
            # weak duality: the relaxation bounds the integer optimum
            relaxed = solve_lp(mip.base)
            assert relaxed.objective_value >= fast.objective_value - 1e-6
    assert optimal_seen > 100


PIVOTS = pytest.mark.parametrize("cutoff", [0, math.inf], ids=["restricted", "dense"])


@PIVOTS
def test_lp_oracles_hold_under_either_pivot(monkeypatch, cutoff):
    """The vertex-oracle checks, Bland's rule included, with every pivot
    updating only the rows its column touches, then with every pivot
    dense."""
    monkeypatch.setattr(lp_module, "RESTRICTED_PIVOT_CELLS", cutoff)
    assert check_against_vertex_oracle(oracle_lps(101, 60)) >= 10
    monkeypatch.setattr(lp_module, "BLAND_AFTER", 0)
    assert check_against_vertex_oracle(oracle_lps(202, 30)) > 0


@PIVOTS
def test_highs_cross_checks_hold_under_either_pivot(monkeypatch, cutoff):
    pytest.importorskip("scipy")
    monkeypatch.setattr(lp_module, "RESTRICTED_PIVOT_CELLS", cutoff)
    check_against_highs(random.Random(303), 2000)
    check_default_reflection_lps_against_highs(monkeypatch)


def _negated_rows(lp):
    """The rows ``solve_lp`` negates: those whose right-hand side, shifted
    by the lower bounds, is negative."""
    return [
        i
        for i, (a, b) in enumerate(zip(lp.matrix, lp.rhs.tolist()))
        if b - float(a @ lp.lower) < 0
    ]


def _recorded_lps(monkeypatch):
    """The list to which every LP that ``solve_mip`` solves is appended."""
    lps = []
    solve = mip_module.solve_lp

    def recorded(lp):
        lps.append(lp)
        return solve(lp)

    monkeypatch.setattr(mip_module, "solve_lp", recorded)
    return lps


def _has_negated_zeros(lp):
    """Whether ``solve_lp`` negates a row of a branch-and-bound child (a
    raised lower bound) that holds a zero coefficient."""
    return lp.lower.any() and any((lp.matrix[i] == 0).any() for i in _negated_rows(lp))


@PIVOTS
def test_mip_oracle_holds_under_either_pivot(monkeypatch, cutoff):
    """The brute-force MIP check, whose branch-and-bound children include
    rows negated after their lower bounds rose: negating a row's zeros is
    the only way -0.0 enters a tableau."""
    monkeypatch.setattr(lp_module, "RESTRICTED_PIVOT_CELLS", cutoff)
    lps = _recorded_lps(monkeypatch)
    check_mips_against_brute_force(random.Random(2024))
    assert any(map(_has_negated_zeros, lps))


def _solved_under_both_pivots(monkeypatch, lps):
    """``repr(solve_lp(lp))`` for each LP, restricted pivots, then dense."""
    results = []
    for cutoff in (0, math.inf):
        monkeypatch.setattr(lp_module, "RESTRICTED_PIVOT_CELLS", cutoff)
        results.append([repr(solve_lp(lp)) for lp in lps])
    return results


def test_branch_and_bound_children_solve_alike_under_either_pivot(monkeypatch):
    """Every LP of the random MIPs, children with negated rows included,
    gets the same result to the bit under either pivot."""
    lps = _recorded_lps(monkeypatch)
    rng = random.Random(2024)
    for _ in range(200):
        solve_mip(random_mip(rng))
    monkeypatch.undo()
    assert sum(map(_has_negated_zeros, lps)) > 10
    restricted, dense = _solved_under_both_pivots(monkeypatch, lps)
    assert restricted == dense


# a few seed-1 slots of each benchmark workload: its policy, constellation
# and weather (seed 1 with the workload's first weather table, or the
# reduced day's fixed weather 23 and its epoch of 1000 s)
WORKLOAD_SCENARIOS = {
    "default_primary_ratesum": {
        "policy": "primary_ratesum",
        "num_slots": "5",
        "weather_seed": "32",
    },
    "default_reflection_ratesum": {
        "policy": "reflection_ratesum",
        "num_slots": "3",
        "weather_seed": "16",
    },
    "reduced_reflection_ratefair": {
        "policy": "reflection_ratefair",
        "constellation.rings": "4",
        "constellation.sats_per_ring": "10",
        "constellation.altitude": "1000e3",
        "constellation.epoch": "1000",
        "slot_duration": "60",
        "num_slots": "240",
        "month": "6",
        "weather_seed": "23",
    },
}


@pytest.mark.parametrize("workload", sorted(WORKLOAD_SCENARIOS))
def test_workload_lps_solve_alike_under_either_pivot(monkeypatch, workload):
    """The LPs of a few benchmark slots, recorded as the run solves them,
    get the same result to the bit under either pivot."""
    lps = _recorded_lps(monkeypatch)
    simharness.run(apply_overrides(default_scenario(), WORKLOAD_SCENARIOS[workload]))
    monkeypatch.undo()
    assert lps
    restricted, dense = _solved_under_both_pivots(monkeypatch, lps)
    assert restricted == dense


def test_mip_gap_limit():
    rng = random.Random(5)
    hit_limit = False
    for _ in range(50):
        mip = random_mip(rng, max_vars=6)
        res = solve_mip(mip, node_limit=2)
        if res.status == GAP_LIMIT:
            hit_limit = True
            if res.assignment is not None:
                assert not constraint_violations(
                    mip.base, res.assignment, integer_vars=mip.integer_vars
                )
                assert res.gap >= 0.0
    assert hit_limit


def test_mip_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        solve_mip(knapsack_mip(), node_limit=0)
    unbounded_int = MipProblem(
        base=program_from_rows(
            objective=(1.0,), constraints=(), variable_bounds=((0.0, None),)
        ),
        integer_vars=(0,),
    )
    with pytest.raises(StructuralError):
        solve_mip(unbounded_int)
    with pytest.raises(SizeLimitError):
        brute_force_mip(
            MipProblem(
                base=program_from_rows(
                    objective=(1.0,) * 8,
                    constraints=(),
                    variable_bounds=(((0.0, 100.0),) * 8),
                ),
                integer_vars=tuple(range(8)),
            )
        )


def test_lp_validation():
    inf = math.inf
    with pytest.raises(StructuralError):
        LinearProgram((1.0, 1.0), [[1.0]], [1.0], [1], [0.0, 0.0], [inf, inf])
    with pytest.raises(StructuralError):
        LinearProgram((1.0,), [[1.0]], [1.0], [2], [0.0], [inf])
    with pytest.raises(StructuralError):
        LinearProgram((1.0,), np.zeros((0, 1)), [], [], [2.0], [1.0])


def test_with_bounds_checks_only_the_new_bound():
    lp = program_from_rows(
        objective=(1.0, 2.0, 3.0),
        constraints=(((1.0, 1.0, 1.0), "<=", 4.0),),
        variable_bounds=((0.0, 1.0), (0.0, None), (-1.0, 2.0)),
    )
    for var, lower, upper in ((1, 2, math.inf), (0, 1, 1), (2, -0.5, None)):
        bounds = list(lp.variable_bounds)
        bounds[var] = (lower, upper)
        copy = lp.with_bounds(var, lower, upper)
        assert copy == program_from_rows(lp.objective, lp.constraints, tuple(bounds))
        lower_f, upper_f = copy.variable_bounds[var]
        assert type(lower_f) is float
        assert upper_f is None or type(upper_f) is float
    assert lp.with_bounds(1, 2, math.inf).variable_bounds[1] == (2.0, None)
    for lower, upper in ((2.0, 1.0), (-math.inf, 1.0), (math.inf, None), (math.nan, None)):
        with pytest.raises(StructuralError):
            lp.with_bounds(0, lower, upper)
    assert lp.with_bounds(0, 0.5, 1.0).constraints is lp.constraints


def test_dense_rows_are_stored_sparse():
    lp = program_from_rows(
        objective=(1, 2, 3),
        constraints=(((0.0, 2, 0.0), "<=", 4), ((0.0, -0.0, 0.0), ">=", -1.0)),
        variable_bounds=((0.0, None),) * 3,
    )
    assert lp.constraints == (
        (SparseRow((1,), (2.0,)), "<=", 4.0),
        (SparseRow((), ()), ">=", -1.0),
    )
    row = lp.constraints[0][0]
    assert type(row) is SparseRow and type(row.coefficients[0]) is float
    assert program_from_rows(lp.objective, lp.constraints, lp.variable_bounds) == lp


# each case is valid but for one non-finite entry; unchecked, a NaN upper
# bound crashes the ratio test and a NaN coefficient, right-hand side or
# objective entry gives a wrong Optimal
NON_FINITE = {
    "nan-upper-bound": ((1.0,), ((1.0,), "<=", 5.0), (0.0, math.nan)),
    "nan-dense-coefficient": ((1.0,), ((math.nan,), "<=", 5.0), (0.0, 3.0)),
    "inf-sparse-coefficient": (
        (1.0,), (SparseRow((0,), (math.inf,)), "<=", 5.0), (0.0, 3.0)
    ),
    "nan-rhs": ((1.0,), ((1.0,), "<=", math.nan), (0.0, 3.0)),
    "inf-rhs": ((1.0,), ((1.0,), "<=", -math.inf), (0.0, 3.0)),
    "nan-objective": ((math.nan,), ((1.0,), "<=", 5.0), (0.0, 3.0)),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_data_is_rejected(case):
    objective, constraint, bounds = NON_FINITE[case]
    with pytest.raises(StructuralError):
        program_from_rows(objective, (constraint,), (bounds,))


# two bad bounds each: the message names the first, whatever the second is
FIRST_BAD_BOUND = {
    "nan-upper": (
        ((0.0, 1.0), (0.0, math.nan), (-math.inf, 1.0)),
        "variable 1: upper bound is NaN",
    ),
    "infinite-lower": (
        ((-math.inf, 1.0), (0.0, math.nan), (0.0, 1.0)),
        "variable 0: lower bound must be finite",
    ),
    "empty-box": (
        ((0.0, None), (0.0, 1.0), (2.0, 1.0), (math.inf, None)),
        r"variable 2: bounds \[2.0, 1.0\] empty",
    ),
}


@pytest.mark.parametrize("case", sorted(FIRST_BAD_BOUND))
def test_the_first_bad_bound_is_named(case):
    bounds, message = FIRST_BAD_BOUND[case]
    with pytest.raises(StructuralError, match=f"^{message}$"):
        program_from_rows((1.0,) * len(bounds), (), bounds)


@pytest.mark.parametrize("indices, named", [((-1, 5), -1), ((0, 4, 7), 4)])
def test_the_first_out_of_range_integer_index_is_named(indices, named):
    lp = program_from_rows((1.0,) * 3, (), ((0.0, 1.0),) * 3)
    with pytest.raises(
        StructuralError, match=f"^integer variable index {named} out of range$"
    ):
        MipProblem(lp, indices)


def test_constraint_violations_lists_every_kind_in_order():
    lp = program_from_rows(
        (1.0, 1.0, 1.0, 1.0),
        (((1.0, 1.0, 0.0, 0.0), "<=", 1.0), ((0.0, 0.0, 1.0, 1.0), ">=", 0.0)),
        ((0.0, 2.0), (0.0, 2.0), (0.0, None), (-1.0, 1.0)),
    )
    assert constraint_violations(
        lp, (-1.0, 3.0, 0.5, 1.0), integer_vars=(0, 1, 2, 3)
    ) == [
        "variable 0: -1.0 below lower bound 0.0",
        "variable 1: 3.0 above upper bound 2.0",
        "constraint 0: 2.0 > 1.0",
        "variable 2: 0.5 not integral",
    ]


def test_infinite_upper_bound_means_unbounded_above():
    lp = program_from_rows((1.0,), (((1.0,), "<=", 5.0),), ((0.0, math.inf),))
    assert lp.variable_bounds == ((0.0, None),)
    assert solve_lp(lp).assignment == (5.0,)


def test_minus_infinite_upper_bound_is_an_empty_box():
    with pytest.raises(
        StructuralError, match=r"^variable 0: bounds \[0.0, -inf\] empty$"
    ):
        program_from_rows((1.0,), (((1.0,), "<=", 5.0),), ((0.0, -math.inf),))
    lp = program_from_rows((1.0,), (((1.0,), "<=", 5.0),), ((0.0, 3.0),))
    with pytest.raises(
        StructuralError, match=r"^variable 0: bounds \[1.0, -inf\] empty$"
    ):
        lp.with_bounds(0, 1.0, -math.inf)


def test_fractional_integer_index_is_refused():
    lp = program_from_rows((1.0,) * 3, (), ((0.0, 1.0),) * 3)
    with pytest.raises(
        StructuralError, match=r"^integer variable index 1.5 is not an integer$"
    ):
        MipProblem(lp, (0, 1.5, 2.5))
    assert MipProblem(lp, (np.int64(2), True, 2)).integer_vars == (1, 2)


@pytest.mark.parametrize("integer_vars", [(), (0, 1, 2)])
def test_non_finite_entries_are_violations(integer_vars):
    lp = program_from_rows(
        (1.0, 1.0, 1.0),
        (((1.0, 1.0, 1.0), "<=", 4.0),),
        ((0.0, 2.0), (0.0, None), (0.0, 2.0)),
    )
    assert constraint_violations(lp, (0.0, math.nan, 0.0), integer_vars=integer_vars) == [
        "variable 1: nan is not finite"
    ]
    assert constraint_violations(
        lp, (math.inf, 1.0, -math.inf), integer_vars=integer_vars
    ) == [
        "variable 0: inf is not finite",
        "variable 2: -inf is not finite",
        "variable 0: inf above upper bound 2.0",
        "variable 2: -inf below lower bound 0.0",
    ]
    assert constraint_violations(lp, (0.0, math.inf, 0.0), integer_vars=integer_vars) == [
        "variable 1: inf is not finite",
        "constraint 0: inf > 4.0",
    ]


def test_constraint_arrays_are_read_only_and_shared():
    lp = program_from_rows(
        (1.0, 2.0, 3.0),
        (
            (SparseRow((0, 2), (2.0, -1.0)), "<=", 4.0),
            ((0.0, 5.0, 0.0), ">=", -1.0),
            (SparseRow((), ()), "=", 0.0),
        ),
        ((0.0, 1.0),) * 3,
    )
    assert lp.matrix.tolist() == [[2.0, 0.0, -1.0], [0.0, 5.0, 0.0], [0.0, 0.0, 0.0]]
    assert lp.rhs.tolist() == [4.0, -1.0, 0.0]
    assert lp.senses.tolist() == [1, -1, 0]
    for array in (lp.matrix, lp.rhs, lp.senses):
        assert not array.flags.writeable
    grandchild = lp.with_bounds(0, 1.0, 1.0).with_bounds(2, 0.0, 0.0)
    assert grandchild.matrix is lp.matrix
    assert grandchild.rhs is lp.rhs and grandchild.senses is lp.senses


def test_rows_of_other_types_are_stored_converted():
    # lists, numpy scalars, int coefficients and a str subclass are
    # scattered into the arrays, and the views read back plain types
    class Relation(str):
        pass

    lp = program_from_rows(
        (1.0, 1.0),
        [
            [SparseRow([np.int64(0), True], [1, np.float64(2.5)]), Relation("<="), 3],
            (SparseRow((0,), (1.0,)), ">=", np.float64(0.5)),
        ],
        ((0.0, 2.0), (0.0, 2.0)),
    )
    assert lp.constraints == (
        (SparseRow((0, 1), (1.0, 2.5)), "<=", 3.0),
        (SparseRow((0,), (1.0,)), ">=", 0.5),
    )
    for row, relation, rhs in lp.constraints:
        assert type(row.columns) is tuple and type(row.coefficients) is tuple
        assert {type(c) for c in row.columns} == {int}
        assert {type(c) for c in row.coefficients} == {float}
        assert type(relation) is str and type(rhs) is float
    assert lp.matrix.tolist() == [[1.0, 2.5], [1.0, 0.0]]


def _three_row_parts():
    """A valid LP over three variables with three sparse rows, as lists to
    place a defect in: objective, constraints, bounds."""
    objective = [1.0, 1.0, 1.0]
    constraints = [(SparseRow((0, 1), (1.0, 1.0)), "<=", 2.0)] * 3
    bounds = [(0.0, 1.0)] * 3
    return objective, constraints, bounds


# each row defect: the constraint to place, and its message as constraint {k}
ROW_DEFECTS = {
    "nan-dense-coefficient": (
        ((math.nan, 0.0, 0.0), "<=", 5.0), "coefficients must be finite"
    ),
    "inf-sparse-coefficient": (
        (SparseRow((0,), (math.inf,)), "<=", 5.0), "coefficients must be finite"
    ),
    "nan-rhs": ((SparseRow((0,), (1.0,)), "<=", math.nan), "right-hand side must be finite"),
    "inf-rhs": ((SparseRow((0,), (1.0,)), "<=", -math.inf), "right-hand side must be finite"),
}


@pytest.mark.parametrize("case", sorted(ROW_DEFECTS))
@pytest.mark.parametrize("k", [0, 2])
def test_a_bad_row_is_named_with_its_message(case, k):
    constraint, message = ROW_DEFECTS[case]
    objective, constraints, bounds = _three_row_parts()
    constraints[k] = constraint
    with pytest.raises(StructuralError, match=f"^constraint {k}: {re.escape(message)}$"):
        program_from_rows(objective, tuple(constraints), tuple(bounds))


@pytest.mark.parametrize("case", sorted(ROW_DEFECTS))
def test_of_two_bad_rows_the_first_is_named(case):
    constraint, message = ROW_DEFECTS[case]
    other, other_message = ROW_DEFECTS["nan-rhs"]
    objective, constraints, bounds = _three_row_parts()
    constraints[1], constraints[2] = constraint, other
    with pytest.raises(StructuralError, match=f"^constraint 1: {re.escape(message)}$"):
        program_from_rows(objective, tuple(constraints), tuple(bounds))
    constraints[1], constraints[2] = other, constraint
    with pytest.raises(
        StructuralError, match=f"^constraint 1: {re.escape(other_message)}$"
    ):
        program_from_rows(objective, tuple(constraints), tuple(bounds))


@pytest.mark.parametrize("j", [0, 2])
def test_the_non_finite_objective_and_bound_cases_still_name_theirs(j):
    objective, constraints, bounds = _three_row_parts()
    objective[j] = math.nan
    with pytest.raises(StructuralError, match="^objective entries must be finite$"):
        program_from_rows(tuple(objective), tuple(constraints), tuple(bounds))
    objective, constraints, bounds = _three_row_parts()
    bounds[j] = (0.0, math.nan)
    with pytest.raises(StructuralError, match=f"^variable {j}: upper bound is NaN$"):
        program_from_rows(tuple(objective), tuple(constraints), tuple(bounds))


# --- the array constructor ---------------------------------------------------


def row_form(objective, matrix, rhs, senses, lower, upper, dense=False):
    """The same program as rows for ``program_from_rows``: each row as the
    SparseRow of its nonzero entries, or written out densely, and each +inf
    upper bound as None."""
    relations = {1: "<=", 0: "=", -1: ">="}
    constraints = []
    for coefficients, sense, b in zip(matrix, senses, rhs):
        if dense:
            row = tuple(coefficients)
        else:
            columns = tuple(j for j, c in enumerate(coefficients) if c != 0)
            row = SparseRow(columns, tuple(coefficients[j] for j in columns))
        constraints.append((row, relations[sense], b))
    bounds = tuple(
        (lo, None if hi == math.inf else hi) for lo, hi in zip(lower, upper)
    )
    return tuple(objective), tuple(constraints), bounds


@st.composite
def _program_arrays(draw):
    """A small program as lists and an (m, n) matrix: objective, matrix,
    rhs, senses, lower, upper.  Coefficients are small multiples of a
    half, so that some are zero, and some of those -0.0."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(0, 4))
    halves = st.integers(-6, 6).map(lambda h: h / 2) | st.just(-0.0)
    matrix = [[draw(halves) for _ in range(n)] for _ in range(m)]
    rhs = [draw(st.integers(-4, 10)) / 2 + 0.0 for _ in range(m)]
    senses = [draw(st.sampled_from((1, 1, 0, -1))) for _ in range(m)]
    lower = [draw(st.integers(-2, 2)) + 0.0 for _ in range(n)]
    upper = [lo + draw(st.sampled_from((0.0, 1.0, 2.0, 3.0, math.inf))) for lo in lower]
    objective = [draw(halves) for _ in range(n)]
    return objective, np.reshape(matrix, (m, n)), rhs, senses, lower, upper


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_program_arrays(), st.booleans())
def test_array_and_row_built_programs_are_the_same(arrays, dense):
    """``program_from_rows`` of sparse and of dense rows gives the arrays
    they were written from, so an LP a test writes as rows is the program
    those rows mean."""
    rows = program_from_rows(*row_form(*arrays, dense=dense))
    objective, *parts = arrays
    assert rows.objective == tuple(objective)
    for name, given in zip(("matrix", "rhs", "senses", "lower", "upper"), parts):
        assert getattr(rows, name).tolist() == np.asarray(given).tolist()
    built = LinearProgram(*arrays)
    for name in ("matrix", "rhs", "senses", "lower", "upper"):
        assert getattr(built, name).dtype == getattr(rows, name).dtype
    assert built.constraints == rows.constraints
    assert built.variable_bounds == rows.variable_bounds
    assert built == rows and hash(built) == hash(rows)
    assert repr(built) == repr(rows)


def test_equality_hash_and_repr_follow_the_arrays_alone():
    # an explicit zero of either sign in a row is no part of the program
    rows = program_from_rows(
        (1.0, 1.0),
        (
            (SparseRow((0, 1), (0.0, 2.0)), "<=", 1.0),
            (SparseRow((1,), (-0.0,)), ">=", 0.0),
        ),
        ((0.0, None), (0.0, 1.0)),
    )
    built = LinearProgram(
        (1.0, 1.0), [[0.0, 2.0], [0.0, 0.0]], [1.0, 0.0], [1, -1], [0.0, 0.0], [math.inf, 1.0]
    )
    assert rows == built and hash(rows) == hash(built)
    assert repr(rows) == repr(built)
    assert rows.constraints == (
        (SparseRow((1,), (2.0,)), "<=", 1.0),
        (SparseRow((), ()), ">=", 0.0),
    )


def _two_row_arrays():
    """A valid program over three variables and two rows, as lists to
    place a defect in: objective, matrix, rhs, senses, lower, upper."""
    return (
        [1.0, 2.0, 3.0],
        [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]],
        [2.0, 3.0],
        [1, -1],
        [0.0, 0.0, 0.0],
        [1.0, 2.0, math.inf],
    )


def _place(part, index, value):
    def place(arrays):
        target = arrays[part]
        for i in index[:-1]:
            target = target[i]
        target[index[-1]] = value

    return place


def _reshape(part, value):
    def place(arrays):
        arrays[part] = value

    return place


# each defect, placed in the two-row program, and the message the
# constructor refuses it with, given arrays or rows through
# program_from_rows; the ones of two defects name the first
ARRAY_DEFECTS = {
    "nan-objective": ([_place(0, (1,), math.nan)], "objective entries must be finite"),
    "inf-objective": ([_place(0, (2,), -math.inf)], "objective entries must be finite"),
    "nan-coefficient": (
        [_place(1, (1, 2), math.nan)], "constraint 1: coefficients must be finite"
    ),
    "inf-coefficient": (
        [_place(1, (0, 0), math.inf)], "constraint 0: coefficients must be finite"
    ),
    "nan-rhs": ([_place(2, (1,), math.nan)], "constraint 1: right-hand side must be finite"),
    "inf-rhs": ([_place(2, (0,), -math.inf)], "constraint 0: right-hand side must be finite"),
    "rhs-before-coefficients": (
        [_place(1, (0, 1), math.nan), _place(2, (0,), math.inf)],
        "constraint 0: right-hand side must be finite",
    ),
    "first-row-first": (
        [_place(2, (1,), math.nan), _place(1, (0, 2), math.inf)],
        "constraint 0: coefficients must be finite",
    ),
    "nan-lower": ([_place(4, (1,), math.nan)], "variable 1: lower bound must be finite"),
    "inf-lower": ([_place(4, (0,), -math.inf)], "variable 0: lower bound must be finite"),
    "nan-upper": ([_place(5, (2,), math.nan)], "variable 2: upper bound is NaN"),
    "minus-inf-upper": (
        [_place(5, (0,), -math.inf)], "variable 0: bounds [0.0, -inf] empty"
    ),
    "empty-box": ([_place(4, (1,), 2.5)], "variable 1: bounds [2.5, 2.0] empty"),
    "first-bound-first": (
        [_place(5, (2,), math.nan), _place(4, (1,), 3.0)],
        "variable 1: bounds [3.0, 2.0] empty",
    ),
    "rows-before-bounds": (
        [_place(4, (0,), math.nan), _place(2, (1,), math.nan)],
        "constraint 1: right-hand side must be finite",
    ),
    "too-few-bounds": (
        [_reshape(4, [0.0, 0.0]), _reshape(5, [1.0, 2.0])], "2 bounds for 3 variables"
    ),
    "too-many-bounds": (
        [_reshape(4, [0.0] * 4), _reshape(5, [1.0] * 4)], "4 bounds for 3 variables"
    ),
}


@pytest.mark.parametrize("case", sorted(ARRAY_DEFECTS))
def test_both_constructors_refuse_a_defect_with_one_message(case):
    """The constructor, given the arrays or given the same program as
    dense rows through ``program_from_rows``."""
    placements, message = ARRAY_DEFECTS[case]
    arrays = list(_two_row_arrays())
    for place in placements:
        place(arrays)
    pattern = f"^{re.escape(message)}$"
    with pytest.raises(StructuralError, match=pattern):
        LinearProgram(*arrays)
    with pytest.raises(StructuralError, match=pattern):
        program_from_rows(*row_form(*arrays, dense=True))


@pytest.mark.parametrize(
    "part, value, message",
    [
        (1, [1.0, 1.0, 0.0], "matrix of shape (3,) over 3 variables"),
        (2, [2.0], "right-hand sides of shape (1,) for 2 rows"),
        (3, [1, -1, 0], "senses of shape (3,) for 2 rows"),
        (3, [1, 2], "constraint 1: unknown sense 2"),
        (0, [[1.0, 2.0, 3.0]], "objective of shape (1, 3): one entry per variable"),
        (1, [[1.0, 1.0], [0.0, 1.0]], "matrix of shape (2, 2) over 3 variables"),
        (1, [[1.0, 1.0, 0.0, 1.0]] * 2, "matrix of shape (2, 4) over 3 variables"),
        (1, [[1.0], [1.0, 2.0]], "matrix is not an array of numbers"),
        (0, (1.0, "a"), "objective is not an array of numbers"),
        (3, [1, "<>"], "senses is not an array of numbers"),
    ],
)
def test_the_array_constructor_refuses_arrays_of_the_wrong_shape(part, value, message):
    arrays = list(_two_row_arrays())
    arrays[part] = value
    with pytest.raises(StructuralError, match=f"^{re.escape(message)}$"):
        LinearProgram(*arrays)


def test_array_built_programs_keep_read_only_arrays_and_share_them():
    arrays = _two_row_arrays()
    given = [np.array(part, dtype=float) for part in arrays]
    lp = LinearProgram(*given)
    # the arrays are copies, not the caller's
    given[1][0, 0] = 7.0
    given[4][0] = -1.0
    assert lp.matrix[0, 0] == 1.0 and lp.lower[0] == 0.0
    names = ("matrix", "rhs", "senses", "lower", "upper")
    for name in names:
        assert not getattr(lp, name).flags.writeable
    assert lp.senses.dtype == np.int8
    assert lp.variable_bounds == ((0.0, 1.0), (0.0, 2.0), (0.0, None))

    rebound = lp.with_bounds(1, 0.5, None)
    for name in ("matrix", "rhs", "senses"):
        assert getattr(rebound, name) is getattr(lp, name)
    assert rebound.lower.tolist() == [0.0, 0.5, 0.0]
    assert rebound.upper.tolist() == [1.0, math.inf, math.inf]
    assert not rebound.lower.flags.writeable and not rebound.upper.flags.writeable
    assert rebound.variable_bounds == ((0.0, 1.0), (0.5, None), (0.0, None))
    assert lp.variable_bounds == ((0.0, 1.0), (0.0, 2.0), (0.0, None))
    assert rebound.objective == lp.objective

    reweighed = rebound.with_objective([0.0, -1.0, 2])
    for name in names:
        assert getattr(reweighed, name) is getattr(rebound, name)
    assert reweighed.objective == (0.0, -1.0, 2.0)
    assert reweighed.constraints == rebound.constraints == lp.constraints
    assert reweighed == program_from_rows(
        (0.0, -1.0, 2.0), lp.constraints, rebound.variable_bounds
    )
    with pytest.raises(StructuralError, match="^objective entries must be finite$"):
        lp.with_objective([1.0, math.nan, 1.0])
    with pytest.raises(StructuralError, match="^2 objective entries for 3 variables$"):
        lp.with_objective([1.0, 1.0])
    with pytest.raises(AttributeError):
        lp.objective = (1.0, 1.0, 1.0)


@pytest.mark.parametrize(
    "var, message",
    [
        (-1, "variable index -1 out of range"),
        (2, "variable index 2 out of range"),
        (1.0, "variable index 1.0 is not an integer"),
    ],
)
def test_with_bounds_refuses_an_index_outside_the_program(var, message):
    lp = program_from_rows((1.0, 1.0), (((1.0, 1.0), "<=", 1.5),), ((0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(StructuralError, match=f"^{re.escape(message)}$"):
        lp.with_bounds(var, 0.0, 0.5)
    assert lp.with_bounds(np.int64(1), 0.0, 0.5).variable_bounds == ((0.0, 1.0), (0.0, 0.5))


class _Unreadable(tuple):
    """Stands in for a view (``constraints``, ``variable_bounds``) where
    the solvers and the check must not read it."""

    def __iter__(self):
        raise AssertionError("a view was read")

    def __len__(self):
        raise AssertionError("a view was read")

    def __getitem__(self, key):
        raise AssertionError("a view was read")


def test_solvers_read_the_arrays_not_the_rows(monkeypatch):
    # the root relaxation takes a sixth of x, so branch and bound runs
    lp = program_from_rows(
        (5.0, 4.0, 3.5),
        (
            ((3.0, 2.0, 2.0), "<=", 4.5),
            ((1.0, 1.0, 0.0), ">=", 0.5),
            ((0.0, 1.0, -1.0), "=", 0.0),
        ),
        ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)),
    )
    mip = MipProblem(lp, (0, 1, 2))
    expected_lp, expected_mip = repr(solve_lp(lp)), repr(solve_mip(mip))
    nodes = []
    real = mip_module.solve_lp
    monkeypatch.setattr(mip_module, "solve_lp", lambda node: nodes.append(node) or real(node))
    object.__setattr__(lp, "constraints", _Unreadable())
    object.__setattr__(lp, "variable_bounds", _Unreadable())
    assert repr(solve_lp(lp)) == expected_lp
    assert repr(solve_mip(mip)) == expected_mip
    assert len(nodes) >= 3
    assert constraint_violations(lp, solve_mip(mip).assignment, integer_vars=(0, 1, 2)) == []
    assert constraint_violations(lp, (0.5, 1.0, 2.0), integer_vars=(0, 1, 2)) == [
        "variable 2: 2.0 above upper bound 1.0",
        "constraint 0: 7.5 > 4.5",
        "constraint 2: -1.0 != 0.0",
        "variable 0: 0.5 not integral",
    ]


TOL = 1e-7
LOOSE = 1e-3
# how far past its tolerance edge a placed row or bound sits (negative:
# inside), as an offset or as a number of ulps from the edge itself
EDGES = (-1e-9, -1e-12, 0.0, 1e-12, 1e-9)
ULPS = (-2, -1, 0, 1, 2)


@st.composite
def _lps_and_points(draw):
    """An LP and a point built around each other: each row's right-hand
    side and one bound of each variable are either loose at the point or
    placed at the edge of their tolerance."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 4))
    values = st.floats(-100.0, 100.0, allow_subnormal=False)
    point = [draw(values) for _ in range(n)]
    placements = []

    def place(anchor, sign):
        """``anchor`` moved by the tolerance toward ``sign`` (the side
        where the point breaks the bound or row), or loose: moved by
        LOOSE the other way."""
        kind = draw(st.sampled_from(("loose",) * 4 + ("offset", "ulps")))
        if kind == "loose":
            placements.append(None)
            return anchor - sign * LOOSE
        if kind == "offset":
            edge = draw(st.sampled_from(EDGES))
            placements.append(edge)
            return anchor + sign * (TOL + edge)
        steps = draw(st.sampled_from(ULPS))
        placements.append(0.0)
        value = anchor + sign * TOL
        for _ in range(abs(steps)):
            value = math.nextafter(value, sign * steps * math.inf)
        return value

    constraints = []
    for _ in range(m):
        row = [draw(st.sampled_from((0.0, 1.0)) | values) for _ in range(n)]
        lhs = sum(map(operator.mul, row, point), 0.0)
        relation = draw(st.sampled_from(("<=", ">=", "=")))
        if relation == "=":
            # a loose equality row holds exactly
            sign = draw(st.sampled_from((-1.0, 1.0)))
            rhs = place(lhs, sign)
            if placements[-1] is None:
                rhs = lhs
        else:
            rhs = place(lhs, -1.0 if relation == "<=" else 1.0)
        constraints.append((tuple(row), relation, rhs))
    # one bound of each variable is placed, the other is loose or absent
    bounds = []
    for x in point:
        if draw(st.booleans()):
            bounds.append((place(x, 1.0), None if draw(st.booleans()) else x + LOOSE))
        else:
            bounds.append((x - LOOSE, place(x, -1.0)))
    lp = program_from_rows(tuple(0.0 for _ in point), tuple(constraints), tuple(bounds))
    spoilt = draw(st.sampled_from((None,) * 6 + (math.nan, math.inf, -math.inf)))
    if spoilt is not None:
        point[draw(st.integers(0, n - 1))] = spoilt
    return lp, tuple(point), placements


@settings(derandomize=True, max_examples=500, deadline=None)
@given(_lps_and_points())
def test_array_feasibility_agrees_with_the_exact_check(case):
    # the one check, read from the arrays, passes every finite point whose
    # rows and bounds all have room to spare, and refuses every point that
    # is not finite or sits 1e-9 or more past an edge
    lp, point, placements = case
    violations = constraint_violations(lp, point, TOL)
    finite = all(map(math.isfinite, point))
    if finite and all(p is None for p in placements):
        assert violations == []
    if not finite or any(p is not None and p >= 1e-9 for p in placements):
        assert violations


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_array_feasibility_refuses_non_finite_points(value):
    # no row, and no upper bound, to catch a non-finite entry
    lp = program_from_rows((0.0, 0.0), (), ((0.0, None), (0.0, None)))
    assert constraint_violations(lp, (1.0, value))[0] == f"variable 1: {value} is not finite"


@pytest.mark.parametrize(
    "tol, integer_vars, error, message",
    [
        (math.nan, (), ParameterError, "tolerance nan must be finite and nonnegative"),
        (-1.0, (), ParameterError, "tolerance -1.0 must be finite and nonnegative"),
        (math.inf, (), ParameterError, "tolerance inf must be finite and nonnegative"),
        (1e-7, (5,), StructuralError, "integer variable index 5 out of range"),
        (1e-7, (-1,), StructuralError, "integer variable index -1 out of range"),
        (1e-7, (0.5,), StructuralError, "integer variable index 0.5 is not an integer"),
    ],
)
def test_the_check_refuses_a_bad_tolerance_or_index(tol, integer_vars, error, message):
    lp = program_from_rows((1.0, 1.0), (((1.0, 1.0), "<=", 1.0),), ((0.0, 1.0), (0.0, 1.0)))
    for point in ((1.0, 1.0), (0.0, 0.0)):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            constraint_violations(lp, point, tol, integer_vars)


@pytest.mark.parametrize("point", [("a", 1.0), ([1.0], 1.0)])
def test_the_check_refuses_a_point_that_is_not_numbers(point):
    lp = program_from_rows((1.0, 1.0), (((1.0, 1.0), "<=", 1.0),), ((0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(StructuralError, match="^assignment is not an array of numbers$"):
        constraint_violations(lp, point)


def test_each_rounded_candidate_is_checked_once(monkeypatch):
    # 0.9999995 is integral to the branch and bound (within 1e-6), but
    # rounded to 1 it sits 5e-7 past the row
    lp = program_from_rows((1.0,), (((1.0,), "<=", 0.9999995),), ((0.0, 2.0),))
    calls = []
    real = mip_module.constraint_violations
    monkeypatch.setattr(
        mip_module, "constraint_violations", lambda *args: calls.append(args) or real(*args)
    )
    message = "rounded relaxation solution fails feasibility: constraint 0: 1.0 > 0.9999995"
    with pytest.raises(QsatError, match=f"^{re.escape(message)}$"):
        solve_mip(MipProblem(lp, (0,)))
    assert calls == [(lp, (1.0,))]


def test_the_mip_objective_sums_left_to_right():
    # from Python 3.12 on, the built-in sum of these terms is compensated
    terms = (1e16, 1.0, 1.0)
    assert math.fsum(terms) == 1e16 + 2
    lp = program_from_rows(terms, (), ((1.0, 1.0),) * 3)
    result = solve_mip(MipProblem(lp, (0, 1, 2)))
    assert result.assignment == (1.0, 1.0, 1.0)
    assert result.objective_value == 1e16


def sparse_form(dense_rows):
    """The same constraints with each dense row handed over as the
    SparseRow of its nonzero entries."""
    return tuple(
        (
            SparseRow(
                tuple(j for j, c in enumerate(coeffs) if c != 0),
                tuple(c for c in coeffs if c != 0),
            ),
            relation,
            rhs,
        )
        for coeffs, relation, rhs in dense_rows
    )


def test_dense_and_sparse_rows_give_identical_results():
    rng = random.Random(404)
    for trial in range(300):
        n = rng.randint(1, 8)
        dense = []
        for _ in range(rng.randint(0, 6)):
            coeffs = tuple(
                0.0 if rng.random() < 0.4 else round(rng.uniform(-2.0, 3.0), 3)
                for _ in range(n)
            )
            dense.append((coeffs, rng.choice(("<=", ">=", "=")), rng.uniform(-3, 8)))
        objective = tuple(round(rng.uniform(-2.0, 3.0), 3) for _ in range(n))
        bounds = tuple(
            (lo, None if rng.random() < 0.2 else lo + rng.uniform(0.0, 4.0))
            for lo in (rng.choice((0.0, rng.uniform(-2.0, 1.0))) for _ in range(n))
        )
        from_dense = program_from_rows(objective, tuple(dense), bounds)
        from_sparse = program_from_rows(objective, sparse_form(dense), bounds)
        assert from_dense == from_sparse, f"trial {trial}"
        assert repr(solve_lp(from_dense)) == repr(solve_lp(from_sparse)), f"trial {trial}"
        point = tuple(
            lo + rng.uniform(-0.5, 3.0 if hi is None else hi - lo + 0.5)
            for lo, hi in bounds
        )
        assert constraint_violations(from_dense, point) == constraint_violations(
            from_sparse, point
        ), f"trial {trial}"

    rng = random.Random(405)
    for trial in range(100):
        mip = random_mip(rng, max_vars=5)
        lp = mip.base
        dense = [(dense_row(row, lp.num_vars), rel, b) for row, rel, b in lp.constraints]
        again = MipProblem(
            program_from_rows(lp.objective, sparse_form(dense), lp.variable_bounds),
            mip.integer_vars,
        )
        assert repr(brute_force_mip(again)) == repr(brute_force_mip(mip)), f"trial {trial}"


def matching_oracle(weights):
    """Best partial matching by recursion over rows; independent of the
    augmenting-path code."""
    num_cols = len(weights[0]) if weights else 0

    def best_from(row, used_cols):
        if row == len(weights):
            return 0.0
        value = best_from(row + 1, used_cols)
        for j in range(num_cols):
            w = weights[row][j]
            if j in used_cols or w == -math.inf:
                continue
            value = max(value, w + best_from(row + 1, used_cols | {j}))
        return value

    return best_from(0, frozenset())


def test_hungarian_two_by_two():
    matching, total = hungarian([[3.0, 1.0], [2.0, 4.0]])
    assert matching == {0: 0, 1: 1}
    assert total == 7.0


def test_hungarian_diagonal():
    weights = [[1.0 if i == j else 0.0 for j in range(4)] for i in range(4)]
    matching, total = hungarian(weights)
    assert total == 4.0
    assert all(matching[i] == i for i in range(4))


def test_hungarian_matches_permutation_oracle():
    rng = random.Random(77)
    for trial in range(100):
        weights = [[rng.uniform(0.0, 10.0) for _ in range(6)] for _ in range(6)]
        _, total = hungarian(weights)
        oracle = max(
            sum(weights[i][p[i]] for i in range(6))
            for p in itertools.permutations(range(6))
        )
        assert total == pytest.approx(oracle, abs=1e-9), f"trial {trial}"


def test_hungarian_partial_and_forbidden():
    rng = random.Random(13)
    for trial in range(20):
        weights = [
            [
                -math.inf if rng.random() < 0.3 else rng.uniform(-2.0, 8.0)
                for _ in range(5)
            ]
            for _ in range(4)
        ]
        matching, total = hungarian(weights)
        for i, j in matching.items():
            assert weights[i][j] != -math.inf
        cols = list(matching.values())
        assert len(cols) == len(set(cols))
        assert total == pytest.approx(matching_oracle(weights), abs=1e-9), f"trial {trial}"


def test_hungarian_rectangular_and_empty():
    matching, total = hungarian([[5.0, 1.0, 2.0]])
    assert matching == {0: 0}
    assert total == 5.0
    assert hungarian([]) == ({}, 0.0)


def flow_oracle(supply, demand, arcs, limit):
    """Best total weight over every integral flow, by enumerating each
    arc's units; independent of the augmenting-path code."""
    best = 0.0
    arc_list = list(arcs)
    for units in itertools.product(*(range(supply[i] + 1) for i, _ in arc_list)):
        sent = [0] * len(supply)
        taken = [0] * len(demand)
        for (i, r), u in zip(arc_list, units):
            sent[i] += u
            taken[r] += u
        if sum(units) > limit or any(s > cap for s, cap in zip(sent, supply)):
            continue
        if any(t > cap for t, cap in zip(taken, demand)):
            continue
        best = max(best, sum(arcs[arc] * u for arc, u in zip(arc_list, units)))
    return best


def test_flow_survives_a_rounding_cycle():
    # pushing (1, 3) first leaves the residual cycle 3 -> 1 -> 3, whose
    # gain rounds above zero after the 1.076 of arc (0, 3), so a path
    # that followed it would not be simple
    assert 1.076 - 8.467 + 8.467 > 1.076
    flow = max_weight_flow(
        (1, 1, 1), (1, 1, 2, math.inf), {(0, 3): 1.076, (1, 3): 8.467}, limit=2
    )
    assert flow == {(0, 3): 1, (1, 3): 1}


def test_flow_matches_enumeration_under_node_caps_and_a_limit():
    rng = random.Random(2718)
    limited = 0
    for trial in range(300):
        n_left, n_right = rng.randint(1, 3), rng.randint(1, 3)
        supply = [rng.randint(0, 3) for _ in range(n_left)]
        demand = [rng.randint(0, 3) for _ in range(n_right)]
        arcs = {
            (i, r): float(rng.randint(-2, 9))
            for i in range(n_left)
            for r in range(n_right)
            if rng.random() < 0.7
        }
        limit = rng.choice([math.inf, rng.randint(0, 4)])
        flow = max_weight_flow(supply, demand, arcs, limit)
        assert all(units > 0 and arc in arcs for arc, units in flow.items())
        assert sum(flow.values()) <= limit
        for i in range(n_left):
            assert sum(u for (a, _), u in flow.items() if a == i) <= supply[i]
        for r in range(n_right):
            assert sum(u for (_, b), u in flow.items() if b == r) <= demand[r]
        # integer weights sum exactly, so the optimum must match exactly
        total = sum(arcs[arc] * units for arc, units in flow.items())
        assert total == flow_oracle(supply, demand, arcs, limit), f"trial {trial}"
        # a unit on a negative arc could be dropped for a better flow
        assert all(arcs[arc] >= 0 for arc in flow)
        limited += sum(flow.values()) == limit
    # the limit binds in some trials, not only the node caps
    assert limited >= 30


def test_flow_rejects_non_finite_weights():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(StructuralError, match="must be finite"):
            max_weight_flow((1,), (1,), {(0, 0): bad})


def mwis_oracle(weights, edges):
    """Subset-DP enumeration over all vertex subsets."""
    n = len(weights)
    adjacency = [0] * n
    for a, b in edges:
        adjacency[a] |= 1 << b
        adjacency[b] |= 1 << a
    best = 0.0
    independent = bytearray(1 << n)
    independent[0] = 1
    totals = [0.0] * (1 << n)
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        if independent[rest] and not (adjacency[low] & mask):
            independent[mask] = 1
            totals[mask] = totals[rest] + weights[low]
            best = max(best, totals[mask])
    return best


def test_mwis_edgeless():
    selected, total = mwis_exact([2.0, 0.0, 3.0, -1.0], [])
    assert selected == [0, 2]
    assert total == 5.0


def test_mwis_single_edge():
    selected, total = mwis_exact([5.0, 3.0], [(0, 1)])
    assert selected == [0]
    assert total == 5.0


def test_mwis_matches_subset_oracle():
    rng = random.Random(99)
    for trial in range(50):
        n = rng.randint(8, 18)
        weights = [rng.uniform(-1.0, 5.0) for _ in range(n)]
        edges = []
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < 0.25:
                    edges.append((a, b))
        selected, total = mwis_exact(weights, edges, vertex_limit=18)
        chosen = set(selected)
        for a, b in edges:
            assert not (a in chosen and b in chosen)
        assert total == pytest.approx(mwis_oracle(weights, edges), abs=1e-9), f"trial {trial}"


def test_mwis_limits_and_validation():
    with pytest.raises(SizeLimitError):
        mwis_exact([1.0] * 10, [], vertex_limit=9)
    with pytest.raises(StructuralError):
        mwis_exact([1.0, 1.0], [(0, 2)])
    with pytest.raises(StructuralError):
        mwis_exact([1.0, 1.0], [(1, 1)])
