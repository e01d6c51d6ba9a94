"""Branch-and-bound integer programming."""

from __future__ import annotations

import heapq
import math
import operator

from ..errors import ParameterError, QsatError, StructuralError
from .lp import solve_lp
from .types import (
    GAP_LIMIT,
    INFEASIBLE,
    OPTIMAL,
    LinearProgram,
    MipProblem,
    SolveResult,
    constraint_violations,
    within_tolerance,
)

INTEGRALITY_TOL = 1e-6
BOUND_SLACK = 1e-9


def _most_fractional(assignment, integer_vars) -> int | None:
    if all(map(float.is_integer, map(assignment.__getitem__, integer_vars))):
        return None
    best_j = None
    best_score = INTEGRALITY_TOL
    for j in integer_vars:
        frac = assignment[j] - math.floor(assignment[j])
        score = min(frac, 1.0 - frac)
        if score > best_score:
            best_score = score
            best_j = j
    return best_j


def _rounded(assignment, integer_vars):
    values = list(assignment)
    for j in integer_vars:
        values[j] = float(round(values[j]))
    return tuple(values)


def solve_mip(mip: MipProblem, node_limit: int = 100_000) -> SolveResult:
    """Best-first branch and bound on the LP relaxation.

    Nodes are ordered by relaxation bound; branching picks the integer
    variable whose value sits closest to half-integral, lowest index on
    ties.  Children are solved at push time so the frontier always carries
    valid bounds.
    """
    if node_limit <= 0:
        raise ParameterError("node limit must be positive")
    upper = mip.base.upper.tolist()
    for j in mip.integer_vars:
        if upper[j] == math.inf:
            raise StructuralError(f"integer variable {j} needs a finite upper bound")

    root = solve_lp(mip.base)
    if root.status != OPTIMAL:
        return root
    nodes = 1
    frontier: list[tuple[float, int, LinearProgram, SolveResult]] = []
    heapq.heappush(frontier, (-root.objective_value, 0, mip.base, root))
    sequence = 1
    incumbent_obj = -math.inf
    incumbent: tuple[float, ...] | None = None

    while frontier:
        neg_bound, _, node_lp, relaxed = heapq.heappop(frontier)
        bound = -neg_bound
        if incumbent is not None and bound <= incumbent_obj + BOUND_SLACK:
            break
        branch_var = _most_fractional(relaxed.assignment, mip.integer_vars)
        if branch_var is None:
            candidate = _rounded(relaxed.assignment, mip.integer_vars)
            # a finite rounded candidate is integral, so the exact pass runs
            # only for one that is not finite or has a bound or row near or
            # past its tolerance
            if not within_tolerance(mip.base, candidate):
                problems = constraint_violations(
                    mip.base, candidate, integer_vars=mip.integer_vars
                )
                if problems:
                    raise QsatError(
                        "rounded relaxation solution fails feasibility: " + problems[0]
                    )
            value = sum(map(operator.mul, mip.base.objective, candidate))
            if value > incumbent_obj:
                incumbent_obj = value
                incumbent = candidate
            continue
        if nodes >= node_limit:
            if incumbent is None:
                return SolveResult(GAP_LIMIT, math.nan, None, gap=math.inf)
            gap = (bound - incumbent_obj) / max(1.0, abs(incumbent_obj))
            return SolveResult(GAP_LIMIT, incumbent_obj, incumbent, gap=max(0.0, gap))
        value = relaxed.assignment[branch_var]
        lower = float(node_lp.lower[branch_var])
        upper = float(node_lp.upper[branch_var])
        floor_v = math.floor(value)
        for new_lower, new_upper in (
            (lower, float(floor_v)),
            (float(floor_v + 1), upper),
        ):
            if new_lower > new_upper:
                continue
            child_lp = node_lp.with_bounds(branch_var, new_lower, new_upper)
            child = solve_lp(child_lp)
            nodes += 1
            if child.status != OPTIMAL:
                continue
            if incumbent is not None and child.objective_value <= incumbent_obj + BOUND_SLACK:
                continue
            heapq.heappush(
                frontier, (-child.objective_value, sequence, child_lp, child)
            )
            sequence += 1

    if incumbent is None:
        return SolveResult(INFEASIBLE, math.nan, None)
    return SolveResult(OPTIMAL, incumbent_obj, incumbent)
