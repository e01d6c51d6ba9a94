"""Problem and result containers shared by the optimization routines."""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

from ..errors import StructuralError

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"
GAP_LIMIT = "GapLimit"

RELATIONS = ("<=", "=", ">=")


@dataclass(frozen=True)
class LinearProgram:
    """Maximize objective . x subject to linear constraints and box bounds.

    ``variable_bounds`` holds one (lower, upper) pair per variable; upper
    may be None for unbounded above.  Lower bounds must be finite.
    """

    objective: tuple[float, ...]
    constraints: tuple[tuple[tuple[float, ...], str, float], ...]
    variable_bounds: tuple[tuple[float, float | None], ...]

    def __post_init__(self) -> None:
        objective = tuple(float(v) for v in self.objective)
        n = len(objective)
        constraints = []
        for k, item in enumerate(self.constraints):
            if len(item) != 3:
                raise StructuralError(f"constraint {k}: expected (coeffs, relation, rhs)")
            coeffs, relation, rhs = item
            coeffs = tuple(float(v) for v in coeffs)
            if len(coeffs) != n:
                raise StructuralError(
                    f"constraint {k}: {len(coeffs)} coefficients for {n} variables"
                )
            if relation not in RELATIONS:
                raise StructuralError(f"constraint {k}: unknown relation {relation!r}")
            constraints.append((coeffs, relation, float(rhs)))
        if len(self.variable_bounds) != n:
            raise StructuralError(
                f"{len(self.variable_bounds)} bounds for {n} variables"
            )
        bounds = [
            _checked_bounds(j, lower, upper)
            for j, (lower, upper) in enumerate(self.variable_bounds)
        ]
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "constraints", tuple(constraints))
        object.__setattr__(self, "variable_bounds", tuple(bounds))

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    def with_bounds(self, var: int, lower: float, upper: float | None) -> "LinearProgram":
        """Copy with variable ``var``'s bounds replaced.  Only the new pair
        is checked: everything else was checked when ``self`` was built."""
        bounds = list(self.variable_bounds)
        bounds[var] = _checked_bounds(var, lower, upper)
        child = copy.copy(self)
        object.__setattr__(child, "variable_bounds", tuple(bounds))
        return child


def _checked_bounds(j: int, lower, upper) -> tuple[float, float | None]:
    """Variable ``j``'s (lower, upper) as floats, an infinite upper as None."""
    lower = float(lower)
    if not math.isfinite(lower):
        raise StructuralError(f"variable {j}: lower bound must be finite")
    if upper is not None:
        upper = float(upper)
        if math.isinf(upper):
            upper = None
    if upper is not None and upper < lower:
        raise StructuralError(f"variable {j}: bounds [{lower}, {upper}] empty")
    return lower, upper


@dataclass(frozen=True)
class MipProblem:
    base: LinearProgram
    integer_vars: tuple[int, ...]

    def __post_init__(self) -> None:
        indices = tuple(sorted(set(int(j) for j in self.integer_vars)))
        for j in indices:
            if not 0 <= j < self.base.num_vars:
                raise StructuralError(f"integer variable index {j} out of range")
        object.__setattr__(self, "integer_vars", indices)


@dataclass(frozen=True)
class SolveResult:
    status: str
    objective_value: float
    assignment: tuple[float, ...] | None
    gap: float = 0.0


def constraint_violations(
    lp: LinearProgram,
    assignment,
    tol: float = 1e-7,
    integer_vars: tuple[int, ...] = (),
) -> list[str]:
    """Independent feasibility pass; returns one message per violation."""
    if assignment is None or len(assignment) != lp.num_vars:
        return [f"assignment has wrong length for {lp.num_vars} variables"]
    messages = []
    for j, ((lower, upper), x) in enumerate(zip(lp.variable_bounds, assignment)):
        if x < lower - tol:
            messages.append(f"variable {j}: {x} below lower bound {lower}")
        if upper is not None and x > upper + tol:
            messages.append(f"variable {j}: {x} above upper bound {upper}")
    for k, (coeffs, relation, rhs) in enumerate(lp.constraints):
        lhs = sum(c * x for c, x in zip(coeffs, assignment))
        if relation == "<=" and lhs > rhs + tol:
            messages.append(f"constraint {k}: {lhs} > {rhs}")
        elif relation == ">=" and lhs < rhs - tol:
            messages.append(f"constraint {k}: {lhs} < {rhs}")
        elif relation == "=" and abs(lhs - rhs) > tol:
            messages.append(f"constraint {k}: {lhs} != {rhs}")
    for j in integer_vars:
        if assignment[j] != round(assignment[j]):
            messages.append(f"variable {j}: {assignment[j]} not integral")
    return messages
