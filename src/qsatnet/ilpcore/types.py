"""Problem and result containers shared by the optimization routines."""

from __future__ import annotations

import copy
import math
import operator
from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple

from ..errors import StructuralError

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"
GAP_LIMIT = "GapLimit"

RELATIONS = ("<=", "=", ">=")


class SparseRow(NamedTuple):
    """A constraint row's nonzeros: strictly increasing column indices and
    the coefficient at each."""

    columns: tuple[int, ...]
    coefficients: tuple[float, ...]


@dataclass(frozen=True)
class LinearProgram:
    """Maximize objective . x subject to linear constraints and box bounds.

    Each constraint is ``(row, relation, rhs)``.  The row may be given as
    a ``SparseRow`` or as a dense sequence with one coefficient per
    variable; either way it is stored as a ``SparseRow``, a dense row
    keeping only its nonzero entries.  ``variable_bounds`` holds one
    (lower, upper) pair per variable; upper may be None (or infinite) for
    unbounded above.  Lower bounds must be finite, and objective entries,
    coefficients and right-hand sides too; a NaN upper bound is rejected.
    """

    objective: tuple[float, ...]
    constraints: tuple[tuple[SparseRow, str, float], ...]
    variable_bounds: tuple[tuple[float, float | None], ...]

    def __post_init__(self) -> None:
        objective = tuple(map(float, self.objective))
        if not all(map(math.isfinite, objective)):
            raise StructuralError("objective entries must be finite")
        n = len(objective)
        constraints = []
        for k, item in enumerate(self.constraints):
            if len(item) != 3:
                raise StructuralError(f"constraint {k}: expected (row, relation, rhs)")
            row, relation, rhs = item
            if relation not in RELATIONS:
                raise StructuralError(f"constraint {k}: unknown relation {relation!r}")
            rhs = float(rhs)
            if not math.isfinite(rhs):
                raise StructuralError(f"constraint {k}: right-hand side must be finite")
            constraints.append((_checked_row(k, row, n), relation, rhs))
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


def _checked_row(k: int, row, n: int) -> SparseRow:
    """Constraint ``k``'s row over ``n`` variables as a checked SparseRow."""
    if isinstance(row, SparseRow):
        columns = tuple(map(operator.index, row.columns))
        coefficients = tuple(map(float, row.coefficients))
        if len(columns) != len(coefficients):
            raise StructuralError(
                f"constraint {k}: {len(columns)} columns for "
                f"{len(coefficients)} coefficients"
            )
        if columns and not (
            0 <= columns[0]
            and columns[-1] < n
            and all(map(operator.lt, columns, columns[1:]))
        ):
            raise StructuralError(
                f"constraint {k}: columns must increase strictly within [0, {n})"
            )
    else:
        dense = tuple(map(float, row))
        if len(dense) != n:
            raise StructuralError(
                f"constraint {k}: {len(dense)} coefficients for {n} variables"
            )
        columns = tuple(compress(range(n), dense))
        coefficients = tuple(compress(dense, dense))
    if not all(map(math.isfinite, coefficients)):
        raise StructuralError(f"constraint {k}: coefficients must be finite")
    return SparseRow(columns, coefficients)


def _checked_bounds(j: int, lower, upper) -> tuple[float, float | None]:
    """Variable ``j``'s (lower, upper) as floats, an infinite upper as None."""
    lower = float(lower)
    if not math.isfinite(lower):
        raise StructuralError(f"variable {j}: lower bound must be finite")
    if upper is not None:
        upper = float(upper)
        if math.isnan(upper):
            raise StructuralError(f"variable {j}: upper bound is NaN")
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
        indices = tuple(sorted(set(map(int, self.integer_vars))))
        n = self.base.num_vars
        if indices and not (0 <= indices[0] and indices[-1] < n):
            bad = next(j for j in indices if not 0 <= j < n)
            raise StructuralError(f"integer variable index {bad} out of range")
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
    for k, ((columns, coeffs), relation, rhs) in enumerate(lp.constraints):
        lhs = sum(map(operator.mul, coeffs, map(assignment.__getitem__, columns)), 0.0)
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
