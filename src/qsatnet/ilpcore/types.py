"""Problem and result containers shared by the optimization routines."""

from __future__ import annotations

import copy
import math
import operator
from dataclasses import dataclass, field
from itertools import chain, compress
from typing import NamedTuple

import numpy as np

from ..errors import StructuralError

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"
GAP_LIMIT = "GapLimit"

RELATIONS = ("<=", "=", ">=")
# each relation's entry in LinearProgram.senses
SENSES = {"<=": 1, "=": 0, ">=": -1}
EPS = float(np.finfo(float).eps)


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
    (lower, upper) pair per variable; upper may be None (or +inf) for
    unbounded above.  Lower bounds must be finite, and objective entries,
    coefficients and right-hand sides too; a NaN or -inf upper bound is
    rejected.

    The constraints are also kept as read-only arrays, built once here
    and shared by every ``with_bounds`` copy: ``matrix``, the rows
    scattered into a dense ``(m, n)`` array, and ``rhs`` and ``senses``
    (+1 for ``<=``, 0 for ``=``, -1 for ``>=``), one entry per row.
    """

    objective: tuple[float, ...]
    constraints: tuple[tuple[SparseRow, str, float], ...]
    variable_bounds: tuple[tuple[float, float | None], ...]
    matrix: np.ndarray = field(init=False, repr=False, compare=False)
    rhs: np.ndarray = field(init=False, repr=False, compare=False)
    senses: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        objective = tuple(map(float, self.objective))
        if not all(map(math.isfinite, objective)):
            raise StructuralError("objective entries must be finite")
        n = len(objective)
        given = tuple(self.constraints)
        try:
            checked = _array_form(given, n)
        except (TypeError, ValueError, KeyError, OverflowError):
            checked = None
        if checked is None:
            # row by row, to name the first bad constraint, or to convert
            # dense rows and entries of other types
            checked = _array_form(_checked_constraints(given, n), n)
        if len(self.variable_bounds) != n:
            raise StructuralError(
                f"{len(self.variable_bounds)} bounds for {n} variables"
            )
        bounds = [
            _checked_bounds(j, lower, upper)
            for j, (lower, upper) in enumerate(self.variable_bounds)
        ]
        object.__setattr__(self, "objective", objective)
        for name, value in zip(("constraints", "matrix", "rhs", "senses"), checked):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "variable_bounds", tuple(bounds))

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    def with_bounds(self, var: int, lower: float, upper: float | None) -> "LinearProgram":
        """Copy with variable ``var``'s bounds replaced.  Only the new pair
        is checked: everything else was checked when ``self`` was built,
        and the copy shares its constraint arrays."""
        bounds = list(self.variable_bounds)
        bounds[var] = _checked_bounds(var, lower, upper)
        child = copy.copy(self)
        object.__setattr__(child, "variable_bounds", tuple(bounds))
        return child


def _array_form(constraints: tuple, n: int):
    """``(constraints, matrix, rhs, senses)`` of constraints over ``n``
    variables, checked on flat arrays, or None where a check fails or an
    entry is not of the exact type it is stored as: a tuple per
    constraint, a ``SparseRow`` of tuples of ints and floats, a str
    relation and a float right-hand side.

    Accepts only what ``_checked_constraints`` accepts, and then stores
    the same values: the constraints are kept as given.
    """
    m = len(constraints)
    rows, relations, rhs = zip(*constraints, strict=True) if m else ((), (), ())
    if not (
        set(map(type, constraints)) <= {tuple}
        and set(map(type, rows)) <= {SparseRow}
        and set(map(type, relations)) <= {str}
        and set(map(type, rhs)) <= {float}
    ):
        return None
    columns, coefficients = zip(*rows) if m else ((), ())
    lengths = list(map(len, columns))
    if not (
        set(map(type, chain(columns, coefficients))) <= {tuple}
        and set(map(type, chain.from_iterable(columns))) <= {int}
        and set(map(type, chain.from_iterable(coefficients))) <= {float}
        and lengths == list(map(len, coefficients))
        and all(map(math.isfinite, rhs))
    ):
        return None
    senses = np.fromiter(map(SENSES.__getitem__, relations), np.int8, m)
    nnz = sum(lengths)
    cols = np.fromiter(chain.from_iterable(columns), np.intp, nnz)
    coefs = np.fromiter(chain.from_iterable(coefficients), float, nnz)
    # each nonzero's index in the flattened matrix: with every column in
    # [0, n), these increase strictly exactly where each row's columns do;
    # read as unsigned, a negative column lies past n as well
    flat = (np.arange(m) * n).repeat(lengths) + cols
    finite_in_range = np.isfinite(coefs) & (cols.view(np.uintp) < n)
    if np.count_nonzero(finite_in_range) < nnz or np.count_nonzero(flat[1:] <= flat[:-1]):
        return None
    values = np.zeros(m * n)
    values[flat] = coefs
    matrix = values.reshape(m, n)
    rhs = np.array(rhs)
    for array in (matrix, rhs, senses):
        array.flags.writeable = False
    return constraints, matrix, rhs, senses


def _checked_constraints(constraints: tuple, n: int) -> tuple:
    """The constraints checked one by one, each row as a ``SparseRow``,
    each relation as its string in ``RELATIONS`` and each right-hand side
    as a float; raises on the first bad one."""
    checked = []
    for k, item in enumerate(constraints):
        if len(item) != 3:
            raise StructuralError(f"constraint {k}: expected (row, relation, rhs)")
        row, relation, rhs = item
        if relation not in RELATIONS:
            raise StructuralError(f"constraint {k}: unknown relation {relation!r}")
        rhs = float(rhs)
        if not math.isfinite(rhs):
            raise StructuralError(f"constraint {k}: right-hand side must be finite")
        relation = RELATIONS[RELATIONS.index(relation)]
        checked.append((_checked_row(k, row, n), relation, rhs))
    return tuple(checked)


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
        if upper == math.inf:
            upper = None
    if upper is not None and upper < lower:
        raise StructuralError(f"variable {j}: bounds [{lower}, {upper}] empty")
    return lower, upper


@dataclass(frozen=True)
class MipProblem:
    base: LinearProgram
    integer_vars: tuple[int, ...]

    def __post_init__(self) -> None:
        given = tuple(self.integer_vars)
        try:
            indices = tuple(sorted(set(map(operator.index, given))))
        except TypeError:
            # operator.index takes exactly the objects whose type has __index__
            bad = next(j for j in given if not hasattr(type(j), "__index__"))
            raise StructuralError(
                f"integer variable index {bad!r} is not an integer"
            ) from None
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
    """Independent feasibility pass, row by row; returns one message per
    violation.  Non-finite entries come first, each its own violation."""
    if assignment is None or len(assignment) != lp.num_vars:
        return [f"assignment has wrong length for {lp.num_vars} variables"]
    finite = list(map(math.isfinite, assignment))
    messages = [
        f"variable {j}: {assignment[j]} is not finite"
        for j in compress(range(len(finite)), map(operator.not_, finite))
    ]
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
        if finite[j] and assignment[j] != round(assignment[j]):
            messages.append(f"variable {j}: {assignment[j]} not integral")
    return messages


def within_tolerance(lp: LinearProgram, assignment, tol: float = 1e-7) -> bool:
    """Whether ``assignment`` meets every bound and row of ``lp`` with room
    to spare, read from the LP's arrays with one product ``matrix @ x``.

    True only where ``constraint_violations`` finds no bound or row
    violation.  Bounds compare as that check compares them.  A row's
    product may round differently from that check's sum, by at most
    ``n * eps`` times the sum of its terms' magnitudes, so the row must
    clear its tolerance by four times that bound (counting ``|rhs| +
    tol`` as terms too, for the rounding of the comparison itself).
    False sends the assignment to the exact check: a non-finite entry
    gives False, and so does a bound or row outside its tolerance or
    within that margin of it.
    """
    x = np.array(assignment, dtype=float)
    n = lp.num_vars
    if x.shape != (n,):
        return False
    lower, upper = zip(*lp.variable_bounds) if n else ((), ())
    # an upper bound of None reads as NaN, which no entry exceeds
    outside = (
        ~np.isfinite(x)
        | (x < np.array(lower, dtype=float) - tol)
        | (x > np.array(upper, dtype=float) + tol)
    )
    if np.count_nonzero(outside):
        return False
    matrix, rhs, senses = lp.matrix, lp.rhs, lp.senses
    # a row whose terms' magnitudes sum past 1e300 could overflow in one
    # order and not the other, so it goes to the exact check too
    scale = np.abs(matrix) @ np.abs(x) + np.abs(rhs) + tol
    room = tol - (4.0 * (n + 2) * EPS) * scale
    excess = matrix @ x - rhs
    return not np.count_nonzero(
        ((senses >= 0) & (excess > room))
        | ((senses <= 0) & (excess < -room))
        | (scale > 1e300)
    )
