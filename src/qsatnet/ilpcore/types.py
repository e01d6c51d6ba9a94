"""Problem and result containers shared by the optimization routines."""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import FrozenInstanceError, dataclass
from itertools import compress
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


class LinearProgram:
    """Maximize objective . x subject to linear constraints and box bounds.

    The program is held as arrays: ``matrix``, the constraint rows as a
    dense ``(m, n)`` array; ``rhs`` and ``senses`` (+1 for ``<=``, 0 for
    ``=``, -1 for ``>=``), one entry per row; and ``lower`` and ``upper``,
    one bound per variable, +inf for no upper bound.  All five are
    read-only and shared by every ``with_bounds`` and ``with_objective``
    copy.  ``LinearProgram.from_arrays`` takes them as they are kept;
    ``LinearProgram(objective, constraints, variable_bounds)`` takes rows.

    Each constraint in the row form is ``(row, relation, rhs)``.  The row
    may be given as a ``SparseRow`` or as a dense sequence with one
    coefficient per variable.  ``variable_bounds`` holds one (lower,
    upper) pair per variable; upper may be None (or +inf) for unbounded
    above.  Either way, lower bounds must be finite, and objective
    entries, coefficients and right-hand sides too; a NaN or -inf upper
    bound is rejected, as is a lower bound above its upper bound.

    ``constraints`` and ``variable_bounds`` are views in the row form,
    built on first read: each row as the ``SparseRow`` of its nonzero
    entries (rows handed to the row form are kept as checked), each
    infinite upper bound as None.  Equality, hashing and ``repr`` read
    ``objective``, ``constraints`` and ``variable_bounds``.
    """

    def __init__(self, objective, constraints, variable_bounds) -> None:
        objective = _checked_objective(objective)
        n = len(objective)
        rows = _checked_constraints(tuple(constraints), n)
        matrix = np.zeros((len(rows), n))
        for k, (row, _, _) in enumerate(rows):
            matrix[k, list(row.columns)] = row.coefficients
        self._set(
            objective,
            matrix,
            [rhs for _, _, rhs in rows],
            [SENSES[relation] for _, relation, _ in rows],
            [lower for lower, _ in variable_bounds],
            [math.inf if upper is None else upper for _, upper in variable_bounds],
        )
        self.__dict__["constraints"] = rows

    @classmethod
    def from_arrays(cls, objective, matrix, rhs, senses, lower, upper) -> "LinearProgram":
        """The program over the given arrays, each copied and checked
        whole, with the row form's messages."""
        lp = object.__new__(cls)
        lp._set(objective, matrix, rhs, senses, lower, upper)
        return lp

    def _set(self, objective, matrix, rhs, senses, lower, upper) -> None:
        objective = _checked_objective(objective)
        n = len(objective)
        matrix = np.array(matrix, dtype=float)
        if matrix.ndim != 2 or (matrix.shape[1] != n and not len(matrix)):
            raise StructuralError(f"matrix of shape {matrix.shape} over {n} variables")
        m, width = matrix.shape
        if width != n:
            raise StructuralError(f"constraint 0: {width} coefficients for {n} variables")
        rhs = np.array(rhs, dtype=float)
        for name, array in (("right-hand sides", rhs), ("senses", senses)):
            if np.shape(array) != (m,):
                raise StructuralError(f"{name} of shape {np.shape(array)} for {m} rows")
        known = set(np.asarray(senses).tolist()) <= _RELATION_OF.keys()
        if not (known and np.isfinite(rhs).all() and np.isfinite(matrix).all()):
            raise StructuralError(_first_bad_row(matrix, rhs, senses))
        senses = np.array(senses, dtype=np.int8)
        lower = np.array(lower, dtype=float)
        upper = np.array(upper, dtype=float)
        for bound in (lower, upper):
            if bound.shape != (n,):
                raise StructuralError(f"{len(bound)} bounds for {n} variables")
        bad = ~np.isfinite(lower) | np.isnan(upper) | (upper < lower)
        if bad.any():
            j = int(bad.argmax())
            raise StructuralError(_bound_defect(j, float(lower[j]), float(upper[j])))
        for array in (matrix, rhs, senses, lower, upper):
            array.flags.writeable = False
        self.__dict__.update(
            objective=tuple(objective.tolist()),
            matrix=matrix,
            rhs=rhs,
            senses=senses,
            lower=lower,
            upper=upper,
        )

    @functools.cached_property
    def constraints(self) -> tuple[tuple[SparseRow, str, float], ...]:
        # the nonzeros' flat indices in row-major order, and where each
        # row starts among them (a bool nonzero is far cheaper than a
        # float one)
        n = self.num_vars
        flat = np.flatnonzero(self.matrix.ravel() != 0)
        values = self.matrix.ravel()[flat].tolist()
        columns = (flat % n).tolist() if n else []
        starts = np.searchsorted(flat, np.arange(len(self.rhs) + 1) * n).tolist()
        return tuple(
            (SparseRow(tuple(columns[a:b]), tuple(values[a:b])), _RELATION_OF[sense], rhs)
            for a, b, sense, rhs in zip(
                starts, starts[1:], self.senses.tolist(), self.rhs.tolist()
            )
        )

    @functools.cached_property
    def variable_bounds(self) -> tuple[tuple[float, float | None], ...]:
        upper = [None if hi == math.inf else hi for hi in self.upper.tolist()]
        return tuple(zip(self.lower.tolist(), upper))

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    def with_bounds(self, var: int, lower: float, upper: float | None) -> "LinearProgram":
        """Copy with variable ``var``'s bounds replaced.  Only the new pair
        is checked: everything else was checked when ``self`` was built,
        and the copy shares the constraint arrays."""
        n = self.num_vars
        try:
            j = operator.index(var)
        except TypeError:
            raise StructuralError(f"variable index {var!r} is not an integer") from None
        if not 0 <= j < n:
            raise StructuralError(f"variable index {j} out of range")
        lower = float(lower)
        upper = math.inf if upper is None else float(upper)
        defect = _bound_defect(j, lower, upper)
        if defect:
            raise StructuralError(defect)
        return self._copy(
            lower=_with_entry(self.lower, j, lower), upper=_with_entry(self.upper, j, upper)
        )

    def with_objective(self, objective) -> "LinearProgram":
        """Copy with the objective replaced; the copy shares every array."""
        objective = _checked_objective(objective)
        if len(objective) != self.num_vars:
            raise StructuralError(
                f"{len(objective)} objective entries for {self.num_vars} variables"
            )
        return self._copy(objective=tuple(objective.tolist()))

    def _copy(self, **changes) -> "LinearProgram":
        """Copy with some fields replaced, sharing the rest and the
        ``constraints`` view; a bounds view is built again on first read."""
        child = object.__new__(type(self))
        child.__dict__.update(self.__dict__)
        child.__dict__.update(changes)
        if changes.keys() & {"lower", "upper"}:
            child.__dict__.pop("variable_bounds", None)
        return child

    def _key(self) -> tuple:
        return (self.objective, self.constraints, self.variable_bounds)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(objective={self.objective!r}, "
            f"constraints={self.constraints!r}, variable_bounds={self.variable_bounds!r})"
        )

    def __setattr__(self, name, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


# each sense's relation, the inverse of SENSES
_RELATION_OF = {sense: relation for relation, sense in SENSES.items()}


def _with_entry(array: np.ndarray, j: int, value: float) -> np.ndarray:
    """A read-only copy of ``array`` with entry ``j`` replaced."""
    array = array.copy()
    array[j] = value
    array.flags.writeable = False
    return array


def _checked_objective(objective) -> np.ndarray:
    objective = np.array(objective, dtype=float)
    if objective.ndim != 1:
        raise StructuralError(f"objective of shape {objective.shape}: one entry per variable")
    if not np.isfinite(objective).all():
        raise StructuralError("objective entries must be finite")
    return objective


def _first_bad_row(matrix, rhs, senses) -> str:
    """The message naming the first row with an unknown sense, a
    non-finite right-hand side or a non-finite coefficient, checked in
    that order within the row, as the row form checks each constraint."""
    senses = np.asarray(senses).tolist()
    known = np.array([sense in _RELATION_OF for sense in senses])
    finite_rhs = np.isfinite(rhs)
    finite_rows = np.isfinite(matrix).all(axis=1)
    k = int((~known | ~finite_rhs | ~finite_rows).argmax())
    if not known[k]:
        return f"constraint {k}: unknown sense {senses[k]!r}"
    if not finite_rhs[k]:
        return f"constraint {k}: right-hand side must be finite"
    return f"constraint {k}: coefficients must be finite"


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


def _bound_defect(j: int, lower: float, upper: float) -> str | None:
    """What is wrong with variable ``j``'s bounds, +inf for no upper
    bound, or None."""
    if not math.isfinite(lower):
        return f"variable {j}: lower bound must be finite"
    if math.isnan(upper):
        return f"variable {j}: upper bound is NaN"
    if upper < lower:
        return f"variable {j}: bounds [{lower}, {upper}] empty"
    return None


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
    outside = ~np.isfinite(x) | (x < lp.lower - tol) | (x > lp.upper + tol)
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
