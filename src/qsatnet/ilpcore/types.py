"""Problem and result containers shared by the optimization routines."""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import FrozenInstanceError, dataclass
from typing import NamedTuple

import numpy as np

from ..errors import ParameterError, StructuralError

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"
GAP_LIMIT = "GapLimit"

# each entry of LinearProgram.senses and its relation in the row view
_RELATION_OF = {1: "<=", 0: "=", -1: ">="}


class SparseRow(NamedTuple):
    """A constraint row's nonzeros: strictly increasing column indices and
    the coefficient at each."""

    columns: tuple[int, ...]
    coefficients: tuple[float, ...]


class LinearProgram:
    """Maximize objective . x subject to linear constraints and box bounds.

    ``LinearProgram(objective, matrix, rhs, senses, lower, upper)`` holds
    the program as arrays, each copied and checked whole: ``matrix``, the
    constraint rows as a dense ``(m, n)`` array; ``rhs`` and ``senses``
    (+1 for ``<=``, 0 for ``=``, -1 for ``>=``), one entry per row; and
    ``lower`` and ``upper``, one bound per variable, +inf for no upper
    bound.  An argument that is ragged or not numeric is refused by name.
    Objective entries, coefficients, right-hand sides and lower bounds
    must be finite; a NaN upper bound is refused, and so is a lower bound
    above its upper bound.  All five arrays are read-only and shared by
    every ``with_bounds`` and ``with_objective`` copy.

    ``constraints`` and ``variable_bounds`` are views of the arrays, built
    on first read: each row as ``(SparseRow, relation, rhs)`` with the
    row's nonzero entries, each infinite upper bound as None.  Equality,
    hashing and ``repr`` read ``objective`` and the two views, so they
    follow the arrays alone.
    """

    def __init__(self, objective, matrix, rhs, senses, lower, upper) -> None:
        objective = _checked_objective(objective)
        n = len(objective)
        matrix = _array("matrix", matrix)
        if matrix.ndim != 2 or matrix.shape[1] != n:
            raise StructuralError(f"matrix of shape {matrix.shape} over {n} variables")
        m = len(matrix)
        rhs = _array("right-hand sides", rhs)
        senses = _array("senses", senses, dtype=None)
        for name, array in (("right-hand sides", rhs), ("senses", senses)):
            if array.shape != (m,):
                raise StructuralError(f"{name} of shape {array.shape} for {m} rows")
        known = set(senses.tolist()) <= _RELATION_OF.keys()
        if not (known and np.isfinite(rhs).all() and np.isfinite(matrix).all()):
            raise StructuralError(_first_bad_row(matrix, rhs, senses))
        senses = senses.astype(np.int8)
        lower = _array("lower bounds", lower)
        upper = _array("upper bounds", upper)
        for bound in (lower, upper):
            if bound.shape != (n,):
                raise StructuralError(f"{bound.size} bounds for {n} variables")
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


def _with_entry(array: np.ndarray, j: int, value: float) -> np.ndarray:
    """A read-only copy of ``array`` with entry ``j`` replaced."""
    array = array.copy()
    array[j] = value
    array.flags.writeable = False
    return array


def _array(name: str, value, dtype=float) -> np.ndarray:
    """``value`` as a new array, of floats or of the numeric type numpy
    finds, refused by name if it is ragged or holds an entry that is not
    a number."""
    try:
        array = np.array(value, dtype=dtype)
    except (TypeError, ValueError):
        array = None
    if array is None or array.dtype.kind not in "biuf":
        raise StructuralError(f"{name} is not an array of numbers")
    return array


def _checked_objective(objective) -> np.ndarray:
    objective = _array("objective", objective)
    if objective.ndim != 1:
        raise StructuralError(f"objective of shape {objective.shape}: one entry per variable")
    if not np.isfinite(objective).all():
        raise StructuralError("objective entries must be finite")
    return objective


def _first_bad_row(matrix, rhs, senses) -> str:
    """The message naming the first row with an unknown sense, a
    non-finite right-hand side or a non-finite coefficient, checked in
    that order within the row."""
    senses = senses.tolist()
    known = np.array([sense in _RELATION_OF for sense in senses])
    finite_rhs = np.isfinite(rhs)
    finite_rows = np.isfinite(matrix).all(axis=1)
    k = int((~known | ~finite_rhs | ~finite_rows).argmax())
    if not known[k]:
        return f"constraint {k}: unknown sense {senses[k]:g}"
    if not finite_rhs[k]:
        return f"constraint {k}: right-hand side must be finite"
    return f"constraint {k}: coefficients must be finite"


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
    """One message per violation, read from the LP's arrays: each
    non-finite entry, each bound and each row more than ``tol`` past its
    edge, then each fractional finite entry of ``integer_vars`` (checked
    as ``MipProblem`` checks it).  The rows are one product ``matrix @ x``,
    so a row that a non-finite entry turns NaN is not listed; the entry
    is.  ``solve_mip`` runs this on each rounded candidate."""
    if not 0.0 <= tol < math.inf:
        raise ParameterError(f"tolerance {tol} must be finite and nonnegative")
    n = lp.num_vars
    integer_vars = MipProblem(lp, integer_vars).integer_vars
    if assignment is None or len(assignment) != n:
        return [f"assignment has wrong length for {n} variables"]
    x = _array("assignment", assignment)
    lower, upper, senses = lp.lower, lp.upper, lp.senses
    # inf times a zero coefficient, or inf minus inf, is NaN: no row or
    # bound reads past its edge there, and numpy must not warn
    with np.errstate(invalid="ignore", over="ignore"):
        lhs = lp.matrix @ x
        excess = lhs - lp.rhs
        # how far each row is past its edge, an equality row either way
        rows = (np.where(senses, senses * excess, np.abs(excess)) > tol).nonzero()[0]
        bounds = (np.maximum(lower - x, x - upper) > tol).nonzero()[0]
    finite = np.isfinite(x)
    messages = [
        f"variable {j}: {assignment[j]} is not finite"
        for j in (~finite).nonzero()[0].tolist()
    ]
    for j in bounds.tolist():
        side, bound = ("below lower", lower[j]) if x[j] < lower[j] else ("above upper", upper[j])
        messages.append(f"variable {j}: {assignment[j]} {side} bound {float(bound)}")
    for k in rows.tolist():
        relation = "!=" if senses[k] == 0 else ">" if senses[k] > 0 else "<"
        messages.append(f"constraint {k}: {float(lhs[k])} {relation} {float(lp.rhs[k])}")
    messages += [
        f"variable {j}: {assignment[j]} not integral"
        for j in integer_vars
        if finite[j] and not x[j].is_integer()
    ]
    return messages
