"""Dense bounded-variable two-phase simplex.

Variables are shifted by their lower bounds, so the working problem has
0 <= x <= u, and the tableau holds the constraint rows only: upper bounds
stay implicit (Dantzig's upper-bounding technique).  A nonbasic variable
rests at 0 or at its bound u.  One resting at u is held through its
complement u - x, whose column is the negated column of x, so every
nonbasic column stands at zero.  The ratio test also stops where a basic
variable reaches its bound.  When the entering variable reaches its own
bound first it flips: it swaps to that bound, and no pivot happens.

Pivoting is Dantzig's rule with lowest-index tie-breaks, switching to
Bland's rule after a fixed iteration budget so degenerate instances
cannot cycle.  Under Dantzig's rule a tie in the ratio test goes to the
lowest row where a basic variable falls to zero, then to the lowest
index among variables reaching their bound, as if each bound were a row
below the constraints.  Under Bland's rule it goes to the lowest index
among all blocking variables, the entering one's own flip included.
"""

from __future__ import annotations

import math
from itertools import compress

import numpy as np

from ..errors import QsatError
from .types import INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram, SolveResult

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
BLAND_AFTER = 5000
MAX_ITERATIONS = 200_000


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    pivot_row = tableau[row] / tableau[row, col]
    tableau -= tableau[:, col, None] * pivot_row
    tableau[row] = pivot_row
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    basis[row] = col


def _flip(tableau: np.ndarray, col: int, upper: float, flipped: list[bool]) -> None:
    """Move nonbasic ``col`` to its other bound: x = u - x'."""
    tableau[:, -1] -= tableau[:, col] * upper
    tableau[:, col] = 0.0 - tableau[:, col]
    flipped[col] = not flipped[col]


def _iterate(
    tableau: np.ndarray,
    basis: list[int],
    upper: list[float],
    flipped: list[bool],
    active_cols: int,
    iteration: list[int],
) -> str:
    """Run simplex to optimality on the maximization tableau in place.

    The objective row stores z_j - c_j, so the solution is optimal once
    every active entry is >= -PIVOT_TOL.
    """
    m = tableau.shape[0] - 1
    while True:
        iteration[0] += 1
        if iteration[0] > MAX_ITERATIONS:
            raise QsatError("simplex iteration limit exceeded")
        objective = tableau[m, :active_cols]
        if objective.size == 0:
            return OPTIMAL
        bland = iteration[0] > BLAND_AFTER
        if bland:
            negatives = np.flatnonzero(objective < -PIVOT_TOL)
            if negatives.size == 0:
                return OPTIMAL
            col = int(negatives[0])
        else:
            col = int(objective.argmin())
            if objective[col] >= -PIVOT_TOL:
                return OPTIMAL

        # a basic variable with a > 0 falls to zero after rhs / a; one
        # with a < 0 rises to its bound u after (u - rhs) / -a, computed
        # as (rhs - u) / a
        column = tableau[:m, col].tolist()
        ratios = []
        best = upper[col]
        for row, (a, b) in enumerate(zip(column, tableau[:m, -1].tolist())):
            if a > PIVOT_TOL:
                ratio = b / a
            elif a < -PIVOT_TOL:
                ratio = (b - upper[basis[row]]) / a
            else:
                continue
            ratios.append((row, ratio))
            if ratio < best:
                best = ratio
        if best == math.inf:
            return UNBOUNDED
        tie = best + 1e-12
        # candidates are rows, or None for the entering column's own flip
        candidates = [row for row, ratio in ratios if ratio <= tie]
        if upper[col] <= tie:
            candidates.append(None)
        if len(candidates) > 1:

            def rank(row):
                var = col if row is None else basis[row]
                if bland:
                    return var
                if row is None or column[row] < 0.0:
                    return (1, var)
                return (0, row)

            choice = min(candidates, key=rank)
        else:
            choice = candidates[0]

        if choice is None:
            _flip(tableau, col, upper[col], flipped)
        elif column[choice] > 0.0:
            _pivot(tableau, basis, choice, col)
        else:
            # rewrite the row over the complement of its basic variable,
            # which then leaves at zero, that is at its bound
            leaving = basis[choice]
            complement = 0.0 - tableau[choice]
            complement[leaving] = 1.0
            complement[-1] = upper[leaving] - tableau[choice, -1]
            tableau[choice] = complement
            flipped[leaving] = not flipped[leaving]
            _pivot(tableau, basis, choice, col)


def solve_lp(lp: LinearProgram) -> SolveResult:
    n = lp.num_vars
    m = len(lp.rhs)
    lower = lp.lower
    objective = np.array(lp.objective, dtype=float)
    const_term = float(objective @ lower) if n else 0.0

    senses = lp.senses.tolist()
    rhs = lp.rhs.tolist()
    if lower.any():
        rhs = [b - float(a @ lower) for a, b in zip(lp.matrix, rhs)]
    # a row with a negative right-hand side is negated, swapping <= and >=
    negated = [i for i in range(m) if rhs[i] < 0]
    for i in negated:
        rhs[i] = -rhs[i]
        senses[i] = -senses[i]

    num_slack = m - senses.count(0)
    num_artificial = m - senses.count(1)
    slack_start = n
    art_start = n + num_slack
    total = n + num_slack + num_artificial

    tableau = np.zeros((m + 1, total + 1))
    tableau[:m, :n] = lp.matrix
    if negated:
        tableau[negated, :n] = -lp.matrix[negated]
    tableau[:m, -1] = rhs
    basis = [0] * m
    slack_idx = slack_start
    art_idx = art_start
    for i in range(m):
        if senses[i] > 0:
            tableau[i, slack_idx] = 1.0
            basis[i] = slack_idx
            slack_idx += 1
        elif senses[i] < 0:
            tableau[i, slack_idx] = -1.0
            slack_idx += 1
            tableau[i, art_idx] = 1.0
            basis[i] = art_idx
            art_idx += 1
        else:
            tableau[i, art_idx] = 1.0
            basis[i] = art_idx
            art_idx += 1

    # each column's room above zero, and whether it holds a complement
    upper = (lp.upper - lower).tolist()
    upper += [math.inf] * (total - n)
    flipped = [False] * total
    iteration = [0]

    if num_artificial:
        # phase 1: maximize minus the artificial sum, canonicalized over
        # the starting basis
        tableau[m, art_start:total] = 1.0
        for i in range(m):
            if basis[i] >= art_start:
                tableau[m] -= tableau[i]
        status = _iterate(tableau, basis, upper, flipped, total, iteration)
        if status != OPTIMAL or tableau[m, -1] < -FEAS_TOL:
            return SolveResult(INFEASIBLE, math.nan, None)
        for i in range(m):
            if basis[i] >= art_start:
                structural = np.flatnonzero(np.abs(tableau[i, :art_start]) > PIVOT_TOL)
                if structural.size:
                    _pivot(tableau, basis, i, int(structural[0]))
                else:
                    tableau[i, :] = 0.0

    # phase 2 over structural and slack columns only: the objective row
    # is written over the complements, then priced out of the basis
    tableau[m, :] = 0.0
    tableau[m, :n] = -objective
    for j in compress(range(n), flipped):
        tableau[m, -1] -= tableau[m, j] * upper[j]
        tableau[m, j] = 0.0 - tableau[m, j]
    for i in range(m):
        coeff = tableau[m, basis[i]]
        if coeff != 0.0:
            tableau[m] -= coeff * tableau[i]
    status = _iterate(tableau, basis, upper, flipped, art_start, iteration)
    if status == UNBOUNDED:
        return SolveResult(UNBOUNDED, math.inf, None)

    shifted = np.zeros(total)
    shifted[basis] = tableau[:m, -1]
    for j in compress(range(n), flipped):
        shifted[j] = upper[j] - shifted[j]
    solution = shifted[:n] + lower
    value = float(tableau[m, -1]) + const_term
    return SolveResult(OPTIMAL, value, tuple(solution.tolist()))
