"""Self-contained optimization engine for per-slot assignment problems.

Linear programs built from and held as dense constraint arrays, a
bounded-variable dense simplex, branch-and-bound integer programming,
and maximum-weight flow through a bipartite layer.  Instances here are
desk-scale (hundreds of variables), so everything favors clarity and
determinism over solver heroics.  The entry points take and return plain
value types, which leaves a seam for swapping in an external solver
later.
"""

from .types import (
    GAP_LIMIT,
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    MipProblem,
    SolveResult,
    SparseRow,
    constraint_violations,
)
from .lp import solve_lp
from .mip import solve_mip
from .matching import max_weight_flow

__all__ = [
    "GAP_LIMIT",
    "INFEASIBLE",
    "OPTIMAL",
    "UNBOUNDED",
    "LinearProgram",
    "MipProblem",
    "SolveResult",
    "SparseRow",
    "constraint_violations",
    "max_weight_flow",
    "solve_lp",
    "solve_mip",
]
