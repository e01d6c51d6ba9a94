"""Self-contained optimization engine for per-slot assignment problems.

Linear programs over sparse constraint rows, a bounded-variable dense
simplex, branch-and-bound integer programming, maximum-weight flow
through a bipartite layer (with matching as its unit-capacity case),
exact maximum-weight independent set, and a brute-force enumeration
oracle.  Instances here are desk-scale (hundreds
of variables), so everything favors clarity and determinism over solver
heroics.  The entry points take and return plain value types, which
leaves a seam for swapping in an external solver later.
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
from .mip import brute_force_mip, solve_mip
from .matching import hungarian, max_weight_flow
from .mwis import mwis_exact

__all__ = [
    "GAP_LIMIT",
    "INFEASIBLE",
    "OPTIMAL",
    "UNBOUNDED",
    "LinearProgram",
    "MipProblem",
    "SolveResult",
    "SparseRow",
    "brute_force_mip",
    "constraint_violations",
    "hungarian",
    "max_weight_flow",
    "mwis_exact",
    "solve_lp",
    "solve_mip",
]
