"""The package ships what the commands and the benchmark run, and no more.

The exhaustive and special-case oracles that only tests call live in
``tests/oracles.py``; these tests keep them from drifting back.
"""

import importlib
import pkgutil

import qsatnet
from qsatnet import ilpcore

# moved to tests/oracles.py, or deleted with their only tests
TEST_ONLY_NAMES = {
    "solve_stsr",
    "solve_stmr",
    "mwis_exact",
    "hungarian",
    "brute_force_mip",
    "emission_tail",
    "latlon_to_unit",
    "geodesic_distance",
    "sparse_cap_rows",
    "row_form_program",
    "ModeError",
    "SizeLimitError",
}

# what the slot pipeline (scheduler and ilpcore's own modules) and
# perfbench/ take from ilpcore: the model and result types, the status
# constants, the LP and MIP solvers, the integrality check the branch and
# bound runs on each incumbent, and the flow behind the uncontended bests
PIPELINE_ILPCORE_NAMES = {
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
}


def _modules():
    found = pkgutil.walk_packages(qsatnet.__path__, prefix="qsatnet.")
    return [qsatnet] + [importlib.import_module(info.name) for info in found]


def test_no_module_defines_a_test_only_name():
    modules = _modules()
    assert "qsatnet.ilpcore.mwis" not in {module.__name__ for module in modules}
    for module in modules:
        shipped = TEST_ONLY_NAMES & set(vars(module))
        assert not shipped, f"{module.__name__} defines {sorted(shipped)}"


def test_ilpcore_exports_exactly_what_the_pipeline_uses():
    assert set(ilpcore.__all__) == PIPELINE_ILPCORE_NAMES
