"""The package ships what the commands and the benchmark run, and no more.

The exhaustive and special-case oracles that only tests call live in
``tests/oracles.py``; these tests keep them from drifting back.
"""

import ast
import importlib
import inspect
import pkgutil

import pytest

import qsatnet
from qsatnet import environment, ilpcore, linkphys, orbital, scheduler

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
    "program_from_rows",
    "_checked_row",
    "_checked_constraints",
    "RELATIONS",
    "SENSES",
    "within_tolerance",
    "allocation_violations",
    "_is_count",
    "ModeError",
    "SizeLimitError",
}

# what the slot pipeline (scheduler and ilpcore's own modules) and
# perfbench/ take from ilpcore: the model and result types, the status
# constants, the LP and MIP solvers, the feasibility check the branch and
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


def test_a_linear_program_is_built_one_way():
    # from its arrays, by LinearProgram(...); tests write rows through
    # oracles.program_from_rows
    for name in ("from_arrays", "_set"):
        assert not hasattr(ilpcore.LinearProgram, name)


def test_a_slot_instance_has_no_station_lookup():
    # pairs_at_station moved to tests/oracles.py with the allocation check
    assert not hasattr(scheduler.SlotInstance, "pairs_at_station")


# numpy's transcendental and power functions, which may differ from the C
# library's in the last ulp; np.sqrt is correctly rounded on both sides
NUMPY_TRANSCENDENTALS = {
    "sin",
    "cos",
    "tan",
    "arcsin",
    "arccos",
    "arctan",
    "arctan2",
    "exp",
    "log",
    "power",
    "square",
    "hypot",
    "degrees",
    "radians",
}


@pytest.mark.parametrize("module", [orbital, linkphys, environment, scheduler])
def test_the_weights_layer_takes_its_transcendentals_from_math(module):
    # the slot's weights are bit-identical to the scalar formulas only while
    # every transcendental comes from math, whatever path computes it
    tree = ast.parse(inspect.getsource(module))
    used = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in {"np", "numpy"}
    }
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "numpy"
        for alias in node.names
    }
    assert not (used | imported) & NUMPY_TRANSCENDENTALS


@pytest.mark.parametrize(
    "function",
    [scheduler.build_weights, scheduler.build_reflection_weights, scheduler._ratefair],
)
def test_slot_and_round_instances_are_copies_not_replacements(function):
    # dataclasses.replace runs every check of SlotInstance again; a slot's
    # instance is its network's with_routes copy and a max-min round's a
    # caps_only copy, each checking only what changed
    tree = ast.parse(inspect.getsource(function))
    called = {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    }
    assert "replace" not in called
