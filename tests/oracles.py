"""Exhaustive and special-case oracles that the tests check the package
against.

Nothing in the package or the benchmark runs these: they cross-check the
rate-sum MIP on unit-cap and roomy instances, the branch and bound on
pure-integer problems small enough to enumerate, the scheduler's
constraint arrays against the rows they were once built from, and the link
physics' emission series; ``allocation_violations`` checks a policy's
allocation against the instance's caps in integer arithmetic, apart from
the solver's own check.  ``program_from_rows`` lets a test write an LP
as rows.  The tests import this module as ``oracles``; pytest puts
``tests/`` on the import path.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from qsatnet.errors import StructuralError
from qsatnet.ilpcore import (
    INFEASIBLE,
    OPTIMAL,
    LinearProgram,
    MipProblem,
    SolveResult,
    SparseRow,
    max_weight_flow,
)
from qsatnet.orbital import Vec3
from qsatnet.scheduler import Allocation, SlotInstance, _direct, _priced

DEFAULT_VERTEX_LIMIT = 32
# each relation's entry in LinearProgram.senses
SENSE_OF = {"<=": 1, "=": 0, ">=": -1}


class SizeLimitError(ValueError):
    """An exact method was asked to exceed its guarded instance size."""


class ModeError(ValueError):
    """An instance does not satisfy the preconditions of a special-case solver."""


# ---------------------------------------------------------------------------
# exact searches


def mwis_exact(
    vertex_weights,
    edges,
    vertex_limit: int = DEFAULT_VERTEX_LIMIT,
) -> tuple[list[int], float]:
    """Exact maximum-weight independent set by branch and bound over
    bitmask vertex sets.

    The bound adds every remaining positive weight, so nonpositive
    vertices are never branched into the set.  Vertices are considered in
    index order and the first optimum found is kept, which makes the
    returned set the lexicographically smallest among ties.
    """
    n = len(vertex_weights)
    if n > vertex_limit:
        raise SizeLimitError(
            f"{n} vertices exceeds the exact-search limit {vertex_limit}"
        )
    weights = [float(w) for w in vertex_weights]
    adjacency = [0] * n
    for a, b in edges:
        if not (0 <= a < n and 0 <= b < n):
            raise StructuralError(f"edge ({a}, {b}) references a missing vertex")
        if a == b:
            raise StructuralError(f"self-loop on vertex {a}")
        adjacency[a] |= 1 << b
        adjacency[b] |= 1 << a

    best_weight = 0.0
    best_set = 0

    def positive_remaining(avail: int) -> float:
        total = 0.0
        while avail:
            v = (avail & -avail).bit_length() - 1
            if weights[v] > 0.0:
                total += weights[v]
            avail &= avail - 1
        return total

    def explore(avail: int, current_weight: float, current_set: int) -> None:
        nonlocal best_weight, best_set
        if current_weight > best_weight:
            best_weight = current_weight
            best_set = current_set
        if not avail:
            return
        if current_weight + positive_remaining(avail) <= best_weight:
            return
        v = (avail & -avail).bit_length() - 1
        bit = 1 << v
        if weights[v] > 0.0:
            explore(avail & ~bit & ~adjacency[v], current_weight + weights[v], current_set | bit)
        explore(avail & ~bit, current_weight, current_set)

    explore((1 << n) - 1, 0.0, 0)
    selected = [v for v in range(n) if best_set & (1 << v)]
    return selected, best_weight


def hungarian(weights) -> tuple[dict[int, int], float]:
    """Maximum-total-weight partial matching on a dense weight matrix.

    Cells holding -inf are forbidden and never matched; negative and zero
    weights simply stay unmatched, since leaving a row out contributes
    nothing.  This is the flow with every row and column capacity at one;
    any other non-finite weight raises StructuralError.
    """
    num_cols = len(weights[0]) if weights else 0
    arcs = {}
    for i, row in enumerate(weights):
        if len(row) != num_cols:
            raise StructuralError(f"row {i}: ragged weight matrix")
        arcs.update(((i, j), w) for j, w in enumerate(row) if w != -math.inf)
    matching = dict(sorted(max_weight_flow([1] * len(weights), [1] * num_cols, arcs)))
    return matching, sum((weights[i][j] for i, j in matching.items()), 0.0)


def brute_force_mip(mip: MipProblem) -> SolveResult:
    """Exhaustive enumeration over pure-integer problems."""
    n = mip.base.num_vars
    if set(mip.integer_vars) != set(range(n)):
        raise StructuralError("brute force requires every variable integral")
    domains = []
    size = 1
    for j, (lower, upper) in enumerate(mip.base.variable_bounds):
        if upper is None:
            raise SizeLimitError(f"variable {j} has an unbounded domain")
        lo = math.ceil(lower - 1e-9)
        hi = math.floor(upper + 1e-9)
        domains.append(range(lo, hi + 1))
        size *= max(0, hi - lo + 1)
        if size > 1e7:
            raise SizeLimitError(f"domain product {size} exceeds 1e7")

    best_obj = -math.inf
    best: tuple[float, ...] | None = None
    for values in itertools.product(*domains):
        feasible = True
        for (columns, coeffs), relation, rhs in mip.base.constraints:
            lhs = sum(map(operator.mul, coeffs, map(values.__getitem__, columns)))
            if relation == "<=" and lhs > rhs + 1e-9:
                feasible = False
            elif relation == ">=" and lhs < rhs - 1e-9:
                feasible = False
            elif relation == "=" and abs(lhs - rhs) > 1e-9:
                feasible = False
            if not feasible:
                break
        if not feasible:
            continue
        objective = sum(c * x for c, x in zip(mip.base.objective, values))
        if best is None or objective > best_obj:
            best_obj = objective
            best = tuple(float(v) for v in values)
    if best is None:
        return SolveResult(INFEASIBLE, math.nan, None)
    return SolveResult(OPTIMAL, best_obj, best)


# ---------------------------------------------------------------------------
# programs written as rows


def program_from_rows(objective, constraints, variable_bounds) -> LinearProgram:
    """The program of ``(row, relation, rhs)`` constraints and (lower,
    upper) bounds, None for no upper bound.  A row is a ``SparseRow`` or a
    dense sequence with one coefficient per variable.  The rows are only
    scattered into a matrix: every check is the constructor's."""
    matrix = np.zeros((len(constraints), len(objective)))
    for k, (row, _, _) in enumerate(constraints):
        if isinstance(row, SparseRow):
            matrix[k, list(row.columns)] = row.coefficients
        else:
            matrix[k] = row
    return LinearProgram(
        objective,
        matrix,
        [rhs for _, _, rhs in constraints],
        [SENSE_OF[relation] for _, relation, _ in constraints],
        [lower for lower, _ in variable_bounds],
        [math.inf if upper is None else upper for _, upper in variable_bounds],
    )


def sparse_cap_rows(instance, support) -> tuple:
    """The support's cap rows as ``(SparseRow, "<=", cap)``
    constraints: transmitter, receiver, pair, then reflector caps, each in
    index order and only where some route takes part.  A station's row
    covers its pairs' columns."""
    by_sat, by_pair, by_reflector = {}, {}, {}
    for idx, (i, k, j) in enumerate(support):
        by_sat.setdefault(i, []).append(idx)
        by_pair.setdefault(j, []).append(idx)
        if k is not None:
            by_reflector.setdefault(k, []).append(idx)
    by_station = {}
    for j, columns in by_pair.items():
        for g in instance.pair_stations[j]:
            by_station.setdefault(g, []).extend(columns)
    for columns in by_station.values():
        columns.sort()

    rows = []
    for incidence, caps in (
        (by_sat, instance.sat_caps),
        (by_station, instance.gs_caps),
        (by_pair, instance.pair_caps),
        (by_reflector, instance.reflector_caps),
    ):
        for index in sorted(incidence):
            members = incidence[index]
            row = SparseRow(tuple(members), (1.0,) * len(members))
            rows.append((row, "<=", float(caps[index])))
    return tuple(rows)


def row_form_program(rooms, cap_rows, objective, members=(), weights=()):
    """The assignment LP written as rows: one count per route, bounded by
    its room, under ``cap_rows`` (``sparse_cap_rows``); with floor
    ``members``, a floor variable last, unbounded above, and per active
    pair the row of its weighted rate minus the floor, at least 0."""
    lam_index = len(rooms)
    floor_rows = tuple(
        (
            SparseRow((*cols, lam_index), (*(weights[idx] for idx in cols), -1.0)),
            ">=",
            0.0,
        )
        for cols in members
    )
    bounds = [(0.0, float(room)) for room in rooms]
    if members:
        bounds.append((0.0, None))
    return program_from_rows(tuple(objective), (*cap_rows, *floor_rows), tuple(bounds))


# ---------------------------------------------------------------------------
# unit-capacity reductions of the rate-sum policy


def solve_stsr(instance: SlotInstance) -> Allocation:
    """Single-transmitter, single-receiver case via independent sets.

    With every cap at one, feasible allocations are exactly independent
    sets of the conflict graph whose vertices are positive-rate direct
    routes and whose edges join routes sharing a satellite or a station.
    Above the exact search's vertex limit it raises SizeLimitError: it
    checks the rate-sum MIP, so it must not fall back to it.
    """
    if any(c != 1 for c in instance.sat_caps) or any(
        c != 1 for c in instance.gs_caps
    ) or any(c != 1 for c in instance.pair_caps):
        raise ModeError("unit caps required for the independent-set reduction")
    routes = _direct(instance)
    vertices = list(routes)
    edges = []
    for u in range(len(vertices)):
        iu, _, ju = vertices[u]
        su = set(instance.pair_stations[ju])
        for v in range(u + 1, len(vertices)):
            iv, _, jv = vertices[v]
            if iu == iv or su & set(instance.pair_stations[jv]):
                edges.append((u, v))
    selected, _ = mwis_exact(list(routes.values()), edges)
    return _priced(instance, {vertices[v]: 1 for v in selected})


def solve_stmr(instance: SlotInstance) -> Allocation:
    """Flow reduction for instances whose receivers never bind.

    With the station caps out of play, the rate-sum problem over direct
    routes is a maximum-weight flow from satellites, under their
    transmitter caps, to pairs, under their pair caps, and the flow's
    integral units are the optimal counts.
    """
    total_tx = sum(instance.sat_caps)
    for g in range(len(instance.station_ids)):
        incident_cap = sum(instance.pair_caps[j] for j in pairs_at_station(instance, g))
        if instance.gs_caps[g] < min(total_tx, incident_cap):
            raise ModeError(
                f"station {instance.station_ids[g]}: receiver cap may bind; "
                "the flow reduction needs non-binding receivers"
            )
    arcs = {(i, j): rate for (i, _, j), rate in _direct(instance).items()}
    flow = max_weight_flow(instance.sat_caps, instance.pair_caps, arcs)
    return _priced(instance, {(i, None, j): c for (i, j), c in flow.items()})


# ---------------------------------------------------------------------------
# allocation checks


def pairs_at_station(instance: SlotInstance, g: int) -> list[int]:
    """The pairs with station ``g`` at either end."""
    return [j for j, (a, b) in enumerate(instance.pair_stations) if g in (a, b)]


def _is_count(value) -> bool:
    """Whether value is a nonnegative integer.  NaN fails the first test
    and inf the second, before either reaches ``int``."""
    return value >= 0 and value != math.inf and value == int(value)


def allocation_violations(instance: SlotInstance, allocation: Allocation) -> list[str]:
    """Independent integer-arithmetic feasibility check."""
    n_sat, n_pair = instance.num_sats, instance.num_pairs
    if len(allocation.x) != n_sat or any(len(row) != n_pair for row in allocation.x):
        return ["allocation shape does not match the instance"]
    messages = []
    counts = []
    for i, row in enumerate(allocation.x):
        for j, value in enumerate(row):
            if not _is_count(value):
                messages.append(f"direct count {value} is not a nonnegative integer")
            counts.append(((i, None, j), value))
    for i, k, j, count in allocation.y:
        if not _is_count(count):
            messages.append(f"relay count {count} is not a nonnegative integer")
        if i == k:
            messages.append(f"self-relay allocation on satellite {i}")
        if i in range(n_sat) and k in range(n_sat) and j in range(n_pair):
            counts.append(((i, k, j), count))
        else:
            messages.append(f"relay entry {(i, k, j)} is out of range")
    source_load = [0] * n_sat
    relay_load = [0] * n_sat
    pair_load = [0] * n_pair
    for (i, k, j), count in counts:
        source_load[i] += count
        if k is not None:
            relay_load[k] += count
        pair_load[j] += count
    for i in range(instance.num_sats):
        if source_load[i] > instance.sat_caps[i]:
            messages.append(
                f"satellite {instance.sat_ids[i]}: {source_load[i]} transmissions "
                f"exceed cap {instance.sat_caps[i]}"
            )
        if relay_load[i] > instance.reflector_caps[i]:
            messages.append(
                f"satellite {instance.sat_ids[i]}: {relay_load[i]} reflections "
                f"exceed cap {instance.reflector_caps[i]}"
            )
    for g in range(len(instance.station_ids)):
        load = sum(pair_load[j] for j in pairs_at_station(instance, g))
        if load > instance.gs_caps[g]:
            messages.append(
                f"station {instance.station_ids[g]}: {load} connections exceed "
                f"cap {instance.gs_caps[g]}"
            )
    for j in range(instance.num_pairs):
        if pair_load[j] > instance.pair_caps[j]:
            messages.append(
                f"pair {instance.pair_ids[j]}: {pair_load[j]} connections exceed "
                f"cap {instance.pair_caps[j]}"
            )
    expected = sum(instance.routes.get(route, 0.0) * count for route, count in counts)
    if abs(expected - allocation.objective) > 1e-6 * max(1.0, abs(expected)):
        messages.append(
            f"objective {allocation.objective} differs from recomputed {expected}"
        )
    return messages


# ---------------------------------------------------------------------------
# closed forms


def emission_tail(mean_photon_number: float, max_pairs: int) -> float:
    """Total emission probability beyond max_pairs, in closed form."""
    ns = mean_photon_number
    if ns == 0.0:
        return 0.0
    r = ns / (1.0 + ns)
    k = max_pairs
    return r ** (k + 1) * ((k + 2) - (k + 1) * r)


def latlon_to_unit(latitude: float, longitude: float) -> Vec3:
    """The unit vector from the Earth's center toward a latitude and
    longitude, in degrees."""
    lat = math.radians(latitude)
    lon = math.radians(longitude)
    return (
        math.cos(lat) * math.cos(lon),
        math.cos(lat) * math.sin(lon),
        math.sin(lat),
    )
