"""Per-slot weight construction and the four assignment policies.

A slot instance carries the entanglement rate each satellite could deliver
to each ground-station pair (and, in reflection mode, each source/relay
satellite combination), plus the capacity caps.  Policies see every
candidate connection as one route (i, k, j): satellite i serves pair j,
relayed by satellite k, or directly when k is None.  They turn an
instance into integral route counts: rate-sum maximizes aggregate rate,
rate-fair divides each route's rate once by its pair's uncontended best
and runs iterative max-min rounds on that route map, and the two
special-case solvers exploit unit-capacity structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .environment import EnvironmentTable, effective_transmissivity
from .errors import (
    ConfigurationError,
    IngestionError,
    ModeError,
    SizeLimitError,
    StructuralError,
    UnknownIdError,
)
from .ilpcore import (
    OPTIMAL,
    LinearProgram,
    MipProblem,
    SparseRow,
    hungarian,
    mwis_exact,
    solve_mip,
)
from .linkphys import (
    ArmChannel,
    OpticsParams,
    SourceParams,
    arm_transmissivity,
    dark_click_prob,
    end_to_end_outcome,
    free_space_transmissivity,
    reflection_arms,
)
from .orbital import ConstellationSnapshot, GroundStation, visible_links

SATURATION_REL_TOL = 1e-6
LAMBDA_SLACK = 1e-9


@dataclass(frozen=True)
class PairSpec:
    id: str
    station_a: str
    station_b: str
    pair_cap: int = 1

    def __post_init__(self) -> None:
        if not self.id:
            raise ConfigurationError("pair id must be nonempty")
        if self.station_a == self.station_b:
            raise ConfigurationError(f"pair {self.id}: stations must differ")
        if self.pair_cap < 0:
            raise ConfigurationError(f"pair {self.id}: negative pair cap")


@dataclass(frozen=True)
class PhysicsParams:
    """Source, optics, and detector-gate parameters shared by all links."""

    source: SourceParams
    optics: OpticsParams
    detector_gate: float = 1e-9
    filter_bandwidth_nm: float = 1.0
    field_of_view: float = 1e-10
    mirror_radius: float = 1.6

    def __post_init__(self) -> None:
        if self.detector_gate <= 0 or self.filter_bandwidth_nm <= 0:
            raise ConfigurationError("gate duration and filter bandwidth must be positive")
        if self.field_of_view <= 0 or self.mirror_radius <= 0:
            raise ConfigurationError("field of view and mirror radius must be positive")


def default_physics() -> PhysicsParams:
    """Operating point used throughout: a GHz-clocked source at the sweet
    spot of the rate/fidelity tradeoff, 10 cm transmit and 1 m receive
    apertures at 737 nm, and 70 percent efficiency on both ends."""
    return PhysicsParams(
        source=SourceParams(mean_photon_number=0.0078, repetition_rate=1e9),
        optics=OpticsParams(
            tx_radius=0.1,
            rx_radius=1.0,
            wavelength=737e-9,
            tx_efficiency=0.7,
            rx_efficiency=0.7,
        ),
    )


def mirror_hop(physics: PhysicsParams):
    """Free-space transmissivity of a source-to-relay hop as a function of
    its length: pure diffraction from the transmit aperture into the relay
    mirror through lossless optics.  A zero-length hop loses nothing."""
    optics = OpticsParams(
        tx_radius=physics.optics.tx_radius,
        rx_radius=physics.mirror_radius,
        wavelength=physics.optics.wavelength,
        tx_efficiency=1.0,
        rx_efficiency=1.0,
    )
    return lambda hop: free_space_transmissivity(optics, hop) if hop > 0 else 1.0


@dataclass(frozen=True, eq=True)
class SlotInstance:
    time: int
    sat_ids: tuple[str, ...]
    station_ids: tuple[str, ...]
    pair_ids: tuple[str, ...]
    pair_stations: tuple[tuple[int, int], ...]
    omega: tuple[tuple[float, ...], ...]
    nu: dict[tuple[int, int, int], float] | None
    sat_caps: tuple[int, ...]
    gs_caps: tuple[int, ...]
    pair_caps: tuple[int, ...]
    reflector_caps: tuple[int, ...]

    def __post_init__(self) -> None:
        n_sat = len(self.sat_ids)
        n_gs = len(self.station_ids)
        n_pair = len(self.pair_ids)
        if len(self.pair_stations) != n_pair or len(self.pair_caps) != n_pair:
            raise StructuralError("pair arrays must align with pair_ids")
        if len(self.sat_caps) != n_sat or len(self.reflector_caps) != n_sat:
            raise StructuralError("satellite cap arrays must align with sat_ids")
        if len(self.gs_caps) != n_gs:
            raise StructuralError("station cap array must align with station_ids")
        if len(self.omega) != n_sat:
            raise StructuralError("omega must have one row per satellite")
        for row in self.omega:
            if len(row) != n_pair:
                raise StructuralError("omega row length must equal pair count")
            for value in row:
                if value < 0:
                    raise StructuralError("omega entries must be nonnegative")
        for j, (a, b) in enumerate(self.pair_stations):
            if not (0 <= a < n_gs and 0 <= b < n_gs) or a == b:
                raise StructuralError(f"pair {j}: bad station indices ({a}, {b})")
            # scheduling model assumes receivers outnumber pair connections
            for g in (a, b):
                if self.gs_caps[g] < self.pair_caps[j]:
                    raise ConfigurationError(
                        f"station {self.station_ids[g]}: receiver cap "
                        f"{self.gs_caps[g]} below pair cap {self.pair_caps[j]} "
                        f"of pair {self.pair_ids[j]}"
                    )
        if self.nu is not None:
            for (i, k, j), value in self.nu.items():
                if not (0 <= i < n_sat and 0 <= k < n_sat and 0 <= j < n_pair):
                    raise StructuralError(f"reflection key ({i}, {k}, {j}) out of range")
                if i == k:
                    raise StructuralError("self-relay entries are forbidden")
                if value < 0:
                    raise StructuralError("reflection rates must be nonnegative")

    @property
    def num_sats(self) -> int:
        return len(self.sat_ids)

    @property
    def num_pairs(self) -> int:
        return len(self.pair_ids)

    def pairs_at_station(self, g: int) -> list[int]:
        return [j for j, (a, b) in enumerate(self.pair_stations) if g in (a, b)]


@dataclass(frozen=True)
class Allocation:
    """Integral assignment: x[sat][pair] plus sparse reflection counts."""

    x: tuple[tuple[int, ...], ...]
    y: tuple[tuple[int, int, int, int], ...]
    objective: float


def zero_allocation(instance: SlotInstance) -> Allocation:
    x = tuple((0,) * instance.num_pairs for _ in range(instance.num_sats))
    return Allocation(x=x, y=(), objective=0.0)


# ---------------------------------------------------------------------------
# weight construction


@dataclass(frozen=True)
class NetworkSpec:
    satellites: tuple
    stations: tuple[GroundStation, ...]
    pairs: tuple[PairSpec, ...]

    def __post_init__(self) -> None:
        station_ids = {gs.id for gs in self.stations}
        if len(station_ids) != len(self.stations):
            raise ConfigurationError("duplicate station ids")
        sat_ids = {s.id for s in self.satellites}
        if len(sat_ids) != len(self.satellites):
            raise ConfigurationError("duplicate satellite ids")
        seen = set()
        for pair in self.pairs:
            if pair.id in seen:
                raise ConfigurationError(f"duplicate pair id {pair.id}")
            seen.add(pair.id)
            for sid in (pair.station_a, pair.station_b):
                if sid not in station_ids:
                    raise ConfigurationError(
                        f"pair {pair.id}: unknown station {sid!r}"
                    )


def _weather_record(env, station_id, month, hour_utc):
    try:
        return env.lookup(station_id, month, hour_utc)
    except UnknownIdError as exc:
        raise IngestionError(
            f"station {station_id}: no weather records available"
        ) from exc


def _arm_for(geom, record, physics, irradiance) -> ArmChannel:
    fs = free_space_transmissivity(physics.optics, geom.slant_range)
    atm = effective_transmissivity(record, geom.elevation)
    eta = arm_transmissivity(
        fs, atm, physics.optics.tx_efficiency, physics.optics.rx_efficiency
    )
    dark = dark_click_prob(
        irradiance,
        physics.detector_gate,
        physics.filter_bandwidth_nm,
        physics.field_of_view,
        physics.optics.rx_radius,
        physics.optics.wavelength,
    )
    return ArmChannel(transmissivity=eta, dark_click_prob=dark)


def _slot_links(snapshot, network, physics, env, min_elevation, month, hour_utc):
    """The slot's gated geometry and a memoized downlink-arm lookup.

    The table maps each station to the satellites that clear the minimum
    elevation there.  A station's weather is read on its first arm, so a
    station no satellite serves needs no weather record.
    """
    links = visible_links(
        snapshot,
        [spec.id for spec in network.satellites],
        [station.id for station in network.stations],
        min_elevation,
    )
    records = {}
    arms: dict[tuple[str, str], ArmChannel] = {}

    def arm(sat_id, station_id):
        key = (sat_id, station_id)
        if key not in arms:
            if station_id not in records:
                records[station_id] = _weather_record(env, station_id, month, hour_utc)
            record = records[station_id]
            arms[key] = _arm_for(
                links[station_id][sat_id], record, physics, record.solar_irradiance
            )
        return arms[key]

    return links, arm


def _direct_omega(network, physics, links, arm, fidelity_threshold):
    """The slot's direct ``omega`` table, one row per satellite and one
    column per pair."""
    sat_index = {spec.id: i for i, spec in enumerate(network.satellites)}
    omega = [[0.0] * len(network.pairs) for _ in network.satellites]
    for j, pair in enumerate(network.pairs):
        visible_b = links[pair.station_b]
        for sat_id in links[pair.station_a]:
            if sat_id not in visible_b:
                continue
            outcome = end_to_end_outcome(
                physics.source, arm(sat_id, pair.station_a), arm(sat_id, pair.station_b)
            )
            if outcome.fidelity >= fidelity_threshold:
                omega[sat_index[sat_id]][j] = outcome.edr
    return omega


def _slot_instance(snapshot, network, omega, nu) -> SlotInstance:
    """The slot instance over the given rate table and relayed entries."""
    station_ids = tuple(g.id for g in network.stations)
    gs_index = {sid: g for g, sid in enumerate(station_ids)}
    return SlotInstance(
        time=snapshot.time,
        sat_ids=tuple(s.id for s in network.satellites),
        station_ids=station_ids,
        pair_ids=tuple(p.id for p in network.pairs),
        pair_stations=tuple(
            (gs_index[p.station_a], gs_index[p.station_b]) for p in network.pairs
        ),
        omega=tuple(tuple(row) for row in omega),
        nu=nu,
        sat_caps=tuple(s.transmitter_cap for s in network.satellites),
        gs_caps=tuple(g.receiver_cap for g in network.stations),
        pair_caps=tuple(p.pair_cap for p in network.pairs),
        reflector_caps=tuple(s.reflector_cap for s in network.satellites),
    )


def build_weights(
    snapshot: ConstellationSnapshot,
    network: NetworkSpec,
    physics: PhysicsParams,
    env: EnvironmentTable,
    min_elevation: float,
    fidelity_threshold: float,
    month: int = 6,
    hour_utc: float = 0.0,
) -> SlotInstance:
    """Direct-downlink rates for every satellite and station pair.

    A cell earns a nonzero rate only when the satellite clears the minimum
    elevation at both stations and the delivered fidelity clears the
    threshold.
    """
    links, arm = _slot_links(
        snapshot, network, physics, env, min_elevation, month, hour_utc
    )
    omega = _direct_omega(network, physics, links, arm, fidelity_threshold)
    return _slot_instance(snapshot, network, omega, None)


def build_reflection_weights(
    snapshot: ConstellationSnapshot,
    network: NetworkSpec,
    physics: PhysicsParams,
    env: EnvironmentTable,
    min_elevation: float,
    fidelity_threshold: float,
    mirror_efficiency: float,
    month: int = 6,
    hour_utc: float = 0.0,
) -> SlotInstance:
    """Direct rates plus two-satellite relayed rates.

    A relayed entry needs source visibility at the first station, relay
    visibility at the second, and a clear sight line between the two
    satellites; the source-to-relay hop is pure diffraction into the
    mirror aperture, scaled by the mirror efficiency, and the relay
    downlink reuses the standard optics so a co-located lossless relay
    reproduces the direct link exactly.
    """
    from .orbital import inter_satellite_distance, inter_satellite_visible

    if not 0.0 <= mirror_efficiency <= 1.0:
        raise ConfigurationError("mirror efficiency must lie in [0, 1]")
    links, arm = _slot_links(
        snapshot, network, physics, env, min_elevation, month, hour_utc
    )
    omega = _direct_omega(network, physics, links, arm, fidelity_threshold)
    sat_index = {spec.id: i for i, spec in enumerate(network.satellites)}
    hop_free_space = mirror_hop(physics)

    def hop_transmissivity(src_id, relay_id):
        """Free-space factor into the relay mirror; None without a sight line."""
        if not inter_satellite_visible(snapshot, src_id, relay_id):
            return None
        return hop_free_space(inter_satellite_distance(snapshot, src_id, relay_id))

    # keyed by the ordered (source, relay) pair: the sight-line test is not
    # guaranteed to give the same bits in both directions
    hops: dict[tuple[str, str], float | None] = {}
    nu: dict[tuple[int, int, int], float] = {}
    for j, pair in enumerate(network.pairs):
        for src_id in links[pair.station_a]:
            i = sat_index[src_id]
            arm_a = arm(src_id, pair.station_a)
            for relay_id in links[pair.station_b]:
                k = sat_index[relay_id]
                if i == k:
                    continue
                key = (src_id, relay_id)
                if key not in hops:
                    hops[key] = hop_transmissivity(src_id, relay_id)
                if hops[key] is None:
                    continue
                arm1, arm2 = reflection_arms(
                    arm_a, hops[key], mirror_efficiency, arm(relay_id, pair.station_b)
                )
                outcome = end_to_end_outcome(physics.source, arm1, arm2)
                if outcome.fidelity >= fidelity_threshold and outcome.edr > 0:
                    nu[(i, k, j)] = outcome.edr
    return _slot_instance(snapshot, network, omega, nu)


# ---------------------------------------------------------------------------
# routes and generic MIP assembly
#
# Route maps list direct routes (i, None, j) in row-major order, then
# relayed routes (i, k, j) in key order: this is the solver's variable
# order and the order in which per-route terms are summed.


def _routes(x_weights, y_weights) -> dict:
    """Positive-weight routes mapped to their weights: cells of the dense
    ``x_weights`` table, then keys of ``y_weights``."""
    routes = {
        (i, None, j): w
        for i, row in enumerate(x_weights)
        if any(row)
        for j, w in enumerate(row)
        if w > 0
    }
    for key in sorted(y_weights):
        if y_weights[key] > 0:
            routes[key] = y_weights[key]
    return routes


def served_routes(allocation: Allocation):
    """The allocation's nonzero counts as (route, count), in route order."""
    for i, row in enumerate(allocation.x):
        if any(row):
            for j, count in enumerate(row):
                if count:
                    yield (i, None, j), count
    for i, k, j, count in allocation.y:
        if count:
            yield (i, k, j), count


def _variable_upper(instance, route):
    i, k, j = route
    a, b = instance.pair_stations[j]
    cap = min(
        instance.sat_caps[i],
        instance.pair_caps[j],
        instance.gs_caps[a],
        instance.gs_caps[b],
    )
    if k is not None:
        cap = min(cap, instance.reflector_caps[k])
    return max(0, cap)


def _support(instance, routes) -> dict:
    """The solver's integer variables: the routes with room under every
    cap they touch, each mapped to that room."""
    return {
        route: room
        for route in routes
        if (room := _variable_upper(instance, route)) > 0
    }


def _solve_assignment(
    instance: SlotInstance,
    support,
    objective,
    extra_constraints=(),
    extra_bounds=(),
):
    """Shared MIP scaffold over support routes.

    ``support`` maps each route to its room, the route's upper bound.
    ``objective`` has one entry per route, then per continuous extra,
    whose bounds ``extra_bounds`` gives.  The cap rows come from one pass
    over the routes: transmitter, receiver, pair, then reflector caps,
    each in index order and only where some route takes part.  Returns
    None on an empty support; a solve that does not prove optimality
    raises.
    """
    if not support:
        return None
    # the columns each transmitter, station, pair and reflector cap covers
    by_sat = [[] for _ in range(instance.num_sats)]
    by_station = [[] for _ in instance.station_ids]
    by_pair = [[] for _ in range(instance.num_pairs)]
    by_reflector = [[] for _ in range(instance.num_sats)]
    for idx, (i, k, j) in enumerate(support):
        by_sat[i].append(idx)
        by_pair[j].append(idx)
        for g in instance.pair_stations[j]:
            by_station[g].append(idx)
        if k is not None:
            by_reflector[k].append(idx)

    constraints = []
    for incidence, caps in (
        (by_sat, instance.sat_caps),
        (by_station, instance.gs_caps),
        (by_pair, instance.pair_caps),
        (by_reflector, instance.reflector_caps),
    ):
        for members, cap in zip(incidence, caps):
            if members:
                row = SparseRow(tuple(members), (1.0,) * len(members))
                constraints.append((row, "<=", float(cap)))
    constraints.extend(extra_constraints)

    bounds = [(0.0, float(room)) for room in support.values()]
    bounds.extend(extra_bounds)

    mip = MipProblem(
        base=LinearProgram(
            objective=tuple(objective),
            constraints=tuple(constraints),
            variable_bounds=tuple(bounds),
        ),
        integer_vars=tuple(range(len(support))),
    )
    result = solve_mip(mip)
    if result.status != OPTIMAL:
        raise StructuralError(f"assignment solve returned {result.status}")
    return result


def _counts(support, result) -> dict:
    """The nonzero route counts of a solve over ``support``; a None result
    (an empty support) counts nothing."""
    if result is None:
        return {}
    counts = (int(round(v)) for v in result.assignment)
    return {route: c for route, c in zip(support, counts) if c}


def _priced(instance, counts) -> Allocation:
    """Allocation holding the given nonzero route counts, priced at the
    instance's rates."""
    direct = sorted((i, j, c) for (i, k, j), c in counts.items() if k is None)
    y = sorted((i, k, j, c) for (i, k, j), c in counts.items() if k is not None)
    # only served rows get a row of their own; the rest share one
    num_pairs = instance.num_pairs
    served: dict[int, list[int]] = {}
    for i, j, c in direct:
        served.setdefault(i, [0] * num_pairs)[j] = c
    unserved = (0,) * num_pairs
    x = tuple(
        tuple(served[i]) if i in served else unserved for i in range(instance.num_sats)
    )
    # the served cells in row-major order sum to the same float as the
    # whole table, whose other terms are exact zeros
    objective = float(sum(instance.omega[i][j] * c for i, j, c in direct))
    if y:
        objective += sum(instance.nu[(i, k, j)] * c for i, k, j, c in y)
    return Allocation(x=x, y=tuple(y), objective=objective)


def _pair_totals(allocation, weights, pairs) -> dict[int, float]:
    """Each given pair's weighted rate under the allocation; every served
    route must have a weight and one of the given pairs."""
    totals = dict.fromkeys(pairs, 0.0)
    for route, count in served_routes(allocation):
        totals[route[2]] += weights[route] * count
    return totals


# ---------------------------------------------------------------------------
# policies


def _ratesum(instance, routes) -> Allocation:
    support = _support(instance, routes)
    result = _solve_assignment(instance, support, [routes[r] for r in support])
    return _priced(instance, _counts(support, result))


def solve_primary_ratesum(instance: SlotInstance) -> Allocation:
    """Maximize aggregate direct rate under the capacity caps."""
    return _ratesum(instance, _routes(instance.omega, {}))


def solve_reflection_ratesum(instance: SlotInstance) -> Allocation:
    """Maximize aggregate rate over direct and relayed connections."""
    return _ratesum(instance, _routes(instance.omega, instance.nu or {}))


def solve_one_shot_maxmin(
    instance: SlotInstance, routes: dict
) -> tuple[Allocation, float]:
    """Maximize the worst pair's weighted rate in a single solve.

    ``routes`` maps each route to its positive weight, in route order.
    Adds one continuous variable for the floor; pairs without a route are
    left out of the floor constraints, since they could only pin it at
    zero.  A second solve with the floor fixed picks the highest-total
    solution among the max-min optima, which keeps results deterministic
    and avoids gratuitously idle resources.
    """
    if not routes:
        return zero_allocation(instance), 0.0

    support = _support(instance, routes)
    weights = [routes[route] for route in support]
    lam_index = len(support)
    # one floor row per active pair (one with a positive weight): its
    # weighted rate minus the floor
    active = sorted({j for _, _, j in routes})
    floors = {j: [] for j in active}
    for idx, (_, _, j) in enumerate(support):
        floors[j].append(idx)
    rows = [
        (
            SparseRow((*members, lam_index), (*(weights[idx] for idx in members), -1.0)),
            ">=",
            0.0,
        )
        for members in floors.values()
    ]

    stage1 = _solve_assignment(
        instance, support, [0.0] * lam_index + [1.0], rows, ((0.0, None),)
    )
    if stage1 is None:
        return zero_allocation(instance), 0.0
    lam_star = stage1.assignment[lam_index]

    stage2 = _solve_assignment(
        instance,
        support,
        weights + [0.0],
        rows,
        ((max(0.0, lam_star - LAMBDA_SLACK), None),),
    )
    allocation = _priced(instance, _counts(support, stage2))
    return allocation, min(_pair_totals(allocation, routes, active).values())


def uncontended_max_edr(
    instance: SlotInstance, pair, include_reflection: bool | None = None
) -> float:
    """Best rate a single pair could get with the whole network to itself."""
    if isinstance(pair, str):
        if pair not in instance.pair_ids:
            raise ConfigurationError(f"unknown pair id {pair!r}")
        pair = instance.pair_ids.index(pair)
    if not 0 <= pair < instance.num_pairs:
        raise ConfigurationError(f"pair index {pair} out of range")
    if include_reflection is None:
        include_reflection = instance.nu is not None
    routes = {
        (i, None, pair): row[pair]
        for i, row in enumerate(instance.omega)
        if row[pair] > 0
    }
    if include_reflection and instance.nu:
        relayed = {key: v for key, v in instance.nu.items() if key[2] == pair}
        routes.update(_routes((), relayed))
    return _ratesum(instance, routes).objective


def _ratefair(instance: SlotInstance, use_reflection: bool) -> Allocation:
    a_values = [
        uncontended_max_edr(instance, j, include_reflection=use_reflection)
        for j in range(instance.num_pairs)
    ]
    # each route's rate as a share of its pair's uncontended best
    nu = instance.nu if use_reflection and instance.nu else {}
    normalized = {}
    for route, rate in _routes(instance.omega, nu).items():
        best = a_values[route[2]]
        share = rate / best if best > 0 else 0.0
        if share > 0:
            normalized[route] = share

    remaining = {j for j in range(instance.num_pairs) if a_values[j] > 0}
    caps_t = list(instance.sat_caps)
    caps_r = list(instance.gs_caps)
    caps_u = list(instance.reflector_caps)
    frozen: dict[tuple, int] = {}

    while remaining:
        # clamping pair caps to the shrunken receiver pools keeps the
        # receiver-dominance invariant valid on every residual instance
        residual_pair_caps = tuple(
            min(instance.pair_caps[j], caps_r[a], caps_r[b]) if j in remaining else 0
            for j, (a, b) in enumerate(instance.pair_stations)
        )
        residual = replace(
            instance,
            sat_caps=tuple(caps_t),
            gs_caps=tuple(caps_r),
            pair_caps=residual_pair_caps,
            reflector_caps=tuple(caps_u),
        )
        live = {route: w for route, w in normalized.items() if route[2] in remaining}
        allocation, _ = solve_one_shot_maxmin(residual, live)
        achieved = _pair_totals(allocation, live, remaining)
        floor = min(achieved.values())
        tol = floor * SATURATION_REL_TOL + 1e-12
        saturated = {j for j in remaining if achieved[j] <= floor + tol}
        for route, count in served_routes(allocation):
            i, k, j = route
            if j in saturated:
                frozen[route] = count
                caps_t[i] -= count
                if k is not None:
                    caps_u[k] -= count
                for g in instance.pair_stations[j]:
                    caps_r[g] -= count
        remaining -= saturated

    return _priced(instance, frozen)


def solve_primary_ratefair(instance: SlotInstance) -> Allocation:
    """Iterative max-min over contention-normalized direct rates.

    Each round maximizes the worst pair's fractional rate, pins the pairs
    that sit at that floor, charges their consumption against the caps,
    and repeats on the rest.
    """
    return _ratefair(instance, use_reflection=False)


def solve_reflection_ratefair(instance: SlotInstance) -> Allocation:
    return _ratefair(instance, use_reflection=True)


# ---------------------------------------------------------------------------
# unit-capacity reductions


def solve_stsr(instance: SlotInstance) -> Allocation:
    """Single-transmitter, single-receiver case via independent sets.

    With every cap at one, feasible allocations are exactly independent
    sets of the conflict graph whose vertices are positive-rate direct
    routes and whose edges join routes sharing a satellite or a station.
    """
    if any(c != 1 for c in instance.sat_caps) or any(
        c != 1 for c in instance.gs_caps
    ) or any(c != 1 for c in instance.pair_caps):
        raise ModeError("unit caps required for the independent-set reduction")
    routes = _routes(instance.omega, {})
    vertices = list(routes)
    edges = []
    for u in range(len(vertices)):
        iu, _, ju = vertices[u]
        su = set(instance.pair_stations[ju])
        for v in range(u + 1, len(vertices)):
            iv, _, jv = vertices[v]
            if iu == iv or su & set(instance.pair_stations[jv]):
                edges.append((u, v))
    try:
        selected, _ = mwis_exact(list(routes.values()), edges)
    except SizeLimitError:
        return solve_primary_ratesum(instance)
    return _priced(instance, {vertices[v]: 1 for v in selected})


def solve_stmr(instance: SlotInstance) -> Allocation:
    """Matching reduction for instances whose receivers never bind.

    Satellites expand into one row per transmitter and pairs into one
    column per allowed connection, then a maximum-weight matching gives
    the optimal integral assignment directly.
    """
    total_tx = sum(instance.sat_caps)
    for g in range(len(instance.station_ids)):
        incident_cap = sum(instance.pair_caps[j] for j in instance.pairs_at_station(g))
        if instance.gs_caps[g] < min(total_tx, incident_cap):
            raise ModeError(
                f"station {instance.station_ids[g]}: receiver cap may bind; "
                "the matching reduction needs non-binding receivers"
            )
    rows = []
    for i in range(instance.num_sats):
        if any(instance.omega[i][j] > 0 for j in range(instance.num_pairs)):
            rows.extend((i,) * instance.sat_caps[i])
    cols = []
    for j in range(instance.num_pairs):
        if any(instance.omega[i][j] > 0 for i in range(instance.num_sats)):
            cols.extend((j,) * instance.pair_caps[j])
    weights = [
        [
            instance.omega[i][j] if instance.omega[i][j] > 0 else -math.inf
            for j in cols
        ]
        for i in rows
    ]
    matching, _ = hungarian(weights)
    counts: dict[tuple, int] = {}
    for r, c in matching.items():
        route = (rows[r], None, cols[c])
        counts[route] = counts.get(route, 0) + 1
    return _priced(instance, counts)


# ---------------------------------------------------------------------------
# verification and serialization


def allocation_violations(instance: SlotInstance, allocation: Allocation) -> list[str]:
    """Independent integer-arithmetic feasibility check."""
    messages = []
    if len(allocation.x) != instance.num_sats or any(
        len(row) != instance.num_pairs for row in allocation.x
    ):
        return ["allocation shape does not match the instance"]
    for row in allocation.x:
        for value in row:
            if value < 0 or value != int(value):
                messages.append(f"direct count {value} is not a nonnegative integer")
    source_load = [0] * instance.num_sats
    relay_load = [0] * instance.num_sats
    pair_load = [0] * instance.num_pairs
    for i in range(instance.num_sats):
        for j in range(instance.num_pairs):
            source_load[i] += allocation.x[i][j]
            pair_load[j] += allocation.x[i][j]
    for (i, k, j, count) in allocation.y:
        if count < 0 or count != int(count):
            messages.append(f"relay count {count} is not a nonnegative integer")
        if i == k:
            messages.append(f"self-relay allocation on satellite {i}")
        source_load[i] += count
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
        load = sum(pair_load[j] for j in instance.pairs_at_station(g))
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
    expected = sum(
        instance.omega[i][j] * allocation.x[i][j]
        for i in range(instance.num_sats)
        for j in range(instance.num_pairs)
    ) + sum((instance.nu or {}).get((i, k, j), 0.0) * c for i, k, j, c in allocation.y)
    if abs(expected - allocation.objective) > 1e-6 * max(1.0, abs(expected)):
        messages.append(
            f"objective {allocation.objective} differs from recomputed {expected}"
        )
    return messages


def pair_edr(instance: SlotInstance, allocation: Allocation) -> dict[str, float]:
    totals = {pid: 0.0 for pid in instance.pair_ids}
    for route, count in served_routes(allocation):
        i, k, j = route
        rate = instance.omega[i][j] if k is None else instance.nu[route]
        totals[instance.pair_ids[j]] += rate * count
    return totals


def allocation_to_json(
    instance: SlotInstance, allocation: Allocation, policy: str
) -> dict:
    """JSON-ready form; the relay tensor is emitted dense only when used."""
    y_tensor: list = []
    if allocation.y:
        y_tensor = [
            [[0] * instance.num_pairs for _ in range(instance.num_sats)]
            for _ in range(instance.num_sats)
        ]
        for (i, k, j, count) in allocation.y:
            y_tensor[i][k][j] = count
    return {
        "t": instance.time,
        "policy": policy,
        "x": [list(row) for row in allocation.x],
        "y": y_tensor,
        "objective": allocation.objective,
        "per_pair_edr": pair_edr(instance, allocation),
    }
