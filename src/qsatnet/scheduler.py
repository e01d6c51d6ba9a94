"""Per-slot weight construction and the four assignment policies.

Every candidate connection is one route (i, k, j): satellite i serves
pair j, relayed by satellite k, or directly when k is None.  A slot
instance holds the entanglement rate of every route that has one, as one
route map, plus the capacity caps.  Policies turn an instance into
integral route counts: rate-sum maximizes aggregate rate, and rate-fair
divides each route's rate once by its pair's uncontended best and runs
iterative max-min rounds on that route map.
"""

from __future__ import annotations

import functools
import math
import operator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .environment import EnvironmentTable, effective_transmissivity
from .errors import (
    ConfigurationError,
    IngestionError,
    StructuralError,
    UnknownIdError,
)
from .ilpcore import (
    OPTIMAL,
    LinearProgram,
    MipProblem,
    max_weight_flow,
    solve_mip,
)
from .linkphys import (
    ArmChannel,
    OpticsParams,
    SourceParams,
    acceptance_and_bell_weights,
    arm_transmissivity,
    dark_click_prob,
    end_to_end_outcome,
    free_space_transmissivity,
)
from .orbital import ConstellationSnapshot, visible_links

SATURATION_REL_TOL = 1e-6
LAMBDA_SLACK = 1e-9
# the (pair, source, relay) cells of a slot, the sum over its pairs of
# |sources| * |relays|, from which build_reflection_weights gathers its
# relayed candidates in one array pass rather than one at a time.  Timed on
# default-constellation slots cut to 1 to 3 pairs, the pass costs about
# 100 us more below 50 cells, breaks even near 100 and saves 50 to 140 us
# from 150 to 225; a full default slot (398 to 800+ cells) saves about a
# fifth of its weights time, and reduced slots have at most 15 cells
RELAY_ARRAY_CELLS = 100
# the relayed candidates from which _relay_rates prices a slot's candidates
# in one broadcast call rather than one at a time on Python floats.  Timed
# on one x86-64 core, the broadcast costs 44 to 50 us at 1 to 16
# candidates, numpy's fixed cost per call, and the scalar formula about
# 3.3 us per candidate (5.5 us on a slower run), so the two cross between
# 9 and 15; reduced slots have 1 to 7 candidates, full default slots
# hundreds
RELAY_BROADCAST_CANDIDATES = 12


@dataclass(frozen=True)
class PairSpec:
    id: str
    station_a: str
    station_b: str
    pair_cap: int = 10

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


def _index(value, what: str) -> int:
    """``value`` as ``operator.index`` reads it, or a StructuralError
    naming ``what``, the index's place."""
    try:
        return operator.index(value)
    except TypeError:
        raise StructuralError(f"{what} {value!r} is not an integer") from None


@dataclass(frozen=True, eq=True)
class SlotInstance:
    """One slot's rates and caps.

    ``routes`` maps each route (i, k, j) with a positive finite rate to
    that rate; every other route carries none.  It is stored in route
    order: direct routes (k None) in row-major order, then relayed routes
    in key order.  This is the solver's variable order and the order in
    which per-route terms are summed.

    A run's network is one instance with no routes; each slot's instance
    is that network with the slot's time and routes, and shares its ids
    and caps.
    """

    time: int
    sat_ids: tuple[str, ...]
    station_ids: tuple[str, ...]
    pair_ids: tuple[str, ...]
    pair_stations: tuple[tuple[int, int], ...]
    routes: dict[tuple[int, int | None, int], float]
    sat_caps: tuple[int, ...]
    gs_caps: tuple[int, ...]
    pair_caps: tuple[int, ...]
    reflector_caps: tuple[int, ...]

    def __post_init__(self) -> None:
        self._check_cap_lengths()
        n_gs = len(self.station_ids)
        for j, (a, b) in enumerate(self.pair_stations):
            if not (type(a) is type(b) is int):
                a, b = (_index(g, f"pair {j}: station index") for g in (a, b))
            if not (0 <= a < n_gs and 0 <= b < n_gs) or a == b:
                raise StructuralError(f"pair {j}: bad station indices ({a}, {b})")
            self._check_receivers(j, (a, b))
        object.__setattr__(self, "routes", self._ordered_routes(self.routes))

    def with_routes(self, time: int, routes: dict) -> SlotInstance:
        """Copy at slot ``time`` with ``routes`` as its route map.  Only
        the route map is checked and put in route order, as the
        constructor does it: the ids and caps were checked when ``self``
        was built, and the copy shares them."""
        return self._copy(time=time, routes=self._ordered_routes(routes))

    def caps_only(self, sat_caps, gs_caps, pair_caps, reflector_caps) -> SlotInstance:
        """Copy with the caps replaced and no routes, as a max-min round
        reads a residual network.  Only the caps' lengths and receiver
        dominance are checked, as the constructor does it: the ids and
        pair stations were checked when ``self`` was built, and the copy
        shares them."""
        copy = self._copy(
            routes={},
            sat_caps=sat_caps,
            gs_caps=gs_caps,
            pair_caps=pair_caps,
            reflector_caps=reflector_caps,
        )
        copy._check_cap_lengths()
        for j, stations in enumerate(copy.pair_stations):
            copy._check_receivers(j, stations)
        return copy

    def _copy(self, **changes) -> SlotInstance:
        """Copy with some fields replaced, sharing the rest; the dense
        views (``omega``, ``nu``) are built again on first read."""
        child = object.__new__(SlotInstance)
        for name in self.__dataclass_fields__:
            value = changes[name] if name in changes else getattr(self, name)
            object.__setattr__(child, name, value)
        return child

    def _check_cap_lengths(self) -> None:
        n_sat = len(self.sat_ids)
        n_pair = len(self.pair_ids)
        if len(self.pair_stations) != n_pair or len(self.pair_caps) != n_pair:
            raise StructuralError("pair arrays must align with pair_ids")
        if len(self.sat_caps) != n_sat or len(self.reflector_caps) != n_sat:
            raise StructuralError("satellite cap arrays must align with sat_ids")
        if len(self.gs_caps) != len(self.station_ids):
            raise StructuralError("station cap array must align with station_ids")

    def _check_receivers(self, j: int, stations) -> None:
        # scheduling model assumes receivers outnumber pair connections
        for g in stations:
            if self.gs_caps[g] < self.pair_caps[j]:
                raise ConfigurationError(
                    f"station {self.station_ids[g]}: receiver cap "
                    f"{self.gs_caps[g]} below pair cap {self.pair_caps[j]} "
                    f"of pair {self.pair_ids[j]}"
                )

    def _ordered_routes(self, routes: dict) -> dict:
        """``routes`` checked against the ids, in route order."""
        n_sat = len(self.sat_ids)
        n_pair = len(self.pair_ids)
        direct, relayed = [], []
        for route, rate in routes.items():
            i, k, j = route
            if not (type(i) is type(j) is int and (k is None or type(k) is int)):
                what = f"route {route}: index"
                i, j = _index(i, what), _index(j, what)
                k = None if k is None else _index(k, what)
            if not (0 <= i < n_sat and 0 <= j < n_pair and (k is None or 0 <= k < n_sat)):
                raise StructuralError(f"route {route}: index out of range")
            if k == i:
                raise StructuralError(f"route {route}: self relay")
            if not 0.0 < rate < math.inf:
                raise StructuralError(
                    f"route {route}: rate {rate!r} must be positive and finite"
                )
            (direct if k is None else relayed).append(route)
        return {route: routes[route] for route in sorted(direct) + sorted(relayed)}

    @property
    def num_sats(self) -> int:
        return len(self.sat_ids)

    @property
    def num_pairs(self) -> int:
        return len(self.pair_ids)

    @cached_property
    def omega(self) -> tuple[tuple[float, ...], ...]:
        """Dense direct rates, one row per satellite and one column per
        pair; a cell without a direct route holds 0.0."""
        rows = [[0.0] * self.num_pairs for _ in self.sat_ids]
        for (i, k, j), rate in self.routes.items():
            if k is None:
                rows[i][j] = rate
        return tuple(tuple(row) for row in rows)

    @cached_property
    def nu(self) -> dict[tuple[int, int, int], float] | None:
        """Relayed rates keyed (i, k, j) in key order; None when no route
        is relayed."""
        relayed = {r: rate for r, rate in self.routes.items() if r[1] is not None}
        return relayed or None


@dataclass(frozen=True)
class Allocation:
    """Integral assignment: x[sat][pair] plus sparse reflection counts.

    ``counts`` holds the nonzero counts keyed by route (i, k, j), in
    route order (``SlotInstance``); the per-slot metrics read it.  It is
    not a field, so equality, ``repr`` and ``dataclasses.replace`` see
    ``x``, ``y`` and ``objective`` alone.  The policies' ``_priced``
    stores the counts it priced; any other allocation, a replaced one
    included, reads them from its own ``x`` and ``y`` on first access.
    ``x`` and ``y`` stay for the independent feasibility checks.
    """

    x: tuple[tuple[int, ...], ...]
    y: tuple[tuple[int, int, int, int], ...]
    objective: float

    @cached_property
    def counts(self) -> dict[tuple[int, int | None, int], int]:
        """Nonzero counts keyed (i, k, j): direct cells in row-major
        order, then relay entries in ``y`` order; a route entered twice in
        ``y`` holds the sum of its counts."""
        counts = {}
        for i, row in enumerate(self.x):
            if any(row):
                for j, count in enumerate(row):
                    if count:
                        counts[i, None, j] = count
        for i, k, j, count in self.y:
            if count:
                counts[i, k, j] = counts.get((i, k, j), 0) + count
        return counts


# ---------------------------------------------------------------------------
# weight construction


def _weather_record(env, station_id, month, hour_utc):
    try:
        return env.lookup(station_id, month, hour_utc)
    except UnknownIdError as exc:
        raise IngestionError(
            f"station {station_id}: no weather records available"
        ) from exc


def _station_dark(record, physics) -> float:
    """A station's per-gate dark-click probability under its weather."""
    return dark_click_prob(
        record.solar_irradiance,
        physics.detector_gate,
        physics.filter_bandwidth_nm,
        physics.field_of_view,
        physics.optics.rx_radius,
        physics.optics.wavelength,
    )


def _arm_for(geom, record, physics, dark=None) -> ArmChannel:
    """The downlink arm of one link; ``dark`` is its station's
    ``_station_dark``, computed here when not given."""
    fs = free_space_transmissivity(physics.optics, geom.slant_range)
    atm = effective_transmissivity(record, geom.elevation)
    eta = arm_transmissivity(
        fs, atm, physics.optics.tx_efficiency, physics.optics.rx_efficiency
    )
    if dark is None:
        dark = _station_dark(record, physics)
    return ArmChannel(transmissivity=eta, dark_click_prob=dark)


def _check_rows(snapshot, network) -> None:
    """Refuse a snapshot whose rows are not the network's satellites and
    stations in the network's order, naming a missing id first."""
    if (snapshot.sat_ids, snapshot.station_ids) == (
        network.sat_ids,
        network.station_ids,
    ):
        return
    for kind, rows, ids in (
        ("satellite", snapshot.sat_row, network.sat_ids),
        ("ground station", snapshot.station_row, network.station_ids),
    ):
        for id_ in ids:
            if id_ not in rows:
                raise UnknownIdError(f"unknown {kind} id {id_!r}")
    raise ConfigurationError(
        "snapshot rows must hold exactly the network's satellite and "
        "station ids, in the network's order"
    )


def _slot_links(snapshot, network, physics, env, min_elevation, month, hour_utc):
    """The slot's gated geometry and a memoized downlink-arm lookup.

    The table holds, per station row g, the satellite rows i that clear
    the minimum elevation there; ``arm(i, g)`` is that link's downlink
    arm.  A station's weather is read on its first arm, so a station no
    satellite serves needs no weather record, and its dark-click
    probability is computed there, once for the slot.
    """
    _check_rows(snapshot, network)
    links = visible_links(snapshot, min_elevation)
    station_ids = network.station_ids
    stations = {}
    arms: dict[tuple[int, int], ArmChannel] = {}

    def arm(i, g):
        key = (i, g)
        if key not in arms:
            if g not in stations:
                record = _weather_record(env, station_ids[g], month, hour_utc)
                stations[g] = record, _station_dark(record, physics)
            record, dark = stations[g]
            arms[key] = _arm_for(links[g][i], record, physics, dark)
        return arms[key]

    return links, arm


def _direct_routes(network, physics, links, arm, fidelity_threshold):
    """The slot's direct routes (i, None, j) that clear the fidelity
    threshold, mapped to their rates."""
    routes = {}
    for j, (a, b) in enumerate(network.pair_stations):
        visible_b = links[b]
        for i in links[a]:
            if i not in visible_b:
                continue
            outcome = end_to_end_outcome(physics.source, arm(i, a), arm(i, b))
            if outcome.fidelity >= fidelity_threshold and outcome.edr > 0:
                routes[(i, None, j)] = outcome.edr
    return routes


def build_weights(
    snapshot: ConstellationSnapshot,
    network: SlotInstance,
    physics: PhysicsParams,
    env: EnvironmentTable,
    min_elevation: float,
    fidelity_threshold: float,
    month: int = 6,
    hour_utc: float = 0.0,
) -> SlotInstance:
    """Direct-downlink rates for every satellite and station pair.

    A satellite gets a direct route to a pair only when it clears the
    minimum elevation at both stations and the delivered fidelity clears
    the threshold.  The slot's instance is the network's ``with_routes``
    copy, so only its route map is checked.
    """
    links, arm = _slot_links(
        snapshot, network, physics, env, min_elevation, month, hour_utc
    )
    routes = _direct_routes(network, physics, links, arm, fidelity_threshold)
    return network.with_routes(snapshot.time, routes)


def build_reflection_weights(
    snapshot: ConstellationSnapshot,
    network: SlotInstance,
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

    A slot with fewer than RELAY_ARRAY_CELLS (pair, source, relay) cells
    gathers its relayed candidates one at a time (``_looped_relays``), a
    larger one in one array pass (``_array_relays``); both give the same
    routes, rates and weather reads.  Either way the candidates are
    priced together (``_relay_rates``): fewer than
    RELAY_BROADCAST_CANDIDATES one at a time on Python floats, more in
    one broadcast call, to the same bits.  The slot's instance is the
    network's ``with_routes`` copy, so only its route map is checked.
    """
    if not 0.0 <= mirror_efficiency <= 1.0:
        raise ConfigurationError("mirror efficiency must lie in [0, 1]")
    links, arm = _slot_links(
        snapshot, network, physics, env, min_elevation, month, hour_utc
    )
    routes = _direct_routes(network, physics, links, arm, fidelity_threshold)
    cells = sum(len(links[a]) * len(links[b]) for a, b in network.pair_stations)
    relays = _array_relays if cells >= RELAY_ARRAY_CELLS else _looped_relays
    price = functools.partial(
        _relay_rates, physics, mirror_efficiency, fidelity_threshold
    )
    routes.update(relays(snapshot, network, links, arm, mirror_hop(physics), price))
    return network.with_routes(snapshot.time, routes)


def _relay_rates(
    physics, mirror_efficiency, fidelity_threshold, hop, eta1, dark1, eta_relay, dark2
):
    """Rates of relayed candidates given as channel columns, lists or
    arrays of one length: each route's hop factor, source arm and
    relay-to-station arm.  Returns the positions of the candidates that
    clear the fidelity threshold with a positive rate, a list or an index
    array, and their rates as a list, to the same bits as
    ``end_to_end_outcome`` on each.

    Fewer than RELAY_BROADCAST_CANDIDATES candidates are priced one at a
    time on Python floats (``_each_relay_rate``), more in one broadcast
    ``acceptance_and_bell_weights`` call (``_broadcast_relay_rates``).
    Both take their range checks from ``_relayed_arm``.
    """
    scalar = len(hop) < RELAY_BROADCAST_CANDIDATES
    price = _each_relay_rate if scalar else _broadcast_relay_rates
    columns = (hop, eta1, dark1, eta_relay, dark2)
    return price(physics.source, mirror_efficiency, fidelity_threshold, *columns)


def _each_relay_rate(
    source, mirror_efficiency, fidelity_threshold, hop, eta1, dark1, eta_relay, dark2
):
    """``_relay_rates`` one candidate at a time, on Python floats."""
    hop, eta1, dark1, eta_relay, dark2 = (
        column.tolist() if isinstance(column, np.ndarray) else column
        for column in (hop, eta1, dark1, eta_relay, dark2)
    )
    eta2 = _relayed_arm(hop, mirror_efficiency, eta_relay)
    kept, rates = [], []
    for n, channel in enumerate(zip(eta1, eta2, dark1, dark2)):
        success, bell = acceptance_and_bell_weights(source.mean_photon_number, *channel)
        fidelity = bell / success if success > 0.0 else 0.0
        edr = source.repetition_rate * success
        if fidelity >= fidelity_threshold and edr > 0:
            kept.append(n)
            rates.append(edr)
    return kept, rates


def _broadcast_relay_rates(
    source, mirror_efficiency, fidelity_threshold, hop, eta1, dark1, eta_relay, dark2
):
    """``_relay_rates`` in one broadcast ``acceptance_and_bell_weights``
    call over array columns; the kept positions stay an index array, which
    ``_array_relays`` indexes its candidate arrays with."""
    hop, eta1, dark1, eta_relay, dark2 = (
        np.asarray(column, float) for column in (hop, eta1, dark1, eta_relay, dark2)
    )
    eta2 = _relayed_arm(hop, mirror_efficiency, eta_relay)
    success, bell = acceptance_and_bell_weights(
        source.mean_photon_number, eta1, eta2, dark1, dark2
    )
    fidelity = np.divide(
        bell, success, out=np.zeros_like(success), where=success > 0.0
    )
    edr = source.repetition_rate * success
    kept = np.flatnonzero((fidelity >= fidelity_threshold) & (edr > 0))
    return kept, edr[kept].tolist()


def _relayed_arm(hop, mirror_efficiency, eta_relay):
    """Each relayed candidate's second-arm transmissivity, from its hop
    factor and relay arm: a list from lists, an array from arrays.  A hop
    factor or a product outside [0, 1], NaN included, is refused, with
    one message per check on either path."""
    if not _in_unit_interval(hop):
        raise ConfigurationError("source-to-relay hop factor must lie in [0, 1]")
    # multiplied in the order of reflection_arms, so each rate matches
    # the scalar end_to_end_outcome bit for bit
    if isinstance(hop, np.ndarray):
        eta2 = hop * mirror_efficiency * eta_relay
    else:
        eta2 = [h * mirror_efficiency * eta for h, eta in zip(hop, eta_relay)]
    if not _in_unit_interval(eta2):
        raise ConfigurationError("relayed arm transmissivity must lie in [0, 1]")
    return eta2


def _in_unit_interval(values) -> bool:
    """Whether every entry of a nonempty list or array lies in [0, 1];
    a NaN does not."""
    if isinstance(values, np.ndarray):
        # min and max are NaN when any entry is, which fails both tests
        return values.min() >= 0.0 and values.max() <= 1.0
    return all(0.0 <= value <= 1.0 for value in values)


def _looped_relays(snapshot, network, links, arm, hop_free_space, price):
    """The relayed routes (i, k, j) that ``price`` keeps, mapped to their
    rates, gathered one candidate at a time.

    Each visible satellite's position is read once, as a plain list.
    Each ordered (source, relay) pair gets one sight-line test; each
    unordered pair whose sight line is clear gets one hop distance and
    mirror hop, since ``math.dist`` is symmetric bit for bit.
    """
    from .orbital import sight_line_clear

    position = {i: snapshot.sat_xyz[i].tolist() for visible in links for i in visible}
    # hop factors keyed by the ordered (source, relay) pair, None without a
    # sight line: the test may differ in the last bit between directions,
    # the distance may not, so a clear reverse pair lends its factor
    hops: dict[tuple[int, int], float | None] = {}
    keys = []
    columns = hop_col, eta1_col, dark1_col, eta2_col, dark2_col = [], [], [], [], []
    for j, (a, b) in enumerate(network.pair_stations):
        sources = links[a]
        if not sources:
            continue
        relays = [(k, position[k]) for k in links[b]]
        for i in sources:
            arm_a = arm(i, a)
            p = position[i]
            for k, q in relays:
                if k == i:
                    continue
                key = (i, k)
                if key not in hops:
                    if not sight_line_clear(p, q):
                        hops[key] = None
                    elif hops.get((k, i)) is not None:
                        hops[key] = hops[k, i]
                    else:
                        hops[key] = hop_free_space(math.dist(p, q))
                hop = hops[key]
                if hop is None:
                    continue
                arm_b = arm(k, b)
                keys.append((i, k, j))
                hop_col.append(hop)
                eta1_col.append(arm_a.transmissivity)
                dark1_col.append(arm_a.dark_click_prob)
                eta2_col.append(arm_b.transmissivity)
                dark2_col.append(arm_b.dark_click_prob)
    if not keys:
        return {}
    kept, rates = price(*columns)
    return {keys[n]: rate for n, rate in zip(kept, rates)}


def _array_relays(snapshot, network, links, arm, hop_free_space, price):
    """``_looped_relays`` in one array pass over the slot's visible
    satellites, for slots with many candidates.

    Sight lines come from one ordered ``sight_line_matrix``; one boolean
    (pair, source, relay) mask holds the candidates, read out in the
    loop's (j, i, k) order; each unordered pair with a clear sight line
    that some candidate uses gets one hop distance and mirror hop; and
    ``arm`` is called once for each arm some candidate reads, station by
    station in the order in which the loop first reads each station's
    weather.  Keys are built only for the routes ``price`` keeps.
    """
    from .orbital import sight_line_matrix

    pair_stations = network.pair_stations
    visible = sorted({i for row in links for i in row})
    column = {i: v for v, i in enumerate(visible)}
    seen = np.zeros((len(links), len(visible)), bool)
    seen[
        [g for g, row in enumerate(links) for _ in row],
        [column[i] for row in links for i in row],
    ] = True
    xyz = snapshot.sat_xyz[visible]
    a_of, b_of = np.array(pair_stations, np.intp).reshape(-1, 2).T
    mask = seen[a_of, :, None] & seen[b_of, None, :] & sight_line_matrix(xyz)

    # the arms the loop reads: every source of a pair with sources, and
    # every relay of a candidate; stations in the loop's first-read order
    relay_used = mask.any(axis=1)
    has_candidates = relay_used.any(axis=1).tolist()
    needed = {}
    for j, (a, b) in enumerate(pair_stations):
        if links[a]:
            needed[a] = needed.get(a, False) | seen[a]
            if has_candidates[j]:
                needed[b] = needed.get(b, False) | relay_used[j]
    eta = np.zeros(seen.shape)
    dark = np.zeros(len(links))
    for g, row in needed.items():
        cols = np.flatnonzero(row).tolist()
        channels = [arm(visible[v], g) for v in cols]
        eta[g, cols] = [channel.transmissivity for channel in channels]
        dark[g] = channels[0].dark_click_prob

    pair, src, rel = np.nonzero(mask)
    if not pair.size:
        return {}
    # one hop factor per unordered pair that some candidate uses
    used = mask.any(axis=0)
    hop = np.zeros(used.shape)
    positions = xyz.tolist()
    near, far = (axis.tolist() for axis in np.nonzero(np.triu(used | used.T)))
    factors = [
        hop_free_space(math.dist(positions[v], positions[w])) for v, w in zip(near, far)
    ]
    hop[near, far] = factors
    hop[far, near] = factors
    a_at, b_at = a_of[pair], b_of[pair]
    kept, rates = price(
        hop[src, rel], eta[a_at, src], dark[a_at], eta[b_at, rel], dark[b_at]
    )
    # satellite rows taken from ``visible``, whose ints the link table and
    # the other routes share, not new ones from the index arrays
    return {
        (visible[v], visible[w], j): rate
        for v, w, j, rate in zip(
            src[kept].tolist(), rel[kept].tolist(), pair[kept].tolist(), rates
        )
    }


# ---------------------------------------------------------------------------
# routes and generic MIP assembly
#
# Route maps keep the instance's route order (SlotInstance): it is the
# solver's variable order and the order in which per-route terms are
# summed.


def _direct(instance) -> dict:
    """The instance's direct routes and their rates, in route order."""
    return {route: rate for route, rate in instance.routes.items() if route[1] is None}


def _support(instance, routes) -> dict:
    """The solver's integer variables: the routes with room under every
    cap they touch, each mapped to that room.  A route's room is the
    least of its pair, transmitter and reflector caps: receiver dominance
    (``SlotInstance``) puts each station's cap at or above its pairs'."""
    sat_caps, pair_caps = instance.sat_caps, instance.pair_caps
    reflector_caps = instance.reflector_caps
    support = {}
    for route in routes:
        i, k, j = route
        room = pair_caps[j]
        if sat_caps[i] < room:
            room = sat_caps[i]
        if k is not None and reflector_caps[k] < room:
            room = reflector_caps[k]
        if room > 0:
            support[route] = room
    return support


def _cap_rows(instance, support) -> tuple:
    """The cap rows over the support's columns, as ``(columns, cap)``
    pairs, the columns a strictly increasing tuple: transmitter,
    receiver, pair, then reflector caps, each in index order and only
    where some route takes part.  A station's row covers its pairs'
    columns.  Plain tuples, so the fit test reads them without numpy and
    a round's content hashes them; ``_assignment_program`` scatters them
    into the solver's matrix."""
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
            rows.append((tuple(incidence[index]), caps[index]))
    return tuple(rows)


def _fits_at_room(support, rows) -> bool:
    """Whether every support route can run at its room at once: on each
    cap row, the rooms of the routes it covers sum to at most the cap."""
    rooms = list(support.values())
    return all(sum(rooms[c] for c in columns) <= cap for columns, cap in rows)


def _assignment_program(rooms, rows, objective, members=(), weights=()):
    """The LP relaxation of an assignment over a nonempty support.

    ``rooms`` holds each support route's room, its upper bound, in
    support order, and ``rows`` are the support's cap rows
    (``_cap_rows``), scattered into the matrix in one call.  With floor
    ``members`` (each active pair's support columns), a floor variable
    λ >= 0 comes last, and one row per pair reads its weighted rate
    minus λ >= 0, each route's weight taken from ``weights``.
    ``objective`` has one entry per variable.
    """
    num_routes = len(rooms)
    n = num_routes + 1 if members else num_routes
    groups = (*(columns for columns, _ in rows), *members)
    lengths = list(map(len, groups))
    columns = np.fromiter(chain.from_iterable(groups), np.intp, sum(lengths))
    matrix = np.zeros((len(groups), n))
    matrix[np.arange(len(groups)).repeat(lengths), columns] = 1.0
    rhs = np.zeros(len(groups))
    rhs[: len(rows)] = [cap for _, cap in rows]
    senses = np.ones(len(groups), np.int8)
    if members:
        # each floor row's ones become its members' weights
        floor_rows = matrix[len(rows) :]
        floor_rows[:, :num_routes] *= weights
        floor_rows[:, num_routes] = -1.0
        senses[len(rows) :] = -1
    upper = np.full(n, math.inf)
    upper[:num_routes] = rooms
    return LinearProgram(objective, matrix, rhs, senses, np.zeros(n), upper)


def _solve_assignment(program, num_routes):
    """Solves ``program`` with its first ``num_routes`` variables, the
    route counts, integral; a solve that does not prove optimality
    raises."""
    result = solve_mip(MipProblem(base=program, integer_vars=tuple(range(num_routes))))
    if result.status != OPTIMAL:
        raise StructuralError(f"assignment solve returned {result.status}")
    return result


def _counts(support, result) -> dict:
    """The nonzero route counts of a solve over ``support``."""
    counts = map(round, result.assignment)
    return {route: c for route, c in zip(support, counts) if c}


def _sorted_counts(counts):
    """The nonzero route counts as sorted (i, j, count) direct and
    (i, k, j, count) relayed entries."""
    direct = sorted((i, j, c) for (i, k, j), c in counts.items() if k is None)
    y = sorted((i, k, j, c) for (i, k, j), c in counts.items() if k is not None)
    return direct, y


def _objective(instance, direct, y) -> float:
    """Total rate of sorted direct and relayed counts."""
    # a count on a route without a rate delivers nothing
    rate = instance.routes.get
    # left to right: from Python 3.12 on, the built-in sum of floats is
    # compensated, and the outputs would depend on the version
    terms = (rate((i, None, j), 0.0) * c for i, j, c in direct)
    objective = float(functools.reduce(operator.add, terms, 0))
    if y:
        objective += functools.reduce(
            operator.add, (rate((i, k, j), 0.0) * c for i, k, j, c in y), 0
        )
    return objective


def _priced(instance, counts) -> Allocation:
    """Allocation holding the given nonzero route counts, priced at the
    instance's rates.  It stores those counts, in route order, as the
    allocation's ``counts``, so no policy's answer reads them back from
    ``x`` and ``y``."""
    direct, y = _sorted_counts(counts)
    # only served rows get a row of their own; the rest share one
    num_pairs = instance.num_pairs
    served: dict[int, list[int]] = {}
    for i, j, c in direct:
        served.setdefault(i, [0] * num_pairs)[j] = c
    x = [(0,) * num_pairs] * instance.num_sats
    for i, row in served.items():
        x[i] = tuple(row)
    allocation = Allocation(
        x=tuple(x), y=tuple(y), objective=_objective(instance, direct, y)
    )
    priced = {(i, None, j): c for i, j, c in direct}
    priced.update(((i, k, j), c) for i, k, j, c in y)
    object.__setattr__(allocation, "counts", priced)
    return allocation


# ---------------------------------------------------------------------------
# policies


def _ratesum(instance, routes) -> Allocation:
    support = _support(instance, routes)
    if not support:
        return _priced(instance, {})
    program = _assignment_program(
        tuple(support.values()),
        _cap_rows(instance, support),
        [routes[r] for r in support],
    )
    return _priced(instance, _counts(support, _solve_assignment(program, len(support))))


def solve_primary_ratesum(instance: SlotInstance) -> Allocation:
    """Maximize aggregate direct rate under the capacity caps."""
    return _ratesum(instance, _direct(instance))


def solve_reflection_ratesum(instance: SlotInstance) -> Allocation:
    """Maximize aggregate rate over direct and relayed connections."""
    return _ratesum(instance, instance.routes)


def solve_one_shot_maxmin(
    instance: SlotInstance, routes: dict
) -> tuple[dict, dict[int, float]]:
    """Maximize the worst pair's weighted rate in a single solve.

    ``routes`` maps each route to its positive weight, in route order.
    Adds one continuous variable for the floor; pairs without a route are
    left out of the floor constraints, since they could only pin it at
    zero.  A second solve with the floor fixed picks the highest-total
    solution among the max-min optima, which keeps results deterministic
    and avoids gratuitously idle resources.

    The support's cap rows are built once: the fit test reads them, and
    both solves take them as their cap constraints.  When every support
    route fits at its room on every row at once, no solve runs: with
    every weight positive, all routes at their room is then the unique
    optimum of the second solve, whatever the floor.  Otherwise the
    round's content, in support order, goes to the active round solver:
    inside ``round_memory`` it answers a content it has met from memory,
    and outside it solves every round.

    Returns the second solve's nonzero route counts in route order, and
    each routed pair's weighted rate under them, summed in route order;
    the floor is the least of those rates.
    """
    active = sorted({j for _, _, j in routes})
    totals = dict.fromkeys(active, 0.0)
    support = _support(instance, routes)
    rows = _cap_rows(instance, support)
    if _fits_at_room(support, rows):
        counts = dict(support)
    else:
        # one floor row per active pair (one with a positive weight) over
        # its support columns
        floors = {j: [] for j in active}
        for idx, (_, _, j) in enumerate(support):
            floors[j].append(idx)
        solved = _round_solver.get()(
            tuple(support.values()),
            rows,
            tuple(routes[route] for route in support),
            tuple(map(tuple, floors.values())),
        )
        counts = {route: c for route, c in zip(support, solved) if c}
    for route, count in counts.items():
        totals[route[2]] += routes[route] * count
    return counts, totals


def _contended_maxmin(rooms, rows, weights, members) -> tuple:
    """The two solves of ``solve_one_shot_maxmin`` over a nonempty
    support, given as its content alone: each support route's room, the
    support's cap rows, each route's weight, and each active pair's floor
    members, all tuples in support order.  It reads nothing else, so
    equal arguments make the same MIPs, and the deterministic solver the
    same answer.  Solves the floor, then the highest total at that floor,
    and returns the second solve's count of every support route."""
    # both solves share one program: the fill solve differs only in its
    # objective and in the floor's lower bound
    lam_index = len(rooms)
    floor_program = _assignment_program(
        rooms, rows, [0.0] * lam_index + [1.0], members, weights
    )
    stage1 = _solve_assignment(floor_program, lam_index)
    lam_star = stage1.assignment[lam_index]

    fill_program = floor_program.with_objective((*weights, 0.0)).with_bounds(
        lam_index, max(0.0, lam_star - LAMBDA_SLACK), None
    )
    stage2 = _solve_assignment(fill_program, lam_index)
    return tuple(map(round, stage2.assignment[:lam_index]))


# The solver of contended max-min rounds: plain _contended_maxmin outside a
# run, and inside round_memory an lru_cache over it, keyed by its arguments.
ROUND_MEMORY_SIZE = 64
_round_solver: ContextVar = ContextVar("round_solver", default=_contended_maxmin)


@contextmanager
def round_memory():
    """Remember contended max-min rounds by content while the block runs.

    The block's round solver is ``functools.lru_cache`` over
    ``_contended_maxmin``, whose arguments are the round's content: a
    round whose rooms, cap rows, weights and floor members were already
    solved in the block takes the remembered counts and hands the solver
    nothing.  At most ``ROUND_MEMORY_SIZE`` rounds are kept, least
    recently used out first.  On exit, also by an exception, the solver
    that was active before comes back.  Yields the cached solver, whose
    ``cache_info()`` reports the memory.
    """
    token = _round_solver.set(functools.lru_cache(ROUND_MEMORY_SIZE)(_contended_maxmin))
    try:
        yield _round_solver.get()
    finally:
        _round_solver.reset(token)


def uncontended_max_edr(instance: SlotInstance, routes: dict) -> float:
    """Rate-sum optimum of one pair's routes: the best rate that pair
    could get with the whole network to itself.  ``routes`` maps each of
    the pair's routes to its rate, in route order.  Alone, the pair's
    problem is a flow from transmitters to reflectors, or to one node that
    stands for the direct routes, of at most the pair's cap, which
    receiver dominance puts at or below both station caps.  When every
    route with room fits at its room on every cap row at once, no flow
    runs: all of them at their room is then the unique optimum."""
    support = _support(instance, routes)
    if _fits_at_room(support, _cap_rows(instance, support)):
        return _objective(instance, *_sorted_counts(support))
    j = next(iter(routes))[2]
    direct = instance.num_sats
    arcs = {(i, direct if k is None else k): w for (i, k, _), w in routes.items()}
    demand = (*instance.reflector_caps, math.inf)
    flow = max_weight_flow(instance.sat_caps, demand, arcs, instance.pair_caps[j])
    counts = {(i, None if r == direct else r, j): c for (i, r), c in flow.items()}
    return _objective(instance, *_sorted_counts(counts))


def _ratefair(instance: SlotInstance, routes: dict) -> Allocation:
    # each routed pair's routes in route order, and its uncontended best
    by_pair: dict[int, dict] = {}
    for route, rate in routes.items():
        by_pair.setdefault(route[2], {})[route] = rate
    best = {j: uncontended_max_edr(instance, by_pair[j]) for j in sorted(by_pair)}
    # each route's rate as a share of its pair's uncontended best; a pair
    # whose best is 0 never enters a round
    normalized = {}
    for route, rate in routes.items():
        pair_best = best[route[2]]
        share = rate / pair_best if pair_best > 0 else 0.0
        if share > 0:
            normalized[route] = share

    remaining = {j for j, value in best.items() if value > 0}
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
        # a round reads only the caps, and its copy checks only them; its
        # weights come as its routes
        residual = instance.caps_only(
            tuple(caps_t), tuple(caps_r), residual_pair_caps, tuple(caps_u)
        )
        live = {route: w for route, w in normalized.items() if route[2] in remaining}
        counts, totals = solve_one_shot_maxmin(residual, live)
        floor = min(totals.values())
        tol = floor * SATURATION_REL_TOL + 1e-12
        saturated = {j for j, total in totals.items() if total <= floor + tol}
        for route, count in counts.items():
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
    return _ratefair(instance, _direct(instance))


def solve_reflection_ratefair(instance: SlotInstance) -> Allocation:
    """Iterative max-min over contention-normalized direct and relayed
    rates."""
    return _ratefair(instance, instance.routes)


# ---------------------------------------------------------------------------
# serialization


def pair_edr(instance: SlotInstance, allocation: Allocation) -> dict[str, float]:
    """Each pair's delivered rate: its served routes' rates times their
    counts, summed in route order over ``Allocation.counts``."""
    pair_ids = instance.pair_ids
    rate = instance.routes.get
    totals = {pid: 0.0 for pid in pair_ids}
    for route, count in allocation.counts.items():
        # a count on a route without a rate delivers nothing
        totals[pair_ids[route[2]]] += rate(route, 0.0) * count
    return totals


def allocation_to_json(
    instance: SlotInstance, allocation: Allocation, policy: str
) -> dict:
    """JSON-ready form: the served routes as [i, k, j, count] in route
    order, k null for a direct route."""
    return {
        "t": instance.time,
        "policy": policy,
        "counts": [[*route, count] for route, count in allocation.counts.items()],
        "objective": allocation.objective,
        "per_pair_edr": pair_edr(instance, allocation),
    }
