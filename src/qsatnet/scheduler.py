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

from .environment import EnvironmentTable
from .errors import (
    ConfigurationError,
    IngestionError,
    QsatError,
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
    OpticsParams,
    SourceParams,
    _square,
    acceptance_and_bell_weights,
    dark_click_prob,
    free_space_transmissivity,
)
from .orbital import ConstellationSnapshot, SlotBlock

# the weight builders price links in arrays, to its bits, and never call
# it; it stays a name of this module, where the benchmark's tracer
# (perfbench/tracer.py) looks it up
from .linkphys import end_to_end_outcome  # noqa: F401

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


def _arm_transmissivities(optics, elevation, slant, zenith, cloud):
    """The downlink arms' transmissivities of cells given as arrays of one
    length: each cell's elevation and slant range, and its station's
    zenith transmissivity and cloud cover.  The per-link formulas
    (``free_space_transmissivity``, ``effective_transmissivity``,
    ``arm_transmissivity``) over arrays, with their checks as whole-array
    tests: every step an IEEE operation in their order, and every sine,
    radians and power taken element by element from ``math``, so each
    entry has the bits the per-link formulas give its cell."""
    if (slant <= 0.0).any():
        raise ConfigurationError("slant_range must be positive")
    ratio = optics.aperture_product / _square(optics.wavelength * slant)
    free_space = np.where(ratio < 1.0, ratio, 1.0)
    if (elevation > 90.0).any():
        raise ConfigurationError("elevation cannot exceed 90 degrees")
    # the secant air-mass law, where the satellite is above the horizon
    # and the zenith lets light through; 0 elsewhere
    lit = np.flatnonzero((elevation > 0.0) & (zenith != 0.0))
    sines = map(math.sin, map(math.radians, elevation[lit].tolist()))
    sine = np.fromiter(sines, float, lit.size)
    if not sine.all():
        # what the float division raises
        raise ZeroDivisionError("float division by zero")
    powers = map(math.pow, zenith[lit].tolist(), (1.0 / sine).tolist())
    clear = np.zeros(elevation.shape)
    clear[lit] = np.fromiter(powers, float, lit.size)
    eta = free_space * (clear * (1.0 - cloud)) * optics.tx_efficiency * optics.rx_efficiency
    if eta.size and not _in_unit_interval(eta):
        raise ConfigurationError("transmissivity must be in [0, 1]")
    return eta


def _kept_rates(source, fidelity_threshold, eta1, eta2, dark1, dark2):
    """The two-arm channels, given as array columns of one length, that
    clear the fidelity threshold with a positive rate: their positions as
    an index array, and their rates as a list.  One broadcast
    ``acceptance_and_bell_weights`` call, to the bits ``end_to_end_outcome``
    gives each channel."""
    success, bell = acceptance_and_bell_weights(
        source.mean_photon_number, eta1, eta2, dark1, dark2
    )
    fidelity = np.divide(
        bell, success, out=np.zeros_like(success), where=success > 0.0
    )
    edr = source.repetition_rate * success
    kept = np.flatnonzero((fidelity >= fidelity_threshold) & (edr > 0))
    return kept, edr[kept].tolist()


class _WeightsPass:
    """The downlinks of a block of slots armed, and its direct links
    decided and priced, in one array pass.

    ``links`` are the block's gated downlinks (``orbital.BlockLinks``)
    and ``hours`` each slot's weather hour.  Every (slot, station) that
    sees a satellite has its weather record looked up, each record's
    dark-click probability is computed once, and the arms of every
    visible satellite are computed in one ``_arm_transmissivities`` call.
    A station whose record cannot be read, or whose terms fail the
    per-link checks, is left unread, and its error is raised only where a
    route reads the station (``read``), in the order in which the
    per-link loop first reads each station: here for the direct routes,
    slot by slot, each pair with a direct candidate reading its first
    station, then its second; and for the relayed routes through
    ``_SlotLinks``.  Every direct candidate, a satellite visible at both
    stations of a pair, is priced in one broadcast call behind the
    fidelity gate (``_kept_rates``).  The pass holds no reference to its
    block.
    """

    def __init__(self, links, hours, network, physics, env, fidelity_threshold, month):
        self.links = links
        self._terms = functools.partial(
            _station_terms, env, network.station_ids, month, hours, physics
        )
        slots, stations = len(hours), len(network.station_ids)
        shape = (slots, stations, len(network.sat_ids))
        self.seen = np.zeros(shape, bool)
        self.seen[links.slot, links.station, links.sat] = True
        self.eta = np.zeros(shape)
        self.dark = np.zeros((slots, stations))
        self.unread: set[tuple[int, int]] = set()
        self._arm(physics.optics)

        pair_stations = network.pair_stations
        a_of, b_of = np.array(pair_stations, np.intp).reshape(-1, 2).T
        candidate = self.seen[:, a_of, :] & self.seen[:, b_of, :]
        if self.unread:
            for t, row in enumerate(candidate.any(axis=2).tolist()):
                for j, served in enumerate(row):
                    if served:
                        for g in pair_stations[j]:
                            self.read(t, g)

        slot, pair, sat = np.nonzero(candidate)
        a, b = a_of[pair], b_of[pair]
        kept, rates = _kept_rates(
            physics.source,
            fidelity_threshold,
            self.eta[slot, a, sat],
            self.eta[slot, b, sat],
            self.dark[slot, a],
            self.dark[slot, b],
        )
        self.direct = [{} for _ in hours]
        for t, i, j, rate in zip(
            slot[kept].tolist(), sat[kept].tolist(), pair[kept].tolist(), rates
        ):
            self.direct[t][i, None, j] = rate

    def _arm(self, optics) -> None:
        """Every visible satellite's arm, where its station's terms can
        be read; the (slot, station) cells whose terms cannot go to
        ``unread``."""
        links = self.links
        zenith = np.zeros(self.dark.shape)
        cloud = np.zeros(self.dark.shape)
        # a station's terms once per weather record
        terms_of: dict[int, tuple[float, float, float]] = {}
        # stations without records for the month, whose every lookup
        # raises after scanning the table
        missing = set()
        sees = np.nonzero(self.seen.any(axis=2))
        for t, g in zip(*(axis.tolist() for axis in sees)):
            if g in missing:
                self.unread.add((t, g))
                continue
            try:
                zenith[t, g], cloud[t, g], self.dark[t, g] = self._terms(t, g, terms_of)
            except IngestionError:
                missing.add(g)
                self.unread.add((t, g))
            except (QsatError, ArithmeticError):
                self.unread.add((t, g))
        slot, station, sat = links.slot, links.station, links.sat
        cells = slice(None)
        if self.unread:
            read = np.ones(self.dark.shape, bool)
            read[tuple(zip(*self.unread))] = False
            cells = np.flatnonzero(read[slot, station])
            slot, station, sat = slot[cells], station[cells], sat[cells]
        self.eta[slot, station, sat] = _arm_transmissivities(
            optics,
            links.elevation[cells],
            links.slant[cells],
            zenith[slot, station],
            cloud[slot, station],
        )

    def read(self, t: int, g: int) -> None:
        """Raise the error of station g's weather in slot t, if the pass
        could not read its record: the lookup and checks are made again,
        and raise as they did."""
        if (t, g) in self.unread:
            self._terms(t, g, {})

    def slot(self, t: int) -> _SlotLinks:
        return _SlotLinks(self, t)


def _station_terms(env, station_ids, month, hours, physics, t, g, known):
    """Station g's zenith transmissivity, cloud cover and dark-click
    probability under its weather record in slot t, with the checks the
    per-link formulas make on them; ``known`` maps each record's id to
    the terms already taken from it."""
    record = _weather_record(env, station_ids[g], month, hours[t])
    terms = known.get(id(record))
    if terms is None:
        zenith = record.zenith_transmissivity
        if not 0.0 <= zenith <= 1.0:
            raise ConfigurationError("zenith transmissivity must lie in [0, 1]")
        dark = _station_dark(record, physics)
        if not 0.0 <= dark <= 1.0:
            raise ConfigurationError("dark_click_prob must be in [0, 1]")
        terms = known[id(record)] = zenith, record.cloud_cover, dark
    return terms


class _SlotLinks:
    """One slot's share of a weights pass: its direct routes (``direct``),
    its visible satellite rows per station (``rows``, and as the
    ``(stations, satellites)`` mask ``seen``), and its stations' arms, as
    ``(stations, satellites)`` and ``(stations,)`` views ``eta`` and
    ``dark``, which a relayed route reads once ``read`` has passed its
    station."""

    def __init__(self, weights: _WeightsPass, t: int):
        self._weights = weights
        self._t = t
        self.direct = weights.direct[t]
        self.seen = weights.seen[t]
        self.eta = weights.eta[t]
        self.dark = weights.dark[t]
        self._arms: dict[int, tuple[list[float], float]] = {}

    @cached_property
    def rows(self) -> list[list[int]]:
        """Per station, the satellite rows visible from it, in order."""
        links, t = self._weights.links, self._t
        cells = slice(links.bounds[t], links.bounds[t + 1])
        rows = [[] for _ in range(len(self.dark))]
        for g, s in zip(links.station[cells].tolist(), links.sat[cells].tolist()):
            rows[g].append(s)
        return rows

    def read(self, g: int) -> None:
        """Raise the error of station g's weather, if any."""
        self._weights.read(self._t, g)

    def arm(self, g: int) -> tuple[list[float], float]:
        """Station g's arm transmissivity by satellite row (0.0 where it
        sees none) and its dark-click probability, after ``read``."""
        arm = self._arms.get(g)
        if arm is None:
            self.read(g)
            arm = self._arms[g] = (self.eta[g].tolist(), float(self.dark[g]))
        return arm


def _slot_share(
    snapshot, network, physics, env, min_elevation, fidelity_threshold, month, hour_utc
) -> _SlotLinks:
    """The slot's share of its block's weights pass.

    The pass is made on first use for the network, physics, weather
    table, mask, fidelity threshold and month, matched by identity
    (numbers by value), and kept on the block in place of the last.  A
    slot whose block is gone, whose ``hour_utc`` is not the block's hour
    for it (``(t * slot_duration / 3600.0) % 24.0``, as a run takes it),
    or whose block's pass raised, is priced as a block of one at
    ``hour_utc``; that pass raises the slot's own error.
    """
    _check_rows(snapshot, network)
    key = (network, physics, env, min_elevation, fidelity_threshold, month)
    slot = _block_share(snapshot, key, hour_utc)
    if slot is None:
        links = SlotBlock.of(snapshot).links(min_elevation)
        terms = (network, physics, env, fidelity_threshold, month)
        slot = _WeightsPass(links, [hour_utc], *terms).slot(0)
    return slot


def _block_share(snapshot, key, hour_utc):
    """``_slot_share`` from the snapshot's live block, or None when the
    slot is to be priced alone.  A pass that raises is kept as None, and
    its error is dropped here: each slot then raises its own, from a
    traceback that holds no block."""
    block = None if snapshot.block is None else snapshot.block()
    if block is None or block.slot_duration is None:
        return None
    duration = block.slot_duration
    if hour_utc != (snapshot.time * duration / 3600.0) % 24.0:
        return None
    if block.weights is None or not _same_key(block.weights[0], key):
        block.weights = (key, None)
        network, physics, env, min_elevation, fidelity_threshold, month = key
        terms = (network, physics, env, fidelity_threshold, month)
        slots = range(block.start, block.start + len(block.snapshots))
        hours = [(t * duration / 3600.0) % 24.0 for t in slots]
        try:
            links = block.links(min_elevation)
            if links is not None:
                block.weights = (key, _WeightsPass(links, hours, *terms))
        except (QsatError, ArithmeticError):
            pass
    weights = block.weights[1]
    return None if weights is None else weights.slot(snapshot.time - block.start)


def _same_key(known, key) -> bool:
    """Whether two weights-pass keys match: the network, physics and
    weather table by identity, the mask, threshold and month by value."""
    return all(map(operator.is_, known[:3], key[:3])) and known[3:] == key[3:]


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
    the threshold.  The rates come from the slot's share of its block's
    weights pass (``_slot_share``), which decides, arms and prices the
    direct links of all the block's slots at once, each to the bits of
    ``end_to_end_outcome`` on its two arms.  The slot's instance is the
    network's ``with_routes`` copy, so only its route map is checked.
    """
    slot = _slot_share(
        snapshot, network, physics, env, min_elevation, fidelity_threshold, month, hour_utc
    )
    return network.with_routes(snapshot.time, slot.direct)


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

    The direct routes and the visible satellites come from the slot's
    share of its block's weights pass, as in ``build_weights``, and the
    relayed candidates read their arms from the same arrays.  A slot with
    fewer than RELAY_ARRAY_CELLS (pair, source, relay) cells gathers its
    relayed candidates one at a time (``_looped_relays``), a larger one
    in one array pass (``_array_relays``); both give the same routes,
    rates and weather reads.  Either way the candidates are priced
    together (``_relay_rates``): fewer than RELAY_BROADCAST_CANDIDATES
    one at a time on Python floats, more in one broadcast call, to the
    same bits.  The slot's instance is the network's ``with_routes``
    copy, so only its route map is checked.
    """
    if not 0.0 <= mirror_efficiency <= 1.0:
        raise ConfigurationError("mirror efficiency must lie in [0, 1]")
    slot = _slot_share(
        snapshot, network, physics, env, min_elevation, fidelity_threshold, month, hour_utc
    )
    rows = slot.rows
    cells = sum(len(rows[a]) * len(rows[b]) for a, b in network.pair_stations)
    relays = _array_relays if cells >= RELAY_ARRAY_CELLS else _looped_relays
    price = functools.partial(
        _relay_rates, physics, mirror_efficiency, fidelity_threshold
    )
    routes = {
        **slot.direct,
        **relays(snapshot, network, slot, mirror_hop(physics), price),
    }
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
    """``_relay_rates`` in one broadcast call over array columns
    (``_kept_rates``); the kept positions stay an index array, which
    ``_array_relays`` indexes its candidate arrays with."""
    hop, eta1, dark1, eta_relay, dark2 = (
        np.asarray(column, float) for column in (hop, eta1, dark1, eta_relay, dark2)
    )
    eta2 = _relayed_arm(hop, mirror_efficiency, eta_relay)
    return _kept_rates(source, fidelity_threshold, eta1, eta2, dark1, dark2)


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


def _looped_relays(snapshot, network, slot, hop_free_space, price):
    """The relayed routes (i, k, j) that ``price`` keeps, mapped to their
    rates, gathered one candidate at a time from the slot's visible
    satellites and arms (``_SlotLinks``).

    Each visible satellite's position is read once, as a plain list.
    Each ordered (source, relay) pair gets one sight-line test; each
    unordered pair whose sight line is clear gets one hop distance and
    mirror hop, since ``math.dist`` is symmetric bit for bit.  A station's
    arms are read at its first source, or at its first relay of a
    candidate.
    """
    from .orbital import sight_line_clear

    rows = slot.rows
    position = {i: snapshot.sat_xyz[i].tolist() for visible in rows for i in visible}
    # hop factors keyed by the ordered (source, relay) pair, None without a
    # sight line: the test may differ in the last bit between directions,
    # the distance may not, so a clear reverse pair lends its factor
    hops: dict[tuple[int, int], float | None] = {}
    keys = []
    columns = hop_col, eta1_col, dark1_col, eta2_col, dark2_col = [], [], [], [], []
    for j, (a, b) in enumerate(network.pair_stations):
        sources = rows[a]
        if not sources:
            continue
        eta_a, dark_a = slot.arm(a)
        arm_b = None
        relays = [(k, position[k]) for k in rows[b]]
        for i in sources:
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
                if arm_b is None:
                    arm_b = eta_b, dark_b = slot.arm(b)
                keys.append((i, k, j))
                hop_col.append(hop)
                eta1_col.append(eta_a[i])
                dark1_col.append(dark_a)
                eta2_col.append(eta_b[k])
                dark2_col.append(dark_b)
    if not keys:
        return {}
    kept, rates = price(*columns)
    return {keys[n]: rate for n, rate in zip(kept, rates)}


def _array_relays(snapshot, network, slot, hop_free_space, price):
    """``_looped_relays`` in one array pass over the slot's visible
    satellites, for slots with many candidates.

    Sight lines come from one ordered ``sight_line_matrix``; one boolean
    (pair, source, relay) mask holds the candidates, read out in the
    loop's (j, i, k) order; each unordered pair with a clear sight line
    that some candidate uses gets one hop distance and mirror hop; and
    the arms come from the slot's arrays, after ``arm`` has read each
    station some candidate reads, in the order in which the loop first
    reads each station's weather.  Keys are built only for the routes
    ``price`` keeps.
    """
    from .orbital import sight_line_matrix

    pair_stations = network.pair_stations
    rows = slot.rows
    visible = sorted({i for row in rows for i in row})
    seen = slot.seen[:, visible]
    xyz = snapshot.sat_xyz[visible]
    a_of, b_of = np.array(pair_stations, np.intp).reshape(-1, 2).T
    mask = seen[a_of, :, None] & seen[b_of, None, :] & sight_line_matrix(xyz)

    # the stations the loop reads: the first of every pair with sources,
    # and the second of every pair with a candidate, in first-read order
    has_candidates = mask.any(axis=(1, 2)).tolist()
    for j, (a, b) in enumerate(pair_stations):
        if rows[a]:
            slot.read(a)
            if has_candidates[j]:
                slot.read(b)
    eta = slot.eta[:, visible]
    dark = slot.dark

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
