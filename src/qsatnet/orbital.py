"""Constellation geometry: polar orbits over a rotating spherical Earth.

Positions are Earth-centered Cartesian, in meters.  Earth rotation is
applied to the ground stations rather than the satellites, which gives the
same relative geometry with less bookkeeping.  The Earth is one fixed
sphere: its radius, rotation period and gravitational parameter are the
module constants below.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import ClassVar

import numpy as np

from .errors import ConfigurationError, UnknownIdError

Vec3 = tuple[float, float, float]

EARTH_RADIUS = 6371e3
EARTH_ROTATION_PERIOD = 86400.0
GRAVITATIONAL_PARAMETER = 3.986e14
ISL_CLEARANCE = 100e3
# slack, in elevation sine, by which the screen in visible_links widens the
# mask.  The screen takes g.s from one matrix product and |g|^2 and |s|^2
# from row norms, so its dot product and squared slant each lie within
# SCREEN_ERROR * (|g| + |s|)^2 of exact: about 4u and 5u by the standard
# inner-product error bound, u = 2**-53, and 6u is taken.  That absolute
# error, E, is what cancellation leaves at short slants: about 0.13 m^2 at
# Earth scale.  Half the slack covers every other rounding of the screen and
# of link_geometry, all within a few tens of u; the other half, m, keeps the
# screen conservative for every cell whose slant S satisfies
# m R S^2 >= E S + 2 R E, R the station radius, which holds for all S above
# E / (m R) + sqrt(2 E / m): about 22 km at Earth scale.  Nearer cells are
# passed to link_geometry unscreened (_near_slant_sq).
SCREEN_MARGIN = 1e-9
SCREEN_ERROR = 6 * 2.0**-53
# the most satellites a constellation may hold; a run builds an id and a
# position row for each, so a size past this is refused before any is built
MAX_SATELLITES = 10_000


@dataclass(frozen=True)
class GroundStation:
    id: str
    latitude: float
    longitude: float
    receiver_cap: int = 10

    def __post_init__(self) -> None:
        if not self.id:
            raise ConfigurationError("ground station id must be nonempty")
        if not -90.0 <= self.latitude <= 90.0:
            raise ConfigurationError(
                f"station {self.id}: latitude {self.latitude} outside [-90, 90]"
            )
        if not -180.0 <= self.longitude < 180.0:
            raise ConfigurationError(
                f"station {self.id}: longitude {self.longitude} outside [-180, 180)"
            )
        if self.receiver_cap < 0:
            raise ConfigurationError(f"station {self.id}: negative receiver cap")


@dataclass(frozen=True)
class ConstellationConfig:
    rings: int
    sats_per_ring: int
    altitude: float
    epoch: float = 0.0

    def __post_init__(self) -> None:
        if self.rings < 1 or self.sats_per_ring < 1:
            raise ConfigurationError("constellation needs at least one ring and satellite")
        if self.rings * self.sats_per_ring > MAX_SATELLITES:
            raise ConfigurationError(
                f"constellation of {self.rings} rings x {self.sats_per_ring} satellites: "
                f"more than {MAX_SATELLITES} satellites"
            )
        if self.altitude <= 0:
            raise ConfigurationError("altitude must be positive")
        # refuses an orbit whose period overflows, before any slot needs it
        orbital_period(self.altitude)


def orbital_period(altitude: float) -> float:
    """Period of a circular orbit ``altitude`` above the surface."""
    semi_major = EARTH_RADIUS + altitude
    try:
        cube = semi_major**3
    except OverflowError:
        cube = math.inf
    if not math.isfinite(cube):
        raise ConfigurationError(f"altitude {altitude} m: orbit radius cubed overflows")
    return 2.0 * math.pi * math.sqrt(cube / GRAVITATIONAL_PARAMETER)


@dataclass(frozen=True, eq=False)
class ConstellationSnapshot:
    """Every position of one slot, one read-only ``(n, 3)`` array per kind.

    Row n of ``sat_xyz`` is satellite ``sat_ids[n]`` and row n of ``gs_xyz``
    is station ``station_ids[n]``.  ``sat_positions`` and ``gs_positions``
    are id-keyed views of the same values for checks and oracles; the slot
    pipeline reads the arrays.
    """

    time: int
    sat_ids: tuple[str, ...]
    sat_xyz: np.ndarray
    station_ids: tuple[str, ...]
    gs_xyz: np.ndarray
    earth_radius: ClassVar[float] = EARTH_RADIUS

    @classmethod
    def from_positions(
        cls,
        time: int,
        sat_positions: Mapping[str, Vec3],
        gs_positions: Mapping[str, Vec3],
    ) -> ConstellationSnapshot:
        """A snapshot of hand-placed positions, keyed by id in row order."""
        return cls(
            time=time,
            sat_ids=tuple(sat_positions),
            sat_xyz=_frozen_rows(list(sat_positions.values())),
            station_ids=tuple(gs_positions),
            gs_xyz=_frozen_rows(list(gs_positions.values())),
        )

    @cached_property
    def sat_row(self) -> dict[str, int]:
        """Each satellite id mapped to its row; shared by every snapshot of
        the same ids."""
        return _row_index(self.sat_ids)

    @cached_property
    def station_row(self) -> dict[str, int]:
        """Each station id mapped to its row."""
        return _row_index(self.station_ids)

    @cached_property
    def sat_positions(self) -> Mapping[str, Vec3]:
        """Read-only view: each satellite id mapped to its position."""
        return MappingProxyType(
            dict(zip(self.sat_ids, map(tuple, self.sat_xyz.tolist())))
        )

    @cached_property
    def gs_positions(self) -> Mapping[str, Vec3]:
        """Read-only view: each station id mapped to its position."""
        return MappingProxyType(
            dict(zip(self.station_ids, map(tuple, self.gs_xyz.tolist())))
        )


@dataclass(frozen=True)
class LinkGeometry:
    elevation: float
    slant_range: float


@dataclass(frozen=True)
class OverheadArcs:
    """Orbit-angle windows for two stations under a shared coplanar orbit.

    Angles are radians along the orbit, station 2 at angle 0 and station 1
    at the baseline's central angle.  ``primary_arc`` is the window where
    one satellite sees both stations (None when the windows do not meet);
    ``reflection_arc_pairs`` are the single-station windows on either side
    that a two-satellite relay can bridge.
    """

    g1L: float
    g1R: float
    g2L: float
    g2R: float
    half_width: float
    primary_arc: tuple[float, float] | None
    reflection_arc_pairs: tuple[tuple[float, float], tuple[float, float]]


def satellite_id(ring: int, slot: int) -> str:
    return f"r{ring:02d}s{slot:02d}"


@lru_cache(maxsize=8)
def constellation_ids(rings: int, sats_per_ring: int) -> tuple[str, ...]:
    """Every satellite id of a constellation, ring by ring."""
    return tuple(
        satellite_id(r, s) for r in range(rings) for s in range(sats_per_ring)
    )


def _frozen_rows(rows) -> np.ndarray:
    """Positions as a read-only ``(n, 3)`` float array."""
    xyz = np.array(rows, dtype=float).reshape(-1, 3)
    xyz.flags.writeable = False
    return xyz


@lru_cache(maxsize=8)
def _row_index(ids: tuple[str, ...]) -> dict[str, int]:
    return {id_: n for n, id_ in enumerate(ids)}


@lru_cache(maxsize=8)
def _rings(rings: int, sats_per_ring: int) -> tuple[np.ndarray, ...]:
    """The slot-independent terms of every satellite's position, one entry
    per satellite in ``constellation_ids`` order: its ring's phase, its
    phase within the ring, and the cosine and sine of its ring's node.

    Ascending nodes split a half-circle evenly; ring ``r`` is phase-shifted
    by r/(rings*sats) of a revolution so rings do not collide at the poles,
    and its satellites are spaced evenly along it.
    """
    terms = []
    for r in range(rings):
        node = math.pi * r / rings
        ring_phase = 2.0 * math.pi * r / (rings * sats_per_ring)
        for s in range(sats_per_ring):
            slot_phase = 2.0 * math.pi * s / sats_per_ring
            terms.append((ring_phase, slot_phase, math.cos(node), math.sin(node)))
    columns = tuple(np.array(column) for column in zip(*terms))
    for column in columns:
        column.flags.writeable = False
    return columns


def propagate(
    config: ConstellationConfig,
    stations: list[GroundStation],
    t: int,
    slot_duration: float,
) -> ConstellationSnapshot:
    """Positions of every satellite and station at slot ``t``.

    Satellites ride circular polar orbits (``_rings``); stations spin
    about the z axis; the constellation's own zero point is set by
    ``epoch``.  The satellites are placed in one numpy pass that keeps the
    per-element operation order of the scalar formula, with the cosine and
    sine of each argument taken from ``math``, so every coordinate has the
    same bits as the scalar formula gives it.
    """
    if t < 0:
        raise ConfigurationError("slot index must be nonnegative")
    if slot_duration < 0:
        raise ConfigurationError("slot duration must be nonnegative")
    orbit_radius = EARTH_RADIUS + config.altitude
    mean_motion = 2.0 * math.pi / orbital_period(config.altitude)
    sat_time = config.epoch + t * slot_duration

    ring_phase, slot_phase, cos_node, sin_node = _rings(
        config.rings, config.sats_per_ring
    )
    u = (mean_motion * sat_time + ring_phase + slot_phase).tolist()
    n = len(u)
    radial = orbit_radius * np.fromiter(map(math.cos, u), float, n)
    sat_xyz = np.empty((n, 3))
    sat_xyz[:, 0] = radial * cos_node
    sat_xyz[:, 1] = radial * sin_node
    sat_xyz[:, 2] = orbit_radius * np.fromiter(map(math.sin, u), float, n)
    sat_xyz.flags.writeable = False

    spin = 2.0 * math.pi * (t * slot_duration) / EARTH_ROTATION_PERIOD
    station_ids: dict[str, None] = {}
    gs_rows = []
    for gs in stations:
        if gs.id in station_ids:
            raise ConfigurationError(f"duplicate ground station id {gs.id!r}")
        station_ids[gs.id] = None
        lat = math.radians(gs.latitude)
        lon = math.radians(gs.longitude) + spin
        gs_rows.append(
            (
                EARTH_RADIUS * math.cos(lat) * math.cos(lon),
                EARTH_RADIUS * math.cos(lat) * math.sin(lon),
                EARTH_RADIUS * math.sin(lat),
            )
        )

    return ConstellationSnapshot(
        time=t,
        sat_ids=constellation_ids(config.rings, config.sats_per_ring),
        sat_xyz=sat_xyz,
        station_ids=tuple(station_ids),
        gs_xyz=_frozen_rows(gs_rows),
    )


def link_geometry(snapshot: ConstellationSnapshot, sat: str, gs: str) -> LinkGeometry:
    """Elevation and slant range for one downlink."""
    try:
        sat_pos = snapshot.sat_xyz[snapshot.sat_row[sat]].tolist()
    except KeyError:
        raise UnknownIdError(f"unknown satellite id {sat!r}") from None
    try:
        gs_pos = snapshot.gs_xyz[snapshot.station_row[gs]].tolist()
    except KeyError:
        raise UnknownIdError(f"unknown ground station id {gs!r}") from None

    d = (sat_pos[0] - gs_pos[0], sat_pos[1] - gs_pos[1], sat_pos[2] - gs_pos[2])
    slant = math.sqrt(d[0] ** 2 + d[1] ** 2 + d[2] ** 2)
    if slant == 0.0:
        raise ConfigurationError("satellite and station coincide")
    station_radius = math.sqrt(gs_pos[0] ** 2 + gs_pos[1] ** 2 + gs_pos[2] ** 2)
    dot_gd = gs_pos[0] * d[0] + gs_pos[1] * d[1] + gs_pos[2] * d[2]
    sin_e = max(-1.0, min(1.0, dot_gd / (station_radius * slant)))
    elevation = math.degrees(math.asin(sin_e))
    return LinkGeometry(elevation=elevation, slant_range=slant)


# row sums of an (n, 3) array as one product, cheaper than .sum(axis=1)
_ROW_SUM = np.ones(3)
_ROW_SUM.flags.writeable = False


def _near_slant_sq(station_sq: list[float], sat_sq_max: float) -> float:
    """The squared slant below which the product screen of ``visible_links``
    may misjudge a cell (SCREEN_MARGIN), from the stations' squared radii
    and the largest squared satellite radius; infinite, so that nothing is
    screened out, when a radius is zero or not finite."""
    r_min = math.sqrt(min(station_sq))
    scale = math.sqrt(max(station_sq)) + math.sqrt(sat_sq_max)
    err = SCREEN_ERROR * scale * scale
    slack = SCREEN_MARGIN / 2
    if not (r_min > 0.0 and err < math.inf):
        return math.inf
    near = err / (slack * r_min) + math.sqrt(2.0 * err / slack)
    return near * near + err


def visible_links(
    snapshot: ConstellationSnapshot, min_elevation: float
) -> list[dict[int, LinkGeometry]]:
    """Per station row, the satellite rows at or above ``min_elevation``,
    with geometry: one dict per station in ``station_ids`` order, each
    keyed by satellite row in row order.

    A numpy screen over every (station, satellite) cell keeps the cells
    whose elevation sine lies within SCREEN_MARGIN of the mask or above
    it; only those reach the scalar ``link_geometry``, which decides each
    of them and supplies every returned value.  The result therefore
    equals gating ``link_geometry`` on every cell.  The screen takes one
    product ``gs_xyz @ sat_xyz.T`` and the rows' squared norms: the dot
    product of the station with the line of sight is g.s - |g|^2 and the
    squared slant is |s|^2 - 2 g.s + |g|^2.  Both lie within
    SCREEN_ERROR * (|g| + |s|)^2 of exact, which the margin absorbs for
    every slant above a bound of about 22 km at Earth scale.  Every cell
    whose squared slant lies below that bound (``_near_slant_sq``) is
    passed on unscreened, and so is every cell the screen cannot evaluate
    (NaN), such as one whose squared slant cancellation made negative.
    """
    gs_xyz, sat_xyz = snapshot.gs_xyz, snapshot.sat_xyz
    station_sq = (gs_xyz * gs_xyz) @ _ROW_SUM
    sat_sq = (sat_xyz * sat_xyz) @ _ROW_SUM
    g_dot_s = gs_xyz @ sat_xyz.T
    station_sq_col = station_sq[:, None]
    dot = g_dot_s - station_sq_col
    slant_sq = sat_sq - 2.0 * g_dot_s + station_sq_col
    with np.errstate(invalid="ignore"):
        slant = np.sqrt(slant_sq)
    sin_mask = math.sin(math.radians(max(-90.0, min(90.0, min_elevation))))
    threshold = (sin_mask - SCREEN_MARGIN) * np.sqrt(station_sq_col)
    candidates = ~(dot < threshold * slant)
    if candidates.size:
        candidates |= slant_sq < _near_slant_sq(station_sq.tolist(), sat_sq.max())

    # cells in row-major order: station by station, satellites in order
    sat_ids, station_ids = snapshot.sat_ids, snapshot.station_ids
    per_station = [{} for _ in station_ids]
    for g, s in zip(*(axis.tolist() for axis in np.nonzero(candidates))):
        geom = link_geometry(snapshot, sat_ids[s], station_ids[g])
        if geom.elevation >= min_elevation:
            per_station[g][s] = geom
    return per_station


def sight_line_clear(p: Vec3, q: Vec3, clearance: float = ISL_CLEARANCE) -> bool:
    """True when the segment from ``p`` to ``q`` stays ``clearance`` above
    the Earth's surface.  The closest approach is found from ``p``, so
    swapping the ends may move it in the last bit."""
    px, py, pz = p
    dx, dy, dz = q[0] - px, q[1] - py, q[2] - pz
    seg_sq = dx * dx + dy * dy + dz * dz
    if seg_sq == 0.0:
        radius = math.sqrt(px**2 + py**2 + pz**2)
    else:
        t = -(px * dx + py * dy + pz * dz) / seg_sq
        t = max(0.0, min(1.0, t))
        cx, cy, cz = px + t * dx, py + t * dy, pz + t * dz
        radius = math.sqrt(cx * cx + cy * cy + cz * cz)
    return radius >= EARTH_RADIUS + clearance


def _sat_pair(
    snapshot: ConstellationSnapshot, sat_a: str, sat_b: str
) -> tuple[list[float], list[float]]:
    row, xyz = snapshot.sat_row, snapshot.sat_xyz
    try:
        return xyz[row[sat_a]].tolist(), xyz[row[sat_b]].tolist()
    except KeyError as exc:
        raise UnknownIdError(f"unknown satellite id {exc.args[0]!r}") from None


def inter_satellite_visible(
    snapshot: ConstellationSnapshot,
    sat_a: str,
    sat_b: str,
    clearance: float = ISL_CLEARANCE,
) -> bool:
    """True when the sight line between two satellites clears the Earth."""
    return sight_line_clear(*_sat_pair(snapshot, sat_a, sat_b), clearance)


def inter_satellite_distance(
    snapshot: ConstellationSnapshot, sat_a: str, sat_b: str
) -> float:
    return math.dist(*_sat_pair(snapshot, sat_a, sat_b))


def visibility_half_width(altitude: float, min_elevation: float) -> float:
    """Central angle (radians) within which a satellite clears ``min_elevation``.

    Closed form from the Earth-center / station / satellite triangle: the
    nadir angle satisfies sin(nadir) = rho * cos(elev), and the three
    angles sum to a straight line.
    """
    if altitude <= 0:
        raise ConfigurationError("altitude must be positive")
    if not 0.0 <= min_elevation < 90.0:
        raise ConfigurationError("min elevation must lie in [0, 90)")
    e = math.radians(min_elevation)
    rho = EARTH_RADIUS / (EARTH_RADIUS + altitude)
    return math.pi / 2.0 - e - math.asin(rho * math.cos(e))


def overhead_visibility_arcs(
    baseline: float, altitude: float, min_elevation: float
) -> OverheadArcs:
    """Visibility windows along one orbit passing over both stations.

    Station 2 sits at orbit angle 0 and station 1 at the baseline's central
    angle, so the windows are [-beta, beta] and [b - beta, b + beta].
    """
    if baseline < 0 or baseline >= math.pi * EARTH_RADIUS:
        raise ConfigurationError("baseline must lie in [0, pi * earth_radius)")
    beta = visibility_half_width(altitude, min_elevation)
    b = baseline / EARTH_RADIUS
    g2L, g2R = -beta, beta
    g1L, g1R = b - beta, b + beta
    primary = (g1L, g2R) if g1L < g2R else None
    return OverheadArcs(
        g1L=g1L,
        g1R=g1R,
        g2L=g2L,
        g2R=g2R,
        half_width=beta,
        primary_arc=primary,
        reflection_arc_pairs=((g2L, g1L), (g2R, g1R)),
    )
