"""Constellation geometry: polar orbits over a rotating spherical Earth.

Positions are Earth-centered Cartesian, in meters.  Earth rotation is
applied to the ground stations rather than the satellites, which gives the
same relative geometry with less bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, UnknownIdError

Vec3 = tuple[float, float, float]

EARTH_RADIUS = 6371e3
EARTH_ROTATION_PERIOD = 86400.0
GRAVITATIONAL_PARAMETER = 3.986e14
ISL_CLEARANCE = 100e3
# slack, in elevation sine, by which the numpy screen in visible_links
# widens the mask; far above the few-ulp gap between numpy's arithmetic
# and link_geometry's, so no cell link_geometry would keep is screened out
SCREEN_MARGIN = 1e-9


@dataclass(frozen=True)
class GroundStation:
    id: str
    latitude: float
    longitude: float
    receiver_cap: int = 1

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
class SatelliteSpec:
    id: str
    ring_index: int
    slot_index: int
    altitude: float
    transmitter_cap: int = 1
    reflector_cap: int = 1

    def __post_init__(self) -> None:
        if self.altitude <= 0:
            raise ConfigurationError(f"satellite {self.id}: altitude must be positive")
        if self.ring_index < 0 or self.slot_index < 0:
            raise ConfigurationError(f"satellite {self.id}: negative orbit index")
        if self.transmitter_cap < 0 or self.reflector_cap < 0:
            raise ConfigurationError(f"satellite {self.id}: negative capability cap")


@dataclass(frozen=True)
class ConstellationConfig:
    rings: int
    sats_per_ring: int
    altitude: float
    epoch: float = 0.0
    earth_radius: float = EARTH_RADIUS
    earth_rotation_period: float = EARTH_ROTATION_PERIOD
    gravitational_parameter: float = GRAVITATIONAL_PARAMETER

    def __post_init__(self) -> None:
        if self.rings < 1 or self.sats_per_ring < 1:
            raise ConfigurationError("constellation needs at least one ring and satellite")
        if self.altitude <= 0 or self.earth_radius <= 0:
            raise ConfigurationError("altitude and earth radius must be positive")
        if self.earth_rotation_period <= 0 or self.gravitational_parameter <= 0:
            raise ConfigurationError("rotation period and mu must be positive")

    def orbital_period(self) -> float:
        semi_major = self.earth_radius + self.altitude
        return 2.0 * math.pi * math.sqrt(semi_major**3 / self.gravitational_parameter)

    def satellite_ids(self) -> list[str]:
        return list(constellation_ids(self.rings, self.sats_per_ring))


@dataclass(frozen=True)
class ConstellationSnapshot:
    time: int
    sat_positions: dict[str, Vec3]
    gs_positions: dict[str, Vec3]
    earth_radius: float


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


def latlon_to_unit(latitude: float, longitude: float) -> Vec3:
    lat = math.radians(latitude)
    lon = math.radians(longitude)
    return (
        math.cos(lat) * math.cos(lon),
        math.cos(lat) * math.sin(lon),
        math.sin(lat),
    )


def propagate(
    config: ConstellationConfig,
    stations: list[GroundStation],
    t: int,
    slot_duration: float,
) -> ConstellationSnapshot:
    """Positions of every satellite and station at slot ``t``.

    Satellites ride circular polar orbits whose ascending nodes split a
    half-circle evenly; ring ``r`` is phase-shifted by r/(rings*sats) of a
    revolution so rings do not collide at the poles.  Stations spin about
    the z axis; the constellation's own zero point is set by ``epoch``.
    """
    if t < 0:
        raise ConfigurationError("slot index must be nonnegative")
    if slot_duration < 0:
        raise ConfigurationError("slot duration must be nonnegative")
    orbit_radius = config.earth_radius + config.altitude
    mean_motion = 2.0 * math.pi / config.orbital_period()
    sat_time = config.epoch + t * slot_duration

    positions = []
    for r in range(config.rings):
        node = math.pi * r / config.rings
        cos_node, sin_node = math.cos(node), math.sin(node)
        ring_phase = 2.0 * math.pi * r / (config.rings * config.sats_per_ring)
        for s in range(config.sats_per_ring):
            u = (
                mean_motion * sat_time
                + ring_phase
                + 2.0 * math.pi * s / config.sats_per_ring
            )
            cos_u, sin_u = math.cos(u), math.sin(u)
            positions.append(
                (
                    orbit_radius * cos_u * cos_node,
                    orbit_radius * cos_u * sin_node,
                    orbit_radius * sin_u,
                )
            )
    sat_positions: dict[str, Vec3] = dict(
        zip(constellation_ids(config.rings, config.sats_per_ring), positions)
    )

    spin = 2.0 * math.pi * (t * slot_duration) / config.earth_rotation_period
    gs_positions: dict[str, Vec3] = {}
    for gs in stations:
        if gs.id in gs_positions:
            raise ConfigurationError(f"duplicate ground station id {gs.id!r}")
        lat = math.radians(gs.latitude)
        lon = math.radians(gs.longitude) + spin
        gs_positions[gs.id] = (
            config.earth_radius * math.cos(lat) * math.cos(lon),
            config.earth_radius * math.cos(lat) * math.sin(lon),
            config.earth_radius * math.sin(lat),
        )

    return ConstellationSnapshot(
        time=t,
        sat_positions=sat_positions,
        gs_positions=gs_positions,
        earth_radius=config.earth_radius,
    )


def link_geometry(snapshot: ConstellationSnapshot, sat: str, gs: str) -> LinkGeometry:
    """Elevation and slant range for one downlink."""
    try:
        sat_pos = snapshot.sat_positions[sat]
    except KeyError:
        raise UnknownIdError(f"unknown satellite id {sat!r}") from None
    try:
        gs_pos = snapshot.gs_positions[gs]
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


def visible_links(
    snapshot: ConstellationSnapshot,
    sat_ids: list[str],
    station_ids: list[str],
    min_elevation: float,
) -> dict[str, dict[str, LinkGeometry]]:
    """Per station, the satellites at or above ``min_elevation``, with geometry.

    One numpy pass over every (station, satellite) cell keeps the cells
    whose elevation sine lies within SCREEN_MARGIN of the mask or above
    it; only those reach the scalar ``link_geometry``, which decides each
    of them and supplies every returned value.  The result therefore
    equals gating ``link_geometry`` on every cell, in ``sat_ids`` order.
    A cell the screen cannot evaluate (NaN, as for an unknown id) is
    passed on, so ``link_geometry`` raises there as it would unscreened.
    """
    unknown = (math.nan,) * 3
    sats = np.array(
        [snapshot.sat_positions.get(s, unknown) for s in sat_ids], dtype=float
    ).reshape(-1, 3)
    stations = np.array(
        [snapshot.gs_positions.get(g, unknown) for g in station_ids], dtype=float
    ).reshape(-1, 3)
    d = sats[None, :, :] - stations[:, None, :]
    slant = np.sqrt((d * d).sum(axis=2))
    radius = np.sqrt((stations * stations).sum(axis=1))[:, None]
    dot = (d * stations[:, None, :]).sum(axis=2)
    sin_mask = math.sin(math.radians(max(-90.0, min(90.0, min_elevation))))
    candidates = ~(dot < (sin_mask - SCREEN_MARGIN) * radius * slant)

    links: dict[str, dict[str, LinkGeometry]] = {}
    for gs_id, row in zip(station_ids, candidates):
        per_sat = {}
        for s in np.flatnonzero(row).tolist():
            geom = link_geometry(snapshot, sat_ids[s], gs_id)
            if geom.elevation >= min_elevation:
                per_sat[sat_ids[s]] = geom
        links[gs_id] = per_sat
    return links


def _segment_min_radius(p: Vec3, q: Vec3) -> float:
    dx, dy, dz = q[0] - p[0], q[1] - p[1], q[2] - p[2]
    seg_sq = dx * dx + dy * dy + dz * dz
    if seg_sq == 0.0:
        return math.sqrt(p[0] ** 2 + p[1] ** 2 + p[2] ** 2)
    t = -(p[0] * dx + p[1] * dy + p[2] * dz) / seg_sq
    t = max(0.0, min(1.0, t))
    cx, cy, cz = p[0] + t * dx, p[1] + t * dy, p[2] + t * dz
    return math.sqrt(cx * cx + cy * cy + cz * cz)


def inter_satellite_visible(
    snapshot: ConstellationSnapshot,
    sat_a: str,
    sat_b: str,
    clearance: float = ISL_CLEARANCE,
) -> bool:
    """True when the sight line between two satellites clears the Earth."""
    try:
        p = snapshot.sat_positions[sat_a]
        q = snapshot.sat_positions[sat_b]
    except KeyError as exc:
        raise UnknownIdError(f"unknown satellite id {exc.args[0]!r}") from None
    return _segment_min_radius(p, q) >= snapshot.earth_radius + clearance


def inter_satellite_distance(
    snapshot: ConstellationSnapshot, sat_a: str, sat_b: str
) -> float:
    try:
        p = snapshot.sat_positions[sat_a]
        q = snapshot.sat_positions[sat_b]
    except KeyError as exc:
        raise UnknownIdError(f"unknown satellite id {exc.args[0]!r}") from None
    return math.dist(p, q)


def geodesic_distance(
    gs_a: GroundStation, gs_b: GroundStation, earth_radius: float = EARTH_RADIUS
) -> float:
    """Great-circle distance between two stations on the sphere."""
    lat1, lon1 = math.radians(gs_a.latitude), math.radians(gs_a.longitude)
    lat2, lon2 = math.radians(gs_b.latitude), math.radians(gs_b.longitude)
    dlon = lon2 - lon1
    y = math.hypot(
        math.cos(lat2) * math.sin(dlon),
        math.cos(lat1) * math.sin(lat2)
        - math.sin(lat1) * math.cos(lat2) * math.cos(dlon),
    )
    x = math.sin(lat1) * math.sin(lat2) + math.cos(lat1) * math.cos(lat2) * math.cos(
        dlon
    )
    return earth_radius * math.atan2(y, x)


def visibility_half_width(
    altitude: float, min_elevation: float, earth_radius: float = EARTH_RADIUS
) -> float:
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
    rho = earth_radius / (earth_radius + altitude)
    return math.pi / 2.0 - e - math.asin(rho * math.cos(e))


def overhead_visibility_arcs(
    baseline: float,
    altitude: float,
    min_elevation: float,
    earth_radius: float = EARTH_RADIUS,
) -> OverheadArcs:
    """Visibility windows along one orbit passing over both stations.

    Station 2 sits at orbit angle 0 and station 1 at the baseline's central
    angle, so the windows are [-beta, beta] and [b - beta, b + beta].
    """
    if baseline < 0 or baseline >= math.pi * earth_radius:
        raise ConfigurationError("baseline must lie in [0, pi * earth_radius)")
    beta = visibility_half_width(altitude, min_elevation, earth_radius)
    b = baseline / earth_radius
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
