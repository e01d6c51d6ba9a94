"""Constellation geometry: polar orbits over a rotating spherical Earth.

Positions are Earth-centered Cartesian, in meters.  Earth rotation is
applied to the ground stations rather than the satellites, which gives the
same relative geometry with less bookkeeping.  The Earth is one fixed
sphere: its radius, rotation period and gravitational parameter are the
module constants below.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Mapping
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import ConfigurationError, QsatError, UnknownIdError
from .linkphys import _square

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
# the most (slot, station, satellite) cells in a block of slots that a run
# places and screens in one pass (slot_blocks): 68 slots of 6 stations x 40
# satellites, 6 of 6 x 400.  A block spreads the fixed cost of each numpy
# call over its slots, but the screen's temporaries grow with it, and at
# 6 x 400 cells a slot the per-cell work already dominates
BLOCK_CELLS = 16_384


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


class BlockLinks(NamedTuple):
    """The downlinks of a block of slots that clear an elevation mask, one
    entry per cell in (slot, station, satellite) row-major order: the
    cells of slot ``start`` + k are entries ``bounds[k]`` to
    ``bounds[k + 1]``.  ``slot``, ``station`` and ``sat`` are index arrays
    (slot row, station row, satellite row); ``elevation`` and ``slant``
    the cells' geometry, with the bits ``link_geometry`` gives each."""

    bounds: list[int]
    slot: np.ndarray
    station: np.ndarray
    sat: np.ndarray
    elevation: np.ndarray
    slant: np.ndarray


class SlotBlock:
    """The consecutive slots ``start``, ``start`` + 1, ... placed together:
    their positions as read-only ``(slots, n, 3)`` arrays, one per kind,
    whose row k holds slot ``start`` + k, their ``snapshots`` in slot
    order, and the ``slot_duration`` that placed them (None for a block
    not placed by ``propagate_slots``).

    ``links`` gates the whole block at once, per elevation mask.
    ``weights`` holds the scheduler's weights pass over the block, with
    the key it was made for; it goes with the block.
    """

    __slots__ = (
        "start",
        "slot_duration",
        "sat_xyz",
        "gs_xyz",
        "snapshots",
        "weights",
        "_screens",
        "__weakref__",
    )

    def __init__(
        self,
        start: int,
        sat_xyz: np.ndarray,
        gs_xyz: np.ndarray,
        slot_duration: float | None = None,
    ):
        self.start = start
        self.slot_duration = slot_duration
        self.sat_xyz = sat_xyz
        self.gs_xyz = gs_xyz
        self.snapshots: tuple[ConstellationSnapshot, ...] = ()
        self.weights = None
        self._screens: dict[float, BlockLinks | None] = {}

    @classmethod
    def of(cls, snapshot: ConstellationSnapshot) -> SlotBlock:
        """A block of one holding only ``snapshot``'s slot."""
        return cls(snapshot.time, snapshot.sat_xyz[None], snapshot.gs_xyz[None])

    def links(self, min_elevation: float) -> BlockLinks | None:
        """The block's downlinks at or above ``min_elevation``, computed
        once per mask: one ``_screen`` of every cell, then one array
        ``link_geometry`` call over the cells it passes, which decides
        each of them.  What that pass raises is raised on the first call;
        later calls return None, so that the block's slots are gated
        alone (``_slot_links``) and each raises its own error."""
        if min_elevation in self._screens:
            return self._screens[min_elevation]
        self._screens[min_elevation] = None
        slot, station, sat = np.nonzero(_screen(self.gs_xyz, self.sat_xyz, min_elevation))
        elevation, slant = link_geometry(self, (slot, sat), (slot, station))
        kept = np.flatnonzero(elevation >= min_elevation)
        slot = slot[kept]
        links = BlockLinks(
            np.searchsorted(slot, np.arange(len(self.sat_xyz) + 1)).tolist(),
            slot,
            station[kept],
            sat[kept],
            elevation[kept],
            slant[kept],
        )
        self._screens[min_elevation] = links
        return links


@dataclass(frozen=True, eq=False)
class ConstellationSnapshot:
    """Every position of one slot, one read-only ``(n, 3)`` array per kind.

    Row n of ``sat_xyz`` is satellite ``sat_ids[n]`` and row n of ``gs_xyz``
    is station ``station_ids[n]``.  ``sat_positions`` and ``gs_positions``
    are id-keyed views of the same values for checks and oracles; the slot
    pipeline reads the arrays.

    ``block`` is a weak reference to the ``SlotBlock`` the slot was placed
    in with its neighbours (row ``time`` - ``block.start``), so that
    ``visible_links`` and the weight builders gate and price them all at
    once.  Only a run's block memory keeps a block alive, so a kept
    snapshot holds its own slot's positions and no more; once its block is
    gone, or when it was placed alone (``block`` None), the slot is gated
    and priced as a block of one.
    """

    time: int
    sat_ids: tuple[str, ...]
    sat_xyz: np.ndarray
    station_ids: tuple[str, ...]
    gs_xyz: np.ndarray
    block: weakref.ref[SlotBlock] | None = field(
        default=None, compare=False, repr=False
    )
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

    Inside ``slot_blocks`` the slot comes from the run's current block,
    which is placed on a miss; outside it, the slot is placed alone.
    Either way ``propagate_slots`` places it, to the same bits.
    """
    memory = _slot_blocks.get()
    if memory is None:
        return propagate_slots(config, stations, t, t + 1, slot_duration).snapshots[0]
    return memory.snapshot(config, stations, t, slot_duration)


def propagate_slots(
    config: ConstellationConfig,
    stations: list[GroundStation],
    start: int,
    stop: int,
    slot_duration: float,
) -> SlotBlock:
    """The consecutive slots [``start``, ``stop``), placed in one array
    pass, as one ``SlotBlock`` and its snapshots.

    Satellites ride circular polar orbits (``_rings``); stations spin
    about the z axis; the constellation's own zero point is set by
    ``epoch``.  The pass keeps the per-element operation order of the
    scalar formula, with every cosine, sine and radians taken from
    ``math``, so every coordinate has the same bits as the scalar formula
    gives it, whatever slots are placed together.
    """
    if start < 0:
        raise ConfigurationError("slot index must be nonnegative")
    if stop <= start:
        raise ConfigurationError("slot range must be nonempty")
    if slot_duration < 0:
        raise ConfigurationError("slot duration must be nonnegative")
    station_ids: dict[str, None] = {}
    for gs in stations:
        if gs.id in station_ids:
            raise ConfigurationError(f"duplicate ground station id {gs.id!r}")
        station_ids[gs.id] = None
    slots = range(start, stop)
    orbit_radius = EARTH_RADIUS + config.altitude
    mean_motion = 2.0 * math.pi / orbital_period(config.altitude)

    # row k is slot start + k, satellites in constellation_ids order
    ring_phase, slot_phase, cos_node, sin_node = _rings(
        config.rings, config.sats_per_ring
    )
    sweep = [mean_motion * (config.epoch + t * slot_duration) for t in slots]
    u = (np.array(sweep)[:, None] + ring_phase + slot_phase).ravel().tolist()
    shape = (len(slots), len(ring_phase))
    radial = orbit_radius * np.fromiter(map(math.cos, u), float, len(u)).reshape(shape)
    sat_xyz = np.empty((*shape, 3))
    sat_xyz[:, :, 0] = radial * cos_node
    sat_xyz[:, :, 1] = radial * sin_node
    sat_xyz[:, :, 2] = orbit_radius * np.fromiter(
        map(math.sin, u), float, len(u)
    ).reshape(shape)
    sat_xyz.flags.writeable = False

    # stations in scenario order, each spun by the slot's Earth rotation
    ground = [
        (
            EARTH_RADIUS * math.cos(math.radians(gs.latitude)),
            EARTH_RADIUS * math.sin(math.radians(gs.latitude)),
            math.radians(gs.longitude),
        )
        for gs in stations
    ]
    gs_rows = []
    for t in slots:
        spin = 2.0 * math.pi * (t * slot_duration) / EARTH_ROTATION_PERIOD
        for radial_gs, z, longitude in ground:
            lon = longitude + spin
            gs_rows.append((radial_gs * math.cos(lon), radial_gs * math.sin(lon), z))
    gs_xyz = np.array(gs_rows, dtype=float).reshape(len(slots), len(ground), 3)
    gs_xyz.flags.writeable = False

    block = SlotBlock(start, sat_xyz, gs_xyz, slot_duration)
    if len(slots) > 1:
        # each snapshot owns its rows, so that a kept one holds its own
        # slot's positions and not its block's
        sat_xyz, gs_xyz = map(_own_rows, sat_xyz), map(_own_rows, gs_xyz)
    ref = weakref.ref(block)
    sat_ids = constellation_ids(config.rings, config.sats_per_ring)
    station_ids = tuple(station_ids)
    block.snapshots = tuple(
        ConstellationSnapshot(t, sat_ids, sats, station_ids, gs, ref)
        for t, sats, gs in zip(slots, sat_xyz, gs_xyz)
    )
    return block


def _own_rows(xyz: np.ndarray) -> np.ndarray:
    """A read-only copy of one slot's rows of a block array."""
    rows = xyz.copy()
    rows.flags.writeable = False
    return rows


class _BlockMemory:
    """A run's current block, placed for the constellation, station list
    and slot duration in ``key``; no slot at or past the run's ``horizon``
    is placed unless it is asked for."""

    __slots__ = ("horizon", "key", "block")

    def __init__(self, horizon: int):
        self.horizon = horizon
        self.key = None
        self.block = None

    def snapshot(self, config, stations, t, slot_duration) -> ConstellationSnapshot:
        key = self.key
        if key is not None and key[0] is config and key[1] is stations:
            row = t - self.block.start
            if key[2] == slot_duration and 0 <= row < len(self.block.snapshots):
                return self.block.snapshots[row]
        cells = max(1, len(stations) * config.rings * config.sats_per_ring)
        stop = max(t + 1, min(t + max(1, BLOCK_CELLS // cells), self.horizon))
        self.block = propagate_slots(config, stations, t, stop, slot_duration)
        self.key = (config, stations, slot_duration)
        return self.block.snapshots[0]


_slot_blocks: ContextVar[_BlockMemory | None] = ContextVar("slot_blocks", default=None)


@contextmanager
def slot_blocks(horizon: int):
    """Serve ``propagate`` from blocks of slots while the block runs.

    On a slot outside the current block, ``propagate`` places the block
    [t, min(t + B, ``horizon``)) in one ``propagate_slots`` pass, where B
    is ``BLOCK_CELLS`` over the slot's (station, satellite) cells, at
    least 1, and keeps it in place of the last; the slots are matched to
    the block by the identity of the constellation and station list.
    No slot at or past ``horizon`` is placed unless it is asked for.  On
    exit, also by an exception, the memory ends and the one active before
    comes back.
    """
    token = _slot_blocks.set(_BlockMemory(horizon))
    try:
        yield
    finally:
        _slot_blocks.reset(token)


def link_geometry(
    snapshot: ConstellationSnapshot | SlotBlock, sat, gs
) -> LinkGeometry | tuple[np.ndarray, np.ndarray]:
    """Elevation and slant range of one downlink, or of many at once.

    Given a ``ConstellationSnapshot`` and two ids, the downlink from
    satellite ``sat`` to station ``gs``, as a ``LinkGeometry``.  Given a
    ``SlotBlock``, ``sat`` and ``gs`` are index tuples (slot rows,
    satellite rows) and (slot rows, station rows) of one length, and the
    result is the arrays (elevation, slant range) of the cells they pair
    up, each entry with the bits the one-link form gives that cell: both
    are ``_downlinks``.  A satellite at its station's position is refused.
    """
    if isinstance(snapshot, SlotBlock):
        # each station's radius once per slot, taken as the one-link form
        # takes it
        gx, gy, gz = np.moveaxis(snapshot.gs_xyz, -1, 0)
        radius = _norm(gx, gy, gz)[gs]
        return _downlinks(snapshot.sat_xyz[sat].T, snapshot.gs_xyz[gs].T, radius)
    try:
        sat_pos = snapshot.sat_xyz[snapshot.sat_row[sat]].tolist()
    except KeyError:
        raise UnknownIdError(f"unknown satellite id {sat!r}") from None
    try:
        gs_pos = snapshot.gs_xyz[snapshot.station_row[gs]].tolist()
    except KeyError:
        raise UnknownIdError(f"unknown ground station id {gs!r}") from None
    elevation, slant = _downlinks(sat_pos, gs_pos, _norm(*gs_pos))
    return LinkGeometry(elevation=elevation, slant_range=slant)


def _downlinks(sat, gs, station_radius):
    """Elevation (degrees) and slant range of downlinks, from the
    satellite and station coordinates, three floats each or three arrays
    of one shape, and the station radius.  One formula for both: every
    step is an IEEE operation in one order, and the squares (``_norm``),
    arcsines and degrees of arrays are taken element by element as Python
    floats take them, so an array entry has the bits its floats give."""
    dx, dy, dz = sat[0] - gs[0], sat[1] - gs[1], sat[2] - gs[2]
    slant = _norm(dx, dy, dz)
    array = isinstance(slant, np.ndarray)
    if (slant == 0.0).any() if array else slant == 0.0:
        raise ConfigurationError("satellite and station coincide")
    dot_gd = gs[0] * dx + gs[1] * dy + gs[2] * dz
    scale = station_radius * slant
    if not array:
        # min and max keep their first argument against a NaN, so a NaN
        # quotient reads as 1; the two np.where below do the same
        sin_e = max(-1.0, min(1.0, dot_gd / scale))
        return math.degrees(math.asin(sin_e)), slant
    if not scale.all():
        # what the float division raises
        raise ZeroDivisionError("float division by zero")
    sin_e = dot_gd / scale
    sin_e = np.where(sin_e < 1.0, sin_e, 1.0)
    sin_e = np.where(sin_e > -1.0, sin_e, -1.0)
    degrees = map(math.degrees, map(math.asin, sin_e.tolist()))
    return np.fromiter(degrees, float, sin_e.size), slant


def _norm(x, y, z):
    """The Euclidean norm of (x, y, z), floats or arrays of one shape,
    summing the squares left to right; the squares are the C library's
    ``pow`` on both, as a Python float ** 2 is (``linkphys._square``)."""
    total = _square(x) + _square(y) + _square(z)
    return np.sqrt(total) if isinstance(total, np.ndarray) else math.sqrt(total)


# row sums of an (n, 3) array as one product, cheaper than .sum(axis=1)
_ROW_SUM = np.ones(3)
_ROW_SUM.flags.writeable = False


def _near_slant_sq(station_sq: np.ndarray, sat_sq: np.ndarray) -> float:
    """The squared slant below which the product screen of ``visible_links``
    may misjudge a cell (SCREEN_MARGIN), from the smallest and largest
    squared station radii and the largest squared satellite radius;
    infinite, so that nothing is screened out, when a radius is zero or
    not finite, or when there is no cell.  Taken over a block of slots,
    the bound holds for each of them, and is never below the bound of any
    one slot."""
    if not (station_sq.size and sat_sq.size):
        return math.inf
    r_min = math.sqrt(station_sq.min())
    scale = math.sqrt(station_sq.max()) + math.sqrt(sat_sq.max())
    err = SCREEN_ERROR * scale * scale
    slack = SCREEN_MARGIN / 2
    if not (r_min > 0.0 and err < math.inf):
        return math.inf
    near = err / (slack * r_min) + math.sqrt(2.0 * err / slack)
    return near * near + err


def _screen(
    gs_xyz: np.ndarray, sat_xyz: np.ndarray, min_elevation: float
) -> np.ndarray:
    """The cells of a block of slots, ``(slots, stations, satellites)``,
    that the screen of ``visible_links`` passes at ``min_elevation``.

    The screen takes one stacked product ``gs_xyz @ sat_xyz^T`` and the
    rows' squared norms: the dot product of the station with the line of
    sight is g.s - |g|^2 and the squared slant is |s|^2 - 2 g.s + |g|^2.
    Both lie within SCREEN_ERROR * (|g| + |s|)^2 of exact, which the
    margin absorbs for every slant above ``_near_slant_sq``, about 22 km
    at Earth scale.  Every nearer cell is passed, and so is every cell the
    screen cannot evaluate (NaN), such as one whose squared slant
    cancellation made negative.
    """
    station_sq = (gs_xyz * gs_xyz) @ _ROW_SUM
    sat_sq = (sat_xyz * sat_xyz) @ _ROW_SUM
    station_sq_col = station_sq[:, :, None]
    # two (slots, stations, satellites) float arrays at most, in place
    dot = gs_xyz @ sat_xyz.transpose(0, 2, 1)
    slant = 2.0 * dot
    np.subtract(sat_sq[:, None, :], slant, out=slant)
    slant += station_sq_col
    passed = slant < _near_slant_sq(station_sq, sat_sq)
    with np.errstate(invalid="ignore"):
        np.sqrt(slant, out=slant)
    sin_mask = math.sin(math.radians(max(-90.0, min(90.0, min_elevation))))
    slant *= (sin_mask - SCREEN_MARGIN) * np.sqrt(station_sq_col)
    dot -= station_sq_col
    below = np.less(dot, slant)
    passed |= np.logical_not(below, out=below)
    return passed


def _slot_links(
    snapshot: ConstellationSnapshot, min_elevation: float
) -> tuple[BlockLinks, int]:
    """The gated downlinks of the block that holds ``snapshot``'s slot
    (``SlotBlock.links``), and the slot's row in it.  A snapshot whose
    block is gone, or whose block's pass raised, is gated as a block of
    one, which raises the slot's own error."""
    links = _block_links(snapshot, min_elevation)
    if links is None:
        return SlotBlock.of(snapshot).links(min_elevation), 0
    return links


def _block_links(snapshot, min_elevation):
    """``_slot_links`` from the snapshot's live block, or None.  The
    block's error is dropped here: each slot raises its own, from a
    traceback that holds no block."""
    block = None if snapshot.block is None else snapshot.block()
    if block is None:
        return None
    try:
        links = block.links(min_elevation)
    except (QsatError, ArithmeticError):
        return None
    return None if links is None else (links, snapshot.time - block.start)


def visible_links(
    snapshot: ConstellationSnapshot, min_elevation: float
) -> list[dict[int, LinkGeometry]]:
    """Per station row, the satellite rows at or above ``min_elevation``,
    with geometry: one dict per station in ``station_ids`` order, each
    keyed by satellite row in row order.

    A numpy screen (``_screen``) over every (station, satellite) cell
    keeps the cells whose elevation sine lies within SCREEN_MARGIN of the
    mask or above it; only those reach ``link_geometry``, which decides
    each of them and supplies every returned value.  The result therefore
    equals gating ``link_geometry`` on every cell.  Screen and geometry
    run once per mask over the snapshot's whole block of slots, in one
    array call each (``SlotBlock.links``), and each slot reads its own
    cells (``_slot_links``).
    """
    links, row = _slot_links(snapshot, min_elevation)
    cells = slice(links.bounds[row], links.bounds[row + 1])
    per_station = [{} for _ in snapshot.station_ids]
    for g, s, elevation, slant in zip(
        links.station[cells].tolist(),
        links.sat[cells].tolist(),
        links.elevation[cells].tolist(),
        links.slant[cells].tolist(),
    ):
        per_station[g][s] = LinkGeometry(elevation=elevation, slant_range=slant)
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


def sight_line_matrix(xyz: np.ndarray, clearance: float = ISL_CLEARANCE) -> np.ndarray:
    """Ordered sight lines between the rows of an (n, 3) position array:
    entry (v, w) is ``sight_line_clear(xyz[v], xyz[w], clearance)`` for
    v != w, and the diagonal is False.

    Each entry is computed with the scalar test's operations, element by
    element, so it equals that test bit for bit.  The two differ only
    where the closest-approach parameter is NaN, coincident points
    included: the scalar test reads such a segment as a point or clamps
    the parameter to 1, and those cells are handed to it.
    """
    px, py, pz = xyz[:, 0, None], xyz[:, 1, None], xyz[:, 2, None]
    dx, dy, dz = xyz[:, 0] - px, xyz[:, 1] - py, xyz[:, 2] - pz
    seg_sq = dx * dx + dy * dy + dz * dz
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -(px * dx + py * dy + pz * dz) / seg_sq
        clamped = np.maximum(0.0, np.minimum(1.0, t))
        cx, cy, cz = px + clamped * dx, py + clamped * dy, pz + clamped * dz
        clear = np.sqrt(cx * cx + cy * cy + cz * cz) >= EARTH_RADIUS + clearance
    undecided = np.isnan(t)
    np.fill_diagonal(undecided, False)
    np.fill_diagonal(clear, False)
    if undecided.any():
        rows = xyz.tolist()
        for v, w in zip(*(axis.tolist() for axis in np.nonzero(undecided))):
            clear[v, w] = sight_line_clear(rows[v], rows[w], clearance)
    return clear


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
