"""Geometry tests: propagation, visibility, and overhead-orbit arcs."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsatnet import orbital
from qsatnet.config import default_scenario, scenario_from_dict
from qsatnet.errors import ConfigurationError, UnknownIdError
from qsatnet.orbital import (
    EARTH_ROTATION_PERIOD,
    ConstellationConfig,
    ConstellationSnapshot,
    GroundStation,
    constellation_ids,
    inter_satellite_visible,
    link_geometry,
    orbital_period,
    overhead_visibility_arcs,
    propagate,
    satellite_id,
    visibility_half_width,
)

R_E = 6371e3


def single_sat_config(altitude=1000e3, **kw):
    return ConstellationConfig(rings=1, sats_per_ring=1, altitude=altitude, **kw)


def elevation_from_central_angle(gamma, altitude, earth_radius=R_E):
    """Independent check path: planar triangle instead of 3D vectors."""
    ro = earth_radius + altitude
    slant = math.sqrt(earth_radius**2 + ro**2 - 2 * earth_radius * ro * math.cos(gamma))
    sin_e = (ro * math.cos(gamma) - earth_radius) / slant
    return math.degrees(math.asin(max(-1.0, min(1.0, sin_e))))


def test_orbital_period_matches_kepler():
    independent = 2 * math.pi * math.sqrt((R_E + 1000e3) ** 3 / 3.986e14)
    assert orbital_period(1000e3) == pytest.approx(independent, rel=1e-12)
    assert orbital_period(1000e3) == pytest.approx(6297.973631285823, abs=1e-6)


@pytest.mark.parametrize("altitude", [1e300, math.inf])
def test_orbital_period_refuses_an_overflowing_orbit(altitude):
    # 1e300 overflows when cubed; an infinite altitude cubes to inf
    with pytest.raises(ConfigurationError, match="orbit radius cubed overflows"):
        orbital_period(altitude)
    with pytest.raises(ConfigurationError, match="orbit radius cubed overflows"):
        ConstellationConfig(1, 1, altitude)


def scalar_propagate(config, stations, t, slot_duration):
    """Reference: each position from the closed form, one at a time."""
    orbit_radius = R_E + config.altitude
    mean_motion = 2.0 * math.pi / orbital_period(config.altitude)
    sat_time = config.epoch + t * slot_duration
    sats = []
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
            sats.append(
                (
                    orbit_radius * cos_u * cos_node,
                    orbit_radius * cos_u * sin_node,
                    orbit_radius * sin_u,
                )
            )
    spin = 2.0 * math.pi * (t * slot_duration) / EARTH_ROTATION_PERIOD
    stations_xyz = []
    for gs in stations:
        lat = math.radians(gs.latitude)
        lon = math.radians(gs.longitude) + spin
        stations_xyz.append(
            (
                R_E * math.cos(lat) * math.cos(lon),
                R_E * math.cos(lat) * math.sin(lon),
                R_E * math.sin(lat),
            )
        )
    return sats, stations_xyz


@pytest.mark.parametrize(
    "config, slot_duration, slots",
    [
        # the default 20x20 constellation over a day of 10 s slots
        (ConstellationConfig(20, 20, 1000e3), 10.0, range(0, 8640, 61)),
        # the reduced 4x10 one over a day of 60 s slots, from an epoch
        (ConstellationConfig(4, 10, 1000e3, epoch=1234.5), 60.0, range(0, 1440, 7)),
        (single_sat_config(), 10.0, range(0, 8640, 97)),
    ],
    ids=["20x20", "4x10-epoch", "1x1"],
)
def test_propagate_matches_the_scalar_formula_bit_for_bit(config, slot_duration, slots):
    stations = [
        GroundStation("a", 40.7, -74.0, 1),
        GroundStation("b", -33.9, 151.2, 1),
        GroundStation("c", 90.0, -180.0, 1),
    ]
    for t in slots:
        snap = propagate(config, stations, t, slot_duration)
        sats, stations_xyz = scalar_propagate(config, stations, t, slot_duration)
        assert snap.sat_ids == constellation_ids(config.rings, config.sats_per_ring)
        assert snap.station_ids == ("a", "b", "c")
        # tolist gives back the stored doubles, so == compares bits
        assert snap.sat_xyz.tolist() == [list(p) for p in sats]
        assert snap.gs_xyz.tolist() == [list(p) for p in stations_xyz]
        assert list(snap.sat_positions.values()) == sats


def test_snapshot_arrays_and_views_are_read_only():
    cfg = ConstellationConfig(rings=3, sats_per_ring=4, altitude=1000e3)
    snap = propagate(cfg, [GroundStation("g", 10.0, 20.0, 1)], 3, 10.0)
    assert snap.sat_xyz.shape == (12, 3) and snap.gs_xyz.shape == (1, 3)
    for xyz in (snap.sat_xyz, snap.gs_xyz):
        with pytest.raises(ValueError):
            xyz[0, 0] = 0.0
    with pytest.raises(TypeError):
        snap.sat_positions["r00s00"] = (0.0, 0.0, 0.0)
    with pytest.raises(TypeError):
        snap.gs_positions["g"] = (0.0, 0.0, 0.0)
    # the views hold the array rows, keyed in row order
    assert list(snap.sat_positions) == list(snap.sat_ids)
    assert list(snap.sat_positions.values()) == [tuple(p) for p in snap.sat_xyz.tolist()]
    assert snap.gs_positions == {"g": tuple(snap.gs_xyz[0].tolist())}
    # a hand-placed snapshot keeps its ids in the order given
    placed = ConstellationSnapshot.from_positions(
        0, {"b": (1.0, 2.0, 3.0), "a": (4.0, 5.0, 6.0)}, {}
    )
    assert placed.sat_ids == ("b", "a") and placed.station_ids == ()
    assert placed.sat_xyz.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
    assert placed.gs_xyz.shape == (0, 3)


def test_satellite_periodicity():
    cfg = ConstellationConfig(rings=3, sats_per_ring=4, altitude=1000e3)
    before = propagate(cfg, [], 0, 10.0)
    after = propagate(cfg, [], 1, orbital_period(cfg.altitude))
    for sid in constellation_ids(3, 4):
        assert math.dist(before.sat_positions[sid], after.sat_positions[sid]) < 1e-6


def test_propagate_keys_satellites_by_cached_ids(monkeypatch):
    """Positions are keyed ring by ring, and the ids are formatted once per
    constellation shape, not once per slot."""
    cfg = ConstellationConfig(rings=3, sats_per_ring=4, altitude=1000e3)
    first = propagate(cfg, [], 0, 10.0)
    expected = [satellite_id(r, s) for r in range(3) for s in range(4)]
    assert list(first.sat_positions) == expected == list(constellation_ids(3, 4))

    def formatted(ring, slot):
        raise AssertionError("satellite ids formatted again")

    monkeypatch.setattr(orbital, "satellite_id", formatted)
    second = propagate(cfg, [], 1, 10.0)
    assert all(a is b for a, b in zip(first.sat_positions, second.sat_positions))


def test_station_periodicity_over_one_rotation():
    cfg = single_sat_config()
    gs = [GroundStation("g", 40.7, -74.0, 10)]
    before = propagate(cfg, gs, 0, 10.0)
    after = propagate(cfg, gs, 1, EARTH_ROTATION_PERIOD)
    assert math.dist(before.gs_positions["g"], after.gs_positions["g"]) < 1e-6


def test_subsatellite_point_at_epoch():
    snap = propagate(single_sat_config(), [], 0, 10.0)
    x, y, z = snap.sat_positions[satellite_id(0, 0)]
    assert (x, y, z) == pytest.approx((R_E + 1000e3, 0.0, 0.0), abs=1e-6)


def test_norm_preservation():
    cfg = ConstellationConfig(rings=5, sats_per_ring=7, altitude=789e3)
    gs = [GroundStation("a", 12.3, 45.6, 1), GroundStation("b", -55.0, -170.0, 1)]
    for t in (0, 1, 13, 999, 86399):
        snap = propagate(cfg, gs, t, 10.0)
        for pos in snap.sat_positions.values():
            radius = math.sqrt(sum(c * c for c in pos))
            assert radius == pytest.approx(R_E + 789e3, rel=1e-6)
        for pos in snap.gs_positions.values():
            radius = math.sqrt(sum(c * c for c in pos))
            assert radius == pytest.approx(R_E, rel=1e-12)


def test_zenith_link():
    snap = propagate(single_sat_config(), [GroundStation("g", 0.0, 0.0, 1)], 0, 10.0)
    geom = link_geometry(snap, satellite_id(0, 0), "g")
    assert geom.elevation == 90.0
    assert geom.slant_range == pytest.approx(1_000_000.0, abs=1e-6)


def test_below_horizon_negative_elevation():
    snap = propagate(single_sat_config(), [GroundStation("g", 0.0, 179.0, 1)], 0, 10.0)
    geom = link_geometry(snap, satellite_id(0, 0), "g")
    assert geom.elevation < 0.0


def test_elevation_matches_planar_oracle():
    for lon_offset in (3.0, 10.0, 25.0, 60.0):
        snap = propagate(
            single_sat_config(), [GroundStation("g", 0.0, lon_offset, 1)], 0, 10.0
        )
        geom = link_geometry(snap, satellite_id(0, 0), "g")
        expected = elevation_from_central_angle(math.radians(lon_offset), 1000e3)
        assert geom.elevation == pytest.approx(expected, abs=1e-9)


def test_elevation_continuity_along_pass(monkeypatch):
    # Default operating point; station sits in the orbit plane so the pass
    # crosses zenith, the steepest case.  The Earth is frozen in place.
    monkeypatch.setattr(orbital, "EARTH_ROTATION_PERIOD", 1e18)
    cfg = ConstellationConfig(rings=1, sats_per_ring=1, altitude=1000e3)
    gs = [GroundStation("g", 0.0, 0.0, 1)]
    elevations = []
    for t in range(0, 640):
        snap = propagate(cfg, gs, t, 10.0)
        elevations.append(link_geometry(snap, satellite_id(0, 0), "g").elevation)
    assert max(elevations) == pytest.approx(90.0, abs=1e-6)
    jumps = [abs(b - a) for a, b in zip(elevations, elevations[1:])]
    assert max(jumps) <= 5.0


def test_link_geometry_unknown_ids():
    snap = propagate(single_sat_config(), [GroundStation("g", 0.0, 0.0, 1)], 0, 10.0)
    with pytest.raises(UnknownIdError):
        link_geometry(snap, "nope", "g")
    with pytest.raises(UnknownIdError):
        link_geometry(snap, satellite_id(0, 0), "nope")


def test_inter_satellite_identical_positions():
    pos = (R_E + 1000e3, 0.0, 0.0)
    snap = ConstellationSnapshot.from_positions(
        time=0,
        sat_positions={"a": pos, "b": pos},
        gs_positions={},
    )
    assert inter_satellite_visible(snap, "a", "b", 0.0)


def test_inter_satellite_antipodal_blocked():
    # two sats in one ring of 2 sit on opposite sides of the Earth
    cfg = ConstellationConfig(rings=1, sats_per_ring=2, altitude=500e3)
    snap = propagate(cfg, [], 0, 10.0)
    assert not inter_satellite_visible(snap, satellite_id(0, 0), satellite_id(0, 1), 0.0)


def test_inter_satellite_adjacent_in_ring():
    # chord midpoint radius (R+h)cos(pi/20) = 7280 km clears the surface
    cfg = ConstellationConfig(rings=1, sats_per_ring=20, altitude=1000e3)
    snap = propagate(cfg, [], 0, 10.0)
    assert inter_satellite_visible(snap, satellite_id(0, 0), satellite_id(0, 1), 0.0)
    # but not with a clearance larger than the midpoint altitude margin
    assert not inter_satellite_visible(
        snap, satellite_id(0, 0), satellite_id(0, 1), 910e3
    )


def test_inter_satellite_symmetry():
    cfg = ConstellationConfig(rings=4, sats_per_ring=5, altitude=800e3)
    snap = propagate(cfg, [], 7, 10.0)
    ids = constellation_ids(4, 5)
    rng = random.Random(3)
    for _ in range(50):
        a, b = rng.choice(ids), rng.choice(ids)
        assert inter_satellite_visible(snap, a, b) == inter_satellite_visible(
            snap, b, a
        )


def test_half_width_operating_point():
    beta = visibility_half_width(1000e3, 20.0)
    assert math.degrees(beta) == pytest.approx(15.687823008172375, abs=1e-9)


def test_arcs_coincident_stations():
    arcs = overhead_visibility_arcs(0.0, 1000e3, 20.0)
    assert (arcs.g1L, arcs.g1R) == (arcs.g2L, arcs.g2R)
    assert arcs.primary_arc == (arcs.g2L, arcs.g2R)


def test_arcs_mirror_symmetry():
    baseline = 1500e3
    arcs = overhead_visibility_arcs(baseline, 1000e3, 20.0)
    b = baseline / R_E
    assert b - arcs.g1L == pytest.approx(arcs.g2R, abs=1e-12)
    assert b - arcs.g1R == pytest.approx(arcs.g2L, abs=1e-12)


def test_arcs_disjoint_when_baseline_large():
    # 2 * beta at 1000 km / 20 deg is about 31.4 deg of arc (~3490 km)
    arcs = overhead_visibility_arcs(4000e3, 1000e3, 20.0)
    assert arcs.primary_arc is None
    left, right = arcs.reflection_arc_pairs
    assert left[1] > left[0]
    assert right[1] > right[0]


def test_primary_arc_dense_sampling():
    baseline = 1500e3
    arcs = overhead_visibility_arcs(baseline, 1000e3, 20.0)
    assert arcs.primary_arc is not None
    lo, hi = arcs.primary_arc
    b = baseline / R_E
    eps = 1e-6
    for k in range(1, 200):
        theta = lo + (hi - lo) * k / 200.0
        e2 = elevation_from_central_angle(abs(theta), 1000e3)
        e1 = elevation_from_central_angle(abs(theta - b), 1000e3)
        assert e1 >= 20.0 - 1e-9 and e2 >= 20.0 - 1e-9
    for theta in (lo - eps, hi + eps):
        e2 = elevation_from_central_angle(abs(theta), 1000e3)
        e1 = elevation_from_central_angle(abs(theta - b), 1000e3)
        assert min(e1, e2) < 20.0


def test_invalid_inputs():
    with pytest.raises(ConfigurationError):
        ConstellationConfig(rings=0, sats_per_ring=1, altitude=1000e3)
    with pytest.raises(ConfigurationError):
        GroundStation("g", 91.0, 0.0, 1)
    with pytest.raises(ConfigurationError):
        GroundStation("g", 0.0, 180.0, 1)
    with pytest.raises(ConfigurationError):
        propagate(single_sat_config(), [], -1, 10.0)
    with pytest.raises(ConfigurationError):
        overhead_visibility_arcs(-1.0, 1000e3, 20.0)
    with pytest.raises(ConfigurationError):
        visibility_half_width(1000e3, 90.0)
    dup = [GroundStation("g", 0.0, 0.0, 1), GroundStation("g", 1.0, 1.0, 1)]
    with pytest.raises(ConfigurationError):
        propagate(single_sat_config(), dup, 0, 10.0)


def test_constellation_size_is_bounded():
    # the bound is on the product: neither factor alone is large
    assert ConstellationConfig(rings=100, sats_per_ring=100, altitude=1000e3).rings == 100
    with pytest.raises(ConfigurationError, match="101 rings x 100 satellites"):
        ConstellationConfig(rings=101, sats_per_ring=100, altitude=1000e3)


# --- blocks of slots against lone slots ---------------------------------------

# the reduced acceptance scenario: 4x10 satellites, six stations, a day of
# 60 s slots
REDUCED_DAY = {
    "constellation": {"rings": 4, "sats_per_ring": 10, "altitude": 1000e3},
    "slot_duration": 60.0,
    "num_slots": 1440,
}


def _hex_links(snapshot, min_elevation):
    """The snapshot's link table, every float by its bits, in table order."""
    return [
        [(s, g.elevation.hex(), g.slant_range.hex()) for s, g in row.items()]
        for row in orbital.visible_links(snapshot, min_elevation)
    ]


def _lone_slots(config, slots):
    """Each slot placed and screened alone, outside any block memory."""
    lone = []
    for t in slots:
        snapshot = propagate(
            config.constellation, config.stations, t, config.slot_duration
        )
        assert snapshot.block() is None
        lone.append((snapshot, _hex_links(snapshot, config.min_elevation)))
    return lone


def _assert_blocked_equals_lone(config, blocked, lone):
    """A slot served from a live block of several equals the slot placed
    and screened alone, bit for bit."""
    snapshot, links = lone
    block = blocked.block()
    assert block is not None and len(block.snapshots) > 1
    assert blocked.time == snapshot.time
    assert (blocked.sat_ids, blocked.station_ids) == (
        snapshot.sat_ids,
        snapshot.station_ids,
    )
    assert blocked.sat_xyz.tobytes() == snapshot.sat_xyz.tobytes()
    assert blocked.gs_xyz.tobytes() == snapshot.gs_xyz.tobytes()
    assert _hex_links(blocked, config.min_elevation) == links


def test_blocks_equal_lone_slots_over_the_reduced_day():
    config = scenario_from_dict(REDUCED_DAY)
    lone = _lone_slots(config, range(config.num_slots))
    assert sum(len(row) for _, links in lone for row in links) > 1000
    with orbital.slot_blocks(config.num_slots):
        for t in range(config.num_slots):
            blocked = propagate(
                config.constellation, config.stations, t, config.slot_duration
            )
            _assert_blocked_equals_lone(config, blocked, lone[t])


@pytest.mark.parametrize("length", [2, 3, 7, 20])
def test_blocks_equal_lone_slots_across_block_boundaries(monkeypatch, length):
    # a 20-slot window of the default scenario, cut into blocks of
    # `length` slots (the last one shorter), BLOCK_CELLS not a multiple
    config = default_scenario()
    lone = _lone_slots(config, range(20))
    cells = len(config.stations) * config.constellation.rings * (
        config.constellation.sats_per_ring
    )
    monkeypatch.setattr(orbital, "BLOCK_CELLS", length * cells + cells // 2)
    starts = set()
    with orbital.slot_blocks(20):
        for t in range(20):
            blocked = propagate(
                config.constellation, config.stations, t, config.slot_duration
            )
            block = blocked.block()
            assert len(block.snapshots) == min(length, 20 - block.start)
            starts.add(block.start)
            _assert_blocked_equals_lone(config, blocked, lone[t])
    assert sorted(starts) == list(range(0, 20, length))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    horizon=st.integers(1, 40),
    length=st.integers(1, 12),
    spare=st.integers(0, 11),
)
def test_a_run_places_each_slot_once_and_none_past_its_horizon(horizon, length, spare):
    config = ConstellationConfig(rings=2, sats_per_ring=3, altitude=1000e3)
    stations = (GroundStation("a", 10.0, 20.0, 1), GroundStation("b", -5.0, 100.0, 1))
    placed = []
    place = orbital.propagate_slots

    def counted(config, stations, start, stop, slot_duration):
        placed.append((start, stop))
        return place(config, stations, start, stop, slot_duration)

    with pytest.MonkeyPatch.context() as patch:
        # 12 cells a slot: blocks of `length` slots
        patch.setattr(orbital, "BLOCK_CELLS", length * 12 + spare)
        patch.setattr(orbital, "propagate_slots", counted)
        with orbital.slot_blocks(horizon):
            for t in range(horizon):
                assert propagate(config, stations, t, 60.0).time == t
                # asking for the slot again places nothing
                assert propagate(config, stations, t, 60.0).block() is not None
    assert [t for start, stop in placed for t in range(start, stop)] == list(
        range(horizon)
    )
    assert all(stop - start == min(length, horizon - start) for start, stop in placed)


def test_slot_blocks_place_a_slot_past_the_horizon_alone():
    config = single_sat_config()
    with orbital.slot_blocks(3):
        assert propagate(config, [], 1, 10.0).block().start == 1
        past = propagate(config, [], 5, 10.0)
        assert len(past.block().snapshots) == 1
        # another constellation or slot duration is placed anew
        other = ConstellationConfig(1, 1, 2000e3)
        for cfg, slot_duration in ((other, 10.0), (config, 20.0)):
            placed = propagate(cfg, [], 1, slot_duration)
            alone = orbital.propagate_slots(cfg, [], 1, 2, slot_duration)
            assert placed.sat_xyz.tobytes() == alone.snapshots[0].sat_xyz.tobytes()
        with pytest.raises(ConfigurationError, match="nonnegative"):
            propagate(config, [], -1, 10.0)
    with pytest.raises(ConfigurationError, match="nonempty"):
        orbital.propagate_slots(config, [], 2, 2, 10.0)
