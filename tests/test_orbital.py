"""Geometry tests: propagation, visibility, and overhead-orbit arcs."""

import math
import random

import pytest

from qsatnet.errors import ConfigurationError, UnknownIdError
from qsatnet.orbital import (
    ConstellationConfig,
    ConstellationSnapshot,
    GroundStation,
    geodesic_distance,
    inter_satellite_visible,
    link_geometry,
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
    cfg = single_sat_config()
    independent = 2 * math.pi * math.sqrt((R_E + 1000e3) ** 3 / 3.986e14)
    assert cfg.orbital_period() == pytest.approx(independent, rel=1e-12)
    assert cfg.orbital_period() == pytest.approx(6297.973631285823, abs=1e-6)


def test_satellite_periodicity():
    cfg = ConstellationConfig(rings=3, sats_per_ring=4, altitude=1000e3)
    before = propagate(cfg, [], 0, 10.0)
    after = propagate(cfg, [], 1, cfg.orbital_period())
    for sid in cfg.satellite_ids():
        assert math.dist(before.sat_positions[sid], after.sat_positions[sid]) < 1e-6


def test_propagate_keys_satellites_by_cached_ids(monkeypatch):
    """Positions are keyed ring by ring, and the ids are formatted once per
    constellation shape, not once per slot."""
    from qsatnet import orbital

    cfg = ConstellationConfig(rings=3, sats_per_ring=4, altitude=1000e3)
    first = propagate(cfg, [], 0, 10.0)
    expected = [satellite_id(r, s) for r in range(3) for s in range(4)]
    assert list(first.sat_positions) == expected == cfg.satellite_ids()

    def formatted(ring, slot):
        raise AssertionError("satellite ids formatted again")

    monkeypatch.setattr(orbital, "satellite_id", formatted)
    second = propagate(cfg, [], 1, 10.0)
    assert all(a is b for a, b in zip(first.sat_positions, second.sat_positions))


def test_station_periodicity_over_one_rotation():
    cfg = single_sat_config()
    gs = [GroundStation("g", 40.7, -74.0, 10)]
    before = propagate(cfg, gs, 0, 10.0)
    after = propagate(cfg, gs, 1, cfg.earth_rotation_period)
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


def test_elevation_continuity_along_pass():
    # Default operating point; station sits in the orbit plane so the pass
    # crosses zenith, the steepest case.
    cfg = ConstellationConfig(
        rings=1, sats_per_ring=1, altitude=1000e3, earth_rotation_period=1e18
    )
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
    snap = ConstellationSnapshot(
        time=0,
        sat_positions={"a": pos, "b": pos},
        gs_positions={},
        earth_radius=R_E,
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
    ids = cfg.satellite_ids()
    rng = random.Random(3)
    for _ in range(50):
        a, b = rng.choice(ids), rng.choice(ids)
        assert inter_satellite_visible(snap, a, b) == inter_satellite_visible(
            snap, b, a
        )


def test_geodesic_examples():
    a = GroundStation("a", 0.0, 0.0, 1)
    b = GroundStation("b", 0.0, 90.0, 1)
    anti = GroundStation("c", 0.0, -180.0, 1)
    assert geodesic_distance(a, a) == 0.0
    assert geodesic_distance(a, anti) == pytest.approx(math.pi * R_E, abs=1e3)
    assert geodesic_distance(a, b) == pytest.approx(10_007.5e3, abs=1e3)


def test_geodesic_metric_properties():
    rng = random.Random(11)
    stations = [
        GroundStation(f"s{i}", rng.uniform(-90, 90), rng.uniform(-180, 179.9), 1)
        for i in range(12)
    ]
    for _ in range(60):
        a, b, c = rng.sample(stations, 3)
        ab = geodesic_distance(a, b)
        assert ab == pytest.approx(geodesic_distance(b, a), abs=1e-6)
        assert ab >= 0.0
        assert ab <= geodesic_distance(a, c) + geodesic_distance(c, b) + 1e-6


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
