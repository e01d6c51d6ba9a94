"""End-to-end simulation driver and case-study tests."""

import csv
import functools
import json
import math
import operator
from dataclasses import replace

import pytest

from qsatnet import orbital, simharness
from qsatnet.config import default_scenario, scenario_from_dict
from qsatnet.environment import EnvironmentTable
from qsatnet.errors import ConfigurationError, SimulationError, StructuralError
from qsatnet.orbital import (
    ConstellationConfig,
    GroundStation,
    propagate,
    satellite_id,
)
from qsatnet.scheduler import PairSpec
from qsatnet.simharness import (
    POLICIES,
    RunReport,
    ScenarioConfig,
    build_network,
    case_study,
    count_handovers,
    run,
    write_case_study,
    write_run_outputs,
)


def polar_scenario(**overrides) -> ScenarioConfig:
    """Stations packed near the pole, where every polar ring converges."""
    defaults = dict(
        constellation=ConstellationConfig(rings=4, sats_per_ring=10, altitude=1000e3),
        stations=(
            GroundStation(id="alpha", latitude=89.9, longitude=0.0, receiver_cap=4),
            GroundStation(id="bravo", latitude=89.8, longitude=90.0, receiver_cap=4),
            GroundStation(id="carol", latitude=89.7, longitude=-90.0, receiver_cap=4),
        ),
        slot_duration=60.0,
        num_slots=20,
        month=6,
        policy="primary_ratesum",
        transmitter_cap=2,
        reflector_cap=2,
        pair_cap=2,
        weather_seed=11,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def test_run_produces_service_near_pole():
    report = run(polar_scenario())
    assert len(report.series) == 20
    assert all(m.t == t for t, m in enumerate(report.series))
    assert any(m.aggregate_edr > 0 for m in report.series)
    assert any(m.connectivity > 0 for m in report.series)
    assert report.served_pair_count >= 1


def test_run_is_deterministic():
    config = polar_scenario(num_slots=8)
    assert run(config) == run(config)


def test_run_daily_totals_conserve_slot_rates():
    config = polar_scenario(num_slots=12)
    report = run(config)
    for pid, daily in report.per_pair_daily.items():
        accumulated = 0.0
        for m in report.series:
            accumulated += m.per_pair_edr[pid] * config.slot_duration
        assert accumulated == daily
    for m in report.series:
        # left to right, as the run folds it: from Python 3.12 on, the
        # built-in sum of floats is compensated and may differ
        assert m.aggregate_edr == functools.reduce(
            operator.add, m.per_pair_edr.values(), 0
        )
    assert report.served_pair_count == sum(
        1 for v in report.per_pair_daily.values() if v > 0
    )


def test_run_wraps_errors_with_slot_index():
    config = polar_scenario(num_slots=3)
    with pytest.raises(SimulationError, match=r"slot 0:"):
        run(config, env=EnvironmentTable(records={}))
    try:
        run(config, env=EnvironmentTable(records={}))
    except SimulationError as exc:
        assert exc.slot == 0


def test_block_memory_ends_with_its_run(monkeypatch):
    """Each run places its own blocks of slots, and no block outlives the
    run that placed it, also when the run raises."""
    config = polar_scenario(num_slots=20)
    # 3 stations x 40 satellites: blocks of 6 slots
    monkeypatch.setattr(orbital, "BLOCK_CELLS", 6 * 120)
    placed, served = [], []
    place = orbital.propagate_slots

    def counted(*args):
        block = place(*args)
        placed.append((block.start, len(block.snapshots)))
        return block

    monkeypatch.setattr(orbital, "propagate_slots", counted)
    serve = simharness.propagate

    def kept(*args):
        served.append(serve(*args))
        return served[-1]

    monkeypatch.setattr(simharness, "propagate", kept)
    blocks = [(0, 6), (6, 6), (12, 6), (18, 2)]
    first = run(config)
    assert placed == blocks
    assert orbital._slot_blocks.get() is None
    assert all(snapshot.block() is None for snapshot in served)
    # the same scenario again places every block anew, with the same result
    assert run(config) == first
    assert placed == 2 * blocks
    assert all(snapshot.block() is None for snapshot in served)
    with pytest.raises(SimulationError, match=r"slot 0:"):
        run(config, env=EnvironmentTable(records={}))
    assert placed == [*2 * blocks, (0, 6)]
    assert orbital._slot_blocks.get() is None
    assert served[-1].block() is None


def test_run_reflection_policy_executes():
    report = run(polar_scenario(num_slots=6, policy="reflection_ratesum"))
    assert len(report.series) == 6


def test_scenario_validation():
    with pytest.raises(ConfigurationError, match="policy"):
        polar_scenario(policy="round_robin")
    with pytest.raises(ConfigurationError):
        polar_scenario(num_slots=0)
    with pytest.raises(ConfigurationError):
        polar_scenario(month=13)


def test_code_and_scenario_file_share_the_cap_defaults():
    """Stations and pairs built in code take the caps a scenario file
    leaves out, so a scenario of default stations passes its own
    receiver-dominance check."""
    config = ScenarioConfig(
        constellation=ConstellationConfig(4, 10, 1000e3),
        stations=(GroundStation("a", 0.0, 0.0), GroundStation("b", 10.0, 10.0)),
    )
    assert [gs.receiver_cap for gs in config.stations] == [10, 10]
    assert [p.pair_cap for p in config.resolved_pairs()] == [10]
    assert PairSpec("p", "a", "b").pair_cap == 10
    loaded = scenario_from_dict(
        {
            "stations": [
                {"id": "a", "latitude": 0.0, "longitude": 0.0},
                {"id": "b", "latitude": 10.0, "longitude": 10.0},
            ],
            "pairs": [{"id": "p", "station_a": "a", "station_b": "b"}],
        }
    )
    assert loaded.stations == config.stations
    assert loaded.pairs == (PairSpec("p", "a", "b"),)


def test_resolved_pairs_defaults_to_all_station_pairs():
    config = polar_scenario()
    ids = [p.id for p in config.resolved_pairs()]
    assert ids == ["alpha-bravo", "alpha-carol", "bravo-carol"]
    explicit = polar_scenario(
        pairs=(
            PairSpec(id="only", station_a="alpha", station_b="carol", pair_cap=1),
        )
    )
    assert [p.id for p in explicit.resolved_pairs()] == ["only"]


def test_count_handovers_rules():
    prev = {"p": frozenset({"s1", "s2"}), "q": frozenset({"s3"}), "r": frozenset()}
    curr = {"p": frozenset({"s2", "s4"}), "q": frozenset(), "r": frozenset({"s5"})}
    # p keeps service and drops s1 (one handover); q loses service entirely
    # and r gains it, neither of which re-points a live link
    assert count_handovers(prev, curr) == 1
    assert count_handovers(curr, curr) == 0
    with pytest.raises(StructuralError):
        count_handovers(prev, {"p": frozenset()})


def test_count_handovers_treats_relay_pairs_as_identities():
    prev = {"p": frozenset({("s1", "s2")})}
    swapped = {"p": frozenset({("s2", "s1")})}
    assert count_handovers(prev, swapped) == 1
    assert count_handovers(prev, {"p": frozenset({("s1", "s2")})}) == 0


def test_case_study_anchor_points():
    rows = case_study([0.0, 3000.0])
    by_baseline = {row.baseline_km: row for row in rows}
    assert 0.9 <= by_baseline[0.0].ratio <= 1.1
    assert 2.0 <= by_baseline[3000.0].ratio <= 4.0
    assert by_baseline[0.0].primary_edr > by_baseline[3000.0].primary_edr


def test_case_study_beyond_mutual_visibility():
    rows = case_study([4000.0])
    assert rows[0].primary_edr == 0.0
    assert rows[0].reflection_edr > 0.0
    assert math.isinf(rows[0].ratio)


def test_case_study_occlusion_limits_far_baselines():
    near = case_study([3000.0])[0]
    far = case_study([8000.0])[0]
    assert far.reflection_edr > 0.0
    assert far.reflection_edr < near.reflection_edr


def test_write_run_outputs_round_trip(tmp_path):
    config = polar_scenario(num_slots=5)
    report = run(config)
    out = tmp_path / "out"
    write_run_outputs(report, str(out), header={"policy": config.policy})

    with open(out / "metrics.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["t", "aggregate_edr", "connectivity", "handovers"]
    assert len(rows) == 1 + len(report.series)
    for row, metrics in zip(rows[1:], report.series):
        assert int(row[0]) == metrics.t
        assert float(row[1]) == metrics.aggregate_edr
        assert int(row[2]) == metrics.connectivity
        assert int(row[3]) == metrics.handovers_since_prev

    with open(out / "per_pair.csv", newline="") as handle:
        pair_rows = list(csv.reader(handle))
    assert pair_rows[0] == ["pair_id", "daily_ebits"]
    parsed = {pid: float(v) for pid, v in pair_rows[1:]}
    assert parsed == report.per_pair_daily

    with open(out / "report.json") as handle:
        payload = json.load(handle)
    assert payload["policy"] == config.policy
    assert payload["served_pair_count"] == report.served_pair_count
    assert payload["total_handovers"] == report.total_handovers
    assert payload["per_pair_daily"] == report.per_pair_daily


def test_write_case_study_round_trip(tmp_path):
    rows = case_study([0.0, 1000.0])
    path = tmp_path / "cs" / "case_study.csv"
    write_case_study(rows, str(path))
    with open(path, newline="") as handle:
        parsed = list(csv.reader(handle))
    assert parsed[0] == ["baseline_km", "primary_edr", "reflection_edr", "ratio"]
    assert len(parsed) == 3
    assert float(parsed[1][0]) == 0.0
    assert float(parsed[2][3]) == rows[1].ratio


def test_run_report_type_shape():
    report = run(polar_scenario(num_slots=2))
    assert isinstance(report, RunReport)
    assert set(report.per_pair_daily) == {"alpha-bravo", "alpha-carol", "bravo-carol"}
    assert report.series[0].handovers_since_prev == 0


def test_network_shares_the_propagated_satellite_ids():
    config = polar_scenario()
    network = build_network(config)
    snapshot = propagate(config.constellation, config.stations, 0, config.slot_duration)
    # ring by ring, every id the same object as the propagated one
    assert network.sat_ids == tuple(snapshot.sat_positions)
    assert network.sat_ids == tuple(
        satellite_id(r, k) for r in range(4) for k in range(10)
    )
    assert all(a is b for a, b in zip(network.sat_ids, snapshot.sat_positions))
    assert network.time == 0 and network.routes == {}
    assert network.sat_caps == network.reflector_caps == (2,) * 40
    assert network.station_ids == ("alpha", "bravo", "carol")
    assert network.gs_caps == (4, 4, 4)
    assert network.pair_ids == ("alpha-bravo", "alpha-carol", "bravo-carol")
    assert network.pair_stations == ((0, 1), (0, 2), (1, 2))
    assert network.pair_caps == (2, 2, 2)


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_every_slot_shares_the_run_network(monkeypatch, policy):
    """Each slot's instance is the run's network with that slot's routes:
    the id and cap tuples are the network's own objects, not copies."""
    networks, instances = [], []

    def recorded_network(config):
        networks.append(build_network(config))
        return networks[-1]

    flag, solver = POLICIES[policy]

    def recorded_solver(instance):
        instances.append(instance)
        return solver(instance)

    monkeypatch.setattr(simharness, "build_network", recorded_network)
    monkeypatch.setitem(POLICIES, policy, (flag, recorded_solver))
    run(replace(default_scenario(), policy=policy, num_slots=4))
    (network,) = networks
    assert [instance.time for instance in instances] == [0, 1, 2, 3]
    assert any(instance.routes for instance in instances)
    for instance in instances:
        for name in ("sat_ids", "sat_caps", "reflector_caps", "pair_stations"):
            assert getattr(instance, name) is getattr(network, name)
    assert network.routes == {}
    assert len(network.sat_ids) == 400


def test_the_aggregate_rate_sums_left_to_right(monkeypatch):
    # from Python 3.12 on, the built-in sum of these rates is compensated
    config = replace(default_scenario(), num_slots=1)
    pair_ids = simharness.build_network(config).pair_ids
    rates = {pid: 1e16 if n == 0 else 1.0 for n, pid in enumerate(pair_ids)}
    assert math.fsum(rates.values()) > 1e16
    monkeypatch.setattr(simharness, "pair_edr", lambda instance, allocation: rates)
    assert run(config).series[0].aggregate_edr == 1e16
