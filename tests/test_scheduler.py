"""Assignment policy tests with exhaustive-enumeration cross-checks."""

import hashlib
import itertools
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsatnet import orbital, scheduler, simharness
from qsatnet.config import apply_overrides, default_scenario
from qsatnet.environment import EnvironmentTable, WeatherRecord
from qsatnet.errors import (
    ConfigurationError,
    IngestionError,
    ModeError,
    SimulationError,
    StructuralError,
    UnknownIdError,
)
from qsatnet.ilpcore import GAP_LIMIT, SolveResult, brute_force_mip, solve_mip
from qsatnet.linkphys import OpticsParams, SourceParams, end_to_end_outcome
from qsatnet.orbital import ConstellationSnapshot, GroundStation, SatelliteSpec
from qsatnet.scheduler import (
    Allocation,
    NetworkSpec,
    PairSpec,
    PhysicsParams,
    SlotInstance,
    allocation_to_json,
    allocation_violations,
    build_reflection_weights,
    build_weights,
    pair_edr,
    solve_one_shot_maxmin,
    solve_primary_ratefair,
    solve_primary_ratesum,
    solve_reflection_ratefair,
    solve_reflection_ratesum,
    solve_stmr,
    solve_stsr,
    uncontended_max_edr,
    zero_allocation,
)

EARTH_RADIUS = 6371e3


def make_instance(
    omega,
    pair_stations,
    n_stations,
    sat_caps=None,
    gs_caps=None,
    pair_caps=None,
    reflector_caps=None,
    nu=None,
    time=0,
):
    n_sat = len(omega)
    n_pair = len(pair_stations)
    if sat_caps is None:
        sat_caps = (1,) * n_sat
    if pair_caps is None:
        pair_caps = (1,) * n_pair
    if gs_caps is None:
        base = max([1, *pair_caps])
        gs_caps = (base,) * n_stations
    if reflector_caps is None:
        reflector_caps = (1,) * n_sat
    return SlotInstance(
        time=time,
        sat_ids=tuple(f"s{i}" for i in range(n_sat)),
        station_ids=tuple(f"g{i}" for i in range(n_stations)),
        pair_ids=tuple(f"p{j}" for j in range(n_pair)),
        pair_stations=tuple(pair_stations),
        omega=tuple(tuple(float(v) for v in row) for row in omega),
        nu=nu,
        sat_caps=tuple(sat_caps),
        gs_caps=tuple(gs_caps),
        pair_caps=tuple(pair_caps),
        reflector_caps=tuple(reflector_caps),
    )


# --- independent enumeration oracles ---------------------------------------


def _feasible(instance, x_counts, y_counts):
    n_sat = instance.num_sats
    n_pair = instance.num_pairs
    source = [0] * n_sat
    relay = [0] * n_sat
    pair = [0] * n_pair
    for (i, j), c in x_counts.items():
        source[i] += c
        pair[j] += c
    for (i, k, j), c in y_counts.items():
        source[i] += c
        relay[k] += c
        pair[j] += c
    if any(source[i] > instance.sat_caps[i] for i in range(n_sat)):
        return False
    if any(relay[k] > instance.reflector_caps[k] for k in range(n_sat)):
        return False
    if any(pair[j] > instance.pair_caps[j] for j in range(n_pair)):
        return False
    for g in range(len(instance.station_ids)):
        load = sum(
            pair[j]
            for j, (a, b) in enumerate(instance.pair_stations)
            if g in (a, b)
        )
        if load > instance.gs_caps[g]:
            return False
    return True


def _enumerate_allocations(instance, include_reflection):
    x_keys = [
        (i, j)
        for i in range(instance.num_sats)
        for j in range(instance.num_pairs)
        if instance.omega[i][j] > 0
    ]
    y_keys = sorted(instance.nu) if (include_reflection and instance.nu) else []
    cap = max([1, *instance.sat_caps, *instance.pair_caps])
    ranges = [range(cap + 1)] * (len(x_keys) + len(y_keys))
    for values in itertools.product(*ranges):
        x_counts = {k: v for k, v in zip(x_keys, values) if v}
        y_counts = {
            k: v for k, v in zip(y_keys, values[len(x_keys):]) if v
        }
        if _feasible(instance, x_counts, y_counts):
            yield x_counts, y_counts


def brute_best_ratesum(instance, include_reflection):
    best = 0.0
    for x_counts, y_counts in _enumerate_allocations(instance, include_reflection):
        total = sum(instance.omega[i][j] * c for (i, j), c in x_counts.items())
        total += sum((instance.nu or {})[k] * c for k, c in y_counts.items())
        best = max(best, total)
    return best


def brute_best_maxmin(instance, f, fy):
    active = {j for i in range(instance.num_sats) for j in range(instance.num_pairs) if f[i][j] > 0}
    active |= {j for (_, _, j) in fy}
    if not active:
        return 0.0
    best = 0.0
    for x_counts, y_counts in _enumerate_allocations(instance, bool(fy)):
        per_pair = {j: 0.0 for j in active}
        ok = True
        for (i, j), c in x_counts.items():
            if j in per_pair:
                per_pair[j] += f[i][j] * c
            elif c:
                ok = False
        for key, c in y_counts.items():
            if key[2] in per_pair:
                per_pair[key[2]] += fy.get(key, 0.0) * c
            elif c:
                ok = False
        if ok:
            best = max(best, min(per_pair.values()))
    return best


def random_instance(rng, max_sats=3, max_pairs=3, max_cap=2, reflection=False):
    n_sat = rng.randint(1, max_sats)
    n_pair = rng.randint(1, max_pairs)
    n_gs = rng.randint(2, 4)
    pair_stations = []
    for _ in range(n_pair):
        a, b = rng.sample(range(n_gs), 2)
        pair_stations.append((a, b))
    pair_caps = tuple(rng.randint(1, max_cap) for _ in range(n_pair))
    gs_caps = []
    for g in range(n_gs):
        incident = [pair_caps[j] for j, ab in enumerate(pair_stations) if g in ab]
        floor = max(incident) if incident else 1
        gs_caps.append(rng.randint(floor, floor + max_cap))
    sat_caps = tuple(rng.randint(0, max_cap) for _ in range(n_sat))
    omega = [
        [round(rng.uniform(0.5, 10.0), 3) if rng.random() < 0.5 else 0.0 for _ in range(n_pair)]
        for _ in range(n_sat)
    ]
    nu = None
    if reflection:
        nu = {}
        for i in range(n_sat):
            for k in range(n_sat):
                if i != k:
                    for j in range(n_pair):
                        if rng.random() < 0.3:
                            nu[(i, k, j)] = round(rng.uniform(0.5, 10.0), 3)
    return make_instance(
        omega,
        pair_stations,
        n_gs,
        sat_caps=sat_caps,
        gs_caps=tuple(gs_caps),
        pair_caps=pair_caps,
        reflector_caps=tuple(rng.randint(0, max_cap) for _ in range(n_sat)),
        nu=nu,
    )


# --- rate-sum ----------------------------------------------------------------


def test_ratesum_picks_better_disjoint_pair():
    inst = make_instance([[5.0, 3.0]], [(0, 1), (2, 3)], 4)
    alloc = solve_primary_ratesum(inst)
    assert alloc.objective == 5.0
    assert alloc.x == ((1, 0),)
    assert allocation_violations(inst, alloc) == []


def test_ratesum_shared_station_receiver_limit():
    inst = make_instance(
        [[1.0, 0.0], [0.0, 1.0]],
        [(0, 1), (0, 2)],
        3,
        sat_caps=(1, 1),
        gs_caps=(1, 1, 1),
    )
    alloc = solve_primary_ratesum(inst)
    assert alloc.objective == 1.0
    served = sum(sum(row) for row in alloc.x)
    assert served == 1


def test_ratesum_matches_enumeration():
    rng = random.Random(4021)
    solved = 0
    for _ in range(60):
        inst = random_instance(rng)
        alloc = solve_primary_ratesum(inst)
        assert allocation_violations(inst, alloc) == []
        expected = brute_best_ratesum(inst, include_reflection=False)
        assert alloc.objective == pytest.approx(expected, abs=1e-9)
        solved += 1
    assert solved == 60


def test_ratesum_deterministic():
    rng = random.Random(77)
    inst = random_instance(rng)
    assert solve_primary_ratesum(inst) == solve_primary_ratesum(inst)


# --- max-min -----------------------------------------------------------------


def direct_routes(inst):
    return scheduler._routes(inst.omega, {})


def test_maxmin_independent_pairs_floor():
    inst = make_instance(
        [[5.0, 0.0], [0.0, 3.0]],
        [(0, 1), (2, 3)],
        4,
        sat_caps=(1, 1),
    )
    alloc, floor = solve_one_shot_maxmin(inst, direct_routes(inst))
    assert floor == pytest.approx(3.0)
    assert alloc.x == ((1, 0), (0, 1))


def test_maxmin_single_pair_equals_ratesum():
    rng = random.Random(5150)
    for _ in range(10):
        inst = random_instance(rng, max_pairs=1)
        _, floor = solve_one_shot_maxmin(inst, direct_routes(inst))
        assert floor == pytest.approx(
            solve_primary_ratesum(inst).objective, abs=1e-9
        )


def test_maxmin_zero_weights_gives_zero_allocation():
    inst = make_instance([[0.0]], [(0, 1)], 2)
    alloc, floor = solve_one_shot_maxmin(inst, direct_routes(inst))
    assert floor == 0.0
    assert alloc == zero_allocation(inst)


def test_maxmin_matches_enumeration():
    rng = random.Random(9011)
    for _ in range(40):
        inst = random_instance(rng, max_sats=3, max_pairs=2)
        _, floor = solve_one_shot_maxmin(inst, direct_routes(inst))
        expected = brute_best_maxmin(inst, inst.omega, {})
        assert floor == pytest.approx(expected, abs=1e-9)
    relayed = 0
    for _ in range(60):
        inst = random_instance(rng, max_sats=3, max_pairs=2, reflection=True)
        routes = scheduler._routes(inst.omega, inst.nu)
        relayed += any(k is not None for _, k, _ in routes)
        _, floor = solve_one_shot_maxmin(inst, routes)
        expected = brute_best_maxmin(inst, inst.omega, inst.nu)
        assert floor == pytest.approx(expected, abs=1e-9)
    assert relayed >= 20


# --- uncontended rate and normalized routes --------------------------------


def test_uncontended_uses_all_transmitters():
    inst = make_instance(
        [[4.0]],
        [(0, 1)],
        2,
        sat_caps=(2,),
        gs_caps=(2, 2),
        pair_caps=(2,),
    )
    assert uncontended_max_edr(inst, 0) == pytest.approx(8.0)
    assert uncontended_max_edr(inst, "p0") == pytest.approx(8.0)


def test_uncontended_ignores_other_pairs():
    inst = make_instance(
        [[4.0, 9.0]],
        [(0, 1), (2, 3)],
        4,
        sat_caps=(1,),
    )
    assert uncontended_max_edr(inst, 0) == pytest.approx(4.0)


def test_uncontended_reflection_toggle():
    inst = make_instance(
        [[0.0], [0.0]],
        [(0, 1)],
        2,
        sat_caps=(1, 1),
        nu={(0, 1, 0): 7.0},
    )
    assert uncontended_max_edr(inst, 0, include_reflection=True) == pytest.approx(7.0)
    assert uncontended_max_edr(inst, 0, include_reflection=False) == 0.0


def test_uncontended_rejects_unknown_pair_id():
    inst = make_instance([[4.0]], [(0, 1)], 2)
    with pytest.raises(ConfigurationError, match="no-such-pair"):
        uncontended_max_edr(inst, "no-such-pair")
    with pytest.raises(ConfigurationError, match="out of range"):
        uncontended_max_edr(inst, 1)


def test_ratefair_normalizes_routes_by_uncontended_best(monkeypatch):
    # pair 1 has no room, so its uncontended best is zero and its route
    # never reaches a max-min round; pair 0's routes are divided by 4
    inst = make_instance(
        [[4.0, 6.0], [2.0, 0.0]], [(0, 1), (2, 3)], 4, sat_caps=(1, 1), pair_caps=(1, 0)
    )
    seen = []
    real = scheduler.solve_one_shot_maxmin

    def recorded(instance, routes):
        seen.append(dict(routes))
        return real(instance, routes)

    monkeypatch.setattr(scheduler, "solve_one_shot_maxmin", recorded)
    solve_primary_ratefair(inst)
    assert seen == [{(0, None, 0): 1.0, (1, None, 0): 0.5}]


# --- rate-fair ---------------------------------------------------------------


def test_ratefair_lifts_worst_pair():
    # one satellite, two transmitters; the greedy solution spends both on
    # the double-capacity pair while the fair one serves each pair once
    inst = make_instance(
        [[10.0, 1.0]],
        [(0, 1), (2, 3)],
        4,
        sat_caps=(2,),
        gs_caps=(2, 2, 2, 2),
        pair_caps=(2, 1),
    )
    greedy = solve_primary_ratesum(inst)
    fair = solve_primary_ratefair(inst)
    assert greedy.objective == pytest.approx(20.0)
    assert fair.x == ((1, 1),)
    assert fair.objective == pytest.approx(11.0)

    a_values = [uncontended_max_edr(inst, j, include_reflection=False) for j in (0, 1)]

    def min_fraction(alloc):
        rates = pair_edr(inst, alloc)
        return min(
            rates[f"p{j}"] / a_values[j] for j in (0, 1) if a_values[j] > 0
        )

    assert min_fraction(fair) == pytest.approx(0.5)
    assert min_fraction(greedy) == 0.0


def test_ratefair_dominance_invariants():
    rng = random.Random(31337)
    for _ in range(40):
        inst = random_instance(rng)
        greedy = solve_primary_ratesum(inst)
        fair = solve_primary_ratefair(inst)
        assert allocation_violations(inst, fair) == []
        assert greedy.objective >= fair.objective - 1e-9
        a_values = [
            uncontended_max_edr(inst, j, include_reflection=False)
            for j in range(inst.num_pairs)
        ]
        active = [j for j in range(inst.num_pairs) if a_values[j] > 0]
        if not active:
            continue

        def min_fraction(alloc):
            rates = pair_edr(inst, alloc)
            return min(rates[inst.pair_ids[j]] / a_values[j] for j in active)

        assert min_fraction(fair) >= min_fraction(greedy) - 1e-9


def test_ratefair_deterministic():
    rng = random.Random(88)
    inst = random_instance(rng, max_sats=3, max_pairs=3)
    assert solve_primary_ratefair(inst) == solve_primary_ratefair(inst)


# --- reflection policies -----------------------------------------------------


def test_reflection_single_triple():
    inst = make_instance(
        [[0.0], [0.0]],
        [(0, 1)],
        2,
        sat_caps=(1, 1),
        nu={(0, 1, 0): 7.0},
    )
    alloc = solve_reflection_ratesum(inst)
    assert alloc.objective == pytest.approx(7.0)
    assert alloc.y == ((0, 1, 0, 1),)
    assert solve_primary_ratesum(inst).objective == 0.0


def test_reflection_empty_nu_matches_primary():
    rng = random.Random(606)
    for _ in range(10):
        inst = random_instance(rng)
        inst_reflect = make_instance(
            inst.omega,
            inst.pair_stations,
            len(inst.station_ids),
            sat_caps=inst.sat_caps,
            gs_caps=inst.gs_caps,
            pair_caps=inst.pair_caps,
            reflector_caps=inst.reflector_caps,
            nu={},
        )
        assert solve_reflection_ratesum(inst_reflect).objective == pytest.approx(
            solve_primary_ratesum(inst).objective
        )


def test_reflection_ratesum_matches_enumeration():
    rng = random.Random(7321)
    for _ in range(40):
        inst = random_instance(rng, max_sats=3, max_pairs=2, reflection=True)
        alloc = solve_reflection_ratesum(inst)
        assert allocation_violations(inst, alloc) == []
        expected = brute_best_ratesum(inst, include_reflection=True)
        assert alloc.objective == pytest.approx(expected, abs=1e-9)


def test_reflection_dominates_primary():
    rng = random.Random(2718)
    for _ in range(30):
        inst = random_instance(rng, reflection=True)
        assert (
            solve_reflection_ratesum(inst).objective
            >= solve_primary_ratesum(inst).objective - 1e-9
        )


def test_reflection_ratefair_feasible_and_fair():
    rng = random.Random(414)
    for _ in range(20):
        inst = random_instance(rng, max_sats=3, max_pairs=2, reflection=True)
        fair = solve_reflection_ratefair(inst)
        assert allocation_violations(inst, fair) == []
        assert (
            solve_reflection_ratesum(inst).objective >= fair.objective - 1e-9
        )


# --- unit-capacity reductions ------------------------------------------------


def test_stsr_no_conflicts_selects_everything():
    inst = make_instance(
        [[5.0, 0.0], [0.0, 3.0]],
        [(0, 1), (2, 3)],
        4,
        sat_caps=(1, 1),
        gs_caps=(1, 1, 1, 1),
    )
    alloc = solve_stsr(inst)
    assert alloc.objective == pytest.approx(8.0)
    assert alloc.x == ((1, 0), (0, 1))


def test_stsr_requires_unit_caps():
    inst = make_instance([[1.0]], [(0, 1)], 2, sat_caps=(2,))
    with pytest.raises(ModeError):
        solve_stsr(inst)


def test_stsr_matches_ratesum():
    rng = random.Random(11213)
    for _ in range(40):
        inst = random_instance(rng, max_cap=1)
        inst = make_instance(
            inst.omega,
            inst.pair_stations,
            len(inst.station_ids),
            sat_caps=(1,) * inst.num_sats,
            gs_caps=(1,) * len(inst.station_ids),
            pair_caps=(1,) * inst.num_pairs,
        )
        assert solve_stsr(inst).objective == pytest.approx(
            solve_primary_ratesum(inst).objective, abs=1e-9
        )


def test_stmr_matching_example():
    inst = make_instance(
        [[3.0, 1.0], [2.0, 4.0]],
        [(0, 1), (2, 3)],
        4,
        sat_caps=(1, 1),
        gs_caps=(2, 2, 2, 2),
    )
    alloc = solve_stmr(inst)
    assert alloc.objective == pytest.approx(7.0)
    assert alloc.x == ((1, 0), (0, 1))


def test_stmr_rejects_binding_receivers():
    inst = make_instance(
        [[1.0, 1.0], [1.0, 1.0]],
        [(0, 1), (0, 2)],
        3,
        sat_caps=(1, 1),
        gs_caps=(1, 1, 1),
    )
    with pytest.raises(ModeError):
        solve_stmr(inst)


def test_stmr_matches_ratesum():
    rng = random.Random(161803)
    for _ in range(40):
        inst = random_instance(rng)
        receiver_cap = max([sum(inst.sat_caps), 1, *inst.pair_caps])
        inst = make_instance(
            inst.omega,
            inst.pair_stations,
            len(inst.station_ids),
            sat_caps=inst.sat_caps,
            gs_caps=(receiver_cap,) * len(inst.station_ids),
            pair_caps=inst.pair_caps,
        )
        alloc = solve_stmr(inst)
        assert allocation_violations(inst, alloc) == []
        assert alloc.objective == pytest.approx(
            solve_primary_ratesum(inst).objective, abs=1e-9
        )


# --- weight construction -----------------------------------------------------


PHYSICS = PhysicsParams(
    source=SourceParams(mean_photon_number=0.0078, repetition_rate=1e9),
    optics=OpticsParams(
        tx_radius=0.1,
        rx_radius=1.0,
        wavelength=737e-9,
        tx_efficiency=0.7,
        rx_efficiency=0.7,
    ),
)


def overhead_scene(altitude=1000e3, n_sats=1, eta=0.9, irradiance=0.0):
    top = (EARTH_RADIUS + altitude, 0.0, 0.0)
    snapshot = ConstellationSnapshot(
        time=0,
        sat_positions={f"s{i}": top for i in range(n_sats)},
        gs_positions={"ga": (EARTH_RADIUS, 0.0, 0.0), "gb": (EARTH_RADIUS, 0.0, 0.0)},
        earth_radius=EARTH_RADIUS,
    )
    network = NetworkSpec(
        satellites=tuple(
            SatelliteSpec(id=f"s{i}", ring_index=0, slot_index=i, altitude=altitude)
            for i in range(n_sats)
        ),
        stations=(
            GroundStation(id="ga", latitude=0.0, longitude=0.0),
            GroundStation(id="gb", latitude=0.0, longitude=0.5),
        ),
        pairs=(PairSpec(id="ab", station_a="ga", station_b="gb"),),
    )
    records = {}
    for sid in ("ga", "gb"):
        records[(sid, 6, 0)] = WeatherRecord(
            station_id=sid,
            month=6,
            hour_utc=0,
            zenith_transmissivity=eta,
            cloud_cover=0.0,
            solar_irradiance=irradiance,
        )
    return snapshot, network, EnvironmentTable(records=records)


def test_build_weights_overhead_link():
    snapshot, network, env = overhead_scene()
    inst = build_weights(snapshot, network, PHYSICS, env, 20.0, 0.85, month=6)
    assert inst.omega[0][0] > 0
    assert inst.sat_ids == ("s0",)
    assert inst.pair_ids == ("ab",)


def test_build_weights_fidelity_gate_records_chi():
    # the overhead link's fidelity lies between the two thresholds: the
    # lower one admits the link at its rate, the higher one gates it out
    snapshot, network, env = overhead_scene()
    admitted = build_weights(snapshot, network, PHYSICS, env, 20.0, 0.85, month=6)
    gated = build_weights(snapshot, network, PHYSICS, env, 20.0, 0.9999, month=6)
    assert admitted.omega[0][0] > 0
    assert gated.omega[0][0] == 0.0
    _, arm = scheduler._slot_links(snapshot, network, PHYSICS, env, 20.0, 6, 0.0)
    outcome = end_to_end_outcome(PHYSICS.source, arm("s0", "ga"), arm("s0", "gb"))
    assert 0.85 < outcome.fidelity < 0.9999
    assert outcome.edr == admitted.omega[0][0]


def test_build_weights_elevation_gate():
    snapshot, network, env = overhead_scene()
    blocked = ConstellationSnapshot(
        time=0,
        sat_positions={"s0": (-(EARTH_RADIUS + 1000e3), 0.0, 0.0)},
        gs_positions=snapshot.gs_positions,
        earth_radius=EARTH_RADIUS,
    )
    inst = build_weights(blocked, network, PHYSICS, env, 20.0, 0.85, month=6)
    assert inst.omega[0][0] == 0.0


def test_build_weights_missing_weather_only_matters_when_visible():
    snapshot, network, env = overhead_scene()
    empty = EnvironmentTable(records={})
    with pytest.raises(IngestionError, match="ga|gb"):
        build_weights(snapshot, network, PHYSICS, empty, 20.0, 0.85, month=6)
    blocked = ConstellationSnapshot(
        time=0,
        sat_positions={"s0": (-(EARTH_RADIUS + 1000e3), 0.0, 0.0)},
        gs_positions=snapshot.gs_positions,
        earth_radius=EARTH_RADIUS,
    )
    inst = build_weights(blocked, network, PHYSICS, empty, 20.0, 0.85, month=6)
    assert all(v == 0.0 for row in inst.omega for v in row)


def test_reflection_weights_colocated_relay_identity():
    snapshot, network, env = overhead_scene(n_sats=2)
    inst = build_reflection_weights(
        snapshot, network, PHYSICS, env, 20.0, 0.85, mirror_efficiency=1.0, month=6
    )
    assert inst.nu is not None
    assert inst.nu[(0, 1, 0)] == inst.omega[0][0]
    assert inst.nu[(1, 0, 0)] == inst.omega[1][0]


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(snapshot, *ids):
        calls.append(ids)
        return real(snapshot, *ids)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_reflection_weights_reuse_the_direct_link_table(monkeypatch):
    snapshot, network, env = overhead_scene(n_sats=3)
    # the reversed pair needs every (source, relay) sight line a second time
    network = replace(
        network,
        pairs=network.pairs + (PairSpec(id="ba", station_a="gb", station_b="ga"),),
    )
    downlinks = _count_calls(monkeypatch, orbital, "link_geometry")
    sight_lines = _count_calls(monkeypatch, orbital, "inter_satellite_visible")
    validated = []
    real_check = scheduler.SlotInstance.__post_init__

    def counted_check(instance):
        validated.append(instance.nu)
        real_check(instance)

    monkeypatch.setattr(scheduler.SlotInstance, "__post_init__", counted_check)
    inst = build_reflection_weights(
        snapshot, network, PHYSICS, env, 20.0, 0.85, mirror_efficiency=1.0, month=6
    )
    assert len(downlinks) == len(network.stations) * len(network.satellites)
    assert len(sight_lines) == len(set(sight_lines)) == 3 * 2
    assert len(inst.nu) == 2 * 3 * 2
    # the instance is built, and its tables checked, once
    assert validated == [inst.nu]


def test_reflection_weights_lossy_mirror_reduces_rate():
    snapshot, network, env = overhead_scene(n_sats=2)
    inst = build_reflection_weights(
        snapshot, network, PHYSICS, env, 20.0, 0.85, mirror_efficiency=0.5, month=6
    )
    assert inst.nu[(0, 1, 0)] < inst.omega[0][0]


def test_budget_limited_solve_fails_its_slot(monkeypatch):
    """An answer cut short by the node budget is an error, never a result."""

    def stopped_at_budget(mip):
        exact = solve_mip(mip)
        return SolveResult(GAP_LIMIT, exact.objective_value, exact.assignment, gap=0.5)

    monkeypatch.setattr(scheduler, "solve_mip", stopped_at_budget)
    inst = make_instance([[0.0], [0.0]], [(0, 1)], 2, nu={(0, 1, 0): 7.0})
    with pytest.raises(StructuralError, match=GAP_LIMIT):
        solve_reflection_ratesum(inst)

    # slot 0 solves exactly (one rate-sum solve per slot), slot 1 does not
    answers = iter([solve_mip])
    monkeypatch.setattr(
        scheduler, "solve_mip", lambda mip: next(answers, stopped_at_budget)(mip)
    )
    config = replace(default_scenario(), num_slots=3, policy="reflection_ratesum")
    with pytest.raises(SimulationError, match=GAP_LIMIT) as failure:
        simharness.run(config)
    assert failure.value.slot == 1


# SHA-256 over repr((objective, constraints, variable_bounds, integer_vars))
# of every MIP the policies hand to the solver, in call order, with each
# constraint row written out densely
PINNED_MIP_COUNT = 2523
PINNED_MIP_DIGEST = "2fdb4a3700b2822c271872ceb0b98823c3a6fd87be428329c234154302d43eb7"


def test_mip_sequence_matches_pinned_digest(monkeypatch):
    """Refactors of the assembly must hand the solver the very same MIPs."""
    digest = hashlib.sha256()
    count = 0

    def recorded(mip):
        nonlocal count
        count += 1
        lp = mip.base
        constraints = []
        for row, relation, rhs in lp.constraints:
            dense = [0.0] * lp.num_vars
            for j, c in zip(row.columns, row.coefficients):
                dense[j] = c
            constraints.append((tuple(dense), relation, rhs))
        key = (lp.objective, tuple(constraints), lp.variable_bounds, mip.integer_vars)
        digest.update(repr(key).encode())
        return solve_mip(mip)

    monkeypatch.setattr(scheduler, "solve_mip", recorded)
    reduced = apply_overrides(
        default_scenario(),
        {
            "constellation.rings": "4",
            "constellation.sats_per_ring": "10",
            "slot_duration": "60",
            "weather_seed": "23",
            "num_slots": "240",
        },
    )
    for policy in (
        "reflection_ratefair",
        "primary_ratefair",
        "reflection_ratesum",
        "primary_ratesum",
    ):
        simharness.run(replace(reduced, policy=policy))
    assert (count, digest.hexdigest()) == (PINNED_MIP_COUNT, PINNED_MIP_DIGEST)


# --- instance validation and serialization -----------------------------------


def test_instance_rejects_receiver_below_pair_cap():
    with pytest.raises(ConfigurationError, match="receiver cap"):
        make_instance([[1.0]], [(0, 1)], 2, gs_caps=(1, 1), pair_caps=(2,))


def test_instance_rejects_self_relay():
    with pytest.raises(StructuralError):
        make_instance([[1.0]], [(0, 1)], 2, nu={(0, 0, 0): 1.0})


def test_allocation_checker_flags_overload():
    inst = make_instance([[1.0, 1.0]], [(0, 1), (2, 3)], 4, sat_caps=(1,))
    bad = Allocation(x=((1, 1),), y=(), objective=2.0)
    messages = allocation_violations(inst, bad)
    assert any("exceed" in m for m in messages)


def test_allocation_json_shape():
    inst = make_instance([[5.0, 3.0]], [(0, 1), (2, 3)], 4)
    alloc = solve_primary_ratesum(inst)
    payload = allocation_to_json(inst, alloc, "primary_ratesum")
    assert payload["t"] == 0
    assert payload["policy"] == "primary_ratesum"
    assert payload["x"] == [[1, 0]]
    assert payload["y"] == []
    assert payload["objective"] == pytest.approx(5.0)
    assert payload["per_pair_edr"] == {"p0": 5.0, "p1": 0.0}


def test_allocation_json_reflection_tensor():
    inst = make_instance(
        [[0.0], [0.0]],
        [(0, 1)],
        2,
        sat_caps=(1, 1),
        nu={(0, 1, 0): 7.0},
    )
    alloc = solve_reflection_ratesum(inst)
    payload = allocation_to_json(inst, alloc, "reflection_ratesum")
    assert payload["y"][0][1][0] == 1
    assert payload["per_pair_edr"]["p0"] == pytest.approx(7.0)


# --- visibility screen --------------------------------------------------------


def _brute_links(snapshot, sat_ids, station_ids, min_elevation):
    """The gated table from scalar geometry on every cell."""
    table = {}
    for gs in station_ids:
        table[gs] = {}
        for sat in sat_ids:
            geom = orbital.link_geometry(snapshot, sat, gs)
            if geom.elevation >= min_elevation:
                table[gs][sat] = geom
    return table


def _assert_same_table(screened, brute):
    assert screened == brute
    assert list(screened) == list(brute)
    assert [list(row) for row in screened.values()] == [
        list(row) for row in brute.values()
    ]


def test_screen_calls_link_geometry_only_near_visible_cells(monkeypatch):
    config = default_scenario()
    network = simharness.build_network(config)
    snapshot = orbital.propagate(
        config.constellation, config.stations, 0, config.slot_duration
    )
    sat_ids = [s.id for s in network.satellites]
    station_ids = [g.id for g in network.stations]
    brute = _brute_links(snapshot, sat_ids, station_ids, config.min_elevation)

    downlinks = _count_calls(monkeypatch, orbital, "link_geometry")
    build_weights(
        snapshot,
        network,
        config.physics,
        simharness.resolve_weather(config),
        config.min_elevation,
        config.fidelity_threshold,
        month=config.month,
    )
    visible = sum(len(row) for row in brute.values())
    assert 0 < visible <= len(downlinks) < len(station_ids) * len(sat_ids)
    _assert_same_table(
        orbital.visible_links(snapshot, sat_ids, station_ids, config.min_elevation),
        brute,
    )


def _position_at_elevation(gs_pos, elevation, azimuth, slant):
    """The point ``slant`` meters from a station at the given elevation."""
    norm = math.sqrt(sum(c * c for c in gs_pos))
    up = tuple(c / norm for c in gs_pos)
    helper = (0.0, 0.0, 1.0) if abs(up[2]) < 0.9 else (1.0, 0.0, 0.0)
    east = (
        helper[1] * up[2] - helper[2] * up[1],
        helper[2] * up[0] - helper[0] * up[2],
        helper[0] * up[1] - helper[1] * up[0],
    )
    east_norm = math.sqrt(sum(c * c for c in east))
    east = tuple(c / east_norm for c in east)
    north = (
        up[1] * east[2] - up[2] * east[1],
        up[2] * east[0] - up[0] * east[2],
        up[0] * east[1] - up[1] * east[0],
    )
    e, a = math.radians(elevation), math.radians(azimuth)
    return tuple(
        g + slant * (math.cos(e) * (math.cos(a) * x + math.sin(a) * y) + math.sin(e) * z)
        for g, x, y, z in zip(gs_pos, east, north, up)
    )


_latitudes = st.floats(-90.0, 90.0)
_longitudes = st.floats(-180.0, 180.0, exclude_max=True)


@st.composite
def _skies(draw):
    """A snapshot, its ids and a mask, with some cells within 1e-9 deg of it."""
    mask = draw(st.floats(0.0, 90.0, exclude_max=True))
    gs_positions = {}
    for n in range(draw(st.integers(1, 3))):
        unit = orbital.latlon_to_unit(draw(_latitudes), draw(_longitudes))
        gs_positions[f"g{n}"] = tuple(EARTH_RADIUS * c for c in unit)
    sat_positions = {}
    for n in range(draw(st.integers(0, 6))):
        unit = orbital.latlon_to_unit(draw(_latitudes), draw(_longitudes))
        radius = EARTH_RADIUS + draw(st.floats(300e3, 2000e3))
        sat_positions[f"s{n}"] = tuple(radius * c for c in unit)
    for n in range(draw(st.integers(0, 4))):
        gs = draw(st.sampled_from(sorted(gs_positions)))
        sat_positions[f"m{n}"] = _position_at_elevation(
            gs_positions[gs],
            mask + draw(st.floats(-1e-9, 1e-9)),
            draw(st.floats(0.0, 360.0)),
            draw(st.floats(100e3, 3000e3)),
        )
    snapshot = ConstellationSnapshot(
        time=0,
        sat_positions=sat_positions,
        gs_positions=gs_positions,
        earth_radius=EARTH_RADIUS,
    )
    sat_ids = draw(st.permutations(sorted(sat_positions)))
    return snapshot, sat_ids, sorted(gs_positions), mask


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_skies())
def test_screen_equals_brute_force_table(sky):
    snapshot, sat_ids, station_ids, mask = sky
    _assert_same_table(
        orbital.visible_links(snapshot, sat_ids, station_ids, mask),
        _brute_links(snapshot, sat_ids, station_ids, mask),
    )


def test_build_weights_unknown_ids_and_coincident_link():
    snapshot, network, env = overhead_scene(n_sats=2)
    no_sat = replace(snapshot, sat_positions={"s0": snapshot.sat_positions["s0"]})
    with pytest.raises(UnknownIdError, match="unknown satellite id 's1'"):
        build_weights(no_sat, network, PHYSICS, env, 20.0, 0.85, month=6)
    no_station = replace(snapshot, gs_positions={"ga": snapshot.gs_positions["ga"]})
    with pytest.raises(UnknownIdError, match="unknown ground station id 'gb'"):
        build_weights(no_station, network, PHYSICS, env, 20.0, 0.85, month=6)
    coincident = replace(
        snapshot, sat_positions={"s0": (EARTH_RADIUS, 0.0, 0.0), "s1": (0.0, 0.0, 0.0)}
    )
    with pytest.raises(ConfigurationError, match="coincide"):
        build_weights(coincident, network, PHYSICS, env, 20.0, 0.85, month=6)


# --- row-skipping scans against their dense references ----------------------


def _dense_support(instance, x_weights, y_weights):
    direct = [
        (i, None, j)
        for i in range(instance.num_sats)
        for j in range(instance.num_pairs)
        if x_weights[i][j] > 0 and scheduler._variable_upper(instance, (i, None, j)) > 0
    ]
    relayed = [
        key
        for key in sorted(y_weights)
        if y_weights[key] > 0 and scheduler._variable_upper(instance, key) > 0
    ]
    return direct + relayed


def _dense_pair_edr(instance, allocation):
    totals = {pid: 0.0 for pid in instance.pair_ids}
    for i in range(instance.num_sats):
        for j in range(instance.num_pairs):
            if allocation.x[i][j]:
                totals[instance.pair_ids[j]] += instance.omega[i][j] * allocation.x[i][j]
    for (i, k, j, count) in allocation.y:
        totals[instance.pair_ids[j]] += (instance.nu or {})[(i, k, j)] * count
    return totals


def _dense_serving_sets(instance, allocation):
    servers = {pid: set() for pid in instance.pair_ids}
    for i in range(instance.num_sats):
        for j in range(instance.num_pairs):
            if allocation.x[i][j] > 0:
                servers[instance.pair_ids[j]].add(instance.sat_ids[i])
    for (i, k, j, count) in allocation.y:
        if count > 0:
            servers[instance.pair_ids[j]].add((instance.sat_ids[i], instance.sat_ids[k]))
    return {pid: frozenset(s) for pid, s in servers.items()}


def _dense_priced(instance, counts):
    direct = sorted((i, j, c) for (i, k, j), c in counts.items() if k is None)
    y = sorted((i, k, j, c) for (i, k, j), c in counts.items() if k is not None)
    x = [[0] * instance.num_pairs for _ in range(instance.num_sats)]
    for i, j, c in direct:
        x[i][j] = c
    objective = float(sum(instance.omega[i][j] * c for i, j, c in direct))
    if y:
        objective += sum(instance.nu[(i, k, j)] * c for i, k, j, c in y)
    return Allocation(x=tuple(tuple(row) for row in x), y=tuple(y), objective=objective)


def _dense_connectivity_count(instance):
    return sum(
        1
        for j in range(instance.num_pairs)
        if any(instance.omega[i][j] > 0 for i in range(instance.num_sats))
    )


def _sparse_rows(rng, n_rows, n_cols, value):
    """Rows of ``value()`` draws, signed zeros, and whole zero rows."""
    rows = []
    for _ in range(n_rows):
        if rng.random() < 0.4:
            rows.append(tuple(rng.choice((0.0, -0.0)) for _ in range(n_cols)))
        else:
            rows.append(
                tuple(
                    value() if rng.random() < 0.4 else rng.choice((0.0, -0.0))
                    for _ in range(n_cols)
                )
            )
    return rows


def test_row_skipping_scans_match_dense_references():
    rng = random.Random(60606)
    for _ in range(300):
        base = random_instance(rng, max_sats=6, max_pairs=4, reflection=True)
        n_sat, n_pair = base.num_sats, base.num_pairs
        inst = replace(
            base,
            omega=tuple(
                _sparse_rows(rng, n_sat, n_pair, lambda: rng.uniform(0.1, 10.0))
            ),
        )
        counts = _sparse_rows(rng, n_sat, n_pair, lambda: rng.randint(1, 2))
        x = tuple(tuple(int(c) for c in row) for row in counts)
        y = tuple(
            (i, k, j, rng.randint(0, 2))
            for (i, k, j) in sorted(inst.nu)
            if rng.random() < 0.5
        )
        allocation = Allocation(x=x, y=y, objective=0.0)
        weights = _sparse_rows(
            rng, n_sat, n_pair, lambda: rng.choice((rng.uniform(0.1, 5.0), math.nan))
        )

        for x_weights in (inst.omega, weights):
            support = scheduler._support(inst, scheduler._routes(x_weights, inst.nu))
            assert list(support) == _dense_support(inst, x_weights, inst.nu)
            assert all(
                room == scheduler._variable_upper(inst, route)
                for route, room in support.items()
            )
        got, want = pair_edr(inst, allocation), _dense_pair_edr(inst, allocation)
        assert list(got) == list(want)
        assert all(got[pid] == want[pid] for pid in want)
        assert simharness.serving_sets(inst, allocation) == _dense_serving_sets(
            inst, allocation
        )
        counts = dict(scheduler.served_routes(allocation))
        priced, dense = scheduler._priced(inst, counts), _dense_priced(inst, counts)
        assert priced == dense
        assert repr(priced.objective) == repr(dense.objective)
        for instance in (inst, replace(inst, omega=tuple(weights))):
            assert simharness.connectivity_count(
                instance
            ) == _dense_connectivity_count(instance)


# --- policy properties --------------------------------------------------------


POLICIES = (
    solve_primary_ratesum,
    solve_reflection_ratesum,
    solve_primary_ratefair,
    solve_reflection_ratefair,
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_policy_properties(rng):
    inst = random_instance(rng, max_sats=4, max_pairs=3, max_cap=2, reflection=True)
    problems = []

    def recorded(mip):
        problems.append(mip)
        return solve_mip(mip)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scheduler, "solve_mip", recorded)
        primary_sum = solve_primary_ratesum(inst)
    allocations = [primary_sum] + [policy(inst) for policy in POLICIES[1:]]
    for allocation in allocations:
        assert allocation_violations(inst, allocation) == []
    _, reflection_sum, primary_fair, reflection_fair = allocations

    def at_least(big, small):
        return big.objective >= small.objective - 1e-9 * abs(small.objective)

    assert at_least(reflection_sum, primary_sum)
    assert at_least(primary_sum, primary_fair)
    assert at_least(reflection_sum, reflection_fair)

    # rate-sum solves one MIP, or none when no variable has room
    assert len(problems) <= 1
    expected = brute_force_mip(problems[0]).objective_value if problems else 0.0
    assert primary_sum.objective == pytest.approx(expected, rel=1e-9, abs=1e-12)
