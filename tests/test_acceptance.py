"""Acceptance gate: nine end-to-end checks with pinned tolerances.

Each check prints one CRITERION n: PASS/FAIL line and enforces its own
runtime budget.  The solver checks compare against exhaustive oracles
built here from first principles.
"""

import itertools
import json
import math
import random
import time
from contextlib import contextmanager

import pytest

from qsatnet.cli import main
from qsatnet.config import save_scenario, scenario_from_dict
from qsatnet.environment import atmospheric_transmissivity
from qsatnet.ilpcore import (
    LinearProgram,
    MipProblem,
    brute_force_mip,
    constraint_violations,
    hungarian,
    mwis_exact,
    solve_mip,
)
from qsatnet.linkphys import (
    ArmChannel,
    OpticsParams,
    SourceParams,
    dark_click_prob,
    emission_prob,
    emission_tail,
    end_to_end_outcome,
    free_space_transmissivity,
    rate_fidelity_curve,
)
from qsatnet.scheduler import (
    SlotInstance,
    pair_edr,
    solve_primary_ratefair,
    solve_primary_ratesum,
    solve_reflection_ratesum,
    solve_stmr,
    solve_stsr,
    uncontended_max_edr,
)
from qsatnet.simharness import case_study, resolve_weather, run


@contextmanager
def stamp(number, budget):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget, f"runtime {elapsed:.1f}s exceeds budget {budget}s"
    except BaseException:
        print(f"CRITERION {number}: FAIL")
        raise
    print(f"CRITERION {number}: PASS ({elapsed:.1f}s)")


LOSSLESS = ArmChannel(transmissivity=1.0, dark_click_prob=0.0)


def log_grid(lo, hi, points):
    return [lo * (hi / lo) ** (i / (points - 1)) for i in range(points)]


# --- 1, 2: source statistics ------------------------------------------------


def test_criterion_1_source_fidelity():
    with stamp(1, budget=1.0):
        source = SourceParams(mean_photon_number=0.0078, repetition_rate=1e9)
        out = end_to_end_outcome(source, LOSSLESS, LOSSLESS)
        assert out.fidelity == pytest.approx(0.99, abs=0.005)


def test_criterion_2_rate_fidelity_tradeoff():
    with stamp(2, budget=5.0):
        curve = rate_fidelity_curve(log_grid(1e-4, 0.1, 20), LOSSLESS, LOSSLESS)
        assert len(curve) == 20
        edr = [row[1] for row in curve]
        fidelity = [row[2] for row in curve]
        assert all(b > a for a, b in zip(edr, edr[1:]))
        assert all(b < a for a, b in zip(fidelity, fidelity[1:]))


# --- 3: split-pair case study -----------------------------------------------


def test_criterion_3_reflection_case_study():
    with stamp(3, budget=60.0):
        grid = [250.0 * i for i in range(13)]
        rows = case_study(grid, altitude=1000e3, min_elevation=20.0)
        assert len(rows) == 13
        ratios = [row.ratio for row in rows]
        assert ratios[0] == pytest.approx(1.0, abs=0.1)
        assert 2.0 <= ratios[-1] <= 4.0
        assert all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))


# --- 4: solver oracles --------------------------------------------------------


def random_mip(rng):
    n = rng.randint(1, 4)
    bounds = tuple((0.0, float(rng.randint(1, 3))) for _ in range(n))
    objective = tuple(float(rng.randint(-5, 5)) for _ in range(n))
    constraints = []
    for _ in range(rng.randint(1, 3)):
        coeffs = tuple(float(rng.randint(-3, 3)) for _ in range(n))
        relation = "=" if rng.random() < 0.15 else rng.choice(("<=", ">="))
        rhs = float(rng.randint(-2, 8))
        constraints.append((coeffs, relation, rhs))
    lp = LinearProgram(
        objective=objective,
        constraints=tuple(constraints),
        variable_bounds=bounds,
    )
    return MipProblem(base=lp, integer_vars=tuple(range(n)))


def brute_matching(weights):
    num_rows = len(weights)
    num_cols = len(weights[0]) if num_rows else 0
    best = 0.0
    for choice in itertools.product((None, *range(num_cols)), repeat=num_rows):
        used = [col for col in choice if col is not None]
        if len(used) != len(set(used)):
            continue
        total = 0.0
        ok = True
        for row, col in enumerate(choice):
            if col is None:
                continue
            if weights[row][col] == -math.inf:
                ok = False
                break
            total += weights[row][col]
        if ok:
            best = max(best, total)
    return best


def brute_mwis(weights, edges):
    n = len(weights)
    adjacency = [0] * n
    for a, b in edges:
        adjacency[a] |= 1 << b
        adjacency[b] |= 1 << a
    best = 0.0
    for mask in range(1 << n):
        if any(mask >> v & 1 and mask & adjacency[v] for v in range(n)):
            continue
        total = sum(weights[v] for v in range(n) if mask >> v & 1)
        best = max(best, total)
    return best


def test_criterion_4_solver_oracles():
    with stamp(4, budget=120.0):
        rng = random.Random(8191)
        optimal_count = 0
        for _ in range(400):
            mip = random_mip(rng)
            got = solve_mip(mip)
            want = brute_force_mip(mip)
            assert got.status == want.status
            if want.status != "Optimal":
                continue
            optimal_count += 1
            rounded = tuple(round(v) for v in got.assignment)
            recomputed = sum(
                c * v for c, v in zip(mip.base.objective, rounded)
            )
            assert recomputed == want.objective_value
            assert (
                constraint_violations(
                    mip.base, got.assignment, tol=1e-7,
                    integer_vars=mip.integer_vars,
                )
                == []
            )
        assert optimal_count >= 100

        for _ in range(100):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            weights = [
                [
                    -math.inf if rng.random() < 0.15 else float(rng.randint(-3, 9))
                    for _ in range(cols)
                ]
                for _ in range(rows)
            ]
            matching, total = hungarian(weights)
            assert total == brute_matching(weights)
            used_cols = list(matching.values())
            assert len(used_cols) == len(set(used_cols))
            for row, col in matching.items():
                assert weights[row][col] != -math.inf

        for _ in range(100):
            n = rng.randint(1, 12)
            weights = [float(rng.randint(-2, 9)) for _ in range(n)]
            edges = [
                (a, b)
                for a in range(n)
                for b in range(a + 1, n)
                if rng.random() < 0.3
            ]
            chosen, total = mwis_exact(weights, edges)
            assert total == brute_mwis(weights, edges)
            chosen_set = set(chosen)
            assert all(
                not (a in chosen_set and b in chosen_set) for a, b in edges
            )
            assert total == sum(weights[v] for v in chosen)


# --- 5, 6: policy dominance and special cases --------------------------------


def make_instance(omega, pair_stations, n_stations, **kwargs):
    n_sat = len(omega)
    n_pair = len(pair_stations)
    values = {
        "sat_caps": (1,) * n_sat,
        "pair_caps": (1,) * n_pair,
        "reflector_caps": (1,) * n_sat,
        "nu": None,
    }
    values.update(kwargs)
    if "gs_caps" not in values:
        base = max([1, *values["pair_caps"]])
        values["gs_caps"] = (base,) * n_stations
    return SlotInstance(
        time=0,
        sat_ids=tuple(f"s{i}" for i in range(n_sat)),
        station_ids=tuple(f"g{i}" for i in range(n_stations)),
        pair_ids=tuple(f"p{j}" for j in range(n_pair)),
        pair_stations=tuple(pair_stations),
        omega=tuple(tuple(float(v) for v in row) for row in omega),
        **values,
    )


def random_instance(rng, max_sats, max_pairs, max_cap, reflection):
    n_sat = rng.randint(1, max_sats)
    n_pair = rng.randint(1, max_pairs)
    n_gs = rng.randint(2, 5)
    pair_stations = []
    for _ in range(n_pair):
        pair_stations.append(tuple(rng.sample(range(n_gs), 2)))
    pair_caps = tuple(rng.randint(1, max_cap) for _ in range(n_pair))
    gs_caps = []
    for g in range(n_gs):
        incident = [pair_caps[j] for j, ab in enumerate(pair_stations) if g in ab]
        floor = max(incident) if incident else 1
        gs_caps.append(rng.randint(floor, floor + max_cap))
    omega = [
        [
            round(rng.uniform(0.5, 10.0), 3) if rng.random() < 0.5 else 0.0
            for _ in range(n_pair)
        ]
        for _ in range(n_sat)
    ]
    nu = None
    if reflection:
        nu = {}
        for i in range(n_sat):
            for k in range(n_sat):
                if i == k:
                    continue
                for j in range(n_pair):
                    if rng.random() < 0.25:
                        nu[(i, k, j)] = round(rng.uniform(0.5, 10.0), 3)
    return make_instance(
        omega,
        pair_stations,
        n_gs,
        sat_caps=tuple(rng.randint(0, max_cap) for _ in range(n_sat)),
        gs_caps=tuple(gs_caps),
        pair_caps=pair_caps,
        reflector_caps=tuple(rng.randint(0, max_cap) for _ in range(n_sat)),
        nu=nu,
    )


def min_fraction(instance, allocation):
    achieved = pair_edr(instance, allocation)
    fractions = []
    for j, pid in enumerate(instance.pair_ids):
        best = uncontended_max_edr(instance, j, include_reflection=False)
        if best > 0:
            fractions.append(achieved[pid] / best)
    return min(fractions) if fractions else None


def test_criterion_5_policy_dominance():
    with stamp(5, budget=180.0):
        rng = random.Random(524287)
        fraction_checked = 0
        for _ in range(200):
            inst = random_instance(
                rng, max_sats=6, max_pairs=6, max_cap=2, reflection=True
            )
            ratesum = solve_primary_ratesum(inst)
            reflection = solve_reflection_ratesum(inst)
            assert reflection.objective >= ratesum.objective - 1e-9

            ratefair = solve_primary_ratefair(inst)
            assert ratesum.objective >= ratefair.objective - 1e-9

            fair_floor = min_fraction(inst, ratefair)
            sum_floor = min_fraction(inst, ratesum)
            if fair_floor is not None:
                fraction_checked += 1
                assert fair_floor >= sum_floor - 1e-9
        assert fraction_checked >= 100


def test_criterion_6_special_case_equivalence():
    with stamp(6, budget=60.0):
        rng = random.Random(131071)
        for _ in range(100):
            inst = random_instance(
                rng, max_sats=5, max_pairs=4, max_cap=1, reflection=False
            )
            unit = make_instance(
                inst.omega,
                inst.pair_stations,
                len(inst.station_ids),
                sat_caps=(1,) * inst.num_sats,
                gs_caps=(1,) * len(inst.station_ids),
                pair_caps=(1,) * inst.num_pairs,
                reflector_caps=(1,) * inst.num_sats,
            )
            stsr = solve_stsr(unit)
            ratesum = solve_primary_ratesum(unit)
            assert stsr.objective == pytest.approx(ratesum.objective, abs=1e-9)

        for _ in range(100):
            inst = random_instance(
                rng, max_sats=5, max_pairs=4, max_cap=3, reflection=False
            )
            cap = max([sum(inst.sat_caps), 1, *inst.pair_caps])
            roomy = make_instance(
                inst.omega,
                inst.pair_stations,
                len(inst.station_ids),
                sat_caps=inst.sat_caps,
                gs_caps=(cap,) * len(inst.station_ids),
                pair_caps=inst.pair_caps,
                reflector_caps=inst.reflector_caps,
            )
            stmr = solve_stmr(roomy)
            ratesum = solve_primary_ratesum(roomy)
            assert stmr.objective == pytest.approx(ratesum.objective, abs=1e-9)


# --- 7: physics invariants ----------------------------------------------------


def test_criterion_7_physics_invariants():
    with stamp(7, budget=30.0):
        for ns in (0.0, 1e-4, 0.0078, 0.1, 0.5, 2.0):
            total = sum(emission_prob(ns, n) for n in range(61))
            total += emission_tail(ns, 60)
            assert abs(total - 1.0) <= 1e-12

        assert atmospheric_transmissivity(0.7, 90.0) == 0.7
        assert atmospheric_transmissivity(0.7, 0.0) == 0.0
        assert atmospheric_transmissivity(0.7, -15.0) == 0.0
        assert atmospheric_transmissivity(0.0, 45.0) == 0.0
        assert atmospheric_transmissivity(1.0, 37.0) == 1.0

        optics = OpticsParams(
            tx_radius=0.1, rx_radius=1.0, wavelength=737e-9,
            tx_efficiency=1.0, rx_efficiency=1.0,
        )
        slants = [200e3 + 100e3 * i for i in range(29)]
        fs = [free_space_transmissivity(optics, s) for s in slants]
        assert all(b <= a for a, b in zip(fs, fs[1:]))
        assert all(0.0 <= v <= 1.0 for v in fs)

        elevations = [1.0 + i for i in range(90)]
        atm = [atmospheric_transmissivity(0.7, e) for e in elevations]
        assert all(b > a for a, b in zip(atm, atm[1:]))

        source = SourceParams(mean_photon_number=0.0078, repetition_rate=1e9)
        darks = [i * 0.01 for i in range(11)]
        outs = [
            end_to_end_outcome(
                source,
                ArmChannel(transmissivity=0.5, dark_click_prob=d),
                ArmChannel(transmissivity=0.5, dark_click_prob=d),
            )
            for d in darks
        ]
        fids = [o.fidelity for o in outs]
        assert all(b < a for a, b in zip(fids, fids[1:]))

        etas = [0.05 * (i + 1) for i in range(20)]
        rates = [
            end_to_end_outcome(
                source,
                ArmChannel(transmissivity=eta, dark_click_prob=0.0),
                ArmChannel(transmissivity=eta, dark_click_prob=0.0),
            ).edr
            for eta in etas
        ]
        assert all(b > a for a, b in zip(rates, rates[1:]))

        rng = random.Random(20260819)
        for _ in range(1000):
            ns = rng.uniform(0.0, 0.5)
            arm1 = ArmChannel(
                transmissivity=rng.random(), dark_click_prob=rng.random()
            )
            arm2 = ArmChannel(
                transmissivity=rng.random(), dark_click_prob=rng.random()
            )
            out = end_to_end_outcome(
                SourceParams(mean_photon_number=ns, repetition_rate=1e9),
                arm1,
                arm2,
            )
            assert 0.0 <= out.success_prob <= 1.0
            assert 0.0 <= out.fidelity <= 1.0
            assert 0.0 <= emission_prob(ns, rng.randint(0, 10)) <= 1.0
            dark = dark_click_prob(
                irradiance=rng.uniform(0.0, 5.0),
                gate=1e-9,
                bandwidth=rng.uniform(0.1, 10.0),
                fov=rng.uniform(1e-12, 1e-8),
                rx_radius=rng.uniform(0.1, 2.0),
                wavelength=737e-9,
            )
            assert 0.0 <= dark <= 1.0


# --- 8, 9: end-to-end runs ------------------------------------------------------


REDUCED_BASE = {
    "constellation": {"rings": 4, "sats_per_ring": 10, "altitude": 1000e3},
    "slot_duration": 60.0,
    "num_slots": 1440,
    "month": 6,
    "weather_seed": 23,
}


def test_criterion_8_reduced_end_to_end():
    with stamp(8, budget=900.0):
        fair_cfg = scenario_from_dict({**REDUCED_BASE, "policy": "primary_ratefair"})
        env = resolve_weather(fair_cfg)
        report = run(fair_cfg, env)
        again = run(fair_cfg, env)
        assert report == again

        connectivity = [m.connectivity for m in report.series]
        day, night = [], []
        for t, value in enumerate(connectivity):
            hour = (t * fair_cfg.slot_duration / 3600.0) % 24.0
            irradiance = sum(
                env.lookup(gs.id, fair_cfg.month, hour).solar_irradiance
                for gs in fair_cfg.stations
            )
            (day if irradiance > 0.0 else night).append(value)
        assert day and night
        assert sum(night) / len(night) > sum(day) / len(day)

        reflection_cfg = scenario_from_dict(
            {**REDUCED_BASE, "policy": "reflection_ratefair"}
        )
        reflection_report = run(reflection_cfg, resolve_weather(reflection_cfg))
        assert reflection_report.served_pair_count >= report.served_pair_count

        means = []
        for altitude_km in (500, 800, 1000):
            cfg = scenario_from_dict(
                {
                    **REDUCED_BASE,
                    "policy": "primary_ratesum",
                    "constellation": {
                        "rings": 4,
                        "sats_per_ring": 10,
                        "altitude": altitude_km * 1e3,
                    },
                }
            )
            sweep = run(cfg, resolve_weather(cfg))
            values = [m.aggregate_edr for m in sweep.series]
            means.append(sum(values) / len(values))
        assert means[0] >= means[1] >= means[2]


SMALL_SCENARIO = {
    "constellation": {"rings": 2, "sats_per_ring": 6, "altitude": 1000e3},
    "stations": [
        {"id": "alpha", "latitude": 89.9, "longitude": 0.0, "receiver_cap": 4},
        {"id": "bravo", "latitude": 89.8, "longitude": 90.0, "receiver_cap": 4},
        {"id": "carol", "latitude": 89.7, "longitude": -90.0, "receiver_cap": 4},
    ],
    "slot_duration": 60.0,
    "num_slots": 10,
    "transmitter_cap": 2,
    "reflector_cap": 2,
    "pair_cap": 2,
    "weather_seed": 11,
}


def test_criterion_9_cli_determinism(tmp_path, capsys):
    with stamp(9, budget=60.0):
        config_path = str(tmp_path / "scenario.json")
        save_scenario(scenario_from_dict(SMALL_SCENARIO), config_path)
        out_a = str(tmp_path / "first")
        out_b = str(tmp_path / "second")
        assert main(["simulate", "--config", config_path, "--out", out_a]) == 0
        assert main(["simulate", "--config", config_path, "--out", out_b]) == 0
        capsys.readouterr()
        for name in ("metrics.csv", "per_pair.csv", "report.json"):
            with open(f"{out_a}/{name}", "rb") as handle:
                first = handle.read()
            with open(f"{out_b}/{name}", "rb") as handle:
                second = handle.read()
            assert first == second
        with open(f"{out_a}/report.json") as handle:
            assert json.load(handle)["num_slots"] == 10
