"""Self-tests of the benchmark's output checks on a tiny scenario.

    python3 -m pytest -q perfbench/selftest_checks.py

Each checker must accept the program's real output and reject a
corrupted copy of it.  The file name keeps it out of the repository's
own test collection; run it by path as above.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from run import Recorder  # noqa: E402

from qsatnet import simharness  # noqa: E402
from qsatnet.config import scenario_from_dict  # noqa: E402

pytest.importorskip("scipy")

# three rings of six keep two satellites over far-apart stations often
# enough for relays to be used and for every pair to get a nonzero share
TINY = {
    "constellation": {"rings": 3, "sats_per_ring": 6, "altitude": 1000e3},
    "stations": [
        {"id": "alpha", "latitude": 85.0, "longitude": 0.0, "receiver_cap": 4},
        {"id": "bravo", "latitude": 80.0, "longitude": 90.0, "receiver_cap": 4},
        {"id": "carol", "latitude": 75.0, "longitude": -90.0, "receiver_cap": 4},
    ],
    "slot_duration": 60.0,
    "num_slots": 10,
    "transmitter_cap": 2,
    "reflector_cap": 2,
    "pair_cap": 2,
    "weather_seed": 11,
}


_RUNS: dict = {}


def tiny_run(policy: str):
    """Report and every slot's snapshot, instance and allocation."""
    if policy not in _RUNS:
        config = scenario_from_dict({**TINY, "policy": policy})
        recorder = Recorder(simharness, policy)
        recorder.begin(set(range(config.num_slots)))
        recorder.install()
        try:
            report = simharness.run(config, simharness.resolve_weather(config))
        finally:
            recorder.remove()
        _RUNS[policy] = (config, report, recorder.kept)
    return _RUNS[policy]


def served_slots(policy: str):
    config, report, kept = tiny_run(policy)
    served = [t for t in kept if report.series[t].aggregate_edr > 0]
    assert served, "the tiny scenario must serve some pair"
    return config, report, kept, served


@pytest.mark.parametrize("policy", sorted(simharness.POLICIES))
def test_real_output_passes_every_check(policy, tmp_path):
    config, report, kept = tiny_run(policy)
    simharness.write_run_outputs(report, str(tmp_path))
    assert checks.conservation_violations(report, config.slot_duration) == []
    assert checks.readback_violations(report, str(tmp_path)) == []
    for t, slot in kept.items():
        instance, allocation = slot["instance"], slot["allocation"]
        assert checks.feasibility_violations(instance, allocation) == []
        assert checks.reported_rate_violations(instance, allocation, report.series[t]) == []
        assert checks.geometry_violations(
            instance, allocation, slot["snapshot"], config.min_elevation
        ) == []
        model = checks.SlotModel(instance)
        optimum = model.ratesum_optimum()
        if policy.endswith("ratesum"):
            assert checks.ratesum_violations(report.series[t], optimum) == []
        else:
            optima = model.uncontended_optima()
            floor = model.maxmin_floor(optima)
            assert checks.maxmin_violations(
                report.series[t], instance.pair_ids, optima, floor, optimum
            ) == []


def test_relays_are_exercised():
    _, _, kept = tiny_run("reflection_ratesum")
    assert any(slot["allocation"].y for slot in kept.values())


def _with_direct(allocation, i, j, count):
    x = [list(row) for row in allocation.x]
    x[i][j] = count
    return dataclasses.replace(allocation, x=tuple(tuple(row) for row in x))


def test_feasibility_rejects_one_connection_over_a_cap():
    _, _, kept, served = served_slots("primary_ratesum")
    slot = kept[served[0]]
    instance, allocation = slot["instance"], slot["allocation"]
    i, j = next(
        (i, j) for i, row in enumerate(allocation.x) for j, c in enumerate(row) if c
    )
    a, b = instance.pair_stations[j]
    tx_load = sum(allocation.x[i])
    pair_load = sum(row[j] for row in allocation.x)
    recv_load = [
        sum(row[jj] for row in allocation.x for jj, ab in enumerate(instance.pair_stations) if g in ab)
        for g in (a, b)
    ]
    slack = min(
        instance.sat_caps[i] - tx_load,
        instance.pair_caps[j] - pair_load,
        instance.gs_caps[a] - recv_load[0],
        instance.gs_caps[b] - recv_load[1],
    )
    corrupted = _with_direct(allocation, i, j, allocation.x[i][j] + slack + 1)
    problems = checks.feasibility_violations(instance, corrupted)
    assert problems and all("over cap" in p for p in problems)


def test_feasibility_rejects_self_relay_and_fractional_counts():
    _, _, kept = tiny_run("reflection_ratesum")
    slot = next(s for s in kept.values() if s["allocation"].y)
    instance, allocation = slot["instance"], slot["allocation"]
    i, k, j, _ = allocation.y[0]
    self_relay = dataclasses.replace(allocation, y=((i, i, j, 1),))
    assert any("own source" in p for p in checks.feasibility_violations(instance, self_relay))
    fractional = _with_direct(allocation, 0, 0, 0.5)
    assert any("nonnegative integer" in p for p in checks.feasibility_violations(instance, fractional))


def test_ratesum_check_rejects_one_percent_below_optimum():
    _, report, kept, served = served_slots("reflection_ratesum")
    t = served[0]
    optimum = checks.SlotModel(kept[t]["instance"]).ratesum_optimum()
    slot = report.series[t]
    assert checks.ratesum_violations(slot, optimum) == []
    low = dataclasses.replace(slot, aggregate_edr=0.99 * optimum)
    assert checks.ratesum_violations(low, optimum)


def test_maxmin_check_rejects_floor_below_lambda_star():
    _, report, kept, served = served_slots("reflection_ratefair")
    for t in served:
        instance = kept[t]["instance"]
        model = checks.SlotModel(instance)
        optima = model.uncontended_optima()
        floor = model.maxmin_floor(optima)
        if floor > 0:
            break
    else:
        pytest.fail("no served slot with a positive max-min floor")
    slot = report.series[t]
    optimum = model.ratesum_optimum()
    assert checks.maxmin_violations(slot, instance.pair_ids, optima, floor, optimum) == []
    j = next(j for j in range(len(optima)) if optima[j] > 0)
    rates = dict(slot.per_pair_edr)
    rates[instance.pair_ids[j]] = 0.5 * floor * optima[j]
    lowered = dataclasses.replace(slot, per_pair_edr=rates)
    assert any(
        "fractional floor" in p
        for p in checks.maxmin_violations(lowered, instance.pair_ids, optima, floor, optimum)
    )


def test_geometry_gate_rejects_a_satellite_below_the_mask():
    config, _, kept, served = served_slots("primary_ratesum")
    slot = kept[served[0]]
    instance, snapshot = slot["instance"], slot["snapshot"]
    sat_xyz = [snapshot.sat_positions[s] for s in instance.sat_ids]
    gs_xyz = [snapshot.gs_positions[g] for g in instance.station_ids]
    import numpy as np

    elev = checks.elevations_deg(np.array(sat_xyz), np.array(gs_xyz))
    i, j = next(
        (i, j)
        for j, (a, b) in enumerate(instance.pair_stations)
        for i in range(len(instance.sat_ids))
        if min(elev[a, i], elev[b, i]) < config.min_elevation
    )
    corrupted = _with_direct(slot["allocation"], i, j, 1)
    assert checks.geometry_violations(instance, corrupted, snapshot, config.min_elevation)


def test_conservation_rejects_a_daily_total_off_the_slot_rates():
    config, report, _, served = served_slots("primary_ratefair")
    assert checks.conservation_violations(report, config.slot_duration) == []
    pid = next(p for p, v in report.per_pair_daily.items() if v > 0)
    daily = dict(report.per_pair_daily)
    daily[pid] += report.series[served[0]].per_pair_edr[pid] or 1.0
    corrupted = dataclasses.replace(report, per_pair_daily=daily)
    assert checks.conservation_violations(corrupted, config.slot_duration)


def test_readback_rejects_an_edited_file(tmp_path):
    _, report, _, _ = served_slots("primary_ratesum")
    simharness.write_run_outputs(report, str(tmp_path))
    path = os.path.join(tmp_path, "report.json")
    with open(path) as handle:
        payload = json.load(handle)
    payload["total_handovers"] += 1
    with open(path, "w") as handle:
        json.dump(payload, handle)
    assert checks.readback_violations(report, str(tmp_path))
