"""Assignment policy tests with exhaustive-enumeration cross-checks."""

import dataclasses
import functools
import hashlib
import itertools
import json
import math
import operator
import random
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsatnet import orbital, scheduler, simharness
from qsatnet.config import apply_overrides, default_scenario
from qsatnet.environment import EnvironmentTable, WeatherRecord
from qsatnet.errors import (
    ConfigurationError,
    IngestionError,
    SimulationError,
    StructuralError,
    UnknownIdError,
)
from qsatnet.ilpcore import GAP_LIMIT, SolveResult, solve_mip
from qsatnet.linkphys import (
    OpticsParams,
    SourceParams,
    end_to_end_outcome,
    reflection_arms,
)
from qsatnet.orbital import ConstellationSnapshot
from qsatnet.scheduler import (
    Allocation,
    PhysicsParams,
    SlotInstance,
    allocation_to_json,
    build_reflection_weights,
    build_weights,
    pair_edr,
    solve_one_shot_maxmin,
    solve_primary_ratefair,
    solve_primary_ratesum,
    solve_reflection_ratefair,
    solve_reflection_ratesum,
    uncontended_max_edr,
)

from oracles import (
    ModeError,
    ScalarSlot,
    SizeLimitError,
    allocation_violations,
    brute_force_mip,
    latlon_to_unit,
    row_form_program,
    solve_stmr,
    solve_stsr,
    sparse_cap_rows,
)

EARTH_RADIUS = 6371e3


def dense_routes(omega, nu=None):
    """The route map of a dense direct table and a relay dict: every
    nonzero cell, then every relay entry."""
    routes = {
        (i, None, j): float(v)
        for i, row in enumerate(omega)
        for j, v in enumerate(row)
        if v != 0
    }
    routes.update(nu or {})
    return routes


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
        routes=dense_routes(omega, nu),
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


def _enumerate_allocations(instance, relayed):
    x_keys = [
        (i, j)
        for i in range(instance.num_sats)
        for j in range(instance.num_pairs)
        if instance.omega[i][j] > 0
    ]
    y_keys = sorted(instance.nu) if (relayed and instance.nu) else []
    cap = max([1, *instance.sat_caps, *instance.pair_caps])
    ranges = [range(cap + 1)] * (len(x_keys) + len(y_keys))
    for values in itertools.product(*ranges):
        x_counts = {k: v for k, v in zip(x_keys, values) if v}
        y_counts = {
            k: v for k, v in zip(y_keys, values[len(x_keys):]) if v
        }
        if _feasible(instance, x_counts, y_counts):
            yield x_counts, y_counts


def brute_best_ratesum(instance, relayed):
    best = 0.0
    for x_counts, y_counts in _enumerate_allocations(instance, relayed):
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
        expected = brute_best_ratesum(inst, relayed=False)
        assert alloc.objective == pytest.approx(expected, abs=1e-9)
        solved += 1
    assert solved == 60


def test_ratesum_deterministic():
    rng = random.Random(77)
    inst = random_instance(rng)
    assert solve_primary_ratesum(inst) == solve_primary_ratesum(inst)


# --- max-min -----------------------------------------------------------------


def direct_routes(inst):
    return {route: rate for route, rate in inst.routes.items() if route[1] is None}


def pair_routes(routes, j):
    """Pair j's routes of a route map, in route order."""
    return {route: rate for route, rate in routes.items() if route[2] == j}


def served_counts(allocation):
    return dict(allocation.counts)


def test_maxmin_independent_pairs_floor():
    inst = make_instance(
        [[5.0, 0.0], [0.0, 3.0]],
        [(0, 1), (2, 3)],
        4,
        sat_caps=(1, 1),
    )
    counts, totals = solve_one_shot_maxmin(inst, direct_routes(inst))
    assert min(totals.values()) == pytest.approx(3.0)
    assert totals == {0: 5.0, 1: 3.0}
    assert counts == {(0, None, 0): 1, (1, None, 1): 1}


def test_maxmin_single_pair_equals_ratesum():
    rng = random.Random(5150)
    for _ in range(10):
        inst = random_instance(rng, max_pairs=1)
        _, totals = solve_one_shot_maxmin(inst, direct_routes(inst))
        expected = solve_primary_ratesum(inst).objective
        assert min(totals.values(), default=0.0) == pytest.approx(expected, abs=1e-9)


def test_maxmin_zero_weights_gives_zero_allocation():
    # no route carries a weight: nothing is counted and no pair has a total
    inst = make_instance([[0.0]], [(0, 1)], 2)
    assert solve_one_shot_maxmin(inst, direct_routes(inst)) == ({}, {})
    # routes without room count nothing, and each routed pair totals zero
    inst = make_instance([[4.0, 2.0]], [(0, 1), (2, 3)], 4, sat_caps=(0,))
    assert solve_one_shot_maxmin(inst, direct_routes(inst)) == ({}, {0: 0.0, 1: 0.0})


def test_maxmin_matches_enumeration():
    rng = random.Random(9011)
    for _ in range(40):
        inst = random_instance(rng, max_sats=3, max_pairs=2)
        routes = direct_routes(inst)
        counts, totals = solve_one_shot_maxmin(inst, routes)
        expected = brute_best_maxmin(inst, inst.omega, {})
        assert min(totals.values(), default=0.0) == pytest.approx(expected, abs=1e-9)
        assert set(totals) == {j for _, _, j in routes}
        assert list(counts) == [route for route in routes if route in counts]
    relayed = 0
    for _ in range(60):
        inst = random_instance(rng, max_sats=3, max_pairs=2, reflection=True)
        relayed += inst.nu is not None
        counts, totals = solve_one_shot_maxmin(inst, inst.routes)
        expected = brute_best_maxmin(inst, inst.omega, inst.nu or {})
        assert min(totals.values(), default=0.0) == pytest.approx(expected, abs=1e-9)
        # the counts fit the caps, and each total is its pair's weighted rate
        allocation = scheduler._priced(inst, counts)
        assert allocation_violations(inst, allocation) == []
        assert totals == pytest.approx(
            {
                j: sum(inst.routes[r] * c for r, c in counts.items() if r[2] == j)
                for j in totals
            }
        )
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
    assert uncontended_max_edr(inst, pair_routes(inst.routes, 0)) == pytest.approx(8.0)


def test_uncontended_ignores_other_pairs():
    # the other pair's better route shares the only transmitter, but the
    # pair is solved alone
    inst = make_instance(
        [[4.0, 9.0]],
        [(0, 1), (2, 3)],
        4,
        sat_caps=(1,),
    )
    assert uncontended_max_edr(inst, pair_routes(inst.routes, 0)) == pytest.approx(4.0)
    assert uncontended_max_edr(inst, pair_routes(inst.routes, 1)) == pytest.approx(9.0)


@st.composite
def _one_pair_instances(draw):
    """One pair's instance with direct and relayed routes, and every cap
    drawn from 0-3 so that each kind can bind."""
    n_sat = draw(st.integers(1, 4))
    rates = st.floats(0.5, 10.0)
    direct = [draw(rates) if draw(st.booleans()) else 0.0 for _ in range(n_sat)]
    relays = [(i, k) for i in range(n_sat) for k in range(n_sat) if i != k]
    picked = draw(st.lists(st.sampled_from(relays), max_size=6)) if relays else []
    nu = {(i, k, 0): draw(rates) for i, k in picked}
    pair_cap = draw(st.integers(0, 3))
    station_caps = st.integers(pair_cap, 3)
    caps = st.lists(st.integers(0, 3), min_size=n_sat, max_size=n_sat)
    return make_instance(
        [[rate] for rate in direct],
        [(0, 1)],
        2,
        sat_caps=draw(caps),
        gs_caps=(draw(station_caps), draw(station_caps)),
        pair_caps=(pair_cap,),
        reflector_caps=draw(caps),
        nu=nu or None,
    )


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_one_pair_instances())
def test_uncontended_flow_equals_the_one_pair_ratesum_mip(inst):
    counted = []
    real = scheduler._sorted_counts

    def recorded(counts):
        counted.append(counts)
        return real(counts)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scheduler, "_sorted_counts", recorded)
        best = uncontended_max_edr(inst, inst.routes)
    mip = solve_reflection_ratesum(inst).objective
    assert best == pytest.approx(mip, rel=1e-12)
    if inst.routes:
        (counts,) = counted
        allocation = scheduler._priced(inst, counts)
        assert allocation.objective == best
        assert allocation_violations(inst, allocation) == []


# --- rounds and bests whose routes all fit at their room --------------------


def _cap_loads(inst, counts):
    """Each cap's load under the route counts, in the instance's cap
    order: transmitter, receiver, pair and reflector."""
    sat, gs = [0] * inst.num_sats, [0] * len(inst.station_ids)
    pair, reflector = [0] * inst.num_pairs, [0] * inst.num_sats
    for (i, k, j), count in counts.items():
        sat[i] += count
        pair[j] += count
        for g in inst.pair_stations[j]:
            gs[g] += count
        if k is not None:
            reflector[k] += count
    return tuple(sat), tuple(gs), tuple(pair), tuple(reflector)


# one instance per cap kind, every cap loaded to the full when each route
# runs at its room, and the cap of that kind that two routes share
_FULL_CAPS = {
    "transmitter": (
        make_instance(
            [[0.0], [0.0], [0.0]], [(0, 1)], 2, sat_caps=(2, 0, 0), gs_caps=(2, 2),
            pair_caps=(2,), reflector_caps=(0, 1, 1), nu={(0, 1, 0): 3.0, (0, 2, 0): 2.0},
        ),
        "sat_caps",
        0,
    ),
    "receiver": (
        make_instance(
            [[3.0, 0.0], [0.0, 2.0]], [(0, 1), (1, 2)], 3, sat_caps=(1, 1),
            gs_caps=(1, 2, 1), pair_caps=(1, 1), reflector_caps=(0, 0),
        ),
        "gs_caps",
        1,
    ),
    "pair": (
        make_instance(
            [[3.0], [2.0]], [(0, 1)], 2, sat_caps=(1, 1), gs_caps=(2, 2),
            pair_caps=(2,), reflector_caps=(0, 0),
        ),
        "pair_caps",
        0,
    ),
    "reflector": (
        make_instance(
            [[0.0], [0.0], [0.0]], [(0, 1)], 2, sat_caps=(1, 1, 0), gs_caps=(2, 2),
            pair_caps=(2,), reflector_caps=(0, 0, 2), nu={(0, 2, 0): 3.0, (1, 2, 0): 2.0},
        ),
        "reflector_caps",
        2,
    ),
}


def _one_past_full(kind):
    """The full instance of the cap kind with its shared cap one lower:
    the rooms stay, so that cap alone carries one unit more than it
    holds."""
    inst, field, index = _FULL_CAPS[kind]
    caps = list(getattr(inst, field))
    caps[index] -= 1
    return replace(inst, **{field: tuple(caps)})


@st.composite
def _relay_instances(draw):
    """Two to four satellites and one to three pairs over two to four
    stations, with direct and relayed routes and every cap drawn from
    0-3, so that about half the supports fit at their room.  A drawn
    extra pair has a route but no room."""
    n_sat = draw(st.integers(2, 4))
    n_gs = draw(st.integers(2, 4))
    stations = st.integers(0, n_gs - 1)
    pairs = draw(
        st.lists(
            st.tuples(stations, stations).filter(lambda ab: ab[0] != ab[1]),
            min_size=1,
            max_size=3,
        )
    )
    # a cap shrinks towards 1, so that most routes have room
    cap = st.sampled_from((1, 2, 3, 0))
    pair_caps = [draw(cap) for _ in pairs]
    rates = st.floats(0.1, 10.0)
    omega = [[draw(rates) if draw(st.booleans()) else 0.0 for _ in pairs] for _ in range(n_sat)]
    sats = st.integers(0, n_sat - 1)
    relays = st.tuples(sats, sats, st.integers(0, len(pairs) - 1))
    picked = draw(st.lists(relays.filter(lambda ikj: ikj[0] != ikj[1]), max_size=8))
    nu = {route: draw(rates) for route in picked}
    if draw(st.booleans()):
        pairs.append((0, 1))
        pair_caps.append(0)
        for row in omega:
            row.append(0.0)
        omega[0][-1] = draw(rates)
    gs_caps = []
    for g in range(n_gs):
        floor = max([0, *(cap for cap, ab in zip(pair_caps, pairs) if g in ab)])
        gs_caps.append(draw(st.integers(floor, 3)))
    caps = st.lists(cap, min_size=n_sat, max_size=n_sat)
    return make_instance(
        omega,
        pairs,
        n_gs,
        sat_caps=draw(caps),
        gs_caps=gs_caps,
        pair_caps=pair_caps,
        reflector_caps=draw(caps),
        nu=nu or None,
    )


def _round_and_bests(inst):
    """The instance's max-min round over all its routes, and each routed
    pair's uncontended best."""
    routed = sorted({j for _, _, j in inst.routes})
    bests = [uncontended_max_edr(inst, pair_routes(inst.routes, j)) for j in routed]
    return solve_one_shot_maxmin(inst, inst.routes), bests


# the draws seldom pass a lone reflector, so each kind's single overloaded
# cap is also run as an explicit example
@settings(derandomize=True, max_examples=300, deadline=None)
@given(_relay_instances())
@example(_one_past_full("transmitter"))
@example(_one_past_full("receiver"))
@example(_one_past_full("pair"))
@example(_one_past_full("reflector"))
def test_rounds_and_bests_that_fit_equal_their_solvers_to_the_bit(inst):
    """A round or best settled at the routes' rooms gives the very counts
    and bits of the two-stage MIP and of the flow."""
    (counts, totals), bests = _round_and_bests(inst)
    with pytest.MonkeyPatch.context() as patch:
        # every nonempty support goes to the solvers; an empty one needs none
        patch.setattr(scheduler, "_fits_at_room", lambda support, rows: not support)
        (solved_counts, solved_totals), flow_bests = _round_and_bests(inst)
    assert list(counts.items()) == list(solved_counts.items())
    assert repr(list(totals.items())) == repr(list(solved_totals.items()))
    assert repr(bests) == repr(flow_bests)


@pytest.mark.parametrize("kind", list(_FULL_CAPS))
def test_solvers_run_only_past_a_full_cap(monkeypatch, kind):
    """With every cap loaded to the full, the round and the bests run no
    solver; one unit past a cap, the round runs its two MIPs once and the
    best of the pair over that cap runs one flow.  A lone pair never loads
    a receiver past its cap, which is at least the pair's own."""
    inst, field, _ = _FULL_CAPS[kind]
    calls = {"mip": 0, "flow": 0}

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return call

    monkeypatch.setattr(scheduler, "solve_mip", counted("mip", scheduler.solve_mip))
    monkeypatch.setattr(
        scheduler, "max_weight_flow", counted("flow", scheduler.max_weight_flow)
    )
    support = scheduler._support(inst, inst.routes)
    assert len(support) == len(inst.routes)
    assert _cap_loads(inst, support) == (
        inst.sat_caps, inst.gs_caps, inst.pair_caps, inst.reflector_caps
    )
    (counts, _), _ = _round_and_bests(inst)
    assert counts == support and calls == {"mip": 0, "flow": 0}

    past = _one_past_full(kind)
    assert scheduler._support(past, past.routes) == support
    (counts, _), _ = _round_and_bests(past)
    assert allocation_violations(past, scheduler._priced(past, counts)) == []
    assert calls == {"mip": 2, "flow": 0 if field == "gs_caps" else 1}


@pytest.mark.parametrize("relayed", [False, True])
def test_the_objective_sums_left_to_right(relayed):
    # from Python 3.12 on, the built-in sum of these rates is compensated
    rates = (1e16, 1.0, 1.0)
    assert math.fsum(rates) == 1e16 + 2
    k = 1 if relayed else None
    omega = [[0.0] * 3] * 2 if relayed else [rates]
    nu = {(0, 1, j): rate for j, rate in enumerate(rates)} if relayed else None
    inst = make_instance(omega, [(0, 1)] * 3, 2, nu=nu)
    allocation = scheduler._priced(inst, {(0, k, j): 1 for j in range(3)})
    assert allocation.objective == 1e16


# a station shared by two pairs and a lone reflector, each at its cap and
# one unit past it, besides the drawn instances
@settings(derandomize=True, max_examples=300, deadline=None)
@given(_relay_instances())
@example(_FULL_CAPS["receiver"][0])
@example(_one_past_full("receiver"))
@example(_FULL_CAPS["reflector"][0])
@example(_one_past_full("reflector"))
def test_fit_test_on_the_cap_rows_equals_the_per_cap_loads(inst):
    """The support fits at its room on the solver's cap rows exactly when
    every cap's load under the rooms is at most that cap."""
    support = scheduler._support(inst, inst.routes)
    caps = (inst.sat_caps, inst.gs_caps, inst.pair_caps, inst.reflector_caps)
    per_cap = all(
        load <= cap
        for loads, kind_caps in zip(_cap_loads(inst, support), caps)
        for load, cap in zip(loads, kind_caps)
    )
    rows = scheduler._cap_rows(inst, support)
    assert scheduler._fits_at_room(support, rows) == per_cap


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_relay_instances())
@example(_one_past_full("receiver"))
@example(_one_past_full("reflector"))
def test_cap_matrix_is_the_reference_rows_scattered(inst):
    """The scheduler's cap tuples give the fit test's verdict on the
    reference rows, and scattered into a program, with and without the
    floor rows of a max-min round, the matrix, right-hand sides, senses,
    bounds and row view of the program written as the reference rows."""
    support = scheduler._support(inst, inst.routes)
    rows = scheduler._cap_rows(inst, support)
    reference = sparse_cap_rows(inst, support)
    rooms = tuple(support.values())
    fits = all(sum(rooms[c] for c in row.columns) <= cap for row, _, cap in reference)
    assert scheduler._fits_at_room(support, rows) == fits
    if not support:
        return
    weights = tuple(inst.routes[route] for route in support)
    floors = {}
    for idx, (_, _, j) in enumerate(support):
        floors.setdefault(j, []).append(idx)
    members = tuple(map(tuple, floors.values()))
    for objective, floor_members in (
        (weights, ()),
        ((0.0,) * len(rooms) + (1.0,), members),
    ):
        program = scheduler._assignment_program(
            rooms, rows, objective, floor_members, weights
        )
        expected = row_form_program(rooms, reference, objective, floor_members, weights)
        for name in ("matrix", "rhs", "senses", "lower", "upper"):
            assert getattr(program, name).tolist() == getattr(expected, name).tolist()
        assert program.constraints[: len(reference)] == reference
        assert program == expected and repr(program) == repr(expected)


def test_ratefair_hands_the_solver_no_uncontended_mip(monkeypatch):
    """The uncontended best is a flow: no MIP is issued while it runs."""
    inside = []
    calls = {True: 0, False: 0}
    real_uncontended, real_solve = scheduler.uncontended_max_edr, scheduler.solve_mip

    def uncontended(instance, routes):
        inside.append(True)
        try:
            return real_uncontended(instance, routes)
        finally:
            inside.pop()

    def solve(mip):
        calls[bool(inside)] += 1
        return real_solve(mip)

    monkeypatch.setattr(scheduler, "uncontended_max_edr", uncontended)
    monkeypatch.setattr(scheduler, "solve_mip", solve)
    rng = random.Random(4242)
    for inst in _reduced_slots("reflection_ratefair", range(0, 1440, 60)) + [
        random_instance(rng, max_sats=4, max_pairs=4, reflection=True) for _ in range(20)
    ]:
        solve_reflection_ratefair(inst)
        solve_primary_ratefair(inst)
    assert calls[True] == 0 and calls[False] > 0


def test_ratefair_rounds_validate_no_route_map(monkeypatch):
    """A max-min round's instance carries only caps, and only they are
    checked: the weight builder alone checks and orders a slot's routes."""
    instances = _reduced_slots("reflection_ratefair", range(0, 1440, 60))
    validated = {"routes": 0, "caps only": 0}
    real_routes, real_caps = SlotInstance._ordered_routes, SlotInstance.caps_only

    def counted_routes(instance, routes):
        validated["routes"] += 1
        return real_routes(instance, routes)

    def counted_caps(instance, *caps):
        validated["caps only"] += 1
        residual = real_caps(instance, *caps)
        assert residual.routes == {}
        return residual

    monkeypatch.setattr(SlotInstance, "_ordered_routes", counted_routes)
    monkeypatch.setattr(SlotInstance, "caps_only", counted_caps)
    for inst in instances:
        solve_reflection_ratefair(inst)
        solve_primary_ratefair(inst)
    assert validated["routes"] == 0 and validated["caps only"] > 0


def test_ratefair_relay_only_pair_needs_the_reflection_policy():
    # the pair's only route is relayed: primary rate-fair leaves it
    # unserved, reflection rate-fair serves it
    inst = make_instance(
        [[0.0], [0.0]],
        [(0, 1)],
        2,
        sat_caps=(1, 1),
        nu={(0, 1, 0): 7.0},
    )
    primary = solve_primary_ratefair(inst)
    assert (served_counts(primary), primary.objective) == ({}, 0.0)
    reflection = solve_reflection_ratefair(inst)
    assert served_counts(reflection) == {(0, 1, 0): 1}
    assert reflection.objective == pytest.approx(7.0)


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


def _reduced_slots(policy, times):
    """The reduced 4x10 scenario's instances for the given slots."""
    config = apply_overrides(
        default_scenario(),
        {
            "constellation.rings": "4",
            "constellation.sats_per_ring": "10",
            "slot_duration": "60",
            "weather_seed": "23",
            "num_slots": str(max(times) + 1),
            "policy": policy,
        },
    )
    return _slot_instances(config, times)


def _slot_instances(config, times):
    """The scenario's instances for the given slots, built for its policy
    as its run builds them."""
    policy = config.policy
    env = simharness.resolve_weather(config)
    network = simharness.build_network(config)
    instances = []
    for t in times:
        snapshot = orbital.propagate(
            config.constellation, config.stations, t, config.slot_duration
        )
        hour_utc = (t * config.slot_duration / 3600.0) % 24.0
        weights = (build_reflection_weights, build_weights)[policy.startswith("primary")]
        extra = () if policy.startswith("primary") else (config.mirror_efficiency,)
        instances.append(
            weights(
                snapshot,
                network,
                config.physics,
                env,
                config.min_elevation,
                config.fidelity_threshold,
                *extra,
                month=config.month,
                hour_utc=hour_utc,
            )
        )
    return instances


@pytest.mark.parametrize(
    "policy, solver, route_map",
    [
        ("primary_ratefair", solve_primary_ratefair, direct_routes),
        ("reflection_ratefair", solve_reflection_ratefair, lambda inst: inst.routes),
    ],
    ids=["primary", "reflection"],
)
def test_uncontended_solves_run_only_for_routed_pairs(monkeypatch, policy, solver, route_map):
    """Each routed pair's uncontended best is solved once, in ascending
    pair order, over that pair's routes in route order."""
    calls = []
    real = scheduler.uncontended_max_edr

    def recorded(instance, routes):
        calls.append(list(routes.items()))
        return real(instance, routes)

    monkeypatch.setattr(scheduler, "uncontended_max_edr", recorded)
    # the reduced slots give each routed pair one route; the random
    # instances give pairs several, direct and relayed
    rng = random.Random(1212)
    instances = _reduced_slots(policy, range(0, 1440, 16)) + [
        random_instance(rng, max_sats=4, max_pairs=4, reflection=True) for _ in range(20)
    ]
    relay_routes = routeless_pairs = multi_route_calls = 0
    for inst in instances:
        calls.clear()
        solver(inst)
        routes = route_map(inst)
        routed = sorted({j for _, _, j in routes})
        assert calls == [list(pair_routes(routes, j).items()) for j in routed]
        relay_routes += sum(1 for _, k, _ in routes if k is not None)
        routeless_pairs += inst.num_pairs - len(routed)
        multi_route_calls += sum(1 for call in calls if len(call) > 1)
    assert routeless_pairs > 0 and multi_route_calls > 0
    assert (relay_routes > 0) == (policy == "reflection_ratefair")


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

    direct = direct_routes(inst)
    a_values = [uncontended_max_edr(inst, pair_routes(direct, j)) for j in (0, 1)]

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
        direct = direct_routes(inst)
        a_values = [
            uncontended_max_edr(inst, pair_routes(direct, j))
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
        expected = brute_best_ratesum(inst, relayed=True)
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


def test_stsr_refuses_instances_above_the_vertex_limit():
    # 33 satellites each with a direct route to the one pair: one vertex
    # over the exact search's limit, and the rate-sum MIP it checks would
    # answer at once
    inst = make_instance([[1.0]] * 33, [(0, 1)], 2, gs_caps=(1, 1))
    assert len(inst.routes) == 33
    assert solve_primary_ratesum(inst).objective == pytest.approx(1.0)
    with pytest.raises(SizeLimitError, match="33 vertices"):
        solve_stsr(inst)


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
    snapshot = ConstellationSnapshot.from_positions(
        time=0,
        sat_positions={f"s{i}": top for i in range(n_sats)},
        gs_positions={"ga": (EARTH_RADIUS, 0.0, 0.0), "gb": (EARTH_RADIUS, 0.0, 0.0)},
    )
    # every cap at one
    network = SlotInstance(
        time=0,
        sat_ids=tuple(snapshot.sat_positions),
        station_ids=("ga", "gb"),
        pair_ids=("ab",),
        pair_stations=((0, 1),),
        routes={},
        sat_caps=(1,) * n_sats,
        gs_caps=(1, 1),
        pair_caps=(1,),
        reflector_caps=(1,) * n_sats,
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
    oracle = ScalarSlot(snapshot, network, PHYSICS, env, 20.0, 0.85)
    outcome = end_to_end_outcome(PHYSICS.source, oracle.arm(0, 0), oracle.arm(0, 1))
    assert 0.85 < outcome.fidelity < 0.9999
    assert outcome.edr == admitted.omega[0][0]


def test_build_weights_elevation_gate():
    snapshot, network, env = overhead_scene()
    blocked = ConstellationSnapshot.from_positions(
        time=0,
        sat_positions={"s0": (-(EARTH_RADIUS + 1000e3), 0.0, 0.0)},
        gs_positions=snapshot.gs_positions,
    )
    inst = build_weights(blocked, network, PHYSICS, env, 20.0, 0.85, month=6)
    assert inst.omega[0][0] == 0.0


def test_build_weights_missing_weather_only_matters_when_visible():
    snapshot, network, env = overhead_scene()
    empty = EnvironmentTable(records={})
    with pytest.raises(IngestionError, match="ga|gb"):
        build_weights(snapshot, network, PHYSICS, empty, 20.0, 0.85, month=6)
    blocked = ConstellationSnapshot.from_positions(
        time=0,
        sat_positions={"s0": (-(EARTH_RADIUS + 1000e3), 0.0, 0.0)},
        gs_positions=snapshot.gs_positions,
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
        pair_ids=("ab", "ba"),
        pair_stations=((0, 1), (1, 0)),
        pair_caps=(1, 1),
    )
    downlinks = _count_calls(monkeypatch, orbital, "link_geometry")
    # the satellites coincide, so each end is told apart by its position
    # list, of which the builder reads one per satellite
    sight_lines = []
    real_sight_line = orbital.sight_line_clear

    def counted_sight_line(p, q, *rest):
        sight_lines.append((id(p), id(q)))
        return real_sight_line(p, q, *rest)

    monkeypatch.setattr(orbital, "sight_line_clear", counted_sight_line)
    validated = []
    real_check = scheduler.SlotInstance._ordered_routes

    def counted_check(instance, routes):
        validated.append(dict(routes))
        return real_check(instance, routes)

    monkeypatch.setattr(scheduler.SlotInstance, "_ordered_routes", counted_check)
    inst = build_reflection_weights(
        snapshot, network, PHYSICS, env, 20.0, 0.85, mirror_efficiency=1.0, month=6
    )
    # one array geometry call decides the slot's cells, all of which pass
    # the screen here; the relays read the table it made
    assert len(downlinks) == 1
    (slots, sats), (_, stations) = downlinks[0]
    cells = list(zip(slots.tolist(), stations.tolist(), sats.tolist()))
    assert cells == [(0, g, s) for g in range(2) for s in range(3)]
    assert len(sight_lines) == len(set(sight_lines)) == 3 * 2
    assert len(inst.nu) == 2 * 3 * 2
    # the instance is built, and its route map checked, once
    assert validated == [inst.routes]


def each_relay_path(monkeypatch):
    """Forces build_reflection_weights onto its candidate loop, then onto
    its array pass, yielding each path's name in between; the forced path
    must have run by the next step."""
    for path, cutoff in (("_looped_relays", math.inf), ("_array_relays", 0)):
        monkeypatch.setattr(scheduler, "RELAY_ARRAY_CELLS", cutoff)
        calls = _count_calls(monkeypatch, scheduler, path)
        yield path
        assert calls, f"{path} never ran"


def each_relay_pricing(monkeypatch):
    """Forces _relay_rates to price candidates one at a time, then in one
    broadcast call, yielding each pricer's name in between; the forced
    pricer must have run by the next step."""
    for path, cutoff in (("_each_relay_rate", math.inf), ("_broadcast_relay_rates", 0)):
        monkeypatch.setattr(scheduler, "RELAY_BROADCAST_CANDIDATES", cutoff)
        calls = _count_calls(monkeypatch, scheduler, path)
        yield path
        assert calls, f"{path} never ran"


def test_relay_hop_factor_is_taken_once_per_satellite_pair(monkeypatch):
    snapshot, network, env = overhead_scene(n_sats=3)
    network = replace(
        network,
        pair_ids=("ab", "ba"),
        pair_stations=((0, 1), (1, 0)),
        pair_caps=(1, 1),
    )
    lengths = []
    real_mirror_hop = scheduler.mirror_hop

    def counted_mirror_hop(physics):
        hop = real_mirror_hop(physics)

        def counted(length):
            lengths.append(length)
            return hop(length)

        return counted

    monkeypatch.setattr(scheduler, "mirror_hop", counted_mirror_hop)
    for _ in each_relay_path(monkeypatch):
        lengths.clear()
        inst = build_reflection_weights(
            snapshot, network, PHYSICS, env, 20.0, 0.85, mirror_efficiency=1.0, month=6
        )
        # six ordered (source, relay) pairs with a clear sight line, three
        # unordered ones
        assert len(inst.nu) == 2 * 3 * 2
        assert len(lengths) == 3


def test_reflection_weights_lossy_mirror_reduces_rate():
    snapshot, network, env = overhead_scene(n_sats=2)
    inst = build_reflection_weights(
        snapshot, network, PHYSICS, env, 20.0, 0.85, mirror_efficiency=0.5, month=6
    )
    assert inst.nu[(0, 1, 0)] < inst.omega[0][0]


def _scalar_direct_omega(snapshot, network, config, env, hour_utc):
    """The dense direct table over every satellite and pair, priced one
    link at a time by the scalar oracle."""
    oracle = ScalarSlot(
        snapshot,
        network,
        config.physics,
        env,
        config.min_elevation,
        config.fidelity_threshold,
        config.month,
        hour_utc,
    )
    omega = [[0.0] * len(network.pair_ids) for _ in network.sat_ids]
    for (i, _, j), rate in oracle.direct.items():
        omega[i][j] = rate
    return tuple(tuple(row) for row in omega)


@pytest.mark.parametrize("weather_seed", [1, 2])
def test_direct_table_equals_the_dense_scalar_reference(weather_seed):
    config = replace(default_scenario(), weather_seed=weather_seed)
    env = simharness.resolve_weather(config)
    network = simharness.build_network(config)
    served = 0
    for t in range(0, 8640, 613):  # default 10 s slots sampled across the day
        snapshot = orbital.propagate(
            config.constellation, config.stations, t, config.slot_duration
        )
        hour_utc = (t * config.slot_duration / 3600.0) % 24.0
        inst = build_weights(
            snapshot,
            network,
            config.physics,
            env,
            config.min_elevation,
            config.fidelity_threshold,
            month=config.month,
            hour_utc=hour_utc,
        )
        expected = _scalar_direct_omega(snapshot, network, config, env, hour_utc)
        assert repr(inst.omega) == repr(expected)
        assert inst.nu is None
        served += len(inst.routes)
    assert served > 100


def _scalar_relay_rates(snapshot, network, config, env, hour_utc, oracle=None):
    """The relayed rates priced one candidate at a time, through
    reflection_arms and the scalar end_to_end_outcome, from the scalar
    oracle's links and arms (``oracle``, made here when not given)."""
    physics = config.physics
    if oracle is None:
        oracle = ScalarSlot(
            snapshot,
            network,
            physics,
            env,
            config.min_elevation,
            config.fidelity_threshold,
            config.month,
            hour_utc,
        )
    links, arm = oracle.links, oracle.arm
    sat_ids = network.sat_ids
    hop_free_space = scheduler.mirror_hop(physics)
    nu = {}
    for j, (a, b) in enumerate(network.pair_stations):
        for i in links[a]:
            for k in links[b]:
                if i == k or not orbital.inter_satellite_visible(
                    snapshot, sat_ids[i], sat_ids[k]
                ):
                    continue
                hop = hop_free_space(
                    orbital.inter_satellite_distance(snapshot, sat_ids[i], sat_ids[k])
                )
                arm1, arm2 = reflection_arms(
                    arm(i, a), hop, config.mirror_efficiency, arm(k, b)
                )
                out = end_to_end_outcome(physics.source, arm1, arm2)
                if out.fidelity >= config.fidelity_threshold and out.edr > 0:
                    nu[(i, k, j)] = out.edr
    return nu


@pytest.mark.parametrize("weather_seed", [1, 2])
def test_broadcast_relay_rates_equal_the_scalar_loop(weather_seed, monkeypatch):
    config = replace(default_scenario(), weather_seed=weather_seed)
    env = simharness.resolve_weather(config)
    network = simharness.build_network(config)
    for _ in each_relay_path(monkeypatch):
        for _ in each_relay_pricing(monkeypatch):
            relayed = 0
            for t in range(0, 8640, 613):  # default 10 s slots sampled across the day
                snapshot = orbital.propagate(
                    config.constellation, config.stations, t, config.slot_duration
                )
                hour_utc = (t * config.slot_duration / 3600.0) % 24.0
                inst = build_reflection_weights(
                    snapshot,
                    network,
                    config.physics,
                    env,
                    config.min_elevation,
                    config.fidelity_threshold,
                    config.mirror_efficiency,
                    month=config.month,
                    hour_utc=hour_utc,
                )
                # the builders cache the row maps and nothing else on the snapshot
                assert _cached_on(snapshot) <= {"sat_row", "station_row"}
                expected = _scalar_relay_rates(snapshot, network, config, env, hour_utc)
                # the same rates, to the bit, in route order
                got = list((inst.nu or {}).items())
                assert repr(got) == repr(sorted(expected.items()))
                relayed += len(inst.nu or {})
            assert relayed > 1000


def _cached_on(snapshot):
    """The names a snapshot holds beyond its fields."""
    return set(vars(snapshot)) - {f.name for f in dataclasses.fields(snapshot)}


def test_relay_rates_at_the_sight_line_boundary_equal_the_scalar_loop(monkeypatch):
    """Sight lines grazing the Earth 1 m outside and 1 m inside the
    clearance, tested from both ends, and a coincident pair."""
    config = default_scenario()
    limit = orbital.EARTH_RADIUS + orbital.ISL_CLEARANCE
    half_hop = 1000e3
    sat_positions, gs_positions = {}, {}
    # each pair sits symmetric about an axis, so its segment's closest
    # approach is the midpoint, at exactly the axis offset
    for name, offset in (("clear", limit + 1.0), ("blocked", -(limit - 1.0))):
        for end, y in (("a", half_hop), ("b", -half_hop)):
            sat = (offset, y, 0.0)
            sat_positions[f"{name}_{end}"] = sat
            scale = orbital.EARTH_RADIUS / math.hypot(*sat)
            gs_positions[f"g_{name}_{end}"] = tuple(scale * c for c in sat)
    # two satellites at one point over the pole, seen from two stations
    pole = (0.0, 0.0, orbital.EARTH_RADIUS + 1000e3)
    sat_positions.update(same_a=pole, same_b=pole)
    gs_positions.update(g_same_a=(0.0, 0.0, orbital.EARTH_RADIUS))
    gs_positions.update(g_same_b=(0.0, 0.0, orbital.EARTH_RADIUS))
    snapshot = ConstellationSnapshot.from_positions(0, sat_positions, gs_positions)

    station_ids = tuple(gs_positions)
    # every station pair in both orders, so each sight line is tested from
    # each end
    pairs = [(a, b) for a in range(6) for b in range(6) if a != b]
    network = SlotInstance(
        time=0,
        sat_ids=tuple(sat_positions),
        station_ids=station_ids,
        pair_ids=tuple(f"{a}-{b}" for a, b in pairs),
        pair_stations=tuple(pairs),
        routes={},
        sat_caps=(1,) * 6,
        gs_caps=(6,) * 6,
        pair_caps=(1,) * len(pairs),
        reflector_caps=(1,) * 6,
    )
    env = EnvironmentTable(
        records={
            (sid, config.month, 0): WeatherRecord(
                station_id=sid,
                month=config.month,
                hour_utc=0,
                zenith_transmissivity=0.9,
                cloud_cover=0.0,
                solar_irradiance=0.0,
            )
            for sid in station_ids
        }
    )
    args = (config.physics, env, config.min_elevation, config.fidelity_threshold)
    build_weights(snapshot, network, *args, month=config.month)
    for a, b in (("clear_a", "clear_b"), ("same_a", "same_b")):
        assert orbital.inter_satellite_visible(snapshot, a, b)
        assert orbital.inter_satellite_visible(snapshot, b, a)
    assert not orbital.inter_satellite_visible(snapshot, "blocked_a", "blocked_b")
    assert not orbital.inter_satellite_visible(snapshot, "blocked_b", "blocked_a")
    expected = _scalar_relay_rates(snapshot, network, config, env, 0.0)

    for _ in each_relay_path(monkeypatch):
        for _ in each_relay_pricing(monkeypatch):
            inst = build_reflection_weights(
                snapshot, network, *args, config.mirror_efficiency, month=config.month
            )
            assert _cached_on(snapshot) <= {"sat_row", "station_row"}
            got = list((inst.nu or {}).items())
            assert repr(got) == repr(sorted(expected.items()))
            # the clear and the coincident pairs are relayed both ways, the
            # blocked pair neither way
            relayed = {(network.sat_ids[i], network.sat_ids[k]) for i, k, _ in inst.nu}
            assert relayed == {
                ("clear_a", "clear_b"),
                ("clear_b", "clear_a"),
                ("same_a", "same_b"),
                ("same_b", "same_a"),
            }


def test_both_relay_paths_read_the_same_stations_first(monkeypatch):
    """Two stations whose satellites serve their pairs only as relays
    have no weather records.  Each path reads the stations the loop reads,
    in the loop's order, so both name the same one: b2, whose pair comes
    first, not b1, which comes first in station order."""
    config = default_scenario()
    altitude = 1000e3

    def at(longitude, radius):
        angle = math.radians(longitude)
        return (radius * math.cos(angle), radius * math.sin(angle), 0.0)

    # two clusters 30 degrees apart along the equator: each cluster's
    # satellites see only its own stations, and see the other cluster's
    # satellites over the Earth
    stations = {"a1": 0.0, "a2": 1.0, "b1": 30.0, "b2": 31.0}
    satellites = {"sa0": 0.2, "sa1": 0.8, "sb0": 30.2, "sb1": 30.8}
    snapshot = ConstellationSnapshot.from_positions(
        0,
        {sid: at(lon, orbital.EARTH_RADIUS + altitude) for sid, lon in satellites.items()},
        {gid: at(lon, orbital.EARTH_RADIUS) for gid, lon in stations.items()},
    )
    station_ids = tuple(stations)
    pairs = ((0, 3), (1, 2))  # a1-b2, then a2-b1
    network = SlotInstance(
        time=0,
        sat_ids=tuple(satellites),
        station_ids=station_ids,
        pair_ids=("a1-b2", "a2-b1"),
        pair_stations=pairs,
        routes={},
        sat_caps=(1,) * 4,
        gs_caps=(2,) * 4,
        pair_caps=(1, 1),
        reflector_caps=(1,) * 4,
    )
    env = EnvironmentTable(
        records={
            (sid, config.month, 0): WeatherRecord(
                station_id=sid,
                month=config.month,
                hour_utc=0,
                zenith_transmissivity=0.9,
                cloud_cover=0.0,
                solar_irradiance=0.0,
            )
            for sid in ("a1", "a2")
        }
    )
    args = (config.physics, env, config.min_elevation, config.fidelity_threshold)
    # no satellite sees both ends of a pair, so no direct route reads b1 or b2
    assert build_weights(snapshot, network, *args, month=config.month).routes == {}
    messages = []
    for _ in each_relay_path(monkeypatch):
        with pytest.raises(IngestionError) as raised:
            build_reflection_weights(
                snapshot, network, *args, config.mirror_efficiency, month=config.month
            )
        messages.append(str(raised.value))
    assert messages == ["station b2: no weather records available"] * 2


def test_out_of_range_hop_factor_is_rejected(monkeypatch):
    snapshot, network, env = overhead_scene(n_sats=2)
    monkeypatch.setattr(scheduler, "mirror_hop", lambda physics: lambda hop: 1.5)
    for _ in each_relay_pricing(monkeypatch):
        with pytest.raises(ConfigurationError, match="hop factor"):
            build_reflection_weights(
                snapshot, network, PHYSICS, env, 20.0, 0.85, mirror_efficiency=1.0, month=6
            )


def test_bad_relay_factors_raise_one_message_on_both_pricing_paths(monkeypatch):
    """A NaN hop factor fails the hop check, which NaN's comparisons
    would slip past as a min or max test over Python floats; a relayed
    transmissivity above 1 fails the relayed-arm check.  Each pricer
    raises the same message."""
    snapshot, network, env = overhead_scene(n_sats=2)
    messages = {"hop": [], "relayed arm": []}
    for _ in each_relay_pricing(monkeypatch):
        with monkeypatch.context() as patched:
            patched.setattr(scheduler, "mirror_hop", lambda physics: lambda hop: math.nan)
            with pytest.raises(ConfigurationError) as raised:
                build_reflection_weights(
                    snapshot, network, PHYSICS, env, 20.0, 0.85, mirror_efficiency=1.0
                )
        messages["hop"].append(str(raised.value))
        # a NaN after a valid entry, which a running min or max would keep
        # the valid one over; and a second candidate whose relay arm
        # passes 1, which no arm the builder makes can, so these columns go
        # to the pricing directly
        price = functools.partial(scheduler._relay_rates, PHYSICS, 1.0, 0.85)
        arm1 = ([0.5, 0.5], [0.0, 0.0])
        for what, hop, relay_arm in (
            ("hop", [0.5, math.nan], [1.0, 1.0]),
            ("relayed arm", [1.0, 1.0], [1.0, 1.5]),
        ):
            with pytest.raises(ConfigurationError) as raised:
                price(hop, *arm1, relay_arm, [0.0, 0.0])
            messages[what].append(str(raised.value))
    assert messages == {
        "hop": ["source-to-relay hop factor must lie in [0, 1]"] * 4,
        "relayed arm": ["relayed arm transmissivity must lie in [0, 1]"] * 2,
    }


def test_both_pricing_paths_give_the_reduced_day_the_same_routes(monkeypatch):
    """Every slot of the reduced day, whose slots hold at most 7 relayed
    candidates, gets the same routes and rates, to the bit, priced one
    candidate at a time or in one broadcast call."""
    days = []
    for _ in each_relay_pricing(monkeypatch):
        instances = _reduced_slots("reflection_ratefair", range(1440))
        days.append([repr(inst.routes) for inst in instances])
    assert days[0] == days[1]
    # slots that keep a relayed route
    assert sum(inst.nu is not None for inst in instances) > 200


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


# Each policy's MIP count and SHA-256 over repr((objective, constraints,
# variable_bounds, integer_vars)) of every MIP it hands the solver on the
# reduced scenario, in call order, with each constraint row written out
# densely.  The uncontended per-pair solves are flows and hand it none, and
# neither does a max-min round whose routes all fit at their room, nor one
# whose content the run has already solved (scheduler.round_memory).
PINNED_MIPS = {
    "reflection_ratefair": (
        120,
        "00625b825eb85e0236f1c9ecd96364b39bc057b808ffe46472d03059bbf50f37",
    ),
    "primary_ratefair": (
        46,
        "890984fa5eac24fd006752d27636e0ce07cfce99e7640a8b330c2552d7db30e1",
    ),
    "reflection_ratesum": (
        208,
        "7a3e90a2eb5277f525846a437d68d00448f52548919179b5811b19653585b55f",
    ),
    "primary_ratesum": (
        170,
        "cc5a1b0cd0e624c66e2e7226c0079c8d152f375a08115f008b197c907666436f",
    ),
}


def _mip_key(mip) -> bytes:
    """repr((objective, constraints, variable_bounds, integer_vars)) of a
    MIP, each constraint row written out densely."""
    lp = mip.base
    constraints = []
    for row, relation, rhs in lp.constraints:
        dense = [0.0] * lp.num_vars
        for j, c in zip(row.columns, row.coefficients):
            dense[j] = c
        constraints.append((tuple(dense), relation, rhs))
    return repr((lp.objective, tuple(constraints), lp.variable_bounds, mip.integer_vars)).encode()


def _pinned_scenario(policy):
    """The reduced 4x10 scenario the MIP pins are taken on."""
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
    return replace(reduced, policy=policy)


@pytest.mark.parametrize("policy", list(PINNED_MIPS))
def test_mip_sequence_matches_pinned_digest(monkeypatch, policy):
    """Refactors of the assembly must hand the solver the very same MIPs."""
    digest = hashlib.sha256()
    count = 0

    def recorded(mip):
        nonlocal count
        count += 1
        digest.update(_mip_key(mip))
        return solve_mip(mip)

    monkeypatch.setattr(scheduler, "solve_mip", recorded)
    simharness.run(_pinned_scenario(policy))
    assert (count, digest.hexdigest()) == PINNED_MIPS[policy]


# --- the run's round memory ---------------------------------------------------


def _counting_mips(patch):
    """Counts the MIPs handed to the solver from here on."""
    calls = []
    real = scheduler.solve_mip

    def counted(mip):
        calls.append(mip)
        return real(mip)

    patch.setattr(scheduler, "solve_mip", counted)
    return calls


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_relay_instances())
@example(_one_past_full("transmitter"))
@example(_one_past_full("reflector"))
def test_remembered_round_equals_the_solved_round_to_the_bit(inst):
    """A round met again in a memory takes the counts the solver gave it,
    and its totals keep their bits."""
    solved_counts, solved_totals = solve_one_shot_maxmin(inst, inst.routes)
    with pytest.MonkeyPatch.context() as patch:
        mips = _counting_mips(patch)
        with scheduler.round_memory() as memory:
            first = solve_one_shot_maxmin(inst, inst.routes)
            solves = len(mips)
            counts, totals = solve_one_shot_maxmin(inst, inst.routes)
    assert len(mips) == solves and memory.cache_info().currsize == solves // 2
    for remembered_counts, remembered_totals in (first, (counts, totals)):
        assert list(remembered_counts.items()) == list(solved_counts.items())
        assert repr(list(remembered_totals.items())) == repr(list(solved_totals.items()))


def test_a_second_pass_over_default_slots_in_one_memory_issues_no_mip(monkeypatch):
    """At default scale (20x20, six cities), primary_ratefair slots 0-2 hold
    six contended rounds: a second pass inside one memory issues no MIP,
    and both passes equal the allocations solved outside any memory."""
    config = replace(default_scenario(), policy="primary_ratefair", num_slots=3)
    instances = _slot_instances(config, range(3))
    solved = [solve_primary_ratefair(inst) for inst in instances]
    mips = _counting_mips(monkeypatch)
    with scheduler.round_memory() as memory:
        first = [solve_primary_ratefair(inst) for inst in instances]
        assert len(mips) == 12 and memory.cache_info().currsize == 6
        second = [solve_primary_ratefair(inst) for inst in instances]
    assert len(mips) == 12 and memory.cache_info().hits == 6
    for passed in (first, second):
        assert passed == solved
        assert [list(a.counts.items()) for a in passed] == [
            list(a.counts.items()) for a in solved
        ]


# one satellite of cap 10 shared by the three pairs of a station triangle,
# each pair with one direct route at weight 0.1 through it; a fourth pair's
# routes can only run on satellite 2, which has no room
_TRIANGLE = make_instance(
    [[0.0] * 4] * 3, [(0, 1), (1, 2), (0, 2), (0, 1)], 3, sat_caps=(10, 10, 0),
    gs_caps=(20, 20, 20), pair_caps=(10, 10, 10, 10),
)


def _triangle_round(sat, weight=0.1):
    """The triangle's three pairs on satellite ``sat``, pair 0 at ``weight``."""
    return {(sat, None, j): (weight if j == 0 else 0.1) for j in range(3)}


def test_equal_content_on_another_satellite_is_not_solved_again(monkeypatch):
    """The second round's content equals the first's on satellite 1 instead
    of 0: it issues no MIP, and its counts are keyed by its own routes."""
    with scheduler.round_memory() as memory:
        mips = _counting_mips(monkeypatch)
        first, _ = solve_one_shot_maxmin(_TRIANGLE, _triangle_round(0))
        assert len(mips) == 2 and sum(first.values()) == 10
        second, totals = solve_one_shot_maxmin(_TRIANGLE, _triangle_round(1))
    assert len(mips) == 2 and memory.cache_info().currsize == 1
    assert second == {(1, None, j): c for (_, _, j), c in first.items()}
    # solved afresh, outside the memory, the second round agrees
    assert (second, totals) == solve_one_shot_maxmin(_TRIANGLE, _triangle_round(1))
    assert len(mips) == 4


def test_a_pair_without_room_keeps_its_round_apart(monkeypatch):
    """A routed pair with no room pins the floor at 0: the round differs
    from the one without that pair only in its floor members, and is
    solved on its own."""
    heavy = _triangle_round(0, 0.2)
    with_roomless = {**heavy, (2, None, 3): 0.1}
    alone = solve_one_shot_maxmin(_TRIANGLE, with_roomless)
    assert alone[0] == {(0, None, 0): 10} and alone[1][3] == 0.0
    mips = _counting_mips(monkeypatch)
    with scheduler.round_memory() as memory:
        first = solve_one_shot_maxmin(_TRIANGLE, heavy)
        assert solve_one_shot_maxmin(_TRIANGLE, with_roomless) == alone
    assert first[0] != alone[0] and len(mips) == 4
    assert memory.cache_info().currsize == 2


def test_policy_called_outside_a_run_issues_every_mip(monkeypatch):
    """Outside a run every contended round is solved: calling a policy
    twice on one slot issues the same MIPs twice, whereas in one memory the
    second call issues none."""
    inst = _reduced_slots("reflection_ratefair", [0])[0]
    mips = _counting_mips(monkeypatch)
    first = solve_reflection_ratefair(inst)
    once = [_mip_key(mip) for mip in mips]
    assert once and solve_reflection_ratefair(inst) == first
    assert [_mip_key(mip) for mip in mips] == once * 2
    del mips[:]
    with scheduler.round_memory():
        solve_reflection_ratefair(inst)
        assert solve_reflection_ratefair(inst) == first
    assert [_mip_key(mip) for mip in mips] == once


def test_back_to_back_runs_hand_the_solver_the_same_mips(monkeypatch):
    """A run's memory does not outlive it: a second run of the same
    scenario, in the same process, issues the very same MIPs."""
    mips = _counting_mips(monkeypatch)
    config = _pinned_scenario("primary_ratefair")
    runs = []
    for _ in range(2):
        report = simharness.run(config)
        runs.append((report, [_mip_key(mip) for mip in mips]))
        del mips[:]
    assert runs[0][1] and runs[0] == runs[1]
    assert scheduler._round_solver.get() is scheduler._contended_maxmin


def test_a_run_that_raises_restores_the_memory_before_it(monkeypatch):
    """A slot that raises ends its run's memory: none stays active after a
    run from outside any memory, and an enclosing one comes back."""
    seen = []
    flag, real = simharness.POLICIES["primary_ratefair"]

    def failing_at_slot_1(instance):
        seen.append(scheduler._round_solver.get())
        if len(seen) == 2:
            raise StructuralError("stop")
        return real(instance)

    monkeypatch.setitem(simharness.POLICIES, "primary_ratefair", (flag, failing_at_slot_1))
    config = replace(_pinned_scenario("primary_ratefair"), num_slots=3)
    with pytest.raises(SimulationError, match="stop"):
        simharness.run(config)
    assert seen[0] is not scheduler._contended_maxmin and seen[0] is seen[1]
    assert scheduler._round_solver.get() is scheduler._contended_maxmin

    del seen[:]
    with scheduler.round_memory() as outer:
        with pytest.raises(SimulationError, match="stop"):
            simharness.run(config)
        assert seen[0] is not outer and scheduler._round_solver.get() is outer
    assert scheduler._round_solver.get() is scheduler._contended_maxmin


def test_the_memory_keeps_at_most_its_bound_least_recent_out(monkeypatch):
    """One round more than the bound drops the least recently used one; a
    round met again counts as used.  The bound is 64, and is run at 4."""
    assert scheduler.ROUND_MEMORY_SIZE == 64
    bound = 4
    monkeypatch.setattr(scheduler, "ROUND_MEMORY_SIZE", bound)
    rounds = [_triangle_round(0, 0.1 + n / 1000) for n in range(bound + 1)]
    mips = _counting_mips(monkeypatch)
    with scheduler.round_memory() as memory:
        for routes in rounds[:bound]:
            solve_one_shot_maxmin(_TRIANGLE, routes)
        assert len(mips) == 2 * bound and memory.cache_info().currsize == bound
        solve_one_shot_maxmin(_TRIANGLE, rounds[0])
        solve_one_shot_maxmin(_TRIANGLE, rounds[bound])
        assert len(mips) == 2 * bound + 2 and memory.cache_info().currsize == bound
        # rounds[1] was the least recently used when rounds[bound] came
        solve_one_shot_maxmin(_TRIANGLE, rounds[0])
        assert len(mips) == 2 * bound + 2
        solve_one_shot_maxmin(_TRIANGLE, rounds[1])
        assert len(mips) == 2 * bound + 4 and memory.cache_info().currsize == bound


# --- instance validation and serialization -----------------------------------


def test_instance_rejects_receiver_below_pair_cap():
    with pytest.raises(ConfigurationError, match="receiver cap"):
        make_instance([[1.0]], [(0, 1)], 2, gs_caps=(1, 1), pair_caps=(2,))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_instance_rejects_non_finite_direct_rate(bad):
    with pytest.raises(StructuralError, match=r"route \(1, None, 0\): rate (nan|inf)"):
        make_instance([[1.0], [bad]], [(0, 1)], 2)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_instance_rejects_non_finite_relay_rate(bad):
    with pytest.raises(StructuralError, match=r"route \(0, 1, 0\): rate (nan|inf)"):
        make_instance([[1.0], [0.0]], [(0, 1)], 2, nu={(0, 1, 0): bad})


def test_instance_rejects_self_relay():
    with pytest.raises(StructuralError, match=r"route \(0, 0, 0\): self relay"):
        make_instance([[1.0]], [(0, 1)], 2, nu={(0, 0, 0): 1.0})


def _two_pair_instance(routes):
    """Two satellites serving pairs (g0, g1) and (g0, g2) over ``routes``."""
    base = make_instance([[0.0, 0.0], [0.0, 0.0]], [(0, 1), (0, 2)], 3)
    return replace(base, routes=routes)


BAD_ROUTES = [
    ((2, None, 0), 1.0, "index out of range"),
    ((-1, None, 0), 1.0, "index out of range"),
    ((0, None, 2), 1.0, "index out of range"),
    ((0, 2, 0), 1.0, "index out of range"),
    ((0, None, 1), 0.0, "rate 0.0 must be positive and finite"),
    ((0, 1, 1), -2.5, "rate -2.5 must be positive and finite"),
]
NON_INTEGER_ROUTES = [((0.5, None, 0), 0.5), ((0, 1.0, 0), 1.0), ((0, None, 0.0), 0.0)]


@pytest.mark.parametrize("route, rate, problem", BAD_ROUTES)
def test_route_map_rejects_a_bad_route_by_name(route, rate, problem):
    routes = {(0, None, 0): 1.0, route: rate}
    with pytest.raises(StructuralError, match=re.escape(f"route {route}: {problem}")):
        _two_pair_instance(routes)


@pytest.mark.parametrize("route, bad", NON_INTEGER_ROUTES)
def test_route_map_refuses_an_index_that_is_not_an_integer(route, bad):
    message = f"route {route}: index {bad!r} is not an integer"
    with pytest.raises(StructuralError, match=re.escape(message)):
        _two_pair_instance({route: 1.0})


@pytest.mark.parametrize("route, rate, problem", BAD_ROUTES)
def test_with_routes_rejects_a_bad_route_by_name(route, rate, problem):
    network = _two_pair_instance({})
    routes = {(0, None, 0): 1.0, route: rate}
    with pytest.raises(StructuralError) as built:
        _two_pair_instance(routes)
    with pytest.raises(StructuralError) as copied:
        network.with_routes(3, routes)
    assert str(copied.value) == str(built.value) == f"route {route}: {problem}"


@pytest.mark.parametrize("route, bad", NON_INTEGER_ROUTES)
def test_with_routes_refuses_an_index_that_is_not_an_integer(route, bad):
    network = _two_pair_instance({})
    with pytest.raises(StructuralError) as built:
        _two_pair_instance({route: 1.0})
    with pytest.raises(StructuralError) as copied:
        network.with_routes(3, {route: 1.0})
    message = f"route {route}: index {bad!r} is not an integer"
    assert str(copied.value) == str(built.value) == message


def test_with_routes_equals_the_constructor():
    routes = {(1, 0, 1): 1.0, (0, None, 1): 2.0, (np.int64(1), None, 0): 4.0}
    network = _two_pair_instance({})
    copied, built = network.with_routes(7, routes), replace(network, time=7, routes=routes)
    assert copied == built and repr(copied) == repr(built)
    assert list(copied.routes) == [(0, None, 1), (1, None, 0), (1, 0, 1)]


CAP_FIELDS = ("sat_caps", "gs_caps", "pair_caps", "reflector_caps")


def test_copies_do_not_carry_the_dense_views_over():
    inst = make_instance([[1.0], [0.0]], [(0, 1)], 2, nu={(1, 0, 0): 2.0})
    assert (inst.omega, inst.nu) == (((1.0,), (0.0,)), {(1, 0, 0): 2.0})
    moved = inst.with_routes(5, {(1, None, 0): 3.0})
    residual = inst.caps_only(*(getattr(inst, name) for name in CAP_FIELDS))
    for copy in (moved, residual):
        assert not {"omega", "nu"} & set(vars(copy))
    assert (moved.time, moved.omega, moved.nu) == (5, ((0.0,), (3.0,)), None)
    assert (residual.routes, residual.omega, residual.nu) == ({}, ((0.0,), (0.0,)), None)
    assert (inst.omega, inst.nu) == (((1.0,), (0.0,)), {(1, 0, 0): 2.0})


def _caps_refusals(inst, **changes):
    """The constructor's and ``caps_only``'s messages on ``inst``'s caps
    with ``changes``, each raised as the same exception type."""
    caps = {name: changes.get(name, getattr(inst, name)) for name in CAP_FIELDS}
    with pytest.raises((StructuralError, ConfigurationError)) as built:
        replace(inst, routes={}, **caps)
    with pytest.raises(built.type) as copied:
        inst.caps_only(**caps)
    return str(built.value), str(copied.value)


@pytest.mark.parametrize("field", CAP_FIELDS)
def test_caps_only_copy_refuses_a_cap_tuple_of_the_wrong_length(field):
    inst = make_instance([[1.0, 0.0], [0.0, 2.0]], [(0, 1), (0, 2)], 3)
    for wrong in (getattr(inst, field)[1:], getattr(inst, field) + (1,)):
        built, copied = _caps_refusals(inst, **{field: wrong})
        assert copied == built and "must align with" in built


def test_caps_only_copy_refuses_a_receiver_dominance_breach():
    inst = make_instance([[1.0, 0.0], [0.0, 2.0]], [(0, 1), (0, 2)], 3, gs_caps=(2, 2, 2))
    built, copied = _caps_refusals(inst, gs_caps=(2, 2, 1), pair_caps=(1, 2))
    assert copied == built == "station g2: receiver cap 1 below pair cap 2 of pair p1"


def test_pair_stations_refuse_an_index_that_is_not_an_integer():
    base = make_instance([[0.0, 0.0], [0.0, 0.0]], [(0, 1), (0, 2)], 3)
    message = "pair 0: station index 0.0 is not an integer"
    with pytest.raises(StructuralError, match=re.escape(message)):
        replace(base, pair_stations=((0.0, 1), (0, 2)))


def test_indices_that_operator_index_reads_are_accepted():
    route = (np.int64(1), None, np.int8(0))
    inst = _two_pair_instance({route: 1.0})
    assert inst.routes == {(1, None, 0): 1.0}
    assert replace(inst, pair_stations=((np.int64(0), True), (0, 2))).routes == inst.routes


def test_route_map_is_stored_in_route_order():
    routes = {
        (1, 0, 1): 1.0,
        (0, None, 1): 2.0,
        (1, 0, 0): 3.0,
        (1, None, 0): 4.0,
        (0, 1, 0): 5.0,
        (0, None, 0): 6.0,
    }
    inst = _two_pair_instance(routes)
    assert list(inst.routes.items()) == [
        ((0, None, 0), 6.0),
        ((0, None, 1), 2.0),
        ((1, None, 0), 4.0),
        ((0, 1, 0), 5.0),
        ((1, 0, 0), 3.0),
        ((1, 0, 1), 1.0),
    ]
    assert inst.omega == ((6.0, 2.0), (4.0, 0.0))
    assert list(inst.nu.items()) == [((0, 1, 0), 5.0), ((1, 0, 0), 3.0), ((1, 0, 1), 1.0)]
    direct_only = _two_pair_instance({(1, None, 1): 7.0})
    assert direct_only.omega == ((0.0, 0.0), (0.0, 7.0))
    assert direct_only.nu is None


def test_timed_pipeline_never_builds_the_dense_views(monkeypatch):
    """The policies, the metrics and the handovers read the route map
    alone, and the orbit layer its position arrays; the dense omega and nu
    views and the id-keyed position views are for checks and oracles.  The
    metrics fold the counts each policy stored on its allocation: they
    never read the allocation's x and y, nor derive counts from them."""

    def refuse(instance):
        raise AssertionError("dense view read in the slot pipeline")

    def store(name):
        def set_field(allocation, value):
            allocation.__dict__[name] = value

        return set_field

    monkeypatch.setattr(SlotInstance, "omega", property(refuse))
    monkeypatch.setattr(SlotInstance, "nu", property(refuse))
    monkeypatch.setattr(ConstellationSnapshot, "sat_positions", property(refuse))
    monkeypatch.setattr(ConstellationSnapshot, "gs_positions", property(refuse))
    # the dataclass still sets x and y; reading either raises
    for name in ("x", "y"):
        monkeypatch.setattr(Allocation, name, property(refuse, store(name)), raising=False)
    with pytest.raises(AssertionError, match="dense view"):
        Allocation(x=((1,),), y=(), objective=0.0).counts
    config = replace(default_scenario(), num_slots=5)
    for policy in simharness.POLICIES:
        report = simharness.run(replace(config, policy=policy))
        assert len(report.series) == 5


def test_policies_store_the_counts_their_x_and_y_hold(monkeypatch):
    """At default scale (20x20, six cities), every allocation the four
    policies return carries the counts it was priced from, equal in items
    and order to those read back from its own x and y."""
    returned = []

    def recording(solver):
        def solve(instance):
            allocation = solver(instance)
            # stored before the metrics read them, not derived by that read
            assert "counts" in vars(allocation)
            returned.append(allocation)
            return allocation

        return solve

    for policy, (relayed, solver) in simharness.POLICIES.items():
        monkeypatch.setitem(simharness.POLICIES, policy, (relayed, recording(solver)))
    config = replace(default_scenario(), num_slots=5)
    for policy in simharness.POLICIES:
        simharness.run(replace(config, policy=policy))
    assert len(returned) == 20
    assert any(allocation.y for allocation in returned)
    for allocation in returned:
        derived = Allocation(allocation.x, allocation.y, allocation.objective).counts
        assert allocation.counts
        assert list(allocation.counts.items()) == list(derived.items())


def test_allocation_checker_flags_overload():
    inst = make_instance([[1.0, 1.0]], [(0, 1), (2, 3)], 4, sat_caps=(1,))
    bad = Allocation(x=((1, 1),), y=(), objective=2.0)
    messages = allocation_violations(inst, bad)
    assert any("exceed" in m for m in messages)


def test_allocation_checker_reads_the_route_map_and_names_bad_relays(monkeypatch):
    inst = make_instance(
        [[1.0], [2.0]], [(0, 1)], 2, pair_caps=(2,), nu={(0, 1, 0): 4.0}
    )

    def refuse(instance):
        raise AssertionError("dense view read by the allocation checker")

    monkeypatch.setattr(SlotInstance, "omega", property(refuse))
    monkeypatch.setattr(SlotInstance, "nu", property(refuse))
    good = Allocation(x=((0,), (1,)), y=((0, 1, 0, 1),), objective=6.0)
    assert allocation_violations(inst, good) == []
    # -1 would index the last satellite and 5 past the end
    for entry in ((0, -1, 0, 1), (0, 5, 0, 1)):
        bad = Allocation(x=((0,), (0,)), y=(entry,), objective=0.0)
        assert allocation_violations(inst, bad) == [
            f"relay entry {entry[:3]} is out of range"
        ]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_allocation_checker_reports_non_finite_counts(bad):
    inst = make_instance([[1.0], [2.0]], [(0, 1)], 2, nu={(0, 1, 0): 4.0})
    direct = Allocation(x=((bad,), (0,)), y=(), objective=0.0)
    assert f"direct count {bad} is not a nonnegative integer" in (
        allocation_violations(inst, direct)
    )
    relay = Allocation(x=((0,), (0,)), y=((0, 1, 0, bad),), objective=0.0)
    assert f"relay count {bad} is not a nonnegative integer" in (
        allocation_violations(inst, relay)
    )


def test_allocation_json_shape():
    inst = make_instance([[5.0, 3.0]], [(0, 1), (2, 3)], 4)
    alloc = solve_primary_ratesum(inst)
    payload = allocation_to_json(inst, alloc, "primary_ratesum")
    assert payload["t"] == 0
    assert payload["policy"] == "primary_ratesum"
    assert payload["counts"] == [[0, None, 0, 1]]
    # a direct route's relay is written null
    assert json.loads(json.dumps(payload))["counts"] == [[0, None, 0, 1]]
    assert payload["objective"] == pytest.approx(5.0)
    assert payload["per_pair_edr"] == {"p0": 5.0, "p1": 0.0}


def test_allocation_json_relayed_counts():
    inst = make_instance(
        [[0.0], [0.0]],
        [(0, 1)],
        2,
        sat_caps=(1, 1),
        nu={(0, 1, 0): 7.0},
    )
    alloc = solve_reflection_ratesum(inst)
    payload = allocation_to_json(inst, alloc, "reflection_ratesum")
    assert payload["counts"] == [[0, 1, 0, 1]]
    assert payload["per_pair_edr"]["p0"] == pytest.approx(7.0)


def test_replaced_allocation_reads_counts_from_its_own_x_and_y():
    """``dataclasses.replace`` builds a new allocation, so its counts and
    its metrics follow the replaced x or y, never the stored counts of the
    allocation it came from."""
    inst = make_instance(
        [[1.0], [2.0], [0.0]], [(0, 1)], 2, sat_caps=(1, 1, 1), pair_caps=(2,),
        nu={(2, 0, 0): 4.0},
    )
    alloc = solve_reflection_ratesum(inst)
    assert (alloc.x, alloc.y) == (((0,), (1,), (0,)), ((2, 0, 0, 1),))
    assert alloc.counts == {(1, None, 0): 1, (2, 0, 0): 1}
    assert "counts" not in repr(alloc)
    assert replace(alloc) == alloc
    relayed = ("s2", "s0")
    cases = (
        (
            replace(alloc, x=((1,), (0,), (0,))),
            {(0, None, 0): 1, (2, 0, 0): 1},
            5.0,
            {"s0", relayed},
        ),
        (replace(alloc, y=()), {(1, None, 0): 1}, 2.0, {"s1"}),
        (
            replace(alloc, y=((2, 0, 0, 2),)),
            {(1, None, 0): 1, (2, 0, 0): 2},
            10.0,
            {"s1", relayed},
        ),
    )
    for replaced, counts, rate, servers in cases:
        assert list(replaced.counts.items()) == list(counts.items())
        assert pair_edr(inst, replaced) == {"p0": rate}
        assert simharness.serving_sets(inst, replaced) == {"p0": frozenset(servers)}
    # the stored counts of the source allocation are untouched
    assert alloc.counts == {(1, None, 0): 1, (2, 0, 0): 1}
    assert pair_edr(inst, alloc) == {"p0": 6.0}


# --- visibility screen --------------------------------------------------------


def _brute_links(snapshot, min_elevation):
    """The gated table from scalar geometry on every cell, keyed by row."""
    table = []
    for gs in snapshot.station_ids:
        table.append({})
        for s, sat in enumerate(snapshot.sat_ids):
            geom = orbital.link_geometry(snapshot, sat, gs)
            if geom.elevation >= min_elevation:
                table[-1][s] = geom
    return table


def _assert_same_table(screened, brute):
    assert screened == brute
    assert [list(row) for row in screened] == [list(row) for row in brute]


def test_screen_calls_link_geometry_only_near_visible_cells(monkeypatch):
    """Inside a run's block memory, one array link_geometry call per block
    and mask decides the screened cells of all the block's slots: every
    visible cell and fewer than all, in (slot, station, satellite) order,
    whatever builds or reads the slots.  Each slot's table equals the
    table of link_geometry on every cell."""
    config = default_scenario()
    network = simharness.build_network(config)
    env = simharness.resolve_weather(config)
    masks = (config.min_elevation, 30.0)
    # 2,400 cells a slot: blocks of 6 slots, [0, 6) and [6, 8)
    slots = 8
    brute = {
        (t, mask): _brute_links(
            orbital.propagate(config.constellation, config.stations, t, 10.0), mask
        )
        for t in range(slots)
        for mask in masks
    }
    downlinks = _count_calls(monkeypatch, orbital, "link_geometry")
    with orbital.slot_blocks(slots):
        for t in range(slots):
            snapshot = orbital.propagate(
                config.constellation, config.stations, t, config.slot_duration
            )
            for _ in range(2):
                build_weights(
                    snapshot,
                    network,
                    config.physics,
                    env,
                    config.min_elevation,
                    config.fidelity_threshold,
                    month=config.month,
                    hour_utc=(t * config.slot_duration / 3600.0) % 24.0,
                )
            for mask in masks:
                _assert_same_table(orbital.visible_links(snapshot, mask), brute[t, mask])
    # blocks in slot order, each under the builders' mask, then the other
    assert len(downlinks) == 4
    cells_per_slot = len(network.station_ids) * len(network.sat_ids)
    for (start, length), mask, ((slot, sat), (_, station)) in zip(
        [(0, 6), (0, 6), (6, 2), (6, 2)], [*masks, *masks], downlinks
    ):
        cells = list(zip((slot + start).tolist(), station.tolist(), sat.tolist()))
        assert cells == sorted(set(cells))
        visible = [
            (t, g, s)
            for t in range(start, start + length)
            for g, row in enumerate(brute[t, mask])
            for s in row
        ]
        assert set(visible) <= set(cells)
        assert 0 < len(visible) <= len(cells) < length * cells_per_slot


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
    """A snapshot and a mask, with some cells within 1e-9 deg of it."""
    mask = draw(st.floats(0.0, 90.0, exclude_max=True))
    gs_positions = {}
    for n in range(draw(st.integers(1, 3))):
        unit = latlon_to_unit(draw(_latitudes), draw(_longitudes))
        gs_positions[f"g{n}"] = tuple(EARTH_RADIUS * c for c in unit)
    sat_positions = {}
    for n in range(draw(st.integers(0, 6))):
        unit = latlon_to_unit(draw(_latitudes), draw(_longitudes))
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
    snapshot = ConstellationSnapshot.from_positions(
        time=0,
        sat_positions=sat_positions,
        gs_positions=gs_positions,
    )
    return snapshot, mask


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_skies())
def test_screen_equals_brute_force_table(sky):
    snapshot, mask = sky
    _assert_same_table(
        orbital.visible_links(snapshot, mask), _brute_links(snapshot, mask)
    )


def _random_station(rng):
    unit = latlon_to_unit(rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0))
    return tuple(EARTH_RADIUS * c for c in unit)


def test_screen_passes_coincident_cells_to_link_geometry():
    # a satellite at exactly a station's (non-integer) coordinates: the
    # screen's squared slant there is cancellation noise of either sign, so
    # the cell must still reach link_geometry, which refuses it
    rng = random.Random(200)
    for _ in range(200):
        position = _random_station(rng)
        snapshot = ConstellationSnapshot.from_positions(
            0, {"s0": position}, {"g0": position}
        )
        with pytest.raises(ConfigurationError, match="coincide"):
            orbital.visible_links(snapshot, 20.0)


@pytest.mark.parametrize("mask", [0.0, 89.9])
@pytest.mark.parametrize("slant", [1e-3, 1.0, 1e3])
def test_screen_equals_brute_force_table_near_a_station(slant, mask):
    # satellites `slant` meters from a station, where the screen's
    # cancellation error is largest, beside constellation-height ones
    rng = random.Random(f"{slant}/{mask}")
    gs_positions = {f"g{n}": _random_station(rng) for n in range(3)}
    sat_positions = {}
    for n in range(24):
        station = gs_positions[f"g{n % 3}"]
        offset = rng.choice([-1e-6, 0.0, 1e-6, rng.uniform(-0.05, 0.05)])
        sat_positions[f"n{n}"] = _position_at_elevation(
            station, min(90.0, mask + offset), rng.uniform(0.0, 360.0), slant
        )
        sat_positions[f"h{n}"] = _position_at_elevation(
            station, rng.uniform(-90.0, 90.0), rng.uniform(0.0, 360.0), 1000e3
        )
    snapshot = ConstellationSnapshot.from_positions(0, sat_positions, gs_positions)
    brute = _brute_links(snapshot, mask)
    near = {n for row in brute for n in row if snapshot.sat_ids[n].startswith("n")}
    assert 0 < len(near) < 24
    _assert_same_table(orbital.visible_links(snapshot, mask), brute)


@st.composite
def _sky_blocks(draw):
    """One to four hand-placed snapshots of the same ids and a mask: the
    stations and satellites move from slot to slot, some satellites lie
    within 1e-9 deg of the mask, and some lie at most 30 km from a
    station, where the screen's near bound (about 22 km) passes cells
    unscreened: at the mask, or below it."""
    mask = draw(st.floats(0.0, 90.0, exclude_max=True))
    stations, sats = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    edges, near = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    near_slants = st.sampled_from([1e-3, 1.0, 1e3]) | st.floats(15e3, 30e3)
    snapshots = []
    for _ in range(draw(st.integers(1, 4))):
        gs_positions = {}
        for n in range(stations):
            unit = latlon_to_unit(draw(_latitudes), draw(_longitudes))
            gs_positions[f"g{n}"] = tuple(EARTH_RADIUS * c for c in unit)
        sat_positions = {}
        for n in range(sats):
            unit = latlon_to_unit(draw(_latitudes), draw(_longitudes))
            radius = EARTH_RADIUS + draw(st.floats(300e3, 2000e3))
            sat_positions[f"s{n}"] = tuple(radius * c for c in unit)
        for n in range(edges + near):
            if n < edges or draw(st.booleans()):
                elevation = min(90.0, mask + draw(st.floats(-1e-9, 1e-9)))
            else:
                elevation = max(-90.0, mask - draw(st.floats(1.0, 60.0)))
            sat_positions[f"m{n}"] = _position_at_elevation(
                gs_positions[f"g{n % stations}"],
                elevation,
                draw(st.floats(0.0, 360.0)),
                draw(st.floats(100e3, 3000e3) if n < edges else near_slants),
            )
        snapshots.append(
            ConstellationSnapshot.from_positions(0, sat_positions, gs_positions)
        )
    return snapshots, mask


def _block_of(snapshots):
    """Snapshots of the same ids, as slots 0, 1, ... of one block."""
    block = orbital.SlotBlock(
        0,
        np.stack([s.sat_xyz for s in snapshots]),
        np.stack([s.gs_xyz for s in snapshots]),
    )
    ref = weakref.ref(block)
    block.snapshots = tuple(
        replace(s, time=k, block=ref) for k, s in enumerate(snapshots)
    )
    return block


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_sky_blocks())
def test_a_block_screens_each_slot_as_that_slot_alone(sky):
    # the block's screen bounds its near cells by the largest radii of all
    # its slots, which can only pass more cells to link_geometry
    snapshots, mask = sky
    block = _block_of(snapshots)
    passed = orbital._screen(block.gs_xyz, block.sat_xyz, mask)
    for lone, blocked, cells in zip(snapshots, block.snapshots, passed):
        alone = orbital._screen(lone.gs_xyz[None], lone.sat_xyz[None], mask)[0]
        assert not (alone & ~cells).any()
        brute = _brute_links(lone, mask)
        _assert_same_table(orbital.visible_links(lone, mask), brute)
        _assert_same_table(orbital.visible_links(blocked, mask), brute)
    assert list(block._screens) == [mask]


def test_a_block_bounds_its_near_cells_by_its_largest_radii():
    # a satellite 23 km from the station, 30 deg below the mask, lies
    # inside the near bound of the slot whose other satellite flies at
    # 3,000 km (about 25.7 km) but outside that of the slot where it flies
    # at 300 km (about 21.3 km); the block takes the larger bound for both
    mask = 20.0
    station = {"g": (EARTH_RADIUS, 0.0, 0.0)}
    near = _position_at_elevation(station["g"], mask - 30.0, 40.0, 23e3)
    snapshots = [
        ConstellationSnapshot.from_positions(
            0, {"high": (0.0, 0.0, EARTH_RADIUS + altitude), "near": near}, station
        )
        for altitude in (300e3, 3000e3)
    ]
    block = _block_of(snapshots)
    passed = orbital._screen(block.gs_xyz, block.sat_xyz, mask)
    alone = [
        orbital._screen(s.gs_xyz[None], s.sat_xyz[None], mask)[0] for s in snapshots
    ]
    assert [cells[0, 1] for cells in alone] == [False, True]
    assert passed[:, 0, 1].tolist() == [True, True]
    for lone, blocked in zip(snapshots, block.snapshots):
        brute = _brute_links(lone, mask)
        assert brute == [{}]
        _assert_same_table(orbital.visible_links(blocked, mask), brute)


def _hex_table(table):
    """A link table, every float by its bits, in table order."""
    return [
        [(s, g.elevation.hex(), g.slant_range.hex()) for s, g in row.items()]
        for row in table
    ]


def _hex_routes(routes):
    """A route map's items in order, every rate by its bits."""
    return [(route, rate.hex()) for route, rate in routes.items()]


def _oracle_slots(config, network, env, slots):
    """Each slot placed alone and priced one link at a time by the scalar
    oracle: its link table and its route map in route order, direct then
    relayed, floats by their bits."""
    expected = []
    for t in slots:
        snapshot = orbital.propagate(
            config.constellation, config.stations, t, config.slot_duration
        )
        hour_utc = (t * config.slot_duration / 3600.0) % 24.0
        oracle = ScalarSlot(
            snapshot,
            network,
            config.physics,
            env,
            config.min_elevation,
            config.fidelity_threshold,
            config.month,
            hour_utc,
        )
        relayed = _scalar_relay_rates(snapshot, network, config, env, hour_utc, oracle)
        routes = dict(sorted(oracle.direct.items()))
        routes.update(sorted(relayed.items()))
        expected.append((_hex_table(oracle.links), _hex_routes(routes)))
    return expected


def _blocked_slots(config, network, env, slots):
    """Each slot built inside a run's block memory as the run builds it,
    with its relays: its link table and route map, floats by their bits;
    and (start, length) of each block whose weights pass priced them."""
    built, passes = [], []
    with orbital.slot_blocks(slots):
        for t in range(slots):
            snapshot = orbital.propagate(
                config.constellation, config.stations, t, config.slot_duration
            )
            instance = build_reflection_weights(
                snapshot,
                network,
                config.physics,
                env,
                config.min_elevation,
                config.fidelity_threshold,
                config.mirror_efficiency,
                month=config.month,
                hour_utc=(t * config.slot_duration / 3600.0) % 24.0,
            )
            block = snapshot.block()
            key, weights = block.weights
            assert weights is not None and key[0] is network
            if not passes or passes[-1][0] is not weights:
                passes.append((weights, (block.start, len(block.snapshots))))
            table = orbital.visible_links(snapshot, config.min_elevation)
            built.append((_hex_table(table), _hex_routes(instance.routes)))
    return built, [blocks for _, blocks in passes]


def test_block_pass_equals_the_scalar_oracle_over_the_reduced_day():
    """Every slot of the reduced day, 68-slot blocks and a last one of
    12, gets the link table and routes of the scalar oracle, bit for bit
    and in order."""
    config = _reduced_day()
    env = simharness.resolve_weather(config)
    network = simharness.build_network(config)
    expected = _oracle_slots(config, network, env, range(config.num_slots))
    built, blocks = _blocked_slots(config, network, env, config.num_slots)
    assert blocks == [(start, 68) for start in range(0, 1428, 68)] + [(1428, 12)]
    for t, (got, want) in enumerate(zip(built, expected)):
        assert got == want, f"slot {t}"
    routes = [route for _, slot_routes in expected for route, _ in slot_routes]
    assert sum(k is None for _, k, _ in routes) > 100
    assert sum(k is not None for _, k, _ in routes) > 200


@pytest.mark.parametrize("length", [2, 3, 7, 20])
def test_block_pass_equals_the_scalar_oracle_across_block_boundaries(
    monkeypatch, length
):
    """A 20-slot default window cut into blocks of ``length`` slots (the
    last one shorter) gets the oracle's tables and routes, bit for bit
    and in order."""
    config = default_scenario()
    env = simharness.resolve_weather(config)
    network = simharness.build_network(config)
    expected = _oracle_slots(config, network, env, range(20))
    cells = len(network.station_ids) * len(network.sat_ids)
    monkeypatch.setattr(orbital, "BLOCK_CELLS", length * cells + cells // 2)
    built, blocks = _blocked_slots(config, network, env, 20)
    assert blocks == [(start, min(length, 20 - start)) for start in range(0, 20, length)]
    for t, (got, want) in enumerate(zip(built, expected)):
        assert got == want, f"slot {t}"
    assert sum(len(routes) for _, routes in expected) > 1000


def _reduced_day():
    return apply_overrides(
        default_scenario(),
        {
            "constellation.rings": "4",
            "constellation.sats_per_ring": "10",
            "slot_duration": "60",
            "weather_seed": "23",
            "num_slots": "1440",
            "policy": "reflection_ratefair",
        },
    )


def test_a_station_first_read_mid_block_fails_its_own_slot(monkeypatch):
    """new_york and toronto, without weather records, are first read by a
    route at slot 1 of the reduced scenario, the middle of the run's one
    block, where their pair comes first: the block's pass raises, slot 0
    is priced as usual, and slot 1 fails with the message of the
    per-link loop, which reads the pair's first station first."""
    config = replace(_reduced_day(), num_slots=3, policy="primary_ratesum")
    env = simharness.resolve_weather(config)
    without = EnvironmentTable(
        records={
            k: r for k, r in env.records.items() if k[0] not in ("new_york", "toronto")
        }
    )
    network = simharness.build_network(config)
    snapshot = orbital.propagate(config.constellation, config.stations, 1, 60.0)
    with pytest.raises(IngestionError) as per_link:
        ScalarSlot(
            snapshot,
            network,
            config.physics,
            without,
            config.min_elevation,
            config.fidelity_threshold,
            config.month,
            60.0 / 3600.0,
        )
    instances = []
    flag, solver = simharness.POLICIES[config.policy]

    def kept(instance):
        instances.append(instance)
        return solver(instance)

    monkeypatch.setitem(simharness.POLICIES, config.policy, (flag, kept))
    with pytest.raises(SimulationError) as failure:
        simharness.run(config, without)
    assert failure.value.slot == 1
    assert str(failure.value) == f"slot 1: {per_link.value}"
    assert str(per_link.value) == "station new_york: no weather records available"
    assert [inst.time for inst in instances] == [0]
    failed = instances.pop()
    simharness.run(config, env)
    assert _hex_routes(failed.routes) == _hex_routes(instances[0].routes)
    assert failed.routes


def test_a_coincident_cell_mid_block_fails_its_own_slot():
    """In a hand-built 3-slot block whose middle slot has the satellite
    on the stations, the block's pass raises: slots 0 and 2 are priced
    as they are alone, and slot 1 raises the per-link message."""
    scene, network, env = overhead_scene()
    ground = scene.gs_xyz
    sat_xyz = np.stack([scene.sat_xyz, ground[:1], scene.sat_xyz])
    block = orbital.SlotBlock(0, sat_xyz, np.stack([ground] * 3), slot_duration=10.0)
    ref = weakref.ref(block)
    block.snapshots = tuple(
        ConstellationSnapshot(t, scene.sat_ids, sat_xyz[t], scene.station_ids, ground, ref)
        for t in range(3)
    )
    alone = build_weights(scene, network, PHYSICS, env, 20.0, 0.85, month=6)
    assert alone.routes
    for t in (0, 2, 1):
        snapshot = block.snapshots[t]
        args = (snapshot, network, PHYSICS, env, 20.0, 0.85)
        hour_utc = t * 10.0 / 3600.0
        if t == 1:
            with pytest.raises(ConfigurationError) as raised:
                build_weights(*args, month=6, hour_utc=hour_utc)
            assert str(raised.value) == "satellite and station coincide"
        else:
            built = build_weights(*args, month=6, hour_utc=hour_utc)
            assert built.time == t
            assert _hex_routes(built.routes) == _hex_routes(alone.routes)
    # the block's pass was tried once, and failed
    assert block.weights[1] is None
    assert block.links(20.0) is None


def test_a_slot_asked_at_another_hour_is_priced_alone_at_that_hour():
    """A caller whose hour is not the run's hour for the slot gets the
    slot priced as a block of one at its hour; the block keeps its
    pass."""
    config = default_scenario()
    env = simharness.resolve_weather(config)
    network = simharness.build_network(config)
    args = (
        network,
        config.physics,
        env,
        config.min_elevation,
        config.fidelity_threshold,
    )
    lone = orbital.propagate(config.constellation, config.stations, 1, 10.0)
    with orbital.slot_blocks(6):
        first = orbital.propagate(config.constellation, config.stations, 0, 10.0)
        build_weights(first, *args, month=config.month, hour_utc=0.0)
        made = first.block().weights
        snapshot = orbital.propagate(config.constellation, config.stations, 1, 10.0)
        for hour_utc in (12.0, 10.0 / 3600.0):
            built = build_weights(snapshot, *args, month=config.month, hour_utc=hour_utc)
            expected = build_weights(lone, *args, month=config.month, hour_utc=hour_utc)
            assert _hex_routes(built.routes) == _hex_routes(expected.routes)
            assert snapshot.block().weights is made
    noon = build_weights(lone, *args, month=config.month, hour_utc=12.0)
    assert _hex_routes(noon.routes) != _hex_routes(expected.routes)


def test_build_weights_unknown_ids_and_coincident_link():
    snapshot, network, env = overhead_scene(n_sats=2)
    no_sat = ConstellationSnapshot.from_positions(
        0, {"s0": snapshot.sat_positions["s0"]}, snapshot.gs_positions
    )
    with pytest.raises(UnknownIdError, match="unknown satellite id 's1'"):
        build_weights(no_sat, network, PHYSICS, env, 20.0, 0.85, month=6)
    no_station = ConstellationSnapshot.from_positions(
        0, snapshot.sat_positions, {"ga": snapshot.gs_positions["ga"]}
    )
    with pytest.raises(UnknownIdError, match="unknown ground station id 'gb'"):
        build_weights(no_station, network, PHYSICS, env, 20.0, 0.85, month=6)
    coincident = ConstellationSnapshot.from_positions(
        0,
        {"s0": (EARTH_RADIUS, 0.0, 0.0), "s1": (0.0, 0.0, 0.0)},
        snapshot.gs_positions,
    )
    with pytest.raises(ConfigurationError, match="coincide"):
        build_weights(coincident, network, PHYSICS, env, 20.0, 0.85, month=6)


@pytest.mark.parametrize("relayed", [False, True])
def test_build_weights_refuses_a_snapshot_out_of_network_rows(relayed):
    # the link table is keyed by row, so a snapshot whose rows are not the
    # network's ids in its order is refused rather than misattributed
    snapshot, network, env = overhead_scene(n_sats=2)
    sats, stations = snapshot.sat_positions, snapshot.gs_positions
    skies = [
        ({"s1": sats["s1"], "s0": sats["s0"]}, stations),
        ({**sats, "s2": sats["s0"]}, stations),
        (sats, {"gb": stations["gb"], "ga": stations["ga"]}),
    ]
    for sat_positions, gs_positions in skies:
        moved = ConstellationSnapshot.from_positions(0, sat_positions, gs_positions)
        with pytest.raises(ConfigurationError, match="in the network's order"):
            if relayed:
                build_reflection_weights(
                    moved, network, PHYSICS, env, 20.0, 0.85, 0.95, month=6
                )
            else:
                build_weights(moved, network, PHYSICS, env, 20.0, 0.85, month=6)


# --- row-skipping scans against their dense references ----------------------


def _room(instance, route):
    """The least cap among those the route touches."""
    i, k, j = route
    caps = [instance.sat_caps[i], instance.pair_caps[j]]
    caps += [instance.gs_caps[g] for g in instance.pair_stations[j]]
    if k is not None:
        caps.append(instance.reflector_caps[k])
    return min(caps)


def _dense_support(instance, x_weights, y_weights):
    """Support routes and their room, from every cell of a dense direct
    weight table and every relay key."""
    direct = [
        (i, None, j)
        for i in range(instance.num_sats)
        for j in range(instance.num_pairs)
        if x_weights[i][j] > 0
    ]
    relayed = [key for key in sorted(y_weights) if y_weights[key] > 0]
    return [
        (route, room)
        for route in direct + relayed
        if (room := _room(instance, route)) > 0
    ]


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
    # left to right, as the program folds: from Python 3.12 on, the
    # built-in sum of floats is compensated, and the objectives compared
    # by repr below could differ
    add = operator.add
    objective = float(
        functools.reduce(add, (instance.omega[i][j] * c for i, j, c in direct), 0)
    )
    if y:
        terms = (instance.nu[(i, k, j)] * c for i, k, j, c in y)
        objective += functools.reduce(add, terms, 0)
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
        nu = base.nu or {}
        omega = _sparse_rows(rng, n_sat, n_pair, lambda: rng.uniform(0.1, 10.0))
        inst = replace(base, routes=dense_routes(omega, nu))
        counts = _sparse_rows(rng, n_sat, n_pair, lambda: rng.randint(1, 2))
        x = tuple(tuple(int(c) for c in row) for row in counts)
        y = tuple(
            (i, k, j, rng.randint(0, 2))
            for (i, k, j) in sorted(nu)
            if rng.random() < 0.5
        )
        allocation = Allocation(x=x, y=y, objective=0.0)
        weights = _sparse_rows(
            rng, n_sat, n_pair, lambda: rng.choice((rng.uniform(0.1, 5.0), math.nan))
        )

        # the instance's rates, and a weight map that skips the NaN cells
        weighted = {
            (i, None, j): w
            for i, row in enumerate(weights)
            for j, w in enumerate(row)
            if w > 0
        }
        weighted.update(nu)
        for routes, x_weights in ((inst.routes, omega), (weighted, weights)):
            support = scheduler._support(inst, routes)
            assert list(support.items()) == _dense_support(inst, x_weights, nu)
        got, want = pair_edr(inst, allocation), _dense_pair_edr(inst, allocation)
        assert list(got) == list(want)
        assert all(got[pid] == want[pid] for pid in want)
        assert simharness.serving_sets(inst, allocation) == _dense_serving_sets(
            inst, allocation
        )
        counts = dict(allocation.counts)
        # rate-fair prices its counts in the order its rounds froze them
        counts = dict(reversed(counts.items()))
        priced, dense = scheduler._priced(inst, counts), _dense_priced(inst, counts)
        assert priced == dense
        assert repr(priced.objective) == repr(dense.objective)
        # the counts _priced stored equal those read from its x and y
        derived = Allocation(priced.x, priced.y, priced.objective).counts
        assert list(priced.counts.items()) == list(derived.items())
        # an instance cannot hold the NaN cells, so its table zeroes them
        finite = tuple(tuple(0.0 if math.isnan(w) else w for w in row) for row in weights)
        for instance in (inst, replace(inst, routes=dense_routes(finite, nu))):
            assert simharness.connectivity_count(
                instance
            ) == _dense_connectivity_count(instance)
        if finite != tuple(weights):
            with pytest.raises(StructuralError, match="must be positive and finite"):
                replace(inst, routes=dense_routes(weights, nu))


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
