"""Multi-slot simulation driver and the two-satellite relay case study.

The driver propagates the constellation slot by slot, from blocks of
slots placed together, rebuilds the weight instance, solves the
configured policy, and folds the allocations into time series plus day
totals.  The case study strips the problem down to
two stations under a single orbit plane and integrates delivered rate
over a pass, once for a lone dual-downlink satellite and once for the
best phase-split satellite pair.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import operator
import os
from dataclasses import dataclass, field

from .environment import EnvironmentTable, load_weather, synth_weather
from .errors import ConfigurationError, SimulationError, StructuralError
from .linkphys import (
    ArmChannel,
    OpticsParams,
    arm_transmissivity,
    end_to_end_outcome,
    free_space_transmissivity,
    reflection_arms,
)
from .orbital import (
    EARTH_RADIUS,
    EARTH_ROTATION_PERIOD,
    ISL_CLEARANCE,
    ConstellationConfig,
    GroundStation,
    constellation_ids,
    orbital_period,
    overhead_visibility_arcs,
    propagate,
    slot_blocks,
)
from .scheduler import (
    PairSpec,
    PhysicsParams,
    SlotInstance,
    build_reflection_weights,
    build_weights,
    default_physics,
    mirror_hop,
    pair_edr,
    round_memory,
    solve_primary_ratefair,
    solve_primary_ratesum,
    solve_reflection_ratefair,
    solve_reflection_ratesum,
)

POLICIES = {
    "primary_ratesum": (False, solve_primary_ratesum),
    "primary_ratefair": (False, solve_primary_ratefair),
    "reflection_ratesum": (True, solve_reflection_ratesum),
    "reflection_ratefair": (True, solve_reflection_ratefair),
}

PHASE_SWEEP_POINTS = 721


@dataclass(frozen=True)
class ScenarioConfig:
    constellation: ConstellationConfig
    stations: tuple[GroundStation, ...]
    pairs: tuple[PairSpec, ...] = ()
    slot_duration: float = 10.0
    num_slots: int = 8640
    month: int = 6
    policy: str = "primary_ratesum"
    physics: PhysicsParams = field(default_factory=default_physics)
    min_elevation: float = 20.0
    fidelity_threshold: float = 0.85
    mirror_efficiency: float = 0.95
    transmitter_cap: int = 10
    reflector_cap: int = 10
    pair_cap: int = 10
    weather_csv: str | None = None
    weather_seed: int = 0

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ConfigurationError(
                f"unknown policy {self.policy!r}; choose one of "
                + ", ".join(sorted(POLICIES))
            )
        if self.slot_duration <= 0:
            raise ConfigurationError("slot duration must be positive")
        if self.num_slots <= 0:
            raise ConfigurationError("slot count must be positive")
        self._check_slot_angles()
        if not 1 <= self.month <= 12:
            raise ConfigurationError(f"month {self.month} outside 1..12")
        if not 0.0 <= self.min_elevation < 90.0:
            raise ConfigurationError("minimum elevation must lie in [0, 90)")
        if not 0.0 <= self.fidelity_threshold <= 1.0:
            raise ConfigurationError(
                f"fidelity threshold {self.fidelity_threshold} outside [0, 1]"
            )
        if not 0.0 <= self.mirror_efficiency <= 1.0:
            raise ConfigurationError("mirror efficiency must lie in [0, 1]")
        if self.transmitter_cap < 0 or self.reflector_cap < 0 or self.pair_cap < 0:
            raise ConfigurationError("capacity caps must be nonnegative")
        if len(self.stations) < 2:
            raise ConfigurationError("at least two ground stations are required")
        receiver_caps = {}
        for gs in self.stations:
            if gs.id in receiver_caps:
                raise ConfigurationError(f"duplicate station id {gs.id!r}")
            receiver_caps[gs.id] = gs.receiver_cap
        pair_ids = set()
        for pair in self.resolved_pairs():
            if pair.id in pair_ids:
                raise ConfigurationError(f"duplicate pair id {pair.id}")
            pair_ids.add(pair.id)
            for sid in (pair.station_a, pair.station_b):
                if sid not in receiver_caps:
                    raise ConfigurationError(f"pair {pair.id}: unknown station {sid!r}")
                if receiver_caps[sid] < pair.pair_cap:
                    raise ConfigurationError(
                        f"station {sid}: receiver cap {receiver_caps[sid]} "
                        f"below pair cap {pair.pair_cap} of pair {pair.id}"
                    )

    def _check_slot_angles(self) -> None:
        """Refuse a scenario whose last slot has a time, Earth-spin angle
        or orbit angle that is not finite, as ``propagate`` computes them.
        Each grows with the slot index from slot 0, at the finite epoch,
        so the last slot bounds every slot."""
        try:
            elapsed = (self.num_slots - 1) * self.slot_duration
        except OverflowError:  # a slot count past the float range
            elapsed = math.inf
        spin = 2.0 * math.pi * elapsed / EARTH_ROTATION_PERIOD
        if not math.isfinite(spin):
            raise ConfigurationError(
                f"field slot_duration: {self.num_slots} slots of "
                f"{self.slot_duration} s overflow the Earth-spin angle"
            )
        epoch = self.constellation.epoch
        mean_motion = 2.0 * math.pi / orbital_period(self.constellation.altitude)
        if not math.isfinite(mean_motion * (epoch + elapsed)):
            raise ConfigurationError(
                f"field constellation.epoch: epoch {epoch} s plus {elapsed} s "
                "of slots overflows the orbit angle"
            )

    def resolved_pairs(self) -> tuple[PairSpec, ...]:
        """Explicit pairs, or every unordered station pair when unset."""
        if self.pairs:
            return self.pairs
        pairs = []
        for a in range(len(self.stations)):
            for b in range(a + 1, len(self.stations)):
                sa, sb = self.stations[a].id, self.stations[b].id
                pairs.append(
                    PairSpec(
                        id=f"{sa}-{sb}",
                        station_a=sa,
                        station_b=sb,
                        pair_cap=self.pair_cap,
                    )
                )
        return tuple(pairs)


@dataclass(frozen=True)
class SlotMetrics:
    t: int
    aggregate_edr: float
    per_pair_edr: dict[str, float]
    connectivity: int
    handovers_since_prev: int


@dataclass(frozen=True)
class RunReport:
    series: tuple[SlotMetrics, ...]
    per_pair_daily: dict[str, float]
    served_pair_count: int
    total_handovers: int


def resolve_weather(config: ScenarioConfig) -> EnvironmentTable:
    if config.weather_csv is not None:
        return load_weather(config.weather_csv)
    return synth_weather(config.weather_seed, config.stations, {config.month})


def build_network(config: ScenarioConfig) -> SlotInstance:
    """The run's network: every satellite, station and pair with its cap,
    at time 0 and with no routes.  Each slot's weight builder returns it
    with that slot's time and routes, sharing its ids and caps."""
    sat_ids = constellation_ids(
        config.constellation.rings, config.constellation.sats_per_ring
    )
    station_ids = tuple(gs.id for gs in config.stations)
    station_index = {sid: g for g, sid in enumerate(station_ids)}
    pairs = config.resolved_pairs()
    return SlotInstance(
        time=0,
        sat_ids=sat_ids,
        station_ids=station_ids,
        pair_ids=tuple(p.id for p in pairs),
        pair_stations=tuple(
            (station_index[p.station_a], station_index[p.station_b]) for p in pairs
        ),
        routes={},
        sat_caps=(config.transmitter_cap,) * len(sat_ids),
        gs_caps=tuple(gs.receiver_cap for gs in config.stations),
        pair_caps=tuple(p.pair_cap for p in pairs),
        reflector_caps=(config.reflector_cap,) * len(sat_ids),
    )


def serving_sets(instance, allocation) -> dict[str, frozenset]:
    """Per pair, the identities delivering it entanglement this slot.

    Direct service is identified by the satellite id; relayed service by
    the (source, relay) id pair, since moving either endpoint re-points
    hardware just like swapping a direct satellite does.  Reads the
    allocation's route counts (``Allocation.counts``), not its dense
    ``x``.
    """
    sat_ids, pair_ids = instance.sat_ids, instance.pair_ids
    servers: dict[str, set] = {pid: set() for pid in pair_ids}
    for (i, k, j), count in allocation.counts.items():
        if count > 0:
            server = sat_ids[i]
            if k is not None:
                server = (server, sat_ids[k])
            servers[pair_ids[j]].add(server)
    return {pid: frozenset(s) for pid, s in servers.items()}


def count_handovers(previous: dict[str, frozenset], current: dict[str, frozenset]) -> int:
    """Servers dropped by pairs that stayed in service across the boundary.

    A pair that loses service entirely contributes nothing; the cost being
    counted is re-pointing, which only happens when service continues on
    different hardware.
    """
    if set(previous) != set(current):
        raise StructuralError("handover comparison over mismatched pair sets")
    total = 0
    for pid, before in previous.items():
        after = current[pid]
        if before and after:
            total += len(before - after)
    return total


def connectivity_count(instance) -> int:
    """Pairs with at least one direct route this slot."""
    return len({j for _, k, j in instance.routes if k is None})


def run(config: ScenarioConfig, env: EnvironmentTable | None = None) -> RunReport:
    """Simulate the full horizon and aggregate per-slot metrics."""
    if env is None:
        env = resolve_weather(config)
    network = build_network(config)
    relayed, solver = POLICIES[config.policy]

    series: list[SlotMetrics] = []
    pair_ids = network.pair_ids
    daily = {pid: 0.0 for pid in pair_ids}
    previous_serving: dict[str, frozenset] | None = None
    total_handovers = 0

    # each run remembers its own contended max-min rounds and its current
    # block of placed slots, and no longer
    with round_memory(), slot_blocks(config.num_slots):
        for t in range(config.num_slots):
            try:
                snapshot = propagate(
                    config.constellation, config.stations, t, config.slot_duration
                )
                hour_utc = (t * config.slot_duration / 3600.0) % 24.0
                weights = build_reflection_weights if relayed else build_weights
                instance = weights(
                    snapshot,
                    network,
                    config.physics,
                    env,
                    config.min_elevation,
                    config.fidelity_threshold,
                    *((config.mirror_efficiency,) if relayed else ()),
                    month=config.month,
                    hour_utc=hour_utc,
                )
                allocation = solver(instance)
                rates = pair_edr(instance, allocation)
                serving = serving_sets(instance, allocation)
                handovers = (
                    count_handovers(previous_serving, serving)
                    if previous_serving is not None
                    else 0
                )
            except Exception as exc:
                raise SimulationError(t, str(exc)) from exc
            previous_serving = serving
            total_handovers += handovers
            # left to right: from Python 3.12 on, the built-in sum of floats
            # is compensated, and the outputs would depend on the version
            aggregate = functools.reduce(
                operator.add, (rates[pid] for pid in pair_ids), 0
            )
            for pid in pair_ids:
                daily[pid] += rates[pid] * config.slot_duration
            series.append(
                SlotMetrics(
                    t=t,
                    aggregate_edr=aggregate,
                    per_pair_edr=rates,
                    connectivity=connectivity_count(instance),
                    handovers_since_prev=handovers,
                )
            )

    served = sum(1 for pid in pair_ids if daily[pid] > 0)
    return RunReport(
        series=tuple(series),
        per_pair_daily=daily,
        served_pair_count=served,
        total_handovers=total_handovers,
    )


# ---------------------------------------------------------------------------
# overhead-pass case study


@dataclass(frozen=True)
class CaseStudyRow:
    baseline_km: float
    primary_edr: float
    reflection_edr: float
    ratio: float


def _slant(central_angle, orbit_radius):
    """Station-to-satellite distance at a central angle between them."""
    return math.sqrt(
        EARTH_RADIUS**2
        + orbit_radius**2
        - 2.0 * EARTH_RADIUS * orbit_radius * math.cos(central_angle)
    )


def _clean_arm(optics: OpticsParams, slant: float) -> ArmChannel:
    fs = free_space_transmissivity(optics, slant)
    eta = arm_transmissivity(fs, 1.0, optics.tx_efficiency, optics.rx_efficiency)
    return ArmChannel(transmissivity=eta, dark_click_prob=0.0)


def _integrate_pass(lo, hi, rate, edr_at):
    """Entangled bits delivered while the orbit angle sweeps [lo, hi] at
    ``rate`` rad/s: the midpoint rule over steps of at most one second,
    with ``edr_at(angle)`` the delivered rate at each midpoint."""
    duration = (hi - lo) / rate
    if duration <= 0:
        return 0.0
    steps = max(1, math.ceil(duration))
    dt = duration / steps
    total = 0.0
    for m in range(steps):
        total += edr_at(lo + rate * dt * (m + 0.5)) * dt
    return total


def _primary_yield(arc, baseline_angle, physics, orbit_radius, rate):
    """Pass yield of one satellite serving both stations over ``arc``."""
    if arc is None:
        return 0.0

    def edr_at(theta):
        arm1 = _clean_arm(physics.optics, _slant(theta - baseline_angle, orbit_radius))
        arm2 = _clean_arm(physics.optics, _slant(theta, orbit_radius))
        return end_to_end_outcome(physics.source, arm1, arm2).edr

    return _integrate_pass(*arc, rate, edr_at)


def _reflection_yield(
    offset, baseline_angle, half_width, physics, hop_loss, mirror_efficiency,
    orbit_radius, rate,
):
    """Pass yield for one source/relay phase offset.

    The source tracks the first station and the relay the second; the
    offset fixes the inter-satellite chord, so the hop transmissivity is
    constant along the pass.
    """
    wrapped = math.atan2(math.sin(offset), math.cos(offset))
    relative = math.atan2(
        math.sin(offset + baseline_angle), math.cos(offset + baseline_angle)
    )
    if abs(relative) >= 2.0 * half_width:
        return 0.0
    # chord between the satellites must clear the planet
    if orbit_radius * math.cos(wrapped / 2.0) < EARTH_RADIUS + ISL_CLEARANCE:
        return 0.0
    lo = max(-half_width, -half_width - relative)
    hi = min(half_width, half_width - relative)
    hop_fs = hop_loss(2.0 * orbit_radius * abs(math.sin(wrapped / 2.0)))

    def edr_at(gamma_src):
        arm_src = _clean_arm(physics.optics, _slant(gamma_src, orbit_radius))
        arm_relay = _clean_arm(physics.optics, _slant(gamma_src + relative, orbit_radius))
        arm1, arm2 = reflection_arms(arm_src, hop_fs, mirror_efficiency, arm_relay)
        return end_to_end_outcome(physics.source, arm1, arm2).edr

    return _integrate_pass(lo, hi, rate, edr_at)


def case_study(
    baselines_km,
    altitude: float = 1000e3,
    min_elevation: float = 20.0,
    physics: PhysicsParams | None = None,
    mirror_efficiency: float = 0.95,
) -> list[CaseStudyRow]:
    """Per-pass entangled-bit yield of one satellite versus a split pair.

    For each station separation this integrates the delivered rate over a
    single overhead pass under a clean atmosphere at night: the single
    satellite covers the window where it sees both stations at once, while
    the satellite pair is swept over every phase offset and keeps the best
    yield.  The ratio of the two quantifies what the relay geometry buys.
    """
    if not 0.0 <= mirror_efficiency <= 1.0:
        raise ConfigurationError("mirror efficiency must lie in [0, 1]")
    if physics is None:
        physics = default_physics()
    orbit_radius = EARTH_RADIUS + altitude
    rate = 2.0 * math.pi / orbital_period(altitude)
    hop_loss = mirror_hop(physics)
    rows = []
    for baseline_km in baselines_km:
        baseline = baseline_km * 1e3
        arcs = overhead_visibility_arcs(baseline, altitude, min_elevation)
        baseline_angle = baseline / EARTH_RADIUS
        primary = _primary_yield(
            arcs.primary_arc, baseline_angle, physics, orbit_radius, rate
        )
        reflection = 0.0
        for step in range(PHASE_SWEEP_POINTS):
            offset = 2.0 * math.pi * step / (PHASE_SWEEP_POINTS - 1)
            reflection = max(
                reflection,
                _reflection_yield(
                    offset,
                    baseline_angle,
                    arcs.half_width,
                    physics,
                    hop_loss,
                    mirror_efficiency,
                    orbit_radius,
                    rate,
                ),
            )
        if primary > 0:
            ratio = reflection / primary
        else:
            ratio = 0.0 if reflection == 0 else math.inf
        rows.append(
            CaseStudyRow(
                baseline_km=float(baseline_km),
                primary_edr=primary,
                reflection_edr=reflection,
                ratio=ratio,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# file outputs


def write_run_outputs(
    report: RunReport, out_dir: str, header: dict | None = None
) -> None:
    """metrics.csv, per_pair.csv, and report.json under out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "metrics.csv"), "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "aggregate_edr", "connectivity", "handovers"])
        for m in report.series:
            writer.writerow(
                [m.t, repr(m.aggregate_edr), m.connectivity, m.handovers_since_prev]
            )
    with open(os.path.join(out_dir, "per_pair.csv"), "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["pair_id", "daily_ebits"])
        for pid, value in report.per_pair_daily.items():
            writer.writerow([pid, repr(value)])
    payload = dict(header or {})
    payload.update(
        {
            "num_slots": len(report.series),
            "served_pair_count": report.served_pair_count,
            "total_handovers": report.total_handovers,
            "per_pair_daily": report.per_pair_daily,
        }
    )
    with open(os.path.join(out_dir, "report.json"), "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_case_study(rows, path: str) -> None:
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["baseline_km", "primary_edr", "reflection_edr", "ratio"])
        for row in rows:
            writer.writerow(
                [
                    repr(row.baseline_km),
                    repr(row.primary_edr),
                    repr(row.reflection_edr),
                    repr(row.ratio),
                ]
            )
