"""Multi-slot simulation driver and the two-satellite relay case study.

The driver propagates the constellation slot by slot, rebuilds the weight
instance, solves the configured policy, and folds the allocations into
time series plus day totals.  The case study strips the problem down to
two stations under a single orbit plane and integrates delivered rate
over a pass, once for a lone dual-downlink satellite and once for the
best phase-split satellite pair.
"""

from __future__ import annotations

import csv
import json
import math
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
    GRAVITATIONAL_PARAMETER,
    ISL_CLEARANCE,
    ConstellationConfig,
    GroundStation,
    SatelliteSpec,
    constellation_ids,
    overhead_visibility_arcs,
    propagate,
)
from .scheduler import (
    NetworkSpec,
    PairSpec,
    PhysicsParams,
    build_reflection_weights,
    build_weights,
    default_physics,
    mirror_hop,
    pair_edr,
    served_routes,
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
        receiver_caps = {gs.id: gs.receiver_cap for gs in self.stations}
        for pair in self.resolved_pairs():
            for sid in (pair.station_a, pair.station_b):
                if receiver_caps.get(sid, 0) < pair.pair_cap:
                    raise ConfigurationError(
                        f"station {sid}: receiver cap {receiver_caps.get(sid, 0)} "
                        f"below pair cap {pair.pair_cap} of pair {pair.id}"
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


def build_network(config: ScenarioConfig) -> NetworkSpec:
    rings = config.constellation.rings
    sats_per_ring = config.constellation.sats_per_ring
    satellites = tuple(
        SatelliteSpec(
            id=sat_id,
            ring_index=index // sats_per_ring,
            slot_index=index % sats_per_ring,
            altitude=config.constellation.altitude,
            transmitter_cap=config.transmitter_cap,
            reflector_cap=config.reflector_cap,
        )
        for index, sat_id in enumerate(constellation_ids(rings, sats_per_ring))
    )
    return NetworkSpec(
        satellites=satellites,
        stations=config.stations,
        pairs=config.resolved_pairs(),
    )


def serving_sets(instance, allocation) -> dict[str, frozenset]:
    """Per pair, the identities delivering it entanglement this slot.

    Direct service is identified by the satellite id; relayed service by
    the (source, relay) id pair, since moving either endpoint re-points
    hardware just like swapping a direct satellite does.
    """
    servers: dict[str, set] = {pid: set() for pid in instance.pair_ids}
    for (i, k, j), count in served_routes(allocation):
        if count > 0:
            server = instance.sat_ids[i]
            if k is not None:
                server = (server, instance.sat_ids[k])
            servers[instance.pair_ids[j]].add(server)
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
    """Pairs with at least one positive direct rate this slot."""
    rows = [row for row in instance.omega if any(row)]
    return sum(
        1 for j in range(instance.num_pairs) if any(row[j] > 0 for row in rows)
    )


def run(config: ScenarioConfig, env: EnvironmentTable | None = None) -> RunReport:
    """Simulate the full horizon and aggregate per-slot metrics."""
    if env is None:
        env = resolve_weather(config)
    network = build_network(config)
    use_reflection, solver = POLICIES[config.policy]

    series: list[SlotMetrics] = []
    pair_ids = [p.id for p in network.pairs]
    daily = {pid: 0.0 for pid in pair_ids}
    previous_serving: dict[str, frozenset] | None = None
    total_handovers = 0

    for t in range(config.num_slots):
        try:
            snapshot = propagate(
                config.constellation, config.stations, t, config.slot_duration
            )
            hour_utc = (t * config.slot_duration / 3600.0) % 24.0
            if use_reflection:
                instance = build_reflection_weights(
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
            else:
                instance = build_weights(
                    snapshot,
                    network,
                    config.physics,
                    env,
                    config.min_elevation,
                    config.fidelity_threshold,
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
        except SimulationError:
            raise
        except Exception as exc:
            raise SimulationError(t, str(exc)) from exc
        previous_serving = serving
        total_handovers += handovers
        aggregate = sum(rates[pid] for pid in pair_ids)
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


def _pass_geometry(central_angle, earth_radius, orbit_radius):
    slant = math.sqrt(
        earth_radius**2
        + orbit_radius**2
        - 2.0 * earth_radius * orbit_radius * math.cos(central_angle)
    )
    sin_elev = (orbit_radius * math.cos(central_angle) - earth_radius) / slant
    return slant, sin_elev


def _clean_arm(optics: OpticsParams, slant: float) -> ArmChannel:
    fs = free_space_transmissivity(optics, slant)
    eta = arm_transmissivity(fs, 1.0, optics.tx_efficiency, optics.rx_efficiency)
    return ArmChannel(transmissivity=eta, dark_click_prob=0.0)


def _integrate_primary(arc, baseline_angle, physics, earth_radius, orbit_radius, rate):
    if arc is None:
        return 0.0
    start, end = arc
    duration = (end - start) / rate
    if duration <= 0:
        return 0.0
    steps = max(1, math.ceil(duration))
    dt = duration / steps
    total = 0.0
    for m in range(steps):
        theta = start + rate * dt * (m + 0.5)
        slant_1, _ = _pass_geometry(theta - baseline_angle, earth_radius, orbit_radius)
        slant_2, _ = _pass_geometry(theta, earth_radius, orbit_radius)
        outcome = end_to_end_outcome(
            physics.source,
            _clean_arm(physics.optics, slant_1),
            _clean_arm(physics.optics, slant_2),
        )
        total += outcome.edr * dt
    return total


def _integrate_reflection(
    offset, baseline_angle, half_width, physics, mirror_efficiency,
    earth_radius, orbit_radius, rate,
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
    if orbit_radius * math.cos(wrapped / 2.0) < earth_radius + ISL_CLEARANCE:
        return 0.0
    lo = max(-half_width, -half_width - relative)
    hi = min(half_width, half_width - relative)
    duration = (hi - lo) / rate
    if duration <= 0:
        return 0.0
    hop = 2.0 * orbit_radius * abs(math.sin(wrapped / 2.0))
    hop_fs = mirror_hop(physics)(hop)
    steps = max(1, math.ceil(duration))
    dt = duration / steps
    total = 0.0
    for m in range(steps):
        gamma_src = lo + rate * dt * (m + 0.5)
        slant_src, _ = _pass_geometry(gamma_src, earth_radius, orbit_radius)
        slant_relay, _ = _pass_geometry(gamma_src + relative, earth_radius, orbit_radius)
        arm_src = _clean_arm(physics.optics, slant_src)
        arm_relay = _clean_arm(physics.optics, slant_relay)
        arm1, arm2 = reflection_arms(arm_src, hop_fs, mirror_efficiency, arm_relay)
        outcome = end_to_end_outcome(physics.source, arm1, arm2)
        total += outcome.edr * dt
    return total


def case_study(
    baselines_km,
    altitude: float = 1000e3,
    min_elevation: float = 20.0,
    physics: PhysicsParams | None = None,
    mirror_efficiency: float = 0.95,
    earth_radius: float = EARTH_RADIUS,
) -> list[CaseStudyRow]:
    """Per-pass entangled-bit yield of one satellite versus a split pair.

    For each station separation this integrates the delivered rate over a
    single overhead pass under a clean atmosphere at night: the single
    satellite covers the window where it sees both stations at once, while
    the satellite pair is swept over every phase offset and keeps the best
    yield.  The ratio of the two quantifies what the relay geometry buys.
    """
    if physics is None:
        physics = default_physics()
    orbit_radius = earth_radius + altitude
    period = 2.0 * math.pi * math.sqrt(orbit_radius**3 / GRAVITATIONAL_PARAMETER)
    rate = 2.0 * math.pi / period
    rows = []
    for baseline_km in baselines_km:
        baseline = baseline_km * 1e3
        arcs = overhead_visibility_arcs(
            baseline, altitude, min_elevation, earth_radius
        )
        baseline_angle = baseline / earth_radius
        primary = _integrate_primary(
            arcs.primary_arc, baseline_angle, physics, earth_radius, orbit_radius, rate
        )
        reflection = 0.0
        for step in range(PHASE_SWEEP_POINTS):
            offset = 2.0 * math.pi * step / (PHASE_SWEEP_POINTS - 1)
            reflection = max(
                reflection,
                _integrate_reflection(
                    offset,
                    baseline_angle,
                    arcs.half_width,
                    physics,
                    mirror_efficiency,
                    earth_radius,
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
