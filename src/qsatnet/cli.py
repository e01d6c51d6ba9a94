"""Command line front end.

Exit codes: 0 on success, 1 on configuration or ingestion failures and
on outputs that cannot be written, 2 on usage errors (unknown subcommand
or flag).  All outputs are deterministic: identical invocations produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .config import (
    apply_overrides,
    default_scenario,
    load_scenario,
)
from .environment import load_weather, save_weather, synth_weather
from .errors import ConfigurationError, QsatError
from .linkphys import ArmChannel, end_to_end_outcome, rate_fidelity_curve
from .orbital import EARTH_RADIUS, orbital_period
from .simharness import (
    build_network,
    case_study,
    resolve_weather,
    run,
    write_case_study,
    write_run_outputs,
)


def _parse_overrides(items) -> dict[str, str]:
    overrides = {}
    for item in items or ():
        if "=" not in item:
            raise ConfigurationError(
                f"override {item!r}: expected KEY=VALUE"
            )
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    return overrides


def _load_with_overrides(config_path, set_items):
    config = load_scenario(config_path) if config_path else default_scenario()
    overrides = _parse_overrides(set_items)
    if overrides:
        config = apply_overrides(config, overrides)
    return config, overrides


def _require_finite(flag: str, value: float) -> None:
    if not math.isfinite(value):
        raise ConfigurationError(f"{flag} {value}: expected a finite number")


# the case study's baselines in km: two stations can lie at most half a
# circumference apart
MAX_BASELINE_KM = math.pi * EARTH_RADIUS / 1e3
# points in a --baselines or --points grid; each is built as a list, and
# each baseline costs a phase sweep
MAX_GRID_POINTS = 10_000


def _parse_baseline_grid(text: str) -> list[float]:
    """The START:STOP:STEP grid, bounded before any point is built."""

    def bad(reason):
        return ConfigurationError(f"--baselines {text!r}: {reason}")

    parts = text.split(":")
    if len(parts) != 3:
        raise bad("expected START:STOP:STEP in km")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise bad("expected numeric START:STOP:STEP") from None
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise bad("START, STOP and STEP must be finite")
    if step <= 0:
        raise bad("step must be positive")
    if stop < start:
        raise bad("stop below start")
    if start < 0:
        raise bad("START must be nonnegative")
    if stop >= MAX_BASELINE_KM:
        raise bad(f"STOP must lie below pi * R_E = {MAX_BASELINE_KM:.3f} km")
    # the point count is floor(span) + 1; span may overflow to inf
    span = (stop - start) / step + 1e-9
    if span >= MAX_GRID_POINTS:
        raise bad(f"more than {MAX_GRID_POINTS} points")
    return [start + i * step for i in range(math.floor(span) + 1)]


def _cmd_simulate(args) -> int:
    config, overrides = _load_with_overrides(args.config, args.set)
    env = resolve_weather(config)
    report = run(config, env)
    header = {
        "policy": config.policy,
        "config_path": args.config,
        "overrides": overrides,
    }
    write_run_outputs(report, args.out, header=header)
    print(
        f"simulate: {len(report.series)} slots, policy {config.policy}, "
        f"{report.served_pair_count} pairs served, outputs in {args.out}"
    )
    return 0


def _cmd_casestudy(args) -> int:
    grid = _parse_baseline_grid(args.baselines)
    _require_finite("--altitude", args.altitude)
    if args.altitude <= 0:
        raise ConfigurationError(f"altitude {args.altitude} must be positive km")
    altitude = args.altitude * 1e3
    try:
        orbital_period(altitude)
    except ConfigurationError:
        raise ConfigurationError(
            f"--altitude {args.altitude} km: orbit radius cubed overflows"
        ) from None
    rows = case_study(
        grid,
        altitude=altitude,
        min_elevation=args.min_elevation,
        mirror_efficiency=args.mirror_efficiency,
    )
    path = os.path.join(args.out, "case_study.csv")
    write_case_study(rows, path)
    print(f"casestudy: {len(rows)} baselines, wrote {path}")
    return 0


def _cmd_linkbudget(args) -> int:
    for flag, value in (
        ("--ns-min", args.ns_min),
        ("--ns-max", args.ns_max),
        ("--rep-rate", args.rep_rate),
    ):
        _require_finite(flag, value)
    if not 1 <= args.points <= MAX_GRID_POINTS:
        raise ConfigurationError(
            f"--points {args.points}: expected 1 to {MAX_GRID_POINTS} points"
        )
    if args.ns_min <= 0 or args.ns_max <= 0:
        raise ConfigurationError("source power bounds must be positive")
    if args.ns_max < args.ns_min:
        raise ConfigurationError("ns-max below ns-min")
    if args.points == 1:
        grid = [args.ns_min]
    else:
        ratio = args.ns_max / args.ns_min
        grid = [
            args.ns_min * ratio ** (i / (args.points - 1))
            for i in range(args.points)
        ]
    arm = ArmChannel(
        transmissivity=args.transmissivity, dark_click_prob=args.dark
    )
    curve = rate_fidelity_curve(grid, arm, arm, repetition_rate=args.rep_rate)
    with open(args.out, "w", newline="") as handle:
        handle.write("mean_photon_number,edr,fidelity\n")
        for ns, edr, fidelity in curve:
            handle.write(f"{ns!r},{edr!r},{fidelity!r}\n")
    print(f"linkbudget: {len(curve)} points, wrote {args.out}")
    return 0


def _cmd_weather_synth(args) -> int:
    config = load_scenario(args.stations) if args.stations else default_scenario()
    table = synth_weather(args.seed, list(config.stations))
    save_weather(table, args.out)
    print(
        f"weather-synth: {len(table.records)} records for "
        f"{len(config.stations)} stations, wrote {args.out}"
    )
    return 0


def _check_weather(table, config) -> None:
    """Raise unless the table holds a record for every station of the
    scenario in the scenario's month."""
    for station in config.stations:
        table.lookup(station.id, config.month, 0.0)


def _cmd_validate(args) -> int:
    config, _ = _load_with_overrides(args.config, None)
    # the network checks that simulate runs before its first slot, and
    # the source priced on a lossless, noise-free link as every slot
    # prices it
    build_network(config)
    lossless = ArmChannel(transmissivity=1.0, dark_click_prob=0.0)
    end_to_end_outcome(config.physics.source, lossless, lossless)
    # simulate reads the scenario's own weather file; refuse one it cannot use
    if config.weather_csv is not None:
        _check_weather(resolve_weather(config), config)
    checked = f"scenario ok ({len(config.stations)} stations, policy {config.policy})"
    if args.weather:
        table = load_weather(args.weather)
        _check_weather(table, config)
        checked += f"; weather ok ({len(table.records)} records)"
    print(f"validate: {checked}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsatnet",
        description="Entanglement distribution scheduling over a polar constellation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scheduling scenario")
    p_sim.add_argument("--config", help="scenario JSON (defaults when omitted)")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a scenario field (repeatable)",
    )
    p_sim.set_defaults(func=_cmd_simulate)

    p_cs = sub.add_parser(
        "casestudy", help="single-pass yield: one satellite versus a split pair"
    )
    p_cs.add_argument(
        "--baselines",
        default="0:3000:250",
        help="station separation grid in km as START:STOP:STEP",
    )
    p_cs.add_argument("--altitude", type=float, default=1000.0, help="orbit altitude, km")
    p_cs.add_argument("--min-elevation", type=float, default=20.0, help="degrees")
    p_cs.add_argument("--mirror-efficiency", type=float, default=0.95)
    p_cs.add_argument("--out", required=True, help="output directory")
    p_cs.set_defaults(func=_cmd_casestudy)

    p_lb = sub.add_parser(
        "linkbudget", help="rate and fidelity along a source-power sweep"
    )
    p_lb.add_argument("--ns-min", type=float, default=1e-4)
    p_lb.add_argument("--ns-max", type=float, default=0.1)
    p_lb.add_argument("--points", type=int, default=20)
    p_lb.add_argument(
        "--transmissivity", type=float, default=1.0, help="per-arm survival"
    )
    p_lb.add_argument(
        "--dark", type=float, default=0.0, help="per-gate dark-click probability"
    )
    p_lb.add_argument("--rep-rate", type=float, default=1e9, help="pairs per second")
    p_lb.add_argument("--out", required=True, help="output CSV path")
    p_lb.set_defaults(func=_cmd_linkbudget)

    p_ws = sub.add_parser("weather-synth", help="generate a synthetic weather table")
    p_ws.add_argument("--seed", type=int, default=0)
    p_ws.add_argument(
        "--stations", help="scenario JSON providing the station list (defaults when omitted)"
    )
    p_ws.add_argument("--out", required=True, help="output CSV path")
    p_ws.set_defaults(func=_cmd_weather_synth)

    p_val = sub.add_parser(
        "validate", help="check a scenario and optional weather file without running"
    )
    p_val.add_argument("--config", help="scenario JSON (defaults when omitted)")
    p_val.add_argument("--weather", help="weather CSV to check against the scenario")
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    # input files are read through IngestionError, so an OSError here comes
    # from writing an output
    except (QsatError, OSError) as exc:
        print(f"qsatnet {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
