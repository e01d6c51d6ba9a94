"""Scenario files: JSON schema, defaulting, and round-trip save/load.

An empty config object is a valid scenario; every omitted field falls
back to the reference operating point (20x20 polar constellation at
1000 km, six-city station set, 10 s slots for one day, GHz source at
N_S = 0.0078, 20 degree elevation mask, 0.85 fidelity threshold, all
capacity caps at 10).
"""

from __future__ import annotations

import json
from dataclasses import fields

from .errors import ConfigurationError, IngestionError
from .linkphys import OpticsParams, SourceParams
from .orbital import ConstellationConfig, GroundStation
from .scheduler import PairSpec, PhysicsParams, default_physics
from .simharness import ScenarioConfig

DEFAULT_STATIONS = (
    GroundStation(id="new_york", latitude=40.7, longitude=-74.0, receiver_cap=10),
    GroundStation(id="toronto", latitude=43.7, longitude=-79.4, receiver_cap=10),
    GroundStation(id="london", latitude=51.5, longitude=-0.13, receiver_cap=10),
    GroundStation(id="madrid", latitude=40.4, longitude=-3.7, receiver_cap=10),
    GroundStation(id="rome", latitude=41.9, longitude=12.5, receiver_cap=10),
    GroundStation(id="sao_paulo", latitude=-23.5, longitude=-46.6, receiver_cap=10),
)

_CONSTELLATION_KEYS = {
    "rings": int,
    "sats_per_ring": int,
    "altitude": float,
    "epoch": float,
}
_SCALAR_KEYS = {
    "slot_duration": float,
    "num_slots": int,
    "month": int,
    "policy": str,
    "min_elevation": float,
    "fidelity_threshold": float,
    "mirror_efficiency": float,
    "transmitter_cap": int,
    "reflector_cap": int,
    "pair_cap": int,
    "weather_csv": str,
    "weather_seed": int,
}


def _coerce(name, value, kind):
    if kind is str:
        if not isinstance(value, str):
            raise ConfigurationError(f"field {name}: expected a string")
        return value
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(f"field {name}: expected an integer")
        if isinstance(value, float):
            if value != int(value):
                raise ConfigurationError(f"field {name}: expected an integer")
            value = int(value)
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"field {name}: expected a number")
    return float(value)


def _check_keys(data, allowed, context):
    for key in data:
        if key not in allowed:
            raise ConfigurationError(f"field {context}.{key}: unknown field")


def _constellation_from(data: dict) -> ConstellationConfig:
    _check_keys(data, _CONSTELLATION_KEYS, "constellation")
    values = {"rings": 20, "sats_per_ring": 20, "altitude": 1000e3, "epoch": 0.0}
    for key, kind in _CONSTELLATION_KEYS.items():
        if key in data:
            values[key] = _coerce(f"constellation.{key}", data[key], kind)
    return ConstellationConfig(**values)


def _fields_of(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _physics_to_dict(physics: PhysicsParams) -> dict:
    """The physics fields under their scenario-file names: source, then
    optics, then the detector and mirror fields."""
    data = _fields_of(physics)
    return {**_fields_of(data.pop("source")), **_fields_of(data.pop("optics")), **data}


_PHYSICS_DEFAULTS = _physics_to_dict(default_physics())
_PHYSICS_KEYS = dict.fromkeys(_PHYSICS_DEFAULTS, float)


def _physics_from(data: dict) -> PhysicsParams:
    _check_keys(data, _PHYSICS_KEYS, "physics")
    values = dict(_PHYSICS_DEFAULTS)
    for key, kind in _PHYSICS_KEYS.items():
        if key in data:
            values[key] = _coerce(f"physics.{key}", data[key], kind)
    source = {f.name: values.pop(f.name) for f in fields(SourceParams)}
    optics = {f.name: values.pop(f.name) for f in fields(OpticsParams)}
    return PhysicsParams(
        source=SourceParams(**source), optics=OpticsParams(**optics), **values
    )


def _stations_from(items) -> tuple[GroundStation, ...]:
    stations = []
    for idx, item in enumerate(items):
        if not isinstance(item, dict):
            raise ConfigurationError(f"field stations[{idx}]: expected an object")
        allowed = {"id": str, "latitude": float, "longitude": float, "receiver_cap": int}
        _check_keys(item, allowed, f"stations[{idx}]")
        if "id" not in item or "latitude" not in item or "longitude" not in item:
            raise ConfigurationError(
                f"field stations[{idx}]: id, latitude, and longitude are required"
            )
        stations.append(
            GroundStation(
                id=_coerce(f"stations[{idx}].id", item["id"], str),
                latitude=_coerce(f"stations[{idx}].latitude", item["latitude"], float),
                longitude=_coerce(
                    f"stations[{idx}].longitude", item["longitude"], float
                ),
                receiver_cap=_coerce(
                    f"stations[{idx}].receiver_cap", item.get("receiver_cap", 10), int
                ),
            )
        )
    return tuple(stations)


def _pairs_from(items) -> tuple[PairSpec, ...]:
    pairs = []
    for idx, item in enumerate(items):
        if not isinstance(item, dict):
            raise ConfigurationError(f"field pairs[{idx}]: expected an object")
        allowed = {"id": str, "station_a": str, "station_b": str, "pair_cap": int}
        _check_keys(item, allowed, f"pairs[{idx}]")
        for required in ("id", "station_a", "station_b"):
            if required not in item:
                raise ConfigurationError(f"field pairs[{idx}].{required}: required")
        pairs.append(
            PairSpec(
                id=_coerce(f"pairs[{idx}].id", item["id"], str),
                station_a=_coerce(f"pairs[{idx}].station_a", item["station_a"], str),
                station_b=_coerce(f"pairs[{idx}].station_b", item["station_b"], str),
                pair_cap=_coerce(f"pairs[{idx}].pair_cap", item.get("pair_cap", 10), int),
            )
        )
    return tuple(pairs)


def scenario_from_dict(data: dict) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigurationError("scenario config must be a JSON object")
    allowed = set(_SCALAR_KEYS) | {"constellation", "physics", "stations", "pairs"}
    _check_keys(data, allowed, "scenario")

    kwargs = {
        "constellation": _constellation_from(data.get("constellation", {})),
        "physics": _physics_from(data.get("physics", {})),
        "stations": (
            _stations_from(data["stations"]) if "stations" in data else DEFAULT_STATIONS
        ),
    }
    if "pairs" in data:
        kwargs["pairs"] = _pairs_from(data["pairs"])
    for key, kind in _SCALAR_KEYS.items():
        if key in data:
            if key == "weather_csv" and data[key] is None:
                continue
            kwargs[key] = _coerce(key, data[key], kind)
    return ScenarioConfig(**kwargs)


def scenario_to_dict(config: ScenarioConfig) -> dict:
    data = {
        "constellation": {
            "rings": config.constellation.rings,
            "sats_per_ring": config.constellation.sats_per_ring,
            "altitude": config.constellation.altitude,
            "epoch": config.constellation.epoch,
        },
        "stations": [
            {
                "id": gs.id,
                "latitude": gs.latitude,
                "longitude": gs.longitude,
                "receiver_cap": gs.receiver_cap,
            }
            for gs in config.stations
        ],
        "slot_duration": config.slot_duration,
        "num_slots": config.num_slots,
        "month": config.month,
        "policy": config.policy,
        "min_elevation": config.min_elevation,
        "fidelity_threshold": config.fidelity_threshold,
        "mirror_efficiency": config.mirror_efficiency,
        "transmitter_cap": config.transmitter_cap,
        "reflector_cap": config.reflector_cap,
        "pair_cap": config.pair_cap,
        "weather_seed": config.weather_seed,
        "physics": _physics_to_dict(config.physics),
    }
    if config.pairs:
        data["pairs"] = [
            {
                "id": p.id,
                "station_a": p.station_a,
                "station_b": p.station_b,
                "pair_cap": p.pair_cap,
            }
            for p in config.pairs
        ]
    if config.weather_csv is not None:
        data["weather_csv"] = config.weather_csv
    return data


def load_scenario(path: str) -> ScenarioConfig:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise IngestionError(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise IngestionError(f"scenario file {path} is not valid JSON: {exc}") from exc
    return scenario_from_dict(data)


def save_scenario(config: ScenarioConfig, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(scenario_to_dict(config), handle, indent=2, sort_keys=True)
        handle.write("\n")


def default_scenario() -> ScenarioConfig:
    return scenario_from_dict({})


def apply_overrides(config: ScenarioConfig, overrides: dict[str, str]) -> ScenarioConfig:
    """Apply key=value strings on top of a loaded scenario.

    Scalar scenario fields are addressed by name, constellation fields as
    constellation.rings etc., physics fields as physics.wavelength etc.
    """
    data = scenario_to_dict(config)
    for key, raw in overrides.items():
        if key in _SCALAR_KEYS:
            kind = _SCALAR_KEYS[key]
            target, field = data, key
        elif key.startswith("constellation.") and key[14:] in _CONSTELLATION_KEYS:
            kind = _CONSTELLATION_KEYS[key[14:]]
            target, field = data["constellation"], key[14:]
        elif key.startswith("physics.") and key[8:] in _PHYSICS_KEYS:
            kind = _PHYSICS_KEYS[key[8:]]
            target, field = data["physics"], key[8:]
        else:
            raise ConfigurationError(f"field {key}: unknown override")
        if kind is str:
            target[field] = raw
        else:
            try:
                target[field] = float(raw) if kind is float else int(raw)
            except ValueError as exc:
                raise ConfigurationError(
                    f"field {key}: cannot parse {raw!r} as {kind.__name__}"
                ) from exc
    return scenario_from_dict(data)
