"""Scenario files: JSON schema, defaulting, and round-trip save/load.

An empty config object is a valid scenario; every omitted field falls
back to the reference operating point (20x20 polar constellation at
1000 km, six-city station set, 10 s slots for one day, GHz source at
N_S = 0.0078, 20 degree elevation mask, 0.85 fidelity threshold, all
capacity caps at 10).
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, fields
from typing import Callable, NamedTuple

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


def _fields_of(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _defaults_of(cls) -> dict:
    """The dataclass's field defaults, so a file and code agree on them."""
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING}


class _Table(NamedTuple):
    """One scenario object: the kind of each field under its file name,
    the defaults of its optional fields (a field without one is
    required), the constructor that takes the fields, and the reverse."""

    kinds: dict
    defaults: dict
    build: Callable
    fields_of: Callable = _fields_of


def _physics_to_dict(physics: PhysicsParams) -> dict:
    """The physics fields under their scenario-file names: source, then
    optics, then the detector and mirror fields."""
    data = _fields_of(physics)
    return {**_fields_of(data.pop("source")), **_fields_of(data.pop("optics")), **data}


def _physics_from(**values) -> PhysicsParams:
    source = {f.name: values.pop(f.name) for f in fields(SourceParams)}
    optics = {f.name: values.pop(f.name) for f in fields(OpticsParams)}
    return PhysicsParams(
        source=SourceParams(**source), optics=OpticsParams(**optics), **values
    )


_CONSTELLATION = _Table(
    {"rings": int, "sats_per_ring": int, "altitude": float, "epoch": float},
    {"rings": 20, "sats_per_ring": 20, "altitude": 1000e3, "epoch": 0.0},
    ConstellationConfig,
)
_STATION = _Table(
    {"id": str, "latitude": float, "longitude": float, "receiver_cap": int},
    _defaults_of(GroundStation),
    GroundStation,
)
_PAIR = _Table(
    {"id": str, "station_a": str, "station_b": str, "pair_cap": int},
    _defaults_of(PairSpec),
    PairSpec,
)
_PHYSICS_DEFAULTS = _physics_to_dict(default_physics())
_PHYSICS = _Table(
    dict.fromkeys(_PHYSICS_DEFAULTS, float),
    _PHYSICS_DEFAULTS,
    _physics_from,
    _physics_to_dict,
)
# a nested object's kind is its table, an array's a one-table list
_SCENARIO = _Table(
    {
        "constellation": _CONSTELLATION,
        "physics": _PHYSICS,
        "stations": [_STATION],
        "pairs": [_PAIR],
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
    },
    {
        "constellation": ConstellationConfig(**_CONSTELLATION.defaults),
        "physics": default_physics(),
        "stations": DEFAULT_STATIONS,
        **_defaults_of(ScenarioConfig),
    },
    ScenarioConfig,
)


def _check_shape(name, value, kind):
    if isinstance(kind, _Table) and not isinstance(value, dict):
        raise ConfigurationError(f"field {name}: expected an object")
    if isinstance(kind, list) and not isinstance(value, list):
        raise ConfigurationError(f"field {name}: expected an array")


def _coerce(name, value, kind):
    _check_shape(name, value, kind)
    if isinstance(kind, _Table):
        return kind.build(**_fields_from(value, name, kind.kinds, kind.defaults))
    if isinstance(kind, list):
        return tuple(_coerce(f"{name}[{n}]", item, kind[0]) for n, item in enumerate(value))
    if kind is str:
        if not isinstance(value, str):
            raise ConfigurationError(f"field {name}: expected a string")
        return value
    # json reads NaN, Infinity and -Infinity as floats
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigurationError(f"field {name}: expected a finite number")
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


def _fields_from(data: dict, context: str, kinds: dict, defaults: dict) -> dict:
    """The fields of one object read through its table, named in errors
    under context (the top level has none)."""
    prefix = f"{context}." if context else ""
    for key in data:
        if key not in kinds:
            raise ConfigurationError(f"field {prefix or 'scenario.'}{key}: unknown field")
    for key in kinds:
        if key not in data and key not in defaults:
            raise ConfigurationError(f"field {prefix}{key}: required")
    # every nested object and array has its shape checked before any is read
    for key, kind in kinds.items():
        if key in data:
            _check_shape(prefix + key, data[key], kind)
    values = dict(defaults)
    for key, kind in kinds.items():
        if key not in data:
            continue
        # null stands for an absent field whose default is null
        if data[key] is None and key in defaults and defaults[key] is None:
            continue
        values[key] = _coerce(prefix + key, data[key], kind)
    return values


def _to_data(value, kind):
    """The file form of a field: an object as a dict of its table's
    fields, an array as a list of those."""
    if isinstance(kind, list):
        return [_to_data(item, kind[0]) for item in value]
    if not isinstance(kind, _Table):
        return value
    values = kind.fields_of(value)
    # a null or empty field reads back from its absence
    return {
        key: _to_data(values[key], sub)
        for key, sub in kind.kinds.items()
        if values[key] not in (None, ())
    }


def scenario_from_dict(data: dict) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigurationError("scenario config must be a JSON object")
    return ScenarioConfig(**_fields_from(data, "", _SCENARIO.kinds, _SCENARIO.defaults))


def scenario_to_dict(config: ScenarioConfig) -> dict:
    return _to_data(config, _SCENARIO)


def load_scenario(path: str) -> ScenarioConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise IngestionError(f"cannot read scenario file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise IngestionError(f"scenario file {path} is not UTF-8 text: {exc}") from exc
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
        head, dot, name = key.rpartition(".")
        table = _SCENARIO.kinds.get(head) if dot else _SCENARIO
        kind = table.kinds.get(name) if isinstance(table, _Table) else None
        if kind not in (str, int, float):
            raise ConfigurationError(f"field {key}: unknown override")
        try:
            (data[head] if dot else data)[name] = raw if kind is str else kind(raw)
        except ValueError as exc:
            raise ConfigurationError(
                f"field {key}: cannot parse {raw!r} as {kind.__name__}"
            ) from exc
    return scenario_from_dict(data)
