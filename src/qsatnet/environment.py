"""Weather tables and time-of-day atmospheric effects.

A table keys one record per (station, month, UTC hour).  Lookups use the
nearest available hour, never interpolation, so the scheduler sees exactly
the ingested values.  Cloud cover folds into transmissivity as an
expected-value factor (1 - cover); there is no stochastic blockage mode.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass

from .errors import ConfigurationError, IngestionError, UnknownIdError
from .orbital import GroundStation

CSV_HEADER = [
    "station_id",
    "month",
    "hour_utc",
    "zenith_transmissivity",
    "cloud_cover",
    "solar_irradiance_uW_cm2_sr_nm",
]


@dataclass(frozen=True)
class WeatherRecord:
    station_id: str
    month: int
    hour_utc: int
    zenith_transmissivity: float
    cloud_cover: float
    solar_irradiance: float

    def __post_init__(self) -> None:
        if not self.station_id:
            raise ConfigurationError("weather record needs a station id")
        if not 1 <= self.month <= 12:
            raise ConfigurationError(f"month {self.month} outside 1..12")
        if not 0 <= self.hour_utc <= 23:
            raise ConfigurationError(f"hour {self.hour_utc} outside 0..23")
        if not 0.0 <= self.zenith_transmissivity <= 1.0:
            raise ConfigurationError(
                f"zenith transmissivity {self.zenith_transmissivity} outside [0, 1]"
            )
        if not 0.0 <= self.cloud_cover <= 1.0:
            raise ConfigurationError(f"cloud cover {self.cloud_cover} outside [0, 1]")
        if not 0.0 <= self.solar_irradiance < math.inf:
            raise ConfigurationError(
                f"solar irradiance {self.solar_irradiance} must be nonnegative and finite"
            )


@dataclass(frozen=True)
class EnvironmentTable:
    records: dict[tuple[str, int, int], WeatherRecord]

    def lookup(self, station_id: str, month: int, hour_utc: float) -> WeatherRecord:
        """Record at the covered hour nearest ``hour_utc``.

        The hour ``round(hour_utc) % 24`` is taken when the table has it;
        ``round`` sends a half hour to the even hour, so 1.5 h and 2.5 h
        both read hour 2 and 23.5 h reads hour 0.  Otherwise the covered
        hour at the least circular distance is taken, a tie going to the
        smaller hour: without hour 2, 1.5 h reads hour 1 and 2.5 h hour 3.
        """
        exact = self.records.get((station_id, month, int(round(hour_utc)) % 24))
        if exact is not None:
            return exact
        hours = sorted(
            h for (sid, m, h) in self.records if sid == station_id and m == month
        )
        if not hours:
            raise UnknownIdError(
                f"no weather records for station {station_id!r} month {month}"
            )
        target = hour_utc % 24.0
        best = min(hours, key=lambda h: (min(abs(h - target), 24 - abs(h - target)), h))
        return self.records[(station_id, month, best)]


def atmospheric_transmissivity(zenith_transmissivity: float, elevation: float) -> float:
    """Slant-path transmissivity via the secant air-mass law."""
    if not 0.0 <= zenith_transmissivity <= 1.0:
        raise ConfigurationError("zenith transmissivity must lie in [0, 1]")
    if elevation > 90.0:
        raise ConfigurationError("elevation cannot exceed 90 degrees")
    if elevation <= 0.0:
        return 0.0
    if zenith_transmissivity == 0.0:
        return 0.0
    air_mass = 1.0 / math.sin(math.radians(elevation))
    return zenith_transmissivity**air_mass


def effective_transmissivity(record: WeatherRecord, elevation: float) -> float:
    clear = atmospheric_transmissivity(record.zenith_transmissivity, elevation)
    return clear * (1.0 - record.cloud_cover)


def local_hour(hour_utc: float, longitude: float) -> float:
    return (hour_utc + longitude / 15.0) % 24.0


def load_weather(path: str) -> EnvironmentTable:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return _read_weather(csv.reader(fh), path)
    except OSError as exc:
        raise IngestionError(f"cannot read weather file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise IngestionError(f"weather file {path} is not UTF-8 text: {exc}") from exc


def _read_weather(reader, path: str) -> EnvironmentTable:
    records: dict[tuple[str, int, int], WeatherRecord] = {}
    try:
        header = next(reader)
    except StopIteration:
        raise IngestionError(f"{path}: empty file, expected header") from None
    if header != CSV_HEADER:
        raise IngestionError(
            f"{path}: bad header {header!r}, expected {','.join(CSV_HEADER)}"
        )
    for row_num, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(CSV_HEADER):
            raise IngestionError(
                f"{path} row {row_num}: expected {len(CSV_HEADER)} fields, got {len(row)}"
            )
        try:
            record = WeatherRecord(
                station_id=row[0],
                month=int(row[1]),
                hour_utc=int(row[2]),
                zenith_transmissivity=float(row[3]),
                cloud_cover=float(row[4]),
                solar_irradiance=float(row[5]),
            )
        except (ValueError, ConfigurationError) as exc:
            raise IngestionError(f"{path} row {row_num}: {exc}") from None
        key = (record.station_id, record.month, record.hour_utc)
        if key in records:
            raise IngestionError(f"{path} row {row_num}: duplicate key {key}")
        records[key] = record
    return EnvironmentTable(records=records)


def save_weather(table: EnvironmentTable, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for key in sorted(table.records):
            rec = table.records[key]
            writer.writerow(
                [
                    rec.station_id,
                    rec.month,
                    rec.hour_utc,
                    repr(rec.zenith_transmissivity),
                    repr(rec.cloud_cover),
                    repr(rec.solar_irradiance),
                ]
            )


def synth_weather(
    seed: int,
    stations: list[GroundStation],
    month_set: list[int] | None = None,
) -> EnvironmentTable:
    """Deterministic stand-in for real atmospheric and irradiance tables.

    Summer months carry hazier skies and stronger daytime background light;
    the hemisphere decides which months count as summer.  Irradiance is a
    half-cosine bump over local daytime, exactly zero at night.
    """
    months = sorted(set(month_set)) if month_set is not None else list(range(1, 13))
    for m in months:
        if not 1 <= m <= 12:
            raise ConfigurationError(f"month {m} outside 1..12")
    records: dict[tuple[str, int, int], WeatherRecord] = {}
    for station in stations:
        # string seeding hashes the text itself, stable across processes
        rng = random.Random(f"{seed}:{station.id}")
        base_eta = 0.72 + 0.12 * rng.random()
        for month in months:
            # +1 in June and -1 in December, flipped south of the equator
            summer = math.cos(2.0 * math.pi * (month - 6) / 12.0)
            if station.latitude < 0.0:
                summer = -summer
            peak_irr = 1.2 + 0.4 * summer + 0.2 * rng.random()
            month_eta = base_eta - 0.06 * summer
            for hour in range(24):
                eta = min(0.95, max(0.50, month_eta + 0.01 * rng.random()))
                cloud = rng.uniform(0.0, 0.6)
                lh = local_hour(hour, station.longitude)
                daylight = max(0.0, math.cos(math.pi * (lh - 12.0) / 12.0))
                records[(station.id, month, hour)] = WeatherRecord(
                    station_id=station.id,
                    month=month,
                    hour_utc=hour,
                    zenith_transmissivity=eta,
                    cloud_cover=cloud,
                    solar_irradiance=peak_irr * daylight,
                )
    return EnvironmentTable(records=records)
