"""Weather table ingestion, secant law, and synthetic generator checks."""

import pytest

from qsatnet.environment import (
    EnvironmentTable,
    WeatherRecord,
    atmospheric_transmissivity,
    effective_transmissivity,
    load_weather,
    local_hour,
    save_weather,
    synth_weather,
)
from qsatnet.errors import ConfigurationError, IngestionError, UnknownIdError
from qsatnet.orbital import GroundStation

STATIONS = [
    GroundStation("nyc", 40.7, -74.0, 10),
    GroundStation("spb", -23.5, -46.6, 10),
]


def rec(**kw):
    defaults = dict(
        station_id="g",
        month=6,
        hour_utc=12,
        zenith_transmissivity=0.8,
        cloud_cover=0.0,
        solar_irradiance=1.0,
    )
    defaults.update(kw)
    return WeatherRecord(**defaults)


def test_secant_law_values():
    assert atmospheric_transmissivity(0.8, 90.0) == 0.8
    assert atmospheric_transmissivity(0.8, 30.0) == pytest.approx(0.64, abs=1e-12)
    assert atmospheric_transmissivity(1.0, 17.3) == 1.0
    assert atmospheric_transmissivity(0.8, 0.0) == 0.0
    assert atmospheric_transmissivity(0.8, -5.0) == 0.0


def test_secant_law_monotone_in_elevation():
    values = [atmospheric_transmissivity(0.7, e) for e in range(1, 91)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] == 0.7


def test_effective_transmissivity():
    assert effective_transmissivity(rec(cloud_cover=1.0), 45.0) == 0.0
    clear = rec(cloud_cover=0.0)
    assert effective_transmissivity(clear, 33.0) == atmospheric_transmissivity(
        0.8, 33.0
    )
    half = rec(cloud_cover=0.5)
    assert effective_transmissivity(half, 30.0) == pytest.approx(0.32, abs=1e-12)


def test_effective_never_exceeds_zenith():
    for elev in (5.0, 20.0, 45.0, 90.0):
        for cloud in (0.0, 0.3, 0.9):
            r = rec(cloud_cover=cloud)
            eff = effective_transmissivity(r, elev)
            atm = atmospheric_transmissivity(r.zenith_transmissivity, elev)
            assert eff <= atm <= r.zenith_transmissivity


def test_record_validation():
    with pytest.raises(ConfigurationError):
        rec(month=0)
    with pytest.raises(ConfigurationError):
        rec(hour_utc=24)
    with pytest.raises(ConfigurationError):
        rec(zenith_transmissivity=1.01)
    with pytest.raises(ConfigurationError):
        rec(cloud_cover=-0.1)
    with pytest.raises(ConfigurationError):
        rec(solar_irradiance=-1.0)


def test_synth_deterministic():
    a = synth_weather(42, STATIONS, [3, 6, 9, 12])
    b = synth_weather(42, STATIONS, [3, 6, 9, 12])
    c = synth_weather(43, STATIONS, [3, 6, 9, 12])
    assert a == b
    assert a != c
    assert len(a.records) == 2 * 4 * 24


def test_synth_roundtrip(tmp_path):
    table = synth_weather(7, STATIONS, [1, 6])
    path = tmp_path / "weather.csv"
    save_weather(table, str(path))
    assert load_weather(str(path)) == table


def test_synth_night_below_noon():
    table = synth_weather(5, STATIONS, list(range(1, 13)))
    for station in STATIONS:
        for month in range(1, 13):
            recs = [table.records[(station.id, month, h)] for h in range(24)]
            night = min(recs, key=lambda r: abs(local_hour(r.hour_utc, station.longitude) - 0.0) % 24)
            noon = min(recs, key=lambda r: abs(local_hour(r.hour_utc, station.longitude) - 12.0))
            assert night.solar_irradiance < noon.solar_irradiance


def test_synth_hemisphere_seasonality():
    table = synth_weather(9, STATIONS, list(range(1, 13)))

    def month_mean(sid, month, attr):
        vals = [getattr(table.records[(sid, month, h)], attr) for h in range(24)]
        return sum(vals) / len(vals)

    # northern station: June haziest and brightest, December clearest
    assert month_mean("nyc", 6, "zenith_transmissivity") < month_mean(
        "nyc", 12, "zenith_transmissivity"
    )
    assert month_mean("nyc", 6, "solar_irradiance") > month_mean(
        "nyc", 12, "solar_irradiance"
    )
    # southern station: reversed
    assert month_mean("spb", 12, "zenith_transmissivity") < month_mean(
        "spb", 6, "zenith_transmissivity"
    )
    assert month_mean("spb", 12, "solar_irradiance") > month_mean(
        "spb", 6, "solar_irradiance"
    )


def test_lookup_nearest_hour():
    table = EnvironmentTable(
        records={
            ("g", 6, 0): rec(hour_utc=0, solar_irradiance=0.0),
            ("g", 6, 12): rec(hour_utc=12, solar_irradiance=2.0),
        }
    )
    assert table.lookup("g", 6, 12.0).solar_irradiance == 2.0
    assert table.lookup("g", 6, 10.2).solar_irradiance == 2.0
    assert table.lookup("g", 6, 23.5).solar_irradiance == 0.0
    assert table.lookup("g", 6, 3.1).solar_irradiance == 0.0
    with pytest.raises(UnknownIdError):
        table.lookup("missing", 6, 12.0)
    with pytest.raises(UnknownIdError):
        table.lookup("g", 7, 12.0)


def test_lookup_half_hours_round_to_even_then_fall_back_to_the_nearest():
    """A half hour reads the even hour when the table has it; otherwise the
    nearest covered hour, a tie going to the smaller hour."""
    full = EnvironmentTable(
        records={("g", 6, h): rec(hour_utc=h) for h in range(24)}
    )
    for hour_utc, hour in ((1.5, 2), (2.5, 2), (23.5, 0)):
        assert full.lookup("g", 6, hour_utc).hour_utc == hour
    without_2 = EnvironmentTable(
        records={key: r for key, r in full.records.items() if key[2] != 2}
    )
    for hour_utc, hour in ((1.5, 1), (2.5, 3), (2.0, 1)):
        assert without_2.lookup("g", 6, hour_utc).hour_utc == hour


def test_load_rejects_bad_rows(tmp_path):
    header = "station_id,month,hour_utc,zenith_transmissivity,cloud_cover,solar_irradiance_uW_cm2_sr_nm"

    def attempt(body):
        path = tmp_path / "bad.csv"
        path.write_text(header + "\n" + body + "\n", encoding="utf-8")
        return load_weather(str(path))

    with pytest.raises(IngestionError, match="row 2"):
        attempt("g,6,12,0.8,0.0")
    with pytest.raises(IngestionError, match="row 2"):
        attempt("g,13,12,0.8,0.0,1.0")
    with pytest.raises(IngestionError, match="row 2"):
        attempt("g,6,12,not_a_number,0.0,1.0")
    with pytest.raises(IngestionError, match="row 3"):
        attempt("g,6,12,0.8,0.0,1.0\ng,6,12,0.7,0.1,2.0")
    path = tmp_path / "head.csv"
    path.write_text("a,b,c\n", encoding="utf-8")
    with pytest.raises(IngestionError, match="header"):
        load_weather(str(path))
