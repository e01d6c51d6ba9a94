import csv
import hashlib
import json
import os
import re
from dataclasses import fields, is_dataclass

import pytest

from qsatnet import cli
from qsatnet import config as config_mod
from qsatnet.cli import _parse_baseline_grid, main
from qsatnet.config import (
    DEFAULT_STATIONS,
    apply_overrides,
    default_scenario,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from qsatnet.errors import ConfigurationError, IngestionError
from qsatnet.orbital import ConstellationConfig, GroundStation
from qsatnet.scheduler import PairSpec, default_physics
from qsatnet.simharness import ScenarioConfig


def small_scenario_dict():
    return {
        "constellation": {"rings": 2, "sats_per_ring": 6, "altitude": 1000e3},
        "stations": [
            {"id": "alpha", "latitude": 89.9, "longitude": 0.0, "receiver_cap": 4},
            {"id": "bravo", "latitude": 89.8, "longitude": 90.0, "receiver_cap": 4},
            {"id": "carol", "latitude": 89.7, "longitude": -90.0, "receiver_cap": 4},
        ],
        "slot_duration": 60.0,
        "num_slots": 5,
        "transmitter_cap": 2,
        "reflector_cap": 2,
        "pair_cap": 2,
        "weather_seed": 11,
    }


class TestScenarioDict:
    def test_empty_object_gives_pure_defaults(self):
        config = scenario_from_dict({})
        assert config.constellation.rings == 20
        assert config.constellation.sats_per_ring == 20
        assert config.constellation.altitude == 1000e3
        assert config.slot_duration == 10.0
        assert config.num_slots == 8640
        assert config.month == 6
        assert config.policy == "primary_ratesum"
        assert config.min_elevation == 20.0
        assert config.fidelity_threshold == 0.85
        assert config.transmitter_cap == 10
        assert config.reflector_cap == 10
        assert config.pair_cap == 10
        assert config.physics.source.mean_photon_number == 0.0078
        assert config.physics.source.repetition_rate == 1e9
        assert config.physics.optics.tx_radius == 0.1
        assert config.physics.optics.rx_radius == 1.0
        assert config.physics.optics.wavelength == 737e-9
        assert config.physics.optics.tx_efficiency == 0.7
        assert config.physics.optics.rx_efficiency == 0.7
        assert config.stations == DEFAULT_STATIONS
        assert len(config.stations) == 6
        assert all(gs.receiver_cap == 10 for gs in config.stations)

    def test_default_scenario_matches_empty_dict(self):
        assert default_scenario() == scenario_from_dict({})
        assert default_scenario().physics == default_physics()

    def test_fidelity_threshold_out_of_range(self):
        with pytest.raises(ConfigurationError, match="fidelity threshold"):
            scenario_from_dict({"fidelity_threshold": 1.1})

    def test_unknown_top_level_field_named(self):
        with pytest.raises(ConfigurationError, match="scenario.bogus"):
            scenario_from_dict({"bogus": 1})

    def test_unknown_physics_field_named(self):
        with pytest.raises(ConfigurationError, match="physics.beam_waist"):
            scenario_from_dict({"physics": {"beam_waist": 0.1}})

    def test_station_missing_coordinate(self):
        with pytest.raises(ConfigurationError, match=r"stations\[0\]"):
            scenario_from_dict({"stations": [{"id": "x", "latitude": 1.0}]})

    def test_type_errors_name_field(self):
        with pytest.raises(ConfigurationError, match="num_slots"):
            scenario_from_dict({"num_slots": "many"})
        with pytest.raises(ConfigurationError, match="num_slots"):
            scenario_from_dict({"num_slots": 3.5})

    def test_explicit_pairs_parsed(self):
        config = scenario_from_dict(
            {
                "stations": [
                    {"id": "a", "latitude": 0.0, "longitude": 0.0, "receiver_cap": 3},
                    {"id": "b", "latitude": 1.0, "longitude": 1.0, "receiver_cap": 3},
                ],
                "pairs": [
                    {"id": "ab", "station_a": "a", "station_b": "b", "pair_cap": 3}
                ],
            }
        )
        assert config.pairs == (
            PairSpec(id="ab", station_a="a", station_b="b", pair_cap=3),
        )

    def test_round_trip_identity(self, tmp_path):
        config = scenario_from_dict(small_scenario_dict())
        path = str(tmp_path / "scenario.json")
        save_scenario(config, path)
        assert load_scenario(path) == config

    def test_round_trip_of_defaults(self, tmp_path):
        config = default_scenario()
        path = str(tmp_path / "scenario.json")
        save_scenario(config, path)
        assert load_scenario(path) == config

    def test_to_dict_then_from_dict(self):
        config = scenario_from_dict(small_scenario_dict())
        assert scenario_from_dict(scenario_to_dict(config)) == config

    def test_every_physics_field_round_trips_under_its_name(self):
        # distinct non-default values, so a field written or read under
        # another field's name shows
        physics = {
            "mean_photon_number": 0.01,
            "repetition_rate": 2e9,
            "tx_radius": 0.2,
            "rx_radius": 0.9,
            "wavelength": 8e-7,
            "tx_efficiency": 0.6,
            "rx_efficiency": 0.5,
            "detector_gate": 2e-9,
            "filter_bandwidth_nm": 0.5,
            "field_of_view": 3e-10,
            "mirror_radius": 1.2,
        }
        config = scenario_from_dict({**small_scenario_dict(), "physics": physics})
        assert config.physics.source.repetition_rate == 2e9
        assert config.physics.optics.rx_efficiency == 0.5
        assert config.physics.mirror_radius == 1.2
        assert scenario_to_dict(config)["physics"] == physics
        assert scenario_from_dict(scenario_to_dict(config)) == config

    def test_every_other_field_round_trips_under_its_name(self):
        # each constellation, station, pair and top-level field at a
        # distinct non-default value, so a field written or read under
        # another field's name shows
        data = {
            "constellation": {
                "rings": 3,
                "sats_per_ring": 7,
                "altitude": 1.2e6,
                "epoch": 45.0,
            },
            "stations": [
                {"id": "a", "latitude": 12.5, "longitude": -33.0, "receiver_cap": 8},
                {"id": "b", "latitude": -4.0, "longitude": 71.0, "receiver_cap": 9},
            ],
            "pairs": [{"id": "ab", "station_a": "a", "station_b": "b", "pair_cap": 2}],
            "slot_duration": 30.0,
            "num_slots": 12,
            "month": 4,
            "policy": "reflection_ratefair",
            "min_elevation": 15.0,
            "fidelity_threshold": 0.8,
            "mirror_efficiency": 0.9,
            "transmitter_cap": 5,
            "reflector_cap": 6,
            "pair_cap": 1,
            "weather_csv": "weather.csv",
            "weather_seed": 11,
        }
        config = scenario_from_dict(data)
        for name, value in data["constellation"].items():
            assert getattr(config.constellation, name) == value
        for name, value in data["stations"][1].items():
            assert getattr(config.stations[1], name) == value
        for name, value in data["pairs"][0].items():
            assert getattr(config.pairs[0], name) == value
        scalars = {k: v for k, v in data.items() if not isinstance(v, (dict, list))}
        for name, value in scalars.items():
            assert getattr(config, name) == value
        written = scenario_to_dict(config)
        assert written.pop("physics") == scenario_to_dict(default_scenario())["physics"]
        assert written == data
        assert scenario_from_dict(written) == config

    @pytest.mark.parametrize(
        "cls, table",
        [
            (ConstellationConfig, config_mod._CONSTELLATION),
            (GroundStation, config_mod._STATION),
            (PairSpec, config_mod._PAIR),
            (ScenarioConfig, config_mod._SCENARIO),
        ],
        ids=["constellation", "station", "pair", "scenario"],
    )
    def test_every_config_field_is_a_scenario_field(self, cls, table):
        # a field no scenario file can reach is a knob nothing turns
        assert {f.name for f in fields(cls)} == set(table.kinds)

    def test_every_physics_field_is_a_scenario_field(self):
        physics = default_physics()
        flat = []
        for f in fields(physics):
            value = getattr(physics, f.name)
            flat += [sub.name for sub in fields(value)] if is_dataclass(value) else [f.name]
        assert sorted(flat) == sorted(config_mod._PHYSICS.kinds)

    def test_omitted_caps_take_their_defaults(self):
        config = scenario_from_dict(
            {
                "stations": [
                    {"id": "a", "latitude": 0.0, "longitude": 0.0},
                    {"id": "b", "latitude": 1.0, "longitude": 1.0},
                ],
                "pairs": [{"id": "ab", "station_a": "a", "station_b": "b"}],
            }
        )
        assert [gs.receiver_cap for gs in config.stations] == [10, 10]
        assert config.pairs[0].pair_cap == 10

    @pytest.mark.parametrize(
        "stations, pairs, message",
        [
            (
                [{"id": "a", "latitude": 0.0}],
                None,
                "field stations[0].longitude: required",
            ),
            (
                [{"id": "a", "latitude": 0.0, "longitude": 0.0}, {"latitude": 1.0}],
                None,
                "field stations[1].id: required",
            ),
            (
                [{"id": "a", "latitude": 0.0, "longitude": 0.0, "height": 3.0}],
                None,
                "field stations[0].height: unknown field",
            ),
            (None, [{"id": "ab", "station_a": "a"}], "field pairs[0].station_b: required"),
            (
                None,
                [{"id": "ab", "station_a": "a", "station_b": "b", "rate": 2}],
                "field pairs[0].rate: unknown field",
            ),
        ],
    )
    def test_station_and_pair_field_errors(self, stations, pairs, message):
        data = {"stations": stations} if stations else {"pairs": pairs}
        with pytest.raises(ConfigurationError) as excinfo:
            scenario_from_dict(data)
        assert str(excinfo.value) == message

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(IngestionError, match="cannot read"):
            load_scenario(str(tmp_path / "absent.json"))

    def test_load_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(IngestionError, match="not valid JSON"):
            load_scenario(str(path))


class TestOverrides:
    def test_scalar_and_nested_overrides(self):
        config = default_scenario()
        updated = apply_overrides(
            config,
            {
                "num_slots": "12",
                "policy": "reflection_ratefair",
                "constellation.rings": "4",
                "physics.wavelength": "8e-7",
            },
        )
        assert updated.num_slots == 12
        assert updated.policy == "reflection_ratefair"
        assert updated.constellation.rings == 4
        assert updated.physics.optics.wavelength == 8e-7

    def test_unknown_override_named(self):
        with pytest.raises(ConfigurationError, match="warp_factor"):
            apply_overrides(default_scenario(), {"warp_factor": "9"})

    @pytest.mark.parametrize(
        "key",
        ["stations", "constellation", "physics.source", "constellation.earth_radius",
         ".num_slots", "scenario.num_slots", "constellation.rings.x"],
    )
    def test_override_names_only_table_fields(self, key):
        with pytest.raises(ConfigurationError, match=rf"field {re.escape(key)}: unknown override"):
            apply_overrides(default_scenario(), {key: "3"})

    def test_unparseable_override_value(self):
        with pytest.raises(ConfigurationError, match="num_slots"):
            apply_overrides(default_scenario(), {"num_slots": "lots"})

    def test_override_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError, match="fidelity threshold"):
            apply_overrides(default_scenario(), {"fidelity_threshold": "1.1"})


class TestBaselineGrid:
    def test_default_grid_has_thirteen_points(self):
        grid = _parse_baseline_grid("0:3000:250")
        assert len(grid) == 13
        assert grid[0] == 0.0
        assert grid[-1] == 3000.0

    def test_bad_shapes_rejected(self):
        for text in ("0:3000", "a:b:c", "0:3000:-5", "10:0:5"):
            with pytest.raises(ConfigurationError):
                _parse_baseline_grid(text)


def write_small_config(tmp_path):
    path = str(tmp_path / "scenario.json")
    save_scenario(scenario_from_dict(small_scenario_dict()), path)
    return path


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


class TestCliExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["simulate", "--out", "x", "--turbo"]) == 2
        capsys.readouterr()

    def test_missing_config_file_is_ingestion_error(self, tmp_path, capsys):
        code = main(["validate", "--config", str(tmp_path / "absent.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "absent.json" in err

    def test_bad_field_value_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"fidelity_threshold": 1.1}))
        assert main(["validate", "--config", str(path)]) == 1
        assert "fidelity threshold" in capsys.readouterr().err

    def test_validate_defaults_succeeds(self, capsys):
        assert main(["validate"]) == 0
        assert "scenario ok" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"num_slots": Infinity}', "num_slots"),
            ('{"num_slots": NaN}', "num_slots"),
            ('{"slot_duration": NaN}', "slot_duration"),
            ('{"constellation": {"altitude": NaN}}', "constellation.altitude"),
            ('{"physics": {"wavelength": -Infinity}}', "physics.wavelength"),
        ],
    )
    def test_validate_rejects_non_finite_numbers(self, tmp_path, capsys, text, field):
        path = tmp_path / "scenario.json"
        path.write_text(text)
        assert main(["validate", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert f"field {field}: expected a finite number" in captured.err
        assert "scenario ok" not in captured.out

    def test_non_finite_override_rejected(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["simulate", "--out", out, "--set", "slot_duration=nan"]) == 1
        assert "field slot_duration: expected a finite number" in capsys.readouterr().err
        assert not os.path.exists(out)

    def _validate_pairs(self, tmp_path, pairs):
        data = small_scenario_dict()
        data["pairs"] = pairs
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        return main(["validate", "--config", str(path)])

    def test_validate_rejects_duplicate_pair_ids(self, tmp_path, capsys):
        pairs = [
            {"id": "ab", "station_a": "alpha", "station_b": "bravo", "pair_cap": 2},
            {"id": "ab", "station_a": "alpha", "station_b": "carol", "pair_cap": 2},
        ]
        assert self._validate_pairs(tmp_path, pairs) == 1
        captured = capsys.readouterr()
        assert "duplicate pair id ab" in captured.err
        assert "scenario ok" not in captured.out

    @pytest.mark.parametrize("pair_cap", [0, 2])
    def test_validate_names_an_unknown_station(self, tmp_path, capsys, pair_cap):
        pairs = [
            {"id": "ax", "station_a": "alpha", "station_b": "xray", "pair_cap": pair_cap}
        ]
        assert self._validate_pairs(tmp_path, pairs) == 1
        err = capsys.readouterr().err
        assert "pair ax: unknown station 'xray'" in err
        assert "receiver cap" not in err

    def test_validate_names_a_duplicate_station(self, tmp_path, capsys):
        # implicit pairs over a repeated station id would pair it with itself
        data = small_scenario_dict()
        data["stations"][1]["id"] = "alpha"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        assert main(["validate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "duplicate station id 'alpha'" in err
        assert "stations must differ" not in err
        with pytest.raises(ConfigurationError, match="duplicate station id 'alpha'"):
            scenario_from_dict(data)


def one_error_line(capsys, command):
    """The single stderr line of a failed command."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.splitlines()
    assert line.startswith(f"qsatnet {command}: error:")
    return line


class TestCliBadValues:
    """A value of the wrong JSON type or a non-finite number ends in one
    error line naming the field, flag or row, with exit code 1."""

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"stations": 5}, "field stations: expected an array"),
            ({"pairs": 5}, "field pairs: expected an array"),
            ({"constellation": 5}, "field constellation: expected an object"),
            ({"physics": 5}, "field physics: expected an object"),
            ({"constellation": "ab"}, "field constellation: expected an object"),
        ],
    )
    def test_validate_names_a_field_of_the_wrong_type(self, tmp_path, capsys, data, message):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        assert main(["validate", "--config", str(path)]) == 1
        assert one_error_line(capsys, "validate").endswith(message)

    @pytest.mark.parametrize("irradiance", ["nan", "inf"])
    def test_validate_rejects_non_finite_irradiance(self, tmp_path, capsys, irradiance):
        path = tmp_path / "weather.csv"
        path.write_text(
            "station_id,month,hour_utc,zenith_transmissivity,cloud_cover,"
            "solar_irradiance_uW_cm2_sr_nm\n"
            "new_york,6,0,0.9,0.1,1.5\n"
            f"new_york,6,1,0.9,0.1,{irradiance}\n"
        )
        assert main(["validate", "--weather", str(path)]) == 1
        line = one_error_line(capsys, "validate")
        assert f"{path} row 3: solar irradiance {irradiance}" in line

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--altitude", "nan"], "--altitude nan"),
            (["--baselines", "0:nan:250"], "baselines '0:nan:250'"),
            (["--baselines", "0:inf:250"], "baselines '0:inf:250'"),
        ],
    )
    def test_casestudy_rejects_non_finite_flags(self, tmp_path, capsys, flags, named):
        out = tmp_path / "cs"
        assert main(["casestudy", *flags, "--out", str(out)]) == 1
        assert named in one_error_line(capsys, "casestudy")
        assert not out.exists()

    @pytest.mark.parametrize("efficiency", ["1.5", "nan", "-0.1"])
    def test_casestudy_rejects_a_mirror_efficiency_outside_0_1(
        self, tmp_path, capsys, efficiency
    ):
        # no relay pass is integrated at a baseline beyond the pair's
        # reach, so only a check on entry refuses the value there
        out = tmp_path / "cs"
        flags = ["--mirror-efficiency", efficiency, "--baselines", "19000:19000:1"]
        assert main(["casestudy", *flags, "--out", str(out)]) == 1
        assert one_error_line(capsys, "casestudy").endswith(
            "error: mirror efficiency must lie in [0, 1]"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "baselines, message",
        [
            # 10^9 points, all beyond the half circumference
            ("0:1e9:1", "STOP must lie below pi * R_E = 20015.087 km"),
            ("0:20015.09:250", "STOP must lie below pi * R_E = 20015.087 km"),
            ("-1:3000:250", "START must be nonnegative"),
            # 10^11 points, all in range
            ("0:100:1e-9", "more than 10000 points"),
            # the point count overflows to inf
            ("0:100:1e-320", "more than 10000 points"),
            ("0:10000:1", "more than 10000 points"),
        ],
    )
    def test_casestudy_bounds_the_grid_before_building_it(
        self, tmp_path, capsys, monkeypatch, baselines, message
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("case study run on an out-of-bounds grid")

        monkeypatch.setattr(cli, "case_study", refuse)
        out = tmp_path / "cs"
        assert main(["casestudy", f"--baselines={baselines}", "--out", str(out)]) == 1
        line = one_error_line(capsys, "casestudy")
        assert line.endswith(f"--baselines {baselines!r}: {message}")
        assert not out.exists()

    def test_casestudy_takes_the_largest_grid_in_bounds(self, monkeypatch):
        grids = []
        monkeypatch.setattr(cli, "case_study", lambda grid, **kw: grids.append(grid) or [])
        monkeypatch.setattr(cli, "write_case_study", lambda rows, path: None)
        assert main(["casestudy", "--baselines", "0:9999:1", "--out", "unused"]) == 0
        assert main(["casestudy", "--baselines", "20000:20015:5", "--out", "unused"]) == 0
        assert grids[0] == [float(i) for i in range(10_000)]
        assert grids[1] == [20000.0, 20005.0, 20010.0, 20015.0]

    def test_overflowing_altitude_is_one_error_line(self, tmp_path, capsys):
        # the orbit radius cubed overflows; validate must catch what
        # simulate and casestudy would otherwise meet mid-run
        message = "altitude 1e+300 m: orbit radius cubed overflows"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"constellation": {"altitude": 1e300}, "num_slots": 2}))
        assert main(["validate", "--config", str(path)]) == 1
        assert one_error_line(capsys, "validate").endswith(f"error: {message}")
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        assert one_error_line(capsys, "simulate").endswith(f"error: {message}")
        assert not out.exists()
        # the flag is in km: 1e300 overflows when cubed, 1e306 already in
        # the conversion to metres; either is named as the user gave it
        for altitude in ("1e300", "1e306"):
            out = tmp_path / f"cs{altitude}"
            flags = ["--altitude", altitude, "--baselines", "0:250:250", "--out", str(out)]
            assert main(["casestudy", *flags]) == 1
            assert one_error_line(capsys, "casestudy").endswith(
                f"error: --altitude {float(altitude)} km: orbit radius cubed overflows"
            )
            assert not out.exists()

    def test_oversized_constellation_is_one_error_line(self, tmp_path, capsys):
        # 1e300 passes as an integral float; without a size bound validate
        # and simulate would build satellite ids until memory ran out
        message = f"constellation of {int(1e300)} rings x 20 satellites: more than 10000 satellites"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"constellation": {"rings": 1e300}}))
        assert main(["validate", "--config", str(path)]) == 1
        assert one_error_line(capsys, "validate").endswith(f"error: {message}")
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        assert one_error_line(capsys, "simulate").endswith(f"error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize(
        "scenario, message",
        [
            # 2 pi times slot 1's time overflows before the cosine
            (
                {"slot_duration": 1e308, "num_slots": 2},
                "field slot_duration: 2 slots of 1e+308 s overflow the Earth-spin angle",
            ),
            # a slot count past the float range
            (
                {"num_slots": 10**400},
                f"field slot_duration: {10**400} slots of 10.0 s overflow the Earth-spin angle",
            ),
            # the spin stays finite, the epoch plus slot 1's time does not
            (
                {"constellation": {"epoch": 1.7e308}, "slot_duration": 1e307, "num_slots": 2},
                "field constellation.epoch: epoch 1.7e+308 s plus 1e+307 s of slots "
                "overflows the orbit angle",
            ),
        ],
    )
    def test_overflowing_slot_time_is_one_error_line(
        self, tmp_path, capsys, scenario, message
    ):
        # validate must refuse what simulate would otherwise meet mid-run
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        assert main(["validate", "--config", str(path)]) == 1
        assert one_error_line(capsys, "validate").endswith(f"error: {message}")
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        assert one_error_line(capsys, "simulate").endswith(f"error: {message}")
        assert not out.exists()

    def test_validate_prices_the_scenario_source(self, tmp_path, capsys):
        message = "mean_photon_number 1e+100: emission probabilities overflow"
        path = tmp_path / "scenario.json"
        path.write_text(
            json.dumps({"physics": {"mean_photon_number": 1e100}, "num_slots": 2})
        )
        assert main(["validate", "--config", str(path)]) == 1
        assert one_error_line(capsys, "validate").endswith(f"error: {message}")
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        assert one_error_line(capsys, "simulate").endswith(f"error: slot 0: {message}")

    @pytest.mark.parametrize(
        "flags, message",
        [
            # the grid's ratio 1e600 overflows, so the upper points are inf
            (
                ["--points", "3", "--ns-min", "1e-300", "--ns-max", "1e300"],
                "mean_photon_number inf must be finite",
            ),
            (
                ["--points", "2", "--ns-min", "1", "--ns-max", "1e150"],
                "mean_photon_number 1e+150: emission probabilities overflow",
            ),
            (
                ["--points", "1", "--ns-min", "1e100", "--ns-max", "1e100"],
                "mean_photon_number 1e+100: emission probabilities overflow",
            ),
        ],
    )
    def test_linkbudget_rejects_unrepresentable_photon_numbers(
        self, tmp_path, capsys, flags, message
    ):
        out = tmp_path / "lb.csv"
        assert main(["linkbudget", *flags, "--out", str(out)]) == 1
        assert one_error_line(capsys, "linkbudget").endswith(message)
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--ns-min", "nan"), ("--ns-max", "inf"), ("--rep-rate", "inf"), ("--rep-rate", "nan")],
    )
    def test_linkbudget_rejects_non_finite_flags(self, tmp_path, capsys, flag, value):
        out = tmp_path / "lb.csv"
        assert main(["linkbudget", flag, value, "--out", str(out)]) == 1
        line = one_error_line(capsys, "linkbudget")
        assert f"{flag} {value}: expected a finite number" in line
        assert not out.exists()


class TestCliFileErrors:
    """An unreadable input or unwritable output ends in one error line
    naming the file, with exit code 1."""

    def assert_one_line_error(self, capsys, command, path):
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = err.splitlines()
        assert line.startswith(f"qsatnet {command}: error:")
        assert str(path) in line

    def test_validate_missing_weather_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert main(["validate", "--weather", str(missing)]) == 1
        self.assert_one_line_error(capsys, "validate", missing)

    def test_simulate_missing_weather_csv(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        data = small_scenario_dict()
        data["weather_csv"] = str(missing)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        self.assert_one_line_error(capsys, "simulate", missing)
        assert not out.exists()

    def test_validate_missing_weather_csv(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"weather_csv": str(missing)}))
        assert main(["validate", "--config", str(path)]) == 1
        self.assert_one_line_error(capsys, "validate", missing)

    def test_non_utf8_config(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_bytes(b'{"policy": "\xff"}')
        assert main(["validate", "--config", str(path)]) == 1
        self.assert_one_line_error(capsys, "validate", path)

    def test_non_utf8_weather_file(self, tmp_path, capsys):
        path = tmp_path / "weather.csv"
        path.write_bytes(b"station_id,month\n\xff,6\n")
        assert main(["validate", "--weather", str(path)]) == 1
        self.assert_one_line_error(capsys, "validate", path)

    def test_simulate_output_under_a_file(self, tmp_path, capsys):
        blocker = tmp_path / "some_file"
        blocker.write_text("")
        out = blocker / "sub"
        config = write_small_config(tmp_path)
        assert main(["simulate", "--config", config, "--out", str(out)]) == 1
        self.assert_one_line_error(capsys, "simulate", out)


REDUCED_OVERRIDES = (
    "constellation.rings=4",
    "constellation.sats_per_ring=10",
    "slot_duration=60",
    "weather_seed=23",
    "num_slots=240",
)
DEFAULT_OVERRIDES = ("num_slots=3",)
# SHA-256 of metrics.csv, per_pair.csv and report.json for each run
PINNED_DIGESTS = {
    ("reduced", "primary_ratesum"): (
        "9645d1cd9d7b3f5be4861ed0737b324dd211294c50f5c757cce4fbcdc9315035",
        "6512fc452c41a96033c9d4289039b35434e11001898405fc04ef3f68b256588b",
        "90507cac0757a97b00e34af059b01085ee6f78ec3c3768d806439379a2aba9c4",
    ),
    ("reduced", "primary_ratefair"): (
        "1b1ba533dd9771594c94f3e1cdb5637e9189610e51fd39bac11bbbead5f1e7cf",
        "e14cbfa1416ebe1308df13676df26577836f1df5a67ec5aa9f6aedb11b0125c8",
        "21b0263906bd0317a4d9630f2b79368199aed7fc15294369cc19555b245b6d41",
    ),
    ("reduced", "reflection_ratesum"): (
        "c68cf0ce4cb2c57370953d71ba86fea6f27d0f643375cb4319d781511ad8b0eb",
        "eae71bec26f124ff5cff0cfb02bf1a9879c9e180a4234a3b2725dc6db320e58d",
        "b04967927a2c0c72404240d2e33ffab536a816c560aedbb5f9adacd1b7c292dc",
    ),
    ("reduced", "reflection_ratefair"): (
        "a94ba2b65ea3b985c907fc72ea3d15e9965fca6296bcfe96475ae65c74873c1d",
        "47efa3d9fbb430f04dc25a89656a4e5c4225ad24bb58e7f8a85969c2a9c67719",
        "3ffb7b9c0636d21c6f9c119726981aba43624e15d425f025ddd6cf454e2337e1",
    ),
    ("default", "primary_ratesum"): (
        "c18c6b3a537299d1c0c2bb39fb932ae61b5a3250bd80c29acee8f8048b42306e",
        "1746ccfbbaf7e3cb850df1da9691d1e016da6e45121f4b99775fedc3da580289",
        "813284813ec61cb800247093b87818357b834fae2113c53ab889e3751048e9c2",
    ),
    ("default", "reflection_ratesum"): (
        "65e47842be20bded5bd0f726c56ac2482c20e41f39a574e5add49618f26c6748",
        "bf98433068082cba5c6e1d833b545b54eb6cc20efd77d2be64e4be1f70493588",
        "05f4b1c1cad34f17d6397138e090024a4e18924e61bd5cc5eee475bea22e4b04",
    ),
}


# SHA-256 of case_study.csv for --baselines 0:500:250, under the same
# libm caveat as PINNED_DIGESTS
PINNED_CASE_STUDY_DIGEST = (
    "92a3e93a6aead605186ddbd0c54f65c32c68456f56703f7cb46c3063a2efc0d0"
)


class TestCliSimulate:
    def test_simulate_writes_outputs(self, tmp_path, capsys):
        config = write_small_config(tmp_path)
        out = str(tmp_path / "results")
        assert main(["simulate", "--config", config, "--out", out]) == 0
        capsys.readouterr()
        for name in ("metrics.csv", "per_pair.csv", "report.json"):
            assert os.path.exists(os.path.join(out, name))
        with open(os.path.join(out, "metrics.csv"), newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["t", "aggregate_edr", "connectivity", "handovers"]
        assert len(rows) == 1 + 5
        with open(os.path.join(out, "report.json")) as handle:
            report = json.load(handle)
        assert report["num_slots"] == 5
        assert report["policy"] == "primary_ratesum"
        assert report["overrides"] == {}

    def test_repeat_invocations_byte_identical(self, tmp_path, capsys):
        config = write_small_config(tmp_path)
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert main(["simulate", "--config", config, "--out", out_a]) == 0
        assert main(["simulate", "--config", config, "--out", out_b]) == 0
        capsys.readouterr()
        for name in ("metrics.csv", "per_pair.csv", "report.json"):
            assert read_bytes(os.path.join(out_a, name)) == read_bytes(
                os.path.join(out_b, name)
            )

    def test_overrides_logged_in_report(self, tmp_path, capsys):
        config = write_small_config(tmp_path)
        out = str(tmp_path / "results")
        code = main(
            [
                "simulate",
                "--config",
                config,
                "--out",
                out,
                "--set",
                "num_slots=3",
                "--set",
                "policy=primary_ratefair",
            ]
        )
        assert code == 0
        capsys.readouterr()
        with open(os.path.join(out, "report.json")) as handle:
            report = json.load(handle)
        assert report["num_slots"] == 3
        assert report["policy"] == "primary_ratefair"
        assert report["overrides"] == {
            "num_slots": "3",
            "policy": "primary_ratefair",
        }

    def test_malformed_override_rejected(self, tmp_path, capsys):
        config = write_small_config(tmp_path)
        out = str(tmp_path / "results")
        code = main(
            ["simulate", "--config", config, "--out", out, "--set", "num_slots"]
        )
        assert code == 1
        assert "KEY=VALUE" in capsys.readouterr().err


class TestCliWeather:
    def test_synth_then_validate(self, tmp_path, capsys):
        config = write_small_config(tmp_path)
        weather = str(tmp_path / "weather.csv")
        code = main(
            ["weather-synth", "--seed", "7", "--stations", config, "--out", weather]
        )
        assert code == 0
        assert main(["validate", "--config", config, "--weather", weather]) == 0
        assert "weather ok" in capsys.readouterr().out

    def test_synth_covers_all_months(self, tmp_path, capsys):
        config = write_small_config(tmp_path)
        weather = str(tmp_path / "weather.csv")
        main(["weather-synth", "--seed", "7", "--stations", config, "--out", weather])
        capsys.readouterr()
        with open(weather, newline="") as handle:
            rows = list(csv.DictReader(handle))
        months = {int(row["month"]) for row in rows}
        assert months == set(range(1, 13))
        assert len(rows) == 3 * 12 * 24

    def test_validate_rejects_weather_missing_station(self, tmp_path, capsys):
        config = write_small_config(tmp_path)
        weather = str(tmp_path / "weather.csv")
        main(["weather-synth", "--seed", "7", "--stations", config, "--out", weather])
        capsys.readouterr()
        with open(weather) as handle:
            lines = handle.readlines()
        kept = [lines[0]] + [ln for ln in lines[1:] if not ln.startswith("carol,")]
        pruned = str(tmp_path / "pruned.csv")
        with open(pruned, "w") as handle:
            handle.writelines(kept)
        assert main(["validate", "--config", config, "--weather", pruned]) == 1
        assert "carol" in capsys.readouterr().err

    @pytest.mark.parametrize("given_by", ["--weather", "weather_csv"])
    def test_validate_names_a_station_the_weather_file_lacks(
        self, tmp_path, capsys, given_by
    ):
        # given as the scenario's weather_csv, simulate would read the file
        # and fail at the first slot that reaches rome
        weather = tmp_path / "weather.csv"
        main(["weather-synth", "--seed", "3", "--out", str(weather)])
        capsys.readouterr()
        lines = weather.read_text().splitlines(keepends=True)
        pruned = tmp_path / "no_rome.csv"
        pruned.write_text("".join(ln for ln in lines if not ln.startswith("rome,")))
        if given_by == "--weather":
            argv = ["validate", "--weather", str(pruned)]
        else:
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps({"weather_csv": str(pruned)}))
            argv = ["validate", "--config", str(path)]
        assert main(argv) == 1
        assert one_error_line(capsys, "validate") == (
            "qsatnet validate: error: no weather records for station 'rome' month 6"
        )

    def test_simulate_with_weather_file(self, tmp_path, capsys):
        config_path = write_small_config(tmp_path)
        weather = str(tmp_path / "weather.csv")
        main(
            ["weather-synth", "--seed", "7", "--stations", config_path, "--out", weather]
        )
        out = str(tmp_path / "results")
        code = main(
            [
                "simulate",
                "--config",
                config_path,
                "--out",
                out,
                "--set",
                f"weather_csv={weather}",
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert os.path.exists(os.path.join(out, "report.json"))


class TestCliCaseStudy:
    def test_small_grid_row_count(self, tmp_path, capsys):
        out = str(tmp_path / "cs")
        code = main(
            ["casestudy", "--baselines", "0:250:250", "--altitude", "1000", "--out", out]
        )
        assert code == 0
        capsys.readouterr()
        with open(os.path.join(out, "case_study.csv"), newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        assert [row["baseline_km"] for row in rows] == ["0.0", "250.0"]
        for row in rows:
            assert float(row["primary_edr"]) > 0
            assert float(row["reflection_edr"]) > 0

    def test_output_matches_pinned_digest(self, tmp_path, capsys):
        out = str(tmp_path / "cs")
        assert main(["casestudy", "--baselines", "0:500:250", "--out", out]) == 0
        capsys.readouterr()
        path = os.path.join(out, "case_study.csv")
        assert hashlib.sha256(read_bytes(path)).hexdigest() == PINNED_CASE_STUDY_DIGEST

    def test_bad_grid_exits_one(self, tmp_path, capsys):
        out = str(tmp_path / "cs")
        assert main(["casestudy", "--baselines", "0:10", "--out", out]) == 1
        capsys.readouterr()


class TestCliLinkBudget:
    def test_curve_csv_round_trip(self, tmp_path, capsys):
        out = str(tmp_path / "linkbudget.csv")
        code = main(
            [
                "linkbudget",
                "--ns-min",
                "1e-4",
                "--ns-max",
                "0.1",
                "--points",
                "20",
                "--out",
                out,
            ]
        )
        assert code == 0
        capsys.readouterr()
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 20
        ns = [float(row["mean_photon_number"]) for row in rows]
        edr = [float(row["edr"]) for row in rows]
        fid = [float(row["fidelity"]) for row in rows]
        assert ns[0] == pytest.approx(1e-4)
        assert ns[-1] == pytest.approx(0.1)
        assert all(b > a for a, b in zip(edr, edr[1:]))
        assert all(b < a for a, b in zip(fid, fid[1:]))

    def test_invalid_points_rejected(self, tmp_path, capsys):
        out = str(tmp_path / "lb.csv")
        assert main(["linkbudget", "--points", "0", "--out", out]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("points", ["0", "10001"])
    def test_linkbudget_bounds_the_grid_before_building_it(
        self, tmp_path, capsys, monkeypatch, points
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("link budget run on an out-of-bounds grid")

        monkeypatch.setattr(cli, "rate_fidelity_curve", refuse)
        out = tmp_path / "lb.csv"
        assert main(["linkbudget", "--points", points, "--out", str(out)]) == 1
        line = one_error_line(capsys, "linkbudget")
        assert line.endswith(f"--points {points}: expected 1 to 10000 points")
        assert not out.exists()

    def test_linkbudget_takes_the_largest_grid_in_bounds(self, tmp_path, monkeypatch):
        grids = []
        monkeypatch.setattr(
            cli, "rate_fidelity_curve", lambda grid, *a, **kw: grids.append(grid) or []
        )
        out = str(tmp_path / "lb.csv")
        assert main(["linkbudget", "--points", "10000", "--out", out]) == 0
        assert len(grids[0]) == 10_000


@pytest.mark.parametrize(
    "scenario, policy", list(PINNED_DIGESTS), ids="-".join
)
def test_simulate_outputs_match_pinned_digests(scenario, policy, tmp_path, capsys):
    """The determinism contract, pinned: these runs write exactly the bytes
    they wrote when the digests were recorded, so a refactor that claims
    identical outputs is checked rather than asserted.

    The outputs carry full-precision floats from math-library calls, so the
    digests hold for the platform's libm they were recorded with (x86-64
    Linux, glibc); another libm may move a last digit and fail this test
    without any change to the program.
    """
    overrides = REDUCED_OVERRIDES if scenario == "reduced" else DEFAULT_OVERRIDES
    args = ["simulate", "--out", str(tmp_path)]
    for item in (*overrides, f"policy={policy}"):
        args += ["--set", item]
    assert main(args) == 0
    capsys.readouterr()
    digests = tuple(
        hashlib.sha256(read_bytes(os.path.join(tmp_path, name))).hexdigest()
        for name in ("metrics.csv", "per_pair.csv", "report.json")
    )
    assert digests == PINNED_DIGESTS[(scenario, policy)]
