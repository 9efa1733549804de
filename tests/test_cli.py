import contextlib
import copy
import dataclasses
import importlib.resources
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfwmkit import cli
from sfwmkit.errors import ConfigError
from sfwmkit.hom import HomDataset, HomModelParams, simulate_counts
from sfwmkit.jsa import adaptive_grid, build_jsa, schmidt_decompose
from sfwmkit.material_optics import FiberAxisGeometry, FiberSpec
from sfwmkit.phasematch import PumpSpec, gvm_pump_wavelength

FAST = FiberAxisGeometry(core_diameter=1.7507e-6, air_filling_fraction=0.511)


def _run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def config_path(tmp_path):
    document = {
        "fiber": {
            "fast_axis": {"core_diameter_um": 1.7507, "air_filling_fraction": 0.511},
            "slow_axis": {"core_diameter_um": 1.7488, "air_filling_fraction": 0.505},
            "gamma_per_w_km": 99.0,
            "length_m": 0.4,
            "birefringence_override": -1.7e-5,
        },
        "pump": {
            "center_wavelength_nm": 783.0,
            "gaussian_fwhm_nm": 20.0,
            "filter_width_nm": 8.0,
        },
        "grid": {"n_signal": 128, "n_idler": 128},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document))
    return str(path)


class TestConfigParsing:
    def test_preset_loads(self):
        presets = importlib.resources.files("sfwmkit.presets")
        assert sorted(p.name for p in presets.iterdir() if p.name.endswith(".json")) == [
            "paper1m.json",
            "paper40cm.json",
        ]
        for name, length, pump_nm in (("paper40cm.json", 0.4, 783.0), ("paper1m.json", 1.0, 780.7)):
            config = cli.load_config(name)
            assert config.fiber.length == length
            assert config.pump.center_wavelength == pytest.approx(pump_nm * 1e-9)
            assert config.fiber.birefringence_override == -1.7e-5
            assert (config.n_signal, config.n_idler) == (256, 256)

    def test_unknown_top_key_rejected(self):
        with pytest.raises(ConfigError, match="mystery"):
            cli.parse_config({"fiber": {}, "pump": {}, "mystery": 1})

    @pytest.mark.parametrize("value", [0, 0.5])
    def test_seed_key_rejected_as_unknown(self, value):
        # `hom-sim --seed` gives the seed; the config has no such key.
        document = _paper_document()
        document["seed"] = value
        with pytest.raises(ConfigError, match="^unknown config key seed$"):
            cli.parse_config(document)

    def test_unknown_nested_key_named_with_path(self):
        document = json.loads(
            json.dumps(
                {
                    "fiber": {
                        "fast_axis": {
                            "core_diameter_um": 1.75,
                            "air_filling_fraction": 0.5,
                            "color": "blue",
                        },
                        "slow_axis": {
                            "core_diameter_um": 1.75,
                            "air_filling_fraction": 0.5,
                        },
                        "gamma_per_w_km": 99.0,
                        "length_m": 0.4,
                    },
                    "pump": {"center_wavelength_nm": 783, "gaussian_fwhm_nm": 20},
                }
            )
        )
        with pytest.raises(ConfigError, match="fiber.fast_axis.color"):
            cli.parse_config(document)
        # Peak power is the pump's one power input and the grid's padding is
        # a constant, so these keys are unknown like any other.
        for path in (
            "pump.average_power_w",
            "pump.repetition_rate_hz",
            "pump.pulse_fwhm_s",
            "grid.sidelobes",
        ):
            document = _paper_document()
            section, key = path.split(".")
            document[section][key] = 1.0
            with pytest.raises(ConfigError, match=f"^unknown config key {re.escape(path)}$"):
                cli.parse_config(document)

    def test_zero_peak_power_parses(self):
        document = _paper_document()
        document["pump"]["peak_power_w"] = 0
        assert cli.parse_config(document).pump.peak_power == 0.0

    def test_missing_section(self):
        with pytest.raises(ConfigError, match="pump"):
            cli.parse_config({"fiber": {}})


def _paper_document():
    return json.loads(
        importlib.resources.files("sfwmkit.presets").joinpath("paper40cm.json").read_text()
    )


class TestStrictNumbers:
    @pytest.mark.parametrize(
        "path, value",
        [
            ("fiber.length_m", float("nan")),
            ("fiber.length_m", float("inf")),
            ("fiber.gamma_per_w_km", float("-inf")),
            ("fiber.slow_axis.core_diameter_um", float("nan")),
            ("fiber.length_m", True),
            ("fiber.length_m", "99"),
            ("pump.center_wavelength_nm", "783"),
            ("pump.peak_power_w", float("nan")),
            ("grid.n_signal", 3.7),
            ("grid.n_idler", False),
            ("grid.n_signal", -5),
            ("grid.n_idler", 63),
            ("grid.n_signal", 10**30),
            ("grid.n_idler", 2049),
        ],
    )
    def test_bad_value_rejected_with_key_path(self, path, value):
        document = _paper_document()
        *parents, key = path.split(".")
        section = document
        for name in parents:
            section = section[name]
        section[key] = value
        with pytest.raises(ConfigError, match=f"^{re.escape(path)} "):
            cli.parse_config(document)

    @pytest.mark.parametrize("key, value", [("n_signal", 64), ("n_idler", 64)])
    def test_grid_minimum_accepted(self, key, value):
        document = _paper_document()
        document["grid"][key] = value
        assert getattr(cli.parse_config(document), key) == value

    @pytest.mark.parametrize("key", ["n_signal", "n_idler"])
    def test_grid_maximum_accepted(self, key):
        document = _paper_document()
        document["grid"][key] = 2048
        assert getattr(cli.parse_config(document), key) == 2048

    def test_json_nan_literal_rejected_on_load(self, tmp_path):
        path = tmp_path / "nan.json"
        text = json.dumps(_paper_document()).replace('"length_m": 0.4', '"length_m": NaN')
        path.write_text(text)
        with pytest.raises(ConfigError, match=r"fiber\.length_m"):
            cli.load_config(str(path))

    def test_integral_float_accepted(self):
        document = _paper_document()
        document["grid"]["n_signal"] = 128.0
        assert cli.parse_config(document).n_signal == 128

    @pytest.mark.parametrize(
        "build",
        [
            lambda: FiberAxisGeometry(core_diameter=float("nan"), air_filling_fraction=0.5),
            lambda: FiberSpec(FAST, FAST, gamma=float("inf"), length=0.4),
            lambda: FiberSpec(FAST, FAST, gamma=99.0, length=float("nan")),
            lambda: FiberSpec(
                FAST, FAST, gamma=99.0, length=0.4, birefringence_override=float("nan")
            ),
            lambda: PumpSpec(783e-9, float("inf")),
            lambda: PumpSpec(783e-9, 20e-9, filter_width=float("nan")),
            lambda: PumpSpec(783e-9, 20e-9, peak_power=float("inf")),
        ],
    )
    def test_library_specs_reject_non_finite(self, build):
        with pytest.raises(ValueError, match="finite"):
            build()


def _key_paths(node, prefix=()):
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


_PRESET_PATHS = sorted(_key_paths(_paper_document()))
# Numbers of every kind, integers too large for a float among them.
_NUMBERS = (
    st.integers()
    | st.sampled_from([0, -1, 10**400, -(10**400)])
    | st.floats(allow_nan=True, allow_infinity=True)
)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | _NUMBERS | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


@st.composite
def _mutated_preset(draw):
    """The paper40cm document with one or two keys deleted, replaced or added."""
    document = _paper_document()
    for _ in range(draw(st.integers(1, 2))):
        *parents, key = draw(st.sampled_from(_PRESET_PATHS))
        section = document
        for name in parents:
            section = section.get(name) if isinstance(section, dict) else None
        if not isinstance(section, dict):
            continue
        action = draw(st.sampled_from(["delete", "replace", "add"]))
        if action == "delete":
            section.pop(key, None)
        elif action == "replace":
            section[key] = draw(_NUMBERS | _JSON_VALUES)
        else:
            section[draw(st.text(min_size=1, max_size=4))] = draw(_JSON_VALUES)
    return document


class TestConfigFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(document=_mutated_preset() | _JSON_VALUES)
    def test_parses_or_raises_config_error(self, document):
        # Nothing but a RunConfig or a ConfigError: a bad document never
        # reaches the user as a traceback.
        try:
            config = cli.parse_config(document)
        except ConfigError:
            return
        assert isinstance(config, cli.RunConfig)


def _without(section):
    document = _paper_document()
    del document[section]
    return document


# Documents to set an override in, and the error each gives whatever the override.
_OVERRIDE_DOCUMENTS = {
    "preset": (_paper_document(), None),
    "no-fiber": (_without("fiber"), "missing config section fiber"),
    "no-pump": (_without("pump"), "missing config section pump"),
    "fiber-not-object": ({**_paper_document(), "fiber": [0.4]}, "fiber must be an object"),
    "root-not-object": ([1.0], "config root must be a JSON object"),
}
_OVERRIDE_FLAGS = {
    "--length-m": ("fiber", "length_m"),
    "--pump-nm": ("pump", "center_wavelength_nm"),
}


class TestOverrides:
    @staticmethod
    def _parsed(document, flags):
        """main's exit code and stderr, and the RunConfig it passed to `gvm`."""
        configs, stderr = [], io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_cmd_gvm", lambda config, args: configs.append(config) or "")
            path = os.path.join(tmp, "config.json")
            with open(path, "w") as handle:
                json.dump(document, handle)
            with contextlib.redirect_stderr(stderr):
                code = cli.main(["gvm", "--config", path, *flags])
        return code, stderr.getvalue(), configs

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        name=st.sampled_from(sorted(_OVERRIDE_DOCUMENTS)),
        flag=st.sampled_from(sorted(_OVERRIDE_FLAGS)),
        value=st.sampled_from([0.0, -0.0, -1.0, 1e308, -1e308, 5e-324])
        | st.sampled_from([float("nan"), float("inf"), float("-inf")])
        | st.floats(),
    )
    def test_flag_sets_its_config_key(self, name, flag, value):
        # `--length-m x` and `--pump-nm x` parse as `x` written into the
        # config, into fiber.length_m and pump.center_wavelength_nm, and give
        # the same RunConfig or the same exit-1 error.  A document without the
        # section keeps its own error.
        document, error = _OVERRIDE_DOCUMENTS[name]
        written = copy.deepcopy(document)
        section, key = _OVERRIDE_FLAGS[flag]
        if error is None:
            written[section][key] = value
        flagged = self._parsed(document, [f"{flag}={value!r}"])
        assert flagged == self._parsed(written, [])
        code, stderr, configs = flagged
        assert (code, bool(configs)) in ((0, True), (1, False))
        if error is not None:
            assert stderr == f"error: {error}\n"
        elif not math.isfinite(value):
            assert stderr == f"error: {section}.{key} must be a finite number, got {value!r}\n"


class TestExitCodes:
    def test_missing_config_exits_one(self, capsys):
        code, _, err = _run(["gvm", "--config", "does-not-exist.json"], capsys)
        assert code == 1
        assert "does-not-exist" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gvm", "--length-m", "-1"], "length must be finite and > 0"),
            (["gvm", "--pump-nm", "-783"], "must be positive"),
            (["purity-scan", "--lengths", "1", "0"], "--lengths: length"),
            (["hom-sim", "--p", "1.5"], "p must be in"),
            (["gvm", "--out", "{tmp}/no-such-dir/x.json"], "no-such-dir"),
            (
                ["hom-fit", "--data", "{tmp}/nan.csv", "--rep-rate", "76e6"],
                "nan.csv:3: R_AB must be a finite number, got 'nan'",
            ),
            (
                ["hom-fit", "--data", "{tmp}/negative.csv", "--rep-rate", "76e6"],
                "negative.csv: four_fold must be finite and >= 0, got -12.0",
            ),
            (
                ["hom-fit", "--data", "{tmp}/duration.csv", "--rep-rate", "76e6"],
                "duration.csv: duration must be finite and > 0, got -60.0",
            ),
            (["phasematch", "--range", "-5", "10"], "--range: pump wavelengths must be"),
            (["hom-sim", "--p", "0.9", "--chi", "nan"], "hom-sim arguments: chi must be finite, got nan"),
            (["hom-sim", "--p", "0.9", "--chi", "inf", "--noiseless"], "hom-sim arguments: chi must be finite, got inf"),
        ],
    )
    def test_user_errors_exit_one(self, config_path, tmp_path, capsys, argv, message):
        for name, row in (
            ("nan", "45,12,nan,1e6,1e6,1e6,60"),
            ("negative", "45,-12,1e6,1e6,1e6,1e6,60"),
            ("duration", "45,12,1e6,1e6,1e6,1e6,-60"),
        ):
            (tmp_path / f"{name}.csv").write_text(
                "theta_deg,R_ABCD,R_AB,R_CD,R_AD,R_BC,duration_s\n"
                f"0,10,1e6,1e6,1e6,1e6,60\n{row}\n"
            )
        argv = [arg.format(tmp=tmp_path) for arg in argv] + ["--config", config_path]
        code, _, err = _run(argv, capsys)
        assert code == 1
        assert message in err

    @pytest.mark.parametrize(
        "pump, message",
        [
            ({"filter_width_nm": 1566.0}, "filter_width must be less than twice"),
            ({"filter_width_nm": 2000.0}, "filter_width must be less than twice"),
            ({"gaussian_fwhm_nm": 500.0, "filter_width_nm": None}, "reaches zero frequency"),
        ],
        ids=["filter-twice-center", "filter-beyond", "unfiltered-too-wide"],
    )
    def test_pump_reaching_zero_frequency_exits_one(self, tmp_path, capsys, pump, message):
        # A filter window of twice the centre wavelength, or an unfiltered
        # +-6 sigma window, would reach omega <= 0: rejected at load.
        document = _paper_document()
        for key, value in pump.items():
            if value is None:
                del document["pump"][key]
            else:
                document["pump"][key] = value
        path = tmp_path / "pump.json"
        path.write_text(json.dumps(document))
        code, out, err = _run(["purity", "--config", str(path)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: pump: ")
        assert message in err

    def test_program_errors_propagate(self, config_path, monkeypatch):
        # A bug is not bad input: it raises with its traceback, not exit 1.
        def broken(config, args):
            raise TypeError("bug in a subcommand")

        monkeypatch.setattr(cli, "_cmd_gvm", broken)
        with pytest.raises(TypeError, match="bug in a subcommand"):
            cli.main(["gvm", "--config", config_path])

    @pytest.mark.parametrize(
        "argv",
        [
            ["dispersion", "--points", "0"],
            ["phasematch", "--points", "-3"],
            ["dispersion", "--points", "2049"],
            ["phasematch", "--points", "2049"],
            ["hom-sim", "--p", "0.9", "--theta-points", "2049"],
        ],
    )
    def test_bad_count_exits_two(self, config_path, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([*argv, "--config", config_path])
        assert excinfo.value.code == 2
        assert "must be in [1, 2048]" in capsys.readouterr().err

    def test_largest_count_accepted(self, config_path, capsys):
        argv = ["dispersion", "--config", config_path, "--points", "2048"]
        code, out, _ = _run(argv, capsys)
        assert code == 0
        assert len(out.splitlines()) == 1 + 2 * 2048

    def test_unknown_flag_exits_two(self, config_path):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["gvm", "--config", config_path, "--bogus"])
        assert excinfo.value.code == 2

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["transmogrify"])
        assert excinfo.value.code == 2


class TestSubcommands:
    def test_gvm_value(self, config_path, capsys):
        code, out, _ = _run(["gvm", "--config", config_path], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["lambda_p0_nm"] == pytest.approx(783.0, abs=3.0)

    def test_gvm_printed_to_solver_resolution(self, capsys):
        # The root is refined to 1e-12 m, so 1e-3 nm is the last printed digit.
        config = cli.load_config("paper40cm.json")
        code, out, _ = _run(["gvm", "--config", "paper40cm.json"], capsys)
        assert code == 0
        lam = gvm_pump_wavelength(config.fiber, peak_power=config.pump.peak_power)
        assert json.loads(out)["lambda_p0_nm"] == round(lam * 1e9, 3)

    def test_phasematch_csv_shape(self, config_path, capsys):
        code, out, _ = _run(
            ["phasematch", "--config", config_path, "--points", "5"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lambda_p_nm,lambda_s_nm,lambda_i_nm"
        assert len(lines) == 6

    def test_purity_includes_refinement_gate(self, config_path, capsys):
        code, out, _ = _run(["purity", "--config", config_path], capsys)
        assert code == 0
        payload = json.loads(out)
        assert 0.81 < payload["purity"] < 0.91
        assert payload["grid_converged"] is True
        assert len(payload["coefficients"]) == 16

    def test_purity_gate_is_relative(self, tmp_path, capsys):
        # At 100 m with a 787 nm / 7.5 nm pump the 256^2 purity, 0.009997, is
        # 8.5% off the refined 0.009216, though the drift (7.8e-4) is below 1e-3.
        document = _paper_document()
        document["pump"].update(center_wavelength_nm=787.0, filter_width_nm=7.5)
        argv = ["purity", "--config", _write_config(tmp_path, document), "--length-m", "100"]
        code, out, _ = _run(argv, capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["purity_drift"] < 1e-3
        assert payload["grid_converged"] is False

    def test_dispersion_table(self, config_path, capsys):
        code, out, _ = _run(
            ["dispersion", "--config", config_path, "--points", "7"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "wavelength_nm,axis,n_eff,k,dk_domega,d2k_domega2"
        assert len(lines) == 1 + 2 * 7  # both axes
        assert any(",fast," in line for line in lines[1:])
        assert any(",slow," in line for line in lines[1:])

    def test_hom_sim_fit_round_trip(self, config_path, tmp_path, capsys):
        data = tmp_path / "hom.csv"
        code, _, _ = _run(
            [
                "hom-sim",
                "--config",
                config_path,
                "--p",
                "0.85",
                "--chi",
                "0.05",
                "--out",
                str(data),
            ],
            capsys,
        )
        assert code == 0
        code, out, _ = _run(
            [
                "hom-fit",
                "--config",
                config_path,
                "--data",
                str(data),
                "--rep-rate",
                "76e6",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["p"] == pytest.approx(0.85, abs=4 * payload["sigma_p"])

    def test_hom_noiseless_round_trip_recovers_truth(self, config_path, tmp_path, capsys):
        # Exact means: what hom-sim writes and hom-fit reads must agree column
        # for column to recover (p, chi) far inside the shot-noise sigma.
        data = tmp_path / "hom.csv"
        argv = ["hom-sim", "--config", config_path, "--p", "0.86", "--chi", "0.07"]
        code, _, _ = _run([*argv, "--noiseless", "--out", str(data)], capsys)
        assert code == 0
        argv = ["hom-fit", "--config", config_path, "--data", str(data), "--rep-rate", "76e6"]
        code, out, _ = _run(argv, capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["p"] == pytest.approx(0.86, abs=1e-6)
        assert payload["chi"] == pytest.approx(0.07, abs=1e-6)

    def test_hom_sim_writes_each_field_under_its_header(self, config_path, capsys):
        # Noisy counts make the four two-fold columns differ, so a swapped
        # pair shows here; a round trip through one table cannot see it.
        code, out, _ = _run(["hom-sim", "--config", config_path, "--p", "0.86"], capsys)
        assert code == 0
        header, *rows = out.splitlines()
        written = dict(zip(header.split(","), np.array([r.split(",") for r in rows], float).T))
        data = simulate_counts(
            HomModelParams(p=0.86),
            np.deg2rad(np.linspace(0.0, 90.0, 19)),
            two_fold_mean=1.2e6,
            duration=60.0,
            repetition_rate=76e6,
        )
        documented = {
            "theta_deg": np.rad2deg(data.theta),
            "R_ABCD": data.four_fold,
            "R_AB": data.two_fold_ab,
            "R_CD": data.two_fold_cd,
            "R_AD": data.two_fold_ad,
            "R_BC": data.two_fold_bc,
            "duration_s": data.duration,
        }
        assert list(written) == list(documented)
        for name, column in documented.items():
            np.testing.assert_allclose(written[name], column, rtol=1e-11)

    def test_hom_columns_are_the_dataset_arrays(self):
        arrays = [f.name for f in dataclasses.fields(HomDataset) if f.name != "repetition_rate"]
        assert list(cli._HOM_COLUMNS.values()) == arrays

    def test_hom_fit_pinned_chi_prints_valid_json(self, config_path, tmp_path, capsys):
        # The fit pins chi at 0, where sigma_chi is infinite: JSON has no
        # Infinity, so it prints null.
        data = tmp_path / "hom.csv"
        argv = ["hom-sim", "--config", config_path, "--p", "0.9", "--chi", "0"]
        code, _, _ = _run([*argv, "--seed", "1", "--out", str(data)], capsys)
        assert code == 0
        argv = ["hom-fit", "--config", config_path, "--data", str(data), "--rep-rate", "76e6"]
        code, out, _ = _run(argv, capsys)
        assert code == 0

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        payload = json.loads(out, parse_constant=reject)
        assert payload["chi"] == 0.0
        assert payload["sigma_chi"] is None
        assert '"chi": 0.0,' in out

    def test_figure_fig1b_has_31_rows(self, config_path, capsys):
        code, out, _ = _run(
            ["figure", "--config", config_path, "--id", "fig1b"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 32
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(765.0)

    def test_figure_fig1b_is_phasematch(self, capsys):
        # fig1b prints `phasematch` with that command's defaults, byte for byte.
        _, expected, _ = _run(["phasematch", "--config", "paper40cm.json"], capsys)
        code, out, _ = _run(["figure", "--config", "paper40cm.json", "--id", "fig1b"], capsys)
        assert code == 0
        assert out == expected

    def test_purity_scan_forty_centimeter_value(self, config_path, capsys):
        code, out, _ = _run(["purity-scan", "--config", config_path, "--lengths", "0.4"], capsys)
        assert code == 0
        header, row = out.splitlines()
        assert header == "length_m,purity"
        length, purity = map(float, row.split(","))
        assert length == 0.4
        assert 0.81 < purity < 0.91

    def test_purity_scan_lengths_echoed_in_order(self, config_path, capsys):
        argv = ["purity-scan", "--config", config_path, "--lengths", "0.4", "1.0"]
        code, out, _ = _run(argv, capsys)
        assert code == 0
        assert [float(line.split(",")[0]) for line in out.splitlines()[1:]] == [0.4, 1.0]

    def test_purity_scan_honours_both_grid_axes(self, tmp_path, capsys):
        # Each length's spectrum is built on grid.n_signal x grid.n_idler, as
        # `purity` and `jsa` build it, not on a square grid of n_signal.
        document = _paper_document()
        document["grid"] = {"n_signal": 64, "n_idler": 128}
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(document))
        argv = ["purity-scan", "--config", str(path), "--lengths", "0.4", "3.0"]
        code, out, _ = _run(argv, capsys)
        assert code == 0
        config = cli.load_config(str(path))
        expected = []
        for length in (0.4, 3.0):
            fiber = dataclasses.replace(config.fiber, length=length)
            jsa = build_jsa(config.pump, fiber, adaptive_grid(config.pump, fiber, 64, 128))
            expected.append(f"{cli._fmt(length)},{cli._fmt(schmidt_decompose(jsa).purity)}")
        assert out.splitlines()[1:] == expected

    def test_fig1a_correlation_column(self, config_path, capsys):
        with pytest.warns(UserWarning, match="no phasematch for 41 of 301"):
            code, out, _ = _run(["figure", "--config", config_path, "--id", "fig1a"], capsys)
        assert code == 0
        labels = {line.split(",")[-1] for line in out.strip().splitlines()[1:]}
        assert labels <= {"correlated", "anticorrelated"}
        assert len(labels) == 2  # both regimes occur across the tuning range

    def test_fig1a_label_flips_at_gvm_pump(self, capsys):
        # The ridge tilt changes sign where slope_s does, at the
        # group-velocity-matched pump, and nowhere else in 700-1000 nm.
        with pytest.warns(UserWarning, match="no phasematch for 41 of 301"):
            code, out, _ = _run(["figure", "--config", "paper40cm.json", "--id", "fig1a"], capsys)
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        flips = [k for k in range(len(rows) - 1) if rows[k][-1] != rows[k + 1][-1]]
        assert len(flips) == 1
        lam0 = gvm_pump_wavelength(cli.load_config("paper40cm.json").fiber) * 1e9
        assert float(rows[flips[0]][0]) < lam0 < float(rows[flips[0] + 1][0])

    def test_fig1a_without_phasematch_prints_header(self, tmp_path, capsys):
        # A 1.0 um / fill 0.3 core phasematches no pump in 700-1000 nm.
        document = json.loads(
            importlib.resources.files("sfwmkit.presets").joinpath("paper40cm.json").read_text()
        )
        axis = {"core_diameter_um": 1.0, "air_filling_fraction": 0.3}
        document["fiber"].update(fast_axis=axis, slow_axis=axis)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(document))
        with pytest.warns(UserWarning, match="no phasematch for 301 of 301"):
            code, out, _ = _run(["figure", "--config", str(path), "--id", "fig1a"], capsys)
        assert code == 0
        assert out == "lambda_p_nm,lambda_s_nm,lambda_i_nm,correlation\n"


def _fit_data(tmp_path, capsys, config="paper40cm.json"):
    """`phasematch --points 6` on `config` as a fit-fiber CSV with sigma_nm 0.05."""
    code, out, _ = _run(["phasematch", "--config", config, "--points", "6"], capsys)
    assert code == 0
    path = tmp_path / "measurements.csv"
    rows = "".join(f"{row},0.05\n" for row in out.splitlines()[1:])
    path.write_text("lambda_p_nm,lambda_s_nm,lambda_i_nm,sigma_nm\n" + rows)
    return str(path)


def _write_config(tmp_path, document):
    path = tmp_path / "fiber.json"
    path.write_text(json.dumps(document))
    return str(path)


class TestFitFiber:
    def test_round_trip_prints_the_resolved_digits(self, tmp_path, capsys):
        # least_squares stops at xtol = 1e-6, so the geometry is printed to 6
        # significant digits: the preset's 1.7507 um and 0.511 exactly, where
        # 12 digits gave 1.7506999995 and 0.510999999811.
        data = _fit_data(tmp_path, capsys)
        code, out, _ = _run(["fit-fiber", "--config", "paper40cm.json", "--data", data], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["core_diameter_um"] == 1.7507
        assert payload["air_filling_fraction"] == 0.511
        assert payload["n_penalized"] == 0
        assert 0 < payload["core_diameter_sigma_um"] < 0.01
        assert 0 < payload["air_filling_fraction_sigma"] < 0.01

    def test_without_override_exits_one(self, tmp_path, capsys):
        # The paper axes swapped and no override: `phasematch` takes dn from
        # the LP01 model of both axes, which the fit cannot, as it moves one.
        # It used to fit with dn = 0 and print an all-penalized geometry.
        document = _paper_document()
        fiber = document["fiber"]
        fiber["fast_axis"], fiber["slow_axis"] = fiber["slow_axis"], fiber["fast_axis"]
        del fiber["birefringence_override"]
        config = _write_config(tmp_path, document)
        data = _fit_data(tmp_path, capsys, config)
        code, out, err = _run(["fit-fiber", "--config", config, "--data", data], capsys)
        assert code == 1
        assert out == ""
        assert "fiber.birefringence_override" in err

    def test_all_penalized_fit_exits_one(self, tmp_path, capsys):
        # Sidebands of dn = -1.7e-5 fitted with dn = +1.7e-5: no geometry in
        # the box phasematches any measured pump.
        data = _fit_data(tmp_path, capsys)
        document = _paper_document()
        document["fiber"]["birefringence_override"] = 1.7e-5
        config = _write_config(tmp_path, document)
        code, out, err = _run(["fit-fiber", "--config", config, "--data", data], capsys)
        assert code == 1
        assert out == ""
        assert "no model phasematch at any measured pump" in err


def _readme_command_line():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]


def _schema_keys(section, prefix=""):
    """(key path, required) of every number in the parser's schema."""
    for key, entry in section.keys.items():
        if isinstance(entry, cli._Section):
            yield from _schema_keys(entry, f"{prefix}{key}.")
        else:
            yield prefix + key, entry.required


class TestReadme:
    def test_command_line_block_parses(self):
        # Every `sfwmkit ...` line of README's Command line block parses, so
        # its flags and --id choices cannot drift from the parser.
        section = _readme_command_line()
        block = section.split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines() if line.startswith("sfwmkit ")]
        assert len(lines) == 10
        parser = cli._build_parser()
        for line in lines:
            try:
                parser.parse_args(shlex.split(line)[1:])
            except SystemExit:
                pytest.fail(f"README line does not parse: {line}")

    def test_config_key_table_matches_schema(self):
        # README's key table lists every key of the parser's schema once, and
        # its "if absent" column reads `required` exactly where the schema does.
        rows = re.findall(r"^\| `([\w.]+)` \| .* \| (.*) \|$", _readme_command_line(), re.MULTILINE)
        assert len(rows) == len(dict(rows))
        assert {path: absent == "required" for path, absent in rows} == dict(_schema_keys(cli._SCHEMA))


class TestDeterminism:
    def test_byte_identical_repeat(self, config_path, capsys):
        _, first, _ = _run(["jsa", "--config", config_path], capsys)
        _, second, _ = _run(["jsa", "--config", config_path], capsys)
        assert first == second

    def test_twelve_significant_digits(self, config_path, capsys):
        _, out, _ = _run(["gvm", "--config", config_path], capsys)
        value = out.split(":")[1].strip().rstrip("}").strip()
        digits = value.replace(".", "").replace("-", "").lstrip("0")
        assert len(digits) <= 12

    @pytest.mark.parametrize(
        "command",
        [["purity"], ["purity-scan", "--lengths", "0.4", "1.0"]],
        ids=["purity", "purity-scan"],
    )
    def test_purity_identical_across_blas_threads(self, command):
        # The purity drift is a difference of two ~0.887 purities; it is
        # printed only to their 1e-12 resolution, so the last-bit rounding
        # of a threaded Gram product or eigensolver does not show.
        src = str(Path(cli.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            argv = [sys.executable, "-m", "sfwmkit.cli", *command, "--config", "paper40cm.json"]
            run = subprocess.run(argv, env=env, capture_output=True, check=True)
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]
        if command == ["purity"]:
            assert json.loads(outputs[0])["purity_drift"] > 0

    @pytest.mark.parametrize(
        "command",
        [
            ["dispersion", "--points", "5"],
            ["phasematch", "--points", "5"],
            ["gvm"],
            ["hom-sim", "--p", "0.86", "--chi", "0.07"],
            ["figure", "--id", "fig1b"],
            ["purity-scan", "--lengths", "0.4"],
        ],
    )
    def test_out_file_holds_the_stdout_bytes(self, config_path, tmp_path, capsys, command):
        _, printed, _ = _run([*command, "--config", config_path], capsys)
        out = tmp_path / "out.txt"
        code, rest, _ = _run([*command, "--config", config_path, "--out", str(out)], capsys)
        assert code == 0
        assert rest == ""
        assert out.read_bytes() == printed.encode()
