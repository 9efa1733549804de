import dataclasses
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sfwmkit import fiber_fit as ff
from sfwmkit.dispersion import DispersionProfile, zero_gvd_wavelengths
from sfwmkit.errors import ConfigError
from sfwmkit.material_optics import FiberAxisGeometry, FiberSpec
from sfwmkit.phasematch import solve_phasematch

DN = -1.7e-5


def _synthetic_measurements(geometry, pumps, sigma=0.1e-9, noise=None, rng=None):
    fiber = FiberSpec(geometry, geometry, 0.0, 1.0, DN)
    rows = []
    for lam_p in pumps:
        point = solve_phasematch(float(lam_p), fiber)
        lam_s, lam_i = point.signal_wavelength, point.idler_wavelength
        if noise:
            lam_s += rng.normal(0.0, noise)
            lam_i += rng.normal(0.0, noise)
        rows.append(ff.PhasematchMeasurement(float(lam_p), lam_s, lam_i, sigma))
    return rows


PUMPS = np.linspace(770e-9, 795e-9, 6)


class TestLoadMeasurements:
    def test_round_trip_two_rows(self, tmp_path):
        path = tmp_path / "meas.csv"
        path.write_text(
            "lambda_p_nm,lambda_s_nm,lambda_i_nm,sigma_nm\n"
            "785.0,726.9,853.2,0.1\n"
            "780.0,,855.0,0.2\n"
        )
        rows = ff.load_measurements(path)
        assert len(rows) == 2
        assert rows[0].pump_wavelength == pytest.approx(785e-9)
        assert rows[1].signal_wavelength is None
        assert rows[1].idler_wavelength == pytest.approx(855e-9)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "meas.csv"
        path.write_text("pump,signal,idler,err\n785,726,853,0.1\n")
        with pytest.raises(ConfigError, match=":1:"):
            ff.load_measurements(path)

    def test_garbage_cell_names_line(self, tmp_path):
        path = tmp_path / "meas.csv"
        path.write_text(
            "lambda_p_nm,lambda_s_nm,lambda_i_nm,sigma_nm\n"
            "785.0,726.9,853.2,0.1\n"
            "780.0,oops,855.0,0.2\n"
        )
        with pytest.raises(ConfigError, match=":3:"):
            ff.load_measurements(path)

    def test_both_sidebands_missing(self, tmp_path):
        path = tmp_path / "meas.csv"
        path.write_text(
            "lambda_p_nm,lambda_s_nm,lambda_i_nm,sigma_nm\n785.0,,,0.1\n"
        )
        with pytest.raises(ConfigError, match=":2:"):
            ff.load_measurements(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "meas.csv"
        path.write_text("")
        with pytest.raises(ConfigError):
            ff.load_measurements(path)

    @pytest.mark.parametrize(
        "row, column, cell",
        [
            ("785.0,nan,853.2,0.1", "lambda_s_nm", "nan"),
            ("785.0,726.9,inf,0.1", "lambda_i_nm", "inf"),
            ("-inf,726.9,853.2,0.1", "lambda_p_nm", "-inf"),
            ("785.0,726.9,853.2,NaN", "sigma_nm", "NaN"),
        ],
    )
    def test_non_finite_cell_names_line_and_column(self, tmp_path, row, column, cell):
        path = tmp_path / "meas.csv"
        path.write_text(f"lambda_p_nm,lambda_s_nm,lambda_i_nm,sigma_nm\n785.0,726.9,853.2,0.1\n{row}\n")
        message = f"{path}:3: {column} must be a finite number, got '{cell}'"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ff.load_measurements(path)

    def test_non_positive_cell_names_line_and_field(self, tmp_path):
        path = tmp_path / "meas.csv"
        path.write_text("lambda_p_nm,lambda_s_nm,lambda_i_nm,sigma_nm\n785.0,726.9,853.2,-0.1\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:2: sigma must be finite and > 0"):
            ff.load_measurements(path)

    def test_non_finite_cell_in_hom_counts(self, tmp_path):
        # The header hom-sim writes and hom-fit reads.
        header = ("theta_deg", "R_ABCD", "R_AB", "R_CD", "R_AD", "R_BC", "duration_s")
        path = tmp_path / "hom.csv"
        path.write_text(",".join(header) + "\n0,10,1e6,1e6,1e6,1e6,60\n\n45,12,nan,1e6,1e6,1e6,60\n")
        message = f"{path}:4: R_AB must be a finite number, got 'nan'"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            list(ff.read_csv(path, header))

    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "meas.csv"
        path.write_text(
            "lambda_p_nm,lambda_s_nm,lambda_i_nm,sigma_nm\n785.0,726.9,853.2,0.1\n780.0,855.0,0.2\n"
        )
        message = f"{path}:3: expected 4 columns, got 3"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ff.load_measurements(path)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "meas.csv"
        path.write_text("lambda_p_nm,lambda_s_nm,lambda_i_nm,sigma_nm\n\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: no data rows$"):
            ff.load_measurements(path)


class TestPhasematchMeasurement:
    @pytest.mark.parametrize(
        "values, field",
        [
            ((np.nan, 727e-9, 853e-9, 1e-10), "pump_wavelength"),
            ((None, 727e-9, 853e-9, 1e-10), "pump_wavelength"),
            ((785e-9, np.inf, 853e-9, 1e-10), "signal_wavelength"),
            ((785e-9, 727e-9, -np.inf, 1e-10), "idler_wavelength"),
            ((785e-9, None, 0.0, 1e-10), "idler_wavelength"),
            ((785e-9, 727e-9, 853e-9, np.nan), "sigma"),
            ((785e-9, None, 853e-9, -1e-10), "sigma"),
        ],
    )
    def test_bad_value_rejected_with_field(self, values, field):
        with pytest.raises(ValueError, match=f"^{field} must be finite and > 0, got"):
            ff.PhasematchMeasurement(*values)


class TestFitGeometry:
    def test_zero_noise_round_trip(self, fast_geometry):
        rows = _synthetic_measurements(fast_geometry, PUMPS)
        result = ff.fit_geometry(rows, birefringence=DN)
        assert result.geometry.core_diameter == pytest.approx(
            fast_geometry.core_diameter, abs=1e-10
        )
        assert result.geometry.air_filling_fraction == pytest.approx(
            fast_geometry.air_filling_fraction, abs=1e-3
        )
        assert result.n_penalized == 0
        assert result.residual_rms < 1e-3

    def test_row_order_invariance(self, fast_geometry):
        rows = _synthetic_measurements(fast_geometry, PUMPS)
        forward = ff.fit_geometry(rows, n_starts=1, birefringence=DN)
        backward = ff.fit_geometry(rows[::-1], n_starts=1, birefringence=DN)
        assert forward.geometry.core_diameter == pytest.approx(
            backward.geometry.core_diameter, rel=1e-9
        )

    def test_noisy_fit_reports_sane_uncertainties(self, fast_geometry, rng):
        rows = _synthetic_measurements(
            fast_geometry, PUMPS, sigma=0.05e-9, noise=0.05e-9, rng=rng
        )
        result = ff.fit_geometry(rows, n_starts=1, birefringence=DN)
        assert abs(
            result.geometry.core_diameter - fast_geometry.core_diameter
        ) < 5 * result.core_diameter_sigma + 1e-12
        assert result.core_diameter_sigma > 0
        assert result.filling_fraction_sigma > 0

    def test_profile_value_error_propagates(self, fast_geometry, monkeypatch):
        # Inside the fit box no input check of the geometry or the profile
        # can fail, so a ValueError there is a bug, not a penalty.
        rows = _synthetic_measurements(fast_geometry, PUMPS[:2])

        def broken(*args, **kwargs):
            raise ValueError("bug in the profile")

        monkeypatch.setattr(ff.DispersionProfile, "from_geometry", broken)
        with pytest.raises(ValueError, match="bug in the profile"):
            ff.fit_geometry(rows, n_starts=1, birefringence=DN)

    @pytest.mark.parametrize("n_starts", [0, -3, 6, 7, 2.0, True, "2"])
    def test_n_starts_outside_range_rejected(self, fast_geometry, n_starts):
        rows = _synthetic_measurements(fast_geometry, PUMPS[:2])
        with pytest.raises(ValueError, match=r"1\.\.5"):
            ff.fit_geometry(rows, n_starts=n_starts, birefringence=DN)

    def test_reports_starts_run(self, fast_geometry, monkeypatch):
        rows = _synthetic_measurements(fast_geometry, PUMPS[:3])
        starts = []
        least_squares = ff.least_squares

        def counted(*args, **kwargs):
            starts.append(kwargs["x0"])
            return least_squares(*args, **kwargs)

        monkeypatch.setattr(ff, "least_squares", counted)
        result = ff.fit_geometry(rows, n_starts=3, birefringence=DN)
        assert result.n_starts == len(starts) == 3

    def test_one_profile_per_accepted_step(self, fast_geometry, monkeypatch):
        # The residual and the Jacobian at one point share one profile
        # build; with a differenced Jacobian this fit took about 21.
        rows = _synthetic_measurements(fast_geometry, PUMPS)
        builds = []
        from_geometry = DispersionProfile.from_geometry

        def counted(geometry, **kwargs):
            builds.append(geometry)
            return from_geometry(geometry, **kwargs)

        monkeypatch.setattr(ff.DispersionProfile, "from_geometry", counted)
        guess = FiberAxisGeometry(
            fast_geometry.core_diameter * 1.01, fast_geometry.air_filling_fraction * 1.01
        )
        result = ff.fit_geometry(rows, guess, n_starts=1, birefringence=DN)
        assert result.n_penalized == 0
        assert len(builds) <= 10

    def test_gradient_built_only_for_the_jacobian(self, fast_geometry, monkeypatch):
        # The index gradient (an FSM re-solve) is built when least_squares
        # asks for the Jacobian or the sigmas need it, never for a residual.
        rows = _synthetic_measurements(fast_geometry, PUMPS)
        gradients, jacobian_evals = [], []
        he11_index_gradient, least_squares = ff.he11_index_gradient, ff.least_squares

        def counted_gradient(*args):
            gradients.append(args[1])
            return he11_index_gradient(*args)

        def counted_fit(*args, **kwargs):
            fit = least_squares(*args, **kwargs)
            jacobian_evals.append(fit.njev)
            return fit

        monkeypatch.setattr(ff, "he11_index_gradient", counted_gradient)
        monkeypatch.setattr(ff, "least_squares", counted_fit)
        x = np.array([fast_geometry.core_diameter * 1e6, fast_geometry.air_filling_fraction])
        model = ff._Model(x, rows, DN)
        assert model.penalized == 0 and gradients == []
        assert model.jacobian is model.jacobian and len(gradients) == 1
        gradients.clear()
        guess = FiberAxisGeometry(
            fast_geometry.core_diameter * 1.01, fast_geometry.air_filling_fraction * 1.01
        )
        ff.fit_geometry(rows, guess, n_starts=1, birefringence=DN)
        assert len(gradients) <= jacobian_evals[0] + 1

    def test_program_errors_propagate(self, fast_geometry, monkeypatch):
        # Package errors become penalty residuals; anything else is a bug.
        rows = _synthetic_measurements(fast_geometry, PUMPS[:2])

        def broken(*args, **kwargs):
            raise TypeError("bug in the model")

        monkeypatch.setattr(ff, "solve_phasematch", broken)
        with pytest.raises(TypeError, match="bug in the model"):
            ff.fit_geometry(rows, n_starts=1, birefringence=DN)

    def test_all_penalized_fit_raises(self, fast_geometry):
        # Sidebands of dn = -1.7e-5 fitted with dn = +1.7e-5: no geometry in
        # the box phasematches any of the pumps, so every start ends on
        # penalties alone (cost 6e6 and infinite sigmas if it returned).
        rows = _synthetic_measurements(fast_geometry, np.linspace(765e-9, 795e-9, 6))
        with pytest.raises(ff.FitError, match="no model phasematch at any measured pump"):
            ff.fit_geometry(rows, birefringence=-DN)

    def test_no_converged_restart_raises(self, fast_geometry, monkeypatch):
        rows = _synthetic_measurements(fast_geometry, PUMPS[:2])
        monkeypatch.setattr(ff, "least_squares", lambda *args, **kw: SimpleNamespace(success=False))
        with pytest.raises(ff.FitError, match="^no restart converged$"):
            ff.fit_geometry(rows, n_starts=2, birefringence=DN)

    def test_empty_input_raises(self):
        with pytest.raises(ff.FitError):
            ff.fit_geometry([], birefringence=DN)

    def test_birefringence_is_required(self):
        # dn = 0 is a fiber, not a default: a caller who forgets dn gets no fit.
        with pytest.raises(TypeError, match="birefringence"):
            ff.fit_geometry([], n_starts=1)

    def test_deterministic(self, fast_geometry):
        rows = _synthetic_measurements(fast_geometry, PUMPS)
        a = ff.fit_geometry(rows, n_starts=2, birefringence=DN)
        b = ff.fit_geometry(rows, n_starts=2, birefringence=DN)
        assert a.geometry == b.geometry
        assert a.cost == b.cost


class TestJacobian:
    @staticmethod
    def _rows_near_model(x, pumps):
        """Rows whose observed sidebands lie 1e-4 off the model's at x (any pump)."""
        geometry = FiberAxisGeometry(x[0] * 1e-6, x[1])
        profile = DispersionProfile.from_geometry(geometry, n_points=192)
        fiber = FiberSpec(geometry, geometry, 0.0, 1.0, DN)
        rows = []
        for lam_p, point in zip(pumps, solve_phasematch(pumps, fiber, profile=profile)):
            lam_s, lam_i = (0.9 * lam_p, 1.1 * lam_p) if point is None else (
                point.signal_wavelength,
                point.idler_wavelength,
            )
            rows.append(
                ff.PhasematchMeasurement(lam_p, lam_s * (1 + 1e-4), lam_i * (1 - 1e-4), 0.1e-9)
            )
        return rows

    @staticmethod
    def _central_difference(x, rows):
        """Fourth-order central difference of the residuals in x at a relative step
        of 3e-5, and the set of `penalized` counts of the shifted models."""
        numeric, penalized = [], set()
        for j in range(2):
            h = np.zeros(2)
            h[j] = 3e-5 * x[j]
            shifted = [ff._Model(x + k * h, rows, DN) for k in (-2, -1, 1, 2)]
            penalized.update(model.penalized for model in shifted)
            r = [model.residuals for model in shifted]
            numeric.append((8.0 * (r[2] - r[1]) - (r[3] - r[0])) / (12.0 * h[j]))
        return np.stack(numeric, axis=1), penalized

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(core_um=st.floats(1.0, 3.0), fill=st.floats(0.3, 0.7))
    def test_matches_central_difference(self, core_um, fill):
        # Pumps 20-50 nm above the zero-GVD wavelength phasematch over most
        # of the box.  The fourth-order central difference of the residuals
        # is exact to ~1e-7 at a relative step of 3e-5, where the sidebands'
        # 1e5 rad/s solve tolerance is still far below the residual change.
        x = np.array([core_um, fill])
        zeros = zero_gvd_wavelengths(
            DispersionProfile.from_geometry(FiberAxisGeometry(core_um * 1e-6, fill), n_points=192),
            (550e-9, 1250e-9),
        )
        assume(zeros)
        rows = self._rows_near_model(x, zeros[0] + np.array([20e-9, 35e-9, 50e-9]))
        model = ff._Model(x, rows, DN)
        residuals, penalized, jac = model.residuals, model.penalized, model.jacobian
        assume(penalized < len(residuals))
        numeric, shifted_penalized = self._central_difference(x, rows)
        assume(shifted_penalized == {penalized})
        assert np.abs(jac - numeric).max() <= 1e-5 * np.abs(numeric).max()

    def test_unmatched_pump_gives_zero_row(self, fast_geometry):
        # At 700 nm the paper fiber has no phasematch: both of its residuals
        # are penalties, and a penalty does not move with the geometry.
        x = np.array([fast_geometry.core_diameter * 1e6, fast_geometry.air_filling_fraction])
        rows = self._rows_near_model(x, np.array([700e-9, 775e-9, 790e-9]))
        model = ff._Model(x, rows, DN)
        residuals, penalized, jac = model.residuals, model.penalized, model.jacobian
        assert penalized == 2
        assert np.all(residuals[:2] == ff.PENALTY_RESIDUAL)
        assert np.all(jac[:2] == 0.0)
        assert np.all(np.abs(jac[2:]) > 0.0)

    def test_no_guided_mode_penalizes_every_sideband(self, fast_geometry):
        # At a filling fraction of 0.95 the holes overlap: the geometry has no
        # profile, so every observed sideband, one-sided rows too, is a penalty.
        rows = _synthetic_measurements(fast_geometry, PUMPS[:3])
        rows[1] = dataclasses.replace(rows[1], signal_wavelength=None)
        model = ff._Model(np.array([1.0, 0.95]), rows, DN)
        assert model.profile is None
        assert model.penalized == 5
        assert np.all(model.residuals == ff.PENALTY_RESIDUAL) and len(model.residuals) == 5
        assert model.jacobian.shape == (5, 2) and np.all(model.jacobian == 0.0)

    def test_one_sided_rows(self, fast_geometry):
        # A signal-only and an idler-only row: the residuals run row by row,
        # a row's signal before its idler, and the Jacobian rows follow them.
        x = np.array([fast_geometry.core_diameter * 1e6, fast_geometry.air_filling_fraction])
        rows = self._rows_near_model(x, np.array([772e-9, 780e-9, 788e-9]))
        rows[0] = dataclasses.replace(rows[0], idler_wavelength=None)
        rows[2] = dataclasses.replace(rows[2], signal_wavelength=None)
        model = ff._Model(x, rows, DN)
        expected = [
            (getattr(point, side) - getattr(row, side)) / row.sigma
            for row, point in zip(rows, model.points)
            for side in ("signal_wavelength", "idler_wavelength")
            if getattr(row, side) is not None
        ]
        assert model.penalized == 0
        assert list(model.residuals) == expected
        # The observed signals lie above the model, the idlers below.
        assert np.sign(model.residuals).tolist() == [-1.0, -1.0, 1.0, 1.0]
        numeric, shifted_penalized = self._central_difference(x, rows)
        assert shifted_penalized == {0}
        assert np.abs(model.jacobian - numeric).max() <= 1e-5 * np.abs(numeric).max()
