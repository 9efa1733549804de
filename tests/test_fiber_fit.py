import numpy as np
import pytest

from sfwmkit import fiber_fit as ff
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

    def test_program_errors_propagate(self, fast_geometry, monkeypatch):
        # Package errors become penalty residuals; anything else is a bug.
        rows = _synthetic_measurements(fast_geometry, PUMPS[:2])

        def broken(*args, **kwargs):
            raise TypeError("bug in the model")

        monkeypatch.setattr(ff, "solve_phasematch", broken)
        with pytest.raises(TypeError, match="bug in the model"):
            ff.fit_geometry(rows, n_starts=1, birefringence=DN)

    def test_empty_input_raises(self):
        with pytest.raises(ff.FitError):
            ff.fit_geometry([])

    def test_deterministic(self, fast_geometry):
        rows = _synthetic_measurements(fast_geometry, PUMPS)
        a = ff.fit_geometry(rows, n_starts=2, birefringence=DN)
        b = ff.fit_geometry(rows, n_starts=2, birefringence=DN)
        assert a.geometry == b.geometry
        assert a.cost == b.cost
