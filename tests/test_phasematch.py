import dataclasses

import numpy as np
import pytest

import scan_reference
from sfwmkit import material_optics as mo
from sfwmkit import phasematch as pm
from sfwmkit.constants import C_LIGHT
from sfwmkit.dispersion import (
    Axis,
    DispersionProfile,
    axis_profile,
    birefringence,
    inverse_group_velocity,
)
from sfwmkit.errors import ConfigError, NoGroupVelocityMatchError, NoPhasematchError
from sfwmkit.material_optics import FiberAxisGeometry, FiberSpec
from slope_reference import central_slopes


def _solve_or_message(pumps, fiber, profile=None):
    """Library points per pump, with the scalar call's message where there is none."""
    out = pm.solve_phasematch(pumps, fiber, profile=profile)
    for k, point in enumerate(out):
        if point is None:
            with pytest.raises(NoPhasematchError) as failure:
                pm.solve_phasematch(float(pumps[k]), fiber, profile=profile)
            out[k] = str(failure.value)
    return out


class TestPumpSpec:
    def test_negative_filter_rejected(self):
        with pytest.raises(ConfigError):
            pm.PumpSpec(783e-9, 20e-9, filter_width=-1e-9)

    def test_peak_power_default_zero(self):
        assert pm.PumpSpec(783e-9, 20e-9, 8e-9).peak_power == 0.0

    def test_zero_peak_power_accepted(self):
        assert pm.PumpSpec(783e-9, 20e-9, 8e-9, peak_power=0.0).peak_power == 0.0

    def test_negative_peak_power_rejected(self):
        with pytest.raises(ConfigError, match="peak_power must be >= 0"):
            pm.PumpSpec(783e-9, 20e-9, 8e-9, peak_power=-1.0)

    def test_filter_width_has_no_default(self):
        with pytest.raises(TypeError, match="filter_width"):
            pm.PumpSpec(783e-9, 20e-9)

    @pytest.mark.parametrize(
        "field", ["center_wavelength", "gaussian_fwhm", "filter_width", "peak_power"]
    )
    def test_none_rejected(self, field):
        values = {
            "center_wavelength": 783e-9,
            "gaussian_fwhm": 20e-9,
            "filter_width": 8e-9,
            field: None,
        }
        with pytest.raises(ConfigError, match=f"^{field} must be finite, got None$"):
            pm.PumpSpec(**values)


class TestDeltaK:
    def test_degenerate_zero_without_birefringence(self, fast_geometry):
        fiber = FiberSpec(fast_geometry, fast_geometry, 99.0, 0.4, 0.0)
        om_p = 2 * np.pi * C_LIGHT / 785e-9
        assert pm.delta_k(om_p, om_p, om_p, fiber) == 0.0

    def test_degenerate_reduces_to_walkoff_term(self, fiber_40cm):
        om_p = 2 * np.pi * C_LIGHT / 785e-9
        expected = 2 * (-1.7e-5) * om_p / C_LIGHT
        # Tolerance reflects cancellation against ~1e7 rad/m wavevectors.
        assert pm.delta_k(om_p, om_p, om_p, fiber_40cm) == pytest.approx(
            expected, rel=1e-9
        )

    def test_peak_power_additivity_exact(self, fiber_40cm):
        om_p = 2 * np.pi * C_LIGHT / 785e-9
        om_s = 2 * np.pi * C_LIGHT / 726e-9
        om_i = 2 * om_p - om_s
        d0 = pm.delta_k(om_p, om_s, om_i, fiber_40cm, peak_power=0.0)
        d1 = pm.delta_k(om_p, om_s, om_i, fiber_40cm, peak_power=150.0)
        gamma_per_m = fiber_40cm.gamma * 1e-3
        assert d1 - d0 == pytest.approx((2.0 / 3.0) * gamma_per_m * 150.0, rel=1e-9)

    def test_array_broadcast(self, fiber_40cm):
        om_p = 2 * np.pi * C_LIGHT / 785e-9
        om_s = 2 * np.pi * C_LIGHT / np.array([720e-9, 726e-9, 730e-9])
        values = pm.delta_k(om_p, om_s, 2 * om_p - om_s, fiber_40cm)
        assert values.shape == (3,)
        for k, os_ in enumerate(om_s):
            assert values[k] == pm.delta_k(om_p, os_, 2 * om_p - os_, fiber_40cm)

    @pytest.mark.parametrize("name", ["fiber_40cm", "fiber_no_override"])
    def test_array_of_pumps_matches_scalar_calls(self, name, request):
        # dn is taken at each element's own pump, so no element depends on
        # the other pumps of the call.
        fiber = request.getfixturevalue(name)
        om_p = 2 * np.pi * C_LIGHT / np.array([770e-9, 785e-9, 800e-9])
        om_s = 2 * np.pi * C_LIGHT / np.array([720e-9, 726e-9, 730e-9])
        values = pm.delta_k(om_p, om_s, 2 * om_p - om_s, fiber)
        for k in range(3):
            assert values[k] == pm.delta_k(om_p[k], om_s[k], 2 * om_p[k] - om_s[k], fiber)


class TestSolvePhasematch:
    def test_paper_operating_point(self, fiber_40cm):
        point = pm.solve_phasematch(785e-9, fiber_40cm)
        assert point.signal_wavelength == pytest.approx(720e-9, abs=15e-9)
        assert point.idler_wavelength == pytest.approx(860e-9, abs=15e-9)

    def test_residual_below_tolerance(self, fiber_40cm):
        point = pm.solve_phasematch(785e-9, fiber_40cm)
        om_p = 2 * np.pi * C_LIGHT / point.pump_wavelength
        om_s = 2 * np.pi * C_LIGHT / point.signal_wavelength
        om_i = 2 * np.pi * C_LIGHT / point.idler_wavelength
        assert abs(pm.delta_k(om_p, om_s, om_i, fiber_40cm)) < 1e-3

    def test_energy_conservation(self, fiber_40cm):
        point = pm.solve_phasematch(785e-9, fiber_40cm)
        om_p = 2 * np.pi * C_LIGHT / point.pump_wavelength
        om_s = 2 * np.pi * C_LIGHT / point.signal_wavelength
        om_i = 2 * np.pi * C_LIGHT / point.idler_wavelength
        assert om_s + om_i == pytest.approx(2 * om_p, rel=1e-12)

    def test_sidebands_outside_guard_band(self, fiber_40cm):
        point = pm.solve_phasematch(785e-9, fiber_40cm)
        om_p = 2 * np.pi * C_LIGHT / point.pump_wavelength
        om_s = 2 * np.pi * C_LIGHT / point.signal_wavelength
        assert om_s - om_p > 2 * np.pi * 2e12

    def test_matches_brute_force_scan(self, fiber_40cm):
        # Independent coarse search for the |dk| minimum near the solution.
        point = pm.solve_phasematch(785e-9, fiber_40cm)
        om_p = 2 * np.pi * C_LIGHT / 785e-9
        om_s = np.linspace(om_p + 2 * np.pi * 3e12, om_p + 2 * np.pi * 130e12, 40001)
        values = np.abs(pm.delta_k(om_p, om_s, 2 * om_p - om_s, fiber_40cm))
        best = om_s[np.argmin(values)]
        assert 2 * np.pi * C_LIGHT / best == pytest.approx(
            point.signal_wavelength, abs=0.01e-9
        )

    def test_no_solution_raises(self, fiber_40cm):
        # Blue of the phasematched region no sideband pair exists.
        with pytest.raises(NoPhasematchError):
            pm.solve_phasematch(650e-9, fiber_40cm)
        # A NaN pump has no search window: it fails `hi > lo` and `hi <= lo`.
        with pytest.raises(NoPhasematchError, match="empty signal search window"):
            pm.solve_phasematch(float("nan"), fiber_40cm)

    def test_array_matches_scalar_calls(self, fiber_40cm):
        pumps = np.linspace(765e-9, 795e-9, 31)
        points = pm.solve_phasematch(pumps, fiber_40cm)
        assert len(points) == 31
        for k, lam_p in enumerate(pumps):
            assert points[k] == pm.solve_phasematch(float(lam_p), fiber_40cm)

    def test_more_than_one_dimension_rejected(self, fiber_40cm):
        with pytest.raises(ValueError, match=r"shape \(1, 2\)"):
            pm.solve_phasematch(np.array([[780e-9, 785e-9]]), fiber_40cm)

    @pytest.mark.filterwarnings("error")
    def test_zero_pump_has_empty_window(self, fiber_40cm):
        # 2 pi c / lambda is inf at 0 m and overflows to inf at 1e-300 m,
        # with no warning (the mark makes one an error).
        for pump in (0.0, 1e-300):
            with pytest.raises(
                NoPhasematchError, match="^empty signal search window for pump 0.00 nm$"
            ):
                pm.solve_phasematch(pump, fiber_40cm)

    def test_array_marks_pumps_without_solution(self, fiber_40cm):
        points = pm.solve_phasematch(np.array([650e-9, 785e-9, 300e-9, np.nan]), fiber_40cm)
        assert points[0] is None and points[2] is None and points[3] is None
        assert points[1] == pm.solve_phasematch(785e-9, fiber_40cm)


class TestScanMatchesReference:
    """The outward block scan against the one-shot scan of `scan_reference`."""

    FIG1A_PUMPS = np.linspace(700e-9, 1000e-9, 301)
    CURVE_PUMPS = np.linspace(765e-9, 795e-9, 31)

    def test_fig1a_pumps(self, fiber_40cm):
        expected = scan_reference.solve(self.FIG1A_PUMPS, fiber_40cm)
        assert sum(isinstance(e, str) for e in expected) == 41
        assert _solve_or_message(self.FIG1A_PUMPS, fiber_40cm) == expected

    @pytest.mark.parametrize("core", [1.70e-6, 1.80e-6])
    @pytest.mark.parametrize("fill", [0.49, 0.53])
    def test_design_box_corner(self, core, fill):
        # The corners of the benchmark's design-sweep box, slow axis at the
        # paper's offset from the fast one.
        fast = FiberAxisGeometry(core, fill)
        slow = FiberAxisGeometry(core - 1.5e-9, fill - 0.007)
        fiber = FiberSpec(fast, slow, 99.0, 0.4, -1.7e-5)
        expected = scan_reference.solve(self.CURVE_PUMPS, fiber)
        assert _solve_or_message(self.CURVE_PUMPS, fiber) == expected

    def test_fit_profile(self, fiber_40cm):
        profile = DispersionProfile.from_geometry(fiber_40cm.fast_axis, n_points=192)
        expected = scan_reference.solve(self.CURVE_PUMPS, fiber_40cm, profile=profile)
        assert _solve_or_message(self.CURVE_PUMPS, fiber_40cm, profile) == expected

    def test_no_override(self, fiber_no_override):
        pumps = np.linspace(700e-9, 1000e-9, 61)
        expected = scan_reference.solve(pumps, fiber_no_override)
        assert _solve_or_message(pumps, fiber_no_override) == expected

    @pytest.mark.parametrize("block", [2, 3, 2000])
    def test_block_size_does_not_move_points(self, block, fiber_40cm, monkeypatch):
        pumps = np.concatenate([[650e-9, 700e-9], self.CURVE_PUMPS, [950e-9]])
        expected = pm.solve_phasematch(pumps, fiber_40cm)
        monkeypatch.setattr(pm, "_SCAN_BLOCK", block)
        assert pm.solve_phasematch(pumps, fiber_40cm) == expected

    def test_scan_stops_at_first_sign_change(self, fiber_40cm, monkeypatch):
        # 2000 samples a pump in the one-shot scan: 62,000 for this curve,
        # 32,000 for the GVM search's 16 pumps, each before refinement.
        pm.solve_phasematch(785e-9, fiber_40cm)  # build the profile uncounted
        samples = [0]
        delta_k = pm.delta_k

        def counted(omega_p, omega_s, omega_i, *args):
            samples[0] += np.broadcast(omega_p, omega_s, omega_i).size
            return delta_k(omega_p, omega_s, omega_i, *args)

        monkeypatch.setattr(pm, "delta_k", counted)
        pm.solve_phasematch(self.CURVE_PUMPS, fiber_40cm)
        assert samples[0] <= 20_000
        samples[0] = 0
        pm.gvm_pump_wavelength(fiber_40cm)
        assert samples[0] <= 12_000


class TestPhasematchCurve:
    def test_paper_window(self, fiber_40cm):
        points = pm.phasematch_curve((765e-9, 795e-9), 31, fiber_40cm)
        assert len(points) == 31
        pumps = [p.pump_wavelength for p in points]
        assert pumps[0] == pytest.approx(765e-9, rel=1e-12)
        assert pumps[-1] == pytest.approx(795e-9, rel=1e-12)

    def test_flat_idler(self, fiber_40cm):
        points = pm.phasematch_curve((765e-9, 795e-9), 31, fiber_40cm)
        idlers = np.array([p.idler_wavelength for p in points])
        assert (idlers.max() - idlers.min()) < 10e-9

    def test_failures_warn_and_omit(self, fiber_40cm):
        with pytest.warns(UserWarning, match="no phasematch"):
            points = pm.phasematch_curve((640e-9, 760e-9), 5, fiber_40cm)
        assert len(points) < 5

    def test_full_tuning_range_skips(self, fiber_40cm):
        # The figure 1a range: the blue end has no nondegenerate sideband.
        with pytest.warns(UserWarning, match="41 of 301 .*first skipped: 700.00 nm"):
            points = pm.phasematch_curve((700e-9, 1000e-9), 301, fiber_40cm)
        assert len(points) == 260


class TestGvmPumpWavelength:
    def test_paper_value(self, fiber_40cm):
        lam = pm.gvm_pump_wavelength(fiber_40cm)
        assert lam == pytest.approx(783e-9, abs=3e-9)

    def test_idler_stationary_at_root(self, fiber_40cm):
        # The defining property: d(lambda_i)/d(lambda_p) ~ 0 at the matched pump.
        lam0 = pm.gvm_pump_wavelength(fiber_40cm)
        h = 0.5e-9
        up = pm.solve_phasematch(lam0 + h, fiber_40cm).idler_wavelength
        down = pm.solve_phasematch(lam0 - h, fiber_40cm).idler_wavelength
        slope = (up - down) / (2 * h)
        assert abs(slope) < 0.05

    def test_empty_range_raises(self, fiber_40cm):
        with pytest.raises(NoGroupVelocityMatchError):
            pm.gvm_pump_wavelength(fiber_40cm, search_range=(795e-9, 799e-9))

    def test_walkoff_uses_birefringence_at_root(self, fiber_40cm):
        # Without an override dn varies with the pump (-4.9e-6 at 770 nm,
        # -7.9e-6 at 800 nm on the swapped paper axes); the mismatch must
        # vanish with dn taken at the returned pump, not at mid-range.
        fiber = FiberSpec(fiber_40cm.slow_axis, fiber_40cm.fast_axis, 99.0, 0.4)
        profile = axis_profile(fiber, Axis.FAST)

        def mismatch(lam_p):
            point = pm.solve_phasematch(lam_p, fiber)
            omega_p = 2 * np.pi * C_LIGHT / lam_p
            omega_s = 2 * np.pi * C_LIGHT / point.signal_wavelength
            return (
                inverse_group_velocity(omega_s, profile)
                - inverse_group_velocity(omega_p, profile)
                - birefringence(lam_p, fiber) / C_LIGHT
            )

        lam0 = pm.gvm_pump_wavelength(fiber)
        h = 0.1e-9
        slope = (mismatch(lam0 + h) - mismatch(lam0 - h)) / (2 * h)
        # Within 1e-11 m of the root; dn at mid-range put it 1.4e-10 m off.
        assert abs(mismatch(lam0) / slope) < 1e-11

    def test_root_next_to_scan_pump(self):
        # This geometry's GVM pump lies 2.4e-13 m below the 786.67 nm scan
        # pump, so the refined root is that bracket end.
        fast = FiberAxisGeometry(1.7724903061746749e-06, 0.4993156482555071)
        slow = FiberAxisGeometry(1.7710259182503595e-06, 0.49216110945906605)
        fiber = FiberSpec(fast, slow, 99.0, 0.4, -1.607951856686876e-05)
        lam0 = pm.gvm_pump_wavelength(fiber, search_range=(760e-9, 810e-9))
        assert lam0 == pytest.approx(786.6667e-9, abs=1e-13)

    def test_default_range_holds_design_box_corner(self):
        # At core 1.70 um and fill 0.53 the GVM pump lies at 768.07 nm, below
        # the 770 nm end of the old default range.
        geometry = FiberAxisGeometry(1.70e-6, 0.53)
        fiber = FiberSpec(geometry, geometry, 99.0, 0.4, -1.7e-5)
        assert pm.gvm_pump_wavelength(fiber) == pytest.approx(768.07e-9, abs=0.01e-9)

    def test_bracket_ends_not_solved_again(self, fiber_40cm, monkeypatch):
        # The root takes slope_s at its bracket ends from the 16-pump scan;
        # solving those two pumps again gives the same root.
        solve = pm.solve_phasematch
        calls = []
        monkeypatch.setattr(
            pm, "solve_phasematch", lambda *args, **kw: calls.append(1) or solve(*args, **kw)
        )
        root = pm.gvm_pump_wavelength(fiber_40cm)
        reusing = len(calls)
        monkeypatch.setattr(
            pm, "chandrupatla", lambda *args, ends=None, **kw: mo.chandrupatla(*args, **kw)
        )
        calls.clear()
        assert pm.gvm_pump_wavelength(fiber_40cm) == root
        assert len(calls) == reusing + 2

    def test_peak_power_shifts_root(self, fiber_40cm):
        base = pm.gvm_pump_wavelength(fiber_40cm)
        shifted = pm.gvm_pump_wavelength(fiber_40cm, peak_power=500.0)
        assert shifted != base


class TestRidgeSlopes:
    @pytest.mark.parametrize("name", ["fiber_40cm", "fiber_no_override"])
    def test_matches_central_difference(self, name, request):
        fiber = request.getfixturevalue(name)
        points = pm.phasematch_curve((770e-9, 800e-9), 7, fiber)
        omega_p, omega_s, omega_i, slope_s, slope_i = pm.ridge_slopes(points, fiber)
        assert np.allclose(omega_s + omega_i, 2.0 * omega_p, rtol=1e-15, atol=0.0)
        numeric_s, numeric_i = central_slopes(omega_s, omega_i, fiber)
        assert np.abs(slope_s - numeric_s).max() <= 1e-5 * np.abs(numeric_s).max()
        assert np.abs(slope_i - numeric_i).max() <= 1e-5 * np.abs(numeric_i).max()

    def test_signal_slope_changes_sign_at_gvm_pump(self, fiber_40cm):
        lam0 = pm.gvm_pump_wavelength(fiber_40cm)
        points = pm.solve_phasematch(lam0 + np.array([-1e-11, 1e-11]), fiber_40cm)
        *_, slope_s, _ = pm.ridge_slopes(points, fiber_40cm)
        assert slope_s[0] * slope_s[1] < 0

    @pytest.mark.parametrize("name", ["fiber_40cm", "fiber_no_override"])
    def test_none_gives_nan_row(self, name, request):
        # The solver's list as it comes: a pump without a phasematch is a NaN
        # row, and every other row is that of the list without it, bit for bit.
        fiber = request.getfixturevalue(name)
        points = pm.solve_phasematch(np.array([720e-9, 775e-9, 300e-9, 790e-9]), fiber)
        assert [point is None for point in points] == [True, False, True, False]
        rows = pm.ridge_slopes(points, fiber)
        kept = pm.ridge_slopes([point for point in points if point is not None], fiber)
        for row, expected in zip(rows, kept):
            assert np.isnan(row[[0, 2]]).all()
            assert np.array_equal(row[[1, 3]], expected)

    def test_empty_list_gives_empty_arrays(self, fiber_40cm):
        assert all(array.shape == (0,) for array in pm.ridge_slopes([], fiber_40cm))


class TestPhasematchPoint:
    def test_energy_violation_rejected(self):
        with pytest.raises(ValueError):
            pm.PhasematchPoint(785e-9, 726e-9, 900e-9)

    def test_ordering_enforced(self):
        om_p = 2 * np.pi * C_LIGHT / 785e-9
        om_s = 2 * np.pi * C_LIGHT / 790e-9  # signal redder than pump: invalid
        om_i = 2 * om_p - om_s
        with pytest.raises(ValueError):
            pm.PhasematchPoint(
                785e-9, 2 * np.pi * C_LIGHT / om_s, 2 * np.pi * C_LIGHT / om_i
            )
