import numpy as np
import pytest

from sfwmkit import dispersion as disp
from sfwmkit.constants import C_LIGHT
from sfwmkit.errors import DomainError
from sfwmkit.material_optics import FiberSpec


def _profile_from_k(kfunc, om_lo=1.6e15, om_hi=3.2e15, n=512):
    """Profile whose wavevector equals an analytic k(omega)."""
    omegas = np.linspace(om_lo, om_hi, n)
    n_eff = kfunc(omegas) * C_LIGHT / omegas
    return disp.DispersionProfile(axis=disp.Axis.FAST, omegas=omegas, n_eff=n_eff)


class TestConstantIndex:
    """n_eff = n0: k = n0 w / c, 1/vg = n0 / c, GVD = 0."""

    N0 = 1.45

    @pytest.fixture
    def profile(self):
        omegas = np.linspace(1.6e15, 3.2e15, 256)
        return disp.DispersionProfile(
            axis=disp.Axis.FAST, omegas=omegas, n_eff=np.full(256, self.N0)
        )

    def test_wavevector(self, profile):
        om = 2.4e15
        assert disp.wavevector(om, profile) == pytest.approx(
            self.N0 * om / C_LIGHT, rel=1e-12
        )

    def test_inverse_group_velocity(self, profile):
        assert disp.inverse_group_velocity(2.4e15, profile) == pytest.approx(
            self.N0 / C_LIGHT, rel=1e-10
        )

    def test_gvd_zero(self, profile):
        assert abs(disp.gvd(2.4e15, profile)) < 1e-32


class TestCubicWavevector:
    """k = a + b w + c w^2 + d w^3 has analytic derivatives and GVD zero."""

    # Chosen so the GVD (2c + 6dw, zero near 1.93e15 rad/s) has a realistic
    # ~1e-26 s^2/m scale, far above spline interpolation noise.
    A, B = 2.0e5, 4.8e-9
    C2, D = 5.79e-27, -1.0e-42

    def k(self, om):
        return self.A + self.B * om + self.C2 * om**2 + self.D * om**3

    @pytest.fixture
    def profile(self):
        return _profile_from_k(self.k)

    def test_first_derivative(self, profile):
        om = 2.3e15
        expected = self.B + 2 * self.C2 * om + 3 * self.D * om**2
        assert disp.inverse_group_velocity(om, profile) == pytest.approx(
            expected, rel=1e-10
        )

    def test_second_derivative(self, profile):
        om = 2.3e15
        expected = 2 * self.C2 + 6 * self.D * om
        assert disp.gvd(om, profile) == pytest.approx(expected, rel=1e-8)

    def test_zero_gvd_analytic_root(self, profile):
        om_star = -self.C2 / (3 * self.D)  # root of 2c + 6dw
        lam_star = 2 * np.pi * C_LIGHT / om_star
        roots = disp.zero_gvd_wavelengths(profile, (0.6e-6, 1.15e-6))
        assert len(roots) == 1
        assert roots[0] == pytest.approx(lam_star, rel=1e-9)


class TestDerivativeConsistency:
    def test_igv_matches_fd_of_k(self, fiber_40cm):
        profile = disp.axis_profile(fiber_40cm, disp.Axis.FAST)
        om = np.linspace(profile.omegas[40], profile.omegas[-41], 7)
        h = 0.5 * (profile.omegas[1] - profile.omegas[0])
        fd = (disp.wavevector(om + h, profile) - disp.wavevector(om - h, profile)) / (
            2 * h
        )
        igv = disp.inverse_group_velocity(om, profile)
        assert np.abs(igv / fd - 1).max() < 1e-7

    def test_gvd_matches_fd_of_igv(self, fiber_40cm):
        profile = disp.axis_profile(fiber_40cm, disp.Axis.FAST)
        om = np.linspace(profile.omegas[40], profile.omegas[-41], 7)
        h = profile.omegas[1] - profile.omegas[0]
        fd = (
            disp.inverse_group_velocity(om + h, profile)
            - disp.inverse_group_velocity(om - h, profile)
        ) / (2 * h)
        # GVD crosses zero in-band; compare on an absolute scale instead.
        scale = np.abs(fd).max()
        assert np.abs(disp.gvd(om, profile) - fd).max() < 1e-5 * scale


class TestPaperFiberProfile:
    def test_zero_gvd_in_window(self, fiber_40cm):
        profile = disp.axis_profile(fiber_40cm, disp.Axis.FAST)
        roots = disp.zero_gvd_wavelengths(profile, (560e-9, 1240e-9))
        short = [r for r in roots if r < 1e-6]
        assert len(short) == 1
        assert 725e-9 < short[0] < 775e-9

    def test_zero_gvd_root_independent_of_band(self, fiber_40cm):
        profile = disp.axis_profile(fiber_40cm, disp.Axis.FAST)
        narrow = disp.zero_gvd_wavelengths(profile, (560e-9, 1000e-9))
        full = disp.zero_gvd_wavelengths(profile, disp.DEFAULT_WAVELENGTH_BAND)
        assert len(narrow) == 1
        assert full == pytest.approx(narrow, rel=1e-12)

    def test_interpolation_matches_solver_at_midpoints(self, fiber_40cm):
        from mode_reference import he11_index

        profile = disp.axis_profile(fiber_40cm, disp.Axis.FAST)
        mids = 0.5 * (profile.omegas[200:204] + profile.omegas[201:205])
        for om in mids:
            direct = he11_index(2 * np.pi * C_LIGHT / om, fiber_40cm.fast_axis)
            assert profile.index_at(om) == pytest.approx(direct, abs=1e-9)

    def test_out_of_span_raises(self, fiber_40cm):
        profile = disp.axis_profile(fiber_40cm, disp.Axis.FAST)
        with pytest.raises(DomainError):
            disp.wavevector(profile.omegas[0] * 0.9, profile)
        # The derivatives are valid over the whole span and nowhere beyond it.
        lo, hi = profile.omegas[0], profile.omegas[-1]
        for derivative in (disp.inverse_group_velocity, disp.gvd):
            for outside in (np.nextafter(lo, 0.0), np.nextafter(hi, np.inf)):
                with pytest.raises(DomainError):
                    derivative(outside, profile)

    def test_profile_cache_returns_same_object(self, fiber_40cm):
        a = disp.axis_profile(fiber_40cm, disp.Axis.FAST)
        b = disp.axis_profile(fiber_40cm, disp.Axis.FAST)
        assert a is b


class TestBirefringence:
    def test_override_wins(self, fiber_40cm):
        assert disp.birefringence(785e-9, fiber_40cm) == -1.7e-5

    def test_geometric_value_positive_and_small(
        self, fast_geometry, slow_geometry
    ):
        fiber = FiberSpec(
            fast_axis=fast_geometry,
            slow_axis=slow_geometry,
            gamma=99.0,
            length=0.4,
            birefringence_override=None,
        )
        dn = disp.birefringence(785e-9, fiber)
        assert 0 < dn < 1e-4

    def test_identical_axes_give_zero(self, fast_geometry):
        fiber = FiberSpec(
            fast_axis=fast_geometry,
            slow_axis=fast_geometry,
            gamma=99.0,
            length=0.4,
            birefringence_override=None,
        )
        assert disp.birefringence(785e-9, fiber) == 0.0


class TestProfileValidation:
    def test_too_few_points(self):
        omegas = np.linspace(1e15, 2e15, 16)
        with pytest.raises(ValueError):
            disp.DispersionProfile(
                axis=disp.Axis.FAST, omegas=omegas, n_eff=np.ones(16)
            )

    def test_non_monotone_grid(self):
        omegas = np.linspace(1e15, 2e15, 64)
        omegas[10] = omegas[9]
        with pytest.raises(ValueError):
            disp.DispersionProfile(
                axis=disp.Axis.FAST, omegas=omegas, n_eff=np.ones(64)
            )
