import numpy as np
import pytest
from scipy.interpolate import PPoly, make_interp_spline

from sfwmkit import dispersion as disp
from sfwmkit.constants import C_LIGHT
from sfwmkit.errors import DomainError
from sfwmkit.material_optics import FiberAxisGeometry, FiberSpec


def _profile_from_k(kfunc, om_lo=1.6e15, om_hi=3.2e15, n=512):
    """Profile whose wavevector equals an analytic k(omega)."""
    omegas = np.linspace(om_lo, om_hi, n)
    n_eff = kfunc(omegas) * C_LIGHT / omegas
    return disp.DispersionProfile(omegas=omegas, n_eff=n_eff)


class TestConstantIndex:
    """n_eff = n0: k = n0 w / c, 1/vg = n0 / c, GVD = 0."""

    N0 = 1.45

    @pytest.fixture
    def profile(self):
        omegas = np.linspace(1.6e15, 3.2e15, 256)
        return disp.DispersionProfile(omegas=omegas, n_eff=np.full(256, self.N0))

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
        # k, its derivatives and the index are valid over the whole span and
        # nowhere beyond it.
        lo, hi = profile.omegas[0], profile.omegas[-1]
        for function in (
            disp.wavevector,
            disp.inverse_group_velocity,
            disp.gvd,
            lambda omega, profile: profile.index_at(omega),
        ):
            for outside in (np.nextafter(lo, 0.0), np.nextafter(hi, np.inf)):
                with pytest.raises(DomainError):
                    function(outside, profile)

    def test_profile_cache_returns_same_object(self, fiber_40cm):
        a = disp.axis_profile(fiber_40cm, disp.Axis.FAST)
        b = disp.axis_profile(fiber_40cm, disp.Axis.FAST)
        assert a is b


def _unfiltered_zero_gvd(profile, band):
    """zero_gvd_wavelengths without the Bernstein filter: every piece's roots."""
    om_lo, om_hi = 2 * np.pi * C_LIGHT / band[1], 2 * np.pi * C_LIGHT / band[0]
    roots = profile._spline.derivative(2).roots(discontinuity=False, extrapolate=False)
    return sorted(float(2 * np.pi * C_LIGHT / om) for om in roots if om_lo <= om <= om_hi)


class TestPowerBasis:
    """k(omega) in power-basis form against the B-spline of the same samples."""

    @pytest.fixture(
        scope="class",
        params=[("fast", 2048), ("slow", 2048), ((1.65e-6, 0.46), 192), ((1.85e-6, 0.56), 192)],
        ids=["paper-fast", "paper-slow", "fit-box-low", "fit-box-high"],
    )
    def profile(self, request, fiber_40cm):
        axis, n_points = request.param
        geometry = fiber_40cm.axis_geometry(axis) if isinstance(axis, str) else FiberAxisGeometry(*axis)
        return disp.DispersionProfile.from_geometry(geometry, n_points=n_points)

    def test_matches_bspline(self, profile):
        bspline = make_interp_spline(
            profile.omegas, profile.n_eff * profile.omegas / C_LIGHT, k=disp._SPLINE_ORDER
        )
        om = np.linspace(*profile.span, 20001)
        for order, function in enumerate((disp.wavevector, disp.inverse_group_velocity)):
            reference = bspline(om, nu=order)
            assert np.abs(function(om, profile) / reference - 1).max() <= 1e-12
        reference = bspline(om, nu=2)
        assert np.abs(disp.gvd(om, profile) - reference).max() <= 1e-6 * np.abs(reference).max()
        assert np.array_equal(profile.index_at(om), disp.wavevector(om, profile) * C_LIGHT / om)


class TestZeroGvdFilter:
    """Only pieces whose k'' can vanish are searched; the roots stay bit-identical."""

    BAND = (560e-9, 1000e-9)

    def test_design_sweep_box(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            geometry = FiberAxisGeometry(rng.uniform(1.70e-6, 1.80e-6), rng.uniform(0.49, 0.53))
            profile = disp.DispersionProfile.from_geometry(geometry)
            roots = disp.zero_gvd_wavelengths(profile, self.BAND)
            assert roots and roots == _unfiltered_zero_gvd(profile, self.BAND)

    @staticmethod
    def _synthetic(second):
        """Profile whose k'' is the piecewise cubic `second(u)` on 32 pieces, u in [0, 1).

        The breakpoints are integers and the piece width a power of two, so
        x[j] + h is x[j + 1] exactly.  k's quintic coefficients are chosen so
        that PPoly.derivative(2) returns k'' = sum_m c_m u^m exactly.
        """
        h = 2.0**45
        omegas = 2.0e15 + h * np.arange(33)
        quintic = np.zeros((6, 32))
        for j in range(32):
            c0, c1, c2, c3 = second(j)  # k'' = c0 + c1 u + c2 u^2 + c3 u^3
            quintic[:4, j] = c3 / h**3 / 20, c2 / h**2 / 12, c1 / h / 6, c0 / 2
        profile = disp.DispersionProfile(omegas=omegas, n_eff=np.ones(33))
        object.__setattr__(profile, "_spline", PPoly(quintic, omegas))
        return profile

    def test_two_roots_in_one_piece(self):
        s = 2.0**-86
        # Piece 10: s (u - 1/4)(u - 3/4), positive at both ends; elsewhere s (1 + u^2).
        profile = self._synthetic(
            lambda j: (3 * s / 16, -s, s, 0.0) if j == 10 else (s, 0.0, s, 0.0)
        )
        band = (550e-9, 1250e-9)
        roots = disp.zero_gvd_wavelengths(profile, band)
        assert len(roots) == 2
        assert roots == _unfiltered_zero_gvd(profile, band)

    def test_root_on_breakpoint_not_duplicated(self):
        s = 2.0**-86
        # k'' = s (u - 1) on piece 20 and s u on piece 21: one root, on x[21].
        pieces = {20: (-s, s, 0.0, 0.0), 21: (0.0, s, 0.0, 0.0)}
        profile = self._synthetic(lambda j: pieces.get(j, (s, 0.0, s, 0.0)))
        band = (550e-9, 1250e-9)
        roots = disp.zero_gvd_wavelengths(profile, band)
        assert roots == [2 * np.pi * C_LIGHT / profile.omegas[21]]
        assert roots == _unfiltered_zero_gvd(profile, band)


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


class TestBirefringenceSeries:
    @pytest.mark.parametrize(
        "fast, slow",
        [
            # The swapped paper axes, fit-box corners with the paper's axis
            # offset, and nearly coincident axes (dn ~ 5e-11).
            (FiberAxisGeometry(1.7488e-6, 0.505), FiberAxisGeometry(1.7507e-6, 0.511)),
            *[
                (FiberAxisGeometry(core, fill), FiberAxisGeometry(core - 1.9e-9, fill - 0.006))
                for core in (1.6e-6, 2.0e-6)
                for fill in (0.40, 0.60)
            ],
            (FiberAxisGeometry(1.8e-6, 0.5), FiberAxisGeometry(1.8e-6 * (1 + 1e-9), 0.5)),
        ],
    )
    def test_matches_direct_lp01_difference(self, fast, slow, rng):
        fiber = FiberSpec(fast, slow, 99.0, 1.0)
        lam = rng.uniform(550e-9, 1250e-9, 64)
        series = disp.pump_birefringence(2 * np.pi * C_LIGHT / lam, fiber)
        assert np.abs(series - disp.birefringence(lam, fiber)).max() <= 1e-14

    def test_override_is_the_constant(self, fiber_40cm):
        assert disp.pump_birefringence(np.array([2.3e15, 2.4e15]), fiber_40cm) == -1.7e-5

    def test_no_extrapolation_outside_band(self, fiber_no_override):
        lo, hi = disp._birefringence_series(
            fiber_no_override.fast_axis, fiber_no_override.slow_axis
        ).domain
        with pytest.raises(DomainError):
            disp.pump_birefringence(np.array([lo, np.nextafter(hi, np.inf)]), fiber_no_override)

    def test_unresolved_tail_raises(self, fiber_no_override, monkeypatch):
        # A kink at 800 nm is not analytic: its Chebyshev tail stays far above
        # rounding, so the series must not be trusted.
        slow = fiber_no_override.slow_axis
        monkeypatch.setattr(
            disp, "lp01_effective_index", lambda lam, axis: 1e-2 * np.abs(lam - 800e-9) * (axis is slow)
        )
        with pytest.raises(ArithmeticError, match="tail"):
            disp._birefringence_series.__wrapped__(
                fiber_no_override.fast_axis, fiber_no_override.slow_axis
            )


class TestProfileValidation:
    def test_too_few_points(self):
        omegas = np.linspace(1e15, 2e15, 16)
        with pytest.raises(ValueError):
            disp.DispersionProfile(omegas=omegas, n_eff=np.ones(16))

    def test_non_monotone_grid(self):
        omegas = np.linspace(1e15, 2e15, 64)
        omegas[10] = omegas[9]
        with pytest.raises(ValueError):
            disp.DispersionProfile(omegas=omegas, n_eff=np.ones(64))
