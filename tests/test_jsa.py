import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid

from sfwmkit import jsa as jsamod
from sfwmkit.constants import C_LIGHT
from sfwmkit.errors import GridError
from sfwmkit.phasematch import PumpSpec
from purity_reference import reference_purity
from slope_reference import central_slopes


def _normalized_jsa(amplitude, grid):
    norm = np.sqrt(np.sum(np.abs(amplitude) ** 2) * grid.signal_spacing * grid.idler_spacing)
    return jsamod.JointSpectralAmplitude(grid=grid, amplitude=amplitude / norm)


def _mesh_product(pump, fiber, grid):
    """The joint amplitude evaluated once on full 2-D meshes and normalized."""
    om_s, om_i = np.meshgrid(grid.signal_omegas, grid.idler_omegas, indexing="ij")
    product = jsamod.pump_function(om_s + om_i, pump) * jsamod.phasematch_function(
        om_s, om_i, fiber, pump.peak_power
    )
    return _normalized_jsa(product, grid).amplitude


def _same_bytes(a, b):
    # Bytes, not values: -0.0 == 0.0, but a signed zero shows in the CLI output.
    return a.shape == b.shape and a.view(np.uint8).tobytes() == b.view(np.uint8).tobytes()


def _paper_jsa(pump, fiber):
    return jsamod.build_jsa(pump, fiber, jsamod.adaptive_grid(pump, fiber))


def _square_grid(center_s, center_i, half_span, n=128):
    return jsamod.SpectralGrid(
        signal_omegas=np.linspace(center_s - half_span, center_s + half_span, n),
        idler_omegas=np.linspace(center_i - half_span, center_i + half_span, n),
    )


class TestSpectralGrid:
    def test_too_small_rejected(self):
        with pytest.raises(GridError):
            jsamod.SpectralGrid(np.linspace(1e15, 2e15, 32), np.linspace(1e15, 2e15, 64))

    def test_nonuniform_rejected(self):
        axis = np.linspace(1e15, 2e15, 64)
        warped = axis + 1e10 * np.sin(np.arange(64))
        with pytest.raises(GridError):
            jsamod.SpectralGrid(warped, axis)

    def test_spacing(self):
        grid = _square_grid(2.4e15, 2.2e15, 5e13)
        assert grid.signal_spacing == pytest.approx(2 * 5e13 / 127, rel=1e-12)


class TestPumpAmplitude:
    """The pump field that `pump_function` integrates: a Gaussian of amplitude
    width `PumpSpec.sigma_omega` about `center_omega` on `PumpSpec.field_support`."""

    def test_peak_at_center(self):
        pump = PumpSpec(783e-9, 20e-9, 8e-9)
        assert pump.center_omega == 2 * np.pi * C_LIGHT / 783e-9

    def test_intensity_fwhm(self):
        pump = PumpSpec(783e-9, 20e-9, 8e-9)
        fwhm_omega = 2 * np.pi * C_LIGHT * 20e-9 / 783e-9**2
        half = np.exp(-((fwhm_omega / 2) ** 2) / (2 * pump.sigma_omega**2))
        # |A|^2 at half the intensity FWHM equals 1/2.
        assert half**2 == pytest.approx(0.5, rel=1e-12)

    def test_filter_window_edges(self):
        # The 8 nm filter window, 783 +- 4 nm, is the field's support.
        pump = PumpSpec(783e-9, 20e-9, filter_width=8e-9)
        lo, hi = pump.field_support
        for side in (1, -1):
            inside = 2 * np.pi * C_LIGHT / (783e-9 + side * 3.9e-9)
            outside = 2 * np.pi * C_LIGHT / (783e-9 + side * 4.1e-9)
            assert lo < inside < hi
            assert not lo <= outside <= hi


class TestPumpFunction:
    def test_gaussian_self_convolution(self):
        # Behind a 200 nm filter erf(h / sigma) is 1 to double precision at
        # every probe, so the self-convolution is the whole Gaussian's,
        # sigma*sqrt(pi)*Gaussian with doubled variance.
        pump = PumpSpec(783e-9, 20e-9, 200e-9)
        sigma = pump.sigma_omega
        om0 = pump.center_omega
        probes = 2 * om0 + sigma * np.array([0.0, 0.7, -1.3, 2.1, -2.8])
        numeric = jsamod.pump_function(probes, pump)
        analytic = sigma * np.sqrt(np.pi) * np.exp(-((probes - 2 * om0) ** 2) / (4 * sigma**2))
        assert np.abs(numeric / analytic - 1).max() < 1e-6

    def test_filtered_support(self):
        pump = PumpSpec(783e-9, 20e-9, filter_width=8e-9)
        hi_edge = 2 * np.pi * C_LIGHT / (783e-9 - 4e-9)
        beyond = 2 * hi_edge + 1e11
        assert jsamod.pump_function(beyond, pump) == 0.0

    @pytest.mark.parametrize("filter_nm", [8.0, 10.0], ids=["filtered", "filtered-10nm"])
    def test_matches_trapezoid_over_the_overlap(self, filter_nm):
        # Trapezoid rule for int A(w) A(w+ - w) dw over the overlap of the two
        # field supports, where both factors are the smooth Gaussian of
        # intensity FWHM 20 nm (the window edges are the limits).
        pump = PumpSpec(783e-9, 20e-9, filter_width=filter_nm * 1e-9)
        sigma = 2 * np.pi * C_LIGHT * 20e-9 / 783e-9**2 / (2 * np.sqrt(np.log(2)))

        def field(w):
            return np.exp(-((w - pump.center_omega) ** 2) / (2 * sigma**2))

        lo, hi = pump.field_support
        for fraction in (0.1, 0.3, 0.5, 0.62, 0.9):
            om = 2 * lo + fraction * 2 * (hi - lo)
            x = np.linspace(max(lo, om - hi), min(hi, om - lo), 20_001)
            reference = trapezoid(field(x) * field(om - x), x)
            assert jsamod.pump_function(om, pump) == pytest.approx(reference, rel=1e-9)

    @pytest.mark.parametrize("filter_nm", [8.0], ids=["filtered"])
    def test_exactly_zero_outside_twice_the_support(self, filter_nm):
        pump = PumpSpec(783e-9, 20e-9, filter_width=filter_nm * 1e-9)
        lo, hi = pump.field_support
        outside = np.array([0.5 * lo, 2 * lo - 1e9, 2 * lo, 2 * hi, 2 * hi + 1e9, 4 * hi])
        assert np.all(jsamod.pump_function(outside, pump) == 0.0)
        assert np.all(jsamod.pump_function(np.array([2 * lo + 1e9, 2 * hi - 1e9]), pump) > 0)

    def test_scalar_gives_float(self):
        pump = PumpSpec(783e-9, 20e-9, filter_width=8e-9)
        assert type(jsamod.pump_function(2 * pump.center_omega, pump)) is float


class TestPhasematchFunction:
    def test_unity_on_ridge(self, fiber_40cm):
        from sfwmkit.phasematch import solve_phasematch

        point = solve_phasematch(785e-9, fiber_40cm)
        om_s = 2 * np.pi * C_LIGHT / point.signal_wavelength
        om_i = 2 * np.pi * C_LIGHT / point.idler_wavelength
        value = jsamod.phasematch_function(om_s, om_i, fiber_40cm)
        assert abs(value) == pytest.approx(1.0, abs=1e-6)

    def test_one_at_zero_mismatch_and_sinc_elsewhere(self, fiber_40cm, monkeypatch):
        dk = np.linspace(-300.0, 300.0, 601)  # holds dk = 0 exactly
        monkeypatch.setattr(jsamod, "delta_k", lambda *args: dk)
        value = jsamod.phasematch_function(0.0, 0.0, fiber_40cm)
        assert value[300] == 1 + 0j
        arg = 0.5 * fiber_40cm.length * dk
        assert np.abs(value - np.sinc(arg / np.pi) * np.exp(1j * arg)).max() < 1e-15


class TestBuildJsa:
    def test_normalization(self, pump_40cm, fiber_40cm):
        jsa = _paper_jsa(pump_40cm, fiber_40cm)
        total = (
            np.sum(np.abs(jsa.amplitude) ** 2)
            * jsa.grid.signal_spacing
            * jsa.grid.idler_spacing
        )
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_centroid_near_operating_point(self, pump_40cm, fiber_40cm):
        from sfwmkit.phasematch import solve_phasematch

        jsa = _paper_jsa(pump_40cm, fiber_40cm)
        weights = np.abs(jsa.amplitude) ** 2
        grid = jsa.grid
        om_s, om_i = np.meshgrid(grid.signal_omegas, grid.idler_omegas, indexing="ij")
        centroid_s = np.sum(weights * om_s) / np.sum(weights)
        centroid_i = np.sum(weights * om_i) / np.sum(weights)
        point = solve_phasematch(783e-9, fiber_40cm)
        assert 2 * np.pi * C_LIGHT / centroid_s == pytest.approx(
            point.signal_wavelength, abs=3e-9
        )
        assert 2 * np.pi * C_LIGHT / centroid_i == pytest.approx(
            point.idler_wavelength, abs=3e-9
        )

    def test_amplitude_is_product_on_meshes(self, pump_40cm, fiber_40cm):
        # build_jsa fills the phasematch factor on broadcast axes; the result
        # must be the same bits as the product evaluated on full 2-D meshes.
        grid = jsamod.adaptive_grid(pump_40cm, fiber_40cm, n_signal=96, n_idler=64)
        jsa = jsamod.build_jsa(pump_40cm, fiber_40cm, grid=grid)
        assert _same_bytes(jsa.amplitude, _mesh_product(pump_40cm, fiber_40cm, grid))

    @pytest.mark.parametrize("block_points", [None, 1])
    @pytest.mark.parametrize(
        "fiber_name, peak_power",
        [("fiber_40cm", 0.0), ("fiber_no_override", 0.0), ("fiber_40cm", 40.0)],
    )
    def test_blocks_are_product_on_meshes(
        self, pump_40cm, fiber_name, peak_power, block_points, request, monkeypatch
    ):
        # Blocks of 127 signal rows at 257 idler columns, so 300 rows end in a
        # partial block, or of one row with block_points=1: the fill is the
        # same bits as the one-shot mesh product, signed zeros included, with
        # dn from the override or from the LP01 series and with the nonlinear
        # phase of a nonzero peak power.
        if block_points is not None:
            monkeypatch.setattr(jsamod, "_BLOCK_POINTS", block_points)
        fiber = request.getfixturevalue(fiber_name)
        pump = dataclasses.replace(pump_40cm, peak_power=peak_power)
        grid = jsamod.adaptive_grid(pump, fiber, 300, 257)
        jsa = jsamod.build_jsa(pump, fiber, grid=grid)
        assert _same_bytes(jsa.amplitude, _mesh_product(pump, fiber, grid))

    def test_fill_peak_memory_near_the_amplitude(self, pump_40cm, fiber_40cm):
        # The fill's temporaries are block-sized, so the peak is the amplitude
        # and the norm's one real temporary, 1.5x its 16 MiB at 1024^2; the
        # whole mesh at once takes 4.5x.
        grid = jsamod.adaptive_grid(pump_40cm, fiber_40cm, 1024, 1024)
        tracemalloc.start()
        try:
            jsa = jsamod.build_jsa(pump_40cm, fiber_40cm, grid=grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * jsa.amplitude.nbytes

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        center_nm=st.floats(781.0, 787.0),
        filter_nm=st.floats(5.0, 10.0),
        length=st.floats(0.3, 30.0),
    )
    def test_normalized_on_small_grids(self, pump_40cm, fiber_40cm, center_nm, filter_nm, length):
        # sum |f|^2 dws dwi = 1 on a 64^2 adaptive grid, across the pumps and
        # lengths of the paper fiber's operating range.
        pump = dataclasses.replace(
            pump_40cm, center_wavelength=center_nm * 1e-9, filter_width=filter_nm * 1e-9
        )
        fiber = dataclasses.replace(fiber_40cm, length=length)
        jsa = jsamod.build_jsa(pump, fiber, jsamod.adaptive_grid(pump, fiber, 64, 64))
        grid = jsa.grid
        total = np.sum(np.abs(jsa.amplitude) ** 2) * grid.signal_spacing * grid.idler_spacing
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_misplaced_grid_raises(self, pump_40cm, fiber_40cm):
        grid = _square_grid(2.4e15, 2.3e15, 1e12, n=64)  # far from the ridge
        with pytest.raises(GridError, match="misplaced"):
            jsamod.build_jsa(pump_40cm, fiber_40cm, grid=grid)


def _chirped_double_gaussian(n_signal, n_idler):
    # Complex and entangled, with a Schmidt spectrum falling to rounding.
    grid = jsamod.SpectralGrid(
        signal_omegas=np.linspace(2.6e15 - 6e13, 2.6e15 + 6e13, n_signal),
        idler_omegas=np.linspace(2.2e15 - 6e13, 2.2e15 + 6e13, n_idler),
    )
    om_s, om_i = np.meshgrid(grid.signal_omegas, grid.idler_omegas, indexing="ij")
    x, y = (om_s - 2.6e15) / 1e13, (om_i - 2.2e15) / 1e13
    amp = np.exp(-0.5 * (x**2 + y**2) - 0.3 * x * y + 0.4j * x * y + 0.2j * x**2)
    return _normalized_jsa(amp, grid)


class TestSchmidt:
    @pytest.mark.parametrize("shape", [(128, 128), (64, 200), (200, 64)])
    def test_matches_singular_values(self, shape):
        jsa = _chirped_double_gaussian(*shape)
        singular = np.linalg.svd(jsa.amplitude, compute_uv=False)
        reference = singular**2 / np.sum(singular**2)
        result = jsamod.schmidt_decompose(jsa)
        lam = np.array(result.coefficients)
        assert len(lam) == min(shape)
        assert np.all(lam >= 0)
        assert np.all(np.diff(lam) <= 0)
        assert np.abs(lam - reference).max() < 1e-14
        assert result.purity == pytest.approx(np.sum(reference**2), rel=1e-13)

    @pytest.mark.parametrize("smallest, raises", [(-1e-9, True), (-1e-15, False)])
    def test_negative_gram_eigenvalue(self, monkeypatch, smallest, raises):
        # Rounding-size negatives are clipped to 0; a larger one means the
        # Gram matrix is not positive semidefinite, which no amplitude gives.
        jsa = _chirped_double_gaussian(64, 64)
        gram = np.diag(np.r_[1.0, 0.25, np.zeros(61), smallest]).astype(complex)
        monkeypatch.setattr(jsamod, "zherk", lambda *args, **kwargs: gram)
        if raises:
            with pytest.raises(ArithmeticError, match="not positive semidefinite"):
                jsamod.schmidt_decompose(jsa)
        else:
            result = jsamod.schmidt_decompose(jsa)
            assert result.coefficients[:2] == (0.8, 0.2)
            assert result.coefficients[-1] == 0.0

    def test_separable_purity_one(self):
        grid = _square_grid(2.6e15, 2.2e15, 4e13)
        om_s, om_i = np.meshgrid(grid.signal_omegas, grid.idler_omegas, indexing="ij")
        amp = np.exp(-((om_s - 2.6e15) ** 2) / (2 * (8e12) ** 2)) * np.exp(
            -((om_i - 2.2e15) ** 2) / (2 * (5e12) ** 2)
        )
        result = jsamod.schmidt_decompose(_normalized_jsa(amp, grid))
        assert result.purity == pytest.approx(1.0, abs=1e-9)
        assert result.schmidt_number == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("ratio", [0.2, 0.5, 0.8])
    def test_double_gaussian_matches_mehler_oracle(self, ratio):
        # f = exp(-a (x^2 + y^2) - 2 b x y) has Hermite Schmidt modes with
        # geometric coefficients; closed form purity = sqrt(1 - (b/a)^2).
        grid = _square_grid(2.6e15, 2.2e15, 6e13, n=256)
        om_s, om_i = np.meshgrid(grid.signal_omegas, grid.idler_omegas, indexing="ij")
        a = 1.0 / (2 * (1e13) ** 2)
        b = ratio * a
        x = om_s - 2.6e15
        y = om_i - 2.2e15
        amp = np.exp(-a * (x**2 + y**2) - 2 * b * x * y)
        result = jsamod.schmidt_decompose(_normalized_jsa(amp, grid))
        assert result.purity == pytest.approx(np.sqrt(1 - ratio**2), abs=1e-4)

    def test_coefficients_sum_to_one(self, pump_40cm, fiber_40cm):
        jsa = _paper_jsa(pump_40cm, fiber_40cm)
        result = jsamod.schmidt_decompose(jsa)
        assert sum(result.coefficients) == pytest.approx(1.0, abs=1e-10)

    def test_entropy_zero_iff_pure(self):
        grid = _square_grid(2.6e15, 2.2e15, 4e13)
        om_s, om_i = np.meshgrid(grid.signal_omegas, grid.idler_omegas, indexing="ij")
        amp = np.exp(
            -((om_s - 2.6e15) ** 2) / (2 * (8e12) ** 2)
            - ((om_i - 2.2e15) ** 2) / (2 * (5e12) ** 2)
        )
        result = jsamod.schmidt_decompose(_normalized_jsa(amp, grid))
        assert abs(result.entropy) < 1e-6

    def test_grid_doubling_drift(self, pump_40cm, fiber_40cm):
        base = jsamod.schmidt_decompose(
            jsamod.build_jsa(
                pump_40cm,
                fiber_40cm,
                grid=jsamod.adaptive_grid(pump_40cm, fiber_40cm, 256, 256),
            )
        )
        doubled = jsamod.schmidt_decompose(
            jsamod.build_jsa(
                pump_40cm,
                fiber_40cm,
                grid=jsamod.adaptive_grid(pump_40cm, fiber_40cm, 512, 512),
            )
        )
        assert abs(base.purity - doubled.purity) < 1e-3

    def test_long_fiber_matches_uniform_reference(self, pump_40cm, fiber_40cm):
        # At 100 m the adaptive grid must hold the whole curved ridge: a
        # clipped or misplaced axis moves the purity by several per cent.
        fiber = dataclasses.replace(fiber_40cm, length=100.0)
        grid = jsamod.adaptive_grid(pump_40cm, fiber, 256, 256)
        purity = jsamod.schmidt_decompose(
            jsamod.build_jsa(pump_40cm, fiber, grid=grid)
        ).purity
        assert purity == pytest.approx(reference_purity(pump_40cm, fiber), rel=0.02)

    @pytest.mark.parametrize("length, expected", [(0.4, 0.3992), (1.0, 0.4929), (10.0, 0.0611)])
    def test_no_override_purity(self, pump_40cm, fiber_no_override, length, expected):
        # dn is taken at each pump of the grid, not held at one value.
        fiber = dataclasses.replace(fiber_no_override, length=length)
        jsa = jsamod.build_jsa(pump_40cm, fiber, jsamod.adaptive_grid(pump_40cm, fiber))
        assert jsamod.schmidt_decompose(jsa).purity == pytest.approx(expected, abs=1e-3)

    def test_svd_reconstruction(self, pump_40cm, fiber_40cm):
        jsa = _paper_jsa(pump_40cm, fiber_40cm)
        u, s, vh = np.linalg.svd(jsa.amplitude)
        rebuilt = (u * s) @ vh
        assert np.abs(rebuilt - jsa.amplitude).max() < 1e-10 * np.abs(jsa.amplitude).max()


class TestRidge:
    """The ridge is solved once per pump and fiber geometry, whatever the length."""

    def test_one_ridge_solve_for_gate_and_scan(self, pump_40cm, fiber_40cm, monkeypatch):
        pump = dataclasses.replace(pump_40cm, center_wavelength=784.123e-9)
        solves = []
        solve_phasematch = jsamod.solve_phasematch

        def counted(*args, **kwargs):
            solves.append(args[0])
            return solve_phasematch(*args, **kwargs)

        monkeypatch.setattr(jsamod, "solve_phasematch", counted)
        jsamod.adaptive_grid(pump, fiber_40cm, 256, 256)
        jsamod.adaptive_grid(pump, fiber_40cm, 512, 512)
        for length in (0.4, 3.0):  # a purity-scan
            jsamod.adaptive_grid(pump, dataclasses.replace(fiber_40cm, length=length), 64, 64)
        assert len(solves) == 1

    @pytest.mark.parametrize("name", ["fiber_40cm", "fiber_no_override"])
    def test_slopes_match_central_difference(self, pump_40cm, name, request):
        # Without an override dn varies across the pump band; the ridge takes
        # it at each ridge pump, as the solver does.
        fiber = dataclasses.replace(request.getfixturevalue(name), length=1.0)
        omega_s, omega_i, slope_s, slope_i = jsamod._ridge(pump_40cm, fiber)
        numeric_s, numeric_i = central_slopes(omega_s, omega_i, fiber)
        assert np.abs(slope_s - numeric_s).max() <= 1e-5 * np.abs(numeric_s).max()
        assert np.abs(slope_i - numeric_i).max() <= 1e-5 * np.abs(numeric_i).max()

    @pytest.mark.parametrize("name", ["fiber_40cm", "fiber_no_override"])
    def test_fill_phasematched_on_ridge(self, pump_40cm, name, request):
        # The fill's dk, one array call over all nine ridge sidebands, vanishes
        # where `_ridge` solved them one pump at a time.
        fiber = dataclasses.replace(request.getfixturevalue(name), length=1.0)
        omega_s, omega_i, *_ = jsamod._ridge(pump_40cm, fiber)
        dk = jsamod.delta_k(0.5 * (omega_s + omega_i), omega_s, omega_i, fiber)
        assert np.abs(dk).max() < 1e-3

    def test_grid_independent_of_cache_state(self, pump_40cm, fiber_40cm):
        ridge = jsamod._ridge(pump_40cm, dataclasses.replace(fiber_40cm, length=1.0))
        assert not any(array.flags.writeable for array in ridge)
        for length in (0.4, 100.0):
            cut = dataclasses.replace(fiber_40cm, length=length)
            warm = jsamod.adaptive_grid(pump_40cm, cut, 128, 128)
            jsamod._ridge.cache_clear()
            cold = jsamod.adaptive_grid(pump_40cm, cut, 128, 128)
            assert np.array_equal(warm.signal_omegas, cold.signal_omegas)
            assert np.array_equal(warm.idler_omegas, cold.idler_omegas)

    def test_tiny_length_grid_is_the_clipped_one(self, pump_40cm, fiber_40cm):
        # At 1e-300 m the sinc reach overflows to inf, which the pump-support
        # and band clips handle as they do the finite reach at 1e-30 m, with
        # no RuntimeWarning (an error under pytest).
        tiny, small = (
            jsamod.adaptive_grid(pump_40cm, dataclasses.replace(fiber_40cm, length=length))
            for length in (1e-300, 1e-30)
        )
        assert np.array_equal(tiny.signal_omegas, small.signal_omegas)
        assert np.array_equal(tiny.idler_omegas, small.idler_omegas)
