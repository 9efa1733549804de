import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mode_reference as ref
from sfwmkit import material_optics as mo
from sfwmkit.constants import C_LIGHT
from sfwmkit.errors import DomainError, ModeCutoffError

# The paper's two axes and the corners and centre of the geometry-fit box.
REFERENCE_GEOMETRIES = [
    (1.7507e-6, 0.511),
    (1.7488e-6, 0.505),
    (1.0e-6, 0.30),
    (1.0e-6, 0.70),
    (3.0e-6, 0.30),
    (3.0e-6, 0.70),
    (1.65e-6, 0.46),
]


def _band_wavelengths(n_points):
    """Wavelengths [m] of an n-point profile band, uniform in frequency."""
    two_pi_c = 2 * np.pi * C_LIGHT
    return two_pi_c / np.linspace(two_pi_c / 1250e-9, two_pi_c / 550e-9, n_points)


class TestSilicaIndex:
    def test_sodium_d_line(self):
        # Classic tabulated Malitson value at 587.6 nm.
        assert mo.silica_index(0.5876e-6) == pytest.approx(1.45846, abs=1e-5)

    def test_telecom_wavelength(self):
        assert mo.silica_index(1.55e-6) == pytest.approx(1.44402, abs=1e-5)

    def test_array_matches_scalar(self):
        wl = np.array([0.6e-6, 0.8e-6, 1.2e-6])
        values = mo.silica_index(wl)
        assert values.shape == (3,)
        for w, v in zip(wl, values):
            assert v == mo.silica_index(float(w))

    def test_monotone_decreasing_in_visible(self):
        wl = np.linspace(0.4e-6, 1.2e-6, 50)
        n = mo.silica_index(wl)
        assert np.all(np.diff(n) < 0)

    @pytest.mark.parametrize("wl", [0.1e-6, 0.21e-6, 3.7e-6, 5e-6, -1e-6])
    def test_outside_validity_raises(self, wl):
        with pytest.raises(DomainError):
            mo.silica_index(wl)


class TestCladdingIndex:
    def test_zero_fill_is_bulk(self):
        assert mo.cladding_index(785e-9, 0.0) == mo.silica_index(785e-9)

    def test_hand_value(self):
        # sqrt(f + (1-f) n_si^2) at f = 0.511, n_si(785 nm) = 1.453581145...
        assert mo.cladding_index(785e-9, 0.511) == pytest.approx(
            1.2426613348599713, rel=1e-12
        )

    def test_monotone_in_fill(self):
        values = [mo.cladding_index(785e-9, f) for f in (0.1, 0.3, 0.5, 0.7)]
        assert np.all(np.diff(values) < 0)

    def test_invalid_fraction(self):
        with pytest.raises(DomainError):
            mo.cladding_index(785e-9, 1.5)


class TestLP01:
    def test_between_cladding_and_core(self, fast_geometry):
        n = mo.lp01_effective_index(785e-9, fast_geometry)
        assert mo.cladding_index(785e-9, 0.511) < n < mo.silica_index(785e-9)

    def test_frozen_value(self, fast_geometry):
        assert mo.lp01_effective_index(785e-9, fast_geometry) == pytest.approx(
            1.4248919864214542, rel=1e-11
        )

    def test_characteristic_residual_vanishes(self, fast_geometry):
        # Independent check: the returned root satisfies the LP01 equation.
        wl = 785e-9
        n_eff = mo.lp01_effective_index(wl, fast_geometry)
        n_core = mo.silica_index(wl)
        n_clad = mo.cladding_index(wl, fast_geometry.air_filling_fraction)
        ka = np.pi * fast_geometry.core_diameter / wl
        u = ka * np.sqrt(n_core**2 - n_eff**2)
        v = ka * np.sqrt(n_core**2 - n_clad**2)
        w = np.sqrt(v**2 - u**2)
        from scipy.special import j0, j1, k0, k1

        residual = u * j1(u) / j0(u) - w * k1(w) / k0(w)
        assert abs(residual) < 1e-6

    def test_large_core_approaches_bulk(self):
        geometry = mo.FiberAxisGeometry(40e-6, 0.02)
        n = mo.lp01_effective_index(785e-9, geometry)
        assert abs(n - mo.silica_index(785e-9)) < 1e-4

    def test_grid_matches_scalar(self, fast_geometry):
        wl = np.linspace(600e-9, 1200e-9, 9)
        grid = mo.lp01_effective_index(wl, fast_geometry)
        scalar = [mo.lp01_effective_index(float(w), fast_geometry) for w in wl]
        assert all(isinstance(n, float) for n in scalar)
        assert np.array_equal(grid, scalar)
        reference = np.array([ref.lp01_index(w, fast_geometry) for w in wl])
        assert np.abs(grid - reference).max() < 1e-12

    def test_cutoff_raises(self):
        # Near-index-matched cladding leaves no resolvable guided root.
        geometry = mo.FiberAxisGeometry(1.75e-6, 1e-6)
        with pytest.raises(ModeCutoffError):
            mo.lp01_effective_index(785e-9, geometry)


class TestUnitCell:
    def test_frozen_radii(self, fast_geometry):
        r_hole, r_cell = mo.unit_cell_radii(fast_geometry)
        assert r_hole == pytest.approx(5.259257518204957e-07, rel=1e-12)
        assert r_cell == pytest.approx(7.357224126991473e-07, rel=1e-12)

    def test_air_fraction_preserved(self, fast_geometry, slow_geometry):
        for geometry in (fast_geometry, slow_geometry):
            r_hole, r_cell = mo.unit_cell_radii(geometry)
            assert (r_hole / r_cell) ** 2 == pytest.approx(
                geometry.air_filling_fraction, rel=1e-12
            )

    def test_core_diameter_closure(self, fast_geometry):
        # d_core = 2 pitch - d_hole must invert exactly.
        r_hole, r_cell = mo.unit_cell_radii(fast_geometry)
        pitch = r_cell / np.sqrt(np.sqrt(3.0) / (2.0 * np.pi))
        assert 2 * pitch - 2 * r_hole == pytest.approx(
            fast_geometry.core_diameter, rel=1e-12
        )

    def test_overlapping_holes_raise(self):
        with pytest.raises(DomainError):
            mo.unit_cell_radii(mo.FiberAxisGeometry(1.75e-6, 0.95))

    def test_holes_touch_at_close_packed_fill(self):
        # d_hole/pitch = sqrt(2 sqrt(3) f/pi) reaches 1 at CLOSE_PACKED_FILL,
        # the config's upper end of the air-filling fraction.
        d_rel = np.sqrt(2.0 * np.sqrt(3.0) * mo.CLOSE_PACKED_FILL / np.pi)
        assert d_rel == pytest.approx(1.0, rel=1e-15)
        assert f"{mo.CLOSE_PACKED_FILL:.4f}" == "0.9069"
        mo.unit_cell_radii(mo.FiberAxisGeometry(1.75e-6, mo.CLOSE_PACKED_FILL * (1 - 1e-12)))
        with pytest.raises(DomainError):
            mo.unit_cell_radii(mo.FiberAxisGeometry(1.75e-6, mo.CLOSE_PACKED_FILL * (1 + 1e-12)))


class TestVectorSolvers:
    def test_fsm_below_silica_above_air(self, fast_geometry):
        (n,) = mo.fsm_cladding_index_grid(np.array([785e-9]), fast_geometry)
        assert 1.0 < n < mo.silica_index(785e-9)
        assert n == pytest.approx(1.3581574184997218, rel=1e-11)
        assert n == pytest.approx(ref.fsm_index(785e-9, fast_geometry), abs=1e-12)

    def test_he11_ordering(self, fast_geometry):
        (n,) = mo.he11_effective_index_grid(np.array([785e-9]), fast_geometry)
        (n_fsm,) = mo.fsm_cladding_index_grid(np.array([785e-9]), fast_geometry)
        assert n_fsm < n < mo.silica_index(785e-9)
        assert n == pytest.approx(1.4283337376000698, rel=1e-11)
        assert n == pytest.approx(ref.he11_index(785e-9, fast_geometry), abs=1e-12)

    def test_he11_grid_matches_scalar(self, fast_geometry):
        wl = np.linspace(600e-9, 1200e-9, 9)
        grid = mo.he11_effective_index_grid(wl, fast_geometry)
        reference = np.array([ref.he11_index(w, fast_geometry) for w in wl])
        assert np.abs(grid - reference).max() < 1e-12

    def test_fsm_root_next_to_pole_matches_reference(self):
        # Root (1.4562604) and pole (1.4559256) of the FSM characteristic
        # function lie inside one step of an 800-point candidate scan here.
        geometry = mo.FiberAxisGeometry(7.0e-6, 0.1)
        (n,) = mo.fsm_cladding_index_grid(np.array([600e-9]), geometry)
        assert n == pytest.approx(ref.fsm_index(600e-9, geometry), abs=1e-12)
        assert n == pytest.approx(1.4562604, abs=1e-7)

    @pytest.mark.parametrize("core, fill", REFERENCE_GEOMETRIES)
    def test_band_matches_reference(self, core, fill):
        # Every 32nd wavelength of the 2048-point profile band.
        geometry = mo.FiberAxisGeometry(core, fill)
        wl = _band_wavelengths(2048)[::32]
        for solve, reference in (
            (mo.fsm_cladding_index_grid, ref.fsm_index),
            (mo.he11_effective_index_grid, ref.he11_index),
            (mo.lp01_effective_index, ref.lp01_index),
        ):
            expected = np.array([reference(w, geometry) for w in wl])
            assert np.abs(solve(wl, geometry) - expected).max() < 1e-12

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(core_um=st.floats(1.0, 3.0), fill=st.floats(0.3, 0.7))
    def test_fit_box_ordering(self, core_um, fill):
        geometry = mo.FiberAxisGeometry(core_um * 1e-6, fill)
        wl = _band_wavelengths(64)
        n_si = mo.silica_index(wl)
        n_fsm = mo.fsm_cladding_index_grid(wl, geometry)
        n_he11 = mo.he11_effective_index_grid(wl, geometry)
        assert np.all((1.0 < n_fsm) & (n_fsm < n_he11) & (n_he11 < n_si))
        assert np.all(np.diff(n_he11) > 0)  # wl falls along the band
        n_lp01 = mo.lp01_effective_index(wl, geometry)
        assert np.all((mo.cladding_index(wl, fill) < n_lp01) & (n_lp01 < n_si))

    def test_bracketed_root_checks_its_bracket(self):
        def char(x, a):
            return x * x - a

        x = mo._bracketed_root(char, 0.0, 2.0, (np.array([1.0, 2.0]),), "test")
        assert x == pytest.approx([1.0, np.sqrt(2.0)], rel=1e-15)
        # No sign change across the bracket; a non-finite end.
        for lo, hi, a in ((0.0, 2.0, 5.0), (0.0, np.inf, 1.0)):
            with pytest.raises(ModeCutoffError, match="no test root"):
                mo._bracketed_root(char, lo, hi, (a,), "test")

    def test_he11_decreasing_with_wavelength(self, fast_geometry):
        wl = np.linspace(600e-9, 1200e-9, 25)
        n = mo.he11_effective_index_grid(wl, fast_geometry)
        assert np.all(np.diff(n) < 0)


class TestChandrupatla:
    @staticmethod
    def _cubic(x, r, a):
        return (x - r) ** 3 + a * (x - r)

    @staticmethod
    def _tanh(x, r, a):
        return np.tanh(a * (x - r))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        data=st.lists(
            st.tuples(
                st.floats(-10.0, 10.0),  # root
                st.floats(1e-3, 10.0),  # distance of lo below the root
                st.floats(1e-3, 10.0),  # distance of hi above the root
                st.floats(0.1, 5.0),  # linear term / steepness
            ),
            min_size=1,
            max_size=8,
        ),
        tanh=st.booleans(),
    )
    def test_known_roots(self, data, tanh):
        r, below, above, a = (np.array(c) for c in zip(*data))
        f = self._tanh if tanh else self._cubic
        lo, hi = r - below, r + above
        x, ok = mo.chandrupatla(f, lo, hi, (r, a))
        assert ok.all()
        # The values at the bracket ends, when passed, give the same roots.
        with_ends, ok = mo.chandrupatla(f, lo, hi, (r, a), ends=(f(lo, r, a), f(hi, r, a)))
        assert ok.all() and np.array_equal(with_ends, x)
        assert np.all(np.abs(x - r) <= 8 * np.spacing(np.abs(r)) + 4 * np.finfo(float).tiny)
        # Each root is frozen once converged: alone it comes out the same.
        for k in range(len(r)):
            alone, _ = mo.chandrupatla(f, lo[k], hi[k], (r[k], a[k]))
            assert alone == x[k]
        # A bracket that holds no sign change is reported, not trusted.
        x, ok = mo.chandrupatla(f, r + below, r + below + above, (r, a))
        assert not ok.any()

    def test_empty_brackets_return_at_once(self):
        calls = []
        x, ok = mo.chandrupatla(lambda x: calls.append(x.size) or x, np.empty(0), np.empty(0))
        assert x.shape == ok.shape == (0,)
        assert len(calls) == 2

    def test_root_within_tolerance_of_bracket_end(self):
        # The estimate may be the bracket end; the root it stands for lies
        # strictly inside, between the ends of the final bracket.
        x, ok = mo.chandrupatla(lambda x: x - (1.0 - 1e-16), 0.0, 1.0)
        assert x == 1.0 and ok
        # A root exactly at an end is not inside the open bracket.
        for root in (0.0, 1.0):
            x, ok = mo.chandrupatla(lambda x: x - root, 0.0, 1.0)
            assert x == root and not ok


class TestSpecTypes:
    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            mo.FiberAxisGeometry(-1e-6, 0.5)
        with pytest.raises(ValueError):
            mo.FiberAxisGeometry(1.75e-6, 1.2)

    def test_fiber_axis_lookup(self, fiber_40cm, fast_geometry, slow_geometry):
        assert fiber_40cm.axis_geometry("fast") is fast_geometry
        assert fiber_40cm.axis_geometry("slow") is slow_geometry
        with pytest.raises(ValueError):
            fiber_40cm.axis_geometry("diagonal")


class TestHe11IndexGradient:
    @staticmethod
    def _central_difference(solve, geometry, j, rel_step=1e-5):
        """d solve(wl, geometry)/d(core_diameter, air_filling_fraction)[j], all 192 points."""
        wl = _band_wavelengths(192)
        x = np.array([geometry.core_diameter, geometry.air_filling_fraction])
        h = np.zeros(2)
        h[j] = rel_step * x[j]
        up, down = mo.FiberAxisGeometry(*(x + h)), mo.FiberAxisGeometry(*(x - h))
        return (solve(wl, up) - solve(wl, down)) / (2.0 * h[j])

    @pytest.mark.parametrize("core, fill", REFERENCE_GEOMETRIES[2:])
    def test_matches_central_difference(self, core, fill):
        # The four corners of the fit box and (1.65 um, 0.46).
        geometry = mo.FiberAxisGeometry(core, fill)
        wl = _band_wavelengths(192)
        n_clad, d_clad = mo._fsm_index_gradient(wl, geometry)
        assert np.array_equal(n_clad, mo.fsm_cladding_index_grid(wl, geometry))
        grad = mo.he11_index_gradient(wl, geometry, mo.he11_effective_index_grid(wl, geometry))
        assert grad.shape == (192, 2)
        for solve, analytic in (
            (mo.fsm_cladding_index_grid, d_clad),
            (mo.he11_effective_index_grid, grad),
        ):
            for j in range(2):
                numeric = self._central_difference(solve, geometry, j)
                assert np.abs(analytic[:, j] - numeric).max() < 1e-7 * np.abs(numeric).max()
