import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from sfwmkit import hom
from sfwmkit import jsa as jsamod
from sfwmkit import material_optics as mo
from sfwmkit.errors import FitError

THETAS = np.deg2rad(np.linspace(0.0, 90.0, 19))
REP_RATE = 76e6


def _gaussian_jsa(correlation, n=96, center_s=2.6e15, center_i=2.2e15, n_signal=None):
    grid = jsamod.SpectralGrid(
        signal_omegas=np.linspace(center_s - 5e13, center_s + 5e13, n_signal or n),
        idler_omegas=np.linspace(center_i - 5e13, center_i + 5e13, n),
    )
    om_s, om_i = np.meshgrid(grid.signal_omegas, grid.idler_omegas, indexing="ij")
    a = 1.0 / (2 * (1e13) ** 2)
    amp = np.exp(
        -a * ((om_s - center_s) ** 2 + (om_i - center_i) ** 2)
        - 2 * correlation * a * (om_s - center_s) * (om_i - center_i)
    )
    norm = np.sqrt(np.sum(np.abs(amp) ** 2) * grid.signal_spacing * grid.idler_spacing)
    return jsamod.JointSpectralAmplitude(grid=grid, amplitude=amp / norm)


class TestHeraldedDensityMatrix:
    def test_unit_trace(self):
        jsa = _gaussian_jsa(0.5)
        rho = hom.heralded_density_matrix(jsa)
        assert np.trace(rho).real * jsa.grid.idler_spacing == pytest.approx(1.0, abs=1e-12)

    def test_hermitian(self):
        jsa = _gaussian_jsa(0.5)
        rho = hom.heralded_density_matrix(jsa)
        assert np.abs(rho - rho.conj().T).max() < 1e-20

    def test_purity_equals_schmidt_purity(self):
        jsa = _gaussian_jsa(0.6)
        rho = hom.heralded_density_matrix(jsa)
        schmidt = jsamod.schmidt_decompose(jsa).purity
        trace_rho_sq = np.real(np.sum(rho * rho.T)) * jsa.grid.idler_spacing**2
        assert trace_rho_sq == pytest.approx(schmidt, abs=1e-8)


class TestOverlap:
    def test_self_overlap_is_purity(self):
        jsa = _gaussian_jsa(0.45)
        assert hom.overlap_p(jsa, jsa) == pytest.approx(
            jsamod.schmidt_decompose(jsa).purity, abs=1e-8
        )

    def test_symmetry(self):
        a = _gaussian_jsa(0.3)
        b = _gaussian_jsa(0.6)
        assert hom.overlap_p(a, b) == pytest.approx(hom.overlap_p(b, a), abs=1e-12)

    def test_bounded_by_purities(self):
        a = _gaussian_jsa(0.3)
        b = _gaussian_jsa(0.6)
        p = hom.overlap_p(a, b)
        assert 0 < p <= 1

    def test_matches_density_matrix_trace(self):
        # Two different sources on one idler axis, with 96 and 128 signal
        # samples over different signal spans: the closed form against its
        # definition Tr[rho_a rho_b] from the density matrices.
        a = _gaussian_jsa(0.7, n_signal=96)
        b = _gaussian_jsa(-0.3, center_s=2.61e15, n_signal=128)
        rho_a = hom.heralded_density_matrix(a)
        rho_b = hom.heralded_density_matrix(b)
        trace = np.real(np.sum(rho_a * rho_b.T)) * a.grid.idler_spacing**2
        assert hom.overlap_p(a, b) == pytest.approx(trace, rel=1e-12)

    def test_mismatched_idler_axes_rejected(self):
        a = _gaussian_jsa(0.3)
        b = _gaussian_jsa(0.3, center_i=2.21e15)
        with pytest.raises(ValueError):
            hom.overlap_p(a, b)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(correlation=st.floats(-0.9, 0.9), n=st.integers(64, 128))
    def test_self_overlap_is_purity_property(self, correlation, n):
        jsa = _gaussian_jsa(correlation, n=n)
        assert hom.overlap_p(jsa, jsa) == pytest.approx(
            jsamod.schmidt_decompose(jsa).purity, rel=1e-10
        )

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        corr_a=st.floats(-0.9, 0.9),
        corr_b=st.floats(-0.9, 0.9),
        shift_s=st.floats(-2e13, 2e13),
    )
    def test_overlap_bounded_by_geometric_mean_of_purities(self, corr_a, corr_b, shift_s):
        # Cauchy-Schwarz for the trace inner product: Tr[rho_a rho_b] <= sqrt(P_a P_b).
        # The two sources share the idler axis; the signal axis may differ.
        a = _gaussian_jsa(corr_a)
        b = _gaussian_jsa(corr_b, center_s=2.6e15 + shift_s)
        bound = np.sqrt(hom.overlap_p(a, a) * hom.overlap_p(b, b))
        assert hom.overlap_p(a, b) <= bound * (1 + 1e-12)


class TestFourFoldProbability:
    def test_visibility_endpoints(self):
        # theta = 45 deg kills the interference term; theta = 0 maximizes it.
        params = hom.HomModelParams(p=0.8, chi=0.0)
        assert hom.four_fold_probability(np.pi / 4, params) == pytest.approx(
            0.5 * (1 - 0.8)
        )
        assert hom.four_fold_probability(0.0, params) == pytest.approx(1.0)

    def test_p_zero_flat_modulation(self):
        params = hom.HomModelParams(p=0.0, chi=0.0)
        values = hom.four_fold_probability(THETAS, params)
        assert values.min() == pytest.approx(0.5)
        assert values.max() == pytest.approx(1.0)

    @pytest.mark.parametrize("chi", [np.nan, np.inf, -np.inf])
    def test_non_finite_chi_rejected(self, chi):
        with pytest.raises(ValueError, match="^chi must be finite, got"):
            hom.HomModelParams(p=0.9, chi=chi)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            hom.HomModelParams(p=1.2)


def _dataset(**columns):
    """Two-row dataset with valid counts, overridden by `columns`."""
    values = dict(
        theta=[0.0, 0.5],
        four_fold=[80.0, 60.0],
        two_fold_ab=[1000.0, 1000.0],
        two_fold_cd=[1100.0, 1100.0],
        two_fold_ad=[900.0, 900.0],
        two_fold_bc=[950.0, 950.0],
        duration=[10.0, 10.0],
        repetition_rate=1e6,
    )
    values.update(columns)
    return hom.HomDataset(**values)


class TestHomDatasetValidation:
    @pytest.mark.parametrize(
        "column", ["four_fold", "two_fold_ab", "two_fold_cd", "two_fold_ad", "two_fold_bc"]
    )
    def test_negative_count_rejected(self, column):
        with pytest.raises(ValueError, match=f"{column} must be finite and >= 0, got -5.0"):
            _dataset(**{column: [80.0, -5.0]})

    @pytest.mark.parametrize("duration", [0.0, -60.0])
    def test_non_positive_duration_rejected(self, duration):
        with pytest.raises(ValueError, match="duration must be finite and > 0"):
            _dataset(duration=[10.0, duration])

    @pytest.mark.parametrize("column", ["theta", "two_fold_bc", "duration"])
    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_value_rejected(self, column, value):
        with pytest.raises(ValueError, match=f"{column} must be finite"):
            _dataset(**{column: [1.0, value]})

    @pytest.mark.parametrize("rate", [0.0, -76e6, np.nan, np.inf])
    def test_bad_repetition_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="repetition_rate must be finite and > 0"):
            _dataset(repetition_rate=rate)

    def test_unequal_column_lengths_rejected(self):
        with pytest.raises(ValueError, match="^all dataset columns must have equal length$"):
            _dataset(duration=[10.0, 10.0, 10.0])

    def test_zero_counts_accepted(self):
        # A row with no four-fold events is data, not an error.
        assert len(_dataset(four_fold=[0.0, 60.0]).theta) == 2


class TestNormalizeDataset:
    # The normalization `fit_purity` applies to the rows it keeps.
    KEPT = np.array([True])

    def _single_row(self, n4=80.0, nab=1000.0, ncd=1100.0, nad=900.0, nbc=950.0):
        return hom.HomDataset(
            theta=np.array([0.3]),
            four_fold=np.array([n4]),
            two_fold_ab=np.array([nab]),
            two_fold_cd=np.array([ncd]),
            two_fold_ad=np.array([nad]),
            two_fold_bc=np.array([nbc]),
            duration=np.array([10.0]),
            repetition_rate=1e6,
        )

    def test_hand_computed_row(self):
        data = self._single_row()
        p4, *_ = hom._normalize(data, 0.1, self.KEPT)
        cc = np.cos(0.2) ** 2 * np.cos(0.6) ** 2
        denom = 1000.0 * 1100.0 + 900.0 * 950.0
        expected = 80.0 * (1 + cc) * 1e6 * 10.0 / (2 * denom)
        assert p4[0] == pytest.approx(expected, rel=1e-12)

    def test_scaling_homogeneity(self):
        # Scaling all counts by s scales P4 by 1/s.
        base = self._single_row()
        scaled = self._single_row(n4=160.0, nab=2000.0, ncd=2200.0, nad=1800.0, nbc=1900.0)
        p4_base, *_ = hom._normalize(base, 0.0, self.KEPT)
        p4_scaled, *_ = hom._normalize(scaled, 0.0, self.KEPT)
        assert p4_scaled[0] == pytest.approx(p4_base[0] / 2, rel=1e-12)

    def test_zero_twofold_row_excluded(self, monkeypatch):
        # fit_purity warns once, at the caller, and normalizes only the rows
        # whose accidental denominator is nonzero.
        data = hom.simulate_counts(
            hom.HomModelParams(p=0.86, chi=0.07),
            np.array([0.1, 0.2, 0.5, 0.7]),
            1e5,
            10.0,
            REP_RATE,
            seed=0,
        )
        columns = ("two_fold_ab", "two_fold_cd", "two_fold_ad", "two_fold_bc")
        data = dataclasses.replace(
            data, **{name: getattr(data, name) * [1.0, 0.0, 1.0, 1.0] for name in columns}
        )
        normalized = []
        original = hom._normalize

        def spy(data, chi, kept):
            normalized.append((kept.tolist(), original(data, chi, kept)))
            return normalized[-1][1]

        monkeypatch.setattr(hom, "_normalize", spy)
        with pytest.warns(UserWarning, match="zero two-fold") as record:
            hom.fit_purity(data)
        assert len(record) == 1
        assert record[0].filename == __file__
        assert normalized
        for kept, (p4, *_) in normalized:
            assert kept == [True, False, True, True]
            assert len(p4) == 3

    def test_sigma_positive_when_counts_present(self):
        _, sigma, *_ = hom._normalize(self._single_row(), 0.0, self.KEPT)
        assert sigma[0] > 0

    def test_empty_row_sigma_zero(self):
        # A kept row with no four-folds has P4 = 0, so both variance terms are 0.
        p4, sigma, *_ = hom._normalize(self._single_row(n4=0.0), 0.0, self.KEPT)
        assert p4[0] == 0.0 and sigma[0] == 0.0


def _least_squares_fit(theta, p4, sigma, x0):
    """Reference: bounded weighted (p, chi) least squares on normalized data."""

    def residuals(x):
        p, chi = x
        model = 0.5 * ((1 - p) + (1 + p) * np.cos(2 * chi) ** 2 * np.cos(2 * theta) ** 2)
        return (model - p4) / sigma

    fit = least_squares(
        residuals,
        x0=x0,
        bounds=([0.0, -np.pi / 4], [1.0, np.pi / 4]),
        xtol=1e-15,
        ftol=1e-15,
        gtol=1e-15,
    )
    assert fit.success
    return fit.x[0], abs(fit.x[1])


def _p4_per_count(data, kept, chi):
    """P4 / N4 of the kept rows at normalization offset chi."""
    theta = data.theta[kept]
    denom = (data.two_fold_ab * data.two_fold_cd + data.two_fold_ad * data.two_fold_bc)[kept]
    cc = np.cos(2 * chi) ** 2 * np.cos(2 * theta) ** 2
    return (1 + cc) * data.repetition_rate * data.duration[kept] / (2 * denom)


class TestFitPurity:
    def test_noiseless_round_trip(self):
        params = hom.HomModelParams(p=0.86, chi=0.07)
        data = hom.simulate_counts(
            params, THETAS, 5e4, 60.0, REP_RATE, seed=3, noiseless=True
        )
        result = hom.fit_purity(data)
        assert result.p == pytest.approx(0.86, abs=1e-6)
        assert result.chi == pytest.approx(0.07, abs=1e-6)
        assert not result.p_at_boundary

    def test_excluded_rows_warn_once_for_the_caller(self):
        # However many fits at fixed chi one fit_purity runs, it warns once,
        # at the line that called it, not at a line in hom.py; the fit is that
        # of the surviving rows alone.
        params = hom.HomModelParams(p=0.86, chi=0.07)
        data = hom.simulate_counts(params, THETAS, 1.2e6, 60.0, REP_RATE, seed=1)
        columns = ("two_fold_ab", "two_fold_cd", "two_fold_ad", "two_fold_bc")
        row = np.arange(len(THETAS)) == 4
        zeroed = {name: np.where(row, 0.0, getattr(data, name)) for name in columns}
        with pytest.warns(UserWarning) as record:
            result = hom.fit_purity(dataclasses.replace(data, **zeroed))
        assert result.n_iterations > 2
        assert [str(w.message) for w in record] == [
            "excluding 1 rows with zero two-fold coincidences"
        ]
        assert record[0].filename == __file__
        arrays = [f.name for f in dataclasses.fields(data) if f.name != "repetition_rate"]
        survivors = dataclasses.replace(data, **{name: getattr(data, name)[~row] for name in arrays})
        assert len(survivors.theta) == len(THETAS) - 1
        assert hom.fit_purity(survivors) == result

    def test_noisy_recovery_within_errors(self):
        params = hom.HomModelParams(p=0.86, chi=0.07)
        data = hom.simulate_counts(params, THETAS, 1.2e6, 60.0, REP_RATE, seed=42)
        result = hom.fit_purity(data)
        assert abs(result.p - 0.86) < 3 * result.sigma_p
        assert result.sigma_p < 0.05

    def test_boundary_flag(self):
        # p -> 1 data pushes the fit onto the boundary of the allowed range.
        params = hom.HomModelParams(p=1.0, chi=0.0)
        data = hom.simulate_counts(
            params, THETAS, 5e4, 60.0, REP_RATE, seed=0, noiseless=True
        )
        result = hom.fit_purity(data)
        assert result.p_at_boundary

    def test_root_failure_raises(self, monkeypatch):
        params = hom.HomModelParams(p=0.86, chi=0.07)
        data = hom.simulate_counts(
            params, THETAS, 5e4, 60.0, REP_RATE, seed=3, noiseless=True
        )
        monkeypatch.setattr(
            hom, "chandrupatla", lambda *args, **kwargs: (np.array(0.07), np.array(False))
        )
        with pytest.raises(FitError, match="no self-consistent chi"):
            hom.fit_purity(data)

    def test_noiseless_low_overlap_round_trip(self):
        # Far from p = 1 and chi = 0, where alternating normalization and
        # fitting moved chi too slowly to converge.
        params = hom.HomModelParams(p=0.1, chi=0.3)
        data = hom.simulate_counts(params, THETAS, 1.2e6, 60.0, REP_RATE, noiseless=True)
        result = hom.fit_purity(data)
        assert result.p == pytest.approx(0.1, abs=1e-6)
        assert result.chi == pytest.approx(0.3, abs=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_least_squares_at_returned_chi(self, seed):
        params = hom.HomModelParams(p=0.86, chi=0.07)
        data = hom.simulate_counts(params, THETAS, 1.2e6, 60.0, REP_RATE, seed=seed)
        result = hom.fit_purity(data)
        p4, sigma, *_ = hom._normalize(data, result.chi, np.ones(len(THETAS), dtype=bool))
        assert np.all(sigma > 0)
        p, _ = _least_squares_fit(data.theta, p4, sigma, (0.8, result.chi))
        assert p == pytest.approx(result.p, abs=1e-8)

    def test_pinned_chi(self):
        # Seeded data whose fit at chi = 0 wants cos^2(2 chi) > 1.
        params = hom.HomModelParams(p=0.9, chi=0.0)
        data = hom.simulate_counts(params, THETAS, 1.2e6, 60.0, REP_RATE, seed=1)
        result = hom.fit_purity(data)
        assert result.chi == 0.0
        assert result.sigma_chi == np.inf
        assert np.isfinite(result.sigma_p) and 0 < result.sigma_p < 0.05
        assert result.n_iterations == 1

    def test_root_reuses_end_fits(self, monkeypatch):
        # The fits at chi = 0 and pi/4 are the root's bracket-end values;
        # fitting there again moves nothing but the fit count.
        params = hom.HomModelParams(p=0.86, chi=0.07)
        data = hom.simulate_counts(params, THETAS, 1.2e6, 60.0, REP_RATE, seed=2)
        result = hom.fit_purity(data)
        monkeypatch.setattr(
            hom, "chandrupatla", lambda *args, ends=None, **kw: mo.chandrupatla(*args, **kw)
        )
        again = hom.fit_purity(data)
        assert again == dataclasses.replace(result, n_iterations=result.n_iterations + 2)

    def test_empty_rows_are_self_consistent(self):
        # A few four-fold counts per row: five rows count none, and their
        # sigmas come from the model at the fitted point.
        params = hom.HomModelParams(p=0.8, chi=0.2)
        data = hom.simulate_counts(params, THETAS, 6e4, 60.0, REP_RATE, seed=1)
        assert np.sum(data.four_fold == 0) >= 3
        result = hom.fit_purity(data)
        kept = np.ones(len(THETAS), dtype=bool)
        p4, sigma, *_ = hom._normalize(data, result.chi, kept)
        theta = data.theta
        model = hom.four_fold_probability(theta, hom.HomModelParams(result.p, result.chi))
        empty = data.four_fold[kept] == 0
        sigma[empty] = np.sqrt(model * _p4_per_count(data, kept, result.chi))[empty]
        p, chi = _least_squares_fit(theta, p4, sigma, (0.8, result.chi))
        assert p == pytest.approx(result.p, abs=1e-9)
        assert chi == pytest.approx(result.chi, abs=1e-9)

    def test_singular_normal_equations_raise_fit_error(self):
        params = hom.HomModelParams(p=0.8, chi=0.0)
        data = hom.simulate_counts(params, np.zeros(3), 1.2e6, 60.0, REP_RATE, noiseless=True)
        with pytest.raises(FitError, match="singular normal equations"):
            hom.fit_purity(data)

    def test_too_few_rows_raises(self):
        params = hom.HomModelParams(p=0.8, chi=0.0)
        data = hom.simulate_counts(
            params, THETAS[:2], 5e4, 60.0, REP_RATE, seed=0, noiseless=True
        )
        with pytest.raises(FitError):
            hom.fit_purity(data)


class TestSimulateCounts:
    @pytest.mark.parametrize(
        "argument, value, message",
        [
            ("two_fold_mean", 0.0, "two_fold_mean must be finite and > 0, got 0.0"),
            ("two_fold_mean", -5.0, "two_fold_mean must be finite and > 0, got -5.0"),
            ("two_fold_mean", np.inf, "two_fold_mean must be finite and > 0, got inf"),
            ("duration", 0.0, "duration must be finite and > 0, got 0.0"),
            ("duration", np.nan, "duration must be finite and > 0, got nan"),
            ("repetition_rate", np.nan, "repetition_rate must be finite and > 0, got nan"),
            ("repetition_rate", -76e6, "repetition_rate must be finite and > 0, got -76000000.0"),
            ("thetas", [0.0, np.nan, 0.5], "thetas must be finite, got nan"),
            ("thetas", [0.0, -np.inf], "thetas must be finite, got -inf"),
        ],
    )
    def test_bad_argument_named_before_any_arithmetic(self, argument, value, message):
        arguments = dict(
            thetas=THETAS, two_fold_mean=1e5, duration=30.0, repetition_rate=REP_RATE
        )
        arguments[argument] = value
        params = hom.HomModelParams(p=0.8, chi=0.05)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            hom.simulate_counts(params, **arguments)

    @pytest.mark.parametrize("noiseless", [False, True])
    @pytest.mark.parametrize(
        "arguments, message",
        [
            (dict(two_fold_mean=1e200), "two_fold_mean must be below 9.2234e+18"),
            (dict(two_fold_mean=1e20), "two_fold_mean must be below 9.2234e+18"),
            (
                dict(duration=1e-300),
                "two_fold_mean 100000.0, duration 1e-300 and repetition_rate 76000000.0 give "
                "a four-fold Poisson mean of ",
            ),
            (
                dict(repetition_rate=1e-320),
                "two_fold_mean 100000.0, duration 30.0 and repetition_rate 1e-320 give "
                "a four-fold Poisson mean of inf",
            ),
        ],
    )
    def test_mean_beyond_numpy_poisson_named_before_drawing(self, arguments, message, noiseless):
        # Finite arguments whose Poisson means overflow or exceed what numpy
        # can draw: a ValueError with the arguments, no OverflowError and no
        # numpy warning (pytest turns a RuntimeWarning into an error).
        kwargs = dict(thetas=THETAS, two_fold_mean=1e5, duration=30.0, repetition_rate=REP_RATE)
        kwargs.update(arguments)
        params = hom.HomModelParams(p=0.8, chi=0.05)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            hom.simulate_counts(params, noiseless=noiseless, **kwargs)

    def test_largest_poisson_mean_is_drawn(self):
        # The bound is numpy's own: just below it the two-fold counts are
        # drawn, at it the argument is named.
        params = hom.HomModelParams(p=0.8, chi=0.05)
        largest = np.nextafter(hom._POISSON_LAM_MAX, 0.0)
        data = hom.simulate_counts(params, THETAS, largest, 1e10, 1e12, seed=3)
        assert np.all(data.two_fold_ab > 0.9 * largest)
        with pytest.raises(ValueError, match="two_fold_mean must be below"):
            hom.simulate_counts(params, THETAS, hom._POISSON_LAM_MAX, 1e10, 1e12)

    def test_seed_determinism(self):
        params = hom.HomModelParams(p=0.8, chi=0.05)
        a = hom.simulate_counts(params, THETAS, 1e5, 30.0, REP_RATE, seed=7)
        b = hom.simulate_counts(params, THETAS, 1e5, 30.0, REP_RATE, seed=7)
        assert np.array_equal(a.four_fold, b.four_fold)
        assert np.array_equal(a.two_fold_ab, b.two_fold_ab)

    def test_different_seeds_differ(self):
        params = hom.HomModelParams(p=0.8, chi=0.05)
        a = hom.simulate_counts(params, THETAS, 1e5, 30.0, REP_RATE, seed=7)
        b = hom.simulate_counts(params, THETAS, 1e5, 30.0, REP_RATE, seed=8)
        assert not np.array_equal(a.four_fold, b.four_fold)

    def test_law_of_large_numbers(self):
        # Average of many replications approaches the noiseless means.
        params = hom.HomModelParams(p=0.9, chi=0.0)
        exact = hom.simulate_counts(
            params, THETAS, 1.2e6, 60.0, REP_RATE, seed=0, noiseless=True
        )
        totals = np.zeros_like(exact.four_fold)
        n_rep = 400
        for seed in range(n_rep):
            totals += hom.simulate_counts(
                params, THETAS, 1.2e6, 60.0, REP_RATE, seed=seed
            ).four_fold
        means = totals / n_rep
        # Shot noise on the mean is ~ sqrt(N / n_rep) ~ 1; allow 5 sigma.
        tol = 5 * np.sqrt(exact.four_fold / n_rep)
        assert np.all(np.abs(means - exact.four_fold) < tol + 1e-9)
