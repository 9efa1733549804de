"""End-to-end acceptance gates, one test per criterion.

Each test prints a single PASS/FAIL line (visible with -s or on failure)
before asserting, so the whole gate reads as a checklist under pytest -v.
Criterion 5's long-fiber parts are pinned as follows.  5b and 5c pump the
1 m fiber at its design point, the group-velocity-matched wavelength (the
pump_1m fixture); pumped off that point the phasematch ridge tilts and the
purity falls.  5d checks the 100 m purity against a brute-force reference
(purity_reference.py), on a uniform grid with a closed-form pump envelope,
since the curved ridge of any dispersion consistent with criteria 1-2 makes
the 100 m purity small rather than near 1 (see README, caveat 1).
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from sfwmkit import cli, fiber_fit, hom
from sfwmkit import jsa as jsamod
from sfwmkit.constants import C_LIGHT
from sfwmkit.dispersion import (
    Axis,
    DispersionProfile,
    axis_profile,
    birefringence,
    gvd,
    zero_gvd_wavelengths,
)
from sfwmkit.material_optics import FiberAxisGeometry, FiberSpec
from sfwmkit.phasematch import (
    PumpSpec,
    delta_k,
    gvm_pump_wavelength,
    phasematch_curve,
    solve_phasematch,
)
from purity_reference import reference_purity


def _report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_zero_gvd_wavelength(fiber_40cm):
    start = time.perf_counter()
    profile = DispersionProfile.from_geometry(fiber_40cm.fast_axis)
    roots = zero_gvd_wavelengths(profile, (560e-9, 1000e-9))
    elapsed = time.perf_counter() - start
    lam = roots[0] if roots else float("nan")
    ok = len(roots) >= 1 and abs(lam - 750e-9) < 25e-9 and elapsed < 5.0
    _report(1, ok, f"zero-GVD {lam * 1e9:.2f} nm, {elapsed:.2f} s")


def test_criterion_02_phasematch_at_785(fiber_40cm):
    start = time.perf_counter()
    point = solve_phasematch(785e-9, fiber_40cm)
    elapsed = time.perf_counter() - start
    ok = (
        abs(point.signal_wavelength - 720e-9) < 15e-9
        and abs(point.idler_wavelength - 860e-9) < 15e-9
        and elapsed < 5.0
    )
    _report(
        2,
        ok,
        f"signal {point.signal_wavelength * 1e9:.2f} nm, "
        f"idler {point.idler_wavelength * 1e9:.2f} nm, {elapsed:.2f} s",
    )


def test_criterion_03_flat_idler(fiber_40cm):
    start = time.perf_counter()
    points = phasematch_curve((765e-9, 795e-9), 31, fiber_40cm)
    elapsed = time.perf_counter() - start
    idlers = np.array([p.idler_wavelength for p in points])
    excursion = idlers.max() - idlers.min()
    ok = len(points) == 31 and excursion < 10e-9 and elapsed < 30.0
    _report(3, ok, f"idler excursion {excursion * 1e9:.3f} nm, {elapsed:.2f} s")


def test_criterion_04_gvm_pump_wavelength(fiber_40cm):
    start = time.perf_counter()
    lam = gvm_pump_wavelength(fiber_40cm)
    elapsed = time.perf_counter() - start
    ok = abs(lam - 783e-9) < 3e-9 and elapsed < 30.0
    _report(4, ok, f"lambda_p0 {lam * 1e9:.3f} nm, {elapsed:.2f} s")


def _gated_purity(pump, fiber, n=256):
    base = jsamod.schmidt_decompose(
        jsamod.build_jsa(pump, fiber, grid=jsamod.adaptive_grid(pump, fiber, n, n))
    ).purity
    refined = jsamod.schmidt_decompose(
        jsamod.build_jsa(
            pump, fiber, grid=jsamod.adaptive_grid(pump, fiber, 2 * n, 2 * n)
        )
    ).purity
    return base, abs(refined - base)


def test_criterion_05a_purity_40cm(pump_40cm, fiber_40cm):
    start = time.perf_counter()
    purity, drift = _gated_purity(pump_40cm, fiber_40cm)
    elapsed = time.perf_counter() - start
    ok = abs(purity - 0.86) < 0.05 and drift < 1e-3 and elapsed < 120.0
    _report(
        "5a", ok, f"40 cm purity {purity:.4f} (drift {drift:.1e}), {elapsed:.1f} s"
    )


def test_criterion_05b_purity_1m(pump_1m, fiber_1m):
    start = time.perf_counter()
    purity, drift = _gated_purity(pump_1m, fiber_1m)
    elapsed = time.perf_counter() - start
    ok = abs(purity - 0.90) < 0.05 and drift < 1e-3 and elapsed < 120.0
    _report("5b", ok, f"1 m purity {purity:.4f} (drift {drift:.1e}), {elapsed:.1f} s")


def test_criterion_05c_purity_increase(pump_40cm, fiber_40cm, pump_1m, fiber_1m):
    p40, _ = _gated_purity(pump_40cm, fiber_40cm)
    p1m, _ = _gated_purity(pump_1m, fiber_1m)
    diff = p1m - p40
    ok = 0.02 <= diff <= 0.06
    _report("5c", ok, f"purity increase {diff:+.4f}")


def test_criterion_05d_purity_100m(pump_40cm, fiber_40cm):
    start = time.perf_counter()
    fiber = dataclasses.replace(fiber_40cm, length=100.0)
    purity, drift = _gated_purity(pump_40cm, fiber)
    elapsed = time.perf_counter() - start
    reference = reference_purity(pump_40cm, fiber)

    # Ridge curvature d^2(dk)/dw_s^2 at fixed idler, k''_p / 2 - k''_s: the
    # reason the 100 m purity is small.
    profile = axis_profile(fiber, Axis.FAST)
    signal = solve_phasematch(pump_40cm.center_wavelength, fiber).signal_wavelength
    curvature = 0.5 * gvd(pump_40cm.center_omega, profile) - gvd(
        2.0 * np.pi * C_LIGHT / signal, profile
    )

    ok = abs(purity - reference) < 0.01 and drift < 1e-3 and elapsed < 120.0
    _report(
        "5d",
        ok,
        f"100 m purity {purity:.5f} vs reference {reference:.5f} "
        f"(drift {drift:.1e}, curvature {curvature:.2e} s^2/m), {elapsed:.1f} s",
    )


def test_criterion_06_birefringence_order(fast_geometry, slow_geometry):
    fiber = FiberSpec(fast_geometry, slow_geometry, 99.0, 0.4, None)
    dn = birefringence(785e-9, fiber)
    ok = dn > 0 and 1.5e-5 / 3 < dn < 1.5e-5 * 3
    _report(6, ok, f"geometric birefringence {dn:.3e}")


def test_criterion_07_schmidt_suite(pump_40cm, fiber_40cm):
    # Separable double Gaussian: purity exactly 1.
    grid = jsamod.SpectralGrid(
        np.linspace(2.55e15, 2.65e15, 128), np.linspace(2.15e15, 2.25e15, 128)
    )
    om_s, om_i = np.meshgrid(grid.signal_omegas, grid.idler_omegas, indexing="ij")
    amp = np.exp(
        -((om_s - 2.6e15) ** 2) / (2 * 1e13**2)
        - ((om_i - 2.2e15) ** 2) / (2 * 8e12**2)
    )
    amp /= np.sqrt(np.sum(amp**2) * grid.signal_spacing * grid.idler_spacing)
    separable = jsamod.schmidt_decompose(
        jsamod.JointSpectralAmplitude(grid=grid, amplitude=amp)
    )
    sep_ok = abs(separable.purity - 1.0) < 1e-9

    # Correlated double Gaussian versus the Hermite-mode closed form.
    rho = 0.6
    a = 1.0 / (2 * 1e13**2)
    corr = np.exp(
        -a * ((om_s - 2.6e15) ** 2 + (om_i - 2.2e15) ** 2)
        - 2 * rho * a * (om_s - 2.6e15) * (om_i - 2.2e15)
    )
    corr /= np.sqrt(np.sum(corr**2) * grid.signal_spacing * grid.idler_spacing)
    mehler = jsamod.schmidt_decompose(
        jsamod.JointSpectralAmplitude(grid=grid, amplitude=corr)
    )
    mehler_ok = abs(mehler.purity - np.sqrt(1 - rho**2)) < 1e-4

    paper = jsamod.schmidt_decompose(
        jsamod.build_jsa(
            pump_40cm, fiber_40cm, jsamod.adaptive_grid(pump_40cm, fiber_40cm)
        )
    )
    sum_ok = abs(sum(paper.coefficients) - 1.0) < 1e-10
    _, drift = _gated_purity(pump_40cm, fiber_40cm)
    drift_ok = drift < 1e-3

    ok = sep_ok and mehler_ok and sum_ok and drift_ok
    _report(
        7,
        ok,
        f"separable {separable.purity:.2e}->1, mehler err "
        f"{abs(mehler.purity - np.sqrt(1 - rho**2)):.1e}, sum err "
        f"{abs(sum(paper.coefficients) - 1):.1e}, drift {drift:.1e}",
    )


def test_criterion_08_overlap_identity(fiber_40cm):
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(5):
        pump = PumpSpec(
            center_wavelength=rng.uniform(781e-9, 786e-9),
            gaussian_fwhm=20e-9,
            filter_width=rng.uniform(5e-9, 10e-9),
        )
        fiber = dataclasses.replace(fiber_40cm, length=rng.uniform(0.3, 1.2))
        jsa = jsamod.build_jsa(pump, fiber, jsamod.adaptive_grid(pump, fiber))
        gap = abs(
            hom.overlap_p(jsa, jsa) - jsamod.schmidt_decompose(jsa).purity
        )
        worst = max(worst, gap)
    ok = worst < 1e-6
    _report(8, ok, f"max |overlap - purity| = {worst:.2e} over 5 configs")


def test_criterion_09_hom_round_trip_and_coverage():
    thetas = np.deg2rad(np.linspace(0.0, 90.0, 19))
    truth = hom.HomModelParams(p=0.86, chi=0.07)
    exact = hom.simulate_counts(truth, thetas, 1.2e6, 60.0, 76e6, seed=0, noiseless=True)
    fit = hom.fit_purity(exact)
    clean_ok = abs(fit.p - truth.p) < 1e-6 and abs(fit.chi - truth.chi) < 1e-6

    # Coverage is gated on p only: chi enters the model through cos^2(2 chi),
    # so a small chi is estimated with a one-sided bias and its Gaussian
    # error bar does not admit a frequentist coverage statement.
    within = 0
    for seed in range(100):
        data = hom.simulate_counts(truth, thetas, 1.2e6, 60.0, 76e6, seed=seed)
        result = hom.fit_purity(data)
        if abs(result.p - truth.p) < 3 * result.sigma_p:
            within += 1
    ok = clean_ok and within >= 99
    _report(9, ok, f"noiseless recovery {clean_ok}, 3-sigma coverage {within}/100")


def test_criterion_10_mismatch_identities(fast_geometry, fiber_40cm):
    fiber0 = FiberSpec(fast_geometry, fast_geometry, 99.0, 0.4, 0.0)
    om_p = 2 * np.pi * C_LIGHT / 785e-9
    degenerate = delta_k(om_p, om_p, om_p, fiber0)
    om_s = 2 * np.pi * C_LIGHT / 726e-9
    om_i = 2 * om_p - om_s
    d0 = delta_k(om_p, om_s, om_i, fiber_40cm, peak_power=0.0)
    d1 = delta_k(om_p, om_s, om_i, fiber_40cm, peak_power=173.054)
    additivity = d1 - d0 - (2.0 / 3.0) * fiber_40cm.gamma * 1e-3 * 173.054
    ok = degenerate == 0.0 and abs(additivity) < 1e-8
    _report(10, ok, f"degenerate {degenerate}, additivity err {additivity:.2e}")


def test_criterion_11_fiber_fit_round_trip(rng):
    dn = -1.7e-5
    pumps = np.linspace(772e-9, 794e-9, 5)

    def synth(geometry, noise_rng=None, noise=0.0, sigma=0.1e-9):
        fiber = FiberSpec(geometry, geometry, 0.0, 1.0, dn)
        rows = []
        for lam_p in pumps:
            point = solve_phasematch(float(lam_p), fiber)
            lam_s, lam_i = point.signal_wavelength, point.idler_wavelength
            if noise:
                lam_s += noise_rng.normal(0.0, noise)
                lam_i += noise_rng.normal(0.0, noise)
            rows.append(
                fiber_fit.PhasematchMeasurement(float(lam_p), lam_s, lam_i, sigma)
            )
        return rows

    # Zero-noise round trips over random geometries.
    geom_rng = np.random.default_rng(5)
    recovered = 0
    attempted = 0
    while attempted < 10:
        candidate = FiberAxisGeometry(
            core_diameter=geom_rng.uniform(1.65e-6, 1.85e-6),
            air_filling_fraction=geom_rng.uniform(0.46, 0.56),
        )
        try:
            rows = synth(candidate)
        except Exception:
            continue  # no phasematch for this draw; sample another
        attempted += 1
        result = fiber_fit.fit_geometry(rows, n_starts=1, birefringence=dn)
        if (
            abs(result.geometry.core_diameter - candidate.core_diameter) < 1e-10
            and abs(
                result.geometry.air_filling_fraction
                - candidate.air_filling_fraction
            )
            < 1e-3
        ):
            recovered += 1
    clean_ok = recovered == 10

    # Noisy-case calibration on the paper geometry.
    truth = FiberAxisGeometry(1.7507e-6, 0.511)
    noise_rng = np.random.default_rng(17)
    calibrated = 0
    trials = 100
    for _ in range(trials):
        rows = synth(truth, noise_rng=noise_rng, noise=0.05e-9, sigma=0.05e-9)
        result = fiber_fit.fit_geometry(rows, n_starts=1, birefringence=dn)
        if (
            abs(result.geometry.core_diameter - truth.core_diameter)
            < 3 * result.core_diameter_sigma
            and abs(result.geometry.air_filling_fraction - truth.air_filling_fraction)
            < 3 * result.filling_fraction_sigma
        ):
            calibrated += 1
    ok = clean_ok and calibrated >= 95
    _report(
        11,
        ok,
        f"zero-noise {recovered}/10, noisy 3-sigma calibration {calibrated}/{trials}",
    )


def test_criterion_12_cli_determinism(capsys):
    argv = ["purity-scan", "--config", "paper40cm.json", "--lengths", "0.4", "1.0"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    second = capsys.readouterr().out
    ok = first == second and len(first) > 0
    _report(12, ok, f"{len(first)} bytes, byte-identical {first == second}")
