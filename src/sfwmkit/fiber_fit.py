"""Recovering the step-index fiber geometry from measured phasematch points.

Sideband wavelengths measured at several pump wavelengths pin down the two
geometry parameters (core diameter, air filling fraction) of one axis: the
model phasematch curve is solved for each candidate geometry and the
sigma-weighted residuals against the measured signal/idler wavelengths are
minimized by bounded least squares with a handful of deterministic restarts.
"""

import csv
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .dispersion import Axis, DispersionProfile
from .errors import ConfigError, DomainError, FitError
from .material_optics import FiberAxisGeometry, FiberSpec, ModeCutoffError
from .phasematch import solve_phasematch

__all__ = [
    "PhasematchMeasurement",
    "GeometryFitResult",
    "load_measurements",
    "fit_geometry",
]

# Bounds of the geometry search box: core diameter [m], filling fraction.
DIAMETER_BOUNDS = (1.0e-6, 3.0e-6)
FILLING_BOUNDS = (0.3, 0.7)

# Residual assigned (per observed wavelength) when the model has no
# phasematch at a candidate geometry; dominates any physical residual.
PENALTY_RESIDUAL = 1e3

_CSV_HEADER = ["lambda_p_nm", "lambda_s_nm", "lambda_i_nm", "sigma_nm"]

_FIT_PROFILE_POINTS = 192


@dataclass(frozen=True)
class PhasematchMeasurement:
    """One measured phasematch row; wavelengths in meters, sigma in meters.

    Either sideband may be None when only the other was recorded.
    """

    pump_wavelength: float
    signal_wavelength: float | None
    idler_wavelength: float | None
    sigma: float

    def __post_init__(self):
        if self.pump_wavelength <= 0:
            raise ValueError("pump_wavelength must be positive")
        if self.signal_wavelength is None and self.idler_wavelength is None:
            raise ValueError("at least one sideband wavelength is required")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


@dataclass(frozen=True)
class GeometryFitResult:
    geometry: FiberAxisGeometry
    core_diameter_sigma: float
    filling_fraction_sigma: float
    residual_rms: float  # sigma-weighted root mean square residual
    n_penalized: int  # model failures at the solution (should be 0)
    n_starts: int
    cost: float


def load_measurements(path):
    """Read phasematch measurements from CSV.

    Expected header: lambda_p_nm,lambda_s_nm,lambda_i_nm,sigma_nm.  Sideband
    cells may be empty (but not both).  Errors carry the 1-based line number.
    """
    rows = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty file") from None
        if [h.strip() for h in header] != _CSV_HEADER:
            raise ConfigError(
                f"{path}:1: expected header {','.join(_CSV_HEADER)}, "
                f"got {','.join(header)}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 4:
                raise ConfigError(f"{path}:{lineno}: expected 4 columns, got {len(row)}")

            def parse(cell, name, optional=False):
                cell = cell.strip()
                if not cell:
                    if optional:
                        return None
                    raise ConfigError(f"{path}:{lineno}: missing {name}")
                try:
                    return float(cell) * 1e-9
                except ValueError:
                    raise ConfigError(
                        f"{path}:{lineno}: cannot parse {name} value {cell!r}"
                    ) from None

            try:
                rows.append(
                    PhasematchMeasurement(
                        pump_wavelength=parse(row[0], "lambda_p_nm"),
                        signal_wavelength=parse(row[1], "lambda_s_nm", optional=True),
                        idler_wavelength=parse(row[2], "lambda_i_nm", optional=True),
                        sigma=parse(row[3], "sigma_nm"),
                    )
                )
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise ConfigError(f"{path}: no measurement rows")
    return rows


def _model_residuals(x, measurements, birefringence, peak_power):
    """Sigma-weighted residual vector for geometry parameters x = (d_um, f)."""
    try:
        geometry = FiberAxisGeometry(
            core_diameter=x[0] * 1e-6, air_filling_fraction=x[1]
        )
        profile = DispersionProfile.from_geometry(
            geometry, axis=Axis.FAST, n_points=_FIT_PROFILE_POINTS
        )
    except (ValueError, ModeCutoffError, DomainError):
        profile = None

    points = [None] * len(measurements)
    if profile is not None:
        fiber = FiberSpec(
            fast_axis=geometry,
            slow_axis=geometry,
            gamma=0.0,
            length=1.0,
            birefringence_override=birefringence,
        )
        pumps = np.array([m.pump_wavelength for m in measurements])
        try:
            points = solve_phasematch(pumps, fiber, peak_power, profile=profile)
        except (DomainError, ModeCutoffError):
            pass

    residuals = []
    penalized = 0
    for m, point in zip(measurements, points):
        for observed, model in (
            (m.signal_wavelength, point and point.signal_wavelength),
            (m.idler_wavelength, point and point.idler_wavelength),
        ):
            if observed is None:
                continue
            if model is None:
                residuals.append(PENALTY_RESIDUAL)
                penalized += 1
            else:
                residuals.append((model - observed) / m.sigma)
    return np.asarray(residuals), penalized


def fit_geometry(
    measurements,
    initial_guess=None,
    birefringence=0.0,
    peak_power=0.0,
    n_starts=5,
):
    """Fit (core diameter, filling fraction) of the guiding axis to the data.

    Bounded trust-region least squares from `n_starts` deterministic starting
    points (the initial guess plus fixed jitters); the lowest-cost converged
    solution wins, with lexicographic (diameter, fraction) tie-breaking.
    Parameter sigmas come from the inverse Gauss-Newton Hessian of the
    sigma-weighted residuals.  `birefringence` is the (signed) index
    difference assumed when solving the model phasematch.
    """
    if not measurements:
        raise FitError("no measurements to fit")
    if initial_guess is None:
        initial_guess = FiberAxisGeometry(1.75e-6, 0.5)

    def objective(x):
        return _model_residuals(x, measurements, birefringence, peak_power)[0]

    x0 = np.array([initial_guess.core_diameter * 1e6, initial_guess.air_filling_fraction])
    lo = np.array([DIAMETER_BOUNDS[0] * 1e6, FILLING_BOUNDS[0]])
    hi = np.array([DIAMETER_BOUNDS[1] * 1e6, FILLING_BOUNDS[1]])
    x0 = np.clip(x0, lo, hi)
    # Fixed relative jitters keep restarts deterministic.
    jitters = [(0.0, 0.0), (0.03, 0.02), (-0.03, -0.02), (0.06, -0.03), (-0.06, 0.03)]

    best = None
    for jd, jf in jitters[: max(1, n_starts)]:
        start = np.clip(x0 * np.array([1.0 + jd, 1.0 + jf]), lo, hi)
        # Package errors inside the model become penalty residuals in
        # _model_residuals; anything else is a bug and propagates.
        fit = least_squares(
            objective,
            x0=start,
            bounds=(lo, hi),
            method="trf",
            xtol=1e-6,
            ftol=1e-10,
            gtol=1e-10,
            diff_step=1e-4,
        )
        if not fit.success:
            continue
        key = (fit.cost, fit.x[0], fit.x[1])
        if best is None or key < best[0]:
            best = (key, fit)
    if best is None:
        raise FitError("no restart converged")
    fit = best[1]

    residuals, penalized = _model_residuals(
        fit.x, measurements, birefringence, peak_power
    )
    jac = fit.jac
    try:
        cov = np.linalg.inv(jac.T @ jac)
        sigmas = np.sqrt(np.diag(cov))
    except np.linalg.LinAlgError:
        sigmas = np.array([np.inf, np.inf])
    return GeometryFitResult(
        geometry=FiberAxisGeometry(
            core_diameter=fit.x[0] * 1e-6, air_filling_fraction=float(fit.x[1])
        ),
        core_diameter_sigma=float(sigmas[0] * 1e-6),
        filling_fraction_sigma=float(sigmas[1]),
        residual_rms=float(np.sqrt(np.mean(residuals**2))),
        n_penalized=penalized,
        n_starts=max(1, n_starts),
        cost=float(fit.cost),
    )
