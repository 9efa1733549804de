"""Recovering the step-index fiber geometry from measured phasematch points.

Sideband wavelengths measured at several pump wavelengths pin down the two
geometry parameters (core diameter, air filling fraction) of one axis: the
model phasematch curve is solved for each candidate geometry and the
sigma-weighted residuals against the measured signal/idler wavelengths are
minimized by bounded least squares with up to five deterministic restarts.
The Jacobian is exact: the implicit function theorem, applied to the HE11
and FSM roots behind the mode index and to the sideband root of dk, gives
each sideband's derivative in the geometry from the same profile and
phasematch points as the residual, so one profile build serves both, and
the parameter sigmas come from it.
"""

import csv
import functools
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .constants import C_LIGHT
from .dispersion import DispersionProfile
from .errors import ConfigError, DomainError, FitError
from .material_optics import (
    FiberAxisGeometry,
    FiberSpec,
    ModeCutoffError,
    he11_index_gradient,
)
from .phasematch import ridge_slopes, solve_phasematch

__all__ = [
    "PhasematchMeasurement",
    "GeometryFitResult",
    "read_csv",
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

# Fixed relative (diameter, fraction) jitters of the starts keep restarts
# deterministic.
_JITTERS = ((0.0, 0.0), (0.03, 0.02), (-0.03, -0.02), (0.06, -0.03), (-0.06, 0.03))

_TWO_PI_C = 2.0 * np.pi * C_LIGHT


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
        for name, value in vars(self).items():
            if value is None and name in ("signal_wavelength", "idler_wavelength"):
                continue
            if value is None or not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if self.signal_wavelength is None and self.idler_wavelength is None:
            raise ValueError("at least one sideband wavelength is required")


@dataclass(frozen=True)
class GeometryFitResult:
    geometry: FiberAxisGeometry
    core_diameter_sigma: float
    filling_fraction_sigma: float
    residual_rms: float  # sigma-weighted root mean square residual
    n_penalized: int  # model failures at the solution (should be 0)
    n_starts: int
    cost: float


def read_csv(path, header, optional=()):
    """Yield (line number, values) for each data row of a numeric CSV file.

    The first line must be `header`; blank lines are skipped.  Every cell
    must be a finite number, except that a cell of a column named in
    `optional` may be empty, which gives None.  Errors carry the 1-based
    line number.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        first = next(reader, None)
        if first is None:
            raise ConfigError(f"{path}: empty file")
        if [h.strip() for h in first] != list(header):
            raise ConfigError(
                f"{path}:1: expected header {','.join(header)}, got {','.join(first)}"
            )
        rows = 0
        for lineno, row in enumerate(reader, start=2):
            if not any(cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise ConfigError(
                    f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}"
                )
            values = []
            for name, cell in zip(header, row):
                cell = cell.strip()
                if not cell and name in optional:
                    values.append(None)
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise ConfigError(
                        f"{path}:{lineno}: cannot parse {name} value {cell!r}"
                    ) from None
                if not np.isfinite(value):
                    raise ConfigError(
                        f"{path}:{lineno}: {name} must be a finite number, got {cell!r}"
                    )
                values.append(value)
            rows += 1
            yield lineno, values
    if not rows:
        raise ConfigError(f"{path}: no data rows")


def load_measurements(path):
    """Read phasematch measurements from CSV (see `read_csv`).

    Expected header: lambda_p_nm,lambda_s_nm,lambda_i_nm,sigma_nm.  Sideband
    cells may be empty (but not both).
    """
    rows = []
    for lineno, values in read_csv(path, _CSV_HEADER, optional=("lambda_s_nm", "lambda_i_nm")):
        pump, signal, idler, sigma = (None if v is None else v * 1e-9 for v in values)
        try:
            rows.append(PhasematchMeasurement(pump, signal, idler, sigma))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return rows


class _Model:
    """Model sidebands at x = (d_um, f) and their sigma-weighted residuals.

    The profile is None, and every point None, where the geometry has no
    guided mode or no phasematch; otherwise a point is None where its pump
    has no phasematch, and its residuals are penalized.  The Jacobian is
    built on first access only.
    """

    def __init__(self, x, measurements, birefringence):
        self.geometry = FiberAxisGeometry(core_diameter=x[0] * 1e-6, air_filling_fraction=x[1])
        pumps = np.array([m.pump_wavelength for m in measurements])
        try:
            self.profile = DispersionProfile.from_geometry(
                self.geometry, n_points=_FIT_PROFILE_POINTS
            )
            self.fiber = FiberSpec(
                fast_axis=self.geometry,
                slow_axis=self.geometry,
                gamma=0.0,
                length=1.0,
                birefringence_override=birefringence,
            )
            self.points = solve_phasematch(pumps, self.fiber, profile=self.profile)
        except (ModeCutoffError, DomainError):
            self.profile, self.points = None, [None] * len(measurements)
        # The (n, 2) tables of observed and model sidebands, signal in column 0
        # and NaN for none; `_index` lists the observed ones, a row's signal first.
        observed, model = (
            np.array([(r and r.signal_wavelength, r and r.idler_wavelength) for r in rows], float)
            for rows in (measurements, self.points)
        )
        self._index = np.nonzero(~np.isnan(observed))
        self._sigma = np.array([m.sigma for m in measurements])[self._index[0]]
        self._model = model[self._index]
        self._unsolved = np.isnan(self._model)
        self.penalized = int(np.sum(self._unsolved))
        residuals = (self._model - observed[self._index]) / self._sigma
        self.residuals = np.where(self._unsolved, PENALTY_RESIDUAL, residuals)

    @functools.cached_property
    def jacobian(self):
        """Jacobian of the residuals in x.

        Each model sideband solves dk(w_s; x) = 0, so by the implicit function
        theorem dw_s/dx = -(2 k_x(w_p) - k_x(w_s) - k_x(w_i)) / (slope_s - slope_i)
        and dw_i/dx = -dw_s/dx, with the slopes of `ridge_slopes` on the
        model profile and k_x = (w/c) dn_eff/dx from ``he11_index_gradient``
        at the pump and sideband frequencies themselves (n_eff read off the
        profile), so no spline of the gradient is built.  A residual row is
        -lambda^2/(2 pi c) dw/dx / sigma; a penalized row is zero.
        """
        d_omega_s = np.zeros((len(self.points), 2))
        if any(self.points):  # every point is None where there is no profile
            *omegas, slope_s, slope_i = ridge_slopes(self.points, self.fiber, self.profile)
            found = ~np.isnan(slope_s)
            omegas = np.concatenate([omega[found] for omega in omegas])
            dn = he11_index_gradient(
                _TWO_PI_C / omegas, self.geometry, self.profile.index_at(omegas)
            )
            dn[:, 0] *= 1e-6  # x[0] is in um
            k_p, k_s, k_i = np.split(dn * (omegas / C_LIGHT)[:, None], 3)
            d_omega_s[found] = -(2.0 * k_p - k_s - k_i) / (slope_s - slope_i)[found, None]
        # dw_i/dx = -dw_s/dx gives an idler row the opposite sign; float_power
        # squares by the C library's pow, as a float's ** does (numpy's ** 2
        # multiplies, which differs in the last bit about 1 in 1000).
        rows, cols = self._index
        factor = (2.0 * cols - 1.0) * np.float_power(self._model, 2) / _TWO_PI_C
        jac = factor[:, None] * d_omega_s[rows] / self._sigma[:, None]
        return np.where(self._unsolved[:, None], 0.0, jac)


def fit_geometry(measurements, initial_guess=None, birefringence=0.0, n_starts=5):
    """Fit (core diameter, filling fraction) of the guiding axis to the data.

    Bounded trust-region least squares from `n_starts` (1 to 5) deterministic
    starting points (the initial guess plus fixed jitters); the lowest-cost
    converged solution wins, with lexicographic (diameter, fraction)
    tie-breaking.  The Jacobian is the implicit-function derivative of the
    model sidebands (see `_Model.jacobian`); the residual and Jacobian at one point
    share one profile build and one phasematch solve, and the Jacobian is
    built only where the solver asks for it.  Parameter sigmas come
    from the inverse Gauss-Newton Hessian of that Jacobian at the solution.
    `birefringence` is the (signed) index difference assumed when solving the
    model phasematch.  The model fiber has gamma = 0: the fit neglects
    self-phase modulation.  A fit whose every residual is penalized (no
    model phasematch at any measured pump) raises FitError.
    """
    if not measurements:
        raise FitError("no measurements to fit")
    if (
        isinstance(n_starts, bool)
        or not isinstance(n_starts, numbers.Integral)
        or not 1 <= n_starts <= len(_JITTERS)
    ):
        raise ValueError(f"n_starts must be an integer in 1..{len(_JITTERS)}, got {n_starts!r}")
    if initial_guess is None:
        initial_guess = FiberAxisGeometry(1.75e-6, 0.5)

    memo = [None, None]  # the last x and its _Model

    def model(x):
        if not np.array_equal(memo[0], x):
            memo[:] = x.copy(), _Model(x, measurements, birefringence)
        return memo[1]

    x0 = np.array([initial_guess.core_diameter * 1e6, initial_guess.air_filling_fraction])
    lo = np.array([DIAMETER_BOUNDS[0] * 1e6, FILLING_BOUNDS[0]])
    hi = np.array([DIAMETER_BOUNDS[1] * 1e6, FILLING_BOUNDS[1]])
    x0 = np.clip(x0, lo, hi)

    best = None
    for jd, jf in _JITTERS[:n_starts]:
        start = np.clip(x0 * np.array([1.0 + jd, 1.0 + jf]), lo, hi)
        # Package errors inside the model become penalty residuals in
        # _Model; anything else is a bug and propagates.
        fit = least_squares(
            lambda x: model(x).residuals,
            x0=start,
            jac=lambda x: model(x).jacobian,
            bounds=(lo, hi),
            method="trf",
            xtol=1e-6,
            ftol=1e-10,
            gtol=1e-10,
        )
        if not fit.success:
            continue
        key = (fit.cost, fit.x[0], fit.x[1])
        if best is None or key < best[0]:
            best = (key, fit)
    if best is None:
        raise FitError("no restart converged")
    fit = best[1]

    final = model(fit.x)
    if final.penalized == len(final.residuals):
        raise FitError(
            f"no model phasematch at any measured pump for the best fit "
            f"(core {fit.x[0]:.6g} um, filling fraction {fit.x[1]:.6g})"
        )
    try:
        cov = np.linalg.inv(final.jacobian.T @ final.jacobian)
        sigmas = np.sqrt(np.diag(cov))
    except np.linalg.LinAlgError:
        sigmas = np.array([np.inf, np.inf])
    return GeometryFitResult(
        geometry=FiberAxisGeometry(
            core_diameter=fit.x[0] * 1e-6, air_filling_fraction=float(fit.x[1])
        ),
        core_diameter_sigma=float(sigmas[0] * 1e-6),
        filling_fraction_sigma=float(sigmas[1]),
        residual_rms=float(np.sqrt(np.mean(final.residuals**2))),
        n_penalized=final.penalized,
        n_starts=n_starts,
        cost=float(fit.cost),
    )
