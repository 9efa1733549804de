"""Phasematching of cross-polarized spontaneous four-wave mixing.

The pump propagates on one axis (by convention the fast axis profile is used
for all three waves' chromatic wavevectors) and the daughter photons on the
orthogonal axis; the polarization walk-off enters through a single signed
birefringence term in the phase mismatch

    dk = 2 k(w_p) + (2/3) gamma P + 2 dn(w_p) w_p / c - k(w_s) - k(w_i),

with energy conservation w_i = 2 w_p - w_s enforced exactly.  The factor 2/3
reflects the reduced cross-polarized self-phase-modulation contribution of
the pump at peak power P.  Every caller takes dn at each pump frequency, from
`dispersion.pump_birefringence`.

solve_phasematch takes one pump or an array of them: a dk scan outward from
degeneracy stops at each pump's first sign change, and one vectorised
``chandrupatla`` call refines every bracket.  Tuning curves, the adaptive
grid's ridge, the geometry fit's sidebands and the GVM pump search each
solve their pumps in one call.  ridge_slopes is the one place that computes
the dk slopes at solved points: the adaptive grid's ridge, the GVM search,
the geometry fit's Jacobian and figure 1a all read them from it.
"""

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .constants import C_LIGHT
from .dispersion import (
    Axis,
    axis_profile,
    inverse_group_velocity,
    pump_birefringence,
    wavevector,
)
from .errors import (
    ConfigError,
    NoGroupVelocityMatchError,
    NoPhasematchError,
)
from .material_optics import FiberSpec, chandrupatla

__all__ = [
    "PumpSpec",
    "PhasematchPoint",
    "delta_k",
    "solve_phasematch",
    "phasematch_curve",
    "ridge_slopes",
    "gvm_pump_wavelength",
]

# Guard band keeping the solver away from the degenerate point [rad/s].
DEGENERACY_GUARD = 2.0 * np.pi * 2.0e12

# Signal samples of the dk scan that brackets the sideband nearest degeneracy.
_SCAN_POINTS = 2000
# Samples per block of that scan; a pump leaves the scan at its first sign change.
_SCAN_BLOCK = 256


@dataclass(frozen=True)
class PumpSpec:
    """Pulsed pump description.

    All wavelength-like quantities in meters, powers in watts.  peak_power
    is the pump's peak power P in the self-phase-modulation term (2/3)
    gamma P of the phase mismatch; finite and >= 0, default 0.
    filter_width is the full width of a rectangular spectral filter applied
    after the pump laser; None means unfiltered.  The field's support
    (`field_support`) must lie at positive frequency: a filter_width of at
    least twice center_wavelength, or an unfiltered Gaussian whose +-6 sigma
    window reaches zero frequency, is rejected.
    """

    center_wavelength: float
    gaussian_fwhm: float  # intensity FWHM of the pump spectrum [m]
    filter_width: float | None = None
    peak_power: float = 0.0

    def __post_init__(self):
        for spec in fields(self):
            value = getattr(self, spec.name)
            if value is None and spec.name == "filter_width":
                continue
            if value is None or not math.isfinite(value):
                raise ConfigError(f"{spec.name} must be finite, got {value}")
        if self.center_wavelength <= 0 or self.gaussian_fwhm <= 0:
            raise ConfigError("pump center wavelength and FWHM must be positive")
        if self.filter_width is not None and self.filter_width <= 0:
            raise ConfigError("filter_width must be positive when given")
        if self.filter_width is not None and self.filter_width >= 2.0 * self.center_wavelength:
            raise ConfigError(
                "filter_width must be less than twice center_wavelength, "
                "or the filter window reaches zero wavelength"
            )
        if self.field_support[0] <= 0:
            raise ConfigError(
                "gaussian_fwhm is too wide for an unfiltered pump: its +-6 sigma "
                "window reaches zero frequency; give a filter_width"
            )
        if self.peak_power < 0:
            raise ConfigError(f"peak_power must be >= 0, got {self.peak_power}")

    @property
    def center_omega(self):
        return 2.0 * np.pi * C_LIGHT / self.center_wavelength

    @property
    def sigma_omega(self):
        """Standard deviation of the pump *amplitude* Gaussian in omega [rad/s]."""
        fwhm_omega = 2.0 * np.pi * C_LIGHT * self.gaussian_fwhm / self.center_wavelength**2
        return fwhm_omega / (2.0 * np.sqrt(np.log(2.0)))

    @property
    def field_support(self):
        """(omega_lo, omega_hi) support of the filtered pump field [rad/s].

        The filter window in wavelength, or, unfiltered, the Gaussian
        amplitude truncated at +-6 standard deviations.
        """
        lam_c = self.center_wavelength
        if self.filter_width is not None:
            return (
                2.0 * np.pi * C_LIGHT / (lam_c + 0.5 * self.filter_width),
                2.0 * np.pi * C_LIGHT / (lam_c - 0.5 * self.filter_width),
            )
        reach = 6.0 * self.sigma_omega
        return self.center_omega - reach, self.center_omega + reach


@dataclass(frozen=True)
class PhasematchPoint:
    """One phasematched (pump, signal, idler) wavelength triple [m]."""

    pump_wavelength: float
    signal_wavelength: float
    idler_wavelength: float

    def __post_init__(self):
        op = 2.0 * np.pi * C_LIGHT / self.pump_wavelength
        os_ = 2.0 * np.pi * C_LIGHT / self.signal_wavelength
        oi = 2.0 * np.pi * C_LIGHT / self.idler_wavelength
        if abs(os_ + oi - 2.0 * op) > 1e-9 * op:
            raise ValueError("energy conservation violated: w_s + w_i != 2 w_p")
        if not self.signal_wavelength < self.pump_wavelength < self.idler_wavelength:
            raise ValueError("expected signal < pump < idler in wavelength")


def delta_k(omega_p, omega_s, omega_i, fiber: FiberSpec, peak_power=0.0, profile=None):
    """Phase mismatch dk [rad/m]; accepts scalars or broadcastable arrays.

    The chromatic wavevectors of all three waves are evaluated on the fast
    axis profile.  gamma is converted from 1/(W km) to 1/(W m).  dn is
    `pump_birefringence` at each element's own pump frequency.
    """
    if profile is None:
        profile = axis_profile(fiber, Axis.FAST)
    gamma_per_m = fiber.gamma * 1e-3
    dk = (
        2.0 * wavevector(omega_p, profile)
        + (2.0 / 3.0) * gamma_per_m * peak_power
        + 2.0 * pump_birefringence(omega_p, fiber) * np.asarray(omega_p, dtype=float) / C_LIGHT
        - wavevector(omega_s, profile)
        - wavevector(omega_i, profile)
    )
    return float(dk) if np.ndim(dk) == 0 else dk


def solve_phasematch(
    pump_wavelength, fiber: FiberSpec, peak_power=0.0, profile=None
):
    """Phasematched signal/idler pair for one pump wavelength or an array of them.

    For every pump, scans dk over 2000 signal frequencies from just above the
    degeneracy guard (+2 THz) to the top of the profile band (capped so the
    idler stays in band), block by block up to the first sign change, which
    brackets the sideband nearest degeneracy; one `chandrupatla` call then
    refines all brackets to 1e5 rad/s (well below 1e-4 nm).  `delta_k` takes
    the birefringence at each pump, and a root is accepted only if
    |dk| < 1e-3 rad/m.  A scalar pump gives a PhasematchPoint or raises
    NoPhasematchError; a 1-D array gives a list with one PhasematchPoint, or
    None where there is none, per pump.  An explicit profile overrides the
    default full-resolution fast-axis profile.
    """
    if profile is None:
        profile = axis_profile(fiber, Axis.FAST)
    pumps = np.atleast_1d(np.asarray(pump_wavelength, dtype=float))
    if pumps.ndim > 1:
        raise ValueError(f"pump_wavelength must be a scalar or 1-D, got shape {pumps.shape}")
    with np.errstate(divide="ignore"):  # a zero pump has an empty window below
        omega_p = 2.0 * np.pi * C_LIGHT / pumps
    band_lo, band_hi = profile.span
    lo = omega_p + DEGENERACY_GUARD
    hi = np.minimum(band_hi, 2.0 * omega_p - band_lo)
    # Keep the idler in band under rounding.
    hi = np.where(2.0 * omega_p - hi < band_lo, np.nextafter(hi, lo), hi)
    # A NaN pump fails both comparisons, so it is marked by the one mask.
    empty = ~(hi > lo)
    failures = {
        k: f"empty signal search window for pump {pumps[k] * 1e9:.2f} nm"
        for k in np.nonzero(empty)[0]
    }
    rows = np.nonzero(~empty)[0]
    omega_p = omega_p[rows]

    def mismatch(omega_s, omega_p):
        return delta_k(omega_p, omega_s, 2.0 * omega_p - omega_s, fiber, peak_power, profile)

    omegas = np.linspace(lo[rows], hi[rows], _SCAN_POINTS, axis=-1)
    values = np.empty_like(omegas)
    first = np.full(len(rows), -1)  # first sign change: the branch nearest degeneracy
    pending = np.arange(len(rows))
    for start in range(0, _SCAN_POINTS, _SCAN_BLOCK):
        stop = start + _SCAN_BLOCK
        values[pending, start:stop] = mismatch(omegas[pending, start:stop], omega_p[pending, None])
        # One sample of overlap finds a sign change across the block boundary.
        edge = max(start - 1, 0)
        signs = np.sign(values[pending, edge:stop])
        flips = signs[:, :-1] * signs[:, 1:] < 0
        hit = flips.any(axis=1)
        first[pending[hit]] = edge + flips[hit].argmax(axis=1)
        pending = pending[~hit]
        if not pending.size:
            break
    for r in pending:
        failures[rows[r]] = (
            f"no phasematched sideband for pump {pumps[rows[r]] * 1e9:.2f} nm "
            f"(dk range {values[r].min():.3g}..{values[r].max():.3g} rad/m)"
        )
    found = np.nonzero(first >= 0)[0]
    i = first[found]
    omega_p = omega_p[found]
    omega_s, ok = chandrupatla(
        mismatch, omegas[found, i], omegas[found, i + 1], (omega_p,), xatol=1e5
    )
    residual = np.abs(mismatch(omega_s, omega_p))
    points = [None] * len(pumps)
    for r, k in enumerate(rows[found]):
        if not (ok[r] and residual[r] < 1e-3):
            failures[k] = (
                f"phasematch root did not converge: |dk| = {residual[r]:.3g} rad/m"
            )
            continue
        points[k] = PhasematchPoint(
            pump_wavelength=float(pumps[k]),
            signal_wavelength=float(2.0 * np.pi * C_LIGHT / omega_s[r]),
            idler_wavelength=float(2.0 * np.pi * C_LIGHT / (2.0 * omega_p[r] - omega_s[r])),
        )
    if np.ndim(pump_wavelength) > 0:
        return points
    if failures:
        raise NoPhasematchError(*failures.values())
    return points[0]


def phasematch_curve(pump_range, n_points, fiber: FiberSpec, peak_power=0.0):
    """Phasematched points over a pump wavelength range (both ends inclusive).

    Pump wavelengths without a solution are omitted from the returned list;
    a single warning summarizes how many were skipped.
    """
    pumps = np.linspace(*pump_range, n_points)
    solved = solve_phasematch(pumps, fiber, peak_power)
    skipped = [lam_p for lam_p, point in zip(pumps, solved) if point is None]
    if skipped:
        warnings.warn(
            f"no phasematch for {len(skipped)} of {n_points} pump wavelengths "
            f"(first skipped: {skipped[0] * 1e9:.2f} nm)",
            stacklevel=2,
        )
    return [point for point in solved if point is not None]


def ridge_slopes(points, fiber: FiberSpec, profile=None):
    """Frequencies and dk slopes of `solve_phasematch`'s list, one row per entry.

    Returns arrays (omega_p, omega_s, omega_i, slope_s, slope_i) with
    slope_x = k'(w_p) + dn/c - k'(w_x): k' on the profile (by default the
    fiber's fast-axis profile) and dn at each point's own pump, as
    `delta_k` takes it.  A None entry gives NaN in every array; an empty
    list gives empty arrays.  slope_s = d(dk)/d(w_s) at fixed w_i and
    slope_i = d(dk)/d(w_i) at fixed w_s, so at fixed pump d(dk)/d(w_s) =
    slope_s - slope_i, along the ridge dw_i/dw_s = -slope_s/slope_i, and the
    group-velocity-matched pump is where slope_s = 0.
    """
    if profile is None:
        profile = axis_profile(fiber, Axis.FAST)
    rows = [
        (np.nan,) * 3 if p is None else (p.pump_wavelength, p.signal_wavelength, p.idler_wavelength)
        for p in points
    ]
    lam = np.reshape(rows, (-1, 3)).T
    omega_p, omega_s, omega_i = 2.0 * np.pi * C_LIGHT / lam
    dn = pump_birefringence(omega_p, fiber)
    slowness_p = inverse_group_velocity(omega_p, profile) + dn / C_LIGHT
    slope_s = slowness_p - inverse_group_velocity(omega_s, profile)
    slope_i = slowness_p - inverse_group_velocity(omega_i, profile)
    return omega_p, omega_s, omega_i, slope_s, slope_i


def gvm_pump_wavelength(
    fiber: FiberSpec, search_range=(760e-9, 810e-9), peak_power=0.0
):
    """Pump wavelength [m] where slope_s of `ridge_slopes` vanishes.

    There the joint spectrum's ridge runs along the signal axis.  With a
    pump-independent birefringence the idler is also stationary under pump
    tuning there; a pump-dependent dn (no override) moves that point away.
    The walk-off term holds dn at each pump, as `delta_k` does, with no dn'
    term, so with dn = 0 this is plain group-velocity matching.  Scans
    slope_s (NaN where a pump has no phasematch) at 16 pumps over the search
    range in one `solve_phasematch` call, then refines the first sign change
    with `chandrupatla` to 1e-12 m, passing it the scan's slope_s at the
    bracket ends so those two pumps are not solved again.  Raises
    NoGroupVelocityMatchError when slope_s does not change sign or the root
    does not converge.  The default 760-810 nm holds the 768-794 nm pumps of
    cores 1.70-1.80 um, fill 0.49-0.53.
    """

    def slope_s(pumps):
        return ridge_slopes(solve_phasematch(pumps, fiber, peak_power), fiber)[3]

    lam_lo, lam_hi = search_range
    grid = np.linspace(lam_lo, lam_hi, 16)
    values = slope_s(grid)
    flips = np.nonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0)[0]
    if len(flips) == 0:
        raise NoGroupVelocityMatchError(
            f"no group-velocity-matched pump in "
            f"({lam_lo * 1e9:.1f}, {lam_hi * 1e9:.1f}) nm"
        )
    i = flips[0]
    root, ok = chandrupatla(
        slope_s, grid[i], grid[i + 1], xatol=1e-12, ends=(values[i], values[i + 1])
    )
    if not ok:
        raise NoGroupVelocityMatchError(
            f"group-velocity-matched pump in ({grid[i] * 1e9:.2f}, "
            f"{grid[i + 1] * 1e9:.2f}) nm did not converge"
        )
    return float(root)
