"""Wavevector, group velocity, GVD, zero-GVD finding and birefringence per fiber axis.

Each profile interpolates k(omega) = n_eff(omega) omega / c with one quintic
spline through the sampled mode indices, held in piecewise power-basis form
(a scipy PPoly), so k and its derivatives are one Horner evaluation on the
located piece; inverse group velocity and GVD are the exact first and second
derivatives of that spline, valid over the whole sampled span, so the mode
solvers in material_optics stay black boxes.
Chromatic-dispersion profiles use the calibrated vector model (HE11 core mode
over the unit-cell space-filling-mode cladding); the axis birefringence uses
the scalar LP01 model, which tracks the measured fast/slow index difference
much better than the vector model does.  Every phase mismatch reads it at each
pump from one Chebyshev series per axis pair (`pump_birefringence`).
"""

import enum
import functools
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PPoly, make_interp_spline

from .constants import C_LIGHT
from .errors import DomainError
from .material_optics import FiberSpec, he11_effective_index_grid, lp01_effective_index

__all__ = [
    "Axis",
    "DispersionProfile",
    "wavevector",
    "inverse_group_velocity",
    "gvd",
    "zero_gvd_wavelengths",
    "birefringence",
    "pump_birefringence",
    "axis_profile",
]

DEFAULT_WAVELENGTH_BAND = (550e-9, 1250e-9)
DEFAULT_GRID_POINTS = 2048
_SPLINE_ORDER = 5


class Axis(str, enum.Enum):
    FAST = "fast"
    SLOW = "slow"


@dataclass(frozen=True, eq=False)
class DispersionProfile:
    """n_eff(omega) samples of one fiber axis plus a piecewise polynomial of k(omega)."""

    omegas: np.ndarray  # strictly increasing angular frequencies [rad/s]
    n_eff: np.ndarray

    def __post_init__(self):
        omegas = np.asarray(self.omegas, dtype=float)
        n_eff = np.asarray(self.n_eff, dtype=float)
        if omegas.ndim != 1 or len(omegas) < 32:
            raise ValueError("profile grid needs >= 32 increasing frequency samples")
        if np.any(np.diff(omegas) <= 0):
            raise ValueError("profile grid must be strictly increasing")
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "n_eff", n_eff)
        spline = make_interp_spline(omegas, n_eff * omegas / C_LIGHT, k=_SPLINE_ORDER)
        object.__setattr__(self, "_spline", PPoly.from_spline(spline))

    @classmethod
    def from_geometry(cls, geometry, n_points=DEFAULT_GRID_POINTS):
        """Sample the HE11/space-filling-mode solver over DEFAULT_WAVELENGTH_BAND."""
        lam_lo, lam_hi = DEFAULT_WAVELENGTH_BAND
        omegas = np.linspace(
            2 * np.pi * C_LIGHT / lam_hi, 2 * np.pi * C_LIGHT / lam_lo, n_points
        )
        wavelengths = 2 * np.pi * C_LIGHT / omegas
        n_eff = he11_effective_index_grid(wavelengths, geometry)
        return cls(omegas=omegas, n_eff=n_eff)

    @property
    def span(self):
        """(omega_lo, omega_hi): the band where k and its derivatives are valid."""
        return float(self.omegas[0]), float(self.omegas[-1])

    def index_at(self, omega):
        """n_eff = k c / omega; raises DomainError outside `span`, as `wavevector` does."""
        return wavevector(omega, self) * C_LIGHT / np.asarray(omega, dtype=float)


def _check_in_span(omega, span):
    lo, hi = span
    if np.any(np.asarray(omega) < lo) or np.any(np.asarray(omega) > hi):
        raise DomainError(f"frequency outside span [{lo:.6e}, {hi:.6e}] rad/s")


def _k_derivative(omega, profile, order):
    _check_in_span(omega, profile.span)
    out = profile._spline(omega, nu=order)
    return float(out) if np.ndim(omega) == 0 else out


def wavevector(omega, profile):
    """Propagation constant k = n_eff(omega) * omega / c [rad/m]."""
    return _k_derivative(omega, profile, 0)


def inverse_group_velocity(omega, profile):
    """dk/domega [s/m], the first derivative of the k(omega) spline."""
    return _k_derivative(omega, profile, 1)


def gvd(omega, profile):
    """d^2k/domega^2 [s^2/m], the second derivative of the k(omega) spline."""
    return _k_derivative(omega, profile, 2)


def zero_gvd_wavelengths(profile, wavelength_band):
    """All zero-GVD wavelengths [m] in the band, sorted in increasing order.

    The roots are the real roots, inside the profile span, of the piecewise
    cubic second derivative of the k(omega) spline; empty list if there are
    none in the band.  By the convex-hull property a cubic whose four
    Bernstein coefficients on its piece are all of one sign has no root
    there, so only the other pieces (in contiguous runs, which keeps a root
    on a shared breakpoint from being reported twice) go to ``PPoly.roots``;
    the roots are those of the whole second derivative, bit for bit.
    """
    lam_lo, lam_hi = wavelength_band
    om_lo = 2 * np.pi * C_LIGHT / lam_hi
    om_hi = 2 * np.pi * C_LIGHT / lam_lo
    second = profile._spline.derivative(2)
    h = np.diff(second.x)
    a3, a2, a1, a0 = second.c * h ** np.arange(3, -1, -1)[:, None]
    bernstein = np.array([a0, a0 + a1 / 3, a0 + (2 * a1 + a2) / 3, a0 + a1 + a2 + a3])
    # Rounding of the Bernstein coefficients stays far below this margin.
    margin = 16 * np.finfo(float).eps * (abs(a0) + abs(a1) + abs(a2) + abs(a3))
    one_sign = np.all(bernstein > margin, axis=0) | np.all(bernstein < -margin, axis=0)
    pieces = np.flatnonzero(~one_sign)
    roots = []
    for run in np.split(pieces, np.flatnonzero(np.diff(pieces) > 1) + 1):
        if run.size:
            part = PPoly.construct_fast(
                second.c[:, run[0] : run[-1] + 1], second.x[run[0] : run[-1] + 2]
            )
            roots.extend(part.roots(discontinuity=False, extrapolate=False))
    return sorted(float(2 * np.pi * C_LIGHT / om) for om in roots if om_lo <= om <= om_hi)


def birefringence(wavelength, fiber: FiberSpec):
    """Signed birefringence n_eff(slow) - n_eff(fast).

    When the fiber carries an explicit birefringence_override, that value is
    returned unchanged (wavelength-independent); otherwise the difference of
    the scalar LP01 effective indices of the two axes is computed.
    """
    if fiber.birefringence_override is not None:
        return fiber.birefringence_override
    return lp01_effective_index(wavelength, fiber.slow_axis) - lp01_effective_index(
        wavelength, fiber.fast_axis
    )


@functools.lru_cache(maxsize=32)
def _birefringence_series(fast_axis, slow_axis):
    """Degree-24 Chebyshev series in omega of the LP01 n_slow - n_fast over the band.

    dn is analytic in band, so the tail is rounding; as dn can be ~1e-9, the
    check is absolute: a degree 21-24 coefficient above 1e-14 raises ArithmeticError.
    """

    def dn(omega):
        lam = 2 * np.pi * C_LIGHT / omega
        return lp01_effective_index(lam, slow_axis) - lp01_effective_index(lam, fast_axis)

    series = np.polynomial.Chebyshev.interpolate(
        dn,
        24,
        domain=2 * np.pi * C_LIGHT / np.array(DEFAULT_WAVELENGTH_BAND[::-1]),
    )
    tail = float(np.abs(series.coef[-4:]).max())
    if tail > 1e-14:
        raise ArithmeticError(f"birefringence series tail {tail:.3e} above 1e-14")
    return series


def pump_birefringence(omega_p, fiber: FiberSpec):
    """dn at each pump [rad/s] for every dk and dk slope: the override, or the series."""
    if fiber.birefringence_override is not None:
        return fiber.birefringence_override
    series = _birefringence_series(fiber.fast_axis, fiber.slow_axis)
    _check_in_span(omega_p, series.domain)
    return series(omega_p)


@functools.lru_cache(maxsize=32)
def _cached_profile(geometry):
    return DispersionProfile.from_geometry(geometry)


def axis_profile(fiber: FiberSpec, axis=Axis.FAST):
    """Memoized dispersion profile for one axis of a fiber.

    Profiles are expensive to build (a mode solve per grid point), and all
    downstream routines key off the same handful of geometries, so results
    are cached on the (hashable) axis geometry.
    """
    return _cached_profile(fiber.axis_geometry(axis))
